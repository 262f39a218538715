"""Energy descent by elementary moves.

An elementary move shifts two consecutive interfaces (z_{k+1}, z_{k+2})
by the same offset t.  The mean value is automatically conserved, and the
roots of the slope-accumulation profile xi that bound the moved strip
stay fixed, so for zero-mean patterns whose xi crosses zero between every
interface pair the energy change localizes to the window (alpha, beta)
between the bounding roots.  Writing x for the root between the moved
interfaces (the interfaces sit at the midpoints (alpha+x)/2, (x+beta)/2,
and x shifts by 2t), the window's energy is, up to an x-independent
constant,

    e(x; alpha, beta, gamma) = sqrt(1 - ((alpha+x)/2)^2)
                             + sqrt(1 - ((x+beta)/2)^2)
                             + gamma * [(alpha-x) f((alpha+x)/2)
                                        + (x-beta) f((x+beta)/2)]

with f(s) = (1-s)log(1-s) + (1+s)log(1+s).  Differences of e equal
differences of the full energy divided by 2*pi; the test suite pins that
identity against the energy module.  Patterns without the root structure
(or with nonzero mean) are minimized along the same moves by evaluating
the full energy directly.

Cyclic sweeps of the per-frame scalar minimization drive a pattern to a
fixed point.  Boundary configurations (an interface at a pole, or two
interfaces merged) are handled by the same move applied from the
degenerate state; whether the move strictly beats the degenerate limit
value decides escape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import EnergyBreakdown, total_energy
from .errors import CycleLimit, DomainError, NoEscape, OrderingViolated, OutOfRange
from .pattern import AxisymPattern, is_symmetric, make_pattern, mass_of_interfaces, xi_profile

__all__ = [
    "MASS_ZERO_TOL",
    "MoveFrame",
    "MinimizeOptions",
    "CycleRecord",
    "MinimizeResult",
    "BoundaryPattern",
    "EscapeProbe",
    "profile_f",
    "segment_energy",
    "pole_limit",
    "golden_min",
    "triple_frame",
    "apply_elementary_move",
    "move_range",
    "minimize_triple",
    "local_minimize",
    "trace_to_csv",
    "escape_pole_frame",
    "boundary_escape",
]

MASS_ZERO_TOL = 1e-12  # mean values below this count as zero for the profile
DECREASE_TOL = 1e-13  # energy drops below this end a move or a sweep
SCAN_SAMPLES = 48  # grid points of the pre-scan before golden section


def profile_f(x: float) -> float:
    """(1-x)log(1-x) + (1+x)log(1+x), with 0*log 0 = 0 at the endpoints."""
    if not -1.0 <= x <= 1.0:
        raise OutOfRange(f"profile argument {x!r} outside [-1, 1]")
    if x == 1.0 or x == -1.0:
        return 2.0 * math.log(2.0)
    return (1.0 - x) * math.log1p(-x) + (1.0 + x) * math.log1p(x)


def segment_energy(x: float, alpha: float, beta: float, gamma: float) -> float:
    """Window energy profile e(x; alpha, beta, gamma), constant omitted.

    All consumers use differences, so the additive constant that depends
    only on (alpha, beta) is dropped.
    """
    if not (-1.0 <= alpha < x < beta <= 1.0):
        raise DomainError(f"need -1 <= alpha < x < beta <= 1, got {(alpha, x, beta)!r}")
    lo_mid = 0.5 * (alpha + x)
    hi_mid = 0.5 * (x + beta)
    e_p = math.sqrt(1.0 - lo_mid * lo_mid) + math.sqrt(1.0 - hi_mid * hi_mid)
    e_nl = (alpha - x) * profile_f(lo_mid) + (x - beta) * profile_f(hi_mid)
    return e_p + gamma * e_nl


def pole_limit(alpha: float, gamma: float) -> float:
    """Limit of e(x; alpha, 1, gamma) as the moved strip vanishes at the pole."""
    if not -1.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha!r} outside (-1, 1)")
    mid = 0.5 * (1.0 + alpha)
    return math.sqrt(1.0 - mid * mid) + gamma * (alpha - 1.0) * profile_f(mid)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo: float, hi: float, tol: float = 1e-12, samples: int = SCAN_SAMPLES):
    """Grid pre-scan followed by golden-section refinement on (lo, hi).

    The pre-scan guards against the double-well shapes the window profile
    develops near the poles; golden section then converges on the best
    bracket.  Returns (x, f(x)).
    """
    if not hi > lo:
        raise DomainError(f"empty bracket ({lo!r}, {hi!r})")
    xs = np.linspace(lo, hi, samples + 2)[1:-1]
    vals = [f(float(x)) for x in xs]
    i = int(np.argmin(vals))
    a = float(xs[i - 1]) if i > 0 else lo + 1e-13 * (hi - lo)
    b = float(xs[i + 1]) if i < len(xs) - 1 else hi - 1e-13 * (hi - lo)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


# -------------------------------------------------------------------- frames


@dataclass(frozen=True)
class MoveFrame:
    """Window for the elementary move of interfaces (k+1, k+2), 1-based.

    alpha, x, beta are the xi roots bounding and splitting the moved strip
    when they exist (poles are always roots for zero-mean patterns).
    exact marks frames where the window profile reproduces the energy:
    zero mean and a sign change of xi in each of the three bands involved.
    """

    k: int
    alpha: float | None
    x: float | None
    beta: float | None
    exact: bool


def _band_roots(p: AxisymPattern) -> list[float | None]:
    """Root of xi inside each sentinel band, None where xi does not cross."""
    prof = xi_profile(p)
    nd = p.nodes()
    out: list[float | None] = []
    for j in range(p.n + 1):
        a, b = prof.nodes[j], prof.nodes[j + 1]
        if a == 0.0:
            out.append(nd[j])
        elif a * b < 0.0:
            out.append(nd[j] - a / prof.slopes[j])
        else:
            out.append(None)
    return out


def triple_frame(p: AxisymPattern, k: int) -> MoveFrame:
    if not 0 <= k <= p.n - 2:
        raise OutOfRange(f"frame index {k} outside 0..{p.n - 2}")
    roots = _band_roots(p)
    alpha = -1.0 if k == 0 else roots[k]
    beta = 1.0 if k + 2 == p.n else roots[k + 2]
    x = roots[k + 1]
    exact = abs(p.m) <= MASS_ZERO_TOL and None not in (alpha, x, beta)
    if exact and not alpha < x < beta:
        exact = False  # sub-ulp bands collapse the window
    return MoveFrame(k=k, alpha=alpha, x=x, beta=beta, exact=exact)


def apply_elementary_move(p: AxisymPattern, k: int, t: float) -> AxisymPattern:
    """Shift interfaces k+1 and k+2 (1-based) by t; mean carried bit-exact."""
    if not 0 <= k <= p.n - 2:
        raise OutOfRange(f"frame index {k} outside 0..{p.n - 2}")
    z = list(p.z)
    z[k] += t
    z[k + 1] += t
    lo = z[k - 1] if k >= 1 else -1.0
    hi = z[k + 2] if k + 2 < p.n else 1.0
    if not (lo < z[k] and z[k + 1] < hi):
        raise OrderingViolated(f"move t={t!r} on frame {k} breaks interface ordering")
    return AxisymPattern(z=tuple(z), m=p.m)


def move_range(p: AxisymPattern, k: int) -> tuple[float, float]:
    """Open interval of offsets keeping the moved pattern strictly ordered."""
    nd = p.nodes()
    return nd[k] - nd[k + 1], nd[k + 3] - nd[k + 2]


# ------------------------------------------------------------- minimization


@dataclass(frozen=True)
class MinimizeOptions:
    x_tol: float = 1e-12
    max_cycles: int = 200
    symmetric: bool = False


@dataclass(frozen=True)
class CycleRecord:
    cycle: int
    energy_over_pi: float
    max_move: float


@dataclass(frozen=True)
class MinimizeResult:
    pattern: AxisymPattern
    energy: EnergyBreakdown
    cycles: tuple[CycleRecord, ...]


def _offset_fits(p: AxisymPattern, k: int, t: float) -> bool:
    """True when shifting the pair by t keeps the pattern strictly interior.

    Near-wall iterates can produce sub-ulp offsets whose application would
    land an interface exactly on a neighbour or a pole; those count as no
    move rather than an error.
    """
    z1, z2 = p.z[k] + t, p.z[k + 1] + t
    lo = p.z[k - 1] if k >= 1 else -1.0
    hi = p.z[k + 2] if k + 2 < p.n else 1.0
    return lo < z1 < z2 < hi


def _frame_offset(p: AxisymPattern, k: int, gamma: float, opts: MinimizeOptions) -> tuple[float, float]:
    """Best offset for one frame and its energy change (times 1/(2 pi)).

    Uses the window profile when the frame is exact, otherwise the full
    energy along the move.  A nonnegative change reports offset 0.
    """
    fr = triple_frame(p, k)
    if fr.exact:
        if fr.beta - fr.alpha <= max(opts.x_tol, 1e-14):
            return 0.0, 0.0  # window thinner than the search resolution
        e0 = segment_energy(fr.x, fr.alpha, fr.beta, gamma)
        x_star, e_star = golden_min(
            lambda x: segment_energy(x, fr.alpha, fr.beta, gamma),
            fr.alpha,
            fr.beta,
            tol=opts.x_tol,
        )
        t = 0.5 * (x_star - fr.x)
        if e_star < e0 and _offset_fits(p, k, t):
            return t, e_star - e0
        return 0.0, 0.0
    t_lo, t_hi = move_range(p, k)
    pad = 1e-9 * (t_hi - t_lo)
    if not t_lo + pad < t_hi - pad:
        return 0.0, 0.0
    base = total_energy(p, gamma).total

    def along(t: float) -> float:
        return total_energy(apply_elementary_move(p, k, t), gamma).total

    t_star, e_star = golden_min(along, t_lo + pad, t_hi - pad, tol=opts.x_tol)
    if e_star < base and _offset_fits(p, k, t_star):
        return t_star, (e_star - base) / (2.0 * math.pi)
    return 0.0, 0.0


def minimize_triple(p: AxisymPattern, k: int, gamma: float, opts: MinimizeOptions = MinimizeOptions()) -> AxisymPattern:
    """One-frame descent step; returns the input when no strict improvement."""
    t, drop = _frame_offset(p, k, gamma, opts)
    if t == 0.0 or -drop * 2.0 * math.pi < DECREASE_TOL:
        return p
    return apply_elementary_move(p, k, t)


def local_minimize(p0: AxisymPattern, gamma: float, opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Cyclic frame sweeps until a full cycle stops improving the energy.

    Symmetric mode sweeps the lower half and mirrors each accepted offset
    to the reflected frame, skipping the self-mirrored central frame whose
    symmetric variation vanishes.
    """
    if opts.symmetric and not is_symmetric(p0):
        raise DomainError("symmetric sweep requested for an asymmetric pattern")
    p = p0
    energy = total_energy(p, gamma)
    records: list[CycleRecord] = []
    if p.n < 2:
        return MinimizeResult(pattern=p, energy=energy, cycles=(CycleRecord(0, energy.total_over_pi, 0.0),))
    frames = range(p.n - 1)
    for cycle in range(opts.max_cycles):
        max_move = 0.0
        for k in frames:
            mirror = p.n - 2 - k
            if opts.symmetric and k > mirror:
                continue
            if opts.symmetric and k == mirror:
                continue
            t, _ = _frame_offset(p, k, gamma, opts)
            if t == 0.0:
                continue
            if opts.symmetric:
                moved = apply_elementary_move(p, k, t)
                if not _offset_fits(moved, mirror, -t):
                    continue  # keep the symmetric slice rather than half-move
                p = apply_elementary_move(moved, mirror, -t)
            else:
                p = apply_elementary_move(p, k, t)
            max_move = max(max_move, abs(t))
        new_energy = total_energy(p, gamma)
        records.append(CycleRecord(cycle=cycle, energy_over_pi=new_energy.total_over_pi, max_move=max_move))
        improved = energy.total - new_energy.total
        energy = new_energy
        if improved < DECREASE_TOL:
            return MinimizeResult(pattern=p, energy=energy, cycles=tuple(records))
    raise CycleLimit(f"no fixed point within {opts.max_cycles} sweep cycles")


def trace_to_csv(records, fh) -> None:
    fh.write("cycle,energy_over_pi,max_move\n")
    for r in records:
        fh.write(f"{r.cycle},{r.energy_over_pi!r},{r.max_move!r}\n")


# --------------------------------------------------------- boundary escapes


@dataclass(frozen=True)
class BoundaryPattern:
    """Degenerate configuration: one interface at a pole or one merged pair.

    Entries are nondecreasing within [-1, 1] with exactly one degeneracy.
    """

    z: tuple

    def __post_init__(self):
        zs = self.z
        if len(zs) < 2:
            raise OutOfRange("boundary configuration needs at least two entries")
        if any(not -1.0 <= v <= 1.0 for v in zs):
            raise OutOfRange("entries must lie in [-1, 1]")
        if any(b < a for a, b in zip(zs, zs[1:])):
            raise OrderingViolated("entries must be nondecreasing")
        merged = sum(1 for a, b in zip(zs, zs[1:]) if a == b)
        pole = (zs[0] == -1.0) + (zs[-1] == 1.0)
        if merged + pole != 1:
            raise DomainError("expected exactly one degeneracy (pole contact or merged pair)")

    @property
    def kind(self) -> str:
        if self.z[-1] == 1.0 or self.z[0] == -1.0:
            return "pole"
        return "merged"

    @property
    def mass(self) -> float:
        return mass_of_interfaces(self.z)

    def reflected(self) -> "BoundaryPattern":
        return BoundaryPattern(z=tuple(-v for v in reversed(self.z)))


@dataclass(frozen=True)
class EscapeProbe:
    """Lemma-level pole check on a single window (alpha, 1)."""

    alpha: float
    gamma: float
    x_star: float
    e_star: float
    limit: float

    @property
    def escaped(self) -> bool:
        return self.e_star < self.limit - 1e-12 * max(1.0, abs(self.limit))


def escape_pole_frame(alpha: float, gamma: float, samples: int = 96) -> EscapeProbe:
    """Minimize the pole window profile and compare with its x -> 1 limit."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha={alpha!r} outside (0, 1)")
    x_star, e_star = golden_min(
        lambda x: segment_energy(x, alpha, 1.0, gamma), alpha, 1.0, samples=samples
    )
    return EscapeProbe(alpha=alpha, gamma=gamma, x_star=x_star, e_star=e_star, limit=pole_limit(alpha, gamma))


def _escape_pole(bp: BoundaryPattern, gamma: float, opts: MinimizeOptions) -> AxisymPattern:
    zs = bp.z
    m_b = bp.mass
    body = list(zs[:-1])  # the pole entry carries no circle
    z_top = body[-1]
    alpha = 2.0 * z_top - 1.0
    below = body[-2] if len(body) >= 2 else -1.0
    # the pair slide needs (alpha+x)/2 to stay above both `below` and -1
    x_lo = max(alpha, 2.0 * below - alpha, -2.0 - alpha)
    if not x_lo < 1.0:
        raise DomainError("no room below the pole to slide the pair inward")
    reduced = make_pattern(body)
    boundary_value = total_energy(reduced, gamma).total
    pad = 1e-9 * (1.0 - x_lo)

    def along(x: float) -> float:
        cand = body[:-1] + [0.5 * (alpha + x), 0.5 * (x + 1.0)]
        return total_energy(AxisymPattern(z=tuple(cand), m=m_b), gamma).total

    x_star, e_star = golden_min(along, x_lo + pad, 1.0 - pad, tol=opts.x_tol)
    if not e_star < boundary_value - 1e-12 * max(1.0, abs(boundary_value)):
        raise NoEscape(f"pole configuration is locally optimal at gamma={gamma!r}")
    out = tuple(body[:-1] + [0.5 * (alpha + x_star), 0.5 * (x_star + 1.0)])
    return AxisymPattern(z=out, m=m_b)


def _escape_merged(bp: BoundaryPattern, gamma: float, opts: MinimizeOptions) -> AxisymPattern:
    zs = list(bp.z)
    m_b = bp.mass
    j = next(i for i, (a, b) in enumerate(zip(zs, zs[1:])) if a == b)
    if len(zs) == 2:
        raise DomainError("merged pair needs a neighboring interface to slide")
    if j == 0:
        # nothing below the pair to slide; work on the reflection
        mirrored = _escape_merged(bp.reflected(), gamma, opts)
        return AxisymPattern(z=tuple(-v for v in reversed(mirrored.z)), m=m_b)
    y = zs[j]
    below = zs[j - 1]
    floor = zs[j - 2] if j >= 2 else -1.0
    t_max = below - floor
    # limit value keeps both merged circles: the inward move must beat it
    reduced = make_pattern(zs[:j] + zs[j + 2 :])
    boundary_value = total_energy(reduced, gamma).total + 2.0 * (2.0 * math.pi) * math.sqrt(1.0 - y * y)
    pad = 1e-9 * t_max

    def along(t: float) -> float:
        cand = zs[: j - 1] + [below - t, y - t] + zs[j + 1 :]
        return total_energy(AxisymPattern(z=tuple(cand), m=m_b), gamma).total

    t_star, e_star = golden_min(along, pad, t_max - pad, tol=opts.x_tol)
    if not e_star < boundary_value - 1e-12 * max(1.0, abs(boundary_value)):
        raise NoEscape(f"merged pair is locally optimal at gamma={gamma!r}")
    out = tuple(zs[: j - 1] + [below - t_star, y - t_star] + zs[j + 1 :])
    return AxisymPattern(z=out, m=m_b)


def boundary_escape(bp: BoundaryPattern, gamma: float, opts: MinimizeOptions = MinimizeOptions()) -> AxisymPattern:
    """Elementary move off a degenerate configuration, when one helps.

    Pole contact: slide the top pair down from the pole, comparing against
    the vanishing-cap limit (continuous there).  Merged pair: slide the
    strip below the pair leftward, comparing against the merged limit with
    both coincident circles counted.  Raises NoEscape when the degenerate
    value cannot be strictly beaten (small gamma).
    """
    if bp.kind == "pole":
        if bp.z[0] == -1.0:
            flipped = _escape_pole(bp.reflected(), gamma, opts)
            rz = [-v for v in reversed(flipped.z)]
            return AxisymPattern(z=tuple(rz), m=bp.mass)
        return _escape_pole(bp, gamma, opts)
    return _escape_merged(bp, gamma, opts)
