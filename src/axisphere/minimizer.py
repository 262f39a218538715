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
identity against the energy module.

The descent searches every frame on a three-band energy that holds for
every pattern, whatever its mean or the zeros of xi.  Bands k and k+2, on
either side of the moved strip, have the same slope s_k = s_{k+2}, so xi
at nodes k and k+3 does not move: bands k and k+2 keep their xi lines,
band k+1's line shifts by (s_k - s_{k+1}) t, and only the two moved
circles and those three bands depend on t.  Each evaluation is a few
square roots and logarithms, independent of n, and its closed-form slope
ends every frame's line search on a root (``_slope_min``).  A frame move
counts only when its drop exceeds the frame energy's rounding scale, so a
converged sweep does not drift on rounding noise.  The pole escape probe
searches the window profile on its own closed-form slope; the window
profile also serves the localization check of ``verify``.

Cyclic sweeps of the per-frame scalar minimization drive a pattern to a
fixed point, linearly (a per-cycle contraction near 0.9 at n=8), so each
improving cycle ends with one second-order step: the O(n) Newton step
-H^{-1} g over the strip moves, which span the tangent space of the mass
(``energy._frame_hessian``), tried only when H is positive definite.  The
step, or half of it, is kept only when it strictly lowers the energy; it
is a sum of strip moves, so it carries the mean.  Where H is indefinite,
as on a collapse onto a pole, the sweeps go on alone and may end in
``CycleLimit``.  Every move builds its result through the validating
``AxisymPattern`` constructor, so no sweep, step or escape returns heights
that are out of order, coincident or on a pole: ``apply_elementary_move``
raises the constructor's NonIncreasing or OutOfRange on such a move, and a
sweep treats it as no move.

Boundary configurations (an interface at a pole, or two interfaces merged)
both hold a zero-width strip.  One slide moves the strip below it south,
in the orientation where that strip exists, through the sweep's own frame
search (``_frame_offset``) over the frame's whole range; whether the slide
strictly beats the degenerate limit value decides escape.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .energy import EnergyBreakdown, _frame_hessian, _tridiagonal_solve, total_energy
from .errors import CycleLimit, NoEscape, NonIncreasing, OutOfRange
from .pattern import (
    AxisymPattern,
    _band_terms,
    _linspace,
    _min_gap_text,
    is_symmetric,
    make_pattern,
    mass_of_interfaces,
    xi_profile,
)

__all__ = [
    "MinimizeOptions",
    "CycleRecord",
    "MinimizeResult",
    "BoundaryPattern",
    "EscapeProbe",
    "profile_f",
    "segment_energy",
    "pole_limit",
    "apply_elementary_move",
    "move_range",
    "local_minimize",
    "escape_pole_frame",
    "boundary_escape",
]

DECREASE_TOL = 1e-15  # times max(1, |E|): the rounding scale of an energy E, below which a sweep or frame drop does not count
SCAN_SAMPLES = 48  # grid points of the pre-scan of every line search
POLE_SAMPLES = 96  # the pole window's pre-scan: at (alpha, gamma) = (0.12, 7.49894) 48 samples miss the deeper well at the pole
X_TOL = 1e-12  # bracket width that ends a line search


def profile_f(x: float) -> float:
    """(1-x)log(1-x) + (1+x)log(1+x), with 0*log 0 = 0 at the endpoints."""
    if not -1.0 <= x <= 1.0:
        raise OutOfRange(f"profile argument {x!r} outside [-1, 1]")
    if x == 1.0 or x == -1.0:
        return 2.0 * math.log(2.0)
    return (1.0 - x) * math.log1p(-x) + (1.0 + x) * math.log1p(x)


def _mid(a: float, b: float) -> tuple[float, float, float]:
    """(s, 1 - s, 1 + s) for s = (a+b)/2, with 1 -+ s summed from 1 -+ a and 1 -+ b to stay accurate near a pole."""
    return 0.5 * (a + b), 0.5 * ((1.0 - a) + (1.0 - b)), 0.5 * ((1.0 + a) + (1.0 + b))


def segment_energy(x: float, alpha: float, beta: float, gamma: float) -> float:
    """Window energy profile e(x; alpha, beta, gamma), constant omitted.

    All consumers use differences, so the additive constant that depends
    only on (alpha, beta) is dropped.
    """
    if not (-1.0 <= alpha < x < beta <= 1.0):
        raise OutOfRange(f"need -1 <= alpha < x < beta <= 1, got {(alpha, x, beta)!r}")
    lo, lo_m, lo_p = _mid(alpha, x)
    hi, hi_m, hi_p = _mid(x, beta)
    e_p = math.sqrt(lo_m * lo_p) + math.sqrt(hi_m * hi_p)
    e_nl = (alpha - x) * profile_f(lo) + (x - beta) * profile_f(hi)
    return e_p + gamma * e_nl


def _segment_slope(x: float, alpha: float, beta: float, gamma: float) -> float:
    """Derivative in x of ``segment_energy``, with f'(s) = log(1+s) - log(1-s)."""
    lo, lo_m, lo_p = _mid(alpha, x)
    hi, hi_m, hi_p = _mid(x, beta)
    d_p = -0.5 * (lo / math.sqrt(lo_m * lo_p) + hi / math.sqrt(hi_m * hi_p))
    d_f = (alpha - x) * math.log(lo_p / lo_m) + (x - beta) * math.log(hi_p / hi_m)
    return d_p + gamma * (profile_f(hi) - profile_f(lo) + 0.5 * d_f)


def pole_limit(alpha: float, gamma: float) -> float:
    """Limit of e(x; alpha, 1, gamma) as the moved strip vanishes at the pole."""
    if not -1.0 < alpha < 1.0:
        raise OutOfRange(f"alpha={alpha!r} outside (-1, 1)")
    mid, mid_m, mid_p = _mid(alpha, 1.0)
    return math.sqrt(mid_m * mid_p) + gamma * (alpha - 1.0) * profile_f(mid)


def _prescan(f, lo: float, hi: float, samples: int):
    """(x_i, f(x_i), i, a, b): the best inner point of np.linspace(lo, hi, samples + 2), and its bracket.

    The best is np.argmin's: the first NaN if there is one, else the first of the
    least values.  a and b are x_i's neighbours, or the ends padded by 1e-13 of the width.
    """
    if not hi > lo:
        raise OutOfRange(f"empty bracket ({lo!r}, {hi!r})")
    xs = _linspace(lo, hi, samples + 2)[1:-1]
    vals = [f(x) for x in xs]
    nans = [j for j, v in enumerate(vals) if v != v]
    i = nans[0] if nans else vals.index(min(vals))
    a = xs[i - 1] if i > 0 else lo + 1e-13 * (hi - lo)
    b = xs[i + 1] if i < samples - 1 else hi - 1e-13 * (hi - lo)
    return xs[i], vals[i], i, a, b


def _slope_min(f, df, lo: float, hi: float, tol: float, samples: int = SCAN_SAMPLES):
    """Grid pre-scan of f on (lo, hi), then the root of its slope df in the best bracket.

    The module's one line search: strip moves, slides and the pole window.
    Illinois regula falsi, bisecting while an end has no usable slope: a padded
    end (never evaluated) or a grid end whose slope has the wrong sign.  Stops
    at the rounding floor, or at width tol once both ends are usable.  Returns
    (x, f(x)), never worse than the best grid sample.
    """
    x0, f0, i, a, b = _prescan(f, lo, hi, samples)
    da = min(df(a), 0.0) if i > 0 else 0.0  # 0.0: no usable slope
    db = max(df(b), 0.0) if i < samples - 1 else 0.0
    x, side = None, 0
    while b - a > tol or not da < 0.0 < db:
        t = 0.5 * (a + b)
        if da < 0.0 < db:  # regula falsi, kept tol/2 inside the bracket
            r = min(max(a - da * (b - a) / (db - da), a + 0.5 * tol), b - 0.5 * tol)
            t = r if a < r < b else t
        if not a < t < b:
            break
        x, d = t, df(t)
        if d < 0.0:  # Illinois: an end kept twice in a row has its slope halved
            a, da, db, side = x, d, db * (0.5 if side < 0 else 1.0), -1
        elif d > 0.0:
            b, db, da, side = x, d, da * (0.5 if side > 0 else 1.0), 1
        else:
            break  # a root, or nan
    if x is not None and (fx := f(x)) <= f0:
        return x, fx
    return x0, f0


# -------------------------------------------------------------------- frames


def apply_elementary_move(p: AxisymPattern, k: int, t: float) -> AxisymPattern:
    """Shift interfaces k+1 and k+2 (1-based) by t; mean carried bit-exact.

    Raises OutOfRange for a frame index outside 0..n-2, and the
    ``AxisymPattern`` constructor's NonIncreasing or OutOfRange when the
    shifted heights are not a valid pattern (out of order, coincident, or
    outside (-1, 1)).
    """
    if not 0 <= k <= p.n - 2:
        raise OutOfRange(f"frame index {k} outside 0..{p.n - 2}")
    z = list(p.z)
    z[k] += t
    z[k + 1] += t
    return AxisymPattern(z=tuple(z), m=p.m)


def move_range(p: AxisymPattern, k: int) -> tuple[float, float]:
    """Open interval of offsets keeping the moved pattern strictly ordered."""
    nd = p.nodes()
    return nd[k] - nd[k + 1], nd[k + 3] - nd[k + 2]


# ------------------------------------------------------------- minimization


class MinimizeOptions(NamedTuple):
    """Cycle cap and symmetric mode of ``local_minimize``; every line search ends at width ``X_TOL``."""

    max_cycles: int = 200
    symmetric: bool = False


class CycleRecord(NamedTuple):
    cycle: int
    energy_over_pi: float
    max_move: float


class MinimizeResult(NamedTuple):
    pattern: AxisymPattern
    energy: EnergyBreakdown
    cycles: tuple[CycleRecord, ...]


def _move_energy(p: AxisymPattern, k: int, gamma: float):
    """Energy along the move of frame k, and its slope, as functions of the offset t.

    Returns (E(t)/(2*pi) up to a t-independent constant, exact for any mean;
    its derivative in t, term by term).  With a = z_{k+1} + t and b = z_{k+2} + t (1-based) the moved heights,
    each band log of ``nonlocal_closed`` splits into the logs of its two
    endpoints; dropping those of the fixed nodes k and k+3 leaves

        sqrt(1 - a^2) + sqrt(1 - b^2)
          + gamma/2 * [ (C1^2 - c1_k^2) log(1-a) + (c2_k^2 - C2^2) log(1+a)
                        + (c1_{k+2}^2 - C1^2) log(1-b) + (C2^2 - c2_{k+2}^2) log(1+b) ]

    where (c1_j, c2_j) are band j's coefficients from ``_band_terms``, pole
    rule included, and (C1, C2) those of band k+1 shifted by
    (s_k - s_{k+1}) t.  The -s^2 dz terms of bands k and k+2 sum to a
    constant because s_k = s_{k+2}.
    """
    prof = xi_profile(p)
    c1_lo, c2_lo, _, _ = _band_terms(p, prof, k)
    c1_mid, c2_mid, _, _ = _band_terms(p, prof, k + 1)
    c1_hi, c2_hi, _, _ = _band_terms(p, prof, k + 2)
    lo1, lo2, hi1, hi2 = c1_lo * c1_lo, c2_lo * c2_lo, c1_hi * c1_hi, c2_hi * c2_hi
    shift = prof.slopes[k] - prof.slopes[k + 1]
    za, zb = p.z[k], p.z[k + 1]
    half_gamma = 0.5 * gamma
    sqrt, log1p = math.sqrt, math.log1p

    def energy(t: float) -> float:
        a, b = za + t, zb + t
        mid1, mid2 = c1_mid + shift * t, c2_mid + shift * t
        q1, q2 = mid1 * mid1, mid2 * mid2
        logs = (q1 - lo1) * log1p(-a) + (lo2 - q2) * log1p(a) + (hi1 - q1) * log1p(-b) + (q2 - hi2) * log1p(b)
        return sqrt(1.0 - a * a) + sqrt(1.0 - b * b) + half_gamma * logs

    def slope(t: float) -> float:
        a, b = za + t, zb + t
        mid1, mid2 = c1_mid + shift * t, c2_mid + shift * t
        q1, q2 = mid1 * mid1, mid2 * mid2
        d_logs = 2.0 * shift * (mid1 * (log1p(-a) - log1p(-b)) + mid2 * (log1p(b) - log1p(a)))
        d_logs += (lo1 - q1) / (1.0 - a) + (lo2 - q2) / (1.0 + a) + (q1 - hi1) / (1.0 - b) + (q2 - hi2) / (1.0 + b)
        return -a / sqrt(1.0 - a * a) - b / sqrt(1.0 - b * b) + half_gamma * d_logs

    return energy, slope


def _search_range(p: AxisymPattern, k: int) -> tuple[float, float]:
    """``move_range`` of frame k padded by 1e-9 of its width, each end kept off the poles.

    A padded end that would still round a moved interface onto a pole is
    raised to the nearest offset that does not; such a range is below about
    1e-7 wide, so the moved interface lies within [-1, -0.5] (or [0.5, 1])
    and the subtraction is exact.
    """
    t_lo, t_hi = move_range(p, k)
    pad = 1e-9 * (t_hi - t_lo)
    t_lo, t_hi = t_lo + pad, t_hi - pad
    if not -1.0 < p.z[k] + t_lo:
        t_lo = math.nextafter(-1.0, 0.0) - p.z[k]
    if not p.z[k + 1] + t_hi < 1.0:
        t_hi = math.nextafter(1.0, 0.0) - p.z[k + 1]
    return t_lo, t_hi


def _frame_offset(p: AxisymPattern, k: int, gamma: float) -> tuple[float, AxisymPattern, float] | None:
    """Best strictly improving move of frame k over ``_search_range``: (offset, moved pattern, energy drop / (2*pi)).

    Searches the three-band energy E_k of ``_move_energy`` to the bracket
    width ``X_TOL`` without building a pattern.  A move counts only when its
    drop exceeds the rounding scale
    ``DECREASE_TOL * max(1, |E_k(0)|)``; below it, and near walls, where
    sub-ulp offsets can land an interface on a neighbour, returns None: no
    move rather than an error.
    """
    t_lo, t_hi = _search_range(p, k)
    if not t_lo < t_hi:
        return None
    along, slope = _move_energy(p, k, gamma)
    t, e_star = _slope_min(along, slope, t_lo, t_hi, X_TOL)
    e_0 = along(0.0)
    drop = e_0 - e_star
    if not drop > DECREASE_TOL * max(1.0, abs(e_0)):
        return None
    try:
        return t, apply_elementary_move(p, k, t), drop
    except (NonIncreasing, OutOfRange):
        return None


def local_minimize(p0: AxisymPattern, gamma: float, opts: MinimizeOptions = MinimizeOptions()) -> MinimizeResult:
    """Cyclic frame sweeps until a full cycle stops improving the energy.

    A sweep ends the descent when it lowers the energy E by less than
    ``DECREASE_TOL * max(1, |E|)``.  After each sweep that does not, the
    Newton step (see the module docstring), or half of it, is tried through
    the ``AxisymPattern`` constructor with the stored mean and kept only
    when ``total_energy`` strictly drops; the cycle's record then carries
    the energy after the step, and its ``max_move`` includes the step's
    largest height change.  The stop rule reads only the sweep's own
    improvement, so the result is a sweep fixed point; a stopping sweep
    that raised ``total_energy`` (on rounding) is undone, so no record rises.
    ``CycleLimit`` names the last sweep's drop in E, that cycle's
    ``max_move`` and the pattern's ``min_gap`` with the pair that holds it.

    Symmetric mode sweeps the lower half and mirrors each accepted offset
    to the reflected frame, skipping the self-mirrored central frame whose
    symmetric variation vanishes.  The frames of a mirrored pair can share
    an interface or a band, so the pair is kept only when the mirror move,
    priced by ``_move_energy`` on the moved pattern, leaves a net drop.
    The Newton step is projected onto mirror-symmetric height changes.
    """
    if opts.symmetric and not is_symmetric(p0):
        raise OutOfRange("symmetric sweep requested for an asymmetric pattern")
    p = p0
    energy = total_energy(p, gamma)
    records: list[CycleRecord] = []
    frames = range(p.n - 1)
    for cycle in range(opts.max_cycles):
        start = p
        max_move = 0.0
        for k in frames:
            mirror = p.n - 2 - k
            if opts.symmetric and k >= mirror:
                continue
            move = _frame_offset(p, k, gamma)
            if move is None:
                continue
            t, moved, drop = move
            if opts.symmetric:
                try:
                    paired = apply_elementary_move(moved, mirror, -t)
                except (NonIncreasing, OutOfRange):
                    continue  # keep the symmetric slice rather than half-move
                along, _ = _move_energy(moved, mirror, gamma)
                if not along(-t) - along(0.0) < drop:
                    continue
                moved = paired
            p = moved
            max_move = max(max_move, abs(t))
        new_energy = total_energy(p, gamma)
        improved = energy.total - new_energy.total
        done = improved < DECREASE_TOL * max(1.0, abs(energy.total))
        if improved < 0.0:  # kept frame drops that sum to a rise on rounding: undo the sweep
            p, max_move, new_energy = start, 0.0, energy
        energy = new_energy
        if not done and (taken := _newton_step(p, gamma, energy, opts.symmetric)):
            p, energy, jump = taken
            max_move = max(max_move, jump)
        records.append(CycleRecord(cycle=cycle, energy_over_pi=energy.total_over_pi, max_move=max_move))
        if done:
            return MinimizeResult(pattern=p, energy=energy, cycles=tuple(records))
    last = f"last sweep drop = {improved:.3e}, max_move = {max_move:.3e}" if records else "no cycle run"
    raise CycleLimit(f"no fixed point within {opts.max_cycles} sweep cycles: {last}, {_min_gap_text(p)}")


def _newton_step(p: AxisymPattern, gamma: float, energy: EnergyBreakdown, symmetric: bool):
    """Newton step -H^{-1} g over the frames, halved once on failure: (pattern, energy, largest height change) or None.

    One ``_tridiagonal_solve`` on ``_frame_hessian``'s H, None on a zero pivot or any negative one (H's Morse
    index); frame k's offset moves heights k and k+1.  In symmetric mode the change is projected onto
    mirror-symmetric ones, dz <- (dz - reversed(dz)) / 2, so a symmetric pattern stays exactly symmetric.
    The step carries ``p.m`` and is taken only when it builds a valid pattern of strictly lower energy.
    """
    g, diag, off, _ = _frame_hessian(p, gamma)
    solved = _tridiagonal_solve(diag, off, [-v for v in g])
    if solved is None or solved[1]:
        return None
    tau = solved[0]
    dz = [a + b for a, b in zip([0.0, *tau], [*tau, 0.0])]
    if symmetric:
        dz = [0.5 * (a - b) for a, b in zip(dz, reversed(dz))]
    for scale in (1.0, 0.5):
        try:
            trial = AxisymPattern(z=tuple(z + scale * d for z, d in zip(p.z, dz)), m=p.m)
        except (NonIncreasing, OutOfRange):
            continue
        trial_energy = total_energy(trial, gamma)
        if trial_energy.total < energy.total:
            return trial, trial_energy, scale * max(map(abs, dz))
    return None


# --------------------------------------------------------- boundary escapes


class BoundaryPattern(NamedTuple("BoundaryPattern", [("z", tuple)])):
    """Degenerate configuration: one interface at a pole or one merged pair.

    Entries are nondecreasing within [-1, 1] with exactly one degeneracy.
    """

    __slots__ = ()

    def __new__(cls, z: Sequence[float]):
        z = tuple(z)
        if len(z) < 2:
            raise OutOfRange("boundary configuration needs at least two entries")
        if any(not -1.0 <= v <= 1.0 for v in z):
            raise OutOfRange("entries must lie in [-1, 1]")
        if any(b < a for a, b in zip(z, z[1:])):
            raise NonIncreasing("entries must be nondecreasing")
        merged = sum(1 for a, b in zip(z, z[1:]) if a == b)
        pole = (z[0] == -1.0) + (z[-1] == 1.0)
        if merged + pole != 1:
            raise OutOfRange("expected exactly one degeneracy (pole contact or merged pair)")
        return super().__new__(cls, z)

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


def _beats(value: float, limit: float) -> bool:
    """True when value lies strictly below a degenerate limit, by 1e-12 relative."""
    return value < limit - 1e-12 * max(1.0, abs(limit))


class EscapeProbe(NamedTuple):
    """Lemma-level pole check on a single window (alpha, 1)."""

    alpha: float
    gamma: float
    x_star: float
    e_star: float
    limit: float

    @property
    def escaped(self) -> bool:
        return _beats(self.e_star, self.limit)


def escape_pole_frame(alpha: float, gamma: float) -> EscapeProbe:
    """Minimize the pole window profile on its slope and compare with its x -> 1 limit.

    The pre-scan grid is ``POLE_SAMPLES``, twice the descent's.  Raises
    OutOfRange for alpha outside (0, 1) or a non-finite gamma.
    """
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha={alpha!r} outside (0, 1)")
    if not math.isfinite(gamma):
        raise OutOfRange(f"gamma={gamma!r} is not finite")
    x_star, e_star = _slope_min(
        lambda x: segment_energy(x, alpha, 1.0, gamma), lambda x: _segment_slope(x, alpha, 1.0, gamma),
        alpha, 1.0, X_TOL, POLE_SAMPLES,
    )
    return EscapeProbe(alpha=alpha, gamma=gamma, x_star=x_star, e_star=e_star, limit=pole_limit(alpha, gamma))


def _slide_escape(bp: BoundaryPattern, gamma: float) -> AxisymPattern:
    """Escape a north-pole contact, or a merged pair with an entry below it.

    Either is a zero-width strip at entry j of (*z, 1), the entry equal to
    the next one: the pole contact, or the merged pair's lower entry.
    Frame j-1 slides the strip (z_{j-1}, z_j) south by t in (t_lo, 0),
    with t_lo reaching the entry below z_{j-1}, or -1.  The strip is put at
    the anchor t_lo/2, the middle of its frame, and ``_frame_offset``
    searches that frame as a sweep does.  Its pattern, or the anchor when no
    slide beats it, must strictly beat the degenerate limit: the energy
    without the strip's entries plus the circles at those entries (none at
    a pole).
    """
    zs = list(bp.z)
    j = next(i for i, (a, b) in enumerate(zip(zs, [*zs[1:], 1.0])) if a == b)
    if j == 0:
        raise OutOfRange("merged pair needs a neighboring interface to slide")
    k, pole = j - 1, zs[j] == 1.0
    circles = 2.0 * math.pi * sum(math.sqrt(1.0 - y * y) for y in zs[j : j + 2])
    limit = total_energy(make_pattern(zs[:j] + zs[j + 2 :]), gamma).total + circles
    t_lo = (zs[k - 1] if k else -1.0) - zs[k]
    zs[k : j + 1] = [zs[k] + 0.5 * t_lo, zs[j] + 0.5 * t_lo]
    anchor = AxisymPattern(z=tuple(zs), m=bp.mass)
    move = _frame_offset(anchor, k, gamma)
    moved = anchor if move is None else move[1]
    if not _beats(total_energy(moved, gamma).total, limit):
        raise NoEscape(f"{'pole configuration' if pole else 'merged pair'} is locally optimal at gamma={gamma!r}")
    return moved


def boundary_escape(bp: BoundaryPattern, gamma: float) -> AxisymPattern:
    """Elementary move off a degenerate configuration, when one helps.

    Pole contact: slide the top pair down from the pole, comparing against
    the vanishing-cap limit (continuous there).  Merged pair: slide the
    strip below the pair downward, comparing against the merged limit with
    both coincident circles counted.  A south-pole contact, or a merged
    pair with nothing below it, escapes its reflection through the equator
    and reflects the result back.  Raises NoEscape when the degenerate
    value cannot be strictly beaten (small gamma).
    """
    if bp.z[0] == -1.0 or bp.z[0] == bp.z[1]:
        mirrored = _slide_escape(bp.reflected(), gamma)
        return AxisymPattern(z=tuple(-v for v in reversed(mirrored.z)), m=bp.mass)
    return _slide_escape(bp, gamma)
