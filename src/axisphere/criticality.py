"""Critical interface configurations and explicit criticality curves.

A pattern is critical when kappa_g(z_k) + 4*gamma*v(z_k) takes the same
value lambda on every interface.  Eliminating lambda gives the consecutive
difference system

    R_k = a_k + gamma*b_k,  a_k = kappa_g(z_{k+1}) - kappa_g(z_k),
    b_k = 4*(v(z_{k+1}) - v(z_k)),  k = 1..n-1,

in ``_row_parts``' curvature part a and potential part b, closed by the
mean-value row R_n = m(z) - m_target in ``residuals``.  Up to alternating
signs its rows are the energy's slopes at -gamma along the n-1 strip moves
(``_critical_frame``, the one owner of that sign, O(n), with a tridiagonal
Hessian), so a damped Newton iteration on validated patterns over the frame
offsets, plus one move of z_1 for the mass along its z_1 column, solves it
with one tridiagonal solve per step.  Natural-parameter continuation
traces gamma families: each converged point starts the next solve.

Two one-parameter families admit closed-form couplings gamma(z1): the
symmetric three-interface family {-z1, 0, z1} and the four-interface
family {-z1, 1/2 - z1, z1 - 1/2, z1}.  Both denominators vanish at an
interior abscissa, located here by sign-change bisection.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .energy import _frame_hessian, _tridiagonal_solve
from .errors import Asymptote, BranchLost, LeftDomain, NoConvergence, NonIncreasing, OutOfRange
from .pattern import AxisymPattern, _band_terms, _floats, _linspace, _min_gap_text, kappa_g, make_pattern, xi_profile
from .potential import v_at_interfaces, v_diff

__all__ = [
    "SolveOptions",
    "SolverTrace",
    "CriticalPoint",
    "UniformCheck",
    "residuals",
    "lambda_values",
    "lambda_spread",
    "solve_critical",
    "continue_gamma",
    "gamma_of_z1_3",
    "gamma_of_z1_4",
    "denominator_root_3",
    "denominator_root_4",
    "uniform_pattern",
    "initial_guess",
    "uniform_criticality_check",
    "polar_cap_bound",
    "stretched_gap_variance",
]


def _row_parts(p: AxisymPattern) -> tuple[list[float], list[float]]:
    """The n - 1 difference rows in two parts, curvature a_k and potential b_k: row k is a_k + gamma b_k."""
    a, b = [], []  # one pass, plain lists: no numpy or second loop at small n
    for k in range(1, p.n):
        a.append(kappa_g(p, k + 1) - kappa_g(p, k))
        b.append(4.0 * v_diff(p, k))
    return a, b


def residuals(p: AxisymPattern, gamma: float, m_target: float = 0.0) -> tuple[float, ...]:
    """a + gamma b of ``_row_parts`` plus the mass row m - m_target, a tuple as ``lambda_values`` is.

    b holds the exact 4, so 4 gamma is never formed.
    """
    a, b = _row_parts(p)
    return (*(x + gamma * y for x, y in zip(a, b)), p.m - m_target)


def lambda_values(p: AxisymPattern, gamma: float) -> tuple[float, ...]:
    """Per-interface multiplier kappa_g(z_k) + 4*gamma*v(z_k), scaled as ``residuals`` scales its rows."""
    pot = v_at_interfaces(p)
    return tuple(kappa_g(p, k) + gamma * (4.0 * pot[k - 1]) for k in range(1, p.n + 1))


def lambda_spread(p: AxisymPattern, gamma: float) -> float:
    lams = lambda_values(p, gamma)
    return max(lams) - min(lams)


# ------------------------------------------------------------------- solver


MAX_HALVINGS = 40  # Newton step halvings before a damping failure
COLLAPSE_GAP = 1e-9  # a converged point with a smaller gap has merged a pair or met a pole: LeftDomain


class SolveOptions(NamedTuple):
    tol: float = 1e-11  # on the max-norm of the residual vector
    max_iter: int = 60
    m_target: float = 0.0


class SolverTrace(NamedTuple):
    iterations: int
    damping_events: int
    init_label: str


class CriticalPoint(NamedTuple):
    pattern: AxisymPattern
    gamma: float
    lam: float
    residual_norm: float
    trace: SolverTrace


def _stopped(what: str, it: int, r: list[float], p: AxisymPattern) -> str:
    return f"{what} at iteration {it}: max|r| = {max(map(abs, r)):.3e}, {_min_gap_text(p)}"


def _critical_frame(p: AxisymPattern, gamma: float) -> tuple[list[float], list[float], list[float], list[float]]:
    """``_frame_hessian`` at -gamma, as a test pins residuals(p, gamma)[k] = (-1)^k g_k(p, -gamma), k < n - 1.

    The sign is open (ROADMAP): settling it flips this argument and v' in ``potential.py``, nothing else.
    """
    return _frame_hessian(p, -gamma)


def solve_critical(
    n: int,
    gamma: float,
    init: AxisymPattern,
    opts: SolveOptions = SolveOptions(),
    init_label: str = "caller",
) -> CriticalPoint:
    """Damped Newton over the frame offsets on ``_critical_frame``'s O(n) slopes g and tridiagonal H.

    r = (g, m - m_target) is ``residuals`` up to signs.  A step
    moves z_1 alone by delta = m - m_target and the frames by
    tau = -H^{-1}(g + delta c), where c is ``_critical_frame``'s z_1 column,
    the border of H: one tridiagonal solve that ignores H's inertia, halved
    until the trial is a valid pattern with a smaller |r|^2.  Once
    max|r| <= tol, ``residuals`` confirms the point and gives
    ``residual_norm``, or the iteration goes on.  LeftDomain (damping
    cannot restore ordering, or the point has a gap below COLLAPSE_GAP)
    and NoConvergence name the iteration, max|r| and the smallest gap
    with the pair that holds it.
    """
    if init.n != n:
        raise OutOfRange(f"initial pattern has {init.n} interfaces, expected {n}")
    pat = make_pattern(init.z)
    g, diag, off, col = _critical_frame(pat, gamma)
    damping_events = 0
    for it in range(opts.max_iter):
        r = [*g, pat.m - opts.m_target]
        if max(map(abs, r)) <= opts.tol:
            res = residuals(pat, gamma, opts.m_target)
            if all(abs(v) <= opts.tol for v in res):  # a NaN row fails this
                if pat.min_gap() < COLLAPSE_GAP:
                    raise LeftDomain(_stopped(f"converged with a gap below {COLLAPSE_GAP:g}", it, r, pat))
                lams = lambda_values(pat, gamma)
                trace = SolverTrace(iterations=it, damping_events=damping_events, init_label=init_label)
                return CriticalPoint(pattern=pat, gamma=gamma, lam=sum(lams) / len(lams),
                                     residual_norm=max(map(abs, res)), trace=trace)
        solved = _tridiagonal_solve(diag, off, [-(a + r[-1] * b) for a, b in zip(g, col)])
        if solved is None:  # or the LDL^T pass overflowed: it squares each off-diagonal
            finite = all(map(math.isfinite, [*r, *diag, *col, *(v * v for v in off)]))
            what = "singular frame Hessian" if finite else f"frame system overflows at gamma={gamma!r}"
            raise NoConvergence(_stopped(what, it, r, pat))
        tau = solved[0]  # saddles are critical points too: the negative-pivot count is not read
        step = [a + b for a, b in zip([r[-1], *tau], [*tau, 0.0])]
        scale, old_sq = 1.0, sum(v * v for v in r)
        for halving in range(MAX_HALVINGS + 1):
            try:
                trial = make_pattern([z + scale * dz for z, dz in zip(pat.z, step)])
            except (OutOfRange, NonIncreasing):  # left (-1, 1) or lost ordering
                trial = None
            else:
                trial_h = _critical_frame(trial, gamma)
                if sum(v * v for v in [*trial_h[0], trial.m - opts.m_target]) < old_sq:
                    break
            scale *= 0.5
            damping_events += 1
        else:
            if trial is None:
                raise LeftDomain(_stopped("damping cannot restore interface ordering", it, r, pat))
            raise NoConvergence(_stopped("no residual decrease along the Newton direction", it, r, pat))
        pat, (g, diag, off, col) = trial, trial_h
    raise NoConvergence(_stopped("iteration budget spent", opts.max_iter, [*g, pat.m - opts.m_target], pat))


def continue_gamma(
    n: int,
    gamma_start: float,
    gamma_end: float,
    steps: int,
    seed: AxisymPattern,
    opts: SolveOptions = SolveOptions(),
) -> list[CriticalPoint]:
    """Trace a critical branch over a log-spaced gamma schedule: exp of ``_linspace`` of the logs, ends exact.

    ``seed`` starts the solve at gamma_start, the first point, and each
    solution starts the next solve.  On a Newton failure the
    gamma increment is halved and retried once; a second failure aborts
    with BranchLost, whose message names the last converged gamma, the
    gamma that failed and the solver's own stopping state.
    """
    if steps < 2:
        raise OutOfRange("continuation needs at least two steps")
    if not (0.0 < gamma_start < math.inf and 0.0 < gamma_end < math.inf):  # NaN fails both
        raise OutOfRange("continuation expects finite positive gamma endpoints")
    gammas = [math.exp(t) for t in _linspace(math.log(gamma_start), math.log(gamma_end), steps)]
    gammas[0], gammas[-1] = float(gamma_start), float(gamma_end)  # exact ends, as np.geomspace pins them
    out: list[CriticalPoint] = []
    current, prev_gamma = seed, None
    for g in gammas:
        try:
            cp = solve_critical(n, g, current, opts, init_label="continuation")
        except (NoConvergence, LeftDomain) as exc:
            if prev_gamma is None:
                raise BranchLost(f"no solution at branch start gamma={g!r}, before any converged gamma: {exc}") from exc
            failed = math.sqrt(prev_gamma * g)  # halve the log-step
            try:
                mid = solve_critical(n, failed, current, opts, init_label="continuation")
                failed = g
                cp = solve_critical(n, g, mid.pattern, opts, init_label="continuation")
            except (NoConvergence, LeftDomain) as exc:
                raise BranchLost(
                    f"corrector failed twice stepping from converged gamma={prev_gamma!r} to gamma={g!r}, "
                    f"the second time at gamma={failed!r}: {exc}"
                ) from exc
        out.append(cp)
        current = cp.pattern
        prev_gamma = g
    return out


# ----------------------------------------------------- closed-form branches


def _check_open(z1: float, lo: float, hi: float) -> None:
    if not lo < z1 < hi:
        raise OutOfRange(f"z1={z1!r} outside ({lo}, {hi})")


def _den_3(t: float) -> float:
    """Bracket of the three-interface coupling, a quarter of its denominator."""
    return t * math.log1p(t) - (t - 1.0) * math.log1p(-t)


def _den_4(t: float) -> float:
    """Bracket of the four-interface coupling, a quarter of its denominator."""
    return -t * math.log((1.0 + t) / (0.5 + t)) - (t - 1.0) * math.log((1.5 - t) / (1.0 - t))


def _coupling(count: str, z1: float, num: float, den: float) -> float:
    """num / den, or Asymptote where |den| is below 1e-12 relative to |num|."""
    if abs(den) <= 1e-12 * abs(num):
        raise Asymptote(f"{count}-interface denominator vanishes at z1={z1!r}")
    return num / den


def gamma_of_z1_3(z1: float) -> float:
    """Coupling at which {-z1, 0, z1} is critical, 0 < z1 < 1.

    gamma = -(z1/sqrt(1-z1^2)) / (4*[z1*log(1+z1) - (z1-1)*log(1-z1)]); tends to
    1/4 as z1 -> 0+, where both vanish like z1 (hence the relative asymptote
    test), and blows up where the bracket vanishes alone.
    """
    _check_open(z1, 0.0, 1.0)
    return _coupling("three", z1, -z1 / math.sqrt(1.0 - z1 * z1), 4.0 * _den_3(z1))


def gamma_of_z1_4(z1: float) -> float:
    """Coupling for {-z1, 1/2 - z1, z1 - 1/2, z1}, 1/2 < z1 < 1."""
    _check_open(z1, 0.5, 1.0)
    w = z1 - 0.5
    return _coupling("four", z1, z1 / math.sqrt(1.0 - z1 * z1) + w / math.sqrt(1.0 - w * w), 4.0 * _den_4(z1))


def _bisect_root(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi]: a zero met on the way, else bisection until no float lies between the bracket's ends."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise OutOfRange(f"no sign change on [{lo}, {hi}]")
    while math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def denominator_root_3() -> float:
    """Vertical asymptote of the three-interface branch (about 0.69), to the last float."""
    return _bisect_root(_den_3, 0.5, 0.8)


def denominator_root_4() -> float:
    """Vertical asymptote of the four-interface branch (about 0.7855), to the last float."""
    return _bisect_root(_den_4, 0.6, 0.99)


# ------------------------------------------------------- uniform placements


def uniform_pattern(count: int) -> AxisymPattern:
    """Evenly placed interfaces with zero mean.

    Odd count 2n-1 uses z_i = -1 + i/n; even count 2n uses
    z_i = -1 + (2i-1)/(2n).
    """
    if count < 1:
        raise OutOfRange("interface count must be positive")
    zs = _floats(count)
    n = (count + 1) // 2  # count is 2n - 1 or 2n
    for i in range(1, count + 1):
        zs[i - 1] = -1.0 + i / n if count % 2 == 1 else -1.0 + (2 * i - 1) / (2 * n)
    return make_pattern(zs)


def initial_guess(count: int, kind: str = "uniform") -> AxisymPattern:
    """Solver starting pattern: evenly placed, or respaced evenly in atanh(z).

    The stretched variant keeps the extreme placements and crowds the rest
    toward the equator; its mean value is generally nonzero, which is fine
    for a Newton start since the mass equation is part of the system.
    """
    if kind == "uniform":
        return uniform_pattern(count)
    if kind == "stretch":
        base = uniform_pattern(count)
        if count == 1:
            return base
        hi = math.atanh(base.z[-1])
        return make_pattern([math.tanh(t) for t in _linspace(-hi, hi, count)])
    raise OutOfRange(f"unknown initial-guess kind {kind!r}")


class UniformCheck(NamedTuple):
    """Outcome of probing an evenly placed pattern for criticality.

    ``residual_floor``: the least max |residuals| row over every gamma >= 0, exact.
    """

    count: int
    all_gamma: bool
    critical_gamma: float | None
    pair_gammas: tuple[float | None, ...] = ()
    obstruction: str | None = None
    obstruction_pair: tuple[float, float] | None = None
    obstruction_gap: float | None = None
    residual_floor: float | None = None


def uniform_criticality_check(count: int) -> UniformCheck:
    """Decide for which couplings the evenly placed pattern is critical.

    One or two interfaces: critical for every gamma (all pairwise residuals
    vanish identically).  Otherwise each row is a_k + gamma b_k in the
    curvature and potential parts of ``_row_parts``, and pair k demands
    -a_k / b_k.  The floor min over gamma >= 0 of
    F(gamma) = max_k |a_k + gamma b_k| is convex and piecewise linear, so
    ``_bisect_root`` finds its minimizer gamma* on the sign of F's right
    slope.  The pattern is critical at gamma* when F(gamma*) <= 1e-9 *
    max(1, F(0)) and gamma* > 0: the unique coupling of three or four
    interfaces.  Five or more are not; the first incompatible consecutive
    pair of demanded couplings is reported with its gap and the floor.
    """
    p = uniform_pattern(count)
    if count <= 2:
        return UniformCheck(count=count, all_gamma=True, critical_gamma=None)

    # b_k at rounding noise (the central pair of even counts) constrains nothing: None
    a, b = _row_parts(p)
    candidates = tuple(None if abs(bk) <= 4e-12 else -ak / bk for ak, bk in zip(a, b))

    def slope(g: float) -> float:  # F's right slope at g: the first largest row's
        r = [x + g * y for x, y in zip(a, b)]
        k = max(range(len(r)), key=lambda i: abs(r[i]))
        return b[k] * ((r[k] > 0.0) - (r[k] < 0.0))

    a_max = max(map(abs, a))
    # beyond 3 a_max / max|b| every F exceeds F(0), so the slope is positive there
    g_star = 0.0 if slope(0.0) >= 0.0 else _bisect_root(slope, 0.0, 3.0 * a_max / max(map(abs, b)))
    floor = max(abs(x + g_star * y) for x, y in zip(a, b))
    if floor <= 1e-9 * max(1.0, a_max) and g_star > 0.0:
        return UniformCheck(count=count, all_gamma=False, critical_gamma=g_star, pair_gammas=candidates)

    pair = gap = None
    for c, d in zip(candidates, candidates[1:]):
        if c is not None and d is not None and (abs(c - d) > 1e-9 * max(1.0, abs(c)) or c <= 0.0 or d <= 0.0):
            pair, gap = (c, d), abs(c - d)
            break
    if any(c is not None and c <= 0.0 for c in candidates):
        obstruction = "a pair demands a non-positive coupling (same-sign differences)"
    else:
        obstruction = "consecutive pairs demand different couplings"
    return UniformCheck(count=count, all_gamma=False, critical_gamma=None, pair_gammas=candidates, obstruction=obstruction,
                        obstruction_pair=pair, obstruction_gap=gap, residual_floor=floor)


# ------------------------------------------------------------------ bounds


def polar_cap_bound(gamma: float) -> float:
    """Lower bound on the first interface height of nontrivial criticals.

    a / sqrt(1 + a^2) with a = -6*gamma/e - 1/sqrt(3); tends to -1/2 as
    gamma -> 0 and to -1 for strong coupling, which it returns once a^2
    overflows (the bound is -1 to double precision there).  Raises
    OutOfRange for a negative or NaN gamma.
    """
    if not gamma >= 0.0:  # NaN fails it
        raise OutOfRange("coupling must be nonnegative")
    a = -6.0 * gamma / math.e - 1.0 / math.sqrt(3.0)
    if math.isinf(a * a):
        return -1.0
    return a / math.sqrt(1.0 + a * a)


def stretched_gap_variance(p: AxisymPattern) -> float:
    """Population variance of the gaps atanh(z_{k+1}) - atanh(z_k), each (L1 + L2)/2 of ``_band_terms``."""
    prof = xi_profile(p)
    gaps = [0.5 * (l1 + l2) for _, _, l1, l2 in (_band_terms(p, prof, k) for k in range(1, p.n))]
    if not gaps:
        return 0.0
    mean = sum(gaps) / len(gaps)
    return sum((g - mean) * (g - mean) for g in gaps) / len(gaps)
