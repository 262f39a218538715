"""Adaptive Gauss-Legendre panel integration.

Global strategy: keep a worklist of panels with per-panel error estimates
(low-order vs doubled-order difference) and repeatedly split the worst
panel until the summed estimate meets the relative tolerance.  Splitting is
geometric, so integrable endpoint singularities (log-type) grade themselves
automatically.
"""

from __future__ import annotations

import heapq
import math
from functools import cache
from itertools import count
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import NoConvergence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["QuadratureSpec", "integrate_adaptive"]


class QuadratureSpec(NamedTuple):
    """Tolerance and refinement limits for the panel scheme."""

    rel_tol: float = 1e-10
    max_depth: int = 48


ORDER = 10  # Gauss-Legendre points of the low rule; the high rule doubles it


@cache
def _rules() -> tuple:
    """The low and high Gauss-Legendre rules, built on first use so an import runs no LAPACK call."""
    import numpy as np

    return np.polynomial.legendre.leggauss(ORDER), np.polynomial.legendre.leggauss(2 * ORDER)


def _panel_estimate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """Doubled-order value plus |high - low| error estimate."""
    import numpy as np

    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    (xl, wl), (xh, wh) = _rules()
    lo = half * float(np.dot(wl, np.asarray(f(mid + half * xl), dtype=float)))
    hi = half * float(np.dot(wh, np.asarray(f(mid + half * xh), dtype=float)))
    return hi, abs(hi - lo)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadratureSpec = QuadratureSpec(),
    abs_tol: float = 0.0,
) -> float:
    """Integrate a vectorized integrand over [a, b] to spec.rel_tol.

    Raises NoConvergence once the worst remaining panel sits at
    spec.max_depth and the tolerance is still unmet, and as soon as the
    running value or error estimate is not finite.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate_adaptive(f, b, a, spec, abs_tol)

    tiebreak = count()
    total_val, total_err = _panel_estimate(f, a, b)
    # heap entries: (-err, seq, a, b, depth, value, err)
    heap = [(-total_err, next(tiebreak), a, b, 0, total_val, total_err)]
    while True:
        if not (math.isfinite(total_val) and math.isfinite(total_err)):
            raise NoConvergence(f"integrand gave a non-finite value {total_val!r} or error {total_err!r}")
        if total_err <= max(spec.rel_tol * abs(total_val), abs_tol, 5e-16 * abs(total_val)):
            return total_val
        neg_err, _, pa, pb, depth, pval, perr = heapq.heappop(heap)
        if depth >= spec.max_depth:
            raise NoConvergence(
                f"panel [{pa}, {pb}] still carries error {perr:.3e} at depth {depth}"
            )
        mid = 0.5 * (pa + pb)
        lval, lerr = _panel_estimate(f, pa, mid)
        rval, rerr = _panel_estimate(f, mid, pb)
        total_val += lval + rval - pval
        total_err += lerr + rerr - perr
        heapq.heappush(heap, (-lerr, next(tiebreak), pa, mid, depth + 1, lval, lerr))
        heapq.heappush(heap, (-rerr, next(tiebreak), mid, pb, depth + 1, rval, rerr))
