"""Surface potential induced by a pattern.

The potential v solves the sphere Poisson problem for (pattern - mean) and,
for axisymmetric data, reduces to v'(z) = xi(z) / (1 - z^2).  Differences
between consecutive interface values then integrate in closed form:
v(z_{j+1}) - v(z_j) = c1/2 L1 + c2/2 L2, ``pattern._band_diff`` of the band
terms of ``pattern._band_terms``, which the energy's frame slopes read too.

Absolute values are anchored at the south pole: v(z_1) is the pole-band
difference, so every reported value equals the integral of xi/(1-z^2) from
-1.  Criticality only ever consumes differences, which are anchor-free.
"""

from __future__ import annotations

import math
from itertools import accumulate

from .errors import OutOfRange
from .pattern import AxisymPattern, _band_diff, _band_terms, xi_profile

__all__ = ["v_diff", "v_at_interfaces", "grad_v_normal"]


def v_diff(p: AxisymPattern, k: int) -> float:
    """Potential difference across band k: v(z_{k+1}) - v(z_k), k = 0..n.

    k = 0 and k = n are the pole bands (anchoring and closing the profile);
    interior k give the differences entering the criticality system.
    """
    if not 0 <= k <= p.n:
        raise OutOfRange(f"band index {k} outside 0..{p.n}")
    return _band_diff(*_band_terms(p, xi_profile(p), k))


def v_at_interfaces(p: AxisymPattern) -> tuple[float, ...]:
    """Potential values v(z_k), k = 1..n, accumulated from the south pole over one xi profile."""
    prof = xi_profile(p)
    return tuple(accumulate(_band_diff(*_band_terms(p, prof, k)) for k in range(p.n)))  # sequential sums, as np.cumsum's


def grad_v_normal(p: AxisymPattern) -> tuple[float, ...]:
    """Normal derivatives of v on the n circles, each signed by its upper phase.

    Entry k-1 of the tuple equals u(z_k+) * xi(z_k) / sqrt(1 - z_k^2); all
    n come from one xi profile.  The sign convention is pinned by two facts
    checked in the stability tests: the single-circle mode expansion
    reproduces its closed form term by term, and the rigid rotation
    generator lies in the kernel of the assembled second variation.
    """
    xi = xi_profile(p).nodes[1:-1]
    return tuple((x if k % 2 == 0 else -x) / math.sqrt(1.0 - z * z) for k, (z, x) in enumerate(zip(p.z, xi)))
