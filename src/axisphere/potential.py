"""Surface potential induced by a pattern.

The potential v solves the sphere Poisson problem for (pattern - mean) and,
for axisymmetric data, reduces to v'(z) = xi(z) / (1 - z^2).  Differences
between consecutive interface values then integrate in closed form:

    v(z_{j+1}) - v(z_j) = (c1_j / 2) log((1 - z_j)/(1 - z_{j+1}))
                        + (c2_j / 2) log((1 + z_{j+1})/(1 + z_j))

with the same band coefficients c1, c2 as the energy module.  Pole bands
drop the term whose coefficient vanishes identically (xi(+-1) = 0).

Absolute values are anchored at the south pole: v(z_1) is the pole-band
difference, so every reported value equals the integral of xi/(1-z^2) from
-1.  Criticality only ever consumes differences, which are anchor-free.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import IndexOutOfRange
from .pattern import AxisymPattern, xi_profile

__all__ = ["v_diff", "v_at_interfaces", "grad_v_normal"]


def v_diff(p: AxisymPattern, k: int) -> float:
    """Potential difference across band k: v(z_{k+1}) - v(z_k), k = 0..n.

    k = 0 and k = n are the pole bands (anchoring and closing the profile);
    interior k give the differences entering the criticality system.
    """
    if not 0 <= k <= p.n:
        raise IndexOutOfRange(f"band index {k} outside 0..{p.n}")
    prof = xi_profile(p)
    nodes_z = p.nodes()
    za, zb = nodes_z[k], nodes_z[k + 1]
    s, xa = prof.slopes[k], prof.nodes[k]
    out = 0.0
    if k != p.n:
        out += 0.5 * (xa + s * (1.0 - za)) * math.log((1.0 - za) / (1.0 - zb))
    if k != 0:
        out += 0.5 * (xa - s * (1.0 + za)) * math.log((1.0 + zb) / (1.0 + za))
    return out


def v_at_interfaces(p: AxisymPattern) -> tuple[float, ...]:
    """Potential values v(z_k), k = 1..n, accumulated from the south pole."""
    values = [v_diff(p, 0)]
    for k in range(1, p.n):
        values.append(values[-1] + v_diff(p, k))
    return tuple(values)


def grad_v_normal(p: AxisymPattern) -> np.ndarray:
    """Normal derivatives of v on the n circles, each signed by its upper phase.

    Entry k-1 equals u(z_k+) * xi(z_k) / sqrt(1 - z_k^2); all n come from
    one xi profile.  The sign convention is pinned by two facts checked in
    the stability tests: the single-circle mode expansion reproduces its
    closed form term by term, and the rigid rotation generator lies in the
    kernel of the assembled second variation.
    """
    z = np.array(p.z)
    sign = np.where(np.arange(p.n) % 2 == 0, 1.0, -1.0)
    return sign * np.array(xi_profile(p).nodes[1:-1]) / np.sqrt(1.0 - z * z)
