"""Sharp-interface energy of an axisymmetric pattern.

Two ingredients: the interface perimeter 2*pi*sum_k sqrt(1 - z_k^2), and a
long-range term gamma * 2*pi * integral of xi(z)^2 / (1 - z^2) over [-1, 1],
where xi is the pattern's antiderivative profile.  The integral has a
closed form: on each band the integrand is a shifted parabola over 1 - z^2,
and band j contributes -s_j^2 (z_{j+1} - z_j) + c1^2/2 L1 + c2^2/2 L2 in the
coefficients, logs and pole rule of ``pattern._band_terms``.

The quadrature route integrates the same band integrands adaptively after
cancelling the pole factor by hand; it exists purely as an independent
cross-check of the closed form and shares no log-term code with it.
``_frame_hessian`` gives the energy's slopes and tridiagonal Hessian over
the strip moves in O(n), for the descent and, at ``_critical_frame``'s
sign, the critical-point solver and the stability gate.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import NumericalFailure, OutOfRange
from .pattern import AxisymPattern, _band_diff, _band_terms, kappa_g, make_pattern, xi_profile

if TYPE_CHECKING:
    from .quadrature import QuadratureSpec

__all__ = [
    "EnergyBreakdown",
    "SweepGrid",
    "perimeter",
    "nonlocal_closed",
    "nonlocal_quadrature",
    "total_energy",
    "two_interface_grid",
]

TWO_PI = 2.0 * math.pi


class EnergyBreakdown(NamedTuple):
    """Perimeter and long-range parts; total is always their sum.

    ``per_segment`` lists each band's contribution to the long-range term
    (they sum to ``nonlocal``).
    """

    perimeter: float
    nonlocal_: float
    total: float
    per_segment: tuple[float, ...]

    @property
    def total_over_pi(self) -> float:
        return self.total / math.pi


def perimeter(p: AxisymPattern) -> float:
    """Total interface length 2*pi*sum sqrt(1 - z_k^2)."""
    return TWO_PI * sum(math.sqrt(1.0 - v * v) for v in p.z)


def nonlocal_closed(p: AxisymPattern, gamma: float) -> tuple[float, tuple[float, ...]]:
    """Closed-form long-range energy and its per-band split.

    Returns (value, per_segment).  Band j contributes
    2*pi*gamma * [ -s_j^2 dz + c1^2/2 L1 + c2^2/2 L2 ] over ``_band_terms``.
    """
    prof = xi_profile(p)
    nodes_z = p.nodes()
    per = []
    for j, s in enumerate(prof.slopes):
        c1, c2, l1, l2 = _band_terms(p, prof, j)
        acc = -s * s * (nodes_z[j + 1] - nodes_z[j]) + 0.5 * c1 * c1 * l1 + 0.5 * c2 * c2 * l2
        per.append(TWO_PI * gamma * acc)
    return sum(per), tuple(per)


def nonlocal_quadrature(p: AxisymPattern, gamma: float, spec: QuadratureSpec | None = None) -> float:
    """Long-range energy by adaptive panel quadrature (oracle route), the only energy code that loads ``quadrature``.

    Pole bands use the reduced integrands s^2 (1+z)/(1-z) and
    s^2 (1-z)/(1+z): xi vanishes linearly there and cancels one factor of
    the denominator, so every band integrand is smooth on its closure.
    """
    from .quadrature import QuadratureSpec, integrate_adaptive

    if gamma == 0.0:
        return 0.0
    spec = QuadratureSpec() if spec is None else spec
    prof, nodes_z = xi_profile(p), p.nodes()
    total = 0.0
    for j, (s, xa) in enumerate(zip(prof.slopes, prof.nodes)):
        za, zb = nodes_z[j], nodes_z[j + 1]
        if j == 0:

            def f(z, s=s):
                return s * s * (1.0 + z) / (1.0 - z)

        elif j == p.n:

            def f(z, s=s):
                return s * s * (1.0 - z) / (1.0 + z)

        else:

            def f(z, s=s, xa=xa, za=za):
                xi = xa + s * (z - za)
                return xi * xi / (1.0 - z * z)

        total += integrate_adaptive(f, za, zb, spec)
    return TWO_PI * gamma * total


def total_energy(p: AxisymPattern, gamma: float) -> EnergyBreakdown:
    """Perimeter plus closed-form long-range energy; NumericalFailure when the total overflows."""
    peri = perimeter(p)
    nl, per = nonlocal_closed(p, gamma)
    total = peri + nl
    if not math.isfinite(total):
        raise NumericalFailure(f"energy overflows at gamma={gamma!r}")
    return EnergyBreakdown(perimeter=peri, nonlocal_=nl, total=total, per_segment=per)


def _frame_hessian(p: AxisymPattern, gamma: float) -> tuple[list[float], list[float], list[float], list[float]]:
    """Slopes g of the frames' ``minimizer._move_energy`` at t = 0, their Hessian and g's z_1 column: (g, diag, off, col).

    g_k = (-1)^k (a_k - gamma b_k) in ``criticality._row_parts``' two parts,
    read from ``kappa_g`` and ``_band_diff`` alike, so g is ``residuals`` at
    -gamma with alternating signs, bit for bit.  Up to terms linear in z that
    strip moves keep fixed, E/(2*pi) sums over interfaces i (0-based, bands
    i and i+1 below and above) the terms

        sqrt(1 - z_i^2) + gamma/2 [(c1_{i+1}^2 - c1_i^2) log(1 - z_i) + (c2_i^2 - c2_{i+1}^2) log(1 + z_i)]

    of ``_move_energy``'s logs regrouped, pole rule included.  Frame k shifts
    z_k, z_{k+1} and both c1 and c2 of band k+1 by (1, 1, s_k - s_{k+1}) tau_k,
    so term i reads tau_{i-1} and tau_i alone: H is tridiagonal, built in O(n).

    col is dg/dz_1 with z_1 moving alone and the mean with it, the border of
    H in ``solve_critical``: moving z_1 changes xi by -2 H(z - z_1) + (z + 1),
    so col_k is (-1)^k 4 gamma L2 of band k+1, and col_0 also subtracts
    d_1 = (1 - z_1^2)^(-3/2) - 4 gamma xi(z_1) / (1 - z_1^2).
    """
    prof, q, kap = xi_profile(p), 1.0 - p.z[0] * p.z[0], kappa_g(p)
    c1, c2, l1, l2 = zip(*(_band_terms(p, prof, j) for j in range(p.n + 1)))
    d_1 = 1.0 / (q * math.sqrt(q)) - 4.0 * gamma * prof.nodes[1] / q
    dzz, d_below, d_above = [], [], []  # per interface: d2E/dz2, d2E/dz dc for the bands below and above
    for i, z in enumerate(p.z):
        u, v, r = 1.0 / (1.0 - z), 1.0 / (1.0 + z), math.sqrt(1.0 - z * z)
        w1, w2 = c1[i + 1] ** 2 - c1[i] ** 2, c2[i] ** 2 - c2[i + 1] ** 2
        dzz.append(-1.0 / (r * r * r) - 0.5 * gamma * (w1 * u * u + w2 * v * v))
        d_below.append(gamma * (c1[i] * u + c2[i] * v))
        d_above.append(-gamma * (c1[i + 1] * u + c2[i + 1] * v))
    g, diag, off, col = [], [], [], []
    for k in range(p.n - 1):
        sigma, j = prof.slopes[k] - prof.slopes[k + 1], k + 1  # frame k - 1 shifts its band by exactly -sigma
        row = (kap[j] - kap[k]) - gamma * (4.0 * _band_diff(c1[j], c2[j], l1[j], l2[j]))  # a_k - gamma b_k
        g.append(-row if k % 2 else row)
        diag.append(dzz[k] + dzz[j] + 2.0 * sigma * (d_above[k] + d_below[j]) + sigma * sigma * gamma * (l1[j] + l2[j]))
        if k:
            off.append(dzz[k] + sigma * (d_above[k] - d_below[k]))
        col.append(4.0 * gamma * (-1.0) ** k * l2[j] - (0.0 if k else d_1))
    return g, diag, off, col


def _tridiagonal_solve(diag: list, off: list, rhs: list) -> tuple[list[float], int] | None:
    """(x, negative) with H x = rhs for the symmetric tridiagonal H = (diag, off), by one LDL^T pass without pivoting.

    negative counts the negative pivots: H's Morse index, by Sylvester's law of inertia.  None on a zero or nan pivot.
    """
    pivots, y = [], []  # H = L D L^T with D = diag(pivots), and y = L^{-1} rhs
    for k, h in enumerate(diag):
        pivot = h - off[k - 1] * off[k - 1] / pivots[-1] if k else h
        if not abs(pivot) > 0.0:
            return None
        y.append(rhs[k] - off[k - 1] / pivots[-1] * y[-1] if k else rhs[k])
        pivots.append(pivot)
    x = [y[-1] / pivots[-1]] if y else []  # back-substituted from the last
    for k in reversed(range(len(y) - 1)):
        x.append((y[k] - off[k] * x[-1]) / pivots[k])
    return x[::-1], sum(v < 0.0 for v in pivots)


# ------------------------------------------------------------------ sweeps


class SweepGrid(NamedTuple):
    """Energy-over-pi surface for the two-interface family z_2 = z_1 + 1."""

    z1: tuple[float, ...]
    gamma: tuple[float, ...]
    energy_over_pi: tuple[tuple[float, ...], ...]  # row per z1 value


def _two_interface_pattern(z1: float) -> AxisymPattern:
    # once z1 + 1 rounds to 1 (-2^-54 <= z1 <= 0) the upper band has closed onto the pole:
    # the limit is the single cap with its interface on the equator, energy-continuous.
    if z1 + 1.0 == 1.0:
        return make_pattern([0.0])
    return make_pattern([z1, z1 + 1.0])


def two_interface_grid(
    z1_values: Sequence[float], gamma_values: Sequence[float]
) -> SweepGrid:
    """Zero-mean two-interface ``total_energy`` over pi on a (z1, gamma) grid; NumericalFailure on overflow."""
    z1s = tuple(float(v) for v in z1_values)
    gammas = tuple(float(g) for g in gamma_values)
    if not z1s or not gammas:
        raise OutOfRange("sweep needs at least one z1 and one gamma")
    for v in z1s:
        if not -1.0 < v <= 0.0:
            raise OutOfRange(f"two-interface sweep needs z1 in (-1, 0], got {v!r}")
    pats = [_two_interface_pattern(v) for v in z1s]
    rows = tuple(tuple(total_energy(pat, g).total_over_pi for g in gammas) for pat in pats)
    return SweepGrid(z1=z1s, gamma=gammas, energy_over_pi=rows)

