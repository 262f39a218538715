"""Self-verification suite: oracle equivalences and pinned reference values.

Every check recomputes a quantity along two independent routes (closed
form versus adaptive or spectral quadrature, window profile versus full
energy, blockwise assembly versus the one-mode formula) or against a
value frozen from an analytic derivation.  The CLI `verify` subcommand
runs the whole list and fails the process if any check fails.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .criticality import (
    _row_parts,
    gamma_of_z1_3,
    polar_cap_bound,
    uniform_criticality_check,
    uniform_pattern,
)
from .energy import nonlocal_closed, nonlocal_quadrature, total_energy
from .minimizer import (
    apply_elementary_move,
    escape_pole_frame,
    segment_energy,
)
from .pattern import AxisymPattern, make_pattern, xi_eval
from .potential import v_diff
from .quadrature import QuadratureSpec, integrate_adaptive
from .stability import _kernel, assemble_J, doublecap_kernel_integral, single_mode_J

__all__ = ["VerifyCheck", "random_tent_pattern", "kernel_integral_2d", "run_verify"]


class VerifyCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


def random_tent_pattern(count: int, rng: np.random.Generator) -> AxisymPattern:
    """Zero-mean pattern whose xi crosses zero between every interface pair.

    Built by placing the crossing points first and the interfaces at their
    midpoints, which forces the tent structure by construction.
    """
    while True:
        roots = np.sort(rng.uniform(-0.97, 0.97, size=count))
        if count == 1 or float(np.min(np.diff(roots))) > 0.05:
            break
    full = np.concatenate(([-1.0], roots, [1.0]))
    return make_pattern(0.5 * (full[:-1] + full[1:]))


def _tent_roots(p: AxisymPattern) -> list[float]:
    """Zeros -1 = r_0 < ... < r_n = 1 of xi of a ``random_tent_pattern``: r_{i+1} = 2 z_i - r_i."""
    roots = [-1.0]
    for z in p.z[:-1]:
        roots.append(2.0 * z - roots[-1])
    return roots + [1.0]


@cache
def _kernel_grid() -> tuple[np.ndarray, np.ndarray]:
    """The angles and the matrix log(5 - 3cos(th - al)) of ``kernel_integral_2d``, built once and read-only."""
    points = 384
    th = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    ker = np.log(5.0 - 3.0 * np.cos(th[None, :] - th[:, None]))
    th.flags.writeable = ker.flags.writeable = False
    return th, ker


def kernel_integral_2d(k: int, parity: str) -> float:
    """Periodic-grid double integral of log(5 - 3cos(th - al)) with k-modes, on 384 points per angle.

    The integrand is analytic and periodic, so the uniform grid converges
    spectrally; this route never touches the Fourier closed form.
    """
    th, ker = _kernel_grid()
    trig = np.cos if parity == "cos" else np.sin
    w = trig(k * th)
    cell = (2.0 * math.pi / len(th)) ** 2
    return float(w @ ker @ w) * cell


def _check(name: str, passed: bool, detail: str) -> VerifyCheck:
    return VerifyCheck(name=name, passed=bool(passed), detail=detail)


def run_verify(seed: int) -> list[VerifyCheck]:
    rng = np.random.default_rng(seed)
    checks: list[VerifyCheck] = []
    spec = QuadratureSpec(rel_tol=1e-11)

    # Closed-form screened energy against adaptive quadrature.
    worst = 0.0
    for _ in range(25):
        p = random_tent_pattern(int(rng.integers(1, 6)), rng)
        closed, _ = nonlocal_closed(p, 1.0)
        quad = nonlocal_quadrature(p, 1.0, spec)
        worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    checks.append(_check("nonlocal-closed-vs-quadrature", worst <= 1e-8, f"worst rel {worst:.2e}"))

    # Pinned symmetric two-cap value: perimeter 2*sqrt(3)*pi plus the
    # screened part pi*(-4 + 8 log(4/3) + 2 log 3) at unit coupling.
    dc = make_pattern([-0.5, 0.5])
    target = 2.0 * math.sqrt(3.0) + (-4.0 + 8.0 * math.log(4.0 / 3.0) + 2.0 * math.log(3.0))
    got = total_energy(dc, 1.0).total_over_pi
    checks.append(
        _check("two-cap-energy-anchor", abs(got - target) <= 1e-12, f"total/pi {got!r} vs {target!r}")
    )

    # Potential differences against direct integration of xi/(1-z^2).
    worst = 0.0
    for _ in range(10):
        p = random_tent_pattern(int(rng.integers(2, 6)), rng)
        for k in range(1, p.n):
            direct = integrate_adaptive(
                lambda z: np.array(xi_eval(p, z)) / (1.0 - z * z), p.z[k - 1], p.z[k], spec, abs_tol=1e-13
            )
            worst = max(worst, abs(direct - v_diff(p, k)))
    checks.append(_check("potential-diff-vs-quadrature", worst <= 1e-9, f"worst abs {worst:.2e}"))

    # Window profile differences reproduce full energy differences.
    worst = 0.0
    for _ in range(10):
        p = random_tent_pattern(int(rng.integers(2, 6)), rng)
        gamma = float(rng.uniform(0.2, 5.0))
        k = int(rng.integers(0, p.n - 1))
        alpha, x, beta = _tent_roots(p)[k : k + 3]
        span = min(x - alpha, beta - x)
        t = float(rng.uniform(-0.2, 0.2)) * 0.5 * span
        moved = apply_elementary_move(p, k, t)
        de_profile = segment_energy(x + 2.0 * t, alpha, beta, gamma) - segment_energy(x, alpha, beta, gamma)
        de_full = (total_energy(moved, gamma).total - total_energy(p, gamma).total) / (2.0 * math.pi)
        worst = max(worst, abs(de_profile - de_full))
    checks.append(_check("move-profile-localization", worst <= 1e-10, f"worst abs {worst:.2e}"))

    # The stability blocks' kernel coefficients against adaptive quadrature
    # of log(chord^2) cos(ku), including the singular equal-height pairs.
    worst = 0.0
    qspec = QuadratureSpec(rel_tol=1e-11, max_depth=52)
    for _ in range(40):
        lo = float(rng.uniform(-0.999, 0.999))
        hi = lo if rng.uniform() < 0.3 else float(rng.uniform(-0.999, 0.999))
        lo, hi = min(lo, hi), max(lo, hi)
        k = int(rng.integers(0, 7))
        r_lo, r_hi = math.sqrt(1.0 - lo * lo), math.sqrt(1.0 - hi * hi)

        def f(u, d0=(hi - lo) ** 2 + (r_hi - r_lo) ** 2, rr=4.0 * r_lo * r_hi, k=k):
            # the chord at u = 0 plus a half-angle term: no difference rounds below 0
            val = np.log(d0 + rr * np.sin(0.5 * u) ** 2)
            return val * np.cos(k * u) if k else val

        direct = integrate_adaptive(f, 0.0, 2.0 * math.pi, qspec, abs_tol=1e-11)
        worst = max(worst, abs(direct - float(_kernel(lo, hi, k)[k])))
    checks.append(_check("kernel-vs-quadrature", worst <= 1e-8, f"worst abs {worst:.2e}"))

    # Two-cap kernel double integral: closed form, 2D grid, sin parity.
    worst = 0.0
    parity_gap = 0.0
    for k in range(1, 7):
        closed = doublecap_kernel_integral(k)
        grid_c = kernel_integral_2d(k, "cos")
        grid_s = kernel_integral_2d(k, "sin")
        exact = -2.0 * math.pi**2 / (k * 3.0**k)
        worst = max(worst, abs(closed - grid_c), abs(closed - exact))
        parity_gap = max(parity_gap, abs(grid_c - grid_s))
    checks.append(_check("two-cap-kernel-identity", worst <= 1e-7, f"worst abs {worst:.2e}"))
    checks.append(_check("kernel-parity-match", parity_gap <= 1e-10, f"cos/sin gap {parity_gap:.2e}"))

    # One-mode formula against the blockwise assembly on the two-cap point.
    J = assemble_J(dc, 2.5, K=6)
    worst = 0.0
    for k in range(1, 7):
        lhs = single_mode_J(0.5, 2.5, k)
        rhs = J.block(k)[1, 1] / math.pi
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    checks.append(_check("one-mode-vs-assembly", worst <= 1e-10, f"worst rel {worst:.2e}"))

    # Rotation generator sits in the kernel of the k=1 block.
    rot = float(np.max(np.abs(J.block(1) @ np.array([1.0, -1.0]))))
    checks.append(_check("rotation-zero-mode", rot <= 1e-10, f"|J1 v| {rot:.2e}"))

    # Two-cap residuals vanish for every coupling: both parts of its rows and its mass are exactly 0.
    a, b = _row_parts(dc)
    checks.append(_check("two-cap-critical-sweep", a == b == [0.0] and dc.m == 0.0, f"a={a!r}, b={b!r}, m={dc.m!r}"))

    # Explicit coupling curve endpoints.
    small = gamma_of_z1_3(1e-6)
    at_half = gamma_of_z1_3(0.5)
    ref_half = 1.0 / (2.0 * math.sqrt(3.0) * math.log(4.0 / 3.0))
    checks.append(
        _check(
            "three-interface-curve-endpoints",
            abs(small - 0.25) <= 1e-5 and abs(at_half - ref_half) <= 1e-12,
            f"gamma(0+)={small!r}, gamma(1/2)={at_half!r}",
        )
    )

    # Evenly placed patterns: unique coupling for 3, none for 5.
    u3 = uniform_criticality_check(3)
    u5 = uniform_criticality_check(5)
    ok3 = u3.critical_gamma is not None and abs(u3.critical_gamma - ref_half) <= 1e-9
    ok5 = u5.critical_gamma is None and u5.residual_floor is not None and u5.residual_floor >= 1e-3
    checks.append(
        _check(
            "even-placement-rigidity",
            bool(ok3 and ok5),
            f"g3={u3.critical_gamma!r}, floor5={u5.residual_floor!r}",
        )
    )

    # Polar-cap bound endpoints.
    b0, b1 = polar_cap_bound(0.0), polar_cap_bound(1.0)
    checks.append(
        _check("polar-cap-bound-endpoints", b0 == -0.5 and -1.0 < b1 < -0.9, f"b(0)={b0!r}, b(1)={b1!r}")
    )

    # Pole window: repulsive at strong coupling, absorbing at weak.
    strong = escape_pole_frame(0.6, 1e4)
    weak = escape_pole_frame(0.6, 0.1)
    checks.append(
        _check(
            "pole-window-escape",
            strong.escaped and not weak.escaped,
            f"strong min-limit {strong.e_star - strong.limit:.3e}, weak {weak.e_star - weak.limit:.3e}",
        )
    )

    # Evenly placed mass convention.
    u4 = uniform_pattern(4)
    checks.append(
        _check(
            "even-placement-mass",
            u4.z == (-0.75, -0.25, 0.25, 0.75) and abs(u4.m) <= 1e-15,
            f"z={u4.z!r}, m={u4.m!r}",
        )
    )

    return checks
