"""Acceptance gate: eleven pinned criteria, one pass/fail line each.

Each test prints `[criterion NN] PASS/FAIL: detail` and then asserts, so
the pytest -v report carries exactly one verdict line per criterion.
"""

import math

import numpy as np

from axisphere.criticality import (
    continue_gamma,
    denominator_root_3,
    denominator_root_4,
    gamma_of_z1_3,
    gamma_of_z1_4,
    initial_guess,
    polar_cap_bound,
    residuals,
    solve_critical,
    uniform_pattern,
)
from axisphere.energy import nonlocal_closed, nonlocal_quadrature, total_energy, two_interface_grid
from axisphere.minimizer import apply_elementary_move, escape_pole_frame, local_minimize, move_range
from axisphere.pattern import make_pattern
from axisphere.quadrature import QuadratureSpec
from axisphere.stability import assemble_J, doublecap_kernel_integral, single_mode_J
from axisphere.verify import kernel_integral_2d

G3_LIMIT = 1.0 / (2.0 * math.sqrt(3.0) * math.log(4.0 / 3.0))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _random_pattern(rng):
    while True:
        n = int(rng.integers(1, 9))
        z = np.sort(rng.uniform(-0.98, 0.98, size=n))
        if n > 1 and float(np.min(np.diff(z))) < 0.02:
            continue
        p = make_pattern(z)
        if abs(p.m) < 0.9:
            return p


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(4821)
    spec = QuadratureSpec(rel_tol=1e-11)
    worst = 0.0
    for _ in range(100):
        p = _random_pattern(rng)
        closed, _ = nonlocal_closed(p, 1.0)
        quad = nonlocal_quadrature(p, 1.0, spec)
        worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    _report(1, worst <= 1e-8, f"closed vs quadrature, 100 patterns, worst rel {worst:.3e} (tol 1e-8)")


def test_criterion_02_three_interface_limit_and_root():
    # The curve is 1/4 + 3*z1/8 + O(z1^2), so one value at z1 = 1e-5 sits
    # 3.75e-6 above the limit. The two-point extrapolation
    # 2*gamma(z1/2) - gamma(z1) cancels the first-order term and estimates
    # the limit itself to O(z1^2).
    z1 = 1e-5
    got = gamma_of_z1_3(z1)
    limit = 2.0 * gamma_of_z1_3(0.5 * z1) - got
    dev = abs(limit - 0.25)
    slope = (got - 0.25) / z1
    root = denominator_root_3()
    root_ok = abs(root - 0.69) <= 0.01
    ok = dev <= 1e-6 and root_ok
    _report(
        2,
        ok,
        f"limit z1->0+ (2*gamma3(z1/2)-gamma3(z1), z1=1e-5)={limit!r}, |dev from 1/4|={dev:.3e} "
        f"(tol 1e-6); gamma3(1e-5)={got!r}, first-order coeff {slope:.6f} (~3/8); "
        f"root={root:.6f} (0.69 +/- 0.01)",
    )


def test_criterion_03_four_interface_limit_and_asymptote():
    got = gamma_of_z1_4(0.5 + 1e-10)
    dev = abs(got - G3_LIMIT)
    root = denominator_root_4()
    ok = dev <= 1e-8 and abs(G3_LIMIT - 1.00345) <= 5e-6 and abs(root - 0.78554) <= 1e-4
    _report(
        3,
        ok,
        f"limit dev {dev:.3e} (tol 1e-8), limit value {G3_LIMIT:.6f} (~1.00345), "
        f"asymptote {root:.6f} (0.78554 +/- 1e-4)",
    )


def test_criterion_04_uniform_criticality():
    r3 = float(np.max(np.abs(residuals(uniform_pattern(3), G3_LIMIT))))
    floors = {}
    for count in (5, 6):
        p = uniform_pattern(count)
        floors[count] = min(
            float(np.max(np.abs(residuals(p, float(g))))) for g in np.geomspace(1e-3, 1e4, 60)
        )
    ok = r3 <= 1e-11 and floors[5] >= 1e-3 and floors[6] >= 1e-3
    _report(
        4,
        ok,
        f"uniform-3 residual {r3:.3e} at gamma={G3_LIMIT:.12f} (tol 1e-11); "
        f"sweep floors: 5 -> {floors[5]:.3e}, 6 -> {floors[6]:.3e} (>= 1e-3)",
    )


def test_criterion_05_double_cap_critical_for_all_gamma():
    p = make_pattern([-0.5, 0.5])
    worst = max(float(np.max(np.abs(residuals(p, float(g))))) for g in np.geomspace(1e-3, 1e3, 50))
    _report(5, worst <= 1e-12, f"50 log-spaced gamma, worst residual {worst:.3e} (tol 1e-12)")


def test_criterion_06_solver_curve_consistency():
    cp = solve_critical(3, 2.0, initial_guess(3))
    back = gamma_of_z1_3(cp.pattern.z[2])
    dev = abs(back - 2.0)
    _report(6, dev <= 1e-8, f"z1={cp.pattern.z[2]!r}, curve gives gamma {back!r}, dev {dev:.3e} (tol 1e-8)")


def test_criterion_07_polar_cap_bound_on_catalog():
    catalog = []
    catalog += continue_gamma(2, 0.5, 50.0, 10, initial_guess(2))
    catalog += continue_gamma(3, 1.05, 20.0, 10, initial_guess(3))
    catalog += continue_gamma(4, 1.1, 20.0, 8, initial_guess(4, "stretch"))
    worst = min(cp.pattern.z[0] - polar_cap_bound(cp.gamma) for cp in catalog)
    zero_limit = polar_cap_bound(0.0)
    ok = worst >= 0.0 and zero_limit == -0.5
    _report(
        7,
        ok,
        f"{len(catalog)} catalogued points, min slack {worst:.3e}; bound at gamma=0 is {zero_limit!r} (== -0.5)",
    )


def test_criterion_08_kernel_identity():
    worst = 0.0
    parity = 0.0
    for k in range(1, 7):
        closed = doublecap_kernel_integral(k)
        exact = -2.0 * math.pi**2 / (k * 3.0**k)
        grid_c = kernel_integral_2d(k, "cos")
        grid_s = kernel_integral_2d(k, "sin")
        worst = max(worst, abs(closed - exact), abs(closed - grid_c))
        parity = max(parity, abs(grid_c - grid_s))
    ok = worst <= 1e-7 and parity <= 1e-10
    _report(8, ok, f"k=1..6 worst abs {worst:.3e} (tol 1e-7), cos/sin gap {parity:.3e} (tol 1e-10)")


def test_criterion_09_second_variation_consistency():
    cp = solve_critical(3, 2.0, initial_guess(3))
    J = assemble_J(cp.pattern, 2.0, K=8)
    z_n = cp.pattern.z[-1]
    worst = 0.0
    for k in range(1, 7):
        lhs = single_mode_J(z_n, 2.0, k)
        rhs = J.block(k)[2, 2] / math.pi
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    _report(9, worst <= 1e-6, f"sin-mode assembly vs one-mode formula, worst rel {worst:.3e} (tol 1e-6)")


def test_criterion_10_minimizer_properties():
    # mass conservation under random elementary moves, carried bit-exact
    rng = np.random.default_rng(5)
    mass_ok = True
    for _ in range(25):
        p = _random_pattern(rng)
        if p.n < 2:
            continue
        k = int(rng.integers(0, p.n - 1))
        lo, hi = move_range(p, k)
        q = apply_elementary_move(p, k, float(rng.uniform(0.4 * lo, 0.4 * hi)))
        mass_ok = mass_ok and q.m == p.m

    res = local_minimize(make_pattern([-0.4, 0.6]), 5.0)
    energies = [c.energy_over_pi for c in res.cycles]
    monotone = all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    final_res = float(np.max(np.abs(residuals(res.pattern, 5.0, m_target=res.pattern.m))))

    strong = escape_pole_frame(0.6, 1e4)
    weak = escape_pole_frame(0.6, 0.1)
    ok = mass_ok and monotone and final_res <= 1e-6 and strong.escaped and not weak.escaped
    _report(
        10,
        ok,
        f"mass bit-exact {mass_ok}, trace monotone {monotone}, final residual {final_res:.3e} "
        f"(tol 1e-6), escape(1e4) {strong.escaped}, no-escape(0.1) {not weak.escaped}",
    )


def test_criterion_11_two_interface_grid_minima():
    z1 = [float(v) for v in np.linspace(-0.95, -0.05, 46)]
    grid = two_interface_grid(z1, [0.1, 10.0])
    col_weak = [row[0] for row in grid.energy_over_pi]
    col_strong = [row[1] for row in grid.energy_over_pi]
    i_weak = int(np.argmin(col_weak))
    i_strong = int(np.argmin(col_strong))
    step = z1[1] - z1[0]
    weak_ok = i_weak in (0, len(z1) - 1)
    strong_ok = abs(z1[i_strong] + 0.5) <= step + 1e-12
    _report(
        11,
        weak_ok and strong_ok,
        f"gamma=0.1 argmin at z1={z1[i_weak]:.3f} (boundary: {weak_ok}); "
        f"gamma=10 argmin at z1={z1[i_strong]:.3f} (-1/2 within one step: {strong_ok})",
    )
