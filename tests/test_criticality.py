import math
import re

import numpy as np
import pytest

from axisphere.criticality import (
    COLLAPSE_GAP,
    SolveOptions,
    _bisect_root,
    _critical_frame,
    _den_3,
    _den_4,
    _row_parts,
    continue_gamma,
    denominator_root_3,
    denominator_root_4,
    gamma_of_z1_3,
    gamma_of_z1_4,
    initial_guess,
    lambda_spread,
    lambda_values,
    polar_cap_bound,
    residuals,
    solve_critical,
    stretched_gap_variance,
    uniform_criticality_check,
    uniform_pattern,
)
from axisphere.energy import _frame_hessian
from axisphere.errors import Asymptote, BranchLost, LeftDomain, NoConvergence, OutOfRange
from axisphere.pattern import make_pattern

# the solver's stopping state: max|r|, then the smallest gap and the pair that holds it
STOPPED = r"max\|r\| = \d\.\d{3}e[+-]\d\d, min_gap = \d\.\d{3}e[+-]\d\d between z_\d+ and (?:z_\d+|the \w+ pole)"

# a converged point with a gap below COLLAPSE_GAP, up to the pair that holds it
COLLAPSED = (rf"^converged with a gap below {COLLAPSE_GAP:g} at iteration \d+: "
             r"max\|r\| = \d\.\d{3}e-\d\d, min_gap = \d\.\d{3}e-\d\d ")

# gamma where the evenly spaced 3- and 4-interface placements are critical
G3 = 1.0 / (2.0 * math.sqrt(3.0) * math.log(4.0 / 3.0))
G4 = 15.607189587574723


def test_double_cap_residuals_vanish_for_all_gamma():
    p = make_pattern([-0.5, 0.5])
    assert _row_parts(p) == ([0.0], [0.0])  # both parts vanish exactly, so every coupling is critical
    for g in np.geomspace(1e-3, 1e3, 50):
        r = residuals(p, float(g))
        assert float(np.max(np.abs(r))) <= 1e-12


def test_residual_layout_and_mass_row():
    p = make_pattern([-0.6, -0.1, 0.4])
    r = residuals(p, 1.0, m_target=p.m)
    assert len(r) == p.n
    assert r[-1] == 0.0  # mass row measured against its own mean
    r2 = residuals(p, 1.0, m_target=p.m + 0.25)
    assert r2[-1] == pytest.approx(-0.25, abs=1e-15)


def test_lambda_spread_small_at_critical_point():
    cp = solve_critical(3, 2.0, initial_guess(3))
    assert lambda_spread(cp.pattern, 2.0) <= 1e-9
    vals = lambda_values(cp.pattern, 2.0)
    assert len(vals) == 3
    assert max(vals) - min(vals) <= 1e-9


def test_solver_reaches_frozen_three_interface_point():
    cp = solve_critical(3, 2.0, initial_guess(3))
    assert cp.residual_norm <= 1e-11
    assert cp.pattern.z[2] == pytest.approx(0.5906319456623301, abs=1e-10)
    assert cp.pattern.z[1] == pytest.approx(0.0, abs=1e-12)
    # the solved point sits exactly on the explicit branch curve
    assert gamma_of_z1_3(cp.pattern.z[2]) == pytest.approx(2.0, abs=1e-8)


def test_solver_trace_is_reported():
    cp = solve_critical(2, 5.0, make_pattern([-0.42, 0.55]))
    assert cp.trace.iterations >= 1
    assert cp.trace.init_label == "caller"
    # an init that is already critical converges in zero iterations
    assert solve_critical(2, 5.0, initial_guess(2)).trace.iterations == 0


def test_continuation_monotone_branch():
    seed = initial_guess(3)
    pts = continue_gamma(3, 1.05, 10.0, 12, seed)
    assert len(pts) == 12
    outer = [cp.pattern.z[2] for cp in pts]
    assert all(b > a for a, b in zip(outer, outer[1:]))  # circles spread outward
    for cp in pts:
        assert cp.residual_norm <= 1e-11
        assert cp.pattern.min_gap() >= 1e-4


def test_continuation_losing_the_branch():
    with pytest.raises(BranchLost):
        continue_gamma(3, 1.05, 1e9, 4, initial_guess(3))


def test_continuation_without_a_start():
    """A seed the corrector cannot solve at gamma_start has no branch to halve back to."""
    with pytest.raises(BranchLost, match=r"^no solution at branch start gamma=20\.0, before any converged gamma: "
                                         r"damping cannot restore interface ordering at iteration \d+: " +
                                         STOPPED + "$") as info:
        continue_gamma(12, 20.0, 30.0, 3, initial_guess(12))
    assert isinstance(info.value.__cause__, LeftDomain)


def _schedule(gamma_start, gamma_end, steps):
    """continue_gamma's own gamma schedule: one interface at z = 0 is critical at every gamma in zero iterations."""
    return [cp.gamma for cp in continue_gamma(1, gamma_start, gamma_end, steps, initial_guess(1))]


def test_gamma_schedule_is_geomspace():
    """Ends exact, strictly monotone and within 1e-13 relative of np.geomspace: ascending, descending, two steps,
    and equal ends, where every value is the endpoint to that tolerance."""
    rng = np.random.default_rng(31)
    cases = [(1.05, 20.0, 16), (20.0, 2.0, 6), (1e-3, 1e6, 2), (7.5, 7.5, 5)]
    cases += [(*(10.0 ** rng.uniform(-3.0, 6.0, 2)).tolist(), int(rng.integers(2, 60))) for _ in range(200)]
    for a, b, steps in cases:
        gammas = _schedule(a, b, steps)
        assert len(gammas) == steps and gammas[0] == a and gammas[-1] == b
        assert np.allclose(gammas, np.geomspace(a, b, steps), rtol=1e-13, atol=0.0), (a, b, steps)
        if a != b:
            sign = 1.0 if b > a else -1.0
            assert all(sign * (y - x) > 0.0 for x, y in zip(gammas, gammas[1:])), (a, b, steps)


def test_lost_branch_names_where_it_ended():
    """The message names both gammas and the solver's stopping state, which the CLI prints on exit 2."""
    seed = solve_critical(8, 20.0, initial_guess(8)).pattern
    with pytest.raises(BranchLost) as info:
        continue_gamma(8, 20.0, 2.0, 6, seed)
    gammas = _schedule(20.0, 2.0, 6)
    assert str(info.value) == (
        f"corrector failed twice stepping from converged gamma={gammas[2]!r} to gamma={gammas[3]!r}, "
        f"the second time at gamma={math.sqrt(gammas[2] * gammas[3])!r}: {info.value.__cause__}"
    )
    assert isinstance(info.value.__cause__, LeftDomain)
    assert re.fullmatch(r"damping cannot restore interface ordering at iteration \d+: " +
                        STOPPED, str(info.value.__cause__))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: continue_gamma(3, -1.0, 2.0, 3, initial_guess(3)), OutOfRange, "positive gamma",
                     id="negative-gamma"),
        pytest.param(lambda: continue_gamma(3, math.nan, 2.0, 3, initial_guess(3)), OutOfRange,
                     r"^continuation expects finite positive gamma endpoints$", id="nan-gamma"),
        pytest.param(lambda: continue_gamma(3, 1.05, math.inf, 3, initial_guess(3)), OutOfRange,
                     r"^continuation expects finite positive gamma endpoints$", id="infinite-gamma"),
        pytest.param(lambda: uniform_pattern(0), OutOfRange, "must be positive", id="no-interfaces"),
        pytest.param(lambda: solve_critical(3, 2.0, initial_guess(3), SolveOptions(max_iter=1)), NoConvergence,
                     r"^iteration budget spent at iteration 1: max\|r\| = 1\.965e-01, min_gap = 3\.852e-01 "
                     r"between z_1 and the south pole$",
                     id="one-iteration"),
        # damped Newton from the evenly spaced n=12 guess at gamma=20 cannot keep the heights ordered
        pytest.param(lambda: solve_critical(12, 20.0, initial_guess(12)), LeftDomain,
                     r"^damping cannot restore interface ordering at iteration \d+: " + STOPPED + "$",
                     id="n12-gamma20"),
        # Newton converges here onto merged pairs (gaps ~1e-13): below COLLAPSE_GAP no critical point is returned
        pytest.param(lambda: solve_critical(7, 0.7539116669654444, initial_guess(7)), LeftDomain,
                     COLLAPSED + "between z_4 and z_5$", id="n7-collapsed"),
        pytest.param(lambda: solve_critical(29, 213.64408240975922, initial_guess(29)), LeftDomain,
                     COLLAPSED + "between z_13 and z_14$", id="n29-collapsed"),
        pytest.param(lambda: solve_critical(2, 2.0, initial_guess(3)), OutOfRange,
                     r"^initial pattern has 3 interfaces, expected 2$", id="n-contradicts-init"),
        pytest.param(lambda: continue_gamma(3, 1.05, 2.0, 1, initial_guess(3)), OutOfRange,
                     r"^continuation needs at least two steps$", id="one-step"),
        pytest.param(lambda: gamma_of_z1_4(denominator_root_4()), Asymptote,
                     r"^four-interface denominator vanishes at z1=0\.7855", id="four-interface-asymptote"),
        pytest.param(lambda: _bisect_root(lambda t: t - 2.0, 0.5, 1.0), OutOfRange,
                     r"^no sign change on \[0\.5, 1\.0\]$", id="no-sign-change"),
    ],
)
def test_solver_and_input_errors(call, error, message):
    """Solver failures name the iteration, the max-norm of the residual vector and the smallest gap."""
    with pytest.raises(error, match=message):
        call()


def test_bisection_returns_an_exact_zero_endpoint():
    assert _bisect_root(lambda t: t - 0.5, 0.5, 1.0) == 0.5
    assert _bisect_root(lambda t: t - 1.0, 0.5, 1.0) == 1.0


def test_denominator_roots_are_bisected_to_the_last_float():
    """Each bracket changes sign, or vanishes, between the root and one of its neighbouring floats."""
    for den, root in ((_den_3, denominator_root_3()), (_den_4, denominator_root_4())):
        at = den(root)
        assert any(at * den(math.nextafter(root, side)) <= 0.0 for side in (0.0, 1.0)), root


def test_three_interface_curve_anchors():
    assert gamma_of_z1_3(0.5) == pytest.approx(G3, rel=1e-13)
    assert gamma_of_z1_3(1e-5) == pytest.approx(0.25000375006041753, rel=1e-12)
    for z1 in (1e-13, 1e-300):  # numerator and bracket both vanish like z1: the limit 1/4, not an asymptote
        assert abs(gamma_of_z1_3(z1) - 0.25) <= 1e-12, z1
    root = denominator_root_3()
    assert root == pytest.approx(0.6909077386953869, abs=1e-9)
    # blows up on both sides of the vanishing denominator
    assert abs(gamma_of_z1_3(root + 1e-7)) > 1e5
    assert abs(gamma_of_z1_3(root - 1e-7)) > 1e5
    with pytest.raises(Asymptote):
        gamma_of_z1_3(denominator_root_3())
    with pytest.raises(OutOfRange):
        gamma_of_z1_3(-0.1)
    with pytest.raises(OutOfRange):
        gamma_of_z1_3(1.0)


def test_four_interface_curve_anchors():
    # closed form at z1 = 3/4, derived by direct substitution
    ref = (3.0 / math.sqrt(7.0) + 1.0 / math.sqrt(15.0)) / (3.0 * math.log(5.0 / 7.0) + math.log(3.0))
    assert gamma_of_z1_4(0.75) == pytest.approx(ref, rel=1e-13)
    assert gamma_of_z1_4(0.75) == pytest.approx(G4, rel=1e-13)
    assert gamma_of_z1_4(0.5 + 1e-10) == pytest.approx(G3, abs=1e-8)
    root = denominator_root_4()
    assert root == pytest.approx(0.7855385915644, abs=1e-9)
    assert abs(root - 0.78554) <= 1e-4
    with pytest.raises(OutOfRange):
        gamma_of_z1_4(0.5)


def test_uniform_placements():
    assert uniform_pattern(3).z == (-0.5, 0.0, 0.5)
    assert uniform_pattern(4).z == (-0.75, -0.25, 0.25, 0.75)
    assert uniform_pattern(5).z == pytest.approx((-2 / 3, -1 / 3, 0.0, 1 / 3, 2 / 3), abs=1e-15)
    for c in range(1, 9):
        assert abs(uniform_pattern(c).m) <= 1e-15


def test_initial_guess_kinds():
    u = initial_guess(4, "uniform")
    s = initial_guess(4, "stretch")
    assert u.z == uniform_pattern(4).z
    assert s.z[0] == pytest.approx(u.z[0], abs=1e-15) and s.z[-1] == pytest.approx(u.z[-1], abs=1e-15)
    assert s.z[1] < u.z[1]  # interior circles crowd toward the equator
    assert initial_guess(1, "stretch").z == initial_guess(1, "uniform").z == (0.0,)  # nothing to respace
    with pytest.raises(OutOfRange):
        initial_guess(3, "nope")


def test_uniform_check_small_counts():
    for c in (1, 2):
        chk = uniform_criticality_check(c)
        assert chk.all_gamma and chk.critical_gamma is None
    chk3 = uniform_criticality_check(3)
    assert not chk3.all_gamma
    assert chk3.critical_gamma == pytest.approx(G3, rel=1e-12)
    chk4 = uniform_criticality_check(4)
    assert chk4.critical_gamma == pytest.approx(G4, rel=1e-12)
    # central pair of the 4-placement is constraint-free
    assert chk4.pair_gammas[1] is None


def _knot_floor(count: int) -> float:
    """min over gamma >= 0 of max_k |a_k + gamma b_k|, taken at every knot: 0, each zero of a row, each crossing of +-rows."""
    a, b = map(np.array, _row_parts(uniform_pattern(count)))
    knots = [np.zeros(1)]
    for sign in (1.0, -1.0):  # row i meets sign * row j where (a_i - sign a_j) + gamma (b_i - sign b_j) = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            g = -(a[:, None] - sign * a[None, :]) / (b[:, None] - sign * b[None, :])
        knots.append(g[np.isfinite(g) & (g >= 0.0)])
    knots = np.concatenate(knots)
    return float(np.min(np.max(np.abs(a[None, :] + knots[:, None] * b[None, :]), axis=1)))


def test_uniform_check_rigidity():
    """Five or more evenly spaced circles are never critical, and the floor is the exact minimum over gamma >= 0."""
    floors = {5: 0.7181820522461095, 6: 0.330672710524806}
    for count, floor in floors.items():
        chk = uniform_criticality_check(count)
        assert chk.critical_gamma is None
        assert chk.residual_floor is not None and chk.residual_floor >= 1e-3
        assert chk.residual_floor == pytest.approx(floor, rel=1e-12)
    assert "sign" in uniform_criticality_check(5).obstruction
    assert "different couplings" in uniform_criticality_check(6).obstruction
    # never above a 60-point log-spaced residual sweep on [1e-3, gamma_max]
    for count, gamma_max in ((5, 1e4), (6, 1e4), (9, 50.0), (12, 1e6), (200, 1e4)):
        p = uniform_pattern(count)
        sweep = [float(np.max(np.abs(residuals(p, float(g))[:-1]))) for g in np.geomspace(1e-3, gamma_max, 60)]
        assert uniform_criticality_check(count).residual_floor <= min(sweep), count
    for count in range(5, 65):
        assert uniform_criticality_check(count).residual_floor == pytest.approx(_knot_floor(count), rel=1e-12), count


def test_residual_rows_are_affine_in_gamma():
    """residuals(p, gamma) is a + gamma b of ``_row_parts`` bit for bit, plus the mass row: the uniform floor rests on it."""
    rng = np.random.default_rng(25)
    means = []
    for n in range(1, 41):
        p = make_pattern(sorted(rng.uniform(-0.98, 0.98, n)))
        means.append(abs(p.m))
        a, b = map(np.array, _row_parts(p))
        for g in np.geomspace(1e-3, 1e6, 12):
            r = residuals(p, float(g))
            assert np.array_equal(r[:-1], a + g * b) and r[-1] == p.m, (n, g)
    assert max(means) > 0.1


def test_uniform_residuals_confirm_special_gammas():
    assert float(np.max(np.abs(residuals(uniform_pattern(3), G3)))) <= 1e-11
    assert float(np.max(np.abs(residuals(uniform_pattern(4), G4)))) <= 1e-11


def test_polar_cap_bound_values():
    assert polar_cap_bound(0.0) == -0.5  # a(0) = -1/sqrt(3) exactly
    assert polar_cap_bound(1.0) == pytest.approx(-0.9411527111841357, abs=1e-12)
    gs = np.linspace(0.0, 20.0, 41)
    vals = [polar_cap_bound(float(g)) for g in gs]
    assert all(b < a for a, b in zip(vals, vals[1:]))  # tightens toward -1
    assert vals[-1] > -1.0
    assert polar_cap_bound(math.inf) == -1.0
    for bad in (-0.5, math.nan):
        with pytest.raises(OutOfRange, match="^coupling must be nonnegative$"):
            polar_cap_bound(bad)


def test_catalogued_points_respect_polar_cap_bound():
    for n, g_hi in ((2, 50.0), (3, 20.0)):
        for cp in continue_gamma(n, 0.5 if n == 2 else 1.05, g_hi, 8, initial_guess(n)):
            assert cp.pattern.z[0] >= polar_cap_bound(cp.gamma)


def test_gap_diagnostics_symmetric_point():
    cp = solve_critical(3, 2.0, initial_guess(3))
    assert cp.pattern.z[1] == pytest.approx(0.0, abs=1e-12)
    assert stretched_gap_variance(cp.pattern) <= 1e-20
    assert stretched_gap_variance(make_pattern([-0.5, 0.0, 0.9])) > 0.1
    assert stretched_gap_variance(make_pattern([0.3])) == 0.0


def _fd_mass_column(p, gamma: float, m_target: float) -> np.ndarray:
    """Fourth-order central differences of residuals along z_1, step 1% of its local gap."""
    nodes = p.nodes()
    h = 0.01 * min(nodes[1] - nodes[0], nodes[2] - nodes[1])
    unit = np.arange(p.n) == 0

    def at(t):
        return np.array(residuals(make_pattern(np.array(p.z) + t * h * unit), gamma, m_target))

    return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)


def test_mass_column_matches_central_differences():
    """The solver's z_1 column, in residual signs, is the derivative of the residual rows along z_1."""
    rng = np.random.default_rng(20131114)
    pats = [make_pattern(np.sort(rng.uniform(-0.95, 0.95, n))) for n in (1, 2, 3, 8, 32)]
    pats.append(make_pattern([-0.3, 0.2, 1.0 - 1e-4]))  # cap close to the north pole
    pats.append(make_pattern([-0.4, 0.3, 0.3 + 1e-6, 0.7]))  # nearly merged pair
    pats.append(make_pattern([-1.0 + 1e-4, -0.2, 0.5]))  # z_1 close to the south pole
    for p in pats:
        ref = _fd_mass_column(p, 7.0, m_target=0.15)
        exact = np.array(_frame_hessian(p, -7.0)[3]) * (-1.0) ** np.arange(p.n - 1)
        assert ref[-1] == pytest.approx(-1.0, abs=1e-9)  # the mean falls as z_1 rises
        assert np.all(np.abs(exact - ref[:-1]) <= 1e-6 * np.max(np.abs(ref))), p.z


def test_residuals_are_frame_slopes_at_minus_gamma():
    """residuals(p, gamma)[k] == (-1)^k g_k(p, -gamma) bit for bit: both read ``_row_parts``' two parts.

    3000 draws: n 2-39, sorted heights uniform in (-0.999, 0.999), gamma = exp(U(-3, 9)), no draw skipped.
    """
    rng = np.random.default_rng(0)
    rows = 0
    for _ in range(3000):
        n = int(rng.integers(2, 40))
        p = make_pattern(np.sort(rng.uniform(-0.999, 0.999, n)))
        gamma = math.exp(rng.uniform(-3.0, 9.0))
        r, g = residuals(p, gamma), _critical_frame(p, gamma)[0]
        assert g == [-v if k % 2 else v for k, v in enumerate(r[:-1])], (p.z, gamma)
        rows += len(g)
    assert rows == 58767


@pytest.mark.parametrize("n", [16, 32])
def test_large_gamma_solves_stop_on_the_rows_they_iterate_on(n):
    """At gamma = 10^4.5 the uniform start converges, and residual_norm is max|residuals| bit for bit."""
    cp = solve_critical(n, 10**4.5, initial_guess(n))
    assert cp.residual_norm == max(map(abs, residuals(cp.pattern, cp.gamma))) <= 1e-11


# (n, gamma, start, m_target) -> (iterations, damping events, heights), as the z-space Newton
# iteration with the dense exact Jacobian gave them; the frame iteration matches within 1e-13
PINNED_SOLVES = {
    "n3-gamma2": (
        (3, 2.0, initial_guess(3), 0.0),
        (5, 0, [-0.59063194566233, 6.247111874574989e-17, 0.5906319456623301]),
    ),
    "n4-gamma3": (
        (4, 3.0, initial_guess(4), 0.0),
        (4, 0, [-0.6394107755024611, -0.13941077550246106, 0.13941077550246103, 0.6394107755024611]),
    ),
    "n8-gamma20": (
        (8, 20.0, initial_guess(8), 0.0),
        (5, 0, [-0.8135920776056808, -0.4713924080349737, -0.21565887113777474, -0.05785854070848187,
                0.05785854070848179, 0.21565887113777474, 0.47139240803497373, 0.8135920776056809]),
    ),
    "n16-gamma100": (
        (16, 100.0, initial_guess(16), 0.0),
        (5, 0, [-0.9036216742198432, -0.7025472760926839, -0.5054706051948129, -0.3391851505167814,
                -0.21033652653431112, -0.11740327933738204, -0.05512843236482224, -0.015421532366941944,
                0.015421532366942976, 0.05512843236482346, 0.11740327933738305, 0.21033652653431176,
                0.33918515051678194, 0.5054706051948133, 0.7025472760926841, 0.9036216742198433]),
    ),
    "n5-gamma20-mass": (
        (5, 20.0, initial_guess(5), -0.2),
        (6, 1, [-0.7276031653697516, -0.393136413900824, 0.05262421861165264, 0.36227727806232785,
                0.8441198109196029]),
    ),
    "n4-gamma1.1-stretch": (
        (4, 1.1, initial_guess(4, "stretch"), 0.0),
        (4, 0, [-0.5124462473186038, -0.012446247318603821, 0.012446247318603814, 0.5124462473186038]),
    ),
    "n2-gamma5-explicit": ((2, 5.0, make_pattern([-0.42, 0.55]), 0.0), (3, 0, [-0.5, 0.5])),
}


@pytest.mark.parametrize("case", PINNED_SOLVES.values(), ids=PINNED_SOLVES.keys())
def test_frame_newton_keeps_the_pinned_solves(case):
    (n, gamma, start, m_target), (iterations, damping_events, z) = case
    cp = solve_critical(n, gamma, start, SolveOptions(m_target=m_target))
    assert (cp.trace.iterations, cp.trace.damping_events) == (iterations, damping_events)
    assert np.max(np.abs(np.array(cp.pattern.z) - z)) <= 1e-13
    assert cp.residual_norm == max(map(abs, residuals(cp.pattern, gamma, m_target))) <= 1e-11


def test_solver_options_mass_target():
    opts = SolveOptions(m_target=-0.2)
    cp = solve_critical(2, 1.0, make_pattern([-0.3, 0.55]), opts)
    assert cp.pattern.m == pytest.approx(-0.2, abs=1e-11)
    assert cp.residual_norm <= 1e-11
