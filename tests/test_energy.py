import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from axisphere import cli
from axisphere.criticality import residuals
from axisphere.energy import (
    nonlocal_closed,
    nonlocal_quadrature,
    perimeter,
    total_energy,
    two_interface_grid,
)
from axisphere.errors import NoConvergence, OutOfRange
from axisphere.pattern import make_pattern, reflect
from axisphere.potential import v_at_interfaces, v_diff
from axisphere.quadrature import QuadratureSpec, integrate_adaptive


def random_pattern(rng, n_max=8, m_cap=0.9):
    """Strictly ordered interfaces with whatever mean they induce."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        z = np.sort(rng.uniform(-0.98, 0.98, size=n))
        if n > 1 and float(np.min(np.diff(z))) < 0.02:
            continue
        p = make_pattern(z)
        if abs(p.m) < m_cap:
            return p


def test_quadrature_driver_on_smooth_integrand():
    # sanity for the shared adaptive integrator before it backs any oracle
    got = integrate_adaptive(np.exp, 0.0, 1.0, QuadratureSpec(rel_tol=1e-12))
    assert got == pytest.approx(math.e - 1.0, rel=1e-13)
    assert integrate_adaptive(np.exp, 0.3, 0.3) == 0.0
    assert integrate_adaptive(np.exp, 1.0, 0.0, QuadratureSpec(rel_tol=1e-12)) == -got


@pytest.mark.parametrize(
    "f, spec, message",
    [
        pytest.param(lambda z: np.full_like(z, np.nan), QuadratureSpec(), "non-finite value nan", id="nan"),
        pytest.param(lambda z: np.where(z > 0.9, np.inf, 1.0), QuadratureSpec(), "non-finite value inf",
                     id="inf-near-1"),
        pytest.param(lambda z: 1.0 / np.sqrt(np.abs(z - 0.3)), QuadratureSpec(rel_tol=1e-14, max_depth=3),
                     "at depth 3$", id="depth-limit"),
    ],
)
def test_quadrature_refuses_non_finite_and_unmet(f, spec, message):
    with pytest.raises(NoConvergence, match=message):
        integrate_adaptive(f, 0.0, 1.0, spec)


def test_perimeter_values():
    p = make_pattern([-0.5, 0.5])
    assert perimeter(p) == pytest.approx(2.0 * math.pi * math.sqrt(3.0), rel=1e-15)
    assert perimeter(make_pattern([0.0])) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_double_cap_anchor():
    """Symmetric two-cap total at unit coupling, pinned analytically."""
    br = total_energy(make_pattern([-0.5, 0.5]), 1.0)
    target = 2.0 * math.sqrt(3.0) + (-4.0 + 8.0 * math.log(4.0 / 3.0) + 2.0 * math.log(3.0))
    assert abs(br.total_over_pi - target) <= 1e-12
    assert br.total == pytest.approx(br.perimeter + br.nonlocal_, rel=1e-15)


def test_single_cap_anchor():
    # equatorial single interface: nonlocal part is pi*(8 log 2 - 4) per gamma
    br = total_energy(make_pattern([0.0]), 1.0)
    assert abs(br.total_over_pi - (2.0 + 8.0 * math.log(2.0) - 4.0)) <= 1e-12


def test_closed_form_vs_quadrature():
    rng = np.random.default_rng(1105)
    spec = QuadratureSpec(rel_tol=1e-11)
    worst = 0.0
    for _ in range(40):
        p = random_pattern(rng)
        closed, _ = nonlocal_closed(p, 1.0)
        quad = nonlocal_quadrature(p, 1.0, spec)
        worst = max(worst, abs(closed - quad) / max(1.0, abs(closed)))
    assert worst <= 1e-8, f"worst relative gap {worst:.3e}"
    assert nonlocal_quadrature(p, 0.0) == 0.0


def test_gamma_linearity_and_segments():
    rng = np.random.default_rng(40)
    for _ in range(10):
        p = random_pattern(rng)
        base, segs = nonlocal_closed(p, 1.0)
        scaled, _ = nonlocal_closed(p, 7.25)
        assert scaled == pytest.approx(7.25 * base, rel=1e-14)
        assert math.fsum(segs) == pytest.approx(base, rel=1e-12, abs=1e-12)
        assert len(segs) == p.n + 1


def test_nonlocal_is_nonnegative():
    rng = np.random.default_rng(88)
    for _ in range(25):
        val, segs = nonlocal_closed(random_pattern(rng), 1.0)
        assert val >= 0.0
        assert all(s >= -1e-15 for s in segs)


def test_reflection_invariance():
    rng = np.random.default_rng(5150)
    for _ in range(15):
        p = random_pattern(rng)
        a = total_energy(p, 2.0)
        b = total_energy(reflect(p), 2.0)
        assert abs(a.total - b.total) <= 1e-11 * max(1.0, abs(a.total))


def test_two_interface_grid_shape_and_symmetry():
    grid = two_interface_grid([-0.8, -0.5, -0.2], [0.5, 2.0])
    assert grid.z1 == (-0.8, -0.5, -0.2)
    assert len(grid.energy_over_pi) == 3 and len(grid.energy_over_pi[0]) == 2
    # the family z2 = z1 + 1 is mirror symmetric about z1 = -1/2
    for j in range(2):
        assert grid.energy_over_pi[0][j] == pytest.approx(grid.energy_over_pi[2][j], rel=1e-12)
    with pytest.raises(OutOfRange, match="sweep needs at least one z1 and one gamma"):
        two_interface_grid([], [1.0])
    with pytest.raises(OutOfRange):
        two_interface_grid([0.1], [1.0])


def test_grid_csv_layout(capsys):
    # sweep2 writes the grid: version and config-hash preamble, header, z1-major rows
    assert cli.main(["sweep2", "--z1", "-0.5", "--gamma", "1.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[2] == "z1,gamma,energy_over_pi"
    z1, g, e = (float(t) for t in lines[3].split(","))
    assert (z1, g) == (-0.5, 1.0)
    assert e == pytest.approx(total_energy(make_pattern([-0.5, 0.5]), 1.0).total_over_pi, rel=1e-15)


def _band_errors(z, gamma):
    """Errors of nonlocal_closed, v_diff, v_at_interfaces and residuals against the closed form in 50-digit mpmath.

    The reference rebuilds the mean, the xi nodes, the band coefficients and
    the band logs from the binary heights, with the pole rule.  Returns the
    energy's (relative, absolute / perimeter) error, the largest v_diff error
    relative to the largest difference, the largest v_at_interfaces error
    relative to the largest |v(z_k)| (the reference sums the differences from
    the south pole), and the largest residual error relative to the largest
    sum of term sizes over the rows (the potential differences share one xi
    profile, so their errors scale with the largest).
    """
    import mpmath as mp

    p = make_pattern(z)
    with mp.workdps(50):
        nd = [mp.mpf(-1), *(mp.mpf(v) for v in z), mp.mpf(1)]
        n = len(z)
        m = sum((nd[k] - nd[k - 1]) * (1 if k % 2 == 0 else -1) for k in range(1, n + 2)) / 2
        s = [(1 if j % 2 else -1) - m for j in range(n + 1)]
        xi = [mp.mpf(0)]
        for j in range(n):
            xi.append(xi[-1] + s[j] * (nd[j + 1] - nd[j]))
        nl, dv = mp.mpf(0), []
        for j in range(n + 1):
            c1 = xi[j] + s[j] * (1 - nd[j]) if j < n else 0
            c2 = xi[j] - s[j] * (1 + nd[j]) if j else 0
            l1 = mp.log((1 - nd[j]) / (1 - nd[j + 1])) if j < n else 0
            l2 = mp.log((1 + nd[j + 1]) / (1 + nd[j])) if j else 0
            nl += -s[j] ** 2 * (nd[j + 1] - nd[j]) + c1 * c1 * l1 / 2 + c2 * c2 * l2 / 2
            dv.append(c1 * l1 / 2 + c2 * l2 / 2)
        nl *= 2 * mp.pi * gamma
        kap = [(1 if k % 2 else -1) * nd[k] / mp.sqrt(1 - nd[k] ** 2) for k in range(1, n + 1)]
        rows = [(kap[k] - kap[k - 1] + 4 * gamma * dv[k], abs(kap[k]) + abs(kap[k - 1]) + 4 * gamma * abs(dv[k])) for k in range(1, n)]
        rows.append((m, mp.mpf(1)))
        e_nl = abs(mp.mpf(nonlocal_closed(p, gamma)[0]) - nl)
        e_v = max(abs(mp.mpf(v_diff(p, k)) - dv[k]) for k in range(n + 1)) / max(abs(v) for v in dv)
        pot = [sum(dv[:k], mp.mpf(0)) for k in range(1, n + 1)]
        e_pot = max(abs(mp.mpf(got) - ref) for got, ref in zip(v_at_interfaces(p), pot)) / max(abs(v) for v in pot)
        e_r = max(abs(mp.mpf(float(got)) - ref) for got, (ref, _) in zip(residuals(p, gamma), rows))
        e_r /= max(scale for _, scale in rows)
        return float(e_nl / abs(nl)), float(e_nl) / perimeter(p), float(e_v), float(e_pot), float(e_r)


def test_band_terms_match_mpmath_at_caps_and_merged_pairs():
    """Small caps and a nearly merged pair, where the band logs used to cancel.

    The caps keep about eps/(1 - z) relative error, from the rounded stored
    mean and the pole band's own cancellation.
    """
    for z in ([1.0 - 1e-6], [-1.0 + 1e-6], [0.999999, 0.9999995], [-0.9999995, -0.999999]):
        for gamma in (1.0, 40.0):
            rel, _, e_v, e_pot, e_r = _band_errors(z, gamma)
            assert max(rel, e_v, e_pot, e_r) <= 1e-9, (z, gamma, rel, e_v, e_pot, e_r)
    for z in ([0.3, 0.3 + 1e-9], [-0.7, -0.7 + 1e-9], [-0.5, 0.2, 0.2 + 1e-9]):
        _, per_perimeter, _, _, e_r = _band_errors(z, 1.0)
        assert per_perimeter <= 1e-15 and e_r <= 1e-12, (z, per_perimeter, e_r)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    start=st.floats(-0.99, 0.9),
    gaps=st.lists(st.floats(0.01, 0.6), max_size=7),
    gamma=st.floats(0.01, 1000.0),
)
def test_band_terms_match_mpmath_on_drawn_patterns(start, gaps, gamma):
    """Heights within 0.99 of the equator, gaps of at least 0.01, mean at most 0.95 in size."""
    z = [start]
    for g in gaps:
        z.append(z[-1] + g)
    assume(z[-1] <= 0.99 and abs(make_pattern(z).m) <= 0.95)
    rel, _, e_v, e_pot, e_r = _band_errors(z, gamma)
    assert max(rel, e_v, e_pot, e_r) <= 1e-12, (rel, e_v, e_pot, e_r)
