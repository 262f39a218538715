"""Screened potential at the interfaces: closed form against direct integration."""

import numpy as np
import pytest

from axisphere.errors import OutOfRange
from axisphere.pattern import make_pattern, xi_eval, xi_profile
from axisphere.potential import grad_v_normal, v_at_interfaces, v_diff
from axisphere.quadrature import QuadratureSpec, integrate_adaptive
from axisphere.verify import random_tent_pattern


def _xi_vec(p):
    nz = np.asarray(p.nodes())
    nx = np.asarray(xi_profile(p).nodes)
    return lambda z: np.interp(z, nz, nx)


def test_v_diff_matches_quadrature():
    rng = np.random.default_rng(907)
    spec = QuadratureSpec(rel_tol=1e-11)
    worst = 0.0
    for _ in range(12):
        p = random_tent_pattern(int(rng.integers(2, 7)), rng)
        xi = _xi_vec(p)
        for k in range(1, p.n):
            direct = integrate_adaptive(
                lambda z: xi(z) / (1.0 - z * z), p.z[k - 1], p.z[k], spec, abs_tol=1e-13
            )
            worst = max(worst, abs(direct - v_diff(p, k)))
    assert worst <= 1e-9, f"worst gap {worst:.3e}"


def test_pole_bands_are_finite():
    # the 0*inf products at the poles must be dropped analytically
    p = make_pattern([-0.7, -0.1, 0.2, 0.8])
    for k in (0, p.n):
        val = v_diff(p, k)
        assert np.isfinite(val)


def test_band_index_bounds():
    p = make_pattern([-0.3, 0.4])
    with pytest.raises(OutOfRange, match=r"^band index 3 outside 0\.\.2$"):
        v_diff(p, 3)
    with pytest.raises(OutOfRange, match=r"^band index -1 outside 0\.\.2$"):
        v_diff(p, -1)


def test_accumulated_values_match_diffs():
    p = make_pattern([-0.6, -0.2, 0.3, 0.7])
    at = v_at_interfaces(p)
    assert len(at) == p.n
    for k in range(1, p.n):
        assert at[k] - at[k - 1] == pytest.approx(v_diff(p, k), abs=1e-13)


def test_double_cap_potential_is_symmetric():
    p = make_pattern([-0.5, 0.5])
    assert abs(v_diff(p, 1)) <= 1e-15


def test_gradient_normal_form():
    """Normal derivative jump is xi at the circle over its radius, signed."""
    rng = np.random.default_rng(33)
    for _ in range(10):
        p = random_tent_pattern(int(rng.integers(1, 6)), rng)
        got = grad_v_normal(p)
        assert len(got) == p.n
        for k in range(1, p.n + 1):
            zk = p.z[k - 1]
            expect = (-1.0) ** (k + 1) * xi_eval(p, zk) / np.sqrt(1.0 - zk * zk)
            assert got[k - 1] == pytest.approx(expect, rel=1e-13, abs=1e-15)
