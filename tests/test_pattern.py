import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axisphere.errors import NonIncreasing, OutOfRange
from axisphere.pattern import (
    AxisymPattern,
    _linspace,
    kappa_g,
    make_pattern,
    is_symmetric,
    mass_of_interfaces,
    reflect,
    xi_eval,
    xi_profile,
)


def test_mass_examples():
    assert make_pattern([-0.9, -0.5, 0.5, 0.9]).m == pytest.approx(-0.2, abs=1e-15)
    assert make_pattern([0.3]).m == pytest.approx(-0.3, abs=1e-15)
    assert make_pattern([-0.5, 0.5]).m == 0.0


def test_mass_matches_band_sum():
    # mean value = (1/2) * sum over bands of sign * width, sign starting at -1
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        z = np.sort(rng.uniform(-0.99, 0.99, size=n))
        if n > 1 and float(np.min(np.diff(z))) < 1e-3:
            continue
        nodes = [-1.0, *z, 1.0]
        acc = 0.0
        for j in range(len(nodes) - 1):
            acc += (-1.0) ** (j + 1) * (nodes[j + 1] - nodes[j])
        assert abs(mass_of_interfaces(z) - 0.5 * acc) <= 1e-14


def test_make_pattern_rejections():
    bad = [
        ((0.5, -0.5), NonIncreasing),
        ((-0.2, -0.2, 0.4), NonIncreasing),
        ((), OutOfRange),
        ((-1.0, 0.2), OutOfRange),
        ((-0.2, 1.0), OutOfRange),
    ]
    for z, err in bad:
        # the constructor enforces the same invariant as make_pattern
        with pytest.raises(err):
            make_pattern(z)
        with pytest.raises(err):
            AxisymPattern(z=z, m=0.0)
    with pytest.raises(OutOfRange, match=r"^mean 0\.0 differs from expected 0\.3$"):
        make_pattern([-0.5, 0.5], expect_mass=0.3)
    with pytest.raises(OutOfRange, match=r"interface height 1\.5 outside"):
        make_pattern([-0.5, 1.5], expect_mass=0.3)  # heights are checked before the mass


def test_xi_profile_closure_and_slopes():
    """xi is pinned to exactly 0.0 at both poles and its slopes alternate."""
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        z = np.sort(rng.uniform(-0.95, 0.95, size=n))
        if n > 1 and float(np.min(np.diff(z))) < 1e-2:
            continue
        p = make_pattern(z)
        prof = xi_profile(p)
        assert prof.nodes[0] == 0.0 and prof.nodes[-1] == 0.0
        for j, s in enumerate(prof.slopes):
            assert s == (-1.0) ** (j + 1) - p.m


def test_xi_eval_is_piecewise_linear():
    p = make_pattern([-0.6, -0.1, 0.4])
    prof = xi_profile(p)
    nodes = p.nodes()
    # interior points reproduce the straight chord through the band nodes
    zz = _linspace(-1.0, 1.0, 257)
    chord = np.interp(zz, nodes, prof.nodes)
    got = [xi_eval(p, z) for z in zz]
    assert all(type(v) is float for v in got)
    assert float(np.max(np.abs(np.array(got) - chord))) <= 1e-15
    # a sequence of heights gives the same values, bit for bit, as a list of floats
    for seq in (zz, tuple(zz), np.array(zz)):
        listed = xi_eval(p, seq)
        assert type(listed) is list and all(type(v) is float for v in listed)
        assert struct.pack("257d", *listed) == struct.pack("257d", *got)
    assert xi_eval(p, [-1.0, 1.0]) == [0.0, 0.0] and xi_eval(p, []) == []
    for bad in (1.5, math.nan, -1.0 - 2.0**-52, [0.0, 1.5], [0.0, math.nan]):
        with pytest.raises(OutOfRange, match=r"^height .* outside \[-1, 1\]$"):
            xi_eval(p, bad)


def _xi_eval_array(p, heights) -> list[float]:
    """xi by numpy's band lookup: node value plus slope times the offset, and exact zeros at the poles."""
    zz = np.asarray(heights, dtype=float)
    prof = xi_profile(p)
    nodes_z = np.asarray(p.nodes())
    j = np.minimum(np.searchsorted(nodes_z, zz, side="right") - 1, p.n)
    xi = np.asarray(prof.nodes)[j] + np.asarray(prof.slopes)[j] * (zz - nodes_z[j])
    return np.where(np.abs(zz) == 1.0, 0.0, xi).tolist()


OPEN_HEIGHTS = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(OPEN_HEIGHTS, min_size=1, max_size=8, unique=True), st.lists(st.floats(-1.0, 1.0), max_size=16))
def test_xi_eval_is_the_array_formula(zs, extra):
    """Bit for bit numpy's band lookup at the poles, on each band node and beside it, and at random heights."""
    p = make_pattern(sorted(zs))
    beside = [math.nextafter(z, side) for z in p.z for side in (-1.0, 1.0)]
    heights = [-1.0, 1.0, *p.z, *beside, *extra]
    got = xi_eval(p, heights)
    count = len(heights)
    assert struct.pack(f"{count}d", *got) == struct.pack(f"{count}d", *_xi_eval_array(p, heights))
    assert struct.pack(f"{count}d", *got) == struct.pack(f"{count}d", *(xi_eval(p, h) for h in heights))


def test_kappa_sign_convention():
    p = make_pattern([-0.5, 0.5])
    r = 0.5 / math.sqrt(0.75)
    assert kappa_g(p, 1) == pytest.approx(-r, rel=1e-15)
    assert kappa_g(p, 2) == pytest.approx(-r, rel=1e-15)
    # equatorial circle is a geodesic regardless of orientation
    assert kappa_g(make_pattern([0.0]), 1) == 0.0
    for k in (0, 3):
        with pytest.raises(OutOfRange, match=rf"^interface index {k} outside 1\.\.2$"):
            kappa_g(p, k)


def test_reflect_involution():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        z = np.sort(rng.uniform(-0.9, 0.9, size=n))
        if n > 1 and float(np.min(np.diff(z))) < 1e-2:
            continue
        p = make_pattern(z)
        back = reflect(reflect(p))
        assert back.z == p.z and back.m == p.m
        # south pole is pinned to the -1 phase, so mirroring renormalizes
        # odd counts (mean flips) and leaves even counts alone
        assert reflect(p).m == pytest.approx(-p.m if n % 2 == 1 else p.m, abs=1e-15)


def test_is_symmetric():
    assert is_symmetric(make_pattern([-0.5, 0.0, 0.5]))
    assert is_symmetric(make_pattern([-0.3 - 1e-10, 0.3]))
    assert not is_symmetric(make_pattern([-0.3 - 1e-8, 0.3]))
    assert not is_symmetric(make_pattern([-0.5, 0.1, 0.5]))


def test_pattern_is_frozen():
    """Built from a list or a tuple, a pattern is compared, hashed, shown and pickled by value, and cannot change."""
    p, q = AxisymPattern(z=[-0.5, 0.5], m=0.0), make_pattern((-0.5, 0.5))
    assert p.z == (-0.5, 0.5) and p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != make_pattern([-0.5, 0.6]) and p != AxisymPattern(z=(-0.5, 0.5), m=1e-17) and p != (-0.5, 0.5)
    assert repr(p) == "AxisymPattern(z=(-0.5, 0.5), m=0.0)"
    assert repr(xi_profile(p)) == "XiProfile(nodes=(0.0, -0.5, 0.5, 0.0), slopes=(-1.0, 1.0, -1.0))"
    for v in (p, xi_profile(p)):
        w = pickle.loads(pickle.dumps(v))
        assert type(w) is type(v) and w == v and hash(w) == hash(v) and w is not v
    for name in ("z", "m", "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
            setattr(p, name, (0.1,))
        with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}$"):
            delattr(p, name)
    with pytest.raises(AttributeError):
        p.z.append(0.9)  # type: ignore[attr-defined]
    assert p == q and p.n == 2


def test_stored_mass_is_honored():
    # narrow central band: mostly -1 phase, mean well below zero
    p = AxisymPattern(z=(-0.25, 0.25), m=mass_of_interfaces((-0.25, 0.25)))
    assert p.m == -0.5


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(FINITE_FLOATS, FINITE_FLOATS, st.integers(1, 200), st.booleans())
@example(0.0, 5e-324, 3, False)  # the step underflows to zero
@example(-1e308, 1e308, 3, False)  # the width overflows
@example(0.0, -0.0, 3, False)
def test_linspace_is_numpys(start, end, count, equal_ends):
    """``_linspace`` returns np.linspace's values bit for bit, reversed and equal ends included."""
    end = start if equal_ends else end
    with np.errstate(all="ignore"):
        want = np.linspace(start, end, count).tolist()
    got = _linspace(start, end, count)
    assert struct.pack(f"{count}d", *got) == struct.pack(f"{count}d", *want), (got, want)
