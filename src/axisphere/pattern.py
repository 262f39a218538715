"""Axisymmetric two-phase patterns on the unit sphere.

A pattern is a unit-sphere function taking values +-1 that depends only on
the height z = cos(polar angle).  It is stored as the strictly increasing
tuple of interface heights z_1 < ... < z_n in (-1, 1); the sign convention
is fixed: the value is -1 on the first (southern) band, so the band
[z_k, z_{k+1}) carries the sign (-1)^(k+1) with sentinels z_0 = -1 and
z_{n+1} = +1.

The antiderivative profile xi (the running integral of the pattern minus
its mean) is the workhorse for both the long-range energy and the surface
potential: it is piecewise linear, vanishes at both poles, and has slope
(-1)^(k+1) - m on the k-th band.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Sequence

from .errors import NonIncreasing, OutOfRange

__all__ = [
    "AxisymPattern",
    "XiProfile",
    "make_pattern",
    "mass_of_interfaces",
    "kappa_g",
    "xi_profile",
    "xi_eval",
    "reflect",
    "is_symmetric",
]


_set = object.__setattr__


class _Frozen:
    """Slotted value type: ``__init__`` sets the fields once; compared, hashed, shown and pickled by value."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return self.__reduce__() == other.__reduce__() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.__slots__)})"


class AxisymPattern(_Frozen):
    """Interface heights plus the mean value they induce.

    Construction enforces the invariant: ``z`` is non-empty, lies inside
    (-1, 1) and is strictly increasing, or OutOfRange / NonIncreasing is
    raised.  Equal neighbours are a boundary state handled by the minimizer
    module, not a valid pattern.  ``m`` is the mean of the pattern over the
    sphere, determined by ``z`` (stored to let moves carry it bit-exactly).
    """

    __slots__ = ("z", "m")  # z: tuple[float, ...], m: float

    def __init__(self, z: Sequence[float], m: float):
        z = tuple(z)
        if not z:
            raise OutOfRange("need at least one interface")
        for v in z:
            if not -1.0 < v < 1.0:
                raise OutOfRange(f"interface height {v!r} outside (-1, 1)")
        for a, b in zip(z, z[1:]):
            if not a < b:
                raise NonIncreasing(f"heights not strictly increasing near {a!r}")
        _set(self, "z", z)
        _set(self, "m", m)

    @property
    def n(self) -> int:
        return len(self.z)

    def nodes(self) -> tuple[float, ...]:
        """Interface heights with the pole sentinels attached."""
        return (-1.0, *self.z, 1.0)

    def min_gap(self) -> float:
        """Smallest spacing among interfaces and to the poles."""
        nodes = self.nodes()
        return min(b - a for a, b in zip(nodes, nodes[1:]))


def _min_gap_text(p: AxisymPattern) -> str:
    """``min_gap = ...`` and the pair that holds it, for failure messages: the first of equal gaps."""
    nodes = p.nodes()
    gaps = [b - a for a, b in zip(nodes, nodes[1:])]
    i = gaps.index(min(gaps))
    where = f"z_{i} and z_{i + 1}" if 0 < i < p.n else "z_1 and the south pole" if i == 0 else f"z_{i} and the north pole"
    return f"min_gap = {gaps[i]:.3e} between {where}"


class XiProfile(_Frozen):
    """Piecewise-linear antiderivative of (pattern - mean).

    ``nodes[k]`` is xi(z_k) for k = 0..n+1 with the pole values pinned to
    exactly 0.0; ``slopes[j]`` is the slope on band j.
    """

    __slots__ = ("nodes", "slopes")  # both tuple[float, ...]

    def __init__(self, nodes: tuple[float, ...], slopes: tuple[float, ...]):
        _set(self, "nodes", nodes)
        _set(self, "slopes", slopes)


def mass_of_interfaces(zs: Sequence[float]) -> float:
    """Mean value (1/2) sum_k (-1)^k (z_k - z_{k-1}) over the full sphere.

    Single interface at z_1 gives -z_1: the pattern is -1 below z_1, so a
    high interface leaves mostly negative phase.
    """
    nodes = (-1.0, *zs, 1.0)
    total = 0.0
    for k in range(1, len(nodes)):
        diff = nodes[k] - nodes[k - 1]
        total += -diff if k % 2 == 1 else diff
    return 0.5 * total


def _floats(count: int) -> list[float]:
    """count zeros in one allocation, so a size too large for memory fails at once, as numpy's array request does."""
    try:
        return [0.0] * count
    except (MemoryError, OverflowError):
        raise MemoryError(f"Unable to allocate {count} floats") from None


def _linspace(start: float, end: float, count: int) -> list[float]:
    """np.linspace(start, end, count) as floats, bit for bit: i * step + start, and the last value end exactly."""
    values = _floats(count)
    delta, div = end - start, count - 1
    step = delta / div if div else 0.0
    if step:
        for i in range(count):
            values[i] = i * step + start
    else:  # numpy's rule for one value, or a step that underflows to zero: divide first, then scale
        for i in range(count):
            values[i] = (i / div if div else i) * delta + start
    if div:
        values[-1] = end
    return values


def make_pattern(zs: Iterable[float], expect_mass: float | None = None) -> AxisymPattern:
    """Build a pattern from interface heights, computing its mean.

    The heights are validated by the ``AxisymPattern`` constructor before
    ``expect_mass`` cross-checks the induced mean to 1e-12.
    """
    z = tuple(float(v) for v in zs)
    p = AxisymPattern(z=z, m=mass_of_interfaces(z))
    if expect_mass is not None and abs(p.m - expect_mass) > 1e-12:
        raise OutOfRange(f"mean {p.m!r} differs from expected {expect_mass!r}")
    return p


def kappa_g(p: AxisymPattern, k: int) -> float:
    """Signed geodesic curvature of the k-th interface circle (1-based).

    The sign follows the phase just above the interface: the curvature is
    u(z_k+) * z_k / sqrt(1 - z_k^2), so a double cap {-1/2, 1/2} carries
    -1/sqrt(3) at both circles.
    """
    if not 1 <= k <= p.n:
        raise OutOfRange(f"interface index {k} outside 1..{p.n}")
    zk = p.z[k - 1]
    sign = 1.0 if k % 2 == 1 else -1.0  # u just above z_k is (-1)^(k+1)
    return sign * zk / math.sqrt(1.0 - zk * zk)


def xi_profile(p: AxisymPattern) -> XiProfile:
    """Node values and slopes of xi; both pole values are exactly zero.

    Band j = 0..n, [z_j, z_{j+1}), carries the sign -1 for even j and +1
    for odd j (the southern band is -1), so its slope is that sign minus m.
    The recursion closes at the north pole up to rounding (the slopes sum
    against the band widths to twice the mean minus itself); the stored
    endpoint is pinned to 0.0 so ``_band_terms`` can drop the divergent pole
    logarithms analytically.
    """
    nodes_z = p.nodes()
    slopes = tuple((1 if j % 2 else -1) - p.m for j in range(p.n + 1))
    nodes = [0.0]
    for j in range(p.n):
        nodes.append(nodes[-1] + slopes[j] * (nodes_z[j + 1] - nodes_z[j]))
    nodes.append(0.0)
    return XiProfile(nodes=tuple(nodes), slopes=slopes)


def _band_terms(p: AxisymPattern, prof: XiProfile, j: int) -> tuple[float, float, float, float]:
    """Band j's coefficients and logs (c1, c2, L1, L2), j = 0..n, from a built profile.

    c1 = xi(z_j) + s_j (1 - z_j) and c2 = xi(z_j) - s_j (1 + z_j) are band j's
    xi line at z = 1 and z = -1; L1 = log((1 - z_j)/(1 - z_{j+1})) and
    L2 = log((1 + z_{j+1})/(1 + z_j)), written with log1p of the band width.
    The pole rule lives here alone: xi(+-1) = 0, so band 0 has c2 = L2 = 0
    and band n has c1 = L1 = 0, the divergent log dropped analytically.
    """
    z = p.z
    north = j == len(z)
    za = z[j - 1] if j else -1.0
    zb = 1.0 if north else z[j]
    s, xa, dz = prof.slopes[j], prof.nodes[j], zb - za
    c1 = c2 = l1 = l2 = 0.0
    if not north:
        c1 = xa + s * (1.0 - za)
        l1 = math.log1p(dz / (1.0 - zb))
    if j:
        c2 = xa - s * (1.0 + za)
        l2 = math.log1p(dz / (1.0 + za))
    return c1, c2, l1, l2


def xi_eval(p: AxisymPattern, z):
    """Evaluate xi at a height z in [-1, 1] (a float gives a float), or at each height of a sequence (a list)."""
    prof = xi_profile(p)
    nodes_z = p.nodes()

    def at(h: float) -> float:
        if not -1.0 <= h <= 1.0:  # NaN fails too
            raise OutOfRange(f"height {h!r} outside [-1, 1]")
        if abs(h) == 1.0:  # the poles, exactly
            return 0.0
        j = bisect_right(nodes_z, h) - 1  # band containing h
        return prof.nodes[j] + prof.slopes[j] * (h - nodes_z[j])

    if isinstance(z, (int, float)):
        return at(float(z))
    return [at(float(h)) for h in z]


def reflect(p: AxisymPattern) -> AxisymPattern:
    """Mirror the pattern through the equator: z_k -> -z_{n+1-k}.

    For an odd interface count the stored mean flips sign (the south-pole
    sign convention forces renormalization); for an even count it is kept.
    Energy is invariant either way.
    """
    return make_pattern(tuple(-v for v in reversed(p.z)))


def is_symmetric(p: AxisymPattern) -> bool:
    """True when the interfaces mirror through the equator to within 1e-9."""
    return all(abs(a + b) <= 1e-9 for a, b in zip(p.z, reversed(p.z)))
