"""Second-variation analysis on a per-circle Fourier basis.

Normal perturbations of the interface circles are expanded per circle as
constant + cos(k th) + sin(k th).  Because the interaction kernel between
two circles depends only on the angle difference, modes with different
wavenumber or parity never couple and the quadratic form splits into
small symmetric blocks, one pair (cos, sin) per wavenumber plus one
constants block carrying the zero-mean constraint.

The kernel between the circles at heights lo <= hi is log|x - y|^2, and
its coefficients over the angle difference u have the sphere's closed form

    integral_0^{2pi} log|x - y|^2 cos(ku) du = -(2pi/k) q^k,        k >= 1
    integral_0^{2pi} log|x - y|^2 du = 2pi [log(1 - lo) + log(1 + hi)]

with q = t_lo / t_hi, t = sqrt((1 + z)/(1 - z)).  _kernel takes q as one
square root of (1 + lo)(1 - hi) / ((1 - lo)(1 + hi)), so the
self-interaction q is exactly 1 and close circles keep 1 - q to full
relative precision.  Every block is -2 gamma (r_i r_j) times the kernel,
plus the diagonal pi (k^2 - 1)/r_i + 4 pi gamma g_i r_i, on one
(K+1, n, n) stack, and the k = 0 slice is doubled in place (the constant
mode has norm 2 pi instead of pi): JMatrix holds that one stack and
nothing derived from it.

The k >= 1 diagonals grow like k^2, so most of those blocks cannot hold
the smallest eigenvalue: a Gershgorin lower bound per block, with a
margin above eigvalsh's backward error, screens out every block that
lies above the constants minimum or above some block's least diagonal
entry plus that margin, and one batched eigvalsh solves the rest.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .criticality import _critical_frame
from .errors import NotCritical, NumericalFailure, OutOfRange
from .pattern import AxisymPattern, _floats, is_symmetric
from .potential import grad_v_normal

__all__ = [
    "JMatrix",
    "StabilityReport",
    "doublecap_kernel_integral",
    "single_mode_J",
    "axisym_pm_bound",
    "assemble_J",
    "min_eig_constrained",
    "stability_report",
]

CRITICAL_TOL = 1e-8
CERT_MODES = 6
EPS = float(np.finfo(float).eps)


def _kernel(lo, hi, K: int) -> np.ndarray:
    """Integrals of log|x - y|^2 cos(ku) over the angle difference u of the circles at heights lo <= hi, k = 0..K on axis 0.

    lo and hi are floats or matching arrays (assemble_J's min and max outer products of the heights).
    """
    ks = np.arange(K + 1).reshape((-1,) + (1,) * np.ndim(lo))
    kernel = np.sqrt((1.0 + lo) * (1.0 - hi) / ((1.0 - lo) * (1.0 + hi))) ** ks
    kernel[1:] *= -2.0 * math.pi / ks[1:]
    kernel[0] = 2.0 * math.pi * (np.log1p(-lo) + np.log1p(hi))
    return kernel


def doublecap_kernel_integral(k: int) -> float:
    """Double integral of log(5 - 3cos(th-al)) cos(k th) cos(k al).

    Integrating the angle difference first leaves a single cos^2 average,
    so the value is pi times ``_kernel``'s coefficient for the circles at
    heights -1/2 and 1/2, whose squared chord is (5 - 3cos)/2; equals
    -2 pi^2 / (k 3^k).  The sin-sin variant gives the same number.
    """
    if k < 1:
        raise OutOfRange("wavenumber must be at least 1")
    return math.pi * float(_kernel(-0.5, 0.5, k)[k])


def single_mode_J(z_n: float, gamma: float, k: int) -> float:
    """Quadratic form per pi of a single cos/sin mode on the top circle.

    Valid for equatorially symmetric zero-mean critical patterns, where
    the slope-accumulation value at the top interface is -(1 - z_n) and
    the self-interaction q equals 1.
    """
    if not 0.0 < z_n < 1.0:
        raise OutOfRange(f"z_n={z_n!r} outside (0, 1)")
    if k < 1:
        raise OutOfRange("wavenumber must be at least 1")
    r2 = 1.0 - z_n * z_n
    return (k * k - 1.0) / math.sqrt(r2) + 4.0 * gamma * (r2 / k + (z_n - 1.0))


def axisym_pm_bound(z_n: float, gamma: float) -> float:
    """Upper bound per pi on the +1/-1 two-circle constant perturbation.

    Negative values certify instability; the bound replaces the cross
    interaction by the worst chord (squared distance at most 4), so the
    exact two-circle form never exceeds it.
    """
    if not 0.0 < z_n < 1.0:
        raise OutOfRange(f"z_n={z_n!r} outside (0, 1)")
    r2 = 1.0 - z_n * z_n
    return (
        -4.0 / math.sqrt(r2)
        + gamma * 32.0 * r2 * (math.log(2.0) - math.log(math.sqrt(r2)))
        + gamma * 16.0 * (z_n - 1.0)
    )


class JMatrix(NamedTuple):
    """Assembled second-variation blocks for one critical pattern.

    ``blocks`` is the (K+1, n, n) stack that assemble_J fills: index 0 is
    the constants block, index k >= 1 the block that the cos and sin modes
    of wavenumber k share.  ``block(k)`` returns a view of one wavenumber.
    """

    pattern: AxisymPattern
    gamma: float
    blocks: np.ndarray

    @property
    def K(self) -> int:
        return len(self.blocks) - 1

    def block(self, k: int) -> np.ndarray:
        if not 0 <= k <= self.K:
            raise OutOfRange(f"wavenumber {k} outside 0..{self.K}")
        return self.blocks[k]


def assemble_J(p: AxisymPattern, gamma: float, K: int) -> JMatrix:
    """Blockwise second variation about a critical pattern, wavenumbers 0..K.

    Diagonal carries the curvature part ((k^2-1)/r_i weighted by the mode
    norm) and the normal derivative of the screened potential; every pair
    of circles couples through ``_kernel``, the sphere's closed form of the
    log kernel.  All K+1 blocks are built in one stack from one
    integer-power call, scaled and shifted in place, and the constants
    block doubled in place; q, the logs and r_i r_j are symmetric as
    formed, so every block is exactly symmetric.
    NotCritical past CRITICAL_TOL on ``_critical_frame``; NumericalFailure
    when any entry of the finished stack overflows.
    """
    if K < 1:
        raise OutOfRange("mode cutoff must be at least 1")
    worst = max(map(abs, _critical_frame(p, gamma)[0]), default=0.0)  # ``residuals`` up to signs
    if worst > CRITICAL_TOL:
        raise NotCritical(f"pattern residual {worst:.3e} exceeds {CRITICAL_TOL}")
    z = np.array(p.z)
    r = np.sqrt(1.0 - z * z)
    g = np.array(grad_v_normal(p))
    rr = r[:, None] * r[None, :]
    lo, hi = np.minimum.outer(z, z), np.maximum.outer(z, z)
    _floats(K + 1)  # a cutoff too large for memory is a MemoryError here; numpy's is a ValueError past 2**60
    ks = np.arange(K + 1)
    blocks = _kernel(lo, hi, K)
    diag = np.arange(p.n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, without a warning
        blocks *= -2.0 * gamma * rr
        blocks[:, diag, diag] += math.pi * (ks * ks - 1.0)[:, None] / r + 4.0 * gamma * g * math.pi * r
        blocks[0] *= 2.0  # the constant mode has norm 2 pi, not pi
    if not np.isfinite(blocks).all():
        raise NumericalFailure(f"second-variation blocks overflow at gamma={gamma!r}")
    return JMatrix(pattern=p, gamma=gamma, blocks=blocks)


class StabilityReport(NamedTuple):
    gamma: float
    K: int
    min_eig: float
    mode_circle: int  # lowest 1-based circle carrying the largest component
    mode_k: int
    mode_parity: str
    single_mode_values: tuple  # certificate per wavenumber 1..CERT_MODES, or ()
    axisym_pm_value: float | None
    verdict: str


def _lead_circle(v: np.ndarray, vals: np.ndarray, gamma: float) -> int:
    """Lowest 1-based circle whose |component| lies within the eigenvector's rounding of the largest.

    The band, n eps (||B|| + 4 pi |gamma|) / gap relative in [1e-9, 1], holds B's entries' rounding (their terms reach
    4 pi |gamma|) over the gap of ``vals``: a rigid rotation, the double cap's constant mode, mirror circles tie.
    """
    mag, gap = np.abs(v), float(vals[1] - vals[0]) if len(vals) > 1 else math.inf
    scale = len(v) * EPS * (max(-float(vals[0]), float(vals[-1])) + 4.0 * math.pi * abs(gamma))
    band = 1.0 if scale >= gap else max(1e-9, scale / gap)
    return int(np.flatnonzero(mag >= (1.0 - band) * mag.max())[0]) + 1


def min_eig_constrained(J: JMatrix) -> StabilityReport:
    """Smallest eigenvalue over zero-mean perturbations, with certificates.

    The constants block ``blocks[0]`` is restricted to the hyperplane
    w . c = 0, w = 2 pi r_i (the arithmetic of assemble_J's radii), by an
    orthonormal complement of w; the oscillatory blocks ``blocks[1:]`` need
    no constraint.
    With the constants minimum solved (inf when n = 1), a block k >= 1
    whose Gershgorin lower bound, less 16 n ulps of its norm, lies
    strictly above it, or above some block's least diagonal entry plus
    that block's margin (an upper bound on its least eigenvalue), cannot
    hold the minimum and is skipped; when every block is skipped the
    constants block is the report.  The blocks left go through one batched
    eigvalsh (ties to the constants block, then to the lowest wavenumber)
    and one eigh of the winning block for its mode, so the screen changes
    no result.
    Degenerate cos/sin pairs are reported with the cos tag, and the mode
    circle is the lowest one among components tied for the largest.
    """
    p = J.pattern
    n = p.n
    best, best_mode = math.inf, None
    if n >= 2:
        z = np.array(p.z)
        Q = np.linalg.qr((2.0 * math.pi * np.sqrt(1.0 - z * z)).reshape(n, 1), mode="complete")[0][:, 1:]
        vals, vecs = np.linalg.eigh(Q.T @ J.blocks[0] @ Q)
        best, best_mode = float(vals[0]), (_lead_circle(Q @ vecs[:, 0], vals, J.gamma), 0, "constant")
    # Gershgorin screen of every k >= 1 block against the constants minimum
    # and against each block's least diagonal entry, which bounds that
    # block's least eigenvalue from above: for k >= 1 the off-diagonals all
    # share the sign of gamma, so a row's radius is |row sum - diagonal| and
    # needs no copy of the stack; a margin of 16 n ulps of the block's norm
    # covers eigvalsh's backward error on either side, so a skipped block
    # could not have won, nor tied
    diag = np.diagonal(J.blocks[1:], axis1=1, axis2=2)
    radius = np.abs(J.blocks[1:].sum(axis=2) - diag)
    margin = 16 * n * EPS * (np.abs(diag) + radius).max(axis=1)
    bound = min(best, float((diag.min(axis=1) + margin).min()))
    live = np.flatnonzero((diag - radius).min(axis=1) - margin <= bound)  # ascending k: the lowest wins a tie
    if live.size:
        k = 1 + int(live[np.argmin(np.linalg.eigvalsh(J.blocks[1 + live])[:, 0])])
        vals, vecs = np.linalg.eigh(J.blocks[k])
        if vals[0] < best:
            best, best_mode = float(vals[0]), (_lead_circle(vecs[:, 0], vals, J.gamma), k, "cos")

    single: tuple = ()
    pm = None
    if is_symmetric(p) and abs(p.m) <= 1e-12 and p.z[-1] > 0.0:
        single = tuple(single_mode_J(p.z[-1], J.gamma, k) for k in range(1, CERT_MODES + 1))
        if n >= 2:
            pm = axisym_pm_bound(p.z[-1], J.gamma)

    certified = best < -1e-9 or any(v < 0.0 for v in single) or (pm is not None and pm < 0.0)
    return StabilityReport(
        gamma=J.gamma,
        K=J.K,
        min_eig=best,
        mode_circle=best_mode[0],
        mode_k=best_mode[1],
        mode_parity=best_mode[2],
        single_mode_values=single,
        axisym_pm_value=pm,
        verdict="certified-unstable" if certified else "no-certificate",
    )


def stability_report(p: AxisymPattern, gamma: float, K: int) -> StabilityReport:
    return min_eig_constrained(assemble_J(p, gamma, K))
