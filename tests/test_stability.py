import json
import math
import warnings

import numpy as np
import pytest

from axisphere import cli
from axisphere.criticality import SolveOptions, initial_guess, solve_critical
from axisphere.energy import total_energy
from axisphere.errors import NotCritical, NumericalFailure, OutOfRange
from axisphere.pattern import is_symmetric, make_pattern
from axisphere.potential import grad_v_normal
from axisphere.quadrature import QuadratureSpec, integrate_adaptive
from axisphere.stability import (
    CERT_MODES,
    _kernel,
    assemble_J,
    axisym_pm_bound,
    doublecap_kernel_integral,
    min_eig_constrained,
    single_mode_J,
    stability_report,
)

TWO_CAP_K0_GAMMA = 0.8910848029349048  # (8/sqrt(3)) / (12 log 3 - 8)


def fourier_log_integral(a: float, b: float, k: int) -> float:
    """Fourier coefficient of log(a - b cos u) over a full period, wavenumber k, for a >= b >= 0, a > 0.

    The kernel in chord form, an oracle independent of the library's sphere form: between the circles
    at heights z_i and z_j, a - b cos u is the squared chord, a = r_i^2 + r_j^2 + (z_i - z_j)^2, b = 2 r_i r_j.
    """
    s = math.sqrt((a - b) * (a + b))
    if k == 0:
        return 2.0 * math.pi * math.log(0.5 * (a + s))
    return (b / (a + s)) ** k * (-2.0 * math.pi / k)


def _fourier_log_quad(a: float, b: float, k: int) -> float:
    spec = QuadratureSpec(rel_tol=1e-12)

    def f(u):
        # half-angle form stays finite when a = b and cos u rounds to 1
        val = np.log((a - b) + 2.0 * b * np.sin(0.5 * u) ** 2)
        return val * np.cos(k * u) if k else val

    return integrate_adaptive(f, 0.0, 2.0 * math.pi, spec, abs_tol=1e-12)


def _block_by_loop(p, gamma: float, k: int) -> np.ndarray:
    """Block k of the second variation, one circle pair at a time."""
    n = p.n
    r = [math.sqrt(1.0 - zi * zi) for zi in p.z]
    g = grad_v_normal(p)
    blk = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            a = r[i] ** 2 + r[j] ** 2 + (p.z[i] - p.z[j]) ** 2
            blk[i, j] = -2.0 * gamma * r[i] * r[j] * fourier_log_integral(a, 2.0 * r[i] * r[j], k)
        blk[i, i] += math.pi * (k * k - 1.0) / r[i] + 4.0 * gamma * g[i] * math.pi * r[i]
    return blk if k else 2.0 * blk  # the constant mode has norm 2 pi


def test_fourier_log_integral_property():
    """Closed form against quadrature, 200 draws including the a = b edge."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for i in range(200):
        b = float(rng.uniform(0.05, 4.0))
        a = b if i % 5 == 0 else b + float(rng.uniform(1e-6, 5.0))
        k = int(rng.integers(0, 9))
        got = fourier_log_integral(a, b, k)
        worst = max(worst, abs(got - _fourier_log_quad(a, b, k)))
    assert worst <= 1e-8, f"worst abs gap {worst:.3e}"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: doublecap_kernel_integral(0), r"^wavenumber must be at least 1$", id="doublecap-k0"),
        pytest.param(lambda: single_mode_J(1.0, 1.0, 1), r"^z_n=1\.0 outside \(0, 1\)$", id="single-mode-z"),
        pytest.param(lambda: single_mode_J(0.5, 1.0, 0), r"^wavenumber must be at least 1$", id="single-mode-k0"),
        pytest.param(lambda: axisym_pm_bound(0.0, 1.0), r"^z_n=0\.0 outside \(0, 1\)$", id="pm-bound-z"),
        pytest.param(lambda: assemble_J(make_pattern([-0.5, 0.5]), 1.0, K=4).block(5),
                     r"^wavenumber 5 outside 0\.\.4$", id="block-index"),
        pytest.param(lambda: assemble_J(make_pattern([-0.5, 0.5]), 1.0, K=0), r"^mode cutoff must be at least 1$",
                     id="K0"),
    ],
)
def test_input_errors(call, message):
    with pytest.raises(OutOfRange, match=message):
        call()


def test_fourier_log_closed_values():
    # k = 0 is the mean of the log kernel, 2 pi log((a+s)/2)
    a, b = 5.0, 3.0
    s = math.sqrt(a * a - b * b)
    assert fourier_log_integral(a, b, 0) == pytest.approx(2.0 * math.pi * math.log((a + s) / 2.0), rel=1e-14)
    q = b / (a + s)
    for k in (1, 2, 5):
        assert fourier_log_integral(a, b, k) == pytest.approx(-2.0 * math.pi * q**k / k, rel=1e-13)
    # degenerate circle pair: q -> 1, still finite
    assert fourier_log_integral(2.0, 2.0, 3) == pytest.approx(-2.0 * math.pi / 3.0, rel=1e-13)


def _kernel_errors(lo: float, hi: float) -> tuple[float, float, float]:
    """Errors of ``_kernel(lo, hi, 1)`` against its closed form in 50-digit mpmath.

    Returns the k = 0 error relative to its terms' sizes 2 pi (|log(1 - lo)| + |log(1 + hi)|), and the k = 1
    coefficient -2 pi q's error relative to 2 pi (1 - q), its distance from the self-interaction value -2 pi,
    and relative to 2 pi q.  2 pi is the library's double, whose own rounding scales every coefficient alike.
    """
    import mpmath as mp

    got = _kernel(lo, hi, 1)
    with mp.workdps(50):
        two_pi, lo_, hi_ = mp.mpf(2.0 * math.pi), mp.mpf(lo), mp.mpf(hi)
        logs = (mp.log(1 - lo_), mp.log(1 + hi_))
        q = mp.sqrt((1 + lo_) * (1 - hi_) / ((1 - lo_) * (1 + hi_)))
        e0 = abs(mp.mpf(float(got[0])) - two_pi * sum(logs)) / (two_pi * (abs(logs[0]) + abs(logs[1])))
        e1 = abs(mp.mpf(float(got[1])) + two_pi * q) / two_pi
        return float(e0), float(e1 / (1 - q)), float(e1 / q)


def test_kernel_matches_mpmath_near_merged_pairs_and_poles():
    """The kernel the stability reports use keeps close circles' 1 - q and the caps' small q.

    Pairs dz = 1e-2..1e-8 apart: q within 1e-8 of 1 - q (5.3e-9 at most when measured), the k = 0 logs within 1e-15.
    Pairs 1e-12 from a pole: q and the logs within 1e-15.
    """
    for z in (0.5, -0.3, 0.0, 0.9, -0.999):
        for e in range(2, 9):
            e0, e_merged, _ = _kernel_errors(z, z + 10.0**-e)
            assert e0 <= 1e-15 and e_merged <= 1e-8, (z, e, e0, e_merged)
    south, north = -1.0 + 1e-12, 1.0 - 1e-12
    for lo, hi in [(south, h) for h in (-0.5, 0.0, 0.7, north)] + [(lo, north) for lo in (-0.5, 0.0, 0.7)]:
        e0, _, e_pole = _kernel_errors(lo, hi)
        assert e0 <= 1e-15 and e_pole <= 1e-15, (lo, hi, e0, e_pole)


def test_doublecap_kernel_closed_form():
    for k in range(1, 9):
        assert doublecap_kernel_integral(k) == pytest.approx(
            -2.0 * math.pi**2 / (k * 3.0**k), rel=1e-13
        )


_SYMMETRY_CASES = [
    (3, 2.0, SolveOptions(), 8),
    # nonzero mean: the critical pattern is not equatorially symmetric
    (5, 20.0, SolveOptions(m_target=-0.2), 8),
    # the benchmark's branch traffic: close circles at large gamma, every cutoff it runs
    (8, 700.0, SolveOptions(), 8),
    (16, 1500.0, SolveOptions(), 32),
    (32, 3000.0, SolveOptions(), 128),
]


def test_assembled_blocks_are_symmetric():
    """Every block, the constants block included, is a symmetric view of the one (K+1, n, n) stack JMatrix holds."""
    for n, gamma, opts, K in _SYMMETRY_CASES:
        p = solve_critical(n, gamma, initial_guess(n), opts).pattern
        J = assemble_J(p, gamma, K)
        assert J._fields == ("pattern", "gamma", "blocks") and J.K == K
        for k in range(0, K + 1):
            blk = J.block(k)
            assert blk.shape == (n, n) and np.shares_memory(blk, J.blocks)
            assert float(np.max(np.abs(blk - blk.T))) == 0.0
            ref = _block_by_loop(p, gamma, k)
            np.testing.assert_allclose(blk, ref, rtol=0.0, atol=1e-13 * float(np.max(np.abs(ref))))


def test_double_cap_k1_block_and_rotation_mode():
    J = assemble_J(make_pattern([-0.5, 0.5]), 1.0, K=4)
    blk = J.block(1)
    expect = math.pi * np.ones((2, 2))
    assert float(np.max(np.abs(blk - expect))) <= 1e-12
    # tilting both circles the same way is a rigid rotation
    assert float(np.max(np.abs(blk @ np.array([1.0, -1.0])))) <= 1e-12


def test_single_mode_matches_assembly():
    cp = solve_critical(3, 2.0, initial_guess(3))
    J = assemble_J(cp.pattern, 2.0, K=8)
    z_n = cp.pattern.z[-1]
    for k in range(1, 7):
        got = J.block(k)[2, 2] / math.pi
        assert got == pytest.approx(single_mode_J(z_n, 2.0, k), rel=1e-10)


def test_single_mode_frozen_value():
    assert single_mode_J(0.9, 10.0, 2) == pytest.approx(6.682472016116854, rel=1e-13)


def test_pm_bound_dominates():
    # the closed bound majorizes the exact +1/-1 pair form (worst chord)
    rng = np.random.default_rng(314)
    v = np.array([1.0, -1.0])
    for _ in range(50):
        z = float(rng.uniform(0.05, 0.95))
        g = float(rng.uniform(0.0, 30.0))
        C = assemble_J(make_pattern([-z, z]), g, K=4).block(0)
        exact = float(v @ C @ v) / math.pi
        assert exact <= axisym_pm_bound(z, g) + 1e-9


def test_k_refinement_is_converged():
    p = make_pattern([-0.5, 0.5])
    r16 = min_eig_constrained(assemble_J(p, 1.0, K=16))
    r32 = min_eig_constrained(assemble_J(p, 1.0, K=32))
    assert abs(r16.min_eig - r32.min_eig) <= 1e-8


def test_double_cap_instability_threshold():
    """The symmetric k = 0 breathing mode changes sign at a pinned coupling."""
    analytic = (8.0 / math.sqrt(3.0)) / (12.0 * math.log(3.0) - 8.0)
    assert TWO_CAP_K0_GAMMA == pytest.approx(analytic, abs=1e-14)
    p = make_pattern([-0.5, 0.5])
    lo, hi = 0.5, 1.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if min_eig_constrained(assemble_J(p, mid, K=8)).min_eig < -1e-13:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(TWO_CAP_K0_GAMMA, abs=1e-8)


def test_double_cap_verdicts_around_threshold():
    p = make_pattern([-0.5, 0.5])
    below = stability_report(p, 0.8, K=32)
    assert below.verdict == "certified-unstable"
    assert below.min_eig < -1e-3
    assert below.mode_k == 0 and below.mode_parity == "constant"
    above = stability_report(p, 1.0, K=32)
    assert above.verdict == "no-certificate"
    assert abs(above.min_eig) <= 1e-10  # rotation zero mode saturates the bound


def test_mode_circle_breaks_ties_toward_the_lowest_circle():
    # the double cap's constant mode is (1, -1)/sqrt(2): both circles tie
    rep = stability_report(make_pattern([-0.5, 0.5]), 0.8, K=32)
    assert rep.mode_k == 0 and rep.mode_circle == 1
    # a clear winner is still reported where it sits
    J = assemble_J(make_pattern([-0.5, 0.5]), 0.8, K=4)
    blocks = J.blocks.copy()
    blocks[1] = np.diag([1.0, -5.0])
    J = J._replace(blocks=blocks)
    assert min_eig_constrained(J).mode_circle == 2


def test_mirror_circles_name_the_lower_one():
    """On an equatorially symmetric critical point the mode's mirror circles carry equal components in exact
    arithmetic, so the report names the lower one even where eigh's near-degenerate pair mixes them."""
    p = solve_critical(24, 2377.2, initial_guess(24)).pattern  # k = 4: |v_1| / |v_24| - 1 = -6.8e-5, gap 1.6e-12 ||B||
    assert stability_report(p, 2377.2, K=32).mode_circle == 1
    rng = np.random.default_rng(29)
    for n in range(2, 33):
        gamma = math.exp(rng.uniform(math.log(8.0 * n * n), math.log(16.0 * n * n)))  # the uniform start converges
        p = solve_critical(n, gamma, initial_guess(n)).pattern
        assert is_symmetric(p)
        for K in (8, 32):
            assert stability_report(p, gamma, K=K).mode_circle <= math.ceil(n / 2), (n, gamma, K)


def test_single_cap_marginal_at_zero_coupling():
    rep = stability_report(make_pattern([0.0]), 0.0, K=32)
    assert abs(rep.min_eig) <= 1e-12
    assert rep.verdict == "no-certificate"


def test_report_json_shape(capsys):
    assert cli.main(["stability", "--z", "-0.5,0.5", "--gamma", "0.8", "--K", "16"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"meta", "gamma", "K", "min_eig", "mode", "certificates", "verdict"}
    assert set(d["mode"]) == {"circle", "k", "parity"}
    assert len(d["certificates"]["single_mode"]) == CERT_MODES
    assert d["K"] == 16


def test_overflowing_blocks_are_a_numerical_failure(capsys):
    """Blocks that overflow at huge gamma are refused by name, not screened out or reported as inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="gamma=1e\\+308"):
            stability_report(make_pattern([0.5]), 1e308, 8)
        # from about 1.2e307 to 2.5e307 only the doubling of the constants block overflows
        for gamma in (1e308, 1.5e307):
            message = f"second-variation blocks overflow at gamma={gamma!r}"
            with pytest.raises(NumericalFailure) as info:
                assemble_J(make_pattern([-0.5, 0.5]), gamma, K=32)
            assert str(info.value) == message
            assert cli.main(["stability", "--z", "-0.5,0.5", "--gamma", repr(gamma)]) == 2
            assert capsys.readouterr() == ("", f"axisphere: numerical failure: {message}\n")


@pytest.mark.parametrize("argv", [
    ["energy", "--z", "-0.5,0.5"],
    ["minimize", "--z", "-0.4,0.6"],
    ["escape", "--z", "-0.3,0.1,0.1,0.8"],
    ["sweep2", "--z1", "-0.95,-0.999"],
])
def test_overflowing_energy_is_a_numerical_failure(argv, capsys):
    """An energy that overflows is refused by name: no Infinity in the JSON, no nan sweeps, no compared infinities."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*argv, "--gamma", "1e308"]) == 2
    assert capsys.readouterr() == ("", "axisphere: numerical failure: energy overflows at gamma=1e+308\n")


def test_non_critical_pattern_is_refused():
    with pytest.raises(NotCritical):
        assemble_J(make_pattern([-0.5, 0.1, 0.6]), 2.0, K=32)


def test_eigen_residual_small():
    p = solve_critical(3, 2.0, initial_guess(3)).pattern
    J = assemble_J(p, 2.0, K=12)
    for k in range(1, 13):
        blk = J.block(k)
        w, V = np.linalg.eigh(blk)
        i = int(np.argmin(w))
        res = float(np.max(np.abs(blk @ V[:, i] - w[i] * V[:, i])))
        assert res <= 1e-10


def _lead(v, vals, gamma):
    """The library's rule: the lowest circle within n eps (||B|| + 4 pi |gamma|) / gap, in [1e-9, 1], of the largest."""
    mag, gap = np.abs(v), float(vals[1] - vals[0]) if len(vals) > 1 else math.inf
    scale = len(v) * float(np.finfo(float).eps) * (float(np.abs(vals).max()) + 4.0 * math.pi * abs(gamma))
    band = min(1.0, max(1e-9, scale / gap)) if gap > 0.0 else 1.0
    return int(np.flatnonzero(mag >= (1.0 - band) * mag.max())[0]) + 1


def _constants_min(J):
    """Smallest eigenvalue of the constants block on w . c = 0, its mode on the circles, and every eigenvalue."""
    z = np.array(J.pattern.z)
    Q = np.linalg.qr((2.0 * math.pi * np.sqrt(1.0 - z * z)).reshape(-1, 1), mode="complete")[0][:, 1:]
    vals, vecs = np.linalg.eigh(Q.T @ J.block(0) @ Q)
    return float(vals[0]), Q @ vecs[:, 0], vals


def _report_by_loop(J):
    """(min_eig, mode_k, mode_circle) from one eigh per block, the first strict minimum kept."""
    best, mode = math.inf, None
    if J.pattern.n >= 2:
        best, v, vals = _constants_min(J)
        mode = (0, _lead(v, vals, J.gamma))
    for k in range(1, J.K + 1):
        vals, vecs = np.linalg.eigh(J.block(k))
        if vals[0] < best:
            best, mode = float(vals[0]), (k, _lead(vecs[:, 0], vals, J.gamma))
    return best, *mode


def test_batched_eigensolve_matches_loop_over_blocks():
    cases = [
        (make_pattern([0.3]), 3.0),
        (make_pattern([-0.5, 0.5]), 0.8),
        (solve_critical(5, 20.0, initial_guess(5), SolveOptions(m_target=-0.2)).pattern, 20.0),
    ]
    for p, gamma in cases:
        for K in (8, 32, 128):
            J = assemble_J(p, gamma, K=K)
            assert J.blocks.shape == (K + 1, p.n, p.n) and J.K == K
            rep = min_eig_constrained(J)
            assert (rep.min_eig, rep.mode_k, rep.mode_circle) == _report_by_loop(J), (p.n, K)


def _report_unscreened(J):
    """(min_eig, mode_k, mode_circle, mode_parity): one batched eigvalsh over every k >= 1 block, no screen."""
    best, mode = math.inf, None
    if J.pattern.n >= 2:
        best, v, vals = _constants_min(J)
        mode = (0, _lead(v, vals, J.gamma), "constant")
    i = int(np.argmin(np.linalg.eigvalsh(J.blocks[1:])[:, 0]))
    vals, vecs = np.linalg.eigh(J.blocks[1 + i])
    if vals[0] < best:
        best, mode = float(vals[0]), (i + 1, _lead(vecs[:, 0], vals, J.gamma), "cos")
    return best, *mode


def _screens_every_k(J) -> bool:
    """Whether each k >= 1 block's Gershgorin lower bound lies above the constants minimum."""
    if J.pattern.n == 1:
        return False
    osc = J.blocks[1:]
    off = np.abs(osc).sum(axis=2) - np.abs(np.diagonal(osc, axis1=1, axis2=2))
    return bool(np.all((np.diagonal(osc, axis1=1, axis2=2) - off).min(axis=1) > _constants_min(J)[0]))


def test_screened_eigensolve_matches_unscreened():
    """The Gershgorin screen never changes the report: seeded critical points, n up to 32, K up to 128."""
    rng = np.random.default_rng(19)
    gamma_range = {1: (0.5, 3000.0), 2: (0.5, 3000.0), 3: (0.5, 3000.0), 8: (20.0, 3000.0),
                   16: (100.0, 3000.0), 32: (800.0, 3000.0)}
    # no constants block; unstable double cap; double cap with every k >= 1 block screened out at K <= 8
    cases = [(make_pattern([0.3]), 3.0), (make_pattern([-0.5, 0.5]), 0.8), (make_pattern([-0.5, 0.5]), 0.3)]
    for n, (lo, hi) in gamma_range.items():
        for _ in range(2):
            gamma = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            p = make_pattern([float(rng.uniform(-0.9, 0.9))]) if n == 1 else \
                solve_critical(n, gamma, initial_guess(n)).pattern
            cases.append((p, gamma))
    constants_wins = all_screened = False
    for p, gamma in cases:
        for K in (1, 2, 8, 32, 128):
            J = assemble_J(p, gamma, K=K)
            rep = min_eig_constrained(J)
            best, mode_k, mode_circle, mode_parity = _report_unscreened(J)
            assert (rep.min_eig, rep.mode_k, rep.mode_circle, rep.mode_parity) == \
                (best, mode_k, mode_circle, mode_parity), (p.n, gamma, K)
            certified = best < -1e-9 or any(v < 0.0 for v in rep.single_mode_values) or \
                (rep.axisym_pm_value is not None and rep.axisym_pm_value < 0.0)
            assert rep.verdict == ("certified-unstable" if certified else "no-certificate")
            constants_wins |= mode_parity == "constant"
            all_screened |= _screens_every_k(J)
    assert constants_wins and all_screened


def test_constants_block_is_the_constrained_energy_hessian():
    """The constants block, mapped by c_i = sigma_i dz_i / r_i, is the Hessian of total_energy(., +gamma)
    on mass-preserving moves (fourth-order central differences)."""
    cases = [
        (3, 2.0, SolveOptions()),
        (4, 3.0, SolveOptions()),
        (5, 20.0, SolveOptions(m_target=-0.2)),
    ]
    for n, gamma, opts in cases:
        p = solve_critical(n, gamma, initial_guess(n), opts).pattern
        z = np.array(p.z)
        sigma = (-1.0) ** np.arange(n)  # (-1)^(i+1), 1-based
        S = np.diag(sigma / np.sqrt(1.0 - z * z))
        q_full, _ = np.linalg.qr(sigma.reshape(n, 1), mode="complete")
        T = q_full[:, 1:]  # orthonormal basis of sigma . dz = 0: the mass stays put
        want = T.T @ S @ assemble_J(p, gamma, K=4).block(0) @ S @ T

        h = 1e-3 * p.min_gap()

        def curvature(v):
            e = [total_energy(make_pattern(z + t * h * v), gamma).total for t in (-2, -1, 0, 1, 2)]
            return (-e[0] + 16.0 * e[1] - 30.0 * e[2] + 16.0 * e[3] - e[4]) / (12.0 * h * h)

        m = n - 1
        got = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                got[i, j] = 0.25 * (curvature(T[:, i] + T[:, j]) - curvature(T[:, i] - T[:, j]))
        mismatch = float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))
        assert mismatch <= 1e-6, (n, gamma, mismatch)
