"""The four workloads: inputs per pass, one operation, and its output check.

An operation calls the library through module attributes (``crit.x``),
so the tracer's wrappers see it.  Checks call the originals imported
below, which are bound before any wrapper is installed, so checking adds
nothing to the traced counts.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

from axisphere import criticality as crit
from axisphere import energy as en
from axisphere import minimizer as mini
from axisphere import pattern as pat
from axisphere import stability as stab
from axisphere.criticality import SolveOptions
from axisphere.criticality import residuals as ref_residuals
from axisphere.energy import nonlocal_closed as ref_nonlocal_closed
from axisphere.energy import nonlocal_quadrature as ref_nonlocal_quadrature
from axisphere.energy import total_energy as ref_total_energy
from axisphere.errors import AxisphereError
from axisphere.pattern import make_pattern as ref_make_pattern
from axisphere.pattern import reflect as ref_reflect

from inputs import log_uniform, ordered_heights, pass_rng, tent_heights

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


class ChildFailed(Exception):
    """A CLI child exited with a nonzero code."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_ordered(z, floor: float = 0.0) -> None:
    nodes = [-1.0, *z, 1.0]
    gaps = [b - a for a, b in zip(nodes, nodes[1:])]
    _require(all(math.isfinite(v) for v in z), "non-finite interface height")
    _require(min(gaps) > floor, f"interfaces not strictly ordered inside (-1, 1) with gap > {floor}")


# ------------------------------------------------------------------ branch


class Branch:
    """Seed solve, gamma continuation, stability on every point.

    A pass holds two n=32 branches, twelve at n=16 and twenty-four at
    n=8, half of them going up in gamma and half going down, so that the
    tail (the eleventh costliest branch) falls among the n=16 ones.  The
    gamma ranges keep the Newton iteration count of an n=32 branch within
    12 to 14, so that the cost of a pass varies little with the seed.
    """

    name = "branch"
    per_pass = {8: 24, 16: 12, 32: 2}
    steps = 3  # gamma points per branch, the seed point included
    ks = (8, 32, 128)  # Fourier cutoff, cycled over the points of a branch
    gamma_low = (700.0, 900.0)
    gamma_high = (2000.0, 3000.0)

    def __init__(self, smoke: bool = False) -> None:
        if smoke:
            self.per_pass, self.ks = {4: 2, 6: 1}, (8,)

    def pass_ops(self, seed: int, index: int) -> list[tuple]:
        rng = pass_rng(seed, index)
        ops = []
        for n, count in self.per_pass.items():
            for i in range(count):
                lo, hi = log_uniform(rng, *self.gamma_low), log_uniform(rng, *self.gamma_high)
                ops.append((n, lo, hi) if (i + index) % 2 == 0 else (n, hi, lo))
        return ops

    def warmup(self) -> None:
        self.check((4, 500.0, 1000.0), self.run((4, 500.0, 1000.0)))

    def label(self, op) -> str:
        return f"n{op[0]}"

    def run(self, op):
        n, g0, g1 = op
        seed = crit.solve_critical(n, g0, crit.initial_guess(n), init_label="uniform")
        points = crit.continue_gamma(n, g0, g1, self.steps, seed.pattern)
        reports = [
            stab.stability_report(cp.pattern, cp.gamma, K=self.ks[i % len(self.ks)])
            for i, cp in enumerate(points)
        ]
        return points, reports

    def check(self, op, out) -> None:
        n, g0, g1 = op
        points, reports = out
        tol = SolveOptions().tol
        _require(len(points) == self.steps, "wrong number of branch points")
        expected = np.geomspace(g0, g1, self.steps)
        for cp, rep, g in zip(points, reports, expected):
            _require(cp.pattern.n == n and _close(cp.gamma, float(g), 1e-12), "point off the gamma schedule")
            _check_ordered(cp.pattern.z)
            res = float(np.max(np.abs(ref_residuals(cp.pattern, cp.gamma))))
            _require(res <= tol, f"recomputed residual {res:.3e} above tol {tol}")
            _require(math.isfinite(rep.min_eig), "non-finite min_eig")


# ----------------------------------------------------------------- descent


class Descent:
    """Strip-move descent from zero-mean tent starts and jittered starts.

    Tent starts take the window path (segment_energy + golden_min); the
    jittered starts have nonzero mean and take the full-energy path.
    Costs come in classes by path and n; with these sizes the median
    operation falls inside the class of tent n=6 and jittered n=3 starts
    and the tail inside that of tent n=8 and jittered n=4, not on the
    edge between two classes, where it would jump with the seed.
    """

    name = "descent"
    tent_sizes = (3, 4, 5, 6, 7, 8)
    jitter_sizes = (3, 3, 3, 4, 4, 5)
    gamma_range = (300.0, 1000.0)
    min_gap = 1e-6

    def __init__(self, smoke: bool = False) -> None:
        if smoke:
            self.tent_sizes, self.jitter_sizes = (3, 4), (3,)

    def pass_ops(self, seed: int, index: int) -> list[tuple]:
        rng = pass_rng(seed, index)
        ops = [("tent", tuple(tent_heights(n, rng)), log_uniform(rng, *self.gamma_range)) for n in self.tent_sizes]
        ops += [
            ("jitter", tuple(ordered_heights(n, rng)), log_uniform(rng, *self.gamma_range))
            for n in self.jitter_sizes
        ]
        return ops

    def warmup(self) -> None:
        op = ("tent", (-0.6, 0.0, 0.6), 500.0)
        self.check(op, self.run(op))

    def label(self, op) -> str:
        return f"{op[0]}-n{len(op[1])}"

    def run(self, op):
        _, z, gamma = op
        return mini.local_minimize(pat.make_pattern(z), gamma)

    def check(self, op, result) -> None:
        _, z, gamma = op
        start = ref_make_pattern(z)
        _check_ordered(result.pattern.z, self.min_gap)
        _require(abs(result.pattern.m - start.m) <= 1e-12, "mass not conserved")
        e0 = ref_total_energy(start, gamma).total
        _require(result.energy.total <= e0, "final energy above the start energy")
        cyc = [c.energy_over_pi for c in result.cycles]
        slack = 1e-12 * max(1.0, abs(e0) / math.pi)
        _require(all(b <= a + slack for a, b in zip(cyc, cyc[1:])), "per-cycle energy increased")


# -------------------------------------------------------------------- scan


class Scan:
    """Energy, residuals and multipliers of seeded patterns; no solver."""

    name = "scan"
    # Patterns per pass at each n.  The n=2 count puts the median operation
    # in the lower part of the n=8 class: its cost is the same for every
    # pattern, so higher up the median would jump with the host's speed.
    counts = {2: 10, 8: 8, 32: 4, 128: 2}
    gamma_range = (1.0, 1000.0)
    quadrature_share = 0.125  # of patterns with n <= 32, checked against quadrature
    quadrature_max_n = 32

    def __init__(self, smoke: bool = False) -> None:
        if smoke:
            self.counts = {2: 2, 8: 2}

    def pass_ops(self, seed: int, index: int) -> list[tuple]:
        rng = pass_rng(seed, index)
        ops = []
        for n, count in self.counts.items():
            for _ in range(count):
                z = tuple(ordered_heights(n, rng))
                gamma = log_uniform(rng, *self.gamma_range)
                quad = n <= self.quadrature_max_n and rng.uniform() < self.quadrature_share
                ops.append((z, gamma, quad))
        return ops

    def warmup(self) -> None:
        op = (tuple(ordered_heights(8, np.random.default_rng(0))), 10.0, True)
        self.check(op, self.run(op))

    def label(self, op) -> str:
        return f"n{len(op[0])}"

    def run(self, op):
        z, gamma, _ = op
        p = pat.make_pattern(z)
        return (
            p,
            en.total_energy(p, gamma),
            crit.residuals(p, gamma, m_target=p.m),
            crit.lambda_values(p, gamma),
        )

    def check(self, op, out) -> None:
        z, gamma, quad = op
        p, e, res, lam = out
        rel = 1e-12
        _require(_close(e.total, e.perimeter + e.nonlocal_, rel), "total != perimeter + nonlocal")
        _require(_close(math.fsum(e.per_segment), e.nonlocal_, rel), "sum(per_segment) != nonlocal")
        mirrored = ref_total_energy(ref_reflect(p), gamma).total
        _require(_close(mirrored, e.total, rel), "energy changed under reflect")
        _require(len(res) == p.n and bool(np.all(np.isfinite(res))), "residual vector malformed")
        _require(len(lam) == p.n and all(math.isfinite(v) for v in lam), "multipliers malformed")
        if quad:
            closed, _ = ref_nonlocal_closed(p, gamma)
            _require(_close(ref_nonlocal_quadrature(p, gamma), closed, 1e-8), "closed form != quadrature")


# --------------------------------------------------------------------- cli


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class Cli:
    """One ``axisphere`` subprocess per operation, one child at a time.

    Every pass calls each subcommand once, with its own inputs and output
    files; repeating a call must give output identical byte for byte to
    its first run.
    """

    name = "cli"
    verify_checks = 15

    def __init__(self, smoke: bool = False, out_dir: str = "") -> None:
        self.smoke = smoke
        self.out_dir = out_dir
        self.trace_dir: str | None = None  # set for the traced run
        self.trace_files: list[str] = []  # one per traced child, in call order
        self.first: dict[str, bytes] = {}

    def pass_ops(self, seed: int, index: int) -> list[tuple]:
        rng = pass_rng(seed, index)
        g = log_uniform(rng, 0.5, 50.0)
        a = float(rng.uniform(0.3, 0.7))
        merged = (float(rng.uniform(-0.5, -0.1)), float(rng.uniform(0.0, 0.2)), float(rng.uniform(0.6, 0.9)))
        calls = [
            ("energy.json", ["energy", "--z", _fmt(ordered_heights(4, rng)), "--gamma", repr(g)]),
            ("xi.json", ["xi", "--z", _fmt(ordered_heights(3, rng)), "--samples", "17"]),
            (
                "sweep2.csv",
                ["sweep2", "--z1", f"{rng.uniform(-0.95, -0.6)!r}:{rng.uniform(-0.3, -0.05)!r}:9",
                 "--gamma", _fmt((g, 2.0 * g))],
            ),
            ("curve.csv", ["gamma-curve", "--branch", "3", "--z1", f"0.05:{rng.uniform(0.5, 0.65)!r}:12"]),
            ("solve.json", ["critical", "solve", "--n", "3", "--gamma", repr(log_uniform(rng, 1.5, 10.0))]),
            (
                "branch.jsonl",
                ["critical", "continue", "--n", "3", "--gamma-start", "1.05",
                 "--gamma-end", repr(log_uniform(rng, 3.0, 8.0)), "--steps", "4"],
            ),
            ("uniform.json", ["critical", "check-uniform", "--count", str(int(rng.integers(3, 7)))]),
            ("minimize.json", ["minimize", "--z", _fmt(tent_heights(4, rng)), "--gamma", repr(log_uniform(rng, 300.0, 1000.0))]),
            ("pole.json", ["escape", "--alpha", repr(float(rng.uniform(0.3, 0.8))), "--gamma", "1e4"]),
            ("merged.json", ["escape", "--z", _fmt((merged[0], merged[1], merged[1], merged[2])), "--gamma", "20"]),
            ("stability.json", ["stability", "--z", _fmt((-a, a)), "--gamma", repr(g), "--K", "16"]),
            ("bounds.csv", ["bounds", "--gamma", f"0:{rng.uniform(2.0, 8.0)!r}:11"]),
            ("verify.txt", ["verify"]),
        ]
        if self.smoke:
            calls = calls[:2]
        out = []
        for fname, argv in calls:
            flag = "--catalog" if argv[:2] == ["critical", "continue"] else "--out"
            out.append((f"p{index}-{fname}", [*argv, flag, f"p{index}-{fname}"]))
        return out

    def warmup(self) -> None:
        op = ("warmup.csv", ["bounds", "--gamma", "0:1:3", "--out", "warmup.csv"])
        self.check(op, self.run(op))
        self.first.pop("warmup.csv")

    def label(self, op) -> str:
        argv = op[1]
        return "-".join(argv[:2]) if argv[0] in ("critical", "escape") else argv[0]

    def run(self, op):
        fname, argv = op
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "axisphere.cli", *argv]
        else:
            state = os.path.join(self.trace_dir, f"child-{len(self.trace_files):04d}.json")
            self.trace_files.append(state)
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), state, *argv]
        env = dict(os.environ, AXISPHERE_OUT_DIR=self.out_dir)
        path = os.path.join(self.out_dir, fname)
        if os.path.exists(path):
            os.remove(path)
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        if proc.returncode != 0:
            raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}")
        with open(path, "rb") as fh:
            return fh.read()

    def check(self, op, data: bytes) -> None:
        fname, argv = op
        text = data.decode("utf-8")
        if fname.endswith(".json"):
            doc = json.loads(text)
            sha = doc["meta"]["config_sha256"]
        elif fname.endswith(".jsonl"):
            lines = [json.loads(line) for line in text.splitlines()]
            sha = lines[0]["meta"]["config_sha256"]
            _require(len(lines) == 1 + int(argv[argv.index("--steps") + 1]), "catalog has the wrong length")
        elif fname.endswith(".csv"):
            head = [ln for ln in text.splitlines() if ln.startswith("#")]
            sha = next(ln.split("=", 1)[1] for ln in head if ln.startswith("# config_sha256="))
            header, *rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
            _require(len(rows) > 0, "CSV without data rows")
            width = len(header.split(","))
            for ln in rows:
                cells = ln.split(",")
                _require(len(cells) == width, "CSV row width differs from its header")
                float(cells[0])
        else:
            lines = text.splitlines()
            sha = lines[0].split("config_sha256=", 1)[1].split()[0]
            want = f"{self.verify_checks}/{self.verify_checks} checks passed"
            _require(lines[-1] == want, f"verify reported {lines[-1]!r}")
        _require(len(sha) == 64 and all(c in "0123456789abcdef" for c in sha), "bad config_sha256")
        ref = self.first.setdefault(fname, data)
        _require(ref == data, f"{fname} differs from its first run")


WORKLOADS = {w.name: w for w in (Branch, Descent, Scan, Cli)}

# An operation fails when the library raises or a child exits nonzero, and
# when its output fails a check (parse errors included).
OP_ERRORS = (AxisphereError, ChildFailed, OSError, subprocess.TimeoutExpired)
CHECK_ERRORS = (CheckFailed, ValueError, KeyError, IndexError, StopIteration)
