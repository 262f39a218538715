"""Parts of the traced run shared by every workload.

- ``probe``: four in-process CLI calls that reach every layer once, so
  each per-layer figure is measured on every workload (the same fixed
  calls everywhere; a workload's own traffic comes on top).
- ``known_defects``: the failures ROADMAP item 3 names, run as fixed
  cases and counted.  They stay out of the timed workloads, which must
  not fail, so the counts are how the defects remain visible.
- ``scaling_rows``: per-call time of single layers by n (and by K for
  the second variation), measured with the tracer off.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time

import numpy as np

from axisphere import criticality as crit
from axisphere import energy as en
from axisphere import minimizer as mini
from axisphere import stability as stab
from axisphere.errors import BranchLost, CycleLimit, LeftDomain, NoConvergence

from inputs import ordered_heights

PROBE_CALLS = (
    ("probe-verify.txt", ["verify"]),
    ("probe-branch.jsonl", ["critical", "continue", "--n", "3", "--gamma-start", "1.05", "--gamma-end", "2", "--steps", "3"]),
    ("probe-minimize.json", ["minimize", "--z", "-0.4,0.6", "--gamma", "5"]),
    ("probe-stability.json", ["stability", "--z", "-0.5,0.5", "--gamma", "0.8", "--K", "8"]),
)

# Downward continuations that ROADMAP item 3 reports as lost: (n, from, to).
LOST_BRANCHES = ((8, 20.0, 5.0), (12, 100.0, 20.0))
LOST_BRANCH_STEPS = 20
# Descents that ROADMAP item 3 reports as ending degenerate: (n, gamma).
DEGENERATE_DESCENTS = ((16, 50.0), (8, 20.0))
DEGENERATE_GAP = 1e-6

SCALING_N = (2, 8, 32, 128)
SCALING_K = (8, 32, 128)
SCALING_K_N = 32  # stability at n = 128 waits for a faster solver (ROADMAP item 2)
SCALING_GAMMA = 100.0
STABILITY_GAMMA = 1000.0


def probe(out_dir: str) -> None:
    """Run the probe calls through ``cli.main``; raise if any exits nonzero."""
    os.environ["AXISPHERE_OUT_DIR"] = out_dir
    cli = importlib.import_module("axisphere.cli")
    for fname, argv in PROBE_CALLS:
        flag = "--catalog" if argv[:2] == ["critical", "continue"] else "--out"
        code = cli.main([*argv, flag, fname])
        if code != 0:
            raise RuntimeError(f"probe call {argv[:2]} exited {code}")


def known_defects() -> dict[str, int]:
    lost = 0
    for n, g0, g1 in LOST_BRANCHES:
        try:
            seed = crit.solve_critical(n, g0, crit.initial_guess(n), init_label="uniform")
            crit.continue_gamma(n, g0, g1, LOST_BRANCH_STEPS, seed.pattern)
        except (BranchLost, NoConvergence, LeftDomain):
            lost += 1
    degenerate = 0
    for n, gamma in DEGENERATE_DESCENTS:
        try:
            res = mini.local_minimize(crit.initial_guess(n), gamma)
        except CycleLimit:
            degenerate += 1
            continue
        if res.pattern.min_gap() < DEGENERATE_GAP:
            degenerate += 1
    return {"criticality.lost_branches": lost, "minimizer.degenerate_results": degenerate}


def per_call_ms(fn, rounds: int = 3, min_s: float = 0.02) -> float:
    """Median over rounds of the mean per-call time, in ms."""
    samples = []
    for _ in range(rounds):
        calls, start = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_s:
                break
        samples.append(1e3 * elapsed / calls)
    return statistics.median(samples)


def scaling_rows(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 7])
    rows = {}
    for n in SCALING_N:
        p = crit.make_pattern(ordered_heights(n, rng))
        g = SCALING_GAMMA
        rows[f"energy.total_energy.ms.n{n}"] = per_call_ms(lambda: en.total_energy(p, g))
        rows[f"criticality.residuals.ms.n{n}"] = per_call_ms(lambda: crit.residuals(p, g, m_target=p.m))
        rows[f"criticality.lambda_values.ms.n{n}"] = per_call_ms(lambda: crit.lambda_values(p, g))
    n = SCALING_K_N
    cp = crit.solve_critical(n, STABILITY_GAMMA, crit.initial_guess(n), init_label="uniform")
    for k in SCALING_K:
        rows[f"stability.assemble_J.ms.K{k}"] = per_call_ms(
            lambda: stab.assemble_J(cp.pattern, STABILITY_GAMMA, k), min_s=0.0
        )
    return rows
