"""Runs one workload in this process and prints one JSON line.

Started by run.py with BLAS pinned to one thread.  Three modes:

- ``--setup-only``: import, input generation and a warm-up operation,
  then report the monotonic time at which the first timed operation
  could start;
- timed (default): rounds over the same operations, interleaved with a
  fixed reference kernel, for about ``--seconds``, with the tracer off;
- ``--trace``: a fixed number of passes, first untraced and then traced,
  followed by the shared probe, the known defects and the scaling table.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import itertools
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

TRACE_PASSES = {"branch": 1, "descent": 1, "scan": 10, "cli": 1}
TIMED_PASSES = {"branch": 1, "descent": 4, "scan": 4, "cli": 2}  # passes in the operations of a timed run
PROCESS_SAMPLES = 3
REF_EVERY_S = 0.02  # the reference kernel runs again before an operation this long after its last run
REF_WINDOW_S = 0.5  # an operation's cost divides by the kernel runs that end this close to it
REF_LOOP = 6000  # interpreter iterations in the reference kernel
REF_ARRAY_CALLS = 60  # small-array numpy steps in the reference kernel
REF_SOLVES = 20  # 16 x 16 dense solves in the reference kernel
MAX_LOGGED_FAILURES = 5


class Runner:
    """Runs operations, checks them outside the timed region, counts failures."""

    def __init__(self, workload, op_errors, check_errors) -> None:
        self.w = workload
        self.op_errors, self.check_errors = op_errors, check_errors
        self.attempted = 0
        self.failed = 0

    def run(self, op, tracer=None) -> tuple[float, bool]:
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                out = self.w.run(op)
            else:
                with tracer.span(f"op.{self.w.name}"):
                    out = self.w.run(op)
        except self.op_errors as exc:
            error = exc
        elapsed = time.perf_counter() - start
        if error is None:
            try:
                self.w.check(op, out)
            except self.check_errors as exc:
                error = exc
        if error is not None:
            self.failed += 1
            if self.failed <= MAX_LOGGED_FAILURES:
                sys.stderr.write(f"failed {self.w.label(op)}: {type(error).__name__}: {error}\n")
        return elapsed, error is None


def _mul_add(x: float, y: float) -> float:
    return x * y + 1.0


def reference_kernel() -> None:
    """Fixed work of the library's kinds, none of it from the library.

    Interpreter arithmetic with math calls and function calls, dict
    updates, small-array numpy steps and small dense solves.
    """
    import numpy as np

    s = 0.0
    for i in range(1, REF_LOOP):
        s += math.log(i) * math.sqrt(i) + _mul_add(s, 1e-9)
    counts: dict[int, int] = {}
    for i in range(REF_LOOP // 3):
        counts[i % 97] = counts.get(i % 97, 0) + i
    a = np.arange(64.0)
    for _ in range(REF_ARRAY_CALLS):
        a = np.sqrt(a * a + 1.0) - 1.0
    m = np.eye(16) + 0.01
    for _ in range(REF_SOLVES):
        np.linalg.solve(m, a[:16])


def timed(runner: Runner, ops: list, seconds: float) -> dict:
    """Rounds over the same operations for about ``seconds``.

    The host's speed drifts by a quarter in phases of a second to
    minutes, so besides its wall time every operation gets a cost: its
    wall time over the mean time of the reference kernel runs that end
    within REF_WINDOW_S of it.  The kernel runs before an operation when
    REF_EVERY_S have passed since its last run.
    """
    w = runner.w
    wall = [[] for _ in ops]
    spans = []  # (operation index, start, end) of every timed operation
    ok = [True] * len(ops)
    refs = []  # (end, duration) of every reference kernel run
    reference_kernel()  # first calls of numpy's functions are slower
    last_ref = -math.inf
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                start = time.perf_counter()
                reference_kernel()
                last_ref = time.perf_counter()
                refs.append((last_ref, last_ref - start))
            start = time.perf_counter()
            dt, passed = runner.run(op)
            wall[i].append(dt)
            spans.append((i, start, start + dt))
            ok[i] = ok[i] and passed
        now = time.perf_counter()
        if now + 0.5 * (now - round_start) >= deadline:  # stop at the round end nearest the deadline
            break
    cost = [[] for _ in ops]
    ends = [t for t, _ in refs]
    sums = list(itertools.accumulate((d for _, d in refs), initial=0.0))
    for i, start, end in spans:
        lo = bisect.bisect_left(ends, start - REF_WINDOW_S)
        hi = max(bisect.bisect_right(ends, end + REF_WINDOW_S), lo + 1)
        cost[i].append((end - start) / ((sums[hi] - sums[lo]) / (hi - lo)))
    who = resource.RUSAGE_CHILDREN if w.name == "cli" else resource.RUSAGE_SELF
    return {
        "wall_s": wall,
        "cost": cost,
        "ref_s": [d for _, d in refs],
        "labels": [w.label(op) for op in ops],
        "ok": ok,
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }


def _median_spawn_s(argv: list[str]) -> float:
    times = []
    for _ in range(PROCESS_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def traced(runner: Runner, seed: int, passes: int, names: list[str], out_dir: str, trace_path: str) -> dict:
    import layers
    from spans import Tracer

    w = runner.w
    ops = [op for i in range(passes) for op in w.pass_ops(seed, i)]
    untraced_s = sum(runner.run(op)[0] for op in ops)

    tracer = Tracer()
    wrapped = tracer.install()
    if w.name == "cli":
        w.trace_dir = os.path.join(out_dir, "cli-trace")
        os.makedirs(w.trace_dir, exist_ok=True)
    try:
        traced_s = sum(runner.run(op, tracer)[0] for op in ops)
        with tracer.span("probe"):
            layers.probe(out_dir)
    finally:
        tracer.uninstall()
    if w.name == "cli":
        for path in w.trace_files:
            if os.path.exists(path):  # a child killed before its dump leaves none
                with open(path, encoding="utf-8") as fh:
                    tracer.merge(json.load(fh))

    values = dict(layers.known_defects())
    values.update(layers.scaling_rows(seed))
    values["cli.python_start_s"] = _median_spawn_s([sys.executable, "-c", "pass"])
    values["cli.import_s"] = _median_spawn_s([sys.executable, "-c", "import axisphere.cli"])
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    c = tracer.counters
    values["criticality.newton_iters"] = c["criticality.newton_iters"]
    values["criticality.damping_events"] = c["criticality.damping_events"]
    values["criticality.residuals_per_iter"] = c["criticality.solve_residual_calls"] / c["criticality.newton_iters"]
    values["minimizer.cycles"] = c["minimizer.cycles"]
    values["minimizer.evals_per_cycle"] = c["minimizer.objective_evals"] / c["minimizer.cycles"]
    for name in names:
        if name.endswith(".calls"):
            values[name] = tracer.calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            values[name] = tracer.self_s(name[: -len(".self_s")])
    tracer.dump(trace_path, {"workload": w.name, "seed": seed, "passes": passes, "wrapped": wrapped})
    return {"layers": values}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--names", default="", help="comma-separated per-layer metric names")
    args = ap.parse_args()

    from workloads import CHECK_ERRORS, OP_ERRORS, WORKLOADS

    cls = WORKLOADS[args.workload]
    if args.workload == "cli":
        out = os.path.join(args.out_dir, "cli")
        os.makedirs(out, exist_ok=True)
        w = cls(smoke=args.smoke, out_dir=out)
    else:
        w = cls(smoke=args.smoke)
    runner = Runner(w, OP_ERRORS, CHECK_ERRORS)
    passes = 1 if args.smoke else TIMED_PASSES[w.name]
    ops = [op for i in range(passes) for op in w.pass_ops(args.seed, i)]
    w.warmup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if args.trace:
        passes = 1 if args.smoke else TRACE_PASSES[w.name]
        trace_path = os.path.join(args.out_dir, f"trace-{w.name}-seed{args.seed}.json")
        result = traced(runner, args.seed, passes, args.names.split(","), args.out_dir, trace_path)
        result["trace_file"] = trace_path
    else:
        result = timed(runner, ops, args.seconds)
    result.update(ready=ready, attempted=runner.attempted, failed=runner.failed, env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
