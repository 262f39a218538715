"""axisphere benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Builds nothing: the library is imported from ``src/`` of the checkout,
and the run fails (exit 2, no result) when that source is missing.
Every workload runs in its own process, one at a time, with BLAS pinned
to one thread.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Lines before it give each metric with its
quartiles and sample count, and a record of the run is written under
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 3  # set-up is measured in this many fresh processes before the timed run, and as many after
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and its value.

    With fewer samples than that the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


class Worker:
    """Starts worker.py processes one at a time under a shared deadline."""

    def __init__(self, args, deadline: float) -> None:
        self.args = args
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **PINNED_ENV)
        self.env.pop("PYTHONHOME", None)

    def run(self, *extra: str) -> tuple[dict, float]:
        """Run one worker; return its JSON result and its set-up time in s."""
        a = self.args
        argv = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--out-dir", OUT_DIR,
            *(["--smoke"] if a.smoke else []),
            *extra,
        ]
        start = time.monotonic()
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError("worker ran past the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        result = json.loads(lines[-1])
        return result, result["ready"] - start


def end_to_end(worker: Worker) -> tuple[dict, dict, dict]:
    # The host's speed changes in phases of seconds, so set-up is sampled
    # on both sides of the timed run and the median taken over all seven.
    setups = [worker.run("--setup-only")[1] for _ in range(SETUP_SAMPLES)]
    res, setup = worker.run()
    setups.append(setup)
    setups += [worker.run("--setup-only")[1] for _ in range(SETUP_SAMPLES)]
    # Each operation's cost is its median over rounds.  The tail is taken
    # over operations, not over (operation, round) samples: the number of
    # rounds follows the host's speed, and with it the rank of the tail.
    op_cost = [statistics.median(c) for c in res["cost"]]
    pct, tail_cost = tail(op_cost)
    ref_ms = 1e3 * statistics.median(res["ref_s"])
    op_ms = [1e3 * statistics.median(t) for t in res["wall_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_kref": 1e3 * sum(res["ok"]) / sum(op_cost),
        "op_ref.p50": statistics.median(op_cost),
        "op_ref.tail": tail_cost,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    shares: dict[str, float] = {}
    for label, c in zip(res["labels"], op_cost):
        shares[label] = shares.get(label, 0.0) + c
    total = sum(shares.values())
    rounds = len(res["cost"][0])
    detail = {
        "setup_s": {"samples": setups},
        "op_ref.p50": {"samples": op_cost, "per": "operation, median over rounds"},
        "op_ref.tail": {"percentile": pct},
        "wall": {
            "ref_ms": {"samples": [1e3 * v for v in res["ref_s"]]},
            "ops_per_s": 1e3 * sum(res["ok"]) / sum(op_ms),
            "op_ms.p50": {"samples": op_ms, "per": "operation, median over rounds"},
        },
        "time_share": {k: v / total for k, v in sorted(shares.items())},
        "rounds": rounds,
        "operations": len(op_cost),
    }
    return values, detail, res


def summary_lines(values: dict, detail: dict, units: dict) -> list[str]:
    lines = []
    for name, value in values.items():
        lines.append(_line(name, value, units[name], detail.get(name, {})))
    wall = detail.get("wall")
    if wall:
        lines.append(f"# wall time ({detail['operations']} operations, {detail['rounds']} rounds):")
        lines.append(_line("reference kernel", statistics.median(wall["ref_ms"]["samples"]), "ms", wall["ref_ms"]))
        lines.append(_line("ops_per_s", wall["ops_per_s"], "1/s", {}))
        lines.append(_line("op_ms.p50", statistics.median(wall["op_ms.p50"]["samples"]), "ms", wall["op_ms.p50"]))
    for label, share in detail.get("time_share", {}).items():
        lines.append(f"time share {label:33s} {share:8.4f}")
    return lines


def _line(name: str, value: float, unit: str, detail: dict) -> str:
    line = f"{name:44s} {value:14.6g} {unit}"
    samples = detail.get("samples")
    if samples:
        q1, q2, q3 = quartiles(samples)
        line += f"   median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples)}"
    if "percentile" in detail:
        line += f"  at p{detail['percentile']:.2f}"
    return line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for smoke.py")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "axisphere", "__init__.py")):
        sys.stderr.write("run.py: no axisphere sources under src/ of this checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"run.py: unknown workload {args.workload!r}\n")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    os.makedirs(OUT_DIR, exist_ok=True)

    worker = Worker(args, deadline)
    try:
        if args.trace:
            res, _ = worker.run("--trace", "--names", ",".join(units))
            values, detail = res["layers"], {}
        else:
            values, detail, res = end_to_end(worker)
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 2
    missing = set(units) - set(values)
    if missing:
        sys.stderr.write(f"run.py: metrics not produced: {sorted(missing)}\n")
        return 2

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": res["env"],
        "metrics": metrics,
        "detail": detail,
        "trace_file": res.get("trace_file"),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"BENCH_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = res["env"]
    print(f"# axisphere benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    print(
        f"# python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  cpu {env['cpu']}"
        f"  blas_threads {env['blas_threads']}"
    )
    for line in summary_lines({k: values[k] for k in units}, detail, units):
        print(line)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
