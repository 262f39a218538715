"""Smoke check: ``python3 perfbench/smoke.py`` from the root of a checkout.

Runs every workload at tiny size, untraced and traced, and asserts that
the result line is well formed, that every operation passed its checks
and that each metric named in BENCHMARK.json appears with its unit and a
finite value.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=180)
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                print(f"FAIL {tag}: exit {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            problems = []
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(res)}")
            if not (res.get("correct") and res.get("attempted", 0) >= 1 and res.get("failed") == 0):
                problems.append("operations failed their checks")
            metrics = res.get("metrics", {})
            if set(metrics) != {m["name"] for m in wanted}:
                problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
            for m in wanted:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{m['name']}: {got}")
            if problems:
                print(f"FAIL {tag}: " + "; ".join(problems))
                return 1
            print(f"ok   {tag}: {len(metrics)} metrics, {res['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
