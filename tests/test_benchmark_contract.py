"""The benchmark under ``perfbench/`` still runs against the library.

The benchmark calls the library through module attributes, positional
signatures and ``SolveOptions().tol``.  Each workload's warm-up runs one
operation at smoke size and checks it with the workload's own check, and
the traced run's probe makes four in-process CLI calls.  The traced run
also installs the span tracer, counts the known defects and times the
per-layer scaling rows.  A renamed or re-signed function fails here
instead of in a benchmark run.
"""

import importlib
import inspect
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("branch", "descent", "scan", "cli")


@pytest.fixture
def perfbench(monkeypatch, tmp_path):
    """perfbench's modules importable, and its CLI children running this checkout with outputs under tmp_path."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.setenv("AXISPHERE_OUT_DIR", str(tmp_path))
    return importlib.import_module("workloads"), importlib.import_module("layers")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_warmup_passes_its_check(perfbench, tmp_path, name):
    workloads, _ = perfbench
    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES)
    cls = workloads.WORKLOADS[name]
    w = cls(smoke=True, out_dir=str(tmp_path)) if name == "cli" else cls(smoke=True)
    w.warmup()


def test_probe_calls_exit_zero(perfbench, tmp_path, capsys):
    _, layers = perfbench
    layers.probe(str(tmp_path))
    capsys.readouterr()
    assert all((tmp_path / fname).is_file() for fname, _ in layers.PROBE_CALLS)


def test_traced_run_library_calls(perfbench):
    """The tracer wraps and restores every attribute; the defect counts and scaling rows come out whole."""
    _, layers = perfbench
    spans = importlib.import_module("spans")
    mods = [importlib.import_module("axisphere"), *(importlib.import_module(f"axisphere.{m}") for m in spans.MODULES)]
    before = [{k: v for k, v in vars(mod).items() if inspect.isfunction(v)} for mod in mods]
    tracer = spans.Tracer()
    assert tracer.install() > 0
    try:
        layers.crit.make_pattern([-0.5, 0.5])  # criticality's import of the pattern module's function
        assert tracer.calls("pattern.make_pattern") == 1
    finally:
        tracer.uninstall()
    for mod, funcs in zip(mods, before):
        assert all(getattr(mod, k) is v for k, v in funcs.items()), mod.__name__
    defects = layers.known_defects()
    assert set(defects) == {"criticality.lost_branches", "minimizer.degenerate_results"}
    assert all(type(v) is int for v in defects.values())
    rows = layers.scaling_rows(1)
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"] if ".ms." in m["name"]]
    assert names and all(math.isfinite(rows[name]) for name in names)
