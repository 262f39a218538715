"""The benchmark under ``perfbench/`` still runs against the library.

The benchmark calls the library through module attributes, positional
signatures and ``SolveOptions().tol``.  Each workload's warm-up runs one
operation at smoke size and checks it with the workload's own check, and
the traced run's probe makes four in-process CLI calls; a renamed or
re-signed function fails here instead of in a benchmark run.
"""

import importlib
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
