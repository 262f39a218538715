"""End-to-end runs of the command line, including exit codes and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "axisphere.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(*args, env=None):
    # the child imports the package from this checkout, installed or not
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def test_energy_json_and_determinism():
    a = run("energy", "--z", "-0.5,0.5", "--gamma", "1")
    b = run("energy", "--z", "-0.5,0.5", "--gamma", "1")
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte-identical reruns
    doc = json.loads(a.stdout)
    assert doc["total_over_pi"] == pytest.approx(3.9627827720882207, abs=1e-12)
    assert doc["meta"]["tool"] == "axisphere"
    assert len(doc["meta"]["config_sha256"]) == 64


def test_negative_values_after_flags_are_accepted():
    # tokens like -0.5,0.5 must not be mistaken for flags
    r = run("energy", "--z", "-0.9,-0.1", "--gamma", "2")
    assert r.returncode == 0, r.stderr


def test_usage_errors_exit_one():
    assert run("energy", "--z", "0.5,-0.5", "--gamma", "1").returncode == 1
    assert run("no-such-command").returncode == 1
    assert run("energy", "--gamma", "1").returncode == 1  # missing --z
    assert run("critical", "solve", "--gamma", "2").returncode == 1  # missing size
    # contradictory flags are refused, not silently resolved
    assert run("critical", "solve", "--n", "5", "--z", "-0.5,0.5", "--gamma", "2").returncode == 1
    assert run("critical", "continue", "--n", "3", "--z", "-0.5,0.5", "--gamma-start", "1", "--gamma-end", "2").returncode == 1
    assert run("escape", "--alpha", "0.6", "--z", "-0.3,0.1,0.1,0.8", "--gamma", "20").returncode == 1
    # check-uniform acts on --count and --gamma-max only
    for flag, value in (("--n", "7"), ("--z", "0.1,0.2"), ("--gamma", "3")):
        assert run("critical", "check-uniform", "--count", "4", flag, value).returncode == 1


def test_numerical_failures_exit_two():
    r = run("critical", "continue", "--n", "3", "--gamma-start", "1.05", "--gamma-end", "1e9", "--steps", "4")
    assert r.returncode == 2
    assert "numerical failure" in r.stderr


def test_sweep_csv(tmp_path):
    out = tmp_path / "grid.csv"
    r = run("sweep2", "--z1", "-0.8:-0.2:4", "--gamma", "1:2:2", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# axisphere ")
    assert lines[1].startswith("# config_sha256=")
    assert lines[2] == "z1,gamma,energy_over_pi"
    assert len(lines) == 3 + 4 * 2


def test_gamma_curve_branches():
    r3 = run("gamma-curve", "--branch", "3", "--z1", "0.5:0.5:1")
    row = r3.stdout.splitlines()[-1].split(",")
    assert float(row[1]) == pytest.approx(1.0034519430931814, rel=1e-12)
    assert row[2] == "3-interface"
    r4 = run("gamma-curve", "--branch", "4", "--z1", "0.75:0.75:1")
    assert float(r4.stdout.splitlines()[-1].split(",")[1]) == pytest.approx(15.607189587574723, rel=1e-12)


def test_critical_solve_and_uniform_check():
    r = run("critical", "solve", "--n", "3", "--gamma", "2")
    doc = json.loads(r.stdout)
    assert doc["residual"] <= 1e-11
    assert doc["z"][2] == pytest.approx(0.5906319456623301, abs=1e-10)
    u = json.loads(run("critical", "check-uniform", "--count", "4").stdout)
    assert u["critical_gamma"] == pytest.approx(15.607189587574723, rel=1e-12)
    u6 = json.loads(run("critical", "check-uniform", "--count", "6").stdout)
    assert u6["critical_gamma"] is None and u6["residual_floor"] >= 1e-3


def test_catalog_jsonl(tmp_path):
    cat = tmp_path / "branch.jsonl"
    r = run(
        "critical", "continue", "--n", "3",
        "--gamma-start", "1.05", "--gamma-end", "3", "--steps", "5",
        "--catalog", str(cat),
    )
    assert r.returncode == 0
    lines = cat.read_text().splitlines()
    assert "meta" in json.loads(lines[0])
    recs = [json.loads(ln) for ln in lines[1:]]
    assert len(recs) == 5
    for rec in recs:
        assert rec["min_gap"] >= 1e-4
        assert rec["residual"] <= 1e-11


def test_minimize_with_trace(tmp_path):
    trace = tmp_path / "descent.csv"
    r = run("minimize", "--z", "-0.4,0.6", "--gamma", "5", "--trace", str(trace))
    doc = json.loads(r.stdout)
    assert doc["pattern"]["z"][0] == pytest.approx(-0.5, abs=1e-6)
    assert doc["residual_max"] <= 1e-6
    body = trace.read_text().splitlines()
    assert body[2] == "cycle,energy_over_pi,max_move"
    energies = [float(ln.split(",")[1]) for ln in body[3:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_escape_modes():
    strong = json.loads(run("escape", "--alpha", "0.6", "--gamma", "1e4").stdout)
    assert strong["escaped"] is True and strong["mode"] == "pole-window"
    weak = json.loads(run("escape", "--alpha", "0.6", "--gamma", "0.1").stdout)
    assert weak["escaped"] is False
    merged = json.loads(run("escape", "--z", "-0.3,0.1,0.1,0.8", "--gamma", "20").stdout)
    assert merged["escaped"] is True and merged["mode"] == "merged"
    stuck = run("escape", "--z", "-0.5,1", "--gamma", "0.5")
    assert stuck.returncode == 0 and json.loads(stuck.stdout)["escaped"] is False


def test_stability_report_fields():
    doc = json.loads(run("stability", "--z", "-0.5,0.5", "--gamma", "0.8").stdout)
    assert doc["verdict"] == "certified-unstable"
    assert doc["mode"]["k"] == 0


def test_bounds_table():
    r = run("bounds", "--gamma", "0:1:3")
    rows = [ln for ln in r.stdout.splitlines() if not ln.startswith("#")]
    assert rows[0] == "gamma,z1_bound"
    assert rows[1] == "0.0,-0.5"  # zero-coupling limit is exact


def test_verify_subcommand():
    r = run("verify")
    assert r.returncode == 0
    assert "checks passed" in r.stdout
    assert "FAIL" not in r.stdout


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"z": "-0.5,0.5", "gamma": 2.5}))
    base = json.loads(run("energy", "--config", str(cfg)).stdout)
    assert base["gamma"] == 2.5
    over = json.loads(run("energy", "--config", str(cfg), "--gamma", "1").stdout)
    assert over["gamma"] == 1.0  # explicit flag wins
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run("energy", "--config", str(bad)).returncode == 1


def test_out_dir_env(tmp_path):
    env = dict(os.environ, AXISPHERE_OUT_DIR=str(tmp_path))
    r = run("bounds", "--gamma", "0:1:2", "--out", "tab.csv", env=env)
    assert r.returncode == 0
    assert (tmp_path / "tab.csv").exists()


def test_xi_dump():
    doc = json.loads(run("xi", "--z", "-0.5,0.5", "--samples", "3").stdout)
    assert doc["xi_nodes"][0] == 0.0 and doc["xi_nodes"][-1] == 0.0
    assert doc["slopes"] == [-1.0, 1.0, -1.0]
