"""Runs of the command line through ``cli.main``, including exit codes and determinism.

All tests but three call ``main`` in this process; ``test_module_entry_point``
starts ``python -m axisphere.cli`` as a child process,
``test_numpy_free_subcommands_never_import_numpy`` a fresh interpreter, and
``test_each_subcommand_loads_only_its_own_modules`` one per README example.
"""

import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from axisphere import cli
from axisphere.criticality import SolveOptions
from axisphere.energy import total_energy
from axisphere.minimizer import MinimizeOptions
from axisphere.pattern import make_pattern

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def run(capsys):
    """Call ``cli.main``; argparse's exits arrive as SystemExit and count as exit codes."""

    def call(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)

    return call


def test_readme_commands_exit_zero(run, tmp_path, monkeypatch):
    """Every README line that starts with ``axisphere `` runs as written."""
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("axisphere ")]
    assert lines
    for line in lines:
        assert run(*shlex.split(line, comments=True)[1:]).returncode == 0, line


NUMPY_FREE = ("energy", "sweep2", "xi", "gamma-curve", "escape", "bounds", "critical solve", "critical continue",
              "critical check-uniform", "minimize")

_NUMPY_PROBE = """
import json, sys
from axisphere import cli
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:
        codes.append(exc.code)
sys.stderr.write(json.dumps([codes, "numpy" in sys.modules]) + "\\n")
"""


def test_numpy_free_subcommands_never_import_numpy(tmp_path):
    """One fresh interpreter runs the README examples of the subcommands that compute with floats alone, and
    --version: each exits 0 and numpy is never imported (the others import it once their handler runs)."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    argvs = [shlex.split(line, comments=True)[1:] for line in readme.read_text().splitlines()
             if any(line.startswith(f"axisphere {cmd} ") for cmd in NUMPY_FREE)]
    assert len(argvs) == 11  # escape has two modes
    env = dict(os.environ, PYTHONPATH=SRC, **{cli.OUT_DIR_ENV: str(tmp_path)})
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps([*argvs, ["--version"]])],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert codes == [0] * 12 and not loaded


_CRITICALITY = {"criticality", "energy", "potential", "pattern", "errors"}
# The library modules a process loads besides cli: those its command computes with, and theirs.
# Only verify runs the quadrature oracle, so only verify loads quadrature.
OWN_MODULES = {
    "energy": {"energy", "pattern", "errors"},
    "sweep2": {"energy", "pattern", "errors"},
    "xi": {"pattern", "errors"},
    "gamma-curve": _CRITICALITY,
    "critical solve": _CRITICALITY,
    "critical continue": _CRITICALITY,
    "critical check-uniform": _CRITICALITY,
    "bounds": _CRITICALITY,
    "minimize": _CRITICALITY | {"minimizer"},
    "escape": {"minimizer", "energy", "pattern", "errors"},
    "stability": _CRITICALITY | {"stability"},
    "verify": _CRITICALITY | {"minimizer", "stability", "quadrature", "verify"},
}

_MODULES_PROBE = """
import json, sys
from axisphere import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stderr.write(json.dumps([code, sorted(m for m in sys.modules if m.startswith("axisphere."))]) + "\\n")
"""


def test_each_subcommand_loads_only_its_own_modules(tmp_path):
    """A fresh interpreter per README example loads only its command's modules: energy and sweep2 load neither
    criticality nor minimizer, xi only pattern and errors, and only minimize, escape and verify load minimizer."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    env = dict(os.environ, PYTHONPATH=SRC, **{cli.OUT_DIR_ENV: str(tmp_path)})
    seen = set()
    for line in readme.read_text().splitlines():
        if not line.startswith("axisphere "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        cmd = " ".join(argv[:2]) if argv[0] == "critical" else argv[0]
        proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *argv], capture_output=True, text=True, env=env)
        code, loaded = json.loads(proc.stderr.splitlines()[-1])
        assert code == 0 and set(loaded) == {f"axisphere.{m}" for m in {"cli", *OWN_MODULES[cmd]}}, (line, loaded)
        seen.add(cmd)
    assert seen == OWN_MODULES.keys()


def test_module_entry_point():
    # the child imports the package from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))

    def spawn(*args):
        return subprocess.run([sys.executable, "-m", "axisphere.cli", *args], capture_output=True, text=True, env=env)

    a = spawn("energy", "--z", "-0.5,0.5", "--gamma", "1")
    b = spawn("energy", "--z", "-0.5,0.5", "--gamma", "1")
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte-identical across processes
    assert spawn("energy", "--gamma", "1").returncode == 1
    failed = spawn("critical", "solve", "--n", "3", "--gamma", "2", "--max-iter", "1")
    assert failed.returncode == 2 and "numerical failure" in failed.stderr


def test_energy_json_and_determinism(run):
    a = run("energy", "--z", "-0.5,0.5", "--gamma", "1")
    b = run("energy", "--z", "-0.5,0.5", "--gamma", "1")
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte-identical reruns
    doc = json.loads(a.stdout)
    assert doc["total_over_pi"] == pytest.approx(3.9627827720882207, abs=1e-12)
    assert doc["meta"]["tool"] == "axisphere"
    assert len(doc["meta"]["config_sha256"]) == 64


# One default invocation per subcommand and the config_sha256 of its artifact.
# The hash covers the resolved values of the flags that reach the library
# (not --config, --out, --catalog or --trace).  `critical` actions hash only
# their own flags, and escape hashes --alpha and --z, the one not given as null.
PINNED_HASHES = [
    pytest.param(("energy", "--z", "-0.5,0.5", "--gamma", "1"),
                 "712ced6d1d56a57f2b9fa61e715eba793d95dba6df0f663b73db40ad250094ef", id="energy"),
    pytest.param(("sweep2", "--z1", "-0.8:-0.2:4", "--gamma", "1:2:2"),
                 "11c669e8ac2e7290354fa711cbb79e83571cc7fc631c11c435e60e756ad8449e", id="sweep2"),
    pytest.param(("xi", "--z", "-0.5,0.5", "--samples", "3"),
                 "8ffa15e386f0eae39655a3056274c7b258ee8c6a4be87ec9abf1a154b6dc309d", id="xi"),
    pytest.param(("gamma-curve", "--branch", "3", "--z1", "0.5:0.5:1"),
                 "f07f978aef245509a5e6781c287f8bac0cf35fefe76a715e1f1b6714b9b288bc", id="gamma-curve"),
    pytest.param(("critical", "solve", "--n", "3", "--gamma", "2"),
                 "25504ba1250a0ba13a316bf8f9ce70c8752c513e5038fbadfdfa63edd511bb7d", id="critical-solve"),
    pytest.param(("critical", "continue", "--n", "3", "--gamma-start", "1.05", "--gamma-end", "3", "--steps", "5"),
                 "10b6ba9994105c8178f1da823dee3d14d97023052a5273449d21df46fada5fdf", id="critical-continue"),
    pytest.param(("critical", "check-uniform", "--count", "4"),
                 "a5fb8eb97856970b61d9f466deb64f7659e835ee8ec5497003b78438fe888cad", id="critical-check-uniform"),
    pytest.param(("minimize", "--z", "-0.4,0.6", "--gamma", "5"),
                 "002c37a51d0c40a4e3a93151b8ead4ddff67964d5116e93370057c95b174cc93", id="minimize"),
    pytest.param(("escape", "--alpha", "0.6", "--gamma", "1e4"),
                 "5efd7e399c9529cb5c312a910acf852fcee48c1349cd2fa1a09f4f7879af9656", id="escape-alpha"),
    pytest.param(("escape", "--z", "-0.3,0.1,0.1,0.8", "--gamma", "20"),
                 "4041b89c16bd90e0d833572ca2f8b34582adcb422f7bff7e84cb9e985e82bd49", id="escape-z"),
    pytest.param(("stability", "--z", "-0.5,0.5", "--gamma", "0.8"),
                 "4878de07d99363a4a7b94c82e2ea5feb51cb1443e463fcfc2462031c55d8dbb0", id="stability"),
    pytest.param(("bounds", "--gamma", "0:1:3"),
                 "832c4eb3e0aeb1d16ab860c4b8b5b1059eb1b2bd5ce97f5182b766d373e72650", id="bounds"),
    pytest.param(("verify",),
                 "cdb86af766cf588049688c3756d6f54ab9d23df1dcc05c293dad7d4228f723bd", id="verify"),
]


@pytest.mark.parametrize("argv, sha", PINNED_HASHES)
def test_config_hashes_are_pinned(run, argv, sha):
    r = run(*argv)
    assert r.returncode == 0, r.stderr
    assert f"config_sha256={sha}" in r.stdout or f'"config_sha256": "{sha}"' in r.stdout


def test_negative_values_after_flags_are_accepted(run):
    # tokens like -0.5,0.5 must not be mistaken for flags
    r = run("energy", "--z", "-0.9,-0.1", "--gamma", "2")
    assert r.returncode == 0, r.stderr


SOLVE = ("critical", "solve", "--n", "3", "--gamma", "2")
CONTINUE = ("critical", "continue", "--n", "3", "--gamma-start", "1.05", "--gamma-end", "2")
UNIFORM = ("critical", "check-uniform", "--count", "4")


@pytest.mark.parametrize("argv, options", [
    pytest.param(SOLVE, SolveOptions(), id="critical-solve"),
    pytest.param(CONTINUE, SolveOptions(), id="critical-continue"),
    pytest.param(("minimize", "--z=-0.4,0.6", "--gamma", "5"), MinimizeOptions(), id="minimize"),
])
def test_flags_left_out_take_the_library_options(argv, options):
    """The Newton and descent flags default to the fields of SolveOptions() and MinimizeOptions(), their one owner."""
    args = cli.build_parser().parse_args(argv)
    assert {f.name: getattr(args, f.name) for f in fields(options)} == asdict(options)


def test_usage_errors_exit_one(run):
    assert run("energy", "--z", "0.5,-0.5", "--gamma", "1").returncode == 1
    assert run("no-such-command").returncode == 1
    assert run("energy", "--gamma", "1").returncode == 1  # missing --z
    assert run("critical", "solve", "--gamma", "2").returncode == 1  # missing size
    # contradictory flags are refused, not silently resolved
    assert run("critical", "solve", "--n", "5", "--z", "-0.5,0.5", "--gamma", "2").returncode == 1
    assert run("critical", "continue", "--n", "3", "--z", "-0.5,0.5", "--gamma-start", "1", "--gamma-end", "2").returncode == 1
    assert run("escape", "--alpha", "0.6", "--z", "-0.3,0.1,0.1,0.8", "--gamma", "20").returncode == 1
    assert run("escape", "--gamma", "20").returncode == 1  # neither --alpha nor --z
    # each critical action takes only its own flags
    ignored = {
        UNIFORM: [("--n", "7"), ("--z", "0.1,0.2"), ("--gamma", "3"), ("--tol", "1e-9"), ("--max-iter", "5"),
                  ("--init", "stretch"), ("--m-target", "0.1"), ("--steps", "4"), ("--gamma-start", "1"),
                  ("--gamma-end", "2"), ("--catalog", "u.jsonl")],
        SOLVE: [("--steps", "4"), ("--gamma-start", "1"), ("--gamma-end", "2"), ("--count", "4"),
                ("--catalog", "s.jsonl")],
        CONTINUE: [("--gamma", "3"), ("--count", "4")],
    }
    for base, extras in ignored.items():
        for flag, value in extras:
            r = run(*base, flag, value)
            assert r.returncode == 1 and "error:" in r.stderr, (base, flag)
    assert run(*CONTINUE, "--catalog", "a.jsonl", "--out", "b.jsonl").returncode == 1
    # the uniform floor is exact over every coupling: no sweep bound to set
    r = run("critical", "check-uniform", "--count", "6", "--gamma-max", "10")
    assert r.returncode == 1 and "unrecognized arguments: --gamma-max 10" in r.stderr
    # --init only picks the guess for --n
    for base in (SOLVE, CONTINUE):
        assert run(*base[:2], "--z", "-0.5,0,0.5", "--init", "stretch", *base[4:]).returncode == 1
    assert run("escape", "--z", "-0.3,0.1,0.1,0.8", "--gamma", "20", "--samples", "5").returncode == 1
    # values from outside the program are range-checked before they reach the library
    for argv in (
        ("xi", "--z", "-0.5,0.5", "--samples", "-3"),
        ("verify", "--seed", "-1"),
        ("energy", "--z", "-0.5,0.5", "--gamma", "nan"),
        ("critical", "solve", "--n", "3", "--gamma", "2", "--max-iter", "0"),
        ("minimize", "--z", "-0.4,0.6", "--gamma", "5", "--max-cycles", "0"),
        ("critical", "solve", "--n", "3", "--gamma", "2", "--tol", "-1"),
        ("critical", "continue", "--n", "3", "--gamma-start", "1", "--gamma-end", "2", "--tol", "0"),
    ):
        r = run(*argv)
        assert r.returncode == 1 and f"argument {argv[-2]}:" in r.stderr, argv
    # list and range values must be finite too
    for argv in (
        ("bounds", "--gamma", "nan,1"),
        ("bounds", "--gamma", "0:inf:3"),
        ("sweep2", "--z1", "-0.5:-0.2:2", "--gamma", "nan"),
    ):
        r = run(*argv)
        assert r.returncode == 1 and "finite" in r.stderr and not r.stdout, argv
    # a size too large to allocate ends in one line: 728 TiB exceeds the address space, so no memory is touched,
    # and past 2**63 no size fits an index at all
    for argv in (
        ("bounds", "--gamma", "0:1:100000000000000"),
        ("xi", "--z", "0.5", "--samples", "100000000000000"),
        ("xi", "--z", "0.5", "--samples", "1000000000000000000000000"),
        ("stability", "--z", "-0.5,0.5", "--gamma", "1", "--K", "100000000000000"),
        ("stability", "--z", "-0.5,0.5", "--gamma", "1", "--K", "1000000000000000000000000"),
        ("critical", "continue", "--n", "3", "--gamma-start", "1", "--gamma-end", "2", "--steps",
         "1000000000000000000000000"),
        ("critical", "solve", "--n", "100000000000000", "--gamma", "2"),
        ("critical", "check-uniform", "--count", "100000000000000"),
    ):
        r = run(*argv)
        assert r.returncode == 1 and not r.stdout, argv
        assert r.stderr.startswith("axisphere: error: Unable to allocate") and r.stderr.count("\n") == 1, argv
    # no abbreviated flags
    assert run("minimize", "--z", "-0.4,0.6", "--gamma", "5", "--max", "3").returncode == 1
    assert run("energy", "--z", "-0.5,0.5", "--gam", "1").returncode == 1


def test_numerical_failures_exit_two(run):
    for end, steps in (("1e9", "4"), ("1e308", "3")):  # 1e308: the frame Hessian overflows past gamma ~ 1e154
        r = run("critical", "continue", "--n", "3", "--gamma-start", "1.05", "--gamma-end", end, "--steps", steps)
        assert r.returncode == 2
        assert r.stderr.startswith("axisphere: numerical failure: corrector failed twice") and r.stderr.count("\n") == 1
    # a start the corrector cannot solve is the branch's own first failure, reported once
    r = run("critical", "continue", "--n", "16", "--gamma-start", "1e5", "--gamma-end", "2e5", "--steps", "3")
    assert r.returncode == 2 and not r.stdout
    assert r.stderr.startswith("axisphere: numerical failure: no solution at branch start") and r.stderr.count("\n") == 1


def test_solver_names_a_coupling_overflow(run):
    """Past the float range the frame system overflows, and the solver says so with gamma, not "singular"."""
    for n, gamma in (("8", "1e200"), ("16", "1e160"), ("3", "1e308"), ("2", "1e308")):
        r = run("critical", "solve", "--n", n, "--gamma", gamma)
        assert r.returncode == 2 and not r.stdout, (n, gamma)
        assert r.stderr.startswith(f"axisphere: numerical failure: frame system overflows at gamma={float(gamma)!r} "
                                   "at iteration 0: max|r| = ") and r.stderr.count("\n") == 1, (n, gamma)
    # the rows scale their potential part, not 4 gamma, so a coupling within range of the rows still solves
    r = run("critical", "solve", "--n", "2", "--gamma", "5e307")
    assert r.returncode == 0 and json.loads(r.stdout)["residual"] == 0.0


def test_descent_at_huge_gamma_exits_zero(run):
    """The frame Hessian's squared off-diagonal overflows to inf from gamma ~ 1e154, not to an OverflowError."""
    r = run("minimize", "--z", "-0.6,-0.1,0.5", "--gamma", "1e160")
    assert r.returncode == 0 and r.stderr == ""
    assert json.loads(r.stdout)["pattern"]["m"] == 0.0


def test_sweep_csv(run, tmp_path):
    out = tmp_path / "grid.csv"
    r = run("sweep2", "--z1", "-0.8:-0.2:4", "--gamma", "1:2:2", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# axisphere ")
    assert lines[1].startswith("# config_sha256=")
    assert lines[2] == "z1,gamma,energy_over_pi"
    assert len(lines) == 3 + 4 * 2


def test_gamma_curve_branches(run):
    r3 = run("gamma-curve", "--branch", "3", "--z1", "0.5:0.5:1")
    row = r3.stdout.splitlines()[-1].split(",")
    assert float(row[1]) == pytest.approx(1.0034519430931814, rel=1e-12)
    assert row[2] == "3-interface"
    r4 = run("gamma-curve", "--branch", "4", "--z1", "0.75:0.75:1")
    assert float(r4.stdout.splitlines()[-1].split(",")[1]) == pytest.approx(15.607189587574723, rel=1e-12)


def test_gamma_curve_skips_points_outside_the_domain(run):
    """Past z1 ~ 0.69 the three-interface coupling is negative: a stderr line per point, no row, exit 0."""
    r = run("gamma-curve", "--branch", "3", "--z1", "0.05:0.95:10")
    assert r.returncode == 0
    skipped = [ln.split()[1] for ln in r.stderr.splitlines()]
    assert skipped == ["z1=0.75:", "z1=0.85:", "z1=0.95:"]
    assert all(ln.endswith("outside the reported domain") for ln in r.stderr.splitlines())
    rows = [ln.split(",") for ln in r.stdout.splitlines()[3:]]
    assert [float(z1) for z1, _, _ in rows] == pytest.approx([0.05 + 0.1 * i for i in range(7)], abs=1e-15)
    assert all(float(g) > 0.0 for _, g, _ in rows)
    # a point the curve itself refuses (z1 = 0 is outside its domain) is skipped with the curve's message
    r = run("gamma-curve", "--branch", "3", "--z1", "0:0.5:3")
    assert r.returncode == 0
    assert r.stderr.startswith("skipping z1=0.0: ") and len(r.stderr.splitlines()) == 1
    assert [float(ln.split(",")[0]) for ln in r.stdout.splitlines()[3:]] == [0.25, 0.5]
    # heights too small for an absolute denominator test still reach the curve's limit 1/4
    r = run("gamma-curve", "--branch", "3", "--z1", "1e-300,1e-13,0.5")
    assert r.returncode == 0 and r.stderr == ""
    assert [float(ln.split(",")[0]) for ln in r.stdout.splitlines()[3:]] == [1e-300, 1e-13, 0.5]


def test_sweep2_reaches_the_single_cap_limit(run):
    """At z1 = 0 the upper band closes on the pole and the sweep reports the single cap at the equator.

    The vanishing cap's circle has radius sqrt(2 |z1|) to first order, so
    (E(z1) - E(0)) / pi approaches 2 sqrt(2 |z1|), up to O(gamma |z1|).
    """
    r = run("sweep2", "--z1", "-1e-6,-1e-8,0", "--gamma", "1,10")
    assert r.returncode == 0
    e = {(z1, g): e for z1, g, e in (map(float, ln.split(",")) for ln in r.stdout.splitlines()[3:])}
    for g in (1.0, 10.0):
        assert e[(0.0, g)] == pytest.approx(total_energy(make_pattern([0.0]), g).total_over_pi, rel=1e-14)
        for z1 in (-1e-6, -1e-8):
            rate = (e[(z1, g)] - e[(0.0, g)]) / math.sqrt(-z1)
            assert abs(rate - 2.0 * math.sqrt(2.0)) <= 10.0 * g * math.sqrt(-z1)
    # where z1 + 1 rounds to 1 the upper band has already closed: every row is the z1 = 0 row
    r = run("sweep2", "--z1", "-1e-300,-5e-17,0", "--gamma", "1,10")
    assert r.returncode == 0 and r.stderr == ""
    rows = [ln.split(",") for ln in r.stdout.splitlines()[3:]]
    assert [float(z1) for z1, _, _ in rows] == [-1e-300, -1e-300, -5e-17, -5e-17, 0.0, 0.0]
    assert [(g, e) for _, g, e in rows[:2]] == [(g, e) for _, g, e in rows[2:4]] == [(g, e) for _, g, e in rows[4:]]


def test_critical_solve_and_uniform_check(run):
    r = run("critical", "solve", "--n", "3", "--gamma", "2")
    doc = json.loads(r.stdout)
    assert doc["residual"] <= 1e-11
    assert doc["z"][2] == pytest.approx(0.5906319456623301, abs=1e-10)
    u = json.loads(run("critical", "check-uniform", "--count", "4").stdout)
    assert u["critical_gamma"] == pytest.approx(15.607189587574723, rel=1e-12)
    u6 = json.loads(run("critical", "check-uniform", "--count", "6").stdout)
    assert u6["critical_gamma"] is None and u6["residual_floor"] >= 1e-3


def test_catalog_jsonl(run, tmp_path):
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
        assert set(rec) == {"n", "gamma", "z", "lambda", "residual", "min_gap"}
        assert rec["min_gap"] >= 1e-4
        assert rec["residual"] <= 1e-11
    # the first point is `critical solve` at --gamma-start, field by field
    solved = json.loads(run("critical", "solve", "--n", "3", "--gamma", "1.05").stdout)
    for key, value in recs[0].items():
        assert solved[key] == value, key
    # --out writes the same catalog
    out = tmp_path / "same.jsonl"
    assert run(*r.args[:-2], "--out", str(out)).returncode == 0
    assert out.read_text() == cat.read_text()


def test_minimize_with_trace(run, tmp_path):
    """The README example ends exactly on the double cap (-0.5, 0.5), where its Newton step lands.

    A frame drop below the rounding of the frame energy is not a move, so
    the stopping sweep does not drift off that point or raise the trace.
    """
    trace = tmp_path / "descent.csv"
    r = run("minimize", "--z", "-0.4,0.6", "--gamma", "5", "--trace", str(trace))
    doc = json.loads(r.stdout)
    assert doc["pattern"]["z"] == [-0.5, 0.5]
    assert doc["residual_max"] == 0.0
    body = trace.read_text().splitlines()
    assert body[2] == "cycle,energy_over_pi,max_move"
    energies = [float(ln.split(",")[1]) for ln in body[3:]]
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_escape_modes(run):
    strong = json.loads(run("escape", "--alpha", "0.6", "--gamma", "1e4").stdout)
    assert strong["escaped"] is True and strong["mode"] == "pole-window"
    weak = json.loads(run("escape", "--alpha", "0.6", "--gamma", "0.1").stdout)
    assert weak["escaped"] is False
    merged = json.loads(run("escape", "--z", "-0.3,0.1,0.1,0.8", "--gamma", "20").stdout)
    assert merged["escaped"] is True and merged["mode"] == "merged"
    stuck = run("escape", "--z", "-0.5,1", "--gamma", "0.5")
    assert stuck.returncode == 0 and json.loads(stuck.stdout)["escaped"] is False


def test_stability_report_fields(run):
    doc = json.loads(run("stability", "--z", "-0.5,0.5", "--gamma", "0.8").stdout)
    assert doc["verdict"] == "certified-unstable"
    assert doc["mode"]["k"] == 0


def test_bounds_table(run):
    r = run("bounds", "--gamma", "0:1:3")
    rows = [ln for ln in r.stdout.splitlines() if not ln.startswith("#")]
    assert rows[0] == "gamma,z1_bound"
    assert rows[1] == "0.0,-0.5"  # zero-coupling limit is exact
    r = run("bounds", "--gamma", "1e307,1e308")
    assert r.stdout.splitlines()[-2:] == ["1e+307,-1.0", "1e+308,-1.0"]  # a^2 overflows: the bound is -1


def test_verify_subcommand(run):
    r = run("verify")
    assert r.returncode == 0
    assert "checks passed" in r.stdout
    assert "FAIL" not in r.stdout


def test_config_file_merge(run, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"z": "-0.5,0.5", "gamma": 2.5}))
    base = json.loads(run("energy", "--config", str(cfg)).stdout)
    assert base["gamma"] == 2.5
    over = json.loads(run("energy", "--config", str(cfg), "--gamma", "1").stdout)
    assert over["gamma"] == 1.0  # explicit flag wins
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert run("energy", "--config", str(bad)).returncode == 1
    # a nested command takes the file's values after its whole path
    solve = tmp_path / "solve.json"
    solve.write_text(json.dumps({"n": 3, "gamma": 2.0}))
    from_file = run("critical", "solve", "--config", str(solve))
    assert from_file.returncode == 0, from_file.stderr
    assert from_file.stdout == run("critical", "solve", "--n", "3", "--gamma", "2").stdout


@pytest.mark.parametrize("text", ["0:1", "0:1:0", "0:1:1", "a,b"])
def test_malformed_ranges_exit_one(run, text):
    r = run("bounds", "--gamma", text)
    assert r.returncode == 1 and "error:" in r.stderr and not r.stdout


def test_config_file_shapes(run, tmp_path, monkeypatch):
    """The file holds a JSON object; a list value is a comma list of floats, and null means not given."""
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([["z", "-0.5,0.5"], ["gamma", 2.5]]))
    r = run("energy", "--config", str(listed))
    assert r.returncode == 1 and "JSON object" in r.stderr
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"z": [-0.5, 0.5], "gamma": 2.5}))
    from_file = run("energy", "--config", str(cfg))
    assert from_file.returncode == 0, from_file.stderr
    assert from_file.stdout == run("energy", "--z", "-0.5,0.5", "--gamma", "2.5").stdout
    cfg.write_text(json.dumps({"z": ["-0.5", "0.5"], "gamma": 2.5}))  # numeric strings convert
    assert run("energy", "--config", str(cfg)).stdout == from_file.stdout
    for bad in ({"z": ["a", 0.5], "gamma": 1}, {"z": [None, 0.5]}, {"z": [[0.5]]}):
        cfg.write_text(json.dumps(bad))
        r = run("energy", "--config", str(cfg))
        assert r.returncode == 1 and "error:" in r.stderr and "Traceback" not in r.stderr, bad
    # a null value is a flag not given
    monkeypatch.setenv("AXISPHERE_OUT_DIR", str(tmp_path))
    cfg.write_text(json.dumps({"z": [-0.5, 0.5], "gamma": 2.5, "out": None}))
    assert run("energy", "--config", str(cfg)).stdout == from_file.stdout
    assert not (tmp_path / "None").exists()
    cfg.write_text(json.dumps({"n": 3, "gamma": 2, "init": None}))
    solved = run("critical", "solve", "--config", str(cfg))
    assert solved.returncode == 0, solved.stderr
    assert solved.stdout == run("critical", "solve", "--n", "3", "--gamma", "2").stdout


def test_out_dir_env(run, tmp_path, monkeypatch):
    monkeypatch.setenv("AXISPHERE_OUT_DIR", str(tmp_path))
    r = run("bounds", "--gamma", "0:1:2", "--out", "tab.csv")
    assert r.returncode == 0
    assert (tmp_path / "tab.csv").exists()


def test_xi_dump(run):
    doc = json.loads(run("xi", "--z", "-0.5,0.5", "--samples", "3").stdout)
    assert doc["xi_nodes"][0] == 0.0 and doc["xi_nodes"][-1] == 0.0
    assert doc["slopes"] == [-1.0, 1.0, -1.0]
