"""Command-line front end.

Every subcommand resolves its parameters from flags, optionally seeded by
a JSON config file that mirrors the flag names (flags override the file),
and emits CSV or JSON with the tool version and a sha256 hash of the
resolved parameters embedded, so identical configurations produce
byte-identical artifacts.

Each subcommand, and each `critical` action, takes only the flags it acts
on; flags shown as `A | B` in its usage exclude each other.  Unknown,
ignored or abbreviated flags exit 1, and so do values out of range:
couplings must be finite, --tol positive, --seed and xi's --samples at
least 0.  A flag left out takes the library's default (but stability's --K
of 32 is the command line's own), and a config value of null counts as left
out.  check-uniform's residual_floor is the least max residual row over
every gamma >= 0, exact.

Exit codes: 0 success, 1 usage or input error (a size too large to
allocate included), 2 numerical failure (no convergence, tolerance not
met, lost branch, asymptote hit), 3 self-verification failure.

Ranges are written start:end:count, inclusive of both endpoints.
Relative --out paths resolve under $AXISPHERE_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys

from . import __version__
from .errors import Asymptote, AxisphereError, NoEscape, NumericalFailure, OutOfRange
from .pattern import _linspace, make_pattern, xi_eval, xi_profile

TOOL = "axisphere"
OUT_DIR_ENV = "AXISPHERE_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse variant exiting 1 (not 2) on usage errors.

    A command's parser holds the flags of its command-table row in ``flags``
    and adds them when argparse routes a command line to it, so a process
    builds, and imports the library defaults of, its own command's flags alone.
    """

    flags = None

    def parse_known_args(self, args=None, namespace=None):
        if self.flags is not None:
            _add_flags(self, self.flags() if callable(self.flags) else self.flags)
            self.flags = None
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# ------------------------------------------------------------ value parsing


def parse_floats(text: str) -> tuple[float, ...]:
    """Comma-separated list of finite floats."""
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise OutOfRange(f"not a comma-separated float list: {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise OutOfRange(f"values must be finite, got {text!r}")
    return values


def parse_range(text: str) -> tuple[float, ...]:
    """start:end:count (inclusive), or an explicit comma list of values."""
    if ":" not in text:
        return parse_floats(text)
    try:
        start, end, count = text.split(":")  # a wrong number of parts raises ValueError too
        start, end, count = float(start), float(end), int(count)
    except ValueError:
        raise OutOfRange(f"range must be start:end:count, got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(end)):
        raise OutOfRange(f"range ends must be finite, got {text!r}")
    if count < 1:
        raise OutOfRange("range count must be positive")
    if count == 1 and start != end:
        raise OutOfRange("a single-point range needs start == end")
    return tuple(_linspace(start, end, count))


def _checked(kind, ok, what: str):
    """argparse type: kind(text), refused unless ok(value); the value itself is unchanged."""

    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{what}, got {text!r}")
        return value

    convert.__name__ = kind.__name__  # argparse's "invalid float value" message names it
    return convert


FINITE = _checked(float, math.isfinite, "must be finite")
POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "must be positive and finite")
NONNEGATIVE_INT = _checked(int, lambda v: v >= 0, "must be at least 0")
POSITIVE_INT = _checked(int, lambda v: v >= 1, "must be at least 1")


def _join_dash_values(argv: list[str]) -> list[str]:
    """Join a value that starts with a minus sign to its flag, so `--z -0.5,0.5` is not read as a flag."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-\.?\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _splice_config(argv: list[str]) -> list[str]:
    """Insert config-file values as flags right after the command path.

    Explicit flags come later in the stream and therefore win.
    """
    pre = _Parser(prog=TOOL, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise OutOfRange("config file must hold a JSON object of flag values")
    tokens: list[str] = []
    for key, val in sorted(cfg.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(val, dict):
            raise OutOfRange(f"config value {key!r} must be a flag value, not an object: {val!r}")
        if isinstance(val, list):
            try:
                val = ",".join(repr(float(v)) for v in val)
            except (TypeError, ValueError):
                raise OutOfRange(f"config value {key!r} must be a list of numbers, got {val!r}") from None
        if val is not None and val is not False:  # null is not given; a switch set to false stays off
            tokens.append(flag if val is True else f"{flag}={val}")
    depth = max((len(p) for p, *_ in COMMANDS if tuple(argv[: len(p)]) == p), default=0)
    return [*argv[:depth], *tokens, *argv[depth:]]


# ----------------------------------------------------------------- emission


def _meta(args: argparse.Namespace) -> dict:
    skip = {"func", "cmd", "action", "config", "out", "trace"}
    cfg = {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(vars(args).items()) if k not in skip}
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return {"tool": TOOL, "version": __version__, "config_sha256": hashlib.sha256(canon.encode()).hexdigest()}


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    # an absolute path replaces the base in os.path.join
    with open(os.path.join(os.environ.get(OUT_DIR_ENV, ""), path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv(args: argparse.Namespace, header: str, rows) -> str:
    """Version and config-hash preamble, header, rows: str cells as is, every other cell as its repr."""
    body = "".join(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n" for row in rows)
    return f"# {TOOL} {__version__}\n# config_sha256={_meta(args)['config_sha256']}\n{header}\n{body}"


# -------------------------------------------------------------- subcommands
#
# A handler returns a dict (written as JSON under a meta block), a str (written
# as is), or an exit code after writing its own output.  Every column and field
# name of the artifacts is written in this module; the JSON field maps follow.
# Each handler imports the library functions it calls, so a process loads only
# the modules its own command computes with.


def _energy_fields(br) -> dict:
    return {"perimeter": br.perimeter, "nonlocal": br.nonlocal_, "total": br.total, "total_over_pi": br.total_over_pi}


def _catalog_fields(cp) -> dict:
    """One solved point, as `critical solve` prints it and as one `critical continue` line."""
    p = cp.pattern
    return {"n": p.n, "gamma": cp.gamma, "z": list(p.z), "lambda": cp.lam, "residual": cp.residual_norm,
            "min_gap": p.min_gap()}


def _stability_fields(rep) -> dict:
    return {
        "gamma": rep.gamma,
        "K": rep.K,
        "min_eig": rep.min_eig,
        "mode": {"circle": rep.mode_circle, "k": rep.mode_k, "parity": rep.mode_parity},
        "certificates": {"single_mode": list(rep.single_mode_values), "axisym_pm": rep.axisym_pm_value},
        "verdict": rep.verdict,
    }


def cmd_energy(args):
    from .energy import total_energy

    p = make_pattern(parse_floats(args.z), expect_mass=args.m_target)
    br = total_energy(p, args.gamma)
    return {"z": list(p.z), "m": p.m, "gamma": args.gamma, **_energy_fields(br), "per_segment": list(br.per_segment)}


def cmd_sweep2(args):
    from .energy import two_interface_grid

    grid = two_interface_grid(parse_range(args.z1), parse_range(args.gamma))
    rows = ((z1, g, e) for z1, row in zip(grid.z1, grid.energy_over_pi) for g, e in zip(grid.gamma, row))
    return _csv(args, "z1,gamma,energy_over_pi", rows)


def cmd_xi(args):
    p = make_pattern(parse_floats(args.z))
    prof = xi_profile(p)
    payload = {
        "z": list(p.z),
        "m": p.m,
        "nodes_z": list(p.nodes()),
        "xi_nodes": list(prof.nodes),
        "slopes": list(prof.slopes),
    }
    if args.samples:
        payload["sample_z"] = _linspace(-1.0, 1.0, args.samples)
        payload["sample_xi"] = xi_eval(p, payload["sample_z"])
    return payload


def _start(args):
    """Start pattern from --z, or the --init guess for --n; returns it, its label and the Newton options."""
    from .criticality import SolveOptions, initial_guess

    if args.z is not None:
        init, label = make_pattern(parse_floats(args.z)), "explicit"
        if args.n is not None and args.n != init.n:
            raise OutOfRange(f"--n {args.n} contradicts the {init.n} heights of --z")
    elif args.n is None:
        raise OutOfRange(f"critical {args.action} needs --n or --z")
    else:
        label = args.init or "uniform"
        init = initial_guess(args.n, label)
    return init, label, SolveOptions(tol=args.tol, max_iter=args.max_iter, m_target=args.m_target)


def cmd_solve(args):
    from .criticality import lambda_spread, solve_critical, stretched_gap_variance

    init, label, opts = _start(args)
    cp = solve_critical(init.n, args.gamma, init, opts, init_label=label)
    trace = cp.trace
    return {
        **_catalog_fields(cp),
        "lambda_spread": lambda_spread(cp.pattern, cp.gamma),
        "trace": {"iterations": trace.iterations, "damping_events": trace.damping_events, "init": trace.init_label},
        "stretched_gap_variance": stretched_gap_variance(cp.pattern),
    }


def cmd_continue(args):
    """Trace the branch from the start pattern as JSON lines; its first point is the solve at --gamma-start."""
    from .criticality import continue_gamma

    init, _, opts = _start(args)
    points = continue_gamma(init.n, args.gamma_start, args.gamma_end, args.steps, init, opts)
    return "".join(json.dumps(rec) + "\n" for rec in [{"meta": _meta(args)}, *map(_catalog_fields, points)])


def cmd_gamma_curve(args):
    from .criticality import gamma_of_z1_3, gamma_of_z1_4

    curve = gamma_of_z1_3 if args.branch == 3 else gamma_of_z1_4
    tag = f"{args.branch}-interface"
    rows = []
    for z1 in parse_range(args.z1):
        try:
            g = curve(z1)
        except (Asymptote, OutOfRange) as exc:
            sys.stderr.write(f"skipping z1={z1!r}: {exc}\n")
            continue
        if g <= 0.0 or not math.isfinite(g):
            sys.stderr.write(f"skipping z1={z1!r}: coupling {g!r} outside the reported domain\n")
            continue
        rows.append((z1, g, tag))
    return _csv(args, "z1,gamma,branch", rows)


def cmd_check_uniform(args):
    from .criticality import uniform_criticality_check

    return uniform_criticality_check(args.count)._asdict()


def cmd_minimize(args):
    from .criticality import residuals
    from .minimizer import MinimizeOptions, local_minimize

    p0 = make_pattern(parse_floats(args.z), expect_mass=args.m_target)
    opts = MinimizeOptions(max_cycles=args.max_cycles, symmetric=args.symmetric)
    result = local_minimize(p0, args.gamma, opts)
    if args.trace:
        rows = ((r.cycle, r.energy_over_pi, r.max_move) for r in result.cycles)
        _write_text(args.trace, _csv(args, "cycle,energy_over_pi,max_move", rows))
    res = residuals(result.pattern, args.gamma, m_target=result.pattern.m)
    return {
        "start_z": list(p0.z),
        "gamma": args.gamma,
        "pattern": {"z": list(result.pattern.z), "m": result.pattern.m},
        "energy": _energy_fields(result.energy),
        "cycles": len(result.cycles),
        "residual_max": max(map(abs, res)),
    }


def cmd_escape(args):
    from .energy import total_energy
    from .minimizer import BoundaryPattern, boundary_escape, escape_pole_frame

    if args.alpha is not None:
        probe = escape_pole_frame(args.alpha, args.gamma)
        return {"mode": "pole-window", **probe._asdict(), "escaped": probe.escaped}
    bp = BoundaryPattern(z=parse_floats(args.z))
    base = {"mode": bp.kind, "z": list(bp.z), "gamma": args.gamma}
    try:
        moved = boundary_escape(bp, args.gamma)
    except NoEscape as exc:
        return {**base, "escaped": False, "detail": str(exc)}
    br = total_energy(moved, args.gamma)
    return {**base, "escaped": True, "pattern": {"z": list(moved.z), "m": moved.m}, "total_over_pi": br.total_over_pi}


def cmd_stability(args):
    from .stability import stability_report

    return _stability_fields(stability_report(make_pattern(parse_floats(args.z)), args.gamma, K=args.K))


def cmd_bounds(args):
    from .criticality import polar_cap_bound

    return _csv(args, "gamma,z1_bound", ((g, polar_cap_bound(g)) for g in parse_range(args.gamma)))


def cmd_verify(args):
    from .verify import run_verify

    checks = run_verify(seed=args.seed)
    lines = [f"# {TOOL} {__version__} config_sha256={_meta(args)['config_sha256']} seed={args.seed}"]
    for c in checks:
        lines.append(f"{'ok  ' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    failed = [c for c in checks if not c.passed]
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 3 if failed else 0


# ------------------------------------------------------------ the command table
#
# Rows are (command path, help, handler, flags); a row without a handler holds
# the actions after it.  A flag is (name, argparse keywords); a list of flags is
# a mutually exclusive group, required when its flags are.  A row whose flags
# default to a library's options gives them as a function, which imports those
# options when its parser is used.  Every command also takes --config and,
# unless one of its groups holds it, --out.

_OUT = ("--out", dict(help=f"output path (relative paths resolve under ${OUT_DIR_ENV})"))
_CONFIG = ("--config", dict(help="JSON file of flag values (flags override)"))
_Z = ("--z", dict(required=True, help="comma-separated interface heights"))
_GAMMA = ("--gamma", dict(type=FINITE, required=True))
_RANGE = "range start:end:count"
_N = ("--n", dict(type=int, help="interface count"))
_START = [
    ("--init", dict(choices=["uniform", "stretch"], help="initial guess for --n (default uniform)")),
    ("--z", dict(help="explicit initial interfaces (--n, if given, must match)")),
]


def _newton():
    """The Newton flags of `critical solve` and `continue`, defaulting to SolveOptions' fields."""
    from .criticality import SolveOptions

    return (
        ("--m-target", dict(type=FINITE, default=SolveOptions._field_defaults["m_target"])),
        ("--tol", dict(type=POSITIVE, default=SolveOptions._field_defaults["tol"])),
        ("--max-iter", dict(type=POSITIVE_INT, default=SolveOptions._field_defaults["max_iter"])),
    )


def _max_cycles():
    """minimize's --max-cycles, defaulting to MinimizeOptions' field."""
    from .minimizer import MinimizeOptions

    return ("--max-cycles", dict(type=POSITIVE_INT, default=MinimizeOptions._field_defaults["max_cycles"]))


COMMANDS = (
    (("energy",), "energy breakdown of one pattern", cmd_energy, (
        _Z, _GAMMA, ("--m-target", dict(type=FINITE, help="cross-check the pattern mean")))),
    (("sweep2",), "two-interface energy grid (CSV)", cmd_sweep2, (
        ("--z1", dict(required=True, help=_RANGE + " in (-1, 0]")),
        ("--gamma", dict(required=True, help=_RANGE)))),
    (("xi",), "antiderivative profile dump", cmd_xi, (
        _Z, ("--samples", dict(type=NONNEGATIVE_INT, default=0, help="also sample xi on a uniform grid")))),
    (("critical",), "critical-point solver and checks", None, ()),
    (("critical", "solve"), "damped Newton solve at one coupling", cmd_solve,
     lambda: (_N, _GAMMA, _START, *_newton())),
    (("critical", "continue"), "gamma continuation of a branch (JSON lines)", cmd_continue, lambda: (
        _N,
        ("--gamma-start", dict(type=FINITE, required=True)),
        ("--gamma-end", dict(type=FINITE, required=True)),
        ("--steps", dict(type=int, default=20)),
        _START,
        *_newton(),
        [("--catalog", dict(dest="out", metavar="CATALOG", help="JSON-lines output path, same as --out")), _OUT])),
    (("critical", "check-uniform"), "criticality of evenly spaced patterns", cmd_check_uniform, (
        ("--count", dict(type=int, required=True, help="interface count")),)),
    (("gamma-curve",), "explicit coupling curves (CSV)", cmd_gamma_curve, (
        ("--branch", dict(type=int, choices=[3, 4], required=True)),
        ("--z1", dict(required=True, help=_RANGE)))),
    (("minimize",), "cyclic strip-move descent", cmd_minimize, lambda: (
        _Z,
        _GAMMA,
        ("--m-target", dict(type=FINITE)),
        ("--symmetric", dict(action="store_true")),
        _max_cycles(),
        ("--trace", dict(help="per-cycle CSV path")))),
    (("escape",), "boundary-escape probe", cmd_escape, (
        [("--alpha", dict(type=FINITE, required=True, help="pole-window left root")),
         ("--z", dict(required=True, help="degenerate configuration (merged pair or pole contact)"))],
        _GAMMA)),
    (("stability",), "second-variation report", cmd_stability, (
        _Z, _GAMMA, ("--K", dict(type=int, default=32, help="Fourier mode cutoff")))),
    (("bounds",), "polar-cap lower-bound table (CSV)", cmd_bounds, (("--gamma", dict(required=True, help=_RANGE)),)),
    (("verify",), "self-verification suite (exit 3 on failure)", cmd_verify, (
        ("--seed", dict(type=NONNEGATIVE_INT, default=20240817)),)),
)


def _add_flags(sp: _Parser, flags) -> None:
    """One command's flags, then --config and, unless one of its groups holds it, --out."""
    grouped_out = any(isinstance(flag, list) and _OUT in flag for flag in flags)
    for flag in (*flags, _CONFIG) if grouped_out else (*flags, _CONFIG, _OUT):
        if isinstance(flag, list):
            group = sp.add_mutually_exclusive_group(required=all(kw.get("required") for _, kw in flag))
            for name, kw in flag:
                group.add_argument(name, **{k: v for k, v in kw.items() if k != "required"})
        else:
            sp.add_argument(flag[0], **flag[1])


def build_parser() -> _Parser:
    ap = _Parser(prog=TOOL, description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
                 allow_abbrev=False)
    ap.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    subs = {(): ap.add_subparsers(dest="cmd", required=True, parser_class=_Parser)}
    for path, help_text, func, flags in COMMANDS:
        sp = subs[path[:-1]].add_parser(path[-1], help=help_text, allow_abbrev=False)
        if func is None:
            subs[path] = sp.add_subparsers(dest="action", required=True, parser_class=_Parser)
            continue
        sp.flags = flags
        sp.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_splice_config(_join_dash_values(raw)))
        result = args.func(args)
        if isinstance(result, dict):
            result = json.dumps({"meta": _meta(args), **result}, indent=2) + "\n"
        if isinstance(result, str):
            _write_text(args.out, result)
            return 0
        return result
    except NumericalFailure as exc:
        sys.stderr.write(f"{TOOL}: numerical failure: {exc}\n")
        return 2
    except (AxisphereError, OSError, json.JSONDecodeError, UnicodeDecodeError, MemoryError) as exc:
        sys.stderr.write(f"{TOOL}: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
