"""Command-line front end.

Every subcommand resolves its parameters from flags, optionally seeded by
a JSON config file that mirrors the flag names (flags override the file),
and emits CSV or JSON with the tool version and a sha256 hash of the
resolved parameters embedded, so identical configurations produce
byte-identical artifacts.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure
(no convergence, tolerance not met, lost branch, asymptote hit),
3 self-verification failure.

Ranges are written start:end:count, inclusive of both endpoints.
Relative --out paths resolve under $AXISPHERE_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .criticality import (
    SolveOptions,
    catalog_record,
    continue_gamma,
    gamma_of_z1_3,
    gamma_of_z1_4,
    initial_guess,
    lambda_spread,
    polar_cap_bound,
    residuals,
    solve_critical,
    stretched_gap_variance,
    uniform_criticality_check,
)
from .energy import total_energy, two_interface_grid
from .errors import (
    Asymptote,
    AxisphereError,
    BranchLost,
    CycleLimit,
    LeftDomain,
    NoConvergence,
    NoEscape,
    OutOfRange,
    ToleranceNotMet,
)
from .minimizer import (
    BoundaryPattern,
    MinimizeOptions,
    boundary_escape,
    escape_pole_frame,
    local_minimize,
    trace_to_csv,
)
from .pattern import make_pattern, xi_eval, xi_profile
from .stability import stability_report
from .verify import run_verify

TOOL = "axisphere"
OUT_DIR_ENV = "AXISPHERE_OUT_DIR"

_NUMERIC_FAILURES = (NoConvergence, ToleranceNotMet, BranchLost, Asymptote, LeftDomain, CycleLimit)

# Flags whose values can start with a minus sign; joined to flag=value form
# before parsing so `--z -0.5,0.5` works as documented.
_DASH_VALUE_FLAGS = {
    "--z",
    "--z1",
    "--alpha",
    "--gamma",
    "--gamma-start",
    "--gamma-end",
    "--m-target",
}
_DASH_VALUE_RE = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """argparse variant exiting 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# ------------------------------------------------------------ value parsing


def parse_floats(text: str) -> tuple[float, ...]:
    """Comma-separated float list."""
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise OutOfRange(f"not a comma-separated float list: {text!r}") from None


def parse_range(text: str) -> tuple[float, ...]:
    """start:end:count (inclusive), or an explicit comma list of values."""
    if ":" not in text:
        try:
            return tuple(float(t) for t in text.split(","))
        except ValueError:
            raise OutOfRange(f"not a number list: {text!r}") from None
    parts = text.split(":")
    if len(parts) != 3:
        raise OutOfRange(f"range must be start:end:count, got {text!r}")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise OutOfRange(f"range must be start:end:count, got {text!r}") from None
    if count < 1:
        raise OutOfRange("range count must be positive")
    if count == 1 and start != end:
        raise OutOfRange("a single-point range needs start == end")
    return tuple(float(v) for v in np.linspace(start, end, count))


def _merge_dash_values(argv: list[str]) -> list[str]:
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _DASH_VALUE_FLAGS and nxt is not None and _DASH_VALUE_RE.match(nxt):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def _splice_config(argv: list[str]) -> list[str]:
    """Insert config-file values as flags right after the subcommand.

    Explicit flags come later in the stream and therefore win.
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None:
        return argv
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise OutOfRange("config file must hold a JSON object of flag values")
    tokens: list[str] = []
    for key in sorted(cfg):
        flag = "--" + key.replace("_", "-")
        val = cfg[key]
        if isinstance(val, bool):
            if val:
                tokens.append(flag)
        elif isinstance(val, (list, tuple)):
            tokens.append(f"{flag}={','.join(repr(float(v)) for v in val)}")
        elif isinstance(val, float):
            tokens.append(f"{flag}={val!r}")
        else:
            tokens.append(f"{flag}={val}")
    return [argv[0], *tokens, *argv[1:]]


# ----------------------------------------------------------------- emission


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func", "cmd", "action", "config", "out", "catalog", "trace"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or callable(val):
            continue
        out[key] = list(val) if isinstance(val, tuple) else val
    return out


def _meta(args: argparse.Namespace) -> dict:
    cfg = _config_dict(args)
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    meta = {
        "tool": TOOL,
        "version": __version__,
        "config_sha256": hashlib.sha256(canon.encode()).hexdigest(),
    }
    if "seed" in cfg:
        meta["seed"] = cfg["seed"]
    return meta


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_text(path: str | None, text: str) -> None:
    target = _resolve_out(path)
    if target is None:
        sys.stdout.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    doc = {"meta": _meta(args), **payload}
    _write_text(getattr(args, "out", None), json.dumps(doc, indent=2) + "\n")


def _csv_preamble(args: argparse.Namespace) -> str:
    meta = _meta(args)
    lines = [f"# {TOOL} {meta['version']}", f"# config_sha256={meta['config_sha256']}"]
    if "seed" in meta:
        lines.append(f"# seed={meta['seed']}")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- subcommands


def cmd_energy(args) -> int:
    p = make_pattern(parse_floats(args.z), expect_mass=args.m_target)
    br = total_energy(p, args.gamma)
    _emit_json(
        args,
        {
            "z": list(p.z),
            "m": p.m,
            "gamma": args.gamma,
            "perimeter": br.perimeter,
            "nonlocal": br.nonlocal_,
            "total": br.total,
            "total_over_pi": br.total_over_pi,
            "per_segment": list(br.per_segment),
        },
    )
    return 0


def cmd_sweep2(args) -> int:
    grid = two_interface_grid(parse_range(args.z1), parse_range(args.gamma))
    buf = io.StringIO()
    grid.to_csv(buf)
    _write_text(args.out, _csv_preamble(args) + buf.getvalue())
    return 0


def cmd_xi(args) -> int:
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
        zs = np.linspace(-1.0, 1.0, args.samples)
        payload["sample_z"] = [float(v) for v in zs]
        payload["sample_xi"] = [xi_eval(p, float(v)) for v in zs]
    _emit_json(args, payload)
    return 0


def _solve_opts(args) -> SolveOptions:
    return SolveOptions(tol=args.tol, max_iter=args.max_iter, m_target=args.m_target)


def _solved_payload(cp) -> dict:
    rec = catalog_record(cp)
    rec["lambda_spread"] = lambda_spread(cp.pattern, cp.gamma)
    rec["trace"] = {
        "iterations": cp.trace.iterations,
        "damping_events": cp.trace.damping_events,
        "init": cp.trace.init_label,
    }
    rec["stretched_gap_variance"] = stretched_gap_variance(cp.pattern)
    return rec


def _initial_pattern(args):
    if args.z is not None:
        p = make_pattern(parse_floats(args.z))
        if args.n is not None and args.n != p.n:
            raise OutOfRange(f"--n {args.n} contradicts the {p.n} heights of --z")
        return p, "explicit"
    return initial_guess(args.n, args.init), args.init


def cmd_critical(args) -> int:
    if args.action == "check-uniform":
        if args.count is None:
            raise OutOfRange("check-uniform needs --count")
        ignored = [flag for flag in ("n", "z", "gamma") if getattr(args, flag) is not None]
        if ignored:
            raise OutOfRange(f"check-uniform takes no --{', --'.join(ignored)}")
        chk = uniform_criticality_check(args.count, args.gamma_max)
        _emit_json(
            args,
            {
                "count": chk.count,
                "all_gamma": chk.all_gamma,
                "critical_gamma": chk.critical_gamma,
                "pair_gammas": list(chk.pair_gammas),
                "obstruction": chk.obstruction,
                "obstruction_pair": list(chk.obstruction_pair) if chk.obstruction_pair else None,
                "obstruction_gap": chk.obstruction_gap,
                "residual_floor": chk.residual_floor,
            },
        )
        return 0

    if args.n is None and args.z is None:
        raise OutOfRange(f"critical {args.action} needs --n or --z")
    init, label = _initial_pattern(args)
    n = init.n
    opts = _solve_opts(args)
    if args.action == "solve":
        if args.gamma is None:
            raise OutOfRange("critical solve needs --gamma")
        cp = solve_critical(n, args.gamma, init, opts, init_label=label)
        _emit_json(args, _solved_payload(cp))
        return 0

    # continue: corrector at the start coupling, then trace the branch.
    if args.gamma_start is None or args.gamma_end is None:
        raise OutOfRange("critical continue needs --gamma-start and --gamma-end")
    seed = solve_critical(n, args.gamma_start, init, opts, init_label=label)
    points = continue_gamma(n, args.gamma_start, args.gamma_end, args.steps, seed.pattern, opts)
    meta = _meta(args)
    lines = [json.dumps({"meta": meta})]
    lines += [json.dumps(catalog_record(cp)) for cp in points]
    text = "\n".join(lines) + "\n"
    _write_text(args.catalog if args.catalog else args.out, text)
    return 0


def cmd_gamma_curve(args) -> int:
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
        rows.append(f"{z1!r},{g!r},{tag}\n")
    _write_text(args.out, _csv_preamble(args) + "z1,gamma,branch\n" + "".join(rows))
    return 0


def cmd_minimize(args) -> int:
    p0 = make_pattern(parse_floats(args.z), expect_mass=args.m_target)
    opts = MinimizeOptions(
        x_tol=args.x_tol, max_cycles=args.max_cycles, symmetric=args.symmetric
    )
    result = local_minimize(p0, args.gamma, opts)
    if args.trace:
        buf = io.StringIO()
        trace_to_csv(result.cycles, buf)
        _write_text(args.trace, _csv_preamble(args) + buf.getvalue())
    res = residuals(result.pattern, args.gamma, m_target=result.pattern.m)
    _emit_json(
        args,
        {
            "start_z": list(p0.z),
            "gamma": args.gamma,
            "pattern": {"z": list(result.pattern.z), "m": result.pattern.m},
            "energy": {
                "perimeter": result.energy.perimeter,
                "nonlocal": result.energy.nonlocal_,
                "total": result.energy.total,
                "total_over_pi": result.energy.total_over_pi,
            },
            "cycles": len(result.cycles),
            "residual_max": float(np.max(np.abs(res))),
        },
    )
    return 0


def cmd_escape(args) -> int:
    if args.z is not None and args.alpha is not None:
        raise OutOfRange("escape takes --alpha (pole window) or --z (degenerate pattern), not both")
    if args.z is None:
        if args.alpha is None:
            raise OutOfRange("escape needs --alpha (pole window) or --z (degenerate pattern)")
        probe = escape_pole_frame(args.alpha, args.gamma, samples=args.samples)
        _emit_json(
            args,
            {
                "mode": "pole-window",
                "alpha": probe.alpha,
                "gamma": probe.gamma,
                "x_star": probe.x_star,
                "e_star": probe.e_star,
                "limit": probe.limit,
                "escaped": probe.escaped,
            },
        )
        return 0
    bp = BoundaryPattern(z=parse_floats(args.z))
    base = {"mode": bp.kind, "z": list(bp.z), "gamma": args.gamma}
    try:
        moved = boundary_escape(bp, args.gamma)
    except NoEscape as exc:
        _emit_json(args, {**base, "escaped": False, "detail": str(exc)})
        return 0
    br = total_energy(moved, args.gamma)
    _emit_json(
        args,
        {
            **base,
            "escaped": True,
            "pattern": {"z": list(moved.z), "m": moved.m},
            "total_over_pi": br.total_over_pi,
        },
    )
    return 0


def cmd_stability(args) -> int:
    p = make_pattern(parse_floats(args.z))
    report = stability_report(p, args.gamma, K=args.K)
    _emit_json(args, report.to_json())
    return 0


def cmd_bounds(args) -> int:
    rows = [f"{g!r},{polar_cap_bound(g)!r}\n" for g in parse_range(args.gamma)]
    _write_text(args.out, _csv_preamble(args) + "gamma,z1_bound\n" + "".join(rows))
    return 0


def cmd_verify(args) -> int:
    checks = run_verify(seed=args.seed)
    meta = _meta(args)
    lines = [f"# {TOOL} {meta['version']} config_sha256={meta['config_sha256']} seed={args.seed}"]
    for c in checks:
        lines.append(f"{'ok  ' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    failed = [c for c in checks if not c.passed]
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    _write_text(getattr(args, "out", None), "\n".join(lines) + "\n")
    return 3 if failed else 0


# --------------------------------------------------------------- the parser


def _add_common(sp, out=True):
    sp.add_argument("--config", help="JSON file of flag values (flags override)")
    if out:
        sp.add_argument("--out", help=f"output path (relative paths resolve under ${OUT_DIR_ENV})")


def build_parser() -> _Parser:
    ap = _Parser(prog=TOOL, description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    sp = sub.add_parser("energy", help="energy breakdown of one pattern")
    sp.add_argument("--z", required=True, help="comma-separated interface heights")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--m-target", type=float, default=None, help="cross-check the pattern mean")
    _add_common(sp)
    sp.set_defaults(func=cmd_energy)

    sp = sub.add_parser("sweep2", help="two-interface energy grid (CSV)")
    sp.add_argument("--z1", required=True, help="range start:end:count in (-1, 0]")
    sp.add_argument("--gamma", required=True, help="range start:end:count")
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep2)

    sp = sub.add_parser("xi", help="antiderivative profile dump")
    sp.add_argument("--z", required=True)
    sp.add_argument("--samples", type=int, default=0, help="also sample xi on a uniform grid")
    _add_common(sp)
    sp.set_defaults(func=cmd_xi)

    sp = sub.add_parser("critical", help="critical-point solver and checks")
    sp.add_argument("action", choices=["solve", "continue", "check-uniform"])
    sp.add_argument("--n", type=int, help="interface count (solve/continue)")
    sp.add_argument("--gamma", type=float, help="coupling (solve)")
    sp.add_argument("--gamma-start", type=float)
    sp.add_argument("--gamma-end", type=float)
    sp.add_argument("--steps", type=int, default=20)
    sp.add_argument("--init", choices=["uniform", "stretch"], default="uniform")
    sp.add_argument("--z", help="explicit initial interfaces (overrides --init; --n must match)")
    sp.add_argument("--m-target", type=float, default=0.0)
    sp.add_argument("--tol", type=float, default=1e-11)
    sp.add_argument("--max-iter", type=int, default=60)
    sp.add_argument("--count", type=int, help="interface count (check-uniform)")
    sp.add_argument("--gamma-max", type=float, default=1e4)
    sp.add_argument("--catalog", help="JSON-lines output path (continue)")
    _add_common(sp)
    sp.set_defaults(func=cmd_critical)

    sp = sub.add_parser("gamma-curve", help="explicit coupling curves (CSV)")
    sp.add_argument("--branch", type=int, choices=[3, 4], required=True)
    sp.add_argument("--z1", required=True, help="range start:end:count")
    _add_common(sp)
    sp.set_defaults(func=cmd_gamma_curve)

    sp = sub.add_parser("minimize", help="cyclic strip-move descent")
    sp.add_argument("--z", required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--m-target", type=float, default=None)
    sp.add_argument("--symmetric", action="store_true")
    sp.add_argument("--max-cycles", type=int, default=200)
    sp.add_argument("--x-tol", type=float, default=1e-12)
    sp.add_argument("--trace", help="per-cycle CSV path")
    _add_common(sp)
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("escape", help="boundary-escape probe")
    sp.add_argument("--alpha", type=float, help="pole-window left root")
    sp.add_argument("--z", help="degenerate configuration (merged pair or pole contact)")
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--samples", type=int, default=96)
    _add_common(sp)
    sp.set_defaults(func=cmd_escape)

    sp = sub.add_parser("stability", help="second-variation report")
    sp.add_argument("--z", required=True)
    sp.add_argument("--gamma", type=float, required=True)
    sp.add_argument("--K", type=int, default=32, help="Fourier mode cutoff")
    _add_common(sp)
    sp.set_defaults(func=cmd_stability)

    sp = sub.add_parser("bounds", help="polar-cap lower-bound table (CSV)")
    sp.add_argument("--gamma", required=True, help="range start:end:count")
    _add_common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("verify", help="self-verification suite (exit 3 on failure)")
    sp.add_argument("--seed", type=int, default=20240817)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv2 = _merge_dash_values(_splice_config(raw))
        args = parser.parse_args(argv2)
        return args.func(args)
    except SystemExit:
        raise
    except _NUMERIC_FAILURES as exc:
        sys.stderr.write(f"{TOOL}: numerical failure: {exc}\n")
        return 2
    except (AxisphereError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"{TOOL}: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
