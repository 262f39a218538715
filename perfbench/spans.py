"""Span tracer that wraps axisphere's public functions from outside.

Installing the tracer replaces every module attribute of the package
that refers to a public function (for example ``potential.v_diff`` and
the re-export ``criticality.v_diff``) with one shared wrapper.  The
wrapper only measures: it calls the original with the same arguments and
returns its result unchanged.

Each call opens a span with a name, a start, an end and a parent.  Self
time is the span's duration minus the time its wrapped children cover;
it is computed online from a stack, so no pass over the spans is needed.
Spans are kept in memory and written once, by ``dump``.  The hottest
leaves are not stored per call; they are aggregated per (name, parent).
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

MODULES = (
    "pattern",
    "potential",
    "energy",
    "criticality",
    "minimizer",
    "stability",
    "quadrature",
    "verify",
    "cli",
)

# Public functions outside a module's __all__ that callers still reach.
EXTRA_PUBLIC = {"cli": ("main",)}

# Called hundreds of thousands of times per pass: one span record per
# call would dominate the trace, so these are kept as aggregates only.
HOT = frozenset(
    {
        "potential.v_diff",
        "pattern.xi_profile",
        "stability.fourier_log_integral",
        "minimizer.segment_energy",
        "minimizer.profile_f",
        "pattern.kappa_g",
        "pattern.mass_of_interfaces",
        "pattern.make_pattern",
        "potential.grad_v_normal",
        "energy.perimeter",
        "energy.nonlocal_closed",
        "energy.total_energy",
        "minimizer.apply_elementary_move",
    }
)

_clock = time.perf_counter


class Tracer:
    """Holds the spans, per-name totals and derived counters of one run."""

    def __init__(self) -> None:
        self.stack: list[list] = [["<root>", 0.0, 0.0, -1, None]]
        self.spans: list[tuple] = []  # (id, name, parent_id, start, end, ok)
        self.leaves: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, dur, self]
        self.totals: dict[str, list] = {}  # name -> [calls, dur, self]
        self.counters: dict[str, float] = {}
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _enter(self, name: str, snapshot) -> list:
        frame = [name, 0.0, 0.0, -1, snapshot]
        if name not in HOT:
            frame[3] = len(self.spans)
            self.spans.append(None)  # reserve the id; filled on exit
        self.stack.append(frame)
        frame[1] = _clock()
        return frame

    def _exit(self, frame: list, ok: bool) -> None:
        end = _clock()
        self.stack.pop()
        name, start, child, span_id, _ = frame
        dur = end - start
        parent = self.stack[-1]
        parent[2] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if span_id >= 0:
            self.spans[span_id] = (span_id, name, self._parent_id(), start, end, ok)
        else:
            key = (name, parent[0])
            agg = self.leaves.get(key)
            if agg is None:
                agg = self.leaves[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child

    def _parent_id(self) -> int:
        for frame in reversed(self.stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def calls(self, name: str) -> int:
        tot = self.totals.get(name)
        return tot[0] if tot else 0

    def self_s(self, name: str) -> float:
        tot = self.totals.get(name)
        return tot[2] if tot else 0.0

    # ---------------------------------------------------------- installing

    def install(self) -> int:
        """Wrap every public axisphere function at every attribute; return the count."""
        mods = {name: importlib.import_module(f"axisphere.{name}") for name in MODULES}
        package = importlib.import_module("axisphere")
        wrappers = {}
        for short, mod in mods.items():
            public = set(getattr(mod, "__all__", ())) | set(EXTRA_PUBLIC.get(short, ()))
            for attr in sorted(public):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(fn, f"{short}.{attr}")
        for mod in (package, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        return len(wrappers)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        hook = _HOOKS.get(name)
        enter, exit_ = self._enter, self._exit
        if hook is None:

            def wrapper(*args, **kwargs):
                frame = enter(name, None)
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    exit_(frame, False)
                    raise
                exit_(frame, True)
                return out

        else:
            watched, on_return = hook

            def wrapper(*args, **kwargs):
                frame = enter(name, [self.calls(w) for w in watched])
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    exit_(frame, False)
                    raise
                exit_(frame, True)
                deltas = [self.calls(w) - c for w, c in zip(watched, frame[4])]
                on_return(self, out, deltas)
                return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ------------------------------------------------------------- results

    def state(self) -> dict:
        """Totals and counters in a JSON-friendly form (merged across processes)."""
        return {"totals": self.totals, "counters": self.counters}

    def merge(self, state: dict) -> None:
        for name, (calls, dur, self_t) in state["totals"].items():
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += calls
            tot[1] += dur
            tot[2] += self_t
        for key, val in state["counters"].items():
            self.add(key, val)

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write spans, aggregated leaves and totals once, at the end."""
        doc = {
            "span_fields": ["id", "name", "parent", "start", "end", "ok"],
            "spans": [s for s in self.spans if s is not None],
            "leaves": [[n, p, *v] for (n, p), v in sorted(self.leaves.items())],
            **self.state(),
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.frame = self.tracer._enter(self.name, None)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._exit(self.frame, exc_type is None)
        return False


def _on_solve(tracer: Tracer, cp, deltas) -> None:
    # Counted on converged solves only: a failed solve returns no trace.
    tracer.add("criticality.newton_iters", cp.trace.iterations)
    tracer.add("criticality.damping_events", cp.trace.damping_events)
    tracer.add("criticality.solve_residual_calls", deltas[0])


def _on_minimize(tracer: Tracer, result, deltas) -> None:
    tracer.add("minimizer.cycles", len(result.cycles))
    tracer.add("minimizer.objective_evals", deltas[0] + deltas[1])


_HOOKS = {
    "criticality.solve_critical": (("criticality.residuals",), _on_solve),
    "minimizer.local_minimize": (
        ("minimizer.segment_energy", "energy.total_energy"),
        _on_minimize,
    ),
}
