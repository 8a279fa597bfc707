"""Spans around the public entry points of the eongp modules.

A traced pass wraps each entry point named in ENTRY_POINTS from outside the
package: every reference an eongp module holds to the function (modules
import some of them by name) is replaced by a wrapper that records a span,
and `ConvexForm.__init__` is replaced on the class.  The wrappers are
removed when the pass ends and `assert_unwrapped` proves it, so the
untraced passes time the unmodified program.

A span is (name, start, end, parent).  Spans stay in memory; the caller
writes them out when the run ends.  Self time is a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute) of each wrapped entry point, in eongp
ENTRY_POINTS = (
    ("routing", "solve_routing"),
    ("psa", "build_program"),
    ("psa", "warm_start"),
    ("psa", "extract"),
    ("gp", "solve"),
    ("gp", "fix_variable"),
    ("gp", "ConvexForm"),
    ("heuristic", "assign"),
    ("validate", "validate"),
    ("validate", "brute_force_psa"),
    ("physics", "osnr"),
    ("cli", "main"),
)

_MARK = "__bench_span__"


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread, in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int, **attrs) -> None:
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named `name`; record what its result says."""
        index = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.end(index, raised=True)
            raise
        self.end(index, **_observe(name, args, result))
        return result


def _observe(name: str, args, result) -> dict:
    """Counts read off an entry point's arguments and result."""
    if name == "gp.solve":
        program = args[0]
        return {"iterations": result.iterations,
                "optimal": result.status == "optimal",
                "vars": len(program.variables),
                "cons": len(program.constraints)}
    if name == "psa.build_program":
        return {"vars": len(result.variables),
                "cons": len(result.constraints),
                "terms": len(result.objective.terms)
                + sum(len(p.terms) for _, p in result.constraints)}
    if name == "heuristic.assign":
        trace = result[1]
        return {"rounds": trace.iterations,
                "pins": sum(len(r.fixes) for r in trace.rounds)}
    if name == "validate.validate":
        return {"violations": len(result.violations),
                "min_slack": min((x for x in result.slack if x == x),
                                 default=math.nan)}
    return {}


# --------------------------------------------------------------------------
# installing and removing the wrappers
# --------------------------------------------------------------------------

def _eongp_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "eongp" or key.startswith("eongp."))]


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    setattr(wrapper, _MARK, name)
    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every entry point; returns (owner, attribute, original) patches."""
    # import everything first: a module imported while another entry point
    # is wrapped would copy the wrapper under a name no patch restores
    modules = {name: importlib.import_module(f"eongp.{name}")
               for name, _ in ENTRY_POINTS}
    patches = []
    for module_name, attr in ENTRY_POINTS:
        name = f"{module_name}.{attr}"
        original = getattr(modules[module_name], attr)
        if isinstance(original, type):
            init = vars(original)["__init__"]
            patches.append((original, "__init__", init))
            setattr(original, "__init__", _wrap(tracer, name, init))
            continue
        wrapper = _wrap(tracer, name, original)
        for module in _eongp_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
    return patches


def uninstall(patches) -> None:
    for owner, key, original in reversed(patches):
        setattr(owner, key, original)


def assert_unwrapped() -> None:
    """Raise if any eongp module or class still holds a span wrapper."""
    for module in _eongp_modules():
        for key, value in vars(module).items():
            candidates = [value] + ([vars(value).get("__init__")]
                                    if isinstance(value, type) else [])
            for obj in candidates:
                if hasattr(obj, _MARK):
                    raise RuntimeError(
                        f"{module.__name__}.{key} is still wrapped")


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------

def covered(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


def ratio(numerator: float, base: float) -> float:
    """numerator / base, NaN when the base is zero."""
    return numerator / base if base else math.nan


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    The spans without a parent are the roots the harness opens around each
    operation; their self time is the part of it that no entry point covers.

    The end-to-end metric each should move, and where:
      gp.solve self_s, iterations, ms_per_iter: wall_ref_s everywhere,
        the ratio flop-bound on full_scale and overhead-bound on oracle;
        calls, nonoptimal: failed operations; vars_max, cons_max:
        peak_rss_mb on full_scale.
      gp.fix_variable: wall_ref_s on full_scale and relax_round.
      gp.ConvexForm: wall_ref_s on relax_round and oracle.
      heuristic.assign.self_s: wall_ref_s on full_scale and relax_round;
        rounds and pins_per_round: wall_ref_s and objective on relax_round.
      validate.validate, violations, min_slack: failed operations;
        brute_force_psa.self_s: wall_ref_s on oracle.
      cli.main.self_s: wall_ref_s on relax_round.
      psa, routing and physics: below 1% everywhere, recorded to catch
        surprises; model.load_s (added by the harness): setup_s.
    """
    own = self_times(spans)
    roots = [i for i, span in enumerate(spans) if span.parent is None]
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span.name].append(i)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return covered((spans[i].start, spans[i].end) for i in by_name[name])

    def self_s(name):
        return sum(own[i] for i in by_name[name])

    def total(name, attr):
        return sum(spans[i].attrs.get(attr, 0) for i in by_name[name])

    def most(name, attr):
        return max((spans[i].attrs.get(attr, 0) for i in by_name[name]),
                   default=0)

    iterations = total("gp.solve", "iterations")
    rounds = total("heuristic.assign", "rounds")
    return {
        "gp.solve.self_s": self_s("gp.solve"),
        "gp.solve.busy_s": busy("gp.solve"),
        "gp.solve.calls": calls("gp.solve"),
        "gp.solve.iterations": iterations,
        "gp.solve.ms_per_iter": ratio(1e3 * busy("gp.solve"), iterations),
        "gp.solve.nonoptimal": calls("gp.solve") - total("gp.solve",
                                                         "optimal"),
        "gp.solve.vars_max": most("gp.solve", "vars"),
        "gp.solve.cons_max": most("gp.solve", "cons"),
        "gp.fix_variable.busy_s": busy("gp.fix_variable"),
        "gp.fix_variable.calls": calls("gp.fix_variable"),
        "gp.ConvexForm.busy_s": busy("gp.ConvexForm"),
        "gp.ConvexForm.calls": calls("gp.ConvexForm"),
        "heuristic.assign.self_s": self_s("heuristic.assign"),
        "heuristic.rounds": rounds,
        "heuristic.pins": total("heuristic.assign", "pins"),
        "heuristic.pins_per_round": ratio(total("heuristic.assign", "pins"),
                                          rounds),
        "psa.build_program.busy_s": busy("psa.build_program"),
        "psa.vars": most("psa.build_program", "vars"),
        "psa.cons": most("psa.build_program", "cons"),
        "psa.terms": most("psa.build_program", "terms"),
        "routing.solve_routing.busy_s": busy("routing.solve_routing"),
        "routing.solve_routing.calls": calls("routing.solve_routing"),
        "validate.validate.busy_s": busy("validate.validate"),
        "validate.violations": total("validate.validate", "violations"),
        "validate.min_slack": min((spans[i].attrs["min_slack"]
                                   for i in by_name["validate.validate"]),
                                  default=math.nan),
        "validate.brute_force_psa.self_s": self_s("validate.brute_force_psa"),
        "physics.osnr.busy_s": busy("physics.osnr"),
        "physics.osnr.calls": calls("physics.osnr"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.wall_s": sum(spans[i].duration for i in roots),
        "trace.untraced_gap_s": sum(own[i] for i in roots),
        "trace.spans": len(spans),
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over the traced passes of one run."""
    return {key: statistics.median(p[key] for p in passes)
            for key in passes[0]}
