"""Per-layer tracing from outside the program.

A traced repeat wraps public entry points of each sfcsim module where the
caller looks them up (``sfcsim.engine.check_plan``, not
``sfcsim.mano.check_plan``), records one span per call in memory, and turns
the spans into the per-layer metrics below.  Nothing under ``src/`` knows
about it.  Entry points are resolved at start-up; a layer whose entry points
no longer all exist is reported absent instead of crashing the run.

``LAYER_METRICS`` also records, for each metric, which end-to-end metric it
should move and on which workloads, so later performance work can cite
names only.
"""

import importlib
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str            # span name whose entry points must exist
    moves: tuple          # end-to-end metrics it should move
    workloads: tuple      # workloads on which it should move them


_E2E = ("events_per_s",)
LAYER_METRICS = (
    LayerMetric("scenario.sagin_s", "s", "lower", "scenario.sagin",
                ("setup_s", "peak_rss_mb"), ("churn-greedy", "wide-random")),
    LayerMetric("scenario.snapshots", "count", "lower", "scenario.sagin",
                ("setup_s", "peak_rss_mb"), ("churn-greedy", "wide-random")),
    LayerMetric("engine.loop_self_s", "s", "lower", "engine.run", _E2E,
                ("full-greedy", "wide-random", "churn-greedy")),
    LayerMetric("engine.events", "count", "higher", "engine.run", _E2E,
                ("full-greedy", "wide-random", "churn-greedy")),
    LayerMetric("engine.migrations", "count", "lower", "engine.run", _E2E,
                ("full-greedy", "churn-greedy")),
    LayerMetric("engine.migration_ok_ratio", "ratio", "higher", "engine.run", _E2E,
                ("full-greedy", "churn-greedy")),
    LayerMetric("mano.residual_view_s", "s", "lower", "mano.residual_view", _E2E,
                ("wide-random", "full-greedy")),
    LayerMetric("mano.residual_view_calls", "count", "lower", "mano.residual_view", _E2E,
                ("wide-random", "full-greedy")),
    LayerMetric("mano.gate_s", "s", "lower", "mano.gate", _E2E, ("full-greedy",)),
    LayerMetric("mano.gate_calls", "count", "lower", "mano.gate", _E2E, ("full-greedy",)),
    LayerMetric("mano.gate_demotions", "count", "lower", "mano.gate", _E2E,
                ("full-greedy",)),
    LayerMetric("mano.ledger_s", "s", "lower", "mano.ledger", _E2E,
                ("churn-greedy", "full-greedy")),
    LayerMetric("mano.ledger_ops", "count", "lower", "mano.ledger", _E2E,
                ("churn-greedy", "full-greedy")),
    LayerMetric("mano.affected_scan_s", "s", "lower", "mano.affected_scan", _E2E,
                ("churn-greedy",)),
    LayerMetric("mano.affected_sfcs", "count", "lower", "mano.affected_scan", _E2E,
                ("churn-greedy",)),
    LayerMetric("solver.solve_s", "s", "lower", "solver.solve", _E2E, ("full-greedy",)),
    LayerMetric("solver.decisions", "count", "lower", "solver.solve", _E2E,
                ("full-greedy",)),
    LayerMetric("solver.accept_ratio", "ratio", "higher", "solver.solve", _E2E,
                ("full-greedy",)),
    LayerMetric("solver.node_choice_self_s", "s", "lower", "solver.solve",
                ("events_per_s", "wall_s"), ("full-greedy",)),
    LayerMetric("solver.plan_build_s", "s", "lower", "solver.plan_build", _E2E,
                ("full-greedy",)),
    LayerMetric("topology.path_search_s", "s", "lower", "topology.path_search", _E2E,
                ("wide-random", "full-greedy")),
    LayerMetric("topology.path_search_calls", "count", "lower", "topology.path_search",
                _E2E, ("wide-random", "full-greedy")),
    LayerMetric("topology.path_found_ratio", "ratio", "higher", "topology.path_search",
                _E2E, ("wide-random", "full-greedy")),
    LayerMetric("trace.sample_s", "s", "lower", "trace.sample",
                ("events_per_s", "peak_rss_mb"), ("wide-random", "churn-greedy")),
    LayerMetric("trace.samples", "count", "lower", "trace.sample",
                ("events_per_s", "peak_rss_mb"), ("wide-random", "churn-greedy")),
    LayerMetric("trace.emit_s", "s", "lower", "trace.emit", ("wall_s",),
                ("wide-random", "churn-greedy")),
    LayerMetric("trace.emit_bytes", "bytes", "lower", "trace.emit", ("wall_s",),
                ("wide-random", "churn-greedy")),
    # Traced minus untraced wall time of the same repeat pair; it moves no
    # end-to-end metric because end-to-end runs never install wrappers.
    LayerMetric("bench.trace_overhead_s", "s", "lower", "", (),
                ("full-greedy", "wide-random", "churn-greedy")),
)

# Entry points per layer, as "module:attribute[.attribute]".  Module
# functions are wrapped in the caller's namespace.  The solver instance and
# the TraceLog sink are wrapped by the traced repeat itself, so their layers
# need only the method to exist.
ENTRY_POINTS = {
    "scenario.sagin": ("sfcsim.scenario:generate_sagin",),
    "engine.run": ("sfcsim.engine:run",),
    "mano.residual_view": ("sfcsim.mano:ResourceLedger.cpu_free_all",
                           "sfcsim.mano:ResourceLedger.ram_free_all",
                           "sfcsim.mano:ResourceLedger.band_free_map"),
    "mano.gate": ("sfcsim.engine:plan_structure_errors", "sfcsim.engine:check_plan"),
    "mano.ledger": ("sfcsim.mano:ResourceLedger.allocate",
                    "sfcsim.mano:ResourceLedger.release",
                    "sfcsim.mano:ResourceLedger.set_snapshot"),
    "mano.affected_scan": ("sfcsim.engine:find_affected_sfcs",),
    "solver.plan_build": ("sfcsim.solver:build_plan", "sfcsim.solver:check_plan_against"),
    "topology.path_search": ("sfcsim.solver:shortest_feasible_path",),
}
METHOD_LAYERS = {
    "solver.solve": "sfcsim.solver:Solver.solve",
    "trace.sample": "sfcsim.trace:TraceLog.sample_utilization",
    "trace.emit": "sfcsim.trace:TraceLog.emit_csv",
}

# What a span keeps of its call's result, for counts and ratios.
OBSERVE = {
    "scenario.sagin": lambda topo: len(topo.time_points),
    "mano.affected_scan": len,
    "solver.solve": lambda decision: decision.accepted,
    "topology.path_search": lambda path: path is not None,
}


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, observed)."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        observe = OBSERVE.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if observe is not None:
                spans[index] = (name, start, end, parent, observe(result))
            return result
        return traced

    def summary(self, seconds=lambda start, end: end - start) -> dict:
        """Per span name: calls, total and self seconds, observed values.

        ``seconds(start, end)`` turns a span's clock readings into seconds;
        self time is a span's seconds less its direct children's.
        """
        durations = [seconds(start, end) for _, start, end, _, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent, _), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        out: dict = {}
        for (name, _, _, _, seen), duration, children in zip(self.spans, durations,
                                                             child_time):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "seen": []})
            s["calls"] += 1
            s["total_s"] += duration
            s["self_s"] += duration - children
            if seen is not None:
                s["seen"].append(seen)
        return out


def _resolve(target: str):
    """(owner, attribute) of an entry point, or None when it no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def install(tracer: Tracer) -> set[str]:
    """Wrap every present entry point; return the names of absent layers."""
    absent = set()
    for layer, targets in ENTRY_POINTS.items():
        resolved = [_resolve(t) for t in targets]
        if None in resolved:
            absent.add(layer)
            continue
        for owner, attr in resolved:
            setattr(owner, attr, tracer.wrap(layer, getattr(owner, attr)))
    for layer, target in METHOD_LAYERS.items():
        if _resolve(target) is None:
            absent.add(layer)
    return absent


def traced_sink_class(tracer: Tracer, base, absent: set[str]):
    """A TraceLog subclass whose sampling and CSV emission record spans."""
    methods = {}
    for layer, attr in (("trace.sample", "sample_utilization"), ("trace.emit", "emit_csv")):
        if layer not in absent:
            methods[attr] = tracer.wrap(layer, getattr(base, attr))
    return type("TracedTraceLog", (base,), methods)


def layer_metrics(summary: dict, absent: set[str], counts: dict, samples: int,
                  emitted_bytes: int) -> dict:
    """Per-layer metric values of one traced repeat; None marks an absent layer.

    ``counts`` holds the trace-derived record counts of the run (events,
    migrations, migrated, discrepancies); ``samples`` is the number of
    utilization samples taken.
    """
    def span(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "seen": []})

    def ratio(num, den):
        return num / den if den else 1.0

    sagin, loop = span("scenario.sagin"), span("engine.run")
    view, gate, ledger = span("mano.residual_view"), span("mano.gate"), span("mano.ledger")
    scan, solve = span("mano.affected_scan"), span("solver.solve")
    build, paths = span("solver.plan_build"), span("topology.path_search")
    sample, emit = span("trace.sample"), span("trace.emit")
    values = {
        "scenario.sagin_s": sagin["total_s"],
        "scenario.snapshots": sum(sagin["seen"]),
        "engine.loop_self_s": loop["self_s"],
        "engine.events": counts["events"],
        "engine.migrations": counts["migrations"],
        "engine.migration_ok_ratio": ratio(counts["migrated"], counts["migrations"]),
        "mano.residual_view_s": view["total_s"],
        "mano.residual_view_calls": view["calls"],
        "mano.gate_s": gate["total_s"],
        "mano.gate_calls": gate["calls"],  # calls into either gate entry point
        "mano.gate_demotions": counts["discrepancies"],
        "mano.ledger_s": ledger["total_s"],
        "mano.ledger_ops": ledger["calls"],
        "mano.affected_scan_s": scan["total_s"],
        "mano.affected_sfcs": sum(scan["seen"]),
        "solver.solve_s": solve["total_s"],
        "solver.decisions": solve["calls"],
        "solver.accept_ratio": ratio(sum(solve["seen"]), solve["calls"]),
        "solver.node_choice_self_s": solve["self_s"],
        "solver.plan_build_s": build["total_s"],
        "topology.path_search_s": paths["total_s"],
        "topology.path_search_calls": paths["calls"],
        "topology.path_found_ratio": ratio(sum(paths["seen"]), paths["calls"]),
        "trace.sample_s": sample["total_s"],
        "trace.samples": samples,
        "trace.emit_s": emit["total_s"],
        "trace.emit_bytes": emitted_bytes,
    }
    for m in LAYER_METRICS:
        if m.layer in absent and m.name in values:
            values[m.name] = None
    return values
