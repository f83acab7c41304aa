"""One benchmark repeat in a fresh process: build, run and emit one scenario.

Usage: python3 bench/repeat.py --workload NAME --sagin-seed N --scenario-seed N
                              --mode MODE --out DIR

Modes:
  timed   the user's run with no wrappers or hooks: scenario_from_json ->
          run() -> TraceLog.emit_csv.  Its timings are the end-to-end
          metrics.  Only the HostSpeed timer below runs beside it.
  verify  the same run with a boundary hook that checks exact conservation
          at every event boundary.  Never timed.
  traced  the same run with the per-layer wrappers of layers.py installed.

Prints one JSON object on its last line: timings, the CSV digest, the
trace-derived counts, the peak RSS of this process, any correctness problems
found and, when traced, the per-layer metrics.

Host-speed normalization: on shared virtual machines the core can switch
between full and roughly half speed every few hundred milliseconds (CPU time
slows as much as wall time, so it is the core, not the scheduler), which
moves raw timings by up to 2x from one repeat to the next.  While a repeat
is timed, a SIGALRM timer runs a fixed Fraction micro-probe every 20 ms
(HostSpeed).  Each segment's time, minus the probes' own time, is scaled by
NOMINAL_PROBE_S / (mean probe time inside the segment): seconds at a
nominal host speed.  The mean, because a segment usually spans both speeds
and its time is their time-weighted mix (the median would pick one speed and
make setup_s bimodal).  Each probe is first clipped to CLIP times the
segment's median probe, so that one probe stretched by preemption or a
garbage-collection pass cannot rescale a whole segment.  Raw wall times and
each segment's probe count are reported beside them.
"""

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
CSV_ORDER = ("events.csv", "utilization.csv", "running_count.csv", "summary.csv")
# HostSpeed's probe time at the nominal speed: the probe's fast-phase time
# on a 4th-generation Xeon KVM guest under Python 3.11.7.
NOMINAL_PROBE_S = 0.00045
# A slow phase doubles the probe time; anything much longer is an outlier.
CLIP = 3.0


class HostSpeed:
    """Samples the host's speed with a micro-probe every INTERVAL_S seconds.

    Use as a context manager around the timed segments.  The probe shares
    no code with sfcsim, so a change to the simulator cannot speed it up.
    """

    INTERVAL_S = 0.02

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(1, i % 13 + 1)
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        for _ in range(20):  # warm-up; also the fallback for probe-free intervals
            self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probes_in(self, start: float, end: float) -> list[float]:
        """Durations of the probes run within [start, end]."""
        return self.durations[bisect_left(self.starts, start):bisect_left(self.starts, end)]

    def factor(self, start: float, end: float) -> float:
        """Nominal over clipped mean probe time within [start, end].

        A segment shorter than the probe interval may hold no probe; it is
        scaled by all probes so far (its probe count, reported by the
        caller, shows this).
        """
        probes = self.probes_in(start, end) or self.durations
        limit = CLIP * statistics.median(probes)
        return NOMINAL_PROBE_S / statistics.fmean(min(d, limit) for d in probes)

    def seconds(self, start: float, end: float, factor: float | None = None) -> float:
        """Time in [start, end], less the probes run in it, at nominal speed."""
        if factor is None:
            factor = self.factor(start, end)
        return (end - start - sum(self.probes_in(start, end))) * factor


def import_sfcsim():
    """Import the simulator from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import sfcsim
    if Path(sfcsim.__file__).resolve().parent != SRC / "sfcsim":
        raise ImportError(f"sfcsim imported from {sfcsim.__file__}, not {SRC}")
    return sfcsim


def csv_digest(out_dir: Path) -> str:
    """SHA-256 over the four CSVs' bytes, in emit order."""
    h = hashlib.sha256()
    for name in CSV_ORDER:
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def conservation_hook(problems: list):
    """boundary_hook asserting capacity - free == sum(active allocations)."""
    def hook(time_, ledger):
        snap = ledger.snapshot
        n = snap.node_count
        cpu, ram, band = [Fraction(0)] * n, [Fraction(0)] * n, {}
        for plan in ledger.allocations.values():
            for node, amount in plan.cpu_alloc.items():
                cpu[node] += amount
            for node, amount in plan.ram_alloc.items():
                ram[node] += amount
            for key, amount in plan.band_alloc.items():
                band[key] = band.get(key, Fraction(0)) + amount
        for node in range(n):
            if snap.node_cpu_capacity[node] - ledger.cpu_free(node) != cpu[node]:
                problems.append(f"t={time_}: cpu not conserved on node {node}")
            if snap.node_ram_capacity[node] - ledger.ram_free(node) != ram[node]:
                problems.append(f"t={time_}: ram not conserved on node {node}")
        for u, v in set(snap.edges()) | set(band):
            if not snap.has_edge(u, v):
                problems.append(f"t={time_}: allocation on absent edge ({u},{v})")
            elif snap.edge_band(u, v) - ledger.band_free(u, v) != band.get((u, v), 0):
                problems.append(f"t={time_}: bandwidth not conserved on ({u},{v})")
    return hook


def trace_counts(trace, event_kinds) -> dict:
    """Counts derived from the trace records alone."""
    counts = {"events": 0, "migrations": 0, "migrated": 0, "discrepancies": 0}
    for r in trace.records:
        if r.kind in event_kinds:
            counts["events"] += 1
        elif r.kind == "migration":
            counts["migrations"] += 1
            counts["migrated"] += r.outcome == "migrated"
        elif r.kind == "discrepancy":
            counts["discrepancies"] += 1
    return counts


def report_problems(report, trace) -> list[str]:
    """Mismatches between the SimulationReport counters and the trace."""
    problems = []
    for field, derived in (("arrivals", trace.arrival_count()),
                           ("accepted", trace.accepted_count()),
                           ("rejected", trace.rejected_count()),
                           ("terminated_early", trace.terminated_count())):
        if getattr(report, field) != derived:
            problems.append(f"report.{field}={getattr(report, field)} but trace has {derived}")
    if list(report.running_count) != trace.running_count_series():
        problems.append("report.running_count differs from the trace's series")
    return problems


def repeat(workload: str, sagin_seed: int, scenario_seed: int, mode: str,
           out_dir: Path) -> dict:
    import_sfcsim()
    from sfcsim import engine, scenario, solver as solvers, trace as tr

    import layers
    from workloads import scenario_doc

    doc = scenario_doc(workload, sagin_seed, scenario_seed)
    problems: list[str] = []
    sink_class, hook, tracer, absent = tr.TraceLog, None, None, set()
    if mode == "verify":
        hook = conservation_hook(problems)
    elif mode == "traced":
        tracer = layers.Tracer()
        absent = layers.install(tracer)
        sink_class = layers.traced_sink_class(tracer, tr.TraceLog, absent)

    solver = solvers.make_solver(doc["solver"])
    if tracer is not None and "solver.solve" not in absent:
        solver.solve = tracer.wrap("solver.solve", solver.solve)
    trace = sink_class()
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        sc = scenario.scenario_from_json(doc)
        t1 = time.perf_counter()
        report = engine.run(sc.topo, sc.requests, sc.catalog, solver, trace,
                            seed=sc.seed, boundary_hook=hook)
        t2 = time.perf_counter()
        trace.emit_csv(out_dir)
        t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    segments = [(t0, t1, speed.factor(t0, t1)), (t1, t2, speed.factor(t1, t2)),
                (t2, t3, speed.factor(t2, t3))]
    setup_s, run_s, emit_s = (speed.seconds(a, b, f) for a, b, f in segments)

    counts = trace_counts(trace, tr.EVENT_KINDS)
    problems += report_problems(report, trace)
    result = {
        "workload": workload, "mode": mode,
        "wall_s": setup_s + run_s + emit_s, "setup_s": setup_s, "run_s": run_s,
        "emit_s": emit_s, "raw_wall_s": t3 - t0, "raw_setup_s": t1 - t0,
        "probe_share": sum(speed.probes_in(t0, t3)) / (t3 - t0),
        "probes": {name: len(speed.probes_in(a, b))
                   for name, (a, b, _) in zip(("setup", "run", "emit"), segments)},
        "events": counts["events"], "events_per_s": counts["events"] / run_s,
        "peak_rss_mb": peak_rss_mb,
        "arrivals": report.arrivals, "accepted": report.accepted,
        "acceptance_ratio": trace.acceptance_ratio(),
        "digest": csv_digest(out_dir), "problems": problems[:20],
    }
    if tracer is not None:
        emitted = sum((out_dir / name).stat().st_size for name in CSV_ORDER)

        def span_seconds(start, end):
            factor = next((f for a, b, f in segments if a <= start <= b), None)
            return speed.seconds(start, end, factor)
        result["layers"] = layers.layer_metrics(tracer.summary(span_seconds), absent,
                                                counts, len(trace.utilization), emitted)
        result["absent"] = sorted(absent)
        result["span_count"] = len(tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--sagin-seed", type=int, required=True)
    parser.add_argument("--scenario-seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "verify", "traced"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(repeat(args.workload, args.sagin_seed, args.scenario_seed, args.mode,
                            args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
