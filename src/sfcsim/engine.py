"""Discrete-event core: event queue construction and the run loop.

Event order is total: by time, then kind priority (topology change before
departure before arrival, so departures free resources before same-instant
arrivals compete and arrivals always see the freshest topology), then a
sequence number assigned at queue-build time.  A run is single-threaded and
fully deterministic; the only randomness is the seeded RNG handed to the
solver.
"""

import random
from dataclasses import dataclass, field
from enum import IntEnum
from operator import attrgetter

from . import trace as tr
from .mano import (EmbeddingPlan, FailureReason, ResourceLedger, check_plan,
                   find_affected_sfcs, plan_structure_errors)
from .solver import Solver, SolveMode, SolverDecision, SolverInput
from .topology import SubstrateTopology
from .trace import TraceLog
from .workload import SfcRequest, VnfCatalog, validate_workload


class MalformedScenario(ValueError):
    """Inputs violated the engine preconditions (unvalidated workload, etc.)."""


class EventKind(IntEnum):
    """Dispatch priority for simultaneous events (lower value first)."""

    TOPOLOGY_CHANGE = 0
    SFC_DEPARTURE = 1
    SFC_ARRIVAL = 2


@dataclass(frozen=True, order=True)
class SimEvent:
    time: float
    kind: EventKind
    seq: int
    sfc_id: int | None = field(default=None, compare=False)


@dataclass
class SimulationReport:
    """End of a run plus its trace; every counter is read from the trace."""

    end_time: float
    trace: TraceLog

    @property
    def arrivals(self) -> int:
        return self.trace.arrival_count()

    @property
    def accepted(self) -> int:
        return self.trace.accepted_count()

    @property
    def rejected(self) -> int:
        return self.trace.rejected_count()

    @property
    def terminated_early(self) -> int:
        return self.trace.terminated_count()

    @property
    def running_count(self) -> list[tuple[float, int]]:
        return self.trace.running_count_series()


def build_event_queue(topo: SubstrateTopology,
                      requests: list[SfcRequest]) -> list[SimEvent]:
    """All events of a run, fully ordered.

    One topology change per time point after the first (the first snapshot is
    the initial state, not a change), one arrival per request start and one
    departure per request end.  Same-instant events of equal kind keep
    ascending sfc_id order via the sequence numbers.
    """
    events: list[SimEvent] = []
    seq = 0
    for t in topo.time_points[1:]:
        events.append(SimEvent(time=t, kind=EventKind.TOPOLOGY_CHANGE, seq=seq))
        seq += 1
    for req in sorted(requests, key=lambda r: r.sfc_id):
        events.append(SimEvent(time=req.start_time, kind=EventKind.SFC_ARRIVAL,
                               seq=seq, sfc_id=req.sfc_id))
        seq += 1
        events.append(SimEvent(time=req.end_time, kind=EventKind.SFC_DEPARTURE,
                               seq=seq, sfc_id=req.sfc_id))
        seq += 1
    events.sort(key=attrgetter("time", "kind", "seq"))  # SimEvent's order, keyed at C level
    return events


# Per solve mode: record kind, outcome on commit, outcome otherwise, and the
# reason recorded when the solver's Accept fails the orchestrator's gate.
_OUTCOMES = {
    SolveMode.EMBED: (tr.KIND_ARRIVAL, tr.OUTCOME_ACCEPTED, tr.OUTCOME_REJECTED,
                      FailureReason.SOLVER_REJECTED),
    SolveMode.MIGRATE: (tr.KIND_MIGRATION, tr.OUTCOME_MIGRATED, tr.OUTCOME_TERMINATED,
                        FailureReason.MIGRATION_FAILED),
}


def run(topo: SubstrateTopology, requests: list[SfcRequest], catalog: VnfCatalog,
        solver: Solver, trace_sink: TraceLog | None = None, seed: int = 0,
        boundary_hook=None) -> SimulationReport:
    """Execute one simulation run and return its report.

    Arrivals go through the solver and, on accept, the orchestrator's plan
    check before resources are committed; an Accept that fails that check,
    a Reject whose reason is no ``FailureReason``, or an answer that is no
    ``SolverDecision`` is demoted to a rejection and the discrepancy is
    trace-logged.  An exception raised by the solver propagates.
    Departures release.  Topology changes swap the active snapshot, then
    migrate every invalidated SFC in ascending id order: the old plan is
    released first so the solver can reuse the SFC's own resources, and a
    failed re-embed terminates the SFC early.

    ``boundary_hook(time, ledger)``, when given, runs after every event; the
    test suite uses it to assert resource conservation at event boundaries.
    The report's counters are read from the trace, so a ``trace_sink`` passed
    in should start empty.
    """
    report = validate_workload(requests, catalog, topo)
    if not report.ok:
        raise MalformedScenario(report.summary())

    trace = trace_sink if trace_sink is not None else TraceLog()
    ledger = ResourceLedger(topo.snapshot_at(topo.start_time), catalog)
    rng = random.Random(seed)
    by_id = {r.sfc_id: r for r in requests}
    queue = build_event_queue(topo, requests)

    def decide(time, request, mode, old_plan=None):
        """Solve once, vet an Accept through the gate, then commit or record why not."""
        kind, committed, failed, broken = _OUTCOMES[mode]
        decision = solver.solve(SolverInput(
            request=request, catalog=catalog, snapshot=ledger.snapshot,
            units=ledger.free_units(), mode=mode, old_plan=old_plan), rng)
        plan, reason = ((decision.plan, decision.reason)
                        if isinstance(decision, SolverDecision) else (None, None))
        if plan is None and isinstance(reason, FailureReason):
            trace.record(time, kind, request.sfc_id, failed, reason)
        elif (plan is None or plan_structure_errors(plan, request, catalog, ledger.snapshot)
              or check_plan(plan, ledger, request) is not None):
            # Solver broke its contract: no decision, a Reject without a
            # FailureReason, or an Accept that fails validation.
            trace.record(time, kind, request.sfc_id, failed, broken)
            trace.record(time, tr.KIND_DISCREPANCY, request.sfc_id, reason=broken,
                         plan_nodes=plan.vnf_placement if isinstance(plan, EmbeddingPlan)
                         else None)
        else:
            ledger._book(plan)  # the gate's check_plan has just run the fit rule
            trace.record(time, kind, request.sfc_id, committed,
                         plan_nodes=plan.vnf_placement)

    for ev in queue:
        if ev.kind == EventKind.SFC_ARRIVAL:
            decide(ev.time, by_id[ev.sfc_id], SolveMode.EMBED)

        elif ev.kind == EventKind.SFC_DEPARTURE:
            if ev.sfc_id in ledger.allocations:
                ledger.release(ev.sfc_id)
                trace.record(ev.time, tr.KIND_DEPARTURE, ev.sfc_id, tr.OUTCOME_RELEASED)
            else:
                # Was rejected or already terminated; nothing to release.
                trace.record(ev.time, tr.KIND_DEPARTURE, ev.sfc_id)

        else:  # EventKind.TOPOLOGY_CHANGE
            new_snap = topo.snapshots[ev.time]
            affected = find_affected_sfcs(ledger, new_snap)
            ledger.set_snapshot(new_snap)
            trace.record(ev.time, tr.KIND_TOPO_CHANGE)
            for sfc_id, _cause in affected:
                decide(ev.time, by_id[sfc_id], SolveMode.MIGRATE, ledger.release(sfc_id))

        trace.sample_utilization(ev.time, ledger)
        if boundary_hook is not None:
            boundary_hook(ev.time, ledger)

    end_time = max(queue[-1].time, topo.time_points[-1]) if queue else topo.time_points[-1]
    return SimulationReport(end_time=end_time, trace=trace)
