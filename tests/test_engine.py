import dataclasses
import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SCENARIO_DIR, F, make_catalog, make_request, make_snapshot, make_topo,
                      single_topo, unit_fractions)
from sfcsim import engine, mano
from sfcsim.engine import EventKind, MalformedScenario, build_event_queue, run
from sfcsim.mano import FailureReason, ResourceLedger, build_plan
from sfcsim.scenario import SaginParams, generate_poisson_workload, generate_sagin, load_scenario
from sfcsim.solver import (GreedySolver, RandomSolver, SolveMode, Solver, SolverDecision,
                           make_solver)
from sfcsim.topology import PhysicalPath
from sfcsim.trace import TraceLog
from sfcsim.workload import VnfCatalog, VnfTemplate
from test_golden_outputs import DIGESTS as GOLDEN


def example_a():
    snap = make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 4, 2], ram=[256, 512, 256])
    topo = single_topo(snap)
    cat = make_catalog([(0, 0.2, 64), (1, 0.2, 64), (2, 0.2, 64)],
                       [(0, 1, 20), (1, 2, 20)])
    reqs = [make_request(sfc_id=0, start=5, end=25, ingress=0, egress=2,
                         chain=(0, 1, 2), qos=50.0),
            make_request(sfc_id=1, start=10, end=50, ingress=0, egress=2,
                         chain=(0, 1, 2), qos=50.0)]
    return topo, reqs, cat


def edge_vanishes():
    """Two nodes whose only edge disappears at t=10."""
    present = make_snapshot(2, [(0, 1)], cpu=[1, 1], ram=[64, 64])
    absent = make_snapshot(2, [], cpu=[1, 1], ram=[64, 64])
    topo = make_topo({0.0: present, 10.0: absent})
    cat = make_catalog([(0, 0.5, 32)], [])
    reqs = [make_request(sfc_id=0, start=1, end=20, ingress=0, egress=1,
                         chain=(0,), qos=100.0)]
    return topo, reqs, cat


class TestEventQueue:
    def test_example_a_schedule(self):
        topo, reqs, _ = example_a()
        events = build_event_queue(topo, reqs)
        arrivals = [(e.time, e.sfc_id) for e in events if e.kind == EventKind.SFC_ARRIVAL]
        departures = [(e.time, e.sfc_id) for e in events if e.kind == EventKind.SFC_DEPARTURE]
        assert arrivals == [(5.0, 0), (10.0, 1)]
        assert departures == [(25.0, 0), (50.0, 1)]

    def test_first_snapshot_is_not_a_change(self):
        snap = make_snapshot(2, [(0, 1)])
        topo = make_topo({0.0: snap, 600.0: snap, 1200.0: snap})
        events = build_event_queue(topo, [])
        assert [e.time for e in events] == [600.0, 1200.0]
        assert all(e.kind == EventKind.TOPOLOGY_CHANGE for e in events)

    def test_topology_change_before_departure(self):
        # a chain that leaves as the substrate changes is still scanned first
        snap = make_snapshot(2, [(0, 1)])
        topo = make_topo({0.0: snap, 25.0: snap})
        events = build_event_queue(topo, [make_request(sfc_id=0, start=5, end=25)])
        assert [e.kind for e in events if e.time == 25.0] == [
            EventKind.TOPOLOGY_CHANGE, EventKind.SFC_DEPARTURE]

    def test_departure_before_arrival_at_same_instant(self):
        topo = single_topo(make_snapshot(2, [(0, 1)]))
        reqs = [make_request(sfc_id=0, start=5, end=25),
                make_request(sfc_id=1, start=25, end=30)]
        events = build_event_queue(topo, reqs)
        at_25 = [e.kind for e in events if e.time == 25.0]
        assert at_25 == [EventKind.SFC_DEPARTURE, EventKind.SFC_ARRIVAL]

    def test_fully_sorted(self):
        topo, reqs, _ = example_a()
        events = build_event_queue(topo, reqs)
        keys = [(e.time, e.kind, e.seq) for e in events]
        assert keys == sorted(keys)

    def test_same_time_arrivals_by_sfc_id(self):
        topo = single_topo(make_snapshot(2, [(0, 1)]))
        reqs = [make_request(sfc_id=9, start=5, end=25),
                make_request(sfc_id=2, start=5, end=30)]
        arrivals = [e.sfc_id for e in build_event_queue(topo, reqs)
                    if e.kind == EventKind.SFC_ARRIVAL]
        assert arrivals == [2, 9]

    @staticmethod
    def assert_dataclass_order(events):
        """The queue is what sorting by SimEvent's own order gives, element by element."""
        expected = sorted(events)
        assert len(events) == len(expected)
        assert all(a is b for a, b in zip(events, expected))

    @pytest.mark.parametrize("name", ["example_a", "sagin_desk", "sagin_full"])
    def test_bundled_queues_follow_the_dataclass_order(self, name):
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        self.assert_dataclass_order(build_event_queue(sc.topo, sc.requests))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), max_size=30),
           st.lists(st.integers(1, 8), max_size=4, unique=True))
    def test_same_instant_queues_follow_the_dataclass_order(self, spans, changes):
        # Few distinct instants, so arrivals, departures and topology changes collide.
        snap = make_snapshot(2, [(0, 1)])
        topo = make_topo({t: snap for t in [0.0, *map(float, changes)]})
        reqs = [make_request(sfc_id=i, start=float(start), end=float(start + length))
                for i, (start, length) in reversed(list(enumerate(spans)))]
        self.assert_dataclass_order(build_event_queue(topo, reqs))


class TestRun:
    def test_example_a_greedy_accepts_both_and_returns_to_initial(self):
        topo, reqs, cat = example_a()
        snapshots_free = []

        def hook(time, ledger):
            snapshots_free.append((time, ledger.cpu_free_all(), ledger.ram_free_all()))

        report = run(topo, reqs, cat, GreedySolver(), TraceLog(), seed=0,
                     boundary_hook=hook)
        assert (report.accepted, report.rejected, report.terminated_early) == (2, 0, 0)
        t, cpu_free, ram_free = snapshots_free[-1]
        assert t == 50.0
        assert cpu_free == (F(2), F(4), F(2))
        assert ram_free == (F(256), F(512), F(256))

    def test_empty_workload(self):
        snap = make_snapshot(2, [(0, 1)])
        topo = make_topo({0.0: snap, 600.0: snap, 1200.0: snap})
        cat = make_catalog([(0, 1, 1)], [])
        report = run(topo, [], cat, GreedySolver(), TraceLog(), seed=0)
        assert report.arrivals == report.accepted == report.rejected == 0
        assert report.end_time == 1200.0

    def test_end_time_is_later_of_events_and_snapshots(self):
        topo, reqs, cat = example_a()
        report = run(topo, reqs, cat, GreedySolver(), TraceLog(), seed=0)
        assert report.end_time == 50.0

    def test_vanished_edge_terminates_early_with_no_path(self):
        topo, reqs, cat = edge_vanishes()
        trace = TraceLog()
        report = run(topo, reqs, cat, GreedySolver(), trace, seed=0)
        assert report.accepted == 1
        assert report.terminated_early == 1
        assert trace.failure_breakdown() == {FailureReason.NO_PATH: 1}

    def test_migration_keeps_sfc_when_alternative_exists(self):
        # triangle: losing one edge still leaves a two-hop detour
        full = make_snapshot(3, [(0, 1), (1, 2), (0, 2)], cpu=[1, 1, 1])
        broken = make_snapshot(3, [(0, 1), (1, 2)], cpu=[1, 1, 1])
        topo = make_topo({0.0: full, 10.0: broken})
        cat = make_catalog([(0, 0.5, 32)], [])
        reqs = [make_request(sfc_id=0, start=1, end=20, ingress=0, egress=2,
                             chain=(0,), qos=100.0)]
        trace = TraceLog()
        report = run(topo, reqs, cat, GreedySolver(), trace, seed=0)
        assert report.terminated_early == 0
        migrated = [r for r in trace.records if r.outcome == "migrated"]
        assert len(migrated) == 1

    def test_departure_after_termination_is_noop(self):
        topo, reqs, cat = edge_vanishes()
        trace = TraceLog()
        run(topo, reqs, cat, GreedySolver(), trace, seed=0)
        final = [r for r in trace.records if r.kind == "departure"]
        assert len(final) == 1 and final[0].outcome is None

    def test_rejects_unvalidated_workload(self):
        topo, _, cat = example_a()
        bad = [make_request(sfc_id=0, start=30, end=5)]
        with pytest.raises(MalformedScenario, match="BadLifecycle"):
            run(topo, bad, cat, GreedySolver(), TraceLog(), seed=0)

    @pytest.mark.parametrize("endpoints, detail", [
        ({"ingress": 1.0}, "ingress 1.0 is not a node in 0..2"),
        ({"ingress": True}, "ingress True is not a node in 0..2"),
        ({"egress": 2.0}, "egress 2.0 is not a node in 0..2")],
        ids=["ingress-float", "ingress-bool", "egress-float"])
    def test_rejects_a_non_int_endpoint(self, endpoints, detail):
        # 1.0 == 1 and True == 1, yet neither may index a node
        topo, _, cat = example_a()
        bad = [make_request(sfc_id=0, start=5, end=30, chain=(0,), **endpoints)]
        with pytest.raises(MalformedScenario) as err:
            run(topo, bad, cat, GreedySolver(), TraceLog(), seed=0)
        assert str(err.value) == f"1 requests, 1 problem(s):\n  sfc 0: BadEndpoint ({detail})"

    def test_conservation_hook_runs_per_event(self):
        topo, reqs, cat = example_a()
        times = []
        run(topo, reqs, cat, GreedySolver(), TraceLog(), seed=0,
            boundary_hook=lambda t, ledger: times.append(t))
        assert times == [5.0, 10.0, 25.0, 50.0]


class TestRunningCount:
    def test_example_a_series(self):
        topo, reqs, cat = example_a()
        report = run(topo, reqs, cat, GreedySolver(), TraceLog(), seed=0)
        assert report.running_count == [(5.0, 1), (10.0, 2), (25.0, 1), (50.0, 0)]

    def test_all_rejected_gives_zero_series(self):
        snap = make_snapshot(1, [], cpu=[0.1], ram=[8])
        cat = make_catalog([(0, 1, 64)], [])
        reqs = [make_request(sfc_id=i, start=i + 1, end=i + 5, chain=(0,))
                for i in range(3)]
        report = run(single_topo(snap), reqs, cat, GreedySolver(), TraceLog(), seed=0)
        assert report.accepted == 0
        assert all(count == 0 for _, count in report.running_count)

    def test_early_termination_decrements_at_change_time(self):
        topo, reqs, cat = edge_vanishes()
        report = run(topo, reqs, cat, GreedySolver(), TraceLog(), seed=0)
        assert report.running_count == [(1.0, 1), (10.0, 0), (20.0, 0)]

    def test_series_integrates_to_realized_lifetimes(self):
        topo, reqs, cat = example_a()
        report = run(topo, reqs, cat, GreedySolver(), TraceLog(), seed=0)
        series = report.running_count
        integral = sum(c * (series[i + 1][0] - series[i][0])
                       for i, (_, c) in enumerate(series[:-1]))
        assert integral == (25.0 - 5.0) + (50.0 - 10.0)

    def test_integral_with_truncation(self):
        topo, reqs, cat = edge_vanishes()
        report = run(topo, reqs, cat, GreedySolver(), TraceLog(), seed=0)
        series = report.running_count
        integral = sum(c * (series[i + 1][0] - series[i][0])
                       for i, (_, c) in enumerate(series[:-1]))
        assert integral == 10.0 - 1.0  # truncated at the topology change


class TestDeterminism:
    def test_identical_runs_identical_records(self):
        topo, reqs, cat = example_a()
        traces = []
        for _ in range(2):
            t = TraceLog()
            run(topo, reqs, cat, RandomSolver(), t, seed=77)
            traces.append(t)
        assert traces[0].records == traces[1].records
        assert traces[0].utilization == traces[1].utilization

    def test_different_seed_can_differ(self):
        topo, reqs, cat = example_a()
        placements = set()
        for seed in range(8):
            t = TraceLog()
            run(topo, reqs, cat, RandomSolver(), t, seed=seed)
            placements.add(tuple(r.plan_nodes for r in t.records
                                 if r.outcome == "accepted"))
        assert len(placements) > 1


def assert_conserved(time, ledger):
    """Capacity minus free equals the sum of active allocations, exactly."""
    snap = ledger.snapshot
    cpu = [Fraction(0)] * snap.node_count
    ram = [Fraction(0)] * snap.node_count
    band: dict = {}
    for plan in ledger.allocations.values():
        for node, x in plan.cpu_alloc.items():
            cpu[node] += x
        for node, x in plan.ram_alloc.items():
            ram[node] += x
        for key, x in plan.band_alloc.items():
            band[key] = band.get(key, Fraction(0)) + x
    for node in range(snap.node_count):
        assert snap.node_cpu_capacity[node] - ledger.cpu_free(node) == cpu[node]
        assert snap.node_ram_capacity[node] - ledger.ram_free(node) == ram[node]
        assert ledger.cpu_free(node) >= 0 and ledger.ram_free(node) >= 0
    assert set(band) <= set(snap.edges())
    for u, v in snap.edges():
        assert snap.edge_band(u, v) - ledger.band_free(u, v) == band.get((u, v), 0)
        assert ledger.band_free(u, v) >= 0


class Answer(NamedTuple):
    """A tamper's whole answer to the engine, given as is, not as an Accept."""

    value: object


class TamperingSolver(Solver):
    """Greedy, except that every Accept in ``modes`` is rewritten by ``tamper``:
    to another plan, which is accepted, or to an :class:`Answer`."""

    def __init__(self, tamper, modes=(SolveMode.EMBED, SolveMode.MIGRATE)):
        self.tamper, self.modes, self.tampered = tamper, modes, 0

    def solve(self, inp, rng):
        decision = GreedySolver().solve(inp, rng)
        if not decision.accepted or inp.mode not in self.modes:
            return decision
        self.tampered += 1
        out = self.tamper(decision.plan, inp)
        return out.value if isinstance(out, Answer) else SolverDecision.accept(out)


# Answers of the wrong type: each raised out of run() or emit_csv before.
MALFORMED_ANSWERS = {
    "tuple legs": lambda plan, inp: dataclasses.replace(
        plan, virtual_link_paths=tuple(path.nodes for path in plan.virtual_link_paths)),
    "None": lambda plan, inp: Answer(None),
    "bare plan": lambda plan, inp: Answer(plan),
    "str reason": lambda plan, inp: Answer(SolverDecision(reason="NoPath")),
    "placement as plan": lambda plan, inp: Answer(SolverDecision(plan=plan.vnf_placement)),
}


def moved(plan, i, node, paths):
    """The plan with VNF position ``i`` moved to ``node`` via the given two legs."""
    placement = list(plan.vnf_placement)
    placement[i] = node
    legs = list(plan.virtual_link_paths)
    legs[i:i + 2] = [PhysicalPath(p) for p in paths]
    return dataclasses.replace(plan, vnf_placement=tuple(placement),
                               virtual_link_paths=tuple(legs))


def rows(trace):
    return [(r.time, r.kind, r.sfc_id, r.outcome, r.reason, r.plan_nodes)
            for r in trace.records if r.kind != "topo_change"]


class TestSolverContractBreaks:
    """An Accept the gate refuses is demoted and logged, never committed."""

    def test_tampered_arrival_is_demoted_to_solver_rejected(self):
        topo, reqs, cat = example_a()

        def tamper(plan, inp):
            return dataclasses.replace(plan, cpu_alloc={**plan.cpu_alloc, 0: F(9)})

        trace = TraceLog()
        report = run(topo, reqs, cat, TamperingSolver(tamper), trace, seed=0,
                     boundary_hook=assert_conserved)
        demoted = FailureReason.SOLVER_REJECTED
        assert rows(trace) == [
            (5.0, "arrival", 0, "rejected", demoted, None),
            (5.0, "discrepancy", 0, None, demoted, (1, 1, 1)),
            (10.0, "arrival", 1, "rejected", demoted, None),
            (10.0, "discrepancy", 1, None, demoted, (1, 1, 1)),
            (25.0, "departure", 0, None, None, None),
            (50.0, "departure", 1, None, None, None)]
        assert (report.arrivals, report.accepted, report.rejected,
                report.terminated_early) == (2, 0, 2, 0)
        assert trace.failure_breakdown() == {demoted: 2}

    def test_tampered_migration_is_demoted_to_migration_failed(self):
        full = make_snapshot(3, [(0, 1), (1, 2), (0, 2)], cpu=[1, 1, 1])
        broken = make_snapshot(3, [(0, 1), (1, 2)], cpu=[1, 1, 1])
        topo = make_topo({0.0: full, 10.0: broken})
        cat = make_catalog([(0, 0.5, 32)], [])
        reqs = [make_request(sfc_id=0, start=1, end=20, ingress=0, egress=2,
                             chain=(0,), qos=100.0)]

        def tamper(plan, inp):
            return dataclasses.replace(plan, total_latency=-1.0)

        trace = TraceLog()
        report = run(topo, reqs, cat, TamperingSolver(tamper, (SolveMode.MIGRATE,)),
                     trace, seed=0, boundary_hook=assert_conserved)
        failed = FailureReason.MIGRATION_FAILED
        assert rows(trace) == [
            (1.0, "arrival", 0, "accepted", None, (0,)),
            (10.0, "migration", 0, "terminated", failed, None),
            (10.0, "discrepancy", 0, None, failed, (0,)),
            (20.0, "departure", 0, None, None, None)]
        assert (report.arrivals, report.accepted, report.rejected,
                report.terminated_early) == (1, 1, 0, 1)
        assert report.running_count == [(1.0, 1), (10.0, 0), (20.0, 0)]

    @pytest.mark.parametrize("node, paths", [
        (2, ((0, 2), (2,))),   # (0,2) is not an edge of the chain 0-1-2
        (7, ((0, 7), (7, 2))),  # node 7 is outside the three-node substrate
    ])
    def test_plan_off_the_substrate_is_demoted_not_raised(self, node, paths):
        snap = make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 4, 2], ram=[256, 512, 256])
        cat = make_catalog([(0, 0.2, 64)], [])
        reqs = [make_request(sfc_id=0, start=1, end=9, ingress=0, egress=2, chain=(0,))]
        trace = TraceLog()
        report = run(single_topo(snap), reqs, cat,
                     TamperingSolver(lambda plan, inp: moved(plan, 0, node, paths)),
                     trace, seed=0, boundary_hook=assert_conserved)
        assert rows(trace)[:2] == [
            (1.0, "arrival", 0, "rejected", FailureReason.SOLVER_REJECTED, None),
            (1.0, "discrepancy", 0, None, FailureReason.SOLVER_REJECTED, (node,))]
        assert (report.accepted, report.rejected) == (0, 1)

    @pytest.mark.parametrize("shape", sorted(MALFORMED_ANSWERS))
    def test_malformed_answers_are_demoted_not_raised(self, shape, tmp_path):
        topo, reqs, cat = example_a()
        trace = TraceLog()
        report = run(topo, reqs, cat, TamperingSolver(MALFORMED_ANSWERS[shape]), trace,
                     seed=0, boundary_hook=assert_conserved)
        demoted = FailureReason.SOLVER_REJECTED
        noted = (1, 1, 1) if shape == "tuple legs" else None  # an EmbeddingPlan's placement
        assert rows(trace) == [
            (5.0, "arrival", 0, "rejected", demoted, None),
            (5.0, "discrepancy", 0, None, demoted, noted),
            (10.0, "arrival", 1, "rejected", demoted, None),
            (10.0, "discrepancy", 1, None, demoted, noted),
            (25.0, "departure", 0, None, None, None),
            (50.0, "departure", 1, None, None, None)]
        assert (report.accepted, report.rejected) == (0, 2)
        trace.emit_csv(tmp_path)
        assert (tmp_path / "summary.csv").read_text().splitlines()[:2] == [
            "arrivals,accepted,rejected,terminated_early,acceptance_ratio",
            "2,0,2,0,0.000000"]
        assert "SolverRejected,2,,," in (tmp_path / "summary.csv").read_text().splitlines()

    @pytest.mark.parametrize("field", ["cpu_alloc", "ram_alloc", "band_alloc", "nodes"])
    def test_float_nodes_are_demoted_not_raised(self, field):
        """{1.0: x} == {1: x}, so only the gate's int test keeps a float key
        from indexing the ledger (cpu, ram) or being booked (band)."""
        floated = []  # per Accept: whether the rewrite put a float in it

        def tamper(plan, inp):
            floated.append(field != "band_alloc" or bool(plan.band_alloc))
            if field == "nodes":
                return dataclasses.replace(
                    plan, vnf_placement=tuple(map(float, plan.vnf_placement)),
                    virtual_link_paths=tuple(PhysicalPath(tuple(map(float, path.nodes)))
                                             for path in plan.virtual_link_paths))
            if field == "band_alloc":
                return dataclasses.replace(plan, band_alloc={
                    (float(u), v): x for (u, v), x in plan.band_alloc.items()})
            return dataclasses.replace(plan, **{field: {
                float(node): x for node, x in getattr(plan, field).items()}})

        topo, reqs, cat = line_scenario()
        solver, trace = TamperingSolver(tamper), TraceLog()
        report = run(topo, reqs, cat, solver, trace, seed=0, boundary_hook=assert_conserved)
        discrepancies = [r for r in trace.records if r.kind == "discrepancy"]
        assert len(discrepancies) == sum(floated) >= 1 and len(floated) == solver.tampered
        assert report.accepted + report.rejected == report.arrivals == len(reqs)



def line_scenario():
    """Five nodes in a line; at t=10 node 2, where greedy packs, loses its cpu."""
    before = make_snapshot(5, [(i, i + 1) for i in range(4)], cpu=[1, 1, 4, 1, 1])
    after = make_snapshot(5, [(i, i + 1) for i in range(4)], cpu=[4, 1, 0.1, 1, 1])
    cat = make_catalog([(0, 0.5, 32), (1, 0.5, 32)], [(0, 1, 10)])
    reqs = [make_request(sfc_id=i, start=1 + i, end=20 + i, ingress=0, egress=4,
                         chain=(0, 1), qos=100.0) for i in range(3)]
    return make_topo({0.0: before, 10.0: after}), reqs, cat


def _bump(mapping, key, delta):
    return {**mapping, key: mapping.get(key, Fraction(0)) + delta}


@st.composite
def tampers(draw):
    """A rewrite that turns any honest Accept on ``line_scenario`` into a bad plan."""
    kind = draw(st.sampled_from(["sfc_id", "legs", "placement", "node", "edge",
                                 "alloc", "floats", "latency", "answer"]))
    i = draw(st.integers(0, 1))  # VNF position to move
    if kind == "answer":
        return MALFORMED_ANSWERS[draw(st.sampled_from(sorted(MALFORMED_ANSWERS)))]
    if kind == "sfc_id":
        k = draw(st.integers(1, 3))
        return lambda plan, inp: dataclasses.replace(plan, sfc_id=plan.sfc_id + k)
    if kind == "legs":
        drop = draw(st.booleans())
        return lambda plan, inp: dataclasses.replace(
            plan, virtual_link_paths=plan.virtual_link_paths[:-1] if drop else
            plan.virtual_link_paths + (PhysicalPath((inp.request.egress,)),))
    if kind == "placement":
        return lambda plan, inp: dataclasses.replace(
            plan, vnf_placement=plan.vnf_placement + plan.vnf_placement[-1:])
    if kind in ("node", "edge"):
        bad = draw(st.sampled_from([-1, 5, 7]))

        def tamper(plan, inp):
            req = inp.request
            ways = (req.ingress, *plan.vnf_placement, req.egress)
            # a node off the substrate, or the line's end farthest from the
            # previous waypoint, which is never its neighbour
            node = bad if kind == "node" else (0 if ways[i] >= 2 else 4)
            legs = [(ways[i], node) if ways[i] != node else (node,),
                    (node, ways[i + 2]) if ways[i + 2] != node else (node,)]
            return moved(plan, i, node, legs)
        return tamper
    if kind == "alloc":
        field = draw(st.sampled_from(["cpu_alloc", "ram_alloc", "band_alloc"]))
        delta = draw(st.sampled_from([F(1), F(-1) / 4, F(1) / 1000]))
        node = draw(st.integers(0, 4))
        drop = draw(st.booleans())

        def tamper(plan, inp):
            mapping = dict(getattr(plan, field))
            if drop and mapping:
                mapping.pop(next(iter(mapping)))
            else:
                mapping = _bump(mapping, (node, node + 1) if field == "band_alloc"
                                else node, delta)
            return dataclasses.replace(plan, **{field: mapping})
        return tamper
    if kind == "floats":  # 0.5 == Fraction(1, 2): only the amounts' type is wrong
        return lambda plan, inp: dataclasses.replace(plan, **{
            field: {key: float(x) for key, x in getattr(plan, field).items()}
            for field in ("cpu_alloc", "ram_alloc", "band_alloc")})
    latency = draw(st.sampled_from([math.nan, -1.0, -math.inf]))
    return lambda plan, inp: dataclasses.replace(plan, total_latency=latency)


class TestAdversarialSolver:
    @given(tampers(), st.sampled_from([SolveMode.EMBED, SolveMode.MIGRATE]))
    @settings(max_examples=80, deadline=None)
    def test_bad_plans_are_demoted_and_resources_conserved(self, tamper, mode):
        topo, reqs, cat = line_scenario()
        solver = TamperingSolver(tamper, (mode,))
        trace = TraceLog()
        report = run(topo, reqs, cat, solver, trace, seed=0,
                     boundary_hook=assert_conserved)
        broken = (FailureReason.SOLVER_REJECTED if mode == SolveMode.EMBED
                  else FailureReason.MIGRATION_FAILED)
        discrepancies = [i for i, r in enumerate(trace.records) if r.kind == "discrepancy"]
        assert solver.tampered >= 1
        assert len(discrepancies) == solver.tampered
        for i in discrepancies:
            outcome, note = trace.records[i - 1], trace.records[i]
            assert (outcome.sfc_id, outcome.reason) == (note.sfc_id, broken)
            assert note.reason is broken
        assert report.accepted + report.rejected == report.arrivals == len(reqs)


def test_writes_into_the_input_do_not_reach_the_gate():
    """A solver may write into its ``inp.units``; the gate reads the ledger's
    own amounts, so an Accept that over-draws is demoted."""
    snap = make_snapshot(2, [(0, 1)], cpu=[1, 1])
    cat = make_catalog([(0, 1, 32)], [])
    reqs = [make_request(sfc_id=i, start=1 + i, end=10, chain=(0,)) for i in range(2)]

    class Overwriter(Solver):
        def solve(self, inp, rng):
            inp.units.cpu[0] += 100 * inp.units.cpu_scale
            return SolverDecision.accept(build_plan(inp.request, inp.catalog, inp.snapshot,
                                                    (0,), [PhysicalPath((0,))] * 2))

    trace = TraceLog()
    run(single_topo(snap), reqs, cat, Overwriter(), trace, seed=0,
        boundary_hook=assert_conserved)
    assert rows(trace)[:3] == [
        (1.0, "arrival", 0, "accepted", None, (0,)),
        (2.0, "arrival", 1, "rejected", FailureReason.SOLVER_REJECTED, None),
        (2.0, "discrepancy", 1, None, FailureReason.SOLVER_REJECTED, (0,))]


def test_solvers_read_the_ledgers_free_amounts(monkeypatch):
    """At every decision, the input's units divided by their scales are the
    ledger's own three views at that moment."""
    ledgers = []

    class RecordedLedger(ResourceLedger):
        def __init__(self, *args):
            super().__init__(*args)
            ledgers.append(self)

    class Recorder(Solver):
        name = "recorder"

        def __init__(self):
            self.modes = []

        def solve(self, inp, rng):
            ledger = ledgers[-1]
            assert unit_fractions(inp.units) == (ledger.cpu_free_all(), ledger.ram_free_all(),
                                                 ledger.band_free_map())
            self.modes.append(inp.mode)
            return GreedySolver().solve(inp, rng)

    monkeypatch.setattr(engine, "ResourceLedger", RecordedLedger)
    sc = load_scenario(SCENARIO_DIR / "sagin_desk.json")
    solver = Recorder()
    run(sc.topo, sc.requests, sc.catalog, solver, seed=sc.seed)
    assert len(ledgers) == 1
    assert solver.modes.count(SolveMode.EMBED) == len(sc.requests)
    assert SolveMode.MIGRATE in solver.modes


@pytest.mark.parametrize("name", ["sagin_desk", "sagin_full"])
def test_the_fit_rule_runs_once_per_vetted_accept(monkeypatch, name):
    """The gate's ``check_plan`` is the fit rule's one run per decision: the
    engine books a plan that passed it without running the rule again."""
    calls = Counter()

    def counted(what, fn):
        def wrapper(*args):
            calls[what] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mano, "_over_drawn", counted("rule", mano._over_drawn))
    monkeypatch.setattr(engine, "check_plan", counted("gate", engine.check_plan))
    sc = load_scenario(SCENARIO_DIR / f"{name}.json")
    trace = TraceLog()
    run(sc.topo, sc.requests, sc.catalog, GreedySolver(), trace, seed=sc.seed)
    outcomes = Counter(r.outcome for r in trace.records)
    assert outcomes["migrated"] > 0
    assert calls["rule"] == calls["gate"] >= outcomes["accepted"] + outcomes["migrated"]


def csv_digest(topo, requests, catalog, solver_name, seed, out_dir):
    """The digest ``sfcsim run`` pins in ``test_golden_outputs``, from an in-process run."""
    trace = TraceLog()
    run(topo, requests, catalog, make_solver(solver_name), trace, seed=seed)
    digest = hashlib.sha256()
    for path in trace.emit_csv(out_dir):
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestFloatQuantitiesThroughTheApi:
    """A float exact quantity handed to the Python API means what the same
    number means in a scenario file: 0.3 is 3/10.  Both runs below used to
    raise AttributeError ('float' object has no attribute 'denominator')."""

    @pytest.mark.parametrize("solver_name", ["greedy", "random"])
    def test_float_catalog_runs_as_its_fraction_twin(self, solver_name, tmp_path):
        sc = load_scenario(SCENARIO_DIR / "example_a.json")
        catalog = VnfCatalog([VnfTemplate(t.vnf_id, float(t.cpu_demand), float(t.ram_demand))
                              for t in sc.catalog.templates.values()],
                             sc.catalog.link_band_demand)
        assert catalog.templates[0].cpu_demand == Fraction(1, 5)
        assert csv_digest(sc.topo, sc.requests, catalog, solver_name, sc.seed,
                          tmp_path) == GOLDEN[("example_a", solver_name)]

    @pytest.mark.parametrize("solver_name", ["greedy", "random"])
    def test_float_sagin_params_run_as_their_fraction_twins(self, solver_name, tmp_path):
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        cfg = doc["substrate"]["generator"]["sagin"]
        assert type(cfg["sat_cpu"]) is float and type(cfg["uav_cpu"]) is float  # 1.5, 0.3
        sc = load_scenario(SCENARIO_DIR / "sagin_desk.json")
        topo = generate_sagin(SaginParams(**cfg))
        assert topo.snapshots[0.0].node_cpu_capacity[0] == Fraction(3, 2)
        requests = generate_poisson_workload(topo, sc.catalog, seed=sc.seed,
                                             **doc["workload"]["generator"]["poisson"])
        assert requests == sc.requests
        assert csv_digest(topo, requests, sc.catalog, solver_name, sc.seed,
                          tmp_path) == GOLDEN[("sagin_desk", solver_name)]
