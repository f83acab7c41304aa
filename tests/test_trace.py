import gc
import random
import weakref
from fractions import Fraction

import pytest

import oracle
from conftest import F, make_catalog, make_request, make_snapshot, make_topo, single_topo
from sfcsim.engine import run
from sfcsim.mano import EmbeddingPlan, FailureReason, ResourceLedger
from sfcsim.solver import GreedySolver, make_solver
from sfcsim.trace import EVENT_KINDS, TraceLog, UtilizationSample
from test_acceptance import _random_small_scenario


def example_a_run(boundary_hook=None):
    snap = make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 4, 2], ram=[256, 512, 256])
    cat = make_catalog([(0, 0.2, 64), (1, 0.2, 64), (2, 0.2, 64)],
                       [(0, 1, 20), (1, 2, 20)])
    reqs = [make_request(sfc_id=0, start=5, end=25, ingress=0, egress=2,
                         chain=(0, 1, 2), qos=50.0),
            make_request(sfc_id=1, start=10, end=50, ingress=0, egress=2,
                         chain=(0, 1, 2), qos=50.0)]
    trace = TraceLog()
    report = run(single_topo(snap), reqs, cat, GreedySolver(), trace, seed=0,
                 boundary_hook=boundary_hook)
    return report, trace, reqs, cat


def saturated_run(arrivals=4, boundary_hook=None):
    """One-node substrate; each chain takes 0.8 cpu, capacity fits one at a time."""
    snap = make_snapshot(1, [], cpu=[1.0], ram=[4096])
    cat = make_catalog([(0, 0.8, 64)], [])
    reqs = [make_request(sfc_id=i, start=10 * i + 1, end=10 * i + 25, chain=(0,))
            for i in range(arrivals)]
    trace = TraceLog()
    report = run(single_topo(snap), reqs, cat, GreedySolver(), trace, seed=0,
                 boundary_hook=boundary_hook)
    return report, trace


def live_counts():
    """A boundary hook and the (time, active allocations) it reads off the ledger."""
    counts = []
    return counts, lambda time, ledger: counts.append((time, len(ledger.allocations)))


class TestAcceptanceRatio:
    def test_all_accepted(self):
        _, trace, _, _ = example_a_run()
        assert trace.acceptance_ratio() == 1.0

    def test_zero_arrivals_defined_as_one(self):
        assert TraceLog().acceptance_ratio() == 1.0

    def test_three_quarters(self):
        # overlapping lifecycles on the saturated node: every second chain fits
        snap = make_snapshot(1, [], cpu=[1.0], ram=[4096])
        cat = make_catalog([(0, 0.8, 64)], [])
        reqs = [make_request(sfc_id=0, start=1, end=100, chain=(0,)),
                make_request(sfc_id=1, start=2, end=3, chain=(0,)),  # rejected
                make_request(sfc_id=2, start=101, end=110, chain=(0,)),
                make_request(sfc_id=3, start=120, end=130, chain=(0,))]
        trace = TraceLog()
        run(single_topo(snap), reqs, cat, GreedySolver(), trace, seed=0)
        assert trace.acceptance_ratio() == 0.75


class TestFailureBreakdown:
    def test_all_accepted_empty(self):
        _, trace, _, _ = example_a_run()
        assert trace.failure_breakdown() == {}

    def test_saturation_counts_cpu_rejections(self):
        snap = make_snapshot(1, [], cpu=[1.0], ram=[4096])
        cat = make_catalog([(0, 0.8, 64)], [])
        # all four overlap; only the first fits
        reqs = [make_request(sfc_id=i, start=1 + i, end=100 + i, chain=(0,))
                for i in range(4)]
        trace = TraceLog()
        report = run(single_topo(snap), reqs, cat, GreedySolver(), trace, seed=0)
        assert report.rejected == 3
        assert trace.failure_breakdown() == {FailureReason.NODE_CPU_INSUFFICIENT: 3}

    def test_sum_matches_report(self):
        report, trace = saturated_run()
        assert sum(trace.failure_breakdown().values()) == \
            report.rejected + report.terminated_early


class TestRunningCountFromTrace:
    def test_matches_engine_series(self):
        counts, hook = live_counts()
        _, trace, _, _ = example_a_run(boundary_hook=hook)
        assert trace.running_count_series() == counts

    def test_matches_on_saturated_run(self):
        counts, hook = live_counts()
        _, trace = saturated_run(boundary_hook=hook)
        assert trace.running_count_series() == counts


class TestUtilizationReconstruction:
    def test_samples_replay_from_records(self):
        report, trace, reqs, cat = example_a_run()
        by_id = {r.sfc_id: r for r in reqs}
        n = 3
        active: dict[int, tuple[int, ...]] = {}
        boundary = -1
        expected_blocks = []
        for rec in trace.records:
            if rec.kind in EVENT_KINDS:
                if boundary >= 0:
                    expected_blocks.append(dict(active))
                boundary += 1
            if rec.outcome == "accepted" or rec.outcome == "migrated":
                active[rec.sfc_id] = rec.plan_nodes
            elif rec.outcome in ("released", "terminated"):
                active.pop(rec.sfc_id)
        expected_blocks.append(dict(active))

        assert len(trace.utilization) == len(expected_blocks) * n
        for i, placements in enumerate(expected_blocks):
            cpu = [Fraction(0)] * n
            ram = [Fraction(0)] * n
            for sfc_id, nodes in placements.items():
                for node, vnf in zip(nodes, by_id[sfc_id].vnf_chain):
                    cpu[node] += cat.templates[vnf].cpu_demand
                    ram[node] += cat.templates[vnf].ram_demand
            block = trace.utilization[i * n:(i + 1) * n]
            assert [s.cpu_used for s in block] == cpu
            assert [s.ram_used for s in block] == ram

    def test_fractions_within_bounds(self):
        _, trace, _, _ = example_a_run()
        for s in trace.utilization:
            assert 0 <= s.cpu_used <= s.cpu_capacity
            assert 0 <= s.ram_used <= s.ram_capacity


def ledger_samples(time, ledger):
    """The samples a boundary at ``time`` records, read off the ledger node by node."""
    snap = ledger.snapshot
    return [UtilizationSample(time, node, ledger.cpu_used(node), snap.node_cpu_capacity[node],
                              ledger.ram_used(node), snap.node_ram_capacity[node])
            for node in range(snap.node_count)]


def node_plan(sfc_id, cpu=(), ram=()):
    """A plan that holds only node resources: ``cpu``/``ram`` are (node, amount) pairs."""
    return EmbeddingPlan(sfc_id=sfc_id, vnf_placement=(), virtual_link_paths=(),
                         cpu_alloc={node: F(x) for node, x in cpu},
                         ram_alloc={node: F(x) for node, x in ram},
                         band_alloc={}, total_latency=0.0)


class Recorder:
    """Samples a ledger into a TraceLog and, alongside, node by node."""

    def __init__(self):
        self.trace = TraceLog()
        self.expected = []

    def sample(self, time, ledger):
        self.trace.sample_utilization(time, ledger)
        self.expected += ledger_samples(time, ledger)


def assert_matches_reference(trace, expected, out_dir):
    assert trace.utilization == expected
    trace.emit_csv(out_dir)
    assert (out_dir / "utilization.csv").read_bytes() == oracle.utilization_csv(expected)


class TestUtilizationAgainstReference:
    def test_random_scenarios(self, tmp_path):
        rng = random.Random(20261018)
        for i in range(200):
            topo, requests, catalog = _random_small_scenario(rng)
            expected = []
            trace = TraceLog()
            run(topo, requests, catalog, make_solver("random" if i % 2 else "greedy"),
                trace, seed=i,
                boundary_hook=lambda time, ledger: expected.extend(ledger_samples(time, ledger)))
            assert_matches_reference(trace, expected, tmp_path / str(i))

    def test_usage_changes_on_one_node_under_one_snapshot(self, tmp_path):
        ledger = ResourceLedger(make_snapshot(3, [(0, 1), (1, 2)]))
        rec = Recorder()
        rec.sample(0.0, ledger)
        ledger.allocate(node_plan(0, cpu=[(1, "1/2")], ram=[(1, 64)]))
        rec.sample(1.0, ledger)
        ledger.allocate(node_plan(1, ram=[(1, 32)]))  # ram alone moves
        rec.sample(2.0, ledger)
        ledger.allocate(node_plan(2, cpu=[(2, "1/3")]))  # cpu alone moves
        rec.sample(3.0, ledger)
        ledger.release(0)
        rec.sample(4.0, ledger)
        assert_matches_reference(rec.trace, rec.expected, tmp_path)

    def test_capacity_changes_while_usage_holds(self, tmp_path):
        ledger = ResourceLedger(make_snapshot(2, [(0, 1)], cpu=[4, 4], ram=[512, 512]))
        ledger.allocate(node_plan(0, cpu=[(1, 1)], ram=[(1, 128)]))
        rec = Recorder()
        rec.sample(0.0, ledger)
        for t, cpu, ram in [(1.0, [4, 4], [512, 256]),   # ram capacity alone
                            (2.0, [4, 2], [512, 256]),   # cpu capacity alone
                            (3.0, [4, 2], [512, 256])]:  # equal values, new objects
            ledger.set_snapshot(make_snapshot(2, [(0, 1)], cpu=cpu, ram=ram))
            rec.sample(t, ledger)
        assert_matches_reference(rec.trace, rec.expected, tmp_path)

    def test_node_returns_to_earlier_values(self, tmp_path):
        a = make_snapshot(2, [(0, 1)], cpu=[2, 2], ram=[256, 256])
        b = make_snapshot(2, [(0, 1)], cpu=[1, 2], ram=[256, 128])
        ledger = ResourceLedger(a)
        rec = Recorder()
        ledger.allocate(node_plan(0, cpu=[(0, "1/4")], ram=[(0, 16)]))
        rec.sample(0.0, ledger)
        ledger.allocate(node_plan(1, cpu=[(0, "1/4")], ram=[(0, 16)]))
        ledger.set_snapshot(b)
        rec.sample(1.0, ledger)
        ledger.release(1)
        ledger.set_snapshot(a)
        rec.sample(2.0, ledger)
        values = [(s.cpu_used, s.cpu_capacity, s.ram_used, s.ram_capacity)
                  for s in rec.expected]
        assert values[4:] == values[:2] != values[2:4]
        assert_matches_reference(rec.trace, rec.expected, tmp_path)

    def test_equal_blocks_then_a_change_then_the_earlier_usage(self, tmp_path):
        ledger = ResourceLedger(make_snapshot(3, [(0, 1), (1, 2)]))
        ledger.allocate(node_plan(0, cpu=[(1, "1/2")], ram=[(1, 64)]))
        rec = Recorder()
        for t in (0.0, 1.0, 2.0):  # a run of blocks on the same usage tuples
            rec.sample(t, ledger)
        usage = ledger.node_usage()
        assert ledger.node_usage() is usage
        ledger.allocate(node_plan(1, cpu=[(2, 1)], ram=[(0, 8)]))
        assert ledger.node_usage() is not usage
        rec.sample(3.0, ledger)
        ledger.release(1)  # back to the earlier usage, in new tuples
        assert ledger.node_usage() == usage and ledger.node_usage()[0] is not usage[0]
        rec.sample(4.0, ledger)
        rec.sample(5.0, ledger)
        ledger.set_snapshot(make_snapshot(3, [(0, 1)]))  # equal capacities, new tuples
        rec.sample(6.0, ledger)
        ledger.set_snapshot(make_snapshot(3, [(0, 1)], cpu=[10, 10, 5]))
        rec.sample(7.0, ledger)
        assert_matches_reference(rec.trace, rec.expected, tmp_path)

    def test_one_node_substrate(self, tmp_path):
        expected = []
        _, trace = saturated_run(
            boundary_hook=lambda time, ledger: expected.extend(ledger_samples(time, ledger)))
        assert expected
        assert_matches_reference(trace, expected, tmp_path)

    def test_empty_run(self, tmp_path):
        assert_matches_reference(TraceLog(), [], tmp_path / "fresh")
        trace = TraceLog()
        run(single_topo(make_snapshot(2, [(0, 1)])), [], make_catalog([(0, 1, 1)], []),
            GreedySolver(), trace, seed=0)
        assert_matches_reference(trace, [], tmp_path / "no_requests")

    def test_substrates_of_different_sizes_in_one_trace(self, tmp_path):
        rec = Recorder()
        for t, n in enumerate([3, 1, 3, 2]):
            ledger = ResourceLedger(make_snapshot(n, []))
            ledger.allocate(node_plan(0, cpu=[(0, t + 1)], ram=[(n - 1, 8)]))
            rec.sample(float(t), ledger)
        assert_matches_reference(rec.trace, rec.expected, tmp_path)

    def test_usage_moves_to_a_wider_scale(self, tmp_path):
        # no catalog, integer capacities: cpu is counted in whole units until
        # the 1/2 plan, then in halves, so node 0 holds 2 units both times
        ledger = ResourceLedger(make_snapshot(2, [(0, 1)], cpu=[4, 4]))
        rec = Recorder()
        ledger.allocate(node_plan(0, cpu=[(0, 1)]))
        ledger.allocate(node_plan(1, cpu=[(0, 1)]))
        rec.sample(0.0, ledger)
        ledger.release(0)
        ledger.allocate(node_plan(2, cpu=[(1, "1/2")]))
        rec.sample(1.0, ledger)
        assert [s.cpu_used for s in rec.expected] == [2, 0, 1, F("1/2")]
        assert_matches_reference(rec.trace, rec.expected, tmp_path)
        rows = (tmp_path / "utilization.csv").read_text().splitlines()
        assert rows[3] == "1.000000,0,1.000000,4.000000,0.000000,1024.000000"

    def test_earlier_block_survives_ledger_mutation(self):
        ledger = ResourceLedger(make_snapshot(2, [(0, 1)]))
        ledger.allocate(node_plan(0, cpu=[(0, 1)], ram=[(0, 64)]))
        trace = TraceLog()
        trace.sample_utilization(0.0, ledger)
        expected = ledger_samples(0.0, ledger)
        ledger.allocate(node_plan(1, cpu=[(0, 2), (1, 3)], ram=[(0, 32), (1, 32)]))
        assert trace.utilization == expected
        ledger.release(0)
        assert trace.utilization == expected

    def test_a_finished_run_keeps_no_snapshot_alive(self):
        topo = make_topo({0: make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 4, 2]),
                          10: make_snapshot(3, [(0, 1)], cpu=[1, 4, 2])})
        reqs = [make_request(sfc_id=i, start=2 + 5 * i, end=30, chain=(0,)) for i in range(3)]
        trace = TraceLog()
        run(topo, reqs, make_catalog([(0, 0.5, 64)], []), GreedySolver(), trace, seed=0)
        refs = [weakref.ref(snap) for snap in topo.snapshots.values()]
        samples = trace.utilization
        assert {s.cpu_capacity for s in samples if s.node == 0} == {2, 1}
        del topo
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert trace.utilization == samples


class TestCsvEmission:
    def test_final_utilization_rows_are_zero(self, tmp_path):
        _, trace, _, _ = example_a_run()
        trace.emit_csv(tmp_path)
        lines = (tmp_path / "utilization.csv").read_text().splitlines()
        final_rows = lines[-3:]
        for row in final_rows:
            time, node, cpu_used, _, ram_used, _ = row.split(",")
            assert time == "50.000000"
            assert cpu_used == "0.000000" and ram_used == "0.000000"

    def test_empty_run_headers_only(self, tmp_path):
        TraceLog().emit_csv(tmp_path)
        assert (tmp_path / "events.csv").read_text() == \
            "time,seq,kind,sfc_id,outcome,reason\n"
        assert (tmp_path / "utilization.csv").read_text().splitlines()[0] == \
            "time,node,cpu_used,cpu_capacity,ram_used_mb,ram_capacity_mb"
        assert (tmp_path / "running_count.csv").read_text() == "time,count\n"
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "arrivals,accepted,rejected,terminated_early,acceptance_ratio"
        assert summary[1] == "0,0,0,0,1.000000"

    def test_reemission_is_byte_identical(self, tmp_path):
        _, trace, _, _ = example_a_run()
        first = {p.name: p.read_bytes() for p in trace.emit_csv(tmp_path / "a")}
        second = {p.name: p.read_bytes() for p in trace.emit_csv(tmp_path / "b")}
        assert first == second

    def test_summary_carries_breakdown_rows(self, tmp_path):
        _, trace = saturated_run()
        trace.emit_csv(tmp_path)
        text = (tmp_path / "summary.csv").read_text()
        for reason in FailureReason:
            assert reason.value in text

    def test_event_rows_match_records(self, tmp_path):
        _, trace, _, _ = example_a_run()
        trace.emit_csv(tmp_path)
        lines = (tmp_path / "events.csv").read_text().splitlines()[1:]
        assert len(lines) == len(trace.records)
        first = lines[0].split(",")
        assert first == ["5.000000", "0", "arrival", "0", "accepted", ""]
