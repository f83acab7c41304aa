"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (SCENARIO_DIR, F, make_catalog, make_request, make_snapshot,
                      make_topo, single_topo, unit_fractions)
from oracle import all_simple_paths, exhaustive_embedding, placement_feasible
from sfcsim.cli import RunConfig, execute_runs
from sfcsim.engine import build_event_queue, run
from sfcsim.scenario import load_scenario
from sfcsim.solver import SOLVERS, GreedySolver, SolverInput, make_solver
from sfcsim.mano import ResourceLedger
from sfcsim.trace import EVENT_KINDS, TraceLog


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_example_a_reproduction():
    with criterion(1, "example-A reproduction"):
        sc = load_scenario(SCENARIO_DIR / "example_a.json")
        trace = TraceLog()
        t0 = time.perf_counter()
        report = run(sc.topo, sc.requests, sc.catalog, make_solver("greedy"),
                     trace, seed=sc.seed)
        elapsed = time.perf_counter() - t0

        assert report.accepted == 2 and report.rejected == 0

        # the 4-core / 512 MB node (index 1) hosts strictly more VNFs
        hosted = [0, 0, 0]
        for rec in trace.records:
            if rec.outcome == "accepted":
                for node in rec.plan_nodes:
                    hosted[node] += 1
        assert hosted[1] > hosted[0] and hosted[1] > hosted[2]

        # peak ram on node 1 dominates every other node's usage everywhere,
        # and reaches 2 x (3 x 64) = 384 MB during the [10, 25] s overlap
        peak = [Fraction(0)] * 3
        for s in trace.utilization:
            peak[s.node] = max(peak[s.node], s.ram_used)
        assert peak[1] >= peak[0] and peak[1] >= peak[2]
        assert peak[1] == F(384)
        overlap = [s for s in trace.utilization if s.node == 1 and 10 <= s.time < 25]
        assert max(s.ram_used for s in overlap) == F(384)

        # after the last departure everything is back to zero, exactly
        final = [s for s in trace.utilization if s.time == 50.0]
        assert len(final) == 3
        assert all(s.cpu_used == 0 and s.ram_used == 0 for s in final)

        assert elapsed < 1.0, f"example-A took {elapsed:.3f}s"


def _random_small_scenario(rng):
    n = rng.randrange(1, 11)
    t_points = sorted(rng.sample(range(0, 1000), rng.randrange(1, 4)))

    def snapshot():
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.55:
                    edges.append((u, v, float(rng.randrange(1, 5)),
                                  rng.choice([10, 40, 120])))
        return make_snapshot(
            n, edges,
            cpu=[F(rng.randrange(1, 30)) / 10 for _ in range(n)],
            ram=[F(rng.choice([32, 64, 128, 256])) for _ in range(n)])

    topo = make_topo({float(t): snapshot() for t in t_points})

    t_ids = range(rng.randrange(1, 5))
    catalog = make_catalog(
        [(i, F(rng.randrange(1, 6)) / 10, rng.choice([8, 16, 48])) for i in t_ids],
        [(a, b, rng.choice([5, 15, 30])) for a in t_ids for b in t_ids if a <= b])

    horizon = 1200.0
    requests = []
    for sfc_id in range(rng.randrange(1, 21)):
        start = t_points[0] + rng.random() * horizon
        chain = tuple(rng.choice(list(t_ids)) for _ in range(rng.randrange(1, 4)))
        requests.append(make_request(
            sfc_id=sfc_id, start=start, end=start + 0.1 + rng.random() * horizon,
            ingress=rng.randrange(n), egress=rng.randrange(n), chain=chain,
            qos=rng.choice([2.0, 8.0, 50.0])))
    return topo, requests, catalog


def test_criterion_2_conservation_fuzz():
    with criterion(2, "conservation fuzz, zero tolerance"):
        rng = random.Random(20240901)
        boundaries = 0

        for i in range(1000):
            topo, requests, catalog = _random_small_scenario(rng)
            solver = make_solver("random" if i % 2 else "greedy")
            live_counts = []

            def check(time_, ledger):
                nonlocal boundaries
                boundaries += 1
                live_counts.append((time_, len(ledger.allocations)))
                snap = ledger.snapshot
                n = snap.node_count
                cpu = [Fraction(0)] * n
                ram = [Fraction(0)] * n
                band = {}
                for plan in ledger.allocations.values():
                    for node, x in plan.cpu_alloc.items():
                        cpu[node] += x
                    for node, x in plan.ram_alloc.items():
                        ram[node] += x
                    for key, x in plan.band_alloc.items():
                        band[key] = band.get(key, Fraction(0)) + x
                for node in range(n):
                    assert snap.node_cpu_capacity[node] - ledger.cpu_free(node) == cpu[node]
                    assert snap.node_ram_capacity[node] - ledger.ram_free(node) == ram[node]
                    assert ledger.cpu_free(node) >= 0
                    assert ledger.ram_free(node) >= 0
                for (u, v) in snap.edges():
                    assert snap.edge_band(u, v) - ledger.band_free(u, v) \
                        == band.get((u, v), Fraction(0))
                    assert ledger.band_free(u, v) >= 0
                # the solver-facing views agree with the per-entry reads,
                # including edges whose usage was released back to 0
                assert ledger.cpu_free_all() == tuple(map(ledger.cpu_free, range(n)))
                assert ledger.ram_free_all() == tuple(map(ledger.ram_free, range(n)))
                assert ledger.band_free_map() == {e: ledger.band_free(*e)
                                                  for e in snap.edges()}
                # and the integer view the solvers read, divided by its scales
                assert unit_fractions(ledger.free_units()) == \
                    (ledger.cpu_free_all(), ledger.ram_free_all(), ledger.band_free_map())

            trace = TraceLog()
            report = run(topo, requests, catalog, solver, trace, seed=i,
                         boundary_hook=check)
            assert trace.running_count_series() == live_counts
            assert report.accepted + report.rejected == report.arrivals == len(requests)
        assert boundaries > 5000
        print(f"[acceptance]   fuzz covered {boundaries} event boundaries")


def test_criterion_3_determinism(tmp_path):
    with criterion(3, "byte-identical reruns"):
        sc = load_scenario(SCENARIO_DIR / "sagin_desk.json")
        payloads = []
        for attempt in ("a", "b"):
            trace = TraceLog()
            run(sc.topo, sc.requests, sc.catalog, make_solver("random"),
                trace, seed=sc.seed)
            files = trace.emit_csv(tmp_path / attempt)
            payloads.append({f.name: f.read_bytes() for f in files})
        assert payloads[0] == payloads[1]
        assert set(payloads[0]) == {"events.csv", "utilization.csv",
                                    "running_count.csv", "summary.csv"}


def _oracle_instances(rng, count):
    """Tiny substrates where every node pair has at most 3 simple paths."""
    shapes = [
        make_snapshot(3, [(0, 1), (1, 2)]),
        make_snapshot(4, [(0, 1), (1, 2), (2, 3)]),
        make_snapshot(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        make_snapshot(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        make_snapshot(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        make_snapshot(4, [(0, 1), (0, 2), (0, 3)]),
        make_snapshot(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]),
    ]
    made = 0
    while made < count:
        base = rng.choice(shapes)
        n = base.node_count
        edges = [(u, v, float(rng.randrange(1, 4)), rng.choice([20, 60]))
                 for u, v in base.edges()]
        snap = make_snapshot(n, edges,
                             cpu=[F(rng.choice([2, 5, 8])) / 10 for _ in range(n)],
                             ram=[rng.choice([32, 64, 128]) for _ in range(n)])
        ok = all(len(all_simple_paths(snap, u, v)) <= 3
                 for u in range(n) for v in range(u + 1, n))
        if not ok:
            continue
        cat = make_catalog([(i, F(rng.choice([1, 2, 4])) / 10, rng.choice([16, 48]))
                            for i in range(3)],
                           [(a, b, rng.choice([15, 45]))
                            for a in range(3) for b in range(3) if a <= b])
        chain = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 4)))
        req = make_request(chain=chain, ingress=rng.randrange(n),
                           egress=rng.randrange(n),
                           qos=rng.choice([2.0, 5.0, 20.0]))
        made += 1
        yield snap, cat, req


def test_criterion_4_oracle_equivalence():
    with criterion(4, "solver accepts vs independent oracle"):
        rng = random.Random(777)
        accepts = rejects = divergences = 0
        for snap, cat, req in _oracle_instances(rng, 150):
            inp = SolverInput(req, cat, snap, ResourceLedger(snap, cat).free_units())
            for name in SOLVERS:
                decision = make_solver(name).solve(inp, random.Random(1))
                if decision.accepted:
                    accepts += 1
                    # (a) the independent checker must agree, for every solver
                    assert placement_feasible(
                        snap, req, cat, decision.plan.vnf_placement,
                        [p.nodes for p in decision.plan.virtual_link_paths]), \
                        f"{name} accepted an infeasible plan"
                elif name == "greedy":
                    rejects += 1
                    # (b) divergence = greedy myopia: oracle finds a plan anyway
                    if exhaustive_embedding(snap, req, cat) is not None:
                        divergences += 1
        assert accepts > 50
        rate = divergences / rejects if rejects else 0.0
        print(f"[acceptance]   accepts={accepts} greedy_rejects={rejects} "
              f"divergence_rate={rate:.3f}")


def test_criterion_5_running_count_shape_desk_scale():
    with criterion(5, "running-count shape at desk scale"):
        t0 = time.perf_counter()
        sc = load_scenario(SCENARIO_DIR / "sagin_desk.json")
        assert sc.topo.node_count == 12          # 2x4 sats + 2 UAV + 2 ground
        assert len(sc.topo.time_points) == 13
        assert len(sc.requests) == 50
        trace = TraceLog()
        report = run(sc.topo, sc.requests, sc.catalog,
                     make_solver(sc.solver_name), trace, seed=sc.seed)
        elapsed = time.perf_counter() - t0

        event_times = {e.time for e in build_event_queue(sc.topo, sc.requests)}
        series = report.running_count
        assert {t for t, _ in series} <= event_times

        # pair each series step with the records of its boundary
        deltas = {}
        idx = -1
        for rec in trace.records:
            if rec.kind in EVENT_KINDS:
                idx += 1
                deltas[idx] = {"add": 0, "drop": 0}
            if rec.outcome == "accepted":
                deltas[idx]["add"] += 1
            elif rec.outcome in ("released", "terminated"):
                deltas[idx]["drop"] += 1
        prev = 0
        for i, (_, count) in enumerate(series):
            change = count - prev
            assert change == deltas[i]["add"] - deltas[i]["drop"]
            if change < 0:
                assert deltas[i]["drop"] > 0  # every decrement is accounted for
            prev = count

        assert sum(trace.failure_breakdown().values()) == \
            report.rejected + report.terminated_early
        assert report.terminated_early > 0  # topology churn actually bites
        assert elapsed < 5.0, f"desk-scale run took {elapsed:.3f}s"


def test_criterion_6_acceptance_trend(tmp_path):
    with criterion(6, "acceptance ratio trend over load sweep"):
        scenario = load_scenario(SCENARIO_DIR / "sagin_desk.json")
        cfg = RunConfig(scenario_path=SCENARIO_DIR / "sagin_desk.json",
                        out_dir=tmp_path, solvers=["random", "greedy"],
                        sweep=[50, 100, 200], repeat=5)
        results = execute_runs(cfg, scenario)
        assert len(results) == 2 * 3 * 5
        for solver in ("random", "greedy"):
            means = []
            for count in (50, 100, 200):
                cell = [r.trace.acceptance_ratio() for r in results
                        if r.solver == solver and r.label.startswith(f"{solver}_n{count}_")]
                assert len(cell) == 5
                means.append(sum(cell) / len(cell))
            print(f"[acceptance]   {solver}: mean acceptance by load {means}")
            assert means[0] >= means[1] >= means[2], \
                f"{solver} acceptance not non-increasing: {means}"


def test_criterion_7_full_scale_runtime():
    with criterion(7, "full-scale run under 10 s"):
        t0 = time.perf_counter()
        sc = load_scenario(SCENARIO_DIR / "sagin_full.json")
        assert sc.topo.node_count == 48
        assert len(sc.topo.time_points) == 61
        assert len(sc.requests) == 200
        trace = TraceLog()
        report = run(sc.topo, sc.requests, sc.catalog, make_solver("greedy"),
                     trace, seed=sc.seed)
        elapsed = time.perf_counter() - t0
        assert report.arrivals == 200
        assert report.accepted + report.rejected == 200
        assert elapsed < 10.0, f"full-scale took {elapsed:.3f}s"
        print(f"[acceptance]   full-scale finished in {elapsed:.2f}s "
              f"(accepted={report.accepted}, rejected={report.rejected}, "
              f"terminated={report.terminated_early})")
