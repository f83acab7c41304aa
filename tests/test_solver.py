import random
from fractions import Fraction

import pytest

from conftest import F, make_catalog, make_request, make_snapshot
from oracle import exhaustive_embedding, placement_feasible
from sfcsim.mano import FailureReason, ResourceLedger, check_plan
from sfcsim.solver import (SOLVERS, GreedySolver, RandomSolver, SolverDecision,
                           SolverInput, make_solver)


def fresh_input(snap, catalog, request):
    ledger = ResourceLedger(snap)
    return SolverInput(request=request, catalog=catalog, snapshot=snap,
                       cpu_free=ledger.cpu_free_all(), ram_free=ledger.ram_free_all(),
                       band_free=ledger.band_free_map())


def example_a_setup():
    snap = make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 4, 2], ram=[256, 512, 256])
    cat = make_catalog([(0, 0.2, 64), (1, 0.2, 64), (2, 0.2, 64)],
                       [(0, 1, 20), (1, 2, 20)])
    req = make_request(ingress=0, egress=2, chain=(0, 1, 2), qos=50.0)
    return snap, cat, req


class TestContract:
    def test_cpu_infeasible_everywhere(self):
        snap = make_snapshot(2, [(0, 1)], cpu=[0.1, 0.1])
        cat = make_catalog([(0, 0.2, 16)], [])
        inp = fresh_input(snap, cat, make_request(chain=(0,), egress=1))
        for name in SOLVERS:
            dec = make_solver(name).solve(inp, random.Random(1))
            assert dec.reason is FailureReason.NODE_CPU_INSUFFICIENT

    def test_ram_infeasible_everywhere(self):
        snap = make_snapshot(2, [(0, 1)], ram=[32, 32])
        cat = make_catalog([(0, 0.2, 64)], [])
        inp = fresh_input(snap, cat, make_request(chain=(0,), egress=1))
        for name in SOLVERS:
            dec = make_solver(name).solve(inp, random.Random(1))
            assert dec.reason is FailureReason.NODE_RAM_INSUFFICIENT

    def test_single_node_everything_colocated(self):
        snap = make_snapshot(1, [], cpu=[10], ram=[4096])
        cat = make_catalog([(0, 1, 64), (1, 1, 64)], [(0, 1, 20)])
        inp = fresh_input(snap, cat, make_request(chain=(0, 1), ingress=0, egress=0))
        for name in SOLVERS:
            dec = make_solver(name).solve(inp, random.Random(5))
            assert dec.accepted
            assert dec.plan.vnf_placement == (0, 0)
            assert dec.plan.total_latency == 0.0

    def test_accepts_replay_through_check_plan(self):
        snap, cat, req = example_a_setup()
        for name in SOLVERS:
            inp = fresh_input(snap, cat, req)
            dec = make_solver(name).solve(inp, random.Random(3))
            assert dec.accepted
            assert check_plan(dec.plan, ResourceLedger(snap), req) is None

    def test_no_path_reason(self):
        snap = make_snapshot(3, [(0, 1)], cpu=[0.1, 10, 10])  # node 2 isolated
        cat = make_catalog([(0, 1, 64)], [])
        req = make_request(chain=(0,), ingress=0, egress=2)
        for name in SOLVERS:
            dec = make_solver(name).solve(fresh_input(snap, cat, req), random.Random(0))
            assert dec.reason is FailureReason.NO_PATH

    def test_qos_reason(self):
        snap = make_snapshot(2, [(0, 1, 30.0)], cpu=[0.1, 10])
        cat = make_catalog([(0, 1, 64)], [])
        req = make_request(chain=(0,), ingress=0, egress=0, qos=10.0)
        # only node 1 can host, so the leg 0->1 costs 30 ms > 10 ms budget
        for name in SOLVERS:
            dec = make_solver(name).solve(fresh_input(snap, cat, req), random.Random(0))
            assert dec.reason is FailureReason.QOS_LATENCY_VIOLATED

    def test_decision_carries_exactly_one_side(self):
        with pytest.raises(ValueError):
            SolverDecision()
        with pytest.raises(ValueError):
            SolverDecision(plan="x", reason=FailureReason.NO_PATH)


class TestRandomSolver:
    def test_golden_placement_seed_42(self):
        # frozen regression value from the first implementation run
        snap, cat, req = example_a_setup()
        dec = RandomSolver().solve(fresh_input(snap, cat, req), random.Random(42))
        assert dec.plan.vnf_placement == (2, 0, 0)
        assert [p.nodes for p in dec.plan.virtual_link_paths] == \
            [(0, 1, 2), (2, 1, 0), (0,), (0, 1, 2)]
        assert dec.plan.total_latency == 6.0

    def test_same_seed_same_decision(self):
        snap, cat, req = example_a_setup()
        runs = {RandomSolver().solve(fresh_input(snap, cat, req),
                                     random.Random(42)).plan.vnf_placement
                for _ in range(4)}
        assert len(runs) == 1

    def test_single_feasible_node_matches_greedy(self):
        # only node 1 has resources: no sampling freedom left
        snap = make_snapshot(3, [(0, 1), (1, 2)], cpu=[0.01, 10, 0.01],
                             ram=[1, 1024, 1])
        cat = make_catalog([(0, 1, 64), (1, 1, 64)], [(0, 1, 20)])
        req = make_request(chain=(0, 1), ingress=0, egress=2, qos=50.0)
        got_random = RandomSolver().solve(fresh_input(snap, cat, req), random.Random(11))
        got_greedy = GreedySolver().solve(fresh_input(snap, cat, req), random.Random(22))
        assert got_random.plan == got_greedy.plan
        assert got_random.plan.vnf_placement == (1, 1)


class TestGreedySolver:
    def test_biggest_node_wins_first_pick(self):
        snap, cat, req = example_a_setup()
        dec = GreedySolver().solve(fresh_input(snap, cat, req), random.Random(0))
        assert dec.plan.vnf_placement[0] == 1

    def test_identical_nodes_tie_break_smallest_index(self):
        snap = make_snapshot(2, [(0, 1)], cpu=[4, 4], ram=[512, 512])
        cat = make_catalog([(0, 0.2, 64)], [])
        req = make_request(chain=(0,), ingress=0, egress=0)
        dec = GreedySolver().solve(fresh_input(snap, cat, req), random.Random(0))
        assert dec.plan.vnf_placement == (0,)

    def test_rng_independence(self):
        snap, cat, req = example_a_setup()
        plans = {GreedySolver().solve(fresh_input(snap, cat, req),
                                      random.Random(seed)).plan.vnf_placement
                 for seed in (0, 1, 17, 123456)}
        assert len(plans) == 1

    def test_accept_implies_oracle_feasible(self):
        # 4-node instances, 3-VNF chains: greedy accepts only genuinely
        # feasible instances (brute force confirms one exists)
        rng = random.Random(31)
        accepted = 0
        for _ in range(60):
            edges = [(0, 1), (1, 2), (2, 3)]
            if rng.random() < 0.5:
                edges.append((0, 3))
            snap = make_snapshot(4, [(u, v, float(rng.randrange(1, 4)),
                                      rng.choice([30, 100])) for u, v in edges],
                                 cpu=[rng.choice([0.5, 1, 2]) for _ in range(4)],
                                 ram=[rng.choice([64, 256]) for _ in range(4)])
            cat = make_catalog([(0, 0.4, 48), (1, 0.4, 48), (2, 0.4, 48)],
                               [(0, 1, 25), (1, 2, 25)])
            req = make_request(chain=(0, 1, 2), ingress=rng.randrange(4),
                               egress=rng.randrange(4), qos=rng.choice([4.0, 12.0]))
            dec = GreedySolver().solve(fresh_input(snap, cat, req), random.Random(0))
            if dec.accepted:
                accepted += 1
                assert exhaustive_embedding(snap, req, cat) is not None
        assert accepted > 5


class TestContractSoundnessFuzz:
    def test_every_accept_passes_check_plan(self):
        rng = random.Random(2024)
        accepts = 0
        for trial in range(120):
            n = rng.randrange(2, 7)
            edges = [(u, v, float(rng.randrange(1, 5)), rng.choice([20, 60, 150]))
                     for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            snap = make_snapshot(n, edges,
                                 cpu=[rng.choice([0.3, 1, 3]) for _ in range(n)],
                                 ram=[rng.choice([64, 256, 1024]) for _ in range(n)])
            cat = make_catalog([(i, rng.choice([0.2, 0.5]), rng.choice([32, 96]))
                                for i in range(3)],
                               [(0, 1, rng.choice([10, 40])), (1, 2, rng.choice([10, 40])),
                                (0, 2, rng.choice([10, 40]))])
            chain = tuple(rng.choice([0, 1, 2]) for _ in range(rng.randrange(1, 4)))
            ok_chain = all(cat.band_demand(a, b) for a, b in zip(chain, chain[1:]))
            if not ok_chain:
                continue
            req = make_request(chain=chain, ingress=rng.randrange(n),
                               egress=rng.randrange(n), qos=rng.choice([3.0, 10.0, 100.0]))
            inp = fresh_input(snap, cat, req)
            for name in SOLVERS:
                dec = make_solver(name).solve(inp, random.Random(trial))
                if dec.accepted:
                    accepts += 1
                    assert check_plan(dec.plan, ResourceLedger(snap), req) is None
                    # independent recheck through the brute-force validator
                    assert placement_feasible(
                        snap, req, cat, dec.plan.vnf_placement,
                        [p.nodes for p in dec.plan.virtual_link_paths])
                else:
                    assert dec.reason is not None
        assert accepts > 30
