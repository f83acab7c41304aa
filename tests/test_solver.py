import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F, held_ledger, make_catalog, make_request, make_snapshot, unit_fractions
from oracle import (exhaustive_embedding, greedy_pick, placement_feasible, random_pick,
                    sequential_decision)
from sfcsim.mano import (FailureReason, FreeUnits, ResourceLedger, build_plan, check_plan,
                         check_plan_against)
from sfcsim.solver import (SOLVERS, GreedySolver, RandomSolver, SolverDecision,
                           SolverInput, make_solver)


def fresh_input(snap, catalog, request):
    return SolverInput(request, catalog, snap, ResourceLedger(snap, catalog).free_units())


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

    @pytest.mark.parametrize("cpu, ram, chain", [
        ([1, 0], [0, 128], (0,)),   # first position: cpu on node 0, ram on node 1
        ([1, 0], [128, 64], (0, 1)),  # node 0 has both until VNF 0 takes its ram
    ], ids=["first", "after-deduction"])
    def test_cpu_and_ram_free_on_different_nodes_is_ram_insufficient(self, cpu, ram, chain):
        snap = make_snapshot(2, [(0, 1)], cpu=cpu, ram=ram)
        cat = make_catalog([(0, 0.5, 128), (1, 0.5, 64)], [(0, 1, 1)])
        inp = fresh_input(snap, cat, make_request(chain=chain, egress=1))
        for name in SOLVERS:
            dec = make_solver(name).solve(inp, random.Random(1))
            assert dec.reason is FailureReason.NODE_RAM_INSUFFICIENT

    def test_a_leg_sees_the_band_an_earlier_leg_took(self):
        # only node 0 hosts template 0 (cpu) and only node 2 template 1 (ram),
        # so legs 0 -> 2 and 2 -> 0 both need edges (0, 1) and (1, 2): 30 Mbps
        # holds one 20 Mbps leg, not two
        snap = make_snapshot(3, [(0, 1, 1.0, 30), (1, 2, 1.0, 30)], cpu=[4, 0, 1],
                             ram=[200, 50, 300])
        cat = make_catalog([(0, 2, 100), (1, 1, 300)], [(0, 1, 20)])
        inp = fresh_input(snap, cat, make_request(chain=(0, 1, 0), ingress=0, egress=0))
        for name in SOLVERS:
            assert make_solver(name).solve(inp, random.Random(0)).reason is FailureReason.NO_PATH

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

    def test_unknown_solver_name(self):
        with pytest.raises(KeyError) as err:
            make_solver("pso")
        assert err.value.args == ("unknown solver 'pso'; available: ['greedy', 'random']",)

    def test_scale_that_misses_a_demand_denominator(self):
        # a hand-built view in halves cannot carry a 1/3 cpu demand
        snap = make_snapshot(1, [], cpu=[1], ram=[64])
        cat = make_catalog([(0, F(1) / 3, 8)], [])
        inp = SolverInput(make_request(chain=(0,)), cat, snap,
                          FreeUnits(cpu=[2], ram=[64], band={}, cpu_scale=2, ram_scale=1,
                                    band_scale=1, max_cpu=2, max_ram=64))
        for name in SOLVERS:
            with pytest.raises(ValueError) as err:
                make_solver(name).solve(inp, random.Random(0))
            assert str(err.value) == "demand 1/3 is no whole number of 1/2 units"


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

    def test_zero_max_capacity_drops_out_of_score(self):
        # every cpu capacity is 0, so only ram/max_ram ranks the nodes even
        # though the residuals handed in still show free cpu
        snap = make_snapshot(2, [(0, 1)], cpu=[0, 0], ram=[64, 128])
        cat = make_catalog([(0, 1, 8)], [])
        req = make_request(chain=(0,), ingress=0, egress=0)
        inp = SolverInput(req, cat, snap, FreeUnits(cpu=[5, 1], ram=[10, 20], band={(0, 1): 100},
                                                   cpu_scale=1, ram_scale=1, band_scale=1,
                                                   max_cpu=0, max_ram=128))
        assert GreedySolver().solve(inp, random.Random(0)).plan.vnf_placement == (1,)


def _exact(draw, lo, hi):
    # coprime denominators make the scale of each resource kind grow
    return Fraction(draw(st.integers(lo, hi)), draw(st.sampled_from((1, 7, 11, 13))))


@st.composite
def solver_inputs(draw):
    """Small decisions with partly used residuals; sometimes every node's
    cpu (or ram) capacity is 0 while the residuals still offer some."""
    n = draw(st.integers(1, 4))
    zero = draw(st.sampled_from((None, None, "cpu", "ram")))
    edges = [(u, v, draw(st.sampled_from((0.5, 1.0, 2.0))), _exact(draw, 0, 30))
             for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
    caps = {kind: [F(0) if zero == kind else _exact(draw, 1, 60) for _ in range(n)]
            for kind in ("cpu", "ram")}
    snap = make_snapshot(n, edges, cpu=caps["cpu"], ram=caps["ram"])

    def residual(cap):
        # drawn apart from the capacity, so the two denominators differ
        return min(cap, _exact(draw, 0, 60))

    cat = make_catalog([(i, _exact(draw, 1, 6), _exact(draw, 1, 6)) for i in range(3)],
                       [(a, b, _exact(draw, 1, 15)) for a in range(3) for b in range(a, 3)])
    req = make_request(chain=draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)),
                       ingress=draw(st.integers(0, n - 1)),
                       egress=draw(st.integers(0, n - 1)),
                       qos=draw(st.sampled_from((1.0, 3.0, 1000.0))))
    units = held_ledger(snap, cat,
                        [residual(c) for c in snap.node_cpu_capacity],
                        [residual(c) for c in snap.node_ram_capacity],
                        {key: residual(snap.edge_band(*key)) for key in snap.edges()}
                        ).free_units()
    if zero is not None:
        # no ledger frees more than the capacity, so these residuals are set by hand
        scale = getattr(units, f"{zero}_scale")
        units = dataclasses.replace(units, **{zero: [draw(st.integers(0, 40 * scale))
                                                     for _ in range(n)]})
    return SolverInput(req, cat, snap, units)


def assert_same_plan_as_build_plan(plan, inp):
    """``plan`` is the one ``build_plan`` makes from its placement and paths,
    field by field, with the allocation keys in the same order."""
    want = build_plan(inp.request, inp.catalog, inp.snapshot, plan.vnf_placement,
                      plan.virtual_link_paths)
    assert plan == want
    for name in ("cpu_alloc", "ram_alloc", "band_alloc"):
        assert list(getattr(plan, name).items()) == list(getattr(want, name).items())
        assert {type(x) for x in getattr(plan, name).values()} <= {Fraction}


class TestIntegerUnitsMatchReference:
    """The baselines decide in integer units exactly as the Fraction rule does."""

    @given(solver_inputs(), st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_same_decision_as_fraction_reference(self, inp, seed):
        for solver, pick in ((GreedySolver(), greedy_pick(inp.snapshot)),
                             (RandomSolver(), random_pick(random.Random(seed)))):
            dec = solver.solve(inp, random.Random(seed))
            if dec.accepted:
                # the walk alone makes the plan fit: the baselines no longer check it
                assert check_plan_against(dec.plan, inp.request, inp.snapshot,
                                          inp.units) is None
                assert_same_plan_as_build_plan(dec.plan, inp)
            got = ((dec.plan.vnf_placement,
                    tuple(p.nodes for p in dec.plan.virtual_link_paths), None)
                   if dec.accepted else (None, None, dec.reason.value))
            assert got == sequential_decision(inp.snapshot, inp.request, inp.catalog,
                                              *unit_fractions(inp.units), pick)

    def test_single_node_legs_same_plan_as_build_plan(self):
        # every leg is a one-node path, so the walk's latency stays 0.0 where
        # build_plan's sum stays the int 0
        snap = make_snapshot(1, [], cpu=[F(10) / 7], ram=[4096])
        cat = make_catalog([(0, F(2) / 7, 64), (1, F(3) / 11, 64)], [(0, 1, F(20) / 3)])
        inp = fresh_input(snap, cat, make_request(chain=(0, 1, 0), ingress=0, egress=0))
        for name in SOLVERS:
            dec = make_solver(name).solve(inp, random.Random(0))
            assert dec.plan.total_latency == 0
            assert_same_plan_as_build_plan(dec.plan, inp)

    def test_capacity_only_denominator(self):
        # only the cpu capacities have sevenths; node 0 wins on cpu
        # (3/2 / 13/7 + 10/100) over node 1 (1/2 / 13/7 + 20/100)
        snap = make_snapshot(2, [(0, 1)], cpu=[F(13) / 7, F(6) / 7], ram=[100, 100])
        cat = make_catalog([(0, 0.5, 1)], [])
        ledger = held_ledger(snap, cat, (F(3) / 2, F(1) / 2), (F(10), F(20)), {(0, 1): F(100)})
        inp = SolverInput(make_request(chain=(0,)), cat, snap, ledger.free_units())
        assert GreedySolver().solve(inp, random.Random(0)).plan.vnf_placement == (0,)

    def test_demand_only_denominator(self):
        # each node hosts one VNF, so the 3/7 Mbps leg between them must
        # cross the only edge, which has 2/5 free
        snap = make_snapshot(2, [(0, 1)], cpu=[1, 1])
        cat = make_catalog([(0, 1, 64), (1, 1, 64)], [(0, 1, F(3) / 7)])
        req = make_request(chain=(0, 1), ingress=0, egress=0)
        ledger = held_ledger(snap, cat, (F(1), F(1)), (F(1024), F(1024)), {(0, 1): F(2) / 5})
        inp = SolverInput(req, cat, snap, ledger.free_units())
        for name in SOLVERS:
            dec = make_solver(name).solve(inp, random.Random(0))
            assert dec.reason is FailureReason.NO_PATH


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
