import copy
import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import F, make_catalog, make_request, make_snapshot, unit_fractions
from sfcsim import mano
from sfcsim.mano import (DuplicateSfc, EmbeddingPlan, FailureReason, InsufficientResources,
                         ResourceLedger, UnknownSfc, build_plan, check_plan,
                         check_plan_against, find_affected_sfcs, leg_band_demands,
                         plan_structure_errors)
from sfcsim.solver import SOLVERS, SolverInput, make_solver
from sfcsim.topology import PhysicalPath, SubstrateSnapshot, path_is_valid, path_latency
from sfcsim.workload import VnfCatalog, VnfTemplate


def chain_snapshot():
    return make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 4, 2], ram=[256, 512, 256])


def catalog():
    return make_catalog([(0, 0.2, 64), (1, 0.2, 64), (2, 0.2, 64)],
                        [(0, 1, 20), (1, 2, 20)])


def plan_all_on(node, snap, cat, sfc_id=0, ingress=0, egress=2, qos=50.0):
    req = make_request(sfc_id=sfc_id, ingress=ingress, egress=egress,
                       chain=(0, 1, 2), qos=qos)
    paths = [PhysicalPath(tuple(range(ingress, node + 1)) if ingress <= node
                          else tuple(range(ingress, node - 1, -1))),
             PhysicalPath((node,)), PhysicalPath((node,)),
             PhysicalPath(tuple(range(node, egress + 1)) if node <= egress
                          else tuple(range(node, egress - 1, -1)))]
    return req, build_plan(req, cat, snap, (node, node, node), paths)


class TestCheckPlan:
    def test_ram_fits_then_allocation_updates_free(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        req, plan = plan_all_on(1, snap, cat)
        assert check_plan(plan, ledger, req) is None
        ledger.allocate(plan)
        assert ledger.ram_free(1) == F(512) - 3 * F(64) == F(320)

    def test_a_plan_that_takes_every_free_unit_fits(self):
        cat = catalog()
        snap = make_snapshot(2, [(0, 1, 1.0, 20)], cpu=[0.2, 0.2], ram=[64, 64])
        req, plan = make_request(ingress=0, egress=1, chain=(0, 1), qos=50.0), plan_across(snap, cat)
        ledger = ResourceLedger(snap, cat)
        assert check_plan(plan, ledger, req) is None
        ledger.allocate(plan)
        units = ledger.free_units()
        assert (units.cpu, units.ram, units.band) == ([0, 0], [0, 0], {(0, 1): 0})

    def test_cpu_deficit_reason(self):
        # plan needs 0.2 cpu per VNF but every node only has 0.1
        snap = make_snapshot(3, [(0, 1), (1, 2)], cpu=[0.1, 0.1, 0.1],
                             ram=[256, 512, 256])
        cat = catalog()
        req, plan = plan_all_on(1, snap, cat, sfc_id=7)
        assert check_plan(plan, ResourceLedger(snap), req) \
            is FailureReason.NODE_CPU_INSUFFICIENT

    def test_colocated_chain_zero_latency_passes_tight_qos(self):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat, ingress=1, egress=1, qos=1.0)
        assert plan.total_latency == 0.0
        assert check_plan(plan, ResourceLedger(snap), req) is None

    def test_check_order_path_before_cpu(self):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat)
        broken = make_snapshot(3, [(0, 1)], cpu=[0, 0, 0], ram=[1, 1, 1])
        assert check_plan(plan, ResourceLedger(broken), req) \
            is FailureReason.NO_PATH

    def test_qos_reason(self):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat, qos=1.5)  # path latency is 2 ms
        assert plan.total_latency == 2.0
        assert check_plan(plan, ResourceLedger(snap), req) \
            is FailureReason.QOS_LATENCY_VIOLATED

    def test_band_reason(self):
        snap = make_snapshot(2, [(0, 1, 1.0, 30)], cpu=[4, 4], ram=[512, 512])
        cat = make_catalog([(0, 0.2, 64), (1, 0.2, 64)], [(0, 1, 20)])
        req = make_request(ingress=0, egress=1, chain=(0, 1), qos=50.0)
        plan = build_plan(req, cat, snap, (0, 1),
                          [PhysicalPath((0,)), PhysicalPath((0, 1)), PhysicalPath((1,))])
        ledger = ResourceLedger(snap)
        assert check_plan(plan, ledger, req) is None
        ledger.allocate(plan)
        req2 = make_request(sfc_id=1, ingress=0, egress=1, chain=(0, 1), qos=50.0)
        plan2 = build_plan(req2, cat, snap, (0, 1),
                           [PhysicalPath((0,)), PhysicalPath((0, 1)), PhysicalPath((1,))])
        assert check_plan(plan2, ledger, req2) \
            is FailureReason.LINK_BANDWIDTH_INSUFFICIENT

    def test_pure_and_repeatable(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        req, plan = plan_all_on(1, snap, cat)
        before = (ledger.cpu_free_all(), ledger.ram_free_all(), ledger.band_free_map())
        verdicts = {check_plan(plan, ledger, req) for _ in range(5)}
        assert verdicts == {None}
        assert (ledger.cpu_free_all(), ledger.ram_free_all(), ledger.band_free_map()) == before


class TestAllocateRelease:
    def test_subtraction(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        for sfc_id in (0, 1):
            ledger.allocate(plan_all_on(1, snap, cat, sfc_id=sfc_id,
                                        ingress=1, egress=1)[1])
        assert ledger.cpu_free(1) == F(4) - 2 * 3 * F(0.2) == F("2.8")

    def test_allocate_release_is_identity(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        baseline = (ledger.cpu_free_all(), ledger.ram_free_all(), ledger.band_free_map())
        plan = plan_all_on(1, snap, cat)[1]
        ledger.allocate(plan)
        ledger.release(plan.sfc_id)
        assert (ledger.cpu_free_all(), ledger.ram_free_all(), ledger.band_free_map()) == baseline
        assert not ledger.allocations

    def test_release_only_active_restores_capacity(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        ledger.allocate(plan_all_on(1, snap, cat)[1])
        ledger.release(0)
        for node in range(3):
            assert ledger.cpu_free(node) == snap.node_cpu_capacity[node]
            assert ledger.ram_free(node) == snap.node_ram_capacity[node]

    def test_release_keeps_other_allocations(self):
        # conservation sum recomputed by hand: only sfc 1's demands remain
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        ledger.allocate(plan_all_on(1, snap, cat, sfc_id=0)[1])
        ledger.allocate(plan_all_on(1, snap, cat, sfc_id=1)[1])
        ledger.release(0)
        assert ledger.cpu_free(1) == F(4) - 3 * F(0.2) == F("3.4")
        assert ledger.ram_free(1) == F(512) - 3 * F(64) == F(320)
        assert set(ledger.allocations) == {1}

    def test_duplicate_sfc(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        plan = plan_all_on(1, snap, cat)[1]
        ledger.allocate(plan)
        with pytest.raises(DuplicateSfc):
            ledger.allocate(plan)

    def test_unknown_sfc(self):
        ledger = ResourceLedger(chain_snapshot())
        with pytest.raises(UnknownSfc):
            ledger.release(99)

    def test_snapshot_swap_keeps_the_node_count(self):
        ledger = ResourceLedger(chain_snapshot())
        with pytest.raises(ValueError) as err:
            ledger.set_snapshot(make_snapshot(2, [(0, 1)]))
        assert str(err.value) == "node count must be stable across snapshots"

    def test_defensive_insufficient(self):
        snap = make_snapshot(1, [], cpu=[2.0], ram=[512])
        cat = make_catalog([(0, 0.8, 10)], [])
        ledger = ResourceLedger(snap)
        for sfc_id in (0, 1):
            req = make_request(sfc_id=sfc_id, chain=(0,))
            ledger.allocate(build_plan(req, cat, snap, (0,),
                                       [PhysicalPath((0,)), PhysicalPath((0,))]))
        req = make_request(sfc_id=2, chain=(0,))
        plan = build_plan(req, cat, snap, (0,), [PhysicalPath((0,)), PhysicalPath((0,))])
        with pytest.raises(InsufficientResources):
            ledger.allocate(plan)  # 3 x 0.8 > 2.0


def plan_across(snap, cat, sfc_id=0):
    """VNF 0 on node 0 and VNF 1 on node 1, so the leg between them holds
    bandwidth on edge (0, 1)."""
    req = make_request(sfc_id=sfc_id, ingress=0, egress=1, chain=(0, 1), qos=50.0)
    return build_plan(req, cat, snap, (0, 1),
                      [PhysicalPath((0,)), PhysicalPath((0, 1)), PhysicalPath((1,))])


def thirds_catalog():
    return make_catalog([(0, F(1) / 3, F(64) / 3), (1, F(2) / 3, 64)],
                        [(0, 1, F(20) / 3)])


def assert_units_match(ledger):
    """The integer view, divided by its scales, is the ledger's Fraction views."""
    assert unit_fractions(ledger.free_units()) == \
        (ledger.cpu_free_all(), ledger.ram_free_all(), ledger.band_free_map())


def assert_per_entry_readers_match(ledger):
    """The integer view, divided by its scales, is what the per-entry readers give."""
    snap = ledger.snapshot
    nodes = range(snap.node_count)
    assert unit_fractions(ledger.free_units()) == (
        tuple(map(ledger.cpu_free, nodes)), tuple(map(ledger.ram_free, nodes)),
        {(u, v): ledger.band_free(u, v) for u, v in snap.edges()})


class TestFreeUnits:
    def test_allocate_release_round_trip(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap, cat)
        view = ledger.free_units()
        start = unit_fractions(view)
        for sfc_id in (0, 1):
            ledger.allocate(plan_across(snap, cat, sfc_id))
            assert unit_fractions(view) == start  # a copy: the ledger moves on without it
            assert_units_match(ledger)
        ledger.release(0)
        assert_units_match(ledger)
        ledger.release(1)
        assert ledger.free_units() is not ledger.free_units()
        assert unit_fractions(ledger.free_units()) == start

    def test_snapshot_switch_brings_a_new_denominator(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap, cat)
        ledger.allocate(plan_across(snap, cat))  # 20 Mbps on edge (0, 1)
        ledger.free_units()
        sevenths = make_snapshot(3, [(0, 1, 1.0, F(650) / 7), (1, 2, 1.0, F(300) / 7)],
                                 cpu=[F(15) / 7, 4, 2], ram=[256, F(3600) / 7, 256])
        ledger.set_snapshot(sevenths)
        units = ledger.free_units()
        assert (units.cpu_scale % 7, units.ram_scale % 7, units.band_scale % 7) == (0, 0, 0)
        assert units.band[(0, 1)] * 7 == (650 - 140) * units.band_scale  # usage kept
        assert_units_match(ledger)

    def test_allocation_outside_the_scale_drops_the_view(self):
        snap = chain_snapshot()
        ledger = ResourceLedger(snap, catalog())  # fifths only
        view = ledger.free_units()
        ledger.allocate(plan_across(snap, thirds_catalog()))
        units = ledger.free_units()
        assert units is not view
        assert (units.cpu_scale % 3, units.ram_scale % 3, units.band_scale % 3) == (0, 0, 0)
        assert_units_match(ledger)
        ledger.release(0)
        assert_units_match(ledger)

    def test_negative_free_amounts_after_a_shrink(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap, cat)
        ledger.allocate(plan_across(snap, cat))  # 0.2 cpu on nodes 0 and 1, 20 Mbps
        ledger.free_units()
        ledger.set_snapshot(make_snapshot(3, [(0, 1, 1.0, 5), (1, 2)], cpu=[0.1, 4, 2],
                                          ram=[32, 512, 256]))
        units = ledger.free_units()
        assert units.cpu[0] < 0 and units.ram[0] < 0 and units.band[(0, 1)] < 0
        assert_units_match(ledger)
        ledger.release(0)
        assert_units_match(ledger)

    @pytest.mark.parametrize("one_tuple", [True, False], ids=["one-tuple", "equal-tuples"])
    def test_capacity_tuple_kept_across_a_scale_growth(self, one_tuple):
        # the first view converts the capacities at scale 2; a booking in thirds
        # and sevenths then grows the scales before the next snapshot is read
        cpu, ram = (F(3) / 2, F(5) / 2), (F(512), F(256))
        first = SubstrateSnapshot._from_edges(2, {1: (1.0, F(30))}, cpu, ram)
        if not one_tuple:
            cpu, ram = tuple(list(cpu)), tuple(list(ram))
        second = SubstrateSnapshot._from_edges(2, {1: (2.0, F(20))}, cpu, ram)
        assert (second.node_cpu_capacity is first.node_cpu_capacity) is one_tuple
        plans = [holding_plan(0, ({0: F(1) / 2}, {1: F(64)}, {})),
                 holding_plan(1, ({1: F(1) / 3}, {0: F(64) / 7}, {(0, 1): F(5) / 11}))]
        ledger = ResourceLedger(first)
        ledger.allocate(plans[0])
        ledger.free_units()
        ledger.allocate(plans[1])
        ledger.set_snapshot(second)
        fresh = ResourceLedger(second)
        for plan in plans:
            fresh.allocate(plan)
        assert ledger.free_units() == fresh.free_units()
        assert ledger.free_units().cpu_scale == 6
        assert_units_match(ledger)

    def test_scales_cover_the_catalog_demands(self):
        # integer capacities and no usage: only the catalog brings thirds
        snap, cat = chain_snapshot(), thirds_catalog()
        units = ResourceLedger(snap, cat).free_units()
        assert (units.cpu_scale % 3, units.ram_scale % 3, units.band_scale % 3) == (0, 0, 0)
        inp = SolverInput(make_request(ingress=0, egress=2, chain=(0, 1)), cat, snap, units)
        for name in SOLVERS:
            assert make_solver(name).solve(inp, random.Random(0)).accepted


    def test_the_band_memo_keeps_only_the_current_snapshots_bands(self):
        # make_snapshot goes through from_matrices, so every snapshot has band
        # objects of its own; each view converts them and forgets the last ones
        cat = catalog()
        ledger = ResourceLedger(chain_snapshot(), cat)
        ledger.allocate(plan_across(ledger.snapshot, cat))
        for k in range(30):
            snap = make_snapshot(3, [(0, 1, 1.0, 100 + k % 3), (1, 2, 1.0, Fraction(50 + k, 3))])
            ledger.set_snapshot(snap)
            assert_per_entry_readers_match(ledger)
            bands = {id(edge[1]) for row in snap.links for edge in row.values()}
            assert ledger._band_memo[1].keys() <= bands and len(bands) == 2

    def test_a_booking_that_grows_the_band_scale_voids_the_memo(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap, cat)
        ledger.free_units()  # the memo holds the snapshot's bands at the catalog's scale
        ledger.allocate(holding_plan(0, ({}, {}, {(0, 1): Fraction(20, 7)})))
        assert ledger.free_units().band_scale % 7 == 0
        assert_per_entry_readers_match(ledger)

    def test_a_shrink_to_coprime_denominators_widens_the_band_scale_once(self, monkeypatch):
        cat = catalog()
        first = make_snapshot(4, [(0, 1, 1.0, 100), (1, 2), (2, 3)])
        ledger = ResourceLedger(first, cat)
        ledger.allocate(plan_across(first, cat))  # 20 Mbps on (0, 1)
        scale = ledger.free_units().band_scale
        kept = first.links[0][1]  # one band object stays in the new snapshot
        shrunk = SubstrateSnapshot._from_edges(
            4, {1: kept, 6: (1.0, Fraction(650, 7)), 11: (1.0, Fraction(300, 11)), 3: (1.0, Fraction(100, 13))},
            first.node_cpu_capacity, first.node_ram_capacity)
        ledger.set_snapshot(shrunk)
        grown = []
        rescale = ledger._rescale
        monkeypatch.setattr(ledger, "_rescale", lambda kind, to: (
            grown.append(to) if kind == 2 and to != ledger._scales[2] else None,
            rescale(kind, to)))
        units = ledger.free_units()
        assert grown == [scale * 7 * 11 * 13] and units.band_scale == grown[0]
        assert units.band[(0, 1)] == (100 - 20) * units.band_scale
        assert_per_entry_readers_match(ledger)

    def test_int_demands_convert_like_fractions(self):
        snap = make_snapshot(2, [(0, 1, 1.0, 30)], cpu=[4, 2], ram=[64, 64])
        cat = VnfCatalog([VnfTemplate(0, 1, 8), VnfTemplate(1, 1, 8)], {(0, 1): 10})
        ledger = ResourceLedger(snap, cat)
        assert_units_match(ledger)
        ledger.allocate(plan_across(snap, cat))
        assert_units_match(ledger)
        inp = SolverInput(make_request(sfc_id=1, ingress=0, egress=1, chain=(0, 1)), cat,
                          snap, ledger.free_units())
        assert make_solver("greedy").solve(inp, random.Random(0)).accepted


class TestKeysOutsideTheSubstrate:
    """A plan keyed by a node outside the snapshot or by a non-canonical edge
    key: the gate and ``allocate`` refuse it alike, and nothing is booked."""

    @pytest.mark.parametrize("cpu, band, reason", [
        ({-1: F(1)}, {}, FailureReason.NODE_CPU_INSUFFICIENT),
        ({2: F(1)}, {}, FailureReason.NODE_CPU_INSUFFICIENT),
        ({}, {(1, 0): F(20)}, FailureReason.LINK_BANDWIDTH_INSUFFICIENT),
        ({}, {(1, 0): F(0)}, FailureReason.LINK_BANDWIDTH_INSUFFICIENT),
    ], ids=["cpu-on-node-minus-1", "cpu-on-node-2", "20-mbps-on-1-0", "0-mbps-on-1-0"])
    def test_refused_and_ledger_unchanged(self, cpu, band, reason):
        snap = make_snapshot(2, [(0, 1, 1.0, 30)], cpu=[4, 4], ram=[512, 512])
        cat = make_catalog([(0, 1, 64), (1, 1, 64)], [(0, 1, 5)])
        ledger = ResourceLedger(snap, cat)
        ledger.allocate(plan_across(snap, cat))  # 1 cpu on nodes 0 and 1, 5 Mbps on (0, 1)

        def state():
            return (dict(ledger.allocations), ledger.cpu_free_all(), ledger.ram_free_all(),
                    ledger.band_free_map(), copy.deepcopy(ledger.free_units()))
        before = state()
        for sfc_id in (1, 2):  # twice: a booked first plan would change the second's fate
            plan = EmbeddingPlan(sfc_id=sfc_id, vnf_placement=(), virtual_link_paths=(),
                                 cpu_alloc=cpu, ram_alloc={}, band_alloc=band,
                                 total_latency=0.0)
            assert check_plan(plan, ledger, make_request(sfc_id=sfc_id)) is reason
            with pytest.raises(InsufficientResources, match=reason.value):
                ledger.allocate(plan)
            assert state() == before


class TestAmountsTheGateRefuses:
    """An amount or a key that the structure check refuses is refused by the
    fit rule too: ``check_plan`` names the kind's reason, ``allocate`` raises
    ``InsufficientResources``, and neither raises anything else or books it."""

    @pytest.mark.parametrize("kind, key, reason", [
        (0, 1, FailureReason.NODE_CPU_INSUFFICIENT),
        (1, 1, FailureReason.NODE_RAM_INSUFFICIENT),
        (2, (0, 1), FailureReason.LINK_BANDWIDTH_INSUFFICIENT),
    ], ids=["cpu", "ram", "band"])
    @pytest.mark.parametrize("bad", [("amount", F(-5)), ("amount", -5), ("amount", 1.0),
                                     ("amount", "1"), ("amount", None), ("key", 1.0),
                                     ("key", "1")],
                             ids=["minus-5", "int-minus-5", "float-amount", "str-amount",
                                  "none-amount", "float-key", "str-key"])
    def test_refused_and_ledger_unchanged(self, kind, key, reason, bad):
        snap = make_snapshot(2, [(0, 1, 1.0, 30)], cpu=[10, 10], ram=[512, 512])
        cat = make_catalog([(0, 1, 64), (1, 1, 64)], [(0, 1, 5)])
        ledger = ResourceLedger(snap, cat)
        ledger.allocate(plan_across(snap, cat))
        what, value = bad
        alloc = {value: F(1)} if what == "key" else {key: value}
        holding = tuple(alloc if i == kind else {} for i in range(3))

        def state():
            return (dict(ledger.allocations), ledger.cpu_free_all(), ledger.ram_free_all(),
                    ledger.band_free_map(), copy.deepcopy(ledger.free_units()))
        before = state()
        plan = holding_plan(1, holding)
        assert check_plan(plan, ledger, make_request(sfc_id=1)) is reason
        with pytest.raises(InsufficientResources, match=reason.value):
            ledger.allocate(plan)
        assert state() == before

    def test_a_negative_amount_frees_no_room(self):
        ledger = ResourceLedger(make_snapshot(1, [], cpu=[10], ram=[512]))
        for sfc_id, amount in ((0, F(-5)), (1, F(15))):  # 15 > 10, with or without the -5
            plan = holding_plan(sfc_id, ({0: amount}, {}, {}))
            assert check_plan(plan, ledger, make_request(sfc_id=sfc_id)) \
                is FailureReason.NODE_CPU_INSUFFICIENT
            with pytest.raises(InsufficientResources, match="NodeCpuInsufficient"):
                ledger.allocate(plan)
        assert ledger.allocations == {} and ledger.cpu_free(0) == 10

    @pytest.mark.parametrize("key", [(0.0, 1.0), (F(0), 1), (False, True)],
                             ids=["floats", "fraction", "bools"])
    def test_a_band_key_equal_to_an_edge_but_not_of_ints(self, key):
        # (0.0, 1.0) == (0, 1) finds the edge's free band; once booked, the key
        # made the next find_affected_sfcs raise TypeError on new_snap.edge_band(*key).
        # All three entry points of the fit rule refuse it for the same reason.
        snap = SubstrateSnapshot._from_edges(2, {1: (1.0, F(30))}, (F(10), F(10)),
                                             (F(512), F(512)))
        ledger = ResourceLedger(snap)
        ledger.allocate(holding_plan(0, ({0: F(1)}, {}, {(0, 1): F(5)})))
        before = (dict(ledger.allocations), copy.deepcopy(ledger.free_units()))
        plan, req = holding_plan(1, ({}, {}, {key: 5})), make_request(sfc_id=1)
        reason = FailureReason.LINK_BANDWIDTH_INSUFFICIENT
        assert check_plan(plan, ledger, req) is reason
        assert check_plan_against(plan, req, snap, ledger.free_units()) is reason
        with pytest.raises(InsufficientResources, match=reason.value):
            ledger.allocate(plan)
        assert (dict(ledger.allocations), ledger.free_units()) == before
        assert ledger.band_free(0, 1) == 25
        assert find_affected_sfcs(ledger, snap) == []


DENOMINATORS = (1, 2, 3, 5, 7, 11, 13)
PAIRS = ((0, 1), (0, 2), (1, 2))


def exact(low, high):
    return st.builds(Fraction, st.integers(low, high), st.sampled_from(DENOMINATORS))


@st.composite
def three_node_snapshots(draw):
    edges = draw(st.lists(st.sampled_from(PAIRS), unique=True))
    return make_snapshot(3, [(u, v, 1.0, draw(exact(0, 60))) for u, v in edges],
                         cpu=draw(st.lists(exact(0, 60), min_size=3, max_size=3)),
                         ram=draw(st.lists(exact(0, 60), min_size=3, max_size=3)))


node_amounts = st.dictionaries(st.integers(0, 2), exact(1, 30), max_size=3)
holdings = st.tuples(node_amounts, node_amounts,
                     st.dictionaries(st.sampled_from(PAIRS), exact(1, 30), max_size=3))
ledger_steps = st.lists(st.tuples(
    st.one_of(st.tuples(st.just("allocate"), holdings),
              st.tuples(st.just("release"), st.integers(0, 20)),
              st.tuples(st.just("set_snapshot"), three_node_snapshots())),
    holdings), min_size=1, max_size=20)


def holding_plan(sfc_id, holding):
    cpu, ram, band = holding
    return EmbeddingPlan(sfc_id=sfc_id, vnf_placement=(), virtual_link_paths=(),
                         cpu_alloc=cpu, ram_alloc=ram, band_alloc=band, total_latency=0.0)


def assert_readers_match(ledger, dense, snap):
    """Every public reader of ``ledger`` equals the dense ledger's usage under ``snap``."""
    cpu, ram, band = dense.free(snap)
    for node in range(3):
        assert (ledger.cpu_used(node), ledger.ram_used(node)) == (dense.cpu[node], dense.ram[node])
        assert (ledger.cpu_free(node), ledger.ram_free(node)) == (cpu[node], ram[node])
    for u, v in PAIRS:
        assert ledger.band_used(u, v) == ledger.band_used(v, u) == dense.band[u][v]
    for key in band:
        assert ledger.band_free(*key) == band[key]
    assert (ledger.cpu_free_all(), ledger.ram_free_all(), ledger.band_free_map()) == \
        (tuple(cpu), tuple(ram), band)
    units = ledger.free_units()
    assert unit_fractions(units) == (tuple(cpu), tuple(ram), band)
    assert (Fraction(units.max_cpu, units.cpu_scale), Fraction(units.max_ram, units.ram_scale)) \
        == (max(snap.node_cpu_capacity), max(snap.node_ram_capacity))
    cpu_units, ram_units, cpu_scale, ram_scale = ledger.node_usage()
    assert [Fraction(x, cpu_scale) for x in cpu_units] == dense.cpu
    assert [Fraction(x, ram_scale) for x in ram_units] == dense.ram


class TestAgainstDenseLedger:
    """Allocate, release and snapshot swaps on coprime denominators: after each
    step every reader, and the gate's verdict on a probe plan, equal what a
    dense Fraction ledger gives."""

    @given(three_node_snapshots(), ledger_steps)
    @settings(max_examples=150, deadline=None)
    def test_readers_and_verdicts_match(self, snap, steps):
        ledger, dense = ResourceLedger(snap), oracle.DenseLedger(3)
        for step_id, ((op, arg), probe) in enumerate(steps, start=1):
            if op == "set_snapshot":
                snap = arg
                ledger.set_snapshot(snap)
            elif op == "release" and dense.held:
                sfc_id = sorted(dense.held)[arg % len(dense.held)]
                dense.drop(sfc_id)
                assert ledger.release(sfc_id).sfc_id == sfc_id
            elif op == "allocate":
                plan = holding_plan(step_id, arg)
                reason = dense.shortfall(snap, *arg)
                if reason is None:
                    ledger.allocate(plan)
                    dense.hold(step_id, ((), *arg))
                else:
                    with pytest.raises(InsufficientResources, match=reason):
                        ledger.allocate(plan)
            assert set(ledger.allocations) == set(dense.held)
            assert_readers_match(ledger, dense, snap)
            verdict = check_plan(holding_plan(-step_id, probe), ledger, make_request())
            assert (verdict and verdict.value) == dense.shortfall(snap, *probe)


class TestFindAffected:
    def test_no_change_is_empty(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        ledger.allocate(plan_all_on(1, snap, cat)[1])
        assert find_affected_sfcs(ledger, snap) == []

    def test_vanished_edge_reports_no_path(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        ledger.allocate(plan_all_on(1, snap, cat)[1])  # uses edges (0,1) and (1,2)
        shrunk = make_snapshot(3, [(0, 1)], cpu=[2, 4, 2], ram=[256, 512, 256])
        assert find_affected_sfcs(ledger, shrunk) == [(0, FailureReason.NO_PATH)]

    def test_capacity_drop_lists_all_holders_ascending(self):
        # two SFCs hold 1.2 cpu on node 1; capacity drops 4 -> 1
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        ledger.allocate(plan_all_on(1, snap, cat, sfc_id=7, ingress=1, egress=1)[1])
        ledger.allocate(plan_all_on(1, snap, cat, sfc_id=3, ingress=1, egress=1)[1])
        assert ledger.cpu_used(1) == F("1.2")
        shrunk = make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 1, 2], ram=[256, 512, 256])
        assert find_affected_sfcs(ledger, shrunk) == [
            (3, FailureReason.NODE_CPU_INSUFFICIENT),
            (7, FailureReason.NODE_CPU_INSUFFICIENT),
        ]

    def test_band_shrink(self):
        snap = make_snapshot(2, [(0, 1, 1.0, 100)], cpu=[4, 4], ram=[512, 512])
        cat = make_catalog([(0, 0.2, 64), (1, 0.2, 64)], [(0, 1, 60)])
        req = make_request(ingress=0, egress=1, chain=(0, 1), qos=50.0)
        plan = build_plan(req, cat, snap, (0, 1),
                          [PhysicalPath((0,)), PhysicalPath((0, 1)), PhysicalPath((1,))])
        ledger = ResourceLedger(snap)
        ledger.allocate(plan)
        shrunk = make_snapshot(2, [(0, 1, 1.0, 40)], cpu=[4, 4], ram=[512, 512])
        assert find_affected_sfcs(ledger, shrunk) == \
            [(0, FailureReason.LINK_BANDWIDTH_INSUFFICIENT)]

    def test_ram_only_shrink(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        ledger.allocate(plan_all_on(1, snap, cat)[1])  # 192 MB on node 1
        shrunk = make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 4, 2], ram=[256, 100, 256])
        assert find_affected_sfcs(ledger, shrunk) == [(0, FailureReason.NODE_RAM_INSUFFICIENT)]

    def test_cpu_reported_before_band(self):
        snap = make_snapshot(2, [(0, 1, 1.0, 100)], cpu=[4, 4], ram=[512, 512])
        cat = make_catalog([(0, 0.2, 64), (1, 0.2, 64)], [(0, 1, 60)])
        req = make_request(ingress=0, egress=1, chain=(0, 1), qos=50.0)
        plan = build_plan(req, cat, snap, (0, 1),
                          [PhysicalPath((0,)), PhysicalPath((0, 1)), PhysicalPath((1,))])
        ledger = ResourceLedger(snap)
        ledger.allocate(plan)
        shrunk = make_snapshot(2, [(0, 1, 1.0, 40)], cpu=[0.1, 4], ram=[512, 512])
        assert find_affected_sfcs(ledger, shrunk) == [(0, FailureReason.NODE_CPU_INSUFFICIENT)]

    def test_only_holders_of_the_shrunk_node_are_listed(self):
        snap, cat = chain_snapshot(), catalog()
        ledger = ResourceLedger(snap)
        # sfc 2 runs through node 1 on its egress leg but holds nothing there
        ledger.allocate(plan_all_on(0, snap, cat, sfc_id=2, ingress=0, egress=2)[1])
        ledger.allocate(plan_all_on(1, snap, cat, sfc_id=5, ingress=1, egress=1)[1])
        shrunk = make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 0.5, 2], ram=[256, 512, 256])
        assert find_affected_sfcs(ledger, shrunk) == [(5, FailureReason.NODE_CPU_INSUFFICIENT)]

    @pytest.mark.parametrize("edges, cpu, ram, band, reason", [
        ([(0, 1, 1.0, 100)], [4, 0.1], [512, 512], 100, FailureReason.NO_PATH),  # + (1, 2) gone
        ([(0, 1, 1.0, 100), (1, 2)], [4, 0.1], [512, 32], 100,
         FailureReason.NODE_CPU_INSUFFICIENT),
        ([(0, 1, 1.0, 5), (1, 2)], [4, 4], [512, 32], 5, FailureReason.NODE_RAM_INSUFFICIENT),
    ], ids=["path-and-cpu", "cpu-and-ram", "ram-and-band"])
    def test_the_first_cause_wins_when_a_chain_breaks_several_ways(self, edges, cpu, ram,
                                                                    band, reason):
        # VNF 0 on node 0, VNF 1 on node 1 (0.2 cpu, 64 MB each), 60 Mbps on
        # (0, 1), egress over (1, 2)
        snap = make_snapshot(3, [(0, 1, 1.0, 100), (1, 2)], cpu=[4, 4, 4], ram=[512] * 3)
        cat = make_catalog([(0, 0.2, 64), (1, 0.2, 64)], [(0, 1, 60)])
        req = make_request(ingress=0, egress=2, chain=(0, 1), qos=50.0)
        ledger = ResourceLedger(snap)
        ledger.allocate(build_plan(req, cat, snap, (0, 1), [
            PhysicalPath((0,)), PhysicalPath((0, 1)), PhysicalPath((1, 2))]))
        shrunk = make_snapshot(3, edges, cpu=[*cpu, 4], ram=[*ram, 512])
        assert shrunk.edge_band(0, 1) == band
        assert find_affected_sfcs(ledger, shrunk) == [(0, reason)]

    def test_a_vanished_edge_on_a_zero_demand_leg_is_no_path(self):
        snap, cat = chain_snapshot(), catalog()
        req = make_request(ingress=0, egress=2, chain=(0, 1), qos=50.0)
        plan = build_plan(req, cat, snap, (1, 2), [
            PhysicalPath((0, 1)), PhysicalPath((1, 2)), PhysicalPath((2,))])
        assert set(plan.band_alloc) == {(1, 2)}  # the ingress leg over (0, 1) holds nothing
        ledger = ResourceLedger(snap)
        ledger.allocate(plan)
        shrunk = make_snapshot(3, [(1, 2)], cpu=[2, 4, 2], ram=[256, 512, 256])
        assert find_affected_sfcs(ledger, shrunk) == [(0, FailureReason.NO_PATH)]

    @pytest.mark.parametrize("nodes", [(3,), (-1, 1)], ids=["node-n", "node-minus-1"])
    def test_a_path_node_outside_the_substrate_is_no_path(self, nodes):
        # allocate runs the fit rule only, so it books a path it never walks;
        # -1 would index the last row, where (2, 1) is an edge
        snap = chain_snapshot()
        ledger = ResourceLedger(snap)
        ledger.allocate(EmbeddingPlan(sfc_id=4, vnf_placement=(1,),
                                      virtual_link_paths=(PhysicalPath((1,)), PhysicalPath(nodes)),
                                      cpu_alloc={1: F(1)}, ram_alloc={1: F(1)}, band_alloc={},
                                      total_latency=0.0))
        assert find_affected_sfcs(ledger, snap) == [(4, FailureReason.NO_PATH)]

    @pytest.mark.parametrize("held, affected", [
        (F(1), [(4, FailureReason.LINK_BANDWIDTH_INSUFFICIENT)]), (F(0), [])],
        ids=["some", "zero"])
    def test_a_held_edge_off_the_paths_that_vanishes_has_no_band(self, held, affected):
        # allocate runs the fit rule only, so it books band on an edge no leg
        # walks; once the edge is gone its capacity is 0
        snap = chain_snapshot()
        ledger = ResourceLedger(snap)
        ledger.allocate(EmbeddingPlan(sfc_id=4, vnf_placement=(1,),
                                      virtual_link_paths=(PhysicalPath((1,)),) * 2,
                                      cpu_alloc={1: F(1)}, ram_alloc={1: F(1)},
                                      band_alloc={(0, 1): held}, total_latency=0.0))
        shrunk = make_snapshot(3, [(1, 2)], cpu=[2, 4, 2], ram=[256, 512, 256])
        assert find_affected_sfcs(ledger, shrunk) == affected


class Units(int):
    """An int subclass: equal in value to an int, yet not an exact amount."""


class TestStructure:
    def test_undeclared_pair_has_no_leg_demands(self):
        req = make_request(chain=(0, 2, 1))
        with pytest.raises(ValueError) as err:
            leg_band_demands(req, make_catalog([(v, 1, 1) for v in range(3)], [(0, 2, 5)]))
        assert str(err.value) == "no bandwidth demand declared for template pair (2,1)"

    def test_complete_plan_has_no_errors(self):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat)
        assert plan_structure_errors(plan, req, cat, snap) == []

    def test_each_leg_is_walked_once(self, monkeypatch):
        # one walk per leg both tests the leg against the substrate and adds its latency
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(0, snap, cat)
        walked = []
        for name, walk in (("path_latency", path_latency), ("path_is_valid", path_is_valid)):
            monkeypatch.setattr(mano, name, lambda s, path, walk=walk:
                                walked.append(path) or walk(s, path))
        assert plan_structure_errors(plan, req, cat, snap) == []
        assert walked == list(plan.virtual_link_paths)

    @pytest.mark.parametrize("last", [(1, 0, 2), (1, 7, 2)], ids=["no-edge", "no-node"])
    def test_leg_problems_are_named_in_leg_order(self, last):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat)
        legs = (PhysicalPath((0, 2)), PhysicalPath((1,)), PhysicalPath((1,)), PhysicalPath(last))
        bad = dataclasses.replace(plan, virtual_link_paths=legs)
        assert plan_structure_errors(bad, req, cat, snap) == [
            "leg 0 runs 0->2, expected 0->1",
            f"leg 3 {last} leaves the substrate's nodes or edges"]

    def test_wrong_leg_wiring_detected(self):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat)
        bad = type(plan)(sfc_id=plan.sfc_id, vnf_placement=plan.vnf_placement,
                         virtual_link_paths=(PhysicalPath((0,)),) * 4,
                         cpu_alloc=plan.cpu_alloc, ram_alloc=plan.ram_alloc,
                         band_alloc=plan.band_alloc, total_latency=plan.total_latency)
        assert plan_structure_errors(bad, req, cat, snap)

    def test_tampered_allocation_detected(self):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat)
        bad = type(plan)(sfc_id=plan.sfc_id, vnf_placement=plan.vnf_placement,
                         virtual_link_paths=plan.virtual_link_paths,
                         cpu_alloc={1: Fraction(0)}, ram_alloc=plan.ram_alloc,
                         band_alloc=plan.band_alloc, total_latency=plan.total_latency)
        assert any("cpu_alloc" in p for p in plan_structure_errors(bad, req, cat, snap))

    @pytest.mark.parametrize("amount", [1.0, True], ids=["float", "bool"])
    def test_amount_equal_in_value_but_inexact_detected(self, amount):
        snap = chain_snapshot()
        cat = make_catalog([(0, 1, 1)], [])
        req = make_request(chain=(0,))
        plan = build_plan(req, cat, snap, (0,), [PhysicalPath((0,))] * 2)
        bad = dataclasses.replace(plan, ram_alloc={0: amount})
        assert bad.ram_alloc == plan.ram_alloc
        assert plan_structure_errors(bad, req, cat, snap) == [
            "an allocated amount is not an int or a Fraction"]

    @pytest.mark.parametrize("amount", [0.5, False, 2.0, Units(1)],
                             ids=["half", "false", "float-two", "int-subclass"])
    def test_amount_unequal_or_of_an_int_subclass_is_the_one_problem(self, amount):
        snap = chain_snapshot()
        cat = make_catalog([(0, 1, 1)], [])
        req = make_request(chain=(0,))
        plan = build_plan(req, cat, snap, (0,), [PhysicalPath((0,))] * 2)
        bad = dataclasses.replace(plan, ram_alloc={0: amount})
        assert plan_structure_errors(bad, req, cat, snap) == [
            "an allocated amount is not an int or a Fraction"]

    def test_amount_kind_is_named_before_a_bad_leg(self):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat)
        bad = dataclasses.replace(plan, virtual_link_paths=(PhysicalPath((0,)),) * 4,
                                  cpu_alloc={1: 0.6})
        assert plan_structure_errors(bad, req, cat, snap) == [
            "an allocated amount is not an int or a Fraction"]

    @pytest.mark.parametrize("key", [1.0, True], ids=["float", "bool"])
    def test_node_key_equal_in_value_but_not_an_int_detected(self, key):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat)
        bad = dataclasses.replace(plan, cpu_alloc={key: plan.cpu_alloc[1]})
        assert bad.cpu_alloc == plan.cpu_alloc
        assert plan_structure_errors(bad, req, cat, snap) == [
            "a node or an allocation key is not an int"]

    # A solver's answer is read before it is trusted: each wrong type is a
    # named problem, where it used to raise AttributeError or TypeError.
    @pytest.mark.parametrize("rewrite, problem", [
        (lambda plan: plan.vnf_placement, "plan is a tuple, not an EmbeddingPlan"),
        (lambda plan: None, "plan is a NoneType, not an EmbeddingPlan"),
        (lambda plan: dataclasses.replace(plan, vnf_placement=set(plan.vnf_placement)),
         "vnf_placement is a set, not a sequence"),
        (lambda plan: dataclasses.replace(plan, virtual_link_paths=None),
         "virtual_link_paths is a NoneType, not a sequence"),
        (lambda plan: dataclasses.replace(plan, band_alloc=list(plan.band_alloc.items())),
         "band_alloc is a list, not a mapping"),
        (lambda plan: dataclasses.replace(plan, virtual_link_paths=tuple(
            path.nodes for path in plan.virtual_link_paths)),
         "leg 0 is a tuple, not a PhysicalPath"),
        (lambda plan: dataclasses.replace(plan, virtual_link_paths=(
            *plan.virtual_link_paths[:2], PhysicalPath(frozenset({1, 2})),
            plan.virtual_link_paths[3])),
         "leg 2 has its nodes in a frozenset, not a sequence"),
    ])
    def test_malformed_types_are_named(self, rewrite, problem):
        snap, cat = chain_snapshot(), catalog()
        req, plan = plan_all_on(1, snap, cat)
        assert plan_structure_errors(rewrite(plan), req, cat, snap) == [problem]


def coprime_catalog():
    """Template demands in sevenths, elevenths and thirteenths, pair demands too."""
    return make_catalog([(0, F(1) / 7, F(5) / 7), (1, F(2) / 11, F(6) / 11),
                         (2, F(3) / 13, F(7) / 13)],
                        [(0, 1, F(4) / 7), (1, 2, F(5) / 13), (0, 2, F(9) / 11),
                         (0, 0, F(2) / 13), (1, 1, F(3) / 7), (2, 2, F(8) / 11)])


def assert_fraction_sums(plan, req, cat, placement, nodes):
    """The plan's maps are the Fraction sums of ``oracle.chain_holding``:
    the same values, in sorted key order, every value a Fraction."""
    _, *want = oracle.chain_holding(req, cat, placement, nodes)
    for alloc, sums in zip((plan.cpu_alloc, plan.ram_alloc, plan.band_alloc), want):
        assert list(alloc.items()) == sorted(sums.items())
        assert {type(x) for x in alloc.values()} <= {Fraction}


class TestIntegerPlanSums:
    """``build_plan`` and the gate's rebuild sum demands in integer units."""

    def test_shared_node_and_edge_on_coprime_denominators(self):
        snap, cat = make_snapshot(4, [(0, 1), (1, 2), (2, 3)]), coprime_catalog()
        req = make_request(ingress=0, egress=0, chain=(0, 1, 2))
        # node 1 hosts VNFs 0 and 2; legs 1 and 2 both cross (1, 2) and (2, 3);
        # the legs from and to the endpoints carry no demand over (0, 1)
        nodes = [(0, 1), (1, 2, 3), (3, 2, 1), (1, 0)]
        plan = build_plan(req, cat, snap, (1, 3, 1), map(PhysicalPath, nodes))
        assert plan.cpu_alloc == {1: F(1) / 7 + F(3) / 13, 3: F(2) / 11}
        assert plan.band_alloc == dict.fromkeys([(1, 2), (2, 3)], F(4) / 7 + F(5) / 13)
        assert_fraction_sums(plan, req, cat, (1, 3, 1), nodes)
        assert plan_structure_errors(plan, req, cat, snap) == []

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_placement_and_paths_match_fraction_sums(self, chain, data):
        snap, cat = make_snapshot(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]), \
            coprime_catalog()
        req = make_request(ingress=data.draw(st.integers(0, 3)),
                           egress=data.draw(st.integers(0, 3)), chain=chain)
        placement = data.draw(st.lists(st.integers(0, 3), min_size=len(chain),
                                       max_size=len(chain)))
        waypoints = (req.ingress, *placement, req.egress)
        nodes = [data.draw(st.sampled_from(oracle.all_simple_paths(snap, a, b)))
                 for a, b in zip(waypoints, waypoints[1:])]
        plan = build_plan(req, cat, snap, placement, map(PhysicalPath, nodes))
        assert_fraction_sums(plan, req, cat, placement, nodes)
        assert plan_structure_errors(plan, req, cat, snap) == []

    @pytest.mark.parametrize("solver_name", sorted(SOLVERS))
    def test_gate_passes_the_solver_plan_and_refuses_one_off_by_1_1001(self, solver_name):
        snap = make_snapshot(4, [(0, 1, 1.0, F(90) / 7), (1, 2, 1.0, F(80) / 11),
                                 (2, 3, 1.0, F(70) / 13), (0, 3, 5.0, F(60) / 7)],
                             cpu=[F(9) / 13] * 4, ram=[F(20) / 11] * 4)
        cat = coprime_catalog()
        req = make_request(ingress=0, egress=3, chain=(0, 1, 2, 0))
        ledger = ResourceLedger(snap, cat)
        decision = make_solver(solver_name).solve(
            SolverInput(req, cat, snap, ledger.free_units()), random.Random(3))
        plan = decision.plan
        assert plan is not None, decision.reason
        nodes = [path.nodes for path in plan.virtual_link_paths]
        assert_fraction_sums(plan, req, cat, plan.vnf_placement, nodes)
        assert plan_structure_errors(plan, req, cat, snap) == []
        assert check_plan(plan, ledger, req) is None
        for name, problem in (("cpu_alloc", "cpu_alloc does not match placement demands"),
                              ("ram_alloc", "ram_alloc does not match placement demands"),
                              ("band_alloc", "band_alloc does not match path demands")):
            alloc = getattr(plan, name)
            key = next(iter(alloc))
            for off in (Fraction(1, 1001), Fraction(-1, 1001)):
                bad = dataclasses.replace(plan, **{name: {**alloc, key: alloc[key] + off}})
                assert plan_structure_errors(bad, req, cat, snap) == [problem]


class TestConservation:
    def test_random_interleavings_conserve_exactly(self):
        snap, cat = chain_snapshot(), catalog()
        rng = random.Random(7)
        ledger = ResourceLedger(snap)
        next_id = 0
        for _ in range(300):
            if ledger.allocations and rng.random() < 0.5:
                ledger.release(rng.choice(sorted(ledger.allocations)))
            else:
                node = rng.randrange(3)
                req, plan = plan_all_on(node, snap, cat, sfc_id=next_id,
                                        ingress=node, egress=node)
                next_id += 1
                if check_plan(plan, ledger, req) is None:
                    ledger.allocate(plan)
            for node in range(3):
                used_cpu = sum((p.cpu_alloc.get(node, Fraction(0))
                                for p in ledger.allocations.values()), Fraction(0))
                used_ram = sum((p.ram_alloc.get(node, Fraction(0))
                                for p in ledger.allocations.values()), Fraction(0))
                assert snap.node_cpu_capacity[node] - ledger.cpu_free(node) == used_cpu
                assert snap.node_ram_capacity[node] - ledger.ram_free(node) == used_ram
                assert ledger.cpu_free(node) >= 0 and ledger.ram_free(node) >= 0
