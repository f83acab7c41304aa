import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F, make_snapshot, make_topo
from oracle import all_simple_paths, min_latency_path, path_cost
from sfcsim.topology import (InvalidPath, PhysicalPath, SubstrateTopology,
                             TimeBeforeStart, path_latency, shortest_feasible_path,
                             topology_from_json, topology_to_json)


def three_step_topo():
    snaps = {t: make_snapshot(2, [(0, 1)], cpu=[t + 1, t + 1]) for t in (0.0, 10.0, 20.0)}
    return make_topo(snaps)


class TestSnapshotAt:
    def test_floor_between_points(self):
        topo = three_step_topo()
        assert topo.snapshot_at(15) is topo.snapshots[10.0]

    def test_exact_hit(self):
        topo = three_step_topo()
        assert topo.snapshot_at(0) is topo.snapshots[0.0]

    def test_past_last_point(self):
        topo = three_step_topo()
        assert topo.snapshot_at(25) is topo.snapshots[20.0]

    def test_before_start_raises(self):
        with pytest.raises(TimeBeforeStart):
            three_step_topo().snapshot_at(-0.5)

    @given(st.floats(min_value=0, max_value=30, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_piecewise_constant(self, t):
        topo = three_step_topo()
        points = [p for p in topo.time_points if p <= t]
        assert topo.snapshot_at(t) is topo.snapshots[points[-1]]


class TestPathLatency:
    def test_sum_over_edges(self):
        snap = make_snapshot(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert path_latency(snap, PhysicalPath((0, 1, 2))) == 2.0

    def test_single_node_is_zero(self):
        snap = make_snapshot(4, [(0, 1)])
        assert path_latency(snap, PhysicalPath((3,))) == 0.0

    def test_missing_edge_raises(self):
        snap = make_snapshot(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidPath):
            path_latency(snap, PhysicalPath((0, 2)))

    def test_node_out_of_range_raises(self):
        snap = make_snapshot(2, [(0, 1)])
        with pytest.raises(InvalidPath):
            path_latency(snap, PhysicalPath((0, 5)))


class TestShortestFeasiblePath:
    def test_only_path_on_chain(self):
        snap = make_snapshot(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert shortest_feasible_path(snap, 0, 2).nodes == (0, 1, 2)

    def test_colocation_single_node(self):
        snap = make_snapshot(3, [(0, 1), (1, 2)])
        path = shortest_feasible_path(snap, 1, 1, F(50))
        assert path.nodes == (1,)
        assert path_latency(snap, path) == 0.0

    def test_band_filter_disconnects(self):
        snap = make_snapshot(3, [(0, 1, 1.0, 100), (1, 2, 1.0, 10)])
        assert shortest_feasible_path(snap, 0, 2, F(20)) is None

    def test_residual_overrides_capacity(self):
        snap = make_snapshot(3, [(0, 1, 1.0, 100), (1, 2, 1.0, 100)])
        residual = {(0, 1): F(100), (1, 2): F(5)}
        assert shortest_feasible_path(snap, 0, 2, F(20), residual) is None
        residual[(1, 2)] = F(20)
        assert shortest_feasible_path(snap, 0, 2, F(20), residual).nodes == (0, 1, 2)

    def test_prefers_lower_latency_over_fewer_hops(self):
        snap = make_snapshot(4, [(0, 3, 10.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert shortest_feasible_path(snap, 0, 3).nodes == (0, 1, 2, 3)

    def test_lexicographic_tie_break(self):
        # two parallel two-hop routes with equal latency: via 1 and via 2
        snap = make_snapshot(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
        assert shortest_feasible_path(snap, 0, 3).nodes == (0, 1, 3)

    def test_endpoint_out_of_range(self):
        snap = make_snapshot(2, [(0, 1)])
        with pytest.raises(ValueError):
            shortest_feasible_path(snap, 0, 7)


def random_instance(rng, n):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                edges.append((u, v, float(rng.randrange(1, 6)), rng.choice([10, 50, 100])))
    return make_snapshot(n, edges)


class TestAgainstBruteForce:
    def test_matches_enumeration_on_small_graphs(self):
        rng = random.Random(1805)
        checked = 0
        for _ in range(150):
            n = rng.randrange(2, 9)
            snap = random_instance(rng, n)
            src, dst = rng.randrange(n), rng.randrange(n)
            min_band = F(rng.choice([0, 10, 50, 100]))
            got = shortest_feasible_path(snap, src, dst, min_band)
            want = min_latency_path(snap, src, dst, min_band)
            if want is None:
                assert got is None or src == dst
                continue
            assert got is not None
            # optimal latency, and the lexicographically smallest optimum
            assert path_latency(snap, got) == want[0]
            assert got.nodes == want[1]
            checked += 1
        assert checked > 50

    def test_symmetric_latency(self):
        rng = random.Random(99)
        for _ in range(80):
            n = rng.randrange(2, 8)
            snap = random_instance(rng, n)
            s, d = rng.randrange(n), rng.randrange(n)
            fwd = shortest_feasible_path(snap, s, d)
            rev = shortest_feasible_path(snap, d, s)
            assert (fwd is None) == (rev is None)
            if fwd is not None:
                assert path_latency(snap, fwd) == path_latency(snap, rev)

    def test_enumeration_gives_upper_bound(self):
        rng = random.Random(4242)
        for _ in range(40):
            snap = random_instance(rng, 6)
            got = shortest_feasible_path(snap, 0, 5)
            if got is None:
                continue
            for nodes in all_simple_paths(snap, 0, 5):
                assert path_latency(snap, got) <= path_cost(snap, nodes)


class TestValidation:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_snapshot(2, []).__class__(
                node_count=2,
                adjacency=((False, True), (False, False)),
                latency=((0.0, 1.0), (1.0, 0.0)),
                node_cpu_capacity=(F(1), F(1)),
                node_ram_capacity=(F(1), F(1)),
                link_band_capacity=((F(0), F(1)), (F(1), F(0))))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_snapshot(1, [(0, 0)])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_snapshot(2, [(0, 1)], cpu=[-1, 1])

    def test_time_points_strictly_increasing(self):
        snap = make_snapshot(2, [(0, 1)])
        with pytest.raises(ValueError, match="increasing"):
            SubstrateTopology(time_points=(0.0, 0.0), snapshots={0.0: snap})

    @pytest.mark.parametrize("points", [(0.0, math.nan), (math.nan, 0.0), (0.0, math.inf)])
    def test_time_points_must_be_finite(self, points):
        snap = make_snapshot(2, [(0, 1)])
        with pytest.raises(ValueError, match="time_points must be finite"):
            SubstrateTopology(time_points=points, snapshots=dict.fromkeys(points, snap))

    def test_node_count_must_be_stable(self):
        with pytest.raises(ValueError, match="node count"):
            make_topo({0.0: make_snapshot(2, [(0, 1)]), 1.0: make_snapshot(3, [(0, 1)])})

    def test_path_must_be_simple(self):
        with pytest.raises(ValueError, match="revisits"):
            PhysicalPath((0, 1, 0))


class TestJsonRoundTrip:
    def test_round_trip_preserves_everything(self):
        topo = make_topo({0.0: make_snapshot(3, [(0, 1, 2.5, 30), (1, 2, 1.0, 45)],
                                             cpu=[1, 2, 3], ram=[64, 128, 256]),
                          5.0: make_snapshot(3, [(0, 2, 4.0, 10)],
                                             cpu=[1, 2, 3], ram=[64, 128, 256])})
        back = topology_from_json(topology_to_json(topo))
        assert back.time_points == topo.time_points
        for t in topo.time_points:
            a, b = topo.snapshots[t], back.snapshots[t]
            assert a.adjacency == b.adjacency
            assert a.latency == b.latency
            assert a.node_cpu_capacity == b.node_cpu_capacity
            assert a.node_ram_capacity == b.node_ram_capacity
            assert a.link_band_capacity == b.link_band_capacity

    def test_fraction_capacities_survive(self):
        snap = make_snapshot(2, [(0, 1)], cpu=[0.2, 0.3])
        assert snap.node_cpu_capacity[0] == Fraction(1, 5)
        topo = make_topo({0.0: snap})
        back = topology_from_json(topology_to_json(topo))
        assert back.snapshots[0.0].node_cpu_capacity[0] == Fraction(1, 5)
