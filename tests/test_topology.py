import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, F, make_snapshot, make_topo
from oracle import all_simple_paths, min_latency_path, path_cost
from sfcsim.topology import (OVER_BUDGET, InvalidPath, PhysicalPath, SubstrateSnapshot,
                             SubstrateTopology, TimeBeforeStart, path_is_valid, path_latency,
                             _in_range, _num, as_fraction, shortest_feasible_path,
                             topology_from_json, topology_to_json)

OUT_OF_RANGE = "beyond float range or of over 4300 digits"


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

    def test_missing_edge_is_named(self):
        snap = make_snapshot(4, [(0, 1), (1, 2)])
        with pytest.raises(InvalidPath) as err:
            path_latency(snap, PhysicalPath((0, 1, 2, 3)))
        assert str(err.value) == "(2,3) is not an edge"

    def test_node_out_of_range_is_named_before_a_missing_edge(self):
        snap = make_snapshot(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidPath) as err:
            path_latency(snap, PhysicalPath((0, 2, 3)))
        assert str(err.value) == "node 3 outside substrate"

    @pytest.mark.parametrize("nodes, valid", [((0, 1, 2), True), ((2,), True),
                                              ((0, 1, 3), False), ((-1, 0), False),
                                              ((0, 2), False), ((1, 0, 2), False)],
                             ids=["edges", "one-node", "out-of-range", "negative",
                                  "missing-edge", "missing-last-edge"])
    def test_path_is_valid(self, nodes, valid):
        snap = make_snapshot(3, [(0, 1), (1, 2)])
        assert path_is_valid(snap, PhysicalPath(nodes)) is valid

    def test_band_of_a_non_edge_raises(self):
        snap = make_snapshot(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidPath) as err:
            snap.edge_band(2, 0)
        assert str(err.value) == "(2,0) is not an edge"

    def test_latency_of_a_non_edge_raises(self):
        snap = make_snapshot(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidPath) as err:
            snap.edge_latency(2, 0)
        assert str(err.value) == "(2,0) is not an edge"


def capacities(snap):
    """Every edge's bandwidth capacity: the free map of an empty network."""
    return {key: snap.edge_band(*key) for key in snap.edges()}


class TestShortestFeasiblePath:
    def test_only_path_on_chain(self):
        snap = make_snapshot(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert shortest_feasible_path(snap, 0, 2, 0, capacities(snap)).nodes == (0, 1, 2)

    def test_colocation_single_node(self):
        snap = make_snapshot(3, [(0, 1), (1, 2)])
        path = shortest_feasible_path(snap, 1, 1, F(50), capacities(snap))
        assert path.nodes == (1,)
        assert path_latency(snap, path) == 0.0

    def test_band_filter_disconnects(self):
        snap = make_snapshot(3, [(0, 1, 1.0, 100), (1, 2, 1.0, 10)])
        assert shortest_feasible_path(snap, 0, 2, F(20), capacities(snap)) is None

    def test_residual_overrides_capacity(self):
        snap = make_snapshot(3, [(0, 1, 1.0, 100), (1, 2, 1.0, 100)])
        residual = {(0, 1): F(100), (1, 2): F(5)}
        assert shortest_feasible_path(snap, 0, 2, F(20), residual) is None
        residual[(1, 2)] = F(20)
        assert shortest_feasible_path(snap, 0, 2, F(20), residual).nodes == (0, 1, 2)

    def test_prefers_lower_latency_over_fewer_hops(self):
        snap = make_snapshot(4, [(0, 3, 10.0), (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert shortest_feasible_path(snap, 0, 3, 0, capacities(snap)).nodes == (0, 1, 2, 3)

    def test_lexicographic_tie_break(self):
        # two parallel two-hop routes with equal latency: via 1 and via 2
        snap = make_snapshot(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
        assert shortest_feasible_path(snap, 0, 3, 0, capacities(snap)).nodes == (0, 1, 3)

    def test_endpoint_out_of_range(self):
        snap = make_snapshot(2, [(0, 1)])
        with pytest.raises(ValueError):
            shortest_feasible_path(snap, 0, 7, 0, capacities(snap))


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
            got = shortest_feasible_path(snap, src, dst, min_band, capacities(snap))
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
            fwd = shortest_feasible_path(snap, s, d, 0, capacities(snap))
            rev = shortest_feasible_path(snap, d, s, 0, capacities(snap))
            assert (fwd is None) == (rev is None)
            if fwd is not None:
                assert path_latency(snap, fwd) == path_latency(snap, rev)

    def test_enumeration_gives_upper_bound(self):
        rng = random.Random(4242)
        for _ in range(40):
            snap = random_instance(rng, 6)
            got = shortest_feasible_path(snap, 0, 5, 0, capacities(snap))
            if got is None:
                continue
            for nodes in all_simple_paths(snap, 0, 5):
                assert path_latency(snap, got) <= path_cost(snap, nodes)


@st.composite
def budgeted_searches(draw):
    """A small snapshot with integer and zero latencies (so ties are common),
    a residual map with negative and missing entries, a band filter, two
    endpoints and a budget ``(base, limit)``."""
    n = draw(st.integers(2, 7))
    edges = [(u, v, draw(st.integers(0, 4))) for u in range(n) for v in range(u + 1, n)
             if draw(st.booleans())]
    snap = make_snapshot(n, edges)
    residual = {key: draw(st.integers(-1, 3)) for key in snap.edges()
                if draw(st.integers(0, 7))}  # a missing edge has none free
    min_band = draw(st.integers(0, 2))
    src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    amount = st.one_of(st.integers(0, 12).map(float),
                       st.floats(0, 20, allow_nan=False), st.just(math.inf))
    return snap, src, dst, min_band, residual, draw(amount), draw(amount)


@st.composite
def band_filters(draw):
    """A small snapshot, endpoints, a budget, and a band filter of one of four
    kinds: every value >= ``min_band`` (every edge passes when ``min_band <=
    0``), one value below it, keys missing, or a float NaN entry."""
    n = draw(st.integers(2, 7))
    edges = [(u, v, draw(st.integers(0, 4))) for u in range(n) for v in range(u + 1, n)
             if draw(st.booleans())]
    snap = make_snapshot(n, edges)
    keys = list(snap.edges())
    kind = draw(st.sampled_from(["at least", "one below", "missing", "nan"]))
    halves = st.integers(-4, 0 if kind in ("at least", "nan") else 4).map(lambda k: Fraction(k, 2))
    min_band = draw(st.one_of(st.integers(-2, 0), halves))
    residual = {key: min_band + draw(st.integers(0, 3)) for key in keys}
    if keys and kind == "one below":
        residual[draw(st.sampled_from(keys))] = min_band - draw(st.integers(1, 2))
    elif kind == "missing":
        residual = {key: x for key, x in residual.items() if draw(st.booleans())}
    elif keys and kind == "nan":
        residual[draw(st.sampled_from(keys))] = math.nan
    src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    amount = st.one_of(st.integers(0, 12).map(float), st.just(math.inf))
    return snap, src, dst, min_band, residual, draw(amount), draw(amount)


class TestBudgetedSearch:
    @given(st.one_of(budgeted_searches(), band_filters()))
    @settings(max_examples=700, deadline=None)
    def test_budget_changes_no_path_only_the_verdict(self, case):
        """The unbudgeted path when it fits, OVER_BUDGET exactly when it
        exists and does not, None exactly when there is none."""
        snap, src, dst, min_band, residual, base, limit = case
        unbounded = shortest_feasible_path(snap, src, dst, min_band, residual)
        got = shortest_feasible_path(snap, src, dst, min_band, residual, base, limit)
        want = min_latency_path(snap, src, dst, min_band, residual)
        if want is None:
            assert unbounded is None and got is None
        else:
            assert unbounded.nodes == want[1]
            assert got == (OVER_BUDGET if base + want[0] > limit else unbounded)

    @given(n=st.integers(2, 24), density=st.floats(0.05, 0.5), seed=st.integers(0, 2**32),
           min_band=st.integers(0, 2), base=st.floats(0, 5),
           limit=st.one_of(st.floats(0, 30), st.just(math.inf)))
    @settings(max_examples=300, deadline=None)
    def test_over_budget_exactly_when_dst_is_reachable_and_the_path_is_late(
            self, n, density, seed, min_band, base, limit):
        """On sparse random graphs, where the reachability pass has ground to
        cover: OVER_BUDGET exactly when the unbudgeted path exists and
        ``base + latency > limit``, and None exactly when no node sequence
        through the band filter joins the endpoints (a plain graph search)."""
        rng = random.Random(seed)
        edges = [(u, v, rng.uniform(0, 4), rng.randrange(1, 4))
                 for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        snap = make_snapshot(n, edges)
        residual = {key: rng.randrange(-1, 4) for key in snap.edges()}
        src, dst = rng.randrange(n), rng.randrange(n)
        reached, stack = {src}, [src]
        while stack:
            u = stack.pop()
            for v in snap.links[u]:
                if v not in reached and residual[min(u, v), max(u, v)] >= min_band:
                    reached.add(v)
                    stack.append(v)
        unbounded = shortest_feasible_path(snap, src, dst, min_band, residual)
        got = shortest_feasible_path(snap, src, dst, min_band, residual, base, limit)
        if dst not in reached:
            assert unbounded is None and got is None
        elif base + path_latency(snap, unbounded) > limit:
            assert got is OVER_BUDGET
        else:
            assert got == unbounded

    def test_over_budget_is_not_no_path(self):
        # 0 - 1 - 2 at 5 ms a hop; the band filter cuts 2 - 3
        snap = make_snapshot(4, [(0, 1, 5.0), (1, 2, 5.0), (2, 3, 1.0, 10)])
        assert shortest_feasible_path(snap, 0, 2, 0, capacities(snap), 1.0, 11.0).nodes \
            == (0, 1, 2)
        assert shortest_feasible_path(snap, 0, 2, 0, capacities(snap), 1.0, 10.5) \
            is OVER_BUDGET
        assert shortest_feasible_path(snap, 0, 3, 20, capacities(snap), 1.0, 10.5) is None
        assert shortest_feasible_path(snap, 1, 1, 0, capacities(snap), 2.0, 1.0) \
            is OVER_BUDGET
        assert repr(OVER_BUDGET) == "OVER_BUDGET"


class TestOpenFilter:
    """A band filter every edge passes, and the values that close one edge of
    it (``band_filters`` draws open and closed filters for the budgeted-search
    property)."""

    def test_open_filter_passes_every_edge(self):
        # 0 - 1 - 2 - 3; (2, 3) is missing from the map and reads 0
        snap = make_snapshot(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        residual = {(0, 1): 5, (1, 2): 1}
        assert shortest_feasible_path(snap, 0, 3, 0, residual).nodes == (0, 1, 2, 3)
        assert shortest_feasible_path(snap, 0, 3, 0, residual, 0.0, 2.5) is OVER_BUDGET
        assert shortest_feasible_path(snap, 0, 3, Fraction(1, 2), residual) is None  # no (2, 3)
        assert shortest_feasible_path(snap, 0, 3, 0, {(0, 1): 0, (1, 2): -1}) is None

    @pytest.mark.parametrize("blocked", [-1, math.nan], ids=["negative", "nan"])
    def test_a_value_below_zero_or_nan_blocks_its_edge(self, blocked):
        # the zero-demand leg must not cross (1, 2), so it takes the 10 ms detour
        snap = make_snapshot(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
        residual = {(0, 1): 0, (1, 2): blocked, (0, 2): 0}
        assert shortest_feasible_path(snap, 0, 2, 0, residual).nodes == (0, 2)
        assert shortest_feasible_path(snap, 1, 2, 0, residual, 0.0, 5.0) is OVER_BUDGET
        residual[(0, 2)] = -1
        assert shortest_feasible_path(snap, 1, 2, 0, residual) is None


class TestValidation:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            SubstrateSnapshot.from_matrices(
                adjacency=((False, True), (False, False)),
                latency=((0.0, 1.0), (1.0, 0.0)),
                link_band_capacity=((F(0), F(1)), (F(1), F(0))),
                node_cpu_capacity=(F(1), F(1)),
                node_ram_capacity=(F(1), F(1)))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            make_snapshot(1, [(0, 0)])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_snapshot(2, [(0, 1)], cpu=[-1, 1])

    def test_no_time_points(self):
        with pytest.raises(ValueError) as err:
            SubstrateTopology(time_points=(), snapshots={})
        assert str(err.value) == "topology needs at least one time point"

    @pytest.mark.parametrize("times", [(0.0,), (0.0, 1.0, 2.0)])
    def test_snapshots_must_cover_the_time_points(self, times):
        snap = make_snapshot(2, [(0, 1)])
        with pytest.raises(ValueError) as err:
            SubstrateTopology(time_points=(0.0, 1.0), snapshots=dict.fromkeys(times, snap))
        assert str(err.value) == "snapshots must cover exactly the time points"

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

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError) as err:
            PhysicalPath(())
        assert str(err.value) == "a path needs at least one node"

    def test_zero_node_snapshot_rejected(self):
        with pytest.raises(ValueError) as err:
            SubstrateSnapshot(0, [], (), ())
        assert str(err.value) == "snapshot needs at least one node"


def reference_first_fault(adj, lat, band):
    """The full pair scan of the snapshot checks: the first fault's message."""
    n = len(adj)
    for i in range(n):
        if adj[i][i]:
            return f"self-loop at node {i}"
        for j in range(i + 1, n):
            if adj[i][j] != adj[j][i]:
                return f"adjacency not symmetric at ({i},{j})"
            if not adj[i][j]:
                continue
            if lat[i][j] != lat[j][i]:
                return f"latency not symmetric at ({i},{j})"
            if band[i][j] != band[j][i]:
                return f"bandwidth not symmetric at ({i},{j})"
            if not (math.isfinite(lat[i][j]) and lat[i][j] >= 0):
                return f"bad latency {lat[i][j]!r} on edge ({i},{j})"
            if band[i][j] < 0:
                return f"negative bandwidth on edge ({i},{j})"
    return None


def matrices(n, edges):
    """Mutable symmetric adjacency/latency/band rows for an edge list."""
    adj = [[False] * n for _ in range(n)]
    lat = [[0.0] * n for _ in range(n)]
    band = [[F(0)] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = True
        lat[u][v] = lat[v][u] = 1.0 + u + v
        band[u][v] = band[v][u] = F(10 + u)
    return adj, lat, band


def build(adj, lat, band, rows=tuple):
    n = len(adj)
    return SubstrateSnapshot.from_matrices(
        tuple(rows(r) for r in adj), tuple(rows(r) for r in lat),
        tuple(rows(r) for r in band), (F(1),) * n, (F(1),) * n)


class TestSnapshotRejections:
    """Each rejection, with the first fault in (i, j) order named."""

    def expect(self, adj, lat, band, message):
        assert reference_first_fault(adj, lat, band) == message
        with pytest.raises(ValueError) as exc:
            build(adj, lat, band)
        assert str(exc.value) == message

    def test_asymmetric_pair_reported_before_later_self_loop(self):
        adj, lat, band = matrices(3, [(1, 2)])
        adj[0][1] = True
        adj[2][2] = True
        self.expect(adj, lat, band, "adjacency not symmetric at (0,1)")

    def test_self_loop_reported_before_later_asymmetric_pair(self):
        adj, lat, band = matrices(3, [])
        adj[0][0] = True
        adj[2][1] = True
        self.expect(adj, lat, band, "self-loop at node 0")

    def test_earlier_edge_fault_reported_before_later_asymmetric_pair(self):
        adj, lat, band = matrices(4, [(0, 1)])
        lat[1][0] = 9.0
        adj[2][3] = True
        self.expect(adj, lat, band, "latency not symmetric at (0,1)")

    def test_asymmetric_latency_on_edge(self):
        adj, lat, band = matrices(3, [(0, 1), (1, 2)])
        lat[2][1] = 0.5
        self.expect(adj, lat, band, "latency not symmetric at (1,2)")

    def test_asymmetric_bandwidth_on_edge(self):
        adj, lat, band = matrices(3, [(0, 1), (1, 2)])
        band[1][2] = F(3)
        self.expect(adj, lat, band, "bandwidth not symmetric at (1,2)")

    @pytest.mark.parametrize("shared", [True, False])
    def test_nan_latency_is_never_symmetric(self, shared):
        adj, lat, band = matrices(2, [(0, 1)])
        lat[0][1] = math.nan
        lat[1][0] = lat[0][1] if shared else float("nan")
        self.expect(adj, lat, band, "latency not symmetric at (0,1)")

    @pytest.mark.parametrize("value", [math.inf, -1.0])
    def test_bad_latency(self, value):
        adj, lat, band = matrices(2, [(0, 1)])
        lat[0][1] = lat[1][0] = value
        self.expect(adj, lat, band, f"bad latency {value!r} on edge (0,1)")

    def test_negative_bandwidth(self):
        adj, lat, band = matrices(3, [(0, 1), (1, 2)])
        band[1][2] = band[2][1] = F(-1)
        self.expect(adj, lat, band, "negative bandwidth on edge (1,2)")

    def test_one_nan_object_in_both_directions_is_still_asymmetric(self):
        nan = float("nan")
        adj, lat, band = matrices(2, [(0, 1)])
        band[0][1] = band[1][0] = nan
        self.expect(adj, lat, band, "bandwidth not symmetric at (0,1)")
        adj, lat, band = matrices(2, [])
        adj[0][1] = adj[1][0] = nan
        self.expect(adj, lat, band, "adjacency not symmetric at (0,1)")

    def test_asymmetry_off_the_edges_is_accepted(self):
        adj, lat, band = matrices(3, [(0, 1)])
        lat[1][2], band[2][1] = 7.0, F(5)
        lat[0][2] = math.nan
        band[2][0] = F(-3)
        snap = build(adj, lat, band)
        assert tuple(map(tuple, snap.links)) == ((1,), (0,), ())

    def test_list_rows_validate(self):
        adj, lat, band = matrices(4, [(0, 1), (1, 3), (2, 3)])
        snap = build(adj, lat, band, rows=list)
        assert tuple(map(tuple, snap.links)) == ((1,), (0, 3), (3,), (1, 2))
        assert list(snap.edges()) == [(0, 1), (1, 3), (2, 3)]
        lat[3][2] = 0.0
        with pytest.raises(ValueError, match=r"^latency not symmetric at \(2,3\)$"):
            build(adj, lat, band, rows=list)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_verdict_as_the_full_pair_scan(self, data):
        n = data.draw(st.integers(1, 5))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        adj, lat, band = matrices(n, edges)
        nodes = st.integers(0, n - 1)
        for _ in range(data.draw(st.integers(0, 3))):
            i, j, kind = data.draw(nodes), data.draw(nodes), data.draw(st.integers(0, 6))
            if kind == 0:
                adj[i][j] = not adj[i][j]
            elif kind == 1:
                adj[i][j] = adj[j][i] = 1 if adj[i][j] else 0
            elif kind == 2:
                lat[i][j] = data.draw(st.sampled_from([0.0, 2.5, -1.0, math.inf, math.nan]))
            elif kind == 3:
                lat[i][j] = lat[j][i] = data.draw(st.sampled_from([0.0, -2.0, math.inf]))
            elif kind == 4:
                band[i][j] = F(data.draw(st.integers(-2, 2)))
            elif kind == 5:
                band[i][j] = band[j][i] = F(data.draw(st.integers(-2, 2)))
            else:
                adj[i][i] = data.draw(st.booleans())
        expected = reference_first_fault(adj, lat, band)
        if expected is None:
            snap = build(adj, lat, band)
            assert tuple(map(tuple, snap.links)) == tuple(
                tuple(j for j in range(n) if adj[i][j]) for i in range(n))
            assert list(snap.edges()) == [(i, j) for i, j in pairs if adj[i][j]]
            for i in range(n):
                for j in range(n):
                    assert snap.has_edge(i, j) == bool(adj[i][j])
                    if adj[i][j]:
                        assert snap.edge_latency(i, j) == lat[i][j]
                        assert snap.edge_band(i, j) == band[i][j]
        else:
            with pytest.raises(ValueError) as exc:
                build(adj, lat, band)
            assert str(exc.value) == expected


def sparse(n, edges):
    """Neighbour maps for an edge list, one shared (latency, band) per edge."""
    links = [{} for _ in range(n)]
    for u, v in edges:
        links[u][v] = links[v][u] = (1.0 + u + v, F(10 + u))
    return links


class TestSparseSnapshot:
    """The edge-map constructor: each fault it rejects, and read-only rows."""

    def expect(self, links, message, n=None):
        n = len(links) if n is None else n
        with pytest.raises(ValueError) as exc:
            SubstrateSnapshot(n, links, (F(1),) * n, (F(1),) * n)
        assert str(exc.value) == message

    def test_accepts_and_sorts_rows(self):
        links = sparse(4, [(2, 3), (0, 3), (1, 3)])
        snap = SubstrateSnapshot(4, links, (F(1),) * 4, (F(1),) * 4)
        assert tuple(map(tuple, snap.links)) == ((3,), (3,), (3,), (0, 1, 2))
        assert list(snap.links[3]) == [0, 1, 2]
        assert list(snap.edges()) == [(0, 3), (1, 3), (2, 3)]
        assert snap.edge_latency(3, 1) == 5.0 and snap.edge_band(3, 1) == F(11)
        assert snap == SubstrateSnapshot.from_matrices(*matrices(4, [(2, 3), (0, 3), (1, 3)]),
                                                       (F(1),) * 4, (F(1),) * 4)

    def test_equal_values_in_separate_tuples_are_symmetric(self):
        links = sparse(2, [(0, 1)])
        links[1][0] = tuple(links[0][1])  # equal, but not the same object
        SubstrateSnapshot(2, links, (F(1),) * 2, (F(1),) * 2)

    def test_one_directional_edge(self):
        links = sparse(3, [(1, 2)])
        links[0][2] = (1.0, F(1))
        self.expect(links, "edge (0,2) not symmetric")

    def test_one_directional_edge_seen_from_the_higher_end(self):
        links = sparse(3, [])
        links[2][0] = (1.0, F(1))
        self.expect(links, "edge (2,0) not symmetric")

    @pytest.mark.parametrize("back", [(3.0, F(10)), (2.0, F(11))])
    def test_unequal_values(self, back):
        links = sparse(2, [(0, 1)])
        links[1][0] = back
        self.expect(links, "edge (0,1) not symmetric")

    def test_self_loop(self):
        links = sparse(3, [(0, 1)])
        links[2][2] = (1.0, F(1))
        self.expect(links, "self-loop at node 2")

    @pytest.mark.parametrize("v", [3, -1, 1.0, "1", True])
    def test_out_of_range_neighbour(self, v):
        links = sparse(3, [])
        links[0][v] = (1.0, F(1))
        self.expect(links, f"neighbour {v!r} of node 0 outside substrate")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_bad_latency(self, value):
        links = sparse(3, [(1, 2)])
        links[1][2] = links[2][1] = (value, F(1))
        self.expect(links, f"bad latency {value!r} on edge (1,2)")

    def test_negative_bandwidth(self):
        links = sparse(3, [(0, 2)])
        links[0][2] = links[2][0] = (1.0, F(-1))
        self.expect(links, "negative bandwidth on edge (0,2)")

    @pytest.mark.parametrize("rows", [2, 4])
    def test_wrong_links_length(self, rows):
        self.expect(sparse(rows, []), "links must have 3 entries", n=3)

    def test_rows_are_read_only(self):
        snap = make_snapshot(3, [(0, 1)])
        with pytest.raises(TypeError):
            snap.links[0][2] = (1.0, F(1))
        with pytest.raises(TypeError):
            del snap.links[0][1]
        assert list(snap.edges()) == [(0, 1)]

    def test_rows_do_not_alias_the_input(self):
        links = sparse(2, [(0, 1)])
        snap = SubstrateSnapshot(2, links, (F(1),) * 2, (F(1),) * 2)
        links[0].clear()
        assert snap.has_edge(0, 1)


class TestSharedObjectChecks:
    """Snapshot validation tests each distinct capacity and band object once;
    a fault still raises the first message, naming the first edge, that a
    test of every entry raises."""

    def expect(self, links, cpu, ram, message):
        with pytest.raises(ValueError) as exc:
            SubstrateSnapshot(len(links), links, cpu, ram)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ["node_cpu_capacity", "node_ram_capacity"])
    def test_negative_capacity_shared_by_several_nodes(self, name):
        good, bad = F(1), F(-1)
        vec = (good, bad, good, bad)
        cpu, ram = (vec, (good,) * 4) if name == "node_cpu_capacity" else ((good,) * 4, vec)
        self.expect(sparse(4, []), cpu, ram, f"{name} has a negative entry")

    def test_negative_capacity_only_on_the_last_node(self):
        good = F(2)
        self.expect(sparse(4, []), (good,) * 3 + (Fraction(-1, 3),), (good,) * 4,
                    "node_cpu_capacity has a negative entry")
        self.expect(sparse(4, []), (good,) * 4, (good,) * 3 + (Fraction(-1, 3),),
                    "node_ram_capacity has a negative entry")

    def test_cpu_fault_is_named_before_ram(self):
        bad = F(-1)
        self.expect(sparse(2, []), (bad, bad), (bad, bad), "node_cpu_capacity has a negative entry")

    @pytest.mark.parametrize("band", [F(-1), math.nan], ids=["negative", "nan"])
    def test_bad_band_shared_by_several_edges(self, band):
        good = F(10)
        links = [{} for _ in range(5)]
        for u, v, b in [(0, 1, good), (1, 3, band), (2, 4, band), (3, 4, good)]:
            links[u][v] = links[v][u] = (1.0, b)
        self.expect(links, (good,) * 5, (good,) * 5, "negative bandwidth on edge (1,3)")

    @pytest.mark.parametrize("band", [F(-1), math.nan], ids=["negative", "nan"])
    def test_bad_band_only_on_the_last_edge(self, band):
        good = F(10)
        links = [{} for _ in range(4)]
        for u, v, b in [(0, 1, good), (0, 2, good), (1, 2, good), (2, 3, band)]:
            links[u][v] = links[v][u] = (1.0, b)
        self.expect(links, (good,) * 4, (good,) * 4, "negative bandwidth on edge (2,3)")

    # A float capacity or band crashed run() far from its source: the ledger's
    # unit conversion reads a denominator.  It is refused after the sign test,
    # so a NaN band above still reads as negative; a str or None, which the
    # sign test cannot compare, raised a bare TypeError from it.
    @pytest.mark.parametrize("name", ["node_cpu_capacity", "node_ram_capacity"])
    @pytest.mark.parametrize("value", [1.5, True, "3", None])
    def test_capacity_that_is_not_exact_is_refused(self, name, value):
        good = F(2)
        vec = (good, value, good)
        cpu, ram = (vec, (good,) * 3) if name == "node_cpu_capacity" else ((good,) * 3, vec)
        self.expect(sparse(3, []), cpu, ram,
                    f"{name} entry {value!r} is not an int or a Fraction")

    @pytest.mark.parametrize("value", [10.0, "3", None])
    def test_band_that_is_not_exact_is_refused(self, value):
        good = F(10)
        links = [{} for _ in range(4)]
        for u, v, b in [(0, 1, good), (1, 2, value), (2, 3, value)]:
            links[u][v] = links[v][u] = (1.0, b)
        self.expect(links, (good,) * 4, (good,) * 4,
                    f"bandwidth {value!r} on edge (1,2) is not an int or a Fraction")

    def test_float_matrices_are_refused(self):
        adjacency = [[False, True], [True, False]]
        latency = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError, match=r"^node_cpu_capacity entry 0\.3 is not an int"):
            SubstrateSnapshot.from_matrices(adjacency, latency, [[0, 5], [5, 0]],
                                            [0.3, 1], [F(1), F(1)])
        with pytest.raises(ValueError, match=r"^bandwidth 5\.0 on edge \(0,1\) is not an int"):
            SubstrateSnapshot.from_matrices(adjacency, latency, [[0, 5.0], [5.0, 0]],
                                            [1, 1], [1, 1])

    def test_later_fault_on_an_edge_with_a_checked_band(self):
        good = F(10)
        links = [{} for _ in range(3)]
        links[0][1] = links[1][0] = (1.0, good)
        links[1][2] = links[2][1] = (-1.0, good)
        self.expect(links, (good,) * 3, (good,) * 3, "bad latency -1.0 on edge (1,2)")
        links[1][2] = (2.0, good)
        self.expect(links, (good,) * 3, (good,) * 3, "edge (1,2) not symmetric")

    def test_capacity_fault_is_named_before_a_pair_fault(self):
        # The matrices' pairs go to the one builder, which checks the
        # capacities before any edge.
        adj, lat, band = matrices(3, [(0, 1)])
        adj[1][2] = True
        with pytest.raises(ValueError, match=r"^node_cpu_capacity has a negative entry$"):
            SubstrateSnapshot.from_matrices(adj, lat, band, (F(-1),) * 3, (F(1),) * 3)
        with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(1,2\)$"):
            SubstrateSnapshot.from_matrices(adj, lat, band, (F(1),) * 3, (F(1),) * 3)

    # A generator hands every snapshot of a run one memo of the objects that
    # passed, so each is tested once per run.  Two builds with one memo must
    # raise what a fresh memo raises.
    def expect_shared(self, memo, n, edges, cpu, ram, message):
        for vetted in (memo, None):
            with pytest.raises(ValueError) as exc:
                SubstrateSnapshot._from_edges(n, edges, cpu, ram, vetted)
            assert str(exc.value) == message

    def test_a_vetted_capacity_tuple_is_still_tested_as_a_band(self):
        memo, cpu = ({}, {}), (F(10), F(10))
        SubstrateSnapshot._from_edges(2, {1: (1.0, F(30))}, cpu, cpu, memo)
        self.expect_shared(memo, 2, {1: (1.0, cpu)}, cpu, cpu,
                           f"bandwidth {cpu!r} on edge (0,1) is not an int or a Fraction")

    def test_a_list_capacity_vector_is_tested_again(self):
        memo, cpu, ram = ({}, {}), [F(10), F(10)], (F(10), F(10))
        SubstrateSnapshot._from_edges(2, {1: (1.0, F(30))}, cpu, ram, memo)
        cpu[1] = F(-1)
        self.expect_shared(memo, 2, {1: (1.0, F(30))}, cpu, ram,
                           "node_cpu_capacity has a negative entry")

    def test_a_vetted_capacity_tuple_of_another_length_is_refused(self):
        memo, cap = ({}, {}), (F(10), F(10))
        SubstrateSnapshot._from_edges(2, {1: (1.0, F(30))}, cap, cap, memo)
        self.expect_shared(memo, 3, {1: (1.0, F(30))}, cap, cap,
                           "node_cpu_capacity must have 3 entries")

    @pytest.mark.parametrize("band, message", [
        (F(-1), "negative bandwidth on edge (1,2)"),
        (math.nan, "negative bandwidth on edge (1,2)"),
        (10.0, "bandwidth 10.0 on edge (1,2) is not an int or a Fraction"),
        (F(10**400), f"bandwidth on edge (1,2) is {OUT_OF_RANGE}"),
    ], ids=["negative", "nan", "float", "out-of-range"])
    def test_a_bad_band_first_met_in_a_later_build(self, band, message):
        memo, good, cap = ({}, {}), F(10), (F(10),) * 4
        SubstrateSnapshot._from_edges(4, {1: (1.0, good), 2: (1.0, good)}, cap, cap, memo)
        edges = {1: (1.0, good), 6: (1.0, band), 7: (1.0, good), 11: (1.0, band)}
        self.expect_shared(memo, 4, edges, cap, cap, message)

    def test_a_refused_object_is_refused_again(self):
        memo, good = ({}, {}), F(10)
        bad_cap, cap, bad_band = (good, F(-1)), (good, good), F(-1)
        for _ in range(2):
            self.expect_shared(memo, 2, {1: (1.0, good)}, bad_cap, cap,
                               "node_cpu_capacity has a negative entry")
            self.expect_shared(memo, 2, {1: (1.0, bad_band)}, cap, cap,
                               "negative bandwidth on edge (0,1)")
        assert memo == ({id(cap): cap}, {})  # only the good tuple entered


class TestEdgeMapBuilder:
    """The one builder over ``{u * n + v: (latency, band)}``: each fault it
    raises, named at the lowest edge that has it."""

    N = 4
    GOOD = F(10)

    def build(self, edges, n=N):
        return SubstrateSnapshot._from_edges(n, edges, (self.GOOD,) * n, (self.GOOD,) * n)

    def expect(self, edges, message, n=N):
        with pytest.raises(ValueError) as exc:
            self.build(edges, n)
        assert str(exc.value) == message

    def test_builds_the_snapshot_the_rows_give(self):
        edges = {2 * 4 + 3: (1.0, F(3)), 0 * 4 + 3: (2.0, F(4)), 1 * 4 + 2: (0.0, 7)}
        snap = self.build(edges)
        assert [list(row) for row in snap.links] == [[3], [2], [1, 3], [0, 2]]
        assert snap == SubstrateSnapshot(4, [dict(row) for row in snap.links],
                                         (self.GOOD,) * 4, (self.GOOD,) * 4)
        for u, v in snap.edges():
            assert snap.links[u][v] is snap.links[v][u] is edges[u * 4 + v]

    @pytest.mark.parametrize("keys, bad", [([16, 1, 20], 16), ([-3, 1, -1, 17], -3),
                                           ([1, 99, 16], 16)])
    def test_key_out_of_range(self, keys, bad):
        self.expect(dict.fromkeys(keys, (1.0, self.GOOD)), f"edge key {bad} outside 0..15")

    @pytest.mark.parametrize("key", [2.0, "1", True, (0, 1)], ids=repr)
    def test_key_that_is_not_an_int(self, key):
        self.expect({3: (1.0, self.GOOD), key: (1.0, self.GOOD)},
                    f"edge key {key!r} is not an int")

    @pytest.mark.parametrize("keys, message", [
        ([1, 4, 2], "edge key 4 is (1,0), not u < v"),
        ([6, 10, 5], "edge key 5 is (1,1), not u < v"),
        ([15, 14], "edge key 14 is (3,2), not u < v"),
    ])
    def test_lower_end_first(self, keys, message):
        self.expect(dict.fromkeys(keys, (1.0, self.GOOD)), message)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, -0.5])
    def test_bad_latency(self, value):
        edges = {1: (1.0, self.GOOD), 11: (value, self.GOOD), 6: (value, self.GOOD),
                 2: (1.0, self.GOOD)}
        self.expect(edges, f"bad latency {value!r} on edge (1,2)")

    @pytest.mark.parametrize("band", [F(-1), -1, math.nan], ids=["Fraction", "int", "nan"])
    def test_negative_band(self, band):
        edges = {11: (1.0, band), 1: (1.0, self.GOOD), 6: (1.0, band), 7: (1.0, F(-2))}
        self.expect(edges, "negative bandwidth on edge (1,2)")

    @pytest.mark.parametrize("band", [10.0, "3", None, True], ids=repr)
    def test_band_that_is_not_exact(self, band):
        edges = {11: (1.0, band), 1: (1.0, self.GOOD), 6: (1.0, band)}
        self.expect(edges, f"bandwidth {band!r} on edge (1,2) is not an int or a Fraction")

    @pytest.mark.parametrize("band", [F(2**1024), 2**1024, Fraction(1, 10**4300)],
                             ids=["Fraction", "int", "digits"])
    def test_band_out_of_range(self, band):
        edges = {11: (1.0, band), 1: (1.0, self.GOOD), 6: (1.0, band)}
        self.expect(edges, f"bandwidth on edge (1,2) is {OUT_OF_RANGE}")

    def test_an_earlier_edge_names_the_fault_whatever_its_kind(self):
        edges = {11: (-1.0, self.GOOD), 6: (1.0, F(-1)), 3: (math.nan, self.GOOD)}
        self.expect(edges, "bad latency nan on edge (0,3)")
        edges[3] = (1.0, self.GOOD)
        self.expect(edges, "negative bandwidth on edge (1,2)")

    def test_capacities_are_checked_before_the_edges(self):
        with pytest.raises(ValueError, match=r"^node_ram_capacity has a negative entry$"):
            SubstrateSnapshot._from_edges(2, {1: (-1.0, F(1))}, (F(1),) * 2, (F(-1),) * 2)
        with pytest.raises(ValueError, match=r"^snapshot needs at least one node$"):
            SubstrateSnapshot._from_edges(0, {}, (), ())

    def test_rows_are_read_only_and_do_not_alias_the_input(self):
        edges = {1: (1.0, self.GOOD)}
        snap = self.build(edges)
        edges.clear()
        edges[2] = (1.0, self.GOOD)
        assert list(snap.edges()) == [(0, 1)]
        with pytest.raises(TypeError):
            snap.links[0][2] = (1.0, self.GOOD)


# The exact numbers around each bound of the magnitude rule: 4300 digits a
# part, the largest float, the smallest subnormal, and the point from which
# float() of an exact number overflows (half an ulp above the largest float).
DIGITS_TOP = 10**4300 - 1
FLOAT_EDGE = 2**1024 - 2**970
EDGE_PARTS = [1, 2, 3, 10**15, DIGITS_TOP, int(sys.float_info.max), FLOAT_EDGE, 2**1074, 10**324]


def _near_edges():
    part = st.builds(lambda edge, offset: max(1, edge + offset),
                     st.sampled_from(EDGE_PARTS), st.integers(-2, 2))
    ratios = st.builds(Fraction, part, part)
    signed = st.builds(lambda sign, x: sign * x, st.sampled_from([1, -1]), ratios)
    return st.one_of(signed, part, st.integers(-10**30, 10**30),
                     st.sampled_from([Fraction(sys.float_info.max), -Fraction(sys.float_info.max),
                                      Fraction(5e-324)]))


class TestMagnitudeRule:
    """One rule for every exact quantity: what it accepts is written as a JSON
    value that reads back to itself, and what it refuses is refused by both
    entries, ``as_fraction`` and ``SubstrateSnapshot``."""

    def test_the_edges_fall_where_float_puts_them(self):
        assert float(FLOAT_EDGE - 1) == sys.float_info.max and _in_range(FLOAT_EDGE - 1)
        with pytest.raises(OverflowError):
            float(FLOAT_EDGE)
        assert not _in_range(FLOAT_EDGE) and not _in_range(-FLOAT_EDGE)
        assert float(Fraction(1, DIGITS_TOP)) == 0.0 and _in_range(Fraction(1, DIGITS_TOP))
        assert not _in_range(Fraction(1, DIGITS_TOP + 1))
        assert _in_range(Fraction(5e-324)) and _in_range(-Fraction(sys.float_info.max))

    @settings(max_examples=150, deadline=None)
    @given(_near_edges())
    def test_accepted_values_round_trip_and_refused_ones_are_refused(self, x):
        if _in_range(x):
            assert as_fraction(json.loads(json.dumps(_num(Fraction(x))))) == x
            if x >= 0:
                assert SubstrateSnapshot(1, ({},), (x,), (1,)).node_cpu_capacity == (x,)
        else:
            with pytest.raises(ValueError):
                as_fraction(x)
            with pytest.raises(ValueError):
                SubstrateSnapshot(1, ({},), (x,), (1,))


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
            assert list(a.edges()) == list(b.edges())
            for u, v in a.edges():
                assert a.edge_latency(u, v) == b.edge_latency(u, v)
                assert a.edge_band(u, v) == b.edge_band(u, v)
            assert a.node_cpu_capacity == b.node_cpu_capacity
            assert a.node_ram_capacity == b.node_ram_capacity

    def test_fraction_capacities_survive(self):
        snap = make_snapshot(2, [(0, 1)], cpu=[0.2, 0.3])
        assert snap.node_cpu_capacity[0] == Fraction(1, 5)
        topo = make_topo({0.0: snap})
        back = topology_from_json(topology_to_json(topo))
        assert back.snapshots[0.0].node_cpu_capacity[0] == Fraction(1, 5)

    def test_non_decimal_fractions_survive(self):
        # A float written for 5/7 read back as 7142857142857143/10**16, above
        # 5/7, so seven 5/7-cpu VNFs no longer fitted a capacity-5 node.
        big = Fraction(10**300 + 1, 2)  # in float range, but no float is it
        snap = make_snapshot(3, [(0, 1, 1.0, Fraction(5, 7)), (1, 2, 2.0, big)],
                             cpu=[Fraction(5, 7), 5, Fraction(3, 10)], ram=[big, 1, 1])
        doc = topology_to_json(make_topo({0.0: snap}))
        first = doc["snapshots"][0]
        assert first["node_cpu"] == ["5/7", 5, 0.3]
        assert first["link_band_mbps"][0][1] == "5/7"
        assert first["node_ram_mb"][0] == f"{10**300 + 1}/2"
        back = topology_from_json(json.loads(json.dumps(doc))).snapshots[0.0]
        assert back.node_cpu_capacity == snap.node_cpu_capacity
        assert back.node_ram_capacity == snap.node_ram_capacity
        assert back.links == snap.links
        # (10**400 + 1)/2, beyond float range, was written as "n/d"; it is refused.
        beyond = Fraction(10**400 + 1, 2)
        with pytest.raises(ValueError, match=f"^quantity {OUT_OF_RANGE}$"):
            as_fraction(beyond)
        with pytest.raises(ValueError, match=f"^node_ram_capacity has an entry {OUT_OF_RANGE}$"):
            make_snapshot(3, [(0, 1)], ram=[beyond, 1, 1])
        with pytest.raises(ValueError, match=rf"^bandwidth on edge \(1,2\) is {OUT_OF_RANGE}$"):
            make_snapshot(3, [(0, 1), (1, 2, 2.0, beyond)])

    @pytest.mark.parametrize("text", ["1e4300", "1e-4300", "9" * 4300 + "e4300"],
                             ids=["1e4300", "1e-4300", "4300 nines e4300"])
    def test_quantities_of_over_4300_digits_survive(self, text):
        # These were written as decimal strings, since json.dumps of the int
        # for 1e4300, and str() of 1e-4300 as "n/d", raise ValueError; each
        # has more than 4300 digits, and both entries now refuse it.
        with pytest.raises(ValueError, match=f"^quantity {OUT_OF_RANGE}$"):
            as_fraction(text)
        x = Fraction(text)
        with pytest.raises(ValueError, match=f"^node_cpu_capacity has an entry {OUT_OF_RANGE}$"):
            make_snapshot(2, [(0, 1, 1.0, x)], cpu=[x, 1], ram=[1, x])
        with pytest.raises(ValueError, match=rf"^bandwidth on edge \(0,1\) is {OUT_OF_RANGE}$"):
            make_snapshot(2, [(0, 1, 1.0, x)])

    @pytest.mark.parametrize("text, written", [
        ("1" + "0" * 4299 + "e4300", "1" + "0" * 4299 + "e4300"),
        ("10e4299", "1e4300"),
        ("123.456e-4300", "123.456e-4300"),
        ("0." + "1" * 4300 + "e-4300", "0." + "1" * 4300 + "e-4300"),
        ("9" * 4300 + "." + "9" * 4300, "9" * 4300 + "." + "9" * 4300),
        ("9" * 4300 + "." + "9" * 4300 + "e4300", "9" * 4300 + "." + "9" * 4300 + "e4300"),
        ("-1e-4300", "-1e-4300")],
        ids=["4300 digits e4300", "10e4299", "123.456e-4300",
             "4300 decimals e-4300", "4300 digits each side", "both sides e4300", "-1e-4300"])
    def test_long_decimals_keep_each_part_within_4300_digits(self, text, written):
        # Each text, and the decimal form it was written back as, has a part
        # of over 4300 digits once read as n/d: both are refused.
        for literal in (text, written):
            with pytest.raises(ValueError, match=f"^quantity {OUT_OF_RANGE}$"):
                as_fraction(literal)

    def test_fraction_beyond_any_decimal_form_is_refused(self):
        x = Fraction(1, 3 * 10**4300)
        with pytest.raises(ValueError, match=f"^quantity {OUT_OF_RANGE}$"):
            as_fraction(x)
        with pytest.raises(ValueError, match=f"^node_cpu_capacity has an entry {OUT_OF_RANGE}$"):
            SubstrateSnapshot(1, ({},), (x,), (1,))

    def test_bundled_matrices_are_written_back_unchanged(self):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())["substrate"]
        assert json.dumps(topology_to_json(topology_from_json(doc))) == json.dumps(doc)
