"""The path search's lower bound changes no answer.

On a snapshot from the SAGIN generator the search orders its labels by
``f = g + h``, with ``h`` the straight-line latency to the target shrunk by
ε, and prunes with the same bound (``shortest_feasible_path`` has the
proof).  Each check here compares it with the search on an equal snapshot
without positions, which runs with ``h ≡ 0``: Dijkstra's order.  This module
needs no pytest: ``python tests/test_path_bound.py`` (with ``src`` on
``PYTHONPATH``) runs the same checks; the hypothesis property runs only
where hypothesis is installed.
"""

import math
import random
import struct
import sys
from itertools import chain
from pathlib import Path

from generator_digests import PINNED, desk_params
from sfcsim import engine, scenario, solver as solvers
from sfcsim.scenario import generate_sagin
from sfcsim.topology import (LIGHT_KM_PER_MS, OVER_BUDGET, SubstrateSnapshot, SubstrateTopology,
                             _bound_holds, path_latency, shortest_feasible_path,
                             topology_from_json, topology_to_json)
from sfcsim.trace import TraceLog

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the pytest-free run on an interpreter without it
    given = None

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import scenario_doc  # noqa: E402

# every search one run of each bench scene makes
BENCH_SEARCHES = {"wide-random": 598, "full-greedy": 2068, "churn-greedy": 518}


def positions(snap):
    return list(struct.iter_unpack("3d", snap._positions))


def bare(snap):
    """An equal snapshot without positions: its search runs with ``h ≡ 0``."""
    copy = SubstrateSnapshot(snap.node_count, snap.links, snap.node_cpu_capacity,
                             snap.node_ram_capacity)
    assert copy == snap and copy._positions is None
    return copy


def placed(points, pairs):
    """A snapshot over ``points`` (km) whose edges ``pairs`` have the latency
    the generator writes, with the points as its positions and their largest
    coordinate as the radius."""
    n = len(points)
    edges = {min(u, v) * n + max(u, v): (math.dist(points[u], points[v]) / LIGHT_KM_PER_MS, 100)
             for u, v in pairs}
    caps = (1,) * n
    coordinates = list(chain.from_iterable(points))
    return SubstrateSnapshot._from_edges(n, edges, caps, caps, None,
                                         struct.pack(f"{3 * n}d", *coordinates),
                                         max(map(abs, coordinates)))


def answer(found):
    return found.nodes if found is not None and found is not OVER_BUDGET else found


def assert_same_search(snap, plain, *query):
    got, want = (answer(shortest_feasible_path(s, *query)) for s in (snap, plain))
    assert got == want, (query, got, want)
    return got


def random_queries(snap, rng: random.Random, count: int):
    """Queries over blocked, negative and open band maps, with tight,
    infinite and 1e9 budgets: (src, dst, min_band, residual, base, limit)."""
    n, keys = snap.node_count, list(snap.edges())
    plain = bare(snap)
    for _ in range(count):
        residual = {key: rng.choice((-5, 0, 5, 10, 20, 100)) for key in keys
                    if rng.random() < 0.9}  # an edge left out is blocked
        min_band = rng.choice((0, 0, 1, 10, 20, -1))
        src, dst = rng.randrange(n), rng.randrange(n)
        base = rng.choice((0.0, rng.uniform(0.0, 50.0)))
        limits = [math.inf, 1e9, base + rng.uniform(0.0, 60.0)]
        best = shortest_feasible_path(plain, src, dst, min_band, residual)
        if best is not None:  # at and just below the best path's latency
            c = base + path_latency(plain, best)
            limits += [c, math.nextafter(c, -math.inf)]
        for limit in limits:
            yield src, dst, min_band, residual, base, limit


def random_scene(rng: random.Random):
    """A small generated scene: UAVs that nearly meet, a tight region, short ranges."""
    return generate_sagin(desk_params(
        orbit_count=rng.randint(1, 5), sats_per_orbit=rng.randint(1, 10),
        uav_count=rng.randint(0, 6), ground_count=rng.randint(0, 4),
        region_radius_km=rng.choice((50.0, 5.0, 0.01)),
        air_range_km=rng.choice((100.0, 1.0, 1000.0)),
        uav_altitude_km=rng.choice((2.0, 0.0, 300.0)),
        duration_s=1200.0, snapshot_interval_s=600.0, seed=rng.randrange(2**31)))


def test_random_queries_match_the_search_without_positions():
    rng = random.Random(20261020)
    queries = 0
    for _ in range(40):
        for snap in random_scene(rng).snapshots.values():
            plain = bare(snap)
            for query in random_queries(snap, rng, 25):
                assert_same_search(snap, plain, *query)
                queries += 1
    assert queries >= 10_000


if given is not None:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_generated_scenes_match_the_search_without_positions(seed):
        rng = random.Random(seed)
        for snap in random_scene(rng).snapshots.values():
            plain = bare(snap)
            for query in random_queries(snap, rng, 10):
                assert_same_search(snap, plain, *query)


def bench_searches(name: str) -> list:
    """Every search one run of the bench scene ``name`` makes, with its answer."""
    calls = []
    search = solvers.shortest_feasible_path

    def recording(snap, src, dst, min_band, residual, base, limit):
        found = search(snap, src, dst, min_band, residual, base, limit)
        calls.append((snap, (src, dst, min_band, dict(residual), base, limit), answer(found)))
        return found

    doc = scenario_doc(name)
    sc = scenario.scenario_from_json(doc)
    solvers.shortest_feasible_path = recording
    try:
        engine.run(sc.topo, sc.requests, sc.catalog, solvers.make_solver(doc["solver"]),
                   TraceLog(), seed=sc.seed)
    finally:
        solvers.shortest_feasible_path = search
    return calls


def test_every_search_of_the_bench_scenes_is_unchanged():
    for name, count in BENCH_SEARCHES.items():
        calls = bench_searches(name)
        assert len(calls) == count, name
        plain = {}
        for snap, query, found in calls:
            src, dst, _, _, base, limit = query
            assert _bound_holds(snap, base, limit), "the bound is in use"
            copy = plain.setdefault(id(snap), bare(snap))
            assert answer(shortest_feasible_path(copy, *query)) == found, (name, query)


def test_every_generated_latency_is_the_distance_of_two_stored_positions():
    for name, (overrides, _) in PINNED.items():
        for snap in generate_sagin(desk_params(**overrides)).snapshots.values():
            pos = positions(snap)
            assert len(pos) == snap.node_count
            for u, v in snap.edges():
                assert snap.edge_latency(u, v) == math.dist(pos[u], pos[v]) / LIGHT_KM_PER_MS, \
                    (name, u, v)


def test_the_generators_radius_bounds_every_coordinate():
    # A coordinate can equal the orbit radius to the last bit (far_shell,
    # node_at_a_pole), so the radius must not round below it.
    largest = 0.0
    for name, (overrides, _) in PINNED.items():
        for snap in generate_sagin(desk_params(**overrides)).snapshots.values():
            top = max(map(abs, chain.from_iterable(positions(snap))))
            assert top <= snap._radius, (name, top, snap._radius)
            largest = max(largest, top / snap._radius)
    assert largest > 1 - 2.0 ** -30  # a bound, not a guess far above every coordinate


def test_positions_without_a_radius_are_refused():
    try:
        SubstrateSnapshot._from_edges(1, {}, (1,), (1,), None, struct.pack("3d", 0.0, 0.0, 0.0))
    except ValueError as exc:
        assert "radius" in str(exc)
    else:
        raise AssertionError("positions without a radius were accepted")


def test_positions_stay_out_of_equality_and_files():
    snap = generate_sagin(desk_params()).snapshots[0.0]
    assert snap._positions is not None and "_positions" not in repr(snap)
    assert bare(snap) == snap
    loaded = topology_from_json(topology_to_json(SubstrateTopology((0.0,), {0.0: snap})))
    assert loaded.snapshots[0.0] == snap and loaded.snapshots[0.0]._positions is None


def test_the_guard_falls_back_on_a_sub_millimetre_edge():
    pairs = [(0, 1), (1, 2), (0, 2), (2, 3)]
    for gap_km, used in ((5e-7, False), (1e-3, True)):
        points = [(7000.0, 0.0, 0.0), (7000.0 + gap_km, 0.0, 0.0), (7000.0, 90.0, 0.0),
                  (7000.0, 400.0, 30.0)]
        snap = placed(points, pairs)
        assert _bound_holds(snap, 0.0, 100.0) is used, gap_km
        plain = bare(snap)
        for src in range(4):
            for limit in (math.inf, 100.0, 1.0, 0.3):
                assert_same_search(snap, plain, src, 3, 0, {}, 0.0, limit)


def test_the_guard_falls_back_on_an_unbounded_budget():
    snap = generate_sagin(desk_params()).snapshots[0.0]
    n = snap.node_count
    assert _bound_holds(snap, 0.0, 100.0)
    for base, limit in ((0.0, math.inf), (0.0, math.nan), (0.0, 1e300), (-math.inf, 100.0)):
        assert not _bound_holds(snap, base, limit), limit
        plain = bare(snap)
        for src in range(n):
            assert_same_search(snap, plain, src, 5, 0, {}, base, limit)


def test_a_rounding_tie_in_f_falls_back_to_the_cost():
    # On a line, 1 -> 4 and 1 -> 3 -> 4 differ in cost by rounding alone, and
    # so little that their f ties; the cost, not the node sequence, decides.
    snap = placed([(8.0, 0.0, 0.0), (5.0, 0.0, 0.0), (1.0, 0.0, 0.0), (6.0, 0.0, 0.0),
                   (3000.0, 0.0, 0.0)],
                  [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    assert _bound_holds(snap, 0.0, 1000.0)
    assert assert_same_search(snap, bare(snap), 2, 4, 0, {}, 0.0, 1000.0) == (2, 1, 4)


def test_the_shrink_covers_the_rounding_of_collinear_hops():
    # Collinear nodes make the triangle inequality tight, so without the
    # ε shrink a rounded h(u) can exceed l_uv + h(v) and the search settles
    # node 5 from 2 directly.
    snap = placed([(1.1, 0.0, 0.0), (0.8, 0.0, 0.0), (0.3, 0.0, 0.0), (0.9, 0.0, 0.0),
                   (0.6, 0.0, 0.0), (3000.0, 0.0, 0.0)],
                  [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 4), (2, 5), (3, 5), (4, 5)])
    assert _bound_holds(snap, 0.0, 60.0)
    assert assert_same_search(snap, bare(snap), 2, 5, 0, {}, 0.0, 60.0) == (2, 4, 5)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
