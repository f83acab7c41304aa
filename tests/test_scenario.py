import copy
import gc
import json
import math
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, F, make_catalog, make_snapshot, make_topo
from generator_digests import PINNED, desk_params
from generator_digests import check as check_digest
from generator_digests import check_rows
from sagin_oracle import draw_params, reference_sagin, same_topology
from test_exact_literals import MALFORMED
from sfcsim.scenario import (MAX_GENERATED, InvalidParams, ParseError,
                             ValidationError, _above_mask, _clear_chord2, _latlon_to_cart,
                             _line_of_sight, generate_poisson_workload, generate_sagin,
                             load_scenario,
                             scenario_from_json)
from sfcsim.topology import topology_from_json, topology_to_json
from sfcsim.workload import VnfCatalog, validate_workload

LIGHT_KM_PER_MS = 299.792458


class TestSaginGenerator:
    def test_full_scale_counts(self):
        params = desk_params(orbit_count=4, sats_per_orbit=10, uav_count=5,
                             ground_count=3, duration_s=36000.0)
        topo = generate_sagin(params)
        assert topo.node_count == 48
        assert len(topo.time_points) == 61
        assert topo.time_points[0] == 0.0 and topo.time_points[-1] == 36000.0

    def test_three_sat_ring(self):
        params = desk_params(orbit_count=1, sats_per_orbit=3, uav_count=0,
                             ground_count=0)
        topo = generate_sagin(params)
        for t in topo.time_points:
            snap = topo.snapshots[t]
            assert sorted(snap.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_deterministic_given_seed(self):
        a = topology_to_json(generate_sagin(desk_params()))
        b = topology_to_json(generate_sagin(desk_params()))
        assert json.dumps(a) == json.dumps(b)

    def test_different_seed_moves_region(self):
        a = topology_to_json(generate_sagin(desk_params()))
        b = topology_to_json(generate_sagin(desk_params(seed=8)))
        assert json.dumps(a) != json.dumps(b)

    def test_capacities_constant_edges_vary(self):
        topo = generate_sagin(desk_params())
        snaps = [topo.snapshots[t] for t in topo.time_points]
        assert len({s.node_cpu_capacity for s in snaps}) == 1
        assert len({s.node_ram_capacity for s in snaps}) == 1
        assert len({tuple(s.edges()) for s in snaps}) > 1  # connectivity churn

    def test_edge_latency_sanity_bound(self):
        params = desk_params()
        topo = generate_sagin(params)
        bound = 2 * (params.earth_radius_km + params.altitude_km) / LIGHT_KM_PER_MS
        for t in topo.time_points:
            snap = topo.snapshots[t]
            for u, v in snap.edges():
                assert 0 < snap.edge_latency(u, v) < bound

    def test_intra_orbit_spacing_is_rigid(self):
        topo = generate_sagin(desk_params())
        baseline = None
        for t in topo.time_points:
            lat = topo.snapshots[t].edge_latency(0, 1)  # ring neighbors in orbit 0
            if baseline is None:
                baseline = lat
            assert abs(lat - baseline) <= 1e-6 * baseline

    def test_shared_objects_are_tested_once_per_run(self, monkeypatch):
        # The magnitude test runs per distinct capacity and band object, so
        # twice the snapshots make no more calls.
        import sfcsim.topology as topology
        calls, in_range = [], topology._in_range
        monkeypatch.setattr(topology, "_in_range", lambda x: calls.append(x) or in_range(x))
        counts = []
        for interval in (600, 288):  # 13 and 26 snapshots
            doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
            doc["substrate"]["generator"]["sagin"]["snapshot_interval_s"] = interval
            calls.clear()
            counts.append((len(scenario_from_json(doc).topo.time_points), len(calls)))
        assert counts[0][0] * 2 == counts[1][0] and counts[0][1] == counts[1][1]

    def test_fuzzed_params_satisfy_topology_invariants(self):
        # SubstrateSnapshot/SubstrateTopology constructors enforce symmetry,
        # non-negative capacities, and the stable node count; building is the test.
        import random
        rng = random.Random(5)
        for _ in range(6):
            params = desk_params(
                orbit_count=rng.randrange(1, 4),
                sats_per_orbit=rng.randrange(1, 5),
                uav_count=rng.randrange(0, 3),
                ground_count=rng.randrange(0, 3),
                altitude_km=rng.choice([400.0, 590.0, 1200.0]),
                duration_s=1800.0, snapshot_interval_s=600.0,
                seed=rng.randrange(100))
            topo = generate_sagin(params)
            assert topo.node_count == params.node_count

    @pytest.mark.parametrize("bad", [
        dict(orbit_count=0),
        dict(sats_per_orbit=0),
        dict(altitude_km=0.0),
        dict(duration_s=1000.0, snapshot_interval_s=600.0),
        dict(elevation_min_deg=90.0),
        dict(sat_cpu=F(0)),
        dict(uav_count=-1),
        dict(uav_waypoints=0),
        dict(uav_waypoints=-1),
        dict(uav_loop_period_s=0.0),
        dict(earth_radius_km=0.0),
        dict(uav_altitude_km=-6371.0),
        dict(altitude_km=1e120),  # the orbit radius cubed overflows
        dict(earth_radius_km=1e120),
    ])
    def test_invalid_params(self, bad):
        with pytest.raises(InvalidParams):
            desk_params(**bad)

    def test_size_bound(self):
        # two snapshots of MAX_GENERATED / 2 nodes, or MAX_GENERATED UAV waypoints
        two = dict(orbit_count=1, ground_count=0, duration_s=600.0, snapshot_interval_s=600.0)
        assert desk_params(**two, sats_per_orbit=MAX_GENERATED // 2,
                           uav_count=0).snapshot_count == 2
        with pytest.raises(InvalidParams, match="node x snapshot"):
            desk_params(**two, sats_per_orbit=MAX_GENERATED // 2 + 1, uav_count=0)
        uavs = MAX_GENERATED // 4
        desk_params(**two, sats_per_orbit=1, uav_count=uavs, uav_waypoints=4)
        with pytest.raises(InvalidParams, match="UAV x waypoint"):
            desk_params(**two, sats_per_orbit=1, uav_count=uavs, uav_waypoints=5)

    # Every float field: some failed late (bad latency on an edge, a math
    # domain error) and some generated silently before they were checked.
    @pytest.mark.parametrize("field", ["altitude_km", "earth_radius_km", "inclination_deg",
                                       "duration_s", "snapshot_interval_s",
                                       "elevation_min_deg", "uav_altitude_km", "air_range_km",
                                       "region_radius_km", "uav_loop_period_s"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
    def test_non_finite_satellite_geometry_rejected(self, field, value):
        with pytest.raises(InvalidParams, match=f"^{field} must be finite$"):
            desk_params(**{field: value})

    # Every integer field, through the Python API: a float or a bool crashed
    # deep in the generator or drew silently; a string was compared with 1.
    @pytest.mark.parametrize("field", ["orbit_count", "sats_per_orbit", "uav_count",
                                       "ground_count", "seed", "uav_waypoints"])
    @pytest.mark.parametrize("value", [2.0, 2.5, True, "2", None])
    def test_non_int_count_rejected(self, field, value):
        with pytest.raises(InvalidParams,
                           match="^" + re.escape(f"{field} must be an int, got {value!r}") + "$"):
            desk_params(**{field: value})

    # Every float and exact-quantity field, through the Python API: a string
    # or None raised TypeError from the first comparison, a bool loaded as 1.
    @pytest.mark.parametrize("field", ["altitude_km", "earth_radius_km", "duration_s",
                                       "elevation_min_deg", "uav_loop_period_s",
                                       "sat_cpu", "uav_cpu", "ground_cpu", "node_ram_mb",
                                       "isl_band_mbps", "sg_band_mbps"])
    @pytest.mark.parametrize("value", ["590", "3", None, True, [3]])
    def test_non_number_quantity_rejected(self, field, value):
        message = f"{field} must be a number, got {value!r}"
        with pytest.raises(InvalidParams, match="^" + re.escape(message) + "$"):
            desk_params(**{field: value})

    # An infinite capacity or band generated, then raised OverflowError in run().
    @pytest.mark.parametrize("field", ["sat_cpu", "node_ram_mb", "isl_band_mbps"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_quantity_rejected(self, field, value):
        with pytest.raises(InvalidParams, match=f"^{field} must be finite$"):
            desk_params(**{field: value})

    # A number beyond float range raised OverflowError from math.isfinite.
    @pytest.mark.parametrize("field, value", [("altitude_km", 10**400), ("duration_s", 10**400),
                                              ("sat_cpu", F(10**400)), ("node_ram_mb", 10**400),
                                              ("isl_band_mbps", -F(10**400))],
                             ids=["altitude_km", "duration_s", "sat_cpu", "node_ram_mb",
                                  "isl_band_mbps"])
    def test_quantity_beyond_float_range_rejected(self, field, value):
        with pytest.raises(InvalidParams, match=f"^{field} must be finite$"):
            desk_params(**{field: value})

    # A finite quantity of over 4300 digits passed as the Fraction it is.
    @pytest.mark.parametrize("value", [Fraction(1, 10**4300), Fraction(10**4300 + 1, 10**4300)],
                             ids=["tiny", "near-one"])
    def test_quantity_of_over_4300_digits_rejected(self, value):
        with pytest.raises(InvalidParams, match="^sat_cpu: quantity beyond float range or of"
                                                " over 4300 digits$"):
            desk_params(sat_cpu=value)

    # Exact operands in range whose result is not: an int cube, a Fraction quotient.
    @pytest.mark.parametrize("overrides, message", [
        (dict(earth_radius_km=6371, altitude_km=10**120),
         r"the orbit radius \(earth_radius_km \+ altitude_km\) cubed must be finite"),
        (dict(duration_s=F(10**300), snapshot_interval_s=Fraction(1, 10**10)),
         "snapshot_interval_s must divide duration_s"),
    ], ids=["int-cube", "fraction-steps"])
    def test_derived_number_beyond_float_range_rejected(self, overrides, message):
        with pytest.raises(InvalidParams, match=f"^{message}$"):
            desk_params(**overrides)

    def test_orbit_radius_cubed_must_be_finite(self):
        with pytest.raises(InvalidParams, match=r"^the orbit radius \(earth_radius_km"
                                                r" \+ altitude_km\) cubed must be finite$"):
            desk_params(altitude_km=1e120)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_snapshots_match_pinned_digest(self, name):
        check_digest(name)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_reference_scans_match_pinned_digest(self, name):
        check_digest(name, reference_sagin)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_snapshots_are_what_their_rows_give(self, name):
        check_rows(name)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_lookups_match_the_all_satellite_scans(self, data):
        regime, params = draw_params(lambda options: data.draw(st.sampled_from(options)))
        assert same_topology(params), regime

    def test_colocated_nodes_are_not_linked(self):
        # With a zero-radius region and UAVs on the ground, every UAV and
        # ground station sits at one point: their range test passes at
        # distance 0, and add_edge refuses a zero-length edge.
        params = desk_params(region_radius_km=0.0, uav_altitude_km=0.0)
        sat_n = params.orbit_count * params.sats_per_orbit
        topo = generate_sagin(params)
        for t in topo.time_points:
            assert not [e for e in topo.snapshots[t].edges() if e[0] >= sat_n], t
        assert any(u < sat_n <= v for t in topo.time_points
                   for u, v in topo.snapshots[t].edges())  # the satellites still see them

    def test_ring_links_share_one_tuple_per_length(self):
        # A ring link spans the same chord at every snapshot, so the run
        # holds one (latency, band) tuple per measured length.
        params = desk_params(orbit_count=4, sats_per_orbit=10, duration_s=36000.0)
        m, sat_n = params.sats_per_orbit, params.orbit_count * params.sats_per_orbit
        topo = generate_sagin(params)
        ring = [topo.snapshots[t].links[u][u - u % m + (u + 1) % m]
                for t in topo.time_points for u in range(sat_n)]
        assert len({id(edge) for edge in ring}) == len(set(ring)) < len(ring) / 10

    def test_snapshots_one_uav_loop_apart_share_the_range_links(self):
        params = desk_params(uav_count=3)  # a 3600 s loop, a snapshot every 600 s
        sat_n, n = params.orbit_count * params.sats_per_orbit, params.node_count
        topo = generate_sagin(params)
        t = 600.0
        a, b = topo.snapshots[t], topo.snapshots[t + params.uav_loop_period_s]
        air = [(u, v) for u in range(sat_n, sat_n + params.uav_count)
               for v in range(u + 1, n) if v in a.links[u]]
        assert air and all(a.links[u][v] is b.links[u][v] for u, v in air)

    def test_uav_phases_that_never_repeat_match_the_reference(self):
        # A 3599.5 s loop against 60 s snapshots: each loop shifts every phase by 0.5 s.
        assert same_topology(desk_params(uav_count=3, snapshot_interval_s=60.0,
                                         uav_loop_period_s=3599.5))

    def test_a_phase_is_forgotten_after_its_last_snapshot(self):
        # The memory the generator holds beyond its result: where no phase
        # repeats, every snapshot computes its own UAV side and keeps none,
        # so it stays near that of a run whose snapshots share one phase.
        def working_bytes(params):
            gc.collect()
            tracemalloc.start()
            try:
                topo = generate_sagin(params)
                gc.collect()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert topo.node_count == params.node_count
            return peak - current
        scene = dict(uav_count=3, snapshot_interval_s=60.0)
        never = working_bytes(desk_params(uav_loop_period_s=3599.5, **scene))
        always = working_bytes(desk_params(uav_loop_period_s=60.0, **scene))
        assert never < 2 * always, (never, always)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matrix_round_trip_rebuilds_the_same_snapshots(self, name):
        overrides, _ = PINNED[name]
        topo = generate_sagin(desk_params(**overrides))
        back = topology_from_json(topology_to_json(topo))
        assert back.time_points == topo.time_points
        for t in topo.time_points:
            assert back.snapshots[t] == topo.snapshots[t]


class TestLineOfSight:
    R = 6371.0

    def test_zero_length_segment_is_clear(self):
        assert _line_of_sight((7000.0, 0.0, 0.0), (7000.0, 0.0, 0.0), self.R) is True

    def test_closest_approach_beyond_an_end_is_clear(self):
        # both ends on one radial line: the closest point to the centre is p
        assert _line_of_sight((7000.0, 0.0, 0.0), (8000.0, 0.0, 0.0), self.R) is True
        assert _line_of_sight((8000.0, 0.0, 0.0), (7000.0, 0.0, 0.0), self.R) is True

    def test_segment_through_the_earth_is_blocked(self):
        assert _line_of_sight((7000.0, 0.0, 0.0), (-7000.0, 0.0, 0.0), self.R) is False

    def test_segment_grazing_above_the_earth_is_clear(self):
        assert _line_of_sight((7000.0, -7000.0, 0.0), (7000.0, 7000.0, 0.0), self.R) is True


def shell_pair(radius, d2):
    """Two points on the shell of ``radius`` at squared distance about ``d2``."""
    angle = 2 * math.asin(math.sqrt(d2) / (2 * radius))
    return (radius, 0.0, 0.0), (radius * math.cos(angle), radius * math.sin(angle), 0.0)


class TestClearChord:
    """Below ``_clear_chord2`` two satellites see each other without the exact test."""

    R, a = 6371.0, 6371.0 + 550.0
    tangent2 = 4 * (a * a - R * R)  # the chord that touches the Earth

    def test_just_inside_the_chord_is_clear(self):
        p, q = shell_pair(self.a, _clear_chord2(self.a, self.R) * (1 - 1e-7))
        assert math.dist(p, q) ** 2 < _clear_chord2(self.a, self.R)
        assert _line_of_sight(p, q, self.R) is True

    def test_just_outside_the_chord_the_exact_test_decides(self):
        p, q = shell_pair(self.a, self.tangent2 * (1 - 5e-7))  # in the margin: clear
        assert math.dist(p, q) ** 2 > _clear_chord2(self.a, self.R)
        assert _line_of_sight(p, q, self.R) is True
        p, q = shell_pair(self.a, self.tangent2 * (1 + 1e-7))  # past the tangent: blocked
        assert math.dist(p, q) ** 2 > _clear_chord2(self.a, self.R)
        assert _line_of_sight(p, q, self.R) is False

    def test_a_thin_shell_leaves_every_pair_to_the_exact_test(self):
        assert _clear_chord2(self.R * (1 + 1e-6), self.R) == 0.0
        assert _clear_chord2(self.R, self.R) == 0.0

    @given(earth=st.floats(1e-3, 1e6), height=st.floats(1e-9, 10),
           lat=st.floats(-90, 90), lon=st.floats(-180, 180),
           lat2=st.floats(-90, 90), lon2=st.floats(-180, 180),
           share=st.one_of(st.floats(0, 1.01), st.floats(1 - 1e-5, 1 + 1e-5)))
    @settings(max_examples=400, deadline=None)
    def test_pairs_below_the_chord_see_each_other(self, earth, height, lat, lon,
                                                  lat2, lon2, share):
        """Any two points on any shell, at a central angle ``share`` of the
        tangent chord's: squared distances on both sides of the bound, and
        often within its margin."""
        radius = earth * (1 + height)
        p = _latlon_to_cart(lat, lon, 1.0)
        e = _latlon_to_cart(lat2, lon2, 1.0)
        along = e[0] * p[0] + e[1] * p[1] + e[2] * p[2]
        w = [ei - along * pi for ei, pi in zip(e, p)]
        norm = math.hypot(*w)
        if norm < 1e-3:  # no bearing: e lies along p
            return
        angle = 2 * math.acos(min(1.0, earth / radius)) * share
        q = [radius * (math.cos(angle) * pi + math.sin(angle) * wi / norm)
             for pi, wi in zip(p, w)]
        p = [radius * pi for pi in p]
        if math.dist(p, q) ** 2 < _clear_chord2(radius, earth):
            assert _line_of_sight(p, q, earth) is True


def exact_mask(sin_el, elevation_min_deg):
    """The elevation mask as the generator first wrote it, in degrees."""
    return math.degrees(math.asin(max(-1.0, min(1.0, sin_el)))) >= elevation_min_deg


def ulps(x, k):
    """``x`` moved ``k`` floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


MASK_ANGLES = [0.0, 5.0, 10.0, 45.0, 89.9]
OFF_SCALE = [math.nan, math.inf, -math.inf, 1.0, -1.0, 1.5, -1.5, ulps(1.0, 1), ulps(-1.0, -1)]


def mask_probes(sin_min):
    """The threshold, the edges of the exact band around it and their neighbours."""
    return [ulps(centre, k) for centre in (sin_min, sin_min - 1e-9, sin_min + 1e-9)
            for k in range(-2, 3)] + OFF_SCALE


class TestElevationMask:
    """``_above_mask`` decides by a threshold on ``sin_el`` and must agree with
    the exact test everywhere, at the threshold and its band edges above all:
    no pinned generator case puts a pair there."""

    @pytest.mark.parametrize("elevation", MASK_ANGLES)
    def test_probes_match_the_exact_test(self, elevation):
        sin_min = math.sin(math.radians(elevation))
        for x in mask_probes(sin_min):
            assert _above_mask(x, sin_min, elevation) == exact_mask(x, elevation), x

    @given(st.one_of(st.sampled_from(MASK_ANGLES), st.floats(0, 90, exclude_max=True)),
           st.data())
    @settings(max_examples=400, deadline=None)
    def test_values_near_the_threshold_match_the_exact_test(self, elevation, data):
        sin_min = math.sin(math.radians(elevation))
        x = data.draw(st.one_of(st.floats(sin_min - 1e-6, sin_min + 1e-6),
                                st.sampled_from(mask_probes(sin_min))))
        assert _above_mask(x, sin_min, elevation) == exact_mask(x, elevation)


class TestPoissonWorkload:
    def horizon_topo(self):
        snap = make_snapshot(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        return make_topo({0.0: snap, 36000.0: snap})

    def catalog(self):
        return make_catalog([(0, 0.2, 64), (1, 0.2, 64), (2, 0.2, 64)],
                            [(0, 1, 20), (1, 2, 20)])

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidParams):
            generate_poisson_workload(self.horizon_topo(), self.catalog(),
                                      sfc_count=0, mean_lifetime_s=600,
                                      chain_len=3, qos_ms=50)

    @pytest.mark.parametrize("sfc_count, chain_len", [(MAX_GENERATED // 3 + 1, 3),
                                                      (1, MAX_GENERATED + 1)])
    def test_size_bound(self, sfc_count, chain_len):
        with pytest.raises(InvalidParams, match="sfc_count x chain_len"):
            generate_poisson_workload(self.horizon_topo(), self.catalog(),
                                      sfc_count=sfc_count, mean_lifetime_s=600,
                                      chain_len=chain_len, qos_ms=50)

    # A NaN lifetime drew NaN end times, an infinite one divided by zero, and
    # an infinite QoS bound generated as is.
    @pytest.mark.parametrize("field", ["mean_lifetime_s", "qos_ms"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0, 0.0, -1.5])
    def test_float_outside_finite_positive_rejected(self, field, value):
        args = dict(sfc_count=3, mean_lifetime_s=600.0, chain_len=2, qos_ms=50.0)
        args[field] = value
        with pytest.raises(InvalidParams, match=f"^{field} must be finite and > 0$"):
            generate_poisson_workload(self.horizon_topo(), self.catalog(), **args)

    # mean_lifetime_s overflowed in 1.0 / mean_lifetime_s; qos_ms was accepted.
    @pytest.mark.parametrize("field", ["mean_lifetime_s", "qos_ms"])
    @pytest.mark.parametrize("value", [10**400, F(10**400)], ids=["int", "Fraction"])
    def test_float_beyond_float_range_rejected(self, field, value):
        args = dict(sfc_count=3, mean_lifetime_s=600.0, chain_len=2, qos_ms=50.0)
        args[field] = value
        with pytest.raises(InvalidParams, match=f"^{field} must be finite and > 0$"):
            generate_poisson_workload(self.horizon_topo(), self.catalog(), **args)

    @pytest.mark.parametrize("field, value", [("sfc_count", 2.5), ("sfc_count", 3.0),
                                              ("sfc_count", True), ("chain_len", 2.0),
                                              ("chain_len", False), ("chain_len", "2"),
                                              ("seed", 1.5), ("seed", True), ("seed", None)])
    def test_non_int_count_rejected(self, field, value):
        args = dict(sfc_count=3, mean_lifetime_s=600.0, chain_len=2, qos_ms=50.0)
        args[field] = value
        with pytest.raises(InvalidParams,
                           match="^" + re.escape(f"{field} must be an int, got {value!r}") + "$"):
            generate_poisson_workload(self.horizon_topo(), self.catalog(), **args)

    @pytest.mark.parametrize("field", ["mean_lifetime_s", "qos_ms"])
    @pytest.mark.parametrize("value", ["600", None, True, 600j])
    def test_non_number_float_rejected(self, field, value):
        args = dict(sfc_count=3, mean_lifetime_s=600.0, chain_len=2, qos_ms=50.0)
        args[field] = value
        message = f"{field} must be a number, got {value!r}"
        with pytest.raises(InvalidParams, match="^" + re.escape(message) + "$"):
            generate_poisson_workload(self.horizon_topo(), self.catalog(), **args)

    def test_exact_and_int_quantities_are_numbers(self):
        args = dict(sfc_count=3, mean_lifetime_s=F(600), chain_len=2, qos_ms=50)
        assert len(generate_poisson_workload(self.horizon_topo(), self.catalog(), **args)) == 3
        assert desk_params(altitude_km=590, sat_cpu=3).sat_cpu == 3

    def test_same_seed_identical(self):
        args = dict(sfc_count=40, mean_lifetime_s=600, chain_len=3, qos_ms=50, seed=3)
        a = generate_poisson_workload(self.horizon_topo(), self.catalog(), **args)
        b = generate_poisson_workload(self.horizon_topo(), self.catalog(), **args)
        assert a == b

    def test_empirical_mean_lifetime(self):
        reqs = generate_poisson_workload(self.horizon_topo(), self.catalog(),
                                         sfc_count=200, mean_lifetime_s=600,
                                         chain_len=3, qos_ms=50, seed=11)
        assert len(reqs) == 200
        mean = sum(r.end_time - r.start_time for r in reqs) / len(reqs)
        assert abs(mean - 600) <= 0.15 * 600

    def test_generated_workload_validates(self):
        topo, cat = self.horizon_topo(), self.catalog()
        reqs = generate_poisson_workload(topo, cat, sfc_count=60, mean_lifetime_s=900,
                                         chain_len=2, qos_ms=50, seed=4)
        assert validate_workload(reqs, cat, topo).ok

    def test_chain_pairs_always_have_demands(self):
        cat = self.catalog()  # pairs (0,1) and (1,2) only; (0,2) undefined
        reqs = generate_poisson_workload(self.horizon_topo(), cat, sfc_count=80,
                                         mean_lifetime_s=600, chain_len=4,
                                         qos_ms=50, seed=9)
        for r in reqs:
            for a, b in zip(r.vnf_chain, r.vnf_chain[1:]):
                assert cat.band_demand(a, b) is not None

    def test_single_vnf_chains_use_templates_without_partners(self):
        cat = make_catalog([(0, 0.2, 64), (1, 0.2, 64), (2, 0.2, 64)], [(0, 1, 20)])
        reqs = generate_poisson_workload(self.horizon_topo(), cat, sfc_count=40,
                                         mean_lifetime_s=600, chain_len=1, qos_ms=50, seed=2)
        assert {r.vnf_chain for r in reqs} == {(0,), (1,), (2,)}

    def test_empty_catalog_rejected(self):
        with pytest.raises(InvalidParams) as err:
            generate_poisson_workload(self.horizon_topo(), VnfCatalog([]), sfc_count=5,
                                      mean_lifetime_s=600, chain_len=1, qos_ms=50)
        assert str(err.value) == "catalog has no templates"

    def test_single_instant_topology_rejected(self):
        snap = make_snapshot(2, [(0, 1)])
        topo = make_topo({0.0: snap})
        with pytest.raises(InvalidParams, match="horizon"):
            generate_poisson_workload(topo, self.catalog(), sfc_count=5,
                                      mean_lifetime_s=600, chain_len=1, qos_ms=50)


class TestLoadScenario:
    def test_bundled_example_a(self):
        sc = load_scenario(SCENARIO_DIR / "example_a.json")
        assert sc.topo.node_count == 3
        snap = sc.topo.snapshots[0.0]
        assert snap.node_cpu_capacity == (F(2), F(4), F(2))
        assert snap.node_ram_capacity == (F(256), F(512), F(256))
        assert [r.sfc_id for r in sc.requests] == [0, 1]
        assert (sc.requests[0].start_time, sc.requests[0].end_time) == (5.0, 25.0)
        assert (sc.requests[1].start_time, sc.requests[1].end_time) == (10.0, 50.0)
        assert sc.solver_name == "greedy"
        assert sc.catalog.templates[0].cpu_demand == F("0.2")

    def test_a_written_scene_shares_one_object_per_quantity(self, tmp_path):
        def quantities(topo):
            """Every snapshot's bands, then every snapshot's capacity entries."""
            snaps = topo.snapshots.values()
            return ([band for s in snaps for row in s.links for _, band in row.values()],
                    [x for s in snaps for x in (*s.node_cpu_capacity, *s.node_ram_capacity)])
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        generated = scenario_from_json(doc).topo
        doc["substrate"] = topology_to_json(generated)
        path = tmp_path / "written.json"
        path.write_text(json.dumps(doc))
        for values, expected in zip(quantities(load_scenario(path).topo), quantities(generated)):
            assert values == expected and len(set(values)) > 1
            assert len(set(map(id, values))) == len(set(values))

    def test_inverted_lifecycle_names_sfc(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["workload"]["sfcs"][1]["end"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="sfc 1.*BadLifecycle"):
            load_scenario(path)

    @pytest.mark.parametrize("field, value, problem", [
        ("start", float("nan"), "sfc 0.*BadLifecycle"),
        ("end", float("inf"), "sfc 0.*BadLifecycle"),
        ("qos_latency_ms", float("nan"), "sfc 0.*BadQos"),
        ("time_points", float("nan"), "substrate: time_points must be finite"),
        # A float field takes a JSON int or float within float range, nothing else.
        *[pytest.param(field, value, "^" + re.escape(f"{where}: {problem}"), id=f"{field}-{label}")
          for field, where in (("time_points", "substrate: time_points[0]"),
                               ("start", "workload.sfcs: sfcs[0].start"),
                               ("end", "workload.sfcs: sfcs[0].end"),
                               ("qos_latency_ms", "workload.sfcs: sfcs[0].qos_latency_ms"))
          for value, label, problem in ((True, "True", "expected a number, got True"),
                                        ("5", "'5'", "expected a number, got '5'"),
                                        (10**400, "10**400", "int too large to convert to float"))],
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, field, value, problem):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        if field == "time_points":
            doc["substrate"]["time_points"][0] = value
        else:
            doc["workload"]["sfcs"][0][field] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(doc))  # written as the NaN / Infinity literals
        with pytest.raises(ValidationError, match=problem):
            load_scenario(path)

    def test_unknown_solver(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["solver"] = "pso"
        path = tmp_path / "pso.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="UnknownSolver"):
            load_scenario(path)

    @pytest.mark.parametrize("value", [["greedy"], {"name": "greedy"}, 1, None])
    def test_non_string_solver_rejected(self, value):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["solver"] = value
        with pytest.raises(ValidationError, match="^solver: "):
            scenario_from_json(doc)

    @pytest.mark.parametrize("value", [1.9, True, False, float("inf"), float("nan"),
                                       "1.5", [3]])
    def test_bad_seed_rejected(self, value):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["seed"] = value
        with pytest.raises(ValidationError, match="^seed: "):
            scenario_from_json(doc)

    @pytest.mark.parametrize("value", [3, 3.0, "3"])
    def test_integral_seed_accepted(self, value):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["seed"] = value
        assert scenario_from_json(doc).seed == 3

    @pytest.mark.parametrize("section, field, value", [
        ("poisson", "sfc_count", 7.9),
        ("poisson", "sfc_count", True),
        ("poisson", "chain_len", 2.5),
        ("poisson", "chain_len", False),
        ("poisson", "seed", 1.5),
        ("poisson", "seed", math.nan),
        ("poisson", "seed", math.inf),
        ("sagin", "orbit_count", True),
        ("sagin", "orbit_count", 2.5),
        ("sagin", "sats_per_orbit", math.inf),
        ("sagin", "uav_count", False),
        ("sagin", "seed", math.nan),
        ("sagin", "uav_waypoints", 4.5),
    ])
    def test_non_integral_generator_count_rejected(self, section, field, value):
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        parent = "workload" if section == "poisson" else "substrate"
        doc[parent]["generator"][section][field] = value
        with pytest.raises(ValidationError,
                           match=rf"^{parent}\.generator\.{section}\.{field}: expected an integer"):
            scenario_from_json(doc)

    @pytest.mark.parametrize("field", ["mean_lifetime_s", "qos_ms"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0])
    def test_poisson_float_outside_finite_positive_is_located(self, tmp_path, field, value):
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        doc["workload"]["generator"]["poisson"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # written as the NaN / Infinity literals
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"workload.generator.poisson: {field} must be finite and > 0") + "$"):
            load_scenario(path)

    @pytest.mark.parametrize("value", [3, 3.0, "3"])
    def test_integral_generator_counts_accepted(self, value):
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        doc["substrate"]["generator"]["sagin"]["orbit_count"] = value
        doc["workload"]["generator"]["poisson"]["sfc_count"] = value
        sc = scenario_from_json(doc)
        assert sc.topo.node_count == 3 * 4 + 2 + 2
        assert len(sc.requests) == 3

    @pytest.mark.parametrize("path, value", [
        (("workload", "sfcs", 0, "id"), 1.9),
        (("workload", "sfcs", 1, "id"), math.inf),
        (("workload", "sfcs", 0, "ingress"), True),
        (("workload", "sfcs", 0, "egress"), 2.7),
        (("workload", "sfcs", 1, "chain", 1), 1.5),
        (("workload", "sfcs", 0, "chain", 0), False),
        (("catalog", "templates", 2, "id"), 2.9),
        (("catalog", "templates", 0, "id"), math.nan),
        (("catalog", "links", 0, "a"), 0.5),
        (("catalog", "links", 1, "b"), True),
    ], ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else repr(v))
    def test_non_integral_workload_and_catalog_field_rejected(self, path, value):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
        # e.g. "workload.sfcs: sfcs[1].chain[1]: expected an integer, got 1.5"
        section = "workload.sfcs" if path[0] == "workload" else "catalog"
        where = path[1] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                  for k in path[2:])
        with pytest.raises(ValidationError, match=re.escape(
                f"{section}: {where}: expected an integer, got {value!r}")):
            scenario_from_json(doc)

    @pytest.mark.parametrize("entry, key", [("templates", "cpu"), ("templates", "ram_mb"),
                                            ("links", "band_mbps")])
    @pytest.mark.parametrize("value", ["1/0", "abc", True])
    def test_malformed_catalog_quantity_names_its_entry(self, entry, key, value):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["catalog"][entry][1][key] = value
        with pytest.raises(ValidationError, match="^" + re.escape(f"catalog: {entry}[1].{key}: ")):
            scenario_from_json(doc)

    @pytest.mark.parametrize("value", [1, 1.0, "1"], ids=repr)
    def test_integral_workload_and_catalog_fields_accepted(self, value):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        sfc = doc["workload"]["sfcs"][1]
        sfc["id"] = sfc["chain"][1] = value
        doc["catalog"]["templates"][1]["id"] = doc["catalog"]["links"][0]["b"] = value
        sc = scenario_from_json(doc)
        assert sc.requests[1].sfc_id == 1 and sc.requests[1].vnf_chain == (0, 1, 2)
        assert sorted(sc.catalog.templates) == [0, 1, 2]
        assert sc.catalog.band_demand(0, 1) is not None

    @pytest.mark.parametrize("matrix, value", [
        ("adjacency", "false"), ("adjacency", "true"), ("adjacency", 2),
        ("adjacency", -1), ("adjacency", 1.0), ("adjacency", None),
        ("latency_ms", True), ("latency_ms", False), ("latency_ms", "1.5"),
        ("latency_ms", None), ("latency_ms", [1]),
        ("link_band_mbps", True), ("link_band_mbps", None), ("link_band_mbps", [1]),
        ("link_band_mbps", "abc"), ("link_band_mbps", math.nan), ("link_band_mbps", -math.inf),
    ], ids=repr)
    def test_non_strict_matrix_cell_rejected(self, matrix, value):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        rows = doc["substrate"]["snapshots"][0][matrix]
        rows[0][2] = rows[2][0] = value  # (0,2) is not an edge of example_a
        problem = {"adjacency": f"expected a boolean or 0/1, got {value!r}",
                   "latency_ms": f"expected a number, got {value!r}"}.get(matrix)
        if problem is None:  # off the edges, a band cell is still read as a quantity
            problem = ("expected a number, got a bool" if value is True
                       else f"non-finite resource value: {value!r}" if isinstance(value, float)
                       else f"Invalid literal for Fraction: {value!r}" if isinstance(value, str)
                       else f"cannot interpret {value!r} as a resource quantity")
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"substrate: snapshots[0].{matrix}[0][2]: {problem}") + "$"):
            scenario_from_json(doc)

    @pytest.mark.parametrize("value", [0, 3, 1e300, "2.5", "7/3"], ids=repr)
    def test_off_edge_band_cells_of_any_quantity_kind_load(self, value):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        before = scenario_from_json(doc).topo.snapshots[0.0]
        rows = doc["substrate"]["snapshots"][0]["link_band_mbps"]
        rows[0][2] = rows[2][0] = value
        snap = scenario_from_json(doc).topo.snapshots[0.0]
        assert snap == before and not snap.has_edge(0, 2)
        assert {type(snap.edge_band(u, v)) for u, v in snap.edges()} == {Fraction}

    def test_integer_flags_and_latencies_accepted(self):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        raw = doc["substrate"]["snapshots"][0]
        raw["adjacency"] = [[int(x) for x in row] for row in raw["adjacency"]]
        raw["latency_ms"] = [[int(x) for x in row] for row in raw["latency_ms"]]
        snap = scenario_from_json(doc).topo.snapshots[0.0]
        assert list(snap.edges()) == [(0, 1), (1, 2)]
        assert snap.edge_latency(1, 2) == 1.0 and not snap.has_edge(0, 2)

    @pytest.mark.parametrize("snapshot", [0, 2])
    def test_snapshot_fault_names_its_snapshot(self, snapshot):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        sub = doc["substrate"]
        sub["time_points"] = [0, 10, 20]
        sub["snapshots"] = [json.loads(json.dumps(sub["snapshots"][0])) for _ in range(3)]
        sub["snapshots"][snapshot]["adjacency"][1][0] = False
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"substrate: snapshots[{snapshot}]: adjacency not symmetric at (0,1)") + "$"):
            scenario_from_json(doc)

    # Every value kind a reader can be handed by mistake, a number beyond
    # float range, and two quantities the magnitude rule refuses.
    MALFORMED = MALFORMED

    @staticmethod
    def document_nodes(node, path=()):
        """(path, value) of every node of a JSON document, the root first."""
        yield path, node
        children = (node.items() if isinstance(node, dict)
                    else enumerate(node) if isinstance(node, list) else ())
        for key, child in children:
            yield from TestLoadScenario.document_nodes(child, path + (key,))

    @pytest.mark.parametrize("name", ["example_a", "sagin_desk"])
    def test_malformed_value_anywhere_is_a_located_validation_error(self, name):
        doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        nodes = list(self.document_nodes(doc))
        assert len(nodes) == {"example_a": 102, "sagin_desk": 67}[name]
        sections = {"scenario", "seed", "catalog", "substrate", "workload", "solver"}
        faults = []
        for path, original in nodes:
            for value in self.MALFORMED:
                mutated = copy.deepcopy(doc)
                if path:
                    node = mutated
                    for key in path[:-1]:
                        node = node[key]
                    node[path[-1]] = value
                else:
                    mutated = value
                try:
                    scenario_from_json(mutated)
                except ValidationError as exc:
                    if re.split("[.:]", str(exc))[0] not in sections:
                        faults.append(f"{path} = {value!r:.20}: unlocated: {exc}")
                except Exception as exc:
                    faults.append(f"{path} = {value!r:.20}: {type(exc).__name__}: {exc}")
                else:  # an array or an object is never read from another kind
                    if type(original) in (list, dict) and type(value) is not type(original):
                        faults.append(f"{path} = {value!r:.20}: loaded")
        assert not faults, "\n".join(faults)

    @pytest.mark.parametrize("name", ["example_a", "sagin_desk"])
    def test_missing_key_anywhere_is_a_located_validation_error(self, name):
        # a key of an array's record names the record; any other may have a default
        doc = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
        sections = {"scenario", "seed", "catalog", "substrate", "workload", "solver"}
        faults, records = [], set()
        for path, node in self.document_nodes(doc):
            if type(node) is not dict:
                continue
            record = f"{path[-2]}[{path[-1]}]" if path and type(path[-1]) is int else None
            records.add(path[-2] if record else None)
            for key in node:
                mutated = copy.deepcopy(doc)
                parent = mutated
                for step in path:
                    parent = parent[step]
                del parent[key]
                try:
                    scenario_from_json(mutated)
                except ValidationError as exc:
                    if record and f"{record}: missing fields [{key!r}]" not in str(exc):
                        faults.append(f"{path} - {key!r}: does not name {record}: {exc}")
                    elif re.split("[.:]", str(exc))[0] not in sections:
                        faults.append(f"{path} - {key!r}: unlocated: {exc}")
                except Exception as exc:
                    faults.append(f"{path} - {key!r}: {type(exc).__name__}: {exc}")
                else:
                    if record:
                        faults.append(f"{path} - {key!r}: loaded")
        assert records == {None, "templates", "links"} | (
            {"snapshots", "sfcs"} if name == "example_a" else set())
        assert not faults, "\n".join(faults)

    @pytest.mark.parametrize("text", [b"[" + b"1" * 5000 + b"]", b"\xff",
                                      b"[" * 100_000 + b"]" * 100_000],
                             ids=["integer-literal-too-long", "not-utf-8", "nested-too-deep"])
    def test_undecodable_json_is_a_parse_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        with pytest.raises(ParseError, match="invalid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="missing.json"):
            load_scenario(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_scenario(path)

    @pytest.mark.parametrize("section, field, value", [
        *[("sagin", field, 10**400) for field in ("orbit_count", "sats_per_orbit", "uav_count",
                                                  "ground_count", "uav_waypoints")],
        ("sagin", "duration_s", 1e308),
        ("poisson", "sfc_count", 10**400),
        ("poisson", "chain_len", 10**400),
    ])
    def test_oversized_generator_is_rejected_at_once(self, section, field, value):
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        parent = "workload" if section == "poisson" else "substrate"
        doc[parent]["generator"][section][field] = value
        start = time.perf_counter()
        with pytest.raises(ValidationError,
                           match=rf"^{parent}\.generator\.{section}: .* above {MAX_GENERATED}$"):
            scenario_from_json(doc)
        assert time.perf_counter() - start < 1.0

    def test_generator_scenario_materializes(self):
        sc = load_scenario(SCENARIO_DIR / "sagin_desk.json")
        assert sc.topo.node_count == 12
        assert len(sc.topo.time_points) == 13
        assert len(sc.requests) == 50
        assert sc.workload_generator is not None

    def test_regenerate_workload_respects_overrides(self):
        sc = load_scenario(SCENARIO_DIR / "sagin_desk.json")
        bigger = sc.regenerate_workload(sfc_count=120, seed=5)
        assert len(bigger) == 120
        again = sc.regenerate_workload(sfc_count=120, seed=5)
        assert bigger == again
        assert sc.regenerate_workload(sfc_count=50) == sc.requests

    def test_inline_workload_cannot_regenerate(self):
        sc = load_scenario(SCENARIO_DIR / "example_a.json")
        with pytest.raises(ValidationError, match="inline"):
            sc.regenerate_workload(sfc_count=10)
