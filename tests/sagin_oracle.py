"""The SAGIN generator's all-satellite scans, kept as a reference.

``reference_sagin`` is ``scenario.generate_sagin`` as it was before its
per-plane lookups: every satellite of every other plane is a candidate
cross-plane neighbour, and every (surface node, satellite) pair runs the
elevation mask.  The scans are the subject here; the small helpers both share
(``_latlon_to_cart``, ``_above_mask``, ``_line_of_sight``) are pinned by the
generator digests and their own tests.  ``generate_sagin`` must produce the
same topology bit for bit on every draw of ``draw_params``, which puts each
draw in one regime of ``REGIMES``.

``tests/test_scenario.py`` drives it with hypothesis.  This module needs no
pytest: ``python tests/sagin_oracle.py [draws]`` (with ``src`` on
``PYTHONPATH``) checks the reference against the pinned digests, then the
generator against the reference on ``draws`` seeded draws (default 200), and
fails when a regime gets none of them.
"""

import json
import math
import random
import sys
from fractions import Fraction

from generator_digests import PINNED, check, desk_params
from sfcsim.scenario import (EARTH_MU_KM3_S2, LIGHT_KM_PER_MS, SaginParams, _above_mask,
                             _latlon_to_cart, _line_of_sight, generate_sagin)
from sfcsim.topology import SubstrateSnapshot, SubstrateTopology, topology_to_json


def reference_sagin(params: SaginParams) -> SubstrateTopology:
    """``generate_sagin`` with both all-satellite scans."""
    p = params
    rng = random.Random(p.seed)
    sat_n = p.orbit_count * p.sats_per_orbit
    n = p.node_count

    track_orbit = rng.randrange(p.orbit_count)
    track_phase = rng.uniform(0.0, 2 * math.pi)
    raan = 2 * math.pi * track_orbit / p.orbit_count
    incl = math.radians(p.inclination_deg)
    ux, uy = math.cos(track_phase), math.sin(track_phase)
    uy, uz = uy * math.cos(incl), uy * math.sin(incl)
    ux, uy = ux * math.cos(raan) - uy * math.sin(raan), ux * math.sin(raan) + uy * math.cos(raan)
    center_lat = math.degrees(math.asin(max(-1.0, min(1.0, uz))))
    center_lon = math.degrees(math.atan2(uy, ux))

    def region_point():
        r = p.region_radius_km * math.sqrt(rng.random())
        ang = rng.uniform(0, 2 * math.pi)
        dlat = (r * math.cos(ang)) / 111.0
        dlon = (r * math.sin(ang)) / (111.0 * max(0.1, math.cos(math.radians(center_lat))))
        return center_lat + dlat, center_lon + dlon

    ground_sites = [region_point() for _ in range(p.ground_count)]
    uav_loops = [[region_point() for _ in range(p.uav_waypoints)]
                 for _ in range(p.uav_count)]

    def uav_position(uav: int, t: float):
        loop = uav_loops[uav]
        k = len(loop)
        u = (t % p.uav_loop_period_s) / p.uav_loop_period_s * k
        i = int(u) % k
        f = u - int(u)
        (la1, lo1), (la2, lo2) = loop[i], loop[(i + 1) % k]
        lat = la1 + (la2 - la1) * f
        lon = lo1 + (lo2 - lo1) * f
        return _latlon_to_cart(lat, lon, p.earth_radius_km + p.uav_altitude_km)

    m = p.sats_per_orbit
    a = p.earth_radius_km + p.altitude_km
    omega = math.sqrt(EARTH_MU_KM3_S2 / a ** 3)
    cos_incl, sin_incl = math.cos(incl), math.sin(incl)
    sat_phases = []
    for orbit in range(p.orbit_count):
        plane_raan = 2 * math.pi * orbit / p.orbit_count
        cos_raan, sin_raan = math.cos(plane_raan), math.sin(plane_raan)
        plane_phase = 2 * math.pi * orbit / (p.orbit_count * m)
        sat_phases += [(2 * math.pi * slot / m + plane_phase, cos_raan, sin_raan)
                       for slot in range(m)]

    def sat_positions(t: float):
        wt = omega * t
        pos = []
        for phase, cos_raan, sin_raan in sat_phases:
            theta = phase + wt
            x, y = a * math.cos(theta), a * math.sin(theta)
            y, z = y * cos_incl, y * sin_incl
            pos.append((x * cos_raan - y * sin_raan, x * sin_raan + y * cos_raan, z))
        return pos

    cpu = tuple([p.sat_cpu] * sat_n + [p.uav_cpu] * p.uav_count
                + [p.ground_cpu] * p.ground_count)
    ram = tuple([p.node_ram_mb] * n)
    sin_min = math.sin(math.radians(p.elevation_min_deg))
    other_planes = [[v for v in range(sat_n) if v // m != orbit]
                    for orbit in range(p.orbit_count)]

    def snapshot_at(t: float) -> SubstrateSnapshot:
        pos = sat_positions(t)
        pos += [uav_position(u, t) for u in range(p.uav_count)]
        pos += [_latlon_to_cart(la, lo, p.earth_radius_km) for la, lo in ground_sites]

        links = [{} for _ in range(n)]

        def add_edge(u: int, v: int, band_mbps: Fraction):
            d = math.dist(pos[u], pos[v])
            if u == v or d <= 0:
                return
            links[u][v] = links[v][u] = (d / LIGHT_KM_PER_MS, band_mbps)

        for orbit in range(p.orbit_count):
            base = orbit * m
            if m >= 2:
                for j in range(m if m > 2 else 1):
                    add_edge(base + j, base + (j + 1) % m, p.isl_band_mbps)

        # Every satellite of every other plane; list.index takes the first
        # of equal minima.
        if p.orbit_count >= 2:
            for orbit, cand in enumerate(other_planes):
                cand_pos = [pos[v] for v in cand]
                for u in range(orbit * m, (orbit + 1) * m):
                    ds = [math.dist(pos[u], q) for q in cand_pos]
                    nearest = cand[ds.index(min(ds))]
                    if _line_of_sight(pos[u], pos[nearest], p.earth_radius_km):
                        add_edge(u, nearest, p.isl_band_mbps)

        # Every (surface node, satellite) pair.
        sat_pos = pos[:sat_n]
        for g in range(sat_n, n):
            gx, gy, gz = pos[g]
            gr = math.sqrt(gx * gx + gy * gy + gz * gz)
            for s, (sx, sy, sz) in enumerate(sat_pos):
                dx, dy, dz = sx - gx, sy - gy, sz - gz
                sin_el = ((dx * gx + dy * gy + dz * gz)
                          / (math.sqrt(dx * dx + dy * dy + dz * dz) * gr))
                if _above_mask(sin_el, sin_min, p.elevation_min_deg):
                    add_edge(g, s, p.sg_band_mbps)

        for u in range(sat_n, sat_n + p.uav_count):
            for v in range(u + 1, n):
                if math.dist(pos[u], pos[v]) <= p.air_range_km:
                    add_edge(u, v, p.sg_band_mbps)

        return SubstrateSnapshot(n, links, cpu, ram)

    times = tuple(float(k * p.snapshot_interval_s) for k in range(p.snapshot_count))
    return SubstrateTopology(time_points=times,
                             snapshots={t: snapshot_at(t) for t in times})


# Overrides, from the drawn shell altitude and further ``pick``s, that put a
# draw where a lookup falls back to scanning, sits at its edge (coplanar
# planes, the smallest ring that is bracketed) or skips whole planes; "free"
# keeps the plain draw.
REGIMES = {
    "free": lambda alt, pick: {},
    # polar planes 90° apart are perpendicular (180° apart, coplanar)
    "perpendicular": lambda alt, pick: dict(inclination_deg=90.0, orbit_count=4),
    "coplanar": lambda alt, pick: dict(inclination_deg=0.0),
    "ring_of_1": lambda alt, pick: dict(sats_per_orbit=1),
    "ring_of_2": lambda alt, pick: dict(sats_per_orbit=2),
    "ring_of_3": lambda alt, pick: dict(sats_per_orbit=3),
    "ring_of_4": lambda alt, pick: dict(sats_per_orbit=4),
    "uav_above_shell": lambda alt, pick: dict(uav_count=3, uav_altitude_km=alt + 30000.0),
    "uav_at_shell": lambda alt, pick: dict(uav_count=3, uav_altitude_km=alt - 0.0005),
    "near_zenith_mask": lambda alt, pick: dict(elevation_min_deg=89.9),
    # a node sees whole planes of a far shell
    "far_shell": lambda alt, pick: dict(altitude_km=1e10, elevation_min_deg=0.0),
    # orbit angles so large that their rounding nears a slot
    "far_future": lambda alt, pick: dict(duration_s=1e13, snapshot_interval_s=2.5e12),
    # a low shell of many planes: most planes are skipped by the distance bound
    "many_planes": lambda alt, pick: dict(orbit_count=pick(range(10, 17)),
                                          sats_per_orbit=pick(range(1, 13)),
                                          altitude_km=pick([160.0, 590.0]),
                                          duration_s=1800.0),
    # one or two satellites per plane of a far shell: nearest neighbours are
    # often so far apart (best² ≥ 2a²) that the bound says nothing
    "far_planes": lambda alt, pick: dict(orbit_count=pick(range(3, 17)),
                                         sats_per_orbit=pick([1, 2]), altitude_km=20200.0),
    # The generator computes the UAV side once per loop phase
    # t % uav_loop_period_s.  Over the 7200 s run a loop of 1, 2 or 4
    # intervals repeats every phase, one of 7 or 8 repeats some, and one
    # 0.5 s short of whole intervals repeats none.
    "uav_phases": lambda alt, pick: dict(
        uav_count=pick([1, 3]), snapshot_interval_s=(step := pick([600.0, 900.0])),
        uav_loop_period_s=step * pick([1, 2, 4, 7, 8]) - pick([0.0, 0.0, 0.5])),
}


def draw_params(pick) -> tuple[str, SaginParams]:
    """A regime and parameters in it; ``pick(options)`` chooses one option."""
    alt = pick([160.0, 590.0, 1200.0, 20200.0])
    fields = dict(orbit_count=pick(range(1, 10)), sats_per_orbit=pick(range(1, 26)),
                  altitude_km=alt, inclination_deg=pick([-53.0, 30.0, 53.0, 97.6, 180.0]),
                  uav_count=pick([0, 1, 3]), ground_count=pick([0, 1, 3]),
                  uav_altitude_km=pick([2.0, alt - 10.0]),
                  elevation_min_deg=pick([0.0, 10.0, 40.0]),
                  region_radius_km=pick([1.0, 50.0, 3000.0]), seed=pick(range(100)))
    regime = pick(sorted(REGIMES))
    fields.update(REGIMES[regime](alt, pick))
    return regime, desk_params(**fields)


def same_topology(params: SaginParams) -> bool:
    """Whether the generator and the reference write the same JSON bytes."""
    return (json.dumps(topology_to_json(generate_sagin(params)))
            == json.dumps(topology_to_json(reference_sagin(params))))


if __name__ == "__main__":
    draws = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    for name in sorted(PINNED):
        check(name, reference_sagin)
    seen = dict.fromkeys(sorted(REGIMES), 0)
    for k in range(draws):
        regime, params = draw_params(random.Random(k).choice)
        assert same_topology(params), (k, params)
        seen[regime] += 1
    print(f"reference: {len(PINNED)} pinned digests ok; generator: {draws} draws match it;"
          f" draws per regime: {seen}")
    # The draws are seeded, so a regime that none of them reaches is never tested.
    if not all(seen.values()):
        sys.exit(f"no draw in regimes {[r for r, count in seen.items() if not count]}")
