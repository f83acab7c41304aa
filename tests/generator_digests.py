"""The SAGIN generator's snapshots match pinned digests on every Python version.

Each digest is the SHA-256 of ``json.dumps(topology_to_json(generate_sagin(...)))``
for ``desk_params`` with one set of overrides.  They were recorded from the
generator's earlier loop-per-pair form (the geometry cases below from its
all-satellite scans), so a change made only for speed must reproduce every
snapshot bit for bit.  ``tests/test_scenario.py`` runs them
under pytest; this module needs no pytest: ``python tests/generator_digests.py``
(with ``src`` on ``PYTHONPATH``) runs the same checks on an interpreter that
lacks it.
"""

import hashlib
import json
from fractions import Fraction

from sfcsim.scenario import SaginParams, generate_sagin
from sfcsim.topology import SubstrateSnapshot, topology_to_json


def desk_params(**overrides):
    base = dict(orbit_count=2, sats_per_orbit=4, altitude_km=590.0,
                uav_count=2, ground_count=2,
                sat_cpu=Fraction(3), uav_cpu=Fraction("0.3"), ground_cpu=Fraction(20),
                node_ram_mb=Fraction(512000), isl_band_mbps=Fraction(500),
                sg_band_mbps=Fraction(200),
                duration_s=7200.0, snapshot_interval_s=600.0,
                elevation_min_deg=10.0, seed=7)
    base.update(overrides)
    return SaginParams(**base)


PINNED = {
    "desk": ({}, "387e84ccb6d5881e2648c07b997331a18f903405d37c45ee35ac06aeff5bb361"),
    # one plane: no cross-plane links
    "one_orbit": (dict(orbit_count=1, sats_per_orbit=5),
                  "9e086e256d6adf2b2df6d3e5d500dc1c7d46cf6bebf95f3816e091b7af6ef181"),
    # rings of one and two satellites are the ring's special cases
    "ring_of_one": (dict(orbit_count=3, sats_per_orbit=1),
                    "b97f47b3b59e8d046e7882e4ec92ab2b355b075c64c3c607bd10cda8ef720654"),
    "ring_of_two": (dict(orbit_count=3, sats_per_orbit=2),
                    "8a12aef91f5b7ee364c3446d072bc2fdee50af154953cb8b0409c0ff54b373d1"),
    "no_uav": (dict(uav_count=0, seed=3),
               "728a0b8a4455ff072cd24649bfdb13756b4c43c2ea9c4c86ec9d32c84a243b2a"),
    "no_ground": (dict(ground_count=0, seed=5),
                  "be2b51145555cc785a6c2a14a9d6c7e5af66445f085b52932a2a866153052d26"),
    "horizon_mask": (dict(elevation_min_deg=0.0, orbit_count=3, sats_per_orbit=6),
                     "bf2708fd6a3b55675e3b4782accea6d63e4ec473b6f99e26c07c5a3ccfeeae91"),
    "shell_8x20": (dict(orbit_count=8, sats_per_orbit=20, uav_count=5, ground_count=3,
                        duration_s=1200.0, seed=11),
                   "9acff68d0c39946e6cef20a4c90bd9fa1459fb5319fbbaa165bd5bff96f0bf8f"),
    "full_4x10": (dict(orbit_count=4, sats_per_orbit=10, uav_count=5, ground_count=3,
                       duration_s=36000.0, elevation_min_deg=5.0, seed=123),
                  "969f1b6ec6fb47b14c05ef94495701b8c5c87a60bbb58c4962a3a762355b068d"),
    # Geometry at the per-plane lookups' fallbacks and edges, recorded from
    # the all-satellite scans.  Polar planes 90 degrees apart are
    # perpendicular (and those 180 apart coplanar); every equatorial plane is
    # the same plane; three-satellite rings take the full scan.
    "polar_perpendicular": (dict(inclination_deg=90.0, orbit_count=4, sats_per_orbit=6),
                            "4e3c43ca112c7db6d6422aa9b3b7eefc903d00be03420babc5836c2402d8e1ae"),
    "equatorial_coplanar": (dict(inclination_deg=0.0, orbit_count=3, sats_per_orbit=5),
                            "eddc30fb90d3fbd28f5afa7beb751008207d41d7d6aa73964d63466ca8a745d9"),
    "ring_of_three": (dict(orbit_count=3, sats_per_orbit=3),
                      "a66c9f1d21fcdc0038b3a0e9dd397b27cc9f06c1f327e51e7828d2e974a01cec"),
    "retrograde": (dict(inclination_deg=-127.0, orbit_count=5, sats_per_orbit=7, seed=2),
                   "1646a4846fd9a85bac76611731e11271dd3b3ce7ec05dc59369539b876cb5fe6"),
    # UAVs above the shell, half a metre below it (both scan every
    # satellite) and 10 km below it (the arc lookup); a mask near the
    # zenith; a shell so far out that a node sees whole planes.
    "uav_above_shell": (dict(uav_altitude_km=30000.0, uav_count=4, orbit_count=3,
                             sats_per_orbit=6, air_range_km=40000.0),
                        "e51606eeb83c88629c8f0cf1386adaa9ba53ffc35ebb245823de1a5bd519d348"),
    "uav_near_shell": (dict(uav_altitude_km=589.9995, uav_count=4, orbit_count=3,
                            sats_per_orbit=6),
                       "a09c8cdac7fa6aa3a65bf43fafa198831f12bcd511340963ab8ddab5b2390050"),
    "uav_below_shell": (dict(uav_altitude_km=580.0, uav_count=4, orbit_count=3,
                             sats_per_orbit=6),
                        "58ed137046129e04839dfa3c8c2e8a0b629674c8009f492554d420463016e69d"),
    "steep_mask": (dict(elevation_min_deg=89.9, orbit_count=4, sats_per_orbit=10,
                        ground_count=6, duration_s=36000.0),
                   "88294506c96f033ff0b85c4b59e0c05b83915ae156b5b4cfbb8ad0619de8de9c"),
    "far_shell": (dict(altitude_km=1e10, elevation_min_deg=0.0, orbit_count=3,
                       sats_per_orbit=5),
                  "f88f373bad20deb6f9d511d25f7d9ec3647d5abc2f5be4b0dc588f09a3d5cff3"),
    # A far shell seen from within a few kilometres of one plane's pole
    # (seed 15127 anchors the region there), and times so late that the
    # orbit angle's rounding is no longer far below a slot.
    "node_at_a_pole": (dict(inclination_deg=90.0, orbit_count=4, sats_per_orbit=6,
                            altitude_km=1e10, elevation_min_deg=0.0,
                            region_radius_km=5.0, seed=15127),
                       "8110857a31bef135c38c494882bee9985d110fd5c997f761b208211bb6761938"),
    "far_future": (dict(duration_s=1e13, snapshot_interval_s=2.5e12, orbit_count=3,
                        sats_per_orbit=6),
                   "da11e0d5342311576c1fee42e2d1e9c121d7501655ed3d9d5bd440b1652a1d11"),
    # The cross-plane search's plane skip, recorded from the search that
    # brackets every other plane: a shell of many planes, where most are
    # skipped, and one whose nearest neighbours are often so far apart
    # (best² ≥ 2a²) that the bound says nothing.
    "shell_12x20": (dict(orbit_count=12, sats_per_orbit=20, duration_s=1200.0),
                    "c2bb76967072472d2a9083cd54613b8730cada2f7a98615f8597e8720374ea6d"),
    "far_planes_5x1": (dict(orbit_count=5, sats_per_orbit=1, altitude_km=20200.0),
                       "20dd69cf68c7f15f4b4f6a00a5bba76dc7c9020d8a6285ae78ec3372249bd078"),
}


def check(name, generate=generate_sagin):
    overrides, digest = PINNED[name]
    doc = topology_to_json(generate(desk_params(**overrides)))
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest, name


def check_rows(name):
    """Each generated snapshot is the one its rows give the row constructor,
    which checks them again: the same rows in the same key order, one tuple
    under both ends of each edge."""
    topo = generate_sagin(desk_params(**PINNED[name][0]))
    for t, snap in topo.snapshots.items():
        again = SubstrateSnapshot(snap.node_count, [dict(row) for row in snap.links],
                                  snap.node_cpu_capacity, snap.node_ram_capacity)
        keys = [list(row) for row in snap.links]
        assert again == snap and keys == [sorted(row) for row in snap.links], (name, t)
        assert [list(row) for row in again.links] == keys, (name, t)
        for u, v in snap.edges():
            assert snap.links[u][v] is snap.links[v][u] is again.links[u][v] \
                is again.links[v][u], (name, t, u, v)


if __name__ == "__main__":
    for name in sorted(PINNED):
        check(name)
        check_rows(name)
        print(f"{name}: ok")
