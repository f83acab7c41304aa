"""The SAGIN generator's snapshots match pinned digests on every Python version.

Each digest is the SHA-256 of ``json.dumps(topology_to_json(generate_sagin(...)))``
for ``desk_params`` with one set of overrides.  They were recorded from the
generator's earlier loop-per-pair form, so a change made only for speed must
reproduce every snapshot bit for bit.  ``tests/test_scenario.py`` runs them
under pytest; this module needs no pytest: ``python tests/generator_digests.py``
(with ``src`` on ``PYTHONPATH``) runs the same checks on an interpreter that
lacks it.
"""

import hashlib
import json
from fractions import Fraction

from sfcsim.scenario import SaginParams, generate_sagin
from sfcsim.topology import topology_to_json


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
}


def check(name):
    overrides, digest = PINNED[name]
    doc = topology_to_json(generate_sagin(desk_params(**overrides)))
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest, name


if __name__ == "__main__":
    for name in sorted(PINNED):
        check(name)
        print(f"{name}: ok")
