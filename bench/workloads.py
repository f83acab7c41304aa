"""The benchmark's workloads: scenario documents built from two generator seeds.

Every workload is the bundled full-scale SAGIN scene with a few generator
parameters changed.  The base document is pinned here, not read from
``scenarios/``, so editing a bundled scenario does not move the benchmark's
inputs; ``tests/test_bench_harness.py`` flags such drift.

A benchmark run repeats one scene: by default the bundled seeds (sagin seed
7, scenario seed 99), whose CSV digests were recorded below.  Other seeds
can be given; the cost of a scene moves with its seeds (about 13 % on
full-greedy, and on churn-greedy one scene in seven has a ground link that
flaps at every snapshot and costs up to five times the run time), so only
runs of the same seeds are comparable.

Cells of the ROADMAP ladder left out: example_a and sagin_desk run in
milliseconds, so host noise would swamp them (tier-1 tests cover them), and
168 nodes x 800 SFCs takes about 31 s per run, too long for 22 runs per
workload in one benchmark check.
"""

import copy
from dataclasses import dataclass, field

DEFAULT_SAGIN_SEED = 7
DEFAULT_SCENARIO_SEED = 99

BASE_DOC = {
    "substrate": {"generator": {"sagin": {
        "orbit_count": 4, "sats_per_orbit": 10, "altitude_km": 590,
        "uav_count": 5, "ground_count": 3,
        "sat_cpu": 3.0, "uav_cpu": 0.3, "ground_cpu": 20.0, "node_ram_mb": 512000,
        "isl_band_mbps": 500, "sg_band_mbps": 200,
        "duration_s": 36000, "snapshot_interval_s": 600,
        "elevation_min_deg": 10.0, "seed": DEFAULT_SAGIN_SEED}}},
    "workload": {"generator": {"poisson": {
        "sfc_count": 200, "mean_lifetime_s": 3600, "chain_len": 3, "qos_ms": 100}}},
    "catalog": {
        "templates": [{"id": 0, "cpu": 0.5, "ram_mb": 800},
                      {"id": 1, "cpu": 0.8, "ram_mb": 1200},
                      {"id": 2, "cpu": 0.3, "ram_mb": 600}],
        "links": [{"a": 0, "b": 0, "band_mbps": 20}, {"a": 0, "b": 1, "band_mbps": 30},
                  {"a": 0, "b": 2, "band_mbps": 25}, {"a": 1, "b": 1, "band_mbps": 20},
                  {"a": 1, "b": 2, "band_mbps": 40}, {"a": 2, "b": 2, "band_mbps": 20}]},
    "solver": "greedy",
    "seed": DEFAULT_SCENARIO_SEED,
}


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str
    sagin: dict = field(default_factory=dict)
    poisson: dict = field(default_factory=dict)
    # SHA-256 over events, utilization, running_count and summary CSVs (in
    # emit order) at the default seeds, recorded from the simulator before any
    # performance work.  A perf-only change must reproduce it.
    golden_digest: str = ""


WORKLOADS = {w.name: w for w in (
    # The scene the ROADMAP baseline cites: greedy node scoring dominates,
    # the gate vets every accepted plan, and migrations re-embed.
    Workload("full-greedy", "greedy",
             golden_digest=
                "100dfcc81b1e5c77c2f42386705f83ce9d1a792601d9ce15790c8a915d44840b"),
    # 168 nodes and a random solver: almost every arrival is rejected, so
    # greedy scoring never runs; generator, residual copies, path search
    # and utilization sampling grow with the substrate instead.
    Workload("wide-random", "random",
             sagin={"orbit_count": 8, "sats_per_orbit": 20},
             golden_digest=
                "bc7c0b59c235dc9b804c14ffd317d1181285f9f53f3351960f193b6193af3d13"),
    # 601 snapshots and 100 chains: topology changes outnumber lifecycle
    # events 3:1, so snapshot swaps, the affected-chain scan, per-event
    # sampling and the generator dominate.
    Workload("churn-greedy", "greedy",
             sagin={"snapshot_interval_s": 60}, poisson={"sfc_count": 100},
             golden_digest=
                "422c42ff61713d161f92bad853dcb4b1867ff5d6617c5f93e70523d9526e8599"),
)}


def scenario_doc(name: str, sagin_seed: int = DEFAULT_SAGIN_SEED,
                 scenario_seed: int = DEFAULT_SCENARIO_SEED) -> dict:
    """Scenario JSON document of workload ``name`` with the given seeds."""
    w = WORKLOADS[name]
    doc = copy.deepcopy(BASE_DOC)
    doc["substrate"]["generator"]["sagin"].update(w.sagin, seed=sagin_seed)
    doc["workload"]["generator"]["poisson"].update(w.poisson)
    doc["solver"] = w.solver
    doc["seed"] = scenario_seed
    return doc
