"""Scale invariance of the exact core (a metamorphic relation).

Multiplying every capacity and every demand of one resource kind by the same
positive rational changes no decision: the greedy score, the fit tests and
the band filter compare amounts of one kind with each other only.  So
``events.csv``, ``running_count.csv`` and ``summary.csv`` stay byte for byte;
only ``utilization.csv``, which reports the amounts, may change.  Factors
below 1 with large coprime parts make every scale the ledger and the solvers
use grow, on scenes the golden digests never see.
"""

import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_topo
from sfcsim.engine import run
from sfcsim.scenario import load_scenario
from sfcsim.solver import make_solver
from sfcsim.topology import SubstrateSnapshot
from sfcsim.trace import TraceLog
from sfcsim.workload import VnfCatalog
from test_acceptance import _random_small_scenario
from test_reference import _band_shrink_scenario

KEPT = ("events.csv", "running_count.csv", "summary.csv")

factors = st.tuples(st.integers(1, 10**12), st.integers(2, 10**12)).filter(
    lambda pq: pq[0] < pq[1] and gcd(*pq) == 1).map(lambda pq: Fraction(*pq))


def scaled(topo, catalog, kind, factor):
    """The scene with every ``kind`` capacity and demand times ``factor``.  A
    capacity tuple that snapshots share stays shared, as the generator's are."""
    vectors = {}  # id of an original tuple -> (that tuple, its scaled copy)

    def vector(caps):
        if id(caps) not in vectors:
            vectors[id(caps)] = (caps, tuple(x * factor for x in caps))
        return vectors[id(caps)][1]

    snapshots = {}
    for t, snap in topo.snapshots.items():
        cpu, ram, links = snap.node_cpu_capacity, snap.node_ram_capacity, snap.links
        if kind == "cpu":
            cpu = vector(cpu)
        elif kind == "ram":
            ram = vector(ram)
        else:
            links = tuple({v: (lat, band * factor) for v, (lat, band) in row.items()}
                          for row in links)
        snapshots[t] = SubstrateSnapshot(snap.node_count, links, cpu, ram)
    templates = catalog.templates.values()
    band = catalog.link_band_demand
    if kind == "band":
        band = {key: x * factor for key, x in band.items()}
    else:
        field = f"{kind}_demand"
        templates = [dataclasses.replace(t, **{field: getattr(t, field) * factor})
                     for t in templates]
    return make_topo(snapshots), VnfCatalog(templates, band)


def outputs(tmp_path, topo, requests, catalog, solver_name, seed):
    trace = TraceLog()
    run(topo, requests, catalog, make_solver(solver_name), trace, seed=seed)
    return {path.name: path.read_bytes() for path in trace.emit_csv(tmp_path)}


def assert_invariant(tmp_path, topo, requests, catalog, solver_name, seed, kind, factor):
    want = outputs(tmp_path, topo, requests, catalog, solver_name, seed)
    topo, catalog = scaled(topo, catalog, kind, factor)
    got = outputs(tmp_path, topo, requests, catalog, solver_name, seed)
    for name in KEPT:
        assert got[name] == want[name], (name, kind, factor)


@pytest.fixture(scope="module")
def desk():
    return load_scenario(SCENARIO_DIR / "sagin_desk.json")


@pytest.mark.parametrize("solver_name", ["greedy", "random"])
@given(kind=st.sampled_from(("cpu", "ram", "band")), factor=factors)
@example(kind="cpu", factor=Fraction(7, 11))
@example(kind="band", factor=Fraction(5, 17))
@settings(max_examples=8, deadline=None)
def test_generated_desk_scene(desk, tmp_path_factory, solver_name, kind, factor):
    # the desk scene's snapshots share one cpu and one ram tuple
    assert_invariant(tmp_path_factory.mktemp("desk"), desk.topo, desk.requests,
                     desk.catalog, solver_name, desk.seed, kind, factor)


@given(seed=st.integers(0, 2**32), kind=st.sampled_from(("cpu", "ram", "band")),
       factor=factors, shrink=st.booleans())
@example(seed=0, kind="ram", factor=Fraction(13, 3), shrink=False)
@settings(max_examples=60, deadline=None)
def test_reference_scenes(tmp_path_factory, seed, kind, factor, shrink):
    # the random scenes and the coprime band-shrink scenes the reference run checks
    rng = random.Random(seed)
    topo, requests, catalog = (_band_shrink_scenario if shrink else _random_small_scenario)(rng)
    assert_invariant(tmp_path_factory.mktemp("scene"), topo, requests, catalog,
                     "random" if seed % 2 else "greedy", seed, kind, factor)
