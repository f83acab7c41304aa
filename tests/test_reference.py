"""Whole runs against the reference simulator in oracle.py, byte for byte.

The reference is a plain event loop over a dense Fraction ledger that shares
no code with the engine; both must write the same four CSVs and find the same
broken chains, with the same reasons, at every topology change.
"""

import ast
import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import REPO_ROOT, SCENARIO_DIR, make_catalog, make_request, make_snapshot, make_topo
from oracle import bounded_min_latency_path, min_latency_path, reference_run
from sfcsim import engine
from sfcsim.scenario import load_scenario
from sfcsim.solver import make_solver
from sfcsim.trace import TraceLog
from test_acceptance import _random_small_scenario

# What the oracle may take from sfcsim: plain data types, no behaviour.
DATA_TYPES = {"SubstrateSnapshot", "SubstrateTopology", "PhysicalPath",
              "SfcRequest", "VnfCatalog", "VnfTemplate"}


def test_oracle_imports_only_sfcsim_data_types():
    tree = ast.parse((REPO_ROOT / "tests" / "oracle.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.partition(".")[0] == "sfcsim" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sfcsim"):
            taken |= {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            assert node.id not in ("__import__", "importlib")
    assert taken <= DATA_TYPES, taken - DATA_TYPES


@pytest.fixture
def engine_run(monkeypatch, tmp_path):
    """Run the engine: its four CSVs by name, and the broken chains its scan found."""
    find_affected = engine.find_affected_sfcs
    broken = []

    def recording_scan(ledger, new_snap):
        found = find_affected(ledger, new_snap)
        broken.extend((sfc_id, reason.value) for sfc_id, reason in found)
        return found

    monkeypatch.setattr(engine, "find_affected_sfcs", recording_scan)

    def run(topo, requests, catalog, solver_name, seed):
        broken.clear()
        trace = TraceLog()
        engine.run(topo, requests, catalog, make_solver(solver_name), trace, seed=seed)
        return {path.name: path.read_bytes() for path in trace.emit_csv(tmp_path)}, broken
    return run


def on_shared_instants(rng, topo, requests):
    """The requests with each start and end moved onto one of a few instants,
    the topology's time points among them, so that arrivals, departures and
    topology changes meet at the same time."""
    instants = sorted({*topo.time_points,
                       *(topo.time_points[0] + 100.0 * k for k in range(1, 13))})
    moved = []
    for request in requests:
        start = rng.choice(instants[:-1])
        end = rng.choice([t for t in instants if t > start])
        moved.append(dataclasses.replace(request, start_time=start, end_time=end))
    return moved


def test_random_scenes_match_reference(engine_run):
    rng = random.Random(20261018)
    reasons = {}
    outcomes = {}
    for i in range(300):
        topo, requests, catalog = _random_small_scenario(rng)
        if i % 4 >= 2:
            requests = on_shared_instants(rng, topo, requests)
        solver_name = "random" if i % 2 else "greedy"
        want = reference_run(topo, requests, catalog, solver_name, i)
        assert engine_run(topo, requests, catalog, solver_name, i) == want, i
        csvs, broken = want
        for _sfc_id, reason in broken:
            reasons[reason] = reasons.get(reason, 0) + 1
        for row in csvs["events.csv"].decode().splitlines()[1:]:
            _time, _seq, kind, _sfc_id, outcome, _reason = row.split(",")
            outcomes[kind, outcome] = outcomes.get((kind, outcome), 0) + 1
    # the scenes exercise every way a topology change breaks a chain, and both
    # ways a migration ends
    assert set(reasons) == {"NoPath", "NodeCpuInsufficient", "NodeRamInsufficient",
                            "LinkBandwidthInsufficient"}, reasons
    assert outcomes["topo_change", ""] > 200
    assert outcomes["migration", "migrated"] > 20
    assert outcomes["migration", "terminated"] > 20


def _band_shrink_scenario(rng):
    """Three snapshots that keep most of one base edge set while its band
    capacities shrink, each on its own coprime denominator (7, 11, 13);
    demands in thirds and chains of 2-3 VNFs that outlive the changes."""
    n = rng.randrange(3, 8)
    base = [(u, v, float(rng.randrange(1, 4))) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.6]
    snapshots = {}
    for k, (den, lo, hi) in enumerate(((7, 20, 60), (11, 8, 30), (13, 3, 15))):
        edges = [(u, v, lat, Fraction(rng.randrange(lo * den, hi * den), den))
                 for u, v, lat in base if k == 0 or rng.random() < 0.9]
        snapshots[200.0 * k] = make_snapshot(
            n, edges, cpu=[Fraction(rng.randrange(4 * den, 8 * den), den) for _ in range(n)],
            ram=[Fraction(rng.randrange(200 * den, 400 * den), den) for _ in range(n)])
    catalog = make_catalog(
        [(i, Fraction(rng.randrange(1, 4), 3), Fraction(rng.randrange(8, 64), 3))
         for i in range(3)],
        [(a, b, Fraction(rng.randrange(10, 40), 3)) for a in range(3) for b in range(a, 3)])
    requests = [make_request(sfc_id=i, start=rng.random() * 150, end=450 + rng.random() * 250,
                             ingress=rng.randrange(n), egress=rng.randrange(n),
                             chain=[rng.randrange(3) for _ in range(rng.randrange(2, 4))],
                             qos=50.0)
                for i in range(rng.randrange(8, 21))]
    return make_topo(snapshots), requests, catalog


def test_band_shrink_scenes_match_reference(engine_run):
    rng = random.Random(20261019)
    band_breaks = 0
    for i in range(200):
        topo, requests, catalog = _band_shrink_scenario(rng)
        solver_name = "random" if i % 2 else "greedy"
        want = reference_run(topo, requests, catalog, solver_name, i)
        assert engine_run(topo, requests, catalog, solver_name, i) == want, i
        band_breaks += sum(reason == "LinkBandwidthInsufficient" for _, reason in want[1])
    # a shrink leaves chains on kept edges short of bandwidth, not only of paths
    assert band_breaks >= 50, band_breaks


@pytest.mark.parametrize("solver_name", ["greedy", "random"])
@pytest.mark.parametrize("name", ["example_a", "sagin_desk"])
def test_bundled_scenes_match_reference(engine_run, name, solver_name):
    sc = load_scenario(SCENARIO_DIR / f"{name}.json")
    want = reference_run(sc.topo, sc.requests, sc.catalog, solver_name, sc.seed)
    assert engine_run(sc.topo, sc.requests, sc.catalog, solver_name, sc.seed) == want


def test_bounded_path_search_matches_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 8)
        snap = make_snapshot(n, [(u, v, float(rng.randrange(1, 4)), rng.choice([10, 40]))
                                 for u in range(n) for v in range(u + 1, n)
                                 if rng.random() < 0.5])
        residual = {key: rng.choice([0, 10, 40]) for key in snap.edges()}
        for args in ((0,), (20,), (20, residual), (0, residual)):
            src, dst = rng.randrange(n), rng.randrange(n)
            assert bounded_min_latency_path(snap, src, dst, *args) == \
                min_latency_path(snap, src, dst, *args)
