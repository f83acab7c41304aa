"""Shared scenario builders for the test suite."""

from fractions import Fraction
from pathlib import Path

import pytest

from sfcsim.mano import EmbeddingPlan, ResourceLedger
from sfcsim.topology import SubstrateSnapshot, SubstrateTopology
from sfcsim.workload import SfcRequest, VnfCatalog, VnfTemplate

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


def F(x) -> Fraction:
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def make_snapshot(n, edges, cpu=None, ram=None, default_band=100, default_latency=1.0):
    """Snapshot from an edge list; each edge is (u, v[, latency[, band]])."""
    adjacency = [[False] * n for _ in range(n)]
    latency = [[0.0] * n for _ in range(n)]
    band = [[Fraction(0)] * n for _ in range(n)]
    for edge in edges:
        u, v = edge[0], edge[1]
        lat = float(edge[2]) if len(edge) > 2 else default_latency
        bw = F(edge[3]) if len(edge) > 3 else F(default_band)
        adjacency[u][v] = adjacency[v][u] = True
        latency[u][v] = latency[v][u] = lat
        band[u][v] = band[v][u] = bw
    cpu = [F(c) for c in (cpu if cpu is not None else [10] * n)]
    ram = [F(r) for r in (ram if ram is not None else [1024] * n)]
    return SubstrateSnapshot.from_matrices(adjacency, latency, band, cpu, ram)


def make_topo(snapshots_by_time) -> SubstrateTopology:
    times = tuple(sorted(float(t) for t in snapshots_by_time))
    return SubstrateTopology(time_points=times,
                             snapshots={float(t): s for t, s in snapshots_by_time.items()})


def single_topo(snap, t0=0.0) -> SubstrateTopology:
    return SubstrateTopology(time_points=(t0,), snapshots={t0: snap})


def make_catalog(templates, links) -> VnfCatalog:
    """templates: list of (vnf_id, cpu, ram); links: list of (a, b, band)."""
    catalog = VnfCatalog([VnfTemplate(v, F(c), F(r)) for v, c, r in templates])
    for a, b, band in links:
        catalog.add_link_demand(a, b, band)
    return catalog


def make_request(sfc_id=0, start=0.0, end=10.0, ingress=0, egress=0,
                 chain=(0,), qos=1000.0) -> SfcRequest:
    return SfcRequest(sfc_id=sfc_id, start_time=start, end_time=end,
                      ingress=ingress, egress=egress, vnf_chain=tuple(chain),
                      qos_max_latency=qos)


def unit_fractions(units):
    """A FreeUnits view divided by its scales: (cpu tuple, ram tuple, band dict)."""
    return (tuple(Fraction(x, units.cpu_scale) for x in units.cpu),
            tuple(Fraction(x, units.ram_scale) for x in units.ram),
            {key: Fraction(x, units.band_scale) for key, x in units.band.items()})


def held_ledger(snap, catalog, cpu_free, ram_free, band_free) -> ResourceLedger:
    """A ledger on ``snap`` that has booked one hand-built plan holding
    ``capacity - free`` of every node and edge, so exactly these amounts are free."""
    ledger = ResourceLedger(snap, catalog)
    ledger.allocate(EmbeddingPlan(
        sfc_id=-1, vnf_placement=(), virtual_link_paths=(),
        cpu_alloc={n: cap - free for n, (cap, free)
                   in enumerate(zip(snap.node_cpu_capacity, cpu_free))},
        ram_alloc={n: cap - free for n, (cap, free)
                   in enumerate(zip(snap.node_ram_capacity, ram_free))},
        band_alloc={key: snap.edge_band(*key) - band_free[key] for key in snap.edges()},
        total_latency=0.0))
    return ledger


@pytest.fixture
def chain3_snapshot():
    """The three-node chain substrate: cores [2,4,2], ram [256,512,256]."""
    return make_snapshot(3, [(0, 1), (1, 2)], cpu=[2, 4, 2], ram=[256, 512, 256])


@pytest.fixture
def small_catalog():
    """Three interchangeable VNFs, 0.2 cpu / 64 MB each, linked demands."""
    return make_catalog([(0, 0.2, 64), (1, 0.2, 64), (2, 0.2, 64)],
                        [(0, 1, 20), (1, 2, 20)])
