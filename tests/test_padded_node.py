"""A padded node changes no decision (a metamorphic relation).

Appending to every snapshot a node with zero cpu, zero ram and no edges, and
keeping the requests, leaves every chain where it was: each demand is > 0, so
the node is never a candidate, it lies on no path, and the largest capacities
do not change.  ``events.csv``, ``running_count.csv`` and ``summary.csv`` stay
byte-identical, and ``utilization.csv`` gains exactly one row per block, the
new node's, all zero; without those rows it is byte-identical too.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_topo
from sfcsim.engine import run
from sfcsim.scenario import load_scenario
from sfcsim.solver import make_solver
from sfcsim.topology import SubstrateSnapshot
from sfcsim.trace import TraceLog
from test_acceptance import _random_small_scenario
from test_reference import _band_shrink_scenario


def padded(topo):
    """``topo`` with an isolated node of zero cpu and ram appended to each snapshot."""
    return make_topo({t: SubstrateSnapshot(snap.node_count + 1, snap.links + ({},),
                                           snap.node_cpu_capacity + (Fraction(0),),
                                           snap.node_ram_capacity + (Fraction(0),))
                      for t, snap in topo.snapshots.items()})


def outputs(topo, requests, catalog, solver_name, seed, out_dir):
    """The four CSVs of one run, by file name."""
    trace = TraceLog()
    run(topo, requests, catalog, make_solver(solver_name), trace, seed=seed)
    return {path.name: path.read_bytes() for path in trace.emit_csv(out_dir)}


def assert_invariant(topo, requests, catalog, solver_name, seed, tmp_path):
    want = outputs(topo, requests, catalog, solver_name, seed, tmp_path / "plain")
    got = outputs(padded(topo), requests, catalog, solver_name, seed, tmp_path / "padded")
    for name in ("events.csv", "running_count.csv", "summary.csv"):
        assert got[name] == want[name], name
    # each block of n rows gains the new node's row, at its time, after the others
    header, *rows = want["utilization.csv"].decode().splitlines(keepends=True)
    n = topo.node_count
    blocks = [rows[k:k + n] for k in range(0, len(rows), n)]
    assert got["utilization.csv"].decode() == header + "".join(
        "".join(block) + block[0].split(",")[0] + f",{n},0.000000,0.000000,0.000000,0.000000\n"
        for block in blocks)


@pytest.mark.parametrize("solver_name", ["greedy", "random"])
def test_desk_scene(solver_name, tmp_path):
    sc = load_scenario(SCENARIO_DIR / "sagin_desk.json")
    assert_invariant(sc.topo, sc.requests, sc.catalog, solver_name, sc.seed, tmp_path)


@given(seed=st.integers(0, 2**32), shrink=st.booleans())
@settings(max_examples=60, deadline=None)
def test_reference_scenes(seed, shrink, tmp_path_factory):
    # the random scenes and the coprime band-shrink scenes the reference run checks
    topo, requests, catalog = (_band_shrink_scenario if shrink
                               else _random_small_scenario)(random.Random(seed))
    assert_invariant(topo, requests, catalog, "random" if seed % 2 else "greedy", seed,
                     tmp_path_factory.mktemp("scene"))
