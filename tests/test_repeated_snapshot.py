"""Repeated snapshots change no decision (a metamorphic relation).

Inserting a copy of each snapshot half-way to the next time point adds a
topology change over an unchanged substrate.  After every topology change
each chain fits what it holds, so the copy invalidates none: the only new
rows of ``events.csv`` are the copies' ``topo_change`` rows, no chain
migrates at a copy, and every other row keeps its time, kind, chain, outcome
and reason (only ``seq`` shifts).  The copy is put in twice: as the same
snapshot object, whose capacity tuples the ledger's converted units are
reused for, and as an equal but distinct snapshot with distinct tuples,
which makes the ledger convert and rebuild its free view from scratch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, make_topo
from sfcsim.engine import run
from sfcsim.scenario import load_scenario
from sfcsim.solver import make_solver
from sfcsim.topology import SubstrateSnapshot
from sfcsim.trace import KIND_TOPO_CHANGE, TraceLog
from test_acceptance import _random_small_scenario
from test_reference import _band_shrink_scenario


def same(snap):
    return snap


def distinct(snap):
    return SubstrateSnapshot(snap.node_count, tuple(dict(row) for row in snap.links),
                             tuple(list(snap.node_cpu_capacity)),
                             tuple(list(snap.node_ram_capacity)))


def repeated(topo, copy):
    """``topo`` with ``copy(snapshot)`` half-way between each two time points,
    and the half-way times."""
    times = topo.time_points
    halves = [(a + b) / 2 for a, b in zip(times, times[1:])]
    snapshots = dict(topo.snapshots)
    for t, half in zip(times, halves):
        snapshots[half] = copy(topo.snapshots[t])
    return make_topo(snapshots), set(halves)


def rows(topo, requests, catalog, solver_name, seed):
    trace = TraceLog()
    run(topo, requests, catalog, make_solver(solver_name), trace, seed=seed)
    return [(r.time, r.kind, r.sfc_id, r.outcome, r.reason) for r in trace.records]


def assert_invariant(topo, requests, catalog, solver_name, seed):
    want = rows(topo, requests, catalog, solver_name, seed)
    for copy in (same, distinct):
        twice, halves = repeated(topo, copy)
        got = rows(twice, requests, catalog, solver_name, seed)
        copies = [(half, KIND_TOPO_CHANGE, None, None, None) for half in sorted(halves)]
        assert [row for row in got if row in copies] == copies
        assert [row for row in got if row not in copies] == want, copy.__name__


# the full scene's random run migrates 2 chains, against the greedy run's 338
@pytest.mark.parametrize("name, solver_name", [("sagin_desk", "greedy"),
                                               ("sagin_desk", "random"),
                                               ("sagin_full", "greedy")])
def test_bundled_scenes(name, solver_name):
    sc = load_scenario(SCENARIO_DIR / f"{name}.json")
    assert_invariant(sc.topo, sc.requests, sc.catalog, solver_name, sc.seed)


@given(seed=st.integers(0, 2**32), shrink=st.booleans())
@settings(max_examples=25, deadline=None)
def test_reference_scenes(seed, shrink):
    # the random scenes and the coprime band-shrink scenes the reference run checks
    topo, requests, catalog = (_band_shrink_scenario if shrink
                               else _random_small_scenario)(random.Random(seed))
    assert_invariant(topo, requests, catalog, "random" if seed % 2 else "greedy", seed)
