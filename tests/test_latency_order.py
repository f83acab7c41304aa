"""Latencies add up left to right on every Python version.

From Python 3.12 on, ``sum()`` of floats is compensated, so a path of
``1e16, 1, 1`` ms sums to 1e16 + 2 there and to 1e16 before.  The simulator
adds left to right everywhere, so its decisions do not depend on the Python
version, and the path search tests its latency budget as the solvers test
their QoS bound, ``base + cost > limit``.  This module needs no pytest:
``python tests/test_latency_order.py`` (with ``src`` on ``PYTHONPATH``) runs
the same checks on an interpreter that lacks it.
"""

from fractions import Fraction

from sfcsim.engine import run
from sfcsim.mano import build_plan
from sfcsim.solver import SOLVERS, make_solver
from sfcsim.topology import (PhysicalPath, SubstrateSnapshot, SubstrateTopology, path_latency,
                             shortest_feasible_path)
from sfcsim.trace import TraceLog
from sfcsim.workload import SfcRequest, VnfCatalog, VnfTemplate

LINE = (1e16, 1.0, 1.0)  # edge latencies of the line 0 - 1 - 2 - 3


def line_snapshot(cpu):
    n = len(LINE) + 1
    adjacency = [[abs(u - v) == 1 for v in range(n)] for u in range(n)]
    latency = [[LINE[min(u, v)] if abs(u - v) == 1 else 0.0 for v in range(n)]
               for u in range(n)]
    band = [[Fraction(100) if abs(u - v) == 1 else Fraction(0) for v in range(n)]
            for u in range(n)]
    return SubstrateSnapshot.from_matrices(adjacency, latency, band,
                                           [Fraction(c) for c in cpu], [Fraction(64)] * n)


def catalog(*cpu):
    cat = VnfCatalog([VnfTemplate(i, Fraction(c), Fraction(8)) for i, c in enumerate(cpu)])
    if len(cpu) > 1:
        cat.add_link_demand(0, 1, 1)
    return cat


def request(chain, egress=3):
    return SfcRequest(sfc_id=0, start_time=1.0, end_time=2.0, ingress=0, egress=egress,
                      vnf_chain=chain, qos_max_latency=1e16)


def accepted_placements(snap, cat, req):
    """The placement each baseline solver commits in a one-request run."""
    placements = {}
    for name in sorted(SOLVERS):
        trace = TraceLog()
        run(SubstrateTopology((0.0,), {0.0: snap}), [req], cat, make_solver(name), trace)
        placements[name] = [(r.outcome, r.reason, r.plan_nodes) for r in trace.records
                            if r.kind == "arrival"]
    return placements


def test_path_latency_adds_left_to_right():
    assert path_latency(line_snapshot([1] * 4), PhysicalPath((0, 1, 2, 3))) == 1e16


def test_one_leg_over_the_line_fits_the_qos_bound():
    # only node 3 can host the VNF, so one leg crosses all three edges
    snap, cat, req = line_snapshot([0, 0, 0, 1]), catalog(1), request((0,))
    for name, outcome in accepted_placements(snap, cat, req).items():
        assert outcome == [("accepted", None, (3,))], name
    plan = build_plan(req, cat, snap, (3,), [PhysicalPath((0, 1, 2, 3)), PhysicalPath((3,))])
    assert plan.total_latency == 1e16


def test_three_one_edge_legs_pass_the_self_check():
    # VNF 0 fits only on node 1 and VNF 1 only on node 2: legs 0-1, 1-2, 2-3,
    # whose running sum the solver checks and whose plan total the engine's
    # gate checks again
    snap, cat, req = line_snapshot([0, 2, 1, 0]), catalog(2, 1), request((0, 1))
    for name, outcome in accepted_placements(snap, cat, req).items():
        assert outcome == [("accepted", None, (1, 2))], name
    plan = build_plan(req, cat, snap, (1, 2), [PhysicalPath((0, 1)), PhysicalPath((1, 2)),
                                               PhysicalPath((2, 3))])
    assert plan.total_latency == 1e16


def test_a_budget_is_tested_as_the_solvers_test_it():
    # After the 1e16 ms leg 0-1 the budget left is 0, yet the leg 1-2 of
    # 1 ms fits: 1e16 + 1.0 == 1e16.  The subtracted form would refuse it.
    base, leg, limit = 1e16, 1.0, 1e16
    assert not base + leg > limit and leg > limit - base
    snap = line_snapshot([1] * 4)
    band = {key: 100 for key in snap.edges()}
    assert shortest_feasible_path(snap, 1, 2, 0, band, base, limit) == PhysicalPath((1, 2))
    # one VNF, which only node 1 can host: legs 0-1 and 1-2, searched with
    # the chain's latency so far as the budget's base
    cat, req = catalog(1), request((0,), egress=2)
    for name, outcome in accepted_placements(line_snapshot([0, 1, 0, 0]), cat, req).items():
        assert outcome == [("accepted", None, (1,))], name


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
