"""Independent brute-force oracles.

Everything here is written from the problem statement alone and must stay
independent of the library's own pathfinding and plan checking: exhaustive
simple-path enumeration, a from-scratch feasibility verdict for a complete
plan, an exhaustive search over all placements and path combinations,
the baseline solvers' sequential rule written in plain Fractions, the
utilization CSV written one sample at a time, and a whole-run reference
simulator built from these pieces over a dense Fraction ledger.
"""

import csv
import io
import itertools
import random
from fractions import Fraction
from typing import NamedTuple


def all_simple_paths(snap, src, dst):
    """Every simple path src -> dst as a node tuple (DFS enumeration)."""
    if src == dst:
        return [(src,)]
    out = []

    def walk(node, path):
        for nxt in range(snap.node_count):
            if not snap.has_edge(node, nxt) or nxt in path:
                continue
            if nxt == dst:
                out.append(tuple(path) + (nxt,))
            else:
                path.append(nxt)
                walk(nxt, path)
                path.pop()

    walk(src, [src])
    return out


def path_cost(snap, nodes):
    cost = 0  # left to right, whatever the Python version's sum() does
    for a, b in zip(nodes, nodes[1:]):
        cost += snap.edge_latency(a, b)
    return cost


def min_latency_path(snap, src, dst, min_band=0, residual=None):
    """Best (latency, lexicographic) feasible path by full enumeration."""
    best = None
    for nodes in all_simple_paths(snap, src, dst):
        ok = True
        for a, b in zip(nodes, nodes[1:]):
            key = (a, b) if a < b else (b, a)
            free = snap.edge_band(a, b) if residual is None else residual.get(key, 0)
            if not free >= min_band:  # enough free bandwidth; NaN is not enough
                ok = False
                break
        if not ok:
            continue
        cand = (path_cost(snap, nodes), nodes)
        if best is None or cand < best:
            best = cand
    return best  # (latency, nodes) or None


def bounded_min_latency_path(snap, src, dst, min_band=0, residual=None):
    """``min_latency_path`` by depth-first search that cuts a branch once its
    latency exceeds the best complete path's; latencies are never negative."""
    best = None

    def walk(nodes, cost):
        nonlocal best
        if best is not None and cost > best[0]:
            return
        if nodes[-1] == dst:
            if best is None or (cost, nodes) < best:
                best = (cost, nodes)
            return
        a = nodes[-1]
        for b in range(snap.node_count):
            if b in nodes or not snap.has_edge(a, b):
                continue
            key = (a, b) if a < b else (b, a)
            free = snap.edge_band(a, b) if residual is None else residual.get(key, 0)
            if free >= min_band:
                walk(nodes + (b,), cost + snap.edge_latency(a, b))

    walk((src,), 0)
    return best


def leg_demands(request, catalog):
    inner = [catalog.band_demand(a, b)
             for a, b in zip(request.vnf_chain, request.vnf_chain[1:])]
    return [Fraction(0)] + inner + [Fraction(0)]


def placement_feasible(snap, request, catalog, placement, leg_paths,
                       cpu_capacity=None, ram_capacity=None, band_capacity=None):
    """Recompute a candidate embedding's resource usage and check every limit.

    Capacities default to the snapshot's (empty network); latency is summed
    over the given leg paths and compared to the request's QoS bound.
    """
    n = snap.node_count
    cpu_cap = list(cpu_capacity if cpu_capacity is not None else snap.node_cpu_capacity)
    ram_cap = list(ram_capacity if ram_capacity is not None else snap.node_ram_capacity)

    cpu_need = [Fraction(0)] * n
    ram_need = [Fraction(0)] * n
    for node, vnf_id in zip(placement, request.vnf_chain):
        t = catalog.templates[vnf_id]
        cpu_need[node] += t.cpu_demand
        ram_need[node] += t.ram_demand
    if any(cpu_need[i] > cpu_cap[i] for i in range(n)):
        return False
    if any(ram_need[i] > ram_cap[i] for i in range(n)):
        return False

    waypoints = [request.ingress, *placement, request.egress]
    band_need = {}
    latency = 0.0
    for leg, nodes in enumerate(leg_paths):
        if nodes[0] != waypoints[leg] or nodes[-1] != waypoints[leg + 1]:
            return False
        demand = leg_demands(request, catalog)[leg]
        for a, b in zip(nodes, nodes[1:]):
            if not snap.has_edge(a, b):
                return False
            key = (a, b) if a < b else (b, a)
            band_need[key] = band_need.get(key, Fraction(0)) + demand
            latency += snap.edge_latency(a, b)
    for (a, b), need in band_need.items():
        cap = (band_capacity.get((a, b), Fraction(0)) if band_capacity is not None
               else snap.edge_band(a, b))
        if need > cap:
            return False
    return latency <= request.qos_max_latency


def exhaustive_embedding(snap, request, catalog):
    """Search all placements x all per-leg simple paths for a feasible plan.

    Returns (placement, leg_paths) or None.  Intended for tiny instances.
    """
    n = snap.node_count
    k = len(request.vnf_chain)
    for placement in itertools.product(range(n), repeat=k):
        waypoints = [request.ingress, *placement, request.egress]
        per_leg = []
        dead = False
        for a, b in zip(waypoints, waypoints[1:]):
            options = all_simple_paths(snap, a, b)
            if not options:
                dead = True
                break
            per_leg.append(options)
        if dead:
            continue
        for combo in itertools.product(*per_leg):
            if placement_feasible(snap, request, catalog, placement, combo):
                return placement, combo
    return None


def sequential_decision(snap, request, catalog, cpu_free, ram_free, band_free, pick,
                        route=min_latency_path):
    """The baselines' chain walk in plain Fractions: (placement, paths, reason).

    Position by position, the nodes with enough free cpu (none: the reason is
    "NodeCpuInsufficient"), then enough free ram ("NodeRamInsufficient"), go
    to ``pick(candidates, cpu, ram)``; the leg from the previous waypoint
    takes the best (latency, node sequence) bandwidth-feasible path by
    enumeration ("NoPath"), and the running latency must stay within the QoS
    bound ("QosLatencyViolated").  Only then are the node's and the path's
    resources deducted.  The egress leg follows the last position.
    Accepted walks return reason None; rejected ones placement and paths None.
    """
    cpu, ram, band = list(cpu_free), list(ram_free), dict(band_free)
    demands = leg_demands(request, catalog)
    placement, paths, latency = [], [], 0.0
    chain = list(request.vnf_chain)
    for pos in range(len(chain) + 1):
        prev = placement[-1] if placement else request.ingress
        node = request.egress
        if pos < len(chain):
            t = catalog.templates[chain[pos]]
            cpu_ok = [n for n in range(snap.node_count) if cpu[n] >= t.cpu_demand]
            if not cpu_ok:
                return None, None, "NodeCpuInsufficient"
            candidates = [n for n in cpu_ok if ram[n] >= t.ram_demand]
            if not candidates:
                return None, None, "NodeRamInsufficient"
            node = pick(candidates, cpu, ram)
        best = route(snap, prev, node, demands[pos], band)
        if best is None:
            return None, None, "NoPath"
        latency += path_cost(snap, best[1])
        if latency > request.qos_max_latency:
            return None, None, "QosLatencyViolated"
        for a, b in zip(best[1], best[1][1:]):
            key = (a, b) if a < b else (b, a)
            band[key] = band.get(key, Fraction(0)) - demands[pos]
        paths.append(best[1])
        if pos < len(chain):
            cpu[node] -= t.cpu_demand
            ram[node] -= t.ram_demand
            placement.append(node)
    return tuple(placement), tuple(paths), None


def greedy_pick(snap):
    """Greedy's choice: highest cpu/max_cpu + ram/max_ram, first index on ties.

    A resource whose largest snapshot capacity is 0 adds nothing to the score.
    """
    max_cpu = max(snap.node_cpu_capacity)
    max_ram = max(snap.node_ram_capacity)

    def pick(candidates, cpu, ram):
        def score(n):
            return ((cpu[n] / max_cpu if max_cpu else Fraction(0))
                    + (ram[n] / max_ram if max_ram else Fraction(0)))
        best = candidates[0]
        for n in candidates[1:]:
            if score(n) > score(best):
                best = n
        return best
    return pick


def random_pick(rng):
    """Random's choice: a uniform index drawn with ``rng.randrange``."""
    return lambda candidates, cpu, ram: candidates[rng.randrange(len(candidates))]


def utilization_csv(samples) -> bytes:
    """utilization.csv for ``samples``: one csv.writer row per node sample."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["time", "node", "cpu_used", "cpu_capacity", "ram_used_mb", "ram_capacity_mb"])
    for s in samples:
        w.writerow([f"{float(s.time):.6f}", s.node,
                    *(f"{float(x):.6f}" for x in (s.cpu_used, s.cpu_capacity,
                                                  s.ram_used, s.ram_capacity))])
    return buf.getvalue().encode()


# --- whole-run reference simulator ------------------------------------------

TOPOLOGY, DEPARTURE, ARRIVAL = range(3)  # the order of same-instant events
REASONS = ("NodeCpuInsufficient", "NodeRamInsufficient", "LinkBandwidthInsufficient",
           "NoPath", "QosLatencyViolated", "MigrationFailed", "SolverRejected")


class Sample(NamedTuple):
    time: float
    node: int
    cpu_used: Fraction
    cpu_capacity: Fraction
    ram_used: Fraction
    ram_capacity: Fraction


class DenseLedger:
    """Usage per node and per node pair, in Fractions, summed over the chains held.

    ``held[sfc_id]`` is what one chain holds: its leg paths as node tuples and
    its cpu, ram and bandwidth per node or (low, high) pair.
    """

    def __init__(self, n):
        self.cpu = [Fraction(0)] * n
        self.ram = [Fraction(0)] * n
        self.band = [[Fraction(0)] * n for _ in range(n)]
        self.held = {}

    def hold(self, sfc_id, holding):
        self.held[sfc_id] = holding
        self._apply(holding, 1)

    def drop(self, sfc_id):
        self._apply(self.held.pop(sfc_id), -1)

    def _apply(self, holding, sign):
        _paths, cpu, ram, band = holding
        for node, x in cpu.items():
            self.cpu[node] += sign * x
        for node, x in ram.items():
            self.ram[node] += sign * x
        for (a, b), x in band.items():
            self.band[a][b] += sign * x

    def free(self, snap):
        """Free cpu, ram and bandwidth under ``snap``; only its edges have bandwidth."""
        n = snap.node_count
        cpu = [cap - used for cap, used in zip(snap.node_cpu_capacity, self.cpu)]
        ram = [cap - used for cap, used in zip(snap.node_ram_capacity, self.ram)]
        band = {(a, b): snap.edge_band(a, b) - self.band[a][b]
                for a in range(n) for b in range(a + 1, n) if snap.has_edge(a, b)}
        return cpu, ram, band

    def shortfall(self, snap, cpu, ram, band):
        """The first resource, cpu then ram then bandwidth, of which a holding
        asks more than ``snap`` leaves free, by reason name, or None.  A node
        outside ``snap`` or a pair that is not one of its (low, high) edges
        has none free."""
        free_cpu, free_ram, free_band = self.free(snap)
        for need, free, reason in ((cpu, dict(enumerate(free_cpu)), "NodeCpuInsufficient"),
                                   (ram, dict(enumerate(free_ram)), "NodeRamInsufficient"),
                                   (band, free_band, "LinkBandwidthInsufficient")):
            if any(key not in free or x > free[key] for key, x in need.items()):
                return reason
        return None


def chain_holding(request, catalog, placement, paths):
    """What an accepted chain holds: (paths, cpu, ram, band), zero amounts left out."""
    cpu, ram, band = {}, {}, {}
    for node, vnf_id in zip(placement, request.vnf_chain):
        t = catalog.templates[vnf_id]
        cpu[node] = cpu.get(node, Fraction(0)) + t.cpu_demand
        ram[node] = ram.get(node, Fraction(0)) + t.ram_demand
    for demand, nodes in zip(leg_demands(request, catalog), paths):
        for a, b in zip(nodes, nodes[1:]) if demand else ():
            key = (a, b) if a < b else (b, a)
            band[key] = band.get(key, Fraction(0)) + demand
    return paths, cpu, ram, band


def broken_chains(ledger, snap):
    """(sfc_id, reason) for every held chain ``snap`` breaks, ascending id.

    A chain is broken when an edge of one of its paths is gone ("NoPath"), or
    when it holds cpu, then ram, then bandwidth on a node or an edge whose
    total usage now exceeds the new capacity.
    """
    n = snap.node_count
    over_cpu = {v for v in range(n) if ledger.cpu[v] > snap.node_cpu_capacity[v]}
    over_ram = {v for v in range(n) if ledger.ram[v] > snap.node_ram_capacity[v]}
    over_band = {(a, b) for a in range(n) for b in range(a + 1, n)
                 if snap.has_edge(a, b) and ledger.band[a][b] > snap.edge_band(a, b)}
    broken = []
    for sfc_id in sorted(ledger.held):
        paths, cpu, ram, band = ledger.held[sfc_id]
        if not all(snap.has_edge(a, b) for nodes in paths for a, b in zip(nodes, nodes[1:])):
            broken.append((sfc_id, "NoPath"))
        elif over_cpu & cpu.keys():
            broken.append((sfc_id, "NodeCpuInsufficient"))
        elif over_ram & ram.keys():
            broken.append((sfc_id, "NodeRamInsufficient"))
        elif over_band & band.keys():
            broken.append((sfc_id, "LinkBandwidthInsufficient"))
    return broken


def _csv(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def reference_run(topo, requests, catalog, solver_name, seed):
    """One whole run, event by event: (the four CSVs by file name, broken chains).

    Events are ordered by time, then topology change before departure before
    arrival, then sfc_id; the first time point is the initial substrate, every
    later one a topology change.  An arrival runs ``sequential_decision`` with
    the greedy or random rule on the free amounts and holds the chain when it
    fits.  A topology change finds the chains the new snapshot breaks against
    the usage so far, swaps the snapshot in, and then, in ascending id, drops
    each broken chain and decides it again: placed again it is migrated,
    otherwise terminated with the solver's reason.  Utilization and the count
    of held chains are sampled after every event.  The second value lists
    ``(sfc_id, reason)`` for every broken chain, in the order found.
    """
    snap = topo.snapshots[topo.time_points[0]]
    ledger = DenseLedger(snap.node_count)
    by_id = {r.sfc_id: r for r in requests}
    events = sorted([(t, TOPOLOGY, -1) for t in topo.time_points[1:]]
                    + [(r.end_time, DEPARTURE, r.sfc_id) for r in requests]
                    + [(r.start_time, ARRIVAL, r.sfc_id) for r in requests])
    rng_pick = random_pick(random.Random(seed))
    records, samples, counts, broken_log = [], [], [], []

    def record(time, kind, sfc_id="", outcome="", reason=""):
        records.append((f"{time:.6f}", len(records), kind, sfc_id, outcome, reason))

    def decide(time, request, kind, placed, failed):
        pick = greedy_pick(snap) if solver_name == "greedy" else rng_pick
        placement, paths, reason = sequential_decision(
            snap, request, catalog, *ledger.free(snap), pick, bounded_min_latency_path)
        if reason is None:
            ledger.hold(request.sfc_id, chain_holding(request, catalog, placement, paths))
            record(time, kind, request.sfc_id, placed)
        else:
            record(time, kind, request.sfc_id, failed, reason)

    for time, kind, sfc_id in events:
        if kind == ARRIVAL:
            decide(time, by_id[sfc_id], "arrival", "accepted", "rejected")
        elif kind == DEPARTURE:
            if sfc_id in ledger.held:
                ledger.drop(sfc_id)
                record(time, "departure", sfc_id, "released")
            else:
                record(time, "departure", sfc_id)
        else:
            snap = topo.snapshots[time]
            broken = broken_chains(ledger, snap)
            record(time, "topo_change")
            broken_log += broken
            for broken_id, _reason in broken:
                ledger.drop(broken_id)
                decide(time, by_id[broken_id], "migration", "migrated", "terminated")
        samples += [Sample(time, v, ledger.cpu[v], snap.node_cpu_capacity[v],
                           ledger.ram[v], snap.node_ram_capacity[v])
                    for v in range(snap.node_count)]
        counts.append((f"{time:.6f}", len(ledger.held)))

    def tally(outcome):
        return sum(1 for r in records if r[4] == outcome)

    arrivals = sum(1 for r in records if r[2] == "arrival")
    ratio = tally("accepted") / arrivals if arrivals else 1.0
    failures = [r[5] for r in records if r[4] in ("rejected", "terminated")]
    summary = [[arrivals, tally("accepted"), tally("rejected"), tally("terminated"),
                f"{ratio:.6f}"], ["reason", "count", "", "", ""]]
    summary += [[reason, failures.count(reason), "", "", ""] for reason in REASONS]
    return {
        "events.csv": _csv(["time", "seq", "kind", "sfc_id", "outcome", "reason"], records),
        "utilization.csv": utilization_csv(samples),
        "running_count.csv": _csv(["time", "count"], counts),
        "summary.csv": _csv(["arrivals", "accepted", "rejected", "terminated_early",
                             "acceptance_ratio"], summary),
    }, broken_log
