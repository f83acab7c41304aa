"""Independent brute-force oracles.

Everything here is written from the problem statement alone and must stay
independent of the library's own pathfinding and plan checking: exhaustive
simple-path enumeration, a from-scratch feasibility verdict for a complete
plan, an exhaustive search over all placements and path combinations,
the baseline solvers' sequential rule written in plain Fractions, and the
utilization CSV written one sample at a time.
"""

import csv
import io
import itertools
from fractions import Fraction


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
    return sum(snap.edge_latency(a, b) for a, b in zip(nodes, nodes[1:]))


def min_latency_path(snap, src, dst, min_band=0, residual=None):
    """Best (latency, lexicographic) feasible path by full enumeration."""
    best = None
    for nodes in all_simple_paths(snap, src, dst):
        ok = True
        for a, b in zip(nodes, nodes[1:]):
            key = (a, b) if a < b else (b, a)
            free = snap.edge_band(a, b) if residual is None else residual.get(key, 0)
            if free < min_band:
                ok = False
                break
        if not ok:
            continue
        cand = (path_cost(snap, nodes), nodes)
        if best is None or cand < best:
            best = cand
    return best  # (latency, nodes) or None


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


def sequential_decision(snap, request, catalog, cpu_free, ram_free, band_free, pick):
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
        best = min_latency_path(snap, prev, node, demands[pos], band)
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
