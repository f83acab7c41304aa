"""Time-indexed substrate network model and graph queries.

The physical network is a sequence of timestamped snapshots.  Each snapshot
is a symmetric graph over a fixed node set, carrying per-node compute/memory
capacities and per-edge latency and bandwidth.  Between snapshot timestamps
the network state is held constant (carry-forward lookup).

Resource quantities (cpu, ram, bandwidth) are ``fractions.Fraction`` so that
the downstream resource ledger can do exact, zero-drift accounting.  Latency
and time stay as floats.
"""

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import ne
from typing import Iterator, Mapping


class TimeBeforeStart(ValueError):
    """Query time precedes the first topology snapshot."""


class InvalidPath(ValueError):
    """A path references a node pair that is not an edge of the snapshot."""


def as_fraction(value) -> Fraction:
    """Convert a JSON number (int, float, or numeric string) to a Fraction.

    Floats are routed through their shortest decimal repr, so a value written
    as ``0.2`` in a scenario file becomes exactly 1/5.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected a number, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite resource value: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a resource quantity")


def as_integer(value) -> int:
    """Convert a JSON integer field: ``3``, ``3.0`` and ``"3"`` load; a bool,
    3.5, NaN or infinity raise ValueError instead of truncating."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (low, high) key for an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class PhysicalPath:
    """A simple path through the substrate, as an ordered node sequence."""

    nodes: tuple[int, ...]

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise ValueError("a path needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path revisits a node: {self.nodes}")

    def edges(self) -> Iterator[tuple[int, int]]:
        for a, b in zip(self.nodes, self.nodes[1:]):
            yield a, b

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class SubstrateSnapshot:
    """State of the physical network at one timestamp.

    Matrices are full and symmetric; latency and bandwidth entries are only
    meaningful where ``adjacency`` is true and must be read through
    :meth:`edge_latency` / :meth:`edge_band`.
    """

    node_count: int
    adjacency: tuple[tuple[bool, ...], ...]
    latency: tuple[tuple[float, ...], ...]
    node_cpu_capacity: tuple[Fraction, ...]
    node_ram_capacity: tuple[Fraction, ...]
    link_band_capacity: tuple[tuple[Fraction, ...], ...]
    neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.node_count
        if n < 1:
            raise ValueError("snapshot needs at least one node")
        for name, mat in (("adjacency", self.adjacency),
                          ("latency", self.latency),
                          ("link_band_capacity", self.link_band_capacity)):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"{name} must be {n}x{n}")
        for name, vec in (("node_cpu_capacity", self.node_cpu_capacity),
                          ("node_ram_capacity", self.node_ram_capacity)):
            if len(vec) != n:
                raise ValueError(f"{name} must have {n} entries")
            if any(x < 0 for x in vec):
                raise ValueError(f"{name} has a negative entry")
        adj = self.adjacency
        nbrs = tuple(tuple(compress(range(n), row)) for row in adj)
        # Comparing each row with its column finds an asymmetric pair in C;
        # the edge loop then looks at the i < j edges only.  Any fault reruns
        # the full pair scan, which names the first fault in (i, j) order.
        if (any(adj[i][i] for i in range(n))
                or any(map(ne, map(tuple, adj), zip(*adj)))
                or not self._edges_valid(nbrs)):
            self._raise_first_fault()
        object.__setattr__(self, "neighbors", nbrs)

    def _edges_valid(self, nbrs) -> bool:
        """True when every i < j edge is symmetric with a sane latency and band.

        The adjacency pair is compared again because the row/column check
        treats one object as equal to itself, which a NaN is not.  Likewise
        a band entry shared by both directions skips its ``!=`` only when it
        is a ``Fraction``.
        """
        adj, lat, band = self.adjacency, self.latency, self.link_band_capacity
        for i, row in enumerate(nbrs):
            adj_i, lat_i, band_i = adj[i], lat[i], band[i]
            for j in row[bisect_right(row, i):]:
                x, b, b_back = lat_i[j], band_i[j], band[j][i]
                if (adj_i[j] != adj[j][i] or x != lat[j][i]
                        or ((b is not b_back or type(b) is not Fraction) and b != b_back)
                        or not (math.isfinite(x) and x >= 0) or b < 0):
                    return False
        return True

    def _raise_first_fault(self):
        """Raise for the first fault of the full (i, j) scan, if it finds one."""
        n = self.node_count
        for i in range(n):
            if self.adjacency[i][i]:
                raise ValueError(f"self-loop at node {i}")
            for j in range(i + 1, n):
                if self.adjacency[i][j] != self.adjacency[j][i]:
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")
                if not self.adjacency[i][j]:
                    continue
                if self.latency[i][j] != self.latency[j][i]:
                    raise ValueError(f"latency not symmetric at ({i},{j})")
                if self.link_band_capacity[i][j] != self.link_band_capacity[j][i]:
                    raise ValueError(f"bandwidth not symmetric at ({i},{j})")
                lat = self.latency[i][j]
                if not (math.isfinite(lat) and lat >= 0):
                    raise ValueError(f"bad latency {lat!r} on edge ({i},{j})")
                if self.link_band_capacity[i][j] < 0:
                    raise ValueError(f"negative bandwidth on edge ({i},{j})")

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and self.adjacency[u][v]

    def edge_latency(self, u: int, v: int) -> float:
        if not self.has_edge(u, v):
            raise InvalidPath(f"({u},{v}) is not an edge")
        return self.latency[u][v]

    def edge_band(self, u: int, v: int) -> Fraction:
        if not self.has_edge(u, v):
            raise InvalidPath(f"({u},{v}) is not an edge")
        return self.link_band_capacity[u][v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (low, high) pairs, lexicographic order."""
        for u in range(self.node_count):
            for v in self.neighbors[u]:
                if v > u:
                    yield u, v


@dataclass(frozen=True)
class SubstrateTopology:
    """Ordered snapshot sequence; node identity is stable across snapshots."""

    time_points: tuple[float, ...]
    snapshots: Mapping[float, SubstrateSnapshot]

    def __post_init__(self):
        if not self.time_points:
            raise ValueError("topology needs at least one time point")
        if not all(math.isfinite(t) for t in self.time_points):
            raise ValueError("time_points must be finite")
        if any(b <= a for a, b in zip(self.time_points, self.time_points[1:])):
            raise ValueError("time_points must be strictly increasing")
        if set(self.snapshots) != set(self.time_points):
            raise ValueError("snapshots must cover exactly the time points")
        counts = {s.node_count for s in self.snapshots.values()}
        if len(counts) != 1:
            raise ValueError(f"node count varies across snapshots: {sorted(counts)}")

    @property
    def node_count(self) -> int:
        return self.snapshots[self.time_points[0]].node_count

    @property
    def start_time(self) -> float:
        return self.time_points[0]

    def snapshot_at(self, t: float) -> SubstrateSnapshot:
        """Snapshot in force at time ``t`` (latest time point <= t)."""
        if t < self.time_points[0]:
            raise TimeBeforeStart(f"t={t} precedes first snapshot at {self.time_points[0]}")
        idx = bisect_right(self.time_points, t) - 1
        return self.snapshots[self.time_points[idx]]


def path_latency(snap: SubstrateSnapshot, path: PhysicalPath) -> float:
    """Total propagation latency of a path in ms; 0 for a single-node path."""
    for node in path.nodes:
        if not 0 <= node < snap.node_count:
            raise InvalidPath(f"node {node} outside substrate")
    return sum(snap.edge_latency(a, b) for a, b in path.edges())


def path_is_valid(snap: SubstrateSnapshot, path: PhysicalPath) -> bool:
    if any(not 0 <= node < snap.node_count for node in path.nodes):
        return False
    return all(snap.has_edge(a, b) for a, b in path.edges())


def shortest_feasible_path(
    snap: SubstrateSnapshot,
    src: int,
    dst: int,
    min_band: Fraction | int = 0,
    residual_band: Mapping[tuple[int, int], Fraction | int] | None = None,
) -> PhysicalPath | None:
    """Minimum-latency simple path using only edges with enough free bandwidth.

    ``residual_band`` maps canonical edge keys to free bandwidth (an edge it
    lacks has none free); when ``None`` the snapshot capacities are used
    (empty network).  ``min_band`` and the residuals may be any exact numbers,
    ints or Fractions, as long as they share one unit.  Among equal-latency
    paths the lexicographically smallest node sequence wins, which keeps
    traces reproducible.  Returns ``None`` when src and dst are disconnected under
    the bandwidth filter.
    """
    n = snap.node_count
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"endpoint outside substrate: src={src}, dst={dst}")
    if src == dst:
        return PhysicalPath((src,))

    def free(u: int, v: int) -> Fraction | int:
        if residual_band is None:
            return snap.link_band_capacity[u][v]
        return residual_band.get(edge_key(u, v), 0)

    # Lazy Dijkstra keyed on (latency, node sequence): the tuple comparison
    # settles latency ties lexicographically, and extending two simple paths
    # that end at the same node cannot flip their relative order.
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (src,))]
    settled: set[int] = set()
    while heap:
        cost, nodes = heapq.heappop(heap)
        head = nodes[-1]
        if head in settled:
            continue
        settled.add(head)
        if head == dst:
            return PhysicalPath(nodes)
        for nxt in snap.neighbors[head]:
            if nxt in settled:
                continue
            if free(head, nxt) < min_band:
                continue
            heapq.heappush(heap, (cost + snap.latency[head][nxt], nodes + (nxt,)))
    return None


# --- JSON (de)serialization -------------------------------------------------

def _num(x) -> int | float:
    """Render a Fraction/float as a compact JSON number."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else float(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def snapshot_from_json(doc: dict) -> SubstrateSnapshot:
    adjacency = tuple(tuple(bool(x) for x in row) for row in doc["adjacency"])
    n = len(adjacency)
    return SubstrateSnapshot(
        node_count=n,
        adjacency=adjacency,
        latency=tuple(tuple(float(x) for x in row) for row in doc["latency_ms"]),
        node_cpu_capacity=tuple(as_fraction(x) for x in doc["node_cpu"]),
        node_ram_capacity=tuple(as_fraction(x) for x in doc["node_ram_mb"]),
        link_band_capacity=tuple(tuple(as_fraction(x) for x in row)
                                 for row in doc["link_band_mbps"]),
    )


def snapshot_to_json(snap: SubstrateSnapshot) -> dict:
    return {
        "adjacency": [list(row) for row in snap.adjacency],
        "latency_ms": [[_num(x) for x in row] for row in snap.latency],
        "node_cpu": [_num(x) for x in snap.node_cpu_capacity],
        "node_ram_mb": [_num(x) for x in snap.node_ram_capacity],
        "link_band_mbps": [[_num(x) for x in row] for row in snap.link_band_capacity],
    }


def topology_from_json(doc: dict) -> SubstrateTopology:
    times = tuple(float(t) for t in doc["time_points"])
    raw_snaps = doc["snapshots"]
    if len(raw_snaps) != len(times):
        raise ValueError(
            f"snapshots length {len(raw_snaps)} != time_points length {len(times)}")
    snaps = {t: snapshot_from_json(s) for t, s in zip(times, raw_snaps)}
    return SubstrateTopology(time_points=times, snapshots=snaps)


def topology_to_json(topo: SubstrateTopology) -> dict:
    return {
        "time_points": [_num(t) for t in topo.time_points],
        "snapshots": [snapshot_to_json(topo.snapshots[t]) for t in topo.time_points],
    }
