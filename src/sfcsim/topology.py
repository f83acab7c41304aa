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
import numbers
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from types import MappingProxyType
from typing import Iterator, Mapping


class TimeBeforeStart(ValueError):
    """Query time precedes the first topology snapshot."""


class InvalidPath(ValueError):
    """A path references a node pair that is not an edge of the snapshot."""


# --- reading JSON values: one reader per value kind -------------------------

INPUT_ERRORS = (LookupError, TypeError, ValueError, ArithmeticError)  # a malformed value


def read_at(where: str, convert, *args):
    """``convert(*args)``, with any of INPUT_ERRORS re-raised naming ``where``."""
    try:
        return convert(*args)
    except INPUT_ERRORS as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_items(where: str, convert, value) -> tuple:
    """Each item of the JSON array ``value`` read by ``convert``; a bad item is named."""
    return tuple(read_at(f"{where}[{j}]", convert, x)
                 for j, x in enumerate(read_at(where, as_list, value)))


# The string grammar of Python 3.10's ``Fraction``, which later versions
# widen (``1_0``, ``1 / 5``), so a file reads alike on every version.
_FRACTION_LITERAL = re.compile(r"""
    \s*[-+]?(?=\d|\.\d)\d*                     # whitespace, sign, integer digits
    (?:/\d+|(?:\.\d*)?(?:e(?P<exp>[-+]?\d+))?)  # a denominator, or decimals and exponent
    \s*""", re.VERBOSE | re.IGNORECASE)
# CPython's default int-string digit limit; 10**exponent costs time growing with it.
MAX_EXPONENT = 4300


def as_fraction(value) -> Fraction:
    """Convert a JSON number (int, float, or numeric string) to a Fraction.

    Floats are routed through their shortest decimal repr, so a value written
    as ``0.2`` in a scenario file becomes exactly 1/5.  A string must match
    ``_FRACTION_LITERAL`` with an exponent of at most ``MAX_EXPONENT``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected a number, got a bool")
    if isinstance(value, numbers.Rational):  # an int, or another integer type
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite resource value: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        literal = _FRACTION_LITERAL.fullmatch(value)
        if literal is None:
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        if literal["exp"] and abs(int(literal["exp"])) > MAX_EXPONENT:
            raise ValueError(f"exponent {int(literal['exp'])} in {value!r} is outside "
                             f"-{MAX_EXPONENT}..{MAX_EXPONENT}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a resource quantity")


def _is_number(x) -> bool:
    """A real number that is not a bool, such as an int, a float or a Fraction."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def as_integer(value) -> int:
    """Convert a JSON integer field: ``3``, ``3.0`` and ``"3"`` load; a bool,
    3.5, NaN or infinity raise ValueError instead of truncating."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_float(value) -> float:
    """Convert a JSON number to a float: an int or a float, not a bool or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _flag(x) -> bool:
    if type(x) in (bool, int) and x in (0, 1):
        return bool(x)
    raise ValueError(f"expected a boolean or 0/1, got {x!r}")


def as_list(value) -> list:
    """A JSON array as is; a string or an object is not read as one."""
    if type(value) is not list:
        raise ValueError(f"expected an array, got {value!r}")
    return value


def as_object(value) -> dict:
    """A JSON object as is."""
    if type(value) is not dict:
        raise ValueError(f"expected an object, got {value!r}")
    return value


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
        return zip(self.nodes, self.nodes[1:])


@dataclass(frozen=True)
class SubstrateSnapshot:
    """State of the physical network at one timestamp.

    ``links[u]`` is a read-only mapping ``{v: (latency_ms, band)}`` over the neighbours
    of ``u`` in ascending order; each edge stores one tuple under both of its ends.
    :meth:`from_matrices` builds a snapshot from the scenario file's dense matrices.
    """

    node_count: int
    links: tuple[Mapping[int, tuple[float, Fraction]], ...]
    node_cpu_capacity: tuple[Fraction, ...]
    node_ram_capacity: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.node_count
        if n < 1:
            raise ValueError("snapshot needs at least one node")
        if len(self.links) != n:
            raise ValueError(f"links must have {n} entries")
        # Generated snapshots share a few capacity and band objects, so each
        # distinct object is tested once, in order of first use.  The dicts
        # hold the objects, so no id is reused while this runs.
        for name, vec in (("node_cpu_capacity", self.node_cpu_capacity),
                          ("node_ram_capacity", self.node_ram_capacity)):
            if len(vec) != n:
                raise ValueError(f"{name} must have {n} entries")
            distinct = dict(zip(map(id, vec), vec)).values()
            if any(x < 0 for x in distinct):
                raise ValueError(f"{name} has a negative entry")
            for x in distinct:
                if type(x) not in (int, Fraction):
                    raise ValueError(f"{name} entry {x!r} is not an int or a Fraction")
        good_bands = {}  # id -> band object that passed
        for u, row in enumerate(self.links):
            for v, edge in row.items():
                if not (type(v) is int and 0 <= v < n):
                    raise ValueError(f"neighbour {v!r} of node {u} outside substrate")
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                back = self.links[v].get(u)
                if back is not edge and back != edge:
                    raise ValueError(f"edge ({u},{v}) not symmetric")
                if u < v:
                    lat, band = edge
                    if not (math.isfinite(lat) and lat >= 0):
                        raise ValueError(f"bad latency {lat!r} on edge ({u},{v})")
                    if id(band) not in good_bands:
                        if not band >= 0:
                            raise ValueError(f"negative bandwidth on edge ({u},{v})")
                        if type(band) not in (int, Fraction):
                            raise ValueError(f"bandwidth {band!r} on edge ({u},{v})"
                                             " is not an int or a Fraction")
                        good_bands[id(band)] = band
        object.__setattr__(self, "links", tuple(MappingProxyType(dict(sorted(row.items())))
                                                for row in self.links))

    @classmethod
    def from_matrices(cls, adjacency, latency, link_band_capacity,
                      node_cpu_capacity, node_ram_capacity) -> "SubstrateSnapshot":
        """Snapshot from full symmetric n x n matrices, read only where ``adjacency``
        is true; one pass over the i < j pairs raises the first fault."""
        n = len(adjacency)
        for name, mat in (("adjacency", adjacency), ("latency", latency),
                          ("link_band_capacity", link_band_capacity)):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"{name} must be {n}x{n}")
        links = [{} for _ in range(n)]
        for i, (adj_i, lat_i, band_i) in enumerate(zip(adjacency, latency, link_band_capacity)):
            if adj_i[i]:
                raise ValueError(f"self-loop at node {i}")
            for j in range(i + 1, n):
                if adj_i[j] != adjacency[j][i]:
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")
                if not adj_i[j]:
                    continue
                lat, band = lat_i[j], band_i[j]
                if lat != latency[j][i]:
                    raise ValueError(f"latency not symmetric at ({i},{j})")
                if band != link_band_capacity[j][i]:
                    raise ValueError(f"bandwidth not symmetric at ({i},{j})")
                if not (math.isfinite(lat) and lat >= 0):
                    raise ValueError(f"bad latency {lat!r} on edge ({i},{j})")
                if band < 0:
                    raise ValueError(f"negative bandwidth on edge ({i},{j})")
                links[i][j] = links[j][i] = (lat, band)
        return cls(n, links, tuple(node_cpu_capacity), tuple(node_ram_capacity))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.links[u]

    def edge_latency(self, u: int, v: int) -> float:
        edge = self.links[u].get(v)
        if edge is None:
            raise InvalidPath(f"({u},{v}) is not an edge")
        return edge[0]

    def edge_band(self, u: int, v: int) -> Fraction:
        edge = self.links[u].get(v)
        if edge is None:
            raise InvalidPath(f"({u},{v}) is not an edge")
        return edge[1]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (low, high) pairs, lexicographic order."""
        return ((u, v) for u, row in enumerate(self.links) for v in row if v > u)


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
    total = 0  # left to right: from Python 3.12 on, sum() of floats rounds otherwise
    for a, b in path.edges():
        total += snap.edge_latency(a, b)
    return total


def path_is_valid(snap: SubstrateSnapshot, path: PhysicalPath) -> bool:
    if any(not 0 <= node < snap.node_count for node in path.nodes):
        return False
    return all(snap.has_edge(a, b) for a, b in path.edges())


class _OverBudget:
    """Type of :data:`OVER_BUDGET`."""

    __slots__ = ()

    def __repr__(self):
        return "OVER_BUDGET"


OVER_BUDGET = _OverBudget()  # a path passes the filter, but not within the budget


def shortest_feasible_path(snap: SubstrateSnapshot, src: int, dst: int, min_band: Fraction | int,
                           residual_band: Mapping[tuple[int, int], Fraction | int],
                           base: float = 0.0, limit: float = math.inf
                           ) -> PhysicalPath | _OverBudget | None:
    """Minimum-latency simple path using only edges with enough free bandwidth.

    ``residual_band`` maps canonical edge keys to free bandwidth (an edge it
    lacks has none free).  ``min_band`` and the residuals may be any exact
    numbers, ints or Fractions, as long as they share one unit.  Among
    equal-latency paths the lexicographically smallest node sequence wins, which
    keeps traces reproducible.  Returns ``None`` when no path passes the filter.

    ``base`` and ``limit`` are a latency budget: a path whose latency ``c``
    (its ``path_latency``; latencies are floats) gives ``base + c > limit``
    fails it, which is the solvers' QoS test, compared as they compare it.
    When the best path fails it, :data:`OVER_BUDGET` is returned instead;
    otherwise the result is the one the unbudgeted search gives.

    Proof: a relaxation whose cost fails the test is never pushed.
    Latencies are >= 0 and addition, rounded or not, is monotone, so a label
    that fails costs strictly more than any label that passes (``base + a
    <= limit < base + b`` gives ``a < b``), and each extension of it fails
    too.  The unbudgeted search therefore pops every passing label before
    any failing one; the pushed labels are exactly the passing ones and pop
    in the same order, settling the same nodes.  So a ``dst`` settled here
    is settled by the same label there, and a ``dst`` not settled here is
    reached there, if at all, by a failing label.  Which of those holds is
    decided by one reachability pass over the same band filter, from the
    heads of the labels left unpushed.
    """
    n = snap.node_count
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"endpoint outside substrate: src={src}, dst={dst}")
    if src == dst:
        return OVER_BUDGET if base > limit else PhysicalPath((src,))

    # Lazy Dijkstra keyed on (latency, node sequence): the tuple comparison
    # settles latency ties lexicographically, and extending two simple paths
    # that end at the same node cannot flip their relative order.  Costs add
    # up left to right from 0.0, as path_latency's do from 0 (the float start
    # keeps the addition specialized for floats).
    links, push, pop = snap.links, heapq.heappush, heapq.heappop
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (src,))]
    settled: set[int] = set()
    over: list[int] = []  # heads of the labels not pushed: over the budget
    while heap:
        cost, nodes = pop(heap)
        head = nodes[-1]
        if head in settled:
            continue
        settled.add(head)
        if head == dst:
            return PhysicalPath(nodes)
        for nxt, (latency, _) in links[head].items():
            if nxt not in settled and \
                    residual_band.get((head, nxt) if head < nxt else (nxt, head), 0) >= min_band:
                c = cost + latency
                if base + c > limit:
                    over.append(nxt)
                else:
                    push(heap, (c, nodes + (nxt,)))

    # Every node the filter lets src reach is settled or reachable from an
    # unpushed head through unsettled nodes.
    stack = [v for v in over if v not in settled]
    settled.update(stack)
    while stack:
        head = stack.pop()
        if head == dst:
            return OVER_BUDGET
        for nxt in links[head]:
            if nxt not in settled and \
                    residual_band.get((head, nxt) if head < nxt else (nxt, head), 0) >= min_band:
                settled.add(nxt)
                stack.append(nxt)
    return None


# --- JSON (de)serialization -------------------------------------------------

def _num(x) -> int | float | str:
    """Render a Fraction/float as a compact JSON number, or a Fraction that no
    float reads back to exactly (``as_fraction``) as the string ``"n/d"``."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        try:
            f = float(x)
        except OverflowError:  # beyond float range
            return str(x)
        return f if as_fraction(f) == x else str(x)
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def _cells(where: str, convert, value) -> tuple[tuple, ...]:
    """The matrix ``value`` converted cell by cell; a bad row or cell is named."""
    rows = read_at(where, as_list, value)
    try:
        return tuple(tuple(map(convert, as_list(row))) for row in rows)
    except INPUT_ERRORS:  # read again, naming the first bad row or cell
        return tuple(read_items(f"{where}[{i}]", convert, row) for i, row in enumerate(rows))


def _band_kind(value):
    """A band cell as is, once it is a kind ``as_fraction`` reads: an int or a
    finite float is one, anything else is tried."""
    if type(value) is not int and not (type(value) is float and math.isfinite(value)):
        as_fraction(value)
    return value


def _edge_fractions(adjacency, band) -> list:
    """``band`` with the cells where ``adjacency`` is true read as Fractions:
    the only cells a snapshot keeps."""
    rows = [list(row) for row in band]
    for adj_row, row in zip(adjacency, rows):
        for j in compress(range(len(row)), adj_row):
            row[j] = as_fraction(row[j])
    return rows


def topology_from_json(doc: dict) -> SubstrateTopology:
    times = read_items("time_points", as_float, doc["time_points"])
    raw_snaps = read_at("snapshots", as_list, doc["snapshots"])
    if len(raw_snaps) != len(times):
        raise ValueError(
            f"snapshots length {len(raw_snaps)} != time_points length {len(times)}")
    snaps = {}
    for k, (t, raw) in enumerate(zip(times, raw_snaps)):
        where = f"snapshots[{k}]"
        raw = read_at(where, as_object, raw)
        adjacency, latency, band = [
            _cells(f"{where}.{key}", convert, raw[key])
            for key, convert in (("adjacency", _flag), ("latency_ms", as_float),
                                 ("link_band_mbps", _band_kind))]
        capacities = [read_items(f"{where}.{key}", as_fraction, raw[key])
                      for key in ("node_cpu", "node_ram_mb")]
        snaps[t] = read_at(where, SubstrateSnapshot.from_matrices, adjacency, latency,
                           _edge_fractions(adjacency, band), *capacities)
    return SubstrateTopology(time_points=times, snapshots=snaps)


def topology_to_json(topo: SubstrateTopology) -> dict:
    """Dense matrices, one set per snapshot; a non-edge cell is 0 / false."""
    def dense(snap: SubstrateSnapshot, cell) -> list[list]:
        return [[cell(row[v]) if v in row else 0 for v in range(snap.node_count)]
                for row in snap.links]
    return {
        "time_points": [_num(t) for t in topo.time_points],
        "snapshots": [{
            "adjacency": [[v in row for v in range(snap.node_count)] for row in snap.links],
            "latency_ms": dense(snap, lambda edge: _num(edge[0])),
            "node_cpu": [_num(x) for x in snap.node_cpu_capacity],
            "node_ram_mb": [_num(x) for x in snap.node_ram_capacity],
            "link_band_mbps": dense(snap, lambda edge: _num(edge[1])),
        } for snap in map(topo.snapshots.get, topo.time_points)],
    }
