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
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
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


def as_record(value, keys) -> dict:
    """A JSON object holding each of ``keys``, and maybe more; a missing one is named."""
    missing = sorted(set(keys) - as_object(value).keys())
    if missing:
        raise ValueError(f"missing fields {missing}")
    return value


def read_items(where: str, convert, value, *args) -> tuple:
    """``convert(item, *args)`` for each item of the JSON array ``value``; a bad item is named."""
    return tuple(read_at(f"{where}[{j}]", convert, x, *args)
                 for j, x in enumerate(read_at(where, as_list, value)))


# The string grammar of Python 3.10's ``Fraction``, which later versions
# widen (``1_0``, ``1 / 5``), so a file reads alike on every version.
_FRACTION_LITERAL = re.compile(r"""
    \s*[-+]?(?=\d|\.\d)\d*                     # whitespace, sign, integer digits
    (?:/\d+|(?:\.\d*)?(?:e(?P<exp>[-+]?\d+))?)  # a denominator, or decimals and exponent
    \s*""", re.VERBOSE | re.IGNORECASE)
# CPython's default int-string digit limit: the most digits a file's number
# has on each side of its point, and its largest exponent, as 10**exponent
# costs time growing with it.
MAX_EXPONENT = 4300
_DIGITS_BOUND = 10**MAX_EXPONENT
_OUT_OF_RANGE = f"beyond float range or of over {MAX_EXPONENT} digits"


def _finite(x) -> bool:
    """Whether the number ``x`` converts to a finite float; one beyond float
    range does not."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_EXACT = frozenset({int, Fraction})  # the one exactness rule, by type: no bool, float or subclass


def _in_range(x: int | Fraction) -> bool:
    """The one magnitude rule of an exact quantity: at most ``MAX_EXPONENT``
    digits in its numerator and in its denominator, and a finite float."""
    return max(abs(x.numerator), x.denominator) < _DIGITS_BOUND and _finite(x)


def as_fraction(value) -> Fraction:
    """Convert a JSON number (int, float, or numeric string) to a Fraction.

    Floats are routed through their shortest decimal repr, so a value written
    as ``0.2`` in a scenario file becomes exactly 1/5.  A string must match
    ``_FRACTION_LITERAL`` with an exponent of at most ``MAX_EXPONENT``, and
    every result must pass ``_in_range``.
    """
    if isinstance(value, bool):
        raise TypeError("expected a number, got a bool")
    elif isinstance(value, numbers.Rational):  # a Fraction, an int or another rational
        x = value if type(value) is Fraction else Fraction(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite resource value: {value!r}")
        x = Fraction(str(value))
    elif isinstance(value, str):
        literal = _FRACTION_LITERAL.fullmatch(value)
        if literal is None:
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        if literal["exp"] and abs(int(literal["exp"])) > MAX_EXPONENT:
            raise ValueError(f"exponent {int(literal['exp'])} in {value!r} is outside "
                             f"-{MAX_EXPONENT}..{MAX_EXPONENT}")
        x = Fraction(value)
    else:
        raise TypeError(f"cannot interpret {value!r} as a resource quantity")
    if not _in_range(x):
        raise ValueError(f"quantity {_OUT_OF_RANGE}")  # no repr: one of 4301 digits raises
    return x


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
    Every way in (these rows, the matrices, the generator's edge map) ends in
    :meth:`_build`, the one check of each edge's values.
    """

    node_count: int
    links: tuple[Mapping[int, tuple[float, Fraction]], ...]
    node_cpu_capacity: tuple[Fraction, ...]
    node_ram_capacity: tuple[Fraction, ...]

    def __post_init__(self):
        """Check the rows' structure: each neighbour in range, no self-loop and
        an equal value under the other end; then build from their edges."""
        n, links = self.node_count, self.links
        if n < 1:
            raise ValueError("snapshot needs at least one node")
        if len(links) != n:
            raise ValueError(f"links must have {n} entries")
        edges = {}
        for u, row in enumerate(links):
            for v, edge in row.items():
                if not (type(v) is int and 0 <= v < n):
                    raise ValueError(f"neighbour {v!r} of node {u} outside substrate")
                if v == u:
                    raise ValueError(f"self-loop at node {u}")
                back = links[v].get(u)
                if back is not edge and back != edge:
                    raise ValueError(f"edge ({u},{v}) not symmetric")
                if u < v:
                    edges[u * n + v] = edge
        self._build(n, edges, self.node_cpu_capacity, self.node_ram_capacity, ({}, {}))

    @classmethod
    def _from_edges(cls, n: int, edges: dict, cpu: tuple, ram: tuple,
                    vetted: tuple[dict, dict] | None = None,
                    positions: bytes | None = None,
                    radius: float | None = None) -> "SubstrateSnapshot":
        """Snapshot from the edge map ``{u * n + v: (latency_ms, band)}`` over
        the edges u < v, built by :meth:`_build` with the caller's memo
        ``vetted``, or a fresh one, and the node ``positions`` with their
        ``radius``, if given."""
        snap = object.__new__(cls)
        snap._build(n, edges, cpu, ram, ({}, {}) if vetted is None else vetted,
                    positions, radius)
        return snap

    def _build(self, n: int, edges: dict, cpu: tuple, ram: tuple, vetted: tuple[dict, dict],
               positions: bytes | None = None, radius: float | None = None) -> None:
        """Check the capacities and each edge of ``edges`` once, and set every field.

        ``edges`` maps ``u * n + v`` to the edge's ``(latency_ms, band)`` for
        u < v.  Keys are taken in ascending order, and each edge's one tuple is
        written under both ends of fresh rows, so the rows are symmetric and
        ascending by construction.  A fault shared by several edges is named
        at the lowest one.

        ``vetted`` is the caller's memo: two dicts, ``id -> object``, of the
        capacity tuples and of the bands that passed their checks.  An object
        found there is not tested again, so a generator that hands every
        snapshot of a run one memo tests each shared object once per run.
        The memo holds its objects, so no id is reused while it lives; a
        tuple of ints and Fractions cannot change, a list can, so only a
        tuple enters.  The two roles keep apart: a tuple that passed as a
        capacity vector is still tested as a band.  A faulty object never
        enters, so every build that meets it raises the same message.

        ``positions`` is private to the SAGIN generator: each node's (x, y, z)
        in km, packed as ``3n`` doubles, such that every edge's latency is
        ``math.dist`` of its ends' positions divided by ``LIGHT_KM_PER_MS``.
        They come with ``radius``, at least every coordinate's magnitude in
        km (the generator computes one per run), and positions without it
        are refused.  The path search draws its lower bound from the
        positions and scales its guard by the radius
        (:func:`shortest_feasible_path`).  Both are set as attributes, not
        fields, so equality, ``repr`` and the JSON writer never see them;
        every other way in leaves them None.
        """
        if n < 1:
            raise ValueError("snapshot needs at least one node")
        if positions is not None and radius is None:
            raise ValueError("node positions need a radius")
        good_vectors, good_bands = vetted
        # Generated snapshots share a few capacity and band objects, so each
        # distinct object is tested once, in order of first use.
        for name, vec in (("node_cpu_capacity", cpu), ("node_ram_capacity", ram)):
            if len(vec) != n:
                raise ValueError(f"{name} must have {n} entries")
            if id(vec) in good_vectors:
                continue
            distinct = dict(zip(map(id, vec), vec)).values()
            if any(_is_number(x) and x < 0 for x in distinct):
                raise ValueError(f"{name} has a negative entry")
            for x in distinct:
                if type(x) not in _EXACT:
                    raise ValueError(f"{name} entry {x!r} is not an int or a Fraction")
                if not _in_range(x):
                    raise ValueError(f"{name} has an entry {_OUT_OF_RANGE}")
            if type(vec) is tuple:
                good_vectors[id(vec)] = vec
        if not set(map(type, edges)) <= {int}:
            key = next(k for k in edges if type(k) is not int)
            raise ValueError(f"edge key {key!r} is not an int")
        keys = sorted(edges)
        if keys and not (keys[0] >= 0 and keys[-1] < n * n):
            key = keys[0] if keys[0] < 0 else keys[bisect_left(keys, n * n)]
            raise ValueError(f"edge key {key} outside 0..{n * n - 1}")
        rows = [{} for _ in range(n)]
        isfinite = math.isfinite
        passed = None  # the last band to pass: the next edge often shares it
        for key in keys:
            u = key // n
            v = key - u * n
            if u >= v:
                raise ValueError(f"edge key {key} is ({u},{v}), not u < v")
            edge = edges[key]
            lat, band = edge
            if not (isfinite(lat) and lat >= 0):
                raise ValueError(f"bad latency {lat!r} on edge ({u},{v})")
            if band is not passed and id(band) not in good_bands:
                if _is_number(band) and not band >= 0:  # NaN included
                    raise ValueError(f"negative bandwidth on edge ({u},{v})")
                if type(band) not in _EXACT:
                    raise ValueError(f"bandwidth {band!r} on edge ({u},{v})"
                                     " is not an int or a Fraction")
                if not _in_range(band):
                    raise ValueError(f"bandwidth on edge ({u},{v}) is {_OUT_OF_RANGE}")
                good_bands[id(band)] = band
            passed = band
            rows[u][v] = rows[v][u] = edge
        for name, value in (("node_count", n), ("links", tuple(map(MappingProxyType, rows))),
                            ("node_cpu_capacity", cpu), ("node_ram_capacity", ram),
                            ("_positions", positions), ("_radius", radius),
                            ("_bound_scale", None)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_matrices(cls, adjacency, latency, link_band_capacity,
                      node_cpu_capacity, node_ram_capacity) -> "SubstrateSnapshot":
        """Snapshot from full symmetric n x n matrices, read only where ``adjacency``
        is true.  One pass over the i < j pairs checks the symmetry and hands the
        edges to :meth:`_build`; a fault names the first pair that a check of
        each pair in turn, symmetry then values, would name."""
        n = len(adjacency)
        for name, mat in (("adjacency", adjacency), ("latency", latency),
                          ("link_band_capacity", link_band_capacity)):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValueError(f"{name} must be {n}x{n}")
        cpu, ram = tuple(node_cpu_capacity), tuple(node_ram_capacity)
        edges = {}

        def fault(message: str) -> ValueError:
            cls._from_edges(n, edges, cpu, ram)  # a fault on an earlier pair goes first
            return ValueError(message)

        for i, (adj_i, lat_i, band_i) in enumerate(zip(adjacency, latency, link_band_capacity)):
            if adj_i[i]:
                raise fault(f"self-loop at node {i}")
            for j in range(i + 1, n):
                if adj_i[j] != adjacency[j][i]:
                    raise fault(f"adjacency not symmetric at ({i},{j})")
                if not adj_i[j]:
                    continue
                lat, band = lat_i[j], band_i[j]
                if lat != latency[j][i]:
                    raise fault(f"latency not symmetric at ({i},{j})")
                if band != link_band_capacity[j][i]:
                    raise fault(f"bandwidth not symmetric at ({i},{j})")
                edges[i * n + j] = (lat, band)
        return cls._from_edges(n, edges, cpu, ram)

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
    nodes, n, links = path.nodes, snap.node_count, snap.links
    for node in nodes:
        if not 0 <= node < n:
            raise InvalidPath(f"node {node} outside substrate")
    total = 0  # left to right: from Python 3.12 on, sum() of floats rounds otherwise
    for a, b in zip(nodes, nodes[1:]):
        edge = links[a].get(b)
        if edge is None:
            raise InvalidPath(f"({a},{b}) is not an edge")
        total += edge[0]
    return total


def path_is_valid(snap: SubstrateSnapshot, path: PhysicalPath) -> bool:
    nodes, n, links = path.nodes, snap.node_count, snap.links
    for node in nodes:
        if not 0 <= node < n:
            return False
    for a, b in zip(nodes, nodes[1:]):
        if b not in links[a]:
            return False
    return True


class _OverBudget:
    """Type of :data:`OVER_BUDGET`."""

    __slots__ = ()

    def __repr__(self):
        return "OVER_BUDGET"


OVER_BUDGET = _OverBudget()  # a path passes the filter, but not within the budget

LIGHT_KM_PER_MS = 299.792458  # a generated edge's latency is its length over this
_XYZ = struct.Struct("3d")  # one node's (x, y, z) in km, in a snapshot's position buffer
_SHRINK = 2.0 ** -10  # ε of the search's lower bound; 1 - ε is exact
_BOUND_PER_KM = (1 - _SHRINK) / LIGHT_KM_PER_MS
_GUARD = 2.0 ** -44  # the bound is used when ε·l_min > _GUARD·(|limit| + |base| + r/c)


def _bound_holds(snap: SubstrateSnapshot, base: float, limit: float) -> bool:
    """Whether a search under this budget uses the lower bound: the snapshot
    has positions and passes the guard (see :func:`shortest_feasible_path`).
    ``r`` is the radius handed over with the positions; the snapshot's
    shortest edge latency is found at its first search."""
    if snap._positions is not None:
        scale = snap._bound_scale
        if scale is None:
            l_min = math.inf
            for row in snap.links:
                for lat, _ in row.values():
                    if lat < l_min:
                        l_min = lat
            scale = l_min, snap._radius / LIGHT_KM_PER_MS
            object.__setattr__(snap, "_bound_scale", scale)
        l_min, r_ms = scale
        return _SHRINK * l_min > _GUARD * (abs(limit) + abs(base) + r_ms)
    return False


def shortest_feasible_path(snap: SubstrateSnapshot, src: int, dst: int, min_band: Fraction | int,
                           residual_band: Mapping[tuple[int, int], Fraction | int],
                           base: float = 0.0, limit: float = math.inf
                           ) -> PhysicalPath | _OverBudget | None:
    """Minimum-latency simple path using only edges with enough free bandwidth.

    ``residual_band`` maps canonical edge keys to free bandwidth (an edge it
    lacks has none free), and an edge passes at ``>= min_band``: a negative
    amount blocks even a zero-demand leg.  ``min_band`` and the residuals are
    exact numbers, ints or Fractions, in one unit.  Among equal-latency paths
    the lexicographically smallest node sequence wins, which keeps traces
    reproducible.  Returns ``None`` when no path passes the filter.

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

    The search is A* (Hart, Nilsson and Raphael, 1968) and returns what
    that Dijkstra search returns.  A label of cost ``g`` heading at ``v`` is
    keyed ``(f, g, nodes)`` with ``f = fl(g + h(v))``, and the budget test
    reads ``base + f > limit``.  On a generated snapshot ``h(v) =
    fl(dist(p_v, p_dst)·k)``, ``k = fl((1 − ε)/c)``, from the positions the
    generator stored (``_build``), for which every edge latency is
    ``l_uv = fl(dist(p_u, p_v)/c)``, ``c = LIGHT_KM_PER_MS``.  Elsewhere, or
    where the guard below fails, ``h ≡ 0``: the key is ``(g, g, nodes)`` and
    the test ``base + g > limit``, the Dijkstra search itself.  Write D(v)
    for the label that Dijkstra settles ``v`` with; its prefixes are the
    D-labels of their heads.  Dijkstra pops in ascending ``(g, nodes)``
    order and an extension sorts after its parent, so D(v) is no greater
    than any extension of a D-label to ``v``.

    (a) ``h >= 0``, and ``h(dst) = 0`` since ``dist(p, p) = 0``.  So ``f >=
    g``, and a label that fails the old test fails the new one.

    (b) Consistency in floats: ``fl(g + h(u)) <= fl(fl(g + l_uv) + h(v))``
    for every edge and every ``g`` in ``[0, G]``, ``G = 2(|limit| +
    |base|)``, which bounds the cost of any label whose ``f`` passes.  Let
    ``δ = 2^-53`` and D the exact distances of the stored points.  A
    coordinate difference rounds once and ``math.dist`` is within 1 ulp
    (Python 3.10 on), so ``dist`` is within ``4δ`` of D, ``l`` within
    ``6δ`` of ``D/c`` and ``h`` within ``7δ`` of ``(1 − ε)D/c``, relatively.
    Rounding is monotone, so it is enough that ``g + h(u) <= fl(g + l) +
    h(v)``.  With ``fl(g + l) >= (g + l)(1 − δ)`` and the triangle
    inequality ``D_u <= D_uv + D_v`` that holds once ``δ·g + 14δ·D_v/c <=
    (ε − 14δ)·D_uv/c``.  ``D_v <= 2√3·r`` for any ``r`` at least every
    coordinate's magnitude, the radius the generator hands over once per
    run, and ``ε = 2^-10``, so ``δ·G + 2^-47·r/c <= ε·l_min/4`` suffices,
    ``l_min`` the snapshot's shortest edge latency.  A larger ``r`` only
    makes the guard stricter, and where it fails the search is Dijkstra's,
    which is exact.  The guard asks
    ``ε·l_min > 2^-44·(|limit| + |base| + r/c)``, at least twice that even
    after its own rounding.  It fails for an infinite or NaN budget, for
    edges of a few millimetres or less (at a 100 ms budget on an orbit's
    scale) and for astronomically large coordinates; then ``h ≡ 0``.

    (c) The first label popped for each node is its D-label.  By induction
    on pops, let L pop first for ``v``; its parent is a settled node's
    D-label, so ``D(v) <= L`` by ``(g, nodes)``.  Let ``x`` be the first
    unsettled node on D(v)'s path.  Its D-label was pushed when its
    predecessor settled: by (b) along the path (each ``g`` on it is at most
    ``g(L) <= f(L)``), ``f(D(x)) <= f(D(v)) <= f(L)``, and L passed the
    test.  L popped before it, so ``f(L) <= f(D(x))``: the three ``f``
    tie, and the key falls back to ``g``: ``g(L) <= g(D(x)) <= g(D(v)) <=
    g(L)``.  Those tie too, and then
    ``nodes(L) <= nodes(D(x)) <= nodes(D(v)) <= nodes(L)``, since a prefix
    sorts before its sequence.  So ``x = v`` and L = D(v).

    (d) When Dijkstra's D(dst) passes the budget, no label on its path is
    pruned: each has ``f <= f(D(dst)) = g(D(dst))`` by (b) and (a).  Were
    ``dst`` never popped, the first unsettled node of that path would have
    had its D-label pushed and popped, a contradiction; by (c) it pops with
    D(dst).  A popped ``dst`` passed ``base + g <= limit``.  When ``dst`` is
    not popped, every node the filter lets ``src`` reach is settled or
    reachable from an unpushed head through unsettled nodes, as before, so
    the reachability pass gives the same ``None`` or OVER_BUDGET.

    ``h`` is computed once per search for each node relaxed, not for all;
    where it is 0 nothing is computed or stored.
    """
    n = snap.node_count
    if not (0 <= src < n and 0 <= dst < n):
        raise ValueError(f"endpoint outside substrate: src={src}, dst={dst}")
    if src == dst:
        return OVER_BUDGET if base > limit else PhysicalPath((src,))

    # Lazy A* keyed on (f, latency, node sequence): the tuple comparison
    # settles ties lexicographically, and extending two simple paths that
    # end at the same node cannot flip their relative order.  Costs add up
    # left to right from 0.0, as path_latency's do from 0 (the float start
    # keeps the addition specialized for floats).
    links, push, pop = snap.links, heapq.heappush, heapq.heappop
    positions, dist, unpack = snap._positions, math.dist, _XYZ.unpack_from
    h, unknown = {}, None if _bound_holds(snap, base, limit) else 0.0
    target = None if positions is None else unpack(positions, _XYZ.size * dst)
    heap: list[tuple[float, float, tuple[int, ...]]] = [(0.0, 0.0, (src,))]
    settled: set[int] = set()
    over: list[int] = []  # heads of the labels not pushed: over the budget
    while heap:
        _, cost, nodes = pop(heap)
        head = nodes[-1]
        if head in settled:
            continue
        settled.add(head)
        if head == dst:
            return PhysicalPath(nodes)
        for nxt, (latency, _) in links[head].items():
            if nxt not in settled and residual_band.get(
                    (head, nxt) if head < nxt else (nxt, head), 0) >= min_band:
                c = cost + latency
                bound = h.get(nxt, unknown)
                if bound is None:
                    bound = h[nxt] = (dist(unpack(positions, _XYZ.size * nxt), target)
                                      * _BOUND_PER_KM)
                f = c + bound
                if base + f > limit:
                    over.append(nxt)
                else:
                    push(heap, (f, c, nodes + (nxt,)))

    # Every node the filter lets src reach is settled or reachable from an
    # unpushed head through unsettled nodes.  Only whether dst is reachable
    # matters, so the pass ends where it first meets dst.
    if dst in over:
        return OVER_BUDGET
    stack = [v for v in over if v not in settled]
    settled.update(stack)
    while stack:
        head = stack.pop()
        for nxt in links[head]:
            if nxt not in settled and residual_band.get(
                    (head, nxt) if head < nxt else (nxt, head), 0) >= min_band:
                if nxt == dst:
                    return OVER_BUDGET
                settled.add(nxt)
                stack.append(nxt)
    return None


# --- JSON (de)serialization -------------------------------------------------

def _num(x) -> int | float | str:
    """Render a Fraction/float as a JSON value that ``as_fraction`` reads back.

    An integer, or a Fraction that a float reads back to exactly, is written
    as a JSON number, and any other Fraction as the string ``"n/d"``; the
    magnitude rule (``_in_range``) keeps each part within 4300 digits.
    """
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        f = float(x)
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


def _exact_reader():
    """``as_fraction`` for one document, memoized for an int or a float by
    ``(type, value)``: equal numbers share one Fraction, a bool never meets
    the entry of 1, and any other kind is read anew each time."""
    memo = {}

    def read(value):
        kind = type(value)
        if kind is not int and kind is not float:
            return as_fraction(value)
        x = memo.get((kind, value))
        if x is None:  # a value that raises never enters
            x = memo[kind, value] = as_fraction(value)
        return x
    return read


def topology_from_json(doc: dict) -> SubstrateTopology:
    """Topology from the document ``topology_to_json`` writes.

    Every cell must be of its matrix's kind.  Each exact-quantity cell
    (``link_band_mbps``, ``node_cpu``, ``node_ram_mb``) is read by one
    ``as_fraction`` per distinct JSON number in the document, and equal
    values share one Fraction.  A fault names its snapshot and cell.
    """
    as_record(doc, ("time_points", "snapshots"))
    times = read_items("time_points", as_float, doc["time_points"])
    raw_snaps = read_items("snapshots", as_record, doc["snapshots"], (
        "adjacency", "latency_ms", "link_band_mbps", "node_cpu", "node_ram_mb"))
    if len(raw_snaps) != len(times):
        raise ValueError(
            f"snapshots length {len(raw_snaps)} != time_points length {len(times)}")
    exact = _exact_reader()
    snaps = {}
    for k, (t, raw) in enumerate(zip(times, raw_snaps)):
        where = f"snapshots[{k}]"
        matrices = [_cells(f"{where}.{key}", convert, raw[key])
                    for key, convert in (("adjacency", _flag), ("latency_ms", as_float),
                                         ("link_band_mbps", exact))]
        capacities = [read_items(f"{where}.{key}", exact, raw[key])
                      for key in ("node_cpu", "node_ram_mb")]
        snaps[t] = read_at(where, SubstrateSnapshot.from_matrices, *matrices, *capacities)
    return SubstrateTopology(time_points=times, snapshots=snaps)


def topology_to_json(topo: SubstrateTopology) -> dict:
    """Dense matrices, one set per snapshot; a non-edge cell is 0 / false.

    Generated snapshots share edge and capacity tuples, so each tuple's
    cells are converted once per call, in a memo keyed by ``id()``: the
    topology holds every key object until the call returns.  Every row and
    vector is a fresh list, so the document shares no mutable object.
    """
    converted = {}  # id(edge or capacity tuple) -> its cells through _num

    def cells(obj: tuple) -> tuple:
        got = converted.get(id(obj))
        if got is None:
            got = converted[id(obj)] = tuple(map(_num, obj))
        return got

    def matrices(snap: SubstrateSnapshot) -> dict:
        n = snap.node_count
        adjacency, latency, band = [], [], []
        for links in snap.links:
            adj_row, lat_row, band_row = [False] * n, [0] * n, [0] * n
            for v, edge in links.items():
                adj_row[v] = True
                lat_row[v], band_row[v] = cells(edge)
            adjacency.append(adj_row)
            latency.append(lat_row)
            band.append(band_row)
        return {"adjacency": adjacency, "latency_ms": latency,
                "node_cpu": list(cells(snap.node_cpu_capacity)),
                "node_ram_mb": list(cells(snap.node_ram_capacity)),
                "link_band_mbps": band}
    return {"time_points": [_num(t) for t in topo.time_points],
            "snapshots": [matrices(snap) for snap in map(topo.snapshots.get, topo.time_points)]}
