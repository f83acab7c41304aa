"""Resource ledger, embedding plans, and orchestration-side plan validation.

The ledger plays the infrastructure-manager role: it tracks how much of each
node's cpu/ram and each edge's bandwidth is occupied by active service chains
and enforces conservation exactly (integer units, no float drift).
Plan checking is the orchestrator-side gate every solver decision passes
through before resources move.
"""

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import sub

from .topology import (_EXACT, InvalidPath, PhysicalPath, SubstrateSnapshot, edge_key,
                       path_is_valid, path_latency)
from .workload import SfcRequest, VnfCatalog


class DuplicateSfc(ValueError):
    """An allocation already exists for this sfc_id."""


class UnknownSfc(KeyError):
    """No active allocation for this sfc_id."""


class InsufficientResources(ValueError):
    """``allocate``'s fit rule failed: the plan does not fit the free resources."""


class FailureReason(Enum):
    """Why an SFC was rejected, or why a running SFC was cut short."""

    NODE_CPU_INSUFFICIENT = "NodeCpuInsufficient"
    NODE_RAM_INSUFFICIENT = "NodeRamInsufficient"
    LINK_BANDWIDTH_INSUFFICIENT = "LinkBandwidthInsufficient"
    NO_PATH = "NoPath"
    QOS_LATENCY_VIOLATED = "QosLatencyViolated"
    MIGRATION_FAILED = "MigrationFailed"
    SOLVER_REJECTED = "SolverRejected"


@dataclass(frozen=True)
class EmbeddingPlan:
    """The solver's mapping table: placements, routing paths, allocations.

    ``virtual_link_paths`` has one entry per virtual link of the end-to-end
    chain: ingress -> vnf_1, each consecutive VNF pair, vnf_k -> egress
    (chain length + 1 paths).  Allocation maps are the per-node / per-edge
    sums implied by the placement, the template demands, and the paths.
    """

    sfc_id: int
    vnf_placement: tuple[int, ...]
    virtual_link_paths: tuple[PhysicalPath, ...]
    cpu_alloc: Mapping[int, Fraction]
    ram_alloc: Mapping[int, Fraction]
    band_alloc: Mapping[tuple[int, int], Fraction]
    total_latency: float


_ZERO = Fraction(0)  # the demand of the legs to and from the chain's endpoints
_NO_EDGE = (None, _ZERO)  # find_affected_sfcs: a held edge the snapshot lacks has no band


def leg_band_demands(request: SfcRequest, catalog: VnfCatalog) -> tuple[Fraction, ...]:
    """Bandwidth demand per virtual link, ingress/egress legs included.

    The catalog only declares demands between VNF templates; the legs that
    anchor the chain to its endpoints carry no bandwidth of their own.
    """
    inner = []
    for a, b in zip(request.vnf_chain, request.vnf_chain[1:]):
        band = catalog.band_demand(a, b)
        if band is None:
            raise ValueError(f"no bandwidth demand declared for template pair ({a},{b})")
        inner.append(band)
    return (_ZERO, *inner, _ZERO)


def _sum_per_key(placement, cpu, ram, paths, band) -> tuple[dict, dict, dict]:
    """Units per key: position i's ``cpu[i]`` and ``ram[i]`` on the node
    ``placement[i]``, and leg j's ``band[j]``, where it is not 0, on every
    edge of ``paths[j]`` under the edge's canonical key."""
    cpu_sums, ram_sums, band_sums = {}, {}, {}
    for node, c, r in zip(placement, cpu, ram):
        cpu_sums[node] = cpu_sums.get(node, 0) + c
        ram_sums[node] = ram_sums.get(node, 0) + r
    for demand, path in zip(band, paths):
        if demand != 0:
            for a, b in path.edges():
                key = edge_key(a, b)
                band_sums[key] = band_sums.get(key, 0) + demand
    return cpu_sums, ram_sums, band_sums


def _plan_sums(request: SfcRequest, catalog: VnfCatalog, placement, paths) -> tuple:
    """cpu and ram per node and bandwidth per edge key, in the integer units
    ``to_units`` gives each kind's demands (one per position, one per leg), and
    the three scales."""
    hosted = [catalog.templates[vnf_id] for _, vnf_id in zip(placement, request.vnf_chain)]
    (cpu, cpu_scale), (ram, ram_scale), (band, band_scale) = (
        to_units(amounts, 1) for amounts in ([t.cpu_demand for t in hosted],
                                             [t.ram_demand for t in hosted],
                                             leg_band_demands(request, catalog)))
    return _sum_per_key(placement, cpu, ram, paths, band), (cpu_scale, ram_scale, band_scale)


def _same_amounts(alloc: Mapping, sums: dict, scale: int) -> bool:
    """``alloc``, whose amounts are exact, holds ``sums`` over ``scale``: the
    same keys, and each amount equal to its sum by cross-multiplication."""
    return alloc.keys() == sums.keys() and all(
        x.numerator * scale == sums[key] * x.denominator for key, x in alloc.items())


def _assemble_plan(sfc_id: int, placement: tuple, paths: tuple, sums, scales,
                   total_latency: float) -> EmbeddingPlan:
    """The plan whose allocations are ``sums`` over ``scales``, one Fraction
    per key in ascending key order."""
    cpu, ram, band = ({key: Fraction(units, scale) for key, units in sorted(per_key.items())}
                      for per_key, scale in zip(sums, scales))
    return EmbeddingPlan(sfc_id=sfc_id, vnf_placement=placement, virtual_link_paths=paths,
                         cpu_alloc=cpu, ram_alloc=ram, band_alloc=band,
                         total_latency=total_latency)


def build_plan(request: SfcRequest, catalog: VnfCatalog, snap: SubstrateSnapshot,
               placement, paths) -> EmbeddingPlan:
    """Assemble a plan from a placement and per-leg paths, deriving allocations.

    Each allocation is summed in integer units and becomes one Fraction per key."""
    placement = tuple(placement)
    paths = tuple(paths)
    total = 0  # left to right, as in path_latency
    for path in paths:
        total += path_latency(snap, path)
    return _assemble_plan(request.sfc_id, placement, paths,
                          *_plan_sums(request, catalog, placement, paths), total)


def plan_structure_errors(plan: EmbeddingPlan, request: SfcRequest,
                          catalog: VnfCatalog, snap: SubstrateSnapshot) -> list[str]:
    """Structural completeness check for a solver-produced plan.

    Returns human-readable problems; an empty list means the plan is wired
    correctly: it is for this request, placements cover the chain, every leg
    runs between its waypoints over nodes and edges of ``snap``, and the
    allocation maps and latency match what the placement implies.  Types
    are tested before any attribute is read, so a malformed answer is a
    problem, not an exception.
    """
    if not isinstance(plan, EmbeddingPlan):
        return [f"plan is a {type(plan).__name__}, not an EmbeddingPlan"]
    for name, kind in (("vnf_placement", Sequence), ("virtual_link_paths", Sequence),
                       ("cpu_alloc", Mapping), ("ram_alloc", Mapping), ("band_alloc", Mapping)):
        value = getattr(plan, name)
        if not isinstance(value, kind):
            return [f"{name} is a {type(value).__name__}, not a {kind.__name__.lower()}"]
    for i, path in enumerate(plan.virtual_link_paths):
        if not isinstance(path, PhysicalPath):
            return [f"leg {i} is a {type(path).__name__}, not a PhysicalPath"]
        if not isinstance(path.nodes, Sequence):
            return [f"leg {i} has its nodes in a {type(path.nodes).__name__}, not a sequence"]
    if plan.sfc_id != request.sfc_id:
        return [f"plan is for sfc {plan.sfc_id}, not {request.sfc_id}"]
    problems: list[str] = []
    k = len(request.vnf_chain)
    if len(plan.vnf_placement) != k:
        problems.append(f"placement covers {len(plan.vnf_placement)} of {k} positions")
    if len(plan.virtual_link_paths) != k + 1:
        problems.append(f"expected {k + 1} virtual link paths, got {len(plan.virtual_link_paths)}")
    if problems:
        return problems

    # 1.0 == 1 and {1.0: x} == {1: x}, yet a float cannot index a node.
    named = [*plan.vnf_placement, *plan.cpu_alloc, *plan.ram_alloc]
    for path in plan.virtual_link_paths:
        named += path.nodes
    for key in plan.band_alloc:
        named += key if type(key) is tuple else (key,)
    if not {int}.issuperset(map(type, named)):
        return ["a node or an allocation key is not an int"]
    amounts = [*plan.cpu_alloc.values(), *plan.ram_alloc.values(), *plan.band_alloc.values()]
    if not _EXACT.issuperset(map(type, amounts)):  # 20.0 == 20, yet no unit count
        return ["an allocated amount is not an int or a Fraction"]

    waypoints = (request.ingress, *plan.vnf_placement, request.egress)
    total = 0  # left to right, as in path_latency; read only when every leg is valid
    for i, path in enumerate(plan.virtual_link_paths):
        if path.nodes[0] != waypoints[i] or path.nodes[-1] != waypoints[i + 1]:
            problems.append(f"leg {i} runs {path.nodes[0]}->{path.nodes[-1]}, "
                            f"expected {waypoints[i]}->{waypoints[i + 1]}")
            continue
        try:
            total += path_latency(snap, path)
        except InvalidPath:
            problems.append(f"leg {i} {path.nodes} leaves the substrate's nodes or edges")
    if problems:
        return problems

    (cpu, ram, band), (cpu_scale, ram_scale, band_scale) = _plan_sums(
        request, catalog, plan.vnf_placement, plan.virtual_link_paths)
    if not _same_amounts(plan.cpu_alloc, cpu, cpu_scale):
        problems.append("cpu_alloc does not match placement demands")
    if not _same_amounts(plan.ram_alloc, ram, ram_scale):
        problems.append("ram_alloc does not match placement demands")
    if not _same_amounts(plan.band_alloc, band, band_scale):
        problems.append("band_alloc does not match path demands")
    if plan.total_latency != total:
        problems.append(f"total_latency {plan.total_latency} != {total}")
    return problems


def _over_drawn(plan: EmbeddingPlan, units: "FreeUnits") -> FailureReason | None:
    """The first resource, cpu then ram then bandwidth, that ``plan`` asks
    more of than ``units`` has free; a node or edge the view lacks has none free.
    A negative amount, a key or an amount of the wrong kind, or a band key with a
    member other than an int (it can equal an edge's: (0.0, 1.0) == (0, 1)) fits nowhere."""
    n = len(units.cpu)
    for alloc, free, scale, reason in (
            (plan.cpu_alloc, units.cpu, units.cpu_scale, FailureReason.NODE_CPU_INSUFFICIENT),
            (plan.ram_alloc, units.ram, units.ram_scale, FailureReason.NODE_RAM_INSUFFICIENT),
            (plan.band_alloc, units.band, units.band_scale,
             FailureReason.LINK_BANDWIDTH_INSUFFICIENT)):
        try:
            for key, x in alloc.items():
                num = x.numerator
                room = free.get(key) if free is units.band else free[key] if 0 <= key < n else None
                if room is None or num < 0 or num * scale > room * x.denominator:  # x > room/scale
                    return reason
            if free is units.band and not {int}.issuperset(map(type, chain.from_iterable(alloc))):
                return reason
        except (AttributeError, TypeError):  # 1.0, "1" or None as a key or an amount
            return reason
    return None


def check_plan_against(plan: EmbeddingPlan, request: SfcRequest, snap: SubstrateSnapshot,
                       units: "FreeUnits") -> FailureReason | None:
    """Core feasibility check against free amounts in integer units.

    Check order is fixed so every rejection maps to one deterministic reason:
    paths, then cpu, then ram, then bandwidth, then the QoS latency bound.
    Returns None when the plan fits.
    """
    for path in plan.virtual_link_paths:
        if not path_is_valid(snap, path):
            return FailureReason.NO_PATH
    reason = _over_drawn(plan, units)
    if reason is None and plan.total_latency > request.qos_max_latency:
        return FailureReason.QOS_LATENCY_VIOLATED
    return reason


def to_units(amounts, scale: int) -> tuple[list[int], int]:
    """Exact ``amounts`` (ints or Fractions) as ints of ``1/s``, where ``s`` is
    ``scale`` widened to the least multiple that covers their denominators."""
    ratios = [x.as_integer_ratio() for x in amounts]
    scale = lcm(scale, *{den for _, den in ratios})
    return [num * (scale // den) for num, den in ratios], scale


@dataclass(frozen=True)
class FreeUnits:
    """Free amounts as integer multiples of ``1/scale``, one scale per kind:
    ``cpu`` / ``ram`` per node, ``band`` per edge of the snapshot, and the
    largest node capacities.  Every catalog demand is a whole number of units.
    A value is below 0 where a capacity shrink left a node or edge short."""

    cpu: list[int]
    ram: list[int]
    band: dict[tuple[int, int], int]
    cpu_scale: int
    ram_scale: int
    band_scale: int
    max_cpu: int
    max_ram: int


class ResourceLedger:
    """Exact occupancy accounting for one simulation run.

    Usage (the sum over active plans) is kept in integer units, one scale per
    resource kind, and free amounts derive from the current snapshot's
    capacities, so ``capacity - free == sum(active allocations)`` holds by
    construction.  A scale only grows: a denominator it lacks, in a booked
    amount or a snapshot's capacities, makes it their LCM and the usage follows.
    """

    def __init__(self, snapshot: SubstrateSnapshot, catalog: VnfCatalog | None = None):
        self._snapshot = snapshot
        n = snapshot.node_count
        self._cpu_used = [0] * n
        self._ram_used = [0] * n
        self._band_used: Counter[tuple[int, int]] = Counter()
        self._used = (self._cpu_used, self._ram_used, self._band_used)
        templates = () if catalog is None else catalog.templates.values()
        self._scales = [to_units(amounts, 1)[1] for amounts in (
            [t.cpu_demand for t in templates], [t.ram_demand for t in templates],
            () if catalog is None else catalog.link_band_demand.values())]
        self._free: FreeUnits | None = None
        self._usage: tuple | None = None  # node_usage()'s answer until the usage changes
        # per node kind: the last capacity tuple, the scale it was converted at, its units
        self._node_caps: list[tuple] = [(None, 0, None)] * 2
        # the band scale, and id -> (band object, its units) over the snapshot's bands
        self._band_memo: tuple[int, dict] = (0, {})
        self.allocations: dict[int, EmbeddingPlan] = {}

    @property
    def snapshot(self) -> SubstrateSnapshot:
        return self._snapshot

    def set_snapshot(self, snapshot: SubstrateSnapshot) -> None:
        """Swap the capacity baseline at a topology change; usage is untouched."""
        if snapshot.node_count != self._snapshot.node_count:
            raise ValueError("node count must be stable across snapshots")
        self._snapshot = snapshot
        self._free = None

    def _rescale(self, kind: int, scale: int) -> None:
        """Widen the scale of ``kind`` (0 cpu, 1 ram, 2 band) to ``scale``, a
        multiple of it; the usage is multiplied up to match."""
        factor = scale // self._scales[kind]
        if factor != 1:
            used = self._used[kind]
            for key in (list(used) if kind == 2 else range(len(used))):
                used[key] *= factor
            self._scales[kind] = scale
            self._free = self._usage = None

    def _node_units(self, kind: int, caps: tuple) -> list[int]:
        """Node capacities ``caps`` of ``kind`` (0 cpu, 1 ram) in units of its
        scale, widened to cover them.  The units are reused while a snapshot
        carries the same tuple (generated snapshots share theirs) and the
        scale has not grown since they were made."""
        last, scale, units = self._node_caps[kind]
        if last is not caps or scale != self._scales[kind]:
            units, scale = to_units(caps, self._scales[kind])
            self._rescale(kind, scale)
            self._node_caps[kind] = (caps, scale, units)
        return units

    def _band_units(self) -> dict[tuple[int, int], int]:
        """Each edge's band capacity in units of the band scale, from one pass
        over the snapshot's rows.  Each band object is converted through
        ``_band_memo``, kept across rebuilds while the scale holds (a generated
        or file scene shares one object per distinct band); it holds only the
        current snapshot's objects, which keeps their ids from reuse and a
        snapshot built through the API with a Fraction per edge from growing
        it.  A denominator the scale lacks widens it once, by one
        ``lcm`` over the snapshot's denominators, and the pass runs again."""
        memo_scale, memo = self._band_memo
        while True:
            scale = self._scales[2]
            if scale != memo_scale:
                memo = {}
            band, kept, whole, last = {}, {}, True, None
            for u, row in enumerate(self._snapshot.links):
                for v, (_, x) in row.items():
                    if u < v:
                        if x is not last:  # neighbouring edges often share one object
                            last = x
                            entry = kept.get(id(x))
                            if entry is None:
                                entry = memo.get(id(x))
                                if entry is None:
                                    den = x.denominator
                                    entry = (x, None if scale % den
                                             else x.numerator * (scale // den))
                                    whole = whole and entry[1] is not None
                                kept[id(x)] = entry
                            units = entry[1]
                        band[u, v] = units
            if whole:
                self._band_memo = (scale, kept)
                return band
            self._rescale(2, lcm(scale, *{x.denominator for x, _ in kept.values()}))

    def _view(self) -> FreeUnits:
        """The free view the gate, ``allocate`` and :meth:`free_units` read: built
        at the first read after a snapshot change or a scale growth, then moved
        in step by each booking and release, and never handed out.  The
        capacities come in units (``_node_units``, ``_band_units``), and the
        usage is subtracted afterwards."""
        if self._free is None:
            snap = self._snapshot
            cpu, ram = map(self._node_units, (0, 1),
                           (snap.node_cpu_capacity, snap.node_ram_capacity))
            band = self._band_units()
            for key, used in self._band_used.items():
                if key in band:  # usage on an edge the snapshot dropped has no view
                    band[key] -= used
            self._free = FreeUnits(list(map(sub, cpu, self._cpu_used)),
                                   list(map(sub, ram, self._ram_used)), band,
                                   *self._scales, max(cpu, default=0), max(ram, default=0))
        return self._free

    def free_units(self) -> FreeUnits:
        """The free amounts in integer units, as a fresh copy on every call."""
        view = self._view()
        return FreeUnits(list(view.cpu), list(view.ram), dict(view.band), *self._scales,
                         view.max_cpu, view.max_ram)

    # -- usage / residual views

    def cpu_used(self, node: int) -> Fraction:
        return Fraction(self._cpu_used[node], self._scales[0])

    def ram_used(self, node: int) -> Fraction:
        return Fraction(self._ram_used[node], self._scales[1])

    def node_usage(self) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
        """Per-node cpu and ram usage in units, as copies, then the two scales;
        the same tuples until a booking, a release or a scale growth."""
        if self._usage is None:
            self._usage = (tuple(self._cpu_used), tuple(self._ram_used),
                           self._scales[0], self._scales[1])
        return self._usage

    def band_used(self, u: int, v: int) -> Fraction:
        return Fraction(self._band_used[edge_key(u, v)], self._scales[2])

    def cpu_free(self, node: int) -> Fraction:
        return self._snapshot.node_cpu_capacity[node] - self.cpu_used(node)

    def ram_free(self, node: int) -> Fraction:
        return self._snapshot.node_ram_capacity[node] - self.ram_used(node)

    def band_free(self, u: int, v: int) -> Fraction:
        return self._snapshot.edge_band(u, v) - self.band_used(u, v)

    def cpu_free_all(self) -> tuple[Fraction, ...]:
        return tuple(map(self.cpu_free, range(self._snapshot.node_count)))

    def ram_free_all(self) -> tuple[Fraction, ...]:
        return tuple(map(self.ram_free, range(self._snapshot.node_count)))

    def band_free_map(self) -> dict[tuple[int, int], Fraction]:
        """Free bandwidth for every edge of the current snapshot."""
        return {key: self.band_free(*key) for key in self._snapshot.edges()}

    # -- mutation

    def allocate(self, plan: EmbeddingPlan) -> None:
        """Book ``plan`` if the fit rule passes on this ledger; else it is refused."""
        reason = _over_drawn(plan, self._view())
        if reason is not None:
            raise InsufficientResources(f"sfc {plan.sfc_id}: {reason.value}")
        self._book(plan)

    def _book(self, plan: EmbeddingPlan) -> None:
        """Book ``plan``, which the fit rule has just passed on this ledger."""
        if plan.sfc_id in self.allocations:
            raise DuplicateSfc(f"sfc {plan.sfc_id} already embedded")
        for kind, alloc in enumerate((plan.cpu_alloc, plan.ram_alloc, plan.band_alloc)):
            self._rescale(kind, lcm(self._scales[kind], *{x.denominator for x in alloc.values()}))
        self.allocations[plan.sfc_id] = plan
        self._shift(plan, 1)

    def release(self, sfc_id: int) -> EmbeddingPlan:
        if sfc_id not in self.allocations:
            raise UnknownSfc(sfc_id)
        plan = self.allocations.pop(sfc_id)
        self._shift(plan, -1)
        return plan

    def _shift(self, plan: EmbeddingPlan, sign: int) -> None:
        """Move ``plan`` into the usage (sign 1) or out of it (-1), and the free
        view, where built, the other way; the scales cover every amount."""
        view = self._free
        self._usage = None
        for kind, alloc in enumerate((plan.cpu_alloc, plan.ram_alloc, plan.band_alloc)):
            used, scale = self._used[kind], self._scales[kind]
            free = None if view is None else (view.cpu, view.ram, view.band)[kind]
            for key, x in alloc.items():
                units = sign * x.numerator * (scale // x.denominator)
                used[key] += units
                if free is not None and (kind < 2 or key in free):  # a dropped edge has no view
                    free[key] -= units


def check_plan(plan: EmbeddingPlan, ledger: ResourceLedger,
               request: SfcRequest) -> FailureReason | None:
    """Orchestrator-side validation of a plan against the live ledger.

    Pure: nothing the ledger reports changes.  Reads the free amounts of the
    plan's own nodes and edges only; a node or edge outside the snapshot has
    none free.  Returns None for a deployable plan, otherwise the first
    failing check's reason.
    """
    return check_plan_against(plan, request, ledger.snapshot, ledger._view())


def find_affected_sfcs(ledger: ResourceLedger,
                       new_snap: SubstrateSnapshot) -> list[tuple[int, FailureReason]]:
    """Active SFCs whose embedding is invalid under a new snapshot, each with
    its first cause: a path, then cpu, then ram, then bandwidth.

    A path fails ``path_is_valid``'s rule (a node outside ``0..n-1``, then a
    hop that is no edge), and a chain's held resource fails when its node's
    or edge's new capacity is over-subscribed by the cumulative active
    allocations, compared exactly in the ledger's units (an edge the new
    snapshot lacks has none, as in the fit rule).  Ordered by
    ascending sfc_id so migrations run in a deterministic sequence.  Only
    each chain's own nodes and edges are read, so the work grows with what
    the chains hold, not with the substrate; it runs at every snapshot
    swap, so the loops are written out over locals.
    """
    n, links = new_snap.node_count, new_snap.links
    cpu_cap, ram_cap = new_snap.node_cpu_capacity, new_snap.node_ram_capacity
    cpu_used, ram_used, band_used = ledger._used
    cpu_scale, ram_scale, band_scale = ledger._scales
    allocations = ledger.allocations
    affected: list[tuple[int, FailureReason]] = []
    for sfc_id in sorted(allocations):
        plan = allocations[sfc_id]
        reason = None
        for path in plan.virtual_link_paths:
            nodes = path.nodes
            for node in nodes:
                if not 0 <= node < n:
                    break
            else:
                for a, b in zip(nodes, nodes[1:]):
                    if b not in links[a]:
                        break
                else:
                    continue  # a valid path
            reason = FailureReason.NO_PATH
            break
        # Each held amount: used / scale > capacity, cross-multiplied.
        if reason is None:
            for node in plan.cpu_alloc:
                cap = cpu_cap[node]
                if cpu_used[node] * cap.denominator > cap.numerator * cpu_scale:
                    reason = FailureReason.NODE_CPU_INSUFFICIENT
                    break
        if reason is None:
            for node in plan.ram_alloc:
                cap = ram_cap[node]
                if ram_used[node] * cap.denominator > cap.numerator * ram_scale:
                    reason = FailureReason.NODE_RAM_INSUFFICIENT
                    break
        if reason is None:
            for key in plan.band_alloc:
                u, v = key
                cap = links[u].get(v, _NO_EDGE)[1]
                if band_used[key] * cap.denominator > cap.numerator * band_scale:
                    reason = FailureReason.LINK_BANDWIDTH_INSUFFICIENT
                    break
        if reason is not None:
            affected.append((sfc_id, reason))
    return affected
