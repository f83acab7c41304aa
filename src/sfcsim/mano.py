"""Resource ledger, embedding plans, and orchestration-side plan validation.

The ledger plays the infrastructure-manager role: it tracks how much of each
node's cpu/ram and each edge's bandwidth is occupied by active service chains
and enforces conservation exactly (Fraction arithmetic, no float drift).
Plan checking is the orchestrator-side gate every solver decision passes
through before resources move.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Mapping

from .topology import (PhysicalPath, SubstrateSnapshot, edge_key, path_is_valid,
                       path_latency)
from .workload import SfcRequest, VnfCatalog


class DuplicateSfc(ValueError):
    """An allocation already exists for this sfc_id."""


class UnknownSfc(KeyError):
    """No active allocation for this sfc_id."""


class InsufficientResources(ValueError):
    """Defensive re-check failed: the plan no longer fits the free resources."""


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
    return (Fraction(0), *inner, Fraction(0))


def build_plan(request: SfcRequest, catalog: VnfCatalog, snap: SubstrateSnapshot,
               placement, paths) -> EmbeddingPlan:
    """Assemble a plan from a placement and per-leg paths, deriving allocations."""
    placement = tuple(placement)
    paths = tuple(paths)
    cpu: dict[int, Fraction] = {}
    ram: dict[int, Fraction] = {}
    for node, vnf_id in zip(placement, request.vnf_chain):
        t = catalog.templates[vnf_id]
        cpu[node] = cpu.get(node, Fraction(0)) + t.cpu_demand
        ram[node] = ram.get(node, Fraction(0)) + t.ram_demand
    band: dict[tuple[int, int], Fraction] = {}
    for demand, path in zip(leg_band_demands(request, catalog), paths):
        if demand == 0:
            continue
        for a, b in path.edges():
            key = edge_key(a, b)
            band[key] = band.get(key, Fraction(0)) + demand
    total = 0  # left to right, as in path_latency
    for path in paths:
        total += path_latency(snap, path)
    return EmbeddingPlan(sfc_id=request.sfc_id, vnf_placement=placement,
                         virtual_link_paths=paths,
                         cpu_alloc=dict(sorted(cpu.items())),
                         ram_alloc=dict(sorted(ram.items())),
                         band_alloc=dict(sorted(band.items())),
                         total_latency=total)


def plan_structure_errors(plan: EmbeddingPlan, request: SfcRequest,
                          catalog: VnfCatalog, snap: SubstrateSnapshot) -> list[str]:
    """Structural completeness check for a solver-produced plan.

    Returns human-readable problems; an empty list means the plan is wired
    correctly: it is for this request, placements cover the chain, every leg
    runs between its waypoints over nodes and edges of ``snap``, and the
    allocation maps and latency match what the placement implies.
    """
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

    waypoints = (request.ingress, *plan.vnf_placement, request.egress)
    for i, path in enumerate(plan.virtual_link_paths):
        if path.nodes[0] != waypoints[i] or path.nodes[-1] != waypoints[i + 1]:
            problems.append(
                f"leg {i} runs {path.nodes[0]}->{path.nodes[-1]}, "
                f"expected {waypoints[i]}->{waypoints[i + 1]}")
        elif not path_is_valid(snap, path):
            problems.append(f"leg {i} {path.nodes} leaves the substrate's nodes or edges")
    if problems:
        return problems

    rebuilt = build_plan(request, catalog, snap, plan.vnf_placement,
                         plan.virtual_link_paths)
    if dict(plan.cpu_alloc) != rebuilt.cpu_alloc:
        problems.append("cpu_alloc does not match placement demands")
    if dict(plan.ram_alloc) != rebuilt.ram_alloc:
        problems.append("ram_alloc does not match placement demands")
    if dict(plan.band_alloc) != rebuilt.band_alloc:
        problems.append("band_alloc does not match path demands")
    if plan.total_latency != rebuilt.total_latency:
        problems.append(f"total_latency {plan.total_latency} != {rebuilt.total_latency}")
    return problems


def _over_drawn(plan: EmbeddingPlan, cpu_free, ram_free, band_free) -> FailureReason | None:
    """The first resource, cpu then ram then bandwidth, that ``plan`` asks
    more of than is free; a node or edge the free maps lack has none free."""
    for alloc, free, reason in (
            (plan.cpu_alloc, cpu_free, FailureReason.NODE_CPU_INSUFFICIENT),
            (plan.ram_alloc, ram_free, FailureReason.NODE_RAM_INSUFFICIENT),
            (plan.band_alloc, band_free, FailureReason.LINK_BANDWIDTH_INSUFFICIENT)):
        for key, amount in alloc.items():
            room = free.get(key)
            if room is None or amount > room:
                return reason
    return None


def check_plan_against(plan: EmbeddingPlan, request: SfcRequest,
                       snap: SubstrateSnapshot,
                       cpu_free: Mapping[int, Fraction], ram_free: Mapping[int, Fraction],
                       band_free: Mapping[tuple[int, int], Fraction]) -> FailureReason | None:
    """Core feasibility check against free amounts mapped per node and per edge key.

    Check order is fixed so every rejection maps to one deterministic reason:
    paths, then cpu, then ram, then bandwidth, then the QoS latency bound.
    Returns None when the plan fits.
    """
    for path in plan.virtual_link_paths:
        if not path_is_valid(snap, path):
            return FailureReason.NO_PATH
    reason = _over_drawn(plan, cpu_free, ram_free, band_free)
    if reason is None and plan.total_latency > request.qos_max_latency:
        return FailureReason.QOS_LATENCY_VIOLATED
    return reason


@dataclass(frozen=True)
class FreeUnits:
    """Free amounts as integer multiples of ``1/scale``, one scale per kind:
    ``cpu`` / ``ram`` per node, ``band`` per edge of the snapshot, and the
    largest node capacities.  Every catalog demand is a whole number of units.
    A value is below 0 where a capacity shrink left a node or edge short.
    Solvers read it and never write it."""

    cpu: list[int]
    ram: list[int]
    band: dict[tuple[int, int], int]
    cpu_scale: int
    ram_scale: int
    band_scale: int
    max_cpu: int
    max_ram: int

    @classmethod
    def from_usage(cls, snap: SubstrateSnapshot, catalog: VnfCatalog,
                   cpu_used: Mapping[int, Fraction], ram_used: Mapping[int, Fraction],
                   band_used: Mapping[tuple[int, int], Fraction]) -> "FreeUnits":
        """Capacity less the usage mapped per node and per edge key (an edge
        ``snap`` lacks has no view), on scales that cover ``catalog``'s demands.
        Capacities and usage are Fractions; a demand may also be an int."""
        def less(keys, caps, used, demands):
            ratios = [list(map(Fraction.as_integer_ratio, group))
                      for group in (caps, used.values(), demands)]
            scale = lcm(*{den for group in ratios for _, den in group})
            caps, held, _ = [[num * (scale // den) for num, den in group] for group in ratios]
            free = caps.copy() if keys is None else dict(zip(keys, caps))
            for key, units in zip(used, held):
                free[key] -= units
            return free, scale, max(caps, default=0)

        templates = catalog.templates.values()
        cpu, cpu_scale, max_cpu = less(None, snap.node_cpu_capacity, cpu_used,
                                       [Fraction(t.cpu_demand) for t in templates])
        ram, ram_scale, max_ram = less(None, snap.node_ram_capacity, ram_used,
                                       [Fraction(t.ram_demand) for t in templates])
        keys = list(snap.edges())
        band, band_scale, _ = less(
            keys, [snap.links[u][v][1] for u, v in keys],
            {key: amount for key, amount in band_used.items() if snap.has_edge(*key)},
            catalog.link_band_demand.values())
        return cls(cpu, ram, band, cpu_scale, ram_scale, band_scale, max_cpu, max_ram)


class ResourceLedger:
    """Exact occupancy accounting for one simulation run.

    Tracks used amounts (the sum over active plans) and derives free values
    from the current snapshot's capacities, so conservation
    ``capacity - free == sum(active allocations)`` holds by construction and
    is re-verifiable from scratch.  Solvers read :meth:`free_units`, built
    from this usage at the first read after construction or a snapshot change
    and kept in step by ``allocate`` / ``release``.
    """

    def __init__(self, snapshot: SubstrateSnapshot, catalog: VnfCatalog | None = None):
        self._snapshot = snapshot
        self._catalog = VnfCatalog(()) if catalog is None else catalog
        n = snapshot.node_count
        self._cpu_used = [Fraction(0)] * n
        self._ram_used = [Fraction(0)] * n
        self._band_used: dict[tuple[int, int], Fraction] = {}
        self._free_units: FreeUnits | None = None
        self.allocations: dict[int, EmbeddingPlan] = {}

    @property
    def snapshot(self) -> SubstrateSnapshot:
        return self._snapshot

    def set_snapshot(self, snapshot: SubstrateSnapshot) -> None:
        """Swap the capacity baseline at a topology change; usage is untouched."""
        if snapshot.node_count != self._snapshot.node_count:
            raise ValueError("node count must be stable across snapshots")
        self._snapshot = snapshot
        self._free_units = None

    def free_units(self) -> FreeUnits:
        """The free amounts in integer units: a live view to read, not to keep."""
        if self._free_units is None:
            held = self.allocations.values()
            self._free_units = FreeUnits.from_usage(
                self._snapshot, self._catalog,
                {node: self._cpu_used[node] for plan in held for node in plan.cpu_alloc},
                {node: self._ram_used[node] for plan in held for node in plan.ram_alloc},
                self._band_used)
        return self._free_units

    # -- usage / residual views

    def cpu_used(self, node: int) -> Fraction:
        return self._cpu_used[node]

    def ram_used(self, node: int) -> Fraction:
        return self._ram_used[node]

    def node_usage(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """Per-node (cpu, ram) usage as copies that later mutations leave alone."""
        return tuple(self._cpu_used), tuple(self._ram_used)

    def band_used(self, u: int, v: int) -> Fraction:
        return self._band_used.get(edge_key(u, v), Fraction(0))

    def cpu_free(self, node: int) -> Fraction:
        return self._snapshot.node_cpu_capacity[node] - self._cpu_used[node]

    def ram_free(self, node: int) -> Fraction:
        return self._snapshot.node_ram_capacity[node] - self._ram_used[node]

    def band_free(self, u: int, v: int) -> Fraction:
        return self._snapshot.edge_band(u, v) - self.band_used(u, v)

    # Most nodes and edges carry no load, so the whole-substrate views start
    # from the capacities and subtract only where usage is non-zero.

    def cpu_free_all(self) -> tuple[Fraction, ...]:
        return tuple(cap - used if used else cap for cap, used
                     in zip(self._snapshot.node_cpu_capacity, self._cpu_used))

    def ram_free_all(self) -> tuple[Fraction, ...]:
        return tuple(cap - used if used else cap for cap, used
                     in zip(self._snapshot.node_ram_capacity, self._ram_used))

    def band_free_map(self) -> dict[tuple[int, int], Fraction]:
        """Free bandwidth for every edge of the current snapshot."""
        free = {key: self._snapshot.edge_band(*key) for key in self._snapshot.edges()}
        for key, used in self._band_used.items():
            if key in free:  # usage on an edge the snapshot dropped has no view
                free[key] -= used
        return free

    def _plan_free(self, plan: EmbeddingPlan) -> tuple[dict, dict, dict]:
        """Free cpu, ram and bandwidth of ``plan``'s own nodes and canonical
        ``u < v`` edges; a key outside the current snapshot gets no entry."""
        snap, n = self._snapshot, self._snapshot.node_count
        return ({node: self.cpu_free(node) for node in plan.cpu_alloc if 0 <= node < n},
                {node: self.ram_free(node) for node in plan.ram_alloc if 0 <= node < n},
                {(u, v): self.band_free(u, v) for u, v in plan.band_alloc
                 if 0 <= u < v < n and snap.has_edge(u, v)})

    # -- mutation

    def allocate(self, plan: EmbeddingPlan) -> None:
        """Book ``plan`` if the gate's cpu -> ram -> bandwidth rule passes on this ledger."""
        if plan.sfc_id in self.allocations:
            raise DuplicateSfc(f"sfc {plan.sfc_id} already embedded")
        reason = _over_drawn(plan, *self._plan_free(plan))
        if reason is not None:
            raise InsufficientResources(f"sfc {plan.sfc_id}: {reason.value}")
        for node, amount in plan.cpu_alloc.items():
            self._cpu_used[node] += amount
        for node, amount in plan.ram_alloc.items():
            self._ram_used[node] += amount
        for key, amount in plan.band_alloc.items():
            self._band_used[key] = self._band_used.get(key, Fraction(0)) + amount
        self.allocations[plan.sfc_id] = plan
        self._shift_units(plan, 1)

    def release(self, sfc_id: int) -> EmbeddingPlan:
        if sfc_id not in self.allocations:
            raise UnknownSfc(sfc_id)
        plan = self.allocations.pop(sfc_id)
        for node, amount in plan.cpu_alloc.items():
            self._cpu_used[node] -= amount
        for node, amount in plan.ram_alloc.items():
            self._ram_used[node] -= amount
        for key, amount in plan.band_alloc.items():
            remaining = self._band_used[key] - amount
            if remaining:
                self._band_used[key] = remaining
            else:
                del self._band_used[key]
        self._shift_units(plan, -1)
        return plan

    def _shift_units(self, plan: EmbeddingPlan, sign: int) -> None:
        """Take ``plan`` out of the integer view (sign 1) or put it back (-1)."""
        view = self._free_units
        if view is None:
            return
        held_band = {key: x for key, x in plan.band_alloc.items() if key in view.band}
        for free, scale, alloc in ((view.cpu, view.cpu_scale, plan.cpu_alloc),
                                   (view.ram, view.ram_scale, plan.ram_alloc),
                                   (view.band, view.band_scale, held_band)):
            for key, amount in alloc.items():
                units, rest = divmod(scale, amount.denominator)
                if rest:  # no whole number of units: rebuilt at the next read
                    self._free_units = None
                    return
                free[key] -= sign * amount.numerator * units


def check_plan(plan: EmbeddingPlan, ledger: ResourceLedger,
               request: SfcRequest) -> FailureReason | None:
    """Orchestrator-side validation of a plan against the live ledger.

    Pure: never mutates the ledger.  Reads the free amounts of the plan's own
    nodes and edges only; a node or edge outside the snapshot has none free.
    Returns None for a deployable plan, otherwise the first failing check's
    reason.
    """
    return check_plan_against(plan, request, ledger.snapshot, *ledger._plan_free(plan))


def find_affected_sfcs(ledger: ResourceLedger,
                       new_snap: SubstrateSnapshot) -> list[tuple[int, FailureReason]]:
    """Active SFCs whose embedding is invalid under a new snapshot.

    An SFC is affected when a path edge vanished, or when it holds resources
    on a node/edge whose shrunk capacity is now over-subscribed by the
    cumulative active allocations.  Ordered by ascending sfc_id so migrations
    run in a deterministic sequence.  Only each chain's own nodes and edges are
    read, so the work grows with what the chains hold, not with the substrate.
    """
    affected: list[tuple[int, FailureReason]] = []
    for sfc_id in sorted(ledger.allocations):
        plan = ledger.allocations[sfc_id]
        if any(not path_is_valid(new_snap, p) for p in plan.virtual_link_paths):
            affected.append((sfc_id, FailureReason.NO_PATH))
        elif any(ledger.cpu_used(node) > new_snap.node_cpu_capacity[node]
                 for node in plan.cpu_alloc):
            affected.append((sfc_id, FailureReason.NODE_CPU_INSUFFICIENT))
        elif any(ledger.ram_used(node) > new_snap.node_ram_capacity[node]
                 for node in plan.ram_alloc):
            affected.append((sfc_id, FailureReason.NODE_RAM_INSUFFICIENT))
        # every path edge is in new_snap here, so each held edge has a capacity
        elif any(ledger.band_used(*key) > new_snap.edge_band(*key) for key in plan.band_alloc):
            affected.append((sfc_id, FailureReason.LINK_BANDWIDTH_INSUFFICIENT))
    return affected
