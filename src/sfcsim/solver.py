"""Pluggable embedding/migration solvers and the two built-in baselines.

A solver receives the request, a catalog view, the current snapshot, and a
copy of the ledger's free amounts in exact integer units, and answers with a
complete mapping table or a rejection reason.  Any accepted plan must
hold up under the orchestrator's own plan check against the same residuals,
which the engine runs on every Accept before resources move; the baselines'
walk makes every Accept fit, so they answer without checking their own plan.
Decisions must be deterministic given the input and the provided RNG state.
"""

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

# build_plan and check_plan_against stay importable from here: the README offers
# check_plan_against, and bench/layers.py pins both for its solver.plan_build layer
from .mano import (EmbeddingPlan, FailureReason, FreeUnits, _assemble_plan, _sum_per_key,
                   build_plan, check_plan_against, leg_band_demands)
from .topology import (OVER_BUDGET, SubstrateSnapshot, edge_key, path_latency,
                       shortest_feasible_path)
from .workload import SfcRequest, VnfCatalog


class SolveMode(Enum):
    EMBED = "embed"
    MIGRATE = "migrate"


@dataclass(frozen=True)
class SolverInput:
    """Everything a solver may look at for one decision; ``units`` is what the
    ledger has free, a copy made for this decision."""

    request: SfcRequest
    catalog: VnfCatalog
    snapshot: SubstrateSnapshot
    units: FreeUnits
    mode: SolveMode = SolveMode.EMBED
    old_plan: EmbeddingPlan | None = None


@dataclass(frozen=True)
class SolverDecision:
    plan: EmbeddingPlan | None = None
    reason: FailureReason | None = None

    def __post_init__(self):
        if (self.plan is None) == (self.reason is None):
            raise ValueError("decision must carry exactly one of plan / reason")

    @property
    def accepted(self) -> bool:
        return self.plan is not None

    @classmethod
    def accept(cls, plan: EmbeddingPlan) -> "SolverDecision":
        return cls(plan=plan)

    @classmethod
    def reject(cls, reason: FailureReason) -> "SolverDecision":
        return cls(reason=reason)


class Solver:
    """Solver contract; subclass and implement :meth:`solve`."""

    name = "base"

    def solve(self, inp: SolverInput, rng: random.Random) -> SolverDecision:
        raise NotImplementedError


def _demand_units(x: Fraction, scale: int) -> int:
    """A catalog demand in ``1/scale`` units; the scale must cover its denominator."""
    if scale % x.denominator:
        raise ValueError(f"demand {x} is no whole number of 1/{scale} units")
    return x.numerator * (scale // x.denominator)


def _solve_sequential(inp: SolverInput, choose) -> SolverDecision:
    """Shared position-by-position skeleton for the baseline solvers.

    Walks the chain in order keeping tentative residuals: ``choose`` picks a
    node among those with enough free cpu and ram, each virtual link is routed
    with the minimum-latency bandwidth-feasible path, and the first empty
    candidate set (no node with the cpu free names cpu, else ram) / missing
    path / QoS excess aborts with that reason.  No backtracking.

    The walk runs on copies of the input's integer units, which keeps every
    comparison and deduction exact.  ``choose(candidates, cpu, ram, max_cpu,
    max_ram)`` sees the free amounts and the snapshot's largest node
    capacities in those units.  An Accept's plan is made from the units the
    walk deducted, at the input's scales, by the summing routine that
    ``build_plan`` and the gate's rebuild use, and its ``total_latency`` is
    the walk's running latency: the plan ``build_plan`` would make from the
    same placement and paths, without the catalog being read again.

    The plan is not run through ``check_plan_against``: the walk makes every
    Accept pass it, and the engine's gate vets the plan anyway.
      - cpu / ram: each position takes a node with at least the demand free,
        in the input's own units, and deducts it there; the plan sums the
        same units per node, so no node is over-drawn.
      - Bandwidth: each leg with demand > 0 deducts it from every edge of its
        path, and the search admits only edges with that much still free.  A
        ``PhysicalPath`` never repeats a node, so no leg crosses an edge
        twice, and the plan sums the same units per edge.
      - Paths: every hop comes from ``snap.links``.
      - QoS: the search refuses ``base + c > limit`` with ``base`` the walk's
        running latency, which is the plan's total, so the total cannot
        exceed ``qos_max_latency``.  The walk adds ``path_latency`` left to
        right from ``0.0``, ``build_plan`` and the gate from ``0``: the same
        sum, as latencies are floats >= 0.
    """
    req, cat, snap, units = inp.request, inp.catalog, inp.snapshot, inp.units
    templates = [cat.templates[vnf_id] for vnf_id in req.vnf_chain]
    cpu_demand = [_demand_units(t.cpu_demand, units.cpu_scale) for t in templates]
    ram_demand = [_demand_units(t.ram_demand, units.ram_scale) for t in templates]
    demands = [_demand_units(x, units.band_scale) for x in leg_band_demands(req, cat)]
    cpu, ram, band = list(units.cpu), list(units.ram), dict(units.band)
    max_cpu, max_ram = units.max_cpu, units.max_ram

    placement: list[int] = []
    paths = []
    latency = 0.0
    prev = req.ingress
    for pos, demand in enumerate(demands):  # one leg into each VNF, then one to egress
        if pos < len(cpu_demand):
            cpu_need, ram_need = cpu_demand[pos], ram_demand[pos]
            candidates = [n for n, free in enumerate(cpu)
                          if free >= cpu_need and ram[n] >= ram_need]
            if not candidates:
                return SolverDecision.reject(FailureReason.NODE_CPU_INSUFFICIENT
                                             if max(cpu) < cpu_need
                                             else FailureReason.NODE_RAM_INSUFFICIENT)
            node = choose(candidates, cpu, ram, max_cpu, max_ram)
            cpu[node] -= cpu_need
            ram[node] -= ram_need
            assert cpu[node] >= 0 and ram[node] >= 0
            placement.append(node)
        else:
            node = req.egress
        path = shortest_feasible_path(snap, prev, node, demand, band,
                                      latency, req.qos_max_latency)
        if path is None:
            return SolverDecision.reject(FailureReason.NO_PATH)
        if path is OVER_BUDGET:
            return SolverDecision.reject(FailureReason.QOS_LATENCY_VIOLATED)
        latency += path_latency(snap, path)  # within the bound: the search tested it
        if demand > 0:
            for a, b in path.edges():
                key = edge_key(a, b)
                band[key] -= demand
                assert band[key] >= 0
        paths.append(path)
        prev = node

    sums = _sum_per_key(placement, cpu_demand, ram_demand, paths, demands)
    return SolverDecision.accept(_assemble_plan(
        req.sfc_id, tuple(placement), tuple(paths), sums,
        (units.cpu_scale, units.ram_scale, units.band_scale), latency))


class RandomSolver(Solver):
    """Uniformly samples each VNF's host among the resource-feasible nodes.

    Sampling is integer-indexed off the provided RNG, so a fixed seed gives
    the same placement on every platform.
    """

    name = "random"

    def solve(self, inp: SolverInput, rng: random.Random) -> SolverDecision:
        def choose(candidates, cpu, ram, max_cpu, max_ram):
            return candidates[rng.randrange(len(candidates))]
        return _solve_sequential(inp, choose)


class GreedySolver(Solver):
    """Deterministic baseline: prefer the most spacious node.

    Each position takes the feasible node with the highest
    ``cpu_free / max_cpu + ram_free / max_ram`` score, where the maxima are
    the snapshot-wide largest capacities, so the two resources weigh equally
    and bigger nodes win while they have headroom.  A resource whose maximum
    capacity is 0 drops out of the score.  Ties go to the smallest node
    index; the RNG is never touched.

    The score is compared division-free: multiplied through by
    ``max_cpu * max_ram`` (a zero maximum counted as 1) it becomes
    ``cpu_free * max_ram + ram_free * max_cpu`` in the input's integer
    units, which orders the nodes exactly as the quotients do on any scale.
    """

    name = "greedy"

    def solve(self, inp: SolverInput, rng: random.Random) -> SolverDecision:
        def choose(candidates, cpu, ram, max_cpu, max_ram):
            cpu_weight = max(max_ram, 1) if max_cpu else 0
            ram_weight = max(max_cpu, 1) if max_ram else 0
            best = candidates[0]
            best_score = cpu[best] * cpu_weight + ram[best] * ram_weight
            for n in candidates[1:]:
                s = cpu[n] * cpu_weight + ram[n] * ram_weight
                if s > best_score:
                    best, best_score = n, s
            return best
        return _solve_sequential(inp, choose)


SOLVERS: dict[str, type[Solver]] = {
    RandomSolver.name: RandomSolver,
    GreedySolver.name: GreedySolver,
}


def make_solver(name: str) -> Solver:
    try:
        return SOLVERS[name]()
    except KeyError:
        raise KeyError(f"unknown solver {name!r}; available: {sorted(SOLVERS)}") from None
