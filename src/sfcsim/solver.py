"""Pluggable embedding/migration solvers and the two built-in baselines.

A solver receives the request, a catalog view, the current snapshot, and a
copy of the ledger's free amounts in exact integer units, and answers with a
complete mapping table or a rejection reason.  Any accepted plan must
hold up under the orchestrator's own plan check against the same residuals;
the baselines self-validate before answering.  Decisions must be
deterministic given the input and the provided RNG state.
"""

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .mano import (EmbeddingPlan, FailureReason, FreeUnits, build_plan, check_plan_against,
                   leg_band_demands)
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
    candidate set / missing path / QoS excess aborts with that reason.
    No backtracking.

    The walk runs on copies of the input's integer units, which keeps every
    comparison and deduction exact.  ``choose(candidates, cpu, ram, max_cpu,
    max_ram)`` sees the free amounts and the snapshot's largest node
    capacities in those units.
    """
    req, cat, snap, units = inp.request, inp.catalog, inp.snapshot, inp.units
    cpu_demand = [_demand_units(cat.templates[vnf_id].cpu_demand, units.cpu_scale)
                  for vnf_id in req.vnf_chain]
    ram_demand = [_demand_units(cat.templates[vnf_id].ram_demand, units.ram_scale)
                  for vnf_id in req.vnf_chain]
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
            cpu_ok = [n for n, free in enumerate(cpu) if free >= cpu_need]
            if not cpu_ok:
                return SolverDecision.reject(FailureReason.NODE_CPU_INSUFFICIENT)
            candidates = [n for n in cpu_ok if ram[n] >= ram_need]
            if not candidates:
                return SolverDecision.reject(FailureReason.NODE_RAM_INSUFFICIENT)
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

    plan = build_plan(req, cat, snap, placement, paths)
    # Contract self-check: an Accept must survive the orchestrator's gate.
    verdict = check_plan_against(plan, req, snap, units)
    if verdict is not None:
        return SolverDecision.reject(verdict)
    return SolverDecision.accept(plan)


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
