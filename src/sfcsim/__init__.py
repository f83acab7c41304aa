"""Discrete-event simulator for service function chain embedding and
migration over time-varying substrate networks."""

from .engine import (EventKind, MalformedScenario, SimEvent, SimulationReport,
                     build_event_queue, run)
from .mano import (DuplicateSfc, EmbeddingPlan, FailureReason, InsufficientResources,
                   ResourceLedger, UnknownSfc, build_plan, check_plan,
                   find_affected_sfcs, plan_structure_errors)
from .scenario import (InvalidParams, ParseError, SaginParams, Scenario,
                       ValidationError, generate_poisson_workload, generate_sagin,
                       load_scenario)
from .solver import (SOLVERS, GreedySolver, RandomSolver, SolveMode, Solver,
                     SolverDecision, SolverInput, make_solver)
from .topology import (OVER_BUDGET, InvalidPath, PhysicalPath, SubstrateSnapshot,
                       SubstrateTopology, TimeBeforeStart, as_fraction,
                       path_latency, shortest_feasible_path, topology_from_json,
                       topology_to_json)
from .trace import TraceLog, TraceRecord, UtilizationSample
from .workload import (SfcRequest, ValidationReport, VnfCatalog, VnfTemplate,
                       validate_workload, workload_from_json, workload_to_json)

__version__ = "0.1.0"
