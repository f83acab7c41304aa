"""Command-line front end: run scenarios, sweep loads, materialize generators.

Exit codes: 0 success, 2 scenario/parameter validation error, 1 I/O error.
All randomness flows from the scenario seed (optionally overridden); per-run
seeds in a sweep are derived as ``seed + run_index`` so every output is
reproducible from the command line alone.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .engine import run as run_engine
from .scenario import ParseError, Scenario, ValidationError, load_scenario
from .solver import SOLVERS, make_solver
from .topology import topology_to_json
from .trace import TraceLog
from .workload import workload_to_json

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2


@dataclass
class RunConfig:
    scenario_path: Path
    out_dir: Path
    solvers: list[str] | None = None
    seed: int | None = None
    sweep: list[int] | None = None
    repeat: int = 1

    def __post_init__(self):
        if self.repeat < 1:
            raise ValidationError("--repeat must be >= 1")
        if self.sweep is not None:
            if any(v <= 0 for v in self.sweep):
                raise ValidationError("--sweep values must be positive")
            if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
                raise ValidationError("--sweep values must be strictly increasing")
        if self.solvers is not None:
            unknown = [s for s in self.solvers if s not in SOLVERS]
            if unknown:
                raise ValidationError(f"unknown solver(s) {unknown}; available: {sorted(SOLVERS)}")


@dataclass
class RunResult:
    label: str
    solver: str
    sfc_count: int
    repeat_index: int
    arrivals: int
    accepted: int
    rejected: int
    terminated_early: int
    acceptance_ratio: float
    breakdown: dict = field(default_factory=dict)


def _default_out_root() -> Path:
    return Path(os.environ.get("SFC_SIM_OUT", "out"))


def _plan_runs(cfg: RunConfig, scenario: Scenario):
    """Yield (label, solver_name, sfc_count or None, repeat_index, run_seed)."""
    base_seed = cfg.seed if cfg.seed is not None else scenario.seed
    solvers = cfg.solvers or [scenario.solver_name]
    sweep = cfg.sweep or [None]
    for solver_name in solvers:
        for si, count in enumerate(sweep):
            for rep in range(cfg.repeat):
                parts = [solver_name]
                if count is not None:
                    parts.append(f"n{count}")
                if cfg.repeat > 1:
                    parts.append(f"r{rep}")
                run_seed = base_seed + si * cfg.repeat + rep
                yield "_".join(parts), solver_name, count, rep, run_seed


def execute_runs(cfg: RunConfig, scenario: Scenario) -> list[RunResult]:
    """Run every (solver x sweep x repeat) cell, writing CSVs per run."""
    if cfg.sweep is not None and scenario.workload_generator is None:
        raise ValidationError("--sweep needs a workload generator in the scenario")
    results = []
    for label, solver_name, count, rep, run_seed in _plan_runs(cfg, scenario):
        if scenario.workload_generator is not None:
            requests = scenario.regenerate_workload(sfc_count=count, seed=run_seed)
        else:
            requests = scenario.requests
        trace = TraceLog()
        report = run_engine(scenario.topo, requests, scenario.catalog,
                            make_solver(solver_name), trace, seed=run_seed)
        trace.emit_csv(cfg.out_dir / label)
        results.append(RunResult(
            label=label, solver=solver_name, sfc_count=len(requests),
            repeat_index=rep, arrivals=report.arrivals, accepted=report.accepted,
            rejected=report.rejected, terminated_early=report.terminated_early,
            acceptance_ratio=trace.acceptance_ratio(),
            breakdown={r.value: c for r, c in trace.failure_breakdown().items()}))
    return results


def write_sweep_summary(results: list[RunResult], out_dir: Path) -> Path:
    path = out_dir / "sweep_summary.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["solver", "sfc_count", "repeat", "acceptance_ratio",
                    "arrivals", "accepted", "rejected", "terminated_early"])
        for r in results:
            w.writerow([r.solver, r.sfc_count, r.repeat_index,
                        f"{r.acceptance_ratio:.6f}", r.arrivals, r.accepted,
                        r.rejected, r.terminated_early])
    return path


def _print_summary(results: list[RunResult]) -> None:
    print(f"{'run':<24} {'arrivals':>8} {'accepted':>8} {'rejected':>8} "
          f"{'term':>5} {'accept_ratio':>12}")
    for r in results:
        print(f"{r.label:<24} {r.arrivals:>8} {r.accepted:>8} {r.rejected:>8} "
              f"{r.terminated_early:>5} {r.acceptance_ratio:>12.6f}")
        if r.breakdown:
            reasons = ", ".join(f"{k}={v}" for k, v in sorted(r.breakdown.items()))
            print(f"{'':<24} failures: {reasons}")


def _sweep_counts(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"--sweep takes comma-separated integers, got {text!r}") from None


def cmd_run(args) -> int:
    cfg = RunConfig(scenario_path=Path(args.scenario),
                    out_dir=Path(args.out) if args.out else _default_out_root(),
                    solvers=args.solver.split(",") if args.solver else None,
                    seed=args.seed,
                    sweep=_sweep_counts(args.sweep) if args.sweep else None,
                    repeat=args.repeat)
    results = execute_runs(cfg, load_scenario(cfg.scenario_path))
    _print_summary(results)
    if len(results) > 1:
        write_sweep_summary(results, cfg.out_dir)
    return EXIT_OK


def cmd_generate(args) -> int:
    scenario = load_scenario(Path(args.params))
    out = Path(args.out) if args.out else _default_out_root() / "generated"
    out.mkdir(parents=True, exist_ok=True)
    substrate = out / "substrate.json"
    substrate.write_text(json.dumps(topology_to_json(scenario.topo), indent=1) + "\n")
    workload = out / "workload.json"
    workload.write_text(json.dumps(
        workload_to_json(scenario.requests, scenario.catalog), indent=1) + "\n")
    print(f"wrote {substrate} ({scenario.topo.node_count} nodes, "
          f"{len(scenario.topo.time_points)} time points)")
    print(f"wrote {workload} ({len(scenario.requests)} sfcs)")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = load_scenario(Path(args.scenario))
    print(f"{args.scenario}: ok ({scenario.topo.node_count} nodes, "
          f"{len(scenario.topo.time_points)} snapshots, "
          f"{len(scenario.requests)} sfcs, solver={scenario.solver_name})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfcsim",
        description="Service chain embedding simulator over time-varying substrates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario (optionally a sweep)")
    p_run.add_argument("scenario")
    p_run.add_argument("--solver", help="override solver(s), comma-separated")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--sweep", help="comma-separated sfc_count values")
    p_run.add_argument("--repeat", type=int, default=1, help="repeats per cell")
    p_run.add_argument("--out", help="output root (default $SFC_SIM_OUT or ./out)")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("generate", help="materialize generators to plain JSON")
    p_gen.add_argument("params", help="scenario/params file with generator sections")
    p_gen.add_argument("--out", help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
