"""Command-line front end: run scenarios, sweep loads, materialize generators.

Exit codes: 0 success, 2 scenario/parameter validation error, 1 I/O error.
All randomness flows from the scenario seed (optionally overridden); per-run
seeds in a sweep are derived as ``seed + sweep_index * repeat + repeat_index``,
the same for every solver, so every output is reproducible from the command
line alone.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import NamedTuple

from .engine import run as run_engine
from .scenario import ParseError, Scenario, ValidationError, load_scenario
from .solver import SOLVERS, make_solver
from .topology import topology_to_json
from .trace import TraceLog, _fmt, write_csv
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
            if len(set(self.solvers)) != len(self.solvers):
                raise ValidationError("--solver names must be distinct")


class Cell(NamedTuple):
    """One (solver x sweep x repeat) run; its counters are read from ``trace``."""

    label: str
    solver: str
    sfc_count: int
    repeat_index: int
    trace: TraceLog


def _default_out_root() -> Path:
    return Path(os.environ.get("SFC_SIM_OUT", "out"))


def execute_runs(cfg: RunConfig, scenario: Scenario) -> list[Cell]:
    """Run every (solver x sweep x repeat) cell, writing CSVs per run.

    A cell is labelled by its solver, then ``n<count>`` in a sweep and
    ``r<repeat>`` when repeated.
    """
    if cfg.sweep is not None and scenario.workload_generator is None:
        raise ValidationError("--sweep needs a workload generator in the scenario")
    base_seed = cfg.seed if cfg.seed is not None else scenario.seed
    cells = []
    for solver_name, (si, count), rep in product(cfg.solvers or [scenario.solver_name],
                                                  enumerate(cfg.sweep or [None]),
                                                  range(cfg.repeat)):
        label = (solver_name + (f"_n{count}" if count is not None else "")
                 + (f"_r{rep}" if cfg.repeat > 1 else ""))
        run_seed = base_seed + si * cfg.repeat + rep
        if scenario.workload_generator is not None:
            requests = scenario.regenerate_workload(sfc_count=count, seed=run_seed)
        else:
            requests = scenario.requests
        trace = TraceLog()
        run_engine(scenario.topo, requests, scenario.catalog, make_solver(solver_name), trace,
                   seed=run_seed)
        trace.emit_csv(cfg.out_dir / label)
        cells.append(Cell(label, solver_name, len(requests), rep, trace))
    return cells


def _counts(trace: TraceLog) -> tuple[int, int, int, int]:
    """Arrivals, accepted, rejected and early-terminated chains of a run."""
    return (trace.arrival_count(), trace.accepted_count(), trace.rejected_count(),
            trace.terminated_count())


def write_sweep_summary(cells: list[Cell], out_dir: Path) -> Path:
    return write_csv(out_dir / "sweep_summary.csv",
                     ["solver", "sfc_count", "repeat", "acceptance_ratio",
                      "arrivals", "accepted", "rejected", "terminated_early"],
                     ([c.solver, c.sfc_count, c.repeat_index, _fmt(c.trace.acceptance_ratio()),
                       *_counts(c.trace)] for c in cells))


def _print_summary(cells: list[Cell]) -> None:
    print(f"{'run':<24} {'arrivals':>8} {'accepted':>8} {'rejected':>8} "
          f"{'term':>5} {'accept_ratio':>12}")
    for c in cells:
        arrivals, accepted, rejected, terminated = _counts(c.trace)
        print(f"{c.label:<24} {arrivals:>8} {accepted:>8} {rejected:>8} "
              f"{terminated:>5} {_fmt(c.trace.acceptance_ratio()):>12}")
        breakdown = sorted((r.value, n) for r, n in c.trace.failure_breakdown().items())
        if breakdown:
            print(f"{'':<24} failures: {', '.join(f'{r}={n}' for r, n in breakdown)}")


def _sweep_counts(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"--sweep takes comma-separated integers, got {text!r}") from None


def cmd_run(args) -> int:
    cfg = RunConfig(scenario_path=Path(args.scenario),
                    out_dir=Path(args.out) if args.out else _default_out_root(),
                    solvers=args.solver.split(",") if args.solver is not None else None,
                    seed=args.seed,
                    sweep=_sweep_counts(args.sweep) if args.sweep is not None else None,
                    repeat=args.repeat)
    cells = execute_runs(cfg, load_scenario(cfg.scenario_path))
    _print_summary(cells)
    if len(cells) > 1:
        write_sweep_summary(cells, cfg.out_dir)
    return EXIT_OK


def cmd_generate(args) -> int:
    scenario = load_scenario(Path(args.params))
    out = Path(args.out) if args.out else _default_out_root() / "generated"
    out.mkdir(parents=True, exist_ok=True)
    substrate = out / "substrate.json"
    substrate.write_text(json.dumps(topology_to_json(scenario.topo)) + "\n")
    workload = out / "workload.json"
    workload.write_text(json.dumps(workload_to_json(scenario.requests, scenario.catalog)) + "\n")
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
