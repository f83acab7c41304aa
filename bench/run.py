"""sfcsim benchmark: time whole runs of the SAGIN workloads and check their output.

Usage:
  python3 bench/run.py [--workload full-greedy|wide-random|churn-greedy|all]
                       [--seed N] [--seconds S] [--trace 0|1]
                       [--sagin-seed N] [--scenario-seed N]

The simulator is a batch job, so there is no arrival rate: each repeat runs
one scenario to completion in a fresh single-threaded process
(bench/repeat.py), and throughput is stated at a fixed input size.  A run of
one workload repeats one scene, by default the bundled one (sagin seed 7,
scenario seed 99; see workloads.py), and

1. makes one untimed verification run of the scene, with a boundary hook
   that checks exact conservation at every event;
2. repeats the scene, one timed repeat (no wrappers) per step, until
   ``--seconds`` have passed; with ``--trace 1`` each step adds a traced
   repeat (layers.py);
3. checks every repeat: its CSVs must hash to the digest recorded in
   workloads.py (at other seeds, to the verification run's digest), and the
   report's counters must equal the trace's.

The inputs are fixed by the two generator seeds, so ``--seed`` changes no
input: any seed measures the same scene.  It is recorded in the provenance
and names the results file.  ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``.  ``--workload all`` (the default) runs the workloads one
after another, each exactly as a run of that workload alone.

A metric's value is the median over the run's repeats.  Timings are in
seconds at a nominal host speed (see repeat.py); the raw medians are printed
and saved beside them.

With ``--trace 0`` a run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of the traced repeats and the tracing overhead.  For
each workload a human-readable table goes first, the full results go to
.bench_out/results/, and then one JSON object follows on its own line:
{"correct", "attempted", "failed", "metrics"}; so the last line of standard
output is that of the last workload run.  The exit code is 1 when any output
check failed, 2 when the simulator's sources are missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SAGIN_SEED, DEFAULT_SCENARIO_SEED, WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("events_per_s", "events/s"),
              ("peak_rss_mb", "MB"))
# The run of one workload must end within 180 s: no timed step starts after
# BUDGET_S, and no repeat may outlast DEADLINE_S.  With --workload all, each
# workload gets its own budget, so the whole command takes up to three times
# as long.
BUDGET_S = 150.0
DEADLINE_S = 175.0


def git_commit() -> str:
    try:
        out = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(workload: str, seeds: tuple[int, int], mode: str, scratch: Path,
              timeout: float) -> dict:
    """One repeat in a fresh process; its result, or {"error": ...} on failure."""
    out_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=scratch))
    cmd = [sys.executable, str(BENCH / "repeat.py"), "--workload", workload,
           "--sagin-seed", str(seeds[0]), "--scenario-seed", str(seeds[1]),
           "--mode", mode, "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return {"mode": mode, "error": tail or f"exit code {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, reference: str | None) -> list[str]:
    """Why a repeat fails its output check (empty when it passes)."""
    if "error" in result:
        return [result["error"]]
    found = list(result["problems"])
    if result["digest"] != reference:
        found.append(f"CSV digest {result['digest'][:12]} != {str(reference)[:12]}")
    return found


def median_of(results: list[dict], get) -> tuple[float | None, int]:
    """Median of ``get(result)`` over the results, and its sample count."""
    values = [v for v in map(get, results) if v is not None]
    return (statistics.median(values) if values else None), len(values)


def measure(workload: str, seeds: tuple[int, int], seconds: float, trace: bool,
            scratch: Path) -> dict:
    start = time.monotonic()

    def child(mode):
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - start))
        return run_child(workload, seeds, mode, scratch, timeout)

    verify = child("verify")
    # The recorded digest holds at the default seeds; at others, every
    # repeat must reproduce the verification run's bytes.
    if seeds == (DEFAULT_SAGIN_SEED, DEFAULT_SCENARIO_SEED):
        reference = WORKLOADS[workload].golden_digest
    else:
        reference = verify.get("digest")
    checks = {"verify": check(verify, reference)}

    modes = ("timed", "traced") if trace else ("timed",)
    repeats: list[dict] = []
    timed_start = time.monotonic()
    step = 0
    while step == 0 or (time.monotonic() - timed_start < seconds
                        and time.monotonic() - start < BUDGET_S):
        step += 1
        for mode in modes:
            result = child(mode)
            repeats.append(result)
            checks[f"{mode}-{step}"] = check(result, reference)

    ok = [r for r in repeats if "error" not in r]
    timed = [r for r in ok if r["mode"] == "timed"]
    traced = [r for r in ok if r["mode"] == "traced"]
    metrics = {}
    # Printed and saved, not part of the JSON line: the simulated acceptance
    # ratio is deterministic per scene, and the raw timings are as noisy as
    # the host.
    extra = {"acceptance_ratio": (*median_of(timed or traced, lambda r: r["acceptance_ratio"]),
                                  "ratio", "simulated, not a speed"),
             "raw_wall_s": (*median_of(timed, lambda r: r["raw_wall_s"]), "s",
                            "not host-normalized"),
             "raw_setup_s": (*median_of(timed, lambda r: r["raw_setup_s"]), "s",
                             "not host-normalized"),
             "probe_share": (*median_of(ok, lambda r: r["probe_share"]), "ratio",
                             "time spent in HostSpeed probes")}
    for segment in ("setup", "run", "emit"):
        extra[f"probes_{segment}"] = (*median_of(ok, lambda r, k=segment: r["probes"][k]),
                                      "count", "HostSpeed probes in the segment")
    if trace:
        for m in LAYER_METRICS:
            if m.name == "bench.trace_overhead_s":
                on, n_on = median_of(traced, lambda r: r["wall_s"])
                off, n_off = median_of(timed, lambda r: r["wall_s"])
                value = on - off if n_on and n_off else None
                metrics[m.name] = {"value": value, "unit": m.unit, "samples": min(n_on, n_off)}
            else:
                value, n = median_of(traced, lambda r, k=m.name: r["layers"][k])
                metrics[m.name] = {"value": value, "unit": m.unit, "samples": n}
    else:
        for name, unit in END_TO_END:
            value, n = median_of(timed, lambda r, k=name: r[k])
            metrics[name] = {"value": value, "unit": unit, "samples": n}

    return {
        "workload": workload,
        "trace": int(trace),
        "sagin_seed": seeds[0],
        "scenario_seed": seeds[1],
        "digest": reference,
        "steps": step,
        "attempted": len(checks),
        "failed": {k: v for k, v in checks.items() if v},
        "absent_layers": sorted({a for r in traced for a in r["absent"]}),
        "metrics": metrics,
        "extra": {name: dict(zip(("value", "samples", "unit", "note"), e))
                  for name, e in extra.items()},
        "trace_overhead_s": metrics.get("bench.trace_overhead_s", {}).get("value"),
        "verify": verify,
        "repeats": repeats,
        "elapsed_s": time.monotonic() - start,
    }


def print_table(result: dict) -> None:
    print(f"{result['workload']}: sagin seed {result['sagin_seed']}, scenario seed "
          f"{result['scenario_seed']}, {result['steps']} steps, digest "
          f"{str(result['digest'])[:12]}")
    for name, m in result["metrics"].items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
        print(f"  {name:<28} {shown:<24} {m['samples']} samples")
    for name, m in result["extra"].items():
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
        print(f"  {name:<28} {shown:<24} {m['samples']} samples ({m['note']})")
    if result["trace_overhead_s"] is None:
        print("  trace overhead: measured with --trace 1")
    for name, why in result["failed"].items():
        print(f"  FAILED {name}: {'; '.join(why)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the provenance; changes no input")
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sagin-seed", type=int, default=DEFAULT_SAGIN_SEED)
    parser.add_argument("--scenario-seed", type=int, default=DEFAULT_SCENARIO_SEED)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sfcsim" / "__init__.py").is_file():
        print(f"error: no simulator sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    out = ROOT / ".bench_out"
    scratch = out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    results_dir = out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    seeds = (args.sagin_seed, args.scenario_seed)
    provenance = {"python": platform.python_version(), "commit": git_commit(),
                  "nproc": os.cpu_count(), "seed": args.seed, "sagin_seed": seeds[0],
                  "scenario_seed": seeds[1], "seconds": args.seconds}
    print("provenance: " + json.dumps(provenance))
    any_failed = False
    try:
        for name in WORKLOADS if args.workload == "all" else [args.workload]:
            result = measure(name, seeds, args.seconds, bool(args.trace), scratch)
            print_table(result)
            path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps({"provenance": provenance, "result": result}, indent=1))
            print(f"results: {path.relative_to(ROOT)}")
            failed = len(result["failed"])
            any_failed |= failed > 0
            metrics = {k: {"value": 0 if m["value"] is None else m["value"], "unit": m["unit"]}
                       for k, m in result["metrics"].items()}
            print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                              "failed": failed, "metrics": metrics}), flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
