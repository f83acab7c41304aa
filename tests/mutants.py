"""A register of mutants: small faults in the program that a named check must catch.

Each mutant names a file, the exact text it replaces, the text that
replaces it, and the check that must fail on it: a pytest node id, or a
pytest-free module of ``tests/`` with its arguments.  A fault that needs
edits in several places gives tuples of old and new texts, applied in turn.

The runner copies ``src/``, ``tests/``, ``bench/`` (some tests read the
benchmark's workloads) and ``scenarios/`` to a temporary directory.  It runs
every check once on the unchanged copy, where each must pass, then each
mutant alone on a copy of its own: the old text must be found exactly once,
and the check, run with a timeout, must fail.  A mutant whose old text is
no longer found fails the runner; rewrite it to keep its intent, never drop
it.  A check that times out on a mutant counts as failing (a fault can make
a loop endless).

Run from anywhere, stdlib only (the pytest checks need pytest installed):

    python -W error tests/mutants.py            # every mutant
    python -W error tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --list
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "scenarios")
TIMEOUT_S = 120
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str | tuple[str, ...]
    new: str | tuple[str, ...]
    check: str  # "tests/x.py::Class::test" for pytest, "tests/x.py [args]" for a module


def _in(module: str, test: str) -> str:
    return f"tests/{module}.py::{test}"


MUTANTS = (
    # The path search and its guard.
    Mutant("the guard's radius set to 0.0", "src/sfcsim/scenario.py",
           "    radius = max(a, p.earth_radius_km + p.uav_altitude_km, p.earth_radius_km)"
           " * (1 + 2.0 ** -40)",
           "    radius = 0.0",
           _in("test_path_bound", "test_the_generators_radius_bounds_every_coordinate")),
    Mutant("ε = 0 in h", "src/sfcsim/topology.py",
           "_BOUND_PER_KM = (1 - _SHRINK) / LIGHT_KM_PER_MS",
           "_BOUND_PER_KM = 1 / LIGHT_KM_PER_MS",
           _in("test_path_bound", "test_the_shrink_covers_the_rounding_of_collinear_hops")),
    Mutant("the A* key without g", "src/sfcsim/topology.py",
           ("heap: list[tuple[float, float, tuple[int, ...]]] = [(0.0, 0.0, (src,))]",
            "_, cost, nodes = pop(heap)",
            "push(heap, (f, c, nodes + (nxt,)))"),
           ("heap: list[tuple[float, tuple[int, ...], float]] = [(0.0, (src,), 0.0)]",
            "_, nodes, cost = pop(heap)",
            "push(heap, (f, nodes + (nxt,), c))"),
           _in("test_path_bound", "test_a_rounding_tie_in_f_falls_back_to_the_cost")),
    # The topology-change scan.
    Mutant("the scan without the node-range rule", "src/sfcsim/mano.py",
           "            for node in nodes:\n"
           "                if not 0 <= node < n:\n"
           "                    break\n"
           "            else:\n",
           "            if True:\n",
           _in("test_mano", "TestFindAffected::test_a_path_node_outside_the_substrate_is_no_path")),
    Mutant("ram tested before cpu in the scan", "src/sfcsim/mano.py",
           "            for node in plan.cpu_alloc:\n"
           "                cap = cpu_cap[node]\n"
           "                if cpu_used[node] * cap.denominator > cap.numerator * cpu_scale:\n"
           "                    reason = FailureReason.NODE_CPU_INSUFFICIENT\n"
           "                    break\n"
           "        if reason is None:\n"
           "            for node in plan.ram_alloc:\n"
           "                cap = ram_cap[node]\n"
           "                if ram_used[node] * cap.denominator > cap.numerator * ram_scale:\n"
           "                    reason = FailureReason.NODE_RAM_INSUFFICIENT\n",
           "            for node in plan.ram_alloc:\n"
           "                cap = ram_cap[node]\n"
           "                if ram_used[node] * cap.denominator > cap.numerator * ram_scale:\n"
           "                    reason = FailureReason.NODE_RAM_INSUFFICIENT\n"
           "                    break\n"
           "        if reason is None:\n"
           "            for node in plan.cpu_alloc:\n"
           "                cap = cpu_cap[node]\n"
           "                if cpu_used[node] * cap.denominator > cap.numerator * cpu_scale:\n"
           "                    reason = FailureReason.NODE_CPU_INSUFFICIENT\n",
           _in("test_mano", "TestFindAffected::"
               "test_the_first_cause_wins_when_a_chain_breaks_several_ways[cpu-and-ram]")),
    Mutant("the band step dropped from the scan", "src/sfcsim/mano.py",
           "reason = FailureReason.LINK_BANDWIDTH_INSUFFICIENT",
           "reason = None",
           _in("test_mano", "TestFindAffected::test_band_shrink")),
    Mutant("a held edge the snapshot lacks raises in the scan", "src/sfcsim/mano.py",
           "cap = links[u].get(v, _NO_EDGE)[1]",
           "cap = new_snap.edge_band(u, v)",
           _in("test_mano", "TestFindAffected::"
               "test_a_held_edge_off_the_paths_that_vanishes_has_no_band[some]")),
    # The ledger's free view.
    Mutant("the band memo kept across a scale growth", "src/sfcsim/mano.py",
           "            if scale != memo_scale:\n                memo = {}\n",
           "",
           _in("test_mano", "TestFreeUnits::test_a_booking_that_grows_the_band_scale_voids_the_memo")),
    Mutant("the free view kept across set_snapshot", "src/sfcsim/mano.py",
           "        self._snapshot = snapshot\n        self._free = None\n",
           "        self._snapshot = snapshot\n",
           _in("test_mano", "TestFreeUnits::test_snapshot_switch_brings_a_new_denominator")),
    Mutant("a >= fit rule", "src/sfcsim/mano.py",
           "num * scale > room * x.denominator",
           "num * scale >= room * x.denominator",
           _in("test_mano", "TestCheckPlan::test_a_plan_that_takes_every_free_unit_fits")),
    Mutant("usage not multiplied on a scale growth", "src/sfcsim/mano.py",
           "used[key] *= factor",
           "used[key] *= 1",
           _in("test_mano", "TestFreeUnits::"
               "test_a_shrink_to_coprime_denominators_widens_the_band_scale_once")),
    Mutant("the free view not moved by a booking or a release", "src/sfcsim/mano.py",
           "                    free[key] -= units\n",
           "                    pass\n",
           _in("test_mano", "TestFreeUnits::test_allocate_release_round_trip")),
    # The file reader and the snapshot checks.
    Mutant("the exact-cell memo keyed by the value alone", "src/sfcsim/topology.py",
           ("        kind = type(value)\n"
            "        if kind is not int and kind is not float:\n",
            "        x = memo.get((kind, value))\n",
            "            x = memo[kind, value] = as_fraction(value)\n"),
           ("        if not isinstance(value, (int, float)):\n",
            "        x = memo.get(value)\n",
            "            x = memo[value] = as_fraction(value)\n"),
           _in("test_exact_literals", "test_a_bool_after_an_equal_number_is_still_a_bool")),
    Mutant("the exact-cell memo tried for every kind", "src/sfcsim/topology.py",
           "        if kind is not int and kind is not float:\n"
           "            return as_fraction(value)\n",
           "",
           _in("test_exact_literals", "test_an_unhashable_cell_is_refused_as_a_quantity")),
    Mutant("the last band's pass taken before its checks", "src/sfcsim/topology.py",
           ("            if band is not passed and id(band) not in good_bands:\n",
            "                good_bands[id(band)] = band\n            passed = band\n"),
           ("            passed = band\n"
            "            if band is not passed and id(band) not in good_bands:\n",
            "                good_bands[id(band)] = band\n"),
           _in("test_topology", "TestSharedObjectChecks::test_bad_band_only_on_the_last_edge[negative]")),
    # The generator.
    Mutant("the cross-plane skip four times too eager", "src/sfcsim/scenario.py",
           "if h * h > h2_skip:",
           "if h * h > h2_skip / 4:",
           _in("test_scenario", "TestSaginGenerator::test_snapshots_match_pinned_digest[far_planes_5x1]")),
    Mutant("halved ground-satellite latencies", "src/sfcsim/scenario.py",
           "add_edge(g, s, math.dist(pos[g], pos[s]), p.sg_band_mbps)",
           "add_edge(g, s, math.dist(pos[g], pos[s]) / 2, p.sg_band_mbps)",
           _in("test_path_bound",
               "test_every_generated_latency_is_the_distance_of_two_stored_positions")),
    Mutant("the UAV side rebuilt at every snapshot", "src/sfcsim/scenario.py",
           "        side = uav_sides.pop(phase, None)\n",
           "        side = uav_sides.pop(phase, None) and None\n",
           _in("test_scenario", "TestSaginGenerator::"
               "test_snapshots_one_uav_loop_apart_share_the_range_links")),
    Mutant("the UAV side keyed by t % snapshot_interval_s", "src/sfcsim/scenario.py",
           "uav_side(t % p.uav_loop_period_s)",
           "uav_side(t % p.snapshot_interval_s)",
           _in("test_scenario", "TestSaginGenerator::test_snapshots_match_pinned_digest[desk]")),
    Mutant("the ring memo keyed by (u, v)", "src/sfcsim/scenario.py",
           ("edge = ring_edges.get(d)", "edge = ring_edges[d] = "),
           ("edge = ring_edges.get((u, v))", "edge = ring_edges[u, v] = "),
           _in("test_scenario", "TestSaginGenerator::test_snapshots_match_pinned_digest[desk]")),
    Mutant("no phase eviction", "src/sfcsim/scenario.py",
           "        if phase_uses[phase]:\n",
           "        if True:\n",
           _in("test_scenario", "TestSaginGenerator::test_a_phase_is_forgotten_after_its_last_snapshot")),
    # The trace writer.
    Mutant("a utilization block's texts reused on its usage alone", "src/sfcsim/trace.py",
           "                values = b[1:]\n",
           "                values = b[3:]\n",
           _in("test_trace", "TestUtilizationAgainstReference::test_capacity_changes_while_usage_holds")),
    # The baseline walk and the event order.
    Mutant("no band deduction in the baseline walk", "src/sfcsim/solver.py",
           "                band[key] -= demand\n",
           "",
           _in("test_solver", "TestContract::test_a_leg_sees_the_band_an_earlier_leg_took")),
    Mutant("greedy's tie-break > flipped to >=", "src/sfcsim/solver.py",
           "if s > best_score:",
           "if s >= best_score:",
           _in("test_solver", "TestGreedySolver::test_identical_nodes_tie_break_smallest_index")),
    Mutant("departures before topology changes", "src/sfcsim/engine.py",
           "    TOPOLOGY_CHANGE = 0\n    SFC_DEPARTURE = 1\n",
           "    TOPOLOGY_CHANGE = 1\n    SFC_DEPARTURE = 0\n",
           _in("test_engine", "TestEventQueue::test_topology_change_before_departure")),
)


def _edits(mutant: Mutant) -> list[tuple[str, str]]:
    olds, news = ((x,) if isinstance(x, str) else x for x in (mutant.old, mutant.new))
    if len(olds) != len(news):
        raise ValueError(f"{mutant.name}: {len(olds)} old texts, {len(news)} new ones")
    return list(zip(olds, news))


def apply(mutant: Mutant, tree: Path) -> str | None:
    """Apply ``mutant`` to the copy at ``tree``; the problem, if an old text
    is not found exactly once."""
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    for old, new in _edits(mutant):
        count = text.count(old)
        if count != 1:
            return f"old text found {count} times, not once: {old.splitlines()[0]!r}"
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")
    return None


def command(checks: list[str]) -> list[str]:
    """One process for pytest node ids, or for one pytest-free module."""
    if "::" in checks[0]:
        return [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *checks]
    return [sys.executable, *checks[0].split()]


def run(checks: list[str], tree: Path) -> tuple[str, str]:
    """('passed' | 'failed' | 'timeout' | 'broken', the tail of the output);
    'broken' is a pytest run that reached no verdict."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(command(checks), cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-5:])
    if done.returncode == 0:
        return "passed", tail
    # pytest exits 1 when a test failed; 2 to 5 mean that none reached a
    # verdict: a collection error (a syntax error, say), a usage error, no test
    return ("failed" if done.returncode == 1 or "::" not in checks[0] else "broken"), tail


_SKIPPED = shutil.ignore_patterns("__pycache__", ".hypothesis")


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.name}: {mutant.file} -> {mutant.check}")
        return 0
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sfcsim-mutants-") as tmp:
        base = Path(tmp) / "unchanged"
        for name in COPIED:
            shutil.copytree(ROOT / name, base / name, ignore=_SKIPPED)
        # the unchanged copy: every pytest check in one process, each module alone
        node_ids = sorted({m.check for m in chosen if "::" in m.check})
        groups = [[c] for c in sorted({m.check for m in chosen if "::" not in m.check})]
        groups += [node_ids] if node_ids else []
        bad = 0
        with ThreadPoolExecutor(WORKERS) as pool:
            for group, (status, tail) in zip(groups, pool.map(lambda g: run(g, base), groups)):
                if status != "passed":
                    bad += 1
                    print(f"FAIL unchanged tree: {' '.join(group)} {status}\n{tail}")
            if bad:
                return 1

            def attempt(job):
                index, mutant = job
                tree = Path(tmp) / f"mutant-{index}"
                shutil.copytree(base, tree, ignore=_SKIPPED)
                problem = apply(mutant, tree)
                if problem is not None:
                    return "stale", problem
                return run([mutant.check], tree)

            for mutant, (status, detail) in zip(chosen, pool.map(attempt, enumerate(chosen))):
                if status in ("failed", "timeout"):
                    print(f"killed   {mutant.name} ({status})")
                elif status == "stale":
                    bad += 1
                    print(f"STALE    {mutant.name}: {detail}")
                else:
                    bad += 1
                    print(f"SURVIVED {mutant.name}: the check {status}\n{detail}")
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
