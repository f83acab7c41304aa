"""Self-tests of the benchmark harness (run with pytest from the repo root)."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import repeat  # noqa: E402
from run import END_TO_END, check  # noqa: E402
from workloads import BASE_DOC, WORKLOADS, scenario_doc  # noqa: E402

repeat.import_sfcsim()
from sfcsim import engine, make_solver, scenario  # noqa: E402
from sfcsim.mano import ResourceLedger  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for name in WORKLOADS:
        assert scenario_doc(name) == scenario_doc(name, 7, 99)
        assert scenario_doc(name, 8, 100) == scenario_doc(name, 8, 100)
        assert scenario_doc(name, 8, 99) != scenario_doc(name)
        assert scenario_doc(name, 7, 100) != scenario_doc(name)
    first, again, other_sagin, other_scenario = (
        scenario.scenario_from_json(scenario_doc("full-greedy", *seeds))
        for seeds in ((7, 99), (7, 99), (8, 99), (7, 100)))
    assert first.requests == again.requests
    assert first.topo.snapshots == again.topo.snapshots
    assert first.topo.snapshots != other_sagin.topo.snapshots
    assert first.requests != other_scenario.requests


def test_pinned_base_matches_the_bundled_scene():
    bundled = json.loads((ROOT / "scenarios" / "sagin_full.json").read_text())
    assert BASE_DOC == bundled
    assert scenario_doc("full-greedy") == bundled


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert [(n, m["unit"]) for n, m in e2e.items()] == list(END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in SPEC["per_layer"]] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.LAYER_METRICS]


def test_metric_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_every_layer_metric_names_what_it_should_move_and_where():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for m in layers.LAYER_METRICS:
        assert m.workloads and set(m.workloads) <= set(WORKLOADS), m.name
        assert set(m.moves) <= e2e, m.name
        assert m.moves or m.name == "bench.trace_overhead_s", m.name
        assert m.layer in layers.ENTRY_POINTS or m.layer in layers.METHOD_LAYERS \
            or m.name == "bench.trace_overhead_s", m.name


def test_self_time_excludes_children_and_is_never_negative():
    ticks = iter(range(100))
    tracer = layers.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("mano.ledger", lambda: None)

    def outer():
        leaf()
        leaf()
    tracer.wrap("engine.run", outer)()
    summary = tracer.summary()
    assert summary["mano.ledger"]["calls"] == 2
    assert summary["engine.run"]["total_s"] == 5.0
    assert summary["engine.run"]["self_s"] == 3.0
    assert all(s["self_s"] >= 0 for s in summary.values())


def test_missing_entry_point_marks_its_layer_absent(monkeypatch):
    for targets in layers.ENTRY_POINTS.values():
        for target in targets:
            owner, attr = layers._resolve(target)
            monkeypatch.setattr(owner, attr, getattr(owner, attr))  # restored after
    monkeypatch.delattr(ResourceLedger, "cpu_free_all")
    monkeypatch.delattr(engine, "check_plan")
    absent = layers.install(layers.Tracer())
    assert absent == {"mano.residual_view", "mano.gate"}
    values = layers.layer_metrics({}, absent, {"events": 1, "migrations": 0, "migrated": 0,
                                               "discrepancies": 0}, 0, 0)
    assert values["mano.residual_view_s"] is None and values["mano.gate_calls"] is None
    assert values["topology.path_search_calls"] == 0


def test_conservation_hook_catches_a_leak():
    sc = scenario.load_scenario(ROOT / "scenarios" / "example_a.json")
    problems = []
    engine.run(sc.topo, sc.requests, sc.catalog, make_solver("greedy"), seed=sc.seed,
               boundary_hook=repeat.conservation_hook(problems))
    assert problems == []
    ledger = ResourceLedger(sc.topo.snapshot_at(sc.topo.start_time))
    ledger._cpu_used[0] += 1  # usage no active allocation accounts for
    repeat.conservation_hook(problems)(0.0, ledger)
    assert problems == ["t=0.0: cpu not conserved on node 0"]


def test_host_speed_clips_a_stretched_probe():
    speed = repeat.HostSpeed()
    speed.starts = [0.0, 1.0, 2.0, 3.0]
    speed.durations = [0.001, 0.001, 0.002, 0.1]  # the last one was preempted
    clipped_mean = (0.001 + 0.001 + 0.002 + repeat.CLIP * 0.0015) / 4
    assert speed.factor(0.0, 4.0) == pytest.approx(repeat.NOMINAL_PROBE_S / clipped_mean)
    assert speed.factor(5.0, 6.0) == speed.factor(0.0, 4.0)  # no probe: all of them


def test_check_flags_errors_problems_and_digest_changes():
    ok = {"digest": "a" * 64, "problems": []}
    assert check(ok, "a" * 64) == []
    assert check({**ok, "digest": "b" * 64}, "a" * 64) != []
    assert check({**ok, "problems": ["leak"]}, "a" * 64) == ["leak"]
    assert check({"error": "boom"}, "a" * 64) == ["boom"]
    assert check(ok, None) != []  # no reference digest: nothing to pass against


@pytest.mark.parametrize("mode", ["timed", "traced"])
def test_repeat_reproduces_the_recorded_digest(tmp_path, mode):
    out = subprocess.run([sys.executable, str(BENCH / "repeat.py"), "--workload",
                          "full-greedy", "--sagin-seed", "7", "--scenario-seed", "99",
                          "--mode", mode,
                          "--out", str(tmp_path)],
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["digest"] == WORKLOADS["full-greedy"].golden_digest
    assert result["problems"] == []
    assert result["wall_s"] > 0 and result["setup_s"] > 0
    assert result["probes"]["run"] > 0
    if mode == "traced":
        assert result["absent"] == []
        assert set(result["layers"]) == {m.name for m in layers.LAYER_METRICS} - {
            "bench.trace_overhead_s"}
        assert result["layers"]["engine.loop_self_s"] >= 0
        assert result["layers"]["solver.node_choice_self_s"] >= 0
        assert result["layers"]["solver.decisions"] == 538


def test_benchmark_refuses_to_run_without_simulator_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "full-greedy",
                          "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
