import errno
import hashlib
import json
import os
from pathlib import Path

import pytest

from conftest import SCENARIO_DIR
from sfcsim import cli
from sfcsim.cli import main
from sfcsim.mano import InsufficientResources
from sfcsim.scenario import load_scenario, scenario_from_json
from test_golden_outputs import CSV_NAMES


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestRunCommand:
    def test_example_a_greedy(self, tmp_path, capsys):
        code = run_cli("run", SCENARIO_DIR / "example_a.json",
                       "--solver", "greedy", "--out", tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy" in out
        run_dir = tmp_path / "greedy"
        for name in CSV_NAMES:
            assert (run_dir / name).is_file()
        summary = (run_dir / "summary.csv").read_text().splitlines()
        assert summary[1].startswith("2,2,0,0,")

    def test_stdout_matches_summary_csv(self, tmp_path, capsys):
        run_cli("run", SCENARIO_DIR / "example_a.json", "--out", tmp_path)
        out = capsys.readouterr().out
        arrivals, accepted, rejected, terminated, ratio = \
            (tmp_path / "greedy" / "summary.csv").read_text().splitlines()[1].split(",")
        line = next(l for l in out.splitlines() if l.startswith("greedy"))
        cells = line.split()
        assert cells[1:5] == [arrivals, accepted, rejected, terminated]
        assert cells[5] == ratio

    def test_missing_scenario_exits_2_and_names_path(self, tmp_path, capsys):
        code = run_cli("run", tmp_path / "missing.json")
        assert code == 2
        assert "missing.json" in capsys.readouterr().err

    def test_io_error_exits_1(self, tmp_path, capsys):
        # the output root is a file, so the run directory cannot be made
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run_cli("run", SCENARIO_DIR / "example_a.json", "--out", blocker) == 1
        fault = NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                   str(blocker / "greedy"))
        assert capsys.readouterr().err == f"io error: {fault}\n"

    def test_sweep_cartesian_run_dirs(self, tmp_path):
        code = run_cli("run", SCENARIO_DIR / "sagin_desk.json",
                       "--sweep", "50,100,200", "--solver", "random,greedy",
                       "--out", tmp_path)
        assert code == 0
        dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert dirs == ["greedy_n100", "greedy_n200", "greedy_n50",
                        "random_n100", "random_n200", "random_n50"]
        merged = (tmp_path / "sweep_summary.csv").read_text().splitlines()
        assert merged[0] == ("solver,sfc_count,repeat,acceptance_ratio,"
                             "arrivals,accepted,rejected,terminated_early")
        assert len(merged) == 1 + 6

    def test_sweep_requires_workload_generator(self, tmp_path, capsys):
        code = run_cli("run", SCENARIO_DIR / "example_a.json",
                       "--sweep", "5,10", "--out", tmp_path)
        assert code == 2
        assert "generator" in capsys.readouterr().err

    def test_bad_sweep_values(self, tmp_path, capsys):
        assert run_cli("run", SCENARIO_DIR / "sagin_desk.json",
                       "--sweep", "100,50", "--out", tmp_path) == 2
        assert run_cli("run", SCENARIO_DIR / "sagin_desk.json",
                       "--sweep", "0,50", "--out", tmp_path) == 2
        assert run_cli("run", SCENARIO_DIR / "sagin_desk.json",
                       "--repeat", "0", "--out", tmp_path) == 2

    def test_non_integer_sweep(self, tmp_path, capsys):
        assert run_cli("run", SCENARIO_DIR / "sagin_desk.json",
                       "--sweep", "a,b", "--out", tmp_path) == 2
        assert "--sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("orbit_count", "two"),
                                              ("duration_s", float("nan")),
                                              ("orbit_count", True),
                                              ("sats_per_orbit", 4.5),
                                              ("uav_waypoints", 0),
                                              ("uav_waypoints", -1),
                                              ("uav_loop_period_s", 0),
                                              ("earth_radius_km", 0),
                                              ("uav_altitude_km", -6371),
                                              ("altitude_km", 1e120),
                                              ("earth_radius_km", 1e120),
                                              pytest.param("duration_s", 10**400,
                                                           id="duration_s-10**400"),
                                              ("sat_cpu", "1/0")])
    def test_malformed_generator_number_exits_2(self, tmp_path, capsys, field, value):
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        doc["substrate"]["generator"]["sagin"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad, "--out", tmp_path / "out") == 2
        assert field in capsys.readouterr().err

    def test_internal_fault_is_not_reported_as_invalid_input(self, tmp_path, monkeypatch):
        def broken_engine(*args, **kwargs):
            raise InsufficientResources("cpu deficit on node 0")
        monkeypatch.setattr(cli, "run_engine", broken_engine)
        with pytest.raises(InsufficientResources):
            run_cli("run", SCENARIO_DIR / "example_a.json", "--out", tmp_path)

    def test_non_string_solver_in_scenario_exits_2(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["solver"] = ["greedy"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad, "--out", tmp_path / "out") == 2
        assert "solver" in capsys.readouterr().err

    def test_non_integral_chain_entry_exits_2(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["workload"]["sfcs"][0]["chain"] = [0, 1.5, 2]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad, "--out", tmp_path / "out") == 2
        assert "sfcs[0].chain[1]: expected an integer, got 1.5" in capsys.readouterr().err

    def test_unknown_solver_flag(self, tmp_path):
        assert run_cli("run", SCENARIO_DIR / "example_a.json",
                       "--solver", "pso", "--out", tmp_path) == 2

    def test_repeat_produces_labelled_dirs(self, tmp_path):
        code = run_cli("run", SCENARIO_DIR / "sagin_desk.json",
                       "--repeat", "2", "--out", tmp_path)
        assert code == 0
        dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
        assert dirs == ["greedy_r0", "greedy_r1"]

    def test_byte_identical_across_invocations(self, tmp_path):
        for sub in ("one", "two"):
            assert run_cli("run", SCENARIO_DIR / "sagin_desk.json",
                           "--solver", "random", "--seed", "5",
                           "--out", tmp_path / sub) == 0
        for name in CSV_NAMES:
            a = (tmp_path / "one" / "random" / name).read_bytes()
            b = (tmp_path / "two" / "random" / name).read_bytes()
            assert a == b

    def test_seed_override_redraws_the_generated_workload(self, tmp_path):
        # --seed 5, a copy with "seed": 5 and the first of two repeats from
        # --seed 5 all draw the same workload, so they write the same CSVs
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        doc["seed"] = 5
        (tmp_path / "desk5.json").write_text(json.dumps(doc))
        runs = [(tmp_path / "desk5.json", (), "greedy"),
                (SCENARIO_DIR / "sagin_desk.json", ("--seed", 5), "greedy"),
                (SCENARIO_DIR / "sagin_desk.json", ("--seed", 5, "--repeat", 2), "greedy_r0")]
        digests = []
        for i, (path, flags, label) in enumerate(runs):
            assert run_cli("run", path, "--solver", "greedy", *flags,
                           "--out", tmp_path / str(i)) == 0
            digests.append(hashlib.sha256(b"".join(
                (tmp_path / str(i) / label / name).read_bytes() for name in CSV_NAMES)).digest())
        assert digests[0] == digests[1] == digests[2]

    def test_out_root_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SFC_SIM_OUT", str(tmp_path / "envroot"))
        assert run_cli("run", SCENARIO_DIR / "example_a.json") == 0
        assert (tmp_path / "envroot" / "greedy" / "summary.csv").is_file()


class TestGenerateCommand:
    def test_full_scale_substrate(self, tmp_path, capsys):
        code = run_cli("generate", SCENARIO_DIR / "sagin_full.json",
                       "--out", tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "substrate.json").read_text())
        assert len(doc["time_points"]) == 61
        assert len(doc["snapshots"][0]["node_cpu"]) == 48
        workload = json.loads((tmp_path / "workload.json").read_text())
        assert len(workload["sfcs"]) == 200
        assert "catalog" in workload

    def test_reproducible(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli("generate", SCENARIO_DIR / "sagin_desk.json",
                           "--out", tmp_path / sub) == 0
        for name in ("substrate.json", "workload.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        doc["substrate"]["generator"]["sagin"]["orbit_count"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("generate", bad, "--out", tmp_path / "out") == 2
        assert "orbit" in capsys.readouterr().err

    def test_generated_substrate_loads_back(self, tmp_path):
        assert run_cli("generate", SCENARIO_DIR / "sagin_desk.json",
                       "--out", tmp_path) == 0
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        doc["substrate"] = json.loads((tmp_path / "substrate.json").read_text())
        roundtrip = tmp_path / "roundtrip.json"
        roundtrip.write_text(json.dumps(doc))
        assert run_cli("validate", roundtrip) == 0

    def test_generated_files_reproduce_the_scenario(self, tmp_path):
        # 5/7 and 1/3 used to be written as floats and read back as other numbers.
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        doc["substrate"]["generator"]["sagin"]["uav_cpu"] = "5/7"
        doc["catalog"]["links"][1]["band_mbps"] = "1/3"
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        assert run_cli("generate", params, "--out", tmp_path / "gen") == 0
        workload = json.loads((tmp_path / "gen" / "workload.json").read_text())
        generated = scenario_from_json(dict(
            doc, substrate=json.loads((tmp_path / "gen" / "substrate.json").read_text()),
            workload={"sfcs": workload["sfcs"]}, catalog=workload["catalog"]))
        original = load_scenario(params)
        assert generated.topo == original.topo
        assert generated.requests == original.requests
        assert generated.catalog.templates == original.catalog.templates
        assert generated.catalog.link_band_demand == original.catalog.link_band_demand


class TestValidateCommand:
    def test_ok(self, capsys):
        assert run_cli("validate", SCENARIO_DIR / "example_a.json") == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["workload"]["sfcs"][0]["chain"] = [0, 2]  # no (0,2) demand
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", path) == 2
        assert "MissingLinkDemand" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["mean_lifetime_s", "qos_ms"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0])
    def test_poisson_float_outside_finite_positive(self, tmp_path, capsys, field, value):
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        doc["workload"]["generator"]["poisson"][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", path) == 2
        assert capsys.readouterr().err == (
            f"error: workload.generator.poisson: {field} must be finite and > 0\n")

    def test_oversized_generator(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "sagin_desk.json").read_text())
        doc["substrate"]["generator"]["sagin"]["orbit_count"] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", path) == 2
        assert "substrate.generator.sagin: node x snapshot" in capsys.readouterr().err
