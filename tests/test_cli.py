import errno
import hashlib
import json
import os
import sys
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

    def test_empty_sweep_is_refused_not_ignored(self, tmp_path, capsys):
        # an empty --sweep used to run one unswept cell and exit 0
        assert run_cli("run", SCENARIO_DIR / "sagin_desk.json",
                       "--sweep", "", "--out", tmp_path) == 2
        assert capsys.readouterr().err == \
            "error: --sweep takes comma-separated integers, got ''\n"
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

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

    def test_quantities_beyond_float_range_are_written_exactly(self, tmp_path, capsys):
        # Such scenes ran, their cells written exactly through a second writer;
        # a quantity beyond float range is now refused at load, located.
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["substrate"]["snapshots"][0]["node_cpu"][0] = "1e400"
        scene = tmp_path / "capacity.json"
        scene.write_text(json.dumps(doc))
        assert run_cli("run", scene, "--out", tmp_path / "capacity") == 2
        assert capsys.readouterr().err == ("error: substrate: snapshots[0].node_cpu[0]: quantity"
                                           " beyond float range or of over 4300 digits\n")
        assert not (tmp_path / "capacity").exists()
        # A usage beyond float range: VNF 0 took 10**400 + 2.5e-6 of node 0's 2e400.
        doc["substrate"]["snapshots"][0]["node_cpu"][0] = "2e400"
        doc["catalog"]["templates"][0]["cpu"] = f"{10**407 + 25}/{10**7}"
        scene.write_text(json.dumps(doc))
        assert run_cli("run", scene, "--out", tmp_path / "usage") == 2
        assert capsys.readouterr().err == ("error: catalog: templates[0].cpu: quantity"
                                           " beyond float range or of over 4300 digits\n")
        doc["catalog"]["templates"][0]["cpu"] = 0.2
        scene.write_text(json.dumps(doc))
        assert run_cli("run", scene, "--out", tmp_path / "usage") == 2
        assert "snapshots[0].node_cpu[0]: quantity beyond float range" in capsys.readouterr().err
        assert not (tmp_path / "usage").exists()

    @pytest.mark.parametrize("value", [10**400, "1e400"], ids=["int", "string"])
    def test_off_edge_band_cell_beyond_float_range_exits_2(self, tmp_path, capsys, value):
        # A non-edge cell is read as a quantity, so both spellings meet one rule.
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        assert not doc["substrate"]["snapshots"][0]["adjacency"][0][0]
        doc["substrate"]["snapshots"][0]["link_band_mbps"][0][0] = value
        scene = tmp_path / "band.json"
        scene.write_text(json.dumps(doc))
        assert run_cli("run", scene, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == ("error: substrate: snapshots[0].link_band_mbps[0][0]:"
                                           " quantity beyond float range or of over 4300"
                                           " digits\n")
        assert not (tmp_path / "out").exists()

    def test_largest_accepted_quantity_runs_and_is_written(self, tmp_path):
        # The premise of the one fixed-point writer: a capacity, and a usage
        # booked under it, of the largest finite float are written as floats.
        top = int(sys.float_info.max)
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["substrate"]["snapshots"][0]["node_cpu"][0] = str(top)
        doc["catalog"]["templates"][0]["cpu"] = str(top)
        scene = tmp_path / "top.json"
        scene.write_text(json.dumps(doc))
        assert run_cli("run", scene, "--solver", "greedy", "--out", tmp_path / "out") == 0
        rows = (tmp_path / "out" / "greedy" / "utilization.csv").read_text().splitlines()
        text = f"{top:.6f}"
        assert text == f"{top}.000000"
        node0 = [row.split(",")[2:4] for row in rows[1:] if row.split(",")[1] == "0"]
        assert node0 == [[text, text], [text, text], ["0.000000", text], ["0.000000", text]]

    def test_unknown_solver_flag(self, tmp_path):
        assert run_cli("run", SCENARIO_DIR / "example_a.json",
                       "--solver", "pso", "--out", tmp_path) == 2

    def test_repeated_solver_flag(self, tmp_path, capsys):
        # greedy,greedy ran the same cell twice into one greedy/ directory
        assert run_cli("run", SCENARIO_DIR / "example_a.json",
                       "--solver", "greedy,greedy", "--out", tmp_path) == 2
        assert capsys.readouterr().err == "error: --solver names must be distinct\n"
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_empty_solver_flag_is_refused_not_ignored(self, tmp_path, capsys):
        # an empty --solver used to run the scenario's own solver and exit 0
        assert run_cli("run", SCENARIO_DIR / "example_a.json",
                       "--solver", "", "--out", tmp_path) == 2
        assert capsys.readouterr().err == \
            "error: unknown solver(s) ['']; available: ['greedy', 'random']\n"
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

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

    def test_sweep_outputs_match_pinned_digests(self, tmp_path, capsys):
        # SHA-256 of stdout, of sweep_summary.csv and, per run directory, of
        # its four CSVs in CSV_NAMES order
        expected = {
            "stdout": "85044564004a69859902491182639050f0b1ad06cce5b531d5dbf224e8e16b12",
            "sweep_summary.csv":
                "aa4d5ae54c5d658d521c16e2e76023e1ae8f3af8259b5762da56432e4d54e98f",
            "random_n20_r0": "082a4271e935398ef598ac7e3bb06e921ad81aa970d47ad6248f98e0991ef37c",
            "random_n20_r1": "e54f30e3fe4819f5c560de4efd75a571fb810ec2badfc9b8c7c6819f08985c36",
            "random_n40_r0": "9d651454f4a57b406cf100e1624540fd6f1f950de625d9d29df8b4f26fd2c8b8",
            "random_n40_r1": "8277af91425db65efd5b783148833aabb99fed7a99f0e5b2cb4f693cd69ffdc1",
            "greedy_n20_r0": "0baa0d037ddc5372c1341d96928127434b012229c1cab6008915b0ea7f6bb491",
            "greedy_n20_r1": "e4ba99c0a24be58c6614885213498a63b6a9e443833f77ed67db671d82c9365a",
            "greedy_n40_r0": "d059585eeda0eae17ae08c012e83385e65b2fae2b2affc5779c38d8ef5c9523e",
            "greedy_n40_r1": "a577130e6012e6a6249eb8fd48d4161840b07634f1f054d85bc1a1c326903f8a",
        }
        assert run_cli("run", SCENARIO_DIR / "sagin_desk.json", "--solver", "random,greedy",
                       "--sweep", "20,40", "--repeat", 2, "--out", tmp_path) == 0
        got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
               "sweep_summary.csv":
                   hashlib.sha256((tmp_path / "sweep_summary.csv").read_bytes()).hexdigest()}
        for label in expected.keys() - got.keys():
            got[label] = hashlib.sha256(b"".join(
                (tmp_path / label / name).read_bytes() for name in CSV_NAMES)).hexdigest()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected.keys() - {"stdout"})
        assert got == expected

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

    def test_a_scene_read_back_from_generated_files_runs_to_the_same_csvs(self, tmp_path):
        # The read-back snapshots carry no positions and their own equal
        # capacity tuples, so their path searches run without the lower bound
        # and the trace compares capacities by value, not identity.
        params = SCENARIO_DIR / "sagin_desk.json"
        assert run_cli("generate", params, "--out", tmp_path / "gen") == 0
        doc = json.loads(params.read_text())
        workload = json.loads((tmp_path / "gen" / "workload.json").read_text())
        spliced = tmp_path / "spliced.json"
        spliced.write_text(json.dumps(dict(
            doc, substrate=json.loads((tmp_path / "gen" / "substrate.json").read_text()),
            workload={"sfcs": workload["sfcs"]}, catalog=workload["catalog"])))
        for name, scene in (("generated", params), ("read_back", spliced)):
            assert run_cli("run", scene, "--out", tmp_path / name) == 0
        for csv_name in CSV_NAMES:
            assert ((tmp_path / "read_back" / "greedy" / csv_name).read_bytes()
                    == (tmp_path / "generated" / "greedy" / csv_name).read_bytes()), csv_name


    def test_quantity_of_over_4300_digits(self, tmp_path, capsys):
        # validate and run took such a scene, and generate wrote it as a
        # decimal string; it is now refused at load, and nothing is written.
        doc = json.loads((SCENARIO_DIR / "example_a.json").read_text())
        doc["substrate"]["snapshots"][0]["node_cpu"][0] = "1e4300"
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(doc))
        assert run_cli("generate", scene, "--out", tmp_path / "gen") == 2
        assert capsys.readouterr().err == ("error: substrate: snapshots[0].node_cpu[0]: quantity"
                                           " beyond float range or of over 4300 digits\n")
        assert not (tmp_path / "gen").exists()


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
