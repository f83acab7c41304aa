"""The bundled scenarios' CSVs match pinned digests on every Python version.

Each digest is the SHA-256 over the four CSVs, in ``CSV_NAMES`` order, of
``sfcsim run <scenario> --solver <solver>``.  Reruns from a scenario and seed
are byte-identical, so a change made only for speed keeps these digests.
This module needs no pytest: ``python tests/test_golden_outputs.py`` (with
``src`` on ``PYTHONPATH``) runs the same checks on an interpreter that lacks
it.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from sfcsim.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CSV_NAMES = ("events.csv", "utilization.csv", "running_count.csv", "summary.csv")
DIGESTS = {
    ("example_a", "random"): "735b6265043dd5cb9e65baddc574ebf3d350222a844ee18a71512cd7df5261ba",
    ("sagin_desk", "random"): "509acad73feef6e704765aaeeb55f21fb94eab0f67acb2888680be37ce906fae",
    ("sagin_full", "random"): "affd6e8235b63208f5fb4573966c4f110258e1657d4b5b6d71b5501ab823a908",
    ("example_a", "greedy"): "d27b1c4eb2edef2847405b24ceee02184f613fac736e683b2fc65aea46ff4904",
    ("sagin_desk", "greedy"): "f40648346fad79bb2911941a45152fc6bb1e1c40f8844e702c8b101670cd807a",
    ("sagin_full", "greedy"): "100dfcc81b1e5c77c2f42386705f83ce9d1a792601d9ce15790c8a915d44840b",
}


def csv_digest(scenario, solver):
    """The digest of one ``sfcsim run``, its summary line kept off stdout."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(SCENARIO_DIR / f"{scenario}.json"), "--solver", solver,
                     "--out", out]) == 0
        digest = hashlib.sha256()
        for name in CSV_NAMES:
            digest.update((Path(out) / solver / name).read_bytes())
    return digest.hexdigest()


def check(scenario, solver):
    assert csv_digest(scenario, solver) == DIGESTS[scenario, solver], (scenario, solver)


def test_example_a_random():
    check("example_a", "random")


def test_sagin_desk_random():
    check("sagin_desk", "random")


def test_sagin_full_random():
    check("sagin_full", "random")


def test_example_a_greedy():
    check("example_a", "greedy")


def test_sagin_desk_greedy():
    check("sagin_desk", "greedy")


def test_sagin_full_greedy():
    check("sagin_full", "greedy")


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
