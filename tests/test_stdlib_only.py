"""The simulator's runtime imports nothing outside the standard library."""

import subprocess
import sys

from conftest import REPO_ROOT

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import sfcsim, sfcsim.cli, sfcsim.engine, sfcsim.scenario
tops = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(t for t in tops
                      if t != "sfcsim" and t not in sys.stdlib_module_names)))
"""


def test_runtime_imports_only_the_standard_library():
    # -I: no PYTHONPATH, user site-packages or script directory on sys.path.
    done = subprocess.run([sys.executable, "-I", "-c", PROBE, str(REPO_ROOT / "src")],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []
