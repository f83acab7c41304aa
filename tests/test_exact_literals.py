"""Exact-quantity strings read alike on every Python version.

``Fraction`` accepts ``1_0`` from Python 3.11 on and ``1 /5`` from 3.12 on,
and builds ``10**exponent`` for any exponent it is given.  The scenario
readers test a string against Python 3.10's grammar first, and refuse an
exponent beyond 4300, so a file loads (or fails) the same way on 3.10-3.13
and a large exponent fails at once.  A quantity that passes the grammar is
still refused beyond float range, or with over 4300 digits in its numerator
or denominator.  A substrate file's exact-quantity cells go through one
memoized ``as_fraction``; the reader gives what the unmemoized reader
gives, topology or message, on every pinned generator scene and with a
malformed value in any band or capacity cell.  This module needs no pytest:
``python tests/test_exact_literals.py`` (with ``src`` on ``PYTHONPATH``) runs
the same checks on an interpreter that lacks it.
"""

import copy
import json
import math
import time
from fractions import Fraction
from pathlib import Path

from generator_digests import PINNED, desk_params
from sfcsim import topology
from sfcsim.scenario import generate_sagin, scenario_from_json
from sfcsim.topology import as_fraction, topology_from_json, topology_to_json

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EXAMPLE_A = SCENARIOS / "example_a.json"
# A value of each kind a reader must refuse somewhere; test_scenario's sweep
# puts each one in every value of a scenario document.
MALFORMED = [None, True, False, "x", "1/0", [], {}, math.nan, math.inf, -math.inf, -1,
             10**400, "1e400", "1e-4300"]
OUT_OF_RANGE = "catalog: templates[0].cpu: quantity beyond float range or of over 4300 digits"


def template_cpu(text):
    """Template 0's cpu demand in example_a, read from ``text``."""
    doc = json.loads(EXAMPLE_A.read_text())
    doc["catalog"]["templates"][0]["cpu"] = text
    return scenario_from_json(doc).catalog.templates[0].cpu_demand


def refusal(text) -> str:
    try:
        template_cpu(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} loaded")


def test_the_grammar_is_that_of_python_3_10():
    for text in ("1_0/50", "1 /5"):  # loaded on 3.11+ or 3.12+ only
        assert refusal(text) == f"catalog: templates[0].cpu: Invalid literal for Fraction: {text!r}"
    for text, value in (("1/3", Fraction(1, 3)), (" 1/3 ", Fraction(1, 3)),
                        ("+1/3", Fraction(1, 3)), ("1.5E-3", Fraction(3, 2000)),
                        ("٣", Fraction(3))):
        assert template_cpu(text) == value, text
    assert refusal("1e400") == OUT_OF_RANGE  # in the grammar, beyond float range


def test_an_exponent_beyond_the_bound_is_refused_at_once():
    start = time.perf_counter()
    assert refusal("1e-999999999") == ("catalog: templates[0].cpu: exponent -999999999 in "
                                       "'1e-999999999' is outside -4300..4300")
    assert time.perf_counter() - start < 1
    assert refusal("1E+4301") == ("catalog: templates[0].cpu: exponent 4301 in '1E+4301' "
                                  "is outside -4300..4300")
    assert refusal("1e4300") == OUT_OF_RANGE
    assert refusal("1e-4300") == OUT_OF_RANGE


def read_both(doc):
    """``topology_from_json(doc)`` as shipped and with its memo swapped for
    plain ``as_fraction``: each read's topology, or its message."""
    outcomes = []
    for reader in (topology._exact_reader, lambda: as_fraction):
        shipped, topology._exact_reader = topology._exact_reader, reader
        try:
            outcomes.append(topology_from_json(doc))
        except ValueError as exc:
            outcomes.append(str(exc))
        finally:
            topology._exact_reader = shipped
    return outcomes


def test_a_written_generator_scene_reads_back_as_generated():
    for name, (overrides, _) in sorted(PINNED.items()):
        topo = generate_sagin(desk_params(**overrides))
        memoized, plain = read_both(json.loads(json.dumps(topology_to_json(topo))))
        assert memoized == plain == topo, name


def substrates():
    """(name, substrate document) of example_a and of a written sagin_desk cut
    to its first and last snapshots, so a cell of the last meets the memo's
    entries from the first."""
    yield "example_a", json.loads(EXAMPLE_A.read_text())["substrate"]
    doc = topology_to_json(scenario_from_json(
        json.loads((SCENARIOS / "sagin_desk.json").read_text())).topo)
    yield "sagin_desk", {key: [doc[key][0], doc[key][-1]] for key in doc}


def test_a_malformed_exact_cell_anywhere_reads_as_without_the_memo():
    # each band row's diagonal, edge cells and first and last non-edge cells,
    # and every capacity entry, of the last snapshot
    for name, doc in substrates():
        last = doc["snapshots"][-1]
        n = len(last["adjacency"])
        cells = []
        for i, adjacent in enumerate(last["adjacency"]):
            off = [j for j in range(n) if j != i and not adjacent[j]]
            cells += [("link_band_mbps", i, j) for j in sorted(
                {i, *off[:1], *off[-1:], *(j for j in range(n) if adjacent[j])})]
        cells += [(key, i, None) for key in ("node_cpu", "node_ram_mb") for i in range(n)]
        for key, i, j in cells:
            row, index = (last[key], i) if j is None else (last[key][i], j)
            kept = row[index]
            for value in MALFORMED:
                row[index] = value
                memoized, plain = read_both(doc)
                assert memoized == plain, (name, key, i, j, value, memoized, plain)
            row[index] = kept


def refused(doc, key, row):
    """topology_from_json's message once ``key`` of ``doc``'s first snapshot is ``row``."""
    doc = copy.deepcopy(doc)
    doc["snapshots"][0][key] = row
    try:
        topology_from_json(doc)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{key} = {row!r} loaded")


def test_a_bool_after_an_equal_number_is_still_a_bool():
    doc = json.loads(EXAMPLE_A.read_text())["substrate"]
    bool_message = "expected a number, got a bool"
    for one in (1, 1.0):
        assert refused(doc, "node_cpu", [one, True, 2]) == \
            f"snapshots[0].node_cpu[1]: {bool_message}"
        band = [[one, True, 0], [100, 0, 100], [0, 100, 0]]
        assert refused(doc, "link_band_mbps", band) == \
            f"snapshots[0].link_band_mbps[0][1]: {bool_message}"


def test_an_unhashable_cell_is_refused_as_a_quantity():
    doc = json.loads(EXAMPLE_A.read_text())["substrate"]
    for value in ([], {}):
        band = [[0, 100, 0], [100, 0, value], [0, 100, 0]]
        assert refused(doc, "link_band_mbps", band) == (
            f"snapshots[0].link_band_mbps[1][2]: cannot interpret {value!r} "
            "as a resource quantity")


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
