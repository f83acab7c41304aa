"""Exact-quantity strings read alike on every Python version.

``Fraction`` accepts ``1_0`` from Python 3.11 on and ``1 /5`` from 3.12 on,
and builds ``10**exponent`` for any exponent it is given.  The scenario
readers test a string against Python 3.10's grammar first, and refuse an
exponent beyond 4300, so a file loads (or fails) the same way on 3.10-3.13
and a large exponent fails at once.  A quantity that passes the grammar is
still refused beyond float range, or with over 4300 digits in its numerator
or denominator.  This module needs no pytest:
``python tests/test_exact_literals.py`` (with ``src`` on ``PYTHONPATH``) runs
the same checks on an interpreter that lacks it.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from sfcsim.scenario import scenario_from_json

EXAMPLE_A = Path(__file__).resolve().parent.parent / "scenarios" / "example_a.json"
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


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
