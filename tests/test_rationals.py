"""The table shared.rationals samples from, against an independent
enumeration, for every bound the test modules draw with."""

import math
import re
from fractions import Fraction as Q
from pathlib import Path

import pytest

from shared import rationals

TESTS = Path(__file__).resolve().parent

#: (lo, hi, max_den) of every call of ``rationals`` in the test modules; a
#: call whose arguments are not three integer literals fails collection
BOUNDS = sorted({
    tuple(int(arg) for arg in args.split(","))
    for path in TESTS.glob("*.py") if path.name != Path(__file__).name
    for args in re.findall(r"(?<!def )\brationals\(([^)]*)\)",
                           path.read_text())})


def bounded_rationals(lo, hi, max_den):
    """{x : lo <= x <= hi, x.denominator <= max_den}, over coprime pairs."""
    reach = (max(abs(lo), abs(hi)) + 1) * max_den
    return {Q(n, d) for d in range(1, max_den + 1)
            for n in range(-reach, reach + 1)
            if math.gcd(n, d) == 1 and lo <= Q(n, d) <= hi}


def test_the_suite_draws_with_several_bounds():
    assert (-9, 9, 7) in BOUNDS and len(BOUNDS) >= 8


@pytest.mark.parametrize("lo, hi, max_den", BOUNDS)
def test_the_table_holds_each_bounded_rational_once(lo, hi, max_den):
    values = rationals(lo, hi, max_den).elements
    expected = bounded_rationals(lo, hi, max_den)
    assert len(values) == len(set(values))
    assert set(values) == expected
    # Hypothesis shrinks a sampled value toward the front of the table: to
    # smaller denominators, then to smaller sizes, and at last to the value
    # nearest 0
    keys = [(x.denominator, abs(x)) for x in values]
    assert keys == sorted(keys)
    assert abs(values[0]) == min(abs(x) for x in expected)
