"""The parser of tools/tier1_timing.py on a canned pytest JUnit XML report."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "tier1_timing.py"
_SPEC = importlib.util.spec_from_file_location("tier1_timing", _PATH)
tier1_timing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier1_timing)

CANNED = """\
<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">\
<testsuite name="pytest" errors="1" failures="2" skipped="1" tests="9" \
time="24.421" timestamp="2026-01-01T00:00:00.000000+00:00" hostname="vm">
<testcase classname="tests.test_acceptance" name="test_c14_determinism" \
file="tests/test_acceptance.py" line="10" time="4.310" />
<testcase classname="tests.test_acceptance" \
name="test_c08_derivation_decompositions" file="tests/test_acceptance.py" \
line="20" time="0.120"><failure message="AssertionError" /></testcase>
<testcase classname="tests.test_acceptance" \
name="test_c09_unipotence_certificate" file="tests/test_acceptance.py" \
line="30" time="0.004"><failure message="AssertionError" /></testcase>
<testcase classname="tests.test_cli" name="test_json_round_trip" \
file="tests/test_cli.py" line="40" time="0.450" />
<testcase classname="tests.test_cli" name="test_main[a b]" \
file="tests/test_cli.py" line="50" time="0.510" />
<testcase classname="tests.test_cli.TestGroup" name="test_in_a_class" \
file="tests/test_cli.py" line="60" time="0.600" />
<testcase classname="tests.test_cli" name="test_broken_fixture" \
file="tests/test_cli.py" line="70" time="0.001"><error message="setup" />\
</testcase>
<testcase classname="tests.test_cli" name="test_skipped" \
file="tests/test_cli.py" line="80" time="0.000"><skipped message="no" />\
</testcase>
<testcase classname="tests.test_readme" name="test_readme_library_example" \
file="tests/test_readme.py" line="12" time="0.002" />
</testsuite></testsuites>
"""


def test_the_parser_reads_counts_times_and_slow_tests():
    record = tier1_timing.parse_junit_xml(CANNED)
    # an error or a skip is neither a pass nor a failure
    assert (record["passed"], record["failed"]) == (5, 2)
    assert (record["pytest_s"], record["tests_s"]) == (24.42, 6.0)
    # every file is summed, one whose tests all take under 5 ms too
    assert record["per_file_s"] == {"tests/test_acceptance.py": 4.43,
                                    "tests/test_cli.py": 1.56,
                                    "tests/test_readme.py": 0.0}
    # a case's time is its setup, call and teardown, cut at 0.5 s
    assert record["slow_tests_s"] == {
        "tests/test_acceptance.py::test_c14_determinism": 4.31,
        "tests/test_cli.py::TestGroup::test_in_a_class": 0.6,
        "tests/test_cli.py::test_main[a b]": 0.51}


def test_the_parser_reads_a_long_run_and_needs_a_summary():
    record = tier1_timing.parse_junit_xml(
        '<testsuites><testsuite name="pytest" tests="1" time="65.104">'
        '<testcase classname="tests.test_x" name="test_y" '
        'file="tests/test_x.py" time="65.0" /></testsuite></testsuites>')
    assert (record["passed"], record["failed"], record["pytest_s"],
            record["tests_s"]) == (1, 0, 65.1, 65.0)
    assert record["slow_tests_s"] == {"tests/test_x.py::test_y": 65.0}
    with pytest.raises(ValueError, match="no testsuite element"):
        tier1_timing.parse_junit_xml('<testsuites name="pytest tests" />')
