"""The parser of tools/tier1_timing.py on canned pytest JUnit XML reports,
and the tool on a two-module suite."""

import importlib.util
import json
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
    assert (record["passed"], record["failed"], record["errors"]) == (5, 2, 1)
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


#: pytest's report when one of two modules fails to import, run with
#: --continue-on-collection-errors: the error is a case with no classname
COLLECTION_ERROR = """\
<?xml version="1.0" encoding="utf-8"?><testsuites name="pytest tests">\
<testsuite name="pytest" errors="1" failures="0" skipped="0" tests="2" \
time="0.035" timestamp="2026-01-01T00:00:00.000000+00:00" hostname="vm">\
<testcase classname="" name="tests.test_broken" file="tests/test_broken.py" \
time="0.000"><error message="collection failure">ImportError while \
importing test module</error></testcase><testcase \
classname="tests.test_good" name="test_ok" file="tests/test_good.py" \
line="0" time="0.000" /></testsuite></testsuites>
"""


def test_the_parser_counts_a_collection_error():
    record = tier1_timing.parse_junit_xml(COLLECTION_ERROR)
    assert (record["passed"], record["failed"], record["errors"]) == (1, 0, 1)
    assert record["per_file_s"] == {"tests/test_broken.py": 0.0,
                                    "tests/test_good.py": 0.0}


def test_a_module_that_fails_to_import_stops_nothing(tmp_path, monkeypatch):
    # test_good imports a module from the caller's PYTHONPATH, which the
    # tool keeps behind src
    (tmp_path / "extra").mkdir()
    (tmp_path / "extra" / "helper_on_the_path.py").write_text("X = 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_good.py").write_text(
        "from helper_on_the_path import X\n\n"
        "def test_ok():\n    assert X == 1\n")
    (tmp_path / "tests" / "test_broken.py").write_text(
        "import no_such_module_anywhere\n\ndef test_never():\n    pass\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", str(tmp_path / "extra"))
    assert tier1_timing.main(["--out", "out.json"]) == 0
    record = json.loads((tmp_path / "out.json").read_text())
    assert (record["passed"], record["failed"], record["errors"]) == (1, 0, 1)
    assert record["exit_status"] == 1
