"""The parser of tools/tier1_timing.py on a canned pytest output."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "tier1_timing.py"
_SPEC = importlib.util.spec_from_file_location("tier1_timing", _PATH)
tier1_timing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier1_timing)

CANNED = """\
........................................................................ [ 14%]
.....F..F............................................................... [ 29%]
=================================== FAILURES ===================================
E   AssertionError: 1.50s call     tests/test_fake.py::not_a_duration
============================== slowest durations ===============================
3.91s call     tests/test_acceptance.py::test_c14_determinism
0.40s setup    tests/test_acceptance.py::test_c14_determinism
0.45s call     tests/test_cli.py::test_json_round_trip
0.30s call     tests/test_cli.py::test_main[a b]
0.06s teardown tests/test_cli.py::test_main[a b]
0.01s call     tests/test_liecore.py::test_bracket_basis_pairs

(412 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_acceptance.py::test_c08_derivation_decompositions - Asserti...
FAILED tests/test_acceptance.py::test_c09_unipotence_certificate - AssertionE...
2 failed, 494 passed, 1 warning in 24.42s
"""


def test_the_parser_reads_counts_times_and_slow_tests():
    record = tier1_timing.parse_pytest_output(CANNED)
    assert (record["passed"], record["failed"]) == (494, 2)
    assert record["pytest_s"] == 24.42
    assert record["per_file_s"] == {"tests/test_acceptance.py": 4.31,
                                    "tests/test_cli.py": 0.81,
                                    "tests/test_liecore.py": 0.01}
    # setup, call and teardown are summed per test before the 0.5 s cut
    assert record["slow_tests_s"] == {
        "tests/test_acceptance.py::test_c14_determinism": 4.31}


def test_the_parser_reads_a_long_run_and_needs_a_summary():
    record = tier1_timing.parse_pytest_output("476 passed in 65.10s (0:01:05)\n")
    assert (record["passed"], record["failed"], record["pytest_s"]) == (
        476, 0, 65.1)
    with pytest.raises(ValueError, match="no pytest summary line"):
        tier1_timing.parse_pytest_output(CANNED.rsplit("\n", 2)[0])
