"""Time the Tier-1 test suite and write the result to BENCH_tier1.json.

Run from the repository root (standard library only):

    python3 tools/tier1_timing.py [--out BENCH_tier1.json]

It runs ``python -m pytest -q -p no:cacheprovider`` with ``PYTHONPATH=src``
and a JUnit XML report (``--junitxml``, xunit1 flavour, which names each
test's file), and records the wall time of that process, the time pytest
reports, the passed and failed counts, the summed duration of each test
file, and every test whose setup, call and teardown sum to more than
0.5 s.  The report lists every test, however short, so every test file is
summed.  The suite's own exit status (1 while the refuted claims stay red)
is recorded, not passed on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import defaultdict

COMMAND = ["-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-o", "junit_family=xunit1", "--junitxml"]
SLOW_S = 0.5


def parse_junit_xml(text: str) -> dict:
    """The counts, pytest's reported time, the per-file sums and the slow
    tests from a pytest JUnit XML report (xunit1, whose test cases carry
    ``file``; a case's ``time`` is its setup, call and teardown)."""
    suite = ET.fromstring(text).find("testsuite")
    if suite is None:
        raise ValueError("no testsuite element in the report")
    per_test: dict[str, float] = defaultdict(float)
    per_file: dict[str, float] = defaultdict(float)
    passed = failed = 0
    for case in suite.iter("testcase"):
        path = case.get("file")
        # classname is the dotted module path, then any test class
        module = path[:-len(".py")].replace("/", ".")
        scope = case.get("classname")[len(module):].replace(".", "::")
        test = f"{path}{scope}::{case.get('name')}"
        s = float(case.get("time", 0))
        per_test[test] += s
        per_file[path] += s
        outcomes = {child.tag for child in case}
        if "failure" in outcomes:
            failed += 1
        elif not outcomes & {"error", "skipped"}:
            passed += 1
    return {
        "pytest_s": round(float(suite.get("time")), 2),
        "passed": passed,
        "failed": failed,
        "per_file_s": {f: round(s, 2) for f, s in sorted(per_file.items())},
        "slow_tests_s": {t: round(s, 2) for t, s in sorted(
            per_test.items(), key=lambda item: -item[1]) if s > SLOW_S},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_tier1.json",
                        help="where to write the JSON record")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH="src")
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *COMMAND, report], env=env,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        with open(report) as f:
            parsed = parse_junit_xml(f.read())
    record = {
        "command": "PYTHONPATH=src python " + " ".join(COMMAND) + " REPORT",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "exit_status": proc.returncode,
        "wall_s": round(wall, 2),
        **parsed,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(f"{record['passed']} passed, {record['failed']} failed in "
          f"{record['pytest_s']} s (wall {record['wall_s']} s) -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
