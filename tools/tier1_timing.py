"""Time the Tier-1 test suite and write the result to BENCH_tier1.json.

Run from the repository root (standard library only):

    python3 tools/tier1_timing.py [--out BENCH_tier1.json]

It runs ``python -m pytest -q --durations=0 -p no:cacheprovider`` with
``PYTHONPATH=src`` and records the wall time of that process, the time
pytest reports, the passed and failed counts, the summed duration of each
test file, and every test whose setup, call and teardown sum to more than
0.5 s.  Durations under pytest's 5 ms display floor are not listed, so a
file's sum leaves them out.  The suite's own exit status (1 while the
refuted claims stay red) is recorded, not passed on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from collections import defaultdict

COMMAND = ["-m", "pytest", "-q", "--durations=0", "-p", "no:cacheprovider"]
SLOW_S = 0.5

#: one line of ``--durations``: "0.52s call     tests/test_x.py::test_y[a]"
_DURATION = re.compile(r"(\d+(?:\.\d+)?)s (setup|call|teardown) +(\S+::\S.*)$")
#: pytest's closing line, e.g. "2 failed, 494 passed in 24.42s (0:00:24)"
_SUMMARY = re.compile(r"^=*\s*((?:\d+ \w+, )*\d+ \w+) in (\d+(?:\.\d+)?)s\b")


def parse_pytest_output(text: str) -> dict:
    """The counts, pytest's reported time, the per-file sums and the slow
    tests from the output of a ``pytest -q --durations=0`` run."""
    per_test: dict[str, float] = defaultdict(float)
    summary = None
    for line in text.splitlines():
        line = line.strip()
        m = _DURATION.match(line)
        if m:
            per_test[m.group(3)] += float(m.group(1))
            continue
        m = _SUMMARY.match(line)
        if m:
            summary = m
    if summary is None:
        raise ValueError("no pytest summary line in the output")
    counts = {word: int(n) for n, word in
              (part.split(" ") for part in summary.group(1).split(", "))}
    per_file: dict[str, float] = defaultdict(float)
    for test, s in per_test.items():
        per_file[test.split("::", 1)[0]] += s
    return {
        "pytest_s": float(summary.group(2)),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
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
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *COMMAND], env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    record = {
        "command": "PYTHONPATH=src python " + " ".join(COMMAND),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "exit_status": proc.returncode,
        "wall_s": round(wall, 2),
        **parse_pytest_output(proc.stdout),
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    print(f"{record['passed']} passed, {record['failed']} failed in "
          f"{record['pytest_s']} s (wall {record['wall_s']} s) -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
