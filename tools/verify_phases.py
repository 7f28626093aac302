"""Time the phases of fresh ``nilcert`` processes, per source tree.

Run from the repository root (standard library only):

    python3 tools/verify_phases.py [--runs N] [--src TREE ...] [-- ARGS ...]

Each run spawns a fresh interpreter that imports ``nilcert.cli`` from TREE
and calls ``main(ARGS)`` (default ``verify --json``) as the ``nilcert``
script does, then exits with its code.  The child writes ``perf_counter_ns``
stamps to stderr just before the import, after it and after ``main``
returns; the parent stamps the spawn and the exit it sees.  On Linux that
clock is one system-wide monotonic clock, so the stamps of both processes
compare.  The four phases are: spawn to the first nilcert import, the
import, ``main``, and ``main``'s return to the exit (the interpreter's
shutdown).  With several ``--src`` trees (a parent copy and a change, say)
the runs alternate between them, the first tree of each round alternating
too, so that both meet the same spells of a shared machine.

It prints one JSON object: per tree, the median of each phase and of the
total over the runs, in microseconds, and the exit codes seen; and the
Python version and the children's ``sys.dont_write_bytecode`` (without a
bytecode cache the import is mostly compiling).  Medians of the phases need
not sum to the median total.  The parent imports nothing from nilcert.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

PHASES = ("spawn_to_import_us", "import_us", "main_us", "shutdown_us")
MARK = "verify_phases:"
CHILD = f"""\
import sys, time
t0 = time.perf_counter_ns()
from nilcert.cli import main
t1 = time.perf_counter_ns()
code = main(sys.argv[1:])
print({MARK!r}, t0, t1, time.perf_counter_ns(), int(sys.dont_write_bytecode),
      file=sys.stderr, flush=True)
sys.exit(code)
"""


def run_once(src: str, args: list[str]) -> tuple[list[int], int, bool]:
    """(the four phases in microseconds, the exit code,
    ``sys.dont_write_bytecode``) of one fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t_spawn = time.perf_counter_ns()
    proc = subprocess.Popen([sys.executable, "-c", CHILD, *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    err = proc.communicate()[1]
    t_exit = time.perf_counter_ns()
    stamps = [line.split()[1:] for line in err.splitlines()
              if line.startswith(MARK)]
    if not stamps:
        raise SystemExit(f"{src}: no stamps (exit {proc.returncode}):\n{err}")
    t0, t1, t2, no_bytecode = map(int, stamps[-1])
    us = [t // 1000 for t in (t_spawn, t0, t1, t2, t_exit)]
    return [b - a for a, b in zip(us, us[1:])], proc.returncode, bool(
        no_bytecode)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15,
                        help="processes per tree (default 15)")
    parser.add_argument("--src", action="append",
                        help="a source tree to import nilcert from; repeat "
                             "to alternate runs over trees (default src)")
    parser.add_argument("args", nargs="*",
                        help="the nilcert arguments, after -- "
                             "(default: verify --json)")
    ns = parser.parse_args(argv)
    if ns.runs < 1:
        parser.error("--runs must be at least 1")
    trees = ns.src or ["src"]
    args = ns.args or ["verify", "--json"]
    phases = {src: [] for src in trees}
    codes = {src: set() for src in trees}
    for run in range(ns.runs):
        for src in trees if run % 2 == 0 else trees[::-1]:
            times, code, no_bytecode = run_once(src, args)
            phases[src].append(times)
            codes[src].add(code)
    record = {
        "python": platform.python_version(),
        "dont_write_bytecode": no_bytecode,
        "runs": ns.runs,
        "args": args,
        "trees": {src: {
            **{name: statistics.median(column)
               for name, column in zip(PHASES, zip(*phases[src]))},
            "total_us": statistics.median(map(sum, phases[src])),
            "exit_codes": sorted(codes[src]),
        } for src in trees},
    }
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
