"""tools/verify_phases.py on one short fresh ``nilcert verify`` process."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PHASES = ["spawn_to_import_us", "import_us", "main_us", "shutdown_us"]


def test_the_phases_of_one_process_sum_to_its_total():
    proc = subprocess.run(
        [sys.executable, "tools/verify_phases.py", "--runs", "1", "--",
         "verify", "--json", "--suite", "jacobi.G"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record.keys() == {"python", "dont_write_bytecode", "runs", "args",
                             "trees"}
    assert record["python"].count(".") == 2
    assert isinstance(record["dont_write_bytecode"], bool)
    assert (record["runs"], record["args"]) == (
        1, ["verify", "--json", "--suite", "jacobi.G"])
    tree = record["trees"]["src"]
    assert list(tree) == [*PHASES, "total_us", "exit_codes"]
    assert tree["exit_codes"] == [0]
    assert all(tree[phase] >= 0 for phase in PHASES)
    assert sum(tree[phase] for phase in PHASES) <= tree["total_us"]
