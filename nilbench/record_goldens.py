"""Record the expected output of every op in every workload pool.

    python3 nilbench/record_goldens.py

Run from the root of a source checkout, at a commit whose ``verify --json``
output is known to be right: a later change that alters any recorded byte
makes the benchmark count its ops as failed.  Writes ``goldens/*.json``.
"""

import json
import sys

import run


def record(workload: str) -> dict:
    items = run.pool(workload)
    res = run.run_worker(workload, items, 0, False)
    outputs = [output for _, _, output in res["ops"]]
    return {run.golden_key(workload, item): output
            for item, output in zip(items, outputs)}


def main() -> int:
    for workload in run.WORKLOADS:
        goldens = record(workload)
        path = run.HERE / "goldens" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as f:
            json.dump(goldens, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"{workload}: {len(goldens)} goldens -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
