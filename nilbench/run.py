"""The nilcert benchmark: one command, three workloads, outputs checked.

    python3 nilbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                            [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop with one client: the next op
starts when the previous one has finished.

* ``verify_default``: each op is a fresh ``nilcert verify --json`` process
  over the 30 pinned check ids, at the default p.
* ``p_scan``: in one process, the seven p-dependent deterministic checks at
  each hook target p of a list.
* ``user_algebras``: in one process, load a JSON algebra document (about one
  in five violates Jacobi and must be rejected), then its lower central
  series, centre and derivation algebra.

Every op's output is compared with ``goldens/``; an op that crashes or
differs counts as failed.  A run measures whole passes over the workload's
input pool, in the seed's order, for at most ``--seconds`` (at least one
pass), so every run measures the same mix of inputs.

Every end-to-end time is scaled to a reference machine speed, sampled
while the op or set-up runs by timing a fixed piece of pure-Python exact
arithmetic (see calib.py); the table before the result line also shows
the unscaled op_p50_s and setup_s and the mean speed factor.  ops_per_s
is ops per second of that scaled op time: the throughput of the one-client
loop, without the harness's own time between ops.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` a traced run reports per-layer
metrics instead (see tracer.py) together with the tracing overhead.  The
lines before it print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".nilbench_out"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify_default", "p_scan", "user_algebras")

#: the percentile reported as op_tail_s: the highest with at least ten of a
#: run's samples beyond it, at one pass of 64 ops for p_scan and of 48 for
#: user_algebras.  A verify_default run holds one pass of 12 ops, so no
#: percentile above the median has ten samples beyond it; it reports p75.
TAIL_PERCENTILE = {"verify_default": 75, "p_scan": 84, "user_algebras": 79}

#: ops of the seeded order that a traced run measures, once untraced and
#: once traced; a traced run reports per-layer totals over these ops.
TRACE_OPS = {"verify_default": 4, "p_scan": 24, "user_algebras": 20}

SETUP_RUNS = 25
#: a set-up process samples the machine's speed from its start until it is
#: ready, more often than an op does because it is short, then prints the
#: samples after its "ready" line
SETUP_HEAD = (f"import json, sys\nsys.path.insert(0, {str(HERE)!r})\n"
              "import calib\nsampler = calib.Sampler(0.005)\n"
              "sampler.install()\n")
SETUP_TAIL = ("print('ready', flush=True)\nsampler.uninstall()\n"
              "print(json.dumps(sampler.samples))\n")
SETUP_CODE = {
    "model": (SETUP_HEAD + "import nilcert\n"
              "from nilcert.models import model_data\nmodel_data()\n"
              + SETUP_TAIL),
    "import": SETUP_HEAD + "import nilcert\n" + SETUP_TAIL,
}
SETUP_KIND = {"verify_default": "model", "p_scan": "model",
              "user_algebras": "import"}

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "ops_per_s": "1/s", "cpu_s_per_op": "s",
                    "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 100])."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_goldens(workload: str) -> dict:
    with open(HERE / "goldens" / f"{workload}.json") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# inputs and golden keys
# ---------------------------------------------------------------------------

def pool(workload: str) -> list:
    if workload == "verify_default":
        return workloads.verify_pool()
    if workload == "p_scan":
        return workloads.p_pool()
    return [doc["text"] for doc in workloads.algebra_pool()]


def golden_key(workload: str, item) -> str:
    if workload == "verify_default":
        return str(item)
    if workload == "p_scan":
        return ",".join(item)
    return hashlib.sha256(item.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def measure_setup(kind: str) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it is ready for its
    first op, SETUP_RUNS times after one unmeasured start: (as measured,
    at the reference machine speed)."""
    times, scaled = [], []
    for k in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE[kind]],
                                stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
                                text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        samples = proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed ({kind})")
        if k:
            times.append(t1 - t0)
            scaled.append(calib.scale(json.loads(samples), t0, t1,
                                      t1 - t0)[0])
    return times, scaled


def run_worker(workload: str, inputs: list, budget_s: float,
               trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    job = {"workload": workload, "inputs": inputs, "budget_s": budget_s,
           "trace": trace, "out_dir": str(OUT)}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True,
                          text=True, env=_env(), cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def check_ops(workload: str, items: list, ops: list, goldens: dict) -> int:
    """Number of ops whose output differs from its golden."""
    failed = 0
    for i, _, output in ops:
        key = golden_key(workload, items[i])
        if goldens.get(key) != output:
            failed += 1
            print(f"  MISMATCH {workload} input {key[:40]}: got {output}, "
                  f"expected {goldens.get(key)}", file=sys.stderr)
    return failed


def _traced(workload: str, inputs: list, goldens: dict):
    inputs = inputs[:TRACE_OPS[workload]]
    res = run_worker(workload, inputs, 0, True)
    untraced, traced = res["untraced_ops"], res["ops"]
    failed = (check_ops(workload, inputs, untraced, goldens)
              + check_ops(workload, inputs, traced, goldens))
    metrics = tracing.layer_metrics(res["trace"], workloads.VERIFY_SUITE,
                                    len(traced))
    t50 = statistics.median(t for _, t, _ in traced)
    u50 = statistics.median(t for _, t, _ in untraced)
    metrics["trace.op_p50_s"] = (t50, "s")
    metrics["trace.untraced_op_p50_s"] = (u50, "s")
    metrics["trace.overhead_ratio"] = (t50 / u50, "ratio")
    return (metrics, len(untraced) + len(traced), failed,
            {"traced ops": len(traced)})


def _measured(workload: str, inputs: list, goldens: dict, seconds: float):
    setup, setup_scaled = measure_setup(SETUP_KIND[workload])
    res = run_worker(workload, inputs, seconds, False)
    ops = res["ops"]
    failed = check_ops(workload, inputs, ops, goldens)
    latencies = [wall for wall, _, _ in res["scaled"]]
    q = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, q),
        "ops_per_s": len(ops) / sum(latencies),
        "cpu_s_per_op": sum(cpu for _, cpu, _ in res["scaled"]) / len(ops),
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }
    speed = statistics.mean(s for _, _, s in res["scaled"])
    notes = {"ops": len(ops), "passes": len(ops) // len(inputs),
             "tail": f"p{q}", "setup runs": len(setup),
             "failed_ratio": failed / len(ops),
             "unscaled op_p50_s": round(statistics.median(
                 t for _, t, _ in ops), 6),
             "unscaled setup_s": round(statistics.median(setup), 6),
             "speed factor": round(speed, 4)}
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            len(ops), failed, notes)


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """(metrics {name: (value, unit)}, attempted, failed, notes)."""
    items = pool(workload)
    inputs = [items[i] for i in workloads.op_order(len(items), seed)]
    goldens = load_goldens(workload)
    if trace:
        return _traced(workload, inputs, goldens)
    return _measured(workload, inputs, goldens, seconds)


def _print_table(workload: str, metrics: dict, notes: dict) -> None:
    print(f"{workload}: " + ", ".join(f"{k} {v}" for k, v in notes.items()))
    for name, (value, unit) in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:44s} {shown} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilcert" / "__init__.py").is_file():
        print(f"no nilcert sources under {ROOT / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, attempted, failed, notes = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        _print_table(name, metrics, notes)
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = "" if len(names) == 1 else name + "."
        for metric, (value, unit) in metrics.items():
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
