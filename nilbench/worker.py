"""Runs one workload's ops in a process of its own, so that its CPU time and
peak memory are the ops' alone.

Reads one job as JSON on stdin and writes one result as JSON on stdout:

job:    {"workload", "inputs", "budget_s", "trace", "out_dir"}
result: {"ops": [[input index, seconds, output], ...], "maxrss_kb", and,
         untraced, "scaled": [[wall s, CPU s, speed], ...] per op at the
         reference machine speed (see calib.py), or, traced,
         "untraced_ops" and "trace"}

``inputs`` is one pass over the workload's pool in the run's order.
Untraced, the worker repeats whole passes while the next one, at the
length of the last, still ends within ``budget_s``; it always completes
at least one, and it samples the machine's speed while the ops run.
Traced, it runs each op once untraced and once traced, without sampling.

A verify_default op is a fresh verify process (verify_child.py), so its CPU
time and peak memory are those of the worker's children, and the child
samples the speed itself; the other workloads run their ops here.
"""

from __future__ import annotations

import functools
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from nilcert import autos, cli, liecore, models

import calib
import tracer as tracing
from workloads import P_SCAN_SUITE, verify_argv

VERIFY_CHILD = str(Path(__file__).resolve().parent / "verify_child.py")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verify_output(stdout: bytes, code: int) -> dict:
    out = {"sha256": _digest(stdout), "exit": code}
    try:
        checks = json.loads(stdout)["checks"]
        out["statuses"] = "".join(c["status"][0] for c in checks)
    except (ValueError, KeyError, TypeError):
        out["statuses"] = None
    return out


def _verify_op(seed, trace_out=None, samples_out=None):
    argv = [sys.executable, VERIFY_CHILD]
    if trace_out:
        argv += ["--trace", trace_out]
    if samples_out:
        argv += ["--samples", samples_out]
    t0 = time.perf_counter()
    proc = subprocess.run(argv + verify_argv(seed), capture_output=True)
    return t0, time.perf_counter(), verify_output(proc.stdout,
                                                  proc.returncode)


# Each op returns (start, end, output), timed around the program's work
# only.  The in-process ops call through the module attributes, so that
# they reach the tracer's wrappers when it is installed.

def _p_scan_op(p):
    t0 = time.perf_counter()
    report = cli.run(list(P_SCAN_SUITE), cli.Config(p=models.validate_p(p)))
    text = report.to_json()
    return t0, time.perf_counter(), {"sha256": _digest(text.encode())}


def _user_algebra_op(text):
    t0 = time.perf_counter()
    try:
        L = liecore.lie_algebra_from_json(text)
    except ValueError:
        return t0, time.perf_counter(), "rejected"
    series = liecore.lower_central_series(L)
    z = liecore.center(L)
    der = autos.derivation_algebra(L)
    t1 = time.perf_counter()
    basis = ";".join(",".join(str(x) for x in row)
                     for row in der.space.basis_vectors())
    return t0, t1, {"lcs": [s.dim for s in series], "center": z.dim,
                    "der": der.dim, "der_sha256": _digest(basis.encode())}


OPS = {"verify_default": _verify_op, "p_scan": _p_scan_op,
       "user_algebras": _user_algebra_op}


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _run_op(op, x) -> tuple:
    """(start, end, output); a crash is an output that matches no golden."""
    t0 = time.perf_counter()
    try:
        return op(x)
    except Exception as exc:  # the op failed; the run goes on
        return t0, time.perf_counter(), f"error: {exc!r}"


def _timed(op, x) -> list:
    """[seconds, output] of one op."""
    t0, t1, output = _run_op(op, x)
    return [t1 - t0, output]


def _measured_run(workload: str, op, inputs, budget_s: float,
                  out_dir: str) -> dict:
    """Untraced passes over ``inputs``, each op timed and scaled to the
    reference speed by the samples taken while it ran."""
    ops, scaled = [], []
    sampler = calib.Sampler()
    child = workload == "verify_default"
    samples_out = str(Path(out_dir) / "samples.json")
    if child:
        op = functools.partial(_verify_op, samples_out=samples_out)
    else:
        sampler.install()
    try:
        wall0 = time.perf_counter()
        while True:
            t = time.perf_counter()
            for i, x in enumerate(inputs):
                cpu0 = _cpu_s()
                t0, t1, output = _run_op(op, x)
                cpu = _cpu_s() - cpu0
                samples = sampler.samples
                if child:
                    try:
                        with open(samples_out) as f:
                            samples = json.load(f)
                        Path(samples_out).unlink()
                    except FileNotFoundError:  # the op crashed
                        samples = []
                ops.append([i, t1 - t0, output])
                scaled.append(calib.scale(samples, t0, t1, t1 - t0, cpu))
            now = time.perf_counter()
            if now - wall0 + (now - t) > budget_s:
                break
    finally:
        sampler.uninstall()
    return {"ops": ops, "scaled": scaled}


#: a traced run alternates untraced and traced blocks of this many ops, so
#: that drift in machine speed hits both medians alike.  In one process the
#: blocks are longer than the program's per-p model cache, so that traced
#: p_scan ops rebuild the model as untraced ones do; fresh verify processes
#: share nothing, so they alternate op by op.
TRACE_BLOCK = {"verify_default": 1, "p_scan": 6, "user_algebras": 6}


def _traced_run(workload: str, op, inputs, trace_out: str):
    """(untraced ops, traced ops, trace summary).  A verify process installs
    the tracer itself and writes its summary and spans to files named after
    ``trace_out``; the other workloads trace this process."""
    tracer = tracing.Tracer()
    untraced, traced, summaries = [], [], []
    indexed = list(enumerate(inputs))
    size = TRACE_BLOCK[workload]
    for start in range(0, len(indexed), size):
        block = indexed[start:start + size]
        untraced += [[i, *_timed(op, x)] for i, x in block]
        if workload == "verify_default":
            for i, seed in block:
                prefix = f"{trace_out}-{i}"
                traced.append([i, *_timed(lambda s: _verify_op(s, prefix),
                                          seed)])
                try:
                    with open(prefix + ".json") as f:
                        summaries.append(json.load(f))
                except FileNotFoundError:  # the op crashed; counted failed
                    pass
            continue
        tracer.install()
        try:
            for i, x in block:
                tracer.op = i
                traced.append([i, *_timed(op, x)])
        finally:
            tracer.uninstall()
    if workload == "verify_default":
        return untraced, traced, tracing.merge(summaries)
    tracer.write_spans(trace_out + ".spans.gz")
    return untraced, traced, tracer.summary()


def main() -> int:
    job = json.load(sys.stdin)
    workload, inputs = job["workload"], job["inputs"]
    op = OPS[workload]
    result = {}
    if job["trace"]:
        trace_out = str(Path(job["out_dir"]) / f"trace-{workload}")
        untraced, ops, summary = _traced_run(workload, op, inputs, trace_out)
        result.update(untraced_ops=untraced, ops=ops, trace=summary)
    else:
        result = _measured_run(workload, op, inputs, job["budget_s"],
                               job["out_dir"])
    who = (resource.RUSAGE_CHILDREN if workload == "verify_default"
           else resource.RUSAGE_SELF)
    result["maxrss_kb"] = resource.getrusage(who).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
