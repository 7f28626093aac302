"""Spans and counters around nilcert's public functions, from outside.

``Tracer.install()`` replaces each traced function with a wrapper in every
``nilcert`` module namespace that holds it, and on the ``Matrix`` and
``Subspace`` classes; ``uninstall()`` puts the originals back.  No source
file of the program changes.

A span is (op, id, parent, name, start_ns, end_ns).  Spans stay in memory
until ``write_spans`` runs at the end of a run.  A span's self time is its
duration minus the time its child spans cover; the bookkeeping a wrapper
does after its call returns is charged to neither.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array

MODULES = ("qlinalg", "liecore", "wedgerep", "models", "autos", "cli")

#: traced module-level functions, by module
FUNCTIONS = {
    "qlinalg": ("char_poly", "rational_roots", "count_real_roots",
                "kernel_basis"),
    "liecore": ("bracket", "check_jacobi", "lower_central_series", "center",
                "lie_algebra_from_json"),
    "wedgerep": ("induced_group_action", "quotient_action",
                 "induced_algebra_action", "commutant"),
    "models": ("group_action_on_V", "sym2_embed", "model_data"),
    "autos": ("exp_nilpotent", "max_eigenspace_dim", "derivation_algebra",
              "shear_space", "factor_on_abelianization",
              "stabilizer_algebra"),
    "cli": ("run",),
}

#: traced methods: (class, attribute, span name suffix, is classmethod)
METHODS = (("Matrix", "__init__", "Matrix.init", False),
           ("Matrix", "__mul__", "Matrix.mul", False),
           ("Subspace", "span", "Subspace.span", True),
           ("Subspace", "reduce", "Subspace.reduce", False))

SPAN_NAMES = tuple(
    [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    + [f"qlinalg.{suffix}" for _, _, suffix, _ in METHODS])

def _entry_bits(values) -> int:
    best = 0
    for x in values:
        b = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        if b > best:
            best = b
    return best


class Tracer:
    """Collects spans and counters for the traced functions of one process."""

    def __init__(self):
        self._clock = time.perf_counter_ns
        self.op = 0
        self._next_id = 0
        # the open spans: [id, child ns]
        self._stack: list[list[int]] = []
        self._active = [0] * len(SPAN_NAMES)
        self.calls = [0] * len(SPAN_NAMES)
        self.incl_ns = [0] * len(SPAN_NAMES)
        self.self_ns = [0] * len(SPAN_NAMES)
        # six numbers per span: op, id, parent id, name index, start, end
        self.spans = array("q")
        self.cells = 0
        self.mults = 0
        self.kernel_cells = 0
        self.max_bits = 0
        self.rejected = 0
        self.exp_calls = 0
        self.exp_ok = 0
        self.check_ms: dict[str, list[int]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        index = SPAN_NAMES.index(name)
        clock = self._clock
        stack = self._stack
        active = self._active
        calls, incl_ns, self_ns = self.calls, self.incl_ns, self.self_ns
        spans = self.spans
        tracer = self

        def close(frame, t0, t1):
            stack.pop()
            active[index] -= 1
            dur = t1 - t0
            calls[index] += 1
            self_ns[index] += dur - frame[1]
            if not active[index]:  # recursion counts once, outermost
                incl_ns[index] += dur
            spans.extend((tracer.op, frame[0], stack[-1][0] if stack else 0,
                          index, t0, t1))

        def traced(*args, **kwargs):
            tracer._next_id += 1
            frame = [tracer._next_id, 0]  # span id, child ns
            stack.append(frame)
            active[index] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(frame, t0, clock())
                if after is not None:
                    after(args, None, exc)
                if stack:
                    stack[-1][1] += clock() - t0
                raise
            close(frame, t0, clock())
            if after is not None:
                after(args, result, None)
            if stack:
                stack[-1][1] += clock() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _after(self, name: str):
        """Counter hook for a span name, or None."""
        if name == "qlinalg.Matrix.init":
            def hook(args, result, exc):
                if exc is None:
                    self.cells += args[0].rows * args[0].cols
        elif name == "qlinalg.Matrix.mul":
            def hook(args, result, exc):
                a, b = args
                if hasattr(b, "cols"):
                    self.mults += a.rows * a.cols * b.cols
        elif name == "qlinalg.kernel_basis":
            def hook(args, result, exc):
                self.kernel_cells += args[0].rows * args[0].cols
                if result is not None:
                    self.max_bits = max(self.max_bits,
                                        _entry_bits(result.basis.entries))
        elif name == "qlinalg.char_poly":
            def hook(args, result, exc):
                if result is not None:
                    self.max_bits = max(self.max_bits,
                                        _entry_bits(result.coeffs))
        elif name == "liecore.lie_algebra_from_json":
            def hook(args, result, exc):
                if isinstance(exc, ValueError):
                    self.rejected += 1
        elif name == "autos.exp_nilpotent":
            def hook(args, result, exc):
                self.exp_calls += 1
                if exc is None:
                    self.exp_ok += 1
        elif name == "cli.run":
            def hook(args, result, exc):
                if result is not None:
                    for r in result.results:
                        self.check_ms.setdefault(r.id, []).append(
                            r.duration_ms)
        else:
            hook = None
        return hook

    def install(self) -> None:
        modules = {m: importlib.import_module(f"nilcert.{m}") for m in MODULES}
        namespaces = [importlib.import_module("nilcert")] + list(modules.values())
        for mod, fns in FUNCTIONS.items():
            for fn_name in fns:
                original = getattr(modules[mod], fn_name)
                name = f"{mod}.{fn_name}"
                wrapper = self._wrap(name, original, self._after(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._saved.append((ns, attr, value))
                            setattr(ns, attr, wrapper)
        qlinalg = modules["qlinalg"]
        for cls_name, attr, suffix, is_classmethod in METHODS:
            cls = getattr(qlinalg, cls_name)
            raw = cls.__dict__[attr]
            fn = raw.__func__ if is_classmethod else raw
            name = f"qlinalg.{suffix}"
            wrapper = self._wrap(name, fn, self._after(name))
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Plain-data totals, mergeable with ``merge``."""
        return {
            "calls": list(self.calls),
            "incl_ns": list(self.incl_ns),
            "self_ns": list(self.self_ns),
            "cells": self.cells, "mults": self.mults,
            "kernel_cells": self.kernel_cells, "max_bits": self.max_bits,
            "rejected": self.rejected,
            "exp_calls": self.exp_calls, "exp_ok": self.exp_ok,
            "check_ms": self.check_ms,
        }

    def write_spans(self, path: str) -> None:
        """Gzipped: one text line naming the fields and the span names,
        then the spans as native-endian int64s, six per span."""
        header = ("op id parent name start_ns end_ns; names: "
                  + ",".join(SPAN_NAMES) + "\n")
        with gzip.open(path, "wb", compresslevel=1) as f:
            f.write(header.encode())
            f.write(self.spans.tobytes())


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of several processes (one per verify op)."""
    total = Tracer().summary()
    for s in summaries:
        for key in ("calls", "incl_ns", "self_ns"):
            total[key] = [a + b for a, b in zip(total[key], s[key])]
        for key in ("cells", "mults", "kernel_cells", "rejected",
                    "exp_calls", "exp_ok"):
            total[key] += s[key]
        total["max_bits"] = max(total["max_bits"], s["max_bits"])
        for cid, ms in s["check_ms"].items():
            total["check_ms"].setdefault(cid, []).extend(ms)
    return total


def layer_metrics(summary: dict, check_ids, ops: int) -> dict:
    """Per-layer metrics by name: totals over the traced ops, except
    ``cli.check.<id>.ms``, which is the mean per traced op."""
    out = {}
    for i, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls"] = (summary["calls"][i], "count")
        out[f"{name}.s"] = (summary["incl_ns"][i] / 1e9, "s")
        out[f"{name}.self_s"] = (summary["self_ns"][i] / 1e9, "s")
    out["qlinalg.Matrix.init.cells"] = (summary["cells"], "count")
    out["qlinalg.Matrix.mul.mults"] = (summary["mults"], "count")
    out["qlinalg.kernel_basis.cells"] = (summary["kernel_cells"], "count")
    out["qlinalg.max_entry_bits"] = (summary["max_bits"], "bits")
    out["liecore.lie_algebra_from_json.rejected"] = (summary["rejected"],
                                                     "count")
    calls = summary["exp_calls"]
    out["autos.exp_nilpotent.ok_ratio"] = (
        summary["exp_ok"] / calls if calls else 0.0, "ratio")
    for cid in check_ids:
        ms = summary["check_ms"].get(cid, [])
        out[f"cli.check.{cid}.ms"] = (sum(ms) / ops if ms else 0.0, "ms")
    return out
