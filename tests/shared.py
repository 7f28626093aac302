"""Constants and helpers that more than one test module reads: the pinned
hook targets and check suites, the rational strategies, the benchmark's
workload module, the recorder of Fraction matrix traffic and the full
Leibniz kernel.  No test module imports another; what they share lives here
or in dense_reference.py."""

import importlib.util
from fractions import Fraction as Q
from pathlib import Path

from hypothesis import strategies as st

from nilcert.autos import _leibniz_rows
from nilcert.qlinalg import Matrix, int_kernel

#: the pinned hook targets: the default p, p13/2 - 2 p45, a dense p and
#: p14 + p25 (the four that the CLI tests pin), then p14 +- 2 p25, where a
#: rotation of order 4 fixes the line through p
PINNED_P = ("0,1,0,0,0,0,1", "0,1/2,0,0,0,0,-2", "0,1,-1/2,2,-3/2,1,1/2",
            "0,0,1,0,1,0,0", "0,0,1,0,2,0,0", "0,0,1,0,-2,0,0")

#: the seven deterministic checks whose answer depends on the hook target p
P_DEPENDENT_SUITE = (
    "jacobi.N", "lcs.N-12-7-1-0", "nilclass.N-3", "n.der-dim-32",
    "n.der-decomposition", "n.derivations-nilpotent", "p.line-stabilizer-zero",
)

#: the checks that draw seeded group elements
SAMPLED_CHECKS = ["p.sampled-nonfixing", "bound.eigenspace-max3",
                  "fixed.sampled-nonzero"]


def rationals(lo: int, hi: int, max_den: int):
    """The n/d in [lo, hi] with d <= max_den, the values of Hypothesis's
    ``fractions``, drawn uniformly from a table ordered by denominator, size
    and sign: a failing example shrinks toward small denominators and 0."""
    return st.sampled_from(sorted(
        {Q(n, d) for d in range(1, max_den + 1)
         for n in range(lo * d, hi * d + 1)},
        key=lambda x: (x.denominator, abs(x), x < 0)))


BIG = 2 ** 64
#: zero half the time (SMALL), four times in five (SPARSE)
SMALL = st.one_of(st.just(Q(0)), rationals(-9, 9, 7))
SPARSE = st.one_of(st.just(Q(0)), st.just(Q(0)), st.just(Q(0)), SMALL)
#: nonzero, up to 2^128 in size, over denominators from 2^64 (HUGE) or 1
HUGE = st.builds(Q, st.integers(-BIG ** 2, BIG ** 2).filter(bool),
                 st.integers(BIG, BIG ** 2))
HUGE_ANY_DEN = st.builds(Q, st.integers(-BIG ** 2, BIG ** 2).filter(bool),
                         st.integers(1, BIG ** 2))
#: one kind of entry per drawn matrix: dense, sparse, or with huge entries
ENTRIES = st.sampled_from([SMALL, SPARSE, SPARSE | HUGE])
ENTRIES_ANY_DEN = st.sampled_from([SMALL, SPARSE, SMALL | HUGE_ANY_DEN])
VECTOR_ENTRIES = st.one_of(st.just(Q(0)), st.just(Q(0)), rationals(-5, 5, 4))


def load_workloads():
    # nilbench has no package __init__, so the file is loaded by path
    path = Path(__file__).resolve().parents[1] / "nilbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nilbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record_fraction_matrices(monkeypatch) -> list[str]:
    """The name of every ``Matrix.__init__`` call (a matrix built from
    Fraction entries) and of every read of Fraction entries (``entries``,
    an indexed entry, a row, a column) from here on."""
    calls = []

    def recording(name, fn):
        def wrapper(self, *args):
            calls.append(name)
            return fn(self, *args)
        return wrapper

    monkeypatch.setattr(Matrix, "entries", property(
        recording("entries", Matrix.entries.fget)))
    for name in ("__init__", "__getitem__", "row", "col"):
        monkeypatch.setattr(Matrix, name, recording(name, getattr(Matrix, name)))
    return calls


def full_kernel(L):
    """The kernel of L's own Leibniz rows over all basis pairs, in the
    given basis."""
    return int_kernel(_leibniz_rows(L.table), L.dim * L.dim)
