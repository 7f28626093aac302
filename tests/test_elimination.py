"""The integer elimination behind rref, kernel_basis, Subspace and det,
checked against sympy and the dense Fraction references as exact
oracles."""

import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert import qlinalg
from nilcert.autos import derivation_algebra
from nilcert.liecore import (
    bracket_subspace,
    derived_subalgebra,
    heisenberg3,
    make_lie_algebra,
)
from nilcert.models import model_data
from nilcert.qlinalg import (
    Matrix,
    Subspace,
    det,
    int_kernel,
    kernel_basis,
    rref,
)

from dense_reference import ref_nullspace, ref_rref
from shared import BIG, ENTRIES_ANY_DEN, SMALL


@st.composite
def row_lists(draw, max_rows=7, max_cols=8):
    """Rows of one kind of entry (dense, sparse, or with entries above
    2^64), plus zero rows and duplicate or scaled copies of drawn rows."""
    entries = draw(ENTRIES_ANY_DEN)
    ncols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=max_rows))
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            src = rows[draw(st.integers(0, len(rows) - 1))]
            c = draw(st.sampled_from([Q(1), Q(-3, 2), Q(BIG + 1)]))
            rows.insert(draw(st.integers(0, len(rows))), [c * x for x in src])
        if draw(st.booleans()):
            rows.insert(draw(st.integers(0, len(rows))), [Q(0)] * ncols)
    return ncols, rows


def to_sympy(ncols, rows):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in rows for x in row])


def from_sympy(sm):
    return [[Q(int(x.p), int(x.q)) for x in sm.row(i)] for i in range(sm.rows)]


def sympy_row_space(ncols, rows):
    """The nonzero rows of sympy's RREF of the given rows."""
    if not rows:
        return []
    reduced, pivots = to_sympy(ncols, rows).rref()
    return from_sympy(reduced)[:len(pivots)]


def assert_fractions(values):
    assert all(type(x) is Q for x in values)


@settings(max_examples=50, deadline=None)
@given(row_lists())
@example((4, []))
@example((3, [[Q(0)] * 3, [Q(0)] * 3]))
@example((2, [[Q(BIG + 1, 3), Q(1)], [Q(1), Q(1)], [Q(BIG + 1, 3), Q(1)]]))
def test_rref_matches_sympy(case):
    ncols, rows = case
    m = Matrix(len(rows), ncols, [x for row in rows for x in row])
    out = rref(m)
    if rows:
        reduced, pivots = to_sympy(ncols, rows).rref()
        assert out.matrix == Matrix.from_rows(from_sympy(reduced))
        assert out.pivots == tuple(pivots)
    else:
        assert out.matrix == m and out.pivots == ()
    assert out.rank == len(out.pivots)
    assert_fractions(out.matrix.entries)


@settings(max_examples=50, deadline=None)
@given(row_lists())
@example((4, []))
@example((3, [[Q(0)] * 3]))
def test_kernel_basis_matches_sympy(case):
    ncols, rows = case
    m = Matrix(len(rows), ncols, [x for row in rows for x in row])
    ker = kernel_basis(m)
    if rows:
        null = [from_sympy(v.T)[0] for v in to_sympy(ncols, rows).nullspace()]
    else:
        null = [[Q(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    expected = sympy_row_space(ncols, null)
    assert ker.basis == (Matrix.from_rows(expected) if expected
                         else Matrix.zero(0, ncols))
    assert ker.ambient_dim == ncols
    assert_fractions(ker.basis.entries)


@settings(max_examples=50, deadline=None)
@given(row_lists())
def test_span_matches_sympy(case):
    ncols, rows = case
    s = Subspace.span(ncols, rows)
    expected = sympy_row_space(ncols, rows)
    assert s.basis_vectors() == tuple(tuple(r) for r in expected)
    assert_fractions(s.basis.entries)
    # the pivot columns kept from elimination are those of the basis rows,
    # so their complements agree
    assert s.free_columns() == Subspace.from_int_rows(
        ncols, s.basis.int_rows()).free_columns()
    for v in rows:
        assert s.contains(v)


@settings(max_examples=40, deadline=None)
@given(row_lists(max_rows=4), st.data())
def test_intersect_matches_sympy(case, data):
    sympy = pytest.importorskip("sympy")
    ncols, rows_a = case
    entries = data.draw(ENTRIES_ANY_DEN)
    rows_b = data.draw(st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols), max_size=4))
    a, b = Subspace.span(ncols, rows_a), Subspace.span(ncols, rows_b)
    inter = a.intersect(b)
    expected = []
    if a.dim and b.dim:
        at = to_sympy(ncols, [list(r) for r in a.basis_vectors()]).T
        bt = to_sympy(ncols, [list(r) for r in b.basis_vectors()]).T
        for v in sympy.Matrix.hstack(at, -bt).nullspace():
            expected.append(from_sympy((at * v[:a.dim, :]).T)[0])
    assert inter.basis_vectors() == tuple(
        tuple(r) for r in sympy_row_space(ncols, expected))
    assert_fractions(inter.basis.entries)


@st.composite
def square_row_lists(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    entries = draw(ENTRIES_ANY_DEN)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):  # a singular matrix
        rows[draw(st.integers(0, n - 1))] = list(rows[0])
    return n, rows


@settings(max_examples=50, deadline=None)
@given(square_row_lists())
@example((0, []))
@example((2, [[Q(0), Q(1)], [Q(1), Q(0)]]))
@example((3, [[Q(0), Q(0), Q(1)], [Q(0), Q(2), Q(5)], [Q(BIG, 3), Q(7), Q(1)]]))
def test_det_matches_sympy(case):
    n, rows = case
    m = Matrix(n, n, [x for row in rows for x in row])
    value = det(m)
    assert type(value) is Q
    if n:
        expected = to_sympy(n, rows).det()
        assert value == Q(int(expected.p), int(expected.q))
    else:
        assert value == 1


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(Matrix.zero(2, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.tuples(
    st.just(d),
    st.dictionaries(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
                    .filter(lambda ij: ij[0] < ij[1]),
                    st.lists(SMALL, min_size=d, max_size=d), max_size=6))))
def test_derived_subalgebra_is_the_bracket_of_the_whole_algebra(case):
    dim, brackets = case
    L = make_lie_algebra(dim, brackets)
    full = Subspace.full(dim)
    assert derived_subalgebra(L) == bracket_subspace(L, full, full)


def test_derived_subalgebra_of_the_shipped_models():
    data = model_data()
    for L in (data.G, data.N, heisenberg3()):
        full = Subspace.full(L.dim)
        assert derived_subalgebra(L) == bracket_subspace(L, full, full)


# --------------------------------------------------------------------------
# forced zeros: one-entry rows are propagated before Gauss-Jordan
# --------------------------------------------------------------------------

@st.composite
def sparse_int_rows(draw):
    """(ncols, rows) of 1 to 3 nonzero integer entries over at most 8
    columns, so that one-entry rows are common and forcing one column often
    leaves another row with one entry, or with a common factor."""
    ncols = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, ncols - 1),
                          st.integers(-6, 6).filter(bool),
                          min_size=1, max_size=min(3, ncols))
    return ncols, draw(st.lists(row, max_size=10))


@settings(max_examples=150, deadline=None)
@given(sparse_int_rows())
@example((3, [{0: 1}, {0: 2, 1: 3}, {1: 4, 2: 6}]))
@example((4, [{1: 4, 2: 6, 3: 2}, {0: 1}, {0: 2, 1: 3}]))
@example((4, [{3: -5}, {2: 2, 3: 7}, {1: 6, 2: -4, 3: 1}, {0: 3, 1: 9}]))
@example((3, [{0: 2, 1: -2}, {1: 3}, {0: 1, 1: 1}]))
@example((3, [{0: 1, 1: 2, 2: 4}, {0: -3}]))
def test_forced_zeros_match_the_dense_reference(case):
    ncols, rows = case
    dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    reduced, pivots = ref_rref(dense, ncols)
    m = Matrix.from_ints(len(rows), ncols, [x for r in dense for x in r])
    out = rref(m)
    assert out.pivots == tuple(pivots) and out.rank == len(pivots)
    assert [out.matrix.row(i) for i in range(out.rank)] == reduced
    assert all(not any(out.matrix.row(i))
               for i in range(out.rank, len(rows)))
    s = Subspace.from_int_rows(ncols, [dict(r) for r in rows])
    assert s.basis_vectors() == tuple(reduced)
    for (c, row), ref in zip(s.echelon, reduced):
        assert row[c] > 0 and math.gcd(*row.values()) == 1
        assert all(row.get(j, 0) == ref[j] * row[c] for j in range(ncols))
    null = ref_rref(ref_nullspace(dense, ncols), ncols)[0]
    assert kernel_basis(m).basis_vectors() == tuple(null)
    assert int_kernel(rows, ncols) == kernel_basis(m)


def test_forced_zeros_leave_the_given_rows_whole():
    # primitive rows, which from_int_rows does not divide; the third row
    # drops to {2: 2, 3: 4} once columns 0 and 1 are forced
    rows = [{0: 1}, {0: 2, 1: 3}, {1: 3, 2: 2, 3: 4}, {2: 1, 4: 5}]
    given_rows = [dict(r) for r in rows]
    s = Subspace.from_int_rows(5, rows)
    assert rows == given_rows and s.dim == 4
    ker = int_kernel(rows, 5)
    assert rows == given_rows and ker.dim == 1
    # the echelon rows of a Subspace are read again by sums
    t = Subspace.from_int_rows(5, [{0: 1, 2: 3}])
    kept = [dict(row) for _, row in s.echelon + t.echelon]
    s.sum(t)
    assert [dict(row) for _, row in s.echelon + t.echelon] == kept


def test_forced_zeros_spare_most_of_the_leibniz_elimination(monkeypatch):
    # at the default p, 210 of N's 291 Leibniz rows have one entry; without
    # the forced zeros this elimination makes 331 _eliminate calls
    N = model_data().N
    calls = []
    eliminate = qlinalg._eliminate

    def counted(row, pivot_rows):
        calls.append(row)
        return eliminate(row, pivot_rows)

    monkeypatch.setattr(qlinalg, "_eliminate", counted)
    assert derivation_algebra(N).dim == 33
    assert len(calls) < 60


# --------------------------------------------------------------------------
# row order: _rref_int takes its rows shortest first, and the RREF is unique
# --------------------------------------------------------------------------

@st.composite
def reorderable_int_rows(draw):
    """(ncols, rows) of at most 5 primitive rows with 1 to 4 nonzero
    entries over at most 7 columns, plus repeated and scaled copies of
    drawn rows; rows of every length meet, so the order matters to
    Gauss-Jordan and to the forced zeros."""
    ncols = draw(st.integers(1, 7))
    row = st.dictionaries(st.integers(0, ncols - 1),
                          st.integers(-5, 5).filter(bool),
                          min_size=1, max_size=min(4, ncols))
    rows = draw(st.lists(row, max_size=4))
    if rows and draw(st.booleans()):
        src = rows[draw(st.integers(0, len(rows) - 1))]
        c = draw(st.sampled_from([1, -1, 3]))
        rows.append({j: c * x for j, x in src.items()})
    return ncols, rows


@settings(max_examples=80, deadline=None)
@given(reorderable_int_rows())
@example((3, []))
@example((4, [{2: 3}, {2: 3}, {0: 1, 2: 1}, {1: 2, 3: -2}, {0: 1}]))
@example((5, [{0: 1, 1: 2, 2: 3, 3: 4}, {3: 1, 4: 2}, {1: 1, 4: 1},
              {0: 2, 1: 4, 2: 6, 3: 8}]))
def test_every_row_order_gives_the_same_elimination(case):
    ncols, rows = case
    dense = [[r.get(j, 0) for j in range(ncols)] for r in rows]
    reduced, pivots = ref_rref(dense, ncols)
    null = ref_rref(ref_nullspace(dense, ncols), ncols)[0]
    primitive = [qlinalg._primitive(dict(r)) for r in rows]
    echelon = qlinalg._rref_int(primitive, ncols)
    assert [c for c, _ in echelon] == pivots
    assert [tuple(Q(row.get(j, 0), row[c]) for j in range(ncols))
            for c, row in echelon] == reduced
    span, kernel = Subspace.from_int_rows(ncols, rows), int_kernel(rows, ncols)
    assert list(span.echelon) == echelon and span.basis_vectors() == tuple(reduced)
    assert kernel.basis_vectors() == tuple(null)
    for order in itertools.permutations(range(len(rows))):
        assert qlinalg._rref_int([primitive[i] for i in order],
                                 ncols) == echelon
        assert Subspace.from_int_rows(
            ncols, [rows[i] for i in order]) == span
        assert int_kernel([rows[i] for i in order], ncols) == kernel
