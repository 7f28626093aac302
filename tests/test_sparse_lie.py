"""The sparse integer view of the structure constants, checked against
dense Fraction references (in this file and dense_reference.py): the
bracket, the Jacobi scan, the center, the Leibniz, shear and commutant
kernels, and Matrix.apply."""

import itertools
from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert.autos import derivation_algebra, shear_space
from nilcert.liecore import (
    bracket,
    center,
    check_jacobi,
    heisenberg3,
    make_lie_algebra,
)
from nilcert.models import model_data, subspace_in_algebra
from nilcert.qlinalg import Matrix, Subspace
from nilcert.wedgerep import commutant

from dense_reference import ref_nullspace

BIG = 2 ** 64
ZERO = Q(0)

SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=7)
HUGE = st.builds(Q, st.integers(-BIG ** 2, BIG ** 2).filter(bool),
                 st.integers(BIG, BIG ** 2))
SPARSE = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ZERO), SMALL)
ENTRIES = st.one_of(st.just(SMALL), st.just(SPARSE),
                    st.just(st.one_of(SPARSE, HUGE)))


#: sl2, so3 and gl2 over pairs i < j; Jacobi holds with nonzero terms
REDUCTIVE = (
    (3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}),
    (3, {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)}),
    (4, {(0, 1): (0, 2, 0, 0), (0, 2): (0, 0, -2, 0), (1, 2): (1, 0, 0, 0)}),
)


def change_basis(dim, brackets, u):
    """Structure constants in the basis f_i = sum_a u[a][i] e_a, for an
    upper triangular u with nonzero diagonal."""
    L = make_lie_algebra(dim, brackets)
    cols = [[u[a][i] for a in range(dim)] for i in range(dim)]
    out = {}
    for i, j in itertools.combinations(range(dim), 2):
        w = dense_bracket(L, cols[i], cols[j])
        c = [ZERO] * dim
        for r in reversed(range(dim)):
            c[r] = (w[r] - sum(u[r][k] * c[k] for k in range(r + 1, dim))
                    ) / u[r][r]
        out[(i, j)] = c
    return out


@st.composite
def tables(draw, max_dim=5):
    """(dim, brackets) over pairs i < j: a random table, which mostly
    violates Jacobi; a 2-step table (the first k generators bracket into
    the span of the others), where every double bracket vanishes; sl2, so3
    or gl2 in a random basis, where Jacobi holds with nonzero terms; or
    the zero table."""
    kind = draw(st.sampled_from(("random", "two-step", "reductive", "zero")))
    entries = draw(ENTRIES)
    if kind == "reductive":
        dim, brackets = draw(st.sampled_from(REDUCTIVE))
        u = [[draw(entries) if a < i else ZERO for i in range(dim)]
             for a in range(dim)]
        for a in range(dim):
            u[a][a] = draw(st.one_of(SMALL, HUGE).filter(bool))
        return dim, change_basis(dim, brackets, u)
    dim = draw(st.integers(1, max_dim))
    brackets = {}
    if kind == "zero":
        return dim, brackets
    k = draw(st.integers(1, dim)) if kind == "two-step" else dim
    for i, j in itertools.combinations(range(k), 2):
        coords = [draw(entries) if kind == "random" or c >= k else ZERO
                  for c in range(dim)]
        if draw(st.booleans()) or kind == "two-step":
            brackets[(i, j)] = coords
    return dim, brackets


def vectors(dim, entries=SPARSE):
    return st.lists(st.one_of(entries, HUGE), min_size=dim, max_size=dim)


# --------------------------------------------------------------------------
# dense references
# --------------------------------------------------------------------------

def dense_bracket(L, x, y):
    out = [ZERO] * L.dim
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                out[k] += x[i] * y[j] * L.sc[i][j][k]
    return tuple(out)


def dense_jacobi(L):
    e = [tuple(Q(int(k == i)) for k in range(L.dim)) for i in range(L.dim)]
    bad = []
    for i, j, k in itertools.combinations(range(L.dim), 3):
        terms = (dense_bracket(L, e[i], dense_bracket(L, e[j], e[k])),
                 dense_bracket(L, e[j], dense_bracket(L, e[k], e[i])),
                 dense_bracket(L, e[k], dense_bracket(L, e[i], e[j])))
        if any(a + b + c for a, b, c in zip(*terms)):
            bad.append((i, j, k))
    return bad


def dense_leibniz_rows(L):
    d = L.dim
    rows = []
    for i, j in itertools.combinations(range(d), 2):
        for m in range(d):
            row = [ZERO] * (d * d)
            for k in range(d):
                row[m * d + k] += L.sc[i][j][k]
                row[k * d + i] -= L.sc[k][j][m]
                row[k * d + j] -= L.sc[i][k][m]
            rows.append(row)
    return rows


def dense_membership_rows(d, c):
    """Every column of D lies in c: it is orthogonal to c's annihilator."""
    rows = []
    for a in ref_nullspace(c.basis_vectors(), d):
        for col in range(d):
            row = [ZERO] * (d * d)
            for r in range(d):
                row[r * d + col] = a[r]
            rows.append(row)
    return rows


def assert_kernel(space, rows, ncols):
    """space is the kernel of the dense rows: same dimension, same span."""
    ref = ref_nullspace(rows, ncols)
    assert space.ambient_dim == ncols
    assert space.dim == len(ref)
    assert space == Subspace.span(ncols, ref)
    for v in space.basis_vectors():
        assert all(isinstance(x, Q) for x in v)
        assert not any(sum(a * b for a, b in zip(row, v)) for row in rows)


# --------------------------------------------------------------------------
# the sparse routines against the references
# --------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(tables())
def test_check_jacobi_matches_the_bracket_of_brackets(case):
    L = make_lie_algebra(*case)
    assert check_jacobi(L) == dense_jacobi(L)


def test_check_jacobi_on_known_algebras():
    data = model_data()
    assert check_jacobi(data.G) == [] and check_jacobi(data.N) == []
    assert check_jacobi(heisenberg3()) == []
    # [e1, e2] = e3, [e1, e3] = e1 fails only on the one triple
    L = make_lie_algebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    assert check_jacobi(L) == dense_jacobi(L) == [(0, 1, 2)]
    for dim, brackets in REDUCTIVE:
        assert check_jacobi(make_lie_algebra(dim, brackets)) == []


def test_bracket_on_the_shipped_models():
    data = model_data()
    x = tuple(Q(k + 1, 3) for k in range(12))
    y = tuple(Q((-1) ** k, k + 2) for k in range(12))
    for L in (data.G, data.N):
        assert bracket(L, x, y) == dense_bracket(L, x, y)
        assert bracket(L, y, x) == dense_bracket(L, y, x)


@settings(max_examples=60, deadline=None)
@given(tables().flatmap(lambda case: st.tuples(
    st.just(case), vectors(case[0]), vectors(case[0]))))
def test_bracket_matches_the_dense_sum(args):
    (dim, brackets), x, y = args
    L = make_lie_algebra(dim, brackets)
    out = bracket(L, x, y)
    assert out == dense_bracket(L, x, y)
    assert all(isinstance(c, Q) for c in out)


@settings(max_examples=40, deadline=None)
@given(tables())
def test_derivation_algebra_matches_the_dense_leibniz_kernel(case):
    L = make_lie_algebra(*case)
    assert_kernel(derivation_algebra(L).space, dense_leibniz_rows(L),
                  L.dim ** 2)


@settings(max_examples=25, deadline=None)
@given(tables().flatmap(lambda case: st.tuples(
    st.just(case),
    st.lists(vectors(case[0], SMALL), max_size=case[0]))))
def test_shear_space_matches_the_dense_kernel(args):
    (dim, brackets), spanning = args
    L = make_lie_algebra(dim, brackets)
    c = Subspace.span(dim, spanning)
    assert_kernel(shear_space(L, c),
                  dense_leibniz_rows(L) + dense_membership_rows(dim, c),
                  dim * dim)


@settings(max_examples=40, deadline=None)
@given(tables(max_dim=6))
def test_center_matches_the_dense_kernel(case):
    L = make_lie_algebra(*case)
    rows = [[L.sc[i][j][k] for i in range(L.dim)]
            for j in range(L.dim) for k in range(L.dim)]
    assert_kernel(center(L), rows, L.dim)


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 4))
    entries = draw(ENTRIES)
    mats = draw(st.lists(st.lists(entries, min_size=n * n, max_size=n * n),
                         min_size=1, max_size=3))
    return tuple(Matrix(n, n, m) for m in mats)


@settings(max_examples=30, deadline=None)
@given(generator_sets())
def test_commutant_matches_the_dense_kernel(gens):
    n = gens[0].rows
    rows = []
    for g in gens:
        for r in range(n):
            for c in range(n):
                row = [ZERO] * (n * n)
                for k in range(n):
                    row[r * n + k] += g[k, c]
                    row[k * n + c] -= g[r, k]
                rows.append(row)
    assert_kernel(commutant(gens), rows, n * n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(lambda rows: st.integers(0, 5).flatmap(
    lambda cols: st.tuples(
        st.lists(st.one_of(SPARSE, HUGE), min_size=rows * cols,
                 max_size=rows * cols).map(lambda e: Matrix(rows, cols, e)),
        vectors(cols)))))
def test_matrix_apply_matches_the_dense_product(args):
    m, v = args
    out = m.apply(v)
    assert out == tuple(sum((m[i, j] * v[j] for j in range(m.cols)), ZERO)
                        for i in range(m.rows))
    assert all(isinstance(c, Q) for c in out)


def test_sparse_kernels_on_the_shipped_models():
    data = model_data()
    for L in (data.G, data.N):
        assert center(L) == Subspace.span(
            L.dim, ref_nullspace([[L.sc[i][j][k] for i in range(L.dim)]
                                 for j in range(L.dim)
                                 for k in range(L.dim)], L.dim))
    N = data.N
    assert derivation_algebra(N).space == Subspace.span(
        144, ref_nullspace(dense_leibniz_rows(N), 144))
    c = subspace_in_algebra(data.L)
    assert shear_space(N, c) == Subspace.span(
        144, ref_nullspace(dense_leibniz_rows(N)
                          + dense_membership_rows(12, c), 144))
