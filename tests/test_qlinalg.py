import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert.qlinalg import (
    Matrix,
    Polynomial,
    Subspace,
    char_poly,
    count_real_roots,
    is_nilpotent,
    is_unipotent,
    kernel_basis,
    rational_roots,
    rref,
    unit_vector,
)

from dense_reference import mat_pow


def rand_matrix(rng, rows, cols, bound=4):
    return Matrix(rows, cols,
                  (Q(rng.randint(-bound, bound)) for _ in range(rows * cols)))


# ---------------------------------------------------------------------- rref

def test_rref_identity_fixed():
    m = Matrix.identity(2)
    out = rref(m)
    assert out.matrix == m
    assert out.rank == 2
    assert out.pivots == (0, 1)


def test_rref_rank_one():
    m = Matrix.from_rows([(2, 4), (1, 2)])
    out = rref(m)
    assert out.matrix == Matrix.from_rows([(1, 2), (0, 0)])
    assert out.rank == 1


def test_rref_raising_action_rank4():
    # the raising action on V in the s-basis: s2->s1, s3->3 s2, s4->s3, s5->2 s4
    m = Matrix.from_rows([
        (0, 1, 0, 0, 0),
        (0, 0, 3, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 2),
        (0, 0, 0, 0, 0)])
    assert rref(m).rank == 4
    assert kernel_basis(m) == Subspace.span(5, [unit_vector(5, 0)])


def test_rref_idempotent_randomized():
    rng = random.Random(7)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        once = rref(m).matrix
        assert rref(once).matrix == once


# -------------------------------------------------------------------- kernel

def test_kernel_zero_map():
    assert kernel_basis(Matrix.zero(5, 5)) == Subspace.full(5)


def test_kernel_invertible():
    m = Matrix.from_rows([(1, 1), (0, 1)])
    assert kernel_basis(m).dim == 0


def test_kernel_rows_annihilate_randomized():
    rng = random.Random(11)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        ker = kernel_basis(m)
        assert ker.dim == m.cols - rref(m).rank
        for v in ker.basis_vectors():
            assert all(x == 0 for x in m.apply(v))


# ----------------------------------------------------------------- char_poly

def test_char_poly_identity2():
    assert char_poly(Matrix.identity(2)) == Polynomial([1, -2, 1])


def test_char_poly_strictly_triangular():
    nu = Matrix.from_rows([(0, 1, 0), (0, 0, 1), (0, 0, 0)])
    assert char_poly(nu) == Polynomial([0, 0, 0, 1])


def test_char_poly_weights():
    # (x-4)(x-2) x (x+2)(x+4) = x^5 - 20 x^3 + 64 x
    m = Matrix.diagonal((4, 2, 0, -2, -4))
    assert char_poly(m) == Polynomial([0, 64, 0, -20, 0, 1])


def test_char_poly_non_square():
    with pytest.raises(ValueError):
        char_poly(Matrix.zero(2, 3))


def test_char_poly_block_triangular_product_randomized():
    rng = random.Random(13)
    for _ in range(10):
        na, nb = rng.randint(1, 3), rng.randint(1, 3)
        a = rand_matrix(rng, na, na, 3)
        b = rand_matrix(rng, nb, nb, 3)
        c = rand_matrix(rng, na, nb, 3)
        n = na + nb
        rows = []
        for i in range(na):
            rows.append(list(a.row(i)) + list(c.row(i)))
        for i in range(nb):
            rows.append([Q(0)] * na + list(b.row(i)))
        block = Matrix.from_rows(rows)
        assert char_poly(block) == char_poly(a) * char_poly(b)


# small rationals, with zero and non-integer entries both common
RATIONALS = st.one_of(st.just(Q(0)),
                      st.fractions(min_value=-12, max_value=12,
                                   max_denominator=9))


@st.composite
def square_matrices(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    return Matrix(n, n, draw(st.lists(RATIONALS, min_size=n * n,
                                      max_size=n * n)))


@settings(max_examples=50, deadline=None)
@given(square_matrices())
@example(Matrix.zero(7, 7))
@example(Matrix.zero(3, 3))
@example(Matrix.zero(0, 0))
@example(Matrix.diagonal([Q(1, 2), Q(-1, 3), Q(5, 7)]))
def test_char_poly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    sm = sympy.Matrix(m.rows, m.cols,
                      [sympy.Rational(e.numerator, e.denominator)
                       for e in m.entries])
    expected = [Q(int(c.p), int(c.q))
                for c in reversed(sm.charpoly().all_coeffs())]
    assert char_poly(m) == Polynomial(expected)


def test_nilpotent_unipotent():
    nu = Matrix.from_rows([(0, 1, 0), (0, 0, 1), (0, 0, 0)])
    assert is_nilpotent(nu)
    assert is_unipotent(nu + Matrix.identity(3))
    d = Matrix.diagonal((4, 2, 0, -2, -4))
    assert not is_nilpotent(d)
    assert not is_unipotent(d)


def test_nilpotent_iff_power_vanishes_randomized():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n, 2)
        assert is_nilpotent(m) == mat_pow(m, n).is_zero()


# ----------------------------------------------------------------- subspaces

def test_subspace_canonical_from_two_spanning_sets():
    a = Subspace.span(3, [(1, 2, 3), (0, 1, 1)])
    b = Subspace.span(3, [(1, 3, 4), (2, 5, 7), (1, 2, 3)])
    assert a == b
    assert a.basis == b.basis


def test_subspace_sum_intersect_idempotent():
    s = Subspace.span(4, [(1, 0, 2, 0), (0, 1, 1, 1)])
    assert s.sum(s) == s
    assert s.intersect(s) == s


def test_subspace_membership():
    s = Subspace.span(3, [(1, 0, 1), (0, 1, 0)])
    assert s.contains((2, 3, 2))
    assert not s.contains((1, 0, 0))


def test_subspace_modular_pair_randomized():
    rng = random.Random(23)
    for _ in range(20):
        n = 5
        a = Subspace.span(n, [tuple(Q(rng.randint(-2, 2)) for _ in range(n))
                              for _ in range(rng.randint(0, 3))])
        b = Subspace.span(n, [tuple(Q(rng.randint(-2, 2)) for _ in range(n))
                              for _ in range(rng.randint(0, 3))])
        inter = a.intersect(b)
        total = a.sum(b)
        assert inter.dim + total.dim == a.dim + b.dim
        for v in inter.basis_vectors():
            assert a.contains(v) and b.contains(v)
        assert total.contains_subspace(a) and total.contains_subspace(b)


def test_subspace_ambient_mismatch():
    with pytest.raises(ValueError):
        Subspace.full(3).sum(Subspace.full(4))


@st.composite
def column_lists(draw, max_cols=6, max_len=6):
    length = draw(st.integers(0, max_len))
    return draw(st.lists(st.lists(RATIONALS, min_size=length,
                                  max_size=length), max_size=max_cols))


@settings(max_examples=50, deadline=None)
@given(column_lists())
@example([])
@example([[], [], []])
def test_from_columns_is_the_transpose_of_from_rows(cols):
    m = Matrix.from_columns(cols)
    assert m == Matrix.from_rows(cols).transpose()
    assert (m.rows, m.cols) == (len(cols[0]) if cols else 0, len(cols))
    assert all(m.col(j) == tuple(c) for j, c in enumerate(cols))


def test_from_columns_rejects_ragged_columns():
    with pytest.raises(ValueError):
        Matrix.from_columns([(1, 2), (3,)])


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_subspace_combination_matches_dense_sum(data):
    n = data.draw(st.integers(0, 6))
    s = Subspace.span(n, data.draw(st.lists(
        st.lists(RATIONALS, min_size=n, max_size=n), max_size=4)))
    coeffs = data.draw(st.lists(RATIONALS, min_size=s.dim, max_size=s.dim))
    expected = [Q(0)] * n
    for c, row in zip(coeffs, s.basis_vectors()):
        expected = [e + c * x for e, x in zip(expected, row)]
    assert s.combination(coeffs) == tuple(expected)


def test_subspace_combination_wants_one_coefficient_per_basis_vector():
    with pytest.raises(ValueError):
        Subspace.full(3).combination((1, 2))


def test_quotient_map():
    w = Subspace.span(4, [(1, 0, -1, 0)])
    reps = w.free_columns()
    assert reps == (1, 2, 3)

    def project(v):
        reduced = w.reduce(v)
        return tuple(reduced[c] for c in reps)

    assert project((1, 0, -1, 0)) == (Q(0), Q(0), Q(0))
    # e3 = e1 modulo w
    assert project((0, 0, 1, 0)) == project((1, 0, 0, 0))


# --------------------------------------------------------------- polynomials

def test_rational_roots():
    # (x-1)^2 (x+3) (2x-1) = ...
    p = (Polynomial([-1, 1]) * Polynomial([-1, 1])
         * Polynomial([3, 1]) * Polynomial([-1, 2]))
    roots = rational_roots(p)
    assert roots == {Q(1): 2, Q(-3): 1, Q(1, 2): 1}


def test_rational_roots_with_zero_root():
    p = Polynomial([0, 0, -1, 1])  # x^2 (x - 1)
    assert rational_roots(p) == {Q(0): 2, Q(1): 1}


@st.composite
def polynomials_with_rational_roots(draw):
    """A product of rational linear factors, some repeated, times a small
    random cofactor that may carry further (or no) rational roots."""
    p = Polynomial([draw(RATIONALS.filter(bool))])
    for _ in range(draw(st.integers(0, 4))):
        root = Q(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
        for _ in range(draw(st.integers(1, 3))):
            p = p * Polynomial([-root, 1])
    cofactor = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    if any(cofactor):
        p = p * Polynomial(cofactor)
    return p


@settings(max_examples=80, deadline=None)
@given(polynomials_with_rational_roots())
@example(Polynomial([0, 0, -1, 1]))
@example(Polynomial([Q(1, 3)]))
def test_rational_roots_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)], x, domain="QQ")
    expected = {}
    for factor, mult in sp.factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            root = -c0 / c1
            expected[Q(int(root.p), int(root.q))] = mult
    roots = rational_roots(p)
    assert roots == expected
    # the zero root first, then the others in ascending order
    nonzero = sorted(r for r in roots if r)
    assert list(roots) == ([Q(0)] if Q(0) in roots else []) + nonzero


def test_count_real_roots():
    assert count_real_roots(Polynomial([-2, 0, 1])) == 2   # x^2 - 2
    assert count_real_roots(Polynomial([2, 0, 1])) == 0    # x^2 + 2
    assert count_real_roots(Polynomial([0, -1, 0, 1])) == 3  # x^3 - x
    # repeated roots are counted once
    sq = Polynomial([-1, 1]) * Polynomial([-1, 1])
    assert count_real_roots(sq) == 1


def test_matrix_power_and_apply():
    m = Matrix.from_rows([(1, 1), (0, 1)])
    assert m * m * m == Matrix.from_rows([(1, 3), (0, 1)])
    assert m.apply((Q(1), Q(2))) == (Q(3), Q(2))


def test_float_rejected():
    with pytest.raises(TypeError):
        Matrix.from_rows([(0.5, 1), (0, 1)])


def test_rational_roots_need_no_factorization():
    # the constant term 1000003 * 1000033 has no factor below 10^6
    assert rational_roots(Polynomial([-(1000003 * 1000033), 0, 1])) == {}
    big = 10 ** 40 + 7
    p = (Polynomial([-big, 1]) * Polynomial([3, -7]) * Polynomial([3, -7])
         * Polynomial([1, 0, 1]))
    assert rational_roots(p) == {Q(3, 7): 2, Q(big): 1}
    assert rational_roots(Polynomial([2, -3])) == {Q(2, 3): 1}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-10 ** 25, 10 ** 25),
                          st.integers(1, 10 ** 12), st.integers(1, 3)),
                max_size=3),
       st.integers(1, 10 ** 9))
def test_rational_roots_with_large_roots(factors, k):
    """Roots with large numerators and denominators, times x^2 + k, which
    has no real root."""
    p = Polynomial([k, 0, 1])
    expected = {}
    for num, den, mult in factors:
        root = Q(num, den)
        for _ in range(mult):
            p = p * Polynomial([-root, 1])
        expected[root] = expected.get(root, 0) + mult
    roots = rational_roots(p)
    assert roots == expected
    nonzero = sorted(r for r in roots if r)
    assert list(roots) == ([Q(0)] if Q(0) in roots else []) + nonzero
