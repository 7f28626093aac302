"""Subspace on its integer echelon rows, and the derivation consumers that
read those rows (restricted shear spaces, the integer nilpotence test),
each checked against a dense Fraction reference (here and in
dense_reference.py)."""

import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert import cli, qlinalg
from nilcert.autos import (
    DerivationSpace,
    _leibniz_rows,
    derivation_algebra,
    derivation_defects,
    factor_on_abelianization,
    model_derivations,
    shear_space,
    stabilizer_algebra,
)
from nilcert.liecore import (
    abelian_lie_algebra,
    center,
    derived_subalgebra,
    heisenberg3,
    make_lie_algebra,
)
from nilcert.models import model_data, subspace_in_algebra, validate_p
from nilcert.qlinalg import (
    Matrix,
    Subspace,
    clear_denominators,
    int_kernel,
    unit_vector,
)
from nilcert.wedgerep import NotInvariantError, commutant

from dense_reference import ref_nullspace, ref_rref

BIG = 2 ** 64

SMALL = st.one_of(st.just(Q(0)),
                  st.fractions(min_value=-9, max_value=9, max_denominator=7))
HUGE = st.builds(Q, st.integers(-BIG ** 2, BIG ** 2).filter(bool),
                 st.integers(BIG, BIG ** 2))
SPARSE = st.one_of(st.just(Q(0)), st.just(Q(0)), st.just(Q(0)), SMALL)
ENTRIES = st.one_of(st.just(SMALL), st.just(SPARSE),
                    st.just(st.one_of(SPARSE, HUGE)))


# --------------------------------------------------------------------------
# dense Fraction references
# --------------------------------------------------------------------------

def ref_reduce(basis, pivots, v):
    out = [Q(x) for x in v]
    for row, p in zip(basis, pivots):
        f = out[p]
        out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


def ref_intersect(a, b, n):
    cols = [list(r) for r in a] + [[-x for x in r] for r in b]
    if not cols:
        return []
    system = [[col[i] for col in cols] for i in range(n)]
    out = []
    for coeffs in ref_nullspace(system, len(cols)):
        v = [Q(0)] * n
        for c, row in zip(coeffs, a):
            v = [x + c * y for x, y in zip(v, row)]
        out.append(v)
    return ref_rref(out, n)[0]


@st.composite
def spanning_sets(draw, n=None, max_rows=5):
    """One kind of entry (dense, sparse, or with denominators above 2^64),
    plus negated and scaled copies of drawn rows."""
    entries = draw(ENTRIES)
    if n is None:
        n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         max_size=max_rows))
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            src = rows[draw(st.integers(0, len(rows) - 1))]
            c = draw(st.sampled_from([Q(-1), Q(-3, 2), Q(-BIG - 1)]))
            rows.insert(draw(st.integers(0, len(rows))), [c * x for x in src])
    return n, rows


def pivot_columns(s):
    """The pivot columns of s, read as the complement of its free columns."""
    free = set(s.free_columns())
    return tuple(t for t in range(s.ambient_dim) if t not in free)


def assert_matches_reference(s, rows, n):
    basis, pivots = ref_rref(rows, n)
    assert s.ambient_dim == n and s.dim == len(basis)
    assert s.basis_vectors() == tuple(basis)
    assert s.basis == (Matrix.from_rows(basis) if basis
                       else Matrix.zero(0, n))
    assert all(type(x) is Q for x in s.basis.entries)
    assert pivot_columns(s) == tuple(pivots)
    # the stored rows: positive pivot entries, primitive, RREF rows scaled
    for (c, row), ref in zip(s.echelon, basis):
        assert row[c] > 0 and math.gcd(*row.values()) == 1
        assert all(row.get(j, 0) == ref[j] * row[c] for j in range(n))


# --------------------------------------------------------------------------
# Subspace against the references
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(spanning_sets(), st.data())
@example((3, []), None)
@example((2, [[Q(BIG + 1, BIG), Q(-1)], [Q(-BIG - 1, BIG), Q(1)]]), None)
def test_span_equality_and_hash_match_the_dense_reference(case, data):
    n, rows = case
    s = Subspace.span(n, rows)
    assert_matches_reference(s, rows, n)
    negated = Subspace.span(n, [[-x for x in r] for r in reversed(rows)])
    assert negated == s and hash(negated) == hash(s)
    assert Subspace(n, s.basis) == s
    assert Subspace(n, Matrix.from_rows(rows) if rows
                    else Matrix.zero(0, n)) == s
    if data is not None and rows:
        # dropping a row changes the space exactly when the rank drops
        k = data.draw(st.integers(0, len(rows) - 1))
        fewer = rows[:k] + rows[k + 1:]
        same = len(ref_rref(fewer, n)[0]) == s.dim
        assert (Subspace.span(n, fewer) == s) == same


@settings(max_examples=60, deadline=None)
@given(spanning_sets().flatmap(lambda case: st.tuples(
    st.just(case), spanning_sets(n=case[0]))))
def test_sum_and_intersect_match_the_dense_reference(args):
    (n, rows_a), (_, rows_b) = args
    a, b = Subspace.span(n, rows_a), Subspace.span(n, rows_b)
    assert_matches_reference(a.sum(b), rows_a + rows_b, n)
    inter = a.intersect(b)
    expected = ref_intersect(ref_rref(rows_a, n)[0],
                             ref_rref(rows_b, n)[0], n)
    assert_matches_reference(inter, expected, n)
    assert b.intersect(a) == inter and b.sum(a) == a.sum(b)
    assert a.contains_subspace(inter) and b.contains_subspace(inter)


@settings(max_examples=60, deadline=None)
@given(spanning_sets().flatmap(lambda case: st.tuples(
    st.just(case),
    st.lists(st.one_of(SMALL, HUGE), min_size=case[0], max_size=case[0]),
    st.lists(st.one_of(SMALL, HUGE), min_size=5, max_size=5))))
def test_contains_reduce_and_combination_match_the_dense_reference(args):
    (n, rows), v, coeffs = args
    s = Subspace.span(n, rows)
    basis, pivots = ref_rref(rows, n)
    reduced = ref_reduce(basis, pivots, v)
    assert s.reduce(v) == reduced
    assert all(type(x) is Q for x in s.reduce(v))
    assert s.contains(v) == (not any(reduced))
    coeffs = coeffs[:s.dim]
    if len(coeffs) < s.dim:
        coeffs += [Q(1)] * (s.dim - len(coeffs))
    expected = [Q(0)] * n
    for c, row in zip(coeffs, basis):
        expected = [x + c * y for x, y in zip(expected, row)]
    combined = s.combination(coeffs)
    assert combined == tuple(expected)
    assert all(type(x) is Q for x in combined)
    assert s.contains(combined)
    assert s.reduce(combined) == (Q(0),) * n


@pytest.mark.parametrize("n", [0, 1, 4])
def test_zero_and_full_spaces(n):
    zero, full = Subspace.zero(n), Subspace.full(n)
    assert zero == Subspace.span(n, []) and hash(zero) == hash(
        Subspace.span(n, []))
    units = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    assert full == Subspace.span(n, [[-x for x in r] for r in units])
    assert full.basis == Matrix.identity(n)
    assert zero.basis == Matrix.zero(0, n) and zero.basis_vectors() == ()
    assert pivot_columns(zero) == () and pivot_columns(full) == tuple(
        range(n))
    assert zero.sum(full) == full and zero.intersect(full) == zero
    assert full.intersect(full) == full and zero.sum(zero) == zero
    assert zero.combination(()) == (Q(0),) * n
    assert full.reduce([Q(1)] * n) == (Q(0),) * n
    assert zero.free_columns() == tuple(range(n)) and full.free_columns() == ()


def test_basis_is_built_once_and_only_when_read():
    s = Subspace.span(3, [(2, 4, 6), (0, 3, 1)])
    assert s._basis is None
    s.sum(s).intersect(s).contains((1, 2, 3))
    s.combination((1, 1))
    assert s._basis is None
    assert s.basis is s.basis


def test_equations_cut_out_the_subspace():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(rng.randint(0, 4))]
        s = Subspace.span(n, rows)
        eqs = s.equations()
        assert len(eqs) == n - s.dim
        assert int_kernel([dict(e) for e in eqs], n) == s


# --------------------------------------------------------------------------
# int_kernel: one elimination, read off the pivot rows
# --------------------------------------------------------------------------

@st.composite
def int_systems(draw):
    """(n, sparse integer rows): small or huge entries of both signs, many
    zeros, and repeated or negated copies of drawn rows."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-9, 9),
                      st.integers(-BIG, BIG))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         max_size=8))
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            src = draw(st.sampled_from(rows))
            rows.append([draw(st.sampled_from([1, -1, 3])) * x for x in src])
    return n, [{j: x for j, x in enumerate(r) if x} for r in rows]


@settings(max_examples=80, deadline=None)
@given(int_systems())
@example((3, []))
@example((1, []))
@example((4, [{}, {}]))
@example((3, [{0: 2, 2: -4}, {0: 2, 2: -4}, {0: -1, 2: 2}]))
@example((3, [{0: 1}, {1: -2, 2: 3}, {2: 5}]))
@example((1, [{0: -3}]))
@example((5, [{1: -6, 3: 4, 4: -2}, {0: -1, 4: 7}]))
def test_int_kernel_matches_two_eliminations_and_the_dense_reference(case):
    n, rows = case
    given_rows = [dict(r) for r in rows]
    ker = int_kernel(rows, n)
    assert rows == given_rows  # the input rows are left as they were
    # the definition it replaces: the equations of the row space
    assert ker == Subspace.from_int_rows(n, Subspace.from_int_rows(
        n, [dict(r) for r in rows]).equations())
    dense = [[r.get(j, 0) for j in range(n)] for r in rows]
    assert_matches_reference(ker, ref_nullspace(dense, n), n)
    assert ker.dim == n - len(ref_rref(dense, n)[1])
    for _, v in ker.echelon:
        for r in rows:
            assert sum(x * v.get(j, 0) for j, x in r.items()) == 0
    again = Subspace.from_int_rows(n, [dict(v) for _, v in ker.echelon])
    assert again.echelon == ker.echelon


def test_derivation_algebra_eliminates_once(monkeypatch):
    calls = []
    rref_int = qlinalg._rref_int

    def counted(rows, ncols):
        calls.append(ncols)
        return rref_int(rows, ncols)

    monkeypatch.setattr(qlinalg, "_rref_int", counted)
    assert derivation_algebra(heisenberg3()).dim == 6
    assert calls == [9]


# --------------------------------------------------------------------------
# shear spaces: restricted from der(L) against the full elimination
# --------------------------------------------------------------------------

def full_shear_space(L, c):
    """One elimination of the Leibniz rows together with rows forcing every
    column of D into c: for each non-pivot coordinate t of c,
    x_t = sum_r c.basis[r, t] x_(pivot r)."""
    d = L.dim
    conditions = [clear_denominators(
        [(t, Q(1))] + [(pc, -c.basis[r, t])
                       for r, pc in enumerate(pivot_columns(c))])[1]
        for t in c.free_columns()]
    membership = ({r * d + col: x for r, x in cond.items()}
                  for col in range(d) for cond in conditions)
    return int_kernel(itertools.chain(_leibniz_rows(L), membership), d * d)


#: L' = span(p14, p15, p25, p35, p45) inside V'
LPRIME = Subspace.span(7, [unit_vector(7, k) for k in range(2, 7)])

#: the default p and the three non-default p pinned by the CLI tests
PINNED_P = ("0,1,0,0,0,0,1", "0,1/2,0,0,0,0,-2", "0,1,-1/2,2,-3/2,1,1/2",
            "0,0,1,0,1,0,0")


@pytest.mark.parametrize("p", PINNED_P)
def test_restricted_shear_space_of_N_equals_the_full_elimination(p):
    data = model_data(validate_p(p.split(",")))
    for c in (subspace_in_algebra(data.L), subspace_in_algebra(LPRIME),
              center(data.N), Subspace.zero(12)):
        der = derivation_algebra(data.N)
        assert der.with_image_in(c) == full_shear_space(data.N, c)
    assert shear_space(data.N, subspace_in_algebra(data.L)).dim == 30


def test_restricted_shear_space_of_G_equals_the_full_elimination():
    data = model_data()
    der = derivation_algebra(data.G)
    for c in (subspace_in_algebra(data.L), derived_subalgebra(data.G),
              Subspace.full(12)):
        assert der.with_image_in(c) == full_shear_space(data.G, c)
    assert der.with_image_in(Subspace.full(12)) == der.space


@st.composite
def two_step_tables(draw):
    """A random alternating map from pairs of k generators into an
    m-dimensional centre, with a random target subspace c."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    d = k + m
    coeff = st.integers(-3, 3)
    brackets = {}
    for i, j in itertools.combinations(range(k), 2):
        coords = [0] * k + [draw(coeff) for _ in range(m)]
        if any(coords):
            brackets[(i, j)] = coords
    c_rows = draw(st.lists(st.lists(coeff, min_size=d, max_size=d),
                           max_size=d))
    return d, brackets, c_rows


@settings(max_examples=30, deadline=None)
@given(two_step_tables())
def test_restricted_shear_space_on_random_two_step_tables(case):
    d, brackets, c_rows = case
    L = make_lie_algebra(d, brackets)
    c = Subspace.span(d, c_rows)
    assert shear_space(L, c) == full_shear_space(L, c)
    assert shear_space(L, derived_subalgebra(L)) == full_shear_space(
        L, derived_subalgebra(L))


def test_shear_space_rejects_a_mismatched_subspace():
    with pytest.raises(ValueError, match="ambient dimension"):
        derivation_algebra(model_data().G).with_image_in(Subspace.zero(5))


# --------------------------------------------------------------------------
# the integer nilpotence test against the Fraction path
# --------------------------------------------------------------------------

def fraction_defects(der):
    bad_factor, bad_cube = [], []
    for idx, dm in enumerate(der.basis_matrices()):
        if not factor_on_abelianization(der.algebra, dm).is_zero():
            bad_factor.append(idx)
        if not (dm * dm * dm).is_zero():
            bad_cube.append(idx)
    return bad_factor, bad_cube


def random_p(rng):
    values = [Q(n, 2) for n in range(-4, 5)]
    while True:
        p = [Q(0)] + [rng.choice(values) if rng.random() < 0.6 else Q(0)
                      for _ in range(6)]
        if any(p):
            return validate_p(p)


def test_integer_defects_equal_the_fraction_path_at_random_p():
    rng = random.Random(808)
    seen = set()
    for _ in range(20):
        N = model_data(random_p(rng)).N
        der = derivation_algebra(N)
        defects = derivation_defects(der)
        assert defects == fraction_defects(der)
        seen.add(bool(defects[0]))
    assert seen == {False, True}  # both outcomes occur among the 20


def test_integer_defects_on_G_and_a_cube_that_survives():
    G = model_data().G
    der = derivation_algebra(G)
    assert derivation_defects(der) == fraction_defects(der)
    # the shift s1 -> s2 -> s3 -> s4: not a derivation, but it keeps
    # [G, G], acts on the abelianization, and its cube sends s1 to s4
    jordan = [[Q(0)] * 12 for _ in range(12)]
    for i in range(3):
        jordan[i + 1][i] = Q(1)
    fake = DerivationSpace(G, Subspace.span(144, [
        [x for row in jordan for x in row]]))
    assert derivation_defects(fake) == fraction_defects(fake) == ([0], [0])


def test_a_derivation_that_moves_the_derived_algebra_raises_the_same_error():
    G = model_data().G
    bad = [[Q(0)] * 12 for _ in range(12)]
    bad[0][5] = Q(1)  # p12 -> s1 leaves [G, G]
    fake = DerivationSpace(G, Subspace.span(144, [
        [x for row in bad for x in row]]))
    with pytest.raises(NotInvariantError) as fraction_error:
        fraction_defects(fake)
    with pytest.raises(NotInvariantError) as int_error:
        derivation_defects(fake)
    assert str(int_error.value) == str(fraction_error.value)
    assert int_error.value.witness == fraction_error.value.witness


def flat_derivation(n, entries):
    """The row-major flattening of the n x n matrix with the given
    {(row, column): value} entries."""
    flat = [Q(0)] * (n * n)
    for (r, c), x in entries.items():
        flat[r * n + c] = Q(x)
    return flat


def test_the_witness_is_the_first_vector_moved_by_the_first_moving_row():
    G = model_data().G
    # [G, G] is spanned by p12..p45 (basis indices 5..11), so its basis
    # vector k is e_(5 + k).  Row 0 keeps [G, G]; row 1 moves basis
    # vectors 4 (p25 -> s1) and 6 (p45 -> s3); row 2 moves basis vector 0
    # (p12 -> s2).  The first (row, vector) is (1, 4), although a later
    # row moves a smaller vector.
    fake = DerivationSpace(G, Subspace.span(144, [
        flat_derivation(12, {(0, 1): 1}),
        flat_derivation(12, {(0, 9): 1, (2, 11): -2}),
        flat_derivation(12, {(1, 5): 3}),
    ]))
    assert [row for _, row in fake.space.echelon] == [
        {1: 1}, {9: 1, 35: -2}, {17: 1}]
    with pytest.raises(NotInvariantError) as fraction_error:
        fraction_defects(fake)
    with pytest.raises(NotInvariantError) as int_error:
        derivation_defects(fake)
    assert str(int_error.value) == str(fraction_error.value)
    assert int_error.value.witness == fraction_error.value.witness
    assert int_error.value.witness == unit_vector(12, 9)


def test_on_an_abelian_algebra_every_nonzero_derivation_is_a_factor_defect():
    # der(Q^3) = gl(3), whose basis is the matrix units E_rc; only the
    # diagonal units survive cubing
    der = derivation_algebra(abelian_lie_algebra(3))
    assert derived_subalgebra(der.algebra).dim == 0
    assert derivation_defects(der) == fraction_defects(der) == (
        list(range(9)), [0, 4, 8])


HALVES = st.integers(-6, 6).map(lambda k: Q(k, 2))


@st.composite
def half_integer_p(draw):
    """p in L with integer and half-integer coordinates, nonzero, with
    p13 = 0 or p13 != 0 as drawn."""
    p13 = draw(st.one_of(st.just(Q(0)), HALVES.filter(bool)))
    rest = draw(st.lists(st.one_of(st.just(Q(0)), HALVES),
                         min_size=5, max_size=5))
    if not p13 and not any(rest):
        rest[0] = Q(1)
    return (Q(0), p13, *rest)


@settings(max_examples=40, deadline=None)
@given(half_integer_p())
@example((Q(0), Q(1), Q(0), Q(0), Q(0), Q(0), Q(1)))
@example((Q(0), Q(0), Q(1), Q(0), Q(1), Q(0), Q(0)))
@example((Q(0), Q(1, 2), Q(0), Q(0), Q(0), Q(0), Q(-2)))
def test_defects_of_the_restricted_der_N_equal_the_fraction_path(p):
    # the der(N) that verify reads: K restricted by the hook-pair rows
    der = cli.Context(cli.Config(p=validate_p(p))).der_N
    assert derivation_defects(der) == fraction_defects(der)


def test_derivation_defects_runs_no_membership_test(monkeypatch):
    der = cli.Context(cli.Config()).der_N

    def refuse(*args):
        raise AssertionError("a per-derivation membership test ran")

    monkeypatch.setattr(Subspace, "int_reduce", refuse)
    monkeypatch.setattr(Subspace, "contains_int_row", refuse)
    assert derivation_defects(der) == ([0], [0])


# --------------------------------------------------------------------------
# the p-scan checks never build a Fraction basis of a 144-dim space
# --------------------------------------------------------------------------

P_DEPENDENT_SUITE = (
    "jacobi.N", "lcs.N-12-7-1-0", "nilclass.N-3", "n.der-dim-32",
    "n.der-decomposition", "n.derivations-nilpotent", "p.line-stabilizer-zero",
)


@pytest.mark.parametrize("p", PINNED_P)
def test_p_dependent_checks_build_no_basis_of_der_N_or_the_shear_space(
        monkeypatch, p):
    built = []
    basis = Subspace.basis

    def recording(self):
        if self._basis is None:
            built.append((self.ambient_dim, self.dim))
        return basis.fget(self)

    monkeypatch.setattr(Subspace, "basis", property(recording))
    report = cli.run(list(P_DEPENDENT_SUITE),
                     cli.Config(p=validate_p(p.split(","))))
    assert len(report.results) == 7
    assert "error" not in "".join(r.actual for r in report.results)
    assert not [b for b in built if b[0] == 144]


# --------------------------------------------------------------------------
# Subspace.basis_matrices against the Fraction basis vectors
# --------------------------------------------------------------------------

MATRIX_SPACES = {
    "der(G)": lambda data: model_derivations(data.G).space,
    "der(N)": lambda data: model_derivations(data.N).space,
    "stab(W)": lambda data: stabilizer_algebra(data.W),
    "commutant(V)": lambda data: commutant(data.actions_on_V),
}


@pytest.mark.parametrize("name", MATRIX_SPACES)
def test_basis_matrices_match_the_flat_basis_vectors(name):
    space = MATRIX_SPACES[name](model_data(validate_p(PINNED_P[2].split(","))))
    mats = space.basis_matrices()
    # read off the integer echelon rows, without the Fraction basis
    assert space._basis is None
    n = math.isqrt(space.ambient_dim)
    assert mats == tuple(Matrix.from_flat(n, v)
                         for v in space.basis_vectors())
    assert len(mats) == space.dim > 0


def test_basis_matrices_need_a_square_ambient_dimension():
    w = model_data().W
    with pytest.raises(ValueError, match="ambient dim 10 is not a square"):
        w.basis_matrices()
    assert Subspace.zero(9).basis_matrices() == ()
