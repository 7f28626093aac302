"""Subspace.preimage and Subspace.moved_by, and the stabilizer and
invariance computations built on them, each checked against a dense
Fraction reference (here and in dense_reference.py)."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert.autos import sample_h_element
from nilcert.models import (
    SL2Element,
    binary_form_action,
    induced_sl2_on_wedge,
)
from nilcert.qlinalg import Matrix, Subspace, unit_vector
from nilcert.wedgerep import invariant_closure, wedge_vector

from dense_reference import ref_nullspace

# ------------------------------------------------------------ the reference


def dense_preimage(spanning, m, images, k):
    """{a : sum_j a_j f[j] lies in span(spanning) for every f}: the
    functionals y that vanish on the span cut it out, so a is in the
    preimage exactly when y . f[j] weighted by a vanishes for each (y, f)."""
    annihilator = ref_nullspace(spanning, m)
    rows = [[sum((y[t] * x for t, x in f[j].items()), Q(0)) for j in range(k)]
            for f in images for y in annihilator]
    return Subspace.span(k, ref_nullspace(rows, k))


def fraction_closure(seeds, gens):
    """Smallest generator-invariant subspace containing the seeds, grown in
    Fractions by repeated application until the dimension stops."""
    n = gens[0].rows
    current = Subspace.span(n, seeds)
    while True:
        vectors = list(current.basis_vectors())
        grown = vectors + [g.apply(v) for g in gens for v in vectors]
        nxt = Subspace.span(n, grown)
        if nxt.dim == current.dim:
            return nxt
        current = nxt


# ------------------------------------------------------------ strategies

ENTRIES = st.one_of(st.just(Q(0)), st.just(Q(0)),
                    st.fractions(min_value=-5, max_value=5, max_denominator=4))
INTS = st.one_of(st.just(0), st.just(0), st.integers(-6, 6))


@st.composite
def targets(draw):
    """(spanning vectors, their span) in Q^m: zero, full or random."""
    m = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("zero", "full", "random")))
    if kind == "zero":
        spanning = []
    elif kind == "full":
        spanning = [unit_vector(m, i) for i in range(m)]
    else:
        spanning = draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m),
                                 max_size=m))
    return spanning, Subspace.span(m, spanning)


@st.composite
def preimage_cases(draw):
    spanning, target = draw(targets())
    m = target.ambient_dim
    k = draw(st.integers(0, 4))
    vectors = st.lists(INTS, min_size=m, max_size=m).map(
        lambda v: {t: x for t, x in enumerate(v) if x})
    images = draw(st.lists(st.lists(vectors, min_size=k, max_size=k),
                           max_size=3))
    return spanning, target, images, k


@st.composite
def moved_by_cases(draw):
    """A target and a square matrix; half of the matrices are built to keep
    the target: c I plus rank-one maps with image in it."""
    spanning, target = draw(targets())
    m = target.ambient_dim
    entries = st.lists(ENTRIES, min_size=m, max_size=m)
    if draw(st.booleans()) and spanning:
        c = draw(ENTRIES)
        a = [[c if i == j else Q(0) for j in range(m)] for i in range(m)]
        for u in spanning:
            y = draw(entries)
            for i in range(m):
                for j in range(m):
                    a[i][j] += u[i] * y[j]
        mat = Matrix.from_rows(a)
    else:
        mat = Matrix(m, m, draw(st.lists(ENTRIES, min_size=m * m,
                                         max_size=m * m)))
    return target, mat


# ------------------------------------------------------------ preimage


@settings(max_examples=150, deadline=None)
@given(preimage_cases())
def test_preimage_matches_the_dense_kernel(case):
    spanning, target, images, k = case
    assert target.preimage(images, k) == dense_preimage(
        spanning, target.ambient_dim, images, k)


def test_preimage_edge_cases():
    line = Subspace.span(3, [(1, 2, 0)])
    # no images: nothing is asked of the coefficients
    assert line.preimage([], 2) == Subspace.full(2)
    # k = 0: the coefficient space is Q^0
    assert line.preimage([[]], 0) == Subspace.zero(0)
    # the full target keeps everything, the zero target only the relations
    f = [{0: 1}, {0: 2}, {1: 1}]
    assert Subspace.full(3).preimage([f], 3) == Subspace.full(3)
    assert Subspace.zero(3).preimage([f], 3) == Subspace.span(3, [(2, -1, 0)])
    assert line.preimage([f], 3) == Subspace.span(3, [(1, 0, 2), (0, 1, 4)])
    with pytest.raises(ValueError):
        line.preimage([f[:2]], 3)


# ------------------------------------------------------------ moved_by


@settings(max_examples=150, deadline=None)
@given(moved_by_cases())
def test_moved_by_is_the_first_moved_basis_vector(case):
    target, mat = case
    expected = next((k for k, v in enumerate(target.basis_vectors())
                     if not target.contains(mat.apply(v))), None)
    assert target.moved_by(mat) == expected


def test_moved_by_witness_and_sizes():
    plane = Subspace.span(3, [(1, 0, 0), (0, 1, 0)])
    swap_13 = Matrix.from_rows([(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    swap_23 = Matrix.from_rows([(1, 0, 0), (0, 0, 1), (0, 1, 0)])
    assert plane.moved_by(Matrix.identity(3)) is None
    assert plane.moved_by(swap_13) == 0
    assert plane.moved_by(swap_23) == 1
    assert Subspace.zero(3).moved_by(swap_13) is None
    with pytest.raises(ValueError):
        plane.moved_by(Matrix.identity(4))
    with pytest.raises(ValueError):
        plane.moved_by(Matrix.zero(3, 2))


# ------------------------------------------------------------ invariant closure


def test_invariant_closure_matches_the_fraction_loop_on_Wprime():
    seed = wedge_vector(unit_vector(5, 0), unit_vector(5, 1))
    gens = induced_sl2_on_wedge()
    closure = invariant_closure([seed], gens)
    assert closure == fraction_closure([seed], gens)
    assert closure.dim == 7


@st.composite
def closure_cases(draw):
    n = draw(st.integers(1, 5))
    vec = st.lists(ENTRIES, min_size=n, max_size=n)
    mats = draw(st.lists(st.lists(ENTRIES, min_size=n * n, max_size=n * n),
                         min_size=1, max_size=3))
    gens = tuple(Matrix(n, n, a) for a in mats)
    return draw(st.lists(vec, max_size=2)), gens


@settings(max_examples=100, deadline=None)
@given(closure_cases())
def test_invariant_closure_matches_the_fraction_loop(case):
    seeds, gens = case
    closure = invariant_closure(seeds, gens)
    assert closure == fraction_closure(seeds, gens)
    assert all(closure.moved_by(g) is None for g in gens)


# ------------------------------------------------------------ sampled skip


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_trivial_samples_are_read_off_the_2x2_element(seed):
    # the sampled line check skips g exactly when Sym^4(g) is the identity
    identity = Matrix.identity(5)
    elements = [sample_h_element(seed, i)[1] for i in range(100)]
    for g in elements + [SL2Element(1, 0, 0, 1), SL2Element(-1, 0, 0, -1),
                         SL2Element(-1, 1, 0, -1)]:
        plus_minus_one = g.b == g.c == 0 and g.a == g.d
        assert plus_minus_one == (binary_form_action(g, 4) == identity)
