import random
from fractions import Fraction as Q

import pytest

from nilcert.models import (
    CARTAN,
    RAISING,
    build_W,
    build_Wprime,
    algebra_action_on_V,
    sl2_actions_on_V,
)
from nilcert.qlinalg import Matrix, Subspace, unit_vector
from nilcert.wedgerep import (
    GeneratorSet,
    NotInvariantError,
    commutant,
    induced_algebra_action,
    induced_group_action,
    invariant_closure,
    quotient_action,
    wedge_pairs,
    wedge_vector,
    weight_decomposition,
)
from nilcert.autos import exp_nilpotent

E5 = [unit_vector(5, i) for i in range(5)]


def rand_matrix(rng, n, bound=3):
    return Matrix(n, n, (Q(rng.randint(-bound, bound)) for _ in range(n * n)))


def test_wedge_basis():
    pairs = wedge_pairs(5)
    assert len(pairs) == 10
    assert pairs[0] == (0, 1)
    assert pairs.index((0, 1)) == 0
    assert pairs.index((3, 4)) == 9


def test_wedge_vector_basics():
    w12 = wedge_vector(E5[0], E5[1])
    assert w12 == unit_vector(10, 0)
    assert wedge_vector(E5[1], E5[0]) == tuple(-x for x in w12)
    u = tuple(a + b for a, b in zip(E5[0], E5[1]))
    assert wedge_vector(u, E5[1]) == w12  # (s1+s2)^s2 = s1^s2
    with pytest.raises(ValueError):
        wedge_vector(E5[0], (Q(1),) * 4)


def test_induced_algebra_identity_doubles():
    assert induced_algebra_action(Matrix.identity(5)) == Matrix.identity(10).scale(2)


def test_induced_algebra_weight_sums():
    ind = induced_algebra_action(algebra_action_on_V(CARTAN))
    weights = (4, 2, 0, -2, -4)
    expected = Matrix.diagonal([weights[i] + weights[j]
                                for (i, j) in wedge_pairs(5)])
    assert ind == expected
    # eigenvalue 6 on s1^s2 in particular
    assert ind.apply(unit_vector(10, 0)) == tuple(6 * x for x in unit_vector(10, 0))


def test_induced_algebra_raising_moves_w_generator():
    ind = induced_algebra_action(algebra_action_on_V(RAISING))
    v = tuple(a - b for a, b in zip(wedge_vector(E5[0], E5[4]),
                                    wedge_vector(E5[1], E5[3])))
    out = tuple(a - b for a, b in zip(wedge_vector(E5[0], E5[3]),
                                      wedge_vector(E5[1], E5[2])))
    assert ind.apply(v) == out


def test_induced_group_identity_and_det():
    assert induced_group_action(Matrix.identity(5)) == Matrix.identity(10)
    g = Matrix.from_rows([(2, 1), (3, 4)])
    ind = induced_group_action(g)
    assert ind == Matrix.from_rows([(5,)])  # 1x1: the determinant


def test_induced_group_exp_compatibility():
    rp = algebra_action_on_V(RAISING)
    lhs = induced_group_action(exp_nilpotent(rp))
    rhs = exp_nilpotent(induced_algebra_action(rp))
    assert lhs == rhs


def test_induced_functoriality_randomized():
    rng = random.Random(31)
    for _ in range(10):
        g = rand_matrix(rng, 4)
        h = rand_matrix(rng, 4)
        assert (induced_group_action(g * h)
                == induced_group_action(g) * induced_group_action(h))
        comm = induced_algebra_action(g * h - h * g)
        ig, ih = induced_algebra_action(g), induced_algebra_action(h)
        assert comm == ig * ih - ih * ig


def test_weight_additivity_randomized():
    rng = random.Random(37)
    for _ in range(10):
        weights = [Q(rng.randint(-4, 4)) for _ in range(4)]
        m = Matrix.diagonal(weights)
        ind = induced_algebra_action(m)
        grp = induced_group_action(Matrix.diagonal([w + 5 for w in weights]))
        for idx, (i, j) in enumerate(wedge_pairs(4)):
            e = unit_vector(6, idx)
            assert ind.apply(e) == tuple((weights[i] + weights[j]) * x for x in e)
            assert grp.apply(e) == tuple((weights[i] + 5) * (weights[j] + 5) * x
                                         for x in e)


# ----------------------------------------------------------- quotient action

def test_quotient_identity():
    w = build_W()
    assert quotient_action(Matrix.identity(10), w) == Matrix.identity(7)


def test_quotient_cartan_weights():
    w = build_W()
    ind = induced_algebra_action(algebra_action_on_V(CARTAN))
    assert quotient_action(ind, w) == Matrix.diagonal((6, 4, 2, 0, -2, -4, -6))


def test_quotient_rejects_non_invariant_with_witness():
    w = build_W()
    # E11 on V is not in the stabilizer algebra of W
    e11 = Matrix(5, 5, (Q(1) if (i, j) == (0, 0) else Q(0)
                        for i in range(5) for j in range(5)))
    with pytest.raises(NotInvariantError) as info:
        quotient_action(induced_algebra_action(e11), w)
    witness = info.value.witness
    assert witness in w.basis_vectors()


# ------------------------------------------------------- weight decomposition

def test_weight_decomposition_cartan():
    wd = weight_decomposition(algebra_action_on_V(CARTAN), (4, 2, 0, -2, -4))
    assert wd.complete
    for i, w in enumerate((4, 2, 0, -2, -4)):
        assert wd.spaces[Q(w)] == Subspace.span(5, [E5[i]])


def test_weight_decomposition_identity():
    wd = weight_decomposition(Matrix.identity(3), (1,))
    assert wd.complete
    assert wd.spaces[Q(1)] == Subspace.full(3)


def test_weight_decomposition_incomplete():
    wd = weight_decomposition(algebra_action_on_V(RAISING), (0,))
    assert not wd.complete
    assert wd.spaces[Q(0)] == Subspace.span(5, [E5[0]])


# ------------------------------------------------------------------ commutant

def test_commutant_empty_generators():
    assert commutant(GeneratorSet((), ()), dim=3) == Subspace.full(9)


def test_generator_set_rejects_mismatched_labels_and_shapes():
    a, b = Matrix.identity(2), Matrix.identity(3)
    gens = GeneratorSet(("a", "b"), (a, a))
    assert gens.dim == 2 and len(gens) == 2 and list(gens) == [a, a]
    with pytest.raises(ValueError, match="one label per matrix"):
        GeneratorSet(("a",), (a, a))
    with pytest.raises(ValueError, match="one label per matrix"):
        GeneratorSet(("a", "b"), (a,))
    with pytest.raises(ValueError, match="different spaces"):
        GeneratorSet(("a", "b"), (a, b))
    with pytest.raises(ValueError, match="square"):
        GeneratorSet(("r",), (Matrix.zero(2, 3),))


def test_commutant_irreducible_V():
    assert commutant(sl2_actions_on_V()).dim == 1


def test_commutant_wedge_two_summands():
    gens = sl2_actions_on_V()
    ind = GeneratorSet(gens.labels,
                       tuple(induced_algebra_action(m) for m in gens))
    assert commutant(ind).dim == 2


def test_commutant_contains_identity_and_closed_under_product():
    gens = sl2_actions_on_V()
    com = commutant(gens)
    assert com.contains(Matrix.identity(5).flatten())
    mats = [Matrix.from_flat(5, row) for row in com.basis_vectors()]
    for a in mats:
        for b in mats:
            assert com.contains((a * b).flatten())


# ----------------------------------------------------------- invariant closure

def test_invariant_closure_zero_seed():
    gens = sl2_actions_on_V()
    assert invariant_closure([], gens).dim == 0


def test_invariant_closure_lowering_chain_fills_V():
    gens = sl2_actions_on_V()
    only_lowering = GeneratorSet(("f",), (gens.matrices[2],))
    assert invariant_closure([E5[0]], only_lowering) == Subspace.full(5)


def test_invariant_closure_wprime():
    wp = build_Wprime()
    assert wp.dim == 7
    gens = sl2_actions_on_V()
    ind = GeneratorSet(gens.labels,
                       tuple(induced_algebra_action(m) for m in gens))
    seed = wedge_vector(E5[0], E5[1])
    assert invariant_closure([seed], ind) == wp
    # invariance of the result
    for m in ind:
        for bv in wp.basis_vectors():
            assert wp.contains(m.apply(bv))
