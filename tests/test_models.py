import random
from fractions import Fraction as Q

import pytest

from nilcert import models
from nilcert.autos import exp_nilpotent, sample_h_element
from nilcert.models import (
    ALGEBRA_LABELS,
    DEFAULT_P,
    CARTAN,
    LOWERING,
    RAISING,
    SL2Element,
    build_three_step,
    build_two_step,
    build_W,
    build_Wprime,
    group_action_on_V,
    in_V,
    model_data,
    algebra_action_on_V,
    v_basis,
    sym2_embed,
    v_coordinates,
    validate_p,
    vprime_to_algebra,
)
from nilcert.liecore import (
    center,
    check_jacobi,
    make_lie_algebra,
    nilpotency_class,
    non_alternating_pair,
)
from nilcert.qlinalg import Matrix, Subspace, rank, unit_vector
from nilcert.wedgerep import NotInvariantError, induced_group_action

from dense_reference import dense_tensor


def test_v_basis_matrices():
    s = v_basis()
    assert s[0] == Matrix.from_rows([(2, 0, 0), (0, 0, 0), (0, 0, 0)])
    for m in s:
        assert m == m.transpose()
        assert m[1, 1] == 2 * m[0, 2]
        assert in_V(m)
    flat = Matrix.from_rows([m.flatten() for m in s])
    assert rank(flat) == 5


def test_v_coordinates_round_trip():
    s = v_basis()
    for i, m in enumerate(s):
        assert v_coordinates(m) == unit_vector(5, i)


def test_algebra_action_on_V_matrices():
    assert algebra_action_on_V(CARTAN) == Matrix.diagonal((4, 2, 0, -2, -4))
    rp = algebra_action_on_V(RAISING)
    cols = [rp.col(j) for j in range(5)]
    # s1 -> 0, s2 -> s1, s3 -> 3 s2, s4 -> s3, s5 -> 2 s4
    assert cols[0] == (Q(0),) * 5
    assert cols[1] == unit_vector(5, 0)
    assert cols[2] == tuple(3 * x for x in unit_vector(5, 1))
    assert cols[3] == unit_vector(5, 2)
    assert cols[4] == tuple(2 * x for x in unit_vector(5, 3))
    rm = algebra_action_on_V(LOWERING)
    assert rm.col(0) == tuple(2 * x for x in unit_vector(5, 1))
    assert rm.col(4) == (Q(0),) * 5


def test_algebra_action_on_V_is_lie_homomorphism():
    rd = algebra_action_on_V(CARTAN)
    rp = algebra_action_on_V(RAISING)
    rm = algebra_action_on_V(LOWERING)
    assert rp * rm - rm * rp == rd.scale(Q(1, 2))      # [e, f] = h/2 here
    assert rd * rp - rp * rd == rp.scale(2)            # [h, e] = 2e
    assert rd * rm - rm * rd == rm.scale(-2)


def test_algebra_action_on_V_rejects_non_preserving():
    e11 = Matrix.from_rows([(1, 0, 0), (0, 0, 0), (0, 0, 0)])
    with pytest.raises(NotInvariantError) as info:
        algebra_action_on_V(e11)
    # the witness is s3: e11 s3 + s3 e11 has m13 = 1 but m22 = 0
    assert info.value.witness == v_basis()[2]


# ---------------------------------------------------------------------- sym2

def test_sym2_identity():
    assert sym2_embed(SL2Element.identity()) == Matrix.identity(3)


def test_sym2_upper_is_exp_raising():
    g = sym2_embed(SL2Element.upper(1))
    assert g == exp_nilpotent(RAISING)


def test_sym2_lower_is_exp_twice_lowering():
    g = sym2_embed(SL2Element.lower(1))
    assert g == exp_nilpotent(LOWERING.scale(2))


def test_sym2_hyperbolic():
    g = sym2_embed(SL2Element.hyperbolic(2))
    assert g == Matrix.diagonal((4, 1, Q(1, 4)))


def test_sym2_triple_brackets():
    # derivative convention: e -> RAISING, h -> CARTAN, f -> 2*LOWERING;
    # then [image e, image f] = CARTAN
    e, f = RAISING, LOWERING.scale(2)
    assert e * f - f * e == CARTAN


def test_sym2_multiplicative_randomized():
    rng = random.Random(41)
    count = 0
    while count < 50:
        a = SL2Element.upper(Q(rng.randint(-3, 3), rng.randint(1, 3)))
        b = SL2Element.lower(Q(rng.randint(-3, 3), rng.randint(1, 3)))
        c = SL2Element.hyperbolic(Q(rng.randint(1, 4), rng.randint(1, 3)))
        g, h = a * c, b * a
        assert sym2_embed(g * h) == sym2_embed(g) * sym2_embed(h)
        count += 1


def test_sl2_element_det_check():
    with pytest.raises(ValueError):
        SL2Element(1, 0, 0, 2)
    for entries in ((0, 0, 0, 0), (2, 0, 0, 2), ("1/2", 0, 0, 3)):
        with pytest.raises(ValueError, match="determinant"):
            SL2Element(*entries)


def test_sl2_element_coerces_its_entries():
    g = SL2Element(2, "3", 1, 2)
    assert (g.a, g.b, g.c, g.d) == (Q(2), Q(3), Q(1), Q(2))
    assert all(type(x) is Q for x in (g.a, g.b, g.c, g.d))
    assert SL2Element("1/2", 0, 0, 2).a == Q(1, 2)
    with pytest.raises(TypeError):
        SL2Element(1.0, 0, 0, 1)


def test_equal_sl2_elements_compare_and_hash_equal():
    g = SL2Element(Q(1, 2), 0, 0, 2)
    h = SL2Element("1/2", Q(0), 0, "2")
    assert g is not h and g == h and hash(g) == hash(h) and len({g, h}) == 1
    assert SL2Element.identity() == SL2Element(1, 0, 0, 1)
    assert SL2Element.upper(1) * SL2Element.upper(2) == SL2Element.upper(3)
    assert SL2Element.upper(1) != SL2Element.lower(1)
    assert SL2Element.identity() != (1, 0, 0, 1)
    assert repr(g) == "SL2Element(1/2, 0, 0, 2)"


def test_elliptic_pythagorean():
    k = SL2Element.elliptic(1, 2)
    assert (k.a, k.b) == (Q(3, 5), Q(4, 5))
    assert k.a * k.a + k.b * k.b == 1


# ------------------------------------------------------------- group action

def test_group_action_hyperbolic_weights():
    h = sym2_embed(SL2Element.hyperbolic(2))
    assert group_action_on_V(h) == Matrix.diagonal((16, 4, 1, Q(1, 4), Q(1, 16)))


def test_group_action_exp_compatibility():
    lhs = group_action_on_V(exp_nilpotent(RAISING))
    rhs = exp_nilpotent(algebra_action_on_V(RAISING))
    assert lhs == rhs
    lhs2 = group_action_on_V(sym2_embed(SL2Element.lower(Q(1, 2))))
    rhs2 = exp_nilpotent(algebra_action_on_V(LOWERING))  # derivative of t -> lower(t/2)
    assert lhs2 == rhs2


def test_group_action_multiplicative_on_H():
    rng = random.Random(43)
    for _ in range(25):
        _, g = sample_h_element(rng.randint(0, 10**6), rng.randint(3, 50))
        _, h = sample_h_element(rng.randint(0, 10**6), rng.randint(3, 50))
        left = group_action_on_V(sym2_embed(g * h))
        right = group_action_on_V(sym2_embed(g)) * group_action_on_V(sym2_embed(h))
        assert left == right


def test_group_action_rejects_outside_H():
    # a generic SL(3) element does not preserve V
    h = Matrix.from_rows([(1, 1, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(NotInvariantError):
        group_action_on_V(h)


def test_W_invariant_under_sampled_group_elements():
    w = build_W()
    for i in range(25):
        _, g = sample_h_element(0, i)
        act = induced_group_action(group_action_on_V(sym2_embed(g)))
        for bv in w.basis_vectors():
            assert w.contains(act.apply(bv))


# ------------------------------------------------------------------- W and W'

def test_build_W():
    w = build_W()
    assert w.dim == 3
    from nilcert.wedgerep import induced_algebra_action
    for xi in (CARTAN, RAISING, LOWERING):
        act = induced_algebra_action(algebra_action_on_V(xi))
        for bv in w.basis_vectors():
            assert w.contains(act.apply(bv))
    # W's spanning wedges are weight vectors of the induced Cartan action
    # with weights 2, 0, -2
    ind = induced_algebra_action(algebra_action_on_V(CARTAN))
    weights = set()
    for bv in w.basis_vectors():
        img = ind.apply(bv)
        ratio = next(i / b for i, b in zip(img, bv) if b)
        assert img == tuple(ratio * x for x in bv)
        weights.add(ratio)
    assert weights == {Q(2), Q(0), Q(-2)}


def test_build_Wprime():
    w, wp = build_W(), build_Wprime()
    assert wp.dim == 7
    assert w.intersect(wp).dim == 0
    assert w.sum(wp) == Subspace.full(10)
    e = [unit_vector(5, i) for i in range(5)]
    from nilcert.wedgerep import wedge_vector
    assert wp.contains(wedge_vector(e[0], e[1]))


# ------------------------------------------------------------------- algebras

def test_two_step_model():
    G = build_two_step()
    assert nilpotency_class(G) == 2
    assert check_jacobi(G) == []
    assert center(G) == Subspace.span(12, [unit_vector(12, k) for k in range(5, 12)])


def test_three_step_model_default():
    N = build_three_step()
    assert nilpotency_class(N) == 3
    assert check_jacobi(N) == []


def test_three_step_rejects_bad_p():
    with pytest.raises(ValueError, match="nonzero"):
        build_three_step((0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="p12") as err:
        build_three_step((1, 0, 0, 0, 0, 0, 0))
    # [s1, p12] = p12 + p13 satisfies Jacobi; what fails is nilpotency
    assert str(err.value).endswith("(otherwise [s1, p12] would have a p12 "
                                   "component and N would not be nilpotent)")
    with pytest.raises(ValueError, match="7 coordinates"):
        validate_p((1, 2, 3))


@pytest.mark.parametrize("p, message", [
    ("0100001", "p must be a sequence of 7 coordinates, not a string"),
    # a mapping is not read by its keys, nor bytes as small integers
    ({i: 9 for i in range(7)},
     "p must be a sequence of 7 coordinates, not a dict"),
    (b"\x00\x01\x00\x00\x00\x00\x01",
     "p must be a sequence of 7 coordinates, not a bytes"),
    (bytearray(7), "p must be a sequence of 7 coordinates, not a bytearray"),
    (None, "p must be a sequence of 7 coordinates, not a NoneType"),
    (5, "p must be a sequence of 7 coordinates, not a int"),
    (iter(range(7)),
     "p must be a sequence of 7 coordinates, not a range_iterator"),
    ({0, 1}, "p must be a sequence of 7 coordinates, not a set"),
    ([None] * 7, "the p12 coordinate is a NoneType, not text, an integer "
                 "or a rational"),
    ([0, 0, 0, None, 0, 0, 1], "the p15 coordinate is a NoneType"),
    ([False, True, 0, 0, 0, 0, 1], "the p12 coordinate is a bool"),
    ([0, True, 0, 0, 0, 0, 1], "the p13 coordinate is a bool"),
    ([0, 1.0, 0, 0, 0, 0, 1], "the p13 coordinate is a float"),
    ([0, 0, 0, 0, 0, 0, 0.5], "the p45 coordinate is a float"),
])
def test_validate_p_rejects_what_the_json_loader_rejects(p, message):
    # only text, an int (not a bool) or a Fraction is read as a coordinate
    with pytest.raises(ValueError, match="^" + message) as err:
        validate_p(p)
    assert "Fraction" not in str(err.value)


def test_an_alternating_table_that_fails_jacobi_is_refuted():
    # [e0, e1] = e2 and [e0, e2] = e0: the Jacobi sum on (e0, e1, e2) is
    # [e1, [e2, e0]] + [e2, [e0, e1]] = [e1, -e0] + 0 = e2
    L = make_lie_algebra(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    assert non_alternating_pair(L) is None
    with pytest.raises(models.CertificationError,
                       match=r"^toy model failed the Jacobi identity on "
                             r"\[\(0, 1, 2\)\]$"):
        models._certified(L, "toy")


def test_three_step_any_nonzero_p_in_L_works():
    # p15 alone (weight 0) still gives a 3-step Lie algebra
    N = build_three_step((0, 0, 0, 1, 0, 0, 0))
    assert check_jacobi(N) == []
    assert nilpotency_class(N) == 3


def test_models_share_basis_and_differ_at_hook():
    G, N = dense_tensor(build_two_step()), dense_tensor(build_three_step())
    diffs = [(i, j) for i in range(12) for j in range(12)
             if G[i][j] != N[i][j]]
    assert set(diffs) == {(0, 5), (5, 0)}


def test_n_at_other_p_leaves_the_shared_two_step_brackets_alone():
    p1, p2 = (0, 0, 1, 0, 1, 0, 0), (0, Q(1, 2), 0, 0, 0, 0, -2)
    for p in (p1, p2):
        assert dense_tensor(build_three_step(p))[0][5] == vprime_to_algebra(p)
    fresh = models._two_step_brackets()
    assert build_two_step() == make_lie_algebra(12, fresh, ALGEBRA_LABELS)
    hooked = dict(fresh)
    hooked[(0, 5)] = vprime_to_algebra(DEFAULT_P)
    assert build_three_step() == make_lie_algebra(12, hooked, ALGEBRA_LABELS)
    assert (0, 5) not in fresh
    assert not any(dense_tensor(build_two_step())[0][5])


def test_model_data_bundle():
    data = model_data()
    assert data.p == DEFAULT_P
    assert data.W.dim == 3 and data.Wprime.dim == 7
    lprime = Subspace.span(7, [unit_vector(7, k) for k in range(2, 7)])
    assert data.L.dim == 6 and lprime.dim == 5
    assert len(data.W.free_columns()) == 7
    assert data.vprime_actions[0] == Matrix.diagonal((6, 4, 2, 0, -2, -4, -6))
    # the default hook target lies in L but not in L', and L' sits inside L
    assert data.L.contains(data.p)
    assert not lprime.contains(data.p)
    assert data.p[1] != 0
    assert data.L.contains_subspace(lprime)
