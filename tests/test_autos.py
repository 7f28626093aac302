import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert.autos import (
    EIGEN_RELATION_PAIRS,
    IrrationalEigenvalueError,
    SampleStream,
    derivation_algebra,
    derivation_defects,
    eigen_relation_kernel,
    exp_nilpotent,
    factor_on_abelianization,
    fixed_space,
    infinitesimal_line_stabilizer,
    is_automorphism,
    line_fixed_by,
    max_eigenspace_dim,
    sample_action_on_V,
    sample_h_element,
    sample_in_subspace,
    shear_space,
    stabilizer_algebra,
    wedge_square_base,
)
from nilcert.liecore import (
    abelian_lie_algebra,
    ad_matrix,
    bracket,
    check_jacobi,
    derived_subalgebra,
    heisenberg3,
    lower_central_series,
    make_lie_algebra,
)
from nilcert.models import (
    DEFAULT_P,
    SL2Element,
    binary_form_action,
    build_W,
    build_Wprime,
    build_three_step,
    group_action_on_V,
    subspace_in_algebra,
    sym2_embed,
    validate_p,
)
from nilcert.cli import Config, Context
from nilcert.qlinalg import (
    Matrix,
    Subspace,
    char_poly,
    eigenspace,
    is_nilpotent,
    is_unipotent,
    kernel_basis,
    rational_roots,
    unit_vector,
)
from nilcert.wedgerep import (
    NotInvariantError,
    induced_group_action,
    quotient_action,
    wedge_pairs,
    wedge_vector,
)

from dense_reference import dense_tensor, mat_pow, wedge_derivation
from shared import VECTOR_ENTRIES, full_kernel, load_workloads, rationals


@pytest.fixture(scope="module")
def DER_G(G):
    return derivation_algebra(G)


@pytest.fixture(scope="module")
def DER_N(N):
    return derivation_algebra(N)


# --------------------------------------------------------------- derivations

def test_derivation_dims_oracles():
    assert derivation_algebra(abelian_lie_algebra(2)).dim == 4
    assert derivation_algebra(heisenberg3()).dim == 6


def test_derivation_dims_models(DER_G, DER_N):
    assert DER_G.dim == 39
    # the exact Leibniz kernel for N is 33-dimensional: the 30 shears and
    # ad s1, ad s2, plus one Euler-type derivation that a p13-supported hook
    # target always admits (see test_euler_derivation below)
    assert DER_N.dim == 33


def test_basis_derivations_satisfy_leibniz(G, N, DER_G, DER_N):
    for space, L in ((DER_G, G), (DER_N, N)):
        sc = dense_tensor(L)
        for dm in space.basis_matrices()[:6]:
            for i, j in itertools.combinations(range(L.dim), 2):
                lhs = dm.apply(sc[i][j])
                rhs_1 = bracket(L, dm.col(i), L.basis_vector(j))
                rhs_2 = bracket(L, L.basis_vector(i), dm.col(j))
                assert lhs == tuple(a + b for a, b in zip(rhs_1, rhs_2))


def test_ad_matrices_are_derivations(G, N):
    for L in (G, N, heisenberg3()):
        der = derivation_algebra(L)
        for i in range(L.dim):
            assert der.contains(ad_matrix(L, L.basis_vector(i)))


def test_derivations_closed_under_commutator_sampled(DER_G, DER_N):
    rng = random.Random(47)
    for space in (DER_G, DER_N):
        mats = space.basis_matrices()
        for _ in range(40):
            a = mats[rng.randrange(len(mats))]
            b = mats[rng.randrange(len(mats))]
            assert space.contains(a * b - b * a)


def test_euler_derivation(N, DER_N):
    """The hook [s1, p12] = p13 + p45 admits a non-nilpotent derivation:
    identity on V (with s3 -> s3 + p12), twice identity on V' (with
    p13 -> 2 p13 + p).  Its abelianization factor is the identity."""
    D = [[Q(0)] * 12 for _ in range(12)]
    for i in range(5):
        D[i][i] = Q(1)
    for k in range(7):
        D[5 + k][5 + k] = Q(2)
    D[5][2] += 1    # s3 -> s3 + p12
    D[6][6] += 1    # p13 -> 2 p13 + (p13 + p45)
    D[11][6] += 1
    dm = Matrix.from_rows(D)
    assert DER_N.contains(dm)
    assert not is_nilpotent(dm)
    assert not (dm * dm * dm).is_zero()
    assert factor_on_abelianization(N, dm) == Matrix.identity(5)


def test_non_unipotent_automorphism_of_N(N):
    """Exponentiating the Euler derivation at log 2 gives, in closed form,
    an automorphism acting by 2 on V (and s3 also picks up 2 p12), by 4 on
    V' except p13 -> 8 p13 + 4 p45.  Its abelianization factor 2I is not
    unipotent."""
    lam = Q(2)
    T = [[Q(0)] * 12 for _ in range(12)]
    for i in range(5):
        T[i][i] = lam
    for k in range(7):
        T[5 + k][5 + k] = lam * lam
    T[5][2] = lam * lam - lam
    T[6][6] = lam ** 3
    T[11][6] = lam ** 3 - lam ** 2
    tm = Matrix.from_rows(T)
    assert is_automorphism(N, tm)
    assert not is_unipotent(tm)
    assert factor_on_abelianization(N, tm) == Matrix.identity(5).scale(2)


def test_derivation_space_of_N_splits_off_the_euler_line(DATA, N, DER_N):
    shear = shear_space(N, subspace_in_algebra(DATA.L))
    ads = Subspace.span(144, [
        ad_matrix(N, N.basis_vector(0)).flatten(),
        ad_matrix(N, N.basis_vector(1)).flatten()])
    claimed = shear.sum(ads)
    assert shear.dim == 30
    assert ads.dim == 2
    assert claimed.dim == 32
    assert DER_N.space.contains_subspace(claimed)
    assert DER_N.space != claimed  # the Euler line is missing


def hook_variant(G, i, p):
    """G's brackets plus the one bracket [s_i, p12] = p; N is i = 1."""
    sc = dense_tensor(G)
    brackets = {(a, b): sc[a][b]
                for a, b in itertools.combinations(range(12), 2)}
    brackets[(i - 1, 5)] = (0,) * 5 + tuple(p)
    return make_lie_algebra(12, brackets, G.labels)


def test_the_claims_about_n_hold_with_the_hook_at_s2_and_not_at_s1(DATA, G):
    """Which pair carries the hook decides the n.* verdicts.  At each of
    four targets p: [s3, p12], [s4, p12] or [s5, p12] = p breaks Jacobi;
    with [s2, p12] = p, der has dimension 32, equals the derivations with
    image in L plus span(ad s1, ad s2) and has no nonzero factor or cube;
    with the shipped [s1, p12] = p, der has dimension 33 and that equality
    fails."""
    in_L = subspace_in_algebra(DATA.L)
    for text in (None, "0,1/2,0,-2,0,3/2,0", "0,0,1,0,1,0,1",
                 "0,0,1,0,2,0,0"):
        p = DEFAULT_P if text is None else validate_p(text.split(","))
        for i in (3, 4, 5):
            assert check_jacobi(hook_variant(G, i, p)), (text, i)
        N, N2 = hook_variant(G, 1, p), hook_variant(G, 2, p)
        assert N == build_three_step(p)
        assert not check_jacobi(N2)
        assert [s.dim for s in lower_central_series(N2)] == [12, 7, 1, 0]
        for A, dim, splits in ((N, 33, False), (N2, 32, True)):
            der = derivation_algebra(A)
            shear = der.with_image_in(in_L)
            ads = Subspace.span(144, [ad_matrix(A, A.basis_vector(k)).flatten()
                                      for k in (0, 1)])
            assert (der.dim, shear.dim, shear.sum(ads) == der.space) == (
                dim, 30, splits)
        # der is N2's now, solved in the adapted basis
        assert derivation_defects(der) == ([], [])
        if text is None:
            assert der.space == full_kernel(N2)


# -------------------------------------------------------------------- shears

def test_shear_space_zero_target(G):
    assert shear_space(G, Subspace.zero(12)).dim == 0


def test_shear_space_G(G):
    vprime = Subspace.span(12, [unit_vector(12, k) for k in range(5, 12)])
    sh = shear_space(G, vprime)
    assert sh.dim == 35
    # exactly Hom(V, V') extended by zero on V'
    hom = Subspace.span(144, [
        tuple(Q(1) if (a, b) == (r, c) else Q(0)
              for a in range(12) for b in range(12))
        for r in range(5, 12) for c in range(5)])
    assert sh == hom


def test_der_G_decomposition_exact(DATA, G, DER_G):
    lift_rows = []
    from nilcert.wedgerep import induced_algebra_action
    stab = stabilizer_algebra(DATA.W)
    for x in stab.basis_matrices():
        xq = quotient_action(induced_algebra_action(x), DATA.W)
        big = [[Q(0)] * 12 for _ in range(12)]
        for i in range(5):
            for j in range(5):
                big[i][j] = x[i, j]
        for i in range(7):
            for j in range(7):
                big[5 + i][5 + j] = xq[i, j]
        lift_rows.append([v for row in big for v in row])
    lift = Subspace.span(144, lift_rows)
    vprime = Subspace.span(12, [unit_vector(12, k) for k in range(5, 12)])
    sh = shear_space(G, vprime)
    assert lift.dim == 4
    assert lift.intersect(sh).dim == 0
    assert lift.sum(sh) == DER_G.space


# ---------------------------------------------------------------- stabilizer

def test_stabilizer_full_wedge_space():
    assert stabilizer_algebra(Subspace.full(10)).dim == 25


def test_stabilizer_of_the_zero_subspace_is_everything():
    # w has no basis vector, so the system has no row
    assert stabilizer_algebra(Subspace.zero(10)).dim == 25


def test_wedge_square_base_is_an_exact_solve():
    assert wedge_square_base(780) == 40  # beyond the old n < 40 search
    assert [wedge_square_base(k * (k - 1) // 2) for k in range(2, 200)] \
        == list(range(2, 200))
    for amb in (0, 2, 11, 779, 781):
        with pytest.raises(ValueError, match="not of the form"):
            wedge_square_base(amb)


def test_stabilizer_W_is_the_four_dimensional_span(DATA):
    stab = stabilizer_algebra(DATA.W)
    expected = Subspace.span(25, [
        Matrix.identity(5).flatten(),
        *(m.flatten() for m in DATA.actions_on_V)])
    assert stab.dim == 4
    assert stab == expected


def test_stabilizer_Wprime_coincides():
    stab_w = stabilizer_algebra(build_W())
    stab_wp = stabilizer_algebra(build_Wprime())
    assert stab_wp.dim == 4
    assert stab_w.contains_subspace(stab_wp)


def test_stabilizer_closed_under_commutator_and_has_identity(DATA):
    stab = stabilizer_algebra(DATA.W)
    assert stab.contains(Matrix.identity(5).flatten())
    mats = stab.basis_matrices()
    for a in mats:
        for b in mats:
            assert stab.contains((a * b - b * a).flatten())


# ------------------------------------------------------------ abelianization

def test_factor_on_abelianization_zero_for_images_in_derived(G):
    dm = Matrix.zero(12, 12)
    assert factor_on_abelianization(G, dm).is_zero()


def test_factor_euler_derivation_of_G(G, DER_G):
    # identity on V, twice identity on V' is a derivation of the 2-step model
    euler = Matrix.diagonal([1] * 5 + [2] * 7)
    assert DER_G.contains(euler)
    assert factor_on_abelianization(G, euler) == Matrix.identity(5)


def test_factor_requires_preserved_derived_subalgebra(G):
    rows = [[Q(0)] * 12 for _ in range(12)]
    rows[0][5] = Q(1)  # sends p12 to s1
    with pytest.raises(ValueError, match="preserved"):
        factor_on_abelianization(G, Matrix.from_rows(rows))


def test_factor_witness_is_a_moved_vector_of_the_derived_subalgebra(G):
    rows = [[Q(0)] * 12 for _ in range(12)]
    rows[0][5] = Q(1)  # sends p12 to s1
    bad = Matrix.from_rows(rows)
    with pytest.raises(NotInvariantError) as info:
        factor_on_abelianization(G, bad)
    derived = derived_subalgebra(G)
    assert derived.contains(info.value.witness)
    assert not derived.contains(bad.apply(info.value.witness))


# -------------------------------------------------------------- automorphisms

def test_is_automorphism_basics(G):
    assert is_automorphism(G, Matrix.identity(12))
    z3 = Matrix.diagonal([3] * 5 + [9] * 7)
    assert is_automorphism(G, z3)
    assert not is_automorphism(G, Matrix.identity(12).scale(2))


def test_exp_nilpotent_basics():
    assert exp_nilpotent(Matrix.zero(3, 3)) == Matrix.identity(3)
    nu = Matrix.from_rows([(0, 1, 0), (0, 0, 1), (0, 0, 0)])
    expected = Matrix.from_rows([(1, 1, Q(1, 2)), (0, 1, 1), (0, 0, 1)])
    assert exp_nilpotent(nu) == expected
    with pytest.raises(ValueError, match="not nilpotent"):
        exp_nilpotent(Matrix.identity(2))


def test_exp_nilpotent_rejects_nonzero_and_zero_trace_alike():
    for m in (Matrix.diagonal((1, 0, 0)),             # trace 1
              Matrix.from_rows([(0, 1), (1, 0)]),     # trace 0, m^2 = I
              Matrix.from_rows([(1, 0), (0, -1)])):   # trace 0, diagonal
        with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
            exp_nilpotent(m)


NILPOTENT_ENTRIES = rationals(-4, 4, 3)
ANY_ENTRIES = st.one_of(st.just(Q(0)), st.just(Q(0)), rationals(-4, 4, 5))


@st.composite
def nilpotent_matrices(draw, max_n=6):
    """L U L^-1 for a strictly upper triangular U and a unit lower
    triangular L: nilpotent, but in general with no zero pattern."""
    n = draw(st.integers(1, max_n))
    u = Matrix(n, n, (draw(NILPOTENT_ENTRIES) if j > i else Q(0)
                      for i in range(n) for j in range(n)))
    e = Matrix(n, n, (draw(NILPOTENT_ENTRIES) if j < i else Q(0)
                      for i in range(n) for j in range(n)))
    ident = Matrix.identity(n)
    l_inv = ident
    for k in range(1, n):
        l_inv = l_inv + mat_pow(-e, k)
    return (ident + e) * u * l_inv


def fraction_exp_nilpotent(m):
    """The Fraction series exp_nilpotent ran before it moved to integers,
    kept as the reference."""
    if not m.is_square:
        raise ValueError("exponential of a non-square matrix")
    if m.trace() != 0:
        raise ValueError("matrix is not nilpotent")
    n = m.rows
    term = Matrix.identity(n)
    total = term
    for k in range(1, n + 1):
        term = (term * m).scale(Q(1, k))
        if term.is_zero():
            return total
        total = total + term
    raise ValueError("matrix is not nilpotent")


@st.composite
def any_matrices(draw, max_n=5):
    """Random square matrices, half of them forced to trace 0, so that
    both ValueError paths are reached; plus a few non-square ones."""
    if draw(st.integers(0, 9)) == 0:
        return Matrix.zero(draw(st.integers(1, 3)), draw(st.integers(4, 5)))
    n = draw(st.integers(1, max_n))
    rows = [[draw(ANY_ENTRIES) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[n - 1][n - 1] -= sum((rows[i][i] for i in range(n)), Q(0))
    return Matrix.from_rows(rows)


def _exp_outcome(fn, m):
    try:
        return fn(m)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(st.one_of(nilpotent_matrices(max_n=7), any_matrices()))
def test_exp_nilpotent_matches_the_fraction_series(m):
    out = _exp_outcome(exp_nilpotent, m)
    assert out == _exp_outcome(fraction_exp_nilpotent, m)
    if isinstance(out, Matrix):
        assert (out.rows, out.cols) == (m.rows, m.cols)
        assert all(type(x) is Q for x in out.entries)


def test_exp_nilpotent_matches_the_fraction_series_on_der_N_samples(DER_N):
    for i in range(20):
        m = Matrix.from_flat(12, sample_in_subspace(DER_N.space, 0, 10_000 + i))
        assert _exp_outcome(exp_nilpotent, m) == _exp_outcome(
            fraction_exp_nilpotent, m)


@settings(max_examples=40, deadline=None)
@given(nilpotent_matrices())
def test_exp_nilpotent_is_the_truncated_series(m):
    n = m.rows
    assert mat_pow(m, n).is_zero()
    series = Matrix.zero(n, n)
    for k in range(n):
        series = series + mat_pow(m, k).scale(Q(1, math.factorial(k)))
    assert exp_nilpotent(m) == series


def test_exp_of_nilpotent_derivations_are_unipotent_automorphisms(DATA, N):
    # the shear + inner part of der(N) consists of cube-zero derivations;
    # exponentials and their products are unipotent automorphisms
    shear = shear_space(N, subspace_in_algebra(DATA.L))
    nilpart = shear.sum(Subspace.span(144, [
        ad_matrix(N, N.basis_vector(0)).flatten(),
        ad_matrix(N, N.basis_vector(1)).flatten()]))
    for i in range(25):
        a = Matrix.from_flat(12, sample_in_subspace(nilpart, 3, 2 * i))
        b = Matrix.from_flat(12, sample_in_subspace(nilpart, 3, 2 * i + 1))
        assert mat_pow(a, 3).is_zero() and mat_pow(b, 3).is_zero()
        t = exp_nilpotent(a) * exp_nilpotent(b)
        assert is_automorphism(N, t)
        assert is_unipotent(t)
        factor = factor_on_abelianization(N, t)
        assert is_unipotent(factor)


# ------------------------------------------------------------ eigen relations

def test_eigen_relation_kernel_zero():
    assert eigen_relation_kernel().dim == 0


def test_single_relation_kernel():
    row = Matrix.from_rows([(1, 0, 0, 1, 0)])
    assert kernel_basis(row).dim == 4


def test_relation_pairs_are_w_support():
    pairs = wedge_pairs(5)
    support = set()
    for bv in build_W().basis_vectors():
        for idx, val in enumerate(bv):
            if val:
                i, j = pairs[idx]
                support.add((i + 1, j + 1))
    assert support == set(EIGEN_RELATION_PAIRS)


# ----------------------------------------------------------------- eigenlines

def test_fixed_spaces(DATA):
    hyper = group_action_on_V(sym2_embed(SL2Element.hyperbolic(2)))
    assert fixed_space(hyper) == Subspace.span(5, [unit_vector(5, 2)])
    uni = exp_nilpotent(DATA.actions_on_V[1])
    assert fixed_space(uni) == Subspace.span(5, [unit_vector(5, 0)])
    ell = group_action_on_V(sym2_embed(SL2Element.elliptic(1, 2)))
    assert fixed_space(ell).dim >= 1


def test_sampled_det_one_elements_have_fixed_vectors():
    for i in range(25):
        _, g5 = sample_action_on_V(0, i)
        assert fixed_space(g5).dim >= 1


def test_line_fixed_by(DATA):
    p = (Q(0), Q(1), Q(0), Q(0), Q(0), Q(0), Q(1))
    assert line_fixed_by(p, Matrix.identity(7))
    # the highest class p12 is fixed by the unipotent upper action on V'
    u7 = exp_nilpotent(DATA.vprime_actions[1])
    assert line_fixed_by(unit_vector(7, 0), u7)
    assert not line_fixed_by(p, u7)
    with pytest.raises(ValueError):
        line_fixed_by((0,) * 7, Matrix.identity(7))


def test_infinitesimal_line_stabilizers(DATA):
    gens = DATA.vprime_actions
    assert infinitesimal_line_stabilizer(unit_vector(7, 0), gens).dim == 2
    assert infinitesimal_line_stabilizer(DATA.p, gens).dim == 0
    stab_p15 = infinitesimal_line_stabilizer(unit_vector(7, 3), gens)
    assert stab_p15.dim >= 1
    assert stab_p15.contains((1, 0, 0))  # the Cartan element kills weight zero


def test_sampled_elements_move_the_default_line(DATA):
    for i in range(30):
        _, g5 = sample_action_on_V(0, i)
        if g5 == Matrix.identity(5):
            continue
        g7 = quotient_action(induced_group_action(g5), DATA.W)
        assert not line_fixed_by(DATA.p, g7)


# --------------------------------------------------------- eigenspace bounds

def test_max_eigenspace_dim_basics():
    assert max_eigenspace_dim(Matrix.diagonal((2, 2, 3))) == 2
    assert max_eigenspace_dim(Matrix.zero(3, 3)) == 3


def test_max_eigenspace_dim_on_Vprime_samples(DATA):
    hyper = group_action_on_V(sym2_embed(SL2Element.hyperbolic(2)))
    h7 = quotient_action(induced_group_action(hyper), DATA.W)
    assert max_eigenspace_dim(h7) == 1  # seven distinct rational eigenvalues
    u7 = exp_nilpotent(DATA.vprime_actions[1])
    assert max_eigenspace_dim(u7) == 1  # a single Jordan block
    ell = group_action_on_V(sym2_embed(SL2Element.elliptic(1, 2)))
    e7 = quotient_action(induced_group_action(ell), DATA.W)
    assert max_eigenspace_dim(e7) == 1


def largest_eigenspace(m):
    """max dim ker(m - c I) over the rational roots c, each by its kernel."""
    return max((eigenspace(m, c).dim for c in rational_roots(char_poly(m))),
               default=0)


def test_max_eigenspace_dim_is_the_largest_eigenspace_on_triangular_matrices():
    # repeated diagonal entries with random superdiagonals: some roots are
    # simple, and some repeated ones have a smaller eigenspace
    rng = random.Random(30)
    defective = simple = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        diag = [rng.randint(-2, 2) for _ in range(n)]
        m = Matrix.from_rows([[diag[i] if i == j else rng.randint(-2, 2)
                               if j > i else 0 for j in range(n)]
                              for i in range(n)])
        assert max_eigenspace_dim(m) == largest_eigenspace(m)
        roots = rational_roots(char_poly(m))
        simple += 1 in roots.values()
        defective += any(eigenspace(m, c).dim < k for c, k in roots.items())
    assert simple > 50 and defective > 50


def test_max_eigenspace_dim_is_the_largest_eigenspace_on_verify_samples():
    for seed in load_workloads().verify_pool():
        ctx = Context(Config(seed=seed))
        for i in range(9):
            m = binary_form_action(ctx.element(i)[1], 6)
            assert max_eigenspace_dim(m) == largest_eigenspace(m)


def test_max_eigenspace_dim_rejects_irrational_spectrum():
    m = Matrix.from_rows([(0, 2), (1, 0)])  # eigenvalues +-sqrt(2)
    with pytest.raises(IrrationalEigenvalueError):
        max_eigenspace_dim(m)


# ------------------------------------------------------------------- sampling

def test_sampling_is_counter_based_deterministic():
    for i in range(10):
        k1, g1 = sample_h_element(7, i)
        k2, g2 = sample_h_element(7, i)
        assert k1 == k2 and g1 == g2
    # different indices are computable independently, in any order
    kinds = [sample_h_element(7, i)[0] for i in (5, 3, 4)]
    assert kinds == [sample_h_element(7, i)[0] for i in (5, 3, 4)]


def test_sample_kinds_and_nontriviality():
    for i in range(40):
        kind, g = sample_h_element(1, i)
        assert kind in ("hyperbolic", "unipotent", "elliptic")
        act = group_action_on_V(sym2_embed(g))
        assert act != Matrix.identity(5)


def test_sample_stream_ranges():
    s = SampleStream(0, 0)
    for _ in range(100):
        v = s.int_in(-3, 3)
        assert -3 <= v <= 3
    for _ in range(50):
        f = s.fraction(3)
        assert f != 0
        assert abs(f.numerator) <= 3 and 1 <= f.denominator <= 3


def composed_sample_h_element(seed, index):
    """sample_h_element as it was composed from SL2Element products before
    the conjugation moved to integers, kept as the reference."""
    if index == 0:
        return "hyperbolic", SL2Element.hyperbolic(2)
    if index == 1:
        return "unipotent", SL2Element.upper(1)
    if index == 2:
        return "elliptic", SL2Element.elliptic(1, 2)
    stream = SampleStream(seed, index)
    kind = ("hyperbolic", "unipotent", "elliptic")[index % 3]
    if kind == "hyperbolic":
        t = Q(stream.int_in(2, 5), stream.int_in(1, 3))
        while t == 1:
            t = Q(stream.int_in(2, 5), stream.int_in(1, 3))
        prim = SL2Element.hyperbolic(t)
    elif kind == "unipotent":
        s = stream.fraction(4)
        prim = SL2Element.upper(s) if stream.int_in(0, 1) else SL2Element.lower(s)
    else:
        num = stream.int_in(1, 4)
        den = stream.int_in(num + 1, num + 4)
        prim = SL2Element.elliptic(num, den)
    u, l = stream.nonzero_int(3), stream.nonzero_int(3)
    conj = SL2Element.upper(u) * SL2Element.lower(l)
    conj_inverse = SL2Element.lower(-l) * SL2Element.upper(-u)
    return kind, conj * prim * conj_inverse


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_sample_h_element_equals_the_composed_products(seed):
    for i in range(1000):
        kind, g = sample_h_element(seed, i)
        ref_kind, ref = composed_sample_h_element(seed, i)
        assert kind == ref_kind
        assert (g.a, g.b, g.c, g.d) == (ref.a, ref.b, ref.c, ref.d)
        assert all(type(x) is Q for x in (g.a, g.b, g.c, g.d))


def test_sample_in_subspace_stays_inside(DER_N):
    space = DER_N.space
    for i in range(10):
        v = sample_in_subspace(space, 0, i)
        assert space.contains(v)
        assert any(x != 0 for x in v)


def _dense_sample_in_subspace(space, seed, index, bound=2):
    """Reference: one draw per basis vector, in basis order, and the first
    basis vector when the sum is zero (every draw zero, the basis being
    independent)."""
    stream = SampleStream(seed, index)
    out = [Q(0)] * space.ambient_dim
    for row in space.basis_vectors():
        c = Q(stream.int_in(-bound, bound))
        out = [o + c * x for o, x in zip(out, row)]
    if space.dim and not any(out):
        out = list(space.basis.row(0))
    return tuple(out)


def test_sample_in_subspace_matches_the_dense_reference(DER_N):
    line = Subspace.span(3, [(1, Q(1, 2), 0)])
    for space, bound in ((DER_N.space, 2), (line, 1), (Subspace.zero(4), 2)):
        for i in range(30):
            assert (sample_in_subspace(space, 3, i, bound)
                    == _dense_sample_in_subspace(space, 3, i, bound))


def dense_stabilizer(w):
    """The stabilizer system written out densely: one column per matrix
    unit E_rc, its derivation action on w's basis (from the definition, not
    from the integer table that ``stabilizer_algebra`` reads), modulo w."""
    n = wedge_square_base(w.ambient_dim)
    reps = w.free_columns()
    images = []
    for r in range(n):
        for c in range(n):
            ind = wedge_derivation(Matrix(n, n, (
                Q(int((a, b) == (r, c))) for a in range(n) for b in range(n))))
            reduced = [w.reduce(ind.apply(bv)) for bv in w.basis_vectors()]
            images.append([v[t] for v in reduced for t in reps])
    return kernel_basis(Matrix.from_columns(images))


@st.composite
def wedge_subspaces(draw):
    n = draw(st.integers(2, 5))
    amb = n * (n - 1) // 2
    vectors = draw(st.lists(st.lists(VECTOR_ENTRIES, min_size=amb,
                                     max_size=amb), max_size=4))
    return Subspace.span(amb, vectors)


@settings(max_examples=60, deadline=None)
@given(wedge_subspaces())
def test_stabilizer_rows_match_the_dense_system(w):
    assert stabilizer_algebra(w) == dense_stabilizer(w)


def test_stabilizer_rows_match_the_dense_system_on_W_and_Wprime():
    for w in (build_W(), build_Wprime()):
        assert stabilizer_algebra(w) == dense_stabilizer(w)


LINE_ENTRIES = st.one_of(st.just(Q(0)), rationals(-4, 4, 5))


@st.composite
def lines_and_matrices(draw):
    n = draw(st.integers(1, 7))
    p = draw(st.lists(LINE_ENTRIES, min_size=n, max_size=n).filter(any))
    lam = draw(LINE_ENTRIES)
    entries = draw(st.lists(LINE_ENTRIES, min_size=n * n, max_size=n * n))
    g = Matrix(n, n, entries)
    if draw(st.booleans()):
        # force g p = lam p by fixing the column of p's first nonzero entry
        k = next(i for i, x in enumerate(p) if x)
        rest = [sum((g[i, j] * p[j] for j in range(n) if j != k), Q(0))
                for i in range(n)]
        g = Matrix(n, n, ((lam * p[i] - rest[i]) / p[k] if j == k
                          else g[i, j] for i in range(n) for j in range(n)))
    return p, g


@settings(max_examples=100, deadline=None)
@given(lines_and_matrices())
def test_line_fixed_by_is_the_wedge_test(pg):
    p, g = pg
    expected = all(x == 0 for x in wedge_vector(g.apply(p), p))
    assert line_fixed_by(p, g) == expected


def test_line_fixed_by_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        line_fixed_by(unit_vector(3, 0), Matrix.identity(4))
    with pytest.raises(ValueError):
        line_fixed_by(unit_vector(3, 0), Matrix.zero(2, 3))
