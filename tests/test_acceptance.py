"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Criteria 8 and 9 assert the claimed derivation structure of
the 3-step model N; exact computation refutes those claims (the Leibniz
kernel is 33-dimensional and contains a non-nilpotent Euler-type derivation
whenever the hook target has a nonzero p13 coordinate), so those two tests
fail by design rather than being weakened.  Everything they claim is broken
down and verified, with the true values, in tests/test_autos.py.
"""

from fractions import Fraction as Q

from nilcert.autos import (
    derivation_algebra,
    eigen_relation_kernel,
    exp_nilpotent,
    factor_on_abelianization,
    fixed_space,
    infinitesimal_line_stabilizer,
    line_fixed_by,
    max_eigenspace_dim,
    sample_action_on_V,
    sample_in_subspace,
    shear_space,
    stabilizer_algebra,
)
from nilcert.cli import Config, run
from nilcert.liecore import (
    abelian_lie_algebra,
    ad_matrix,
    bracket,
    check_jacobi,
    heisenberg3,
    lower_central_series,
    nilpotency_class,
)
from nilcert.models import (
    SL2Element,
    group_action_on_V,
    subspace_in_algebra,
    sym2_embed,
)
from nilcert.qlinalg import (
    Matrix,
    Polynomial,
    Subspace,
    char_poly,
    det,
    is_unipotent,
    kernel_basis,
    unit_vector,
)
from nilcert.wedgerep import (
    commutant,
    induced_algebra_action,
    induced_group_action,
    quotient_action,
)


def test_c01_jacobi(G, N):
    assert check_jacobi(G) == []
    assert check_jacobi(N) == []


def test_c02_central_series(G, N):
    assert [s.dim for s in lower_central_series(G)] == [12, 7, 0]
    assert [s.dim for s in lower_central_series(N)] == [12, 7, 1, 0]
    assert nilpotency_class(G) == 2
    assert nilpotency_class(N) == 3


def test_c03_weights(DATA):
    spectrum = (4, 2, 0, -2, -4)
    expected = Polynomial([1])
    for w in spectrum:
        expected = expected * Polynomial([-w, 1])
    assert char_poly(DATA.actions_on_V[0]) == expected
    for i, w in enumerate(spectrum):
        eig = kernel_basis(DATA.actions_on_V[0] - Matrix.identity(5).scale(w))
        assert eig == Subspace.span(5, [unit_vector(5, i)])
    quot = quotient_action(induced_algebra_action(DATA.actions_on_V[0]), DATA.W)
    assert quot == Matrix.diagonal((6, 4, 2, 0, -2, -4, -6))


def test_c04_identifications(G):
    e = [G.basis_vector(i) for i in range(5)]
    assert bracket(G, e[0], e[3]) == bracket(G, e[1], e[2])
    assert bracket(G, e[0], e[4]) == bracket(G, e[1], e[3])
    assert bracket(G, e[1], e[4]) == bracket(G, e[2], e[3])


def test_c05_invariance_and_irreducibility(DATA):
    assert DATA.W.dim == 3
    for m in DATA.actions_on_V:
        act = induced_algebra_action(m)
        for bv in DATA.W.basis_vectors():
            assert DATA.W.contains(act.apply(bv))
    assert commutant(DATA.actions_on_V).dim == 1
    from nilcert.models import induced_sl2_on_wedge
    assert commutant(induced_sl2_on_wedge()).dim == 2
    assert DATA.Wprime.dim == 7
    assert DATA.W.intersect(DATA.Wprime).dim == 0
    assert DATA.W.sum(DATA.Wprime) == Subspace.full(10)


def test_c06_stabilizer_certificate(DATA):
    stab = stabilizer_algebra(DATA.W)
    expected_span = Subspace.span(25, [
        m.flatten() for m in (Matrix.identity(5), *DATA.actions_on_V)])
    assert stab.dim == 4
    assert stab == expected_span
    assert stab.dim < 5  # no open orbit for an algebraic action on V
    stab_wp = stabilizer_algebra(DATA.Wprime)
    assert stab_wp.dim == 4
    assert stab.contains_subspace(stab_wp)


def test_c07_eigenvalue_relations():
    assert eigen_relation_kernel().dim == 0


def test_c08_derivation_decompositions(DATA, G, N):
    der_g = derivation_algebra(G)
    assert der_g.dim == 39
    stab = stabilizer_algebra(DATA.W)
    lift_rows = []
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
    hom = Subspace.span(144, [
        tuple(Q(1) if (a, b) == (r, c) else Q(0)
              for a in range(12) for b in range(12))
        for r in range(5, 12) for c in range(5)])
    assert lift.sum(hom) == der_g.space
    assert lift.intersect(hom).dim == 0

    der_n = derivation_algebra(N)
    shear = shear_space(N, subspace_in_algebra(DATA.L))
    ads = Subspace.span(144, [
        ad_matrix(N, N.basis_vector(0)).flatten(),
        ad_matrix(N, N.basis_vector(1)).flatten()])
    assert der_n.dim == 32, (
        f"exact Leibniz kernel has dimension {der_n.dim}: the claimed "
        "shear + inner decomposition misses an Euler-type derivation "
        "(present whenever p has a nonzero p13 coordinate)")
    assert shear.sum(ads) == der_n.space


def test_c09_unipotence_certificate(N):
    der_n = derivation_algebra(N)
    for idx, dm in enumerate(der_n.basis_matrices()):
        factor = factor_on_abelianization(N, dm)
        assert factor.is_zero(), (
            f"basis derivation {idx} acts as {factor!r} on the "
            "abelianization; N admits derivations with nonzero factor")
        assert (dm * dm * dm).is_zero(), (
            f"basis derivation {idx} does not cube to zero")
    for i in range(50):
        v = sample_in_subspace(der_n.space, 0, 10_000 + i)
        t = exp_nilpotent(Matrix.from_flat(12, v))
        assert is_unipotent(t)


def test_c10_genericity_of_default_p(DATA):
    assert infinitesimal_line_stabilizer(DATA.p, DATA.vprime_actions).dim == 0
    for i in range(100):
        _, g5 = sample_action_on_V(0, i)
        if g5 == Matrix.identity(5):
            continue
        g7 = quotient_action(induced_group_action(g5), DATA.W)
        assert not line_fixed_by(DATA.p, g7)
    # the sampling certificate is incomplete by nature; the tool records it
    # as a warning, never as a pass
    report = run(["p.sampled-nonfixing"], Config())
    assert report.results[0].status == "warn"


def test_c11_eigenspace_bounds(DATA):
    kinds_seen = set()
    for i in range(9):
        kind, g5 = sample_action_on_V(0, i)
        kinds_seen.add(kind)
        g7 = quotient_action(induced_group_action(g5), DATA.W)
        assert max_eigenspace_dim(g7) <= 3  # floor(7/2)
    assert kinds_seen == {"hyperbolic", "unipotent", "elliptic"}


def test_c12_fixed_point_certificate(DATA):
    for i in range(25):
        _, g5 = sample_action_on_V(0, i)
        assert det(g5) == 1
        assert fixed_space(g5).dim >= 1
    hyper = group_action_on_V(sym2_embed(SL2Element.hyperbolic(2)))
    assert fixed_space(hyper) == Subspace.span(5, [unit_vector(5, 2)])
    uni = exp_nilpotent(DATA.actions_on_V[1])
    assert fixed_space(uni) == Subspace.span(5, [unit_vector(5, 0)])


def test_c13_oracle_cross_checks():
    assert derivation_algebra(heisenberg3()).dim == 6
    for n in (1, 2, 3, 4):
        assert derivation_algebra(abelian_lie_algebra(n)).dim == n * n


def test_c14_determinism():
    cfg = Config()
    first = run(None, cfg).to_json()
    second = run(None, cfg).to_json()
    assert first == second
