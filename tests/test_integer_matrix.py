"""Matrix keeps an integer form (numerators over one positive common
denominator): its arithmetic, equality, hashing and the kernels that read
that form, against dense Fraction references (here and in
dense_reference.py); the sampled checks
that run on it without building Fraction entries; the integer line
stabilizer and eigenvalue-relation systems; and the per-algebra memos of the
lower central series and the Jacobi scan."""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert import liecore
from nilcert.autos import (
    EIGEN_RELATION_PAIRS,
    eigen_relation_kernel,
    infinitesimal_line_stabilizer,
    sample_derivation,
    sample_in_subspace,
)
from nilcert.cli import _REGISTRY, Config, Context, run
from nilcert.liecore import check_jacobi, lower_central_series
from nilcert.models import (
    DEFAULT_P,
    SL2Element,
    binary_form_action,
    build_three_step,
    model_data,
    validate_p,
)
from nilcert.qlinalg import (
    Matrix,
    Polynomial,
    Subspace,
    _primitive_coeffs,
    _sturm_chain,
    char_poly,
    count_real_roots,
    det,
    eigenspace,
    kernel_basis,
    strip_rational_roots,
)
from nilcert.wedgerep import wedge_vector

from dense_reference import poly_divmod, ref_nullspace

# ------------------------------------------------------------ the reference


def ref_mul(a, b, n, m, p):
    return [sum((a[i * m + k] * b[k * p + j] for k in range(m)), Q(0))
            for i in range(n) for j in range(p)]


def ref_det(a, n):
    rows = [list(a[i * n:(i + 1) * n]) for i in range(n)]
    out = Q(1)
    for c in range(n):
        hit = next((i for i in range(c, n) if rows[i][c]), None)
        if hit is None:
            return Q(0)
        if hit != c:
            rows[c], rows[hit] = rows[hit], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out


def ref_char_poly(a, n):
    """Coefficients of det(xI - A), lowest degree first, by the
    Faddeev-LeVerrier recurrence in Fractions."""
    coeffs = [Q(0)] * n + [Q(1)]
    mk = [Q(int(i == j)) for i in range(n) for j in range(n)]
    for k in range(1, n + 1):
        amk = ref_mul(a, mk, n, n, n)
        c = -sum((amk[i * n + i] for i in range(n)), Q(0)) / k
        coeffs[n - k] = c
        mk = [x + (c if i % (n + 1) == 0 else 0) for i, x in enumerate(amk)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


# ----------------------------------------------------------- the strategies

#: denominators up to past 2^64, so the integer form holds big numerators
DENOMS = st.one_of(st.integers(1, 12), st.integers(2 ** 64, 2 ** 70))
ENTRIES = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(-30, 30), DENOMS),
    st.builds(Q, st.integers(-2 ** 70, 2 ** 70), DENOMS))


@st.composite
def shaped(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    return rows, cols, draw(st.lists(ENTRIES, min_size=rows * cols,
                                     max_size=rows * cols))


def both_forms(rows, cols, entries, k):
    """The same matrix from Fraction entries and from integers over a
    non-canonical denominator (k times the least one, k may be negative)."""
    d = math.lcm(*(x.denominator for x in entries)) * k
    ints = Matrix.from_ints(rows, cols, [int(x * d) for x in entries], d)
    return Matrix(rows, cols, entries), ints


SCALES = st.integers(-6, 6).filter(bool)


@settings(max_examples=150, deadline=None)
@given(shaped(), SCALES)
@example((0, 3, []), 1)
@example((2, 2, [Q(0)] * 4), -3)
def test_both_forms_are_one_canonical_matrix(case, k):
    rows, cols, entries = case
    a, b = both_forms(rows, cols, entries, k)
    assert a == b and hash(a) == hash(b)
    assert a.entries == b.entries == tuple(entries)
    assert all(type(x) is Q for x in b.entries)
    assert b.den > 0 and math.gcd(b.den, *b.nums) == 1
    assert (a.den, a.nums) == (b.den, b.nums)
    assert [b.nums[i] for i in range(rows * cols)] == [
        int(x * b.den) for x in entries]


@settings(max_examples=150, deadline=None)
@given(st.data(), SCALES)
def test_arithmetic_matches_the_fraction_reference(data, k):
    rows, cols, ea = data.draw(shaped())
    _, _, eb = data.draw(shaped(rows, cols))
    p = data.draw(st.integers(0, 4))
    _, _, ec = data.draw(shaped(cols, p))
    c = data.draw(ENTRIES)
    v = data.draw(st.lists(ENTRIES, min_size=cols, max_size=cols))
    for a, b in zip(both_forms(rows, cols, ea, k), both_forms(rows, cols, eb, 1)):
        assert (a + b).entries == tuple(x + y for x, y in zip(ea, eb))
        assert (a - b).entries == tuple(x - y for x, y in zip(ea, eb))
        assert (-a).entries == tuple(-x for x in ea)
        assert a.scale(c).entries == tuple(c * x for x in ea)
        assert a.transpose().entries == tuple(
            ea[i * cols + j] for j in range(cols) for i in range(rows))
        assert a.transpose().transpose() == a
        assert (a * Matrix(cols, p, ec)).entries == tuple(
            ref_mul(ea, ec, rows, cols, p))
        assert a.apply(v) == tuple(
            sum((ea[i * cols + j] * v[j] for j in range(cols)), Q(0))
            for i in range(rows))
        assert (a == b) == (ea == eb)
        assert a.is_zero() == (not any(ea))
        if rows == cols:
            assert a.trace() == sum((ea[i * cols + i] for i in range(rows)),
                                    Q(0))
            assert a - a == Matrix.zero(rows, cols)
            assert a * Matrix.identity(cols) == a


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: shaped(n, n)), SCALES)
@example((3, 3, [Q(1, 2 ** 65), Q(0), Q(3)] * 3), -1)
def test_det_and_char_poly_match_the_fraction_reference(case, k):
    n, _, entries = case
    for m in both_forms(n, n, entries, k):
        assert det(m) == ref_det(entries, n)
        assert char_poly(m).coeffs == ref_char_poly(entries, n)


@settings(max_examples=150, deadline=None)
@given(shaped(), SCALES)
@example((2, 3, [Q(1, 2 ** 66), Q(2, 2 ** 66), Q(0), Q(-1), Q(-2), Q(0)]), 5)
def test_kernel_basis_matches_the_fraction_reference(case, k):
    rows, cols, entries = case
    ref = ref_nullspace([entries[i * cols:(i + 1) * cols]
                         for i in range(rows)], cols)
    for m in both_forms(rows, cols, entries, k):
        ker = kernel_basis(m)
        assert ker == Subspace.span(cols, ref)
        for v in ker.basis_vectors():
            assert not any(m.apply(v))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: shaped(n, n)), ENTRIES)
def test_eigenspace_is_the_kernel_of_the_shifted_matrix(case, lam):
    n, _, entries = case
    shifted = [x - (lam if i % (n + 1) == 0 else 0)
               for i, x in enumerate(entries)]
    ref = ref_nullspace([shifted[i * n:(i + 1) * n] for i in range(n)], n)
    assert eigenspace(Matrix(n, n, entries), lam) == Subspace.span(n, ref)


def test_from_ints_rejects_a_zero_denominator_and_a_wrong_length():
    with pytest.raises(ZeroDivisionError):
        Matrix.from_ints(1, 1, [1], 0)
    with pytest.raises(ValueError):
        Matrix.from_ints(2, 2, [1, 2, 3])


# ---------------------------------------------------- integer Sturm chains


def fraction_sturm_chain(p):
    """Reference: the Sturm chain of p's square-free part in Fraction
    polynomials (monic gcd, exact remainders), each entry made primitive."""
    def deriv(q):
        return Polynomial([i * c for i, c in enumerate(q.coeffs)][1:])

    a, b = p, deriv(p)
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    sqfree, rem = poly_divmod(
        p, Polynomial([c / a.coeffs[-1] for c in a.coeffs]))
    assert rem.is_zero
    chain = [sqfree, deriv(sqfree)]
    while True:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if r.is_zero:
            return [_primitive_coeffs(q.coeffs) for q in chain]
        chain.append(Polynomial([-c for c in r.coeffs]))


@st.composite
def polynomials(draw):
    """Products of small rational factors of degree 1 and 2, some repeated,
    scaled by a rational of either sign."""
    p = Polynomial([draw(st.fractions(-20, 20, max_denominator=9).filter(bool))])
    for _ in range(draw(st.integers(1, 5))):
        factor = Polynomial(draw(st.lists(st.integers(-6, 6), min_size=2,
                                          max_size=3)))
        if factor.degree >= 1:
            for _ in range(draw(st.integers(1, 3))):
                p = p * factor
    return p


@settings(max_examples=120, deadline=None)
@given(polynomials())
@example(Polynomial([-2, 0, 1]) * Polynomial([-2, 0, 1]) * Polynomial([1, -3]))
def test_integer_sturm_chain_is_the_fraction_chain(p):
    if p.degree < 1:
        return
    assert _sturm_chain(_primitive_coeffs(p.coeffs)) == fraction_sturm_chain(p)
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)], x)
    assert count_real_roots(p) == len(set(sympy.real_roots(sp)))


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_cofactor_is_p_over_its_rational_linear_factors(p):
    roots, cofactor = strip_rational_roots(p)
    product = cofactor
    for root, mult in roots.items():
        for _ in range(mult):
            product = product * Polynomial([-root, 1])
    ratio = p.coeffs[-1] / product.coeffs[-1]
    assert ratio > 0
    assert product * Polynomial([ratio]) == p
    assert not strip_rational_roots(cofactor)[0]


# -------------------------------------------- the sampled checks in integers


def test_sampled_checks_build_no_fraction_entries(monkeypatch):
    model_data()
    binary_form_action(SL2Element.identity(), 4)  # the one-time guard
    built = []
    entries, init = Matrix.entries, Matrix.__init__

    def recording(self):
        if self._entries is None:
            built.append((self.rows, self.cols))
        return entries.fget(self)

    def recording_init(self, rows, cols, values):
        built.append((rows, cols))
        init(self, rows, cols, values)

    # Fraction entries come from __init__ or from reading a matrix that
    # from_ints built; neither may happen for a sampled matrix
    monkeypatch.setattr(Matrix, "entries", property(recording))
    monkeypatch.setattr(Matrix, "__init__", recording_init)
    config = Config(seed=11, trials=40)
    ctx = Context(config)
    fns = {c.id: c.fn for c in _REGISTRY}
    fns["p.sampled-nonfixing"](ctx)
    fns["n.exp-unipotent"](ctx)
    assert built == []
    for i in range(config.trials):
        assert ctx.sample(i)[1]._entries is None
        assert ctx.sample_on_Vprime(i)._entries is None


def test_sample_derivation_is_the_flattened_subspace_sample():
    der = Context(Config()).der_N
    for i in range(20):
        m = sample_derivation(der, 3, 10_000 + i)
        assert m._entries is None
        assert m == Matrix.from_flat(12, sample_in_subspace(der.space, 3,
                                                            10_000 + i))


# ------------------------------ integer systems against the dense reference

PINNED_PS = [DEFAULT_P] + [validate_p(p.split(",")) for p in (
    "0,1/2,0,0,0,0,-2", "0,1,-1/2,2,-3/2,1,1/2", "0,0,1,0,1,0,0",
    "0,0,1,0,2,0,0", "0,0,1,0,-2,0,0")]


@pytest.mark.parametrize("p", PINNED_PS, ids=lambda p: ",".join(map(str, p)))
def test_line_stabilizer_matches_the_dense_system(p):
    gens = model_data().vprime_actions
    columns = [wedge_vector(g.apply(p), p) for g in gens]
    rows = [[col[r] for col in columns] for r in range(len(columns[0]))]
    ker = infinitesimal_line_stabilizer(p, gens)
    assert ker == Subspace.span(len(gens), ref_nullspace(rows, len(gens)))


def test_eigen_relation_kernel_matches_the_dense_system():
    rows = [[Q(int(t + 1 in pair)) for t in range(5)]
            for pair in EIGEN_RELATION_PAIRS]
    assert eigen_relation_kernel() == Subspace.span(5, ref_nullspace(rows, 5))
    assert eigen_relation_kernel().dim == 0


# ------------------------------------------- per-algebra memos of the Lie layer

P_SCAN_SUITE = (
    "jacobi.N", "lcs.N-12-7-1-0", "nilclass.N-3", "n.der-dim-32",
    "n.der-decomposition", "n.derivations-nilpotent", "p.line-stabilizer-zero",
)


def test_p_scan_checks_build_the_central_series_once(monkeypatch):
    calls = []
    original = liecore.bracket_subspace

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(liecore, "bracket_subspace", counting)
    # a p no other test uses, so its N is built here, series and all
    report = run(P_SCAN_SUITE, Config(p=validate_p(
        ["0", "3", "0", "0", "0", "0", "-5"])))
    assert [r.actual for r in report.results[1:3]] == ["(12, 7, 1, 0)", "3"]
    # [N, N] (12 > 7) is N.derived; one call per later step 7 > 1 > 0
    assert len(calls) == 2 and len({id(L) for L in calls}) == 1


def test_memoised_results_are_fresh_lists():
    N = build_three_step((0, 1, 0, 0, 0, 0, 7))
    assert "jacobi_violations" in vars(N)  # the build already ran the scan
    first = check_jacobi(N)
    first.append((0, 1, 2))
    assert check_jacobi(N) == []
    series = lower_central_series(N)
    series.clear()
    assert [s.dim for s in lower_central_series(N)] == [12, 7, 1, 0]
    assert lower_central_series(N)[1] is N.central_series[1]
