"""derivation_algebra in a basis adapted to the descending series: the
kernel it maps back equals the kernel of the given table's own Leibniz
rows, on nilpotent algebras in scrambled bases, on the benchmark pool, and
on tables where the lower central series does not reach zero."""

import itertools
import json
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert import autos, liecore
from nilcert.autos import derivation_algebra
from nilcert.liecore import (
    _adapted_basis,
    ad_matrix,
    center,
    check_jacobi,
    lie_algebra_from_json,
    lower_central_series,
    make_lie_algebra,
    parse_rational,
)
from nilcert.qlinalg import Subspace, int_kernel, sparse_rows, unit_vector

from dense_reference import (
    REDUCTIVE,
    assert_kernel,
    change_basis,
    dense_leibniz_rows,
    dense_tensor,
)
from shared import full_kernel, load_workloads


def nonzero_entries(table):
    return sum(len(entry) for row in table for entry in row)


def is_monomial(L):
    return all(len(entry) < 2 for row in L.table for entry in row)


def filiform(d):
    """[e1, e_i] = e_(i+1), class d - 1."""
    return {(0, i): unit_vector(d, i + 1) for i in range(1, d - 1)}


def upper_triangular(n):
    """Strictly upper triangular n x n matrices, [E_ab, E_bc] = E_ac."""
    positions = [(a, b) for a in range(n) for b in range(a + 1, n)]
    d = len(positions)
    brackets = {}
    for (s, (a, b)), (t, (c, e)) in itertools.combinations(
            enumerate(positions), 2):
        coords = [0] * d
        if b == c:
            coords[positions.index((a, e))] += 1
        if e == a:
            coords[positions.index((c, b))] -= 1
        if any(coords):
            brackets[(s, t)] = coords
    return brackets


def scrambled(d, brackets, perm, u):
    """The algebra with its basis relabelled by perm and then changed by
    the upper triangular u (``change_basis``)."""
    moved = {}
    for (i, j), coords in brackets.items():
        out = [0] * d
        for k, x in enumerate(coords):
            out[perm[k]] = x
        moved[(perm[i], perm[j])] = out
    return make_lie_algebra(d, change_basis(d, moved, u))


@st.composite
def nilpotent_algebras(draw):
    """A random two-step, filiform or upper triangular algebra after a
    coordinate permutation and a random integer unitriangular change of
    basis."""
    kind = draw(st.sampled_from(("two-step", "filiform", "upper")))
    if kind == "two-step":
        k, m = draw(st.integers(2, 4)), draw(st.integers(1, 3))
        d = k + m
        brackets = {pair: [0] * k + draw(st.lists(
            st.integers(-2, 2), min_size=m, max_size=m))
            for pair in itertools.combinations(range(k), 2)}
    elif kind == "filiform":
        d = draw(st.integers(3, 7))
        brackets = filiform(d)
    else:
        n = draw(st.integers(3, 4))
        d = n * (n - 1) // 2
        brackets = upper_triangular(n)
    perm = draw(st.permutations(range(d)))
    u = [[Q(int(a == i)) if a >= i else Q(draw(st.integers(-2, 2)))
          for i in range(d)] for a in range(d)]
    return scrambled(d, brackets, perm, u)


@settings(max_examples=40, deadline=None)
@given(nilpotent_algebras())
def test_adapted_kernel_equals_the_given_basis_kernel(L):
    assert check_jacobi(L) == []
    assert derivation_algebra(L).space == full_kernel(L)


@st.composite
def monomial_algebras(draw):
    """Tables where every bracket of two basis vectors is an integer
    multiple of one basis vector, Jacobi or not."""
    d = draw(st.integers(1, 7))
    brackets = {}
    for i, j in itertools.combinations(range(d), 2):
        t = draw(st.integers(-3, 3))
        if t:
            k = draw(st.integers(0, d - 1))
            brackets[(i, j)] = [t * (m == k) for m in range(d)]
    return make_lie_algebra(d, brackets)


@settings(max_examples=60, deadline=None)
@given(monomial_algebras())
def test_a_monomial_table_is_its_own_adapted_copy(L):
    assert is_monomial(L)
    units = [{c: 1} for c in range(L.dim)]
    assert _adapted_basis(L) == (units, units)
    assert derivation_algebra(L).space == full_kernel(L)


def test_every_accepted_pool_document_keeps_its_derivation_algebra():
    accepted = 0
    for entry in load_workloads().algebra_pool():
        try:
            L = lie_algebra_from_json(entry["text"])
        except ValueError:
            continue
        accepted += 1
        assert not is_monomial(L)
        assert derivation_algebra(L).space == full_kernel(L)
    assert accepted == 39


def dense_u(d):
    """A unitriangular change of basis, nonzero everywhere above the
    diagonal."""
    return [[Q(1) if a == i else Q((a + 2 * i) % 3 + 1) if a < i else Q(0)
             for i in range(d)] for a in range(d)]


def test_the_eliminated_table_is_sparser_than_the_given_one(monkeypatch):
    d = 7
    L = make_lie_algebra(d, change_basis(d, filiform(d), dense_u(d)))
    tables = []
    rows = autos._leibniz_rows

    def recording(table, pairs=None):
        tables.append(table)
        return rows(table, pairs)

    monkeypatch.setattr(autos, "_leibniz_rows", recording)
    der = derivation_algebra(L)
    assert len(tables) == 1
    assert nonzero_entries(tables[0]) < nonzero_entries(L.table)
    assert der.space == int_kernel(rows(L.table), d * d)


#: tables whose lower central series does not reach zero: r2, with
#: [x, y] = y; sl2; and a table that fails Jacobi
FALLBACK = {
    "r2": (2, {(0, 1): (0, 1)}),
    "sl2": REDUCTIVE[0],
    "no-jacobi": (3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)}),
}


@pytest.mark.parametrize("name", FALLBACK)
@pytest.mark.parametrize("changed", (False, True), ids=("given", "changed"))
def test_fallback_matches_the_dense_leibniz_kernel(name, changed):
    dim, brackets = FALLBACK[name]
    L = (make_lie_algebra(dim, change_basis(dim, brackets, dense_u(dim)))
         if changed else make_lie_algebra(dim, brackets))
    # a changed basis is not monomial; the given one is, so P = I there
    assert is_monomial(L) is not changed
    with pytest.raises(ValueError, match="not nilpotent"):
        lower_central_series(L)
    der = derivation_algebra(L)
    assert_kernel(der.space, dense_leibniz_rows(L), dim * dim)
    if name == "r2":
        assert der.dim == 2
    elif name == "sl2":
        # every derivation is inner: der is spanned by ad e_1, ad e_2, ad e_3
        assert der.space == Subspace.span(dim * dim, (
            ad_matrix(L, unit_vector(dim, i)).flatten() for i in range(dim)))
        assert der.dim == 3
    else:
        assert check_jacobi(L)


# --------------------------------------------------------------------------
# the loader's Jacobi decision and the center, read from the adapted copy,
# against the given table
# --------------------------------------------------------------------------

def given_basis_center(L):
    """The kernel of the given table's own center rows, one per (j, k):
    sum_i x_i c_ij^k = 0."""
    d, table = L.dim, L.table
    return int_kernel(sparse_rows(
        (j * d + k, i, t) for j in range(d) for i in range(d)
        for k, t in table[i][j]).values(), d)


def given_table(text):
    """The algebra of a document as written, built without the loader."""
    doc = json.loads(text)
    return make_lie_algebra(doc["dim"], {
        (i, j): [parse_rational(c) for c in coords]
        for i, j, coords in doc["brackets"]}, doc.get("labels"))


@st.composite
def documents(draw):
    """The JSON text of a scrambled nilpotent algebra
    (``nilpotent_algebras``), and half the time of the same table with
    one unit added to a drawn structure constant, which mostly breaks
    Jacobi."""
    L = draw(nilpotent_algebras())
    d, sc = L.dim, dense_tensor(L)
    brackets = {(i, j): list(sc[i][j])
                for i, j in itertools.combinations(range(d), 2)
                if L.table[i][j]}
    if draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2,
                                    max_size=2, unique=True)))
        coords = brackets.setdefault((i, j), [Q(0)] * d)
        coords[draw(st.integers(0, d - 1))] += 1
    return json.dumps({"dim": d, "brackets": [
        [i, j, [str(c) for c in coords]]
        for (i, j), coords in sorted(brackets.items())]})


@settings(max_examples=60, deadline=None)
@given(documents())
def test_the_loader_and_the_center_agree_with_the_given_table(text):
    given_L = given_table(text)
    violations = check_jacobi(given_L)
    if violations:
        with pytest.raises(ValueError) as exc:
            lie_algebra_from_json(text)
        assert str(exc.value) == (
            f"Jacobi identity fails on basis triples {violations}")
        L = given_L
    else:
        L = lie_algebra_from_json(text)
        assert L == given_L
    # the adapted table is alternating, as the loader's proof needs
    table = L.adapted[2]
    assert all(not table[i][i] for i in range(L.dim))
    assert all(table[j][i] == tuple((k, -t) for k, t in table[i][j])
               for i, j in itertools.combinations(range(L.dim), 2))
    assert center(L) == given_basis_center(L)


def test_only_rejected_pool_documents_scan_the_given_table(monkeypatch):
    scan = liecore.check_jacobi
    calls = []

    def recording(L):
        calls.append(L)
        return scan(L)

    monkeypatch.setattr(liecore, "check_jacobi", recording)
    rejected = 0
    for entry in load_workloads().algebra_pool():
        before = len(calls)
        try:
            L = lie_algebra_from_json(entry["text"])
        except ValueError as exc:
            rejected += 1
            assert entry["reject"] and len(calls) == before + 1
            violations = scan(given_table(entry["text"]))
            assert violations and str(exc) == (
                f"Jacobi identity fails on basis triples {violations}")
        else:
            assert not entry["reject"] and len(calls) == before
            assert center(L) == given_basis_center(L)
    assert rejected == len(calls) == 9
