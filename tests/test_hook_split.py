"""der(G) and der(N_p) from the p-free Leibniz kernel K restricted by the
rows of the 21 hook pairs, and N as G's integer table plus the hook, each
checked against the full construction it replaces: the 144-column Leibniz
kernel over all 66 basis pairs, and ``make_lie_algebra`` on Fraction
brackets.  ``derivation_algebra`` takes that split exactly for the tables
with G's brackets off the hook pair."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert import autos, cli, liecore, models, qlinalg
from nilcert.autos import (
    HOOK_PAIRS,
    _leibniz_rows,
    _leibniz_terms,
    derivation_algebra,
    hook_free_derivations,
)
from nilcert.liecore import (
    abelian_lie_algebra,
    check_jacobi,
    lie_algebra_to_json,
    lower_central_series,
    make_lie_algebra,
)
from nilcert.models import (
    ALGEBRA_LABELS,
    ModelData,
    build_three_step,
    build_two_step,
    model_data,
    validate_p,
    vprime_to_algebra,
)
from nilcert.qlinalg import int_kernel, sparse_rows

from dense_reference import dense_tensor
from shared import (P_DEPENDENT_SUITE, PINNED_P, full_kernel, load_workloads,
                    rationals)

ALL_PAIRS = tuple(itertools.combinations(range(12), 2))
FREE_PAIRS = tuple(pair for pair in ALL_PAIRS if pair not in HOOK_PAIRS)

COORD = st.one_of(st.just(Q(0)), st.integers(-5, 5).map(Q),
                  rationals(-9, 9, 12))


@st.composite
def hook_targets(draw):
    """p in L, nonzero, with p13 = 0 or p13 != 0 as drawn."""
    p13 = draw(st.one_of(st.just(Q(0)), COORD.filter(bool)))
    rest = draw(st.lists(COORD, min_size=5, max_size=5))
    p = (Q(0), p13, *rest)
    if not any(p):
        p = (Q(0), p13, Q(1), *rest[1:])
    return p


def parse(p: str) -> tuple[Q, ...]:
    return validate_p(p.split(","))


def fraction_three_step(p):
    """N as it was built before the integer splice: Fraction brackets
    through ``make_lie_algebra``."""
    brackets = dict(models._two_step_brackets())
    brackets[models.HOOK] = vprime_to_algebra(p)
    return make_lie_algebra(12, brackets, ALGEBRA_LABELS)


def full_kernel_over(L, pairs):
    return int_kernel(_leibniz_rows(L.table, pairs), L.dim * L.dim)


def show_text(N, p) -> str:
    """``nilcert show N --p p`` for the given algebra in place of N."""
    data = model_data(p)
    swapped = ModelData(data.actions_on_V, data.W, data.Wprime,
                        data.vprime_actions, data.L, data.p, data.G, N)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "model_data", lambda p=None: swapped)
        return cli._show_model("N", cli.Config(p=p))


def assert_same_algebra(spliced, reference):
    assert spliced == reference and hash(spliced) == hash(reference)
    assert spliced.table == reference.table
    assert spliced.denom == reference.denom
    assert spliced.labels == reference.labels
    assert dense_tensor(spliced) == dense_tensor(reference)
    assert lie_algebra_to_json(spliced) == lie_algebra_to_json(reference)


# --------------------------------------------------------------------------
# der(N_p) and der(G) from K
# --------------------------------------------------------------------------

def test_the_hook_pairs_are_the_pairs_that_meet_s1_or_p12():
    assert len(HOOK_PAIRS) == 21 and len(FREE_PAIRS) == 45
    assert all({0, 5} & set(pair) for pair in HOOK_PAIRS)
    assert HOOK_PAIRS == tuple(sorted(HOOK_PAIRS))


def test_k_is_the_kernel_of_g_over_the_free_pairs():
    K = hook_free_derivations()
    assert len(list(_leibniz_rows(build_two_step().table, FREE_PAIRS))) == 168
    assert K.dim == 72 and K.ambient_dim == 144
    assert K == full_kernel_over(build_two_step(), FREE_PAIRS)
    assert hook_free_derivations() is K


def test_all_pairs_is_the_default():
    for L in (build_two_step(), build_three_step()):
        assert (list(_leibniz_rows(L.table, ALL_PAIRS))
                == list(_leibniz_rows(L.table)))


def test_restricted_der_g_equals_the_full_kernel():
    G = build_two_step()
    der = derivation_algebra(G)
    assert der.algebra is G
    assert der.space == full_kernel(G)
    assert der.dim == 39


@pytest.mark.parametrize("p", PINNED_P)
def test_restricted_der_n_equals_the_full_kernel_at_pinned_p(p):
    N = build_three_step(parse(p))
    der = derivation_algebra(N)
    assert der.algebra is N
    assert der.space == full_kernel(N)


@settings(max_examples=40, deadline=None)
@given(hook_targets())
@example((Q(0), Q(1), Q(0), Q(0), Q(0), Q(0), Q(1)))
@example((Q(0), Q(0), Q(1), Q(0), Q(1, 3), Q(0), Q(0)))
def test_restricted_der_n_equals_the_full_kernel(p):
    N = build_three_step(p)
    assert derivation_algebra(N).space == full_kernel(N)


@settings(max_examples=25, deadline=None)
@given(hook_targets())
def test_n_rows_off_the_hook_pairs_are_g_rows_scaled(p):
    G, N = build_two_step(), build_three_step(p)
    scale = N.denom // G.denom
    assert N.denom == scale * G.denom
    assert list(_leibniz_rows(N.table, FREE_PAIRS)) == [
        {c: scale * x for c, x in row.items()}
        for row in _leibniz_rows(G.table, FREE_PAIRS)]


def g_with(pair, coords):
    """G built from its Fraction brackets, with the bracket of pair set to
    the given algebra coordinates."""
    brackets = dict(models._two_step_brackets())
    brackets[pair] = coords
    return make_lie_algebra(12, brackets, ALGEBRA_LABELS)


#: tables against which derivation_algebra picks its method, and whether it
#: takes the hook split: G's brackets off the hook pair, as rationals
SELECTION = {
    "abelian-12": (lambda: abelian_lie_algebra(12), False),
    # (s2, s3) is outside HOOK_PAIRS
    "G-changed-off-the-hook": (
        lambda: g_with((1, 2), [Q(int(k == 8)) for k in range(12)]), False),
    # p = p12 + p13 is not central: a Lie algebra, but not nilpotent
    "G-with-a-non-central-hook": (lambda: g_with(
        models.HOOK, vprime_to_algebra((1, 1, 0, 0, 0, 0, 0))), True),
    # [s1, p12] = s2 fails Jacobi on (s1, s3, p12)
    "G-with-a-hook-outside-V'": (lambda: g_with(
        models.HOOK, [Q(int(k == 1)) for k in range(12)]), True),
    "N-half-integer-p": (lambda: build_three_step(
        parse("0,1/2,0,-2,0,3/2,0")), True),
}


@pytest.mark.parametrize("name", SELECTION)
def test_derivation_algebra_picks_its_method_from_the_table(
        name, monkeypatch):
    make, split = SELECTION[name]
    L = make()
    adapted = []
    basis = liecore._adapted_basis

    def recording(L):
        adapted.append(L)
        return basis(L)

    monkeypatch.setattr(liecore, "_adapted_basis", recording)
    der = derivation_algebra(L)
    assert der.space == full_kernel(L)
    assert len(adapted) == (not split)
    if name == "abelian-12":
        assert der.dim == 144
    elif name == "G-with-a-non-central-hook":
        with pytest.raises(ValueError, match="not nilpotent"):
            lower_central_series(L)
    elif name == "G-with-a-hook-outside-V'":
        assert (0, 2, 5) in check_jacobi(L)
    elif name == "N-half-integer-p":
        assert L.denom > build_two_step().denom


# --------------------------------------------------------------------------
# the hook pencil: L's rows over HOOK_PAIRS on K's coordinates, s A0 +
# sum_k h_k Delta_k, against K restricted by the rows built from L's table
# --------------------------------------------------------------------------

#: the default p and the two other hook targets whose verify reports are
#: pinned by sha256
REPORT_P = ("0,1,0,0,0,0,1", "0,0,1,0,1,0,1", "0,1/2,0,-2,0,3/2,0")

#: the coordinates of L's hook pencil: A0 (None) and Delta_k for every
#: algebra coordinate k
PENCIL = (None, *range(12))


def rebuilt_split(L):
    """der(L) as K restricted by the Leibniz rows that L's own table gives
    over HOOK_PAIRS: the construction the pencil replaces."""
    return hook_free_derivations().restrict(_leibniz_rows(L.table, HOOK_PAIRS))


def hook_only_table(k):
    table = [[()] * 12 for _ in range(12)]
    a, b = models.HOOK
    table[a][b], table[b][a] = ((k, 1),), ((k, -1),)
    return tuple(map(tuple, table))


def assert_pencil_path(L):
    """derivation_algebra took the hook split, and its answer equals the
    rebuilt rows' restriction of K."""
    assert autos._hook_scale(L) == L.denom // build_two_step().denom
    assert derivation_algebra(L).space == rebuilt_split(L)


def test_the_pencil_is_g_and_the_hook_only_rows_applied_to_k():
    K = hook_free_derivations()
    rows = [row for _, row in K.echelon]

    def on_k(keyed):
        """Each equation's values on K's echelon rows, zeros and empty
        rows dropped."""
        out = {}
        for key, eq in keyed.items():
            row = {t: v for t in range(K.dim)
                   if (v := sum(x * rows[t].get(j, 0) for j, x in eq.items()))}
            if row:
                out[key] = row
        return out

    G = build_two_step()
    # A0's table is G's, and Delta_k's holds both hook entries, e_k and its
    # negative
    assert models.hook_table(1, ()) == G.table
    assert all(models.hook_table(0, ((k, 1),)) == hook_only_table(k)
               for k in range(12))
    expected = {None: sparse_rows(_leibniz_terms(G.table, HOOK_PAIRS))}
    expected.update((k, sparse_rows(_leibniz_terms(hook_only_table(k),
                                                   HOOK_PAIRS)))
                    for k in range(12))
    for k in PENCIL:
        assert K.pencil(k) == on_k(expected[k])
    # 116 row keys, 316 nonzero entries over K's 72 coordinates
    assert len(set().union(*(K.pencil(k) for k in PENCIL))) == 116
    assert sum(len(row) for k in PENCIL for row in K.pencil(k).values()) == 316


def test_the_pencil_indexes_k_once(monkeypatch):
    K = hook_free_derivations()
    index = autos.column_index
    calls = []

    def recording(vectors, n):
        calls.append((len(vectors), n))
        return index(vectors, n)

    monkeypatch.setattr(autos, "column_index", recording)
    fresh = autos.HookFreeKernel(K)
    assert calls == [(72, 144)]
    for k in PENCIL:
        assert fresh.pencil(k) == K.pencil(k)
    # A0 and every Delta_k read the index built with K
    assert calls == [(72, 144)]


def test_the_pencil_split_equals_the_rebuilt_rows_on_g():
    G = build_two_step()
    assert_pencil_path(G)
    assert derivation_algebra(G).dim == 39


@pytest.mark.parametrize("p", dict.fromkeys(REPORT_P + PINNED_P))
def test_the_pencil_split_equals_the_rebuilt_rows_at_pinned_p(p):
    assert_pencil_path(build_three_step(parse(p)))


def test_the_pencil_split_equals_the_rebuilt_rows_on_the_p_scan_pool():
    pool = load_workloads().p_pool()
    assert len(pool) == 64
    for p in pool:
        assert_pencil_path(build_three_step(validate_p(p)))


BIG = st.integers(-10**30, 10**30)


@st.composite
def large_hook_targets(draw):
    """p in L with numerators up to 10^30 and denominators up to 10^12."""
    rest = [draw(st.one_of(st.just(Q(0)), st.builds(
        Q, BIG, st.integers(1, 10**12)))) for _ in range(6)]
    if not any(rest):
        rest[0] = Q(draw(BIG.filter(bool)), draw(st.integers(1, 10**12)))
    return (Q(0), *rest)


@settings(max_examples=30, deadline=None)
@given(large_hook_targets())
@example((Q(0), Q(10**20 + 1, 7**13), Q(0), Q(0), Q(-3, 10**12 - 11), Q(0),
          Q(0)))
def test_the_pencil_split_equals_the_rebuilt_rows_at_large_p(p):
    assert_pencil_path(build_three_step(p))


def test_the_pencil_split_reads_a_hook_outside_v_prime():
    # [s1, p12] = s2 / 3 + p12 / 2: outside V', so not one of the N_p,
    # with G's brackets elsewhere and a denominator 6 where G's is 1
    L = g_with(models.HOOK, [Q(1, 3) if k == 1 else Q(1, 2) if k == 5
                             else Q(0) for k in range(12)])
    assert L.denom == 6 * build_two_step().denom
    assert L.table[0][5] == ((1, 2), (5, 3))
    assert_pencil_path(L)
    assert derivation_algebra(L).space == full_kernel(L)


# --------------------------------------------------------------------------
# N as G's table plus the hook
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p", PINNED_P)
def test_spliced_n_equals_the_fraction_build_at_pinned_p(p):
    pvec = parse(p)
    spliced, reference = build_three_step(pvec), fraction_three_step(pvec)
    assert_same_algebra(spliced, reference)
    assert show_text(spliced, pvec) == show_text(reference, pvec)
    assert check_jacobi(spliced) == []


@settings(max_examples=40, deadline=None)
@given(hook_targets())
@example((Q(0), Q(1, 6), Q(0), Q(0), Q(0), Q(0), Q(-4, 15)))
def test_spliced_n_equals_the_fraction_build(p):
    spliced, reference = build_three_step(p), fraction_three_step(p)
    assert_same_algebra(spliced, reference)
    assert show_text(spliced, p) == show_text(reference, p)


def int_hook(p, denom):
    """The integer hook entries (k, h_k) of [s1, p12] = p over denom."""
    return tuple((k, int(x * denom))
                 for k, x in enumerate(vprime_to_algebra(p)) if x)


@pytest.mark.parametrize("p", dict.fromkeys(REPORT_P + PINNED_P))
def test_n_is_the_hook_table_at_pinned_p(p):
    pvec = parse(p)
    N, G = build_three_step(pvec), build_two_step()
    s, r = divmod(N.denom, G.denom)
    assert not r and s >= 1
    table = models.hook_table(s, int_hook(pvec, N.denom))
    assert N.table == table == fraction_three_step(pvec).table


def test_the_hook_table_scales_g_off_the_hook():
    G = build_two_step()
    a, b = models.HOOK
    hook = ((6, 2), (11, -6))
    for s in (0, 1, 3):
        table = models.hook_table(s, hook)
        assert table[a][b] == hook and table[b][a] == ((6, -2), (11, 6))
        assert all(table[i][j] == tuple((k, s * t) for k, t in G.table[i][j]
                                        if s)
                   for i in range(12) for j in range(12)
                   if {i, j} != {a, b})


def test_the_splice_leaves_g_alone():
    G = build_two_step()
    table = G.table
    build_three_step((0, Q(1, 2), 0, 0, 0, 0, -2))
    assert G.table is table and not G.table[0][5] and G.denom == 1
    assert build_two_step() is G


# --------------------------------------------------------------------------
# K is built once per process, and not at import
# --------------------------------------------------------------------------

def test_two_p_build_k_once(monkeypatch):
    calls = []
    rref_int = qlinalg._rref_int

    def counted(rows, ncols):
        calls.append(ncols)
        return rref_int(rows, ncols)

    # the pencil's builds, the Leibniz terms over HOOK_PAIRS: A0 from G's
    # table, Delta_k from the hook-only table with [s1, p12] = e_k
    builds = []
    terms = autos._leibniz_terms

    def counted_terms(table, pairs=None):
        if pairs is HOOK_PAIRS:
            hook = table[models.HOOK[0]][models.HOOK[1]]  # G's is empty
            builds.append(hook[0][0] if hook else None)
        return terms(table, pairs)

    monkeypatch.setattr(qlinalg, "_rref_int", counted)
    monkeypatch.setattr(autos, "_leibniz_terms", counted_terms)
    hook_free_derivations.cache_clear()
    try:
        for p in ("0,1,0,0,0,0,1", "0,0,1,0,1,0,0"):
            report = cli.run(["n.der-dim-32", "n.derivations-nilpotent"],
                             cli.Config(p=parse(p)))
            assert "error" not in report.counts
        # the one 144-column elimination is K's; each der(N_p) is a
        # 72-column kernel on K's coordinates
        assert calls.count(144) == 1
        assert 72 in calls
        # A0 once, and Delta_k once for each hook coordinate k read: p13
        # and p45, then p14 and p25 (coordinates 6, 11, 7 and 9)
        assert builds == [None, 6, 11, 7, 9]
        hook_free_derivations.cache_clear()
        builds.clear()
        for p in ("0,1/2,0,0,0,0,-2", "0,0,1,0,-2,0,0"):
            cli.run(list(P_DEPENDENT_SUITE), cli.Config(p=parse(p)))
        assert hook_free_derivations.cache_info().misses == 1
        # clearing K's cache dropped its pencil, which was built again
        assert builds == [None, 6, 11, 7, 9]
    finally:
        hook_free_derivations.cache_clear()


def test_a_new_p_reads_the_pencil_and_eliminates_once(monkeypatch):
    """After a warm-up p that reads every coordinate of L, der(N_p) at a
    new p builds no Leibniz rows, applies nothing to K's rows and makes
    exactly one elimination, the 72-column kernel on K's coordinates."""
    hook_free_derivations.cache_clear()
    try:
        derivation_algebra(build_three_step(parse("0,1,1,1,1,1,1")))
        work = []
        for module, name in ((autos, "_leibniz_rows"),
                             (autos, "_leibniz_terms"),
                             (autos, "apply_equations"),
                             (qlinalg, "apply_equations"),
                             (qlinalg, "_rref_int")):
            def counted(*args, _f=getattr(module, name), _name=name):
                work.append((_name, args[-1] if _name == "_rref_int"
                             else None))
                return _f(*args)
            monkeypatch.setattr(module, name, counted)
        for p in REPORT_P + ("0,-7/3,0,5,0,1/11,0", "0,0,0,0,0,0,1"):
            N = build_three_step(parse(p))
            work.clear()
            der = derivation_algebra(N)
            assert work == [("_rref_int", 72)], p
            assert der.space == full_kernel(N)
    finally:
        hook_free_derivations.cache_clear()


def test_importing_the_cli_does_not_build_k():
    src = str(Path(__file__).resolve().parents[1] / "src")
    # K is built on first use, and its pencil on the first hook split
    code = ("import nilcert.cli, nilcert.autos as m; "
            "print(m.hook_free_derivations.cache_info().misses); "
            "print(len(m.hook_free_derivations()._pencil))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_a_table_of_another_dimension_builds_neither_g_nor_k():
    """derivation_algebra turns a table that is not 12-dimensional away
    from the hook split before it builds G or K."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    text = next(e["text"] for e in load_workloads().algebra_pool()
                if not e["reject"])
    code = ("import sys; from nilcert import autos, liecore, models; "
            "autos.derivation_algebra(liecore.heisenberg3()); "
            "autos.derivation_algebra("
            "liecore.lie_algebra_from_json(sys.stdin.read())); "
            "print(models.build_two_step.cache_info().misses); "
            "print(autos.hook_free_derivations.cache_info().misses)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], input=text,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
