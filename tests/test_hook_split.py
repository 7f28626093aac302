"""der(G) and der(N_p) from the p-free Leibniz kernel K restricted by the
rows of the 21 hook pairs, and N as G's integer table plus the hook, each
checked against the full construction it replaces: the 144-column Leibniz
kernel over all 66 basis pairs, and ``make_lie_algebra`` on Fraction
brackets."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert import cli, models, qlinalg
from nilcert.autos import (
    HOOK_PAIRS,
    _leibniz_rows,
    derivation_algebra,
    hook_free_derivations,
    model_derivations,
)
from nilcert.liecore import (
    check_jacobi,
    lie_algebra_to_json,
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
from nilcert.qlinalg import int_kernel

#: the pinned hook targets of the restricted shear-space tests, and
#: p14 +- 2 p25, where a rotation of order 4 fixes the line through p
PINNED_P = ("0,1,0,0,0,0,1", "0,1/2,0,0,0,0,-2", "0,1,-1/2,2,-3/2,1,1/2",
            "0,0,1,0,1,0,0", "0,0,1,0,2,0,0", "0,0,1,0,-2,0,0")

ALL_PAIRS = tuple(itertools.combinations(range(12), 2))
FREE_PAIRS = tuple(pair for pair in ALL_PAIRS if pair not in HOOK_PAIRS)

COORD = st.one_of(st.just(Q(0)), st.integers(-5, 5).map(Q),
                  st.fractions(min_value=-9, max_value=9, max_denominator=12))


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


def full_kernel(L):
    return int_kernel(_leibniz_rows(L), L.dim * L.dim)


def full_kernel_over(L, pairs):
    return int_kernel(_leibniz_rows(L, pairs), L.dim * L.dim)


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
    assert spliced.sc == reference.sc
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
    assert len(list(_leibniz_rows(build_two_step(), FREE_PAIRS))) == 168
    assert K.dim == 72 and K.ambient_dim == 144
    assert K == full_kernel_over(build_two_step(), FREE_PAIRS)
    assert hook_free_derivations() is K


def test_all_pairs_is_the_default():
    for L in (build_two_step(), build_three_step()):
        assert list(_leibniz_rows(L, ALL_PAIRS)) == list(_leibniz_rows(L))


def test_restricted_der_g_equals_the_full_kernel():
    G = build_two_step()
    der = model_derivations(G)
    assert der.algebra is G
    assert der.space == full_kernel(G) == derivation_algebra(G).space
    assert der.dim == 39


@pytest.mark.parametrize("p", PINNED_P)
def test_restricted_der_n_equals_the_full_kernel_at_pinned_p(p):
    N = build_three_step(parse(p))
    der = model_derivations(N)
    assert der.algebra is N
    assert der.space == full_kernel(N) == derivation_algebra(N).space


@settings(max_examples=40, deadline=None)
@given(hook_targets())
@example((Q(0), Q(1), Q(0), Q(0), Q(0), Q(0), Q(1)))
@example((Q(0), Q(0), Q(1), Q(0), Q(1, 3), Q(0), Q(0)))
def test_restricted_der_n_equals_the_full_kernel(p):
    N = build_three_step(p)
    assert model_derivations(N).space == full_kernel(N)


@settings(max_examples=25, deadline=None)
@given(hook_targets())
def test_n_rows_off_the_hook_pairs_are_g_rows_scaled(p):
    G, N = build_two_step(), build_three_step(p)
    scale = N.denom // G.denom
    assert N.denom == scale * G.denom
    assert list(_leibniz_rows(N, FREE_PAIRS)) == [
        {c: scale * x for c, x in row.items()}
        for row in _leibniz_rows(G, FREE_PAIRS)]


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


def test_the_splice_leaves_g_alone():
    G = build_two_step()
    table = G.table
    build_three_step((0, Q(1, 2), 0, 0, 0, 0, -2))
    assert G.table is table and not G.table[0][5] and G.denom == 1
    assert build_two_step() is G


# --------------------------------------------------------------------------
# K is built once per process, and not at import
# --------------------------------------------------------------------------

P_DEPENDENT_SUITE = (
    "jacobi.N", "lcs.N-12-7-1-0", "nilclass.N-3", "n.der-dim-32",
    "n.der-decomposition", "n.derivations-nilpotent", "p.line-stabilizer-zero",
)


def test_two_p_build_k_once(monkeypatch):
    calls = []
    rref_int = qlinalg._rref_int

    def counted(rows, ncols):
        calls.append(ncols)
        return rref_int(rows, ncols)

    monkeypatch.setattr(qlinalg, "_rref_int", counted)
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
        hook_free_derivations.cache_clear()
        for p in ("0,1/2,0,0,0,0,-2", "0,0,1,0,-2,0,0"):
            cli.run(list(P_DEPENDENT_SUITE), cli.Config(p=parse(p)))
        assert hook_free_derivations.cache_info().misses == 1
    finally:
        hook_free_derivations.cache_clear()


def test_importing_the_cli_does_not_build_k():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import nilcert.cli, nilcert.autos as m; "
            "print(m.hook_free_derivations.cache_info().misses)")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
