import hashlib
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert import liecore
from nilcert.liecore import (
    MAX_JSON_DIM,
    abelian_lie_algebra,
    ad_matrix,
    bracket,
    bracket_subspace,
    center,
    check_jacobi,
    derived_subalgebra,
    heisenberg3,
    lie_algebra_from_json,
    lie_algebra_to_json,
    lower_central_series,
    make_lie_algebra,
    nilpotency_class,
)
from nilcert.autos import derivation_algebra
from nilcert.models import build_three_step, build_two_step, vprime_to_algebra
from nilcert.qlinalg import Subspace, is_nilpotent, unit_vector

G = build_two_step()
N = build_three_step()


def lcs_dims(L):
    return [s.dim for s in lower_central_series(L)]


# ------------------------------------------------------------------- bracket

def test_bracket_basis_pairs():
    e = [G.basis_vector(i) for i in range(12)]
    # [s1, s2] = p12 (index 5)
    assert bracket(G, e[0], e[1]) == unit_vector(12, 5)
    # identifications: [s1, s4] = [s2, s3], [s1, s5] = [s2, s4]
    assert bracket(G, e[0], e[3]) == bracket(G, e[1], e[2])
    assert bracket(G, e[0], e[4]) == bracket(G, e[1], e[3])


def test_bracket_antisymmetric_bilinear_randomized():
    rng = random.Random(5)
    for _ in range(20):
        x = tuple(Q(rng.randint(-3, 3)) for _ in range(12))
        y = tuple(Q(rng.randint(-3, 3)) for _ in range(12))
        z = tuple(Q(rng.randint(-3, 3)) for _ in range(12))
        assert bracket(N, x, x) == tuple([Q(0)] * 12)
        xy = bracket(N, x, y)
        yx = bracket(N, y, x)
        assert xy == tuple(-v for v in yx)
        lhs = bracket(N, x, tuple(a + b for a, b in zip(y, z)))
        rhs = tuple(a + b for a, b in zip(xy, bracket(N, x, z)))
        assert lhs == rhs


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(G, (Q(1),) * 11, (Q(0),) * 12)


def test_element_wrapper():
    # elements are coordinate tuples: [s1, p12] = p13 + p45 in N
    x, y = N.basis_vector(0), N.basis_vector(5)
    assert bracket(N, x, y) == vprime_to_algebra((0, 1, 0, 0, 0, 0, 1))


# -------------------------------------------------------------------- jacobi

def test_jacobi_shipped_models():
    assert check_jacobi(G) == []
    assert check_jacobi(N) == []


def test_jacobi_violating_mutation():
    # adding [s3, p12] = p13 on top of N's brackets breaks Jacobi at
    # (s1, s2, s3): the cyclic sum picks up the new hook through [s1, s2] = p12
    brackets = {}
    for i in range(12):
        for j in range(i + 1, 12):
            v = N.sc[i][j]
            if any(c != 0 for c in v):
                brackets[(i, j)] = v
    brackets[(2, 5)] = unit_vector(12, 6)
    mutated = make_lie_algebra(12, brackets, N.labels)
    assert (0, 1, 2) in check_jacobi(mutated)


def test_jacobi_second_hook_still_lie():
    # [s2, p12] = p13 leaves every cyclic sum zero: each summand needs a
    # bracket with p12-component, which only [s1, s2] has, and the third
    # element of such a triple never carries the new hook
    brackets = {}
    for i in range(12):
        for j in range(i + 1, 12):
            v = N.sc[i][j]
            if any(c != 0 for c in v):
                brackets[(i, j)] = v
    brackets[(1, 5)] = unit_vector(12, 6)
    mutated = make_lie_algebra(12, brackets, N.labels)
    assert check_jacobi(mutated) == []


# ------------------------------------------------------- lower central series

def test_lcs_abelian():
    assert lcs_dims(abelian_lie_algebra(3)) == [3, 0]
    assert nilpotency_class(abelian_lie_algebra(3)) == 1


def test_lcs_shipped_models():
    assert lcs_dims(G) == [12, 7, 0]
    assert lcs_dims(N) == [12, 7, 1, 0]
    assert nilpotency_class(G) == 2
    assert nilpotency_class(N) == 3


def test_lcs_non_nilpotent_rejected():
    # [e1, e2] = e2 is solvable but not nilpotent
    L = make_lie_algebra(2, {(0, 1): (0, 1)})
    with pytest.raises(ValueError, match="not nilpotent"):
        lower_central_series(L)


def test_lcs_terms_are_ideals_and_last_is_central():
    for L in (G, N, heisenberg3()):
        series = lower_central_series(L)
        full = Subspace.full(L.dim)
        for term in series[1:]:
            image = bracket_subspace(L, full, term)
            assert term.contains_subspace(image)
        last_nonzero = series[-2]
        assert center(L).contains_subspace(last_nonzero)


# -------------------------------------------------------------------- center

def test_center_dims():
    assert center(abelian_lie_algebra(4)) == Subspace.full(4)
    # G: all of V'; N: p12 is no longer central because [s1, p12] = p
    assert center(G) == Subspace.span(12, [unit_vector(12, k) for k in range(5, 12)])
    assert center(N) == Subspace.span(12, [unit_vector(12, k) for k in range(6, 12)])


# ------------------------------------------------------------------ ad_matrix

def test_ad_matrix_hook():
    ad_s1 = ad_matrix(N, N.basis_vector(0))
    assert ad_s1.apply(N.basis_vector(5)) == vprime_to_algebra((0, 1, 0, 0, 0, 0, 1))
    # p13 (index 6) sits inside L, hence is central
    assert ad_matrix(N, N.basis_vector(6)).is_zero()


def test_ad_matrices_nilpotent():
    for L in (G, N):
        for i in range(L.dim):
            assert is_nilpotent(ad_matrix(L, L.basis_vector(i)))


# ----------------------------------------------------------- bracket_subspace

def test_bracket_subspace():
    full = Subspace.full(12)
    assert bracket_subspace(G, full, center(G)).dim == 0
    vprime = Subspace.span(12, [unit_vector(12, k) for k in range(5, 12)])
    assert derived_subalgebra(G) == vprime
    assert derived_subalgebra(N) == vprime
    hook_image = bracket_subspace(N, full, vprime)
    assert hook_image == Subspace.span(12, [vprime_to_algebra((0, 1, 0, 0, 0, 0, 1))])


# ---------------------------------------------------------------------- json

def test_json_round_trip():
    text = lie_algebra_to_json(heisenberg3())
    L = lie_algebra_from_json(text)
    assert L.dim == 3
    assert L.sc == heisenberg3().sc
    assert L.labels == ("x", "y", "z")


def test_equal_algebras_compare_and_hash_equal():
    for L in (heisenberg3(), G, N):
        twin = lie_algebra_from_json(lie_algebra_to_json(L))
        assert twin is not L and twin == L and hash(twin) == hash(L)
        assert len({L, twin}) == 1
    assert build_three_step() == N and hash(build_three_step()) == hash(N)
    # dim, sc and labels each take part in the comparison
    relabeled = make_lie_algebra(3, {(0, 1): (0, 0, 1)}, ("a", "b", "c"))
    assert relabeled.sc == heisenberg3().sc and relabeled != heisenberg3()
    assert G != N and abelian_lie_algebra(2) != abelian_lie_algebra(3)
    assert heisenberg3() != heisenberg3().sc


def test_json_load_with_rational_strings():
    L = lie_algebra_from_json(json.dumps({
        "dim": 3,
        "brackets": [[0, 1, ["0", "0", "1/2"]]],
    }))
    assert bracket(L, L.basis_vector(0), L.basis_vector(1)) == (Q(0), Q(0), Q(1, 2))
    # antisymmetry was completed automatically
    assert bracket(L, L.basis_vector(1), L.basis_vector(0)) == (Q(0), Q(0), Q(-1, 2))


def test_json_load_rejects_jacobi_violation():
    entries = []
    for i in range(12):
        for j in range(i + 1, 12):
            v = N.sc[i][j]
            if any(c != 0 for c in v):
                entries.append([i, j, [str(c) for c in v]])
    entries.append([2, 5, [str(c) for c in unit_vector(12, 6)]])
    with pytest.raises(ValueError, match="Jacobi"):
        lie_algebra_from_json({"dim": 12, "brackets": entries})


@pytest.mark.parametrize("doc, field", [
    ({"dim": 3.7}, "dim"),
    ({"dim": True}, "dim"),
    ({"dim": -1}, "dim"),
    ({"dim": "3"}, "dim"),
    ({"dim": 3, "brackets": [[0.9, 1, [0, 0, 1]]]}, "bracket index i"),
    ({"dim": 3, "brackets": [[0, True, [0, 0, 1]]]}, "bracket index j"),
    ({"dim": 3, "brackets": {"0,1": [0, 0, 1]}}, "brackets"),
    ({"dim": 3, "brackets": [[0, 1]]}, "brackets entry"),
    ({"dim": 3, "brackets": [[0, 1, [0, 0, 1], 2]]}, "brackets entry"),
    ({"dim": 3, "brackets": ["01x"]}, "brackets entry"),
])
def test_json_load_rejects_malformed_fields(doc, field):
    with pytest.raises(ValueError, match=field):
        lie_algebra_from_json(json.dumps(doc))


def test_json_load_accepts_dimension_zero():
    assert lie_algebra_from_json('{"dim": 0}').dim == 0


def test_json_load_rejects_a_misspelled_field():
    # "bracket" for "brackets" used to load as the abelian algebra
    with pytest.raises(ValueError, match=r"unknown fields \['bracket'\]"):
        lie_algebra_from_json('{"dim": 3, "bracket": [[0, 1, [0, 0, 1]]]}')


def load_workloads():
    # nilbench has no package __init__, so the file is loaded by path
    path = Path(__file__).resolve().parents[1] / "nilbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("nilbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_load_rejects_a_benchmark_pool_entry_in_place_of_its_text():
    pool = load_workloads().algebra_pool()
    entry = next(e for e in pool if not e["reject"])
    with pytest.raises(ValueError,
                       match=r"unknown fields \['kind', 'reject', 'text'\]"):
        lie_algebra_from_json(entry)
    assert lie_algebra_from_json(entry["text"]).dim == entry["dim"]
    # the documents themselves carry only the known fields
    assert all(set(json.loads(e["text"])) == {"dim", "labels", "brackets"}
               for e in pool)


def test_json_load_rejects_conflicts():
    with pytest.raises(ValueError, match="conflicting"):
        lie_algebra_from_json({"dim": 3, "brackets": [
            [0, 1, [0, 0, 1]], [1, 0, [0, 0, 1]]]})
    # a repeated pair with other coordinates, not only a swapped one
    with pytest.raises(ValueError,
                       match=r"conflicting values given for bracket \(0, 1\)"):
        lie_algebra_from_json({"dim": 3, "brackets": [
            [0, 1, [0, 0, 1]], [0, 1, [0, 0, 2]]]})
    # identical repeats, plain or swapped, are consistent
    L = lie_algebra_from_json({"dim": 3, "brackets": [
        [0, 1, [0, 0, 1]], [0, 1, [0, 0, "1"]], [1, 0, [0, 0, -1]]]})
    assert L.sc == heisenberg3().sc


def test_make_lie_algebra_rejects_nonzero_diagonal():
    with pytest.raises(ValueError):
        make_lie_algebra(2, {(0, 0): (1, 0)})


@pytest.mark.parametrize("doc, field", [
    ({"dim": 2, "brackets": [[0, 1, [0.5, 0]]]}, "bracket coordinates"),
    ({"dim": 2, "brackets": [[0, 1, [True, 0]]]}, "bracket coordinates"),
    ({"dim": 2, "brackets": [[0, 1, 7]]}, "bracket coordinates"),
    ({"dim": 2, "brackets": [[0, 1, "10"]]}, "bracket coordinates"),
    ({"dim": 2, "brackets": [[0, 1, ["1/0", 0]]]}, "bracket coordinates"),
    ({"dim": 2, "brackets": [[0, 1, ["x", 0]]]}, "bracket coordinates"),
    ({"dim": 2, "brackets": [[0, 1, [None, 0]]]}, "bracket coordinates"),
    ([1, 2], "JSON object"),
    ("5", "JSON object"),
    (None, "JSON object"),
    ({"dim": 2, "labels": "ab"}, "labels"),
    ({"dim": 2, "labels": ["a"]}, "labels"),
    ({"dim": 2, "labels": ["a", 2]}, "labels"),
])
def test_json_load_rejects_malformed_values_with_a_value_error(doc, field):
    with pytest.raises(ValueError, match=field):
        lie_algebra_from_json(json.dumps(doc))


def test_json_load_accepts_integer_and_string_coordinates_and_labels():
    L = lie_algebra_from_json({"dim": 3, "labels": ["x", "y", "z"],
                               "brackets": [[0, 1, [0, "0", "-1/2"]]]})
    assert L.labels == ("x", "y", "z")
    assert L.sc[0][1] == (Q(0), Q(0), Q(-1, 2))


def test_json_load_rejects_a_dim_above_the_limit(monkeypatch):
    with pytest.raises(ValueError, match=f"dim must be at most {MAX_JSON_DIM}"):
        lie_algebra_from_json({"dim": MAX_JSON_DIM + 1})
    # the limit itself is allowed (shown at a small limit, to stay fast)
    monkeypatch.setattr(liecore, "MAX_JSON_DIM", 3)
    assert lie_algebra_from_json({"dim": 3}).dim == 3
    with pytest.raises(ValueError, match="dim must be at most 3, got 4"):
        lie_algebra_from_json({"dim": 4})


def test_json_load_rejects_a_huge_dim_under_a_memory_limit():
    # in a child process with a 512 MiB address space: a loader that starts
    # on the dense table raises MemoryError there (or the child dies), and
    # the test fails instead of the whole run being killed
    code = textwrap.dedent(f"""
        import resource, sys
        sys.path[:0] = {sys.path!r}
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = 512 << 20
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
        from nilcert.liecore import lie_algebra_from_json
        try:
            lie_algebra_from_json('{{"dim": 100000}}')
        except ValueError as exc:
            print(exc)
        else:
            sys.exit("dim 100000 was accepted")
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert f"dim must be at most {MAX_JSON_DIM}, got 100000" in proc.stdout


# ------------------------------------------------------------------ one form

ENTRIES = st.one_of(st.just(Q(0)), st.fractions(-3, 3, max_denominator=4))


@st.composite
def bracket_values(draw, dim):
    """{(i, j): coordinates of [b_i, b_j]} over some pairs i < j; zero
    vectors included."""
    pairs = list(itertools.combinations(range(dim), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    vec = st.lists(ENTRIES, min_size=dim, max_size=dim).map(tuple)
    zero = st.just((Q(0),) * dim)
    return {pair: draw(st.one_of(vec, zero)) for pair in chosen}


def presentation(draw, dim, values):
    """A bracket dict for make_lie_algebra that gives each pair as (i, j),
    as (j, i) with the negated vector, or as both, with some zero diagonal
    entries."""
    out = {}
    for (i, j), v in values.items():
        form = draw(st.sampled_from(("ij", "ji", "both")))
        if form != "ji":
            out[(i, j)] = v
        if form != "ij":
            out[(j, i)] = tuple(-x for x in v)
    for i in draw(st.lists(st.integers(0, dim - 1))) if dim else []:
        out[(i, i)] = (0,) * dim
    return out


def dense(dim, values):
    sc = [[(Q(0),) * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in values.items():
        sc[i][j] = tuple(v)
        sc[j][i] = tuple(-x for x in v)
    return tuple(tuple(row) for row in sc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_integer_table_is_the_algebra(data):
    dim = data.draw(st.integers(0, 5))
    values = data.draw(bracket_values(dim))
    A = make_lie_algebra(dim, presentation(data.draw, dim, values))
    assert A.sc == dense(dim, values)
    # a second presentation of the same brackets is the same algebra
    B = make_lie_algebra(dim, presentation(data.draw, dim, values))
    assert A == B and hash(A) == hash(B)
    # other brackets, or other labels, compare equal exactly when the dense
    # tensor and the labels do (the definition before the integer table)
    other = data.draw(st.one_of(
        st.just(values),
        st.just({pair: v for pair, v in values.items() if any(v)}),
        bracket_values(dim)))
    labels = data.draw(st.sampled_from([
        None, tuple(f"e{i + 1}" for i in range(dim)),
        tuple(f"f{i + 1}" for i in range(dim))]))
    C = make_lie_algebra(dim, presentation(data.draw, dim, other), labels)
    same = A.sc == C.sc and A.labels == C.labels
    assert (A == C) == same and (C == A) == same
    if same:
        assert hash(A) == hash(C)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_verify_never_builds_the_dense_tensor():
    # a fresh process, since G and N are shared within one
    code = ("from nilcert.cli import Config, model_data, run; "
            "run(None, Config()); d = model_data(); "
            "print([name for name in ('G', 'N') "
            "if 'sc' in vars(getattr(d, name))])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    L = lie_algebra_from_json(lie_algebra_to_json(N))
    lower_central_series(L), center(L), derivation_algebra(L)
    assert "sc" not in vars(L)
    assert L.sc == N.sc and "sc" in vars(L)


#: sha256 of lie_algebra_to_json of G and N at the default p, recorded
#: while the algebra was still stored as its dense tensor
MODEL_JSON_SHA256 = {
    "G": "e9cc0efde417b04424bf65909e0b2a40e389e9b72dd3bcabbc3b5fb4c666a12e",
    "N": "f402feb189118b407633124adf1fa1901bc86494ac147de969e9b4be67073a6f",
}


def test_model_json_is_byte_identical_to_recorded_digest():
    for name, L in (("G", G), ("N", N)):
        digest = hashlib.sha256(lie_algebra_to_json(L).encode()).hexdigest()
        assert digest == MODEL_JSON_SHA256[name]
