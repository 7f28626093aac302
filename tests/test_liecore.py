import hashlib
import itertools
import json
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as Q

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
    non_alternating_pair,
)
from nilcert.models import build_three_step, vprime_to_algebra
from nilcert.qlinalg import Subspace, is_nilpotent, unit_vector

from dense_reference import dense_tensor
from shared import load_workloads


def lcs_dims(L):
    return [s.dim for s in lower_central_series(L)]


# ------------------------------------------------------------------- bracket

def test_bracket_basis_pairs(G):
    e = [G.basis_vector(i) for i in range(12)]
    # [s1, s2] = p12 (index 5)
    assert bracket(G, e[0], e[1]) == unit_vector(12, 5)
    # identifications: [s1, s4] = [s2, s3], [s1, s5] = [s2, s4]
    assert bracket(G, e[0], e[3]) == bracket(G, e[1], e[2])
    assert bracket(G, e[0], e[4]) == bracket(G, e[1], e[3])


def test_bracket_antisymmetric_bilinear_randomized(N):
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


def test_bracket_dimension_mismatch(G):
    with pytest.raises(ValueError):
        bracket(G, (Q(1),) * 11, (Q(0),) * 12)


def test_element_wrapper(N):
    # elements are coordinate tuples: [s1, p12] = p13 + p45 in N
    x, y = N.basis_vector(0), N.basis_vector(5)
    assert bracket(N, x, y) == vprime_to_algebra((0, 1, 0, 0, 0, 0, 1))


# -------------------------------------------------------------------- jacobi

def test_jacobi_shipped_models(G, N):
    assert check_jacobi(G) == []
    assert check_jacobi(N) == []


def test_jacobi_violating_mutation(N):
    # adding [s3, p12] = p13 on top of N's brackets breaks Jacobi at
    # (s1, s2, s3): the cyclic sum picks up the new hook through [s1, s2] = p12
    sc = dense_tensor(N)
    brackets = {}
    for i in range(12):
        for j in range(i + 1, 12):
            v = sc[i][j]
            if any(c != 0 for c in v):
                brackets[(i, j)] = v
    brackets[(2, 5)] = unit_vector(12, 6)
    mutated = make_lie_algebra(12, brackets, N.labels)
    assert (0, 1, 2) in check_jacobi(mutated)


def test_jacobi_second_hook_still_lie(N):
    # [s2, p12] = p13 leaves every cyclic sum zero: each summand needs a
    # bracket with p12-component, which only [s1, s2] has, and the third
    # element of such a triple never carries the new hook
    sc = dense_tensor(N)
    brackets = {}
    for i in range(12):
        for j in range(i + 1, 12):
            v = sc[i][j]
            if any(c != 0 for c in v):
                brackets[(i, j)] = v
    brackets[(1, 5)] = unit_vector(12, 6)
    mutated = make_lie_algebra(12, brackets, N.labels)
    assert check_jacobi(mutated) == []


# ------------------------------------------------------- lower central series

def test_lcs_abelian():
    assert lcs_dims(abelian_lie_algebra(3)) == [3, 0]
    assert nilpotency_class(abelian_lie_algebra(3)) == 1


def test_lcs_shipped_models(G, N):
    assert lcs_dims(G) == [12, 7, 0]
    assert lcs_dims(N) == [12, 7, 1, 0]
    assert nilpotency_class(G) == 2
    assert nilpotency_class(N) == 3


def test_lcs_non_nilpotent_rejected():
    # [e1, e2] = e2 is solvable but not nilpotent
    L = make_lie_algebra(2, {(0, 1): (0, 1)})
    with pytest.raises(ValueError, match="not nilpotent"):
        lower_central_series(L)


def test_lcs_terms_are_ideals_and_last_is_central(G, N):
    for L in (G, N, heisenberg3()):
        series = lower_central_series(L)
        full = Subspace.full(L.dim)
        for term in series[1:]:
            image = bracket_subspace(L, full, term)
            assert term.contains_subspace(image)
        last_nonzero = series[-2]
        assert center(L).contains_subspace(last_nonzero)


# -------------------------------------------------------------------- center

def test_center_dims(G, N):
    assert center(abelian_lie_algebra(4)) == Subspace.full(4)
    # G: all of V'; N: p12 is no longer central because [s1, p12] = p
    assert center(G) == Subspace.span(12, [unit_vector(12, k) for k in range(5, 12)])
    assert center(N) == Subspace.span(12, [unit_vector(12, k) for k in range(6, 12)])


# ------------------------------------------------------------------ ad_matrix

def test_ad_matrix_hook(N):
    ad_s1 = ad_matrix(N, N.basis_vector(0))
    assert ad_s1.apply(N.basis_vector(5)) == vprime_to_algebra((0, 1, 0, 0, 0, 0, 1))
    # p13 (index 6) sits inside L, hence is central
    assert ad_matrix(N, N.basis_vector(6)).is_zero()


def test_ad_matrices_nilpotent(G, N):
    for L in (G, N):
        for i in range(L.dim):
            assert is_nilpotent(ad_matrix(L, L.basis_vector(i)))


# ----------------------------------------------------------- bracket_subspace

def test_bracket_subspace(G, N):
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
    assert dense_tensor(L) == dense_tensor(heisenberg3())
    assert L.labels == ("x", "y", "z")


def test_equal_algebras_compare_and_hash_equal(G, N):
    for L in (heisenberg3(), G, N):
        twin = lie_algebra_from_json(lie_algebra_to_json(L))
        assert twin is not L and twin == L and hash(twin) == hash(L)
        assert len({L, twin}) == 1
    assert build_three_step() == N and hash(build_three_step()) == hash(N)
    # dim, the brackets and labels each take part in the comparison
    relabeled = make_lie_algebra(3, {(0, 1): (0, 0, 1)}, ("a", "b", "c"))
    assert (dense_tensor(relabeled) == dense_tensor(heisenberg3())
            and relabeled != heisenberg3())
    assert G != N and abelian_lie_algebra(2) != abelian_lie_algebra(3)
    assert heisenberg3() != heisenberg3().table


def test_json_load_with_rational_strings():
    L = lie_algebra_from_json(json.dumps({
        "dim": 3,
        "brackets": [[0, 1, ["0", "0", "1/2"]]],
    }))
    assert bracket(L, L.basis_vector(0), L.basis_vector(1)) == (Q(0), Q(0), Q(1, 2))
    # antisymmetry was completed automatically
    assert bracket(L, L.basis_vector(1), L.basis_vector(0)) == (Q(0), Q(0), Q(-1, 2))


def test_json_load_rejects_jacobi_violation(N):
    sc = dense_tensor(N)
    entries = []
    for i in range(12):
        for j in range(i + 1, 12):
            v = sc[i][j]
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


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"dim": 2, "brackets": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=("top-level", "inside-brackets"))
def test_json_load_rejects_a_document_that_nests_too_deeply(text):
    with pytest.raises(ValueError, match="nests too deeply"):
        lie_algebra_from_json(text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=5)
RETYPED = st.sampled_from(["3", 3.0, True, None, {"dim": 3}])
COORDS = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4).map(str)
NESTED = "nested"  # where a deeply nested value is spliced into JSON text


@st.composite
def algebra_documents(draw):
    """An algebra document with dim <= 5, as JSON text or as the object it
    parses to: a valid one (2-step, so that Jacobi holds, or with brackets
    anywhere, which may break it), or one in which the document, a field or
    one brackets entry is mutated, retyped, repeated or deeply nested."""
    dim, two_step = draw(st.integers(0, 5)), draw(st.booleans())
    lo = draw(st.integers(0, dim)) if two_step else 0
    doc = {"dim": dim, "brackets": [
        [i, j, [0] * lo + draw(st.lists(COORDS, min_size=dim - lo,
                                        max_size=dim - lo))]
        for i, j in itertools.combinations(range(lo if two_step else dim), 2)
        if draw(st.booleans())]}
    if draw(st.booleans()):
        doc["labels"] = [f"x{k}" for k in range(dim)]
    box = [doc]  # a holder for the document, so that it can be changed too
    field = draw(st.sampled_from(["document", "dim", "labels", "brackets"]
                                 + ["entry"] * bool(doc["brackets"])))
    if field == "document":
        holder, key = box, 0
    elif field == "entry":
        holder = draw(st.sampled_from(doc["brackets"]))
        key = draw(st.integers(0, 2))
    else:
        holder, key = doc, field
    value = holder.get(key) if holder is doc else holder[key]
    change = draw(st.sampled_from(["none", "mutate", "retype", "repeat",
                                   "nest"]))
    depth = draw(st.sampled_from([1, 3, 20_000])) if change == "nest" else 0
    if change == "mutate":
        holder[key] = draw(JSON_VALUES)
    elif change == "retype":
        holder[key] = draw(RETYPED)
    elif change == "repeat" and field == "entry":
        doc["brackets"].append(list(holder))
    elif change == "repeat" and holder is doc:
        # only JSON text can give a field twice
        return '{"%s": %s, %s' % (field, json.dumps(value),
                                  json.dumps(doc)[1:])
    elif depth:
        holder[key] = NESTED
    if draw(st.booleans()):
        # json.dumps would recurse through the nesting, so it is spliced in
        return json.dumps(box[0]).replace(
            json.dumps(NESTED), "[" * depth + json.dumps(value) + "]" * depth)
    if depth:
        for _ in range(depth):
            value = [value]
        holder[key] = value
    return box[0]


@settings(max_examples=100, deadline=None)
@given(algebra_documents())
def test_the_loader_returns_a_round_tripping_algebra_or_raises_value_error(
        doc):
    try:
        L = lie_algebra_from_json(doc)
    except ValueError:
        return
    text = lie_algebra_to_json(L)
    assert lie_algebra_from_json(text) == L
    assert lie_algebra_to_json(lie_algebra_from_json(text)) == text


def test_json_load_accepts_dimension_zero():
    assert lie_algebra_from_json('{"dim": 0}').dim == 0


def test_zero_algebra_series_is_one_zero_term():
    L = lie_algebra_from_json('{"dim": 0}')
    assert lower_central_series(L) == [Subspace.zero(0)]
    assert nilpotency_class(L) == 0


def test_json_load_rejects_repeated_labels():
    with pytest.raises(ValueError, match="distinct: 'x' is repeated"):
        lie_algebra_from_json('{"dim": 2, "labels": ["x", "x"]}')
    with pytest.raises(ValueError, match="'y' is repeated"):
        lie_algebra_from_json({"dim": 4, "labels": ["x", "y", "z", "y"]})
    assert lie_algebra_from_json(
        '{"dim": 2, "labels": ["x", "X"]}').labels == ("x", "X")


def test_the_builder_rejects_repeated_labels():
    # so lie_algebra_to_json never writes a document the loader rejects
    with pytest.raises(ValueError, match="distinct: 'x' is repeated"):
        make_lie_algebra(2, {}, ["x", "x"])
    L = make_lie_algebra(2, {}, ["x", "X"])
    assert lie_algebra_from_json(lie_algebra_to_json(L)) == L


def test_json_load_rejects_a_misspelled_field():
    # "bracket" for "brackets" used to load as the abelian algebra
    with pytest.raises(ValueError, match=r"unknown fields \['bracket'\]"):
        lie_algebra_from_json('{"dim": 3, "bracket": [[0, 1, [0, 0, 1]]]}')


@pytest.mark.parametrize("text, key", [
    ('{"dim": 3, "dim": 2}', "dim"),
    ('{"dim": 3, "brackets": [[0, 1, [0, 0, 1]]], "brackets": []}',
     "brackets"),
    ('{"dim": 2, "labels": ["a", "b"], "labels": ["x", "y"]}', "labels"),
])
def test_json_load_rejects_a_repeated_field(text, key):
    # json.loads keeps the last value, so these loaded dim 2, the abelian
    # algebra and the labels x, y
    with pytest.raises(ValueError,
                       match=f"the field '{key}' is given more than once"):
        lie_algebra_from_json(text)


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
    assert dense_tensor(L) == dense_tensor(heisenberg3())


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


#: every accepted coordinate form and its value: JSON integers, and strings
#: "n" or "n/d" over ASCII digits with an optional minus sign and d != 0
ACCEPTED_COORDINATES = [
    ("3", Q(3)), ("-3", Q(-3)), ("03", Q(3)), ("-1/2", Q(-1, 2)),
    ("6/4", Q(3, 2)), ("0/5", Q(0)), (3, Q(3)), (-3, Q(-3)), (0, Q(0)),
]


@pytest.mark.parametrize("coord, value", ACCEPTED_COORDINATES)
def test_json_coordinates_load_as_the_rationals_they_write(coord, value):
    # [e0, e1] = c e2 and [e0, e2] = c e1: Jacobi holds for every c
    L = lie_algebra_from_json({"dim": 3, "brackets": [
        [0, 1, [0, "0", coord]], [0, 2, ["0", coord, 0]]]})
    assert L == make_lie_algebra(3, {(0, 1): (Q(0), Q(0), value),
                                     (0, 2): (Q(0), value, Q(0))})
    sc = dense_tensor(L)
    assert sc[0][1][2] == value and sc[2][0][1] == -value


#: strings that Fraction() reads (" 3", "+3", "1.5", "1e3", "3_0" and the
#: Arabic-Indic digit three) but the grammar does not, then malformed ones
REJECTED_COORDINATES = [" 3", "+3", "1.5", "1e3", "3_0", "\u0663", "3\n",
                        "--3", "1/0", "1/-2", ""]


@pytest.mark.parametrize("coord", REJECTED_COORDINATES)
def test_json_coordinates_outside_the_grammar_are_rejected(coord):
    with pytest.raises(ValueError, match=r"bracket coordinates for \(0, 1\)"):
        lie_algebra_from_json({"dim": 3, "brackets": [[0, 1, [0, 0, coord]]]})


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit bound before Python 3.10.7")
def test_a_coordinate_with_more_digits_than_int_reads_names_the_bound():
    # in the grammar, but int() converts at most
    # sys.get_int_max_str_digits() digits of a string
    bound = sys.get_int_max_str_digits()
    assert bound > 0
    for coord in ("1" * (bound + 1), "-1/" + "2" * (bound + 1),
                  "0" * (bound + 1) + "/3"):
        with pytest.raises(ValueError) as info:
            lie_algebra_from_json(
                {"dim": 3, "brackets": [[0, 1, [0, 0, coord]]]})
        message = str(info.value)
        assert message.startswith("bracket coordinates for (0, 1): ")
        assert f"{bound + 1} digits, more than the {bound}" in message
        assert "sys.get_int_max_str_digits()" in message
        assert f"({len(coord)} characters)" in message
        assert "malformed" not in message and "not a rational" not in message
        assert len(message) < 200
    # the bound itself is read
    L = lie_algebra_from_json({"dim": 3, "brackets": [
        [0, 1, [0, 0, "1" * bound]], [0, 2, [0, "1" * bound, 0]]]})
    assert dense_tensor(L)[0][1][2] == int("1" * bound)


def _long_literal_documents(literal: str) -> list[tuple[str, str]]:
    """(field name, JSON text) with the integer literal in that field."""
    return [
        ("dim", f'{{"dim": {literal}}}'),
        ("bracket index i", f'{{"dim": 3, "brackets": [[{literal}, 1, [0, 0, 1]]]}}'),
        ("bracket index j", f'{{"dim": 3, "brackets": [[0, {literal}, [0, 0, 1]]]}}'),
        ("bracket coordinates for (0, 1) entry",
         f'{{"dim": 3, "brackets": [[0, 1, [0, 0, {literal}]]]}}'),
    ]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit bound before Python 3.10.7")
@pytest.mark.parametrize("sign", ["", "-"])
def test_a_json_integer_with_more_digits_than_int_reads_names_its_field(sign):
    # json.loads alone raises int()'s own message, which names no field
    bound = sys.get_int_max_str_digits()
    literal = sign + "7" * (bound + 1)
    for field, text in _long_literal_documents(literal):
        with pytest.raises(ValueError) as info:
            lie_algebra_from_json(text)
        message = str(info.value)
        assert message == (
            f"{field} {literal[:16]!r}... ({len(literal)} characters) has "
            f"{bound + 1} digits, more than the {bound} that "
            "sys.get_int_max_str_digits() lets int() read")
        assert "Exceeds the limit" not in message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit bound before Python 3.10.7")
def test_a_json_integer_at_the_digit_bound_is_read():
    bound = sys.get_int_max_str_digits()
    L = lie_algebra_from_json(
        f'{{"dim": 3, "brackets": [[0, 1, [0, 0, {"1" * bound}]], '
        f'[0, 2, [0, -{"1" * bound}, 0]]]}}')
    sc = dense_tensor(L)
    assert sc[0][1][2] == int("1" * bound) == -sc[0][2][1]
    # a long literal where no integer belongs is echoed short, not in full
    with pytest.raises(ValueError, match=r"labels must be a list of 3 strings, "
                       r"got \['x', 'y', <integer literal '7777777777777777'"
                       r"\.\.\. \(\d+ characters\)>\]"):
        lie_algebra_from_json(f'{{"dim": 3, "labels": ["x", "y", '
                              f'{"7" * (bound + 1)}]}}')


def test_a_long_coordinate_outside_the_grammar_is_echoed_short():
    with pytest.raises(ValueError) as info:
        lie_algebra_from_json({"dim": 3, "brackets": [[0, 1, [0, 0,
                                                               "x" * 5000]]]})
    assert str(info.value) == ("bracket coordinates for (0, 1): "
                               "'xxxxxxxxxxxxxxxx'... (5000 characters) is "
                               "not a rational number")


LONG_INT = int("7" * 4000)

#: (field the message must name, document) for each site that echoes a
#: value it was given, each with a value whose repr is far past 80 characters
LONG_ECHOES = [
    ("each brackets entry", {"dim": 3, "brackets": [[0, 1, [0, 0, 1],
                                                     [7] * 100000]]}),
    ("labels", {"dim": 3, "labels": ["x"] * 50000}),
    ("the algebra document", [7] * 100000),
    ("brackets must be a list", {"dim": 3, "brackets": {"k": [7] * 100000}}),
    ("bracket coordinates for (0, 1)",
     {"dim": 3, "brackets": [[0, 1, {"k": [7] * 100000}]]}),
    ("unknown fields", {"dim": 3, "x" * 100000: 1}),
    ("dim must be a JSON integer", {"dim": [7] * 100000}),
    ("dim must be nonnegative", {"dim": -LONG_INT}),
    ("dim must be at most", {"dim": LONG_INT}),
    ("bracket index i", {"dim": 3, "brackets": [[[7] * 100000, 1, [0]]]}),
    ("bracket coordinates for (0, 1) entry",
     {"dim": 3, "brackets": [[0, 1, [0, 0, [7] * 100000]]]}),
    ("conflicting values given for bracket",
     {"dim": 3, "brackets": [[LONG_INT, 1, [0]], [LONG_INT, 1, [1]]]}),
    ("basis index out of range", {"dim": 3, "brackets": [[LONG_INT, 1, []]]}),
    ("labels must be distinct", {"dim": 2, "labels": ["x" * 100000] * 2}),
    ("the field", '{"%s": 1, "%s": 2}' % ("k" * 100000, "k" * 100000)),
]


@pytest.mark.parametrize("field, document", LONG_ECHOES,
                         ids=[f for f, _ in LONG_ECHOES])
def test_a_long_value_is_echoed_short_in_its_field(field, document):
    with pytest.raises(ValueError) as info:
        lie_algebra_from_json(document)
    message = str(info.value)
    assert message.startswith(field) and "characters)" in message
    assert len(message) < 200


def test_the_echo_quotes_a_repr_of_80_characters_whole():
    assert liecore._echo([77] * 20) == repr([77] * 20)  # 80 characters
    assert liecore._echo([77] * 21) == f"{repr([77] * 20)[:48]}... (84 characters)"
    assert liecore._echo("x" * 78) == repr("x" * 78)
    assert liecore._echo("x" * 79) == "'xxxxxxxxxxxxxxxx'... (79 characters)"


def test_json_load_accepts_integer_and_string_coordinates_and_labels():
    L = lie_algebra_from_json({"dim": 3, "labels": ["x", "y", "z"],
                               "brackets": [[0, 1, [0, "0", "-1/2"]]]})
    assert L.labels == ("x", "y", "z")
    assert dense_tensor(L)[0][1] == (Q(0), Q(0), Q(-1, 2))


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
    assert dense_tensor(A) == dense(dim, values)
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
    same = dense_tensor(A) == dense_tensor(C) and A.labels == C.labels
    assert (A == C) == same and (C == A) == same
    if same:
        assert hash(A) == hash(C)


#: sha256 of lie_algebra_to_json of G and N at the default p, recorded
#: while the algebra was still stored as its dense tensor
MODEL_JSON_SHA256 = {
    "G": "e9cc0efde417b04424bf65909e0b2a40e389e9b72dd3bcabbc3b5fb4c666a12e",
    "N": "f402feb189118b407633124adf1fa1901bc86494ac147de969e9b4be67073a6f",
}


def test_model_json_is_byte_identical_to_recorded_digest(G, N):
    for name, L in (("G", G), ("N", N)):
        digest = hashlib.sha256(lie_algebra_to_json(L).encode()).hexdigest()
        assert digest == MODEL_JSON_SHA256[name]


def _with_entry(L, i, j, entries):
    table = [list(row) for row in L.table]
    table[i][j] = entries
    return liecore.LieAlgebra(L.dim, L.denom, tuple(map(tuple, table)),
                              L.labels)


def test_a_table_that_is_not_alternating_is_found_where_jacobi_is_blind(G, N):
    assert non_alternating_pair(G) is None and non_alternating_pair(N) is None
    # [p12, s1] = +[s1, p12], and [s1, s1] = p45: the Jacobi scan of the
    # triples i < j < k reads neither
    s1, p12 = 0, 5
    plus_h = _with_entry(N, p12, s1, N.table[s1][p12])
    square = _with_entry(N, s1, s1, ((11, 1),))
    assert check_jacobi(plus_h) == [] and check_jacobi(square) == []
    assert non_alternating_pair(plus_h) == (s1, p12)
    assert non_alternating_pair(square) == (s1, s1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5).flatmap(lambda d: st.tuples(st.just(d), st.lists(
    st.tuples(st.integers(0, d - 1), st.integers(0, d - 1),
              st.lists(st.fractions(-5, 5, max_denominator=4),
                       min_size=d, max_size=d)),
    max_size=8) if d else st.just([]))))
def test_every_algebra_make_lie_algebra_builds_is_alternating(drawn):
    dim, entries = drawn
    brackets = {(i, j): v for i, j, v in entries if i < j}
    brackets.update(((i, i), [0] * dim) for i, _, _ in entries)
    assert non_alternating_pair(make_lie_algebra(dim, brackets)) is None
