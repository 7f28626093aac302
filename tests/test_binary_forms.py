"""Sampled H-elements as binary forms: binary_form_action against the
exterior-square path it replaces, its homomorphism property, the image of
one vector (binary_form_image) against the matrix, and the
once-per-process guard that certifies both."""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilcert import models
from nilcert.autos import sample_action_on_V, sample_h_element
from nilcert.cli import FAIL, Config, Context, run
from nilcert.models import (
    BINARY_FORM_SCALES,
    SL2Element,
    binary_form_action,
    binary_form_image,
    build_W,
    group_action_on_V,
    sym2_embed,
)
from nilcert.qlinalg import Matrix
from nilcert.wedgerep import induced_group_action, quotient_action

from shared import SAMPLED_CHECKS, rationals, record_fraction_matrices


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_binary_forms_equal_the_exterior_square_path(seed):
    w = build_W()
    for i in range(100):
        _, g = sample_h_element(seed, i)
        on_v = group_action_on_V(sym2_embed(g))
        assert binary_form_action(g, 4) == on_v
        assert binary_form_action(g, 6) == quotient_action(
            induced_group_action(on_v), w)


def fraction_binary_form_matrix(g, n):
    """Reference: the Fraction construction the integer one replaced, with
    every entry col[k] * (c_j / c_k) / q^n built as a Fraction."""
    q = math.lcm(g.a.denominator, g.b.denominator, g.c.denominator,
                 g.d.denominator)
    A, B, C, D = (int(x * q) for x in (g.a, g.b, g.c, g.d))
    scales = BINARY_FORM_SCALES[n]
    cols = []
    for j in range(n + 1):
        col = [0] * (n + 1)
        for i in range(n - j + 1):
            for k in range(j + 1):
                col[i + k] += (math.comb(n - j, i) * A ** (n - j - i) * C ** i
                               * math.comb(j, k) * B ** (j - k) * D ** k)
        cols.append([Q(x) * scales[j] / scales[k] / q ** n
                     for k, x in enumerate(col)])
    return Matrix.from_columns(cols)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_integer_binary_forms_equal_the_fraction_construction(seed,
                                                              monkeypatch):
    binary_form_action(SL2Element.identity(), 4)  # the one-time guard
    for i in range(100):
        _, g = sample_h_element(seed, i)
        for degree in (4, 6):
            ref = fraction_binary_form_matrix(g, degree)
            with monkeypatch.context() as mp:
                calls = record_fraction_matrices(mp)
                m = binary_form_action(g, degree)
            assert calls == []  # built from integers
            assert m == ref and m.entries == ref.entries


#: elements whose scaled entries are large, or of the form 2^t - 1, where
#: the largest coefficient of a column comes nearest to its digit width
WIDE_ELEMENTS = [
    *(SL2Element.hyperbolic(s * (2 ** t - 1)) for t in (1, 2, 7, 40)
      for s in (1, -1)),
    SL2Element.hyperbolic(Q(2 ** 40 - 1, 2 ** 33 + 1)),
    SL2Element.upper(2 ** 50 - 1), SL2Element.lower(-(2 ** 50 - 1)),
    SL2Element(Q(2 ** 64 + 3, 7), Q(-5, 2 ** 61 - 1), Q(2 ** 31, 3),
               (1 + Q(-5, 2 ** 61 - 1) * Q(2 ** 31, 3)) / Q(2 ** 64 + 3, 7)),
]


@pytest.mark.parametrize("g", WIDE_ELEMENTS, ids=str)
def test_wide_entries_equal_the_fraction_construction(g):
    for degree in (4, 6):
        assert (binary_form_action(g, degree)
                == fraction_binary_form_matrix(g, degree))


def test_context_samples_read_the_binary_forms():
    ctx = Context(Config(seed=12345))
    for i in range(20):
        kind, g = sample_h_element(12345, i)
        assert ctx.element(i) == (kind, g)
        assert (kind, binary_form_action(g, 4)) == sample_action_on_V(12345, i)


RATIONAL = rationals(-12, 12, 9)
NONZERO = RATIONAL.filter(bool)


@st.composite
def sl2_elements(draw):
    """[[a, b], [c, (1 + bc) / a]] with a != 0, or its product with the
    rotation [[0, -1], [1, 0]], which reaches the elements with a = 0."""
    a, b, c = draw(NONZERO), draw(RATIONAL), draw(RATIONAL)
    g = SL2Element(a, b, c, (1 + b * c) / a)
    return g * SL2Element(0, -1, 1, 0) if draw(st.booleans()) else g


@settings(max_examples=60, deadline=None)
@given(sl2_elements(), sl2_elements())
# products of WIDE_ELEMENTS, whose columns come nearest to the digit
# width: a width one bit short makes the two sides differ in both degrees
@example(SL2Element.hyperbolic(127), SL2Element.hyperbolic(127))
@example(SL2Element.hyperbolic(2 ** 40 - 1),
         SL2Element.hyperbolic(Q(1, 2 ** 40 - 1)))
def test_binary_form_action_is_a_homomorphism(g, h):
    for degree in (4, 6):
        assert (binary_form_action(g * h, degree)
                == binary_form_action(g, degree) * binary_form_action(h, degree))


@st.composite
def sparse_int_vectors(draw, n):
    """A unit vector, or up to three nonzero integer entries of Q^(n+1)."""
    if draw(st.booleans()):
        return {draw(st.integers(0, n)): 1}
    return draw(st.dictionaries(st.integers(0, n),
                                st.integers(-10 ** 6, 10 ** 6).filter(bool),
                                min_size=1, max_size=3))


@settings(max_examples=80, deadline=None)
@given(sl2_elements(), st.data())
def test_binary_form_image_is_a_positive_multiple_of_the_matrix_image(g,
                                                                      data):
    for degree in (4, 6):
        v = data.draw(sparse_int_vectors(degree))
        image = binary_form_image(g, degree, v)
        ref = binary_form_action(g, degree).int_apply(v)
        assert ref and image.keys() == ref.keys()
        k = next(iter(ref))
        t = Q(image[k], ref[k])
        assert t > 0 and all(image[j] == t * ref[j] for j in ref)


def test_binary_form_action_of_the_identity_is_the_identity():
    for degree in (4, 6):
        assert (binary_form_action(SL2Element.identity(), degree)
                == Matrix.identity(degree + 1))


def test_the_guard_runs_once_and_only_when_a_sample_is_built():
    models._certify_binary_forms.cache_clear()
    run(["jacobi.N", "p.line-stabilizer-zero", "thm.stabilizer-dim4"],
        Config(seed=3))
    assert models._certify_binary_forms.cache_info().misses == 0
    run(SAMPLED_CHECKS, Config(seed=3, trials=5))
    info = models._certify_binary_forms.cache_info()
    assert info.misses == 1 and info.hits > 0


PERTURBATIONS = [(degree, k) for degree, scales in BINARY_FORM_SCALES.items()
                 for k in range(len(scales))]


@pytest.mark.parametrize("degree, k", PERTURBATIONS)
def test_a_perturbed_scale_makes_the_sampled_checks_fail(monkeypatch,
                                                          degree, k):
    scales = list(BINARY_FORM_SCALES[degree])
    scales[k] *= Q(3, 2)
    monkeypatch.setitem(BINARY_FORM_SCALES, degree, tuple(scales))
    models._certify_binary_forms.cache_clear()
    try:
        with pytest.raises(AssertionError, match="binary forms disagree"):
            binary_form_action(SL2Element.hyperbolic(2), 4)
        report = run(SAMPLED_CHECKS, Config(trials=10))
        assert [r.status for r in report.results] == [FAIL] * 3
        assert all("binary forms disagree" in r.actual
                   for r in report.results)
    finally:
        models._certify_binary_forms.cache_clear()
