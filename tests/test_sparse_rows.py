"""``qlinalg.sparse_rows``, the one row builder behind the Leibniz, center,
commutant and wedge-derivation systems, the helpers that share its sparse
integer form (``weighted_sum`` and ``Subspace.embed``), and the import
boundaries between the modules."""

import ast
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcert.models import build_W, subspace_in_algebra, vprime_to_algebra
from nilcert.qlinalg import (
    Matrix,
    Subspace,
    sparse_rows,
    unit_vector,
    weighted_sum,
)
from nilcert.wedgerep import derivation_images, induced_algebra_action

from dense_reference import wedge_derivation

SRC = Path(__file__).resolve().parents[1] / "src" / "nilcert"


def test_sparse_rows_sums_cancels_drops_and_orders():
    rows = sparse_rows([
        (3, 0, 2), (1, 4, 1), (3, 0, 5),   # summed: row 3 col 0 is 7
        (2, 1, 4), (2, 1, -4),             # cancelled: row 2 is empty
        (1, 2, -3), (1, 4, -1),            # row 1 col 4 cancels, col 2 stays
        (0, 5, 0),                         # a zero term leaves no row
    ])
    assert rows == {1: {2: -3}, 3: {0: 7}}
    assert list(rows) == [1, 3]


def test_sparse_rows_orders_rows_by_key_not_by_first_term():
    rows = sparse_rows([((2, 0), 1, 1), ((0, 3), 0, 1), ((1, 1), 2, 1),
                        ((0, 1), 0, 1)])
    assert list(rows) == [(0, 1), (0, 3), (1, 1), (2, 0)]
    assert sparse_rows([]) == {}


def test_weighted_sum_over_sparse_vectors():
    vectors = [{0: 1, 2: 3}, {}, {2: -1, 5: 2}]
    assert weighted_sum({0: 2, 2: 6}, vectors) == {0: 2, 5: 12}
    assert weighted_sum({1: 9}, vectors) == {}
    assert weighted_sum({}, vectors) == {}


def test_embed_shifts_the_canonical_rows():
    s = Subspace.span(3, [(1, Q(1, 2), 0), (0, 0, 2)])
    e = s.embed(6, 2)
    assert e == Subspace.span(6, [(0, 0, 1, Q(1, 2), 0, 0),
                                  (0, 0, 0, 0, 1, 0)])
    assert s.embed(3, 0) == s
    with pytest.raises(ValueError, match="does not fit"):
        s.embed(4, 2)


def test_subspace_in_algebra_equals_the_spanned_embedding():
    for s in (Subspace.span(7, [unit_vector(7, k) for k in range(1, 7)]),
              Subspace.span(7, [(0, 1, Q(-1, 2), 0, 3, 0, 1)]),
              Subspace.zero(7), Subspace.full(7)):
        assert subspace_in_algebra(s) == Subspace.span(
            12, [vprime_to_algebra(b) for b in s.basis_vectors()])
    with pytest.raises(ValueError):
        subspace_in_algebra(build_W())


@st.composite
def matrix_and_wedge_vector(draw):
    n = draw(st.integers(3, 5))
    x = draw(st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n))
    m = n * (n - 1) // 2
    u = draw(st.dictionaries(st.integers(0, m - 1),
                             st.integers(-5, 5).filter(bool), max_size=m))
    return n, x, u


@settings(max_examples=60, deadline=None)
@given(matrix_and_wedge_vector())
def test_induced_action_is_the_weighted_sum_of_the_unit_images(case):
    n, x, u = case
    act = induced_algebra_action(Matrix.from_ints(n, n, x))
    images = derivation_images(u, n)
    assert len(images) == n * n
    assert all(all(image.values()) for image in images)  # zeros dropped
    assert act.int_apply(u) == weighted_sum(dict(enumerate(x)), images)
    # both read one table, so check it against the definition too
    assert act == wedge_derivation(Matrix.from_ints(n, n, x))


def _imports(path):
    """(module, name) for every ``from .module import name`` in path."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names]


def test_no_module_imports_another_modules_private_name():
    found = [(path.name, mod, name) for path in sorted(SRC.glob("*.py"))
             for mod, name in _imports(path)
             if name.startswith("_") and name != "__version__"]
    assert found == []


def test_models_imports_nothing_from_autos():
    assert [mod for mod, _ in _imports(SRC / "models.py")
            if mod == "autos"] == []


def test_the_cli_leaves_the_choice_of_derivation_method_to_autos():
    names = {name for mod, name in _imports(SRC / "cli.py") if mod == "autos"}
    assert "derivation_algebra" in names
    assert not names & {"hook_free_derivations", "HOOK_PAIRS"}
