"""Fixtures shared by the test modules: the models at the default p.

They are built by fixtures rather than at import, so that a model build
that raises fails the tests that read the models and no other, and every
test module still loads.  Shared constants and helpers live in shared.py
and dense_reference.py; no test module imports another.
"""

import pytest

from nilcert.models import build_two_step, model_data


@pytest.fixture(scope="module")
def DATA():
    return model_data()


@pytest.fixture(scope="module")
def G():
    # DATA.G itself (build_two_step is cached), built without N so that a
    # fault in N's build leaves the tests of G alone
    return build_two_step()


@pytest.fixture(scope="module")
def N(DATA):
    return DATA.N
