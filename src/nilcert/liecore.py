"""Lie algebras given by structure constants.

An algebra is its dimension and its structure constants c_ij^k, the
coordinates of [b_i, b_j], stored once, sparse and in integers
(``LieAlgebra.table``): the lcm D of all their denominators and, for each
pair (i, j), the nonzero entries (k, D c_ij^k).  The bracket, the Jacobi
scan, the center and the Leibniz system of ``autos`` run on it in plain
ints and visit only nonzero entries; ``Fraction`` appears only in what they
return.  The dense antisymmetric tensor ``sc[i][j]`` of ``Fraction``
coordinates is built only when read.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .qlinalg import (
    Matrix,
    Subspace,
    clear_denominators,
    int_kernel,
    is_zero_vector,
    sparse_rows,
    unit_vector,
    vector,
)

_ZERO = Fraction(0)


class LieAlgebra:
    """An algebra by its structure constants in integers: [b_i, b_j] is the
    sum of t / denom * b_k over the (k, t) in table[i][j], which lists the
    nonzero entries only, by increasing k, and denom is the lcm of their
    lowest-terms denominators (1 when there are none).  That form is
    canonical, so two algebras are equal when dim, denom, table and labels
    are; the dense tensor ``sc`` and the derived data below are computed on
    first use and kept in the instance dict."""

    def __init__(self, dim: int, denom: int,
                 table: tuple[tuple[tuple[tuple[int, int], ...], ...], ...],
                 labels: tuple[str, ...]):
        self.dim, self.denom, self.table, self.labels = dim, denom, table, labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return ((self.dim, self.denom, self.table, self.labels)
                == (other.dim, other.denom, other.table, other.labels))

    def __hash__(self) -> int:
        return hash((self.dim, self.denom, self.table, self.labels))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim}: {', '.join(self.labels)})"

    @cached_property
    def sc(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The full antisymmetric tensor: sc[i][j] holds the coordinates
        of [b_i, b_j]; built on first read."""
        def dense(entries):
            v = [_ZERO] * self.dim
            for k, t in entries:
                v[k] = Fraction(t, self.denom)
            return tuple(v)
        return tuple(tuple(dense(e) for e in row) for row in self.table)

    @cached_property
    def central_series(self) -> tuple[Subspace, ...]:
        """The lower central series from [L, L] (``derived``) on, built on
        first use (see ``lower_central_series``)."""
        full = Subspace.full(self.dim)
        series = [full, self.derived]
        while series[-1].dim:
            # nilpotent: the dims fall strictly, so term dim is zero
            if len(series) > self.dim:
                raise ValueError("algebra is not nilpotent: lower central "
                                 "series did not reach zero")
            series.append(bracket_subspace(self, full, series[-1]))
        return tuple(series)

    @cached_property
    def jacobi_violations(self) -> tuple[tuple[int, int, int], ...]:
        """The basis triples i<j<k violating Jacobi, found on first use.

        [b_a, [b_b, b_c]] has coordinate n equal to the sum over m of
        c_bc^m c_am^n; the three cyclic terms are summed in integers, scaled
        by denom^2, which does not change which sums vanish."""
        table = self.table
        violations = []
        for i, j, k in itertools.combinations(range(self.dim), 3):
            acc: dict[int, int] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                ta = table[a]
                for m, x in table[b][c]:
                    for n, y in ta[m]:
                        acc[n] = acc.get(n, 0) + x * y
            if any(acc.values()):
                violations.append((i, j, k))
        return tuple(violations)

    @cached_property
    def derived(self) -> Subspace:
        """[L, L], the span of the structure constants; built on first use."""
        table = self.table
        return Subspace.from_int_rows(self.dim, (
            dict(table[i][j])
            for i, j in itertools.combinations(range(self.dim), 2)))

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return unit_vector(self.dim, i)


def make_lie_algebra(dim: int,
                     brackets: Mapping[tuple[int, int], Sequence],
                     labels: Sequence[str] | None = None) -> LieAlgebra:
    """Build an algebra from brackets on basis pairs.

    Pairs omitted from ``brackets`` are zero; antisymmetry is filled in, and
    conflicting duplicate pairs are rejected.  Jacobi is NOT verified here;
    callers that need the guarantee run check_jacobi.
    """
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(dim))
    labels = tuple(labels)
    if len(labels) != dim:
        raise ValueError("need one label per basis element")
    given: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for (i, j), coords in brackets.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"basis index out of range in pair ({i}, {j})")
        v = vector(coords)
        if len(v) != dim:
            raise ValueError(f"bracket coordinates for ({i}, {j}) have wrong length")
        if i == j:
            if not is_zero_vector(v):
                raise ValueError(f"[b{i}, b{i}] must be zero")
            continue
        neg = tuple(-x for x in v)
        for (a, b, val) in ((i, j, v), (j, i, neg)):
            if given.setdefault((a, b), val) != val:
                raise ValueError(f"conflicting values given for bracket ({a}, {b})")
    denom = math.lcm(*(x.denominator for v in given.values() for x in v))
    table = tuple(tuple(
        tuple((k, x.numerator * (denom // x.denominator))
              for k, x in enumerate(given.get((i, j), ())) if x)
        for j in range(dim)) for i in range(dim))
    return LieAlgebra(dim, denom, table, labels)


def _int_bracket(L: LieAlgebra, x: dict[int, int],
                 y: dict[int, int]) -> list[int]:
    """denom * [x, y] for integer coordinate maps x and y, over the nonzero
    coordinates and nonzero structure constants only."""
    out = [0] * L.dim
    table = L.table
    for i, xi in x.items():
        ti = table[i]
        for j, yj in y.items():
            c = xi * yj
            for k, t in ti[j]:
                out[k] += c * t
    return out


def bracket(L: LieAlgebra,
            x: Sequence[Fraction],
            y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Bilinear extension of the structure constants."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("element length does not match algebra dimension")
    dx, xi = clear_denominators(enumerate(x))
    dy, yi = clear_denominators(enumerate(y))
    den = L.denom * dx * dy
    return tuple(Fraction(a, den) if a else _ZERO
                 for a in _int_bracket(L, xi, yi))


def check_jacobi(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """All basis triples i<j<k violating the Jacobi identity (empty = pass),
    found once per algebra; every call returns a new list."""
    return list(L.jacobi_violations)


def ad_matrix(L: LieAlgebra, x: Sequence[Fraction]) -> Matrix:
    """Matrix of y -> [x, y] in the algebra basis."""
    return Matrix.from_columns([bracket(L, x, L.basis_vector(j))
                                for j in range(L.dim)])


def bracket_subspace(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of [x, y] over basis pairs of the two subspaces."""
    if a.ambient_dim != L.dim or b.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    return Subspace.from_int_rows(L.dim, (
        {k: v for k, v in enumerate(_int_bracket(L, x, y)) if v}
        for _, x in a.echelon for _, y in b.echelon))


def lower_central_series(L: LieAlgebra) -> list[Subspace]:
    """Descending series, ending at the first zero term; computed once per
    algebra, and every call returns a new list.

    Raises on non-nilpotent input instead of looping: the series of a
    dim-d algebra must reach zero within d steps.
    """
    return list(L.central_series)


def nilpotency_class(L: LieAlgebra) -> int:
    return len(lower_central_series(L)) - 1


def derived_subalgebra(L: LieAlgebra) -> Subspace:
    """[L, L], the span of the structure constants sc[i][j] over i < j,
    computed once per algebra."""
    return L.derived


def center(L: LieAlgebra) -> Subspace:
    """{x : [x, L] = 0}, the kernel of the stacked adjoint maps: one row
    per (j, k), sum_i x_i c_ij^k = 0."""
    d, table = L.dim, L.table
    return int_kernel(sparse_rows(
        (j * d + k, i, t) for j in range(d) for i in range(d)
        for k, t in table[i][j]).values(), d)


def abelian_lie_algebra(n: int) -> LieAlgebra:
    return make_lie_algebra(n, {})


def heisenberg3() -> LieAlgebra:
    """Three-dimensional Heisenberg algebra: [e1, e2] = e3."""
    return make_lie_algebra(3, {(0, 1): (0, 0, 1)}, labels=("x", "y", "z"))


# ---------------------------------------------------------------------------
# JSON interchange for user-supplied algebras
# ---------------------------------------------------------------------------
#
# Schema: {"dim": int, "labels": [str, ...]?, "brackets": [[i, j, coords], ...]}
# where 0 <= dim <= MAX_JSON_DIM, labels (if given) holds dim strings, i
# and j are basis indices, and coords is a list of dim rationals written as
# ints or "num/den" strings.  dim, the indices and integer coordinates must
# be JSON integers: a float or a boolean is rejected, not truncated.
# Omitted pairs are zero; antisymmetry is completed automatically; the
# Jacobi identity is verified on load and violations are reported.  Every
# malformed field raises a ValueError that names it.

#: the largest dim a JSON document may declare; a dim-d algebra's table has
#: d^2 slots at load, its dense tensor ``sc`` d^3 entries when read, and the
#: Jacobi check scans C(d, 3) basis triples, so an unbounded dim would let
#: one small document exhaust memory or time
MAX_JSON_DIM = 128


def _json_int(value, name: str) -> int:
    # bool is a subclass of int, and int() would truncate a float
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_coords(coords, i: int, j: int) -> list[Fraction]:
    name = f"bracket coordinates for ({i}, {j})"
    if not isinstance(coords, list):
        raise ValueError(f"{name} must be a list, got {coords!r}")
    out = []
    for c in coords:
        if isinstance(c, str):
            try:
                out.append(Fraction(c))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{name} hold a malformed rational {c!r}") \
                    from None
        else:
            out.append(Fraction(_json_int(c, name + " entry")))
    return out


def lie_algebra_from_json(source: str | Mapping) -> LieAlgebra:
    data = json.loads(source) if isinstance(source, str) else source
    if not isinstance(data, Mapping):
        raise ValueError(
            f"the algebra document must be a JSON object, got {data!r}")
    # a misspelled "brackets" would otherwise load as the abelian algebra
    unknown = [k for k in data if k not in ("dim", "labels", "brackets")]
    if unknown:
        raise ValueError(f"unknown fields {unknown}: an algebra document has "
                         "only dim, labels and brackets")
    if "dim" not in data:
        raise ValueError("missing field: dim")
    dim = _json_int(data["dim"], "dim")
    if dim < 0:
        raise ValueError(f"dim must be nonnegative, got {dim}")
    if dim > MAX_JSON_DIM:
        raise ValueError(
            f"dim must be at most {MAX_JSON_DIM}, got {dim}: the bracket "
            "table has dim^2 slots and the Jacobi check scans C(dim, 3) "
            "basis triples")
    labels = data.get("labels")
    if labels is not None and (
            not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(x, str) for x in labels)):
        raise ValueError(
            f"labels must be a list of {dim} strings, got {labels!r}")
    entries = data.get("brackets", [])
    if not isinstance(entries, list):
        raise ValueError("brackets must be a list of [i, j, coords] entries, "
                         f"got {entries!r}")
    brackets = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError("each brackets entry must be a list [i, j, coords], "
                             f"got {entry!r}")
        i = _json_int(entry[0], "bracket index i")
        j = _json_int(entry[1], "bracket index j")
        coords = _json_coords(entry[2], i, j)
        if brackets.setdefault((i, j), coords) != coords:
            raise ValueError(f"conflicting values given for bracket ({i}, {j})")
    L = make_lie_algebra(dim, brackets, labels)
    violations = check_jacobi(L)
    if violations:
        raise ValueError(
            f"Jacobi identity fails on basis triples {violations}")
    return L


def lie_algebra_to_json(L: LieAlgebra) -> str:
    entries = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            if L.table[i][j]:
                entries.append([i, j, [str(c) for c in L.sc[i][j]]])
    return json.dumps({"dim": L.dim, "labels": list(L.labels),
                       "brackets": entries})
