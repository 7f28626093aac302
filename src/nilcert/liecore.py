"""Lie algebras given by structure constants.

An algebra is its dimension plus the full antisymmetric bracket tensor
``sc[i][j]`` = coordinates of [b_i, b_j].  Everything downstream (central
series, centers, derivations) is exact rational linear algebra on that
tensor.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .qlinalg import (
    Matrix,
    Subspace,
    is_zero_vector,
    kernel_basis,
    qf,
    unit_vector,
    vec_add,
    vec_scale,
    vector,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    sc: tuple[tuple[tuple[Fraction, ...], ...], ...]
    labels: tuple[str, ...]

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim}: {', '.join(self.labels)})"

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return unit_vector(self.dim, i)

    def label_index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class Element:
    algebra: LieAlgebra
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.algebra.dim:
            raise ValueError("coordinate length does not match algebra dimension")

    def bracket(self, other: "Element") -> "Element":
        if other.algebra is not self.algebra:
            raise ValueError("elements belong to different algebras")
        return Element(self.algebra,
                       bracket(self.algebra, self.coords, other.coords))

    def __add__(self, other: "Element") -> "Element":
        return Element(self.algebra, vec_add(self.coords, other.coords))

    def scale(self, c) -> "Element":
        return Element(self.algebra, vec_scale(qf(c), self.coords))


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
    table: list[list[tuple[Fraction, ...] | None]] = [
        [None] * dim for _ in range(dim)]
    zero = tuple([_ZERO] * dim)
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
            if table[a][b] is not None and table[a][b] != val:
                raise ValueError(f"conflicting values given for bracket ({a}, {b})")
            table[a][b] = val
    sc = tuple(tuple(table[i][j] if table[i][j] is not None else zero
                     for j in range(dim))
               for i in range(dim))
    return LieAlgebra(dim, sc, labels)


def bracket(L: LieAlgebra,
            x: Sequence[Fraction],
            y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Bilinear extension of the structure constants."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("element length does not match algebra dimension")
    out = [_ZERO] * L.dim
    sc = L.sc
    for i, xi in enumerate(x):
        if not xi:
            continue
        sci = sc[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            cij = sci[j]
            c = xi * yj
            for k, ck in enumerate(cij):
                if ck:
                    out[k] += c * ck
    return tuple(out)


def check_jacobi(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """All basis triples i<j<k violating the Jacobi identity (empty = pass)."""
    violations = []
    basis = [L.basis_vector(i) for i in range(L.dim)]
    for i, j, k in itertools.combinations(range(L.dim), 3):
        s = vec_add(
            bracket(L, basis[i], bracket(L, basis[j], basis[k])),
            vec_add(
                bracket(L, basis[j], bracket(L, basis[k], basis[i])),
                bracket(L, basis[k], bracket(L, basis[i], basis[j]))))
        if not is_zero_vector(s):
            violations.append((i, j, k))
    return violations


def ad_matrix(L: LieAlgebra, x: Sequence[Fraction]) -> Matrix:
    """Matrix of y -> [x, y] in the algebra basis."""
    cols = [bracket(L, x, L.basis_vector(j)) for j in range(L.dim)]
    return Matrix(L.dim, L.dim,
                  (cols[j][i] for i in range(L.dim) for j in range(L.dim)))


def bracket_subspace(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of [x, y] over basis pairs of the two subspaces."""
    if a.ambient_dim != L.dim or b.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    products = [bracket(L, x, y)
                for x in a.basis_vectors() for y in b.basis_vectors()]
    return Subspace.span(L.dim, products)


def lower_central_series(L: LieAlgebra) -> list[Subspace]:
    """Descending series, ending at the first zero term.

    Raises on non-nilpotent input instead of looping: the series of a
    dim-d algebra must reach zero within d steps.
    """
    full = Subspace.full(L.dim)
    series = [full]
    current = full
    for _ in range(L.dim + 1):
        current = bracket_subspace(L, full, current)
        series.append(current)
        if current.dim == 0:
            return series
    raise ValueError("algebra is not nilpotent: lower central series "
                     "did not reach zero")


def nilpotency_class(L: LieAlgebra) -> int:
    return len(lower_central_series(L)) - 1


def derived_subalgebra(L: LieAlgebra) -> Subspace:
    """[L, L], the span of the structure constants sc[i][j] over i < j."""
    return Subspace.span(L.dim, [L.sc[i][j] for i, j in
                                 itertools.combinations(range(L.dim), 2)])


def center(L: LieAlgebra) -> Subspace:
    """{x : [x, L] = 0}, the kernel of the stacked adjoint maps."""
    rows = []
    for j in range(L.dim):
        # row block: x -> [x, b_j], i.e. columns are ad(b_i) applied to b_j
        for k in range(L.dim):
            rows.append([L.sc[i][j][k] for i in range(L.dim)])
    return kernel_basis(Matrix.from_rows(rows))


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
# where coords is a list of dim rationals written as ints or "num/den" strings.
# Omitted pairs are zero; antisymmetry is completed automatically; the Jacobi
# identity is verified on load and violations are reported.

def lie_algebra_from_json(source: str | Mapping) -> LieAlgebra:
    data = json.loads(source) if isinstance(source, str) else source
    if "dim" not in data:
        raise ValueError("missing field: dim")
    dim = int(data["dim"])
    labels = data.get("labels")
    brackets = {}
    for entry in data.get("brackets", ()):
        try:
            i, j, coords = entry
        except (TypeError, ValueError):
            raise ValueError(f"malformed bracket entry: {entry!r}") from None
        brackets[(int(i), int(j))] = [qf(c) for c in coords]
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
            if not is_zero_vector(L.sc[i][j]):
                entries.append([i, j, [str(c) for c in L.sc[i][j]]])
    return json.dumps({"dim": L.dim, "labels": list(L.labels),
                       "brackets": entries})
