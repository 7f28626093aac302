"""The exterior square of a column space, with induced actions.

Basis of wedge^2 Q^n: e_i ^ e_j over lexicographically ordered pairs i < j.
The coordinate of u ^ v at pair (i, j) is u_i v_j - u_j v_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .qlinalg import (
    Matrix,
    QuotientMap,
    Subspace,
    clear_denominators,
    int_kernel,
    kernel_basis,
    qf,
    unit_vector,
)


class NotInvariantError(ValueError):
    """A subspace expected to be invariant is moved; carries a witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class WedgeBasis:
    n: int
    pairs: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "pairs",
            tuple((i, j) for i in range(self.n) for j in range(self.n) if i < j))

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def pair_index(self, i: int, j: int) -> int:
        if i >= j:
            raise ValueError("pair index wants i < j")
        return self.pairs.index((i, j))


@dataclass(frozen=True)
class GeneratorSet:
    """Labeled square matrices acting on a common space."""

    labels: tuple[str, ...]
    matrices: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.matrices):
            raise ValueError("one label per matrix")
        sizes = {(m.rows, m.cols) for m in self.matrices}
        if len(sizes) > 1:
            raise ValueError("generators act on different spaces")
        for m in self.matrices:
            if not m.is_square:
                raise ValueError("generators must be square")

    @property
    def dim(self) -> int:
        return self.matrices[0].rows if self.matrices else 0

    def __iter__(self):
        return iter(self.matrices)

    def __len__(self) -> int:
        return len(self.matrices)


def wedge_vector(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(u) != len(v):
        raise ValueError("wedge of vectors of different lengths")
    wb = WedgeBasis(len(u))
    return tuple(u[i] * v[j] - u[j] * v[i] for (i, j) in wb.pairs)


def induced_algebra_action(x: Matrix) -> Matrix:
    """Derivation extension of x: u^v -> xu^v + u^xv."""
    if not x.is_square:
        raise ValueError("inducing from a non-square matrix")
    n = x.rows
    cols = []
    for (i, j) in WedgeBasis(n).pairs:
        ei = unit_vector(n, i)
        ej = unit_vector(n, j)
        xi = x.apply(ei)
        xj = x.apply(ej)
        col = [a + b for a, b in zip(wedge_vector(xi, ej), wedge_vector(ei, xj))]
        cols.append(col)
    return Matrix.from_columns(cols)


def induced_group_action(g: Matrix) -> Matrix:
    """Multiplicative extension of g: u^v -> gu^gv."""
    if not g.is_square:
        raise ValueError("inducing from a non-square matrix")
    return Matrix.from_columns([wedge_vector(g.col(i), g.col(j))
                                for (i, j) in WedgeBasis(g.rows).pairs])


def quotient_action(m: Matrix, w: Subspace) -> Matrix:
    """Factor of m on the quotient by an m-invariant subspace w.

    Quotient coordinates are the classes of the standard basis vectors at the
    non-pivot columns of w's echelon basis (for the shipped W inside wedge^2 V
    these are exactly the p-classes p12, p13, p14, p15, p25, p35, p45).
    Raises NotInvariantError with a witness basis vector if m moves w out of
    itself.
    """
    if not m.is_square or m.rows != w.ambient_dim:
        raise ValueError("matrix size does not match the subspace ambient")
    for bv in w.basis_vectors():
        image = m.apply(bv)
        if not w.contains(image):
            raise NotInvariantError(
                "subspace is not preserved by the given matrix", bv)
    qmap = QuotientMap(w)
    return Matrix.from_columns([qmap.project(m.apply(qmap.lift(k)))
                                for k in range(qmap.dim)])


@dataclass(frozen=True)
class WeightDecomposition:
    spaces: dict[Fraction, Subspace]
    complete: bool  # do the eigenspaces sum to the whole space?


def weight_decomposition(m: Matrix, candidates: Sequence) -> WeightDecomposition:
    """Eigenspace ker(m - c I) for each candidate eigenvalue c."""
    if not m.is_square:
        raise ValueError("weight decomposition of a non-square matrix")
    n = m.rows
    ident = Matrix.identity(n)
    spaces: dict[Fraction, Subspace] = {}
    for cand in candidates:
        lam = qf(cand)
        if lam in spaces:
            continue
        spaces[lam] = kernel_basis(m - ident.scale(lam))
    # eigenspaces of distinct eigenvalues are independent, so dimensions add
    complete = sum(s.dim for s in spaces.values()) == n
    return WeightDecomposition(spaces, complete)


def commutant(gens: GeneratorSet, dim: int | None = None) -> Subspace:
    """{X : Xg = gX for all generators}, flattened row-major in Q^(n^2).

    A one-dimensional commutant certifies irreducibility for the actions
    shipped here, which all integrate representations of a semisimple
    algebra and are therefore completely reducible.  The ``dim`` argument is
    only needed for an empty generator set, whose commutant is everything.
    """
    if len(gens) == 0:
        if dim is None:
            raise ValueError("commutant of an empty generator set needs a dimension")
        return Subspace.full(dim * dim)
    n = gens.dim
    rows = []
    for g in gens:
        # row (r, c) is (Xg - gX)[r, c] = 0, g scaled to integers; the
        # entry g[p, q] = x enters row (r, q) at X[r, p] and row (p, c)
        # at X[q, c]
        block: list[dict[int, int]] = [{} for _ in range(n * n)]
        for idx, x in clear_denominators(enumerate(g.entries))[1].items():
            p, q = divmod(idx, n)
            for r in range(n):
                row = block[r * n + q]
                row[r * n + p] = row.get(r * n + p, 0) + x
            for c in range(n):
                row = block[p * n + c]
                row[q * n + c] = row.get(q * n + c, 0) - x
        rows += [{j: x for j, x in row.items() if x} for row in block]
    return int_kernel(rows, n * n)


def invariant_closure(seeds: Sequence[Sequence[Fraction]],
                      gens: GeneratorSet) -> Subspace:
    """Smallest subspace containing the seeds and invariant under all
    generators, grown by repeated application until the dimension stops."""
    n = gens.dim
    current = Subspace.span(n, [tuple(qf(x) for x in s) for s in seeds])
    while True:
        vectors = list(current.basis_vectors())
        grown = list(vectors)
        for g in gens:
            for v in vectors:
                grown.append(g.apply(v))
        nxt = Subspace.span(n, grown)
        if nxt.dim == current.dim:
            return nxt
        current = nxt
