"""The exterior square of a column space, with induced actions.

Basis of wedge^2 Q^n: e_i ^ e_j over lexicographically ordered pairs i < j
(``wedge_pairs``).
The coordinate of u ^ v at pair (i, j) is u_i v_j - u_j v_i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .qlinalg import (
    Matrix,
    Subspace,
    eigenspace,
    int_kernel,
    qf,
)


class NotInvariantError(ValueError):
    """A subspace expected to be invariant is moved; carries a witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def wedge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The basis pairs (i, j), i < j, of wedge^2 Q^n, in lexicographic
    order: the k-th pair indexes coordinate k."""
    return tuple(itertools.combinations(range(n), 2))


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
    return tuple(u[i] * v[j] - u[j] * v[i] for i, j in wedge_pairs(len(u)))


def induced_algebra_action(x: Matrix) -> Matrix:
    """Derivation extension of x: u^v -> xu^v + u^xv, on x's integer
    numerators: column (i, j) is x e_i ^ e_j + e_i ^ x e_j, where x e_i is
    column i of x."""
    if not x.is_square:
        raise ValueError("inducing from a non-square matrix")
    n, a = x.rows, x.nums
    pairs = wedge_pairs(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    cols = []
    for i, j in pairs:
        col: dict[int, int] = {}
        for r in range(n):
            if r != j:
                _add_wedge(col, index, r, j, a[r * n + i])
            if r != i:
                _add_wedge(col, index, i, r, a[r * n + j])
        cols.append(col)
    return Matrix.from_ints(len(pairs), len(pairs), (
        col.get(k, 0) for k in range(len(pairs)) for col in cols), x.den)


def derivation_images(u: dict[int, int], n: int) -> list[dict[int, int]]:
    """The n^2 images of the sparse integer vector u of wedge^2 Q^n under
    the matrix units acting as derivations: entry r * n + c is E_rc u,
    where E_rc sends e_i^e_j to [c=i] e_r^e_j + [c=j] e_i^e_r.  Where two
    terms cancel, an image keeps a zero entry."""
    pairs = wedge_pairs(n)
    index = {pair: k for k, pair in enumerate(pairs)}
    images: list[dict[int, int]] = [{} for _ in range(n * n)]
    for k, x in u.items():
        i, j = pairs[k]
        for r in range(n):
            if r != j:
                _add_wedge(images[r * n + i], index, r, j, x)
            if r != i:
                _add_wedge(images[r * n + j], index, i, r, x)
    return images


def wedge_square_base(amb: int) -> int:
    """The n >= 2 with n(n-1)/2 = amb, the dimension of wedge^2 Q^n.

    n(n-1)/2 = amb means (2n-1)^2 = 8 amb + 1, so n is read off an exact
    integer square root."""
    disc = 8 * amb + 1
    s = math.isqrt(max(disc, 0))
    if s * s != disc or s < 3:
        raise ValueError(f"ambient dim {amb} is not of the form n(n-1)/2")
    return (s + 1) // 2


def _add_wedge(image: dict[int, int], index: dict[tuple[int, int], int],
               i: int, j: int, x: int) -> None:
    """image += x e_i^e_j, written on the basis pairs (i < j) that index
    numbers."""
    if x:
        if i > j:
            i, j, x = j, i, -x
        k = index[i, j]
        image[k] = image.get(k, 0) + x


def induced_group_action(g: Matrix) -> Matrix:
    """Multiplicative extension of g: u^v -> gu^gv.  On g's integer
    numerators G, column (i, j) is G e_i ^ G e_j, whose coordinate at
    (k, l) is G_ki G_lj - G_li G_kj, over den^2."""
    if not g.is_square:
        raise ValueError("inducing from a non-square matrix")
    n, a = g.rows, g.nums
    pairs = wedge_pairs(n)
    return Matrix.from_ints(len(pairs), len(pairs), (
        a[k * n + i] * a[l * n + j] - a[l * n + i] * a[k * n + j]
        for k, l in pairs for i, j in pairs), g.den ** 2)


def quotient_action(m: Matrix, w: Subspace) -> Matrix:
    """Factor of m on the quotient by an m-invariant subspace w.

    Quotient coordinates are the classes of the standard basis vectors at
    w's ``free_columns`` (for the shipped W inside wedge^2 V
    these are exactly the p-classes p12, p13, p14, p15, p25, p35, p45).
    Raises NotInvariantError with a witness basis vector if m moves w out of
    itself.
    """
    k = w.moved_by(m)
    if k is not None:
        raise NotInvariantError(
            "subspace is not preserved by the given matrix",
            w.basis_vectors()[k])
    # column k is m e_(reps[k]) reduced modulo w, read at the reps; each
    # reduction comes with its own scale, brought to their lcm
    reps = w.free_columns()
    cols = [w.int_reduce(m.int_apply({c: 1})) for c in reps]
    d = math.lcm(*(s for s, _ in cols))
    return Matrix.from_ints(len(reps), len(reps), (
        d // s * col.get(r, 0) for r in reps for s, col in cols), d * m.den)


@dataclass(frozen=True)
class WeightDecomposition:
    spaces: dict[Fraction, Subspace]
    complete: bool  # do the eigenspaces sum to the whole space?


def weight_decomposition(m: Matrix, candidates: Sequence) -> WeightDecomposition:
    """Eigenspace ker(m - c I) for each candidate eigenvalue c."""
    if not m.is_square:
        raise ValueError("weight decomposition of a non-square matrix")
    spaces: dict[Fraction, Subspace] = {}
    for cand in candidates:
        lam = qf(cand)
        if lam not in spaces:
            spaces[lam] = eigenspace(m, lam)
    # eigenspaces of distinct eigenvalues are independent, so dimensions add
    complete = sum(s.dim for s in spaces.values()) == m.rows
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
        # row (r, c) is (Xg - gX)[r, c] = 0, for g's integer numerators;
        # the entry g[p, q] = x enters row (r, q) at X[r, p] and row (p, c)
        # at X[q, c]
        block: list[dict[int, int]] = [{} for _ in range(n * n)]
        for idx, x in enumerate(g.nums):
            if not x:
                continue
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
    generators, grown on integer rows by the generators' images until no
    generator moves it."""
    n = gens.dim
    current = Subspace.span(n, seeds)
    while any(current.moved_by(g) is not None for g in gens):
        rows = [u for _, u in current.echelon]
        current = Subspace.from_int_rows(
            n, rows + [g.int_apply(u) for g in gens for u in rows])
    return current
