"""The exterior square of a column space, with induced actions.

Basis of wedge^2 Q^n: e_i ^ e_j over lexicographically ordered pairs i < j
(``wedge_pairs``).
The coordinate of u ^ v at pair (i, j) is u_i v_j - u_j v_i.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .qlinalg import (
    Matrix,
    Subspace,
    eigenspace,
    int_kernel,
    qf,
    sparse_rows,
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


def wedge_vector(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(u) != len(v):
        raise ValueError("wedge of vectors of different lengths")
    return tuple(u[i] * v[j] - u[j] * v[i] for i, j in wedge_pairs(len(u)))


@lru_cache(maxsize=None)
def _unit_terms(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each basis pair k = (i, j) of wedge^2 Q^n, the terms (r * n + c,
    t, s) of E_rc(e_i^e_j) = sum s e_t, where the matrix unit E_rc acts as
    a derivation: [c=i] e_r^e_j + [c=j] e_i^e_r.  The basis pair (a, b),
    a < b, is number a(2n - a - 1)/2 + b - a - 1."""
    def term(rc: int, a: int, b: int) -> tuple[int, int, int]:
        if a < b:
            return rc, a * (2 * n - a - 1) // 2 + b - a - 1, 1
        return rc, b * (2 * n - b - 1) // 2 + a - b - 1, -1
    return tuple(
        tuple([term(r * n + i, r, j) for r in range(n) if r != j]
              + [term(r * n + j, i, r) for r in range(n) if r != i])
        for i, j in wedge_pairs(n))


def induced_algebra_action(x: Matrix) -> Matrix:
    """Derivation extension of x: u^v -> xu^v + u^xv, on x's integer
    numerators: column k is sum_rc x[r, c] E_rc(e_k) (``_unit_terms``)."""
    if not x.is_square:
        raise ValueError("inducing from a non-square matrix")
    n, a = x.rows, x.nums
    table = _unit_terms(n)
    m = len(table)
    rows = sparse_rows((t, k, s * a[rc]) for k, terms in enumerate(table)
                       for rc, t, s in terms if a[rc])
    return Matrix.from_ints(m, m, (rows.get(t, {}).get(k, 0)
                                   for t in range(m) for k in range(m)), x.den)


def derivation_images(u: dict[int, int], n: int) -> list[dict[int, int]]:
    """The n^2 images of the sparse integer vector u of wedge^2 Q^n under
    the matrix units acting as derivations: entry r * n + c is E_rc u
    (``_unit_terms``), zeros dropped."""
    table = _unit_terms(n)
    images = sparse_rows((rc, t, s * x) for k, x in u.items()
                         for rc, t, s in table[k])
    return [images.get(rc, {}) for rc in range(n * n)]


def wedge_square_base(amb: int) -> int:
    """The n >= 2 with n(n-1)/2 = amb, the dimension of wedge^2 Q^n.

    n(n-1)/2 = amb means (2n-1)^2 = 8 amb + 1, so n is read off an exact
    integer square root."""
    disc = 8 * amb + 1
    s = math.isqrt(max(disc, 0))
    if s * s != disc or s < 3:
        raise ValueError(f"ambient dim {amb} is not of the form n(n-1)/2")
    return (s + 1) // 2


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


class WeightDecomposition:
    __slots__ = ("spaces", "complete")

    def __init__(self, spaces: dict[Fraction, Subspace], complete: bool):
        self.spaces = spaces
        self.complete = complete  # do the eigenspaces sum to the whole space?


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


def commutant(gens: Sequence[Matrix]) -> Subspace:
    """{X : Xg = gX for all generators}, flattened row-major in Q^(n^2),
    for one or more square generators of one size n.

    A one-dimensional commutant certifies irreducibility for the actions
    shipped here, which all integrate representations of a semisimple
    algebra and are therefore completely reducible.
    """
    if not gens:
        raise ValueError("commutant of no generators")
    n = gens[0].rows
    if any(g.rows != n or g.cols != n for g in gens):
        raise ValueError("generators must be square and of one size")
    # row (r, c) of generator g is (Xg - gX)[r, c] = 0, for g's integer
    # numerators; the entry g[p, q] = x enters row (r, q) at X[r, p] and
    # row (p, c) at X[q, c]
    terms = []
    for idx, g in enumerate(gens):
        key = idx * n * n
        for pq, x in enumerate(g.nums):
            if x:
                p, q = divmod(pq, n)
                terms += [(key + r * n + q, r * n + p, x) for r in range(n)]
                terms += [(key + p * n + c, q * n + c, -x) for c in range(n)]
    return int_kernel(sparse_rows(terms).values(), n * n)


def invariant_closure(seeds: Sequence[Sequence[Fraction]],
                      gens: Sequence[Matrix]) -> Subspace:
    """Smallest subspace containing the seeds and invariant under all
    generators, grown on integer rows by the generators' images until no
    generator moves it."""
    n = gens[0].rows
    current = Subspace.span(n, seeds)
    while any(current.moved_by(g) is not None for g in gens):
        rows = [u for _, u in current.echelon]
        current = Subspace.from_int_rows(
            n, rows + [g.int_apply(u) for g in gens for u in rows])
    return current
