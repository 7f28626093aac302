"""Derivation algebras and automorphism certificates.

Derivations of a structure-constant algebra are the kernel of one exact
linear system: the Leibniz identity over the basis pairs, dim equations per
pair in dim^2 unknowns, matrices flattened row-major.  The rows of a pair
(i, j) read only the brackets of the pairs that meet {i, j}.
``derivation_algebra`` is the one way to get der(L), and it picks its
method from the table.  An algebra with G's brackets at every pair but the
hook pair (s1, p12), as G and every N of ``models`` have, restricts the
p-free kernel K of G's rows over the pairs that miss s1 and p12
(``hook_free_derivations``) by its own rows over the other 21.  Those
rows are linear in the table, so on K's coordinates they are a pencil
s A0 + sum_k h_k Delta_k, built once with K: a new hook [s1, p12] = h
only evaluates it and takes one 72-column kernel.  That layout, its
pencil's A0 (G's table) and each Delta_k (the hook [s1, p12] = e_k alone)
are all read from ``models.hook_table``, N's one writer.  Any other
is solved for the copy P^-1 L P in a basis adapted to the descending
series (``LieAlgebra.adapted``, built once per algebra), whose table is
sparser, and the kernel is mapped back by P; for a monomial table P is
the identity.  Everything else here: stabilizer algebras, shear spaces,
abelianization factors, exact exponentials, eigenline tests, and the
seeded H-element sampler.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache

from .liecore import LieAlgebra, bracket, derived_subalgebra
from .models import (
    HOOK,
    SL2Element,
    binary_form_action,
    build_two_step,
    hook_table,
)
from .qlinalg import (
    Matrix,
    Subspace,
    apply_equations,
    char_poly,
    column_index,
    count_real_roots,
    eigenspace,
    fraction_vector,
    int_kernel,
    int_matmul,
    rank,
    sparse_rows,
    strip_rational_roots,
    weighted_sum,
)
from .wedgerep import (
    NotInvariantError,
    derivation_images,
    quotient_action,
    wedge_square_base,
)


class IrrationalEigenvalueError(ValueError):
    """A real eigenvalue outside Q was detected; the caller must pick a
    different sample element."""


class DerivationSpace:
    __slots__ = ("algebra", "space")

    def __init__(self, algebra: LieAlgebra, space: Subspace):
        self.algebra = algebra
        self.space = space  # subspace of the dim^2 matrix space, row-major

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> tuple[Matrix, ...]:
        return self.space.basis_matrices()

    def contains(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())

    def with_image_in(self, c: Subspace) -> Subspace:
        """The derivations in this space whose image lies inside c: every
        column of D satisfies c's equations.  One small kernel over the
        coordinates on this space's basis, without a new Leibniz
        elimination."""
        d = self.algebra.dim
        if c.ambient_dim != d:
            raise ValueError(
                "subspace ambient dimension does not match the algebra")
        equations = c.equations()
        return self.space.restrict({r * d + col: x for r, x in eq.items()}
                                   for col in range(d) for eq in equations)


def _leibniz_terms(table: Sequence[Sequence[Sequence[tuple[int, int]]]],
                   pairs: Iterable[tuple[int, int]] | None = None
                   ) -> Iterator[tuple[int, int, int]]:
    """The terms (row key, column, value) of D[bi,bj] - [D bi, bj] -
    [bi, D bj] = 0, unknowns D[r,c] at r*dim+c, by pair i<j (all pairs, or
    those in pairs, at position pos) and output coordinate m, keyed
    pos*dim + m, for the brackets in an integer table laid out as
    ``LieAlgebra.table`` (dim is its length).  The rows of (i, j) read the
    brackets [bi, bj], [bk, bj] and [bi, bk] for every k, so they depend
    only on the brackets of pairs that meet {i, j}."""
    d = len(table)
    if pairs is None:
        pairs = itertools.combinations(range(d), 2)
    for pos, (i, j) in enumerate(pairs):
        key = pos * d  # the row of (i, j) at coordinate m is key + m
        for k, t in table[i][j]:
            for m in range(d):
                yield key + m, m * d + k, t
        for k in range(d):
            for m, t in table[k][j]:
                yield key + m, k * d + i, -t
            for m, t in table[i][k]:
                yield key + m, k * d + j, -t


def _leibniz_rows(table: Sequence[Sequence[Sequence[tuple[int, int]]]],
                  pairs: Iterable[tuple[int, int]] | None = None
                  ) -> Iterable[dict[int, int]]:
    """The nonzero Leibniz rows of the table, by pair and then output
    coordinate: ``_leibniz_terms`` summed.  The rows are linear in the
    table, so a table scaled by a constant factor has the same kernel."""
    return sparse_rows(_leibniz_terms(table, pairs)).values()


def _hook_scale(L: LieAlgebra) -> int:
    """s > 0 when L's table is ``hook_table(s, h)`` for its own entries h
    at (s1, p12): G's brackets, as rationals, at every other basis pair,
    with s = L.denom / G.denom; 0 otherwise."""
    if L.dim != 12:
        return 0  # without building G
    s, r = divmod(L.denom, build_two_step().denom)
    a, b = HOOK
    return s if not r and L.table == hook_table(s, L.table[a][b]) else 0


def derivation_algebra(L: LieAlgebra) -> DerivationSpace:
    """All D with D[x,y] = [Dx,y] + [x,Dy], as one exact kernel.

    When L has G's brackets off the hook pair, as G and every N of
    ``models`` do, that is K (``hook_free_derivations``) restricted by L's
    rows over ``HOOK_PAIRS``, which K evaluates from its hook pencil
    (``HookFreeKernel.hook_split``).  Otherwise it is taken for the
    adapted copy L' = P^-1 L P of ``LieAlgebra.adapted``, whose table is a
    constant multiple of Q [P e_i, P e_j] for P's columns and
    Q = delta P^-1's rows, and sparser than L's.  Each echelon row U of
    der(L') gives P U Q, a positive multiple of the derivation P U P^-1 of
    L: U's weighted sum of the images P E_ab Q.  The span of those is
    brought to canonical form."""
    s = _hook_scale(L)
    if s:
        return DerivationSpace(L, hook_free_derivations().hook_split(
            s, L.table[HOOK[0]][HOOK[1]]))
    d = L.dim
    cols, rows, table = L.adapted
    units = [{r * d + c: x * y for r, x in cols[a].items()
              for c, y in rows[b].items()} for a in range(d) for b in range(d)]
    return DerivationSpace(L, Subspace.from_int_rows(d * d, (
        weighted_sum(u, units)
        for _, u in int_kernel(_leibniz_rows(table), d * d).echelon)))


#: the basis pairs i < j that meet the hook pair (s1, p12) of the shipped
#: models: the Leibniz rows of a pair (i, j) read the brackets of the pairs
#: that meet {i, j}, so these 21 are the only pairs whose rows read the hook
HOOK_PAIRS = tuple(pair for pair in itertools.combinations(range(12), 2)
                   if set(pair) & set(HOOK))


class HookFreeKernel(Subspace):
    """K (``hook_free_derivations``), with L's Leibniz rows over
    ``HOOK_PAIRS`` read on K's 72 coordinates as a pencil.

    The rows are linear in the table, and a table with G's brackets off
    the hook pair is s G plus the hook-only table ``hook_table(0, h)``.
    So, row by row, L's rows on K are s A0 + sum_k h_k Delta_k, with A0
    the rows of ``hook_table(1, ())`` (G's table) and Delta_k those of
    ``hook_table(0, ((k, 1),))``, each applied to K's echelon rows.
    A0 and each Delta_k are built the first time they are read, from one
    column index of K's echelon rows built with K, and kept with K, so
    ``hook_free_derivations.cache_clear()`` drops them too."""

    __slots__ = ("_columns", "_pencil")

    def __init__(self, space: Subspace):
        self._set(space.ambient_dim, space.echelon)
        self._columns = column_index([row for _, row in self.echelon],
                                     self.ambient_dim)
        self._pencil: dict[int | None, dict[int, dict[int, int]]] = {}

    def pencil(self, k: int | None) -> dict[int, dict[int, int]]:
        """A0 (k None) or Delta_k: row key, as ``_leibniz_terms`` keys it,
        to that row on K's coordinates, each row the weighted sum of K's
        columns (``apply_equations`` with K's index kept)."""
        rows = self._pencil.get(k)
        if rows is None:
            table = (hook_table(1, ()) if k is None
                     else hook_table(0, ((k, 1),)))
            rows = self._pencil[k] = {
                key: row for key, eq in sparse_rows(
                    _leibniz_terms(table, HOOK_PAIRS)).items()
                if (row := weighted_sum(eq, self._columns))}
        return rows

    def hook_split(self, s: int, hook: Iterable[tuple[int, int]]
                   ) -> Subspace:
        """der(L) for L with s G's integer entries off the hook pair and
        the integer hook entries (k, h_k) at (s1, p12): the vectors of K
        on which every row s A0 + sum_k h_k Delta_k vanishes, as one kernel
        over K's coordinates (``coordinate_kernel``)."""
        return self.coordinate_kernel(sparse_rows(
            (key, j, w * x) for k, w in ((None, s), *hook)
            for key, row in self.pencil(k).items()
            for j, x in row.items()).values())


@lru_cache(maxsize=1)
def hook_free_derivations() -> HookFreeKernel:
    """K: the solutions in gl(12) of G's Leibniz rows over the 45 basis
    pairs outside ``HOOK_PAIRS`` (168 rows, dimension 72), built on first
    use and kept for the process with its hook pencil.  Those rows never
    read the hook, so K is the same for every algebra with G's brackets
    off the hook."""
    free = (pair for pair in itertools.combinations(range(12), 2)
            if pair not in HOOK_PAIRS)
    return HookFreeKernel(
        int_kernel(_leibniz_rows(build_two_step().table, free), 144))


def shear_space(L: LieAlgebra, c: Subspace) -> Subspace:
    """Derivations whose image lies inside c (for central c these are the
    shear derivations: they kill the derived subalgebra)."""
    return derivation_algebra(L).with_image_in(c)


def stabilizer_algebra(w: Subspace) -> Subspace:
    """{x in gl(n) : the induced derivation action on wedge^2 preserves w},
    flattened row-major in Q^(n^2), as ``commutant`` returns it.

    The image of a vector u of w under x is sum_rc x[r, c] E_rc u, linear in
    x's entries, so this is the preimage of w under those images, taken
    over w's integer echelon rows: one kernel over the n^2 coordinates.
    """
    n = wedge_square_base(w.ambient_dim)
    return w.preimage((derivation_images(u, n) for _, u in w.echelon), n * n)


def factor_on_abelianization(L: LieAlgebra, d_mat: Matrix) -> Matrix:
    """Factor of a derivation (or automorphism) on L / [L, L].

    Requires the derived subalgebra to be preserved; for derivations and
    automorphisms that is automatic, but it is checked: NotInvariantError
    carries a basis vector of [L, L] that d_mat moves out of it.
    """
    return quotient_action(d_mat, derived_subalgebra(L))


def derivation_defects(der: DerivationSpace) -> tuple[list[int], list[int]]:
    """(indices of the basis derivations whose factor on L / [L, L] is
    nonzero, indices of those whose cube is nonzero).

    Each basis derivation is read as its integer echelon row, a positive
    multiple of the basis matrix, flattened row-major (D[r, c] at r*n + c).
    The guard and the factor test are linear in D, so both are sparse
    functionals built from [L, L]'s ``equations()`` and evaluated on every
    echelon row at once by one ``apply_equations`` call:

    - guard: D u lies in [L, L] for each echelon row u of [L, L] exactly
      when sum_(r, c) e_r u_c D[r, c] = 0 for each equation e;
    - factor: the factor is zero exactly when each column k at a quotient
      representative (a non-pivot column of [L, L]) lies in [L, L], that
      is, sum_r e_r D[r, k] = 0 for each equation e.

    A basis derivation fails a test exactly when one of that test's
    functionals is nonzero on it.  Like ``factor_on_abelianization``, it
    raises NotInvariantError for a derivation that moves [L, L]; the
    witness is the basis vector k of [L, L] for the smallest (derivation
    index, k) that fails the guard.  The cube is zero exactly when D^2 maps
    every column of D to zero, tested per derivation on its sparse columns.
    """
    n = der.algebra.dim
    derived = derived_subalgebra(der.algebra)
    equations = derived.equations()
    guard = [(k, {r * n + c: e * x for r, e in eq.items()
                  for c, x in u.items()})
             for k, (_, u) in enumerate(derived.echelon) for eq in equations]
    factor = [{r * n + k: e for r, e in eq.items()}
              for k in derived.free_columns() for eq in equations]
    rows = [row for _, row in der.space.echelon]
    values = apply_equations([f for _, f in guard] + factor, rows, n * n)
    moved = min(((idx, k) for (k, _), v in zip(guard, values) for idx in v),
                default=None)
    if moved is not None:
        raise NotInvariantError(
            "subspace is not preserved by the given matrix",
            derived.basis_vectors()[moved[1]])
    bad_factor = sorted({idx for v in values[len(guard):] for idx in v})
    bad_cube = []
    for idx, row in enumerate(rows):
        cols: list[dict[int, int]] = [{} for _ in range(n)]
        for rc, x in row.items():
            cols[rc % n][rc // n] = x
        if any(weighted_sum(weighted_sum(col, cols), cols)
               for col in cols if col):
            bad_cube.append(idx)
    return bad_factor, bad_cube


def is_automorphism(L: LieAlgebra, t_mat: Matrix) -> bool:
    """T[x,y] = [Tx,Ty] on all basis pairs, and T invertible."""
    if t_mat.rows != L.dim or t_mat.cols != L.dim:
        return False
    d = L.dim
    cols = [t_mat.col(j) for j in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        lhs = t_mat.apply(fraction_vector(d, L.table[i][j], L.denom))
        rhs = bracket(L, cols[i], cols[j])
        if lhs != rhs:
            return False
    return rank(t_mat) == d


def exp_nilpotent(m: Matrix) -> Matrix:
    """Exact exp of a nilpotent matrix (the finite sum of m^k / k!).

    It runs on the integer matrix A = m.nums, with d = m.den:
    m^k / k! = A^k / (d^k k!), so the partial sums share the denominator
    d^k k!, and each step scales the running sum by d k and adds A^k.
    """
    if not m.is_square:
        raise ValueError("exponential of a non-square matrix")
    n = m.rows
    a, d = m.nums, m.den
    if sum(a[::n + 1]):  # a nilpotent matrix has trace 0
        raise ValueError("matrix is not nilpotent")
    total = [0] * (n * n)
    total[::n + 1] = [1] * n
    power = a
    den = 1
    for k in range(1, n + 1):
        if k > 1:
            power = int_matmul(power, a, n, n, n)
        if not any(power):
            return Matrix.from_ints(n, n, total, den)
        total = [x * d * k + y for x, y in zip(total, power)]
        den *= d * k
    raise ValueError("matrix is not nilpotent")


#: the six basis-index pairs whose wedges span W; the exponent relations of
#: the stabilizer certificate are l_i + l_j = 0 over exactly these pairs.
EIGEN_RELATION_PAIRS = ((1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4))


def eigen_relation_kernel() -> Subspace:
    """Kernel of the 6x5 system {l_i + l_j : (i,j) in the W pairs}.

    Zero kernel certifies that a diagonal element fixing W's spanning wedges
    pointwise has all five eigenvalues equal to 1 (taking logs turns the
    multiplicative relations into this additive system)."""
    return int_kernel(({i - 1: 1, j - 1: 1} for i, j in EIGEN_RELATION_PAIRS),
                      5)


def fixed_space(g: Matrix) -> Subspace:
    """ker(g - I)."""
    return eigenspace(g, 1)


def line_through(p: Sequence[Fraction]) -> Subspace:
    """The line through the nonzero vector p."""
    line = Subspace.span(len(p), [p])
    if not line.dim:
        raise ValueError("p must be nonzero")
    return line


def line_fixed_by(p: Sequence[Fraction], g: Matrix) -> bool:
    """Does g map the line through p to itself?"""
    return line_through(p).moved_by(g) is None


def infinitesimal_line_stabilizer(p: Sequence[Fraction],
                                  gens: Sequence[Matrix]) -> Subspace:
    """{coefficient vectors a : (sum_i a_i g_i) p lies on the line of p}.

    The map xi -> xi p is linear in xi, so this is one preimage of the line
    over the generator-coefficient space (for the shipped generators:
    coordinates over the sl2 triple (h, e, f)).  Zero kernel is the
    infinitesimal part of the "p spans a line fixed by no nontrivial
    element" certificate.

    It runs in integers: with p read as the line's primitive integer row and
    each generator g = A / den brought to the common denominator D of all of
    them, image k is (D / den_k) A_k p, a positive multiple of g_k p.
    """
    line = line_through(p)
    if any(g.cols != line.ambient_dim for g in gens):
        raise ValueError("generator size does not match p")
    pint = line.echelon[0][1]
    d = math.lcm(*(g.den for g in gens))
    return line.preimage([[{i: d // g.den * x for i, x in g.int_apply(
        pint).items()} for g in gens]], len(gens))


def max_eigenspace_dim(m: Matrix) -> int:
    """max over rational eigenvalues c of dim ker(m - c I).

    Precondition (checked): every real eigenvalue is rational.  The rational
    roots of the characteristic polynomial are found exactly; a Sturm count
    on the cofactor then certifies that no irrational real eigenvalue was
    missed, and IrrationalEigenvalueError is raised if one was.  A root of
    multiplicity 1 has an eigenspace of dimension exactly 1 (at least 1,
    at most its multiplicity), so only repeated roots take a kernel.
    """
    roots, cofactor = strip_rational_roots(char_poly(m))
    if cofactor.degree >= 1 and count_real_roots(cofactor) > 0:
        raise IrrationalEigenvalueError(
            "matrix has an irrational real eigenvalue; pick a different sample")
    return max((eigenspace(m, lam).dim if mult > 1 else 1
                for lam, mult in roots.items()), default=0)


# ---------------------------------------------------------------------------
# seeded sampling of H-elements and derivations
# ---------------------------------------------------------------------------
#
# Counter-based: sample k of a stream is a pure function of (seed, k), so
# parallel evaluation orders cannot change any report.

_M64 = (1 << 64) - 1


def _mix(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class SampleStream:
    """Deterministic value source fully determined by (seed, index)."""

    def __init__(self, seed: int, index: int):
        self._base = _mix((seed & _M64) ^ _mix(index & _M64) ^ 0xA5A5A5A5)
        self._count = 0

    def int_in(self, lo: int, hi: int) -> int:
        self._count += 1
        return lo + _mix(self._base + self._count) % (hi - lo + 1)

    def nonzero_int(self, bound: int) -> int:
        v = self.int_in(1, bound)
        return v if self.int_in(0, 1) else -v

    def fraction(self, bound: int = 3) -> Fraction:
        return Fraction(self.nonzero_int(bound), self.int_in(1, bound))


SAMPLE_KINDS = ("hyperbolic", "unipotent", "elliptic")


def sample_h_element(seed: int, index: int) -> tuple[str, SL2Element]:
    """The index-th sampled element of H, with its conjugacy kind.

    Samples 0..2 are the fixed representatives: the hyperbolic diag(2, 1/2),
    the unit upper shear, and the (3/5, 4/5) rational rotation.  Later
    samples draw a rational primitive of the cycling kind and conjugate it by
    an integer shear product, which scatters the eigenlines while keeping the
    spectrum (and hence exact eigenvalue arithmetic) tame.
    """
    if index == 0:
        return "hyperbolic", SL2Element.hyperbolic(2)
    if index == 1:
        return "unipotent", SL2Element.upper(1)
    if index == 2:
        return "elliptic", SL2Element.elliptic(1, 2)
    stream = SampleStream(seed, index)
    kind = SAMPLE_KINDS[index % 3]
    # the primitive as an integer matrix (a, b, c, d) over a denominator q
    if kind == "hyperbolic":
        t = Fraction(stream.int_in(2, 5), stream.int_in(1, 3))
        while t == 1:
            t = Fraction(stream.int_in(2, 5), stream.int_in(1, 3))
        # diag(t, 1/t) = diag(x^2, y^2) / xy for t = x / y
        x, y = t.numerator, t.denominator
        prim, q = (x * x, 0, 0, y * y), x * y
    elif kind == "unipotent":
        s = stream.fraction(4)
        x, y = s.numerator, s.denominator
        prim = (y, x, 0, y) if stream.int_in(0, 1) else (y, 0, x, y)
        q = y
    else:
        num = stream.int_in(1, 4)
        den = stream.int_in(num + 1, num + 4)
        # SL2Element.elliptic(num, den), cleared
        q = num * num + den * den
        a, b = den * den - num * num, 2 * num * den
        prim = (a, b, -b, a)
    return kind, _conjugate_by_shears(prim, q, stream.nonzero_int(3),
                                      stream.nonzero_int(3))


def _conjugate_by_shears(prim: tuple[int, int, int, int], q: int,
                         u: int, l: int) -> SL2Element:
    """C (prim / q) C^-1 for C = upper(u) lower(l) = [[1 + ul, u], [l, 1]],
    whose inverse is [[1, -u], [-l, 1 + ul]]; the products are taken in
    integers and the element is built once."""
    a, b, c, d = prim
    w = 1 + u * l
    # C prim
    a, b, c, d = w * a + u * c, w * b + u * d, l * a + c, l * b + d
    # (C prim) C^-1
    a, b, c, d = a - l * b, w * b - u * a, c - l * d, w * d - u * c
    return SL2Element(Fraction(a, q), Fraction(b, q),
                      Fraction(c, q), Fraction(d, q))


def sample_action_on_V(seed: int, index: int) -> tuple[str, Matrix]:
    """The index-th sampled element of H acting on V, with its kind."""
    kind, g = sample_h_element(seed, index)
    return kind, binary_form_action(g, 4)


def sample_in_subspace(space: Subspace, seed: int, index: int,
                       bound: int = 2) -> tuple[Fraction, ...]:
    """Small-coefficient random combination of a subspace basis; nonzero
    whenever the subspace is."""
    return space.combination(_sample_coeffs(space.dim, seed, index, bound))


def sample_derivation(der: DerivationSpace, seed: int, index: int) -> Matrix:
    """The derivation whose row-major flattening is
    ``sample_in_subspace(der.space, seed, index)``, built as an integer
    matrix from the echelon rows of der.space."""
    n = der.algebra.dim
    den, row = der.space.int_combination(
        _sample_coeffs(der.dim, seed, index, 2))
    nums = [0] * (n * n)
    for j, x in row.items():
        nums[j] = x
    return Matrix.from_ints(n, n, nums, den)


def _sample_coeffs(dim: int, seed: int, index: int, bound: int) -> list[int]:
    """dim draws in [-bound, bound], with a first 1 when all are zero."""
    stream = SampleStream(seed, index)
    coeffs = [stream.int_in(-bound, bound) for _ in range(dim)]
    if dim and not any(coeffs):
        coeffs[0] = 1
    return coeffs
