"""Derivation algebras and automorphism certificates.

Derivations of a structure-constant algebra are the kernel of one exact
linear system (the Leibniz identity over all basis pairs, dim * C(dim, 2)
equations in dim^2 unknowns, matrices flattened row-major).  Everything else
here: stabilizer algebras, shear spaces, abelianization factors, exact
exponentials, eigenline tests, and the seeded H-element sampler.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .liecore import LieAlgebra, bracket, derived_subalgebra
from .models import SL2Element, binary_form_action
from .qlinalg import (
    Matrix,
    Subspace,
    char_poly,
    count_real_roots,
    eigenspace,
    int_kernel,
    int_matmul,
    rank,
    strip_rational_roots,
)
from .wedgerep import (
    GeneratorSet,
    NotInvariantError,
    derivation_images,
    quotient_action,
    wedge_square_base,
)


class IrrationalEigenvalueError(ValueError):
    """A real eigenvalue outside Q was detected; the caller must pick a
    different sample element."""


@dataclass(frozen=True)
class DerivationSpace:
    algebra: LieAlgebra
    space: Subspace  # subspace of the dim^2 matrix space, row-major

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> tuple[Matrix, ...]:
        n = self.algebra.dim
        return tuple(Matrix.from_flat(n, row)
                     for row in self.space.basis_vectors())

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


@dataclass(frozen=True)
class StabilizerAlgebra:
    n: int  # acts on Q^n
    space: Subspace  # subspace of the n^2 matrix space, row-major

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis_matrices(self) -> tuple[Matrix, ...]:
        return tuple(Matrix.from_flat(self.n, row)
                     for row in self.space.basis_vectors())


def _leibniz_rows(L: LieAlgebra) -> Iterator[dict[int, int]]:
    """One row per (pair i<j, output coordinate m) of
    D[bi,bj] - [D bi, bj] - [bi, D bj] = 0, unknowns D[r,c] at r*dim+c,
    in integers (scaled by the structure-constant denominator)."""
    d = L.dim
    table = L.int_sc.table
    for i, j in itertools.combinations(range(d), 2):
        rows: list[dict[int, int]] = [{} for _ in range(d)]
        for k, t in table[i][j]:
            for m in range(d):
                rows[m][m * d + k] = t
        for k in range(d):
            col = k * d + i
            for m, t in table[k][j]:
                rows[m][col] = rows[m].get(col, 0) - t
            col = k * d + j
            for m, t in table[i][k]:
                rows[m][col] = rows[m].get(col, 0) - t
        for row in rows:
            yield {c: x for c, x in row.items() if x}


def derivation_algebra(L: LieAlgebra) -> DerivationSpace:
    """All D with D[x,y] = [Dx,y] + [x,Dy], as one exact kernel."""
    return DerivationSpace(L, int_kernel(_leibniz_rows(L), L.dim * L.dim))


def shear_space(L: LieAlgebra, c: Subspace) -> Subspace:
    """Derivations whose image lies inside c (for central c these are the
    shear derivations: they kill the derived subalgebra)."""
    return derivation_algebra(L).with_image_in(c)


def stabilizer_algebra(w: Subspace) -> StabilizerAlgebra:
    """{x in gl(n) : the induced derivation action on wedge^2 preserves w}.

    The image of a vector u of w under x is sum_rc x[r, c] E_rc u, linear in
    x's entries, so this is the preimage of w under those images, taken
    over w's integer echelon rows: one kernel over the n^2 coordinates.
    """
    n = wedge_square_base(w.ambient_dim)
    return StabilizerAlgebra(n, w.preimage(
        (derivation_images(u, n) for _, u in w.echelon), n * n))


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
    multiple of the basis matrix, so both tests run on sparse integer
    columns.  The factor is zero exactly when every column at a quotient
    representative (a non-pivot column of [L, L]) lies in [L, L], and the
    cube is zero exactly when D^2 maps every column of D to zero.  Like
    ``factor_on_abelianization``, it raises NotInvariantError, with a basis
    vector of [L, L] as witness, for a derivation that moves [L, L].
    """
    n = der.algebra.dim
    derived = derived_subalgebra(der.algebra)
    reps = derived.free_columns()
    bad_factor, bad_cube = [], []
    for idx, (_, row) in enumerate(der.space.echelon):
        cols: list[dict[int, int]] = [{} for _ in range(n)]
        for rc, x in row.items():
            r, c = divmod(rc, n)
            cols[c][r] = x
        for k, (_, u) in enumerate(derived.echelon):
            if not derived.contains_int_row(_apply_columns(cols, u)):
                raise NotInvariantError(
                    "subspace is not preserved by the given matrix",
                    derived.basis_vectors()[k])
        if not all(derived.contains_int_row(cols[k]) for k in reps):
            bad_factor.append(idx)
        if any(_apply_columns(cols, _apply_columns(cols, col))
               for col in cols if col):
            bad_cube.append(idx)
    return bad_factor, bad_cube


def _apply_columns(cols: list[dict[int, int]],
                   v: dict[int, int]) -> dict[int, int]:
    """The integer matrix with sparse columns cols applied to the sparse
    integer vector v, zeros dropped."""
    out: dict[int, int] = {}
    for j, x in v.items():
        for r, y in cols[j].items():
            out[r] = out.get(r, 0) + x * y
    return {r: y for r, y in out.items() if y}


def is_automorphism(L: LieAlgebra, t_mat: Matrix) -> bool:
    """T[x,y] = [Tx,Ty] on all basis pairs, and T invertible."""
    if t_mat.rows != L.dim or t_mat.cols != L.dim:
        return False
    d = L.dim
    cols = [t_mat.col(j) for j in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        lhs = t_mat.apply(L.sc[i][j])
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
                                  gens: GeneratorSet) -> Subspace:
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
    missed, and IrrationalEigenvalueError is raised if one was.
    """
    cp = char_poly(m)
    roots, cofactor = strip_rational_roots(cp)
    if cofactor.degree >= 1 and count_real_roots(cofactor) > 0:
        raise IrrationalEigenvalueError(
            "matrix has an irrational real eigenvalue; pick a different sample")
    return max((eigenspace(m, lam).dim for lam in roots), default=0)


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
