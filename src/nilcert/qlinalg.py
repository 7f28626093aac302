"""Exact linear algebra over the rationals.

Scalars are ``fractions.Fraction`` at every interface; nothing in this
package ever touches floating point.  Internally, the heavy routines run on
plain Python ints, which gives the same exact results with far less
``Fraction`` overhead.  A ``Matrix`` holds its integer form, numerators
over one positive common denominator, and its arithmetic, equality and
every kernel below read that form; code that already holds integers builds
a matrix with ``Matrix.from_ints`` and no ``Fraction`` is made until an
entry is read.  One sparse fraction-free Gauss-Jordan elimination
(``_rref_int``) serves every ``Subspace`` (which ``rref`` and ``rank``
read), ``kernel_basis`` and ``eigenspace``; ``char_poly`` (whose constant
term ``det`` reads), the nilpotence tests, ``rational_roots`` and the
Sturm chains work on integer matrices and primitive integer polynomials.
Systems that other modules write down in integers (the Leibniz, center,
commutant and wedge systems) skip the dense matrix: ``sparse_rows`` sums
their integer terms into sparse rows ``{column: int}`` for ``int_kernel``
(which ``kernel_basis`` also calls) or ``Subspace.from_int_rows``;
``clear_denominators`` gives the integer form of a rational vector, and
``fraction_vector`` is the one reader back.
Matrices act on column vectors, so the composite map "apply h, then g" is
the product ``g * h``, and a linear map is built column by column from the
images of the basis vectors with ``Matrix.from_columns``.  A ``Subspace``
keeps the integer rows that elimination produces (the primitive multiples,
with positive pivot entries, of its reduced row-echelon basis), so subspace
equality is a plain data comparison, and sums, intersections, membership,
``equations``, ``restrict`` and ``combination`` (coefficients on the basis
back to a vector) all run on those rows; the ``Fraction`` basis is read
off them and not cached.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def qf(value) -> Fraction:
    """Coerce ints, strings like ``"3/5"``, and Fractions to Fraction: a
    string in ``Fraction()``'s grammar, for values written in code."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed; use Fraction or a string")
    return Fraction(value)


def unit_vector(n: int, i: int) -> tuple[Fraction, ...]:
    _check_index(i, n, "unit vector")
    return tuple(_ONE if k == i else _ZERO for k in range(n))


def _check_index(i: int, n: int, what: str) -> None:
    """Raise IndexError unless 0 <= i < n: no index wraps around."""
    if not 0 <= i < n:
        raise IndexError(f"{what} index {i} out of range for size {n}")


class Matrix:
    """Dense rational matrix, immutable once built.

    A matrix is its exact integer form: a positive common denominator
    ``den`` and the row-major integer numerators ``nums``, with
    gcd(den, *nums) = 1, so entry (i, j) is nums[i * cols + j] / den.
    Equality, hashing and arithmetic work on that form, and no ``Fraction``
    is kept: an indexed entry, a row or a column is made on its own from
    the slice of ``nums`` it needs, and ``entries`` is made on each read.
    """

    __slots__ = ("rows", "cols", "nums", "den")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        es = tuple(qf(e) for e in entries)
        if len(es) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(es)}")
        # the entries are in lowest terms, so this form is canonical
        d = math.lcm(*(e.denominator for e in es))
        self.rows, self.cols, self.den = rows, cols, d
        self.nums = tuple(e.numerator * (d // e.denominator) for e in es)

    @classmethod
    def from_ints(cls, rows: int, cols: int, nums: Iterable[int],
                  den: int = 1) -> "Matrix":
        """The matrix with entry (i, j) equal to nums[i * cols + j] / den,
        from row-major integers over a nonzero integer denominator."""
        nums = tuple(nums)
        if len(nums) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(nums)}")
        if not den:
            raise ZeroDivisionError("matrix denominator is zero")
        if den != 1:
            g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
            if g != 1:
                nums = tuple(x // g for x in nums)
                den //= g
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.nums, m.den = nums, den
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = [e for row in rows for e in row]
        return cls(nrows, ncols, flat)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        """The matrix whose j-th column is cols[j]: the matrix of the linear
        map sending the j-th basis vector to cols[j] (0x0 for no columns)."""
        nrows = len(cols[0]) if cols else 0
        return cls(nrows, len(cols),
                   itertools.chain.from_iterable(zip(*cols, strict=True)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_ints(n, n, (int(i == j) for i in range(n)
                                    for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_ints(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        vals = [qf(v) for v in values]
        n = len(vals)
        return cls(n, n, (vals[i] if i == j else _ZERO
                          for i in range(n) for j in range(n)))

    @classmethod
    def from_flat(cls, n: int, flat: Sequence) -> "Matrix":
        """Rebuild an n-by-n matrix from a row-major flattening."""
        return cls(n, n, flat)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The row-major ``Fraction`` entries, made on each read."""
        return fraction_vector(len(self.nums), enumerate(self.nums), self.den)

    def int_rows(self) -> list[dict[int, int]]:
        """The rows of ``nums`` as sparse {column: entry} maps, which list
        nonzero entries only."""
        a, c = self.nums, self.cols
        return [{j: x for j, x in enumerate(a[i * c:(i + 1) * c]) if x}
                for i in range(self.rows)]

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        _check_index(i, self.rows, "row")
        _check_index(j, self.cols, "column")
        return Fraction(self.nums[i * self.cols + j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        _check_index(i, self.rows, "row")
        c = self.cols
        return fraction_vector(c, enumerate(self.nums[i * c:(i + 1) * c]),
                               self.den)

    def col(self, j: int) -> tuple[Fraction, ...]:
        _check_index(j, self.cols, "column")
        return fraction_vector(self.rows, enumerate(self.nums[j::self.cols]),
                               self.den)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.nums))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        da, db = self.den, other.den
        d = math.lcm(da, db)
        fa, fb = d // da, d // db
        return Matrix.from_ints(self.rows, self.cols,
                                (fa * x + fb * y
                                 for x, y in zip(self.nums, other.nums)), d)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix.from_ints(self.rows, self.cols,
                                (-x for x in self.nums), self.den)

    def scale(self, c) -> "Matrix":
        c = qf(c)
        return Matrix.from_ints(self.rows, self.cols,
                                (c.numerator * x for x in self.nums),
                                c.denominator * self.den)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        return Matrix.from_ints(
            self.rows, other.cols,
            int_matmul(self.nums, other.nums, self.rows, self.cols, other.cols),
            self.den * other.den)

    def apply(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Matrix-vector product (column vector convention), in integers.
        Only the nonzero coordinates of v and the nonzero entries of their
        columns are visited."""
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        dv, vint = clear_denominators(enumerate(v))
        return fraction_vector(self.rows, self.int_apply(vint).items(),
                               self.den * dv)

    def int_apply(self, v: dict[int, int]) -> dict[int, int]:
        """``nums`` applied to the sparse integer vector v {column: entry},
        as a sparse integer vector; both list nonzero entries only."""
        a, n = self.nums, self.cols
        out: dict[int, int] = {}
        for j, x in v.items():
            for i, y in enumerate(a[j::n]):
                if y:
                    out[i] = out.get(i, 0) + y * x
        return {i: y for i, y in out.items() if y}

    def transpose(self) -> "Matrix":
        a, c = self.nums, self.cols
        return Matrix.from_ints(c, self.rows, itertools.chain.from_iterable(
            a[j::c] for j in range(c)), self.den)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(self.nums[::self.cols + 1]), self.den)

    def flatten(self) -> tuple[Fraction, ...]:
        """Row-major flattening; the convention used for matrix-space subspaces."""
        return self.entries

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __repr__(self) -> str:
        rows = [" ".join(str(e) for e in self.row(i)) for i in range(self.rows)]
        return "Matrix[" + "; ".join(rows) + "]"

    def _same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a nonzero sparse integer row by its content, in place: each
    caller passes a row it built (``from_int_rows`` copies its rows)."""
    g = math.gcd(*row.values())
    if g != 1:
        for j, x in row.items():
            row[j] = x // g
    return row


def clear_denominators(
        entries: Iterable[tuple[int, Fraction]]) -> tuple[int, dict[int, int]]:
    """The exact integer form of a sparse rational vector: (d, {j: d x})
    over the nonzero (j, x), where d is the lcm of their denominators
    (1 when there are none)."""
    nz = [(j, x) for j, x in entries if x]
    d = math.lcm(*(x.denominator for _, x in nz))
    return d, {j: x.numerator * (d // x.denominator) for j, x in nz}


def fraction_vector(n: int, entries: Iterable[tuple[int, int]],
                    den: int) -> tuple[Fraction, ...]:
    """The length-n vector with x / den at each integer (j, x) of entries
    and zero elsewhere, the reverse of ``clear_denominators``; zero entries
    are skipped, so a dense integer vector makes no Fraction(0, den)."""
    out = [_ZERO] * n
    for j, x in entries:
        if x:
            out[j] = Fraction(x, den)
    return tuple(out)


def _eliminate(row: dict[int, int], pivot_rows: list[tuple[int, dict[int, int]]]
               ) -> tuple[int, dict[int, int]]:
    """(scale, scale * row minus a combination of the pivot rows that is
    zero at each of their pivot columns).  Every pivot row must be zero at
    the other pivot columns, so each one clears its own column; scale > 0
    is the least factor that keeps everything integral."""
    scale = math.lcm(*(prow[c] // math.gcd(prow[c], row[c])
                       for c, prow in pivot_rows))
    out = {j: scale * x for j, x in row.items()} if scale != 1 else dict(row)
    for c, prow in pivot_rows:
        f = scale * row[c] // prow[c]
        for j, x in prow.items():
            w = out.get(j, 0) - f * x
            if w:
                out[j] = w
            else:
                del out[j]
    return scale, out


def _reduce(row: dict[int, int],
            pivot_rows: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """The primitive multiple of what ``_eliminate`` leaves of row."""
    out = _eliminate(row, pivot_rows)[1]
    return _primitive(out) if out else out


def _forced_columns(rows: list[dict[int, int]]
                    ) -> tuple[set[int], list[dict[int, int]]]:
    """(forced, rest) for primitive nonzero rows: forced holds the columns
    c that one-entry rows force to zero, so that e_c lies in their span,
    and rest, zero at every forced column, spans the rest modulo those e_c.

    A one-entry row is a multiple of e_c, so c is deleted from every other
    row, found through a column -> rows index; a row that drops to one
    entry forces its own column in turn and is dropped.  Each shortened row
    is a copy, divided by its content again; the others are passed on as
    they are."""
    forced = {c for row in rows if len(row) == 1 for c in row}
    if not forced:
        return forced, rows
    left: dict[int, dict[int, int]] = {}
    by_col: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        if len(row) > 1:
            left[i] = row
            for c in row:
                by_col.setdefault(c, []).append(i)
    copied: set[int] = set()
    todo = list(forced)
    while todo:
        c = todo.pop()
        for i in by_col.get(c, ()):
            row = left.get(i)
            if row is None:
                continue
            if i not in copied:
                row = left[i] = dict(row)
                copied.add(i)
            del row[c]
            if len(row) == 1:
                del left[i]
                j = next(iter(row))
                if j not in forced:
                    forced.add(j)
                    todo.append(j)
    return forced, [_primitive(row) if i in copied else row
                    for i, row in left.items()]


def _rref_int(rows: Iterable[dict[int, int]],
              ncols: int) -> list[tuple[int, dict[int, int]]]:
    """Sparse fraction-free Gauss-Jordan elimination over the integers.

    First the forced zeros (``_forced_columns``): for each column c that
    the one-entry rows force, e_c lies in the row space, so e_c is the RREF
    row with pivot c and every other RREF row is zero at c.  Those rows are
    {c: 1}, and only the rows left, with the forced columns deleted, are
    eliminated.

    The rows left are taken shortest first (one stable sort by length), so
    that the early pivot rows, which every later row is reduced against,
    carry few entries and create little fill.  The RREF of a row space is
    unique, so the order moves only the cost, never the result.  Each row
    is reduced against the pivot rows found so far and, if anything is
    left, its leading column becomes a new pivot, which is then cleared
    from the older pivot rows.  Every update is a primitive integer
    combination, so no Fraction is built and entries stay small.  An older
    row only changes at a column right of its own pivot, so the pivot rows
    stay in echelon shape.  Returns (pivot column, primitive row) pairs by
    increasing pivot; every pivot entry is positive, and row / row[pivot]
    is the RREF row.  The rows must be primitive and nonzero; a row dict
    that is passed in may be returned, but none is changed.
    """
    forced, rows = _forced_columns(list(rows))
    rows.sort(key=len)
    room = ncols - len(forced)
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(basis) == room:
            break
        hits = [(c, basis[c]) for c in row if c in basis]
        if hits:
            row = _reduce(row, hits)
        if not row:
            continue
        c = min(row)
        if row[c] < 0:
            row = {j: -x for j, x in row.items()}
        for pc, brow in basis.items():
            if c in brow:
                basis[pc] = _reduce(brow, [(c, row)])
        basis[c] = row
    basis.update((c, {c: 1}) for c in forced)
    return sorted(basis.items())


class RrefResult:
    __slots__ = ("matrix", "rank", "pivots")

    def __init__(self, matrix: Matrix, rank: int, pivots: tuple[int, ...]):
        self.matrix, self.rank, self.pivots = matrix, rank, pivots


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form of m, with rank and pivot columns:
    the canonical basis of m's row space, padded with zero rows."""
    s = Subspace.from_int_rows(m.cols, m.int_rows())
    b = s.basis
    pad = (0,) * ((m.rows - s.dim) * m.cols)
    return RrefResult(Matrix.from_ints(m.rows, m.cols, b.nums + pad, b.den),
                      s.dim, tuple(c for c, _ in s.echelon))


def rank(m: Matrix) -> int:
    return Subspace.from_int_rows(m.cols, m.int_rows()).dim


def det(m: Matrix) -> Fraction:
    """(-1)^n times the constant term of ``char_poly(m)`` = det(xI - m).
    That is O(n^4); no caller in the package needs a determinant."""
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    return (-1) ** m.rows * char_poly(m).coeffs[0]


class Subspace:
    """Subspace of Q^n, canonically represented.

    The subspace is stored as its integer echelon rows ``echelon``: one
    (pivot column, {column: entry}) pair per basis vector, by increasing
    pivot, where each row is the primitive integer multiple, with a positive
    pivot entry, of a row of the reduced row-echelon basis.  That form is
    unique, so two Subspace values describe the same subspace exactly when
    their rows are equal.  Every operation works on these rows alone; the
    ``Fraction`` RREF matrix ``basis`` is built from them on each read.
    """

    __slots__ = ("ambient_dim", "echelon")

    def _set(self, ambient_dim: int,
             echelon: list[tuple[int, dict[int, int]]]) -> "Subspace":
        self.ambient_dim = ambient_dim
        self.echelon = tuple(echelon)
        return self

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = []
        for v in vectors:
            row = [qf(x) for x in v]
            if len(row) != ambient_dim:
                raise ValueError(
                    f"vector length {len(row)} != ambient dim {ambient_dim}")
            rows.append(clear_denominators(enumerate(row))[1])
        return cls.from_int_rows(ambient_dim, rows)

    @classmethod
    def from_int_rows(cls, ambient_dim: int,
                      rows: Iterable[dict[int, int]]) -> "Subspace":
        """Span of sparse integer rows {column: entry}, which list nonzero
        entries only; copies of them are divided, never the given rows."""
        return cls.__new__(cls)._set(
            ambient_dim, _rref_int((_primitive(dict(r)) for r in rows if r),
                                   ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls.__new__(cls)._set(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.__new__(cls)._set(
            ambient_dim, [(i, {i: 1}) for i in range(ambient_dim)])

    def embed(self, ambient_dim: int, offset: int) -> "Subspace":
        """The image in Q^ambient_dim under e_j -> e_(j + offset), whose
        canonical rows are the shifted echelon rows: nothing is eliminated."""
        if not 0 <= offset <= ambient_dim - self.ambient_dim:
            raise ValueError(f"Q^{self.ambient_dim} shifted by {offset} "
                             f"does not fit in Q^{ambient_dim}")
        return Subspace.__new__(Subspace)._set(ambient_dim, [
            (c + offset, {j + offset: x for j, x in row.items()})
            for c, row in self.echelon])

    @property
    def dim(self) -> int:
        return len(self.echelon)

    @property
    def basis(self) -> Matrix:
        """The reduced row-echelon basis as a Fraction matrix (dim rows)."""
        return (Matrix.from_rows(self.basis_vectors()) if self.echelon
                else Matrix.zero(0, self.ambient_dim))

    def basis_vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        """Each echelon row over its pivot entry: the RREF basis vectors."""
        n = self.ambient_dim
        return tuple(fraction_vector(n, row.items(), row[c])
                     for c, row in self.echelon)

    def basis_matrices(self) -> tuple[Matrix, ...]:
        """The basis vectors of a subspace of Q^(n^2) as n-by-n matrices,
        read row-major: each is an echelon row over its pivot entry."""
        n = math.isqrt(self.ambient_dim)
        if n * n != self.ambient_dim:
            raise ValueError(f"ambient dim {self.ambient_dim} is not a square")
        return tuple(Matrix.from_ints(n, n, (row.get(j, 0)
                                             for j in range(n * n)), row[c])
                     for c, row in self.echelon)

    def free_columns(self) -> tuple[int, ...]:
        """The non-pivot columns, in increasing order.  The classes of the
        standard basis vectors at these columns are a basis of the quotient
        by this subspace, and ``reduce`` read at them gives a vector's
        coordinates there."""
        pivots = {c for c, _ in self.echelon}
        return tuple(t for t in range(self.ambient_dim) if t not in pivots)

    def equations(self) -> list[dict[int, int]]:
        """Sparse integer rows whose common kernel is this subspace, one per
        non-pivot column t, in increasing t.  A vector x lies in the
        subspace exactly when x_t = sum_r (row_r[t] / a_r) x_(p_r) for each
        t, over the rows r with pivot p_r and pivot entry a_r; the row for t
        is that condition scaled to integers by the lcm of those a_r."""
        hits: dict[int, list[tuple[int, int, int]]] = {
            t: [] for t in self.free_columns()}
        for c, row in self.echelon:
            a = row[c]
            for t, x in row.items():
                if t != c:
                    hits[t].append((c, x, a))
        return _free_column_rows(hits)

    def restrict(self, equations: Iterable[dict[int, int]]) -> "Subspace":
        """{v in this subspace : the sparse integer equations vanish at v}:
        the equations read on the echelon rows, then ``coordinate_kernel``."""
        return self.coordinate_kernel(apply_equations(
            equations, [row for _, row in self.echelon], self.ambient_dim))

    def coordinate_kernel(self, rows: Iterable[dict[int, int]]
                          ) -> "Subspace":
        """{sum_i y_i u_i : y solves the sparse integer rows}, over the
        echelon rows u_i, whose coefficients y are the rows' columns: one
        kernel over those dim coordinates, mapped back.

        No second elimination: echelon row i is the only one nonzero at its
        pivot p_i, and zero left of it.  So the combination by a kernel row
        y with leading coordinate t is zero left of p_t, has y_t row_t[p_t]
        > 0 at p_t, and is zero at the leading p_t' of every other kernel
        row, where y is zero.  These combinations, divided by their
        content, are the canonical rows."""
        echelon = self.echelon
        vectors = [row for _, row in echelon]
        return Subspace.__new__(Subspace)._set(self.ambient_dim, [
            (echelon[t][0], _primitive(weighted_sum(y, vectors)))
            for t, y in int_kernel(rows, self.dim).echelon])

    def preimage(self, images: Iterable[Sequence[dict[int, int]]],
                 k: int) -> "Subspace":
        """{a in Q^k : sum_j a_j f[j] lies in this subspace, for every f in
        images}, where each f is a sequence of k sparse integer vectors.
        One kernel: each of this subspace's equations applied to each f."""
        equations = self.equations()
        system = []
        for f in images:
            if len(f) != k:
                raise ValueError(f"{len(f)} images where {k} are expected")
            system += apply_equations(equations, f, self.ambient_dim)
        return int_kernel(system, k)

    def moved_by(self, m: Matrix) -> int | None:
        """The index of the first echelon row that the square matrix m
        carries out of this subspace, or None when m keeps it."""
        if not m.is_square or m.rows != self.ambient_dim:
            raise ValueError("matrix size does not match the subspace ambient")
        for k, (_, u) in enumerate(self.echelon):
            if not self.contains_int_row(m.int_apply(u)):
                return k
        return None

    def contains_int_row(self, row: dict[int, int]) -> bool:
        """Membership of the integer vector {column: entry}, which lists
        nonzero entries only."""
        return not self.int_reduce(row)[1]

    def int_reduce(self, row: dict[int, int]) -> tuple[int, dict[int, int]]:
        """(s, r) for the integer vector row {column: entry}: s > 0, and r is
        s * row minus the combination of the echelon rows that clears every
        pivot column, so r / s is the canonical representative of row."""
        return _eliminate(row, [(c, r) for c, r in self.echelon if c in row])

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Canonical representative of v modulo this subspace: v minus the
        combination of the basis that clears every pivot column."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        d, row = clear_denominators(enumerate(v))
        scale, rest = self.int_reduce(row)
        return fraction_vector(self.ambient_dim, rest.items(), d * scale)

    def contains(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return self.contains_int_row(clear_denominators(enumerate(v))[1])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains_int_row(row) for _, row in other.echelon)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace.from_int_rows(
            self.ambient_dim,
            [row for _, row in self.echelon + other.echelon])

    def intersect(self, other: "Subspace") -> "Subspace":
        """The vectors of this subspace that satisfy other's equations."""
        self._same_ambient(other)
        return self.restrict(other.equations())

    def combination(self, coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """sum_i coeffs[i] * basis[i] (see ``int_combination``)."""
        d, row = self.int_combination(coeffs)
        return fraction_vector(self.ambient_dim, row.items(), d)

    def int_combination(self, coeffs: Sequence[Fraction]
                        ) -> tuple[int, dict[int, int]]:
        """(d, {j: x}) with sum_i coeffs[i] * basis[i] equal to x / d at
        each listed j and zero elsewhere, computed on the integer rows:
        basis row i is echelon row i over its pivot entry a_i, so the
        weights coeffs[i] / a_i are brought to one denominator d first."""
        terms = [(c if isinstance(c, int) else qf(c), row[p])
                 for c, (p, row) in zip(coeffs, self.echelon, strict=True)]
        d = math.lcm(*(c.denominator * a for c, a in terms if c))
        return d, weighted_sum({
            i: c.numerator * (d // (c.denominator * a))
            for i, (c, a) in enumerate(terms) if c},
            [row for _, row in self.echelon])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.echelon == other.echelon)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(
            (c, tuple(sorted(row.items()))) for c, row in self.echelon)))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimension mismatch: {self.ambient_dim} vs {other.ambient_dim}")


def sparse_rows(terms: Iterable[tuple[object, int, int]]
                ) -> dict[object, dict[int, int]]:
    """The sparse integer rows of the terms (row key, column, value), keyed
    by row in increasing key order: the values at one (row, column) are
    summed, and cancelled entries and empty rows are dropped."""
    rows: dict[object, dict[int, int]] = {}
    get = rows.get
    for key, j, x in terms:
        row = get(key)
        if row is None:
            rows[key] = {j: x}
        else:
            row[j] = row.get(j, 0) + x
    out = {}
    for key in sorted(rows):
        row = rows[key]
        if 0 in row.values():
            row = {j: x for j, x in row.items() if x}
        if row:
            out[key] = row
    return out


def weighted_sum(weights: dict[int, int],
                 vectors: Sequence[dict[int, int]] | Mapping[int, dict]
                 ) -> dict[int, int]:
    """sum_i weights[i] * vectors[i] over sparse integer vectors, zeros
    dropped.  vectors, a sequence or a mapping, must hold every key i of
    weights: no missing key is read as empty or filled in."""
    out: dict[int, int] = {}
    get = out.get
    for i, w in weights.items():
        for j, x in vectors[i].items():
            out[j] = get(j, 0) + w * x
    if 0 in out.values():
        return {j: x for j, x in out.items() if x}
    return out


def column_index(vectors: Sequence[dict[int, int]], n: int
                 ) -> list[dict[int, int]]:
    """The sparse integer vectors in Q^n read as rows, by column: the list
    of the n columns {j: vectors[j][t]}, empty where no vector is nonzero."""
    by_col: list[dict[int, int]] = [{} for _ in range(n)]
    for j, v in enumerate(vectors):
        for t, x in v.items():
            by_col[t][j] = x
    return by_col


def apply_equations(equations: Iterable[dict[int, int]],
                    vectors: Sequence[dict[int, int]], n: int
                    ) -> list[dict[int, int]]:
    """For each sparse integer equation e on Q^n, the sparse row
    {j: e . vectors[j]} over the sparse integer vectors in Q^n, zeros
    dropped: the weighted sum, with e's weights, of their columns."""
    by_col = column_index(vectors, n)
    return [weighted_sum(eq, by_col) for eq in equations]


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of {x : m x = 0}, from the rows of m's integer
    numerators."""
    return int_kernel(m.int_rows(), m.cols)


def eigenspace(m: Matrix, lam) -> Subspace:
    """ker(m - lam I).  With m = A / den and lam = r / s in lowest terms,
    that is the kernel of the integer matrix s A - r den I."""
    if not m.is_square:
        raise ValueError("eigenspace of a non-square matrix")
    lam = qf(lam)
    n = m.rows
    a = [lam.denominator * x for x in m.nums]
    shift = lam.numerator * m.den
    a[::n + 1] = [x - shift for x in a[::n + 1]]
    return kernel_basis(Matrix.from_ints(n, n, a))


def int_kernel(rows: Iterable[dict[int, int]], ncols: int) -> Subspace:
    """Canonical basis of the solutions x in Q^ncols of the linear system
    whose equations are the sparse integer rows {column: coefficient}.

    Every row lists nonzero entries only; the rows are not modified.
    Callers that can write their system in integers pass it here directly,
    without a dense rational matrix.

    One elimination: ``_rref_int`` runs with the columns relabelled
    c -> ncols - 1 - c, so each pivot is the last nonzero column of its
    row, and the solutions are read off the pivot rows, one per free
    column t (``_free_column_rows``), each divided by its content.  Every
    pivot column in the solution for t lies right of t, and the solution
    is zero at the other free columns, so these are the primitive
    multiples, with positive leading entries and by increasing leading
    column t, of the kernel's reduced row-echelon basis: the canonical
    ``Subspace`` form, without a second elimination."""
    last = ncols - 1
    echelon = _rref_int(
        (_primitive({last - j: x for j, x in r.items()}) for r in rows if r),
        ncols)
    pivots = {last - c for c, _ in echelon}
    hits: dict[int, list[tuple[int, int, int]]] = {
        t: [] for t in range(ncols) if t not in pivots}
    for rc, row in echelon:
        c, a = last - rc, row[rc]
        for rj, x in row.items():
            if rj != rc:
                hits[last - rj].append((c, x, a))
    return Subspace.__new__(Subspace)._set(
        ncols, list(zip(hits, map(_primitive, _free_column_rows(hits)))))


def _free_column_rows(hits: dict[int, list[tuple[int, int, int]]]
                      ) -> list[dict[int, int]]:
    """One integer row for each free column t of a reduced echelon form, in
    the order of hits, where hits[t] lists (c, x, a) for each pivot row
    with entry x at t, pivot column c and pivot entry a: the solution of
    the echelon rows that is scale at t, -x * scale / a at each such c and
    zero elsewhere, with scale > 0 the lcm of those a."""
    out = []
    for t, entries in hits.items():
        scale = math.lcm(*(a for _, _, a in entries))
        row = {t: scale}
        for c, x, a in entries:
            row[c] = -x * (scale // a)
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Univariate rational polynomial, coefficients lowest-degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [qf(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(())
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Polynomial(out)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Polynomial(" + " + ".join(terms) + ")"


def int_matmul(a: Sequence[int], b: Sequence[int], n: int, m: int,
               p: int) -> list[int]:
    """Product of a row-major n-by-m and a row-major m-by-p integer matrix,
    skipping zeros."""
    out = [0] * (n * p)
    for i in range(n):
        arow = a[i * m:(i + 1) * m]
        o = i * p
        for k, aik in enumerate(arow):
            if aik:
                kp = k * p
                for j in range(p):
                    bkj = b[kp + j]
                    if bkj:
                        out[o + j] += aik * bkj
    return out


def char_poly(m: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(xI - m).

    With d = m.den, A = d m is the integer matrix m.nums, whose
    characteristic polynomial has integer coefficients c_i = d^(n-i) times
    those of m.  The Faddeev-LeVerrier recurrence runs on A in plain ints,
    where every division by the step count k is exact.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n, d, a = m.rows, m.den, m.nums
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [0] * (n * n)  # M_k = A M_(k-1) + c_(n-k+1) I, starting from M_1 = I
    mk[::n + 1] = [1] * n
    for k in range(1, n + 1):
        amk = int_matmul(a, mk, n, n, n)
        c, r = divmod(-sum(amk[::n + 1]), k)
        if r:
            raise ArithmeticError(
                f"Faddeev-LeVerrier step {k} left a remainder on an integer matrix")
        coeffs[n - k] = c
        amk[::n + 1] = [x + c for x in amk[::n + 1]]
        mk = amk
    return Polynomial([Fraction(c, d ** (n - i)) for i, c in enumerate(coeffs)])


def is_nilpotent(m: Matrix) -> bool:
    """True iff the characteristic polynomial is x^n (see ``_nilpotent``)."""
    if not m.is_square:
        raise ValueError("nilpotence test on a non-square matrix")
    return _nilpotent(m.nums, m.rows)


def is_unipotent(m: Matrix) -> bool:
    """True iff m - I is nilpotent, tested on its integer multiple
    m.nums - m.den I."""
    if not m.is_square:
        raise ValueError("unipotence test on a non-square matrix")
    n, d = m.rows, m.den
    a = list(m.nums)
    a[::n + 1] = [x - d for x in a[::n + 1]]
    return _nilpotent(a, n)


def _nilpotent(a: Sequence[int], n: int) -> bool:
    """Is the row-major n-by-n integer matrix A nilpotent?  Over Q that
    holds exactly when tr(A^k) = 0 for k = 1..n (Newton's identities turn
    these power sums into the coefficients of det(xI - A)), so the powers
    stop at the first nonzero trace or the first zero power."""
    power = a
    for k in range(1, n + 1):
        if not any(power):
            return True
        if sum(power[::n + 1]):
            return False
        if k < n:
            power = int_matmul(power, a, n, n, n)
    return True


# ---------------------------------------------------------------------------
# rational roots and real-root counting
# ---------------------------------------------------------------------------
#
# These run on integer coefficient lists, lowest degree first, with
# trailing zeros stripped; a polynomial is only ever rescaled by a positive
# factor, so every sign a Sturm count reads is kept.

def _primitive_poly(c: Sequence[int]) -> list[int]:
    """c divided by its (positive) content; [] for the zero polynomial."""
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else list(c)


def _primitive_coeffs(coeffs: Sequence[Fraction]) -> list[int]:
    """The primitive integer multiple of a nonzero rational coefficient
    list, by a positive factor."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return _primitive_poly([c.numerator * (d // c.denominator) for c in coeffs])


def rational_roots(p: Polynomial) -> dict[Fraction, int]:
    """All rational roots with multiplicities: the zero root first, then
    the others in ascending order."""
    return strip_rational_roots(p)[0]


def strip_rational_roots(p: Polynomial) -> tuple[dict[Fraction, int], Polynomial]:
    """(rational roots with multiplicity, cofactor with no rational roots).
    The cofactor is the primitive integer polynomial left once the roots
    are divided out: p over their linear factors, times a positive constant.

    With a_n the leading coefficient of the primitive integer multiple of
    p (degree n, powers of x stripped), q(y) = a_n^(n-1) p(y / a_n) is monic
    with integer coefficients, so its rational roots are integers, and y is
    one exactly when y / a_n is a root of p.  ``_integer_roots`` finds them;
    each root num/den is then divided out of the integer polynomial, as the
    factor den x - num, as often as it divides.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    roots: dict[Fraction, int] = {}
    # strip powers of x
    coeffs = list(p.coeffs)
    zero_mult = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    if zero_mult:
        roots[_ZERO] = zero_mult
    ints = _primitive_coeffs(coeffs)
    if len(ints) <= 1:
        return roots, Polynomial(ints)
    n = len(ints) - 1
    lead = ints[n]
    monic = [c * lead ** (n - 1 - i) for i, c in enumerate(ints[:n])] + [1]
    for root in sorted(Fraction(y, lead) for y in _integer_roots(monic)):
        factor = [-root.numerator, root.denominator]
        mult = 0
        while len(ints) > 1:
            quo = _divide_exact(ints, factor)
            if quo is None:
                break
            ints = quo
            mult += 1
        if not mult:
            raise ArithmeticError(f"root {root} did not divide out")
        roots[root] = mult
    return roots, Polynomial(ints)


def _integer_roots(q: list[int]) -> list[int]:
    """The integer roots, ascending, of a monic integer polynomial q of
    degree >= 1.

    The Sturm chain of q's square-free part f counts the distinct real
    roots in (lo + 1/2, hi + 1/2] for integers lo < hi; no half-integer is
    a root of the monic integer f, so every count is exact.  Starting from
    a root bound, an interval is halved until it holds at most one root;
    one that holds a single root is then halved by the sign of f alone,
    down to the one integer it contains, which is tested exactly.
    """
    chain = _sturm_chain(q)
    f = chain[0]
    d = len(f) - 1
    # Fujiwara: every root has |y| <= 2 max_i |f_i|^(1/(d-i)), and
    # |f_i| < 2^bits, so 2^ceil(bits/(d-i)) bounds each term
    bound = 2 << max(-(-abs(c).bit_length() // (d - i))
                     for i, c in enumerate(f[:d]))

    def variations(k: int) -> int:
        return _changes([s for s in (_sign_at_half(g, k) for g in chain) if s])

    roots = []
    lo, hi = -bound - 1, bound
    stack = [(lo, hi, variations(lo), variations(hi))]
    while stack:  # the leftmost interval is on top, so roots come ascending
        lo, hi, vlo, vhi = stack.pop()
        count = vlo - vhi
        if not count:
            continue
        if count == 1:
            # one simple root: f changes sign across it and nowhere else
            slo = _sign_at_half(f, lo)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _sign_at_half(f, mid) == slo:
                    lo = mid
                else:
                    hi = mid
        if hi - lo == 1:
            acc = 0
            for c in reversed(f):
                acc = acc * hi + c
            if not acc:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        stack.append((mid, hi, vmid, vhi))
        stack.append((lo, mid, vlo, vmid))
    return roots


def _sign_at_half(f: list[int], k: int) -> int:
    """Sign of the integer polynomial f at k + 1/2, from the integer
    2^deg f((2k + 1) / 2) = sum f_i (2k + 1)^i 2^(deg - i)."""
    x = 2 * k + 1
    d = len(f) - 1
    acc = 0
    for i in range(d, -1, -1):
        acc = acc * x + (f[i] << (d - i))
    return (acc > 0) - (acc < 0)


def _divide_exact(a: list[int], b: list[int]) -> list[int] | None:
    """The quotient of the integer polynomial a by b when it is exact and
    integral, else None.  By Gauss's lemma the quotient by a primitive b
    that divides a is integral, and long division meets it step by step."""
    db = len(b) - 1
    lead = b[-1]
    rem = list(a)
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[i + db], lead)
        if r:
            return None
        quo[i] = q
        if q:
            for j, y in enumerate(b):
                rem[i + j] -= q * y
    return None if any(rem[:db]) else quo


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of |lc b|^(deg a - deg b + 1) a on division by b, a
    positive multiple of the rational remainder of a by b, so its signs are
    those of the rational remainder."""
    db = len(b) - 1
    lead = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    rem = list(a)
    for i in range(len(a) - 1 - db, -1, -1):
        c = sign * rem[i + db]
        if lead != 1:
            rem = [lead * x for x in rem]
        if c:
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    rem = rem[:db]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def count_real_roots(p: Polynomial) -> int:
    """Number of distinct real roots, by a Sturm chain."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return 0
    chain = _sturm_chain(_primitive_coeffs(p.coeffs))
    # the sign of q at +inf is that of its leading coefficient; at -inf it
    # flips when deg q is odd, i.e. when len(q) is even
    at_plus = [q[-1] > 0 for q in chain]
    at_minus = [(q[-1] > 0) == (len(q) % 2 == 1) for q in chain]
    return _changes(at_minus) - _changes(at_plus)


def _changes(signs: list) -> int:
    """The number of sign changes along a list of signs, none of them 0."""
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """The Sturm chain of the square-free part f of the integer polynomial
    p (degree >= 1), each entry primitive: f, f', then the negated
    remainders down to the last nonzero one.  Each entry is a positive
    multiple of the rational chain's, so the sign variations are the same."""
    p = _primitive_poly(p)
    sqfree = _divide_exact(p, _poly_gcd(p, _derivative(p)))
    if sqfree is None:
        raise ArithmeticError("polynomial gcd does not divide the polynomial")
    chain = [sqfree, _primitive_poly(_derivative(sqfree))]
    while True:
        r = _prem(chain[-2], chain[-1])
        if not r:
            return chain
        chain.append([-x for x in _primitive_poly(r)])


def _derivative(c: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(c)][1:]


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd of two nonzero integer polynomials, primitive with a
    positive leading coefficient."""
    while b:
        a, b = b, _primitive_poly(_prem(a, b))
    a = _primitive_poly(a)
    return a if a[-1] > 0 else [-x for x in a]
