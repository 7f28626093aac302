"""Dense ``Fraction`` references shared by the tests: Gauss-Jordan
elimination and nullspaces, polynomial long division, matrix powers, the
derivation action on the exterior square, the dense structure-constant
tensor, and the bracket, a change of basis and the Leibniz rows from it,
written out plainly so that the integer routines of ``nilcert`` can be
checked against them."""

import itertools
from fractions import Fraction as Q

from nilcert.liecore import make_lie_algebra
from nilcert.qlinalg import (Matrix, Polynomial, Subspace, fraction_vector,
                             unit_vector)
from nilcert.wedgerep import wedge_pairs, wedge_vector


def ref_rref(rows, ncols):
    """Gauss-Jordan in Fractions: (nonzero RREF rows, pivot columns)."""
    m = [[Q(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(m)) if m[i][c]), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[:len(pivots)]], pivots


def ref_nullspace(rows, ncols):
    """A basis of {x : row . x = 0 for every row}: one vector per non-pivot
    column, 1 there and minus that column of the RREF rows at the pivots."""
    reduced, pivots = ref_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[free] = Q(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


def poly_divmod(a, b):
    """(quotient, remainder) of the Polynomial a by the nonzero Polynomial
    b, by long division in Fractions."""
    rem = list(a.coeffs)
    db, lead = b.degree, b.coeffs[-1]
    quo = [Q(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - db - 1, -1, -1):
        f = quo[i] = rem[i + db] / lead
        for j, c in enumerate(b.coeffs):
            rem[i + j] -= f * c
    return Polynomial(quo), Polynomial(rem)


def mat_pow(m, k):
    """m^k for a square Matrix and k >= 0, as a product of k factors."""
    out = Matrix.identity(m.rows)
    for _ in range(k):
        out = out * m
    return out


def wedge_derivation(x):
    """The derivation action of the square Matrix x on wedge^2, column by
    column from its definition: x e_i ^ e_j + e_i ^ x e_j."""
    n = x.rows
    e = [unit_vector(n, i) for i in range(n)]
    return Matrix.from_columns([
        tuple(a + b for a, b in zip(wedge_vector(x.apply(e[i]), e[j]),
                                    wedge_vector(e[i], x.apply(e[j]))))
        for i, j in wedge_pairs(n)])


def assert_kernel(space, rows, ncols):
    """space is the kernel of the dense rows: same dimension, same span."""
    ref = ref_nullspace(rows, ncols)
    assert space.ambient_dim == ncols
    assert space.dim == len(ref)
    assert space == Subspace.span(ncols, ref)
    for v in space.basis_vectors():
        assert all(isinstance(x, Q) for x in v)
        assert not any(sum(a * b for a, b in zip(row, v)) for row in rows)


def dense_tensor(L):
    """The full antisymmetric tensor of L: entry [i][j] holds the Fraction
    coordinates of [b_i, b_j], read from the integer table."""
    return tuple(tuple(fraction_vector(L.dim, e, L.denom) for e in row)
                 for row in L.table)


def dense_bracket(L, x, y):
    sc = dense_tensor(L)
    out = [Q(0)] * L.dim
    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                out[k] += x[i] * y[j] * sc[i][j][k]
    return tuple(out)


#: sl2, so3 and gl2 over pairs i < j; Jacobi holds with nonzero terms
REDUCTIVE = (
    (3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}),
    (3, {(0, 1): (0, 0, 1), (0, 2): (0, -1, 0), (1, 2): (1, 0, 0)}),
    (4, {(0, 1): (0, 2, 0, 0), (0, 2): (0, 0, -2, 0), (1, 2): (1, 0, 0, 0)}),
)


def change_basis(dim, brackets, u):
    """Structure constants in the basis f_i = sum_a u[a][i] e_a, for an
    upper triangular u with nonzero diagonal."""
    L = make_lie_algebra(dim, brackets)
    cols = [[u[a][i] for a in range(dim)] for i in range(dim)]
    out = {}
    for i, j in itertools.combinations(range(dim), 2):
        w = dense_bracket(L, cols[i], cols[j])
        c = [Q(0)] * dim
        for r in reversed(range(dim)):
            c[r] = (w[r] - sum(u[r][k] * c[k] for k in range(r + 1, dim))
                    ) / u[r][r]
        out[(i, j)] = c
    return out


def dense_leibniz_rows(L):
    d = L.dim
    sc = dense_tensor(L)
    rows = []
    for i, j in itertools.combinations(range(d), 2):
        for m in range(d):
            row = [Q(0)] * (d * d)
            for k in range(d):
                row[m * d + k] += sc[i][j][k]
                row[k * d + i] -= sc[k][j][m]
                row[k * d + j] -= sc[i][k][m]
            rows.append(row)
    return rows
