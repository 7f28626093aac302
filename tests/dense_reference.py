"""Dense ``Fraction`` references shared by the tests: Gauss-Jordan
elimination and nullspaces, polynomial long division, matrix powers and the
derivation action on the exterior square, written out plainly so that the
integer routines of ``nilcert`` can be checked against them."""

from fractions import Fraction as Q

from nilcert.qlinalg import Matrix, Polynomial, unit_vector
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
