"""The concrete models: V inside 3x3 symmetric matrices, the sl2 triple
acting on it, the invariant subspace W of wedge^2 V, and the two nilpotent
algebras G (2-step) and N (3-step) built on V + wedge^2(V)/W.  N differs
from G only in the hook [s1, p12] = p, and its integer table has one
writer, ``hook_table``, which ``autos`` also reads to recognise that
layout and to build its hook pencil.

As sl2-modules, V and V' are the binary quartics and the binary sextics:
``binary_form_action`` (or ``binary_form_image``, for one vector's image)
builds a sampled group element on either one from its 2x2 matrix in
integers, checked once per process against the exterior-square path.

Basis conventions, fixed once:
  * V has basis s1..s5 (3x3 symmetric matrices with m22 = 2*m13);
  * wedge^2 V uses lexicographic pairs of the s-basis;
  * V' = wedge^2(V)/W uses the class representatives
    p12, p13, p14, p15, p25, p35, p45 in that order (the identifications
    p14 = p23, p15 = p24, p25 = p34 hold in the quotient);
  * G and N have ordered basis (s1..s5, p12, p13, p14, p15, p25, p35, p45).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .liecore import (
    LieAlgebra,
    check_jacobi,
    make_lie_algebra,
    non_alternating_pair,
    parse_rational,
)
from .qlinalg import Matrix, Subspace, qf, unit_vector, weighted_sum
from .wedgerep import (
    NotInvariantError,
    induced_algebra_action,
    induced_group_action,
    invariant_closure,
    quotient_action,
    wedge_vector,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

V_LABELS = ("s1", "s2", "s3", "s4", "s5")
VPRIME_LABELS = ("p12", "p13", "p14", "p15", "p25", "p35", "p45")
ALGEBRA_LABELS = V_LABELS + VPRIME_LABELS

#: default central target of the 3-step bracket hook: p13 + p45 in V' coords.
DEFAULT_P = (_ZERO, _ONE, _ZERO, _ZERO, _ZERO, _ZERO, _ONE)


class CertificationError(AssertionError):
    """An exact cross-check inside nilcert refuted an identification that
    the checks build on: the binary-form matrices against the
    exterior-square action, or a model's table being alternating and
    satisfying Jacobi.  That refutes the check that meets it, so
    ``cli.run`` reports it as a failure, where any other exception is an
    error."""


CARTAN = Matrix.from_rows([(2, 0, 0), (0, 0, 0), (0, 0, -2)])
RAISING = Matrix.from_rows([(0, 1, 0), (0, 0, 1), (0, 0, 0)])
LOWERING = Matrix.from_rows([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


def v_basis() -> tuple[Matrix, ...]:
    """The five symmetric 3x3 matrices spanning V."""
    s1 = Matrix.from_rows([(2, 0, 0), (0, 0, 0), (0, 0, 0)])
    s2 = Matrix.from_rows([(0, 1, 0), (1, 0, 0), (0, 0, 0)])
    s3 = Matrix.from_rows([(0, 0, 1), (0, 2, 0), (1, 0, 0)])
    s4 = Matrix.from_rows([(0, 0, 0), (0, 0, 1), (0, 1, 0)])
    s5 = Matrix.from_rows([(0, 0, 0), (0, 0, 0), (0, 0, 2)])
    return (s1, s2, s3, s4, s5)


def in_V(m: Matrix) -> bool:
    """Membership in V: symmetric with m22 = 2*m13."""
    if m.rows != 3 or m.cols != 3:
        return False
    return (m == m.transpose()) and m[1, 1] == 2 * m[0, 2]


def v_coordinates(m: Matrix) -> tuple[Fraction, ...]:
    """Coordinates of a member of V in the s-basis."""
    if not in_V(m):
        raise ValueError("matrix does not lie in V")
    return (m[0, 0] / 2, m[0, 1], m[0, 2], m[1, 2], m[2, 2] / 2)


def algebra_action_on_V(xi: Matrix) -> Matrix:
    """The 5x5 matrix of s -> xi s + s xi^t on V, in the s-basis.

    Raises NotInvariantError naming the first basis matrix whose image
    leaves V: preserving V is itself one of the certified claims.
    """
    if xi.rows != 3 or xi.cols != 3:
        raise ValueError("expected a 3x3 matrix")
    xit = xi.transpose()
    return _action_on_V(lambda s: xi * s + s * xit, "xi s + s xi^t")


def _action_on_V(image: Callable[[Matrix], Matrix], formula: str) -> Matrix:
    """The matrix of s -> image(s) on V, one column per basis matrix;
    raises NotInvariantError at the first basis matrix sent out of V."""
    cols = []
    for idx, s in enumerate(v_basis()):
        m = image(s)
        if not in_V(m):
            raise NotInvariantError(
                f"{formula} leaves V on basis matrix s{idx + 1}", s)
        cols.append(v_coordinates(m))
    return Matrix.from_columns(cols)


@lru_cache(maxsize=1)
def sl2_actions_on_V() -> tuple[Matrix, Matrix, Matrix]:
    """Actions of the sl2 triple (h, e, f) on V, the generators used everywhere."""
    return tuple(algebra_action_on_V(x) for x in (CARTAN, RAISING, LOWERING))


class SL2Element:
    """The 2x2 matrix [[a, b], [c, d]] of determinant exactly 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = qf(a), qf(b), qf(c), qf(d)
        if a * d - b * c != 1:
            raise ValueError("determinant must be exactly 1")
        self.a, self.b, self.c, self.d = a, b, c, d

    def __eq__(self, other) -> bool:
        if not isinstance(other, SL2Element):
            return NotImplemented
        return ((self.a, self.b, self.c, self.d)
                == (other.a, other.b, other.c, other.d))

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"SL2Element({self.a}, {self.b}, {self.c}, {self.d})"

    @classmethod
    def identity(cls) -> "SL2Element":
        return cls(1, 0, 0, 1)

    @classmethod
    def hyperbolic(cls, t) -> "SL2Element":
        t = qf(t)
        if t == 0:
            raise ValueError("hyperbolic parameter must be nonzero")
        return cls(t, 0, 0, 1 / t)

    @classmethod
    def upper(cls, s) -> "SL2Element":
        return cls(1, qf(s), 0, 1)

    @classmethod
    def lower(cls, s) -> "SL2Element":
        return cls(1, 0, qf(s), 1)

    @classmethod
    def elliptic(cls, num: int, den: int) -> "SL2Element":
        """Rational rotation from the Pythagorean pair of t = num/den:
        (a, b) = ((den^2 - num^2)/(den^2 + num^2), 2 num den/(den^2 + num^2))."""
        num, den = int(num), int(den)
        if den == 0:
            raise ValueError("denominator must be nonzero")
        q = num * num + den * den
        a = Fraction(den * den - num * num, q)
        b = Fraction(2 * num * den, q)
        return cls(a, b, -b, a)

    def __mul__(self, other: "SL2Element") -> "SL2Element":
        return SL2Element(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)


def sym2_embed(g: SL2Element) -> Matrix:
    """Symmetric-square homomorphism SL(2) -> SL(3).

    Written on the basis (2*E11, E12+E21, E22) of symmetric 2x2 matrices,
    scaled so that the derivative carries the sl2 triple (e, h, f) to
    (RAISING, CARTAN, 2*LOWERING) exactly; then sym2_embed of the unit
    upper shear equals exp(RAISING) on the nose and all exp-compatibility
    checks are exact.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    return Matrix.from_rows([
        (a * a, a * b, b * b / 2),
        (2 * a * c, a * d + b * c, b * d),
        (2 * c * c, 2 * c * d, d * d),
    ])


def group_action_on_V(h: Matrix) -> Matrix:
    """The 5x5 matrix of s -> h s h^t on V in the s-basis.

    Raises NotInvariantError with the offending basis matrix if h does not
    preserve V (generic elements of SL(3) do not).
    """
    if h.rows != 3 or h.cols != 3:
        raise ValueError("expected a 3x3 matrix")
    ht = h.transpose()
    return _action_on_V(lambda s: h * s * ht, "h s h^t")


#: Phi(s_k) = c_k x^(4-k) y^k on V and Phi(p_k) = c_k x^(6-k) y^k on V',
#: keyed by degree: the scalars c that make Phi an isomorphism of
#: sl2-modules onto the binary quartics and sextics.
BINARY_FORM_SCALES = {
    4: (_ONE, _ONE, Fraction(3, 2), Fraction(1, 2), Fraction(1, 4)),
    6: (_ONE, Fraction(3), Fraction(3, 2), _ONE, Fraction(3, 4),
        Fraction(3, 4), Fraction(1, 8)),
}


def binary_form_action(g: SL2Element, degree: int) -> Matrix:
    """The matrix of g on V (degree 4, s-basis) or V' (degree 6, p-basis),
    read as binary forms of that degree through Phi, built by the column
    code of ``binary_form_image``.

    g = [[a, b], [c, d]] acts on forms by the substitution
    (x, y) -> (ax + cy, bx + dy), a left action.  The first call in a
    process certifies the identification (``_certify_binary_forms``) and
    fixes the Phi ratios that this and every later call use; a
    disagreement raises on this and every later call.
    """
    return _binary_form_matrix(g, degree, _certify_binary_forms()[degree])


def binary_form_image(g: SL2Element, degree: int,
                      v: dict[int, int]) -> dict[int, int]:
    """A positive multiple of ``binary_form_action(g, degree).int_apply(v)``
    for the sparse integer vector v {column: entry}, from the columns j
    with v_j != 0 alone; certified as that matrix is."""
    phi = _certify_binary_forms()[degree]
    cols = _binary_form_columns(g, degree, v, phi)[1]
    return weighted_sum(v, {j: dict(enumerate(c)) for j, c in cols.items()})


def _binary_form_matrix(g: SL2Element, n: int,
                        phi: tuple[int, tuple[tuple[int, ...], ...]]) -> Matrix:
    """The matrix whose columns are the images of the n + 1 unit vectors."""
    den, cols = _binary_form_columns(g, n, range(n + 1), phi)
    return Matrix.from_ints(n + 1, n + 1, [
        x for row in zip(*cols.values()) for x in row], den)


def _binary_form_columns(g: SL2Element, n: int, js: Iterable[int],
                         phi: tuple[int, tuple[tuple[int, ...], ...]]
                         ) -> tuple[int, dict[int, list[int]]]:
    """(l q^n, {j: column j of the matrix times l q^n}) for j in js.  With
    (A, B, C, D) = q (a, b, c, d) integral for the least q, the image of
    x^(n-j) y^j is (Ax + Cy)^(n-j) (Bx + Dy)^j / q^n; Phi turns its
    coefficient of x^(n-k) y^k into entry (k, j) times c_j / c_k, which
    phi = (l, ratios) holds as ratios[j][k] / l (from ``_phi_ratios``).

    The product is taken at x = 1, y = 2^s (Kronecker substitution): one
    integer product per column, whose base-2^s digits, lowest first and
    read in [-2^(s-1), 2^(s-1)), are the coefficients for k = 0, ..., n.
    They fit: their sizes sum to at most (|A| + |C|)^(n-j) (|B| + |D|)^j
    <= M^n, for M the larger of the two sums, and M^n < 2^(s-1) for
    s = n bits(M) + 1."""
    abcd = (g.a, g.b, g.c, g.d)
    q = math.lcm(*(x.denominator for x in abcd))
    a, b, c, d = (x.numerator * (q // x.denominator) for x in abcd)
    s = n * max(abs(a) + abs(c), abs(b) + abs(d)).bit_length() + 1
    left, right = a + (c << s), b + (d << s)
    half, mask = 1 << (s - 1), (1 << s) - 1
    cols = {}
    for j in js:
        x = left ** (n - j) * right ** j
        col = []
        for r in phi[1][j]:
            digit = ((x + half) & mask) - half
            col.append(digit * r)
            x = (x - digit) >> s
        cols[j] = col
    return phi[0] * q ** n, cols


def _phi_ratios(scales: tuple[Fraction, ...]
                ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(l, r) with r[j][k] = l c_j / c_k, l the least positive integer that
    makes every such ratio integral: column j of D^-1 M D is column j of M
    times c_j, row k divided by c_k, for D = diag(c)."""
    ratios = [[cj / ck for ck in scales] for cj in scales]
    lcm = math.lcm(*(r.denominator for row in ratios for r in row))
    return lcm, tuple(tuple(r.numerator * (lcm // r.denominator) for r in row)
                      for row in ratios)


@lru_cache(maxsize=1)
def _certify_binary_forms() -> dict[int, tuple[int, tuple[tuple[int, ...], ...]]]:
    """The Phi ratios of ``BINARY_FORM_SCALES``, by degree, once the
    binary-form matrices they give for upper(1) and lower(1) are checked
    against the exterior-square path (h s h^t on V, then wedge^2 V mod W,
    W-invariance checked); raises CertificationError on any difference.

    Both maps are rational homomorphisms SL2(Q) -> GL.  Agreement at
    upper(1) gives agreement at upper(1)^k = upper(k) for every integer k;
    the entries are polynomials in t on upper(t), so they agree at every
    rational t.  The same holds for lower(t), and these elements generate
    SL2(Q), so the two checks certify every later binary-form matrix.
    """
    phi = {n: _phi_ratios(scales) for n, scales in BINARY_FORM_SCALES.items()}
    for g in (SL2Element.upper(1), SL2Element.lower(1)):
        on_v = group_action_on_V(sym2_embed(g))
        on_vprime = quotient_action(induced_group_action(on_v), build_W())
        if (_binary_form_matrix(g, 4, phi[4]) != on_v
                or _binary_form_matrix(g, 6, phi[6]) != on_vprime):
            raise CertificationError(
                f"binary forms disagree with the exterior-square action of {g}")
    return phi


@lru_cache(maxsize=1)
def build_W() -> Subspace:
    """Span of s1^s4 - s2^s3, s1^s5 - s2^s4, s2^s5 - s3^s4 in wedge^2 V."""
    e = [unit_vector(5, i) for i in range(5)]

    def w(i, j, k, l):
        return tuple(x - y for x, y in zip(wedge_vector(e[i], e[j]),
                                           wedge_vector(e[k], e[l])))

    return Subspace.span(10, [w(0, 3, 1, 2), w(0, 4, 1, 3), w(1, 4, 2, 3)])


@lru_cache(maxsize=1)
def induced_sl2_on_wedge() -> tuple[Matrix, Matrix, Matrix]:
    """The (h, e, f) actions on wedge^2 V, as derivations."""
    return tuple(induced_algebra_action(m) for m in sl2_actions_on_V())


@lru_cache(maxsize=1)
def build_Wprime() -> Subspace:
    """Closure of s1^s2 under the induced algebra generators (dimension 7)."""
    e = [unit_vector(5, i) for i in range(5)]
    seed = wedge_vector(e[0], e[1])
    return invariant_closure([seed], induced_sl2_on_wedge())


@lru_cache(maxsize=1)
def sl2_actions_on_Vprime() -> tuple[Matrix, Matrix, Matrix]:
    """Factors of the induced (h, e, f) actions on V' (7x7 matrices)."""
    w = build_W()
    return tuple(quotient_action(m, w) for m in induced_sl2_on_wedge())


def vprime_to_algebra(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Embed V'-coordinates into the 12-dim algebra coordinates."""
    if len(v) != 7:
        raise ValueError("expected 7 coordinates")
    return tuple([_ZERO] * 5) + tuple(qf(x) for x in v)


def subspace_in_algebra(s: Subspace) -> Subspace:
    """Embed a subspace of V' as coordinates 5..11 of the algebra."""
    if s.ambient_dim != 7:
        raise ValueError("expected 7 coordinates")
    return s.embed(12, 5)


@lru_cache(maxsize=1)
def L_subspace() -> Subspace:
    """L = span(p13, p14, p15, p25, p35, p45) inside V'."""
    return Subspace.span(7, [unit_vector(7, k) for k in range(1, 7)])


#: the basis pair (s1, p12) of the hook [s1, p12] = p, the one bracket in
#: which N differs from G
HOOK = (0, 5)


def _two_step_brackets() -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """[s_i, s_j] = s_i^s_j mod W in the p-class coordinates: the
    reduction modulo W, read at W's ``free_columns``.  Its one reader,
    ``build_two_step``, is cached, so each call builds a fresh dict."""
    w = build_W()
    reps = w.free_columns()
    e = [unit_vector(5, i) for i in range(5)]
    brackets = {}
    for i in range(5):
        for j in range(i + 1, 5):
            cls = w.reduce(wedge_vector(e[i], e[j]))
            brackets[(i, j)] = vprime_to_algebra([cls[c] for c in reps])
    return brackets


def _certified(L: LieAlgebra, model: str) -> LieAlgebra:
    """L, once its table is alternating (``non_alternating_pair``) and it
    satisfies Jacobi; raises CertificationError naming the first failure."""
    pair = non_alternating_pair(L)
    if pair is not None:
        raise CertificationError(
            f"{model} model's table is not alternating at basis pair {pair}")
    violations = check_jacobi(L)
    if violations:
        raise CertificationError(
            f"{model} model failed the Jacobi identity on {violations}")
    return L


@lru_cache(maxsize=1)
def build_two_step() -> LieAlgebra:
    """The 12-dim 2-step algebra G: [u, v] = u^v mod W, V' central."""
    return _certified(
        make_lie_algebra(12, _two_step_brackets(), ALGEBRA_LABELS), "2-step")


def validate_p(p: Sequence) -> tuple[Fraction, ...]:
    """A usable hook target: 7 rationals, nonzero, lying in L (so the p12
    coordinate vanishes: otherwise [s1, p12] would have a p12 component,
    ad s1 would not be nilpotent, and neither would N).  The one reader of
    a hook target, ``--p``'s too: p is a sequence, not one string, bytes or
    a mapping; text, stripped, is read by the JSON loader's
    ``parse_rational``, any other coordinate must be an int (not a bool) or
    a Fraction, and a bad coordinate is named by label, always in a
    ValueError."""
    if isinstance(p, (str, bytes, bytearray)) or not isinstance(p, Sequence):
        kind = "string" if isinstance(p, str) else type(p).__name__
        raise ValueError(f"p must be a sequence of 7 coordinates, not a {kind}")
    if len(p) != 7:
        raise ValueError("p needs 7 coordinates in the V' basis "
                         + "(" + ", ".join(VPRIME_LABELS) + ")")
    p = [x.strip() if isinstance(x, str) else x for x in p]
    if "" in p:
        label = VPRIME_LABELS[p.index("")]
        raise ValueError(f"the {label} coordinate is empty")
    vec = []
    for label, x in zip(VPRIME_LABELS, p):
        if isinstance(x, str):
            try:
                x = parse_rational(x)
            except ValueError as exc:
                raise ValueError(f"the {label} coordinate {exc}") from None
        elif isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise ValueError(f"the {label} coordinate is a {type(x).__name__}"
                             ", not text, an integer or a rational")
        vec.append(qf(x))
    if not any(vec):
        raise ValueError("p must be nonzero")
    if vec[0] != 0:
        raise ValueError("p must lie in L: its p12 coordinate must be zero "
                         "(otherwise [s1, p12] would have a p12 component "
                         "and N would not be nilpotent)")
    return tuple(vec)


def hook_table(scale: int, hook: Iterable[tuple[int, int]]
               ) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """scale times G's integer table, with the integer entries hook at
    (s1, p12) and their negation at (p12, s1), laid out as
    ``LieAlgebra.table``: the one writer of N's table.  Scale 0 gives the
    table of the hook alone."""
    table = [[tuple((k, scale * t) for k, t in e) if e and scale != 1 else e
              for e in row] if scale else [()] * len(row)
             for row in build_two_step().table]
    i, j = HOOK
    table[i][j] = hook = tuple(hook)
    table[j][i] = tuple((k, -t) for k, t in hook)
    return tuple(map(tuple, table))


def build_three_step(p: Sequence | None = None) -> LieAlgebra:
    """The 12-dim 3-step algebra N: the 2-step brackets plus [s1, p12] = p.

    Its table is ``hook_table`` at the lcm of G's denominator and p's, the
    canonical table that ``make_lie_algebra`` builds from the same
    brackets, without a ``Fraction`` per entry."""
    pvec = validate_p(DEFAULT_P if p is None else p)
    G = build_two_step()
    denom = math.lcm(G.denom, *(x.denominator for x in pvec))
    return _certified(LieAlgebra(12, denom, hook_table(denom // G.denom, (
        (k, x.numerator * (denom // x.denominator))
        for k, x in enumerate(vprime_to_algebra(pvec)) if x)), G.labels),
        "3-step")


class ModelData:
    """Everything the verification suite consumes, for one hook target p.

    The parts that do not depend on p (G, W, W', L, the sl2 actions) are
    cached per process, so a record for a new p builds only N; records
    are not cached.  The sl2 actions on V and on V' are (h, e, f) tuples."""

    __slots__ = ("actions_on_V", "W", "Wprime", "vprime_actions", "L", "p",
                 "G", "N")

    def __init__(self, actions_on_V: tuple[Matrix, ...], W: Subspace,
                 Wprime: Subspace, vprime_actions: tuple[Matrix, ...],
                 L: Subspace, p: tuple[Fraction, ...], G: LieAlgebra,
                 N: LieAlgebra):
        self.actions_on_V, self.vprime_actions = actions_on_V, vprime_actions
        self.W, self.Wprime, self.L = W, Wprime, L
        self.p, self.G, self.N = p, G, N


def model_data(p: Sequence | None = None) -> ModelData:
    """A new record for the validated hook target p (default DEFAULT_P)."""
    p = validate_p(DEFAULT_P if p is None else p)
    return ModelData(
        actions_on_V=sl2_actions_on_V(),
        W=build_W(),
        Wprime=build_Wprime(),
        vprime_actions=sl2_actions_on_Vprime(),
        L=L_subspace(),
        p=p,
        G=build_two_step(),
        N=build_three_step(p),
    )
