"""Lie algebras given by structure constants.

An algebra is its dimension and its structure constants c_ij^k, the
coordinates of [b_i, b_j], stored once, sparse and in integers
(``LieAlgebra.table``): the lcm D of all their denominators and, for each
pair (i, j), the nonzero entries (k, D c_ij^k).  The bracket and the
Jacobi scan run on it in plain ints and visit only nonzero entries;
``Fraction`` appears only in what they return.  The center, the Leibniz
system of ``autos`` and the JSON loader's Jacobi decision read the same
integer form of the copy P^-1 L P in a basis adapted to the descending
series (``LieAlgebra.adapted``), which is sparser and built once per
algebra, so the loader builds the descending series before it decides
Jacobi.  A reader that wants the ``Fraction`` coordinates of [b_i, b_j]
takes ``fraction_vector(dim, table[i][j], denom)``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .qlinalg import (
    Matrix,
    Subspace,
    clear_denominators,
    column_index,
    fraction_vector,
    int_kernel,
    qf,
    sparse_rows,
    unit_vector,
    weighted_sum,
)


class LieAlgebra:
    """An algebra by its structure constants in integers: [b_i, b_j] is the
    sum of t / denom * b_k over the (k, t) in table[i][j], which lists the
    nonzero entries only, by increasing k, and denom is the lcm of their
    lowest-terms denominators (1 when there are none).  That form is
    canonical, so two algebras are equal when dim, denom, table and labels
    are; the derived data below are computed on first use and kept in the
    instance dict."""

    def __init__(self, dim: int, denom: int,
                 table: tuple[tuple[tuple[tuple[int, int], ...], ...], ...],
                 labels: tuple[str, ...]):
        self.dim, self.denom, self.table, self.labels = dim, denom, table, labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return ((self.dim, self.denom, self.table, self.labels)
                == (other.dim, other.denom, other.table, other.labels))

    def __hash__(self) -> int:
        return hash((self.dim, self.denom, self.table, self.labels))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim {self.dim}: {', '.join(self.labels)})"

    @cached_property
    def descending_series(self) -> tuple[Subspace, ...]:
        """L, [L, L], [L, [L, L]], ..., ending at the first zero term or at
        the last term before the series stops shrinking, built on first
        use.  Each term lies inside the one before it for any table, Jacobi
        or not, and once a term equals the next it stays there, so this
        always ends; it is the lower central series when L is nilpotent."""
        full = Subspace.full(self.dim)
        series = [full]
        while series[-1].dim:
            term = (bracket_subspace(self, full, series[-1])
                    if len(series) > 1 else self.derived)
            if term.dim == series[-1].dim:
                break
            series.append(term)
        return tuple(series)

    @cached_property
    def jacobi_violations(self) -> tuple[tuple[int, int, int], ...]:
        """The basis triples i<j<k violating Jacobi, found on first use
        (``_jacobi_triples`` of the table)."""
        return tuple(_jacobi_triples(self.table))

    @cached_property
    def adapted(self) -> tuple[list[dict[int, int]], list[dict[int, int]],
                               tuple[tuple[tuple[tuple[int, int], ...],
                                           ...], ...]]:
        """(P's columns, Q's rows, the integer table of L' = P^-1 L P),
        built on first use: P and Q = delta P^-1 from ``_adapted_basis``,
        and L''s table at (i, j) the nonzero entries of Q [P e_i, P e_j]
        scaled by denom, written alternating.  It is a positive multiple
        of the table of the bracket P^-1 [P x, P y], so L' is L in the
        basis of P's columns, up to that constant factor; in a basis
        adapted to the descending series its brackets are sparser."""
        d = self.dim
        cols, rows = _adapted_basis(self)
        q_cols = column_index(rows, d)
        table = [[()] * d for _ in range(d)]
        for i, j in itertools.combinations(range(d), 2):
            v = int_bracket(self, cols[i], cols[j])
            w = tuple(sorted(weighted_sum(
                {m: x for m, x in enumerate(v) if x}, q_cols).items()))
            table[i][j], table[j][i] = w, tuple((k, -t) for k, t in w)
        return cols, rows, tuple(map(tuple, table))

    @cached_property
    def derived(self) -> Subspace:
        """[L, L], the span of the structure constants; built on first use."""
        table = self.table
        return Subspace.from_int_rows(self.dim, (
            dict(table[i][j])
            for i, j in itertools.combinations(range(self.dim), 2)))

    def basis_vector(self, i: int) -> tuple[Fraction, ...]:
        return unit_vector(self.dim, i)


def _jacobi_triples(table: Sequence[Sequence[Sequence[tuple[int, int]]]]
                   ) -> Iterator[tuple[int, int, int]]:
    """The basis triples i<j<k on which the Jacobi sum of an integer table
    laid out as ``LieAlgebra.table`` is nonzero, in order, found lazily.

    [b_a, [b_b, b_c]] has coordinate n equal to the sum over m of
    c_bc^m c_am^n; the three cyclic terms are summed in integers, scaled
    by denom^2, which does not change which sums vanish."""
    for i, j, k in itertools.combinations(range(len(table)), 3):
        acc: dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            ta = table[a]
            for m, x in table[b][c]:
                for n, y in ta[m]:
                    acc[n] = acc.get(n, 0) + x * y
        if any(acc.values()):
            yield i, j, k


def _adapted_basis(L: LieAlgebra) -> tuple[list[dict[int, int]],
                                           list[dict[int, int]]]:
    """(P's columns, Q's rows), sparse: column c of the integer lower
    triangular P is the echelon row with pivot c of the deepest term of
    ``L.descending_series`` that has one (e_c if no term below L does), and
    Q = delta P^-1 is the primitive integer multiple of P^-1.  The pivots
    of a subspace are among those of any subspace containing it, so P's
    columns pivoted in a term are a basis of it; P = Q = I when every term
    is spanned by basis vectors, as for a monomial table.  Q comes from
    forward substitution on det(P) P^-1, which is integral, so every
    division in it is exact."""
    d = L.dim
    cols = [{c: 1} for c in range(d)]
    for term in L.descending_series[1:]:
        for c, row in term.echelon:
            cols[c] = row
    det = math.prod(col[c] for c, col in enumerate(cols))
    rows = []
    for k in range(d):
        q = {k: det // cols[k][k]}
        for m in reversed(range(k)):
            t = sum(x * cols[m].get(j, 0) for j, x in q.items())
            if t:
                q[m] = -t // cols[m][m]
        rows.append(q)
    g = math.gcd(*(x for q in rows for x in q.values()))
    return cols, [{m: x // g for m, x in q.items()} for q in rows]


def make_lie_algebra(dim: int,
                     brackets: Mapping[tuple[int, int], Sequence],
                     labels: Sequence[str] | None = None) -> LieAlgebra:
    """Build an algebra from brackets on basis pairs.

    Coordinates are ints, read as they are, or anything else ``qf``
    takes; pairs omitted from ``brackets`` are zero; antisymmetry is filled
    in; conflicting duplicate pairs and repeated labels are rejected.  Jacobi
    is NOT verified here; callers that need the guarantee run check_jacobi.
    """
    if labels is None:
        labels = tuple(f"e{i + 1}" for i in range(dim))
    labels = tuple(labels)
    if len(labels) != dim:
        raise ValueError("need one label per basis element")
    if len(set(labels)) < dim:
        repeated = next(x for k, x in enumerate(labels) if x in labels[:k])
        raise ValueError(
            f"labels must be distinct: {_echo(repeated)} is repeated")
    given: dict[tuple[int, int], tuple[int | Fraction, ...]] = {}
    for (i, j), coords in brackets.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError("basis index out of range in pair "
                             f"({_echo(i)}, {_echo(j)})")
        v = tuple(x if type(x) is int else qf(x) for x in coords)
        if len(v) != dim:
            raise ValueError(f"bracket coordinates for ({i}, {j}) have wrong length")
        if i == j:
            if any(v):
                raise ValueError(f"[b{i}, b{i}] must be zero")
            continue
        neg = tuple(-x for x in v)
        for (a, b, val) in ((i, j, v), (j, i, neg)):
            if given.setdefault((a, b), val) != val:
                raise ValueError(f"conflicting values given for bracket ({a}, {b})")
    denom = math.lcm(*(x.denominator for v in given.values() for x in v))
    table = tuple(tuple(
        tuple((k, x.numerator * (denom // x.denominator))
              for k, x in enumerate(given.get((i, j), ())) if x)
        for j in range(dim)) for i in range(dim))
    return LieAlgebra(dim, denom, table, labels)


def int_bracket(L: LieAlgebra, x: dict[int, int],
                y: dict[int, int]) -> list[int]:
    """denom * [x, y] for integer coordinate maps x and y, over the nonzero
    coordinates and nonzero structure constants only."""
    out = [0] * L.dim
    table = L.table
    for i, xi in x.items():
        ti = table[i]
        for j, yj in y.items():
            c = xi * yj
            for k, t in ti[j]:
                out[k] += c * t
    return out


def bracket(L: LieAlgebra,
            x: Sequence[Fraction],
            y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Bilinear extension of the structure constants."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("element length does not match algebra dimension")
    dx, xi = clear_denominators(enumerate(x))
    dy, yi = clear_denominators(enumerate(y))
    return fraction_vector(L.dim, enumerate(int_bracket(L, xi, yi)),
                           L.denom * dx * dy)


def non_alternating_pair(L: LieAlgebra) -> tuple[int, int] | None:
    """The first basis pair (i, j) with i <= j, in order, at which the
    table is not alternating: [b_i, b_i] != 0 or [b_j, b_i] != -[b_i, b_j];
    None when there is none.  ``make_lie_algebra`` always builds an
    alternating table, but ``LieAlgebra`` takes any, and ``check_jacobi``
    scans only the triples i < j < k, which never compare the two orders."""
    table = L.table
    for i, j in itertools.combinations_with_replacement(range(L.dim), 2):
        if table[j][i] != tuple((k, -t) for k, t in table[i][j]):
            return i, j
    return None


def check_jacobi(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """All basis triples i<j<k violating the Jacobi identity (empty = pass),
    found once per algebra; every call returns a new list."""
    return list(L.jacobi_violations)


def ad_matrix(L: LieAlgebra, x: Sequence[Fraction]) -> Matrix:
    """Matrix of y -> [x, y] in the algebra basis."""
    return Matrix.from_columns([bracket(L, x, L.basis_vector(j))
                                for j in range(L.dim)])


def bracket_subspace(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of [x, y] over basis pairs of the two subspaces."""
    if a.ambient_dim != L.dim or b.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    return Subspace.from_int_rows(L.dim, (
        {k: v for k, v in enumerate(int_bracket(L, x, y)) if v}
        for _, x in a.echelon for _, y in b.echelon))


def lower_central_series(L: LieAlgebra) -> list[Subspace]:
    """``L.descending_series``, which ends at the first zero term when L is
    nilpotent; computed once per algebra, and every call returns a new list.

    Raises on non-nilpotent input instead of looping: a series that stops
    shrinking above zero never reaches it.
    """
    series = L.descending_series
    if series[-1].dim:
        raise ValueError("algebra is not nilpotent: lower central "
                         "series did not reach zero")
    return list(series)


def nilpotency_class(L: LieAlgebra) -> int:
    return len(lower_central_series(L)) - 1


def derived_subalgebra(L: LieAlgebra) -> Subspace:
    """[L, L], the span of the structure constants sc[i][j] over i < j,
    computed once per algebra."""
    return L.derived


def center(L: LieAlgebra) -> Subspace:
    """{x : [x, L] = 0}, taken for L' = P^-1 L P (``LieAlgebra.adapted``),
    whose table is sparser, and mapped back by P.

    The kernel has one row per (j, k) of L''s table, sum_i x_i c'_ij^k = 0.
    This is exact: L''s bracket is a positive multiple of P^-1 [P x, P y]
    and P is invertible, so x is central in L' exactly when P x is central
    in L.  Each kernel row z gives P z, the weighted sum of P's columns,
    and the span of those d-column rows is brought to canonical form."""
    d = L.dim
    cols, _, table = L.adapted
    kernel = int_kernel(sparse_rows(
        (j * d + k, i, t) for j in range(d) for i in range(d)
        for k, t in table[i][j]).values(), d)
    return Subspace.from_int_rows(
        d, (weighted_sum(z, cols) for _, z in kernel.echelon))


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
# where 0 <= dim <= MAX_JSON_DIM, labels (if given) holds dim strings, i
# and j are basis indices, and coords is a list of dim rationals written as
# JSON integers or strings "n" or "n/d" (``parse_rational``).  dim, the
# indices and integer coordinates must be JSON integers: a float or a
# boolean is rejected, not truncated, and so is an integer literal past
# int()'s digit bound, by its field.  A key given twice is rejected.
# Omitted pairs are zero; antisymmetry is completed automatically; the
# Jacobi identity is verified on load, on the adapted copy, and violations
# are reported in the given basis.  Every malformed field raises a
# ValueError that names it and quotes the value short (``_echo``).

#: the largest dim a JSON document may declare; a dim-d algebra's table has
#: d^2 slots at load, and the loader builds the descending series (a span
#: of C(d, 2) brackets and more per term) and the adapted table (C(d, 2)
#: brackets) before its Jacobi check scans C(d, 3) basis triples, so an
#: unbounded dim would let one small document exhaust memory or time
MAX_JSON_DIM = 128

#: the one grammar of a string coordinate, "n" or "n/d": an ASCII integer
#: with an optional minus sign, over an optional ASCII denominator d, which
#: must be nonzero; no plus sign, spaces, underscores, decimals or exponents
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class _LongLiteral:
    """A JSON integer literal with more digits than ``int()`` converts,
    kept as its text for ``_json_int`` to report in the field it is in."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return f"<integer literal {_echo(self.text)}>"


def _json_literal(text: str) -> int | _LongLiteral:
    """``json.loads``'s reader of integer literals, which are digits with
    an optional minus sign: int(text) within ``int()``'s digit bound."""
    try:
        return int(text)
    except ValueError:
        return _LongLiteral(text)


def _past_digit_bound() -> str:
    return (f"more than the {sys.get_int_max_str_digits()} that "
            "sys.get_int_max_str_digits() lets int() read")


def _json_int(value, name: str) -> int:
    if isinstance(value, _LongLiteral):
        raise ValueError(
            f"{name} {_echo(value.text)} has {len(value.text.lstrip('-'))} "
            f"digits, {_past_digit_bound()}")
    # bool is a subclass of int, and int() would truncate a float
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a JSON integer, got {_echo(value)}")
    return value


def _echo(value) -> str:
    """value quoted for an error message: its repr when that is at most 80
    characters, else a prefix and the length, so that a large document does
    not copy itself into the message.  The prefix of a string is its first
    16 characters, and that of any other value the first 48 of its repr.
    A parsed document can nest deeper than repr reaches; such a value is
    named by its type alone."""
    try:
        text = repr(value)
    except RecursionError:
        return f"a {type(value).__name__} nested too deeply to quote"
    if len(text) <= 80:
        return text
    if isinstance(value, str):
        return f"{value[:16]!r}... ({len(value)} characters)"
    return f"{text[:48]}... ({len(text)} characters)"


def parse_rational(text: str) -> int | Fraction:
    """A rational written in the one grammar ``_RATIONAL``: "n" as int(n)
    and "n/d" as Fraction(n, d).  Raises a ValueError, whose message reads
    on from the quoted text, for a string outside the grammar, a zero d,
    or an n or d with more digits than ``int()`` converts
    (``sys.get_int_max_str_digits()``)."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"{_echo(text)} is not a rational number")
    num, den = m.groups()
    try:
        if den is None:
            return int(num)
        n, d = int(num), int(den)
    except ValueError:  # in the grammar, so past int()'s digit bound
        digits = max(len(num.lstrip("-")), len(den or ""))
        raise ValueError(f"{_echo(text)} has a part of {digits} digits, "
                         f"{_past_digit_bound()}") from None
    if not d:
        raise ValueError(f"{_echo(text)} has a zero denominator")
    return Fraction(n, d)


def _json_coords(coords, i: int, j: int) -> list[int | Fraction]:
    """The coordinates of [b_i, b_j] as given: a JSON integer as that int
    and a string as ``parse_rational`` reads it; every other value is
    rejected."""
    name = f"bracket coordinates for ({i}, {j})"
    if not isinstance(coords, list):
        raise ValueError(f"{name} must be a list, got {_echo(coords)}")
    out = []
    for c in coords:
        if isinstance(c, str):
            try:
                out.append(parse_rational(c))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        else:
            out.append(_json_int(c, name + " entry"))
    return out


def _distinct_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads would keep the last of two values given for one key
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(
                f"the field {_echo(key)} is given more than once")
        out[key] = value
    return out


def lie_algebra_from_json(source: str | Mapping) -> LieAlgebra:
    """The algebra of a JSON document (or of its parsed object), in the
    schema above; raises a ValueError that names what is wrong.

    Jacobi is decided on the adapted copy L' = P^-1 L P
    (``LieAlgebra.adapted``), whose table is sparser than the given one,
    and only a table that fails there is scanned again in the given basis
    (``check_jacobi``), so that the error names L's own basis triples.
    This is a proof, not a filter: with J and J' the Jacobi maps of L and
    L', J'(x, y, z) = c P^-1 J(P x, P y, P z) for a constant c > 0, and P
    is invertible, so J' vanishes exactly when J does.  Both tables are
    alternating (``make_lie_algebra`` completes antisymmetry and rejects a
    nonzero [b_i, b_i], and L''s table is written alternating), so J and
    J' are alternating trilinear maps, and each vanishes exactly when it
    vanishes on the basis triples i < j < k.
    """
    data = source
    if isinstance(source, str):
        try:
            data = json.loads(source, object_pairs_hook=_distinct_keys,
                              parse_int=_json_literal)
        except RecursionError:
            raise ValueError("the algebra document nests too deeply for "
                             "the JSON reader") from None
    if not isinstance(data, Mapping):
        raise ValueError(
            f"the algebra document must be a JSON object, got {_echo(data)}")
    # a misspelled "brackets" would otherwise load as the abelian algebra
    unknown = [k for k in data if k not in ("dim", "labels", "brackets")]
    if unknown:
        raise ValueError(f"unknown fields {_echo(unknown)}: an algebra document "
                         "has only dim, labels and brackets")
    if "dim" not in data:
        raise ValueError("missing field: dim")
    dim = _json_int(data["dim"], "dim")
    if dim < 0:
        raise ValueError(f"dim must be nonnegative, got {_echo(dim)}")
    if dim > MAX_JSON_DIM:
        raise ValueError(
            f"dim must be at most {MAX_JSON_DIM}, got {_echo(dim)}: the bracket "
            "table has dim^2 slots and the Jacobi check scans C(dim, 3) "
            "basis triples")
    labels = data.get("labels")
    if labels is not None and (
            not isinstance(labels, list) or len(labels) != dim
            or not all(isinstance(x, str) for x in labels)):
        raise ValueError(
            f"labels must be a list of {dim} strings, got {_echo(labels)}")
    entries = data.get("brackets", [])
    if not isinstance(entries, list):
        raise ValueError("brackets must be a list of [i, j, coords] entries, "
                         f"got {_echo(entries)}")
    brackets = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError("each brackets entry must be a list [i, j, coords], "
                             f"got {_echo(entry)}")
        i = _json_int(entry[0], "bracket index i")
        j = _json_int(entry[1], "bracket index j")
        coords = _json_coords(entry[2], i, j)
        if brackets.setdefault((i, j), coords) != coords:
            raise ValueError("conflicting values given for bracket "
                             f"({_echo(i)}, {_echo(j)})")
    L = make_lie_algebra(dim, brackets, labels)
    if next(_jacobi_triples(L.adapted[2]), None):
        raise ValueError(
            f"Jacobi identity fails on basis triples {check_jacobi(L)}")
    return L


def lie_algebra_to_json(L: LieAlgebra) -> str:
    entries = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            if L.table[i][j]:
                entries.append([i, j, [str(c) for c in fraction_vector(
                    L.dim, L.table[i][j], L.denom)]])
    return json.dumps({"dim": L.dim, "labels": list(L.labels),
                       "brackets": entries})
