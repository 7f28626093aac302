"""Named check suites and the ``nilcert`` command line tool.

Every check states the claim it certifies, the expected value, and the
exactly computed actual value.  A check FAILS when exact computation refutes
the claim; warnings mark certificates that pass their trials but are known
to be incomplete.  Reports are emitted in registry order and the JSON form
is byte-identical across runs with the same configuration (timings are kept
out of it for that reason; the text form shows them).

Exit codes: 0 all pass (warnings allowed), 1 some check failed, 2 usage or
configuration error, 3 some check raised instead of answering (reported
with status ``error``, never as a failure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property

from . import __version__
from .liecore import (
    abelian_lie_algebra,
    bracket,
    center,
    check_jacobi,
    heisenberg3,
    lower_central_series,
    nilpotency_class,
)
from .models import (
    DEFAULT_P,
    CertificationError,
    ModelData,
    SL2Element,
    VPRIME_LABELS,
    binary_form_action,
    group_action_on_V,
    induced_sl2_on_wedge,
    model_data,
    subspace_in_algebra,
    sym2_embed,
    validate_p,
)
from .qlinalg import Matrix, Subspace, is_unipotent, qf, unit_vector
from .wedgerep import (
    commutant,
    induced_algebra_action,
    quotient_action,
    wedge_pairs,
    weight_decomposition,
)
from .autos import (
    EIGEN_RELATION_PAIRS,
    IrrationalEigenvalueError,
    derivation_algebra,
    derivation_defects,
    eigen_relation_kernel,
    exp_nilpotent,
    fixed_space,
    infinitesimal_line_stabilizer,
    line_through,
    max_eigenspace_dim,
    model_derivations,
    sample_derivation,
    sample_h_element,
    stabilizer_algebra,
)

PASS = "pass"
FAIL = "fail"
WARN = "warn"
ERROR = "error"  # the check raised: no answer, so neither pass nor fail


class Config:
    __slots__ = ("p", "seed", "trials")

    def __init__(self, p: tuple[Fraction, ...] = DEFAULT_P, seed: int = 0,
                 trials: int = 100):
        # a sampled check that drew no sample would read as a clean run
        if trials < 1:
            raise ValueError(f"{trials} (at least one sample is needed)")
        self.p, self.seed, self.trials = p, seed, trials

    def as_dict(self) -> dict:
        return {"p": [str(x) for x in self.p],
                "seed": self.seed, "trials": self.trials}


class CheckResult:
    __slots__ = ("id", "status", "expected", "actual", "claim", "duration_ms")

    def __init__(self, id: str, status: str, expected: str, actual: str,
                 claim: str, duration_ms: float):
        self.id, self.status, self.claim = id, status, claim
        self.expected, self.actual = expected, actual
        self.duration_ms = duration_ms

    def as_dict(self) -> dict:
        # durations are measurements, not results; leaving them out keeps
        # reports byte-identical across runs of the same configuration
        return {"id": self.id, "status": self.status,
                "expected": self.expected, "actual": self.actual,
                "claim": self.claim}


class Report:
    __slots__ = ("version", "config", "results")

    def __init__(self, version: str, config: Config,
                 results: tuple[CheckResult, ...]):
        self.version, self.config, self.results = version, config, results

    @property
    def counts(self) -> dict[str, int]:
        """Results by status; the error count is listed only when nonzero,
        so a report without errors keeps its bytes."""
        c = {PASS: 0, FAIL: 0, WARN: 0, ERROR: 0}
        for r in self.results:
            c[r.status] += 1
        if not c[ERROR]:
            del c[ERROR]
        c["total"] = len(self.results)
        return c

    def as_dict(self) -> dict:
        return {"version": self.version,
                "config": self.config.as_dict(),
                "checks": [r.as_dict() for r in self.results],
                "summary": self.counts}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [f"nilcert {self.version}  "
                 f"(p = {', '.join(str(x) for x in self.config.p)}; "
                 f"seed = {self.config.seed}; trials = {self.config.trials})"]
        for r in self.results:
            tag = r.status.upper().ljust(4)
            lines.append(f"[{tag}] {r.id}: expected {r.expected}; "
                         f"got {r.actual}  ({r.duration_ms:.1f} ms)")
            if r.status != PASS:
                lines.append(f"       claim: {r.claim}")
        c = self.counts
        errors = f", {c[ERROR]} errors" if ERROR in c else ""
        lines.append(f"{c['total']} checks: {c[PASS]} passed, "
                     f"{c[FAIL]} failed, {c[WARN]} warnings{errors}")
        return "\n".join(lines) + "\n"


class Context:
    """Shared, lazily computed artifacts for one configuration."""

    def __init__(self, config: Config):
        self.config = config
        self._elements: dict[int, tuple[str, SL2Element]] = {}
        self._samples_on_Vprime: dict[int, Matrix] = {}

    @cached_property
    def data(self) -> ModelData:
        return model_data(self.config.p)

    @cached_property
    def der_G(self):
        return model_derivations(self.data.G)

    @cached_property
    def der_N(self):
        return model_derivations(self.data.N)

    @cached_property
    def stab_W(self):
        return stabilizer_algebra(self.data.W)

    @cached_property
    def stab_Wprime(self):
        return stabilizer_algebra(self.data.Wprime)

    def element(self, index: int) -> tuple[str, SL2Element]:
        """The index-th seeded H-element as a 2x2 matrix, with its kind."""
        if index not in self._elements:
            self._elements[index] = sample_h_element(self.config.seed, index)
        return self._elements[index]

    def sample(self, index: int) -> tuple[str, Matrix]:
        """The index-th seeded H-element acting on V, with its kind."""
        kind, g = self.element(index)
        return kind, binary_form_action(g, 4)

    def sample_on_Vprime(self, index: int) -> Matrix:
        """The index-th seeded H-element acting on V'."""
        if index not in self._samples_on_Vprime:
            self._samples_on_Vprime[index] = binary_form_action(
                self.element(index)[1], 6)
        return self._samples_on_Vprime[index]


class Check:
    __slots__ = ("id", "description", "claim", "fn", "reads_models")

    def __init__(self, id: str, description: str, claim: str,
                 fn: Callable[[Context], tuple[str, str, str]],
                 reads_models: bool):
        self.id, self.description, self.claim = id, description, claim
        self.fn = fn
        self.reads_models = reads_models  # does fn read ctx.data?


_REGISTRY: list[Check] = []


def _check(id: str, description: str, claim: str, reads_models: bool = True):
    def wrap(fn):
        _REGISTRY.append(Check(id, description, claim, fn, reads_models))
        return fn
    return wrap


def _status(ok: bool) -> str:
    return PASS if ok else FAIL


def _dims(spaces) -> str:
    return "(" + ", ".join(str(s.dim) for s in spaces) + ")"


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

@_check("jacobi.G",
        "Jacobi identity for the 2-step model G",
        "the bracket [u, v] = u^v mod W with central V' is a Lie bracket")
def _jacobi_g(ctx):
    bad = check_jacobi(ctx.data.G)
    return _status(not bad), "no violating triples", f"{bad or 'none'}"


@_check("jacobi.N",
        "Jacobi identity for the 3-step model N",
        "adding [s1, p12] = p with p in the central subspace L keeps Jacobi")
def _jacobi_n(ctx):
    bad = check_jacobi(ctx.data.N)
    return _status(not bad), "no violating triples", f"{bad or 'none'}"


@_check("lcs.G-12-7-0",
        "lower central series dimensions of G",
        "G is 2-step: the series dimensions are 12, 7, 0")
def _lcs_g(ctx):
    dims = _dims(lower_central_series(ctx.data.G))
    return _status(dims == "(12, 7, 0)"), "(12, 7, 0)", dims


@_check("lcs.N-12-7-1-0",
        "lower central series dimensions of N",
        "N is 3-step: the hook target p spans the last nonzero term")
def _lcs_n(ctx):
    dims = _dims(lower_central_series(ctx.data.N))
    return _status(dims == "(12, 7, 1, 0)"), "(12, 7, 1, 0)", dims


@_check("nilclass.G-2", "nilpotency class of G", "G is 2-step nilpotent")
def _class_g(ctx):
    k = nilpotency_class(ctx.data.G)
    return _status(k == 2), "2", str(k)


@_check("nilclass.N-3", "nilpotency class of N", "N is 3-step nilpotent")
def _class_n(ctx):
    k = nilpotency_class(ctx.data.N)
    return _status(k == 3), "3", str(k)


@_check("weights.V",
        "weight decomposition of the Cartan action on V",
        "s1..s5 are weight vectors of the Cartan action with weights "
        "4, 2, 0, -2, -4, "
        "each one-dimensional")
def _weights_v(ctx):
    wd = weight_decomposition(ctx.data.actions_on_V[0], (4, 2, 0, -2, -4))
    expected_lines = all(
        wd.spaces[qf(w)] == Subspace.span(5, [unit_vector(5, i)])
        for i, w in enumerate((4, 2, 0, -2, -4)))
    ok = wd.complete and expected_lines
    actual = ("five coordinate lines, direct sum is V" if ok else
              f"dims {[s.dim for s in wd.spaces.values()]}, complete={wd.complete}")
    return _status(ok), "five coordinate lines, direct sum is V", actual


@_check("weights.Vprime",
        "weight decomposition of the Cartan action on V'",
        "the quotient Cartan action on V' is diagonal with weights "
        "6, 4, 2, 0, -2, -4, -6")
def _weights_vprime(ctx):
    m = quotient_action(induced_sl2_on_wedge()[0], ctx.data.W)
    expected = Matrix.diagonal((6, 4, 2, 0, -2, -4, -6))
    wd = weight_decomposition(m, (6, 4, 2, 0, -2, -4, -6))
    ok = m == expected and wd.complete
    return (_status(ok), "diag(6, 4, 2, 0, -2, -4, -6)",
            "exact diagonal match" if ok else repr(m))


@_check("ident.G",
        "wedge identifications inside G",
        "modulo W: [s1,s4] = [s2,s3], [s1,s5] = [s2,s4], [s2,s5] = [s3,s4]")
def _ident_g(ctx):
    G = ctx.data.G
    e = [G.basis_vector(i) for i in range(5)]
    same = [bracket(G, e[0], e[3]) == bracket(G, e[1], e[2]),
            bracket(G, e[0], e[4]) == bracket(G, e[1], e[3]),
            bracket(G, e[1], e[4]) == bracket(G, e[2], e[3])]
    return _status(all(same)), "three equalities", f"{sum(same)} of 3 hold"


@_check("w.invariant",
        "invariance of W under the induced algebra actions",
        "W (dimension 3) is carried into itself by the induced actions of "
        "the full sl2 triple")
def _w_invariant(ctx):
    w = ctx.data.W
    ok = w.dim == 3 and all(w.moved_by(m) is None
                            for m in induced_sl2_on_wedge())
    return _status(ok), "dim 3, invariant under all three", \
        "invariant" if ok else "not invariant"


@_check("irred.V-commutant-1",
        "irreducibility certificate on V",
        "the commutant of the sl2 actions on V is the "
        "scalars; with complete reducibility this certifies irreducibility")
def _commutant_v(ctx):
    d = commutant(ctx.data.actions_on_V).dim
    return _status(d == 1), "1", str(d)


@_check("wedge.commutant-2",
        "commutant on the exterior square",
        "the induced action on wedge^2 V has a 2-dimensional commutant: "
        "exactly two irreducible summands", reads_models=False)
def _commutant_wedge(ctx):
    d = commutant(induced_sl2_on_wedge()).dim
    return _status(d == 2), "2", str(d)


@_check("wedge.W-Wprime-decomp",
        "decomposition wedge^2 V = W + W'",
        "W' (the closure of s1^s2, dimension 7) meets W trivially and "
        "together they fill the 10-dimensional exterior square")
def _w_wprime(ctx):
    w, wp = ctx.data.W, ctx.data.Wprime
    inter = w.intersect(wp)
    total = w.sum(wp)
    ok = (w.dim, wp.dim, inter.dim, total.dim) == (3, 7, 0, 10)
    return (_status(ok), "dims (3, 7, 0, 10)",
            f"dims ({w.dim}, {wp.dim}, {inter.dim}, {total.dim})")


@_check("thm.stabilizer-dim4",
        "the stabilizer algebra of W",
        "matrices on V whose induced derivation action preserves W form "
        "exactly the span of the identity and the three sl2 actions, "
        "dimension 4")
def _stab_dim4(ctx):
    stab = ctx.stab_W
    expected_span = Subspace.span(25, [
        m.flatten() for m in (Matrix.identity(5), *ctx.data.actions_on_V)])
    ok = stab.dim == 4 and stab == expected_span
    return (_status(ok), "dim 4, equal to the named span",
            f"dim {stab.dim}, span equality: {stab == expected_span}")


@_check("thm.no-open-orbit",
        "dimension gap behind the no-open-orbit conclusion",
        "the stabilizer algebra has dimension 4 < 5 = dim V, so an algebraic "
        "group with finitely many components acting through it has no open "
        "orbit on V")
def _no_open_orbit(ctx):
    d = ctx.stab_W.dim
    return _status(d == 4 and d < 5), "4 < 5", f"{d} < 5: {d < 5}"


@_check("thm.stabilizer-Wprime",
        "the stabilizer algebra of W'",
        "the stabilizer algebra of W' also has dimension 4 and coincides "
        "with the stabilizer algebra of W")
def _stab_wprime(ctx):
    sp = ctx.stab_Wprime
    inside = ctx.stab_W.contains_subspace(sp)
    return (_status(sp.dim == 4 and inside), "dim 4, contained in stab(W)",
            f"dim {sp.dim}, contained: {inside}")


@_check("thm.eigen-relations",
        "eigenvalue relation system",
        "the six pairs spanning W give exponent relations l_i + l_j = 0 "
        "whose only solution is zero, forcing all five eigenvalues to 1")
def _eigen_relations(ctx):
    ker = eigen_relation_kernel()
    pairs = wedge_pairs(5)
    # a basis vector is nonzero exactly where its echelon row is
    match = set(EIGEN_RELATION_PAIRS) == {
        (pairs[k][0] + 1, pairs[k][1] + 1)
        for _, row in ctx.data.W.echelon for k in row}
    return (_status(ker.dim == 0 and match), "kernel 0, pairs match W's support",
            f"kernel {ker.dim}, pairs match: {match}")


@_check("der.G-dim-39",
        "derivation algebra dimension of G",
        "the Leibniz kernel for G has dimension 39 = 4 + 35")
def _der_g_dim(ctx):
    d = ctx.der_G.dim
    return _status(d == 39), "39", str(d)


@_check("der.G-decomposition",
        "derivation decomposition of G",
        "der(G) splits as lifts of the stabilizer algebra (acting on V and, "
        "through the quotient of the induced action, on V') plus all of "
        "Hom(V, V'): 39 = 4 + 35, an exact subspace equality")
def _der_g_decomp(ctx):
    d = ctx.data
    lift_rows = []
    for x in ctx.stab_W.basis_matrices():
        xq = quotient_action(induced_algebra_action(x), d.W)
        # the block diagonal matrix diag(x, xq), flattened, in integers
        den = math.lcm(x.den, xq.den)
        row = {}
        for m, off in ((x, 0), (xq, 5)):
            for idx, v in enumerate(m.nums):
                if v:
                    i, j = divmod(idx, m.cols)
                    row[(off + i) * 12 + off + j] = den // m.den * v
        lift_rows.append(row)
    lift = Subspace.from_int_rows(144, lift_rows)
    hom = Subspace.from_int_rows(144, ({r * 12 + c: 1} for r in range(5, 12)
                                       for c in range(5)))
    total = lift.sum(hom)
    ok = (total == ctx.der_G.space and lift.dim == 4 and hom.dim == 35
          and total.dim == 39)
    return (_status(ok), "lift(4) + Hom(35) = der(G), direct",
            f"dims {lift.dim}+{hom.dim}={total.dim}, equality: {total == ctx.der_G.space}")


@_check("n.der-dim-32",
        "derivation algebra dimension of N",
        "claimed: every derivation of N is a shear derivation plus an inner "
        "one, so the Leibniz kernel has dimension 32 = 30 + 2")
def _der_n_dim(ctx):
    d = ctx.der_N.dim
    return _status(d == 32), "32", str(d)


@_check("n.der-decomposition",
        "derivation decomposition of N",
        "claimed: der(N) = {derivations with image in L} + span(ad s1, ad s2) "
        "as an exact subspace equality")
def _der_n_decomp(ctx):
    d = ctx.data
    shear = ctx.der_N.with_image_in(subspace_in_algebra(d.L))
    # ad s1 and ad s2, flattened row-major: entry (k, j) is coordinate k
    # of [s_i, b_j], read in integers off the structure constants
    n, table = d.N.dim, d.N.table
    ads = Subspace.from_int_rows(n * n, (
        {k * n + j: t for j in range(n) for k, t in table[i][j]}
        for i in (0, 1)))
    total = shear.sum(ads)
    ok = total == ctx.der_N.space and shear.dim == 30 and ads.dim == 2
    return (_status(ok), "shear(30) + inner(2) = der(N)",
            f"dims {shear.dim}+{ads.dim}={total.dim} vs der(N) dim "
            f"{ctx.der_N.dim}; equality: {total == ctx.der_N.space}")


@_check("n.derivations-nilpotent",
        "universal nilpotence of der(N)",
        "claimed: every derivation of N kills the abelianization and cubes "
        "to zero, so the identity component of Aut(N) is unipotent")
def _der_n_nilpotent(ctx):
    bad_factor, bad_cube = derivation_defects(ctx.der_N)
    ok = not bad_factor and not bad_cube
    actual = ("all factors zero, all cubes zero" if ok else
              f"nonzero factors at basis {bad_factor}, nonzero cubes at {bad_cube}")
    return _status(ok), "all factors zero, all cubes zero", actual


@_check("n.exp-unipotent",
        "unipotence of exponentials of derivations of N",
        "claimed: exponentials of derivations of N are unipotent "
        "automorphisms (50 seeded samples)")
def _exp_unipotent(ctx):
    failures = []
    for i in range(50):
        dm = sample_derivation(ctx.der_N, ctx.config.seed, 10_000 + i)
        try:
            t = exp_nilpotent(dm)
        except ValueError as exc:
            failures.append(f"sample {i}: {exc}")
            continue
        if not is_unipotent(t):
            failures.append(f"sample {i}: exponential not unipotent")
    ok = not failures
    return (_status(ok), "50 unipotent automorphisms",
            "all unipotent" if ok else f"{len(failures)} failures; first: {failures[0]}")


@_check("p.line-stabilizer-zero",
        "infinitesimal stabilizer of the line through p",
        "no nonzero element of the acting algebra moves p along itself: "
        "the kernel of xi -> (xi p) ^ p is zero")
def _line_stab(ctx):
    ker = infinitesimal_line_stabilizer(ctx.config.p, ctx.data.vprime_actions)
    return _status(ker.dim == 0), "0", str(ker.dim)


@_check("p.sampled-nonfixing",
        "sampled group elements do not fix the line through p",
        "seeded hyperbolic, unipotent and elliptic elements all move the "
        "line through p; finite-order elliptic elements are not exhausted "
        "by sampling, so a clean run is reported as a warning, not a pass",
        reads_models=False)
def _sampled_nonfixing(ctx):
    line = line_through(ctx.config.p)
    fixing = []
    for i in range(ctx.config.trials):
        kind, g = ctx.element(i)
        if g.b == g.c == 0 and g.a == g.d:  # g = +-I acts trivially on V
            continue
        if line.moved_by(ctx.sample_on_Vprime(i)) is None:
            fixing.append((i, kind))
    if fixing:
        return FAIL, "no sampled element fixes the line", f"fixed by {fixing}"
    return (WARN, "no sampled element fixes the line",
            f"none of {ctx.config.trials} samples fixes it (sampling cannot "
            "exhaust finite-order elliptic elements)")


@_check("bound.eigenspace-max3",
        "eigenspace dimension bound on V'",
        "for sampled elements acting on the 7-dimensional V', every rational "
        "eigenvalue has eigenspace dimension at most 3 (= floor(7/2))",
        reads_models=False)
def _eigenspace_bound(ctx):
    worst = 0
    details = []
    for i in range(9):
        kind = ctx.element(i)[0]
        g7 = ctx.sample_on_Vprime(i)
        try:
            d = max_eigenspace_dim(g7)
        except IrrationalEigenvalueError:
            return FAIL, "rational spectra for shipped samples", \
                f"sample {i} ({kind}) has an irrational real eigenvalue"
        worst = max(worst, d)
        details.append(f"{kind}:{d}")
    ok = worst <= 3
    return _status(ok), "max eigenspace dim <= 3", \
        f"max {worst} ({', '.join(details)})"


@_check("fixed.sampled-nonzero",
        "nonzero fixed vectors on V",
        "every sampled determinant-one element acting on V fixes a nonzero "
        "vector (weights for hyperbolic, unipotence for parabolic, odd "
        "dimension for elliptic)", reads_models=False)
def _coran_fixed(ctx):
    bad = []
    for i in range(25):
        kind, g5 = ctx.sample(i)
        if fixed_space(g5).dim == 0:
            bad.append((i, kind))
    return (_status(not bad), "all 25 sampled elements fix a nonzero vector",
            "all fixed" if not bad else f"no fixed vector for {bad}")


@_check("fixed.specific-lines",
        "specific fixed lines",
        "the hyperbolic representative fixes exactly the line of s3; the "
        "exponential of the raising action fixes exactly the line of s1",
        reads_models=False)
def _coran_specific(ctx):
    hyp = group_action_on_V(sym2_embed(SL2Element.hyperbolic(2)))
    fs_h = fixed_space(hyp)
    uni = group_action_on_V(exp_nilpotent(
        Matrix.from_rows([(0, 1, 0), (0, 0, 1), (0, 0, 0)])))
    fs_u = fixed_space(uni)
    ok = (fs_h == Subspace.span(5, [unit_vector(5, 2)])
          and fs_u == Subspace.span(5, [unit_vector(5, 0)]))
    return (_status(ok), "span(s3) and span(s1)",
            f"hyperbolic: dim {fs_h.dim}; unipotent: dim {fs_u.dim}; exact: {ok}")


@_check("oracle.heisenberg-der6",
        "derivation oracle: Heisenberg algebra",
        "the generic Leibniz kernel gives the classical dimension 6 for the "
        "3-dimensional Heisenberg algebra", reads_models=False)
def _oracle_heis(ctx):
    d = derivation_algebra(heisenberg3()).dim
    return _status(d == 6), "6", str(d)


@_check("oracle.abelian-der-n2",
        "derivation oracle: abelian algebras",
        "the Leibniz system is vacuous for abelian algebras, so derivations "
        "are all of gl(n): dimension n^2", reads_models=False)
def _oracle_abelian(ctx):
    d2 = derivation_algebra(abelian_lie_algebra(2)).dim
    d3 = derivation_algebra(abelian_lie_algebra(3)).dim
    ok = d2 == 4 and d3 == 9
    return _status(ok), "4 and 9", f"{d2} and {d3}"


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------

def list_checks() -> list[tuple[str, str, str]]:
    return [(c.id, c.description, c.claim) for c in _REGISTRY]


def run(suite: Sequence[str] | None, config: Config) -> Report:
    """Execute the named checks (None or empty = all) in registry order."""
    by_id = {c.id: c for c in _REGISTRY}
    if suite:
        unknown = [s for s in suite if s not in by_id]
        if unknown:
            raise KeyError(f"unknown check ids: {', '.join(unknown)}")
        wanted = set(suite)
        checks = [c for c in _REGISTRY if c.id in wanted]
    else:
        checks = list(_REGISTRY)
    ctx = Context(config)
    # build the models before the clock starts, if a check reads them, so
    # that no check's time carries them; a build error is not cached, so
    # each check that reads ctx.data meets it again as its own error result
    if any(c.reads_models for c in checks):
        try:
            ctx.data
        except Exception:
            pass
    results = []
    for c in checks:
        t0 = time.perf_counter()
        try:
            status, expected, actual = c.fn(ctx)
        except Exception as exc:
            # a crash refutes nothing; a failed exact cross-check does
            status = FAIL if isinstance(exc, CertificationError) else ERROR
            expected, actual = "check to complete", f"error: {exc}"
        ms = (time.perf_counter() - t0) * 1000
        results.append(CheckResult(c.id, status, expected, actual, c.claim, ms))
    return Report(__version__, config, tuple(results))


def _parse_p(text: str) -> tuple[Fraction, ...]:
    """The coordinates of --p; a wrong count or an empty coordinate is
    reported as such, before any part is read as a rational, and a part
    that is not one by its coordinate's label."""
    parts: list = [s.strip() for s in text.split(",")]
    if len(parts) == len(VPRIME_LABELS):
        if "" in parts:
            raise ValueError(
                f"the {VPRIME_LABELS[parts.index('')]} coordinate is empty")
        for i, (label, part) in enumerate(zip(VPRIME_LABELS, parts)):
            try:
                parts[i] = Fraction(part)
            except ZeroDivisionError:
                raise ValueError(f"the {label} coordinate {part!r} has a "
                                 "zero denominator") from None
            except ValueError:
                raise ValueError(f"the {label} coordinate {part!r} is not a "
                                 "rational number") from None
    return validate_p(parts)


def _show_model(name: str, config: Config) -> str:
    data = model_data(config.p)
    L = {"G": data.G, "N": data.N}[name]
    lines = [f"{name}: dimension {L.dim}, basis " + ", ".join(L.labels)]
    lines.append("nonzero brackets:")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            if L.table[i][j]:
                terms = " + ".join(
                    (f"{c}*{L.labels[k]}" if c != 1 else L.labels[k])
                    for k, c in enumerate(L.sc[i][j]) if c)
                lines.append(f"  [{L.labels[i]}, {L.labels[j]}] = {terms}")
    series = lower_central_series(L)
    lines.append("lower central series dims: "
                 + ", ".join(str(s.dim) for s in series))
    lines.append(f"center dimension: {center(L).dim}")
    lines.append("W basis rows (wedge coordinates over s-pairs):")
    for bv in data.W.basis_vectors():
        lines.append("  " + " ".join(str(x) for x in bv))
    lines.append("W' basis rows:")
    for bv in data.Wprime.basis_vectors():
        lines.append("  " + " ".join(str(x) for x in bv))
    if name == "N":
        lines.append("hook target p = "
                     + " + ".join(f"{c}*{lbl}" if c != 1 else lbl
                                  for c, lbl in zip(data.p, VPRIME_LABELS)
                                  if c))
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nilcert",
        description="exact certificates for the shipped nilpotent Lie algebra models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run checks and print a report")
    p_verify.add_argument("--suite", default="all",
                          help="'all' or a comma-separated list of check ids")
    p_verify.add_argument("--json", action="store_true",
                          help="emit the report as deterministic JSON")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--p", default=None,
                          help="7 comma-separated rationals over "
                               + ",".join(VPRIME_LABELS)
                               + " (the p12 coordinate must be 0)")

    sub.add_parser("list", help="list check ids with their claims")

    p_show = sub.add_parser("show", help="print a model's structure constants")
    p_show.add_argument("model", choices=("G", "N"))
    p_show.add_argument("--p", default=None)

    args = parser.parse_args(argv)

    if args.command == "list":
        for cid, desc, claim in list_checks():
            print(f"{cid}: {desc}")
            print(f"    {claim}")
        return 0

    try:
        p = DEFAULT_P if args.p is None else _parse_p(args.p)
    except ValueError as exc:
        print(f"invalid --p: {exc}", file=sys.stderr)
        return 2

    if args.command == "show":
        print(_show_model(args.model, Config(p=p)), end="")
        return 0

    try:
        config = Config(p=p, seed=args.seed, trials=args.trials)
    except ValueError as exc:
        print(f"invalid --trials: {exc}", file=sys.stderr)
        return 2
    suite = None if args.suite == "all" else [
        s.strip() for s in args.suite.split(",") if s.strip()]
    if suite == []:  # run() would read an empty list as "all"
        print(f"invalid --suite: {args.suite!r} names no check id",
              file=sys.stderr)
        return 2
    try:
        report = run(suite, config)
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    counts = report.counts
    return 3 if ERROR in counts else 1 if counts[FAIL] else 0


if __name__ == "__main__":
    sys.exit(main())
