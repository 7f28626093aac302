"""Workload inputs for the nilcert benchmark.

Every input comes from a fixed pool, built from a pinned seed so that
``goldens/`` can hold the expected output of every op.  The workload seed
only chooses the order in which a run walks its pool, so every function
here is a pure function of its arguments and two runs of one seed see the
same inputs.

This module imports nothing from nilcert: the program receives only what
these functions generate (verify seeds, hook targets ``p`` and JSON text).
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

#: the 30 registry ids present when the benchmark was defined, in registry
#: order; later checks under new ids do not change the workload.
VERIFY_SUITE = (
    "jacobi.G", "jacobi.N", "lcs.G-12-7-0", "lcs.N-12-7-1-0",
    "nilclass.G-2", "nilclass.N-3", "weights.V", "weights.Vprime",
    "ident.G", "w.invariant", "irred.V-commutant-1", "wedge.commutant-2",
    "wedge.W-Wprime-decomp", "thm.stabilizer-dim4", "thm.no-open-orbit",
    "thm.stabilizer-Wprime", "thm.eigen-relations", "der.G-dim-39",
    "der.G-decomposition", "n.der-dim-32", "n.der-decomposition",
    "n.derivations-nilpotent", "n.exp-unipotent", "p.line-stabilizer-zero",
    "p.sampled-nonfixing", "bound.eigenspace-max3", "fixed.sampled-nonzero",
    "fixed.specific-lines", "oracle.heisenberg-der6", "oracle.abelian-der-n2",
)

#: the deterministic checks whose answer depends on the hook target p.
P_SCAN_SUITE = (
    "jacobi.N", "lcs.N-12-7-1-0", "nilclass.N-3", "n.der-dim-32",
    "n.der-decomposition", "n.derivations-nilpotent", "p.line-stabilizer-zero",
)

VERIFY_TRIALS = 100

_POOL_SEED = 20020412
VERIFY_POOL_SIZE = 12
P_POOL_SIZE = 64
ALGEBRA_POOL_SIZE = 48


def op_order(pool_size: int, seed: int) -> list[int]:
    """The order in which a run walks the pool: a seeded permutation.  A run
    measures whole passes, so its mix of inputs is the pool's whatever the
    seed."""
    perm = list(range(pool_size))
    random.Random(seed).shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# verify_default: seeds for fresh `nilcert verify` processes
# ---------------------------------------------------------------------------

def verify_pool() -> list[int]:
    rng = random.Random(_POOL_SEED)
    return rng.sample(range(1, 1_000_000), VERIFY_POOL_SIZE)


def verify_argv(verify_seed: int) -> list[str]:
    return ["verify", "--json", "--suite", ",".join(VERIFY_SUITE),
            "--seed", str(verify_seed), "--trials", str(VERIFY_TRIALS)]


# ---------------------------------------------------------------------------
# p_scan: hook targets in L
# ---------------------------------------------------------------------------

_P_VALUES = [Fraction(n, 2) for n in range(-4, 5) if n]  # +-1/2 .. +-2


def p_pool() -> list[tuple[str, ...]]:
    """Hook targets (p12, p13, ..., p45) with p12 = 0, in four equal strata:
    sparse (one or two nonzero coordinates) or dense (five or six), each
    with p13 = 0 and with p13 != 0."""
    rng = random.Random(_POOL_SEED + 1)
    pool: list[tuple[str, ...]] = []
    seen = set()
    strata = itertools.cycle(itertools.product((False, True), (False, True)))
    while len(pool) < P_POOL_SIZE:
        dense, p13_nonzero = next(strata)
        while True:
            k = rng.choice((5, 6) if dense else (1, 2))
            others = list(range(2, 7))
            rng.shuffle(others)
            support = ([1] if p13_nonzero else []) + others
            support = support[:k]
            p = [Fraction(0)] * 7
            for c in support:
                p[c] = rng.choice(_P_VALUES)
            key = tuple(str(x) for x in p)
            if key not in seen:
                seen.add(key)
                pool.append(key)
                break
    return pool


# ---------------------------------------------------------------------------
# user_algebras: JSON documents of nilpotent algebras, some deliberately bad
# ---------------------------------------------------------------------------
#
# An algebra here is {(i, j): [c_0, ..., c_{d-1}]} over pairs i < j with
# integer structure constants; missing pairs bracket to zero.

def _two_step(rng: random.Random, d: int) -> dict:
    """Random alternating map from Lambda^2 of k generators into an
    m-dimensional centre (d = k + m)."""
    m = rng.randint(2, 3)
    k = d - m
    sc = {}
    for i, j in itertools.combinations(range(k), 2):
        coords = [0] * d
        for c in range(k, d):
            coords[c] = rng.randint(-2, 2)
        if any(coords):
            sc[(i, j)] = coords
    if not sc:
        sc[(0, 1)] = [0] * (d - 1) + [1]
    return sc


def _upper_triangular(rng: random.Random, d: int) -> dict:
    """Strictly upper-triangular n x n matrices (n = 4 gives d = 6), or the
    n = 5 algebra with 10 - d superdiagonal units removed; removing
    superdiagonal units keeps the span closed under the bracket."""
    n = 4 if d == 6 else 5
    positions = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if n == 5:
        drop = rng.sample([(a, a + 1) for a in range(4)], 10 - d)
        positions = [pos for pos in positions if pos not in drop]
    index = {pos: t for t, pos in enumerate(positions)}
    sc = {}
    for (s, (a, b)), (t, (c, e)) in itertools.combinations(
            enumerate(positions), 2):
        # [E_ab, E_ce] = delta_bc E_ae - delta_ea E_cb
        coords = [0] * d
        if b == c:
            coords[index[(a, e)]] += 1
        if e == a:
            coords[index[(c, b)]] -= 1
        if any(coords):
            sc[(s, t)] = coords
    return sc


def _filiform(rng: random.Random, d: int) -> dict:
    """Model filiform algebra [e1, e_i] = e_{i+1}, class d - 1."""
    sc = {}
    for i in range(1, d - 1):
        coords = [0] * d
        coords[i + 1] = 1
        sc[(0, i)] = coords
    return sc


def _bracket(sc: dict, d: int, x: list, y: list) -> list:
    out = [0] * d
    for (i, j), coords in sc.items():
        f = x[i] * y[j] - x[j] * y[i]
        if f:
            for k, c in enumerate(coords):
                out[k] += f * c
    return out


def _jacobi_holds(sc: dict, d: int) -> bool:
    basis = [[int(k == i) for k in range(d)] for i in range(d)]
    for i, j, k in itertools.combinations(range(d), 3):
        x, y, z = basis[i], basis[j], basis[k]
        terms = (_bracket(sc, d, x, _bracket(sc, d, y, z)),
                 _bracket(sc, d, y, _bracket(sc, d, z, x)),
                 _bracket(sc, d, z, _bracket(sc, d, x, y)))
        if any(sum(col) for col in zip(*terms)):
            return False
    return True


def _break_jacobi(rng: random.Random, sc: dict, d: int) -> dict:
    """Add one unit to a structure constant so that Jacobi fails."""
    while True:
        i, j = sorted(rng.sample(range(d), 2))
        bad = {pair: list(c) for pair, c in sc.items()}
        coords = bad.setdefault((i, j), [0] * d)
        coords[rng.randrange(d)] += 1
        if not _jacobi_holds(bad, d):
            return bad


def _change_basis(rng: random.Random, sc: dict, d: int) -> dict:
    """Structure constants in the basis f_i = sum_a U[a][i] e_a for a seeded
    integer upper unitriangular U; dense, with entries that grow."""
    u = [[int(a == b) for b in range(d)] for a in range(d)]
    for a in range(d):
        for b in range(a + 1, d):
            u[a][b] = rng.randint(-2, 2)
    # U^-1 by back substitution; exact and integral since det U = 1
    inv = [[int(a == b) for b in range(d)] for a in range(d)]
    for a in range(d - 1, -1, -1):
        for b in range(a + 1, d):
            if u[a][b]:
                inv[a] = [x - u[a][b] * y for x, y in zip(inv[a], inv[b])]
    cols = [[u[a][i] for a in range(d)] for i in range(d)]
    out = {}
    for i, j in itertools.combinations(range(d), 2):
        e_coords = _bracket(sc, d, cols[i], cols[j])
        f_coords = [sum(inv[r][c] * e_coords[c] for c in range(d))
                    for r in range(d)]
        if any(f_coords):
            out[(i, j)] = f_coords
    return out


_BUILD = {"two-step": _two_step, "upper": _upper_triangular,
          "filiform": _filiform}

#: (kind, dimension) of the documents, in turn.  Most cost a few tenths of a
#: second and overlap in cost, so that the median op lies inside one dense
#: cluster instead of on a gap between clusters, where per-op noise would
#: move it; the last slot takes a heavy dense algebra from _HEAVY, which
#: sets the tail.
_COMBOS = (("two-step", 6), ("filiform", 7), ("upper", 9), ("two-step", 7),
           ("filiform", 8), ("filiform", 7), ("upper", 9), ("two-step", 7),
           ("filiform", 7), ("upper", 9), ("two-step", 7), None)
_HEAVY = (("filiform", 9), ("two-step", 8), ("two-step", 9))


def algebra_pool() -> list[dict]:
    """Documents of dimension 6-9; every fifth one violates Jacobi.

    Each entry is {"kind", "dim", "reject", "text"}; only ``text`` is given
    to the program, ``reject`` is what the generator intended."""
    rng = random.Random(_POOL_SEED + 2)
    pool = []
    for t in range(ALGEBRA_POOL_SIZE):
        kind, d = (_COMBOS[t % len(_COMBOS)]
                   or _HEAVY[t // len(_COMBOS) % len(_HEAVY)])
        sc = _BUILD[kind](rng, d)
        reject = t % 5 == 4
        if reject:
            sc = _break_jacobi(rng, sc, d)
        sc = _change_basis(rng, sc, d)
        brackets = [[i, j, [str(c) for c in coords]]
                    for (i, j), coords in sorted(sc.items())]
        text = json.dumps({"dim": d, "labels": [f"x{k + 1}" for k in range(d)],
                           "brackets": brackets}, separators=(",", ":"))
        pool.append({"kind": kind, "dim": d, "reject": reject, "text": text})
    return pool
