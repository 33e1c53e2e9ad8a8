"""Differential test of ``algebra.subalgebras`` against a frozen copy of
the direct subset scan it used up to size 8: every nonempty subset is
kept when it is its own generated subalgebra.

Cases: the three builtins, ``cyclic-group`` and ``zero-ring`` of sizes 2
to 8, and 300 seeded random algebras of size 2 to 6 with one to three
operations of arity 0 to 3.  Each entry of an operation of positive
arity is one of its arguments with a probability drawn per operation, so
the algebras range from every subset closed to no proper subset closed.
Both sides must list the same subalgebras in the same order.

The same algebras check ``algebra.subalgebra_generated`` against a frozen
copy of its fixpoint loop, ``algebra.direct_power`` against a frozen copy
of its decode/encode table loop, and the tables of
``power.generated_subalgebra`` against a frozen copy of its own table loop.
"""

import random
from itertools import product

import pytest

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.algebra import FiniteAlgebra


def old_subalgebras(a):
    out = []
    for mask in range(1, 1 << a.size):
        sub = frozenset(x for x in a.carrier if mask >> x & 1)
        if old_subalgebra_generated(a, sub) == sub:
            out.append(sub)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def random_algebra(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    arities = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    signature = [(f"op{k}", r) for k, r in enumerate(arities)]
    tables = []
    for r in arities:
        keep = rng.random()
        tables.append([
            rng.choice(args) if args and rng.random() < keep else rng.randrange(n)
            for args in product(range(n), repeat=r)
        ])
    return alg.make_algebra(n, signature, tables)


NAMED = sorted(alg.BUILTINS) + [
    f"{family} {k}" for family in ("cyclic-group", "zero-ring") for k in range(2, 9)
]


@pytest.mark.parametrize("name", NAMED)
def test_subalgebras_match_the_scan_on_builtins(name):
    a = alg.builtin(name)
    assert alg.subalgebras(a) == old_subalgebras(a)


def test_subalgebras_match_the_scan_on_random_algebras():
    for seed in range(300):
        a = random_algebra(seed)
        assert alg.subalgebras(a) == old_subalgebras(a), seed


# ---------------------------------------------------------------------------
# frozen copies of the fixpoint subalgebra closure and of the two table loops
# of the algebra on a closed list of tuples


def old_subalgebra_generated(a, gens):
    """algebra.subalgebra_generated as a fixpoint loop that re-evaluates
    every argument tuple of the closed set each round."""
    closed = set(gens)
    for k, (_, arity) in enumerate(a.signature):
        if arity == 0:
            closed.add(a.tables[k][0])
    frontier = True
    while frontier:
        frontier = False
        cur = list(closed)
        for k, (_, arity) in enumerate(a.signature):
            if arity == 0:
                continue
            for args in product(cur, repeat=arity):
                v = a.apply(k, args)
                if v not in closed:
                    closed.add(v)
                    frontier = True
    return frozenset(closed)


def old_direct_power(a, k):
    """algebra.direct_power with its own decode/encode table loop."""

    def decode(x):
        out = []
        for _ in range(k):
            out.append(x % a.size)
            x //= a.size
        return tuple(reversed(out))

    def encode(tup):
        x = 0
        for v in tup:
            x = x * a.size + v
        return x

    size = a.size**k
    tables = []
    for opk, (_, arity) in enumerate(a.signature):
        table = []
        for args in product(range(size), repeat=arity):
            coords = [decode(x) for x in args]
            val = tuple(a.apply(opk, [c[i] for c in coords]) for i in range(k))
            table.append(encode(val))
        tables.append(tuple(table))
    return FiniteAlgebra(size, a.signature, tuple(tables))


def old_subalgebra_tables(a, tuples):
    """The tables of power.generated_subalgebra's own loop over the closed
    tuple list."""
    index = {t: k for k, t in enumerate(tuples)}
    width = len(tuples[0])
    tables = []
    for k, (_, arity) in enumerate(a.signature):
        table = []
        for combo in product(tuples, repeat=arity):
            val = tuple(a.apply(k, [c[pos] for c in combo]) for pos in range(width))
            table.append(index[val])
        tables.append(tuple(table))
    return tuple(tables)


def test_subalgebra_generated_matches_the_fixpoint_loop():
    for seed in range(300):
        a = random_algebra(seed)
        rng = random.Random(seed)
        for gens in [set()] + [
            set(rng.sample(range(a.size), rng.randint(1, a.size))) for _ in range(4)
        ]:
            assert alg.subalgebra_generated(a, gens) == old_subalgebra_generated(
                a, gens
            ), (seed, gens)


def test_direct_power_matches_the_decode_loop():
    for seed in range(300):
        a = random_algebra(seed)
        top = max(r for _, r in a.signature)
        # the square only where its largest table stays small
        for k in (1, 2) if a.size ** (2 * top) <= 1296 else (1,):
            assert alg.direct_power(a, k) == old_direct_power(a, k), (seed, k)


def test_generated_subalgebra_tables_match_the_table_loop():
    for seed in range(300):
        a = random_algebra(seed)
        rng = random.Random(seed)
        top = max(r for _, r in a.signature)
        # elements on two cells where the square's largest table stays small
        depth = 1 if a.size ** (2 * top) <= 1296 else 0
        elems = bp.enumerate_elements(bp.make_context(a, ()), depth)
        gens = [elems[rng.randrange(len(elems))] for _ in range(rng.randint(1, 2))]
        sub, tuples, _ = bp.generated_subalgebra(gens)
        if len(tuples) < 2:
            assert sub is None, seed
            continue
        assert sub == FiniteAlgebra(
            len(tuples), a.signature, old_subalgebra_tables(a, tuples)
        ), seed
