"""Differential test of ``algebra.subalgebras`` against a frozen copy of
the direct subset scan it used up to size 8: every nonempty subset is
kept when it is its own generated subalgebra.

Cases: the three builtins, ``cyclic-group`` and ``zero-ring`` of sizes 2
to 8, and 300 seeded random algebras of size 2 to 6 with one to three
operations of arity 0 to 3.  Each entry of an operation of positive
arity is one of its arguments with a probability drawn per operation, so
the algebras range from every subset closed to no proper subset closed.
Both sides must list the same subalgebras in the same order.
"""

import random
from itertools import product

import pytest

from boolpow import algebra as alg


def old_subalgebras(a):
    out = []
    for mask in range(1, 1 << a.size):
        sub = frozenset(x for x in a.carrier if mask >> x & 1)
        if alg.subalgebra_generated(a, sub) == sub:
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
