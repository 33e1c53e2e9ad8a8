"""Differential tests of the semi-naive ``algebra.pointwise_closure`` and of
the functions built on it (``freealg.clone_generate``,
``freealg.loop_ring_split``, ``power.generated_subalgebra``,
``algebra.subalgebra_generated`` and ``algebra.subalgebras``) against the
naive fixpoint loop it replaced, kept here as the one closure oracle.
The kernel's discovery order and records, which that loop does not
define, are compared with the tuple walk the packed kernel replaced.
``subalgebras`` is compared with the direct subset scan over that loop,
``generated_subalgebra`` with its own LIFO frontier and table loop, and
``algebra.direct_power`` with its decode/encode table loop.

Besides drawn algebras, the cases are the builtins, ``cyclic-group`` and
``zero-ring`` of sizes 2 to 8, and 300 seeded random algebras of size 2
to 6 with one to three operations of arity 0 to 3.  Each entry of an
operation of positive arity is one of its arguments with a probability
drawn per operation, so the algebras range from every subset closed to
no proper subset closed."""

import random
import sys
from contextlib import contextmanager
from itertools import islice, product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import freealg as fa
from boolpow import power as bp
from boolpow.algebra import FiniteAlgebra
from boolpow.errors import SizeBudgetExceeded

# ---------------------------------------------------------------------------
# oracles: the naive closure loops


def old_pointwise_closure(algebra, domain, gens):
    """The fixpoint loop loop_ring_split used: every tuple over the whole
    closed set, again after every round that added something."""
    closed = set(gens)
    for kop, (_, arity) in enumerate(algebra.signature):
        if arity == 0:
            closed.add(tuple(algebra.tables[kop][0] for _ in domain))
    changed = True
    while changed:
        changed = False
        base = list(closed)
        for kop, (_, arity) in enumerate(algebra.signature):
            if arity == 0:
                continue
            for combo in product(base, repeat=arity):
                v = tuple(
                    algebra.apply(kop, [c[i] for c in combo])
                    for i in range(len(domain))
                )
                if v not in closed:
                    closed.add(v)
                    changed = True
    return closed


def seed_pointwise_closure(algebra, gens, budget):
    """The kernel before vectors were packed: the same semi-naive order,
    walking tuples one coordinate at a time."""
    found: dict = {}
    members: list = []
    size = algebra.size

    def admit(vec, record):
        if len(members) >= budget:
            raise SizeBudgetExceeded(f"closure passed {budget} members")
        found[vec] = record
        members.append(vec)

    for g in gens:
        g = tuple(g)
        if g not in found:
            admit(g, None)
    if not members:
        return found
    width = len(members[0])
    for k, (_, arity) in enumerate(algebra.signature):
        if arity == 0 and (c := (algebra.tables[k][0],) * width) not in found:
            admit(c, (k, ()))

    def walk(k, get, pools, base, off, args):
        lim = pools[len(args)]
        pool = (base,) if lim is None else islice(members, lim)
        if len(args) + 1 == len(pools):
            for x in pool:
                v = tuple(map(get, map(add, off, x)))
                if v not in found:
                    admit(v, (k, args + (x,)))
        else:
            for x in pool:
                nxt = tuple([(o + y) * size for o, y in zip(off, x)])
                walk(k, get, pools, base, nxt, args + (x,))

    ops = [
        (k, arity, algebra.tables[k].__getitem__)
        for k, (_, arity) in enumerate(algebra.signature)
        if arity
    ]
    zero = (0,) * width
    for i, base in enumerate(members):
        if sum((i + 1) ** arity for _, arity, _ in ops) * width > alg.CLOSURE_EVALS:
            raise SizeBudgetExceeded(
                f"closure passed {alg.CLOSURE_EVALS} pointwise evaluations"
            )
        for k, arity, get in ops:
            for pos in range(arity):
                pools = [i] * pos + [None] + [i + 1] * (arity - 1 - pos)
                walk(k, get, pools, base, zero, ())
    return found


def old_generated_subalgebra(elems, budget=200_000):
    """power.generated_subalgebra with its own LIFO frontier loop."""
    ctx = elems[0].ctx
    refined = bp.refine(elems)
    cellwords = [w for w, _ in refined]
    gens = {tuple(labs[t] for _, labs in refined) for t in range(len(elems))}
    A = ctx.algebra
    closed = set()
    frontier = list(gens)
    while frontier:
        t = frontier.pop()
        if t in closed:
            continue
        closed.add(t)
        if len(closed) > budget:
            raise SizeBudgetExceeded("generated subalgebra too large")
        base = list(closed)
        for k, (_, arity) in enumerate(A.signature):
            if arity == 0:
                c = tuple(A.tables[k][0] for _ in cellwords)
                if c not in closed:
                    frontier.append(c)
                continue
            for combo in product(base, repeat=arity):
                if t not in combo:
                    continue
                val = tuple(
                    A.apply(k, [c[pos] for c in combo])
                    for pos in range(len(cellwords))
                )
                if val not in closed:
                    frontier.append(val)
    tuples = sorted(closed)
    index = {t: k for k, t in enumerate(tuples)}
    tables = []
    for k, (_, arity) in enumerate(A.signature):
        table = []
        for combo in product(tuples, repeat=arity):
            val = tuple(
                A.apply(k, [c[pos] for c in combo]) for pos in range(len(cellwords))
            )
            table.append(index[val])
        tables.append(tuple(table))
    sub = (
        FiniteAlgebra(max(len(tuples), 2), A.signature, tuple(tables))
        if len(tuples) >= 2
        else None
    )
    return sub, tuples, cellwords


def old_subuniverse(a, gens):
    """The fixpoint loop on one coordinate: the subuniverse of A generated
    by gens and the constants."""
    return frozenset(v for v, in old_pointwise_closure(a, (0,), [(g,) for g in gens]))


def old_subalgebras(a):
    out = []
    for mask in range(1, 1 << a.size):
        sub = frozenset(x for x in a.carrier if mask >> x & 1)
        if old_subuniverse(a, sub) == sub:
            out.append(sub)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


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


def _square_is_small(a):
    """Whether the largest table of the square of a has at most 1296
    entries."""
    return a.size ** (2 * max(r for _, r in a.signature)) <= 1296


# ---------------------------------------------------------------------------
# the kernel against the fixpoint loop


@st.composite
def algebras(draw):
    size = draw(st.integers(2, 3))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    tables = [
        draw(st.lists(st.integers(0, size - 1), min_size=size**r, max_size=size**r))
        for r in arities
    ]
    return alg.make_algebra(
        size, [(f"op{j}", r) for j, r in enumerate(arities)], tables
    )


@st.composite
def algebra_and_gens(draw):
    a = draw(algebras())
    width = draw(st.integers(1, 4 if a.size == 2 else 3))
    vec = st.tuples(*[st.integers(0, a.size - 1)] * width)
    gens = draw(st.lists(vec, min_size=1, max_size=3))
    return a, gens


def _check_records(a, found, gens):
    order = {vec: i for i, vec in enumerate(found)}
    for vec, record in found.items():
        if record is None:
            assert vec in gens
            continue
        k, args = record
        assert a.signature[k][1] == len(args)
        assert all(order[arg] < order[vec] for arg in args)
        got = tuple(a.apply(k, [x[c] for x in args]) for c in range(len(vec)))
        assert got == vec


@settings(max_examples=80, deadline=None)
@given(algebra_and_gens(), st.integers(0, 3))
def test_kernel_matches_fixpoint_loop(case, slack):
    a, gens = case
    want = old_pointwise_closure(a, range(len(gens[0])), gens)
    found = alg.pointwise_closure(a, len(gens[0]), gens, budget=len(want))
    assert set(found) == want
    assert len(found) == len(want)
    _check_records(a, found, [tuple(g) for g in gens])
    # the same discovery order and records as the tuple walk
    seed = seed_pointwise_closure(a, gens, len(want))
    assert list(found.items()) == list(seed.items())
    # the budget fires exactly when the closure has more members
    budget = max(0, len(want) - slack)
    if len(want) > budget:
        with pytest.raises(SizeBudgetExceeded):
            alg.pointwise_closure(a, len(gens[0]), gens, budget)
    else:
        assert set(alg.pointwise_closure(a, len(gens[0]), gens, budget)) == want


def test_kernel_records_discovery_order():
    a = alg.gf2_ring()
    found = alg.pointwise_closure(a, 2, [(0, 1)], budget=10)
    assert list(found) == [(0, 1), (0, 0)]
    assert found[(0, 1)] is None
    assert found[(0, 0)] == (a.op_index("zero"), ())


def test_kernel_no_generators():
    # no generators close to the constants' subuniverse, at the length the
    # caller gives, and to {} when there is no constant
    ring = alg.gf2_ring()
    found = alg.pointwise_closure(ring, 2, [], budget=1)
    assert found == {(0, 0): (ring.op_index("zero"), ())}
    with pytest.raises(SizeBudgetExceeded):
        alg.pointwise_closure(ring, 2, [], budget=0)
    assert alg.pointwise_closure(alg.gf2_idempotent_reduct(), 2, [], budget=0) == {}


def _evaluations(a, found):
    """Pointwise evaluations of a finished closure: every tuple of members
    for each operation of positive arity, at every coordinate."""
    m, width = len(found), len(next(iter(found)))
    return sum(m**arity for _, arity in a.signature if arity) * width


@settings(max_examples=60, deadline=None)
@given(algebra_and_gens())
def test_evaluation_budget_fires_exactly(case):
    a, gens = case
    found = alg.pointwise_closure(a, len(gens[0]), gens, budget=1 << 16)
    need = _evaluations(a, found)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alg, "CLOSURE_EVALS", need)
        assert alg.pointwise_closure(a, len(gens[0]), gens, 1 << 16) == found
        mp.setattr(alg, "CLOSURE_EVALS", need - 1)
        with pytest.raises(SizeBudgetExceeded, match=f"passed {need - 1} pointwise"):
            alg.pointwise_closure(a, len(gens[0]), gens, 1 << 16)


@contextmanager
def _translates():
    """Count the bytes.translate calls made inside the block."""
    count = [0]

    def hook(frame, event, arg):
        if event == "c_call" and getattr(arg, "__qualname__", "") == "bytes.translate":
            count[0] += 1

    sys.setprofile(hook)
    try:
        yield count
    finally:
        sys.setprofile(None)


class _CountingTable(tuple):
    """An operation table that counts its lookups."""

    lookups = 0

    def __getitem__(self, idx):
        _CountingTable.lookups += 1
        return tuple.__getitem__(self, idx)


def test_evaluation_budget_counts_before_the_round(monkeypatch):
    """gf2-ring (arities 2, 1, 2, 0) on the 32-coordinate projections of
    rank 5: member i's round ends at (2 (i + 1)^2 + (i + 1)) * 32
    evaluations, so a budget of 64,000 admits the rounds of members 0..30
    (62,496 evaluations) and refuses the next (66,560) before it starts."""
    ring = alg.gf2_ring()
    a = FiniteAlgebra(ring.size, ring.signature, tuple(map(_CountingTable, ring.tables)))
    gens = [tuple(t[j] for t in product(range(2), repeat=5)) for j in range(5)]
    monkeypatch.setattr(alg, "CLOSURE_EVALS", 64_000)
    _CountingTable.lookups = 0
    message = "passed 64000 pointwise evaluations"
    with pytest.raises(SizeBudgetExceeded, match=message), _translates() as translates:
        alg.pointwise_closure(a, 32, gens, budget=10**6)
    # one bytes.translate reads a table at all 32 coordinates of one
    # argument tuple, and the constant zero is one table lookup
    assert translates[0] * 32 + _CountingTable.lookups == 62_496 + 1


def _outcome(f):
    try:
        return list(f().items())
    except SizeBudgetExceeded as e:
        return str(e)


@pytest.mark.parametrize(
    "algebra",
    # 16 * 16 = 256 table entries: one byte per coordinate; at 17 the
    # binary tables take two
    [alg.cyclic_group(16), alg.cyclic_group(17), alg.zero_ring(17)],
    ids=["cyclic-group-16", "cyclic-group-17", "zero-ring-17"],
)
def test_kernel_on_both_sides_of_the_byte_lane(algebra, monkeypatch):
    # at rank 2 the projections generate the |A|^2 linear forms: the member
    # budget, or this lowered evaluation budget, refuses them
    monkeypatch.setattr(alg, "CLOSURE_EVALS", 1 << 20)
    for k in (1, 2):
        tuples = list(product(range(algebra.size), repeat=k))
        projections = [tuple(t[j] for t in tuples) for j in range(k)]
        for gens, budget in [
            (projections[:1], 40),
            (projections, 40),
            (projections, 10**4),
        ]:
            with _translates() as translates:
                found = _outcome(
                    lambda: alg.pointwise_closure(algebra, len(tuples), gens, budget)
                )
            # one-byte lanes exactly when the tables have at most 256 entries
            assert (translates[0] > 0) == (algebra.size <= 16)
            if k == 1 or len(gens) == 1:
                want = old_pointwise_closure(algebra, tuples, gens)
                assert {v for v, _ in found} == want
                _check_records(algebra, dict(found), gens)
            else:
                assert "passed" in found


# ---------------------------------------------------------------------------
# term clones


def _assert_clone_matches(a, k):
    tuples = list(product(range(a.size), repeat=k))
    projections = [tuple(t[j] for t in tuples) for j in range(k)]
    want = sorted(old_pointwise_closure(a, tuples, projections))
    rep = fa.clone_generate(a, k, budget=len(want))
    assert [f.table for f in rep.elements] == want
    assert fa.witness_terms_check(rep)
    with pytest.raises(SizeBudgetExceeded):
        fa.clone_generate(a, k, budget=len(want) - 1)


@settings(max_examples=40, deadline=None)
@given(algebras(), st.integers(1, 2))
def test_clone_matches_naive_random(a, k):
    _assert_clone_matches(a, 1 if a.size == 3 else k)


@pytest.mark.parametrize(
    "name,k",
    [(name, k) for name in alg.BUILTINS for k in (1, 2)]
    + [("gf2-ring", 3), ("gf2-idempotent-reduct", 3)],
)
def test_clone_matches_naive_builtin(name, k):
    a = alg.builtin(name)
    if (name, k) == ("gf4-idempotent-reduct", 2):
        # more than 5,000 binary term operations: the closure stops at
        # the budget instead
        with pytest.raises(SizeBudgetExceeded):
            fa.clone_generate(a, k, budget=1000)
        return
    _assert_clone_matches(a, k)


def test_loop_ring_split_complement_matches_fixpoint_loop():
    a = alg.gf2_ring()
    for k in (1, 2):
        N, H, report = fa.loop_ring_split(a, k)
        R_k = fa.orbit_transversal(a, k)
        e = next(iter(alg.idempotents(a)))
        full = set(a.carrier)
        ys = []
        for j in range(1, k + 1):
            ys.append(
                tuple(
                    t[j - 1]
                    if set(alg.subalgebra_generated(a, set(t[:j]))) != full
                    else e
                    for t in R_k
                )
            )
        assert H == sorted(old_pointwise_closure(a, R_k, ys))
        assert report.ok()


# ---------------------------------------------------------------------------
# generated subalgebras of the power


@st.composite
def power_elements(draw):
    name, filters, depth = draw(
        st.sampled_from(
            [
                ("gf2-ring", (0,), 2),
                ("gf2-idempotent-reduct", (0, 1), 2),
                ("gf2-idempotent-reduct", (1,), 2),
                ("gf4-idempotent-reduct", (0,), 1),
                ("gf4-idempotent-reduct", (0, 1), 2),
                ("random", (), None),
            ]
        )
    )
    if name == "random":
        # no filters, on two cells where the square stays small
        a = random_algebra(draw(st.integers(0, 299)))
        depth = 1 if _square_is_small(a) else 0
    else:
        a = alg.builtin(name)
    ctx = bp.make_context(a, filters)
    elems = bp.enumerate_elements(ctx, depth)
    return draw(st.lists(st.sampled_from(elems), min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(power_elements())
def test_generated_subalgebra_matches_naive(elems):
    got = bp.generated_subalgebra(elems)
    want = old_generated_subalgebra(elems)
    assert got == want
    n = len(want[1])
    with pytest.raises(SizeBudgetExceeded):
        bp.generated_subalgebra(elems, budget=n - 1)


# ---------------------------------------------------------------------------
# subalgebras of A and its direct powers


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


def test_subalgebra_generated_matches_the_fixpoint_loop():
    for seed in range(300):
        a = random_algebra(seed)
        rng = random.Random(seed)
        for gens in [set()] + [
            set(rng.sample(range(a.size), rng.randint(1, a.size))) for _ in range(4)
        ]:
            want = old_subuniverse(a, gens)
            assert alg.subalgebra_generated(a, gens) == want, (seed, gens)


def test_direct_power_matches_the_decode_loop():
    for seed in range(300):
        a = random_algebra(seed)
        for k in (1, 2) if _square_is_small(a) else (1,):
            assert alg.direct_power(a, k) == old_direct_power(a, k), (seed, k)
