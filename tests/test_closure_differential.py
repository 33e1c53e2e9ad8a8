"""Differential tests of the semi-naive ``algebra.pointwise_closure`` and of
the three functions built on it (``freealg.clone_generate``,
``freealg.loop_ring_split`` and ``power.generated_subalgebra``) against
the naive fixpoint loops they replaced, kept here as oracles."""

from itertools import product

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


def old_clone_tables(algebra, k, budget=100_000):
    """Element tables of the breadth-first clone closure that combined each
    frontier member with the whole visited pool at every position."""
    tuples = list(product(range(algebra.size), repeat=k))
    projections = []
    for j in range(k):
        projections.append((tuple(t[j] for t in tuples), ("var", j)))
    visited = dict(projections)
    frontier = list(visited)
    while frontier:
        base = frontier.pop(0)
        base_term = visited[base]
        for opk, (name, arity) in enumerate(algebra.signature):
            if arity == 0:
                vec = tuple(algebra.tables[opk][0] for _ in tuples)
                if vec not in visited:
                    visited[vec] = (name, ())
                    frontier.append(vec)
                continue
            pool = list(visited.items())
            for pos in range(arity):
                for others in product(pool, repeat=arity - 1):
                    combo = others[:pos] + ((base, base_term),) + others[pos:]
                    vec = tuple(
                        algebra.apply(opk, [c[0][i] for c in combo])
                        for i in range(len(tuples))
                    )
                    if vec not in visited:
                        if len(visited) >= budget:
                            raise SizeBudgetExceeded(budget)
                        visited[vec] = (name, tuple(c[1] for c in combo))
                        frontier.append(vec)
    return sorted(visited)


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
    found = alg.pointwise_closure(a, gens, budget=len(want))
    assert set(found) == want
    assert len(found) == len(want)
    _check_records(a, found, [tuple(g) for g in gens])
    # the budget fires exactly when the closure has more members
    budget = max(0, len(want) - slack)
    if len(want) > budget:
        with pytest.raises(SizeBudgetExceeded):
            alg.pointwise_closure(a, gens, budget)
    else:
        assert set(alg.pointwise_closure(a, gens, budget)) == want


def test_kernel_records_discovery_order():
    a = alg.gf2_ring()
    found = alg.pointwise_closure(a, [(0, 1)], budget=10)
    assert list(found) == [(0, 1), (0, 0)]
    assert found[(0, 1)] is None
    assert found[(0, 0)] == (a.op_index("zero"), ())


def test_kernel_no_generators():
    assert alg.pointwise_closure(alg.gf2_ring(), [], budget=0) == {}


def _evaluations(a, found):
    """Pointwise evaluations of a finished closure: every tuple of members
    for each operation of positive arity, at every coordinate."""
    m, width = len(found), len(next(iter(found)))
    return sum(m**arity for _, arity in a.signature if arity) * width


@settings(max_examples=60, deadline=None)
@given(algebra_and_gens())
def test_evaluation_budget_fires_exactly(case):
    a, gens = case
    found = alg.pointwise_closure(a, gens, budget=1 << 16)
    need = _evaluations(a, found)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alg, "CLOSURE_EVALS", need)
        assert alg.pointwise_closure(a, gens, 1 << 16) == found
        mp.setattr(alg, "CLOSURE_EVALS", need - 1)
        with pytest.raises(SizeBudgetExceeded, match=f"passed {need - 1} pointwise"):
            alg.pointwise_closure(a, gens, 1 << 16)


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
    with pytest.raises(SizeBudgetExceeded, match="passed 64000 pointwise evaluations"):
        alg.pointwise_closure(a, gens, budget=10**6)
    # one lookup per evaluation, and one for the constant zero
    assert _CountingTable.lookups == 62_496 + 1


# ---------------------------------------------------------------------------
# term clones


def _assert_clone_matches(a, k):
    want = old_clone_tables(a, k)
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
        # more than 5,000 binary term operations: both closures stop at
        # the budget instead
        with pytest.raises(SizeBudgetExceeded):
            old_clone_tables(a, k, budget=1000)
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
            ]
        )
    )
    ctx = bp.make_context(alg.builtin(name), filters)
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
