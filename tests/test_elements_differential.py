"""Differential tests of ``power.enumerate_elements`` against the list it
used to build, kept here as the oracle: every labeling of the level-depth
cells, built up front as a list of elements.  The enumeration must be a
sequence with the same elements in the same order, and answer ``len``,
indexing, slicing, ``index`` and ``in`` exactly as that list does, for
members and for elements of another context, support or depth.

``fraisse.chain_covers`` is checked against the check it replaced: the set
of every stage image, tested for each element of that list.  Both must
give the same verdict on covering stages and on stages that do not
cover."""

import random
from collections.abc import Sequence
from dataclasses import replace
from itertools import product

import pytest

from boolpow import algebra as alg
from boolpow import fraisse as fr
from boolpow import power as bp
from boolpow.cantor import Clopen, _node

GF2 = alg.gf2_ring()
RED = alg.gf2_idempotent_reduct()
GF4 = alg.gf4_idempotent_reduct()


def old_forced_cells(ctx, depth):
    forced = {}
    for i in range(1, ctx.points.n + 1):
        w = ctx.points.point(i).prefix(depth)
        if forced.setdefault(w, ctx.filters[i - 1]) != ctx.filters[i - 1]:
            return None
    return forced


def old_enumerate_elements(ctx, depth):
    forced = old_forced_cells(ctx, depth)
    if forced is None:
        return []
    labels = range(ctx.algebra.size)

    def trees(w):
        if len(w) == depth:
            return [forced[w]] if w in forced else labels
        right = trees(w + "1")
        return [_node(t0, t1) for t0 in trees(w + "0") for t1 in right]

    return [bp.PowerElement(ctx, t) for t in trees("")]


# (name, algebra, filters, depths); gf4 with two points has 4^14 elements
# at depth 4.  The points 1^(i-1) 0^w of (0, 0, 1) share the cell "1"
# at depth 1, whose two filters differ: no element there or at depth 0.
CONTEXTS = [
    ("gf2-ring-0", GF2, (0,), range(5)),
    ("gf2-idempotent-reduct-0-1", RED, (0, 1), range(5)),
    ("gf4-idempotent-reduct-0-1", GF4, (0, 1), range(4)),
    ("gf2-idempotent-reduct-0-0-1", RED, (0, 0, 1), range(5)),
]
PARAMS = [
    pytest.param(a, f, d, id=f"{name}-d{d}")
    for name, a, f, depths in CONTEXTS
    for d in depths
]
# below this many elements every member is looked up; past it a seeded
# sample, since the oracle list's index scans it
EVERY_MEMBER = 1024


def _both(algebra, filters, depth):
    ctx = bp.make_context(algebra, filters)
    return ctx, bp.enumerate_elements(ctx, depth), old_enumerate_elements(ctx, depth)


def deeper_elements(ctx, depth, rng, k=40):
    """k seeded elements constant on the level-(depth + 1) cells, most of
    them not on the level-depth cells."""
    forced = old_forced_cells(ctx, depth + 1)
    if forced is None:
        return []
    words = ["".join(w) for w in product("01", repeat=depth + 1)]
    return [
        bp.PowerElement.make(
            ctx, [(w, forced.get(w, rng.randrange(ctx.algebra.size))) for w in words]
        )
        for _ in range(k)
    ]


def _members(n, seed):
    if n <= EVERY_MEMBER:
        return range(n)
    return sorted({0, n - 1, *random.Random(seed).sample(range(n), 48)})


@pytest.mark.parametrize("algebra,filters,depth", PARAMS)
def test_same_trees_in_same_order(algebra, filters, depth):
    ctx, elems, old = _both(algebra, filters, depth)
    assert isinstance(elems, Sequence)
    assert len(elems) == len(old) == bp.element_count(ctx, depth)
    got = list(elems)
    assert [f.tree for f in got] == [f.tree for f in old]
    assert len(set(got)) == len(got)
    assert all(f.ctx == ctx and f.support == Clopen.all() for f in got)
    assert [elems[k].tree for k in range(len(old))] == [f.tree for f in old]


@pytest.mark.parametrize("algebra,filters,depth", PARAMS)
def test_indexes_and_slices_as_the_list(algebra, filters, depth):
    _, elems, old = _both(algebra, filters, depth)
    n = len(old)
    for k in {0, 1, n // 3, n - 2, n - 1}:
        for j in (k, k - n):
            if -n <= j < n:
                assert elems[j].tree == old[j].tree
    for j in (n, n + 5, -n - 1):
        with pytest.raises(IndexError):
            elems[j]
    for s in (
        slice(None, 4),
        slice(None),
        slice(None, None, 3),
        slice(1, -1, 7),
        slice(-5, None),
        slice(None, None, -2),
        slice(n - 1, 0, -3),
        slice(n + 5, None),
        slice(2, 1),
    ):
        got = elems[s]
        assert isinstance(got, list)
        assert [f.tree for f in got] == [f.tree for f in old[s]]


@pytest.mark.parametrize("algebra,filters,depth", PARAMS)
def test_every_member_is_found_where_the_list_has_it(algebra, filters, depth):
    ctx, elems, old = _both(algebra, filters, depth)
    for k in _members(len(old), depth):
        f = bp.PowerElement(ctx, old[k].tree)
        assert f in elems
        assert elems.index(f) == old.index(f) == k
        assert elems.count(f) == 1
        assert elems.index(f, k) == k
        assert elems.index(f, -len(old), k + 1) == k
        with pytest.raises(ValueError):
            elems.index(f, k + 1)
        with pytest.raises(ValueError):
            elems.index(f, 0, k)


@pytest.mark.parametrize("algebra,filters,depth", PARAMS)
def test_non_members_are_refused_as_by_the_list(algebra, filters, depth):
    ctx, elems, old = _both(algebra, filters, depth)
    # an equal context built again holds the same elements
    again = bp.make_context(algebra, filters)
    other = bp.make_context(alg.zero_ring(algebra.size), (0,) * len(filters))
    candidates = [1, "0", None, (0, 1), Clopen.all()]
    for f in old[:3] + old[-2:]:
        candidates += [
            f.tree,
            bp.PowerElement(again, f.tree),
            bp.PowerElement(other, f.tree),
            bp.PowerElement(ctx, f.tree, Clopen.make(["0"])),
            bp.PowerElement(ctx, f.tree, Clopen.make(["0", "1"])),
            f.restrict(Clopen.make(["1"])),
        ]
        # the same element on the level-(depth + 1) cells
        halves = [(w + c, a) for w, a in f.cells for c in "01"]
        candidates.append(bp.PowerElement.make(ctx, halves))
    candidates += deeper_elements(ctx, depth, random.Random(depth))
    for g in candidates:
        try:
            k = old.index(g)
        except ValueError:
            k = None
        assert (g in elems) is (k is not None)
        # the elements are distinct (test_same_trees_in_same_order)
        assert elems.count(g) == (k is not None)
        if k is not None:
            assert elems.index(g) == k
        else:
            with pytest.raises(ValueError):
                elems.index(g)


@pytest.mark.parametrize("algebra,filters,depth", PARAMS)
def test_seeded_choice_picks_the_same_tree(algebra, filters, depth):
    _, elems, old = _both(algebra, filters, depth)
    if not old:
        with pytest.raises(IndexError):
            random.Random(0).choice(elems)
        return
    for s in range(5):
        a, b = random.Random(s), random.Random(s)
        assert [a.choice(elems).tree for _ in range(20)] == [
            b.choice(old).tree for _ in range(20)
        ]


def old_chain_covers(ctx, stages, depth):
    stage = next(s for s in stages if s.depth == depth)
    hit = {stage.bp.eval(a) for a in product(range(ctx.algebra.size), repeat=stage.bp.u)}
    return all(f in hit for f in old_enumerate_elements(ctx, depth))


CASES = [(RED, (0, 1), d) for d in (2, 3, 4)] + [(GF2, (0,), d) for d in (2, 3)]


@pytest.mark.parametrize("algebra,filters,depth", CASES)
def test_covering_stage_agrees_with_set_oracle(algebra, filters, depth):
    ctx = bp.make_context(algebra, filters)
    chain = fr.limit_chain(ctx, depth)
    assert fr.chain_covers(ctx, chain, depth) is old_chain_covers(ctx, chain, depth) is True


def merged_stage(ctx, depth):
    """The depth-`depth` stage with its second value cell reading the first
    cell's source: no image separates the two cells, so the stage does not
    cover."""
    stage = next(s for s in fr.limit_chain(ctx, depth) if s.depth == depth)
    twists = list(stage.bp.twists)
    twists[1] = (twists[1][0], twists[0][1])
    return replace(stage, bp=replace(stage.bp, twists=tuple(twists)))


NON_COVERING = [(RED, (0, 1), 4), (RED, (0, 1), 2), (GF2, (0,), 3)]


@pytest.mark.parametrize("algebra,filters,depth", NON_COVERING)
def test_non_covering_stage_agrees_with_set_oracle(algebra, filters, depth):
    ctx = bp.make_context(algebra, filters)
    chain = [merged_stage(ctx, depth)]
    assert fr.chain_covers(ctx, chain, depth) is old_chain_covers(ctx, chain, depth) is False
