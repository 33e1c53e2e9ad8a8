"""Differential test of ``cantor.build`` and of the point checks of
``PowerElement.make`` and ``BPEmbedding.eval`` against the code they
replaced, kept here as the oracle: a ``build`` that sorts, scans and tiles
every cell list anew, and ``from_tree``'s walk along each
distinguished point.

Inputs are cell lists on two supports, all of X and the clopen
{"0", "11"}, on gf2-ring (filter 0) and gf4-idempotent-reduct (filters 0,
1), clean or with one defect: an overlap, a duplicate word, a bad word, a
gap, a cell outside the support, a label outside the carrier or a wrong
label at a retained point.  Each list is built cold, then warm, on its own
support and then on the other one; every call must give the oracle's tree
or raise the oracle's exception type with its message.
"""

import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import cantor
from boolpow import fraisse as fr
from boolpow import power as bp
from boolpow.cantor import Clopen, _map
from boolpow.errors import FilterViolation

CTXS = {
    "gf2": bp.make_context(alg.gf2_ring(), (0,)),
    "gf4": bp.make_context(alg.gf4_idempotent_reduct(), (0, 1)),
}
SUPPORTS = {"X": Clopen.all(), "0|11": Clopen.make(["0", "11"])}
MESSAGES = [
    ("cells", "cells do not tile the support"),
    ("label cells", "label cells do not tile the exceptional region"),
]
DEFECTS = ("none", "overlap", "duplicate", "char", "gap", "outside", "label", "point")


def clear_memo():
    """Empty the memo behind cantor.build."""
    cantor._kept_shape.cache_clear()


# ---------------------------------------------------------------------------
# oracle: build, _tile and from_tree's point walk as they were


def old_node(t0, t1):
    if t0.__class__ is not tuple and t0 == t1:
        return t0
    return (t0, t1)


def old_build(cells, s=True, what="cells", untiled="cells do not tile the support"):
    ordered = sorted(cells)
    for (u, _), (v, _) in zip(ordered, ordered[1:]):
        if v.startswith(u):
            raise ValueError(f"overlapping {what}")
    for w, _ in cells:
        if w.strip("01"):
            raise ValueError(f"bad word {w!r}")
    return old_tile(ordered, 0, len(ordered), 0, s, untiled)


def old_tile(cells, lo, hi, d, s, untiled):
    if s is False:
        if lo < hi:
            raise ValueError(untiled)
        return None
    if lo == hi:
        raise ValueError(untiled)
    w, a = cells[lo]
    if len(w) == d:
        if s is not True:
            raise ValueError(untiled)
        return a
    mid = lo
    while mid < hi and cells[mid][0][d] == "0":
        mid += 1
    s0, s1 = s if s.__class__ is tuple else (s, s)
    return old_node(
        old_tile(cells, lo, mid, d + 1, s0, untiled),
        old_tile(cells, mid, hi, d + 1, s1, untiled),
    )


def old_at(t, x):
    i = 0
    while t.__class__ is tuple:
        i += 1
        t = t[x.at(i) == "1"]
    return t


def old_point_check(ctx, tree):
    for i, (x, e) in enumerate(ctx.marked, start=1):
        a = old_at(tree, x)
        if a is not None and a != e:
            raise FilterViolation(f"value at point {i} must be {e}")


def old_make(ctx, cells, support):
    cells = [(str(w), int(a)) for w, a in cells]
    for _, a in cells:
        if a not in range(ctx.algebra.size):
            raise FilterViolation(f"label {a} outside carrier")
    tree = old_build(cells, support._t)
    old_point_check(ctx, tree)
    return tree


def outcome(f, *args):
    try:
        return ("ok", f(*args))
    except Exception as exc:  # the exception itself is what is compared
        return (type(exc), str(exc))


def new_make(ctx, cells, support):
    f = bp.PowerElement.make(ctx, cells, support)
    assert f.support == support
    return f.tree


# ---------------------------------------------------------------------------
# strategies


@st.composite
def labeled_tiling(draw, prefix, size, depth):
    """(word, label) cells tiling cell(prefix); a subtree may take one label
    throughout, so that equal siblings collapse over several levels."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return [(prefix, draw(st.integers(0, size - 1)))]
    cells = draw(labeled_tiling(prefix + "0", size, depth - 1)) + draw(
        labeled_tiling(prefix + "1", size, depth - 1)
    )
    if draw(st.booleans()):
        a = draw(st.integers(0, size - 1))
        cells = [(w, a) for w, _ in cells]
    return cells


def perturb(draw, ctx, cells, support, defect):
    size = ctx.algebra.size
    pick = (lambda: draw(st.integers(0, len(cells) - 1))) if cells else None
    if defect == "overlap" and cells:
        w, a = cells[pick()]
        other = w + draw(st.sampled_from(["0", "1", "01"]))
        if w and draw(st.booleans()):
            other = w[: draw(st.integers(0, len(w) - 1))]
        cells.append((other, a))
    elif defect == "duplicate" and cells:
        w, a = cells[pick()]
        cells.append((w, draw(st.integers(0, size - 1))))
    elif defect == "char" and cells:
        k = pick()
        w, a = cells[k]
        j = draw(st.integers(0, len(w)))
        bad = draw(st.sampled_from(["2", "a", " ", "x0"]))
        cells[k] = (w[:j] + bad + w[j + 1:], a)
    elif defect == "gap" and cells:
        del cells[pick()]
    elif defect == "outside":
        u = draw(st.sampled_from(support.complement().words or ("10",)))
        if cells:
            k = pick()
            w, a = cells[k]
            cells[k] = (u + "0" * max(0, len(w) - len(u)), a)
        else:
            cells.append((u, 0))
    elif defect == "label" and cells:
        k = pick()
        cells[k] = (cells[k][0], draw(st.sampled_from([-1, size, size + 3])))
    elif defect == "point":
        for x, e in ctx.marked:
            for k, (w, a) in enumerate(cells):
                if x.startswith(w):
                    cells[k] = (w, (e + draw(st.integers(1, size - 1))) % size)
    return cells


@st.composite
def cell_lists(draw):
    """(context, cells, support name, defect): cells of depth up to 4 tiling
    the support, labeled by the filters at the retained points, in a drawn
    order, with at most one defect."""
    ctx = CTXS[draw(st.sampled_from(sorted(CTXS)))]
    name = draw(st.sampled_from(sorted(SUPPORTS)))
    support = SUPPORTS[name]
    cells = []
    for u in support.words:
        cells += draw(labeled_tiling(u, ctx.algebra.size, 4 - len(u)))
    for x, e in ctx.marked:
        cells = [(w, e if x.startswith(w) else a) for w, a in cells]
    defect = draw(st.sampled_from(DEFECTS))
    cells = perturb(draw, ctx, cells, support, defect)
    order = draw(st.permutations(range(len(cells))))
    return ctx, [cells[k] for k in order], name, defect


def support_order(name):
    """The drawn support first, then the other one."""
    return [name] + [other for other in sorted(SUPPORTS) if other != name]


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=500, deadline=None)
@given(cell_lists(), st.sampled_from(MESSAGES))
def test_build_agrees_cold_then_warm(args, messages):
    ctx, cells, name, _ = args
    clear_memo()
    for support in support_order(name):
        s = SUPPORTS[support]._t
        want = outcome(old_build, cells, s, *messages)
        for _ in ("cold", "warm"):
            assert outcome(cantor.build, cells, s, *messages) == want


@settings(max_examples=500, deadline=None)
@given(cell_lists())
def test_make_agrees_cold_then_warm(args):
    ctx, cells, name, _ = args
    clear_memo()
    for support in support_order(name):
        want = outcome(old_make, ctx, cells, SUPPORTS[support])
        for _ in ("cold", "warm"):
            assert outcome(new_make, ctx, cells, SUPPORTS[support]) == want


@settings(max_examples=200, deadline=None)
@given(cell_lists())
def test_defect_is_refused_on_every_call(args):
    ctx, cells, name, defect = args
    clear_memo()
    want = outcome(old_make, ctx, cells, SUPPORTS[name])
    if want[0] == "ok":
        return
    for _ in range(3):
        with pytest.raises(want[0], match=f"^{re.escape(want[1])}$"):
            new_make(ctx, cells, SUPPORTS[name])


GF4 = CTXS["gf4"]


@pytest.mark.parametrize(
    "first,second,error",
    [
        # the same words on a support they do not tile
        ((["0", "1"], [0, 1], "X"), (["0", "1"], [0, 1], "0|11"), ValueError),
        # the same words with a wrong value at point 2, x_2 = 10^w
        ((["0", "1"], [0, 1], "X"), (["0", "1"], [0, 0], "X"), FilterViolation),
        # the same words, a label outside the carrier
        ((["0", "1"], [0, 1], "X"), (["0", "1"], [0, 4], "X"), FilterViolation),
    ],
)
def test_cached_shape_does_not_pass_a_defect(first, second, error):
    clear_memo()
    (w1, a1, s1), (w2, a2, s2) = first, second
    tree = bp.PowerElement.make(GF4, list(zip(w1, a1)), SUPPORTS[s1]).tree
    assert tree == old_make(GF4, list(zip(w1, a1)), SUPPORTS[s1])
    want = outcome(old_make, GF4, list(zip(w2, a2)), SUPPORTS[s2])
    assert want[0] is error
    for _ in range(2):
        with pytest.raises(error, match=f"^{re.escape(want[1])}$"):
            bp.PowerElement.make(GF4, list(zip(w2, a2)), SUPPORTS[s2])


def chain_stage(depth):
    ctx = bp.make_context(alg.gf2_idempotent_reduct(), (0, 1))
    return ctx, next(s for s in fr.limit_chain(ctx, depth) if s.depth == depth)


def old_eval(bp_emb, a):
    """The element of the source tuple a, after from_tree's point walk."""
    labels = [m[a[j]] for m, j in bp_emb.twists] + list(bp_emb.ctx.filters[::-1])
    tree = _map(labels.__getitem__, bp_emb.tree)
    old_point_check(bp_emb.ctx, tree)
    return tree


def test_eval_agrees_on_every_tuple_of_the_depth_4_stage():
    # the stage fraisse-chain --builtin gf2-idempotent-reduct --depth 4 covers with
    ctx, stage = chain_stage(4)
    emb = stage.bp
    for a in product(range(ctx.algebra.size), repeat=emb.u):
        assert emb.eval(a).tree == old_eval(emb, a)


def test_eval_checks_the_filters_of_a_misbuilt_embedding():
    # leaf 0, a value cell, put on the block of point 1: eval must check it
    ctx, stage = chain_stage(2)
    emb = stage.bp
    tree = cantor.graft(emb.tree, [(ctx.points.point(1).prefix(2), 0)])
    bad = fr.BPEmbedding(ctx, emb.u, emb.twists, tree)
    seen = set()
    for a in product(range(ctx.algebra.size), repeat=bad.u):
        want = outcome(old_eval, bad, a)
        got = outcome(lambda e, a: e.eval(a).tree, bad, a)
        assert got == want
        seen.add(want[0])
    assert seen == {"ok", FilterViolation}
