"""Differential tests of cell-by-cell transport and the linear common
refinement ``power.meet`` against the code they replaced, kept here as
oracles: ``element_through_homeo`` pushing each value fiber through the
general ``EPHomeo.apply``, ``AutLabeling.act`` restricting f to one label
cell at a time, ``AutLabeling.multiply`` meeting the cells by a pairwise
prefix loop, and the quadratic ``refine``.

Automorphisms come from ``rand.random_automorphism`` on gf4-idempotent-
reduct with filters (0, 1) and on gf2-ring with filter 0; elements are
labeled prefix partitions of depth 0 to 3.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.autgroup import AutLabeling, element_through_homeo
from boolpow.cantor import Clopen, TailClopen, point_in
from boolpow.rand import random_automorphism
from boolpow.seqs import EPSeq

CTXS = {
    "gf2": bp.make_context(alg.gf2_ring(), (0,)),
    "gf4": bp.make_context(alg.gf4_idempotent_reduct(), (0, 1)),
}

# ---------------------------------------------------------------------------
# oracles: the code before cell-by-cell transport


def old_element_through_homeo(f, h):
    ctx = f.ctx
    cells = []
    for a in range(ctx.algebra.size):
        fib = f.fiber(a)
        if fib.is_empty():
            continue
        img = h.apply(TailClopen.from_clopen(ctx.points, fib)).to_clopen()
        for i in range(1, ctx.points.n + 1):
            x = ctx.points.point(i)
            if point_in(x, fib) and not point_in(x, img):
                raise AssertionError("point membership lost in transport")
        cells += [(w, a) for w in img.words]
    return bp.PowerElement.make(ctx, cells)


def old_act(k, f):
    ctx = k.ctx
    pts = ctx.points
    out = []
    for w, m in k.exc_cells:
        part = f.restrict(Clopen.make([w]))
        out += [(u, m[a]) for u, a in part.cells]
    for i in range(1, pts.n + 1):
        e = ctx.filters[i - 1]
        pw = next(w for w, _ in f.cells if pts.point(i).startswith(w))
        T = max(k.threshold + 1, len(pw) - (i - 1))
        out.append((pts.nbhd_word(i, T), e))
        for j in range(k.threshold + 1, T):
            m = k.tail_label(i, j)
            part = f.restrict(pts.cell(i, j))
            out += [(u, m[a]) for u, a in part.cells]
    return bp.PowerElement.make(ctx, out)


def _comp(m1, m2):
    return tuple(m1[m2[a]] for a in range(len(m1)))


def old_multiply(k1, k2):
    d = max(k1.threshold, k2.threshold)
    a, b = k1._raised(d), k2._raised(d)
    cells = []
    for w1, m1 in a.exc_cells:
        for w2, m2 in b.exc_cells:
            if w2.startswith(w1):
                cells.append((w2, _comp(m1, m2)))
            elif w1.startswith(w2) and w1 != w2:
                cells.append((w1, _comp(m1, m2)))
    tails = [
        EPSeq((), t1).zip_with(_comp, EPSeq((), t2)).word
        for t1, t2 in zip(a.tails, b.tails)
    ]
    return AutLabeling.make(k1.ctx, d, cells, tails)


def old_refine(elems):
    out = [(w, (a,)) for w, a in elems[0].cells]
    for e in elems[1:]:
        new = []
        for w, labs in out:
            for w2, a in e.cells:
                if w2.startswith(w):
                    new.append((w2, labs + (a,)))
                elif w.startswith(w2) and w != w2:
                    new.append((w, labs + (a,)))
        out = new
    return out


def old_meet(xs, ys):
    """Pairwise prefix loop over two labeled antichains, sorted."""
    out = []
    for u, a in xs:
        for v, b in ys:
            if v.startswith(u):
                out.append((v, a, b))
            elif u.startswith(v):
                out.append((u, a, b))
    return sorted(out)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def labeled_tiling(draw, prefix, size, depth, split=lambda w: False):
    """(word, label) cells tiling cell(prefix), at most `depth` below it
    unless `split` asks for a deeper cut."""
    if not split(prefix) and (depth <= 0 or draw(st.integers(0, 2)) == 0):
        return [(prefix, draw(st.integers(0, size - 1)))]
    return draw(labeled_tiling(prefix + "0", size, depth - 1, split)) + draw(
        labeled_tiling(prefix + "1", size, depth - 1, split)
    )


@st.composite
def elements(draw, ctx, support=None):
    """An element of depth 0 to 3 on the given support (default X); a cell
    holding two points with different filter values is always cut."""
    support = Clopen.all() if support is None else support
    marked = list(zip(ctx.points.points(), ctx.filters))

    def split(w):
        return len({e for x, e in marked if x.startswith(w)}) > 1

    depth = draw(st.integers(0, 3))
    cells = []
    for u in support.words:
        cells += draw(labeled_tiling(u, ctx.algebra.size, depth - len(u), split))
    for x, e in marked:
        cells = [(w, e if x.startswith(w) else a) for w, a in cells]
    return bp.PowerElement.make(ctx, cells, support)


@st.composite
def automorphisms(draw, ctx):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_automorphism(ctx, random.Random(seed), draw(st.integers(0, 2)))


@st.composite
def cases(draw):
    ctx = CTXS[draw(st.sampled_from(sorted(CTXS)))]
    return ctx, draw(automorphisms(ctx)), draw(elements(ctx))


# ---------------------------------------------------------------------------
# transport, act and multiply


@settings(max_examples=120, deadline=None)
@given(cases())
def test_transport_matches_per_fiber_oracle(case):
    ctx, phi, f = case
    want = old_element_through_homeo(f, phi.homeo)
    assert element_through_homeo(f, phi.homeo) == want
    # a second call reads the images remembered by the first
    assert element_through_homeo(f, phi.homeo) == want


@settings(max_examples=120, deadline=None)
@given(cases())
def test_act_matches_restrict_per_cell_oracle(case):
    ctx, phi, f = case
    assert phi.labeling.act(f) == old_act(phi.labeling, f)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_multiply_matches_pairwise_oracle(data):
    ctx = CTXS[data.draw(st.sampled_from(sorted(CTXS)))]
    k1 = data.draw(automorphisms(ctx)).labeling
    k2 = data.draw(automorphisms(ctx)).labeling
    assert k1.multiply(k2) == old_multiply(k1, k2)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_refine_matches_quadratic_oracle(data):
    ctx = CTXS[data.draw(st.sampled_from(sorted(CTXS)))]
    support = None
    if data.draw(st.booleans()):
        words = data.draw(st.lists(st.text(alphabet="01", max_size=2), max_size=3))
        support = Clopen.make(words)
    elems = [data.draw(elements(ctx, support)) for _ in range(data.draw(st.integers(1, 3)))]
    assert bp.refine(elems) == old_refine(elems)


# ---------------------------------------------------------------------------
# meet on its own


@st.composite
def antichain_pairs(draw):
    """Two labeled antichains tiling one random clopen, each drawn to its
    own depth, shuffled."""
    support = Clopen.make(draw(st.lists(st.text(alphabet="01", max_size=3), max_size=4)))
    sides = []
    for tag in "xy":
        depth = draw(st.integers(0, 6))
        cells = []
        for u in support.words:
            cells += [
                (w, f"{tag}{a}")
                for w, a in draw(labeled_tiling(u, 3, depth - len(u)))
            ]
        sides.append(draw(st.permutations(cells)))
    return sides


@settings(max_examples=300, deadline=None)
@given(antichain_pairs())
def test_meet_matches_pairwise_oracle_on_shuffled_antichains(pair):
    xs, ys = pair
    got = bp.meet(sorted(xs), sorted(ys))
    assert got == old_meet(xs, ys)
    assert [w for w, _, _ in got] == sorted(w for w, _, _ in got)


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([("", "a")], [("000", 1), ("001", 2), ("01", 3), ("1", 4)]),
        ([("0", "a"), ("10", "b"), ("11", "c")], [("", 1)]),
        ([("0", "a"), ("1", "b")], [("00", 1), ("01", 2), ("1", 3)]),
        ([("00", "a"), ("01", "b"), ("1", "c")], [("0", 1), ("10", 2), ("11", 3)]),
        ([], []),
    ],
)
def test_meet_on_antichains_of_unequal_depth(xs, ys):
    assert bp.meet(xs, ys) == old_meet(xs, ys)
    assert bp.meet(ys, xs) == [(w, b, a) for w, a, b in old_meet(xs, ys)]


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([("0", "a")], [("1", 1)]),
        ([("0", "a"), ("1", "b")], [("0", 1)]),
        ([], [("", 1)]),
    ],
)
def test_meet_rejects_antichains_tiling_different_sets(xs, ys):
    with pytest.raises(ValueError):
        bp.meet(xs, ys)
