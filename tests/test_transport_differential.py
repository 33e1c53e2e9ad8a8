"""Differential tests of cell-by-cell transport and of the common
refinement of labeled antichains (once the linear ``meet``, now the
lockstep walk ``cantor._common_cells`` of their trees) against the code
they replaced, kept here as oracles: ``element_through_homeo`` pushing
each value fiber through the general ``EPHomeo.apply``, and the pairwise
prefix loop over two antichains (``oracles.old_refine``).
``AutLabeling.multiply`` and ``act`` are checked in
``test_tail_differential`` and ``test_labeled_tree_differential``,
``refine`` in ``test_element_differential``.

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
from boolpow.autgroup import element_through_homeo
from boolpow.cantor import Clopen, TailClopen, _common_cells, build, point_in
from boolpow.rand import random_automorphism

from oracles import old_refine

CTXS = {
    "gf2": bp.make_context(alg.gf2_ring(), (0,)),
    "gf4": bp.make_context(alg.gf4_idempotent_reduct(), (0, 1)),
}

# ---------------------------------------------------------------------------
# oracle: the code before cell-by-cell transport


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
def elements(draw, ctx):
    """An element of depth 0 to 3 on X; a cell holding two points with
    different filter values is always cut."""
    marked = list(zip(ctx.points.points(), ctx.filters))

    def split(w):
        return len({e for x, e in marked if x.startswith(w)}) > 1

    depth = draw(st.integers(0, 3))
    cells = draw(labeled_tiling("", ctx.algebra.size, depth, split))
    for x, e in marked:
        cells = [(w, e if x.startswith(w) else a) for w, a in cells]
    return bp.PowerElement.make(ctx, cells)


@st.composite
def automorphisms(draw, ctx):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_automorphism(ctx, random.Random(seed), draw(st.integers(0, 2)))


@st.composite
def cases(draw):
    ctx = CTXS[draw(st.sampled_from(sorted(CTXS)))]
    return ctx, draw(automorphisms(ctx)), draw(elements(ctx))


# ---------------------------------------------------------------------------
# transport


@settings(max_examples=120, deadline=None)
@given(cases())
def test_transport_matches_per_fiber_oracle(case):
    ctx, phi, f = case
    want = old_element_through_homeo(f, phi.homeo)
    assert element_through_homeo(f, phi.homeo) == want
    # a second call reads the images remembered by the first
    assert element_through_homeo(f, phi.homeo) == want


# ---------------------------------------------------------------------------
# meet on its own: the lockstep walk of the antichains' trees, each cell
# labeled by its index so that no two cells merge


def meet(xs, ys):
    support = Clopen.make([w for w, _ in xs])._t
    tx = build([(w, k) for k, (w, _) in enumerate(xs)], support)
    ty = build([(w, k) for k, (w, _) in enumerate(ys)], support)
    return [(w, (xs[i][1], ys[j][1])) for w, (i, j) in _common_cells([tx, ty], "", [])]


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
    got = meet(sorted(xs), sorted(ys))
    assert got == old_refine([xs, ys])
    assert [w for w, _ in got] == sorted(w for w, _ in got)


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
    assert meet(xs, ys) == old_refine([xs, ys])
    assert meet(ys, xs) == [(w, (b, a)) for w, (a, b) in old_refine([xs, ys])]


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
        meet(xs, ys)
