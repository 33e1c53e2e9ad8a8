"""Differential tests of ``AutLabeling.pushforward`` against the fiber
route, kept here as the oracle: every label fiber is built as a
``TailClopen``, pushed through the general ``EPHomeo.apply``, and the
labeling is reassembled from the image fibers by ``from_fibers``.

Automorphisms come from ``rand.random_automorphism`` (0 to 3 moves) on
gf4-idempotent-reduct with filters (0, 1) and (1, 0, 1) and on gf2-ring
with filters (0,) and (0, 0, 0).  Their labelings, those of their
composites (for deeper thresholds) and labelings drawn with region cells
cut two levels deep (so that piece cells are split) are pushed through their
homeomorphisms, the inverses and composites of those, and the elementary
moves ``tail_shift``, ``parity_swap`` and ``suffix_twist``; both sides
must return the same normal form.  Composition and inverse are also
checked pointwise on elements of depth 0 to 3.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.autgroup import AutLabeling, PowerAutomorphism
from boolpow.cantor import PointContext
from boolpow.homeo import EPHomeo
from boolpow.rand import parity_swap, random_automorphism, suffix_twist, tail_shift

GF4 = alg.gf4_idempotent_reduct()
GF2 = alg.gf2_ring()
CTXS = {
    "gf4-01": bp.make_context(GF4, (0, 1)),
    "gf4-101": bp.make_context(GF4, (1, 0, 1)),
    "gf2-0": bp.make_context(GF2, (0,)),
    "gf2-000": bp.make_context(GF2, (0, 0, 0)),
}

# ---------------------------------------------------------------------------
# oracle: one fiber at a time through EPHomeo.apply


def old_pushforward(k, h):
    fibers = [(h.apply(k.fiber(m)), m) for m in k.labels_used()]
    fibers = [(tc, m) for tc, m in fibers if not tc.is_empty()]
    return AutLabeling.from_fibers(k.ctx, fibers)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def automorphisms(draw, ctx):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_automorphism(ctx, random.Random(seed), draw(st.integers(0, 3)))


@st.composite
def homeos(draw, ctx, x, y):
    """A point-fixing homeomorphism built from the automorphisms x and y,
    or an elementary move on one branch."""
    pts = ctx.points
    kind = draw(
        st.sampled_from(
            ["homeo", "inverse", "composite", "tail_shift", "parity_swap", "suffix_twist"]
        )
    )
    if kind == "homeo":
        return x.homeo
    if kind == "inverse":
        return x.homeo.inverse()
    if kind == "composite":
        return x.homeo.compose(y.homeo)
    i = draw(st.integers(1, pts.n))
    if kind == "tail_shift":
        return tail_shift(pts, i, draw(st.integers(1, 2)))
    if kind == "parity_swap":
        return parity_swap(pts, i)
    table = draw(
        st.sampled_from(
            [
                EPHomeo.make(PointContext(0), [("0", "1"), ("1", "0")], ()),
                EPHomeo.make(PointContext(0), [("00", "1"), ("01", "01"), ("1", "00")], ()),
            ]
        )
    )
    return suffix_twist(pts, i, table)


@st.composite
def labeled_tiling(draw, prefix, size, depth, split):
    """(word, label) cells tiling cell(prefix), at most `depth` below it
    unless `split` asks for a deeper cut."""
    if not split(prefix) and (depth <= 0 or draw(st.integers(0, 2)) == 0):
        return [(prefix, draw(st.integers(0, size - 1)))]
    return draw(labeled_tiling(prefix + "0", size, depth - 1, split)) + draw(
        labeled_tiling(prefix + "1", size, depth - 1, split)
    )


@st.composite
def labelings(draw, ctx):
    """A labeling of threshold 0 to 2 whose region cells are cut up to two
    levels deeper, so that piece cells below the threshold are split."""
    auts = ctx.aut_mappings
    d = draw(st.integers(0, 2))
    cells = []
    for w in ctx.points.region(d).words:
        cells += draw(labeled_tiling(w, len(auts), 2, lambda w: False))
    tails = []
    for e in ctx.filters:
        stab = [m for m in auts if m[e] == e]
        tails.append(draw(st.lists(st.sampled_from(stab), min_size=1, max_size=3)))
    return AutLabeling.make(ctx, d, [(w, auts[k]) for w, k in cells], tails)


@st.composite
def elements(draw, ctx):
    """An element of depth 0 to 3 on X; a cell holding two points with
    different filter values is always cut."""
    marked = list(zip(ctx.points.points(), ctx.filters))

    def split(w):
        return len({e for x, e in marked if x.startswith(w)}) > 1

    cells = draw(labeled_tiling("", ctx.algebra.size, draw(st.integers(0, 3)), split))
    for x, e in marked:
        cells = [(w, e if x.startswith(w) else a) for w, a in cells]
    return bp.PowerElement.make(ctx, cells)


# ---------------------------------------------------------------------------
# pushforward against the oracle


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pushforward_matches_fiber_route(data):
    ctx = CTXS[data.draw(st.sampled_from(sorted(CTXS)))]
    x = data.draw(automorphisms(ctx))
    y = data.draw(automorphisms(ctx))
    kind = data.draw(st.sampled_from(["own", "composite", "drawn"]))
    if kind == "own":
        k = x.labeling
    elif kind == "composite":
        k = x.compose(y).labeling
    else:
        k = data.draw(labelings(ctx))
    h = data.draw(homeos(ctx, x, y))
    assert k.pushforward(h) == old_pushforward(k, h)


def test_pushforward_matches_fiber_route_on_a_seeded_pool():
    """Every labeling of a small seeded pool through every homeomorphism
    of the pool and its inverse."""
    for name, ctx in sorted(CTXS.items()):
        pool = [
            random_automorphism(ctx, random.Random(seed), seed % 4)
            for seed in range(6)
        ]
        hs = [p.homeo for p in pool] + [p.homeo.inverse() for p in pool]
        for p in pool:
            for h in hs:
                assert p.labeling.pushforward(h) == old_pushforward(p.labeling, h), name


# ---------------------------------------------------------------------------
# the group laws it serves, pointwise


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_and_inverse_act_pointwise(data):
    ctx = CTXS[data.draw(st.sampled_from(sorted(CTXS)))]
    x = data.draw(automorphisms(ctx))
    y = data.draw(automorphisms(ctx))
    if data.draw(st.booleans()):
        x = PowerAutomorphism.make(ctx, data.draw(labelings(ctx)), x.homeo)
    f = data.draw(elements(ctx))
    assert x.compose(y).apply(f) == x.apply(y.apply(f))
    assert x.inverse().apply(x.apply(f)) == f
