"""Differential test of ``AutLabeling.act``, ``fiber`` and
``label_on_word`` of the tree-backed labeling against the cell-list
labeling it replaced, kept here as the oracle: labelings as sorted
(word, mapping) cells plus tail words, applied to elements on the
pairwise common refinement of cell lists (``oracles.old_refine``) and
merged by a stack scan of sorted cells.

Labelings come from ``rand`` (and their products, for deeper thresholds)
on gf4-idempotent-reduct with one, two and three points and on gf2-ring
with one; elements have depth up to 4.  ``make``,
``multiply``, ``invert`` and ``from_fibers`` are checked against the
cell-by-cell labeling of ``test_tail_differential``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.autgroup import AutLabeling
from boolpow.cantor import Clopen, TailClopen
from boolpow.rand import random_automorphism, random_labeling

from oracles import old_refine

GF4 = alg.gf4_idempotent_reduct()
CTXS = {
    "gf4-0": bp.make_context(GF4, (0,)),
    "gf4-01": bp.make_context(GF4, (0, 1)),
    "gf4-010": bp.make_context(GF4, (0, 1, 0)),
    "gf2-0": bp.make_context(alg.gf2_ring(), (0,)),
}

# ---------------------------------------------------------------------------
# oracle: the cell-list labeling


def old_merge(cells):
    """Sorted cells with equal-label siblings merged, one stack scan."""
    merged = []
    for w, a in cells:
        while (
            w[-1:] == "1"
            and merged
            and merged[-1][1] == a
            and merged[-1][0] == w[:-1] + "0"
        ):
            merged.pop()
            w = w[:-1]
        merged.append((w, a))
    return tuple(merged)


def old_act(ctx, k, f_cells):
    threshold, cells, tails = k
    pts = ctx.points

    def tail_label(i, j):
        t = tails[i - 1]
        return t[(j - threshold - 1) % len(t)]

    part = list(cells)
    for i in range(1, pts.n + 1):
        pw = next(w for w, _ in f_cells if pts.point(i).startswith(w))
        T = max(threshold + 1, len(pw) - (i - 1))
        part += [
            (pts.cellword(i, j), tail_label(i, j)) for j in range(threshold + 1, T)
        ]
        part.append((pts.nbhd_word(i, T), tail_label(i, T)))
    return old_merge(sorted((w, m[a]) for w, (m, a) in old_refine([part, f_cells])))


def triple(k: AutLabeling):
    return k.threshold, k.exc_cells, k.tails


# ---------------------------------------------------------------------------
# strategies


@st.composite
def labelings(draw, ctx):
    """A random labeling, or the product of two (thresholds up to 3)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = random_labeling(ctx, rng)
    if draw(st.booleans()):
        phi = random_automorphism(ctx, rng, draw(st.integers(0, 2)))
        k = k.multiply(phi.labeling)
    return k


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(CTXS)))
    return CTXS[name], draw(labelings(CTXS[name]))


@st.composite
def elements(draw, ctx):
    """An element of depth up to 4, a cell holding points cut until their
    filters agree and labeled by them."""
    marked = list(zip(ctx.points.points(), ctx.filters))

    def cut(w):
        held = {e for x, e in marked if x.startswith(w)}
        if len(held) > 1 or (len(w) < 4 and draw(st.integers(0, 2)) > 0):
            return cut(w + "0") + cut(w + "1")
        return [(w, held.pop() if held else draw(st.integers(0, ctx.algebra.size - 1)))]

    return bp.PowerElement.make(ctx, cut(""))


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_act_and_fibers_match_cell_list_oracle(data):
    ctx, k = data.draw(cases())
    f = data.draw(elements(ctx))
    assert k.act(f).cells == old_act(ctx, triple(k), f.cells)
    for m in ctx.aut_mappings:
        exc = Clopen.make([w for w, mm in k.exc_cells if mm == m])
        tails = ["".join("1" if mm == m else "0" for mm in t) for t in k.tails]
        assert k.fiber(m) == TailClopen.make(ctx.points, k.threshold, exc, tails)
        for w, mm in k.exc_cells:
            assert k.label_on_word(w + "01") == mm
