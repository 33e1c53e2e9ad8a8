"""Differential tests of the tree-backed ``AutLabeling`` against the
cell-list ``AutLabeling`` it replaced, kept here as the oracle: labelings
as (threshold, sorted (word, mapping) cells, tail words), validated by a
prefix-overlap scan and a ``Clopen`` comparison with the region, merged
by a stack scan of sorted cells, multiplied and applied to elements on a
pairwise common refinement of cell lists.

Labelings come from ``rand`` (and their products, for deeper thresholds)
on gf4-idempotent-reduct with one, two and three points; ``make`` also
gets them with one defect.  Both sides must return the same normal form,
or raise the same exception type with the same message.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.autgroup import AutLabeling
from boolpow.cantor import Clopen, TailClopen
from boolpow.errors import TailLabelViolation
from boolpow.rand import random_automorphism, random_labeling
from boolpow.seqs import EPSeq, common_threshold

GF4 = alg.gf4_idempotent_reduct()
CTXS = {
    "gf4-0": bp.make_context(GF4, (0,)),
    "gf4-01": bp.make_context(GF4, (0, 1)),
    "gf4-010": bp.make_context(GF4, (0, 1, 0)),
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


def old_overlap(words):
    ws = sorted(words)
    return any(b.startswith(a) for a, b in zip(ws, ws[1:]))


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


def old_make(ctx, threshold, exc_cells, tails):
    pts = ctx.points
    auts = ctx.aut_mappings
    exc_cells = [(str(w), tuple(m)) for w, m in exc_cells]
    tails = tuple(tuple(tuple(m) for m in t) for t in tails)
    if len(tails) != pts.n:
        raise ValueError("one tail label word per branch")
    for _, m in exc_cells:
        if m not in auts:
            raise TailLabelViolation(f"{m} is not an automorphism")
    for i, word in enumerate(tails, start=1):
        if not word:
            raise ValueError("empty tail label word")
        e = ctx.filters[i - 1]
        for m in word:
            if m not in auts:
                raise TailLabelViolation(f"{m} is not an automorphism")
            if m[e] != e:
                raise TailLabelViolation(
                    f"tail label on branch {i} moves the idempotent {e}"
                )
    words = [w for w, _ in exc_cells]
    if old_overlap(words):
        raise ValueError("overlapping label cells")
    if Clopen.make(words) != pts.region(threshold):
        raise ValueError("label cells do not tile the exceptional region")
    merged = old_merge(sorted(exc_cells))
    cells = dict(merged)
    cws = [
        [pts.cellword(i, j) for j in range(1, threshold + 1)]
        for i in range(1, pts.n + 1)
    ]
    d, tails = common_threshold(
        (tuple(map(cells.get, cw)), t) for cw, t in zip(cws, tails)
    )
    if d < threshold:
        folded = {w for cw in cws for w in cw[d:]}
        merged = tuple(c for c in merged if c[0] not in folded)
    return d, merged, tuple(tails)


def old_raised(ctx, k, d):
    threshold, cells, tails = k
    pts = ctx.points
    cells = list(cells)
    out = []
    for i, t in enumerate(tails, start=1):
        s = EPSeq((), t)
        for j in range(1, d - threshold + 1):
            cells.append((pts.cellword(i, threshold + j), s.at(j)))
        out.append(s.shift(d - threshold).word)
    return d, tuple(cells), tuple(out)


def _comp(m1, m2):
    return tuple(m1[m2[a]] for a in range(len(m1)))


def _inv(m):
    out = [0] * len(m)
    for a, b in enumerate(m):
        out[b] = a
    return tuple(out)


def old_multiply(ctx, k1, k2):
    d = max(k1[0], k2[0])
    _, c1, t1 = old_raised(ctx, k1, d)
    _, c2, t2 = old_raised(ctx, k2, d)
    cells = [(w, _comp(m1, m2)) for w, m1, m2 in old_meet(c1, c2)]
    tails = [
        EPSeq((), a).zip_with(_comp, EPSeq((), b)).word for a, b in zip(t1, t2)
    ]
    return old_make(ctx, d, cells, tails)


def old_invert(ctx, k):
    threshold, cells, tails = k
    return old_make(
        ctx,
        threshold,
        [(w, _inv(m)) for w, m in cells],
        [tuple(map(_inv, t)) for t in tails],
    )


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
    return old_merge(sorted((w, m[a]) for w, m, a in old_meet(part, f_cells)))


def triple(k: AutLabeling):
    return k.threshold, k.exc_cells, k.tails


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception itself is what is compared
        return (type(exc), str(exc))


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
        return [(w, held.pop() if held else draw(st.integers(0, 3)))]

    return bp.PowerElement.make(ctx, cut(""))


@st.composite
def make_inputs(draw):
    """(ctx, threshold, cells, tails) of a labeling raised by 0-2 levels
    and its cells cut 0-1 levels further, with at most one defect."""
    ctx, k = draw(cases())
    d, cells, tails = old_raised(ctx, triple(k), k.threshold + draw(st.integers(0, 2)))
    cells = [
        c
        for w, m in cells
        for c in ([(w, m)] if draw(st.booleans()) else [(w + "0", m), (w + "1", m)])
    ]
    defect = draw(
        st.sampled_from(
            ["none", "overlap", "gap", "char", "label", "tail", "branches", "threshold"]
        )
    )
    pick = draw(st.integers(0, len(cells) - 1))
    w, m = cells[pick]
    if defect == "overlap":
        cells.append((w + draw(st.sampled_from(["0", "1", "10"])), m))
    elif defect == "gap":
        del cells[pick]
    elif defect == "char":
        cells[pick] = (w[:-1] + draw(st.sampled_from(["2", "a", "x0"])), m)
    elif defect == "label":
        cells[pick] = (w, (0, 0, 0, 0))
    elif defect == "tail":
        # no automorphism of GF(4) moves the idempotents 0 and 1
        tails = ((tuple(range(4)), (1, 0, 2, 3)),) + tuple(tails[1:])
    elif defect == "branches":
        tails = tuple(tails) + ((tuple(range(4)),),)
    elif defect == "threshold":
        d = max(0, d - 1) if draw(st.booleans()) else d + 1
    order = draw(st.permutations(range(len(cells))))
    return ctx, d, [cells[i] for i in order], tails


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=300, deadline=None)
@given(make_inputs())
def test_make_matches_cell_list_oracle(args):
    ctx, d, cells, tails = args
    got = outcome(lambda *a: triple(AutLabeling.make(*a)), ctx, d, cells, tails)
    assert got == outcome(old_make, ctx, d, cells, tails)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multiply_and_invert_match_cell_list_oracle(data):
    ctx, k1 = data.draw(cases())
    k2 = data.draw(labelings(ctx))
    assert triple(k1.multiply(k2)) == old_multiply(ctx, triple(k1), triple(k2))
    assert triple(k1.invert()) == old_invert(ctx, triple(k1))


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
