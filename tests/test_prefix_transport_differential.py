"""Differential tests of the prefix kernel in ``cantor`` (the labeled tree
that ``build`` makes and ``_words`` reads back, and its ``subtree`` and
``graft``) against the hand-written prefix loops it replaced, kept here as
oracles:

- ``EPHomeo.apply`` with its partial content carried by a pairwise loop
  over the tabular pairs and, inside the cells of a tail piece, by
  stripping the cell word, applying the piece's table and prepending the
  image cell word;
- the ``RestrictionMap`` substitution loops;
- ``subtree`` against a pairwise substitution of the cells followed by
  the bottom-up dict merge of sibling cells.

The sibling merges themselves (of labeled cells and of table pairs) are
checked against their own frozen loops in ``test_clopen_differential``.

Homeomorphisms come from ``rand``; elements are enumerated at depth 0 to 3
or drawn at depth up to 5.  Images are compared element by element, and
the image of every cell word of depth up to 4 under seeded automorphisms'
homeomorphisms (``apply_clopen_in_X``, the cell images elements are pushed
through) cell by cell.  The
round trip of ``reduce_idempotents`` is checked here too; its oracle, the
chained twist, swap and merge, is in ``test_reduction_differential``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.cantor import (
    Clopen,
    PointContext,
    TailClopen,
    _words,
    build,
    subtree,
)
from boolpow.homeo import EPHomeo, TailPiece, cross_branch_involution, orbit_witness
from boolpow.rand import (
    random_automorphism,
    random_block_preserving_homeo,
    random_good_tailclopen,
    random_point_fixing_homeo,
    random_tailclopen,
)
from boolpow.seqs import EPSet

GF2 = alg.gf2_ring()
GF4 = alg.gf4_idempotent_reduct()
CTXS = {
    "gf2-00": bp.make_context(GF2, (0, 0)),
    "gf2-000": bp.make_context(GF2, (0, 0, 0)),
    "gf4-010": bp.make_context(GF4, (0, 1, 0)),
    "gf4-101": bp.make_context(GF4, (1, 0, 1)),
}

# ---------------------------------------------------------------------------
# oracles: EPHomeo.apply before its partial content went through _pairs_on


def old_apply_pairs_clopen(pairs, b):
    out = []
    for w in b.words:
        for p, q in pairs:
            if w.startswith(p):
                out.append(q + w[len(p):])
            elif p.startswith(w) and p != w:
                out.append(q)
    return Clopen.make(out)


def old_strip_root(b, root):
    out = []
    for w in b.words:
        if w.startswith(root):
            out.append(w[len(root):])
        elif root.startswith(w):
            out.append("")
        else:
            raise ValueError((w, root))
    return Clopen.make(out)


def old_prepend_root(b, root):
    return Clopen.make([root + w for w in b.words])


def old_table_apply_clopen(table, b):
    return old_apply_pairs_clopen(table.pairs, b)


def old_max_branch_index(ctx, words):
    """The largest j of a cell(i, j) holding one of the words, 0 for none."""
    depth = 0
    for w in words:
        for i in range(1, ctx.n + 1):
            pre = "1" * (i - 1)
            if not w.startswith(pre):
                continue
            rest = w[i - 1:]
            if not rest or rest[0] != "0":
                continue
            if "1" not in rest:
                raise ValueError(f"clopen word {w!r} covers a distinguished point")
            j = 0
            while rest[j] == "0":
                j += 1
            depth = max(depth, j)
    return depth


def old_apply(h, b):
    if isinstance(b, Clopen):
        b = TailClopen.from_clopen(h.ctx, b)
    ctx = h.ctx
    singles = []
    ap_images = {}
    tabular = Clopen.make([p for p, _ in h.pairs])
    content = b.intersect(TailClopen.from_clopen(ctx, tabular)).to_clopen()
    partial = old_apply_pairs_clopen(h.pairs, content)
    for piece in h.pieces:
        i = piece.branch
        j = piece.first
        while j <= b.threshold:
            part = b.exceptional.intersect(ctx.cell(i, j))
            if not part.is_empty():
                jj = piece.image_of(j)
                if part == ctx.cell(i, j):
                    singles.append((piece.target, jj))
                else:
                    rel = old_strip_root(part, ctx.cellword(i, j))
                    img = old_table_apply_clopen(piece.cellmap, rel)
                    partial = partial.union(
                        old_prepend_root(img, ctx.cellword(piece.target, jj))
                    )
            j += piece.step
        ones, aps = b.tail_epset(i).on_ap(piece.first, piece.step)
        for j in ones:
            singles.append((piece.target, piece.image_of(j)))
        for f, s in aps:
            ap_images.setdefault(piece.target, []).append(
                (piece.image_of(f), piece.istep * (s // piece.step))
            )
    epsets = {}
    for t in range(1, ctx.n + 1):
        epsets[t] = EPSet.from_aps(
            ap_images.get(t, []), [jj for tt, jj in singles if tt == t]
        )
    depth = old_max_branch_index(ctx, partial.words)
    for t, e in epsets.items():
        depth = max(depth, len(e.head))
    exc = partial
    tails = []
    for t in range(1, ctx.n + 1):
        e = epsets[t]
        for j in range(1, depth + 1):
            if e.at(j):
                exc = exc.union(ctx.cell(t, j))
        tails.append("".join("01"[x] for x in e.shift(depth).word))
    return TailClopen.make(ctx, depth, exc, tails)


# ---------------------------------------------------------------------------
# oracles: the restriction loops


def old_forward(rmap, f):
    cells = []
    for w, a in f.restrict(rmap.b).cells:
        for p, q in rmap.pairs:
            if w.startswith(p):
                cells.append((q + w[len(p):], a))
            elif p.startswith(w) and p != w:
                cells.append((q, a))
    return bp.PowerElement.make(rmap.dst, cells)


def old_backward(rmap, g):
    cells = []
    for w, a in g.cells:
        for p, q in rmap.pairs:
            if w.startswith(q):
                cells.append((p + w[len(q):], a))
            elif q.startswith(w) and q != w:
                cells.append((p, a))
    fill = bp._complement_fill(rmap.src, Clopen.all().difference(rmap.b))
    return bp.PowerElement.make(rmap.src, cells + fill)


# ---------------------------------------------------------------------------
# oracles: the bottom-up merge and the pairwise substitution


def old_merge_sibling_cells(cells):
    cur = dict(cells)
    by_len = {}
    for w in cur:
        by_len.setdefault(len(w), []).append(w)
    for n in range(max(by_len, default=0), 0, -1):
        for w in by_len.get(n, ()):
            sib = w[:-1] + "1"
            if w[-1] == "0" and sib in cur and cur[w] == cur[sib]:
                label = cur[w]
                del cur[w], cur[sib]
                cur[w[:-1]] = label
                by_len.setdefault(n - 1, []).append(w[:-1])
    return tuple(sorted(cur.items()))


def old_transport(cells, pairs):
    out = []
    for w, a in cells:
        for p, q in pairs:
            if w.startswith(p):
                out.append((q + w[len(p):], a))
            elif p.startswith(w) and p != w:
                out.append((q, a))
    return out


# ---------------------------------------------------------------------------
# strategies


@st.composite
def tiling(draw, prefix, depth, label):
    """Cells tiling cell(prefix), at most `depth` below it."""
    if depth <= 0 or draw(st.integers(0, 2)) == 0:
        return [(prefix, draw(label))]
    return draw(tiling(prefix + "0", depth - 1, label)) + draw(
        tiling(prefix + "1", depth - 1, label)
    )


@st.composite
def elements(draw, ctx, max_depth=5):
    """An element of depth up to max_depth: a tiling of X with every cell
    holding a point cut until it holds one, then labeled by its filter."""
    pts = ctx.points.points()
    labels = st.integers(0, ctx.algebra.size - 1)
    cells = draw(tiling("", draw(st.integers(0, max_depth)), labels))
    cells = [(u, a) for w, a in cells for u in bp._one_point_words(pts, [w])]
    cells = [
        (w, next((e for x, e in zip(pts, ctx.filters) if x.startswith(w)), a))
        for w, a in cells
    ]
    return bp.PowerElement.make(ctx, cells)


ENUMERATED = {name: bp.enumerate_elements(ctx, 3) for name, ctx in CTXS.items()}


@st.composite
def ctx_elements(draw):
    name = draw(st.sampled_from(sorted(CTXS)))
    ctx = CTXS[name]
    if draw(st.booleans()):
        return ctx, draw(st.sampled_from(ENUMERATED[name]))
    return ctx, draw(elements(ctx))


@st.composite
def homeos(draw):
    """A rand homeomorphism on 1-3 points (point-fixing, block-preserving
    or an orbit witness), sometimes composed with a second one, sometimes
    inverted, and on two points sometimes composed with the cross-branch
    involution (no extension to X)."""
    n = draw(st.integers(1, 3))
    ctx = PointContext(n)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def one():
        kind = draw(st.sampled_from(["point-fixing", "block", "witness"]))
        if kind == "point-fixing":
            return random_point_fixing_homeo(ctx, rng, draw(st.integers(0, 2)))
        if kind == "block":
            return random_block_preserving_homeo(ctx, rng, draw(st.integers(1, 3)))
        c1 = random_good_tailclopen(ctx, rng, max_threshold=2, max_period=3)
        c2 = random_good_tailclopen(ctx, rng, max_threshold=2, max_period=3)
        return orbit_witness(c1, c2)  # good clopens share one type

    h = one()
    if draw(st.booleans()):
        h = h.compose(one())
    if draw(st.booleans()):
        h = h.inverse()
    if n == 2 and draw(st.booleans()):
        h = h.compose(cross_branch_involution(ctx))
    return h, rng


# ---------------------------------------------------------------------------
# EPHomeo.apply


def outcome(fn, *args):
    """The value of fn(*args), or the type and message it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception itself is what is compared
        return (type(exc), str(exc))


@settings(max_examples=150, deadline=None)
@given(homeos(), st.integers(0, 3))
def test_apply_matches_pairwise_oracle(hr, threshold):
    h, rng = hr
    ctx = h.ctx
    b = random_tailclopen(ctx, rng, max_threshold=threshold)
    assert h.apply(b) == old_apply(h, b)
    c = Clopen.make([w + s for w in b.exceptional.words for s in ("0", "11")])
    assert h.apply(c) == old_apply(h, c)
    d = Clopen.make([w for w in ctx.region(3).words if rng.random() < 0.5])
    assert h.apply(d) == old_apply(h, d)
    wrong = TailClopen.empty(PointContext(ctx.n + 1))
    assert outcome(h.apply, wrong) == outcome(old_apply, h, wrong)


def test_apply_through_a_twisting_cellmap():
    # the halves 0 and 1 swapped inside every odd cell of branch 1; the
    # clopens cut cells below their threshold
    ctx = PointContext(1)
    t = EPHomeo.make(PointContext(0), [("0", "1"), ("1", "0")], ())
    ident = EPHomeo.identity(PointContext(0))
    h = EPHomeo.make(
        ctx,
        [("1", "1")],
        [TailPiece(1, 1, 2, 1, 1, 2, t), TailPiece(1, 2, 2, 1, 2, 2, ident)],
    )
    for words in (["0101"], ["0100", "0011"], ["01", "0010"], ["1", "001"]):
        b = Clopen.make(words)
        assert h.apply(b) == old_apply(h, b)


def test_cell_images_match_pairwise_oracle_on_a_seeded_pool():
    """Every cell word of depth <= 4 through the homeomorphisms of seeded
    automorphisms, their inverses and products: the cell images that
    elements are pushed through."""
    ctx = bp.make_context(GF4, (0, 1))
    pool = [random_automorphism(ctx, random.Random(seed), 1).homeo for seed in range(8)]
    hs = pool + [h.inverse() for h in pool[:4]] + [pool[0].compose(pool[5])]
    cells = [format(k, "b").zfill(L) if L else "" for L in range(5) for k in range(1 << L)]
    for h in hs:
        for w in cells:
            b = Clopen.make([w])
            assert h.apply_clopen_in_X(b) == old_apply(h, b).to_clopen(), w


# ---------------------------------------------------------------------------
# restriction maps


word_lists = st.lists(st.text(alphabet="01", max_size=3), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(ctx_elements(), word_lists, st.data())
def test_restriction_map_matches_substitution_loops(case, words, data):
    ctx, f = case
    b = Clopen.make(words)
    dst, rmap = bp.restrict(ctx, b)
    g = rmap.forward(f)
    assert g == old_forward(rmap, f)
    g2 = data.draw(elements(dst))
    assert rmap.backward(g2) == old_backward(rmap, g2)
    assert rmap.backward(g).restrict(b) == f.restrict(b)


# ---------------------------------------------------------------------------
# the reduction and the restriction isomorphism


@pytest.mark.parametrize("name", sorted(CTXS))
def test_reduce_idempotents_images_exhaustive_depth_2(name):
    ctx = CTXS[name]
    red, iso = bp.reduce_idempotents(ctx)
    for f in bp.enumerate_elements(ctx, 2):
        g = iso.forward(f)
        assert g.ctx == red
        assert iso.backward(g) == f


def test_restriction_iso_matches_per_cell_images():
    ctx = CTXS["gf2-00"]
    h = EPHomeo.make(
        ctx.points,
        [("11", "11")],
        [
            TailPiece(1, 1, 1, 2, 1, 1, EPHomeo.identity(PointContext(0))),
            TailPiece(2, 1, 1, 1, 1, 1, EPHomeo.identity(PointContext(0))),
        ],
    )
    b1, b2 = Clopen.make(["0"]), Clopen.make(["10"])
    iso = bp.restriction_iso(b1, b2, (0, 1), h, ctx)
    for f in bp.enumerate_elements(ctx, 3):
        r = f.restrict(b1)
        cells = [
            (u, a)
            for w, a in r.cells
            for u in h.apply_clopen_in_X(Clopen.make([w])).words
        ]
        assert iso.forward(r) == bp.PowerElement.make(ctx, cells, b2)


# ---------------------------------------------------------------------------
# the kernel on its own


@st.composite
def labeled_antichains(draw, labels=st.integers(0, 2)):
    """Cells of a random clopen, cut up to 4 levels below its words."""
    words = draw(st.lists(st.text(alphabet="01", max_size=3), max_size=4))
    support = Clopen.make(words)
    cells = []
    for u in support.words:
        cells += draw(tiling(u, draw(st.integers(0, 4)), labels))
    return support, cells


@settings(max_examples=300, deadline=None)
@given(labeled_antichains(), st.data())
def test_transport_matches_pairwise_substitution(case, data):
    support, cells = case
    # pairs on the same support: each cell of a second cutting sent to a
    # freely chosen word
    srcs = []
    for u in support.words:
        cut = data.draw(tiling(u, data.draw(st.integers(0, 4)), st.just(0)))
        srcs += [w for w, _ in cut]
    pairs = [(p, data.draw(st.text(alphabet="01", max_size=3))) for p in srcs]
    # each pair on its own: the subtree below p read out below q, against
    # the substituted cells merged
    tree = build(cells, support._t)
    for p, q in pairs:
        got = tuple((q + s, a) for s, a in _words(subtree(tree, p), "", []))
        assert got == old_merge_sibling_cells(old_transport(cells, [(p, q)]))


def test_transport_rejects_sources_tiling_another_set():
    # the tree of cells is built against the set they must tile
    with pytest.raises(ValueError):
        build([("0", 1)], Clopen.make(["1"])._t)
    with pytest.raises(ValueError):
        build([("0", 1), ("1", 2)], Clopen.make(["0"])._t)
