"""Differential tests of the one tail-labeled tree behind ``TailClopen``
and ``AutLabeling``, and of ``EPHomeo.apply`` as a push of that tree,
against the code they replaced, kept here as the oracle:

- ``OldTailClopen``: a clopen of X° as an exceptional ``Clopen`` (False
  both outside the region and off the set) plus one "0"/"1" tail string
  per branch, with its own ``make``, ``raised``, binary operations and
  point membership;
- ``OldAutLabeling``: a tree of automorphism indices plus tuple tails,
  with its own ``_canonical``, ``_raised``, ``multiply``, ``invert``,
  ``fiber``, ``from_fibers`` and ``pushforward``;
- ``old_apply``: the image of a clopen of X° under a homeomorphism,
  assembled from per-piece ``EPSet.on_ap`` images, ``EPSet.from_aps``,
  the ``_pairs_on`` words of the tabular part and a cell-by-cell union.

Homeomorphisms are drawn from ``random_point_fixing_homeo``,
``random_block_preserving_homeo``, ``orbit_witness`` and (on two points)
``cross_branch_involution``, which has no extension to X, and from
their composites and inverses.  Both sides must return the same normal
form, or raise the same exception type with the same message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.autgroup import AutLabeling
from boolpow.cantor import (
    Clopen,
    PointContext,
    TailClopen,
    _cell_labels,
    _words,
    _zip,
    build,
    graft,
    point_in,
    subtree,
    tail_cells,
)
from boolpow.errors import ContextMismatch, TailLabelViolation
from boolpow.homeo import _pairs_on, cross_branch_involution, orbit_witness, witness_points
from boolpow.rand import (
    random_automorphism,
    random_block_preserving_homeo,
    random_good_tailclopen,
    random_point_fixing_homeo,
)
from boolpow.seqs import EPSeq, EPSet, common_threshold

# ---------------------------------------------------------------------------
# oracle: the string-tailed clopen of X°


@dataclass(frozen=True)
class OldTailClopen:
    ctx: PointContext
    threshold: int
    exceptional: Clopen
    tails: tuple

    @staticmethod
    def make(ctx, threshold, exceptional, tails):
        tails = tuple(tails)
        if len(tails) != ctx.n:
            raise ValueError("one tail word per branch")
        for w in tails:
            if not w or any(c not in "01" for c in w):
                raise ValueError(f"bad tail word {w!r}")
        if not exceptional.is_subset(ctx.region(threshold)):
            raise ValueError("exceptional part leaks into a branch tail")
        d, words = common_threshold(
            (_cell_labels(exceptional._t, i, threshold), tuple(c == "1" for c in w))
            for i, w in enumerate(tails, start=1)
        )
        if d < threshold:
            exceptional = exceptional.intersect(ctx.region(d))
        tails = tuple("".join("01"[b] for b in word) for word in words)
        return OldTailClopen(ctx, d, exceptional, tails)

    @staticmethod
    def empty(ctx):
        return OldTailClopen.make(ctx, 0, Clopen.empty(), ("0",) * ctx.n)

    @staticmethod
    def from_clopen(ctx, b):
        d = max([len(w) for w in b.words], default=0)
        tails = []
        for i in range(1, ctx.n + 1):
            tails.append("1" if point_in(ctx.point(i), b) else "0")
        exc = b.intersect(ctx.region(d))
        return OldTailClopen.make(ctx, d, exc, tails)

    def tail_bit(self, i, j):
        w = self.tails[i - 1]
        return w[(j - self.threshold - 1) % len(w)]

    def tail_epset(self, i):
        return EPSet.make(
            (False,) * self.threshold,
            tuple(c == "1" for c in self.tails[i - 1]),
        )

    def raised(self, d):
        if d < self.threshold:
            raise ValueError(d)
        if d == self.threshold:
            return self
        n, bit = self.ctx.n, lambda i, j: self.tail_bit(i, j) == "1"
        cells = tail_cells(self.ctx, self.threshold, bit, [d + 1] * n, [False] * n)
        exc = Clopen(graft(self.exceptional._t, cells))
        tails = [EPSeq((), w).shift(d - self.threshold).word for w in self.tails]
        return OldTailClopen(self.ctx, d, exc, tuple(tails))

    def _binop(self, other, excfn, bitfn):
        if self.ctx != other.ctx:
            raise ContextMismatch((self.ctx, other.ctx))
        d = max(self.threshold, other.threshold)
        a, b = self.raised(d), other.raised(d)
        exc = excfn(a.exceptional, b.exceptional)
        tails = [
            "".join(EPSeq((), x).zip_with(bitfn, EPSeq((), y)).word)
            for x, y in zip(a.tails, b.tails)
        ]
        return OldTailClopen.make(self.ctx, d, exc, tails)

    def union(self, other):
        return self._binop(
            other, lambda p, q: p.union(q), lambda x, y: "1" if "1" in (x, y) else "0"
        )

    def intersect(self, other):
        return self._binop(
            other,
            lambda p, q: p.intersect(q),
            lambda x, y: "1" if x == y == "1" else "0",
        )

    def difference(self, other):
        return self.intersect(other.complement())

    def complement(self):
        exc = self.ctx.region(self.threshold).difference(self.exceptional)
        tails = ["".join("1" if c == "0" else "0" for c in w) for w in self.tails]
        return OldTailClopen.make(self.ctx, self.threshold, exc, tails)

    def is_empty(self):
        return self.exceptional.is_empty() and all(set(w) == {"0"} for w in self.tails)

    def to_clopen(self):
        if not all(len(set(w)) == 1 for w in self.tails):
            raise ValueError("branch tails are not eventually constant")
        out = self.exceptional
        for i in range(1, self.ctx.n + 1):
            if self.tails[i - 1] == "1":
                out = out.union(Clopen.make([self.ctx.nbhd_word(i, self.threshold + 1)]))
        return out

    def contains_point(self, x):
        loc = self.ctx.locate(x)
        if loc[0] == "point":
            return False
        if loc[0] == "cell":
            _, i, j, _ = loc
            if j > self.threshold:
                return self.tail_bit(i, j) == "1"
        return point_in(x, self.exceptional)


# ---------------------------------------------------------------------------
# oracle: the assembled image of a clopen of X° under a homeomorphism


def old_max_branch_index(ctx, words):
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
        b = OldTailClopen.from_clopen(h.ctx, b)
    if b.ctx != h.ctx:
        raise ContextMismatch((b.ctx, h.ctx))
    ctx = h.ctx
    singles = []
    ap_images = {}
    tabular = OldTailClopen.from_clopen(ctx, Clopen.make([p for p, _ in h.pairs]))
    words = list(b.intersect(tabular).to_clopen().words)
    for piece in h.pieces:
        i = piece.branch
        j = piece.first
        while j <= b.threshold:
            part = b.exceptional.intersect(ctx.cell(i, j))
            if part == ctx.cell(i, j):
                singles.append((piece.target, piece.image_of(j)))
            else:
                words += part.words
            j += piece.step
        ones, aps = b.tail_epset(i).on_ap(piece.first, piece.step)
        for j in ones:
            singles.append((piece.target, piece.image_of(j)))
        for f, s in aps:
            ap_images.setdefault(piece.target, []).append(
                (piece.image_of(f), piece.istep * (s // piece.step))
            )
    partial_img = Clopen.make([q for w in words for _, q in _pairs_on(h, w)])
    epsets = {}
    for t in range(1, ctx.n + 1):
        epsets[t] = EPSet.from_aps(
            ap_images.get(t, []), [jj for tt, jj in singles if tt == t]
        )
    depth = old_max_branch_index(ctx, partial_img.words)
    for t, e in epsets.items():
        depth = max(depth, len(e.head))
    exc = partial_img
    tails = []
    for t in range(1, ctx.n + 1):
        e = epsets[t]
        for j in range(1, depth + 1):
            if e.at(j):
                exc = exc.union(ctx.cell(t, j))
        tails.append("".join("01"[b] for b in e.shift(depth).word))
    return OldTailClopen.make(ctx, depth, exc, tails)


# ---------------------------------------------------------------------------
# oracle: the kernel labeling with its own canonical form and operations


def _ident(size):
    return tuple(range(size))


def _claim(label, bit, m):
    if bit != "1":
        return label
    if label is not None:
        raise ValueError("fibers do not partition a branch tail")
    return m


@dataclass(frozen=True)
class OldAutLabeling:
    ctx: object
    threshold: int
    tree: object
    tail_ids: tuple

    @staticmethod
    def make(ctx, threshold, exc_cells, tails):
        pts = ctx.points
        ids = ctx.aut_ids
        exc_cells = [(str(w), tuple(m)) for w, m in exc_cells]
        tails = tuple(tuple(tuple(m) for m in t) for t in tails)
        if len(tails) != pts.n:
            raise ValueError("one tail label word per branch")
        for _, m in exc_cells:
            if m not in ids:
                raise TailLabelViolation(f"{m} is not an automorphism")
        for i, word in enumerate(tails, start=1):
            if not word:
                raise ValueError("empty tail label word")
            e = ctx.filters[i - 1]
            for m in word:
                if m not in ids:
                    raise TailLabelViolation(f"{m} is not an automorphism")
                if m[e] != e:
                    raise TailLabelViolation(
                        f"tail label on branch {i} moves the idempotent {e}"
                    )
        tree = build(
            [(w, ids[m]) for w, m in exc_cells],
            pts.region(threshold)._t,
            "label cells",
            "label cells do not tile the exceptional region",
        )
        tail_ids = [tuple(ids[m] for m in t) for t in tails]
        return OldAutLabeling._canonical(ctx, threshold, tree, tail_ids)

    @staticmethod
    def _canonical(ctx, threshold, tree, tail_ids):
        d, tail_ids = common_threshold(
            (_cell_labels(tree, i, threshold), t)
            for i, t in enumerate(tail_ids, start=1)
        )
        if d < threshold:
            region = ctx.points.region(d)._t
            tree = _zip(lambda k, inside: k if inside else None, tree, region)
        return OldAutLabeling(ctx, d, tree, tuple(tail_ids))

    @property
    def exc_cells(self):
        auts = self.ctx.aut_mappings
        return tuple((w, auts[k]) for w, k in _words(self.tree, "", []))

    @property
    def tails(self):
        auts = self.ctx.aut_mappings
        return tuple(tuple(auts[k] for k in t) for t in self.tail_ids)

    def _tail_id(self, i, j):
        word = self.tail_ids[i - 1]
        return word[(j - self.threshold - 1) % len(word)]

    def labels_used(self):
        auts = self.ctx.aut_mappings
        out = {auts[k] for _, k in _words(self.tree, "", [])}
        for t in self.tail_ids:
            out |= {auts[k] for k in t}
        return out

    def fiber(self, m):
        k = self.ctx.aut_ids.get(m, -1)
        exc = Clopen(_zip(lambda l: l == k, self.tree))
        tails = ["".join("1" if l == k else "0" for l in t) for t in self.tail_ids]
        return OldTailClopen.make(self.ctx.points, self.threshold, exc, tails)

    @staticmethod
    def from_fibers(ctx, fibers):
        pts = ctx.points
        d = max([tc.threshold for tc, _ in fibers] + [0])
        raised = [(tc.raised(d), m) for tc, m in fibers]
        exc_cells = [(w, m) for tc, m in raised for w in tc.exceptional.words]
        tails = []
        for i in range(pts.n):
            labels = EPSeq((), (None,))
            for tc, m in raised:
                fiber = EPSeq((), tc.tails[i])
                labels = labels.zip_with(partial(_claim, m=m), fiber)
            if None in labels.word:
                raise ValueError("fibers do not partition a branch tail")
            tails.append(labels.word)
        return OldAutLabeling.make(ctx, d, exc_cells, tails)

    def multiply(self, other):
        if self.ctx != other.ctx:
            raise ContextMismatch((self.ctx, other.ctx))
        d = max(self.threshold, other.threshold)
        a = self._raised(d)
        b = other._raised(d)
        products = self.ctx.aut_products

        def comp(k, l):
            return None if k is None else products[k][l]

        tree = _zip(comp, a.tree, b.tree)
        tails = [
            EPSeq((), t1).zip_with(comp, EPSeq((), t2)).word
            for t1, t2 in zip(a.tail_ids, b.tail_ids)
        ]
        return OldAutLabeling._canonical(self.ctx, d, tree, tails)

    def invert(self):
        e = self.ctx.aut_ids[_ident(self.ctx.algebra.size)]
        inv = [row.index(e) for row in self.ctx.aut_products]
        tree = _zip(lambda k: None if k is None else inv[k], self.tree)
        tails = tuple(tuple(inv[k] for k in t) for t in self.tail_ids)
        return OldAutLabeling(self.ctx, self.threshold, tree, tails)

    def pushforward(self, h):
        pts, T = self.ctx.points, self.threshold
        D = old_max_branch_index(pts, [q for _, q in h.pairs])
        Ds = max(T, old_max_branch_index(pts, [p for p, _ in h.pairs]))
        for pc in h.pieces:
            if pc.first <= T:
                D = max(D, pc.image_of(T - (T - pc.first) % pc.step))
        tree = self._raised(Ds).tree
        cells = [(q, subtree(tree, p)) for p, q in h.pairs]
        for pc in h.pieces:
            j, jj = pc.first, pc.ifirst
            while jj <= D:
                dst = pts.cellword(pc.target, jj)
                if j <= Ds:
                    src = pts.cellword(pc.branch, j)
                    cells += [(dst + b, subtree(tree, src + a)) for a, b in pc.cellmap.pairs]
                else:
                    cells.append((dst, self._tail_id(pc.branch, j)))
                j, jj = j + pc.step, jj + pc.istep
        periods = [len(w) for w in self.tail_ids]
        tails = []
        for t in range(1, pts.n + 1):
            onto = [pc for pc in h.pieces if pc.target == t]
            P = lcm(*(
                pc.istep * periods[pc.branch - 1] // gcd(periods[pc.branch - 1], pc.step)
                for pc in onto
            ))
            word = [None] * P
            for pc in onto:
                k = max(0, -((pc.ifirst - D - 1) // pc.istep))
                for jj in range(pc.ifirst + k * pc.istep, D + P + 1, pc.istep):
                    word[jj - D - 1] = self._tail_id(pc.branch, pc.first + k * pc.step)
                    k += 1
            tails.append(tuple(word))
        return OldAutLabeling._canonical(self.ctx, D, graft(None, cells), tails)

    def _raised(self, d):
        if d == self.threshold:
            return self
        n = self.ctx.points.n
        tree = graft(
            self.tree,
            tail_cells(self.ctx.points, self.threshold, self._tail_id, [d + 1] * n, [None] * n),
        )
        tails = tuple(EPSeq((), t).shift(d - self.threshold).word for t in self.tail_ids)
        return OldAutLabeling(self.ctx, d, tree, tails)


# ---------------------------------------------------------------------------
# comparison helpers


def outcome(fn, *args):
    """The value of fn(*args), or the type and message it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception itself is what is compared
        return (type(exc), str(exc))


def tc_triple(c):
    return c.threshold, c.exceptional, c.tails


def lab_triple(k):
    return k.threshold, k.exc_cells, k.tails


def both_tc(ctx, raw):
    """The library's and the oracle's clopen of X° from the same raw
    (threshold, exceptional, tails) data."""
    return TailClopen.make(ctx, *raw), OldTailClopen.make(ctx, *raw)


# ---------------------------------------------------------------------------
# inputs

PCTXS = [PointContext(1), PointContext(2), PointContext(3)]


def raw_tailclopen(rng, ctx, max_threshold=3, max_period=4):
    """(threshold, exceptional, tails) cut from region(threshold), its
    words split 0-2 levels further, often with whole branch cells."""
    d = rng.randint(0, max_threshold)
    words = []
    for w in ctx.region(d).words:
        stack = [(w, rng.choice([0, 0, 1, 2]))]
        while stack:
            u, k = stack.pop()
            if k == 0:
                if rng.random() < 0.5:
                    words.append(u)
            else:
                stack += [(u + "0", k - 1), (u + "1", k - 1)]
    for i in range(1, ctx.n + 1):
        for j in range(1, d + 1):
            cw = ctx.cellword(i, j)
            if rng.random() < 0.3:  # a whole cell, foldable into the tail
                words = [u for u in words if not u.startswith(cw)] + [cw]
    tails = []
    for _ in range(ctx.n):
        base = "".join(rng.choice("01") for _ in range(rng.randint(1, max_period)))
        tails.append(base * rng.choice([1, 1, 2]))
    return d, Clopen.make(words), tuple(tails)


def raw_invalid_tailclopen(rng, ctx):
    """Raw data with one defect, or none."""
    d, exc, tails = raw_tailclopen(rng, ctx)
    defect = rng.choice(["branches", "char", "empty", "leak", "none"])
    if defect == "branches":
        tails = tails + ("1",) if rng.random() < 0.5 else tails[:-1]
    elif defect == "char":
        tails = ("0a",) + tails[1:]
    elif defect == "empty":
        tails = tails[:-1] + ("",)
    elif defect == "leak":
        exc = exc.union(Clopen.make([ctx.nbhd_word(rng.randint(1, ctx.n), d + 1) + "1"]))
    return d, exc, tails


def random_homeo(rng, ctx):
    """A homeomorphism of X° from one of the generators, a composite of
    two, or an inverse."""

    def one():
        kind = rng.choice(["point-fixing", "block", "witness", "cross"])
        if kind == "point-fixing":
            return random_point_fixing_homeo(ctx, rng, rng.randint(1, 3))
        if kind == "block":
            return random_block_preserving_homeo(ctx, rng, rng.randint(1, 3))
        if kind == "cross" and ctx.n == 2:
            return cross_branch_involution(ctx)
        c1 = random_good_tailclopen(ctx, rng, max_threshold=2, max_period=3)
        c2 = random_good_tailclopen(ctx, rng, max_threshold=2, max_period=3)
        return orbit_witness(c1, c2)  # good clopens share one type

    h = one()
    shape = rng.choice(["one", "composite", "inverse"])
    if shape == "composite":
        return h.compose(one())
    if shape == "inverse":
        return h.inverse()
    return h


GF4 = alg.gf4_idempotent_reduct()
GF2 = alg.gf2_ring()
CTXS = [
    bp.make_context(GF4, (0,)),
    bp.make_context(GF4, (0, 1)),
    bp.make_context(GF4, (1, 0, 1)),
    bp.make_context(GF2, (0, 0, 0)),
]


def raw_labeling(rng, ctx, max_threshold=3):
    """(threshold, exc_cells, tails) tiling region(threshold) with cells
    cut 0-2 levels deeper, often with whole branch cells."""
    auts = ctx.aut_mappings
    pts = ctx.points
    pool = auts if rng.random() < 0.7 else auts[:2]
    d = rng.randint(0, max_threshold)
    cells = []
    for w in pts.region(d).words:
        stack = [(w, rng.choice([0, 0, 1, 2]))]
        while stack:
            u, k = stack.pop()
            if k == 0:
                cells.append((u, rng.choice(pool)))
            else:
                stack += [(u + "0", k - 1), (u + "1", k - 1)]
    for i in range(1, pts.n + 1):
        for j in range(1, d + 1):
            cw = pts.cellword(i, j)
            if rng.random() < 0.3:
                cells = [c for c in cells if not c[0].startswith(cw)]
                cells.append((cw, rng.choice(pool)))
    tails = []
    for e in ctx.filters:
        stab = [m for m in pool if m[e] == e] or [_ident(ctx.algebra.size)]
        base = tuple(rng.choice(stab) for _ in range(rng.randint(1, 3)))
        tails.append(base * rng.choice([1, 1, 2]))
    return d, cells, tuple(tails)


def raw_invalid_labeling(rng, ctx):
    d, cells, tails = raw_labeling(rng, ctx)
    size = ctx.algebra.size
    defect = rng.choice(
        ["overlap", "gap", "label", "tail-label", "tail", "branches", "empty", "none"]
    )
    pick = rng.randrange(len(cells))
    w, m = cells[pick]
    if defect == "overlap":
        cells.append((w + rng.choice(["0", "1", "10"]), m))
    elif defect == "gap":
        del cells[pick]
    elif defect == "label":
        cells[pick] = (w, (0,) * size)
    elif defect == "tail-label":
        tails = ((((0,) * size),) + tuple(tails[0]),) + tails[1:]
    elif defect == "tail":
        moving = [m for m in ctx.aut_mappings if m[ctx.filters[0]] != ctx.filters[0]]
        if moving:
            tails = ((moving[0],) + tuple(tails[0]),) + tails[1:]
    elif defect == "branches":
        tails = tails + ((_ident(size),),)
    elif defect == "empty":
        tails = ((),) + tails[1:]
    rng.shuffle(cells)
    return d, cells, tails


# ---------------------------------------------------------------------------
# clopens of X°


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tailclopen_make_and_ops_match_string_oracle(seed):
    rng = random.Random(seed)
    ctx = rng.choice(PCTXS)
    raw = raw_invalid_tailclopen(rng, ctx)
    got = outcome(lambda *a: tc_triple(TailClopen.make(*a)), ctx, *raw)
    assert got == outcome(lambda *a: tc_triple(OldTailClopen.make(*a)), ctx, *raw)
    a, oa = both_tc(ctx, raw_tailclopen(rng, ctx))
    b, ob = both_tc(ctx, raw_tailclopen(rng, ctx))
    d = max(a.threshold, b.threshold) + rng.randint(0, 2)
    assert tc_triple(a.raised(d)) == tc_triple(oa.raised(d))
    assert outcome(a.raised, a.threshold - 1)[0] is outcome(oa.raised, oa.threshold - 1)[0]
    assert tc_triple(a.union(b)) == tc_triple(oa.union(ob))
    assert tc_triple(a.intersect(b)) == tc_triple(oa.intersect(ob))
    assert tc_triple(a.difference(b)) == tc_triple(oa.difference(ob))
    assert tc_triple(a.complement()) == tc_triple(oa.complement())
    pairs = [(a, oa), (a.intersect(b), oa.intersect(ob))]
    pairs.append((a.union(a.complement()), oa.union(oa.complement())))
    for c, oc in pairs:
        assert c.is_empty() == oc.is_empty()
        assert c.is_full() == oc.complement().is_empty()
    for x in witness_points(ctx, max(a.threshold, 2) + 3) + ctx.points():
        assert a.contains_point(x) == oa.contains_point(x)
    other = TailClopen.empty(PointContext(ctx.n + 1))
    old_other = OldTailClopen.empty(PointContext(ctx.n + 1))
    assert outcome(a.union, other) == outcome(oa.union, old_other)


# ---------------------------------------------------------------------------
# images under homeomorphisms


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_apply_matches_assembled_image(seed):
    rng = random.Random(seed)
    ctx = rng.choice(PCTXS)
    h = random_homeo(rng, ctx)
    a, oa = both_tc(ctx, raw_tailclopen(rng, ctx, max_threshold=2, max_period=3))
    assert tc_triple(h.apply(a)) == tc_triple(old_apply(h, oa))
    b = Clopen.make([w for w in ctx.region(3).words if rng.random() < 0.5])
    assert tc_triple(h.apply(b)) == tc_triple(old_apply(h, b))
    wrong = TailClopen.empty(PointContext(ctx.n + 1))
    old_wrong = OldTailClopen.empty(PointContext(ctx.n + 1))
    assert outcome(h.apply, wrong) == outcome(old_apply, h, old_wrong)


def test_cell_images_match_assembled_image_on_a_seeded_pool():
    """Every cell word of depth <= 4 through the homeomorphisms of seeded
    automorphisms, their inverses and products: the cell images that
    elements are pushed through."""
    ctx = CTXS[1]
    pool = [random_automorphism(ctx, random.Random(seed), 1).homeo for seed in range(8)]
    hs = pool + [h.inverse() for h in pool[:4]] + [pool[0].compose(pool[5])]
    cells = [format(k, "b").zfill(L) if L else "" for L in range(5) for k in range(1 << L)]
    for h in hs:
        for w in cells:
            b = Clopen.make([w])
            want = old_apply(h, b).to_clopen()
            assert h.apply_clopen_in_X(b) == want, w


# ---------------------------------------------------------------------------
# kernel labelings


def old_of(ctx, k):
    """The oracle labeling with the same normal form as k."""
    return OldAutLabeling.make(ctx, k.threshold, k.exc_cells, k.tails)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_autlabeling_make_matches_oracle(seed):
    rng = random.Random(seed)
    ctx = rng.choice(CTXS)
    raw = raw_invalid_labeling(rng, ctx)
    got = outcome(lambda *a: lab_triple(AutLabeling.make(*a)), ctx, *raw)
    assert got == outcome(lambda *a: lab_triple(OldAutLabeling.make(*a)), ctx, *raw)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_autlabeling_ops_match_oracle(seed):
    rng = random.Random(seed)
    ctx = rng.choice(CTXS)
    a = AutLabeling.make(ctx, *raw_labeling(rng, ctx))
    b = AutLabeling.make(ctx, *raw_labeling(rng, ctx))
    oa, ob = old_of(ctx, a), old_of(ctx, b)
    assert lab_triple(oa) == lab_triple(a)
    assert lab_triple(a.multiply(b)) == lab_triple(oa.multiply(ob))
    assert lab_triple(a.invert()) == lab_triple(oa.invert())
    other = CTXS[(CTXS.index(ctx) + 1) % len(CTXS)]
    assert outcome(a.multiply, AutLabeling.identity(other)) == outcome(
        oa.multiply, old_of(other, AutLabeling.identity(other))
    )
    unused = [m for m in ctx.aut_mappings if m not in a.labels_used()]
    for m in sorted(a.labels_used()) + unused[:1] + [(0,) * ctx.algebra.size]:
        assert tc_triple(a.fiber(m)) == tc_triple(oa.fiber(m))
    h = random_homeo(rng, ctx.points)
    assert lab_triple(a.pushforward(h)) == lab_triple(oa.pushforward(h))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_from_fibers_matches_oracle(seed):
    """A labeled partition of X° from the fibers of a labeling, with at
    most one defect: a fiber twice, a fiber left out, a label that is no
    automorphism, or one that moves a branch idempotent."""
    rng = random.Random(seed)
    ctx = rng.choice(CTXS)
    k = AutLabeling.make(ctx, *raw_labeling(rng, ctx))
    ok = old_of(ctx, k)
    fibers = [(k.fiber(m), m) for m in sorted(k.labels_used())]
    old_fibers = [(ok.fiber(m), m) for m in sorted(ok.labels_used())]
    pick = rng.randrange(len(fibers))
    defect = rng.choice(["none", "twice", "left-out", "label", "moves", "empty"])
    if defect == "twice":
        fibers.append(fibers[pick])
        old_fibers.append(old_fibers[pick])
    elif defect == "left-out":
        del fibers[pick], old_fibers[pick]
    elif defect == "label":
        bad = (0,) * ctx.algebra.size
        fibers[pick] = (fibers[pick][0], bad)
        old_fibers[pick] = (old_fibers[pick][0], bad)
    elif defect == "moves":
        moving = [m for m in ctx.aut_mappings if m[ctx.filters[0]] != ctx.filters[0]]
        if moving:
            fibers[pick] = (fibers[pick][0], moving[0])
            old_fibers[pick] = (old_fibers[pick][0], moving[0])
    elif defect == "empty":
        fibers, old_fibers = [], []
    got = outcome(lambda: lab_triple(AutLabeling.from_fibers(ctx, fibers)))
    assert got == outcome(lambda: lab_triple(OldAutLabeling.from_fibers(ctx, old_fibers)))
    if defect == "none":
        assert got == ("ok", lab_triple(k))


def test_pushforward_through_non_extendable_homeo():
    """The cross-branch involution moves tail cells between branches; a
    labeling whose tails fix both idempotents is carried like any other."""
    ctx = bp.make_context(GF4, (0, 0))
    h = cross_branch_involution(ctx.points)
    for seed in range(40):
        rng = random.Random(seed)
        k = AutLabeling.make(ctx, *raw_labeling(rng, ctx))
        assert lab_triple(k.pushforward(h)) == lab_triple(old_of(ctx, k).pushforward(h))
