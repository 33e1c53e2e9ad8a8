"""Differential test of ``AutLabeling.pushforward``, the push of a kernel
labeling's tail-labeled tree through a homeomorphism of X°, against the
code it replaced, kept here as the oracle: ``OldAutLabeling``, a tree of
automorphism indices plus tuple tails with its own canonical form, its
own raising and its own ``pushforward``, which finds the deepest branch
cell of the tabular words by a scan of its own.

Labelings tile region(threshold) with cells cut 0-2 levels deeper, often
with whole branch cells, or are those of ``rand.random_automorphism`` and
of composites of two; the contexts are gf4-idempotent-reduct with filters
(0,), (0, 1) and (1, 0, 1) and gf2-ring with filters (0,) and (0, 0, 0).
Homeomorphisms come from ``random_point_fixing_homeo``,
``random_block_preserving_homeo``, ``orbit_witness``, (on two points)
``cross_branch_involution``, which has no extension to X, and the
elementary moves ``tail_shift``, ``parity_swap`` and ``suffix_twist``, and
from their composites and inverses.  Both sides must return the same
normal form.

The clopen case of the same push, ``EPHomeo.apply``, is checked in
``test_prefix_transport_differential``, ``TailClopen`` and the other
``AutLabeling`` operations in ``test_tail_differential``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.autgroup import AutLabeling
from boolpow.cantor import (
    PointContext,
    _cell_labels,
    _words,
    _zip,
    build,
    graft,
    subtree,
    tail_cells,
)
from boolpow.homeo import EPHomeo, cross_branch_involution, orbit_witness
from boolpow.rand import (
    parity_swap,
    random_automorphism,
    random_block_preserving_homeo,
    random_good_tailclopen,
    random_point_fixing_homeo,
    suffix_twist,
    tail_shift,
)
from boolpow.seqs import EPSeq, common_threshold

# ---------------------------------------------------------------------------
# oracle: the kernel labeling with its own canonical form and pushforward


@dataclass(frozen=True)
class OldAutLabeling:
    ctx: object
    threshold: int
    tree: object
    tail_ids: tuple

    @staticmethod
    def make(ctx, threshold, exc_cells, tails):
        ids = ctx.aut_ids
        tree = build([(w, ids[m]) for w, m in exc_cells], ctx.points.region(threshold)._t)
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


def _ident(size):
    return tuple(range(size))


def lab_triple(k):
    return k.threshold, k.exc_cells, k.tails


def old_of(ctx, k):
    """The oracle labeling with the same normal form as k."""
    return OldAutLabeling.make(ctx, k.threshold, k.exc_cells, k.tails)


def assert_pushed_alike(ctx, k, h):
    assert lab_triple(k.pushforward(h)) == lab_triple(old_of(ctx, k).pushforward(h))


# ---------------------------------------------------------------------------
# inputs

# the tables of suffix_twist: the halves swapped, and a three-cell exchange
TWISTS = [
    EPHomeo.make(PointContext(0), [("0", "1"), ("1", "0")], ()),
    EPHomeo.make(PointContext(0), [("00", "1"), ("01", "01"), ("1", "00")], ()),
]


def random_homeo(rng, ctx):
    """A homeomorphism of X° from one of the generators or elementary
    moves, a composite of two, or an inverse."""

    def one():
        kind = rng.choice(
            ["point-fixing", "block", "witness", "cross", "tail-shift", "parity-swap", "suffix-twist"]
        )
        if kind == "point-fixing":
            return random_point_fixing_homeo(ctx, rng, rng.randint(1, 3))
        if kind == "block":
            return random_block_preserving_homeo(ctx, rng, rng.randint(1, 3))
        if kind == "cross" and ctx.n == 2:
            return cross_branch_involution(ctx)
        if kind == "tail-shift":
            return tail_shift(ctx, rng.randint(1, ctx.n), rng.randint(1, 2))
        if kind == "parity-swap":
            return parity_swap(ctx, rng.randint(1, ctx.n))
        if kind == "suffix-twist":
            return suffix_twist(ctx, rng.randint(1, ctx.n), rng.choice(TWISTS))
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
    bp.make_context(GF2, (0,)),
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


def random_labeling_of(rng, ctx):
    """A drawn labeling, or that of a random automorphism or of the
    composite of two (for deeper thresholds)."""
    kind = rng.choice(["drawn", "automorphism", "composite"])
    if kind == "drawn":
        return AutLabeling.make(ctx, *raw_labeling(rng, ctx))
    x = random_automorphism(ctx, rng, rng.randint(0, 3))
    if kind == "composite":
        x = x.compose(random_automorphism(ctx, rng, rng.randint(0, 3)))
    return x.labeling


# ---------------------------------------------------------------------------
# the pushforward


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pushforward_matches_oracle(seed):
    rng = random.Random(seed)
    ctx = rng.choice(CTXS)
    assert_pushed_alike(ctx, random_labeling_of(rng, ctx), random_homeo(rng, ctx.points))


def test_pushforward_matches_oracle_on_a_seeded_pool():
    """Every labeling of a small seeded pool of automorphisms through every
    homeomorphism of the pool and its inverse."""
    for ctx in CTXS:
        pool = [random_automorphism(ctx, random.Random(seed), seed % 4) for seed in range(6)]
        hs = [p.homeo for p in pool] + [p.homeo.inverse() for p in pool]
        for p in pool:
            for h in hs:
                assert_pushed_alike(ctx, p.labeling, h)


def test_pushforward_through_non_extendable_homeo():
    """The cross-branch involution moves tail cells between branches; a
    labeling whose tails fix both idempotents is carried like any other."""
    ctx = bp.make_context(GF4, (0, 0))
    h = cross_branch_involution(ctx.points)
    for seed in range(40):
        rng = random.Random(seed)
        k = AutLabeling.make(ctx, *raw_labeling(rng, ctx))
        assert_pushed_alike(ctx, k, h)
