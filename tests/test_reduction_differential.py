"""Differential tests of ``power.reduce_idempotents`` against a frozen copy
of the reduction it replaced: one duplicate point at a time, twisted by an
automorphism onto its representative's idempotent, moved to the last
position and merged into the representative by interleaving the two
branches, the steps chained one after the other.

The oracle's steps are written cell by cell (``old_twist`` restricts each
cell to the block and its outside, ``old_swap`` refines each word until it
lies in one block, ``old_merge_last`` restricts the element to one cell at
a time), and its duplicate search is the one the reduction still runs.
The live reduction is a different isomorphism once an orbit holds three
points or more, so it is checked against the oracle's reduced context and
for the properties of an isomorphism: both round trips, injectivity, every
operation of positive arity preserved pointwise, and the filter values at
the retained points.  Where the oracle only merges the last point into an
earlier one with an equal filter (two equal filters, say), the images must
be the oracle's: that merge is the two-point case of the live map.

Cases: up to six points on the three builtins with two idempotents and on
two JSON-built 3-element algebras, the max-chain (three orbits, no
automorphism but the identity) and the left projection (every permutation
is an automorphism, so the twists are not trivial), enumerated at each
depth from 1 to 3 that has between 1 and 3,000 elements.
"""

import json
from itertools import product

import pytest

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.cantor import Clopen, PointContext


def _json_algebra(name, fn):
    table = [fn(x, y) for x, y in product(range(3), repeat=2)]
    ops = [{"name": name, "arity": 2, "table": table}]
    return alg.from_json(json.dumps({"carrier": 3, "ops": ops}))


ALGEBRAS = {
    "gf2-ring": alg.gf2_ring(),
    "gf2-idempotent-reduct": alg.gf2_idempotent_reduct(),
    "gf4-idempotent-reduct": alg.gf4_idempotent_reduct(),
    "max-chain-3": _json_algebra("max", max),
    "left-projection-3": _json_algebra("left", lambda x, y: x),
}

MAX_ELEMENTS = 3000

# ---------------------------------------------------------------------------
# the oracle: the chained twist, swap and merge


class OldAut:
    """An automorphism as the oracle calls it: by value, with its tuple
    and its inverse."""

    def __init__(self, mapping):
        self.mapping = mapping

    def __call__(self, a):
        return self.mapping[a]

    def inverse(self):
        return OldAut(alg._inv(self.mapping))


def old_twist(ctx, j, alpha):
    m = ctx.points.n
    block = Clopen.make(["1" * (j - 1) + ("0" if j < m else "")])
    new_filters = list(ctx.filters)
    new_filters[j - 1] = alpha(ctx.filters[j - 1])
    dst = bp.PowerContext(ctx.algebra, ctx.points, tuple(new_filters))

    def apply_block(f, a_map, target):
        cells = []
        for w, a in f.cells:
            cell = Clopen.make([w])
            cells += [(u, a_map(a)) for u in cell.intersect(block).words]
            cells += [(u, a) for u in cell.difference(block).words]
        return bp.PowerElement.make(target, cells)

    return (
        dst,
        lambda f: apply_block(f, alpha, dst),
        lambda g: apply_block(g, alpha.inverse(), ctx),
    )


def old_swap(ctx, j):
    m = ctx.points.n
    pj, pm = "1" * (j - 1) + "0", "1" * (m - 1)
    new_filters = list(ctx.filters)
    new_filters[j - 1], new_filters[m - 1] = new_filters[m - 1], new_filters[j - 1]
    dst = bp.PowerContext(ctx.algebra, ctx.points, tuple(new_filters))
    if j == m:
        return dst, lambda f: f, lambda g: g

    def swap_word(w):
        if w.startswith(pj):
            return [pm + w[len(pj):]]
        if w.startswith(pm):
            return [pj + w[len(pm):]]
        if pj.startswith(w) or pm.startswith(w):
            return [u for c in "01" for u in swap_word(w + c)]
        return [w]

    def act(f, target):
        cells = []
        for w, a in f.cells:
            cells += [(u, a) for u in swap_word(w)]
        return bp.PowerElement.make(target, cells)

    return dst, lambda f: act(f, dst), lambda g: act(g, ctx)


def old_merge_last(ctx, i):
    m = ctx.points.n
    e = ctx.filters[i - 1]
    dst = bp.PowerContext(ctx.algebra, PointContext(m - 1), ctx.filters[:-1])
    src_pts, dst_pts = ctx.points, dst.points
    prei = "1" * (i - 1)

    def cellwords(f):
        return [w for w, _ in f.cells]

    def depth(f, pts, k):
        w = next(w for w in cellwords(f) if pts.point(k).startswith(w))
        return len(w) - (k - 1)

    def fwd(f):
        ai, am = depth(f, src_pts, i), depth(f, src_pts, m)
        J = max(2 * ai, 2 * am - 1, 1)
        cells = [(prei + "0" * J, e)]
        for l in range(1, J):
            if l % 2 == 0:
                srcw = src_pts.cellword(i, l // 2)
            else:
                srcw = src_pts.cellword(m, (l + 1) // 2)
            dstw = dst_pts.cellword(i, l)
            part = f.restrict(Clopen.make([srcw]))
            cells += [(dstw + w[len(srcw):], a) for w, a in part.cells]
        for k in range(1, m):
            if k == i:
                continue
            part = f.restrict(Clopen.make(["1" * (k - 1) + "0"]))
            cells += list(part.cells)
        off = f.restrict(Clopen.make(["1" * m]))
        cells += [("1" * (m - 1) + w[m:], a) for w, a in off.cells]
        return bp.PowerElement.make(dst, cells)

    def bwd(g):
        a = depth(g, dst_pts, i)
        Ki = (a + 1) // 2
        Km = (a + 2) // 2
        cells = [
            (prei + "0" * max(Ki, 1), e),
            ("1" * (m - 1) + "0" * max(Km, 1), e),
        ]
        for j in range(1, max(Ki, 1)):
            srcw = src_pts.cellword(i, j)
            dstw = dst_pts.cellword(i, 2 * j)
            part = g.restrict(Clopen.make([dstw]))
            cells += [(srcw + w[len(dstw):], aa) for w, aa in part.cells]
        for j in range(1, max(Km, 1)):
            srcw = src_pts.cellword(m, j)
            dstw = dst_pts.cellword(i, 2 * j - 1)
            part = g.restrict(Clopen.make([dstw]))
            cells += [(srcw + w[len(dstw):], aa) for w, aa in part.cells]
        for k in range(1, m):
            if k == i:
                continue
            part = g.restrict(Clopen.make(["1" * (k - 1) + "0"]))
            cells += list(part.cells)
        offg = g.restrict(Clopen.make(["1" * (m - 1)]))
        cells += [("1" * m + w[m - 1:], aa) for w, aa in offg.cells]
        return bp.PowerElement.make(ctx, cells)

    return dst, fwd, bwd


def old_reduce(ctx):
    """(reduced context, forward, backward, the (i, j, m, automorphism)
    of each step: x_j twisted, swapped with the last point x_m and merged
    into x_i)."""
    auts = [OldAut(m) for m in alg.automorphisms(ctx.algebra)]
    steps, found = [], []
    cur = ctx
    while True:
        dup = None
        for j in range(2, cur.points.n + 1):
            for i in range(1, j):
                for a in auts:
                    if a(cur.filters[j - 1]) == cur.filters[i - 1]:
                        dup = (i, j, a)
                        break
                if dup:
                    break
            if dup:
                break
        if not dup:
            break
        i, j, a = dup
        found.append((i, j, cur.points.n, a.mapping))
        for make_step in (
            lambda c: old_twist(c, j, a),
            lambda c: old_swap(c, j),
            lambda c: old_merge_last(c, i),
        ):
            cur, fwd, bwd = make_step(cur)
            steps.append((fwd, bwd))

    def forward(f):
        for fwd, _ in steps:
            f = fwd(f)
        return f

    def backward(g):
        for _, bwd in reversed(steps):
            g = bwd(g)
        return g

    return cur, forward, backward, found


# ---------------------------------------------------------------------------
# cases


def _filter_tuples(name, max_len):
    idems = sorted(alg.idempotents(ALGEBRAS[name]))
    for n in range(1, max_len + 1):
        yield from product(idems, repeat=n)


# element-level cases: every tuple up to three points, and longer ones with
# repeated orbits (one orbit, orbits interleaved, a late duplicate), read
# modulo the number of idempotents
PATTERNS = [
    (0, 0, 0, 0),
    (0, 1, 0, 1),
    (0, 1, 2, 0),
    (1, 0, 0, 1, 0),
    (2, 1, 0, 1, 2),
    (2, 2, 2, 2, 2),
    (0, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 1, 0),
    (0, 0, 1, 2, 1, 0),
]


def _element_cases(name):
    idems = sorted(alg.idempotents(ALGEBRAS[name]))
    long = [tuple(idems[p % len(idems)] for p in pat) for pat in PATTERNS]
    return list(_filter_tuples(name, 3)) + sorted(set(long), key=long.index)


ELEMENT_CASES = [
    pytest.param(name, f, id=f"{name}-{''.join(map(str, f))}")
    for name in ALGEBRAS
    for f in _element_cases(name)
]


def _depths(ctx):
    """Each depth from 1 to 3 with between 1 and MAX_ELEMENTS elements."""
    return [d for d in (1, 2, 3) if 0 < bp.element_count(ctx, d) <= MAX_ELEMENTS]


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_reduced_context_matches_oracle(name):
    a = ALGEBRAS[name]
    for filters in _filter_tuples(name, 5 if a.size == 2 else 4):
        ctx = bp.make_context(a, filters)
        red, _ = bp.reduce_idempotents(ctx)
        assert red == old_reduce(ctx)[0], filters


def test_max_chain_reduction_keeps_the_swap_order():
    ctx = bp.make_context(ALGEBRAS["max-chain-3"], (0, 0, 1, 2))
    assert bp.reduce_idempotents(ctx)[0].filters == (0, 2, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_equal_filters_image_words_grow_by_one_letter(n):
    # the chained merges of the earlier reduction reached 2^(n-1) + 1
    ctx = bp.make_context(ALGEBRAS["gf2-ring"], (0,) * n)
    _, iso = bp.reduce_idempotents(ctx)
    images = [iso.forward(f) for f in bp.enumerate_elements(ctx, 2)]
    longest = max(len(w) for g in images for w, _ in g.cells)
    assert longest == bp.check_reduction_budget(ctx, 2) == max(n + 1, 2)


def _operation_args(elems, arity):
    """len(elems) argument tuples that run through every element in each
    position, each shifted by a different stride."""
    n = len(elems)
    return [
        [elems[(k * (1 + 2 * pos) + pos) % n] for pos in range(arity)]
        for k in range(n)
    ]


@pytest.mark.parametrize("name,filters", ELEMENT_CASES)
def test_reduction_is_an_isomorphism(name, filters):
    ctx = bp.make_context(ALGEBRAS[name], filters)
    red, iso = bp.reduce_idempotents(ctx)
    assert iso.src == ctx and iso.dst == red
    for depth in _depths(ctx):
        elems = bp.enumerate_elements(ctx, depth)
        images = [iso.forward(f) for f in elems]
        assert len(set(images)) == len(elems)
        longest = bp.check_reduction_budget(ctx, depth)
        for f, g in zip(elems, images):
            assert g.ctx == red
            assert iso.backward(g) == f
            assert max(len(w) for w, _ in g.cells) <= longest
            for t, x in enumerate(red.points.points()):
                assert g.value_at(x) == red.filters[t]
        for g in bp.enumerate_elements(red, depth):
            assert iso.forward(iso.backward(g)) == g
        image_of = dict(zip(elems, images))
        for op, arity in ctx.algebra.signature:
            if arity == 0:
                continue
            for args in _operation_args(elems, arity):
                lhs = image_of[bp.apply_operation(op, args)]
                rhs = bp.apply_operation(op, [image_of[f] for f in args])
                assert lhs == rhs, (op, depth)


def _only_last_merged(name, filters):
    """Whether each step of the oracle merges the last point, untwisted,
    into a point that nothing else is merged into."""
    a = ALGEBRAS[name]
    found = old_reduce(bp.make_context(a, filters))[3]
    ident = tuple(range(a.size))
    return (
        len(found) > 0
        and all(j == m and mapping == ident for _, j, m, mapping in found)
        and len({i for i, _, _, _ in found}) == len(found)
    )


@pytest.mark.parametrize(
    "name,filters",
    [c for c in ELEMENT_CASES if _only_last_merged(*c.values)],
)
def test_images_match_oracle_for_two_equal_filters(name, filters):
    ctx = bp.make_context(ALGEBRAS[name], filters)
    red, old_fwd, old_bwd, _ = old_reduce(ctx)
    _, iso = bp.reduce_idempotents(ctx)
    for depth in _depths(ctx):
        for f in bp.enumerate_elements(ctx, depth):
            assert iso.forward(f) == old_fwd(f)
        for g in bp.enumerate_elements(red, depth):
            assert iso.backward(g) == old_bwd(g)
