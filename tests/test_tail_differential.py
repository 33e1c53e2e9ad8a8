"""Differential tests of the one eventually-periodic normal form
(``seqs.EPSeq`` and the shared minimal-threshold rule) against the four
encodings it replaced, kept here as oracles: the packed-int ``EPSet``,
the string tails of ``TailClopen``, the tuple tails of ``AutLabeling``
and the pre/per strings of the points of X.

The clopen and labeling oracles work cell by cell, on ``Clopen`` values
and dicts of cell words, and share no code with the tail-labeled tree
behind ``TailClopen`` and ``AutLabeling``.  They are the one frozen check
of ``TailClopen``'s make, raising, Boolean operations, emptiness and point
membership, and of ``AutLabeling``'s make, multiply, invert and
from_fibers, refusals included: both sides must return the same normal
form or raise the same exception type with the same message.  Clopens of
X° are drawn on one to three points; labelings on gf4-idempotent-reduct
with filters (0,), (0, 1), (0, 1, 0) and (1, 0, 1) and on gf2-ring with
filters (0, 0, 0), cut from region(threshold) or taken from ``rand``."""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.autgroup import AutLabeling
from boolpow.cantor import Clopen, PointContext, TailClopen, point_in
from boolpow.errors import ContextMismatch, TailLabelViolation
from boolpow.homeo import witness_points
from boolpow.rand import random_automorphism, random_labeling
from boolpow.seqs import EPSeq, EPSet

# ---------------------------------------------------------------------------
# oracle: eventually periodic sets as packed ints


def _tile(bits, width, length):
    if length <= 0:
        return 0
    out, have = bits, width
    while have < length:
        out |= out << have
        have *= 2
    return out & ((1 << length) - 1)


def _rotate_right(bits, width, k):
    k %= width
    if k == 0:
        return bits
    mask = (1 << width) - 1
    return ((bits << k) | (bits >> (width - k))) & mask


def _primitive_width(bits, width):
    for d in range(1, width):
        if width % d == 0 and _tile(bits & ((1 << d) - 1), d, width) == bits:
            return d
    return width


def _bit_positions(bits):
    return [i for i in range(bits.bit_length()) if (bits >> i) & 1]


@dataclass(frozen=True)
class OracleEPSet:
    hlen: int
    hbits: int
    wlen: int
    wbits: int

    @staticmethod
    def _canon(hlen, hbits, wlen, wbits):
        d = _primitive_width(wbits, wlen)
        if d < wlen:
            wlen, wbits = d, wbits & ((1 << d) - 1)
        k = 0
        while hlen and (hbits >> (hlen - 1)) & 1 == (
            wbits >> ((wlen - 1 - k) % wlen)
        ) & 1:
            hlen -= 1
            hbits &= (1 << hlen) - 1
            k += 1
        return OracleEPSet(hlen, hbits, wlen, _rotate_right(wbits, wlen, k))

    @staticmethod
    def make(head, word):
        hbits = sum(1 << i for i, b in enumerate(head) if b)
        wbits = sum(1 << i for i, b in enumerate(word) if b)
        return OracleEPSet._canon(len(head), hbits, len(word), wbits)

    @property
    def head(self):
        return tuple(bool((self.hbits >> i) & 1) for i in range(self.hlen))

    @property
    def word(self):
        return tuple(bool((self.wbits >> i) & 1) for i in range(self.wlen))

    def bit(self, j):
        if j <= self.hlen:
            return bool((self.hbits >> (j - 1)) & 1)
        return bool((self.wbits >> ((j - self.hlen - 1) % self.wlen)) & 1)

    def _expand(self, t, L):
        fill = t - self.hlen
        hb = self.hbits | (_tile(self.wbits, self.wlen, fill) << self.hlen)
        rot = _rotate_right(self.wbits, self.wlen, (-fill) % self.wlen)
        return hb & ((1 << t) - 1), _tile(rot, self.wlen, L)

    def _binop(self, other, fn):
        t = max(self.hlen, other.hlen)
        L = lcm(self.wlen, other.wlen)
        h1, w1 = self._expand(t, L)
        h2, w2 = other._expand(t, L)
        return OracleEPSet._canon(
            t, fn(h1, h2) & ((1 << t) - 1), L, fn(w1, w2) & ((1 << L) - 1)
        )

    def union(self, other):
        return self._binop(other, lambda a, b: a | b)

    def intersect(self, other):
        return self._binop(other, lambda a, b: a & b)

    def difference(self, other):
        return self._binop(other, lambda a, b: a & ~b)

    def complement(self):
        return OracleEPSet._canon(
            self.hlen,
            ~self.hbits & ((1 << self.hlen) - 1),
            self.wlen,
            ~self.wbits & ((1 << self.wlen) - 1),
        )

    def finite_part(self):
        return [i + 1 for i in _bit_positions(self.hbits)]

    def periodic_aps(self):
        return [(self.hlen + 1 + i, self.wlen) for i in _bit_positions(self.wbits)]

    def kth_one(self, k):
        hones = self.hbits.bit_count()
        if k < hones:
            return self.finite_part()[k]
        k -= hones
        per = _bit_positions(self.wbits)
        m = len(per)
        return self.hlen + 1 + (k // m) * self.wlen + per[k % m]


# ---------------------------------------------------------------------------
# oracle: points as pre/per strings with their own loops


def oracle_point(pre, per):
    n = len(per)
    for d in range(1, n):
        if n % d == 0 and per == (per[:d] * (n // d)):
            per = per[:d]
            break
    while pre and pre[-1] == per[-1]:
        per = per[-1] + per[:-1]
        pre = pre[:-1]
    return pre, per


# ---------------------------------------------------------------------------
# oracle: clopens of X° with string tails and the cell-by-cell pullback


def _primitive(w):
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d]
    return w


def oracle_tc_make(ctx, threshold, exc, tails):
    """(threshold, exceptional, tails) in canonical form."""
    tails = tuple(tails)
    if len(tails) != ctx.n:
        raise ValueError("one tail word per branch")
    for w in tails:
        if not w or any(c not in "01" for c in w):
            raise ValueError(f"bad tail word {w!r}")
    if not exc.is_subset(ctx.region(threshold)):
        raise ValueError("exceptional part leaks into a branch tail")
    tails = tuple(_primitive(w) for w in tails)
    d = threshold
    while d > 0:
        ok = True
        for i in range(1, ctx.n + 1):
            cell = ctx.cell(i, d)
            part = exc.intersect(cell)
            whole = part == cell
            if not (whole or part.is_empty()):
                ok = False
                break
            if ("1" if whole else "0") != tails[i - 1][-1]:
                ok = False
                break
        if not ok:
            break
        for i in range(1, ctx.n + 1):
            exc = exc.difference(ctx.cell(i, d))
        tails = tuple(w[-1] + w[:-1] for w in tails)
        d -= 1
    return d, exc, tuple(_primitive(w) for w in tails)


def oracle_tc_raised(ctx, c, d):
    threshold, exc, tails = c
    for j in range(threshold + 1, d + 1):
        for i in range(1, ctx.n + 1):
            w = tails[i - 1]
            if w[(j - threshold - 1) % len(w)] == "1":
                exc = exc.union(ctx.cell(i, j))
    sh = d - threshold
    return d, exc, tuple(w[sh % len(w):] + w[: sh % len(w)] for w in tails)


def oracle_tc_binop(ctx, c1, c2, excfn, bitfn):
    d = max(c1[0], c2[0])
    _, e1, t1 = oracle_tc_raised(ctx, c1, d)
    _, e2, t2 = oracle_tc_raised(ctx, c2, d)
    tails = []
    for w1, w2 in zip(t1, t2):
        L = lcm(len(w1), len(w2))
        a, b = w1 * (L // len(w1)), w2 * (L // len(w2))
        tails.append("".join(bitfn(x, y) for x, y in zip(a, b)))
    return oracle_tc_make(ctx, d, excfn(e1, e2), tails)


def oracle_tc_complement(ctx, c):
    threshold, exc, tails = c
    flipped = tuple(w.translate(str.maketrans("01", "10")) for w in tails)
    return oracle_tc_make(ctx, threshold, ctx.region(threshold).difference(exc), flipped)


def oracle_tc_is_empty(c):
    _, exc, tails = c
    return exc.is_empty() and all(set(w) == {"0"} for w in tails)


def oracle_tc_contains(ctx, c, x):
    threshold, exc, tails = c
    loc = ctx.locate(x)
    if loc[0] == "point":
        return False
    if loc[0] == "cell":
        _, i, j, _ = loc
        if j > threshold:
            w = tails[i - 1]
            return w[(j - threshold - 1) % len(w)] == "1"
    return point_in(x, exc)


def as_triple(c: TailClopen):
    return c.threshold, c.exceptional, c.tails


# ---------------------------------------------------------------------------
# oracle: kernel labelings with tuple tails and the cell-by-cell pullback


def oracle_merge_labels(cells):
    cur = dict(cells)
    while True:
        for w, a in sorted(cur.items()):
            if w.endswith("0") and cur.get(w[:-1] + "1") == a:
                del cur[w], cur[w[:-1] + "1"]
                cur[w[:-1]] = a
                break
        else:
            return tuple(sorted(cur.items()))


def _whole_cell_label(cells, cw):
    labels = set()
    covered = Clopen.empty()
    for w, m in cells.items():
        if w.startswith(cw):
            labels.add(m)
            covered = covered.union(Clopen.make([w]))
        elif cw.startswith(w):
            return m
    if len(labels) == 1 and covered == Clopen.make([cw]):
        return labels.pop()
    return None


def _overlap(words):
    ws = sorted(words)
    return any(b.startswith(a) for a, b in zip(ws, ws[1:]))


def oracle_lab_make(ctx, threshold, exc_cells, tails):
    """(threshold, exc_cells, tails) in canonical form."""
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
                raise TailLabelViolation(f"tail label on branch {i} moves the idempotent {e}")
    words = [w for w, _ in exc_cells]
    if _overlap(words):
        raise ValueError("overlapping label cells")
    if Clopen.make(words) != pts.region(threshold):
        raise ValueError("label cells do not tile the exceptional region")
    tails = tuple(_primitive(tuple(t)) for t in tails)
    d = threshold
    cells = dict(exc_cells)
    while d > 0:
        cws = [pts.cellword(i, d) for i in range(1, pts.n + 1)]
        labels = [_whole_cell_label(cells, cw) for cw in cws]
        if any(m is None or m != t[-1] for m, t in zip(labels, tails)):
            break
        for cw in cws:
            for w in [w for w in cells if w.startswith(cw)]:
                del cells[w]
        tails = tuple(_primitive((t[-1],) + t[:-1]) for t in tails)
        d -= 1
    return d, oracle_merge_labels(cells), tails


def _comp(m1, m2):
    return tuple(m1[m2[a]] for a in range(len(m1)))


def oracle_lab_raised(ctx, k, d):
    threshold, cells, tails = k
    pts = ctx.points
    cells = list(cells)
    for j in range(threshold + 1, d + 1):
        for i in range(1, pts.n + 1):
            t = tails[i - 1]
            cells.append((pts.cellword(i, j), t[(j - threshold - 1) % len(t)]))
    sh = d - threshold
    return d, cells, tuple(t[sh % len(t):] + t[: sh % len(t)] for t in tails)


def oracle_lab_multiply(ctx, k1, k2):
    d = max(k1[0], k2[0])
    _, c1, t1 = oracle_lab_raised(ctx, k1, d)
    _, c2, t2 = oracle_lab_raised(ctx, k2, d)
    cells = []
    for w1, m1 in c1:
        for w2, m2 in c2:
            if w2.startswith(w1):
                cells.append((w2, _comp(m1, m2)))
            elif w1.startswith(w2) and w1 != w2:
                cells.append((w1, _comp(m1, m2)))
    tails = []
    for a, b in zip(t1, t2):
        L = lcm(len(a), len(b))
        tails.append(tuple(_comp(a[o % len(a)], b[o % len(b)]) for o in range(L)))
    return oracle_lab_make(ctx, d, cells, tails)


def _inv(m):
    out = [0] * len(m)
    for a, b in enumerate(m):
        out[b] = a
    return tuple(out)


def oracle_lab_invert(ctx, k):
    threshold, cells, tails = k
    return oracle_lab_make(
        ctx, threshold, [(w, _inv(m)) for w, m in cells], [tuple(map(_inv, t)) for t in tails]
    )


def oracle_lab_from_fibers(ctx, fibers):
    pts = ctx.points
    d = max([c[0] for c, _ in fibers] + [0])
    raised = [(oracle_tc_raised(pts, c, d), m) for c, m in fibers]
    exc_cells = []
    for (_, exc, _), m in raised:
        exc_cells += [(w, m) for w in exc.words]
    tails = []
    for i in range(pts.n):
        L = lcm(*[len(c[2][i]) for c, _ in raised])
        word = []
        for o in range(L):
            hits = [m for c, m in raised if c[2][i][o % len(c[2][i])] == "1"]
            if len(hits) != 1:
                raise ValueError("fibers do not partition a branch tail")
            word.append(hits[0])
        tails.append(tuple(word))
    return oracle_lab_make(ctx, d, exc_cells, tails)


def lab_triple(k: AutLabeling):
    return k.threshold, k.exc_cells, k.tails


# ---------------------------------------------------------------------------
# strategies: thresholds 0-4, words of length 1-6 that are often powers of
# a shorter word, exceptional parts and labelings cut from region(d)

PCTXS = [PointContext(1), PointContext(2), PointContext(3)]
GF4 = alg.gf4_idempotent_reduct()
LAB_CTXS = [
    bp.make_context(GF4, (0,)),
    bp.make_context(GF4, (0, 1)),
    bp.make_context(GF4, (0, 1, 0)),
    bp.make_context(GF4, (1, 0, 1)),
    bp.make_context(alg.gf2_ring(), (0, 0, 0)),
]


def words(alphabet, max_len=6):
    plain = st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_len)
    powers = (
        st.tuples(
            st.lists(st.sampled_from(alphabet), min_size=1, max_size=3),
            st.integers(2, 6),
        )
        .filter(lambda t: len(t[0]) * t[1] <= max_len)
        .map(lambda t: t[0] * t[1])
    )
    return st.one_of(plain, powers)


bit_words = words([False, True])
char_words = words(["0", "1"]).map("".join)


@st.composite
def region_cells(draw, pts, threshold):
    """A tiling of region(threshold) by cells 0-2 levels below its words,
    with each branch cell (i, j <= threshold) whole half of the time."""
    cells = []
    for w in pts.region(threshold).words:
        k = draw(st.sampled_from([0, 0, 1, 2]))
        stack = [(w, k)]
        while stack:
            u, k = stack.pop()
            if k == 0:
                cells.append(u)
            else:
                stack += [(u + "0", k - 1), (u + "1", k - 1)]
    for i in range(1, pts.n + 1):
        for j in range(1, threshold + 1):
            cw = pts.cellword(i, j)
            if draw(st.booleans()):  # whole cell, as canonicalization folds
                cells = [u for u in cells if not u.startswith(cw)] + [cw]
    return sorted(set(cells))


@st.composite
def tail_clopens(draw, pts):
    threshold = draw(st.integers(0, 4))
    cells = draw(region_cells(pts, threshold))
    chosen = [w for w in cells if draw(st.booleans())]
    tails = tuple(draw(char_words) for _ in range(pts.n))
    return threshold, Clopen.make(chosen), tails


@st.composite
def tail_clopen_inputs(draw):
    """(ctx, threshold, exceptional, tails) with at most one defect: a
    tail word too many or too few, a bad or empty tail word, or an
    exceptional part leaking into a branch tail."""
    pts = draw(st.sampled_from(PCTXS))
    d, exc, tails = draw(tail_clopens(pts))
    defect = draw(st.sampled_from(["none", "branches", "char", "empty", "leak"]))
    if defect == "branches":
        tails = tails + ("1",) if draw(st.booleans()) else tails[:-1]
    elif defect == "char":
        tails = ("0a",) + tails[1:]
    elif defect == "empty":
        tails = tails[:-1] + ("",)
    elif defect == "leak":
        i = draw(st.integers(1, pts.n))
        exc = exc.union(Clopen.make([pts.nbhd_word(i, d + 1) + "1"]))
    return pts, d, exc, tails


@st.composite
def labelings(draw, ctx):
    auts = sorted(ctx.aut_mappings)
    threshold = draw(st.integers(0, 4))
    cells = draw(region_cells(ctx.points, threshold))
    pool = draw(st.sampled_from([auts[:1], auts]))
    exc_cells = [(w, draw(st.sampled_from(pool))) for w in cells]
    tails = []
    for e in ctx.filters:
        stab = [m for m in auts if m[e] == e]  # the tail labels of the branch
        t = draw(words(stab if len(pool) > 1 else stab[:1]))
        tails.append(tuple(t))
    return threshold, exc_cells, tuple(tails)


@st.composite
def rand_labelings(draw, ctx):
    """A rand labeling, or its product with an automorphism's (thresholds
    up to 3)."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    k = random_labeling(ctx, rng)
    if draw(st.booleans()):
        k = k.multiply(random_automorphism(ctx, rng, draw(st.integers(0, 2))).labeling)
    return k


@st.composite
def made_labelings(draw, ctx):
    if draw(st.booleans()):
        return draw(rand_labelings(ctx))
    return AutLabeling.make(ctx, *draw(labelings(ctx)))


@st.composite
def labeling_inputs(draw):
    """(ctx, threshold, cells, tails) with at most one defect: a drawn
    labeling, or a rand labeling raised by 0-2 levels with its cells cut
    0-1 levels further, all in a drawn order."""
    ctx = draw(st.sampled_from(LAB_CTXS))
    if draw(st.booleans()):
        d, cells, tails = draw(labelings(ctx))
    else:
        k = draw(rand_labelings(ctx))
        d, cells, tails = oracle_lab_raised(ctx, lab_triple(k), k.threshold + draw(st.integers(0, 2)))
        cells = [
            c
            for w, m in cells
            for c in ([(w, m)] if draw(st.booleans()) else [(w + "0", m), (w + "1", m)])
        ]
    size = ctx.algebra.size
    defect = draw(
        st.sampled_from(
            ["none", "overlap", "gap", "char", "label", "tail-label", "tail", "branches", "empty", "threshold"]
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
        cells[pick] = (w, (0,) * size)
    elif defect == "tail-label":
        tails = (((0,) * size,) + tuple(tails[0]),) + tuple(tails[1:])
    elif defect == "tail":
        # swapping 0 and 1 is no automorphism of gf4-idempotent-reduct or gf2-ring
        tails = ((tuple(range(size)), (1, 0) + tuple(range(2, size))),) + tuple(tails[1:])
    elif defect == "branches":
        tails = tuple(tails) + ((tuple(range(size)),),)
    elif defect == "empty":
        tails = ((),) + tuple(tails[1:])
    elif defect == "threshold":
        d = max(0, d - 1) if draw(st.booleans()) else d + 1
    order = draw(st.permutations(range(len(cells))))
    return ctx, d, [cells[i] for i in order], tails


def outcome(fn, *args):
    """The value of fn(*args), or the type and message it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception itself is what is compared
        return (type(exc), str(exc))


# ---------------------------------------------------------------------------
# the tests


def agree_epset(s: EPSet, o: OracleEPSet):
    assert s.head == o.head and s.word == o.word
    assert all(s.at(j) == o.bit(j) for j in range(1, 16))
    assert s.finite_part() == o.finite_part()
    assert s.periodic_aps() == o.periodic_aps()
    if any(o.word):
        assert [s.kth_one(k) for k in range(6)] == [o.kth_one(k) for k in range(6)]


epset_args = st.tuples(st.lists(st.booleans(), max_size=4), bit_words)


@given(epset_args, epset_args)
def test_epset_matches_packed_oracle(a, b):
    s, t = EPSet.make(*a), EPSet.make(*b)
    o, p = OracleEPSet.make(*a), OracleEPSet.make(*b)
    agree_epset(s, o)
    agree_epset(s.union(t), o.union(p))
    agree_epset(s.intersect(t), o.intersect(p))
    agree_epset(s.difference(t), o.difference(p))
    agree_epset(s.complement(), o.complement())
    assert (s == t) == (o == p)


def oracle_from_ap(first, step):
    h = max(0, first - step)
    return OracleEPSet(h, 0, step, 1 << ((first - h - 1) % step))


def oracle_singleton(j):
    return OracleEPSet(j, 1 << (j - 1), 1, 0)


aps = st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6)), max_size=4)


@given(aps, st.lists(st.integers(1, 12), max_size=3))
def test_from_aps_matches_oracle_unions(progressions, singles):
    o = OracleEPSet.make((), (False,))
    for f, s in progressions:
        o = o.union(oracle_from_ap(f, s))
    for j in singles:
        o = o.union(oracle_singleton(j))
    agree_epset(EPSet.from_aps(progressions, singles), o)


@given(epset_args, st.integers(1, 9), st.integers(1, 6))
def test_on_ap_matches_oracle_intersection(a, first, step):
    ones, progressions = EPSet.make(*a).on_ap(first, step)
    want = OracleEPSet.make(*a).intersect(oracle_from_ap(first, step))
    hits = ones + [f + k * s for f, s in progressions for k in range(60)]
    assert len(hits) == len(set(hits))  # disjoint pieces
    top = min([f + 59 * s for f, s in progressions], default=200)
    assert sorted(j for j in hits if j <= top) == [
        j for j in range(1, top + 1) if want.bit(j)
    ]


@given(epset_args, st.integers(0, 8))
def test_epseq_shift_and_zip(a, k):
    s = EPSeq.make(*a)
    assert all(s.shift(k).at(j) == s.at(j + k) for j in range(1, 16))
    pairs = s.zip_with(lambda x, y: (x, y), s.shift(k))
    assert all(pairs.at(j) == (s.at(j), s.at(j + k)) for j in range(1, 16))
    assert EPSeq.make(pairs.head, pairs.word * 2) == pairs


@given(st.text("01", max_size=5), char_words)
def test_point_make_matches_oracle(pre, per):
    x = EPSeq.make(pre, per)
    assert (x.head, x.word) == oracle_point(pre, per)


@settings(max_examples=200, deadline=None)
@given(tail_clopen_inputs())
def test_tailclopen_make_matches_oracle(args):
    pts, *raw = args
    got = outcome(lambda *a: as_triple(TailClopen.make(*a)), pts, *raw)
    assert got == outcome(oracle_tc_make, pts, *raw)


@st.composite
def tail_clopen_pairs(draw):
    pts = draw(st.sampled_from(PCTXS))
    return pts, draw(tail_clopens(pts)), draw(tail_clopens(pts))


@settings(deadline=None)
@given(tail_clopen_pairs(), st.integers(0, 3))
# tail words of periods 2 and 3 meet on a period of 6
@example((PCTXS[0], (0, Clopen.empty(), ("01",)), (0, Clopen.empty(), ("001",))), 0)
def test_tailclopen_raised_and_binops_match_oracle(case, extra):
    pts, c1, c2 = case
    a, b = TailClopen.make(pts, *c1), TailClopen.make(pts, *c2)
    oa, ob = oracle_tc_make(pts, *c1), oracle_tc_make(pts, *c2)
    d = max(a.threshold, b.threshold) + extra
    assert as_triple(a.raised(d)) == oracle_tc_raised(pts, oa, d)
    with pytest.raises(ValueError):
        a.raised(a.threshold - 1)
    union = oracle_tc_binop(
        pts, oa, ob, Clopen.union, lambda x, y: "1" if "1" in (x, y) else "0"
    )
    inter = oracle_tc_binop(
        pts, oa, ob, Clopen.intersect, lambda x, y: "1" if x == y == "1" else "0"
    )
    diff = oracle_tc_binop(
        pts, oa, ob, Clopen.difference, lambda x, y: "1" if (x, y) == ("1", "0") else "0"
    )
    comp = oracle_tc_complement(pts, oa)
    assert as_triple(a.union(b)) == union
    assert as_triple(a.intersect(b)) == inter
    assert as_triple(a.difference(b)) == diff
    assert as_triple(a.complement()) == comp
    whole = oracle_tc_binop(
        pts, oa, comp, Clopen.union, lambda x, y: "1" if "1" in (x, y) else "0"
    )
    for c, oc in ((a, oa), (a.intersect(b), inter), (a.union(a.complement()), whole)):
        assert c.is_empty() == oracle_tc_is_empty(oc)
        assert c.is_full() == oracle_tc_is_empty(oracle_tc_complement(pts, oc))
    for x in witness_points(pts, max(a.threshold, 2) + 3) + pts.points():
        assert a.contains_point(x) == oracle_tc_contains(pts, oa, x)
    with pytest.raises(ContextMismatch):
        a.union(TailClopen.empty(PointContext(pts.n + 1)))


@settings(max_examples=300, deadline=None)
@given(labeling_inputs())
def test_autlabeling_make_matches_oracle(args):
    got = outcome(lambda *a: lab_triple(AutLabeling.make(*a)), *args)
    assert got == outcome(oracle_lab_make, *args)


@settings(deadline=None)
@given(st.data())
def test_autlabeling_ops_match_oracle(data):
    """multiply, invert, and from_fibers on the fibers of a labeling with
    at most one defect: a fiber twice, the exceptional cells of a fiber
    twice, a fiber left out, a label that is no automorphism, or no
    fibers at all."""
    ctx = data.draw(st.sampled_from(LAB_CTXS))
    a, b = data.draw(made_labelings(ctx)), data.draw(made_labelings(ctx))
    oa, ob = lab_triple(a), lab_triple(b)
    assert lab_triple(a.multiply(b)) == oracle_lab_multiply(ctx, oa, ob)
    assert lab_triple(a.invert()) == oracle_lab_invert(ctx, oa)
    other = LAB_CTXS[(LAB_CTXS.index(ctx) + 1) % len(LAB_CTXS)]
    with pytest.raises(ContextMismatch):
        a.multiply(AutLabeling.identity(other))
    fibers = [(a.fiber(m), m) for m in sorted(a.labels_used())]
    fibers = [(f, m) for f, m in fibers if not f.is_empty()]
    pick = data.draw(st.integers(0, len(fibers) - 1))
    defect = data.draw(
        st.sampled_from(["none", "twice", "cells-twice", "left-out", "label", "empty"])
    )
    if defect == "twice":
        fibers.append(fibers[pick])
    elif defect == "cells-twice":
        f, m = fibers[pick]
        fibers.append((TailClopen.make(ctx.points, f.threshold, f.exceptional, ("0",) * ctx.n), m))
    elif defect == "left-out":
        del fibers[pick]
    elif defect == "label":
        fibers[pick] = (fibers[pick][0], (0,) * ctx.algebra.size)
    elif defect == "empty":
        fibers = []
    want = outcome(oracle_lab_from_fibers, ctx, [(as_triple(f), m) for f, m in fibers])
    got = outcome(lambda: lab_triple(AutLabeling.from_fibers(ctx, fibers)))
    assert got == want
    if defect == "none":
        assert AutLabeling.from_fibers(ctx, fibers) == a


def test_folding_needs_every_branch():
    # branch 1 folds its cell (1, 2) into the word, branch 2 cannot
    ctx = PointContext(2)
    c = TailClopen.make(ctx, 2, Clopen.make(["001", "1001"]), ("1", "0"))
    assert as_triple(c) == oracle_tc_make(
        ctx, 2, Clopen.make(["001", "1001"]), ("1", "0")
    )
    assert c.threshold == 2
