"""Differential tests of the points of X against ``Point``, the class that
held them before they were plain ``EPSeq`` values over "01", kept here as
the oracle together with the ``locate``, ``point_in`` and ``apply_point``
walk that read it.  The class as deleted built its canonical form with
``EPSeq.make``; here ``Point.make`` finds the primitive period and the
shortest preperiod by string loops of its own, so it is the one frozen
check of the point normal form.

On drawn points, with periods of 1 to 6 letters, both sides must give the
same canonical (pre, per), the same bits, prefixes, prefix tests, shifts
and prepends, the same location in contexts of 0-3 distinguished points,
the same clopen membership, and the same image under seeded random
homeomorphisms, on drawn points and on the witness sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow.cantor import Clopen, PointContext, point_in
from boolpow.errors import NotExtendable
from boolpow.homeo import EPHomeo, cross_branch_involution, witness_points
from boolpow.rand import random_point_fixing_homeo
from boolpow.seqs import EPSeq

# ---------------------------------------------------------------------------
# oracle: the point class and the walks that read it


@dataclass(frozen=True)
class Point:
    """The sequence pre . per^w, with minimal preperiod and primitive period."""

    pre: str
    per: str

    @staticmethod
    def make(pre: str, per: str) -> "Point":
        if not per or any(c not in "01" for c in pre + per):
            raise ValueError((pre, per))
        n = len(per)
        for d in range(1, n):  # the primitive period
            if n % d == 0 and per == per[:d] * (n // d):
                per = per[:d]
                break
        while pre and pre[-1] == per[-1]:  # the shortest preperiod
            per = per[-1] + per[:-1]
            pre = pre[:-1]
        return Point(pre, per)

    def bit(self, i: int) -> str:
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def startswith(self, w: str) -> bool:
        return self.prefix(len(w)) == w

    def drop(self, k: int) -> "Point":
        if k <= len(self.pre):
            return Point.make(self.pre[k:], self.per)
        sh = (k - len(self.pre)) % len(self.per)
        return Point.make("", self.per[sh:] + self.per[:sh])

    def prepend(self, w: str) -> "Point":
        return Point.make(w + self.pre, self.per)

    def prefix(self, k: int) -> str:
        k = max(k, 0)
        # ceil((k - len(pre)) / len(per)) periods reach past k
        reps = -((len(self.pre) - k) // len(self.per))
        return (self.pre + self.per * reps)[:k]


def _at(t, x: Point):
    """The leaf of t at the point x, and the length of its cell's word."""
    i = 0
    while t.__class__ is tuple:
        t = t[x.bit(i) == "1"]
        i += 1
    return t, i


def oracle_point_in(x: Point, b: Clopen) -> bool:
    return _at(b._t, x)[0]


def oracle_ctx_point(i: int) -> Point:
    return Point("1" * (i - 1), "0")


def oracle_locate(ctx: PointContext, x: Point):
    """("point", i) / ("cell", i, j, suffix) / ("off", None)."""
    ones = 0
    while ones < ctx.n and x.bit(ones) == "1":
        ones += 1
    if ones >= ctx.n:
        return ("off", None)
    i = ones + 1
    rest = x.drop(ones)
    if rest == Point.make("", "0"):
        return ("point", i)
    zeros = 0
    while rest.bit(zeros) == "0":
        zeros += 1
    return ("cell", i, zeros, rest.drop(zeros + 1))


def oracle_apply_point(h: EPHomeo, x: Point) -> Point:
    loc = oracle_locate(h.ctx, x)
    if loc[0] == "point":
        pm = h.point_map()
        if pm is None:
            raise NotExtendable("tail splits across branches")
        return oracle_ctx_point(pm[loc[1]])
    if loc[0] == "cell":
        _, i, j, suffix = loc
        for piece in h.branch_pieces(i):
            if piece.covers(j):
                jj = piece.image_of(j)
                return oracle_apply_point(piece.cellmap, suffix).prepend(
                    h.ctx.cellword(piece.target, jj)
                )
    for p, q in h.pairs:
        if x.startswith(p):
            return x.drop(len(p)).prepend(q)
    raise AssertionError("point escaped the domain partition")


# ---------------------------------------------------------------------------
# drawn points, as (pre, per) strings


def pair(x: EPSeq) -> tuple[str, str]:
    return (x.head, x.word)


def old_pair(x: Point) -> tuple[str, str]:
    return (x.pre, x.per)


# runs of ones and zeros, so drawn points land on distinguished points,
# inside branch cells and off the branches
runs = st.lists(st.sampled_from(["0", "1", "00", "11", "000", "01", "10"]), max_size=4)
point_args = st.tuples(
    runs.map("".join),
    st.sampled_from(["0", "1", "01", "10", "001", "011", "0101", "0000", "00101", "010101", "011011"])
    | st.text("01", min_size=1, max_size=6),
)
clopens = st.lists(st.text("01", max_size=5), max_size=5).map(Clopen.make)


def outcome(f, x):
    try:
        return pair(f(x))
    except NotExtendable:
        return "NotExtendable"


def old_outcome(h, x: Point):
    try:
        return old_pair(oracle_apply_point(h, x))
    except NotExtendable:
        return "NotExtendable"


# ---------------------------------------------------------------------------
# tests


@given(point_args, st.integers(0, 12), st.text("012", max_size=3), st.text("01", max_size=4))
def test_point_steps_agree(args, k, tail, w):
    x, o = EPSeq.make(*args), Point.make(*args)
    assert pair(x) == old_pair(o)
    assert [x.at(i + 1) for i in range(16)] == [o.bit(i) for i in range(16)]
    assert x.prefix(k) == o.prefix(k)
    for v in (o.prefix(k) + tail, w):
        assert x.startswith(v) == o.startswith(v)
    assert pair(x.shift(k)) == old_pair(o.drop(k))
    assert pair(x.prepend(w)) == old_pair(o.prepend(w))


@given(point_args, st.integers(0, 3))
def test_locate_agrees(args, n):
    ctx = PointContext(n)
    got = ctx.locate(EPSeq.make(*args))
    want = oracle_locate(ctx, Point.make(*args))
    if want[0] == "cell":
        assert got[:3] == want[:3] and pair(got[3]) == old_pair(want[3])
    else:
        assert got == want


@given(point_args, clopens)
def test_point_in_agrees(args, b):
    assert point_in(EPSeq.make(*args), b) == oracle_point_in(Point.make(*args), b)


def test_distinguished_points_agree():
    for n in range(4):
        ctx = PointContext(n)
        assert [pair(x) for x in ctx.points()] == [
            old_pair(oracle_ctx_point(i)) for i in range(1, n + 1)
        ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 1 << 16), st.lists(point_args, max_size=8))
def test_apply_point_agrees(n, seed, drawn):
    ctx = PointContext(n)
    h = random_point_fixing_homeo(ctx, random.Random(seed))
    xs = witness_points(ctx, 6) + ctx.points() + [EPSeq.make(*a) for a in drawn]
    for x in xs:
        assert outcome(h.apply_point, x) == old_outcome(h, Point.make(*pair(x)))


def test_apply_point_agrees_without_extension():
    # a homeomorphism of X° with no extension to X: both refuse the points
    h = cross_branch_involution(PointContext(2))
    xs = witness_points(h.ctx, 8) + h.ctx.points()
    for x in xs:
        assert outcome(h.apply_point, x) == old_outcome(h, Point.make(*pair(x)))
    assert outcome(h.apply_point, h.ctx.point(1)) == "NotExtendable"
