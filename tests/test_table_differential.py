"""Differential tests of a cell map as an ``EPHomeo`` on ``PointContext(0)``
against ``Table``, the prefix bijection of X that cell maps were before,
kept here verbatim as the oracle: ``make`` validates each side with one
``build``, ``compose`` reads the tree of the left factor's sources below
each image cell of the right factor, and ``inverse``, ``identity``,
``is_identity`` and ``apply_point`` work on the merged pairs.

With no distinguished points X° = X and the tabular-plus-tail form has only
pairs, so both sides must give the same canonical pairs, composites,
inverses and identity verdicts on drawn valid tables, the same image of
every witness point, and the same accept/reject verdict on drawn invalid
pair lists (overlapping cells, a gap, a bad word, no pairs at all).  The
oracle walks the frozen ``Point`` of ``test_point_differential``, so it
does not change with the points of X.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow.cantor import PointContext, _words, build, merge_sibling_pairs, subtree
from boolpow.errors import BoolpowError
from boolpow.homeo import EPHomeo, witness_points
from test_point_differential import Point, old_pair, pair

X = PointContext(0)
POINTS = witness_points(PointContext(3), 4)

# ---------------------------------------------------------------------------
# oracle: the tabular bijection of X


@dataclass(frozen=True)
class Table:
    """Bijection of X given by pairs (p, q): p.s -> q.s; the p's and the
    q's each form a complete prefix partition of X."""

    pairs: tuple[tuple[str, str], ...]

    @staticmethod
    def make(pairs) -> "Table":
        pairs = [(str(p), str(q)) for p, q in pairs]
        for side, k in (("source", 0), ("image", 1)):
            cells = [(pair[k], True) for pair in pairs]
            build(cells, True, f"{side} cells", f"{side} cells do not cover X")
        return Table(merge_sibling_pairs(pairs))

    @staticmethod
    def identity() -> "Table":
        return Table((("", ""),))

    def is_identity(self) -> bool:
        return self.pairs == (("", ""),)

    def inverse(self) -> "Table":
        return Table(merge_sibling_pairs([(q, p) for p, q in self.pairs]))

    def compose(self, first: "Table") -> "Table":
        """self after first: the tree of self's source cells, labeled by
        pair index, read below each image cell of first."""
        if self.is_identity():
            return first
        if first.is_identity():
            return self
        pairs = self.pairs
        sources = build([(p, k) for k, (p, _) in enumerate(pairs)])
        return Table(
            merge_sibling_pairs(
                (p + s, pairs[k][1] + (q + s)[len(pairs[k][0]):])
                for p, q in first.pairs
                for s, k in _words(subtree(sources, q), "", [])
            )
        )

    def apply_point(self, x: Point) -> Point:
        for p, q in self.pairs:
            if x.startswith(p):
                return x.drop(len(p)).prepend(q)
        raise AssertionError("incomplete table")


# ---------------------------------------------------------------------------
# drawn pair lists


@st.composite
def partitions(draw, max_depth=4):
    """A complete prefix partition of X."""

    def cut(prefix):
        if len(prefix) < max_depth and draw(st.booleans()):
            return cut(prefix + "0") + cut(prefix + "1")
        return [prefix]

    return cut("")


@st.composite
def table_pairs(draw):
    """Pairs of a bijection of X, each pair split 0-2 levels into aligned
    children (so merges have work)."""
    srcs, dsts = draw(partitions()), draw(partitions())
    for short, other in ((srcs, dsts), (dsts, srcs)):
        while len(short) < len(other):
            w = short.pop(draw(st.integers(0, len(short) - 1)))
            short += [w + "0", w + "1"]
    pairs = []
    for p, q in zip(srcs, draw(st.permutations(dsts))):
        us = [""]
        for _ in range(draw(st.integers(0, 2))):
            us = [u + b for u in us for b in "01"]
        pairs += [(p + u, q + u) for u in us]
    return draw(st.permutations(pairs))


@st.composite
def broken_pairs(draw):
    """Pair lists that are no bijection of X: a source or image cell
    overlapping another, a cell left out, a word not over 01, or none."""
    pairs = list(draw(table_pairs()))
    kind = draw(st.sampled_from(["overlap", "gap", "bad word", "empty"]))
    side = draw(st.integers(0, 1))
    if kind == "empty":
        return []
    if kind == "overlap":
        p = draw(st.sampled_from(pairs))
        extra = [p[0] + draw(st.sampled_from(["", "0", "1"])), p[1]]
        extra[1 - side] = "".join(draw(st.lists(st.sampled_from("01"), max_size=3)))
        return pairs + [tuple(extra)]
    if kind == "gap":
        k = draw(st.integers(0, len(pairs) - 1))
        if len(pairs) == 1:
            return [(pairs[0][0] + "0", pairs[0][1])] if side else [("0", "0")]
        del pairs[k]
        return pairs
    k = draw(st.integers(0, len(pairs) - 1))
    bad = list(pairs[k])
    bad[side] = bad[side] + draw(st.sampled_from(["2", "x", " "]))
    pairs[k] = tuple(bad)
    return pairs


def cellmap(pairs) -> EPHomeo:
    return EPHomeo.make(X, pairs, ())


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=300, deadline=None)
@given(table_pairs())
def test_make_inverse_and_identity_agree(pairs):
    old, new = Table.make(pairs), cellmap(pairs)
    assert new.pairs == old.pairs
    assert new.pieces == ()
    assert new.inverse().pairs == old.inverse().pairs
    assert new.is_identity() == old.is_identity()
    assert new.inverse().is_identity() == old.inverse().is_identity()


@settings(max_examples=300, deadline=None)
@given(table_pairs(), table_pairs())
def test_compose_agrees(p1, p2):
    a, b = Table.make(p1), Table.make(p2)
    na, nb = cellmap(p1), cellmap(p2)
    for old, new in (
        (a.compose(b), na.compose(nb)),
        (b.compose(a), nb.compose(na)),
        (a.compose(a.inverse()), na.compose(na.inverse())),
        (a.compose(Table.identity()), na.compose(EPHomeo.identity(X))),
        (Table.identity().compose(b), EPHomeo.identity(X).compose(nb)),
    ):
        assert new.pairs == old.pairs
        assert new.is_identity() == old.is_identity()


@settings(max_examples=100, deadline=None)
@given(table_pairs())
def test_apply_point_agrees(pairs):
    old, new = Table.make(pairs), cellmap(pairs)
    for x in POINTS:
        assert pair(new.apply_point(x)) == old_pair(old.apply_point(Point.make(*pair(x))))


def test_identity_agrees():
    assert EPHomeo.identity(X).pairs == Table.identity().pairs
    assert EPHomeo.identity(X).is_identity()
    assert cellmap([("0", "0"), ("10", "10"), ("11", "11")]).is_identity()


@settings(max_examples=300, deadline=None)
@given(broken_pairs())
def test_invalid_pairs_rejected_alike(pairs):
    try:
        Table.make(pairs)
        old = "accepted"
    except ValueError:
        old = "rejected"
    try:
        cellmap(pairs)
        new = "accepted"
    except (ValueError, BoolpowError):
        new = "rejected"
    assert new == old


@pytest.mark.parametrize(
    "pairs",
    [
        [],
        [("0", "0")],
        [("0", "0"), ("0", "1"), ("1", "1")],
        [("0", "1"), ("1", "1")],
        [("0", "0"), ("1", "2")],
        [("0", "0"), ("1x", "1")],
    ],
    ids=["empty", "gap", "overlapping-source", "overlapping-image", "bad-image-word", "bad-source-word"],
)
def test_listed_invalid_pairs_rejected(pairs):
    with pytest.raises(ValueError):
        Table.make(pairs)
    with pytest.raises((ValueError, BoolpowError)):
        cellmap(pairs)
