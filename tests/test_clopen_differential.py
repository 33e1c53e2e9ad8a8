"""Differential tests of the tree-backed ``Clopen``, of the equal-label
merge of labeled cells (now the canonical labeled tree that
``cantor.build`` makes, read back by ``cantor._words``) and of
``merge_sibling_pairs`` (table pairs) against the frozenset-of-words
algebra and the restart-after-every-merge loops they replaced, kept here
as oracles."""

from dataclasses import dataclass
from itertools import product
from typing import Iterable

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from boolpow.cantor import Clopen, PointContext, _words, build, merge_sibling_pairs
from boolpow.homeo import EPHomeo

# ---------------------------------------------------------------------------
# oracle: canonical antichain algebra on frozensets of binary words

_FULL = frozenset({""})
_EMPTY = frozenset()


def _split0(ws):
    return frozenset(w[1:] for w in ws if w[0] == "0")


def _split1(ws):
    return frozenset(w[1:] for w in ws if w[0] == "1")


def _join(l, r):
    if l == _FULL and r == _FULL:
        return _FULL
    return frozenset({"0" + w for w in l} | {"1" + w for w in r})


def _canon(ws) -> frozenset:
    ws = frozenset(ws)
    if not ws:
        return _EMPTY
    if "" in ws:
        return _FULL
    return _join(_canon(_split0(ws)), _canon(_split1(ws)))


def _union(a, b):
    if a == _FULL or b == _FULL:
        return _FULL
    if not a:
        return b
    if not b:
        return a
    return _join(_union(_split0(a), _split0(b)), _union(_split1(a), _split1(b)))


def _inter(a, b):
    if not a or not b:
        return _EMPTY
    if a == _FULL:
        return b
    if b == _FULL:
        return a
    return _join(_inter(_split0(a), _split0(b)), _inter(_split1(a), _split1(b)))


def _compl(a):
    if a == _FULL:
        return _EMPTY
    if not a:
        return _FULL
    return _join(_compl(_split0(a)), _compl(_split1(a)))


@dataclass(frozen=True)
class OracleClopen:
    words: tuple[str, ...]

    @staticmethod
    def make(words: Iterable[str]) -> "OracleClopen":
        for w in words:
            if any(c not in "01" for c in w):
                raise ValueError(f"bad word {w!r}")
        return OracleClopen(tuple(sorted(_canon(words))))

    def _set(self):
        return frozenset(self.words)

    def union(self, other):
        return OracleClopen(tuple(sorted(_union(self._set(), other._set()))))

    def intersect(self, other):
        return OracleClopen(tuple(sorted(_inter(self._set(), other._set()))))

    def complement(self):
        return OracleClopen(tuple(sorted(_compl(self._set()))))

    def difference(self, other):
        return self.intersect(other.complement())

    def is_subset(self, other):
        return not self.difference(other).words


def oracle_merge(cells):
    """The sibling-merge loop of ``power`` and ``autgroup`` before they
    shared one helper."""
    cur = dict(cells)
    while True:
        merged = False
        for w, a in sorted(cur.items()):
            if w.endswith("0") and cur.get(w[:-1] + "1") == a:
                del cur[w]
                del cur[w[:-1] + "1"]
                cur[w[:-1]] = a
                merged = True
                break
        if not merged:
            return tuple(sorted(cur.items()))


def oracle_reduce_pairs(pairs):
    """The pair-merge loop of ``Table`` and ``homeo`` before
    ``merge_sibling_pairs``."""
    cur = sorted(set(pairs))
    while True:
        bysrc = dict(cur)
        merged = False
        for p, q in list(bysrc.items()):
            if p.endswith("0") and q.endswith("0"):
                p2, q2 = p[:-1] + "1", q[:-1] + "1"
                if bysrc.get(p2) == q2:
                    del bysrc[p]
                    del bysrc[p2]
                    bysrc[p[:-1]] = q[:-1]
                    merged = True
                    break
        cur = sorted(bysrc.items())
        if not merged:
            return tuple(cur)


# ---------------------------------------------------------------------------
# strategies: word lists may overlap (one word a prefix of another), and
# mirrored lists put equal subtrees side by side under some prefix

plain_lists = st.lists(
    st.text(alphabet="01", min_size=0, max_size=7), min_size=0, max_size=8
)
mirrored_lists = st.tuples(
    st.text(alphabet="01", max_size=3), plain_lists
).map(lambda t: [t[0] + b + w for b in "01" for w in t[1]])
word_lists = st.one_of(plain_lists, mirrored_lists)


def pair(ws):
    return Clopen.make(ws), OracleClopen.make(ws)


def agree(c: Clopen, o: OracleClopen):
    assert c.words == o.words
    assert c == Clopen.make(o.words)
    assert hash(c) == hash(Clopen.make(o.words))


@given(word_lists)
def test_make_matches_oracle(ws):
    agree(*pair(ws))


@given(word_lists, word_lists)
def test_binary_ops_match_oracle(ws1, ws2):
    (a, oa), (b, ob) = pair(ws1), pair(ws2)
    agree(a.union(b), oa.union(ob))
    agree(a.intersect(b), oa.intersect(ob))
    agree(a.difference(b), oa.difference(ob))
    agree(a.complement(), oa.complement())
    assert a.is_subset(b) == oa.is_subset(ob)
    assert (a == b) == (oa == ob)
    if oa == ob:
        assert hash(a) == hash(b)
    assert a.is_empty() == (oa.words == ())
    assert a.is_all() == (oa.words == ("",))


@given(word_lists)
def test_equality_ignores_construction_path(ws):
    a = Clopen.make(ws)
    rebuilt = Clopen.make(list(reversed(a.words)))
    via_ops = a.complement().complement().union(Clopen.empty())
    assert a == rebuilt == via_ops
    assert hash(a) == hash(rebuilt) == hash(via_ops)
    assert repr(via_ops) == f"Clopen(words={a.words!r})"


def test_equal_inner_siblings_stay_apart():
    assert Clopen.make(["01", "11"]).words == ("01", "11")
    assert Clopen.make(["11", "01", "001"]).words == ("001", "01", "11")
    assert Clopen.make(["001", "101"]).words == ("001", "101")


@pytest.mark.parametrize("bad", [["0a"], ["01", "2"], [" "]])
def test_bad_word_rejected(bad):
    with pytest.raises(ValueError):
        Clopen.make(bad)


def _level_words(depth):
    return ["".join(bits) for bits in product("01", repeat=depth)]


def _antichain_cells(ws, labels):
    """Labeled cells of a prefix antichain: each canonical word split
    into its descendants 0-2 levels down, so that merges have work."""
    cells = []
    for k, w in enumerate(OracleClopen.make(ws).words):
        cells += [w + u for u in _level_words(k % 3)]
    return [(w, labels[i % len(labels)]) for i, w in enumerate(cells)]


def tree_cells(cells, support=True):
    """The cells read back from their canonical labeled tree."""
    return tuple(_words(build(cells, support), "", []))


@given(word_lists, st.lists(st.integers(0, 2), min_size=1, max_size=6))
def test_merge_sibling_cells_matches_oracle(ws, labels):
    cells = _antichain_cells(ws, labels)
    assert tree_cells(cells, Clopen.make(ws)._t) == oracle_merge(cells)


@given(st.integers(0, 4), st.integers(0, 2**16), st.integers(1, 3))
def test_merge_sibling_cells_full_levels(depth, seed, k):
    # every level-`depth` cell labeled, as enumerate_elements builds them
    cells = [(w, (seed >> i) % k) for i, w in enumerate(_level_words(depth))]
    assert tree_cells(cells) == oracle_merge(cells)


@st.composite
def partitions(draw, max_depth=3):
    """A complete prefix partition of X."""

    def cut(prefix):
        if len(prefix) < max_depth and draw(st.booleans()):
            return cut(prefix + "0") + cut(prefix + "1")
        return [prefix]

    return cut("")


@st.composite
def table_pairs(draw):
    """Pairs of a bijection of X, each pair split 0-2 levels into aligned
    children (so merges have work), some pairs listed twice."""
    srcs, dsts = draw(partitions()), draw(partitions())
    for short, other in ((srcs, dsts), (dsts, srcs)):
        while len(short) < len(other):
            w = short.pop()
            short += [w + "0", w + "1"]
    pairs = []
    for p, q in zip(srcs, draw(st.permutations(dsts))):
        us = [""]
        for _ in range(draw(st.integers(0, 2))):
            us = [u + b for u in us for b in "01"]
        pairs += [(p + u, q + u) for u in us]
    dups = draw(st.lists(st.sampled_from(pairs), max_size=3))
    return draw(st.permutations(pairs + dups))


def cellmap(pairs) -> EPHomeo:
    return EPHomeo.make(PointContext(0), pairs, ())


def oracle_is_identity(pairs):
    return pairs == (("", ""),)


@given(table_pairs())
@example([("0", "0"), ("10", "10"), ("11", "11")])
def test_merge_table_pairs_matches_oracle(pairs):
    assert merge_sibling_pairs(pairs) == oracle_reduce_pairs(pairs)
    t = cellmap(set(pairs))
    assert t.pairs == oracle_reduce_pairs(pairs)
    assert t.pieces == ()
    assert t.is_identity() == oracle_is_identity(t.pairs)
    assert t.inverse().pairs == oracle_reduce_pairs([(q, p) for p, q in pairs])


@given(table_pairs(), table_pairs())
def test_table_compose_matches_oracle(p1, p2):
    a, b = cellmap(set(p1)), cellmap(set(p2))
    ident = cellmap([("", "")])
    for left, right in ((a, b), (b, a), (a, a.inverse()), (a, ident), (ident, b)):
        out = []  # the composed pairs, duplicates included, before merging
        for p, q in right.pairs:
            for p2, q2 in left.pairs:
                if p2.startswith(q):
                    out.append((p + p2[len(q):], q2))
                elif q.startswith(p2):
                    out.append((p, q2 + q[len(p2):]))
        got = left.compose(right)
        assert got.pairs == oracle_reduce_pairs(out)
        assert got.is_identity() == oracle_is_identity(got.pairs)
