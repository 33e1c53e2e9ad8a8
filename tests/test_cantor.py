import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow.cantor import (
    Clopen,
    ClopenType,
    PointContext,
    TailClopen,
    cell_witness,
    deal_cyclic,
    is_good,
    point_in,
    point_leaves,
    split,
    split_cyclic,
    split_good,
    type_of,
)
from boolpow.errors import EmptyInput, EmptyOrFull, NotGood
from boolpow.homeo import EPHomeo
from boolpow.seqs import EPSeq, EPSet, ap_intersect, match_ones

words = st.lists(
    st.text(alphabet="01", min_size=0, max_size=6), min_size=0, max_size=5
)
clopens = words.map(Clopen.make)
points = st.tuples(
    st.text(alphabet="01", min_size=0, max_size=4),
    st.text(alphabet="01", min_size=1, max_size=4),
).map(lambda t: EPSeq.make(*t))


def tailclopens(n):
    ctx = PointContext(n)

    def build(args):
        d, excwords, tails = args
        exc = Clopen.make(excwords).intersect(ctx.region(d))
        return TailClopen.make(ctx, d, exc, tails)

    return st.tuples(
        st.integers(min_value=0, max_value=3),
        words,
        st.tuples(*[st.text(alphabet="01", min_size=1, max_size=4) for _ in range(n)]),
    ).map(build)


# --- canonical antichains ----------------------------------------------------


def test_sibling_merge():
    assert Clopen.make(["00", "01"]).words == ("0",)


def test_prefix_absorb():
    assert Clopen.make(["0", "01", "011"]).words == ("0",)


def test_complement_singleton():
    assert Clopen.make(["0"]).complement().words == ("1",)


def test_full_and_empty():
    assert Clopen.make(["0", "1"]).is_all()
    assert Clopen.make([]).is_empty()


@given(clopens, clopens)
def test_union_commutes(a, b):
    assert a.union(b) == b.union(a)


@given(clopens, clopens, clopens)
def test_boolean_laws(a, b, c):
    assert a.union(b.intersect(c)) == a.union(b).intersect(a.union(c))
    assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
    # de Morgan
    assert a.union(b).complement() == a.complement().intersect(b.complement())
    assert a.intersect(b).complement() == a.complement().union(b.complement())


@given(clopens)
def test_complement_involutive(a):
    assert a.complement().complement() == a


@given(clopens, clopens)
def test_subset_via_difference(a, b):
    assert a.intersect(b).is_subset(a)
    assert a.is_subset(a.union(b))


# --- points and duality -------------------------------------------------------


def test_point_membership_basics():
    one = EPSeq.make("", "1")
    zero = EPSeq.make("", "0")
    assert point_in(one, Clopen.make(["1"]))
    assert not point_in(zero, Clopen.make(["1"]))
    assert point_in(EPSeq.make("", "01"), Clopen.make(["01"]))


def test_point_canonical():
    assert EPSeq.make("01", "10") == EPSeq.make("011", "01")
    assert EPSeq.make("1", "0") != EPSeq.make("", "0")


@given(
    points,
    st.integers(min_value=-2, max_value=12),
    st.text(alphabet="012", max_size=3),
)
def test_prefix_and_startswith_match_bits(x, k, tail):
    # the bit-by-bit forms the slicing ones replaced
    bits = "".join(x.at(i + 1) for i in range(k))
    assert x.prefix(k) == bits
    w = bits + tail
    assert x.startswith(w) == all(x.at(i + 1) == c for i, c in enumerate(w))


@given(points, clopens)
def test_ultrafilter_duality(x, b):
    # membership in b matches membership of b in the ultrafilter of x:
    # x in b  <=>  not (x in complement of b)
    assert point_in(x, b) != point_in(x, b.complement())


@given(points, clopens, clopens)
def test_ultrafilter_meet(x, a, b):
    assert point_in(x, a.intersect(b)) == (point_in(x, a) and point_in(x, b))


# --- split ---------------------------------------------------------------


def test_split_whole_space():
    a, b = split(Clopen.all())
    assert a.words == ("0",) and b.words == ("1",)


def test_split_empty_raises():
    with pytest.raises(EmptyInput):
        split(Clopen.empty())


@given(clopens.filter(lambda c: not c.is_empty()))
def test_split_parts(c):
    a, b = split(c)
    assert not a.is_empty() and not b.is_empty()
    assert a.union(b) == c
    assert a.intersect(b).is_empty()


# --- contexts ------------------------------------------------------------


def test_context_points_distinct():
    ctx = PointContext(3)
    pts = ctx.points()
    assert len(set(pts)) == 3


def test_cells_avoid_points():
    ctx = PointContext(2)
    for i in (1, 2):
        for j in (1, 2, 3):
            cell = ctx.cell(i, j)
            for p in ctx.points():
                assert not point_in(p, cell)


def test_locate():
    ctx = PointContext(2)
    assert ctx.locate(EPSeq.make("", "0")) == ("point", 1)
    assert ctx.locate(EPSeq.make("1", "0")) == ("point", 2)
    assert ctx.locate(EPSeq.make("", "1"))[0] == "off"
    kind, i, j, suf = ctx.locate(EPSeq.make("001", "1"))
    assert (kind, i, j) == ("cell", 1, 2) and suf == EPSeq.make("", "1")


def test_region_partition():
    ctx = PointContext(2)
    d = 2
    total = ctx.region(d)
    for i in (1, 2):
        for j in range(1, d + 1):
            assert ctx.cell(i, j).is_subset(total)
        assert not Clopen.make([ctx.nbhd_word(i, d + 1)]).intersect(
            total
        ).words


@pytest.mark.parametrize("n", range(5))
def test_region_matches_make_difference(n):
    # the one-pass tree against X minus each neighbourhood in turn
    ctx = PointContext(n)
    for d in range(-1, 7):
        want = Clopen.all()
        for i in range(1, n + 1):
            want = want.difference(Clopen.make([ctx.nbhd_word(i, d + 1)]))
        got = ctx.region(d)
        assert got == want
        assert got.words == want.words


# --- tail clopens ---------------------------------------------------------


def test_tailclopen_roundtrip_clopen():
    ctx = PointContext(2)
    b = Clopen.make(["01", "11"])
    tc = TailClopen.from_clopen(ctx, b)
    assert tc.extends_to_clopen()
    assert tc.to_clopen() == b


def test_tailclopen_with_point_closure():
    ctx = PointContext(1)
    b = Clopen.make(["0"])  # contains x_1
    tc = TailClopen.from_clopen(ctx, b)
    assert tc.tails == ("1",)
    assert tc.to_clopen() == b


def test_tailclopen_rejects_a_negative_threshold():
    # region(-1) of a pointed context is empty, so no tree on it can stand
    # for a set at the least threshold 0, which holds the off-branch cells
    with pytest.raises(ValueError, match="negative threshold -1"):
        TailClopen.make(PointContext(1), -1, Clopen.empty(), ("0",))


def test_tail_intersection_lcm():
    ctx = PointContext(1)
    a = TailClopen.make(ctx, 0, Clopen.empty(), ("10",))
    b = TailClopen.make(ctx, 0, Clopen.empty(), ("11",))
    c = a.intersect(b)
    assert c.tails == ("10",)


@settings(max_examples=60)
@given(tailclopens(2), tailclopens(2), tailclopens(2))
def test_tail_boolean_laws(a, b, c):
    assert a.union(b.intersect(c)) == a.union(b).intersect(a.union(c))
    assert a.complement().complement() == a
    assert a.union(b).complement() == a.complement().intersect(b.complement())


@settings(max_examples=60)
@given(tailclopens(2), points)
def test_tail_membership_matches_ops(a, x):
    ctx = PointContext(2)
    if ctx.locate(x)[0] == "point":
        return
    assert a.contains_point(x) != a.complement().contains_point(x)


def test_types():
    ctx = PointContext(2)
    # clopen in X away from the points: no branch accumulates it
    c = TailClopen.from_clopen(ctx, Clopen.make(["01"]))
    assert type_of(c) == ClopenType(frozenset(), frozenset({1, 2}))
    # the whole punctured space has empty type relative to nothing: full raises
    with pytest.raises(EmptyOrFull):
        type_of(TailClopen.full(ctx))
    with pytest.raises(EmptyOrFull):
        type_of(TailClopen.empty(ctx))
    # one alternating branch: in both components
    c2 = TailClopen.make(ctx, 0, Clopen.empty(), ("10", "0"))
    t = type_of(c2)
    assert 1 in t.ins and 1 in t.outs and 2 not in t.ins


def test_type_limit_point_oracle():
    # cross-check the letter-scan types against a depth-truncated
    # limit-point evaluation
    ctx = PointContext(2)
    c = TailClopen.make(ctx, 1, Clopen.make(["11"]), ("10", "1"))
    t = type_of(c)
    depth = 24
    for i in (1, 2):
        hits = sum(
            1
            for j in range(c.threshold + 1, depth)
            if c.contains_point(cell_witness(ctx.cellword(i, j)))
        )
        misses = sum(
            1
            for j in range(c.threshold + 1, depth)
            if not c.contains_point(cell_witness(ctx.cellword(i, j)))
        )
        assert (i in t.ins) == (hits > 4)
        assert (i in t.outs) == (misses > 4)


def test_split_good_doubles_period():
    ctx = PointContext(1)
    c = TailClopen.make(ctx, 0, Clopen.empty(), ("10",))
    a, b = split_good(c)
    assert a.tails == ("1000",)
    assert b.tails == ("0010",)
    assert a.union(b) == c
    assert a.intersect(b).is_empty()
    assert is_good(a) and is_good(b)


def test_split_good_rejects_bad():
    ctx = PointContext(1)
    with pytest.raises(NotGood):
        split_good(TailClopen.from_clopen(ctx, Clopen.make(["01"])))


@settings(max_examples=40)
@given(tailclopens(2).filter(is_good), st.integers(min_value=2, max_value=4))
def test_split_cyclic_partitions(c, parts):
    pieces = split_cyclic(c, parts)
    u = TailClopen.empty(c.ctx)
    for p in pieces:
        assert p.intersect(u).is_empty()
        u = u.union(p)
    assert u == c


# --- cell maps: homeomorphisms of X on PointContext(0) --------------------


def test_table_identity_and_swap():
    t = EPHomeo.make(PointContext(0), [("0", "1"), ("1", "0")], ())
    assert t.apply_point(EPSeq.make("", "0")) == EPSeq.make("1", "0")
    assert t.compose(t).is_identity()
    assert t.inverse() == t


def test_table_reduction():
    t = EPHomeo.make(PointContext(0), [("00", "00"), ("01", "01"), ("1", "1")], ())
    assert t.is_identity()


def test_table_compose_shift():
    # x -> 0x composed with its inverse
    shift = EPHomeo.make(PointContext(0), [("0", "00"), ("10", "01"), ("11", "1")], ())
    inv = shift.inverse()
    assert shift.compose(inv).is_identity()
    assert inv.compose(shift).is_identity()


def test_table_apply_clopen():
    # a table acts on clopens as the cellmap of a suffix twist: inside
    # every cell of the branch, through EPHomeo.apply
    from boolpow.rand import suffix_twist

    t = EPHomeo.make(PointContext(0), [("0", "1"), ("1", "0")], ())
    ctx = PointContext(1)
    h = suffix_twist(ctx, 1, t)
    assert h.pieces[0].cellmap == t
    for j in (1, 2, 5):
        cw = ctx.cellword(1, j)
        img = h.apply(Clopen.make([cw + "01"]))
        assert img == TailClopen.from_clopen(ctx, Clopen.make([cw + "11"]))
        assert h.apply(ctx.cell(1, j)) == TailClopen.from_clopen(ctx, ctx.cell(1, j))


# --- eventually periodic sets ----------------------------------------------


def test_epset_basic():
    s = EPSet.from_ap(3, 2)
    assert [s.at(j) for j in range(1, 8)] == [
        False,
        False,
        True,
        False,
        True,
        False,
        True,
    ]
    assert s.kth_one(0) == 3 and s.kth_one(2) == 7


def test_epset_ops():
    a = EPSet.from_ap(1, 2)
    b = EPSet.from_ap(2, 2)
    assert a.union(b) == EPSet.from_ap(1, 1)
    assert a.intersect(b).is_empty()
    assert a.complement() == b


def test_ap_intersect():
    assert ap_intersect(1, 2, 3, 4) == (3, 4)
    assert ap_intersect(1, 2, 2, 4) is None
    assert ap_intersect(2, 3, 5, 6) == (5, 6)


def test_match_ones_simple():
    a = EPSet.make((), (True, False))
    b = EPSet.make((), (True, True, False))
    singles, pieces = match_ones(a, b)
    # spot-check the order isomorphism through the pieces
    seen = dict(singles)
    for (f, s), (f2, s2) in pieces:
        for t in range(6):
            seen[f + t * s] = f2 + t * s2
    ones_a = [j for j in range(1, 40) if a.at(j)]
    ones_b = [j for j in range(1, 40) if b.at(j)]
    for k in range(12):
        assert seen[ones_a[k]] == ones_b[k]


@given(
    st.lists(st.booleans(), max_size=4),
    st.lists(st.booleans(), min_size=1, max_size=4),
)
def test_epset_canonical_bits_stable(head, word):
    s = EPSet.make(head, word)
    for j in range(1, len(head) + 1):
        assert s.at(j) == head[j - 1]


@given(
    st.text(alphabet="01", min_size=1, max_size=6).filter(lambda w: "1" in w),
    st.integers(min_value=1, max_value=4),
)
def test_deal_cyclic_deals_every_one_to_exactly_one_share(word, parts):
    shares = [deal_cyclic(word, parts, r) for r in range(parts)]
    whole = word * parts
    assert all(len(s) == len(whole) for s in shares)
    for k, c in enumerate(whole):
        assert sum(s[k] == "1" for s in shares) == (c == "1")
    # ranks run cyclically, so each share holds the ones of one period
    assert all(s.count("1") == word.count("1") for s in shares)


trees = st.recursive(
    st.integers(0, 3), lambda kids: st.tuples(kids, kids), max_leaves=12
)


@given(trees, st.integers(min_value=0, max_value=4))
def test_point_leaves_reads_the_leaf_at_each_point(t, n):
    def leaf_at(x):
        s, k = t, 0
        while isinstance(s, tuple):
            k += 1
            s = s[x.at(k) == "1"]
        return s

    assert point_leaves(t, n) == [leaf_at(x) for x in PointContext(n).points()]


def test_epset_singleton_is_finite():
    s = EPSet.singleton(3)
    assert [j for j in range(1, 12) if s.at(j)] == [3]
    assert s.is_finite() and s.finite_part() == [3]
    assert not s.complement().is_finite()
    assert EPSet.make([], [False]).is_finite()
    with pytest.raises(ValueError):
        s.kth_one(0)


@given(
    st.lists(st.booleans(), max_size=5),
    st.lists(st.booleans(), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
)
def test_epset_on_ap_splits_the_members_of_the_progression(head, word, first, step):
    s = EPSet.make(head, word)
    singles, aps = s.on_ap(first, step)
    horizon = first + step * (len(head) + 3 * len(word) * step + 8)
    members = [j for j in range(first, horizon, step) if s.at(j)]
    covered = list(singles)
    for f, m in aps:
        assert m % step == 0 and (f - first) % step == 0 and f >= first
        covered += range(f, horizon, m)
    assert sorted(covered) == members  # disjoint, and nothing missed
