import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import cantor
from boolpow import homeo as hm
from boolpow.cantor import (
    Clopen,
    PointContext,
    TailClopen,
    is_good,
    type_of,
)
from boolpow.errors import NotBijective, SizeBudgetExceeded, TypeMismatch
from boolpow.homeo import (
    EPHomeo,
    TailPiece,
    _ap_coverage,
    cross_branch_involution,
    homeos_agree_on_sample,
    image_matches_on_sample,
    orbit_witness,
    piecewise_glue,
    witness_points,
)
from boolpow.rand import random_block_preserving_homeo, random_point_fixing_homeo
from boolpow.seqs import EPSeq

CTX1 = PointContext(1)
CTX2 = PointContext(2)


def shift_homeo(ctx, i, by=1):
    """cell(i, j) -> cell(i, j + by); the first `by` image cells are fed
    from a slice of the off-branch region."""
    ident = EPHomeo.identity(PointContext(0))
    pieces = [
        TailPiece(k, 1, 1, k, 1, 1, ident)
        for k in range(1, ctx.n + 1)
        if k != i
    ]
    pieces.append(TailPiece(i, 1, 1, i, 1 + by, 1, ident))
    off = "1" * ctx.n
    pairs = []
    for j in range(1, by + 1):
        pairs.append((off + "0" * j + "1"[:0] + "0"[:0], ""))  # placeholder
    pairs = []
    for j in range(1, by + 1):
        # off.0^(j-1).0 -> cell(i, j)... carve `by` cells out of off-branch
        pairs.append((off + "1" * (j - 1) + "0", ctx.cellword(i, j)))
    pairs.append((off + "1" * by, off))
    return EPHomeo.make(ctx, pairs, pieces)


def test_identity_fixed_points():
    h = EPHomeo.identity(CTX2)
    assert h.extends_to_X()
    for x in witness_points(CTX2, 8):
        assert h.apply_point(x) == x


def test_identity_canonical():
    # a redundantly presented identity collapses to the canonical one
    ident = EPHomeo.identity(PointContext(0))
    pieces = [
        TailPiece(1, 1, 2, 1, 1, 2, ident),
        TailPiece(1, 2, 2, 1, 2, 2, ident),
    ]
    h = EPHomeo.make(CTX1, [("1", "1")], pieces)
    assert h == EPHomeo.identity(CTX1)


def test_identity_canonical_with_table_cells():
    # identity presented with the first two cells in the tabular part
    ident = EPHomeo.identity(PointContext(0))
    pieces = [TailPiece(1, 3, 1, 1, 3, 1, ident)]
    pairs = [("1", "1"), ("01", "01"), ("001", "001")]
    h = EPHomeo.make(CTX1, pairs, pieces)
    assert h == EPHomeo.identity(CTX1)


@pytest.mark.parametrize("n", range(5))
def test_identity_is_built_canonical(n):
    ctx = PointContext(n)
    ident = EPHomeo.identity(PointContext(0))
    pieces = [TailPiece(i, 1, 1, i, 1, 1, ident) for i in range(1, n + 1)]
    h = EPHomeo.identity(ctx)
    assert h == EPHomeo.make(ctx, [("1" * n, "1" * n)], pieces)
    assert h.is_identity()


def test_swap_tabular_n0():
    ctx = PointContext(0)
    h = EPHomeo.make(ctx, [("0", "1"), ("1", "0")], [])
    assert h.apply_point(EPSeq.make("", "0")) == EPSeq.make("1", "0")
    assert h.compose(h).is_identity()


def test_shift_compose_inverse():
    h = shift_homeo(CTX1, 1, by=2)
    assert h.extends_to_X()
    assert h.compose(h.inverse()).is_identity()
    assert h.inverse().compose(h).is_identity()


def test_shift_moves_cells():
    h = shift_homeo(CTX1, 1, by=1)
    x = EPSeq.make(CTX1.cellword(1, 3) + "01", "01")
    y = h.apply_point(x)
    assert y.startswith(CTX1.cellword(1, 4))


def test_shift_tail_word_invariant():
    # shifting indices by 2 fixes every period-2 tail set
    h = shift_homeo(CTX1, 1, by=2)
    c = TailClopen.make(CTX1, 0, Clopen.empty(), ("10",))
    img = h.apply(c)
    img_tail = img.tails[0]
    assert set(img_tail) <= {"0", "1"}
    # whole-tail agreement beyond the disturbed prefix
    for j in range(3, 30):
        assert img.labels.tail_at(1, j) == c.labels.tail_at(1, j)
    assert image_matches_on_sample(h, c, img, depth=32)


def test_apply_respects_boolean_ops():
    h = shift_homeo(CTX2, 2, by=1)
    a = TailClopen.make(CTX2, 0, Clopen.empty(), ("10", "110"))
    b = TailClopen.from_clopen(CTX2, Clopen.make(["01", "11"]))
    left = h.apply(a.union(b))
    right = h.apply(a).union(h.apply(b))
    assert left == right
    assert h.apply(a.complement()) == h.apply(a).complement()


def test_apply_matches_pointwise():
    h = shift_homeo(CTX2, 1, by=1)
    for c in (
        TailClopen.make(CTX2, 0, Clopen.empty(), ("10", "1")),
        TailClopen.from_clopen(CTX2, Clopen.make(["011"])),
    ):
        assert image_matches_on_sample(h, c, h.apply(c), depth=24)


def test_compose_associative_on_sample():
    a = shift_homeo(CTX2, 1, by=1)
    b = shift_homeo(CTX2, 2, by=2)
    c = cross_branch_involution(CTX2)
    left = a.compose(b).compose(c)
    right = a.compose(b.compose(c))
    assert left == right


def test_compose_matches_pointwise():
    a = shift_homeo(CTX2, 1, by=1)
    b = cross_branch_involution(CTX2)
    ab = a.compose(b)
    for x in witness_points(CTX2, 16):
        assert ab.apply_point(x) == a.apply_point(b.apply_point(x))


# --- the non-extendable involution ------------------------------------------


def test_cross_branch_is_involution():
    psi = cross_branch_involution(CTX2)
    assert psi.compose(psi).is_identity()


def test_cross_branch_not_extendable():
    psi = cross_branch_involution(CTX2)
    assert not psi.extends_to_X()
    assert psi.point_map() is None


def test_cross_branch_cell_images():
    psi = cross_branch_involution(CTX2)
    # even indices cross branches, odd stay
    x = EPSeq.make(CTX2.cellword(1, 2) + "01", "01")
    assert psi.apply_point(x).startswith(CTX2.cellword(2, 2))
    x = EPSeq.make(CTX2.cellword(1, 3) + "01", "01")
    assert psi.apply_point(x).startswith(CTX2.cellword(1, 3))


def test_cross_branch_clusters_at_both_points():
    # images of cells of a small neighbourhood of x_1 meet neighbourhoods
    # of both distinguished points
    psi = cross_branch_involution(CTX2)
    near1 = near2 = 0
    for j in range(5, 15):
        img = psi.apply(CTX2.cell(1, j))
        w = img.to_clopen().words[0]
        if w.startswith("0"):
            near1 += 1
        if w.startswith("10"):
            near2 += 1
    assert near1 > 0 and near2 > 0


# --- orbit witnesses ---------------------------------------------------------


def tc(ctx, threshold, words, tails):
    return TailClopen.make(
        ctx, threshold, Clopen.make(words).intersect(ctx.region(threshold)), tails
    )


WITNESS_CASES = [
    (tc(CTX1, 0, [], ["10"]), tc(CTX1, 0, [], ["110"])),
    (tc(CTX1, 0, [], ["10"]), tc(CTX1, 2, ["1"], ["100"])),
    (tc(CTX1, 0, ["1"], ["0"]), tc(CTX1, 0, ["10"], ["0"])),
    (tc(CTX1, 0, [], ["1"]), tc(CTX1, 0, ["10"], ["1"])),
    (tc(CTX2, 0, [], ["10", "0"]), tc(CTX2, 1, [], ["01", "0"])),
    (tc(CTX2, 0, ["11"], ["10", "110"]), tc(CTX2, 0, [], ["01", "101"])),
]


@pytest.mark.parametrize("c1,c2", WITNESS_CASES)
def test_orbit_witness_cases(c1, c2):
    h = orbit_witness(c1, c2)
    assert h.extends_to_X()
    assert h.apply(c1) == c2
    assert h.apply(c1.complement()) == c2.complement()
    assert image_matches_on_sample(h, c1, c2, depth=48)


def test_orbit_witness_identity_case():
    c = tc(CTX1, 0, [], ["10"])
    assert orbit_witness(c, c).is_identity()


def test_orbit_witness_type_mismatch():
    c1 = tc(CTX1, 0, ["1"], ["0"])  # clopen in X
    c2 = tc(CTX1, 0, [], ["10"])  # proper tail type
    with pytest.raises(TypeMismatch):
        orbit_witness(c1, c2)


def test_orbit_witness_preserves_types():
    c1 = tc(CTX2, 0, [], ["10", "100"])
    c2 = tc(CTX2, 0, ["110"], ["01", "010"])
    h = orbit_witness(c1, c2)
    assert type_of(h.apply(c1)) == type_of(c1)


# --- piecewise gluing --------------------------------------------------------


def test_glue_identity_piece():
    ctx = CTX1
    d = TailClopen.full(ctx)
    h = piecewise_glue([(d, EPHomeo.identity(ctx))])
    assert h.is_identity()


def test_glue_two_swapped_cells():
    ctx = CTX1
    c1 = TailClopen.from_clopen(ctx, Clopen.make(["10"]))
    c2 = TailClopen.from_clopen(ctx, Clopen.make(["11"]))
    swap = EPHomeo.make(
        ctx,
        [("10", "11"), ("11", "10")],
        [TailPiece(1, 1, 1, 1, 1, 1, EPHomeo.identity(PointContext(0)))],
    )
    g = piecewise_glue([(c1, swap), (c2, swap)])
    assert g.compose(g).is_identity()
    x = EPSeq.make("10" + "01", "01")
    assert g.apply_point(x).startswith("11")
    # identity away from the two cells
    y = EPSeq.make(ctx.cellword(1, 1) + "01", "01")
    assert g.apply_point(y) == y


def test_glue_orbit_witness_parts():
    ctx = CTX1
    c = TailClopen.make(ctx, 0, Clopen.empty(), ("10",))
    d = c.complement()
    hc = orbit_witness(c, c)
    hd = orbit_witness(d, d)
    g = piecewise_glue([(c, hc), (d, hd)])
    assert g.apply(c) == c
    assert g.apply(d) == d


def test_glue_rejects_nonbijective():
    ctx = CTX1
    c = TailClopen.from_clopen(ctx, Clopen.make(["10"]))
    c2 = TailClopen.from_clopen(ctx, Clopen.make(["11"]))
    swap = EPHomeo.make(
        ctx,
        [("10", "11"), ("11", "10")],
        [TailPiece(1, 1, 1, 1, 1, 1, EPHomeo.identity(PointContext(0)))],
    )
    # piece 1 keeps {10} in place, piece 2 sends {11} onto {10}: collision
    with pytest.raises(NotBijective):
        piecewise_glue([(c, EPHomeo.identity(ctx)), (c2, swap)])


def test_tail_modulus_cap_is_a_budget_stop():
    with pytest.raises(SizeBudgetExceeded, match="tail modulus 6 exceeds the budget"):
        _ap_coverage([(1, 2), (2, 3), (4, 6)], cap=5)
    assert _ap_coverage([(1, 2), (2, 2)], cap=2)[0] == [1, 0]


def test_glue_lets_a_budget_stop_through(monkeypatch):
    ctx = CTX1
    c = TailClopen.make(ctx, 0, Clopen.empty(), ("10",))
    parts = [(c, orbit_witness(c, c)), (c.complement(), EPHomeo.identity(ctx))]
    monkeypatch.setattr(hm, "_ap_coverage", lambda aps, cap=1: _ap_coverage(aps, cap))
    with pytest.raises(SizeBudgetExceeded, match="tail modulus 2 exceeds the budget"):
        piecewise_glue(parts)


# --- group sanity via hypothesis --------------------------------------------


def small_homeos(ctx):
    base = [
        EPHomeo.identity(ctx),
        shift_homeo(ctx, 1, by=1),
        shift_homeo(ctx, 1, by=2),
    ]
    if ctx.n >= 2:
        base.append(shift_homeo(ctx, 2, by=1))
        base.append(cross_branch_involution(ctx))
    return st.lists(st.sampled_from(base), min_size=1, max_size=3).map(
        lambda hs: _compose_all(hs)
    )


def _compose_all(hs):
    out = hs[0]
    for h in hs[1:]:
        out = out.compose(h)
    return out


@settings(max_examples=25, deadline=None)
@given(small_homeos(CTX2))
def test_inverse_law(h):
    assert h.compose(h.inverse()).is_identity()


@settings(max_examples=25, deadline=None)
@given(small_homeos(CTX2), small_homeos(CTX2))
def test_compose_exact_vs_sample(g, h):
    gh = g.compose(h)
    for x in witness_points(CTX2, 10):
        assert gh.apply_point(x) == g.apply_point(h.apply_point(x))


def test_extends_fixes_points_exactly():
    h = shift_homeo(CTX2, 1, by=2).compose(shift_homeo(CTX2, 2, by=1))
    assert h.extends_to_X()
    for i in (1, 2):
        x = CTX2.point(i)
        assert h.apply_point(x) == x


# --- the canonical form -------------------------------------------------------


@st.composite
def drawn_homeos(draw):
    n = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    moves = draw(st.integers(1, 2 if n == 3 else 3))
    if draw(st.booleans()):
        return random_point_fixing_homeo(PointContext(n), rng, moves)
    return random_block_preserving_homeo(PointContext(n), rng, moves)


@settings(max_examples=60, deadline=None)
@given(drawn_homeos())
def test_canonical_form_is_a_fixed_point(h):
    assert EPHomeo.make(h.ctx, h.pairs, h.pieces) == h
    assert EPHomeo.make(h.ctx, reversed(h.pairs), reversed(h.pieces)) == h


@settings(max_examples=60, deadline=None)
@given(drawn_homeos())
def test_inverse_is_an_involution(h):
    assert h.inverse().inverse() == h


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def _least_modulus(D):
    """The rule `_canonicalize` reads the least modulus of a branch by:
    the primitive period of the residue owners D, from `seqs`."""
    return len(EPSeq.make((), tuple(D)).word)


def _brute_period(D):
    """The first divisor d of M at which D is cyclically d-periodic."""
    M = len(D)
    return next(d for d in _divisors(M) if D[d:] + D[:d] == D)


# 8820 = 2^2 3^2 5 7^2 is the largest tail modulus homeo-factor reaches at
# seed 1; the others have many divisors too
MODULI = [1, 2, 6, 12, 60, 120, 360, 420, 2520, 8820]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_primitive_period_matches_divisor_scan(data):
    M = data.draw(st.sampled_from(MODULI))
    letters = data.draw(st.integers(1, 4))
    # a word repeated and cut at M: its period divides M or it does not
    if data.draw(st.booleans()):
        p = data.draw(st.sampled_from(_divisors(M)))
    else:
        p = data.draw(st.integers(1, M))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    base = [rng.randrange(letters) for _ in range(p)]
    D = (base * (M // p + 1))[:M]
    if data.draw(st.booleans()):
        D[rng.randrange(M)] = letters  # one odd letter
    assert _least_modulus(D) == _brute_period(D)


def test_primitive_period_examples():
    assert _least_modulus([0]) == 1
    assert _least_modulus([0, 1, 0, 1, 0, 1]) == 2
    # linear period 3 does not divide 8: no proper cyclic period
    assert _least_modulus([0, 0, 1, 0, 0, 1, 0, 0]) == 8
    assert _least_modulus([0, 1, 1, 0, 1, 1]) == 3


def test_validation_keeps_no_shape():
    """EPHomeo.make checks its tabular words with the shape check but
    keeps no shape: homeomorphism word lists seldom recur, and kept they
    would crowd the element shapes out of the memo."""
    cantor._kept_shape.cache_clear()
    before = cantor._kept_shape.cache_info().currsize
    rng = random.Random(7)
    for n in (1, 2, 3):
        hs = [random_point_fixing_homeo(PointContext(n), rng, 2) for _ in range(4)]
        for g, h in zip(hs, hs[1:]):
            g.compose(h).compose(g.inverse())
    assert cantor._kept_shape.cache_info().currsize == before
