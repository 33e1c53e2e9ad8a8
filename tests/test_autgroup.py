import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import autgroup as ag
from boolpow import power as bp
from boolpow.cantor import Clopen, PointContext, TailClopen, type_of
from boolpow.errors import (
    ContextMismatch,
    IllegalTriple,
    NotAutomorphism,
    NotSinglePoint,
    NotStabilizing,
    PointNotFixed,
    TailLabelViolation,
)
from boolpow.homeo import EPHomeo
from boolpow.rand import (
    cell_swap,
    random_automorphism,
    random_block_preserving_homeo,
    random_labeling,
    random_point_fixing_homeo,
    tail_shift,
)
from boolpow.seqs import EPSeq

GF4 = alg.gf4_idempotent_reduct()
RED = alg.gf2_idempotent_reduct()
CTX4 = bp.make_context(GF4, (0, 1))
CTX4_1 = bp.make_context(GF4, (0,))
CTXR = bp.make_context(RED, (0, 1))

IDENT4 = tuple(range(4))
FROB = (0, 1, 3, 2)


def witness_elements(ctx, depth=2):
    return bp.enumerate_elements(ctx, depth)


def pointwise_value(phi, f, x):
    """Independent evaluation of (phi(f))(x) via the two parts."""
    y = phi.homeo.inverse().apply_point(x)
    a = f.value_at(y)
    loc = phi.ctx.points.locate(x)
    if loc[0] == "point":
        return a
    if loc[0] == "cell" and loc[2] > phi.labeling.threshold:
        m = phi.labeling.tail_label(loc[1], loc[2])
    else:
        m = phi.labeling.label_on_word(x.prefix(12))
    return m[a]


# --- labelings ----------------------------------------------------------------


def test_labeling_identity_canonical():
    k = ag.AutLabeling.identity(CTX4)
    assert k.threshold == 0
    assert k.is_identity()


def test_labeling_tail_violation():
    # Frobenius fixes 0 and 1, so a non-stabilizing label needs a bigger
    # algebra: fabricate one by demanding a label that moves filters
    swap01 = None
    for a in alg.automorphisms(RED):
        if a != (0, 1):
            swap01 = a
    assert swap01 is None  # Aut of the reduct is trivial
    with pytest.raises(TailLabelViolation):
        ag.AutLabeling.make(
            CTXR, 0, [(w, (1, 0)) for w in CTXR.points.region(0).words], (((0, 1),), ((0, 1),))
        )


def test_labeling_fibers_partition():
    rng = random.Random(7)
    k = random_labeling(CTX4, rng)
    union = TailClopen.empty(CTX4.points)
    for m in k.labels_used():
        fib = k.fiber(m)
        assert union.intersect(fib).is_empty()
        union = union.union(fib)
    assert union.is_full()
    assert ag.AutLabeling.from_fibers(
        CTX4, [(k.fiber(m), m) for m in k.labels_used()]
    ) == k


def test_labeling_multiply_and_invert():
    rng = random.Random(11)
    k1 = random_labeling(CTX4, rng)
    k2 = random_labeling(CTX4, rng)
    prod = k1.multiply(k2)
    x = EPSeq.make("1101", "01")
    m1 = k1.label_on_word(x.prefix(10))
    m2 = k2.label_on_word(x.prefix(10))
    assert prod.label_on_word(x.prefix(10)) == tuple(m1[m2[a]] for a in range(4))
    assert k1.multiply(k1.invert()).is_identity()


# --- the normal form ------------------------------------------------------------


def test_from_homeo_identity_labeling():
    psi = tail_shift(CTX4.points, 1, 1)
    phi = ag.PowerAutomorphism.from_homeo(CTX4, psi)
    assert phi.labeling.is_identity()
    assert phi.h_part() == psi


def test_from_homeo_rejects_moving_points():
    # branch swap moves x_1 to x_2
    from boolpow.homeo import TailPiece

    swap = EPHomeo.make(
        CTX4.points,
        [("11", "11")],
        [
            TailPiece(1, 1, 1, 2, 1, 1, EPHomeo.identity(PointContext(0))),
            TailPiece(2, 1, 1, 1, 1, 1, EPHomeo.identity(PointContext(0))),
        ],
    )
    with pytest.raises(PointNotFixed):
        ag.PowerAutomorphism.from_homeo(CTX4, swap)


def test_apply_identity():
    phi = ag.PowerAutomorphism.identity(CTX4)
    for f in witness_elements(CTX4):
        assert phi.apply(f) == f


def test_apply_from_labeling_squares_cells():
    c = TailClopen.from_clopen(CTX4.points, Clopen.make(["01"]))
    phi = ag.characteristic(CTX4, c, FROB)
    f = bp.PowerElement.make(
        CTX4, [("00", 0), ("01", 2), ("10", 1), ("11", 3)]
    )
    g = phi.apply(f)
    assert g.value_at(EPSeq.make("01", "0")) == FROB[2]
    assert g.value_at(EPSeq.make("11", "0")) == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_apply_pointwise_oracle(seed, moves):
    phi = random_automorphism(CTX4, random.Random(seed), moves)
    pts = [EPSeq.make(w + "01", "01") for w in ("000", "010", "101", "110", "111")]
    pts += CTX4.points.points()
    elems = witness_elements(CTX4)
    for f in elems[:: len(elems) // 7]:
        g = phi.apply(f)
        for x in pts:
            assert g.value_at(x) == pointwise_value(phi, f, x)


def test_apply_preserves_operations():
    rng = random.Random(5)
    phi = random_automorphism(CTX4, rng)
    elems = witness_elements(CTX4)
    for f in elems[:4]:
        for g in elems[:4]:
            for h in elems[:4]:
                lhs = phi.apply(
                    bp.eval_term_elements(
                        ("mal", (("var", 0), ("var", 1), ("var", 2))), [f, g, h]
                    )
                )
                rhs = bp.eval_term_elements(
                    ("mal", (("var", 0), ("var", 1), ("var", 2))),
                    [phi.apply(f), phi.apply(g), phi.apply(h)],
                )
                assert lhs == rhs


def test_compose_semidirect_law():
    rng = random.Random(31)
    for _ in range(5):
        phi = random_automorphism(CTX4, rng)
        chi = random_automorphism(CTX4, rng)
        comp = phi.compose(chi)
        assert comp.homeo == phi.homeo.compose(chi.homeo)
        for f in witness_elements(CTX4)[:5]:
            assert comp.apply(f) == phi.apply(chi.apply(f))


def test_inverse_law():
    rng = random.Random(37)
    for _ in range(5):
        phi = random_automorphism(CTX4, rng)
        assert phi.compose(phi.inverse()).is_identity()
        assert phi.inverse().compose(phi).is_identity()


def _refuse(*args, **kwargs):
    raise AssertionError("compose/inverse went through the fiber route")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_compose_and_inverse_build_no_fiber(seed1, seed2, moves):
    # the labeling is pushed through the homeomorphism's normal form,
    # never one TailClopen fiber at a time through EPHomeo.apply
    phi = random_automorphism(CTX4, random.Random(seed1), moves)
    chi = random_automorphism(CTX4, random.Random(seed2), moves)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EPHomeo, "apply", _refuse)
        mp.setattr(TailClopen, "make", staticmethod(_refuse))
        comp = phi.compose(chi)
        inv = phi.inverse()
        assert inv.compose(phi).is_identity()
    assert comp.homeo == phi.homeo.compose(chi.homeo)
    assert inv.homeo == phi.homeo.inverse()


def test_section_identity():
    rng = random.Random(41)
    for _ in range(5):
        psi = random_point_fixing_homeo(CTX4.points, rng)
        assert ag.PowerAutomorphism.from_homeo(CTX4, psi).h_part() == psi


def test_p_injective_on_kernel():
    rng = random.Random(43)
    seen = []
    for _ in range(6):
        seen.append(random_labeling(CTX4, rng))
    for a in range(len(seen)):
        for b in range(a + 1, len(seen)):
            if seen[a] == seen[b]:
                continue
            f = ag.separating_element(seen[a], seen[b])
            assert f is not None
            pa = ag.PowerAutomorphism.from_labeling(seen[a])
            pb = ag.PowerAutomorphism.from_labeling(seen[b])
            assert pa.apply(f) != pb.apply(f)
    k = random_labeling(CTX4, rng)
    assert ag.separating_element(k, k) is None


def test_separating_element_on_three_points():
    # a complement cell holding x_2 and x_3 with different filters
    ctx = bp.make_context(GF4, (0, 1, 0))
    rng = random.Random(0)
    for _ in range(40):
        k1 = random_automorphism(ctx, rng, moves=1).labeling
        k2 = random_automorphism(ctx, rng, moves=1).labeling
        for a, b in ((k1, k2), (k2, k2)):
            f = ag.separating_element(a, b)
            if a == b:
                assert f is None
            else:
                assert a.act(f) != b.act(f)


def test_kernel_induced_point_action_trivial():
    rng = random.Random(47)
    k = random_labeling(CTX4, rng)
    phi = ag.PowerAutomorphism.from_labeling(k)
    assert phi.in_kernel()
    for m in k.labels_used():
        fib = k.fiber(m)
        assert isinstance(fib, TailClopen)


# --- characteristic automorphisms ---------------------------------------------


def test_characteristic_identity():
    c = TailClopen.from_clopen(CTX4.points, Clopen.make(["01"]))
    phi = ag.characteristic(CTX4, c, IDENT4)
    assert phi.is_identity()


def test_characteristic_frobenius_any_type():
    # Frobenius fixes both filter idempotents 0 and 1: always legal
    for tails in (("10", "0"), ("1", "0"), ("0", "01")):
        c = TailClopen.make(CTX4.points, 0, Clopen.empty(), tails)
        if c.is_empty():
            continue
        phi = ag.characteristic(CTX4, c, FROB)
        assert phi.in_kernel()


def test_characteristic_illegal_triple():
    # an automorphism moving an accumulated idempotent must be rejected;
    # a bare two-element set has a swap moving every idempotent
    bare = alg.make_algebra(2, [], [])
    mover = next(a for a in alg.automorphisms(bare) if a == (1, 0))
    ctx = bp.make_context(bare, (0,))
    c = TailClopen.make(ctx.points, 0, Clopen.empty(), ("10",))
    with pytest.raises(IllegalTriple):
        ag.characteristic(ctx, c, mover)


def test_characteristic_factors_recompose():
    rng = random.Random(53)
    for _ in range(6):
        k = random_labeling(CTX4, rng)
        factors = ag.characteristic_factors(k)
        assert len(factors) <= len(alg.automorphisms(GF4))
        prod = ag.PowerAutomorphism.identity(CTX4)
        for chi in factors:
            prod = prod.compose(chi)
        assert prod == ag.PowerAutomorphism.from_labeling(k)
        # factors commute pairwise (disjoint supports)
        for a in range(len(factors)):
            for b in range(len(factors)):
                assert factors[a].compose(factors[b]) == factors[b].compose(
                    factors[a]
                )


def test_constant_identity_factorization_empty():
    assert ag.characteristic_factors(ag.AutLabeling.identity(CTX4)) == []


# --- dense fiber pairs ----------------------------------------------------------


def kernel_char(ctx, c, a):
    return ag.characteristic(ctx, c, a)


@pytest.mark.parametrize(
    "tails,case",
    [(("0",), 1), (("1",), 2), (("10",), 3)],
)
def test_dense_fiber_pair_cases(tails, case):
    ctx = CTX4_1
    exc = Clopen.make(["11"]) if tails == ("0",) else Clopen.empty()
    c = TailClopen.make(ctx.points, 0, exc, tails)
    sigma, tau, got = ag.dense_fiber_pair(ctx, c, FROB)
    assert got == case
    chi = kernel_char(ctx, c, FROB)
    assert sigma.compose(tau.inverse()) == chi
    assert ag.fiber_types_dense(sigma)
    assert ag.fiber_types_dense(tau)
    for phi in (sigma, tau):
        for s in ag.stabilizer(GF4, 0):
            fib = phi.labeling.fiber(s)
            if not (fib.is_empty() or fib.is_full()):
                assert 1 in type_of(fib).ins


def test_dense_fiber_pair_identity_label():
    ctx = CTX4_1
    c = TailClopen.make(ctx.points, 0, Clopen.empty(), ("10",))
    sigma, tau, _ = ag.dense_fiber_pair(ctx, c, IDENT4)
    assert sigma == tau


def test_dense_fiber_pair_guards():
    with pytest.raises(NotSinglePoint):
        ag.dense_fiber_pair(
            CTX4, TailClopen.empty(CTX4.points), FROB
        )
    bare = alg.make_algebra(2, [], [])
    ctx = bp.make_context(bare, (0,))
    mover = next(a for a in alg.automorphisms(bare) if a == (1, 0))
    with pytest.raises(NotStabilizing):
        ag.dense_fiber_pair(ctx, TailClopen.empty(ctx.points), mover)
    # a clopen of another point context
    for pts in (PointContext(0), CTX4.points):
        c = TailClopen.from_clopen(pts, Clopen.make(["01"]))
        with pytest.raises(ContextMismatch):
            ag.dense_fiber_pair(CTX4_1, c, FROB)


@pytest.mark.parametrize("m", [(1, 0, 2, 3), (0, 0, 0, 0), (0, 1, 3)])
def test_non_automorphisms_are_refused(m):
    # each is refused by its membership in Aut A, before any other check
    c = TailClopen.from_clopen(CTX4_1.points, Clopen.make(["01"]))
    with pytest.raises(IllegalTriple, match="is not an automorphism"):
        ag.characteristic(CTX4_1, c, m)
    with pytest.raises(NotStabilizing):
        ag.dense_fiber_pair(CTX4_1, c, m)
    b = Clopen.make(["0"])
    with pytest.raises(NotAutomorphism):
        bp.restriction_iso(b, b, m, EPHomeo.identity(CTX4_1.points), CTX4_1)


# --- stabilizer containment ------------------------------------------------------


BLOCKS4 = [
    Clopen.make(["0"]),
    Clopen.make(["10"]),
    Clopen.make(["110"]),
    Clopen.make(["111"]),
]


def block_respecting_automorphism(rng):
    # kernel part with labels in the block stabilizers, homeo preserving blocks
    ctx = CTX4
    lab = random_labeling(ctx, rng)
    # restrict exceptional labels: force identity outside the two point blocks
    cells = []
    for w, m in lab.exc_cells:
        inside_pointed = Clopen.make([w]).is_subset(BLOCKS4[0]) or Clopen.make(
            [w]
        ).is_subset(BLOCKS4[1])
        cells.append((w, m if inside_pointed else IDENT4))
    k = ag.AutLabeling.make(ctx, lab.threshold, cells, lab.tails)
    gamma = random_block_preserving_homeo(ctx.points, rng)
    return ag.PowerAutomorphism.from_labeling(k).compose(
        ag.PowerAutomorphism.from_homeo(ctx, gamma)
    )


def test_block_family_is_constant_on_each_block():
    family = ag.block_family(CTX4, BLOCKS4)
    # the pointed blocks carry their filters, the other two any element
    assert [a for a, _ in family] == [
        (0, 1, c, d) for c in GF4.carrier for d in GF4.carrier
    ]
    for a, f in family:
        for b, v in zip(BLOCKS4, a):
            for w in b.words:
                for tail in ("0", "1", "01"):
                    assert f.value_at(EPSeq.make(w, tail)) == v


def test_stabilizer_containment_identity():
    res = ag.verify_stabilizer_containment(
        ag.PowerAutomorphism.identity(CTX4), BLOCKS4
    )
    assert res[0] == "decomposed"
    assert res[3]["recomposes"] and res[3]["blocks_preserved"] and res[3]["labels_ok"]


def test_stabilizer_containment_fixing_family():
    rng = random.Random(61)
    for _ in range(5):
        phi = block_respecting_automorphism(rng)
        res = ag.verify_stabilizer_containment(phi, BLOCKS4)
        assert res[0] == "decomposed"
        kappa, gamma, report = res[1], res[2], res[3]
        assert report["recomposes"] and report["blocks_preserved"]
        assert report["labels_ok"]
        assert kappa.compose(gamma) == phi


def test_stabilizer_containment_violation():
    rng = random.Random(67)
    # a homeomorphism mixing blocks 3 and 4 moves some test element
    mix = cell_swap(CTX4.points, "110", "1110")
    phi = ag.PowerAutomorphism.from_homeo(CTX4, mix)
    res = ag.verify_stabilizer_containment(phi, BLOCKS4)
    assert res[0] == "violated"
    a, fa = res[1], res[2]
    assert phi.apply(fa) != fa


def test_stabilizer_containment_orbit_guard():
    from boolpow.errors import OrbitCollision

    ctx = bp.make_context(alg.gf2_ring(), (0, 0))
    with pytest.raises(OrbitCollision):
        ag.verify_stabilizer_containment(
            ag.PowerAutomorphism.identity(ctx), BLOCKS4
        )


# ---------------------------------------------------------------------------
# the group laws, pointwise on drawn automorphisms and elements

GF2 = alg.gf2_ring()
LAW_CTXS = {
    "gf4-01": CTX4,
    "gf4-101": bp.make_context(GF4, (1, 0, 1)),
    "gf2-0": bp.make_context(GF2, (0,)),
    "gf2-000": bp.make_context(GF2, (0, 0, 0)),
}


@st.composite
def automorphisms(draw, ctx):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_automorphism(ctx, random.Random(seed), draw(st.integers(0, 3)))


@st.composite
def labeled_tiling(draw, prefix, size, depth, split):
    """(word, label) cells tiling cell(prefix), at most `depth` below it
    unless `split` asks for a deeper cut."""
    if not split(prefix) and (depth <= 0 or draw(st.integers(0, 2)) == 0):
        return [(prefix, draw(st.integers(0, size - 1)))]
    return draw(labeled_tiling(prefix + "0", size, depth - 1, split)) + draw(
        labeled_tiling(prefix + "1", size, depth - 1, split)
    )


@st.composite
def labelings(draw, ctx):
    """A labeling of threshold 0 to 2 whose region cells are cut up to two
    levels deeper, so that piece cells below the threshold are split."""
    auts = ctx.aut_mappings
    d = draw(st.integers(0, 2))
    cells = []
    for w in ctx.points.region(d).words:
        cells += draw(labeled_tiling(w, len(auts), 2, lambda w: False))
    tails = []
    for e in ctx.filters:
        stab = [m for m in auts if m[e] == e]
        tails.append(draw(st.lists(st.sampled_from(stab), min_size=1, max_size=3)))
    return ag.AutLabeling.make(ctx, d, [(w, auts[k]) for w, k in cells], tails)


@st.composite
def elements(draw, ctx):
    """An element of depth 0 to 3 on X; a cell holding two points with
    different filter values is always cut."""
    marked = list(zip(ctx.points.points(), ctx.filters))

    def split(w):
        return len({e for x, e in marked if x.startswith(w)}) > 1

    cells = draw(labeled_tiling("", ctx.algebra.size, draw(st.integers(0, 3)), split))
    for x, e in marked:
        cells = [(w, e if x.startswith(w) else a) for w, a in cells]
    return bp.PowerElement.make(ctx, cells)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_and_inverse_act_pointwise(data):
    ctx = LAW_CTXS[data.draw(st.sampled_from(sorted(LAW_CTXS)))]
    x = data.draw(automorphisms(ctx))
    y = data.draw(automorphisms(ctx))
    if data.draw(st.booleans()):
        x = ag.PowerAutomorphism.make(ctx, data.draw(labelings(ctx)), x.homeo)
    f = data.draw(elements(ctx))
    assert x.compose(y).apply(f) == x.apply(y.apply(f))
    assert x.inverse().apply(x.apply(f)) == f


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_labelings_form_a_group(data):
    ctx = LAW_CTXS[data.draw(st.sampled_from(sorted(LAW_CTXS)))]
    a, b, c = (data.draw(labelings(ctx)) for _ in range(3))
    one = ag.AutLabeling.identity(ctx)
    assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))
    assert a.multiply(one) == a == one.multiply(a)
    assert a.multiply(a.invert()).is_identity() and a.invert().multiply(a).is_identity()
