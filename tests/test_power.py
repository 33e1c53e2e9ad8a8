import pytest
from itertools import product

from boolpow import algebra as alg
from boolpow import power as bp
from boolpow.cantor import Clopen, Point, PointContext, point_in
from boolpow.errors import (
    ContextMismatch,
    EmptyRestriction,
    FilterViolation,
    IdempotentMismatch,
    SizeBudgetExceeded,
)
from boolpow.homeo import EPHomeo

GF2 = alg.gf2_ring()
RED = alg.gf2_idempotent_reduct()
GF4 = alg.gf4_idempotent_reduct()

CTX_GF2_1 = bp.make_context(GF2, (0,))
CTX_RED_2 = bp.make_context(RED, (0, 1))


def test_element_filter_enforced():
    # x_1 = 0^w sits in the cell "0": label must be the filter value 0
    f = bp.PowerElement.make(CTX_GF2_1, [("0", 0), ("1", 1)])
    assert f.value_at(Point.make("", "0")) == 0
    with pytest.raises(FilterViolation):
        bp.PowerElement.make(CTX_GF2_1, [("0", 1), ("1", 0)])


def test_element_canonical_merge():
    f = bp.PowerElement.make(CTX_GF2_1, [("00", 0), ("01", 0), ("1", 1)])
    assert f.cells == (("0", 0), ("1", 1))


def test_add_characteristic_two():
    f = bp.PowerElement.make(CTX_GF2_1, [("0", 0), ("1", 1)])
    s = bp.apply_operation("add", [f, f])
    assert s == bp.PowerElement.constant(CTX_GF2_1, 0)


def test_mul_idempotent_pointwise():
    f = bp.PowerElement.make(CTX_GF2_1, [("0", 0), ("10", 1), ("11", 0)])
    assert bp.apply_operation("mul", [f, f]) == f


def test_componentwise_on_samples():
    elems = bp.enumerate_elements(CTX_RED_2, 2)
    pts = [Point.make(w + "01", "01") for w in ("00", "01", "10", "11")]
    for f, g, h in [(elems[0], elems[1], elems[-1]), (elems[2], elems[3], elems[1])]:
        out = bp.eval_term_elements(
            ("mal", (("var", 0), ("var", 1), ("var", 2))), [f, g, h]
        )
        for x in pts:
            want = RED.apply_name("mal", f.value_at(x), g.value_at(x), h.value_at(x))
            assert out.value_at(x) == want


def test_equalizer_basics():
    f = bp.PowerElement.make(CTX_GF2_1, [("0", 0), ("1", 1)])
    zero = bp.PowerElement.constant(CTX_GF2_1, 0)
    assert bp.equalizer(f, f).is_all()
    assert bp.equalizer(f, zero) == Clopen.make(["0"])
    for i in range(1, CTX_GF2_1.points.n + 1):
        assert point_in(CTX_GF2_1.points.point(i), bp.equalizer(f, zero))


def test_congruence_lattice_fragment():
    y = Clopen.make(["0"])
    z = Clopen.make(["0", "10"])
    t1 = bp.PowerCongruence(CTX_GF2_1, y)
    t2 = bp.PowerCongruence(CTX_GF2_1, z)
    assert bp.congruence_meet(t1, t2).support == y.union(z)
    assert bp.congruence_join(t1, t2).support == y.intersect(z)
    # theta_X is the identity congruence: joining with it gives the other
    # congruence back, meeting with it gives theta_X itself
    full = bp.PowerCongruence(CTX_GF2_1, Clopen.all())
    assert bp.congruence_join(full, t1).support == t1.support
    assert bp.congruence_meet(full, t1).support.is_all()


def test_related_unfolds_definition():
    f = bp.PowerElement.make(CTX_GF2_1, [("0", 0), ("1", 1)])
    zero = bp.PowerElement.constant(CTX_GF2_1, 0)
    theta = bp.PowerCongruence(CTX_GF2_1, Clopen.make(["0"]))
    assert bp.related(theta, f, zero)
    theta_full = bp.PowerCongruence(CTX_GF2_1, Clopen.all())
    assert not bp.related(theta_full, f, zero)


def test_principal_congruence_vs_bruteforce_on_generated():
    # kernel-of-projection description agrees with congruence generation
    # inside the finite subalgebra generated by the pair
    elems = bp.enumerate_elements(CTX_RED_2, 2)
    for f, g in [(elems[0], elems[3]), (elems[1], elems[2])]:
        b = bp.equalizer(f, g)
        sub, tuples, cellwords = bp.generated_subalgebra([f, g])
        if sub is None:
            continue
        fi = tuples.index(tuple(a for _, (a, _) in bp.refine([f, g])))
        gi = tuples.index(tuple(a for _, (_, a) in bp.refine([f, g])))
        cong = alg.principal_congruence(sub, fi, gi)
        # brute force on the subalgebra: u ~ v iff they agree on the cells
        # inside the equalizer clopen
        for ui, u in enumerate(tuples):
            for vi, v in enumerate(tuples):
                same_on_b = all(
                    ua == va
                    for w, ua, va in zip(cellwords, u, v)
                    if Clopen.make([w]).is_subset(b)
                )
                assert cong.related(ui, vi) == same_on_b


def test_restrict_to_all_is_identity():
    dst, rmap = bp.restrict(CTX_GF2_1, Clopen.all())
    f = bp.PowerElement.make(CTX_GF2_1, [("0", 0), ("10", 1), ("11", 0)])
    assert dst.points.n == 1
    g = rmap.forward(f)
    assert rmap.backward(g) == f


def test_restrict_keeps_point():
    b = Clopen.make(["0"])  # contains x_1
    dst, rmap = bp.restrict(CTX_GF2_1, b)
    assert dst.points.n == 1 and dst.filters == (0,)
    f = bp.PowerElement.make(CTX_GF2_1, [("00", 0), ("01", 1), ("1", 1)])
    g = rmap.forward(f)
    assert g.value_at(Point.make("", "0")) == 0
    # homomorphism on samples
    h = bp.PowerElement.make(CTX_GF2_1, [("0", 0), ("1", 0)])
    s = bp.apply_operation("add", [f, h])
    assert rmap.forward(s) == bp.apply_operation("add", [g, rmap.forward(h)])


@pytest.mark.parametrize(
    "algebra, filters, words",
    [
        (GF2, (0, 0, 0), ["1"]),  # the word 1 holds x_2 and x_3
        (GF2, (0, 0, 0), [""]),
        (GF4, (0, 1, 0), ["1"]),
        (GF4, (0, 1, 0), ["01", "1"]),
        (GF4, (0, 1, 0), ["0"]),  # the complement 1 holds x_2 and x_3
        (GF4, (1, 0, 1), ["", "0"]),
    ],
    ids=["gf2-000-b1", "gf2-000-all", "gf4-010-b1", "gf4-010-b01-1", "gf4-010-b0",
         "gf4-101-all"],
)
def test_restrict_with_two_points_in_one_word(algebra, filters, words):
    ctx = bp.make_context(algebra, filters)
    b = Clopen.make(words)
    dst, rmap = bp.restrict(ctx, b)
    kept = [e for x, e in zip(ctx.points.points(), filters) if point_in(x, b)]
    assert dst.filters == tuple(kept)
    elems = bp.enumerate_elements(ctx, 3)
    for f in elems:
        assert rmap.backward(rmap.forward(f)).restrict(b) == f.restrict(b)
    # homomorphism on samples, in every operation
    for k, (op, arity) in enumerate(algebra.signature):
        for fs in zip(*[elems[t::7][:12] for t in range(arity)]):
            want = bp.apply_operation(op, [rmap.forward(f) for f in fs])
            assert rmap.forward(bp.apply_operation(op, list(fs))) == want


def test_complement_fill_carves_one_cell_per_point():
    ctx = bp.make_context(GF4, (0, 1, 0))
    fill = bp._complement_fill(ctx, Clopen.make(["1"]))
    # x_2 = 10^w needs 1 and x_3 = 110^w needs 0
    assert bp.PowerElement.make(ctx, [("0", 0)] + fill).cells == (
        ("0", 0),
        ("10", 1),
        ("11", 0),
    )


def test_restrict_without_points():
    b = Clopen.make(["11"])  # no distinguished point inside
    dst, rmap = bp.restrict(CTX_GF2_1, b)
    assert dst.points.n == 0
    f = bp.PowerElement.make(CTX_GF2_1, [("0", 0), ("10", 1), ("110", 0), ("111", 1)])
    g = rmap.forward(f)
    assert g.ctx.points.n == 0
    assert len(g.cells) == 2


def test_restrict_empty_raises():
    with pytest.raises(EmptyRestriction):
        bp.restrict(CTX_GF2_1, Clopen.empty())


def test_quotient_factors_through_restriction():
    b = Clopen.make(["0", "10"])
    theta = bp.PowerCongruence(CTX_GF2_1, b)
    dst, rmap = bp.restrict(CTX_GF2_1, b)
    for f in bp.enumerate_elements(CTX_GF2_1, 2):
        for g in bp.enumerate_elements(CTX_GF2_1, 2):
            assert bp.related(theta, f, g) == (rmap.forward(f) == rmap.forward(g))


# --- product gluing ----------------------------------------------------------


def test_product_iso_constants():
    ctx = CTX_GF2_1
    e = bp.PowerElement.constant(ctx, 0)
    g = bp.product_iso(e, e)
    assert g == bp.PowerElement.constant(g.ctx, 0)


def test_product_iso_bijective_homomorphism_depth2():
    ctx = CTX_GF2_1
    elems = bp.enumerate_elements(ctx, 2)
    seen = set()
    for f1 in elems:
        for f2 in elems:
            g = bp.product_iso(f1, f2)
            assert g not in seen
            seen.add(g)
            # homomorphism in both operations
            s = bp.product_iso(
                bp.apply_operation("add", [f1, f1]),
                bp.apply_operation("add", [f2, f2]),
            )
            assert s == bp.apply_operation("add", [g, g])
            assert bp.product_iso_split(g) == (f1, f2)
    # exactly the glued-depth-3 elements are hit
    glued = bp.make_context(GF2, (0, 0))
    assert len(seen) == len(bp.enumerate_elements(glued, 3))


# --- restriction isomorphism (automorphism twist between blocks) -------------


def test_restriction_iso_identity():
    ctx = CTX_GF2_1
    b = Clopen.make(["0"])
    iso = bp.restriction_iso(
        b, b, alg.identity_endomap(GF2), EPHomeo.identity(ctx.points), ctx
    )
    f = bp.PowerElement.make(CTX_GF2_1, [("00", 0), ("01", 1), ("1", 1)]).restrict(b)
    assert iso.forward(f) == f


def test_restriction_iso_frobenius():
    # two-point GF(4) power; twist block 1 onto block 2 through the swap
    ctx = bp.make_context(GF4, (0, 1))
    frob = [a for a in alg.automorphisms(GF4) if a.mapping != (0, 1, 2, 3)][0]
    # alpha(e_1)=alpha(0)=0 must equal e_2=1: mismatch expected
    b1, b2 = Clopen.make(["0"]), Clopen.make(["1"])
    swap = bp.swap_points_iso(ctx, 1)  # context-level helper sanity
    with pytest.raises(IdempotentMismatch):
        bp.restriction_iso(b1, b2, frob, _swap_homeo(ctx.points), ctx)


def _swap_homeo(pctx):
    from boolpow.cantor import Table
    from boolpow.homeo import TailPiece

    # exchange the branch structures of the two points, fix the off region
    return EPHomeo.make(
        pctx,
        [("11", "11")],
        [
            TailPiece(1, 1, 1, 2, 1, 1, Table.identity()),
            TailPiece(2, 1, 1, 1, 1, 1, Table.identity()),
        ],
    )


def test_restriction_iso_same_idempotent_swap():
    ctx = bp.make_context(GF2, (0, 0))
    b1, b2 = Clopen.make(["0"]), Clopen.make(["10"])
    h = _swap_homeo(ctx.points)
    iso = bp.restriction_iso(b1, b2, alg.identity_endomap(GF2), h, ctx)
    for f in bp.enumerate_elements(ctx, 2):
        r = f.restrict(b1)
        img = iso.forward(r)
        assert img.support == b2
        assert iso.backward(img) == r


# --- reduction to orbit representatives --------------------------------------


def test_reduce_two_equal_filters():
    ctx = bp.make_context(GF2, (0, 0))
    red, iso = bp.reduce_idempotents(ctx)
    assert red.points.n == 1 and red.filters == (0,)
    elems = bp.enumerate_elements(ctx, 3)
    images = set()
    for f in elems:
        g = iso.forward(f)
        assert g.ctx == red
        assert iso.backward(g) == f
        images.add(g)
    assert len(images) == len(elems)
    # homomorphism on generators
    for f1, f2 in zip(elems[:8], elems[8:16]):
        assert iso.forward(bp.apply_operation("add", [f1, f2])) == bp.apply_operation(
            "add", [iso.forward(f1), iso.forward(f2)]
        )


def test_reduce_keeps_distinct_orbits():
    red, iso = bp.reduce_idempotents(CTX_RED_2)
    assert red == CTX_RED_2
    f = bp.enumerate_elements(CTX_RED_2, 2)[1]
    assert iso.forward(f) == f


def test_reduce_gf4_three_filters():
    # GF(4) reduct: idempotents {0,1}, trivial orbits; (0,1,0) reduces to (0,1)
    ctx = bp.make_context(GF4, (0, 1, 0))
    red, iso = bp.reduce_idempotents(ctx)
    assert red.filters == (0, 1)
    f = bp.enumerate_elements(ctx, 3)[5]
    g = iso.forward(f)
    assert g.ctx == red and iso.backward(g) == f


# --- generated subalgebras ----------------------------------------------------


def test_generated_subalgebra_constant():
    e = bp.PowerElement.constant(CTX_GF2_1, 0)
    sub, tuples, cells = bp.generated_subalgebra([e])
    assert tuples == [(0,)]
    assert sub is None


def test_generated_subalgebra_depth2():
    elems = bp.enumerate_elements(CTX_GF2_1, 2)
    gens = [elems[1], elems[2]]
    sub, tuples, cells = bp.generated_subalgebra(gens)
    assert sub is not None
    # closed under the operations and a subdirect power: every projection
    # lands in a subalgebra of A
    for pos in range(len(cells)):
        img = {t[pos] for t in tuples}
        assert img in (set(GF2.carrier), {0})
    k = sub.op_index("add")
    for i, t in enumerate(tuples):
        for j, u in enumerate(tuples):
            want = tuple(GF2.apply_name("add", a, b) for a, b in zip(t, u))
            assert tuples[sub.apply(k, (i, j))] == want


def test_enumerate_elements_counts():
    assert len(bp.enumerate_elements(CTX_GF2_1, 2)) == 2 ** 3
    assert len(bp.enumerate_elements(CTX_RED_2, 2)) == 2 ** 2
    assert len(bp.enumerate_elements(bp.make_context(GF4, ()), 1)) == 16


def test_element_count_without_enumerating():
    # gf2-ring, one point: 2^6 level-6 cells, one forced, 2^63 elements
    assert bp.element_count(CTX_GF2_1, 6) == 2**63
    for ctx, depth in [(CTX_GF2_1, 3), (CTX_RED_2, 0), (CTX_RED_2, 2)]:
        assert bp.element_count(ctx, depth) == len(bp.enumerate_elements(ctx, depth))


def test_check_element_budget_arithmetic():
    # gf2-ring, one point, depth 3: 2^(8 - 1) elements
    bp.check_element_budget(CTX_GF2_1, 3, 128)
    with pytest.raises(SizeBudgetExceeded):
        bp.check_element_budget(CTX_GF2_1, 3, 127)
    # 2^63 elements, and a depth too large to count
    for depth in (6, 10**6):
        with pytest.raises(SizeBudgetExceeded):
            bp.check_element_budget(CTX_GF2_1, depth, 200_000)
