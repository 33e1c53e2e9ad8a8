import pytest

from boolpow import algebra as alg
from boolpow.errors import (
    ArityMismatch,
    DegenerateCarrier,
    NoMalcevTerm,
    OutOfRange,
)


def test_make_algebra_gf2_ring():
    a = alg.gf2_ring()
    assert a.size == 2
    assert a.apply_name("add", 1, 1) == 0
    assert a.apply_name("mul", 1, 1) == 1
    assert a.apply_name("zero") == 0


def test_make_algebra_reduct_arities():
    a = alg.gf2_idempotent_reduct()
    assert [r for _, r in a.signature] == [3, 2]
    assert a.apply_name("mal", 1, 1, 0) == 0


def test_make_algebra_rejects_short_row():
    with pytest.raises(ArityMismatch):
        alg.make_algebra(2, [("f", 2)], [(0,)])


def test_make_algebra_rejects_degenerate():
    with pytest.raises(DegenerateCarrier):
        alg.make_algebra(1, [], [])


def test_make_algebra_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        alg.make_algebra(2, [("f", 1)], [(0, 2)])


# --- Mal'cev term -----------------------------------------------------------


def bfs_only(a):
    # drop the hint so the closure search itself is exercised
    return alg.FiniteAlgebra(a.size, a.signature, a.tables)


def test_malcev_gf2_ring_by_search():
    t = alg.find_malcev_term(bfs_only(alg.gf2_ring()))
    assert t is not None
    assert alg._is_malcev_witness(alg.gf2_ring(), t)


def test_malcev_semilattice_absent():
    meet = alg.make_algebra(2, [("meet", 2)], [(0, 0, 0, 1)])
    assert alg.find_malcev_term(meet) is None


def test_malcev_group_term():
    g = alg.cyclic_group(3)
    t = alg.find_malcev_term(g)
    assert t is not None
    for x in range(3):
        for y in range(3):
            assert alg.eval_term(g, t, (x, x, y)) == y
            assert alg.eval_term(g, t, (y, x, x)) == y


def test_malcev_reduct_by_search():
    t = alg.find_malcev_term(bfs_only(alg.gf2_idempotent_reduct()))
    assert t is not None


# --- congruences ------------------------------------------------------------


def test_principal_congruence_z4():
    z4 = alg.zero_ring(4)
    # zero multiplication keeps Z4's ring congruences = subgroup congruences
    ring = alg.make_algebra(
        4,
        [("add", 2), ("neg", 1), ("mul", 2), ("zero", 0)],
        [
            alg._table(4, 2, lambda x, y: (x + y) % 4),
            alg._table(4, 1, lambda x: (-x) % 4),
            alg._table(4, 2, lambda x, y: (x * y) % 4),
            (0,),
        ],
    )
    c = alg.principal_congruence(ring, 0, 2)
    assert set(c.blocks()) == {frozenset({0, 2}), frozenset({1, 3})}
    assert not alg.is_simple(ring)
    assert not alg.is_simple(z4)


def test_principal_congruence_reflexive():
    a = alg.gf2_ring()
    assert alg.principal_congruence(a, 1, 1).is_identity()


def test_reduct_is_simple():
    assert alg.is_simple(alg.gf2_idempotent_reduct())


def test_principal_matches_bruteforce_small():
    for a in (alg.gf2_ring(), alg.gf2_idempotent_reduct(), alg.zero_ring(4)):
        congs = alg.all_congruences(a)
        for x in a.carrier:
            for y in a.carrier:
                got = alg.principal_congruence(a, x, y)
                least = None
                for c in congs:
                    if c.related(x, y):
                        if least is None or sum(
                            len(b) * len(b) for b in c.blocks()
                        ) < sum(len(b) * len(b) for b in least.blocks()):
                            least = c
                # least compatible equivalence containing (x,y) by brute force
                best = [
                    c
                    for c in congs
                    if c.related(x, y)
                    and all(
                        not d.related(x, y)
                        or all(
                            d.related(p, q) or not c.related(p, q)
                            for p in a.carrier
                            for q in a.carrier
                        )
                        for d in congs
                    )
                ]
                assert got in congs
                assert got.related(x, y)
                for d in congs:
                    if d.related(x, y):
                        # got must be below every congruence containing (x,y)
                        for p in a.carrier:
                            for q in a.carrier:
                                if got.related(p, q):
                                    assert d.related(p, q)


# --- idempotents, subalgebras, automorphisms --------------------------------


def test_reduct_idempotents_and_subalgebras():
    a = alg.gf2_idempotent_reduct()
    assert alg.idempotents(a) == frozenset({0, 1})
    subs = alg.subalgebras(a)
    proper = [s for s in subs if len(s) < a.size]
    assert proper == [frozenset({0}), frozenset({1})]


def test_gf2_ring_idempotents():
    assert alg.idempotents(alg.gf2_ring()) == frozenset({0})


def test_group_idempotent_is_identity():
    assert alg.idempotents(alg.cyclic_group(5)) == frozenset({0})


def test_reduct_trivial_automorphisms():
    auts = alg.automorphisms(alg.gf2_idempotent_reduct())
    assert len(auts) == 1
    assert auts[0].mapping == (0, 1)


def test_gf4_reduct_automorphisms():
    auts = alg.automorphisms(alg.gf4_idempotent_reduct())
    assert len(auts) == 2
    frob = [a for a in auts if a.mapping != (0, 1, 2, 3)][0]
    # squaring map: fixes 0,1 and swaps the two generators
    assert frob.mapping == (0, 1, 3, 2)


def test_automorphisms_form_group():
    auts = alg.automorphisms(alg.gf4_idempotent_reduct())
    maps = {a.mapping for a in auts}
    for a in auts:
        assert a.inverse().mapping in maps
        for b in auts:
            assert a.compose(b).mapping in maps
    assert tuple(range(4)) in maps


# --- abelianness ------------------------------------------------------------


def test_affine_z2_is_abelian():
    affine = alg.make_algebra(
        2, [("mal", 3)], [alg._table(2, 3, lambda x, y, z: (x + y + z) % 2)]
    )
    assert alg.is_abelian(affine)


def test_zero_ring_is_abelian():
    assert alg.is_abelian(alg.zero_ring(2))


def test_reduct_not_abelian():
    assert not alg.is_abelian(alg.gf2_idempotent_reduct())


def test_is_abelian_needs_malcev():
    meet = alg.make_algebra(2, [("meet", 2)], [(0, 0, 0, 1)])
    with pytest.raises(NoMalcevTerm):
        alg.is_abelian(meet)


# --- direct powers ----------------------------------------------------------


def test_direct_power_componentwise():
    a = alg.gf2_ring()
    sq = alg.direct_power(a, 2)
    assert sq.size == 4
    # (a1, a2) is the element 2 * a1 + a2 of the square
    s = sq.apply_name("add", 2, 3)  # (1, 0) + (1, 1)
    assert s == 1  # (0, 1)


def test_square_never_simple():
    for a in (alg.gf2_ring(), alg.gf2_idempotent_reduct()):
        assert not alg.is_simple(alg.direct_power(a, 2))


def test_power_one_isomorphic():
    a = alg.gf2_ring()
    p1 = alg.direct_power(a, 1)
    assert p1.tables == a.tables


def test_eval_term_arithmetic():
    a = alg.gf2_ring()
    t = ("add", (("add", (("var", 0), ("var", 1))), ("var", 2)))
    assert alg.eval_term(a, t, (1, 1, 0)) == 0


def test_idempotent_fixed_by_all_ops():
    for name in ("gf2-ring", "gf2-idempotent-reduct", "gf4-idempotent-reduct"):
        a = alg.builtin(name)
        for e in alg.idempotents(a):
            for k, (_, r) in enumerate(a.signature):
                assert a.apply(k, (e,) * r) == e
