from itertools import product

import pytest

from boolpow import algebra as alg
from boolpow import freealg as fa
from boolpow import power as bp
from boolpow.errors import (
    NotIdempotentOnSk,
    NotLoopOrRing,
    PatternMismatch,
    SizeBudgetExceeded,
)

RED = alg.gf2_idempotent_reduct()
GF2 = alg.gf2_ring()
GF4 = alg.gf4_idempotent_reduct()


# --- clone generation ------------------------------------------------------------


def test_clone_reduct_rank1_trivial():
    rep = fa.clone_generate(RED, 1)
    assert len(rep.elements) == 1
    assert rep.elements[0].table == (0, 1)


def test_clone_gf2_rank1():
    rep = fa.clone_generate(GF2, 1)
    assert {f.table for f in rep.elements} == {(0, 0), (0, 1)}


def test_clone_projections_present():
    rep = fa.clone_generate(RED, 2)
    tables = rep.tables()
    for g in rep.generators:
        assert g.table in tables


def test_witness_terms():
    for a, k in ((RED, 2), (GF2, 2), (GF4, 1)):
        assert fa.witness_terms_check(fa.clone_generate(a, k))


def _outcome(fn):
    try:
        return ("ok", len(fn()))
    except SizeBudgetExceeded as e:
        return ("stop", str(e))


@pytest.mark.parametrize(
    "algebra, k", [(GF2, 1), (GF2, 2), (GF2, 3), (RED, 1), (RED, 2), (GF4, 1)]
)
def test_clone_budget_check_matches_the_closure(algebra, k, monkeypatch):
    """With the evaluation budget patched to each round's count, one
    below it, and a few member budgets, clone_generate stops with the same
    message as the closure of the projections, or both finish."""
    tuples = list(product(range(algebra.size), repeat=k))
    projections = [tuple(t[j] for t in tuples) for j in range(k)]
    arities = [a for _, a in algebra.signature if a]
    members = len(alg.pointwise_closure(algebra, projections, 10**6))
    rounds = [sum((i + 1) ** a for a in arities) * len(tuples) for i in range(members)]
    for evals in sorted({e + d for e in rounds[: k + 2] for d in (-1, 0)}):
        monkeypatch.setattr(alg, "CLOSURE_EVALS", evals)
        for budget in (1, k, k + 1, 8, 10**6):
            want = _outcome(lambda: alg.pointwise_closure(algebra, projections, budget))
            got = _outcome(lambda: fa.clone_generate(algebra, k, budget).elements)
            assert got == want, (evals, budget)


def test_clone_budget_stops_before_building(monkeypatch):
    """Rank 20 on gf2-ring reaches (20^2 + 20 + 20^2) * 2^20 evaluations
    by the end of member 19's round; the stop comes before the
    2^20-long projections are built."""

    def refuse(*args, **kwargs):
        raise AssertionError("projections built")

    monkeypatch.setattr(fa, "product", refuse)
    with pytest.raises(SizeBudgetExceeded, match=f"passed {alg.CLOSURE_EVALS} pointwise"):
        fa.clone_generate(GF2, 20)


def test_clone_restriction_to_tuple_is_generated_subalgebra():
    # the clone restricted to a single tuple gives exactly the subalgebra
    # generated by its entries
    rep = fa.clone_generate(RED, 2)
    for t in product(range(2), repeat=2):
        vals = {f.value(t, 2) for f in rep.elements}
        assert vals == set(alg.subalgebra_generated(RED, set(t)))


# --- transversals -----------------------------------------------------------------


def test_transversal_trivial_aut():
    assert fa.orbit_transversal(RED, 2) == list(product(range(2), repeat=2))


def test_transversal_gf4():
    reps = fa.orbit_transversal(GF4, 1)
    # orbits: {0}, {1}, {w, w+1} -> representatives 0, 1, w
    assert reps == [(0,), (1,), (2,)]


def test_transversal_restriction_property():
    for a in (RED, GF4):
        r2 = fa.orbit_transversal(a, 2)
        r1 = fa.orbit_transversal(a, 1)
        assert {t[:1] for t in r2} == set(r1)


def test_transversal_orbit_count():
    auts = alg.automorphisms(GF4)
    reps = fa.orbit_transversal(GF4, 2)
    # orbit counting: sum of orbit sizes equals |A|^2
    total = 0
    for t in reps:
        orbit = {tuple(a(x) for x in t) for a in auts}
        total += len(orbit)
    assert total == 16


def test_proper_tuples():
    assert fa.proper_tuples(RED, 1) == [(0,), (1,)]
    assert fa.proper_tuples(GF2, 1) == [(0,)]
    assert fa.proper_tuples(RED, 2) == [(0, 0), (1, 1)]


# --- kernel classes -----------------------------------------------------------------


def test_kernel_class_closed_under_ops():
    rep = fa.clone_generate(RED, 2)
    e = rep.generators[0]  # projection: idempotent-valued on S_2
    cls = fa.kernel_class(rep, e)
    tables = {f.table for f in cls}
    for f in cls:
        for g in cls:
            for h in cls:
                t = tuple(
                    RED.apply_name("mal", x, y, z)
                    for x, y, z in zip(f.table, g.table, h.table)
                )
                assert t in tables


def test_kernel_class_size_matches_power():
    rep = fa.clone_generate(RED, 2)
    e = rep.generators[0]
    cls = fa.kernel_class(rep, e)
    exponent = len(fa.orbit_transversal(RED, 2)) - len(fa.proper_tuples(RED, 2))
    assert len(cls) == 2 ** exponent


def test_kernel_class_rejects_nonidempotent():
    rep = fa.clone_generate(GF4, 1)
    bad = fa.TermFunction(1, (2, 1, 0, 3))  # value at (0,) is not idempotent
    with pytest.raises(NotIdempotentOnSk):
        fa.kernel_class(rep, bad)


# --- rank factorization ------------------------------------------------------------


@pytest.mark.parametrize("algebra,k", [(RED, 1), (RED, 2), (RED, 3), (GF2, 1), (GF2, 2), (GF2, 3)])
def test_rank_factorization(algebra, k):
    rpt = fa.verify_rank_factorization(algebra, k)
    assert rpt.ok(), rpt


def test_rank_factorization_exponent():
    rpt = fa.verify_rank_factorization(RED, 2)
    assert rpt.power_exponent == 2  # tuples (0,1) and (1,0)
    rpt2 = fa.verify_rank_factorization(GF2, 1)
    assert rpt2.power_exponent == 1  # the tuple (1)


# --- kernel class as truncated power ------------------------------------------------


def test_kernel_class_power_iso_red():
    rep = fa.clone_generate(RED, 2)
    # an idempotent pattern: 0 on the (0,0) side, 1 on the (1,1) side
    e = rep.generators[0]
    ctx, mapping, report = fa.kernel_class_power_iso(rep, e)
    assert report["injective"]
    assert report["filters"] == (0, 1)
    assert report["class_size"] == 2 ** report["power_exponent"]
    assert fa.kernel_class_iso_is_homomorphism(rep, mapping)


def test_kernel_class_power_iso_trivial_case():
    # rank 1 over the reduct: S_1 = R_1, the class is a single function
    rep = fa.clone_generate(RED, 1)
    e = rep.elements[0]
    ctx, mapping, report = fa.kernel_class_power_iso(rep, e)
    assert report["class_size"] == 1 and report["power_exponent"] == 0


def test_kernel_class_power_iso_pattern_mismatch():
    rep = fa.clone_generate(RED, 2)
    e = rep.generators[0]
    with pytest.raises(PatternMismatch):
        fa.kernel_class_power_iso(rep, e, expected_filters=(1, 0))


# --- loop/ring split ------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_loop_ring_split_gf2(k):
    N, H, report = fa.loop_ring_split(GF2, k)
    assert report.ok(), report


def test_loop_ring_split_rank1_shape():
    N, H, report = fa.loop_ring_split(GF2, 1)
    # S_1 = {(0)}: kernel functions vanish at 0; both clone members do
    assert report.kernel_size == 2
    assert report.complement_size == 1


def test_loop_ring_split_rejects_two_idempotents():
    with pytest.raises(NotLoopOrRing):
        fa.loop_ring_split(RED, 2)


def test_no_atoms_at_finite_rank():
    for a in (RED, GF2, GF4):
        for k in (1, 2):
            assert fa.no_atoms_at_rank(a, k)
