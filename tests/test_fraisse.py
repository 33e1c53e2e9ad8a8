import json
import random
import tracemalloc
from itertools import product
from types import SimpleNamespace

import pytest

from boolpow import algebra as alg
from boolpow import fraisse as fr
from boolpow import power as bp
from boolpow import serialize as ser
from boolpow.cantor import Clopen
from boolpow.errors import ArityOrder, NotEmbedding, SizeBudgetExceeded, SourceMismatch

RED = alg.gf2_idempotent_reduct()
GF2 = alg.gf2_ring()
CTX = bp.make_context(RED, (0, 1))

ID2 = (0, 1)


def emb(coords, u=1, algebra=RED):
    return fr.PowerEmbedding.make(algebra, u, coords)


def all_normal_embeddings(algebra, u, v):
    """All block-form embeddings A^u -> A^v: positive multiplicities per
    source plus idempotent multiplicities filling the rest."""
    idems = sorted(alg.idempotents(algebra))
    out = []

    def rec(j, left, ps):
        if j == u:
            for qs in _compositions(left, len(idems)):
                coords = []
                for jj, p in enumerate(ps):
                    coords += [("aut", tuple(range(algebra.size)), jj)] * p
                for e, q in zip(idems, qs):
                    coords += [("idem", e)] * q
                out.append(fr.PowerEmbedding.make(algebra, u, coords))
            return
        for p in range(1, left - (u - j - 1) + 1):
            rec(j + 1, left - p, ps + [p])

    rec(0, v, [])
    return out


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield []
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield [first] + rest


# --- embeddings and normal form ------------------------------------------------


FROB = (0, 1, 3, 2)


@pytest.mark.parametrize(
    "algebra,u,coords",
    [
        (RED, 0, [("idem", 1), ("idem", 0)]),
        (GF2, 2, [("aut", ID2, 1), ("idem", 0), ("aut", ID2, 0), ("aut", ID2, 1)]),
        (alg.gf4_idempotent_reduct(), 2, [("aut", FROB, 1), ("idem", 1), ("aut", (0, 1, 2, 3), 0)]),
    ],
    ids=["idempotents-only", "gf2-repeated-source", "gf4-frobenius"],
)
def test_embedding_json_roundtrip(algebra, u, coords):
    e = fr.PowerEmbedding.make(algebra, u, coords)
    obj = json.loads(json.dumps(ser.embedding_to_obj(e)))
    assert (obj["u"], obj["v"]) == (u, len(coords))
    back = ser.embedding_from_obj(algebra, obj)
    assert back == e and back.coords == e.coords


def test_embedding_eval():
    e = emb([("aut", ID2, 0), ("idem", 1), ("aut", ID2, 0)])
    assert e.eval((0,)) == (0, 1, 0)
    assert e.eval((1,)) == (1, 1, 1)


def test_embedding_requires_cover():
    with pytest.raises(NotEmbedding):
        emb([("idem", 0), ("idem", 1)])


def test_normal_form_identity():
    e = fr.PowerEmbedding.identity(RED, 1)
    nf = fr.normalize_embedding(e)
    assert nf.p == (1,)
    assert all(q == 0 for _, q in nf.q)


def test_normal_form_permutes():
    e = emb([("aut", ID2, 0), ("idem", 0), ("aut", ID2, 0)])
    nf = fr.normalize_embedding(e)
    assert nf.p == (2,)
    assert dict(nf.q)[0] == 1
    assert nf.adjust.compose(nf.normal) == e


def test_normal_form_counts_a_repeated_idempotent_once():
    e = emb([("aut", ID2, 0), ("idem", 0), ("idem", 1)])
    assert fr.normalize_embedding(e, [0, 1, 0]) == fr.normalize_embedding(e, [0, 1])


def test_normal_form_exhaustive_roundtrip():
    for e in all_normal_embeddings(RED, 2, 3):
        nf = fr.normalize_embedding(e)
        assert nf.adjust.compose(nf.normal) == e


# --- jep -----------------------------------------------------------------------


def test_jep_arities():
    m, e1, e2 = fr.jep(RED, 1, 1)
    assert m == 2 and e1.v == 2 and e2.v == 2
    # composed images intersect only where forced
    img1 = {e1.eval((a,)) for a in range(2)}
    img2 = {e2.eval((a,)) for a in range(2)}
    assert len(img1 & img2) <= 1


def test_jep_sum():
    m, _, _ = fr.jep(RED, 2, 3)
    assert m == 5


# --- amalgamation ----------------------------------------------------------------


def test_amalgamate_identity_pair():
    e = fr.PowerEmbedding.identity(RED, 1)
    m, p2, q2 = fr.amalgamate(e, e)
    assert m == 1
    assert p2.compose(e) == q2.compose(e)


def test_amalgamate_doubling_vs_constant():
    phi = emb([("aut", ID2, 0), ("aut", ID2, 0)], u=1, algebra=GF2)
    psi = emb([("aut", ID2, 0), ("idem", 0)], u=1, algebra=GF2)
    m, phi2, psi2 = fr.amalgamate(phi, psi)
    assert m == 3
    left = phi2.compose(phi)
    right = psi2.compose(psi)
    assert left == right
    for a in range(2):
        assert left.eval((a,)) == right.eval((a,))


def test_amalgamate_exhaustive_u_le_3():
    count = 0
    for u in (1, 2):
        for v in range(u, 4):
            for w in range(u, 4):
                for phi in all_normal_embeddings(RED, u, v):
                    for psi in all_normal_embeddings(RED, u, w):
                        m, phi2, psi2 = fr.amalgamate(phi, psi)
                        assert phi2.compose(phi) == psi2.compose(psi)
                        for a in product(range(2), repeat=u):
                            assert phi2.eval(phi.eval(a)) == psi2.eval(
                                psi.eval(a)
                            )
                        count += 1
    assert count > 50


def test_amalgamate_source_mismatch():
    with pytest.raises(SourceMismatch):
        fr.amalgamate(
            fr.PowerEmbedding.identity(RED, 1), fr.PowerEmbedding.identity(RED, 2)
        )


# --- embeddings into the power -----------------------------------------------


def stage_bp(depth=2):
    return fr.limit_chain(CTX, depth)[-1].bp


def test_chain_budget_sums_stage_cells():
    t0 = fr.first_stage_depth(CTX)
    chain = fr.limit_chain(CTX, 5)
    cells = sum(len(st.free_words) + CTX.n for st in chain)
    assert cells == sum(2**t for t in range(t0, 6))
    fr.check_chain_budget(CTX, 5, cells)
    with pytest.raises(SizeBudgetExceeded) as e:
        fr.check_chain_budget(CTX, 5, cells - 1)
    assert str(e.value) == f"a chain to depth 5 has more than {cells - 1} stage cells"
    # below the first stage the chain still has it
    fr.check_chain_budget(CTX, 0, 2**t0)
    with pytest.raises(SizeBudgetExceeded):
        fr.check_chain_budget(CTX, 0, 2**t0 - 1)
    # answered without forming 2^depth
    with pytest.raises(SizeBudgetExceeded):
        fr.check_chain_budget(CTX, 10**12, 200_000)


def test_first_stage_depth_closed_form():
    """The least t >= 1 where the points' level-t prefixes are distinct
    and leave a free level-t cell."""
    for n in range(13):
        ctx = bp.make_context(GF2, (0,) * n)
        t = 1
        while True:
            pts = {ctx.points.point(i).prefix(t) for i in range(1, n + 1)}
            words = {"".join(b) for b in product("01", repeat=t)}
            if len(pts) == n and words - pts:
                break
            t += 1
        assert fr.first_stage_depth(ctx) == t


def test_bp_embedding_eval_is_embedding():
    psi = stage_bp(2)
    vals = {}
    for a in product(range(2), repeat=psi.u):
        f = psi.eval(a)
        assert f not in vals.values()
        vals[a] = f
    # homomorphism in the ternary operation
    for a in list(vals)[:3]:
        for b in list(vals)[:3]:
            for c in list(vals)[:3]:
                want = tuple(
                    RED.apply_name("mal", x, y, z) for x, y, z in zip(a, b, c)
                )
                got = bp.eval_term_elements(
                    ("mal", (("var", 0), ("var", 1), ("var", 2))),
                    [vals[a], vals[b], vals[c]],
                )
                assert got == psi.eval(want)


def test_bp_embedding_image_is_power():
    psi = stage_bp(2)
    elems = [psi.eval(a) for a in product(range(2), repeat=psi.u)]
    sub, tuples, cells = bp.generated_subalgebra(elems)
    assert len(tuples) == 2 ** psi.u


# on CTX: one source cell 11 and the blocks 0 (holding x_1) and 10 (x_2)
BLOCKS = [Clopen.make(["0"]), Clopen.make(["10"])]


def bp_cells(*specs):
    return [(Clopen.make(words), m, j) for words, m, j in specs]


def test_bp_embedding_make_accepts_the_base_case():
    psi = fr.BPEmbedding.make(CTX, 1, bp_cells((["11"], ID2, 0)), BLOCKS)
    assert psi.multiplicities() == [1]


@pytest.mark.parametrize(
    "u, cells, blocks, message",
    [
        (1, [(["11"], ID2, 0)], BLOCKS[:1], "one block per distinguished point"),
        (1, [(["11"], (0, 0), 0)], BLOCKS, r"\(\(0, 0\), 0\)"),
        (1, [(["11"], ID2, 1)], BLOCKS, r"\(\(0, 1\), 1\)"),
        (1, [(["11"], ID2, 0)], BLOCKS[::-1], "block 1 misses its point"),
        (1, [(["11"], ID2, 0), (["110"], ID2, 0)], BLOCKS, "overlapping cells"),
        (1, [(["110"], ID2, 0)], BLOCKS, "do not tile X"),
        (2, [(["110"], ID2, 0), (["111"], ID2, 0)], BLOCKS, "source coordinate has no cell"),
    ],
    ids=[
        "block-count",
        "twist-not-automorphism",
        "source-out-of-range",
        "block-misses-point",
        "cells-overlap",
        "no-tiling",
        "source-without-cell",
    ],
)
def test_bp_embedding_make_rejects(u, cells, blocks, message):
    with pytest.raises(NotEmbedding, match=message):
        fr.BPEmbedding.make(CTX, u, bp_cells(*cells), blocks)


# --- weak homogeneity ------------------------------------------------------------


def test_extend_identity():
    psi = stage_bp(2)
    phi = fr.PowerEmbedding.identity(RED, psi.u)
    psi2 = fr.extend_weak_homogeneity(phi, psi)
    for a in product(range(2), repeat=psi.u):
        assert psi2.eval(a) == psi.eval(a)


def test_extend_diagonal():
    psi = stage_bp(2)
    u = psi.u
    coords = [("aut", ID2, j) for j in range(u)] + [("aut", ID2, 0)]
    phi = fr.PowerEmbedding.make(RED, u, coords)
    psi2 = fr.extend_weak_homogeneity(phi, psi)
    for a in product(range(2), repeat=u):
        assert psi2.eval(phi.eval(a)) == psi.eval(a)


def test_extend_with_idempotents():
    psi = stage_bp(2)
    u = psi.u
    coords = (
        [("aut", ID2, j) for j in range(u)]
        + [("idem", 0), ("idem", 1), ("aut", ID2, 1)]
    )
    phi = fr.PowerEmbedding.make(RED, u, coords)
    psi2 = fr.extend_weak_homogeneity(phi, psi)
    for a in product(range(2), repeat=u):
        assert psi2.eval(phi.eval(a)) == psi.eval(a)


def test_extend_arity_order():
    psi = stage_bp(2)
    phi = fr.PowerEmbedding.identity(RED, psi.u + 1)
    with pytest.raises((ArityOrder, SourceMismatch)):
        fr.extend_weak_homogeneity(phi, psi)


def test_extend_seeded_embeddings():
    rng = random.Random(13)
    chain = fr.limit_chain(CTX, 3)
    psi = chain[-1].bp
    idems = sorted(alg.idempotents(RED))
    for _ in range(10):
        u = psi.u
        extra = rng.randint(0, 2)
        coords = [("aut", ID2, j) for j in range(u)]
        for _ in range(extra):
            if rng.random() < 0.5:
                coords.append(("idem", rng.choice(idems)))
            else:
                coords.append(("aut", ID2, rng.randrange(u)))
        rng.shuffle(coords)
        try:
            phi = fr.PowerEmbedding.make(RED, u, coords)
        except NotEmbedding:
            continue
        psi2 = fr.extend_weak_homogeneity(phi, psi)
        for a in product(range(2), repeat=u):
            assert psi2.eval(phi.eval(a)) == psi.eval(a)


# --- limit chains -----------------------------------------------------------------


def test_chain_stage_one_gf2():
    ctx = bp.make_context(GF2, (0,))
    chain = fr.limit_chain(ctx, 1)
    st = chain[0]
    assert st.depth == 1
    assert st.bp.u == 1 and st.free_words == ("1",)
    img = {st.bp.eval((a,)) for a in range(2)}
    assert img == {
        bp.PowerElement.make(ctx, [("0", 0), ("1", a)]) for a in range(2)
    }


def test_chain_commutes_to_depth_4():
    chain = fr.limit_chain(CTX, 4)
    assert fr.chain_commutes(chain)


def test_chain_covers_depth_2():
    chain = fr.limit_chain(CTX, 2)
    assert fr.chain_covers(CTX, chain, 2)


def test_chain_covers_depth_3_gf2():
    ctx = bp.make_context(GF2, (0,))
    chain = fr.limit_chain(ctx, 3)
    assert fr.chain_covers(ctx, chain, 3)


def test_chain_covers_holds_elements_not_images():
    # 16,384 stage images kept in one set peak at about 15 MiB here; the
    # enumerated elements, whose subtrees are shared, take under 4 MiB
    chain = fr.limit_chain(CTX, 4)
    tracemalloc.start()
    try:
        assert fr.chain_covers(CTX, chain, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


# --- back and forth -----------------------------------------------------------------


def swapped_chain(depth, conjugate=True):
    """A second presentation whose stages read the source coordinates of
    their first two free cells exchanged: stage t is the canonical one
    after the coordinate swap s_t.  Each step is conjugated, s_(t+1) after
    step after s_t, so the squares still commute; with conjugate=False the
    canonical steps are kept and they do not."""
    stages = fr.limit_chain(CTX, depth)
    swaps, bps = [], []
    for st in stages:
        cells = list(st.bp.cells)
        swap = list(range(st.bp.u))
        if len(cells) >= 2:
            (c0, m0, j0), (c1, m1, j1) = cells[0], cells[1]
            cells[0], cells[1] = (c0, m0, j1), (c1, m1, j0)
            swap[j0], swap[j1] = j1, j0
        swaps.append(swap)
        bps.append(fr.BPEmbedding.make(st.bp.ctx, st.bp.u, cells, st.bp.blocks))
    out = []
    for s, st in enumerate(stages):
        step = st.step
        if conjugate and step is not None:
            coords = [step.coords[q] for q in swaps[s + 1]]
            coords = [
                (c[0], c[1], swaps[s][c[2]]) if c[0] == "aut" else c for c in coords
            ]
            step = fr.PowerEmbedding.make(step.algebra, step.u, coords)
        out.append(fr.ChainStage(st.depth, st.free_words, bps[s], step))
    return out


def test_swapped_chain_is_a_limit_chain():
    assert fr.chain_commutes(swapped_chain(5))
    assert not fr.chain_commutes(swapped_chain(5, conjugate=False))


def test_back_and_forth_identity():
    chain = fr.limit_chain(CTX, 4)
    trace = fr.back_and_forth(chain, chain, 3)
    assert trace[0].left == trace[0].right
    assert fr.trace_extends(trace)


def test_back_and_forth_depth_zero():
    chain = fr.limit_chain(CTX, 3)
    assert fr.back_and_forth(chain, chain, 0) == []


def _stage_trace(stage, seen):
    """A two-entry trace over one chain stage whose identity connector
    records the argument tuples trace_extends reads."""
    ident = fr.PowerEmbedding.identity(stage.bp.ctx.algebra, stage.bp.u)
    connector = SimpleNamespace(eval=lambda a: seen.append(tuple(a)) or ident.eval(a))
    return [
        fr.TraceStep("start", None, stage.bp, stage.bp),
        fr.TraceStep("forth", connector, stage.bp, stage.bp),
    ]


def test_trace_sample_is_the_old_slice():
    # u = 2, 6, 14 on gf2 and 2, 6 on gf4: all tuples up to 256, and every
    # 16th (4^6) and 64th (2^14) past that
    gf4 = bp.make_context(alg.gf4_idempotent_reduct(), (0, 1))
    for stage in fr.limit_chain(CTX, 4) + fr.limit_chain(gf4, 3):
        seen = []
        assert fr.trace_extends(_stage_trace(stage, seen))
        size, u = stage.bp.ctx.algebra.size, stage.bp.u
        tuples = list(product(range(size), repeat=u))
        if len(tuples) > fr.TRACE_SAMPLE:
            tuples = tuples[:: max(1, len(tuples) // fr.TRACE_SAMPLE)]
        assert seen == tuples


def test_trace_on_4_to_the_14_tuples_reads_only_its_sample():
    # the gf4 stage at depth 4 has u = 14: listing its 4^14 argument tuples
    # would take gigabytes
    gf4 = bp.make_context(alg.gf4_idempotent_reduct(), (0, 1))
    stage = fr.limit_chain(gf4, 4)[-1]
    assert stage.bp.u == 14
    seen = []
    assert fr.trace_extends(_stage_trace(stage, seen))
    assert len(seen) == fr.TRACE_SAMPLE
    # every 4^14 / 256 = 4^10-th tuple: the first four entries run through
    # all of A^4, in lexicographic order
    assert seen == [t + (0,) * 10 for t in product(range(4), repeat=4)]


def test_back_and_forth_cell_swap():
    chain1 = fr.limit_chain(CTX, 5)
    chain2 = swapped_chain(5)
    trace = fr.back_and_forth(chain1, chain2, 4)
    assert len(trace) >= 3
    assert fr.trace_extends(trace)
    # the swap is realized: the second entry's right side differs from the
    # canonical chain's stage at the same depth exactly on the swapped cells
    assert trace[1].right != chain1[1].bp or trace[0].right != chain1[0].bp