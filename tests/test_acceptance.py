"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its stated budget.  Run with `pytest -s
tests/test_acceptance.py` to see the line-per-criterion output."""

import random
import time
from itertools import product

from boolpow import algebra as alg
from boolpow import autgroup as ag
from boolpow import factorization as fz
from boolpow import fraisse as fr
from boolpow import freealg as fa
from boolpow import power as bp
from boolpow.cantor import (
    Clopen,
    PointContext,
    TailClopen,
    type_of,
)
from boolpow.errors import TypeMismatch
from boolpow.homeo import (
    cross_branch_involution,
    image_matches_on_sample,
)
from boolpow.rand import (
    random_automorphism,
    random_block_preserving_homeo,
    random_labeling,
    random_point_fixing_homeo,
    random_tailclopen,
    cell_swap,
)

RED = alg.gf2_idempotent_reduct()
GF2 = alg.gf2_ring()
GF4 = alg.gf4_idempotent_reduct()

CTX_RED = bp.make_context(RED, (0, 1))
CTX_GF4 = bp.make_context(GF4, (0, 1))


class Budget:
    def __init__(self, limit):
        self.limit = limit
        self.t0 = time.time()

    def done(self, number, label, ok=True):
        dt = time.time() - self.t0
        status = "pass" if ok and dt < self.limit else "FAIL"
        print(f"criterion {number:2d} [{label}] {status} ({dt:.2f}s / {self.limit}s)")
        assert ok, f"criterion {number} failed"
        assert dt < self.limit, f"criterion {number} exceeded {self.limit}s"


def test_criterion_01_algebra_hypotheses():
    b = Budget(1.0)
    a = RED
    ok = alg.is_simple(a)
    ok = ok and not alg.is_abelian(a, alg.find_malcev_term(a))
    ok = ok and alg.idempotents(a) == frozenset({0, 1})
    ok = ok and len(alg.automorphisms(a)) == 1
    proper = [s for s in alg.subalgebras(a) if len(s) < a.size]
    ok = ok and proper == [frozenset({0}), frozenset({1})]
    # independent oracle 1: exhaustive congruence enumeration
    ok = ok and all(
        c.is_full() or c.is_identity() for c in alg.all_congruences(a)
    )
    # independent oracle 2: diagonal-block criterion via exhaustive
    # congruence enumeration on the square
    sq = alg.direct_power(a, 2)
    diag = {0b00, 0b11}
    best = None
    for c in alg.all_congruences(sq):
        if all(c.related(0, d) for d in diag):
            if best is None or len(c.blocks()) > len(best.blocks()):
                best = c
    block = {x for x in sq.carrier if best.related(x, 0)}
    ok = ok and block != diag  # diagonal is not a block: non-abelian
    b.done(1, "algebra hypotheses", ok)


def test_criterion_02_congruence_correspondence():
    b = Budget(30.0)
    elems = [*bp.enumerate_elements(CTX_RED, 1), *bp.enumerate_elements(CTX_RED, 2)]
    ok = True
    for f in elems:
        for g in elems:
            eq = bp.equalizer(f, g)
            theta = bp.principal_congruence(f, g)
            ok = ok and theta.support == eq
            sub, tuples, cells = bp.generated_subalgebra([f, g])
            ref = bp.refine([f, g])
            fi = tuple(a for _, (a, _) in ref)
            gi = tuple(a for _, (_, a) in ref)
            if sub is None:
                ok = ok and fi == gi
                continue
            cong = alg.congruence_generated(
                sub, [(tuples.index(fi), tuples.index(gi))]
            )
            for ui, u in enumerate(tuples):
                for vi, v in enumerate(tuples):
                    same_on_b = all(
                        ua == va
                        for w, ua, va in zip(cells, u, v)
                        if Clopen.make([w]).is_subset(eq)
                    )
                    ok = ok and cong.related(ui, vi) == same_on_b
    b.done(2, "congruence correspondence", ok)


def _normal_embeddings(algebra, u, v):
    idems = sorted(alg.idempotents(algebra))
    ident = tuple(range(algebra.size))
    out = []

    def comps(total, parts):
        if parts == 0:
            if total == 0:
                yield []
            return
        for first in range(total + 1):
            for rest in comps(total - first, parts - 1):
                yield [first] + rest

    def rec(j, left, ps):
        if j == u:
            for qs in comps(left, len(idems)):
                coords = []
                for jj, p in enumerate(ps):
                    coords += [("aut", ident, jj)] * p
                for e, q in zip(idems, qs):
                    coords += [("idem", e)] * q
                out.append(fr.PowerEmbedding.make(algebra, u, coords))
            return
        for p in range(1, left - (u - j - 1) + 1):
            rec(j + 1, left - p, ps + [p])

    rec(0, v, [])
    return out


def test_criterion_03_amalgamation():
    b = Budget(60.0)
    ok = True
    checked = 0
    for u in (1, 2, 3):
        for v in range(u, 4):
            for w in range(u, 4):
                for phi in _normal_embeddings(RED, u, v):
                    for psi in _normal_embeddings(RED, u, w):
                        m, p2, q2 = fr.amalgamate(phi, psi)
                        ok = ok and p2.compose(phi) == q2.compose(psi)
                        for t in product(range(2), repeat=u):
                            ok = ok and p2.eval(phi.eval(t)) == q2.eval(
                                psi.eval(t)
                            )
                        checked += 1
    ok = ok and checked >= 100
    b.done(3, f"amalgamation ({checked} pairs)", ok)


def _seeded_bp_embedding(ctx, u, rng):
    """A random embedding of A^u into the power: random clopen partition
    with random twists of random source coordinates."""
    auts = alg.automorphisms(ctx.algebra)
    pctx = ctx.points
    blocks = []
    for i in range(1, pctx.n + 1):
        d = rng.randint(1, 2)
        blocks.append(Clopen.make([pctx.nbhd_word(i, d)]))
    rest = Clopen.all()
    for blk in blocks:
        rest = rest.difference(blk)
    cells = []
    words = list(rest.words)
    while len(words) < u + rng.randint(0, 2):
        w = words.pop(rng.randrange(len(words)))
        words += [w + "0", w + "1"]
    srcs = list(range(u)) + [
        rng.randrange(u) for _ in range(len(words) - u)
    ]
    rng.shuffle(srcs)
    for w, j in zip(words, srcs):
        cells.append((Clopen.make([w]), rng.choice(auts), j))
    return fr.BPEmbedding.make(ctx, u, cells, blocks)


def test_criterion_04_weak_homogeneity():
    b = Budget(60.0)
    rng = random.Random(2024)
    ok = True
    count = 0
    for u in (1, 2, 3):
        for v in range(u, 4):
            for phi in _normal_embeddings(RED, u, v):
                for _ in range(20):
                    psi = _seeded_bp_embedding(CTX_RED, u, rng)
                    psi2 = fr.extend_weak_homogeneity(phi, psi)
                    for t in product(range(2), repeat=u):
                        ok = ok and psi2.eval(phi.eval(t)) == psi.eval(t)
                    count += 1
    b.done(4, f"weak homogeneity ({count} extensions)", ok)


def test_criterion_05_semidirect_structure():
    b = Budget(60.0)
    rng = random.Random(55)
    ok = True
    # associativity on seeded triples, inverse law
    triples = [
        tuple(random_automorphism(CTX_GF4, rng, moves=1) for _ in range(3))
        for _ in range(100)
    ]
    for x, y, z in triples:
        ok = ok and x.compose(y).compose(z) == x.compose(y.compose(z))
    for x, _, _ in triples[:25]:
        ok = ok and x.compose(x.inverse()).is_identity()
    # section identity
    for _ in range(20):
        psi = random_point_fixing_homeo(CTX_GF4.points, rng, moves=2)
        ok = ok and ag.PowerAutomorphism.from_homeo(CTX_GF4, psi).h_part() == psi
    # p is a homomorphism on the kernel and injective at depth <= 3
    labelings = [random_labeling(CTX_GF4, rng) for _ in range(8)]
    for k1 in labelings[:4]:
        for k2 in labelings[:4]:
            lhs = ag.PowerAutomorphism.from_labeling(k1).compose(
                ag.PowerAutomorphism.from_labeling(k2)
            )
            ok = ok and lhs.labeling == k1.multiply(k2)
    for i in range(len(labelings)):
        for j in range(i + 1, len(labelings)):
            if labelings[i] == labelings[j]:
                continue
            f = ag.separating_element(labelings[i], labelings[j])
            pi = ag.PowerAutomorphism.from_labeling(labelings[i])
            pj = ag.PowerAutomorphism.from_labeling(labelings[j])
            ok = ok and f is not None and pi.apply(f) != pj.apply(f)
    # apply preserves the operations on exhaustive depth-2 elements
    phi = random_automorphism(CTX_GF4, rng, moves=1)
    elems = bp.enumerate_elements(CTX_GF4, 2)
    images = {f: phi.apply(f) for f in elems}
    term = ("mal", (("var", 0), ("var", 1), ("var", 2)))
    for f in elems:
        for g in elems:
            for h in elems:
                lhs = phi.apply(bp.eval_term_elements(term, [f, g, h]))
                rhs = bp.eval_term_elements(
                    term, [images[f], images[g], images[h]]
                )
                ok = ok and lhs == rhs
        if not ok:
            break
    mulred = random_automorphism(CTX_RED, rng, moves=1)
    elems_red = bp.enumerate_elements(CTX_RED, 2)
    img_red = {f: mulred.apply(f) for f in elems_red}
    for f in elems_red:
        for g in elems_red:
            lhs = mulred.apply(bp.apply_operation("mul", [f, g]))
            ok = ok and lhs == bp.apply_operation("mul", [img_red[f], img_red[g]])
    b.done(5, "semidirect structure", ok)


def test_criterion_06_isomorphisms():
    b = Budget(30.0)
    ctx1 = bp.make_context(GF2, (0,))
    elems3 = bp.enumerate_elements(ctx1, 3)
    seen = set()
    ok = True
    for f1 in elems3:
        for f2 in elems3:
            g = bp.product_iso(f1, f2)
            seen.add(g)
            ok = ok and bp.product_iso_split(g) == (f1, f2)
    glued = bp.make_context(GF2, (0, 0))
    ok = ok and len(seen) == len(bp.enumerate_elements(glued, 4))
    # homomorphism exhaustively at depth 2
    elems2 = bp.enumerate_elements(ctx1, 2)
    for f1 in elems2:
        for f2 in elems2:
            for g1 in elems2:
                for g2 in elems2:
                    lhs = bp.product_iso(
                        bp.apply_operation("add", [f1, g1]),
                        bp.apply_operation("add", [f2, g2]),
                    )
                    rhs = bp.apply_operation(
                        "add", [bp.product_iso(f1, f2), bp.product_iso(g1, g2)]
                    )
                    ok = ok and lhs == rhs
    # idempotent reduction witness on the doubled filter
    ctx = bp.make_context(GF2, (0, 0))
    red, iso = bp.reduce_idempotents(ctx)
    ok = ok and red.filters == (0,)
    elems = bp.enumerate_elements(ctx, 3)
    images = set()
    for f in elems:
        g = iso.forward(f)
        ok = ok and iso.backward(g) == f
        images.add(g)
    ok = ok and len(images) == len(elems)
    for f1, f2 in zip(elems[:10], elems[10:20]):
        ok = ok and iso.forward(
            bp.apply_operation("add", [f1, f2])
        ) == bp.apply_operation("add", [iso.forward(f1), iso.forward(f2)])
    b.done(6, "product and reduction isomorphisms", ok)


def test_criterion_07_free_algebra():
    b = Budget(120.0)
    ok = True
    for a in (RED, GF2):
        for k in (1, 2, 3):
            rpt = fa.verify_rank_factorization(a, k)
            ok = ok and rpt.ok()
    rep = fa.clone_generate(RED, 2)
    e = rep.generators[0]
    ctx, mapping, report = fa.kernel_class_power_iso(rep, e)
    ok = ok and report["injective"]
    ok = ok and report["class_size"] == 2 ** report["power_exponent"]
    ok = ok and fa.kernel_class_iso_is_homomorphism(rep, mapping)
    for k in (1, 2, 3):
        _, _, srpt = fa.loop_ring_split(GF2, k)
        ok = ok and srpt.ok()
    b.done(7, "free algebra decompositions", ok)


def test_criterion_08_types_and_orbits():
    b = Budget(60.0)
    from boolpow.homeo import orbit_witness

    rng = random.Random(88)
    ok = True
    count = 0
    for n in (1, 2):
        pctx = PointContext(n)
        pool = {}
        while count < (100 if n == 1 else 200):
            c = random_tailclopen(pctx, rng, max_threshold=1, max_period=2)
            if c.is_empty() or c.is_full():
                continue
            key = type_of(c)
            if key in pool and pool[key] != c:
                c1, c2 = pool[key], c
                h = orbit_witness(c1, c2)
                ok = ok and h.extends_to_X()
                ok = ok and h.apply(c1) == c2
                ok = ok and h.apply(c1.complement()) == c2.complement()
                ok = ok and image_matches_on_sample(h, c1, c2, depth=48)
                count += 1
            pool[key] = c
    # mismatched types rejected
    pctx = PointContext(1)
    c1 = TailClopen.from_clopen(pctx, Clopen.make(["01"]))
    c2 = TailClopen.make(pctx, 0, Clopen.empty(), ("10",))
    try:
        orbit_witness(c1, c2)
        ok = False
    except TypeMismatch:
        pass
    b.done(8, f"type orbits ({count} witnessed pairs)", ok)


def test_criterion_09_nonextendable_demo():
    b = Budget(30.0)
    pctx = PointContext(2)
    psi = cross_branch_involution(pctx)
    ok = not psi.extends_to_X()
    ok = ok and psi.compose(psi).is_identity()
    depth = 8
    # every neighbourhood of the first point: its image meets both
    # neighbourhoods of the distinguished points
    for d in range(1, depth - 1):
        near1 = near2 = 0
        for j in range(d, depth + 1):
            img = psi.apply(pctx.cell(1, j)).to_clopen()
            w = img.words[0]
            if w.startswith("0"):
                near1 += 1
            if w.startswith("10"):
                near2 += 1
        ok = ok and near1 > 0 and near2 > 0
    # determinism of the reported images
    ok = ok and psi.apply(pctx.cell(1, 2)).to_clopen() == pctx.cell(2, 2)
    ok = ok and psi.apply(pctx.cell(1, 3)).to_clopen() == pctx.cell(1, 3)
    b.done(9, "non-extendable homeomorphism demo", ok)


def test_criterion_10_factorization():
    b = Budget(120.0)
    ok = True
    count = 0
    for n in (1, 2):
        pctx = PointContext(n)
        rng = random.Random(500 + n)
        gp = fz.good_partition(pctx)
        for _ in range(50):
            sigma = random_point_fixing_homeo(pctx, rng, moves=2)
            i, j, (s1, s2, s3) = fz.pigeonhole_factor(sigma, gp)
            ok = ok and s3.compose(s2).compose(s1) == sigma
            ok = ok and fz.fixes_pointwise(s1, gp.blocks[i - 1])
            ok = ok and fz.fixes_pointwise(s2, gp.blocks[j - 1])
            ok = ok and fz.fixes_pointwise(s3, gp.blocks[i - 1])
            count += 1
            if not ok:
                break
    b.done(10, f"three-factor stabilizer split ({count} cases)", ok)


def test_criterion_11_characteristic_decomposition():
    b = Budget(60.0)
    rng = random.Random(311)
    ok = True
    auts = alg.automorphisms(GF4)
    for _ in range(30):
        k = random_labeling(CTX_GF4, rng)
        factors = ag.characteristic_factors(k)
        ok = ok and len(factors) <= len(auts)
        prod_ = ag.PowerAutomorphism.identity(CTX_GF4)
        for chi in factors:
            prod_ = prod_.compose(chi)
        ok = ok and prod_ == ag.PowerAutomorphism.from_labeling(k)
        for x in range(len(factors)):
            for y in range(len(factors)):
                ok = ok and factors[x].compose(factors[y]) == factors[y].compose(
                    factors[x]
                )
    # dense fiber pairs in all three support cases
    ctx1 = bp.make_context(GF4, (0,))
    frob = next(a for a in auts if a != tuple(range(4)))
    cases = [
        TailClopen.make(ctx1.points, 0, Clopen.make(["11"]), ("0",)),
        TailClopen.make(ctx1.points, 0, Clopen.empty(), ("1",)),
        TailClopen.make(ctx1.points, 0, Clopen.empty(), ("10",)),
    ]
    seen_cases = set()
    for c in cases:
        sigma, tau, case = ag.dense_fiber_pair(ctx1, c, frob)
        seen_cases.add(case)
        chi = ag.characteristic(ctx1, c, frob)
        ok = ok and sigma.compose(tau.inverse()) == chi
        ok = ok and ag.fiber_types_dense(sigma) and ag.fiber_types_dense(tau)
    ok = ok and seen_cases == {1, 2, 3}
    b.done(11, "characteristic decomposition", ok)


BLOCKS4 = [
    Clopen.make(["0"]),
    Clopen.make(["10"]),
    Clopen.make(["110"]),
    Clopen.make(["111"]),
]

IDENT4 = tuple(range(4))


def _family_fixing_automorphism(rng):
    ctx = CTX_GF4
    lab = random_labeling(ctx, rng)
    cells = []
    for w, m in lab.exc_cells:
        pointed = Clopen.make([w]).is_subset(BLOCKS4[0]) or Clopen.make(
            [w]
        ).is_subset(BLOCKS4[1])
        cells.append((w, m if pointed else IDENT4))
    k = ag.AutLabeling.make(ctx, lab.threshold, cells, lab.tails)
    gamma = random_block_preserving_homeo(ctx.points, rng)
    return ag.PowerAutomorphism.from_labeling(k).compose(
        ag.PowerAutomorphism.from_homeo(ctx, gamma)
    )


def test_criterion_12_stabilizer_containment():
    b = Budget(60.0)
    rng = random.Random(777)
    ok = True
    for _ in range(50):
        phi = _family_fixing_automorphism(rng)
        res = ag.verify_stabilizer_containment(phi, BLOCKS4)
        ok = ok and res[0] == "decomposed"
        if res[0] == "decomposed":
            kappa, gamma, report = res[1], res[2], res[3]
            ok = ok and report["recomposes"]
            ok = ok and report["blocks_preserved"]
            ok = ok and report["labels_ok"]
    mixers = [
        cell_swap(CTX_GF4.points, "110", "1110"),
        cell_swap(CTX_GF4.points, "1100", "1110"),
    ]
    for t in range(50):
        base = _family_fixing_automorphism(rng)
        phi = base.compose(
            ag.PowerAutomorphism.from_homeo(CTX_GF4, mixers[t % len(mixers)])
        )
        res = ag.verify_stabilizer_containment(phi, BLOCKS4)
        ok = ok and res[0] == "violated"
        if res[0] == "violated":
            a, fa_ = res[1], res[2]
            ok = ok and phi.apply(fa_) != fa_
    b.done(12, "stabilizer containment", ok)
