"""Differential test of ``BPEmbedding`` against the list-of-clopens
representation kept here as the oracle: value cells as
``(Clopen, twist, source)`` triples and one ``Clopen`` block per
distinguished point, validated through the flat word list
(``prefix_overlap``, then ``Clopen.make(words).is_all()``) and evaluated
by listing every word into ``PowerElement.make``.  The oracle keeps the
readers of those lists too: ``chain_commutes``, ``_express_through_stage``,
``_embedding_depth``, ``extend_weak_homogeneity`` and ``back_and_forth``
around them, and the cell list that ``kernel_class_power_iso`` wrote out
by hand.

Inputs are clopen partitions of X into cells and blocks on
gf2-idempotent-reduct (filters 0, 1) and gf4-idempotent-reduct (filters
0, and 0, 1), with the cells shuffled, as drawn or with one defect: two
parts that overlap, a gap, a block missing its point, a twist that is
not an automorphism, a source out of range or a source with no cell.
Both makes must raise the same exception type with the same message, or
agree on ``eval`` at every argument, on ``multiplicities`` and on
``compose_power`` (by an automorphism-only embedding drawn through
``PowerEmbedding.make``) at every argument.  The one message allowed to
differ is the overlap: "cells overlap" became "overlapping cells".

On the limit chains to depth 5 and on ``test_fraisse.swapped_chain``,
both sides must give the same ``chain_commutes`` verdict, also after one
coordinate of a step is corrupted (then both are False), the same
``_express_through_stage`` result or error for every pair of a stage or
drawn embedding and a stage, and the same ``back_and_forth`` trace.
"""

from itertools import product
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import fraisse as fr
from boolpow import freealg as fa
from boolpow import power as bp
from boolpow.algebra import _comp, _ident
from boolpow.cantor import Clopen, point_in, split
from boolpow.errors import ArityOrder, ExtensionFailure, NotEmbedding, SourceMismatch
from boolpow.fraisse import PowerEmbedding, _inv, _invert_adjust, normalize_embedding
from boolpow.power import PowerElement

from test_fraisse import swapped_chain

RED = alg.gf2_idempotent_reduct()
GF4 = alg.gf4_idempotent_reduct()
CTXS = {
    "red-01": bp.make_context(RED, (0, 1)),
    "gf4-0": bp.make_context(GF4, (0,)),
    "gf4-01": bp.make_context(GF4, (0, 1)),
}
DEFECTS = ("none", "overlap", "gap", "block-point", "twist", "source", "no-cell")
OVERLAP = {"overlapping cells": "cells overlap"}


# ---------------------------------------------------------------------------
# oracle: BPEmbedding as lists of clopens and its readers


def prefix_overlap(words) -> bool:
    ordered = sorted(words)
    return any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))


class OldBPEmbedding:
    def __init__(self, ctx, u, cells, blocks):
        self.ctx, self.u, self.cells, self.blocks = ctx, u, cells, blocks

    @staticmethod
    def make(ctx, u, cells, blocks) -> "OldBPEmbedding":
        auts = ctx.aut_mappings
        cells = tuple((c, tuple(m), int(j)) for c, m, j in cells)
        blocks = tuple(blocks)
        if len(blocks) != ctx.points.n:
            raise NotEmbedding("one block per distinguished point")
        hit = set()
        words = []
        for c, m, j in cells:
            if m not in auts or not 0 <= j < u:
                raise NotEmbedding((m, j))
            words += list(c.words)
            hit.add(j)
        for i, b in enumerate(blocks, start=1):
            if not point_in(ctx.points.point(i), b):
                raise NotEmbedding(f"block {i} misses its point")
            words += list(b.words)
        if prefix_overlap(words):
            raise NotEmbedding("cells overlap")
        if not Clopen.make(words).is_all():
            raise NotEmbedding("cells and blocks do not tile X")
        if hit != set(range(u)):
            raise NotEmbedding("some source coordinate has no cell")
        return OldBPEmbedding(ctx, u, cells, blocks)

    def eval(self, a: Sequence[int]) -> PowerElement:
        out = []
        for c, m, j in self.cells:
            out += [(w, m[a[j]]) for w in c.words]
        for i, b in enumerate(self.blocks, start=1):
            out += [(w, self.ctx.filters[i - 1]) for w in b.words]
        return PowerElement.make(self.ctx, out)

    def multiplicities(self) -> list[int]:
        out = [0] * self.u
        for _, _, j in self.cells:
            out[j] += 1
        return out

    def compose_power(self, e: PowerEmbedding) -> "OldBPEmbedding":
        if e.v != self.u:
            raise SourceMismatch((e.v, self.u))
        cells = []
        for c, m, j in self.cells:
            d = e.coords[j]
            if d[0] != "aut":
                raise NotEmbedding("composition would need constant cells")
            cells.append((c, _comp(m, d[1]), d[2]))
        return OldBPEmbedding.make(self.ctx, e.u, cells, self.blocks)


def old_split_largest(cells, j):
    best = None
    for k, (c, m, jj) in enumerate(cells):
        if jj != j:
            continue
        mass = sum(2.0 ** -len(w) for w in c.words)
        key = (-mass, min(c.words))
        if best is None or key < best[0]:
            best = (key, k)
    if best is None:
        raise NotEmbedding(f"no cell for source {j}")
    k = best[1]
    c, m, jj = cells[k]
    c1, c2 = split(c)
    return cells[:k] + [(c1, m, jj), (c2, m, jj)] + cells[k + 1:]


def old_carve_block(b: Clopen, x) -> tuple[Clopen, Clopen]:
    avoid = [w for w in b.words if not x.startswith(w)]
    if avoid:
        w = min(avoid, key=lambda s: (len(s), s))
        piece = Clopen.make([w])
        return piece, b.difference(piece)
    w = next(w for w in b.words if x.startswith(w))
    piece = Clopen.make([w + "1"])
    return piece, b.difference(piece)


def old_extend_weak_homogeneity(phi: PowerEmbedding, psi: OldBPEmbedding) -> OldBPEmbedding:
    ctx = psi.ctx
    if phi.u > phi.v or phi.u != psi.u:
        raise ArityOrder((phi.u, phi.v, psi.u))
    idem_order = []
    for e in ctx.filters:
        if e not in idem_order:
            idem_order.append(e)
    nf = normalize_embedding(phi, idem_order=idem_order)
    u, v = phi.u, phi.v
    p = nf.p
    qpt = [0] * ctx.points.n
    qmap = dict(nf.q)
    for i in range(ctx.points.n):
        e = ctx.filters[i]
        if ctx.filters.index(e) == i:
            qpt[i] = qmap.get(e, 0)
    cells = list(psi.cells)
    mult = psi.multiplicities()
    for j in range(u):
        while mult[j] < p[j]:
            cells = old_split_largest(cells, j)
            mult[j] += 1

    def p_index(j, t):
        if t < p[j]:
            return sum(p[:j]) + t
        return sum(p[: j + 1]) - 1

    def q_index(i, t):
        return sum(p) + sum(qpt[:i]) + t

    counters = [0] * u
    new_cells = []
    for c, m, j in cells:
        t = counters[j]
        counters[j] += 1
        new_cells.append((c, m, p_index(j, t)))
    blocks = []
    ident = _ident(ctx.algebra.size)
    for i in range(ctx.points.n):
        b = psi.blocks[i]
        x = ctx.points.point(i + 1)
        for t in range(qpt[i]):
            piece, b = old_carve_block(b, x)
            new_cells.append((piece, ident, q_index(i, t)))
        blocks.append(b)
    psi2_normal = OldBPEmbedding.make(ctx, v, new_cells, blocks)
    psi2 = psi2_normal.compose_power(_invert_adjust(nf.adjust))
    for a in product(range(ctx.algebra.size), repeat=u):
        if psi2.eval(phi.eval(a)) != psi.eval(a):
            raise ExtensionFailure(a)
    return psi2


def old_chain_commutes(stages) -> bool:
    for s in range(len(stages) - 1):
        cur, nxt = stages[s], stages[s + 1]
        got = {}
        for c, m, j in nxt.bp.cells:
            coord = stages[s].step.coords[j]
            for w in c.words:
                got[w] = ("aut", m, coord[2]) if coord[0] == "aut" else (
                    "idem",
                    coord[1],
                )
        for i, b in enumerate(nxt.bp.blocks, start=1):
            for w in b.words:
                got[w] = ("pt", i)
        want = {}
        for c, m, j in cur.bp.cells:
            for w in c.words:
                for ch in "01":
                    want[w + ch] = ("aut", m, j)
        for i, b in enumerate(cur.bp.blocks, start=1):
            e = cur.bp.ctx.filters[i - 1]
            for w in b.words:
                nextpt = cur.bp.ctx.points.point(i).prefix(len(w) + 1)
                for ch in "01":
                    ww = w + ch
                    want[ww] = ("pt", i) if ww == nextpt else ("idem", e)
        if got != want:
            return False
    return True


def old_express_through_stage(g, stage) -> PowerEmbedding:
    ctx = g.ctx
    coords = [None] * stage.bp.u
    for c, m, k in stage.bp.cells:
        minv = _inv(m)
        for w in c.words:
            cell = Clopen.make([w])
            coord = None
            for cg, mg, jg in g.cells:
                if cell.is_subset(cg):
                    coord = ("aut", _comp(minv, mg), jg)
            for i, b in enumerate(g.blocks, start=1):
                if cell.is_subset(b):
                    coord = ("idem", minv[ctx.filters[i - 1]])
            if coord is None:
                raise ExtensionFailure(f"stage cell {w} straddles the partial iso")
            if coords[k] is None:
                coords[k] = coord
            elif coords[k] != coord:
                raise ExtensionFailure(f"stage source {k} constrained twice")
    for i, b in enumerate(stage.bp.blocks, start=1):
        if not b.is_subset(g.blocks[i - 1]):
            raise ExtensionFailure(f"stage block {i} leaves the partial iso block")
    return PowerEmbedding.make(ctx.algebra, g.u, coords)


def old_embedding_depth(g) -> int:
    words = [w for c, _, _ in g.cells for w in c.words]
    words += [w for b in g.blocks for w in b.words]
    return max(len(w) for w in words)


def old_back_and_forth(chain1, chain2, depth: int) -> list:
    if depth <= 0:
        return []
    left, right = chain1[0].bp, chain2[0].bp
    trace = [fr.TraceStep("start", None, left, right)]
    d1 = d2 = chain1[0].depth
    for k in range(depth - 1):
        if k % 2 == 0:
            need = max(old_embedding_depth(left), d1) + 1
            cand = [st for st in chain1 if st.depth >= need]
            if not cand:
                break
            stage = cand[0]
            rho = old_express_through_stage(left, stage)
            right = old_extend_weak_homogeneity(rho, right)
            left = stage.bp
            d1 = stage.depth
            trace.append(fr.TraceStep("forth", rho, left, right))
        else:
            need = max(old_embedding_depth(right), d2) + 1
            cand = [st for st in chain2 if st.depth >= need]
            if not cand:
                break
            stage = cand[0]
            rho = old_express_through_stage(right, stage)
            left = old_extend_weak_homogeneity(rho, left)
            right = stage.bp
            d2 = stage.depth
            trace.append(fr.TraceStep("back", rho, left, right))
    return trace


def old_split_region(base: Clopen, count: int) -> list[Clopen]:
    if count == 0:
        return []
    if count == 1:
        return [base]
    out = []
    rest = base
    for _ in range(count - 1):
        ws = sorted(rest.words, key=lambda s: (len(s), s))
        piece = Clopen.make([ws[0] + "0"])
        out.append(piece)
        rest = rest.difference(piece)
    out.append(rest)
    return out


def old_kernel_class_power_iso(rep, e, expected_filters: Optional[Sequence[int]] = None):
    A = rep.algebra
    k = rep.rank
    sk = fa.proper_tuples(A, k)
    cls = fa.kernel_class(rep, e)
    filters = []
    for t in sk:
        v = e.value(t, A.size)
        if v not in filters:
            filters.append(v)
    if expected_filters is not None and tuple(expected_filters) != tuple(filters):
        raise fa.PatternMismatch((tuple(expected_filters), tuple(filters)))
    ctx = bp.make_context(A, tuple(filters))
    n = len(filters)
    free = [t for t in fa.orbit_transversal(A, k) if t not in set(sk)]
    blocks = [Clopen.make(["1" * (i - 1) + "0"]) for i in range(1, n)]
    if n:
        last_region = Clopen.make(["1" * (n - 1)])
        pieces = old_split_region(last_region, len(free) + 1)
        x = ctx.points.point(n)
        holder = next(p for p in pieces if point_in(x, p))
        pieces = [p for p in pieces if p is not holder]
        blocks.append(holder)
    else:
        pieces = old_split_region(Clopen.all(), len(free))
    mapping = {}
    for f in cls:
        cells = []
        for i, b in enumerate(blocks, start=1):
            cells += [(w, filters[i - 1]) for w in b.words]
        for t, piece in zip(free, pieces):
            cells += [(w, f.value(t, A.size)) for w in piece.words]
        mapping[f] = PowerElement.make(ctx, cells)
    report = {
        "class_size": len(cls),
        "power_exponent": len(free),
        "injective": len(set(mapping.values())) == len(cls),
        "filters": tuple(filters),
    }
    return ctx, mapping, report


# ---------------------------------------------------------------------------
# comparison


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception itself is what is compared
        return (type(exc), OVERLAP.get(str(exc), str(exc)))


def parts(e):
    """An embedding of either side as (u, cells, blocks)."""
    return e.u, tuple(e.cells), tuple(e.blocks)


def made(out):
    """An outcome of either make, its embedding as parts."""
    return ("ok", parts(out[1])) if out[0] == "ok" else out


def as_old(stage: fr.ChainStage) -> fr.ChainStage:
    old = OldBPEmbedding.make(stage.bp.ctx, stage.bp.u, stage.bp.cells, stage.bp.blocks)
    return fr.ChainStage(stage.depth, stage.free_words, old, stage.step)


def trace_key(trace):
    if trace[0] != "ok":
        return trace
    return [(s.direction, s.connector, parts(s.left), parts(s.right)) for s in trace[1]]


# ---------------------------------------------------------------------------
# strategies


@st.composite
def tiling(draw, ctx):
    """Words tiling X, each holding at most one distinguished point."""
    pts = ctx.points.points()

    def cut(w):
        held = sum(x.startswith(w) for x in pts)
        if held > 1 or (len(w) < 4 and draw(st.integers(0, 2)) > 0):
            return cut(w + "0") + cut(w + "1")
        return [w]

    return cut("")


@st.composite
def embedding_inputs(draw, ctx, defects=DEFECTS):
    """(u, cells, blocks) for make: words of a tiling grouped into the
    blocks (the word holding each point and maybe more) and into cells
    carrying a drawn twist and source, shuffled, with one defect."""
    auts = ctx.aut_mappings
    words = draw(tiling(ctx))
    pts = ctx.points.points()
    block_words = [[next(w for w in words if x.startswith(w))] for x in pts]
    free = [w for w in words if not any(x.startswith(w) for x in pts)]
    free = draw(st.permutations(free))
    ncells = draw(st.integers(min(1, len(free)), len(free)))
    cell_words = [[w] for w in free[:ncells]]
    for w in free[ncells:]:
        if ncells and draw(st.booleans()):
            cell_words[draw(st.integers(0, ncells - 1))].append(w)
        else:
            block_words[draw(st.integers(0, ctx.n - 1))].append(w)
    u = draw(st.integers(min(1, ncells), ncells))
    srcs = list(range(u)) + [draw(st.integers(0, u - 1)) for _ in range(ncells - u)]
    twists = [draw(st.sampled_from(auts)) for _ in range(ncells)]
    defect = draw(st.sampled_from(defects))
    if defect == "overlap" and len(cell_words) + len(block_words) >= 2:
        groups = cell_words + block_words
        src = draw(st.integers(0, len(groups) - 1))
        dst = draw(st.sampled_from([g for g in range(len(groups)) if g != src]))
        w = draw(st.sampled_from(groups[src]))
        other = w + draw(st.sampled_from(["0", "1", "01"]))
        if w and draw(st.booleans()):
            other = w[: draw(st.integers(0, len(w) - 1))]
        groups[dst].append(other)
    elif defect == "gap":
        groups = [g for g in cell_words + block_words if g]
        g = draw(st.sampled_from(groups))
        del g[draw(st.integers(0, len(g) - 1))]
    elif defect == "block-point" and (cell_words or ctx.n >= 2):
        if cell_words:
            i = draw(st.integers(0, ctx.n - 1))
            w = block_words[i][0]
            inner = w + ("0" if pts[i].startswith(w + "0") else "1")
            outer = w + ("1" if inner.endswith("0") else "0")
            block_words[i][0] = outer
            cell_words[draw(st.integers(0, ncells - 1))].append(inner)
        else:
            block_words.reverse()
    elif defect == "twist" and ncells:
        bad = [(0,) * ctx.algebra.size, tuple(reversed(range(ctx.algebra.size)))]
        twists[draw(st.integers(0, ncells - 1))] = draw(st.sampled_from(bad))
    elif defect == "source" and ncells:
        srcs[draw(st.integers(0, ncells - 1))] = draw(st.sampled_from([-1, u, u + 2]))
    elif defect == "no-cell":
        u += 1
    cells = [(Clopen.make(ws), m, j) for ws, m, j in zip(cell_words, twists, srcs)]
    order = draw(st.permutations(range(len(cells))))
    blocks = [Clopen.make(ws) for ws in block_words]
    return u, [cells[k] for k in order], blocks


@st.composite
def power_embeddings(draw, algebra, v, idem=True):
    """An automorphism-only A^w -> A^v through PowerEmbedding.make, or,
    when idem, maybe one with a constant coordinate."""
    auts = [a.mapping for a in alg.automorphisms(algebra)]
    w = draw(st.integers(min(1, v), v))
    srcs = list(range(w)) + [draw(st.integers(0, w - 1)) for _ in range(v - w)]
    coords = [("aut", draw(st.sampled_from(auts)), j) for j in srcs]
    if idem and v > w and draw(st.booleans()):
        coords[-1] = ("idem", draw(st.sampled_from(sorted(alg.idempotents(algebra)))))
    order = draw(st.permutations(range(v)))
    return PowerEmbedding.make(algebra, w, [coords[k] for k in order])


# ---------------------------------------------------------------------------
# make, eval, multiplicities, compose_power


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_make_eval_compose_agree(data):
    ctx = CTXS[data.draw(st.sampled_from(sorted(CTXS)))]
    u, cells, blocks = data.draw(embedding_inputs(ctx))
    new = outcome(fr.BPEmbedding.make, ctx, u, cells, blocks)
    old = outcome(OldBPEmbedding.make, ctx, u, cells, blocks)
    if old[0] != "ok" or new[0] != "ok":
        assert new == old
        return
    new, old = new[1], old[1]
    assert parts(new) == parts(old)
    assert new.multiplicities() == old.multiplicities()
    size = ctx.algebra.size
    for a in product(range(size), repeat=u):
        assert new.eval(a) == old.eval(a)
    e = data.draw(power_embeddings(ctx.algebra, u))
    new_c = outcome(new.compose_power, e)
    old_c = outcome(old.compose_power, e)
    if old_c[0] != "ok" or new_c[0] != "ok":
        assert new_c == old_c
        return
    assert parts(new_c[1]) == parts(old_c[1])
    for b in product(range(size), repeat=e.u):
        assert new_c[1].eval(b) == old_c[1].eval(b)


@pytest.mark.parametrize("defect", DEFECTS[1:])
def test_each_defect_is_refused(defect):
    """Every defect is drawn, and each one refused by both makes."""

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def run(data):
        ctx = CTXS[data.draw(st.sampled_from(sorted(CTXS)))]
        u, cells, blocks = data.draw(embedding_inputs(ctx, (defect,)))
        new = outcome(fr.BPEmbedding.make, ctx, u, cells, blocks)
        assert made(new) == made(outcome(OldBPEmbedding.make, ctx, u, cells, blocks))
        refused.append(new[0] is NotEmbedding)

    refused = []
    run()
    assert any(refused)


# ---------------------------------------------------------------------------
# chains


CHAINS = {key: fr.limit_chain(ctx, 5) for key, ctx in CTXS.items()}
CHAINS["red-01-swapped"] = swapped_chain(5)
OLD_CHAINS = {key: [as_old(s) for s in chain] for key, chain in CHAINS.items()}


def corrupted(chain, s, k):
    """The chain with coordinate k of the step after stage s changed."""
    step = chain[s].step
    kind, *rest = step.coords[k]
    if kind == "aut":
        m, j = rest
        new = ("aut", m, (j + 1) % step.u) if step.u > 1 else ("idem", 0)
    else:
        new = ("idem", 1 - rest[0])
    coords = step.coords[:k] + (new,) + step.coords[k + 1:]
    bad = PowerEmbedding(step.algebra, step.u, coords)
    return chain[:s] + [fr.ChainStage(chain[s].depth, chain[s].free_words, chain[s].bp, bad)] + chain[s + 1:]


@pytest.mark.parametrize("key", sorted(CHAINS))
def test_chain_commutes_agrees(key):
    chain, old = CHAINS[key], OLD_CHAINS[key]
    for top in range(1, len(chain) + 1):
        assert fr.chain_commutes(chain[:top]) == old_chain_commutes(old[:top])
    assert fr.chain_commutes(chain) == (key != "red-01-swapped")
    for s in range(len(chain) - 1):
        for k in sorted({0, chain[s].step.v // 2, chain[s].step.v - 1}):
            assert not fr.chain_commutes(corrupted(chain, s, k))
            assert not old_chain_commutes(corrupted(old, s, k))


@pytest.mark.parametrize("key", sorted(CHAINS))
def test_express_through_stage_agrees_on_stages(key):
    chain, old = CHAINS[key], OLD_CHAINS[key]
    for g, g_old in zip(chain, old):
        for stage, stage_old in zip(chain, old):
            new = outcome(fr._express_through_stage, g.bp, stage)
            assert new == outcome(old_express_through_stage, g_old.bp, stage_old)
        assert fr._embedding_depth(g.bp) == old_embedding_depth(g_old.bp)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_express_through_stage_agrees_on_drawn_embeddings(data):
    key = data.draw(st.sampled_from(sorted(CHAINS)))
    chain, old = CHAINS[key], OLD_CHAINS[key]
    ctx = chain[0].bp.ctx
    u, cells, blocks = data.draw(embedding_inputs(ctx, ("none",)))
    g = fr.BPEmbedding.make(ctx, u, cells, blocks)
    g_old = OldBPEmbedding.make(ctx, u, cells, blocks)
    assert fr._embedding_depth(g) == old_embedding_depth(g_old)
    for stage, stage_old in zip(chain, old):
        new = outcome(fr._express_through_stage, g, stage)
        assert new == outcome(old_express_through_stage, g_old, stage_old)


@pytest.mark.parametrize(
    "first, second",
    [("red-01", "red-01"), ("red-01", "red-01-swapped"), ("red-01-swapped", "red-01")],
)
def test_back_and_forth_agrees(first, second):
    for depth in range(0, 6):
        new = outcome(fr.back_and_forth, CHAINS[first], CHAINS[second], depth)
        old = outcome(old_back_and_forth, OLD_CHAINS[first], OLD_CHAINS[second], depth)
        assert trace_key(new) == trace_key(old)


# ---------------------------------------------------------------------------
# kernel classes


@pytest.mark.parametrize(
    "algebra, rank",
    [(RED, 1), (RED, 2), (alg.gf2_ring(), 1), (alg.gf2_ring(), 2), (GF4, 1)],
    ids=["red-1", "red-2", "gf2-1", "gf2-2", "gf4-1"],
)
def test_kernel_class_power_iso_agrees(algebra, rank):
    rep = fa.clone_generate(algebra, rank)
    for e in rep.elements:
        new = outcome(fa.kernel_class_power_iso, rep, e)
        assert new == outcome(old_kernel_class_power_iso, rep, e)
