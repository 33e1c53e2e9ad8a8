"""Embeddings between finite powers of the base algebra in coordinate
normal form, joint embedding, amalgamation with explicit multiplicities,
embeddings into the filtered power, weak-homogeneity extension, stagewise
limit chains, and finite back-and-forth traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional, Sequence

from . import algebra as alg
from .algebra import FiniteAlgebra, Mapping, _comp, _ident, _inv
from .cantor import Clopen, _map, _words, build, point_in, point_leaves, split, subtree
from .errors import (
    ArityOrder,
    ExtensionFailure,
    FilterViolation,
    NotEmbedding,
    SizeBudgetExceeded,
    SourceMismatch,
)
from .power import PowerContext, PowerElement, _forced_cells, enumerate_elements


@dataclass(frozen=True)
class PowerEmbedding:
    """A^u -> A^v, coordinatewise: each target coordinate is either an
    automorphism applied to a source coordinate or a constant idempotent."""

    algebra: FiniteAlgebra
    u: int
    coords: tuple  # ("aut", mapping, j) or ("idem", e)

    @staticmethod
    def make(algebra, u, coords) -> "PowerEmbedding":
        coords = tuple(
            ("aut", tuple(c[1]), int(c[2])) if c[0] == "aut" else ("idem", int(c[1]))
            for c in coords
        )
        auts = set(alg.automorphisms(algebra))
        idems = alg.idempotents(algebra)
        hit = set()
        for c in coords:
            if c[0] == "aut":
                if c[1] not in auts:
                    raise NotEmbedding(f"{c[1]} is not an automorphism")
                if not 0 <= c[2] < u:
                    raise NotEmbedding(f"source index {c[2]} out of range")
                hit.add(c[2])
            else:
                if c[1] not in idems:
                    raise NotEmbedding(f"{c[1]} is not an idempotent")
        if hit != set(range(u)):
            raise NotEmbedding("automorphism coordinates must cover the source")
        return PowerEmbedding(algebra, u, coords)

    @property
    def v(self) -> int:
        return len(self.coords)

    @staticmethod
    def identity(algebra, u) -> "PowerEmbedding":
        e = _ident(algebra.size)
        return PowerEmbedding.make(
            algebra, u, [("aut", e, j) for j in range(u)]
        )

    def eval(self, a: Sequence[int]) -> tuple[int, ...]:
        out = []
        for c in self.coords:
            if c[0] == "aut":
                out.append(c[1][a[c[2]]])
            else:
                out.append(c[1])
        return tuple(out)

    def compose(self, first: "PowerEmbedding") -> "PowerEmbedding":
        """self o first."""
        if first.v != self.u:
            raise SourceMismatch((first.v, self.u))
        coords = []
        for c in self.coords:
            if c[0] == "idem":
                coords.append(c)
                continue
            _, m, j = c
            d = first.coords[j]
            if d[0] == "aut":
                coords.append(("aut", _comp(m, d[1]), d[2]))
            else:
                coords.append(("idem", m[d[1]]))
        return PowerEmbedding(self.algebra, first.u, tuple(coords))


@dataclass(frozen=True)
class NormalForm:
    """emb = adjust o block-form: the block form repeats each source
    coordinate p_j times and appends constant idempotent blocks."""

    p: tuple[int, ...]
    q: tuple[tuple[int, int], ...]  # (idempotent, multiplicity) in order
    normal: PowerEmbedding
    adjust: PowerEmbedding  # automorphism of A^v


def normalize_embedding(
    emb: PowerEmbedding, idem_order: Optional[Sequence[int]] = None
) -> NormalForm:
    A = emb.algebra
    if idem_order is None:
        idem_order = sorted(alg.idempotents(A))
    p = [0] * emb.u
    q = {e: 0 for e in idem_order}
    for c in emb.coords:
        if c[0] == "aut":
            p[c[2]] += 1
        else:
            if c[1] not in q:
                raise NotEmbedding(f"idempotent {c[1]} outside the block order")
            q[c[1]] += 1
    if any(x == 0 for x in p):
        raise NotEmbedding("some source coordinate is never hit")
    ident = _ident(A.size)
    normal_coords = []
    slots: dict = {}
    for j in range(emb.u):
        slots[("aut", j)] = []
        for _ in range(p[j]):
            slots[("aut", j)].append(len(normal_coords))
            normal_coords.append(("aut", ident, j))
    for e in idem_order:
        slots[("idem", e)] = []
        for _ in range(q[e]):
            slots[("idem", e)].append(len(normal_coords))
            normal_coords.append(("idem", e))
    normal = PowerEmbedding(A, emb.u, tuple(normal_coords))
    used = {k: 0 for k in slots}
    adj_coords = [None] * emb.v
    for i, c in enumerate(emb.coords):
        key = ("aut", c[2]) if c[0] == "aut" else ("idem", c[1])
        pos = slots[key][used[key]]
        used[key] += 1
        delta = c[1] if c[0] == "aut" else ident
        adj_coords[i] = ("aut", delta, pos)
    adjust = PowerEmbedding(A, emb.v, tuple(adj_coords))
    nf = NormalForm(
        tuple(p), tuple((e, q[e]) for e in idem_order), normal, adjust
    )
    if adjust.compose(normal) != emb:
        raise AssertionError("normal form reconstruction failed")
    return nf


def _invert_adjust(adjust: PowerEmbedding) -> PowerEmbedding:
    v = adjust.v
    coords = [None] * v
    for i, c in enumerate(adjust.coords):
        _, m, k = c
        coords[k] = ("aut", _inv(m), i)
    return PowerEmbedding(adjust.algebra, v, tuple(coords))


def jep(algebra, u: int, w: int):
    """Joint embedding of A^u and A^w into A^(u+w) by concatenation."""
    if u < 1 or w < 1:
        raise SourceMismatch((u, w))
    e = _ident(algebra.size)
    m = u + w
    e1 = PowerEmbedding.make(
        algebra,
        u,
        [("aut", e, j) for j in range(u)]
        + [("idem", min(alg.idempotents(algebra))) for _ in range(w)],
    )
    e2 = PowerEmbedding.make(
        algebra,
        w,
        [("idem", min(alg.idempotents(algebra))) for _ in range(u)]
        + [("aut", e, j) for j in range(w)],
    )
    return m, e1, e2


def amalgamate(phi: PowerEmbedding, psi: PowerEmbedding):
    """Embeddings phi': A^v -> A^m and psi': A^w -> A^m with
    phi' o phi = psi' o psi, by taking coordinatewise maxima of the
    normal-form multiplicities."""
    if phi.algebra != psi.algebra or phi.u != psi.u:
        raise SourceMismatch("amalgamation needs a common source")
    A = phi.algebra
    nphi, npsi = normalize_embedding(phi), normalize_embedding(psi)
    u = phi.u
    idems = [e for e, _ in nphi.q]
    qphi = dict(nphi.q)
    qpsi = dict(npsi.q)
    v_i = [max(nphi.p[j], npsi.p[j]) for j in range(u)]
    w_e = {e: max(qphi[e], qpsi[e]) for e in idems}
    m = sum(v_i) + sum(w_e.values())

    def build(nf: NormalForm) -> PowerEmbedding:
        ident = _ident(A.size)
        coords = []
        pos = 0
        for j in range(u):
            block = nf.p[j]
            for t in range(block):
                mult = v_i[j] - block + 1 if t == 0 else 1
                coords += [("aut", ident, pos)] * mult
                pos += 1
            assert block >= 1
        for e, block in nf.q:
            if block == 0:
                coords += [("idem", e)] * w_e[e]
                continue
            for t in range(block):
                mult = w_e[e] - block + 1 if t == 0 else 1
                coords += [("aut", ident, pos)] * mult
                pos += 1
        return PowerEmbedding.make(A, nf.normal.v, coords)

    phi2 = build(nphi).compose(_invert_adjust(nphi.adjust))
    psi2 = build(npsi).compose(_invert_adjust(npsi.adjust))
    if phi2.compose(phi) != psi2.compose(psi):
        raise AssertionError("amalgamation square does not commute")
    return m, phi2, psi2


# ---------------------------------------------------------------------------
# embeddings into the filtered power


@dataclass(frozen=True)
class BPEmbedding:
    """A^u -> D: a clopen partition of X into value cells (carrying an
    automorphism twist of one source coordinate) and one block per
    distinguished point carrying its filter idempotent.

    Stored as one canonical labeled tree: leaf k on value cell k, whose
    twist and source are twists[k] = (m, j), and leaf -i on block i.
    """

    ctx: PowerContext
    u: int
    twists: tuple[tuple[Mapping, int], ...]
    tree: object

    @staticmethod
    def make(ctx, u, cells, blocks) -> "BPEmbedding":
        """NotEmbeddings come in this order: the block count, a twist or
        source out of range, a block missing its point, parts that overlap
        or do not tile X, a source with no cell."""
        auts = ctx.aut_mappings
        cells = tuple(cells)
        twists = tuple((tuple(m), int(j)) for _, m, j in cells)
        blocks = tuple(blocks)
        if len(blocks) != ctx.points.n:
            raise NotEmbedding("one block per distinguished point")
        for m, j in twists:
            if m not in auts or not 0 <= j < u:
                raise NotEmbedding((m, j))
        for i, b in enumerate(blocks, start=1):
            if not point_in(ctx.points.point(i), b):
                raise NotEmbedding(f"block {i} misses its point")
        parts = [(w, k) for k, (c, _, _) in enumerate(cells) for w in c.words]
        parts += [(w, -i) for i, b in enumerate(blocks, start=1) for w in b.words]
        try:
            tree = build(parts, untiled="cells and blocks do not tile X")
        except ValueError as e:
            raise NotEmbedding(str(e)) from None
        if {j for _, j in twists} != set(range(u)):
            raise NotEmbedding("some source coordinate has no cell")
        return BPEmbedding(ctx, u, twists, tree)

    def _part(self, leaf) -> Clopen:
        """The clopen where the tree carries the leaf."""
        return Clopen(_map(lambda k: k == leaf, self.tree))

    @property
    def cells(self) -> tuple[tuple[Clopen, Mapping, int], ...]:
        return tuple((self._part(k), m, j) for k, (m, j) in enumerate(self.twists))

    @property
    def blocks(self) -> tuple[Clopen, ...]:
        return tuple(self._part(-i) for i in range(1, self.ctx.n + 1))

    @cached_property
    def _point_leaves(self) -> list:
        """The leaf at each distinguished point, in point order."""
        return point_leaves(self.tree, self.ctx.n)

    def eval(self, a: Sequence[int]) -> PowerElement:
        # leaf -i reads the filter of point i from the end of the labels
        labels = [m[a[j]] for m, j in self.twists] + list(self.ctx.filters[::-1])
        for i, (k, e) in enumerate(zip(self._point_leaves, self.ctx.filters), start=1):
            if labels[k] != e:
                raise FilterViolation(f"value at point {i} must be {e}")
        return PowerElement(self.ctx, _map(labels.__getitem__, self.tree))

    def multiplicities(self) -> list[int]:
        return [sum(j == s for _, j in self.twists) for s in range(self.u)]

    def compose_power(self, e: PowerEmbedding) -> "BPEmbedding":
        """self o e for an automorphism-only power embedding."""
        if e.v != self.u:
            raise SourceMismatch((e.v, self.u))
        coords = [e.coords[j] for _, j in self.twists]
        if any(d[0] != "aut" for d in coords):
            raise NotEmbedding("composition would need constant cells")
        twists = tuple((_comp(m, d[1]), d[2]) for (m, _), d in zip(self.twists, coords))
        return BPEmbedding(self.ctx, e.u, twists, self.tree)


def _split_largest(cells, j):
    """Split the biggest cell carrying source j into two."""
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


def _carve_block(b: Clopen, x) -> tuple[Clopen, Clopen]:
    """Split off one cell of b avoiding the point x."""
    avoid = [w for w in b.words if not x.startswith(w)]
    if avoid:
        w = min(avoid, key=lambda s: (len(s), s))
        piece = Clopen.make([w])
        return piece, b.difference(piece)
    w = next(w for w in b.words if x.startswith(w))
    # x continues with 0s: w+"1" avoids it
    piece = Clopen.make([w + "1"])
    return piece, b.difference(piece)


def extend_weak_homogeneity(
    phi: PowerEmbedding, psi: BPEmbedding
) -> BPEmbedding:
    """An embedding psi' of phi's target with psi' o phi = psi."""
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
    # q keyed per point: the block of the first point with each filter
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
            cells = _split_largest(cells, j)
            mult[j] += 1
    # target coordinate of the t-th copy of source j (0-based t)
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
            piece, b = _carve_block(b, x)
            new_cells.append((piece, ident, q_index(i, t)))
        blocks.append(b)
    psi2_normal = BPEmbedding.make(ctx, v, new_cells, blocks)
    psi2 = psi2_normal.compose_power(_invert_adjust(nf.adjust))
    # exhaustive verification on all source tuples
    for a in product(range(ctx.algebra.size), repeat=u):
        if psi2.eval(phi.eval(a)) != psi.eval(a):
            raise ExtensionFailure(a)
    return psi2


# ---------------------------------------------------------------------------
# limit chains


@dataclass(frozen=True)
class ChainStage:
    depth: int
    free_words: tuple[str, ...]
    bp: BPEmbedding
    step: Optional[PowerEmbedding]  # into the next stage


def first_stage_depth(ctx: PowerContext) -> int:
    """The least t >= 1 where the n points have distinct level-t prefixes
    (from t = n - 1 on) and leave a free cell (2^t > n)."""
    n = ctx.points.n
    return max(1, n - 1, n.bit_length())


def check_chain_budget(ctx: PowerContext, depth: int, budget: int) -> None:
    """Raise SizeBudgetExceeded when limit_chain(ctx, depth) would lay out
    more than `budget` level cells over its stages (2^t at stage t); run
    it before building the chain."""
    t0 = first_stage_depth(ctx)
    top = max(depth, t0)
    # past this depth the last stage alone exceeds the budget
    if top >= budget.bit_length() or (1 << (top + 1)) - (1 << t0) > budget:
        chain = (
            f"a chain to depth {depth}"
            if top == depth
            else f"the first stage, at depth {t0} for {ctx.points.n} points,"
        )
        raise SizeBudgetExceeded(f"{chain} has more than {budget} stage cells")


def limit_chain(ctx: PowerContext, depth: int) -> list[ChainStage]:
    """Stagewise presentation: at depth t the free level-t cells carry one
    source coordinate each and the point cells carry the filters; the
    connecting embeddings copy a parent's coordinate to its free children
    and fill a point cell's freed sibling with the filter idempotent."""
    t0 = first_stage_depth(ctx)
    ident = _ident(ctx.algebra.size)
    stages = []
    for t in range(t0, max(depth, t0) + 1):
        # from the first stage on the n points force n distinct cells
        forced = _forced_cells(ctx, t)
        free = [w for w in map("".join, product("01", repeat=t)) if w not in forced]
        bp = BPEmbedding.make(
            ctx,
            len(free),
            [(Clopen.make([w]), ident, k) for k, w in enumerate(free)],
            [Clopen.make([p]) for p in forced],
        )
        stages.append([t, tuple(free), bp, None])
    for s in range(len(stages) - 1):
        t, free, bp, _ = stages[s]
        free2 = stages[s + 1][1]
        index = {w: k for k, w in enumerate(free)}
        forced = _forced_cells(ctx, t)
        coords = []
        for w2 in free2:
            parent = w2[:-1]
            if parent in index:
                coords.append(("aut", ident, index[parent]))
            else:
                coords.append(("idem", forced[parent]))
        step = PowerEmbedding.make(ctx.algebra, len(free), coords)
        stages[s][3] = step
    return [ChainStage(t, f, bp, st) for t, f, bp, st in stages]


def chain_commutes(stages: Sequence[ChainStage]) -> bool:
    """Symbolic commuting of every square: the next stage composed with
    the step equals the current stage as a labeled partition."""
    for s in range(len(stages) - 1):
        cur, nxt = stages[s].bp, stages[s + 1].bp
        ctx = cur.ctx
        got = {}
        for w, k in _words(nxt.tree, "", []):
            if k < 0:
                got[w] = ("pt", -k)
                continue
            m, j = nxt.twists[k]
            coord = stages[s].step.coords[j]
            got[w] = ("aut", m, coord[2]) if coord[0] == "aut" else ("idem", coord[1])
        want = {}
        for w, k in _words(cur.tree, "", []):
            for ww in (w + "0", w + "1"):
                if k >= 0:
                    want[ww] = ("aut",) + cur.twists[k]
                elif ww == ctx.points.point(-k).prefix(len(ww)):
                    want[ww] = ("pt", -k)
                else:
                    want[ww] = ("idem", ctx.filters[-k - 1])
        if got != want:
            return False
    return True


def chain_covers(ctx: PowerContext, stages: Sequence[ChainStage], depth: int) -> bool:
    """Every element constant on level-`depth` cells lies in the image of
    the stage at that depth; each image marks its position among them, one
    byte per element, and is then dropped."""
    stage = next(s for s in stages if s.depth == depth)
    elems = enumerate_elements(ctx, depth)
    hit = bytearray(len(elems))
    for a in product(range(ctx.algebra.size), repeat=stage.bp.u):
        f = stage.bp.eval(a)
        try:
            hit[elems.index(f)] = 1
        except ValueError:  # not constant on the level-`depth` cells
            pass
    return all(hit)


# ---------------------------------------------------------------------------
# back and forth


@dataclass(frozen=True)
class TraceStep:
    direction: str  # "start", "forth" or "back"
    connector: Optional[PowerEmbedding]
    left: BPEmbedding
    right: BPEmbedding


def _express_through_stage(g: BPEmbedding, stage: ChainStage) -> PowerEmbedding:
    """rho with stage.bp o rho = g; every stage cell must sit inside one
    cell or block of g, and the stage's own twists are compensated."""
    ctx = g.ctx
    coords = [None] * stage.bp.u
    # the cells in order, then the blocks in order; each one's words sorted
    words = _words(stage.bp.tree, "", [])
    for w, k in sorted(words, key=lambda c: (c[1] < 0, abs(c[1]))):
        part = subtree(g.tree, w)  # a tuple when w straddles g's parts
        if k < 0:
            if part != k:
                raise ExtensionFailure(f"stage block {-k} leaves the partial iso block")
            continue
        m, j = stage.bp.twists[k]
        minv = _inv(m)
        if part.__class__ is tuple:
            raise ExtensionFailure(f"stage cell {w} straddles the partial iso")
        if part < 0:
            coord = ("idem", minv[ctx.filters[-part - 1]])
        else:
            mg, jg = g.twists[part]
            coord = ("aut", _comp(minv, mg), jg)
        if coords[j] is None:
            coords[j] = coord
        elif coords[j] != coord:
            raise ExtensionFailure(f"stage source {j} constrained twice")
    return PowerEmbedding.make(ctx.algebra, g.u, coords)


def _embedding_depth(g: BPEmbedding) -> int:
    return max(len(w) for w, _ in _words(g.tree, "", []))


def back_and_forth(
    chain1: Sequence[ChainStage], chain2: Sequence[ChainStage], depth: int
) -> list[TraceStep]:
    """Alternately extend a partial isomorphism between the two chain
    presentations: each step absorbs the next stage of one chain on its
    own side and extends the other side by weak homogeneity.  The k-th
    trace entry matches left(z) with right(z)."""
    if depth <= 0:
        return []
    left, right = chain1[0].bp, chain2[0].bp
    trace = [TraceStep("start", None, left, right)]
    d1 = d2 = chain1[0].depth
    for k in range(depth - 1):
        if k % 2 == 0:
            need = max(_embedding_depth(left), d1) + 1
            cand = [st for st in chain1 if st.depth >= need]
            if not cand:
                break
            stage = cand[0]
            rho = _express_through_stage(left, stage)
            right = extend_weak_homogeneity(rho, right)
            left = stage.bp
            d1 = stage.depth
            trace.append(TraceStep("forth", rho, left, right))
        else:
            need = max(_embedding_depth(right), d2) + 1
            cand = [st for st in chain2 if st.depth >= need]
            if not cand:
                break
            stage = cand[0]
            rho = _express_through_stage(right, stage)
            left = extend_weak_homogeneity(rho, left)
            right = stage.bp
            d2 = stage.depth
            trace.append(TraceStep("back", rho, left, right))
    return trace


# Argument tuples per trace step that trace_extends checks, evenly spaced.
TRACE_SAMPLE = 256


def trace_extends(trace: Sequence[TraceStep]) -> bool:
    """Consecutive trace entries agree through their connectors: both new
    sides composed with rho reproduce the old sides, so the partial
    isomorphisms form a chain under inclusion."""
    for prev, cur in zip(trace, trace[1:]):
        A = prev.left.ctx.algebra
        u = prev.left.u
        tuples = list(product(range(A.size), repeat=u))
        if len(tuples) > TRACE_SAMPLE:
            tuples = tuples[::max(1, len(tuples) // TRACE_SAMPLE)]
        for a in tuples:
            img = cur.connector.eval(a)
            if cur.left.eval(img) != prev.left.eval(a):
                return False
            if cur.right.eval(img) != prev.right.eval(a):
                return False
    return True
