"""Filtered Boolean powers: elements as finite labeled prefix partitions,
congruences as clopen projection kernels, restrictions, and the concrete
isomorphisms that add, twist, relocate and merge filtering points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Optional, Sequence

from . import algebra as alg
from .algebra import Endomap, FiniteAlgebra
from .cantor import Clopen, Point, PointContext, point_in
from .errors import (
    ContextMismatch,
    EmptyRestriction,
    FilterViolation,
    IdempotentMismatch,
    NotAutomorphism,
    PointMismatch,
    SizeBudgetExceeded,
)
from .homeo import EPHomeo


@dataclass(frozen=True)
class PowerContext:
    """Algebra, distinguished points, and the prescribed idempotent values."""

    algebra: FiniteAlgebra
    points: PointContext
    filters: tuple[int, ...]

    def __post_init__(self):
        if len(self.filters) != self.points.n:
            raise ValueError("one filter idempotent per point")
        idem = alg.idempotents(self.algebra)
        for e in self.filters:
            if e not in idem:
                raise FilterViolation(f"{e} is not an idempotent")

    @property
    def n(self) -> int:
        return self.points.n

    @cached_property
    def aut_mappings(self) -> tuple[tuple[int, ...], ...]:
        """Automorphisms of the algebra as mapping tuples, in the order
        algebra.automorphisms finds them; searched once per context."""
        return tuple(a.mapping for a in alg.automorphisms(self.algebra))


def make_context(algebra: FiniteAlgebra, filters: Sequence[int]) -> PowerContext:
    return PowerContext(algebra, PointContext(len(filters)), tuple(filters))


@dataclass(frozen=True)
class PowerElement:
    """Continuous map support -> A, constant on finitely many prefix cells.

    The cell containing a retained distinguished point carries that
    point's filter idempotent.  Canonical: sibling cells with equal labels
    are merged; cells are sorted.
    """

    ctx: PowerContext
    cells: tuple[tuple[str, int], ...]
    support: Clopen = field(default_factory=Clopen.all)

    @staticmethod
    def make(ctx, cells, support: Optional[Clopen] = None) -> "PowerElement":
        """Validate and canonicalize (word, label) cells in one sorted scan.

        Errors come in this order: a label outside the carrier, two cells
        that meet, a word not over 01, cells that do not tile the support,
        a wrong value at a retained point.  Cells tile the support when
        each lies inside it and their measures add up to its measure: the
        part of the support they miss is clopen with measure 0, so empty.
        """
        support = Clopen.all() if support is None else support
        cells = [(str(w), int(a)) for w, a in cells]
        labels = range(ctx.algebra.size)
        for _, a in cells:
            if a not in labels:
                raise FilterViolation(f"label {a} outside carrier")
        ordered = sorted(cells)
        # in sorted order a word prefixing a later one prefixes the next
        for (u, _), (v, _) in zip(ordered, ordered[1:]):
            if v.startswith(u):
                raise ValueError("overlapping cells")
        for w, _ in cells:
            if w.strip("01"):
                raise ValueError(f"bad word {w!r}")
        words = [w for w, _ in ordered]
        depth = max(map(len, words), default=0)
        if support.is_all():
            inside, full = True, 1 << depth
        else:
            inside = all(map(support.covers, words))
            depth = max([depth, *map(len, support.words)])
            full = support.measure(depth)
        kraft = sum(map((1 << depth).__rshift__, map(len, words)))
        if not inside or kraft != full:
            raise ValueError("cells do not tile the support")
        merged = []
        for w, a in ordered:
            # sorted order is left to right: the cell of a merged p0 is on
            # top of the stack when p1 arrives
            while (
                w[-1:] == "1"
                and merged
                and merged[-1][1] == a
                and merged[-1][0] == w[:-1] + "0"
            ):
                merged.pop()
                w = w[:-1]
            merged.append((w, a))
        el = PowerElement(ctx, tuple(merged), support)
        for i in range(1, ctx.points.n + 1):
            x = ctx.points.point(i)
            if point_in(x, support) and el.value_at(x) != ctx.filters[i - 1]:
                raise FilterViolation(
                    f"value at point {i} must be {ctx.filters[i - 1]}"
                )
        return el

    @staticmethod
    def constant(ctx, a: int, support: Optional[Clopen] = None) -> "PowerElement":
        support = Clopen.all() if support is None else support
        return PowerElement.make(ctx, [(w, a) for w in support.words], support)

    def value_at(self, x: Point) -> int:
        p = x.prefix(max((len(w) for w, _ in self.cells), default=0))
        for w, a in self.cells:
            if p.startswith(w):
                return a
        raise ValueError("point outside the support")

    def fiber(self, a: int) -> Clopen:
        return Clopen.make([w for w, b in self.cells if b == a])

    def restrict(self, b: Clopen) -> "PowerElement":
        cells = []
        for w, a in self.cells:
            part = Clopen.make([w]).intersect(b)
            cells += [(u, a) for u in part.words]
        return PowerElement.make(self.ctx, cells, self.support.intersect(b))


def meet(xs, ys) -> list[tuple[str, object, object]]:
    """Common refinement of two sorted labeled prefix antichains that tile
    the same set, as sorted (word, x label, y label) triples.

    One linear scan: in sorted order the cells inside a shorter word come
    next to each other, so the shorter side advances once the longer side
    has left its cell.
    """
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        (u, a), (v, b) = xs[i], ys[j]
        if len(u) <= len(v):
            if not v.startswith(u):
                raise ValueError("the cells do not tile the same set")
            out.append((v, a, b))
            j += 1
            if j == len(ys) or not ys[j][0].startswith(u):
                i += 1
        else:
            if not u.startswith(v):
                raise ValueError("the cells do not tile the same set")
            out.append((u, a, b))
            i += 1
            if i == len(xs) or not xs[i][0].startswith(v):
                j += 1
    if i < len(xs) or j < len(ys):
        raise ValueError("the cells do not tile the same set")
    return out


def refine(elems: Sequence[PowerElement]) -> list[tuple[str, tuple[int, ...]]]:
    """Common refinement of equal-support elements, with label tuples."""
    first = elems[0]
    out = [(w, (a,)) for w, a in first.cells]
    for e in elems[1:]:
        if e.ctx != first.ctx or e.support != first.support:
            raise ContextMismatch("refinement needs a common context/support")
        out = [(w, labs + (a,)) for w, labs, a in meet(out, e.cells)]
    return out


def apply_operation(op: str, elems: Sequence[PowerElement]) -> PowerElement:
    """Pointwise application of a basic operation on the common refinement."""
    ctx = elems[0].ctx
    k = ctx.algebra.op_index(op)
    _, arity = ctx.algebra.signature[k]
    if arity != len(elems):
        raise ValueError(f"{op} expects {arity} arguments")
    if arity == 0:
        return PowerElement.constant(ctx, ctx.algebra.tables[k][0])
    cells = [(w, ctx.algebra.apply(k, labs)) for w, labs in refine(elems)]
    return PowerElement.make(ctx, cells, elems[0].support)


def eval_term_elements(term, elems: Sequence[PowerElement]) -> PowerElement:
    ctx = elems[0].ctx
    cells = [
        (w, alg.eval_term(ctx.algebra, term, labs)) for w, labs in refine(elems)
    ]
    return PowerElement.make(ctx, cells, elems[0].support)


# ---------------------------------------------------------------------------
# congruences


@dataclass(frozen=True)
class PowerCongruence:
    """Kernel of the projection onto the clopen support Y (all x_i in Y)."""

    ctx: PowerContext
    support: Clopen

    def __post_init__(self):
        for i in range(1, self.ctx.points.n + 1):
            if not point_in(self.ctx.points.point(i), self.support):
                raise ValueError("congruence support must contain every point")


def equalizer(f: PowerElement, g: PowerElement) -> Clopen:
    if f.ctx != g.ctx or f.support != g.support:
        raise ContextMismatch("equalizer needs a common context/support")
    return Clopen.make([w for w, (a, b) in refine([f, g]) if a == b])


def principal_congruence(f: PowerElement, g: PowerElement) -> PowerCongruence:
    return PowerCongruence(f.ctx, equalizer(f, g))


def congruence_meet(t1: PowerCongruence, t2: PowerCongruence) -> PowerCongruence:
    if t1.ctx != t2.ctx:
        raise ContextMismatch((t1.ctx, t2.ctx))
    return PowerCongruence(t1.ctx, t1.support.union(t2.support))


def congruence_join(t1: PowerCongruence, t2: PowerCongruence) -> PowerCongruence:
    if t1.ctx != t2.ctx:
        raise ContextMismatch((t1.ctx, t2.ctx))
    return PowerCongruence(t1.ctx, t1.support.intersect(t2.support))


def related(theta: PowerCongruence, f: PowerElement, g: PowerElement) -> bool:
    return theta.support.is_subset(equalizer(f, g))


# ---------------------------------------------------------------------------
# restriction to a clopen


@dataclass(frozen=True)
class RestrictionMap:
    """Rebasing b onto a fresh copy of X carrying the retained points to
    the standard points; acts on elements by prefix substitution."""

    src: PowerContext
    dst: PowerContext
    b: Clopen
    pairs: tuple[tuple[str, str], ...]  # partition of b <-> partition of X

    def forward(self, f: PowerElement) -> PowerElement:
        cells = []
        for w, a in f.restrict(self.b).cells:
            for p, q in self.pairs:
                if w.startswith(p):
                    cells.append((q + w[len(p):], a))
                elif p.startswith(w) and p != w:
                    cells.append((q, a))
        return PowerElement.make(self.dst, cells)

    def backward(self, g: PowerElement) -> PowerElement:
        """Section of the quotient: the restricted values pulled back onto
        b, the filter idempotents elsewhere (one block per point)."""
        cells = []
        for w, a in g.cells:
            for p, q in self.pairs:
                if w.startswith(q):
                    cells.append((p + w[len(q):], a))
                elif q.startswith(w) and q != w:
                    cells.append((p, a))
        outside = Clopen.all().difference(self.b)
        # fill the complement: constant filter value around each missing
        # point, arbitrary (first) filter or 0 elsewhere
        fill = _complement_fill(self.src, outside)
        return PowerElement.make(self.src, cells + fill)


def _complement_fill(ctx, outside: Clopen):
    if outside.is_empty():
        return []
    remaining = outside
    fill = []
    for i in range(1, ctx.points.n + 1):
        x = ctx.points.point(i)
        if point_in(x, remaining):
            # the whole remaining part around x_i gets e_i; carve the cell
            cellw = next(w for w in remaining.words if x.startswith(w))
            fill.append((cellw, ctx.filters[i - 1]))
            remaining = remaining.difference(Clopen.make([cellw]))
    default = ctx.filters[0] if ctx.filters else 0
    fill += [(w, default) for w in remaining.words]
    return fill


def _codes(m: int) -> list[str]:
    if m == 1:
        return [""]
    return ["1" * k + "0" for k in range(m - 1)] + ["1" * (m - 1)]


def restrict(ctx: PowerContext, b: Clopen) -> tuple[PowerContext, RestrictionMap]:
    """Restriction of the power to the clopen b, rebased onto a fresh
    Cantor space; retained points become the standard points there."""
    if b.is_empty():
        raise EmptyRestriction("restriction to the empty clopen")
    retained = [
        i
        for i in range(1, ctx.points.n + 1)
        if point_in(ctx.points.point(i), b)
    ]
    n2 = len(retained)
    point_cells = {}
    for i in retained:
        x = ctx.points.point(i)
        point_cells[i] = next(w for w in b.words if x.startswith(w))
    leftover = sorted(set(b.words) - set(point_cells.values()))
    pairs = []
    dstctx = PointContext(n2)
    if leftover:
        for k, i in enumerate(retained, start=1):
            pairs.append((point_cells[i], "1" * (k - 1) + "0"))
        for code, w in zip(_codes(len(leftover)), leftover):
            pairs.append((w, "1" * n2 + code))
    else:
        for k, i in enumerate(retained, start=1):
            tgt = "1" * (k - 1) + ("0" if k < n2 else "")
            pairs.append((point_cells[i], tgt))
    filters = tuple(ctx.filters[i - 1] for i in retained)
    dst = PowerContext(ctx.algebra, dstctx, filters)
    return dst, RestrictionMap(ctx, dst, b, tuple(pairs))


# ---------------------------------------------------------------------------
# element-level isomorphisms


@dataclass
class ElementIso:
    """Invertible element map between two filtered powers."""

    src: PowerContext
    dst: PowerContext
    forward: Callable[[PowerElement], PowerElement]
    backward: Callable[[PowerElement], PowerElement]

    def then(self, other: "ElementIso") -> "ElementIso":
        if self.dst != other.src:
            raise ContextMismatch("isomorphisms do not compose")
        return ElementIso(
            self.src,
            other.dst,
            lambda f: other.forward(self.forward(f)),
            lambda g: self.backward(other.backward(g)),
        )

    @staticmethod
    def identity(ctx) -> "ElementIso":
        return ElementIso(ctx, ctx, lambda f: f, lambda f: f)


def product_iso(f1: PowerElement, f2: PowerElement) -> PowerElement:
    """Glue two single-point powers with a common idempotent: values f1 on
    the 0-side, f2 on the 1-side, the idempotent at the glued points.

    The result lives in the two-point power whose admissible clopens are
    those containing both glued points or neither; the filter condition
    makes every element admissible.
    """
    c1, c2 = f1.ctx, f2.ctx
    if c1.algebra != c2.algebra or c1.n != 1 or c2.n != 1:
        raise ContextMismatch("product gluing needs single-point powers")
    if c1.filters != c2.filters:
        raise IdempotentMismatch((c1.filters, c2.filters))
    e = c1.filters[0]
    glued = make_context(c1.algebra, (e, e))
    cells = [("0" + w, a) for w, a in f1.cells]
    cells += [("1" + w, a) for w, a in f2.cells]
    return PowerElement.make(glued, cells)


def product_iso_split(g: PowerElement) -> tuple[PowerElement, PowerElement]:
    """Inverse of the gluing."""
    ctx = g.ctx
    if ctx.n != 2 or ctx.filters[0] != ctx.filters[1]:
        raise ContextMismatch("not a glued two-point power")
    single = make_context(ctx.algebra, (ctx.filters[0],))
    f1 = [(w[1:], a) for w, a in g.restrict(Clopen.make(["0"])).cells]
    f2 = [(w[1:], a) for w, a in g.restrict(Clopen.make(["1"])).cells]
    return (
        PowerElement.make(single, f1),
        PowerElement.make(single, f2),
    )


def restriction_iso(
    b1: Clopen, b2: Clopen, alpha: Endomap, h: EPHomeo, ctx: PowerContext
) -> ElementIso:
    """f -> alpha o f o h^{-1} between the restrictions to b1 and b2.

    Requires alpha in Aut A with alpha(e_1) = e_2 for the points retained
    in b1, b2, and h a homeomorphism of X carrying b1 onto b2 and the
    b1-point onto the b2-point.
    """
    if not alpha.is_automorphism:
        raise NotAutomorphism(alpha)
    pts1 = [
        i for i in range(1, ctx.points.n + 1) if point_in(ctx.points.point(i), b1)
    ]
    pts2 = [
        i for i in range(1, ctx.points.n + 1) if point_in(ctx.points.point(i), b2)
    ]
    if len(pts1) != len(pts2):
        raise PointMismatch((pts1, pts2))
    pm = h.point_map()
    if pm is None:
        raise PointMismatch("h has no continuous extension")
    for i1 in pts1:
        if pm[i1] not in pts2:
            raise PointMismatch((i1, pm[i1]))
    for i1 in pts1:
        e1 = ctx.filters[i1 - 1]
        e2 = ctx.filters[pm[i1] - 1]
        if alpha(e1) != e2:
            raise IdempotentMismatch((e1, e2))
    if h.apply_clopen_in_X(b1) != b2:
        raise PointMismatch("h does not carry b1 onto b2")
    hinv = h.inverse()

    def fwd(f: PowerElement) -> PowerElement:
        cells = []
        for w, a in f.cells:  # f has support b1
            img = h.apply_clopen_in_X(Clopen.make([w]))
            cells += [(u, alpha(a)) for u in img.words]
        return PowerElement.make(ctx, cells, b2)

    ainv = alpha.inverse()

    def bwd(g: PowerElement) -> PowerElement:
        cells = []
        for w, a in g.cells:
            img = hinv.apply_clopen_in_X(Clopen.make([w]))
            cells += [(u, ainv(a)) for u in img.words]
        return PowerElement.make(ctx, cells, b1)

    sub1 = PowerContext(ctx.algebra, ctx.points, ctx.filters)
    return ElementIso(sub1, sub1, fwd, bwd)


# ---------------------------------------------------------------------------
# reduction to orbit representatives (twist, relocate, merge)


def twist_iso(ctx: PowerContext, j: int, alpha: Endomap) -> ElementIso:
    """Apply alpha on the standard block of x_j, identity elsewhere; lands
    in the power whose j-th filter is alpha(e_j)."""
    if not alpha.is_automorphism:
        raise NotAutomorphism(alpha)
    m = ctx.points.n
    block = Clopen.make(["1" * (j - 1) + ("0" if j < m else "")])
    new_filters = list(ctx.filters)
    new_filters[j - 1] = alpha(ctx.filters[j - 1])
    dst = PowerContext(ctx.algebra, ctx.points, tuple(new_filters))

    def apply_block(f, a_map, target):
        cells = []
        for w, a in f.cells:
            cell = Clopen.make([w])
            inside = cell.intersect(block)
            outside = cell.difference(block)
            cells += [(u, a_map(a)) for u in inside.words]
            cells += [(u, a) for u in outside.words]
        return PowerElement.make(target, cells)

    return ElementIso(
        ctx,
        dst,
        lambda f: apply_block(f, alpha, dst),
        lambda g: apply_block(g, alpha.inverse(), ctx),
    )


def swap_points_iso(ctx: PowerContext, j: int) -> ElementIso:
    """Exchange the roles of x_j and the last point x_m by the prefix swap
    of their standard blocks."""
    m = ctx.points.n
    if j == m:
        return ElementIso.identity(ctx)
    pj, pm = "1" * (j - 1) + "0", "1" * (m - 1)
    new_filters = list(ctx.filters)
    new_filters[j - 1], new_filters[m - 1] = new_filters[m - 1], new_filters[j - 1]
    dst = PowerContext(ctx.algebra, ctx.points, tuple(new_filters))

    def swap_word(w):
        # refine until the word lies in one block
        if w.startswith(pj):
            return [pm + w[len(pj):]]
        if w.startswith(pm):
            return [pj + w[len(pm):]]
        if pj.startswith(w) or pm.startswith(w):
            return [u for c in "01" for u in swap_word(w + c)]
        return [w]

    def act(f, target):
        cells = []
        for w, a in f.cells:
            cells += [(u, a) for u in swap_word(w)]
        return PowerElement.make(target, cells)

    return ElementIso(ctx, dst, lambda f: act(f, dst), lambda g: act(g, ctx))


def merge_last_iso(ctx: PowerContext, i: int) -> ElementIso:
    """Merge the last point x_m into x_i (equal filters required): the
    concrete quotient identifying the two points, realized by interleaving
    the branch cells of x_i and x_m on the target branch i."""
    m = ctx.points.n
    if not 1 <= i < m:
        raise PointMismatch(i)
    if ctx.filters[i - 1] != ctx.filters[m - 1]:
        raise IdempotentMismatch((ctx.filters[i - 1], ctx.filters[m - 1]))
    e = ctx.filters[i - 1]
    dst = PowerContext(
        ctx.algebra, PointContext(m - 1), ctx.filters[:-1]
    )
    src_pts, dst_pts = ctx.points, dst.points
    prei = "1" * (i - 1)

    def fwd(f: PowerElement) -> PowerElement:
        ai = len(next(w for w in _cellwords(f) if src_pts.point(i).startswith(w))) - (i - 1)
        am = len(next(w for w in _cellwords(f) if src_pts.point(m).startswith(w))) - (m - 1)
        J = max(2 * ai, 2 * am - 1, 1)
        cells = [(prei + "0" * J, e)]
        for l in range(1, J):
            if l % 2 == 0:
                srcw = src_pts.cellword(i, l // 2)
            else:
                srcw = src_pts.cellword(m, (l + 1) // 2)
            dstw = dst_pts.cellword(i, l)
            part = f.restrict(Clopen.make([srcw]))
            cells += [(dstw + w[len(srcw):], a) for w, a in part.cells]
        # other branches and the off-branch shift
        for k in range(1, m):
            if k == i:
                continue
            blk = "1" * (k - 1) + "0"
            part = f.restrict(Clopen.make([blk]))
            cells += [(w, a) for w, a in part.cells]
        off = f.restrict(Clopen.make(["1" * m]))
        cells += [("1" * (m - 1) + w[m:], a) for w, a in off.cells]
        return PowerElement.make(dst, cells)

    def bwd(g: PowerElement) -> PowerElement:
        a = len(next(w for w in _cellwords(g) if dst_pts.point(i).startswith(w))) - (i - 1)
        Ki = (a + 1) // 2
        Km = (a + 2) // 2
        cells = [
            (prei + "0" * max(Ki, 1), e),
            ("1" * (m - 1) + "0" * max(Km, 1), e),
        ]
        for j in range(1, max(Ki, 1)):
            srcw = src_pts.cellword(i, j)
            dstw = dst_pts.cellword(i, 2 * j)
            part = g.restrict(Clopen.make([dstw]))
            cells += [(srcw + w[len(dstw):], aa) for w, aa in part.cells]
        for j in range(1, max(Km, 1)):
            srcw = src_pts.cellword(m, j)
            dstw = dst_pts.cellword(i, 2 * j - 1)
            part = g.restrict(Clopen.make([dstw]))
            cells += [(srcw + w[len(dstw):], aa) for w, aa in part.cells]
        for k in range(1, m):
            if k == i:
                continue
            blk = "1" * (k - 1) + "0"
            part = g.restrict(Clopen.make([blk]))
            cells += [(w, aa) for w, aa in part.cells]
        offg = g.restrict(Clopen.make(["1" * (m - 1)]))
        cells += [("1" * m + w[m - 1:], aa) for w, aa in offg.cells]
        return PowerElement.make(ctx, cells)

    return ElementIso(ctx, dst, fwd, bwd)


def _cellwords(f: PowerElement):
    return [w for w, _ in f.cells]


def reduce_idempotents(ctx: PowerContext):
    """Reduce repeated-orbit filter idempotents to orbit representatives.

    Returns (reduced context, ElementIso).  Implements the block
    decomposition: twist the duplicate's block by an automorphism onto the
    representative idempotent, relocate it to the last position, and merge
    it into the representative's point.
    """
    auts = ctx.aut_mappings
    iso = ElementIso.identity(ctx)
    cur = ctx
    while True:
        dup = None
        for j in range(2, cur.points.n + 1):
            for i in range(1, j):
                for m in auts:
                    if m[cur.filters[j - 1]] == cur.filters[i - 1]:
                        dup = (i, j, Endomap(m, True))
                        break
                if dup:
                    break
            if dup:
                break
        if not dup:
            return cur, iso
        i, j, a = dup
        step = twist_iso(cur, j, a)
        iso = iso.then(step)
        cur = step.dst
        step = swap_points_iso(cur, j)
        iso = iso.then(step)
        cur = step.dst
        step = merge_last_iso(cur, i)
        iso = iso.then(step)
        cur = step.dst


# ---------------------------------------------------------------------------
# finite generated subalgebras and exhaustive element sets


def generated_subalgebra(elems: Sequence[PowerElement], budget: int = 200_000):
    """Subalgebra of the power generated by the given elements.

    Returns (finite algebra on the closed label-tuple set, tuples, cell
    words): the tuples are indexed per refinement cell, so coordinate k
    projects onto the value on the k-th cell.
    """
    ctx = elems[0].ctx
    refined = refine(elems)
    cellwords = [w for w, _ in refined]
    gens = [tuple(labs[t] for _, labs in refined) for t in range(len(elems))]
    A = ctx.algebra
    closed = alg.pointwise_closure(A, gens, budget)
    tuples = sorted(closed)
    index = {t: k for k, t in enumerate(tuples)}
    tables = []
    for k, (_, arity) in enumerate(A.signature):
        table = []
        for combo in product(tuples, repeat=arity):
            val = tuple(
                A.apply(k, [c[pos] for c in combo]) for pos in range(len(cellwords))
            )
            table.append(index[val])
        tables.append(tuple(table))
    sub = FiniteAlgebra(max(len(tuples), 2), A.signature, tuple(tables)) if len(
        tuples
    ) >= 2 else None
    return sub, tuples, cellwords


def _forced_cells(ctx: PowerContext, depth: int) -> Optional[dict]:
    """Level-`depth` cells holding a distinguished point, with the label
    its filter forces; None when two points force one cell differently."""
    forced = {}
    for i in range(1, ctx.points.n + 1):
        w = ctx.points.point(i).prefix(depth)
        if forced.setdefault(w, ctx.filters[i - 1]) != ctx.filters[i - 1]:
            return None
    return forced


def element_count(ctx: PowerContext, depth: int) -> int:
    """len(enumerate_elements(ctx, depth)), without enumerating."""
    forced = _forced_cells(ctx, depth)
    return 0 if forced is None else ctx.algebra.size ** (2**depth - len(forced))


def check_element_budget(ctx: PowerContext, depth: int, budget: int) -> None:
    """Raise SizeBudgetExceeded when enumerate_elements(ctx, depth) would
    return more than `budget` elements; run it before enumerating."""
    # past this depth the 2^depth - n free cells alone exceed the budget
    too_deep = depth > budget.bit_length() + ctx.n
    if too_deep or element_count(ctx, depth) > budget:
        raise SizeBudgetExceeded(
            f"depth {depth} has more than --budget {budget} elements"
        )


def enumerate_elements(ctx: PowerContext, depth: int) -> list[PowerElement]:
    """All elements constant on the level-`depth` cells."""
    forced = _forced_cells(ctx, depth)
    if forced is None:
        return []
    words = ["".join(bits) for bits in product("01", repeat=depth)]
    free = [w for w in words if w not in forced]
    out = []
    for labs in product(range(ctx.algebra.size), repeat=len(free)):
        cells = list(forced.items()) + list(zip(free, labs))
        out.append(PowerElement.make(ctx, cells))
    return out
