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
from .cantor import (
    Clopen,
    Point,
    PointContext,
    merge_sibling_cells,
    meet,
    point_in,
    transport,
)
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
        el = PowerElement(ctx, merge_sibling_cells(ordered), support)
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
    pairs: tuple[tuple[str, str], ...]  # partition of b <-> of X, sorted

    def forward(self, f: PowerElement) -> PowerElement:
        return PowerElement.make(
            self.dst, transport(f.restrict(self.b).cells, self.pairs)
        )

    def backward(self, g: PowerElement) -> PowerElement:
        """Section of the quotient: the restricted values pulled back onto
        b, the filter idempotents elsewhere (one block per point)."""
        back = sorted((q, p) for p, q in self.pairs)
        fill = _complement_fill(self.src, Clopen.all().difference(self.b))
        return PowerElement.make(self.src, transport(g.cells, back) + fill)


def _one_point_words(points, words) -> list[str]:
    """The words, each split into its halves until it holds at most one
    of the points; in sorted order when the words are."""
    out = []
    for w in words:
        if sum(x.startswith(w) for x in points) > 1:
            out += _one_point_words(points, [w + "0", w + "1"])
        else:
            out.append(w)
    return out


def _complement_fill(ctx, outside: Clopen):
    """Cells tiling `outside`: the filter value on a cell around each
    point in it, an arbitrary one (the first filter, or 0) elsewhere."""
    pts = ctx.points.points()
    default = ctx.filters[0] if ctx.filters else 0
    fill = []
    for w in _one_point_words(pts, outside.words):
        held = [e for x, e in zip(pts, ctx.filters) if x.startswith(w)]
        fill.append((w, held[0] if held else default))
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
    pts = ctx.points.points()
    words = _one_point_words(pts, b.words)
    point_cells = {}  # retained point index -> the word holding it
    for i, x in enumerate(pts, start=1):
        w = next((w for w in words if x.startswith(w)), None)
        if w is not None:
            point_cells[i] = w
    retained = list(point_cells)
    leftover = [w for w in words if w not in point_cells.values()]
    n2 = len(retained)
    pairs = []
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
    dst = PowerContext(ctx.algebra, PointContext(n2), filters)
    return dst, RestrictionMap(ctx, dst, b, tuple(sorted(pairs)))


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

    def fwd(f: PowerElement) -> PowerElement:  # f has support b1
        cells = [(u, alpha(a)) for w, a in f.cells for u in h.cell_image(w).words]
        return PowerElement.make(ctx, cells, b2)

    ainv = alpha.inverse()

    def bwd(g: PowerElement) -> PowerElement:
        cells = [(u, ainv(a)) for w, a in g.cells for u in hinv.cell_image(w).words]
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
    # the block/outside partition of X
    part = sorted(
        [(w, True) for w in block.words]
        + [(w, False) for w in block.complement().words]
    )

    def apply_block(f, a_map, target):
        cells = [(w, a_map(a) if inb else a) for w, a, inb in meet(f.cells, part)]
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
    rest = Clopen.make([pj, pm]).complement().words
    pairs = sorted([(pj, pm), (pm, pj)] + [(w, w) for w in rest])

    def act(f, target):
        return PowerElement.make(target, transport(f.cells, pairs))

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

    def interleave(J):
        """Prefix pairs source -> target away from the neighbourhood of
        x_i at depth J in the target: cell j of branch i goes to cell 2j
        of branch i and cell j of branch m to cell 2j - 1, below J; the
        other blocks stay and the off-branch region shifts.  Also returns
        the two source neighbourhoods and the target one."""
        ki, km = (J + 1) // 2, (J + 2) // 2
        pairs = [
            (src_pts.cellword(i, j), dst_pts.cellword(i, 2 * j))
            for j in range(1, ki)
        ]
        pairs += [
            (src_pts.cellword(m, j), dst_pts.cellword(i, 2 * j - 1))
            for j in range(1, km)
        ]
        pairs += [("1" * (k - 1) + "0",) * 2 for k in range(1, m) if k != i]
        pairs.append(("1" * m, "1" * (m - 1)))
        nbhds = [src_pts.nbhd_word(i, ki), src_pts.nbhd_word(m, km)]
        return pairs, nbhds, dst_pts.nbhd_word(i, J)

    def reach(f, k):
        """Zeros after 1^(k-1) in the cell of f holding x_k."""
        w = next(w for w, _ in f.cells if f.ctx.points.point(k).startswith(w))
        return len(w) - (k - 1)

    # f is e on the point neighbourhoods, which lie inside f's cells there:
    # they are dropped and refilled with e-cells on the other side
    def fwd(f: PowerElement) -> PowerElement:
        pairs, nbhds, nb = interleave(max(2 * reach(f, i), 2 * reach(f, m) - 1, 1))
        pairs = sorted(pairs + [(w, nb) for w in nbhds])
        cells = [c for c in transport(f.cells, pairs) if c[0] != nb]
        return PowerElement.make(dst, cells + [(nb, e)])

    def bwd(g: PowerElement) -> PowerElement:
        pairs, nbhds, nb = interleave(max(reach(g, i), 1))
        back = sorted([(q, p) for p, q in pairs] + [(nb, nbhds[0])])
        cells = [c for c in transport(g.cells, back) if c[0] != nbhds[0]]
        return PowerElement.make(ctx, cells + [(w, e) for w in nbhds])

    return ElementIso(ctx, dst, fwd, bwd)


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
