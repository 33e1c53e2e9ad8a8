"""Filtered Boolean powers: elements as labeled prefix trees,
congruences as clopen projection kernels, restrictions, the concrete
isomorphisms that glue two powers or restrict along an automorphism, and
the reduction that merges the filtering points of one orbit into one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product
from typing import Callable, Optional

from . import algebra as alg
from .algebra import FiniteAlgebra, Mapping, _ident, _inv
from .cantor import (
    Clopen,
    PointContext,
    _at,
    _common_cells,
    _map,
    _node,
    _words,
    _zip,
    fill,
    graft,
    point_in,
    point_leaves,
    shape,
    subtree,
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
from .seqs import EPSeq


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
    def aut_mappings(self) -> tuple[Mapping, ...]:
        """Automorphisms of the algebra as mapping tuples, in the order
        algebra.automorphisms finds them; searched once per context."""
        return tuple(alg.automorphisms(self.algebra))

    @cached_property
    def aut_ids(self) -> dict:
        """The index of each automorphism in aut_mappings."""
        return {m: k for k, m in enumerate(self.aut_mappings)}

    @cached_property
    def aut_products(self) -> tuple[tuple[int, ...], ...]:
        """aut_products[k][l]: the index of aut k after aut l."""
        auts, ids = self.aut_mappings, self.aut_ids
        return tuple(
            tuple(ids[tuple(m[a] for a in n)] for n in auts) for m in auts
        )

    @cached_property
    def marked(self) -> tuple[tuple[EPSeq, int], ...]:
        """Each distinguished point with its filter idempotent."""
        return tuple(zip(self.points.points(), self.filters))


def make_context(algebra: FiniteAlgebra, filters: Sequence[int]) -> PowerContext:
    return PowerContext(algebra, PointContext(len(filters)), tuple(filters))


@dataclass(frozen=True, slots=True)
class PowerElement:
    """Continuous map support -> A, constant on finitely many prefix cells.

    Stored as a canonical labeled prefix tree: a leaf is the label on its
    cell, None the outside of the support.  The cell containing a retained
    distinguished point carries that point's filter idempotent.
    """

    ctx: PowerContext
    tree: object
    support: Clopen = Clopen.all()  # one X shared by every default

    def __hash__(self) -> int:
        # equal elements have equal trees; hashing ctx would re-hash the
        # algebra's tables on every call
        return hash(self.tree)

    @staticmethod
    def make(ctx, cells, support: Optional[Clopen] = None) -> "PowerElement":
        """Validate (word, label) cells and build their tree.

        Errors come in this order: a label outside the carrier, two cells
        that meet, a word not over 01, cells that do not tile the support,
        a wrong value at a retained point.  The checks that read the words
        alone run once per word list and support (`cantor.shape`).
        """
        support = Clopen.all() if support is None else support
        words, labels = [], []
        for w, a in cells:
            words.append(str(w))
            labels.append(int(a))
        carrier = range(ctx.algebra.size)
        for a in labels:
            if a not in carrier:
                raise FilterViolation(f"label {a} outside carrier")
        labels.append(None)  # the outside, cell -1
        return PowerElement.from_tree(ctx, fill(shape(words, support._t), labels), support)

    @staticmethod
    def from_tree(ctx, tree, support: Optional[Clopen] = None) -> "PowerElement":
        """The element of a canonical tree whose leaves other than None tile
        the support, after checking the value at each retained point."""
        for i, (a, e) in enumerate(zip(point_leaves(tree, ctx.n), ctx.filters), start=1):
            if a is not None and a != e:
                raise FilterViolation(f"value at point {i} must be {e}")
        return PowerElement(ctx, tree, Clopen.all() if support is None else support)

    @property
    def cells(self) -> tuple[tuple[str, int], ...]:
        """The sorted (word, label) cells, read off the tree."""
        return tuple(_words(self.tree, "", []))

    @staticmethod
    def constant(ctx, a: int, support: Optional[Clopen] = None) -> "PowerElement":
        support = Clopen.all() if support is None else support
        return PowerElement.make(ctx, [(w, a) for w in support.words], support)

    def value_at(self, x: EPSeq) -> int:
        a = _at(self.tree, x)[0]
        if a is None:
            raise ValueError("point outside the support")
        return a

    def fiber(self, a: int) -> Clopen:
        return Clopen(_map(lambda b: b == a, self.tree))

    def restrict(self, b: Clopen) -> "PowerElement":
        tree = _zip(lambda a, inside: a if inside else None, self.tree, b._t)
        return PowerElement.from_tree(self.ctx, tree, self.support.intersect(b))


def _trees(elems: Sequence[PowerElement]) -> list:
    first = elems[0]
    for e in elems[1:]:
        if e.ctx != first.ctx or e.support != first.support:
            raise ContextMismatch("refinement needs a common context/support")
    return [e.tree for e in elems]


def refine(elems: Sequence[PowerElement]) -> list[tuple[str, tuple[int, ...]]]:
    """Common refinement of equal-support elements, with label tuples."""
    return _common_cells(_trees(elems), "", [])


def _pointwise(ctx, fn, elems) -> PowerElement:
    """The element x -> fn(labels of elems at x), on their common support."""
    tree = _zip(lambda *labs: None if labs[0] is None else fn(labs), *_trees(elems))
    return PowerElement.from_tree(ctx, tree, elems[0].support)


def _context_of(elems: Sequence[PowerElement]) -> PowerContext:
    if not elems:
        raise ValueError(
            "no element to read the context from; "
            "build a constant with PowerElement.constant(ctx, value)"
        )
    return elems[0].ctx


def apply_operation(op: str, elems: Sequence[PowerElement]) -> PowerElement:
    """Pointwise application of a basic operation, one zip of the trees."""
    ctx = _context_of(elems)
    k = ctx.algebra.op_index(op)
    _, arity = ctx.algebra.signature[k]
    if arity != len(elems):
        raise ValueError(f"{op} expects {arity} arguments")
    return _pointwise(ctx, partial(ctx.algebra.apply, k), elems)


def eval_term_elements(term, elems: Sequence[PowerElement]) -> PowerElement:
    ctx = _context_of(elems)
    return _pointwise(ctx, partial(alg.eval_term, ctx.algebra, term), elems)


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
    return Clopen(_zip(lambda a, b: a is not None and a == b, f.tree, g.tree))


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
        cells = [(q, subtree(f.tree, p)) for p, q in self.pairs]
        return PowerElement.from_tree(self.dst, graft(None, cells))

    def backward(self, g: PowerElement) -> PowerElement:
        """Section of the quotient: the restricted values pulled back onto
        b, the filter idempotents elsewhere (one block per point)."""
        cells = _complement_fill(self.src, Clopen.all().difference(self.b))
        cells += [(p, subtree(g.tree, q)) for p, q in self.pairs]
        return PowerElement.from_tree(self.src, graft(None, cells))


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
    """The standard prefix code 0, 10, ..., 1^(m-2) 0, 1^(m-1) of m >= 1 words."""
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
    # the point cells onto the standard points, then the leftover cells
    pairs = zip([*point_cells.values(), *leftover], _codes(len(words)))
    filters = tuple(ctx.filters[i - 1] for i in retained)
    dst = PowerContext(ctx.algebra, PointContext(len(retained)), filters)
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
    return PowerElement.from_tree(glued, _node(f1.tree, f2.tree))


def product_iso_split(g: PowerElement) -> tuple[PowerElement, PowerElement]:
    """Inverse of the gluing."""
    ctx = g.ctx
    if ctx.n != 2 or ctx.filters[0] != ctx.filters[1]:
        raise ContextMismatch("not a glued two-point power")
    single = make_context(ctx.algebra, (ctx.filters[0],))
    return (
        PowerElement.from_tree(single, subtree(g.tree, "0")),
        PowerElement.from_tree(single, subtree(g.tree, "1")),
    )


def restriction_iso(
    b1: Clopen, b2: Clopen, alpha: Mapping, h: EPHomeo, ctx: PowerContext
) -> ElementIso:
    """f -> alpha o f o h^{-1} between the restrictions to b1 and b2.

    Requires alpha in Aut A with alpha(e_1) = e_2 for the points retained
    in b1, b2, and h a homeomorphism of X carrying b1 onto b2 and the
    b1-point onto the b2-point.
    """
    if alpha not in ctx.aut_ids:
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
        if alpha[e1] != e2:
            raise IdempotentMismatch((e1, e2))
    if h.apply_clopen_in_X(b1) != b2:
        raise PointMismatch("h does not carry b1 onto b2")
    hinv = h.inverse()

    def fwd(f: PowerElement) -> PowerElement:  # f has support b1
        cells = [(u, alpha[a]) for w, a in f.cells for u in h.cell_image(w).words]
        return PowerElement.from_tree(ctx, graft(None, cells), b2)

    ainv = _inv(alpha)

    def bwd(g: PowerElement) -> PowerElement:
        cells = [(u, ainv[a]) for w, a in g.cells for u in hinv.cell_image(w).words]
        return PowerElement.from_tree(ctx, graft(None, cells), b1)

    return ElementIso(ctx, ctx, fwd, bwd)


# ---------------------------------------------------------------------------
# reduction to orbit representatives

# reading the cells of a tree, zipping it or comparing two trees recurses
# once per level, so reduce-idempotents refuses a round trip whose trees
# grow deeper
REDUCTION_MAX_WORD = 512


def _orbits(ctx: PowerContext) -> list[list[tuple[int, Mapping, Mapping]]]:
    """The source points of each point of the reduced power, as (point,
    automorphism onto the kept idempotent, its inverse): the merged
    duplicates in merge order, then the representative with the identity.
    The first point whose idempotent an automorphism carries onto an
    earlier point's is merged into it, and the last point takes its place."""
    auts = ctx.aut_mappings
    kept = [(s, e, []) for s, e in enumerate(ctx.filters, start=1)]
    while True:
        dup = next(
            (
                (i, j, m)
                for j in range(1, len(kept))
                for i in range(j)
                for m in auts
                if m[kept[j][1]] == kept[i][1]
            ),
            None,
        )
        if dup is None:
            ident = _ident(ctx.algebra.size)
            return [merged + [(s, ident, ident)] for s, _, merged in kept]
        i, j, m = dup
        kept[i][2].append((kept[j][0], m, _inv(m)))
        kept[j] = kept[-1]
        kept.pop()


def reduce_idempotents(ctx: PowerContext):
    """Reduce repeated-orbit filter idempotents to orbit representatives.

    Returns (reduced context, ElementIso).  Point t of the reduced power
    gathers the k points of one orbit: cell j of the branch of the r-th of
    them goes to cell k(j - 1) + r of branch t, its labels carried by that
    point's automorphism onto the representative's idempotent, and the
    off-branch region 1^n goes to 1^(number of orbits).  Both directions
    build their trees bottom-up, one branch cell at a time.
    """
    orbits = _orbits(ctx)
    filters = tuple(ctx.filters[src[-1][0] - 1] for src in orbits)
    red = PowerContext(ctx.algebra, PointContext(len(filters)), filters)
    src_pts, dst_pts = ctx.points, red.points

    def reach(tree, pts, s):
        """Cells of branch s from this index on lie in the cell of the tree
        holding x_s, which carries its filter."""
        return max(_at(tree, pts.point(s))[1] - (s - 1), 1)

    def fwd(f: PowerElement) -> PowerElement:
        tree = subtree(f.tree, "1" * ctx.n)
        for t in range(red.n, 0, -1):
            src = orbits[t - 1]
            d = max(reach(f.tree, src_pts, s) for s, _, _ in src)
            branch = red.filters[t - 1]  # the target cells from k(d - 1) + 1 on
            for j in range(d - 1, 0, -1):
                for s, a, _ in reversed(src):
                    cell = subtree(f.tree, src_pts.cellword(s, j))
                    branch = _node(branch, _map(a.__getitem__, cell))
            tree = _node(branch, tree)
        return PowerElement.from_tree(red, tree)

    def bwd(g: PowerElement) -> PowerElement:
        branches = {}
        for t, src in enumerate(orbits, start=1):
            k = len(src)
            d = (reach(g.tree, dst_pts, t) + k - 2) // k + 1
            for r, (s, _, b) in enumerate(src, start=1):
                branch = ctx.filters[s - 1]  # the source cells from d on
                for j in range(d - 1, 0, -1):
                    cell = subtree(g.tree, dst_pts.cellword(t, k * (j - 1) + r))
                    branch = _node(branch, _map(b.__getitem__, cell))
                branches[s] = branch
        tree = subtree(g.tree, "1" * red.n)
        for s in range(ctx.n, 0, -1):
            tree = _node(branches[s], tree)
        return PowerElement.from_tree(ctx, tree)

    return red, ElementIso(ctx, red, fwd, bwd)


def check_reduction_budget(ctx: PowerContext, depth: int) -> int:
    """The longest cell word of the trees that the round trip of
    reduce_idempotents over the depth-`depth` elements may build, before
    equal sibling leaves merge; raise SizeBudgetExceeded when it is over
    REDUCTION_MAX_WORD letters.  Run it before any image is built."""
    longest = depth
    for t, src in enumerate(_orbits(ctx), start=1):
        # from its lowest point x_a on, an orbit's sources reach at most
        # depth + 1 - a cells deep
        a, b = min(s for s, _, _ in src), max(s for s, _, _ in src)
        extra = max(depth - a, 0)
        # the image's neighbourhood of x_t, and the sources' of x_b
        longest = max(longest, t + len(src) * extra, b + extra)
    if longest > REDUCTION_MAX_WORD:
        raise SizeBudgetExceeded(
            f"the round trip at depth {depth} builds words of up to {longest} "
            f"letters, over the ceiling {REDUCTION_MAX_WORD}"
        )
    return longest


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


def check_element_budget(
    ctx: PowerContext, depth: int, budget: int, name: Optional[str] = None
) -> None:
    """Raise SizeBudgetExceeded when enumerate_elements(ctx, depth) would
    return more than `budget` elements; run it before enumerating.  `name`
    replaces "depth <depth>" in the message, for a depth the caller
    derived."""
    # past this depth the 2^depth - n free cells alone exceed the budget;
    # so do budget.bit_length() free cells, each taking |A| >= 2 values
    over = depth > budget.bit_length() + ctx.n
    if not over:
        forced = _forced_cells(ctx, depth)
        over = forced is not None and 2**depth - len(forced) >= budget.bit_length()
    if over or element_count(ctx, depth) > budget:
        raise SizeBudgetExceeded(
            f"{name or f'depth {depth}'} has more than --budget {budget} elements"
        )


class Elements(Sequence):
    """The elements constant on the level-`depth` cells, ordered by their
    label vectors (the first cell the most significant), each built when
    it is read.  Only the trees of the two halves are kept: element k has
    the tree _node(left[k // R], right[k % R]) for the R right halves; at
    depth 0 `right` is None and `left` holds the leaves.  Indexing, `index`
    and `in` answer as the list of all elements would; a slice is a list."""

    def __init__(self, ctx: PowerContext, left, right):
        self.ctx = ctx
        self._left = left
        self._right = right

    def __len__(self) -> int:
        return len(self._left) * (1 if self._right is None else len(self._right))

    def __iter__(self):
        ctx, left, right = self.ctx, self._left, self._right
        if right is None:
            return (PowerElement(ctx, t) for t in left)
        return (PowerElement(ctx, _node(t0, t1)) for t0 in left for t1 in right)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        n = len(self)
        k = k + n if k < 0 else k
        if not 0 <= k < n:
            raise IndexError("element index out of range")
        if self._right is None:
            return PowerElement(self.ctx, self._left[k])
        q, r = divmod(k, len(self._right))
        return PowerElement(self.ctx, _node(self._left[q], self._right[r]))

    @cached_property
    def _positions(self) -> tuple[dict, dict]:
        """Each left and right half's position, built on the first lookup."""
        return (
            {t: k for k, t in enumerate(self._left)},
            {t: k for k, t in enumerate(self._right or ())},
        )

    def _find(self, f) -> int:
        """f's position, or -1 when f is not one of the elements: an
        object other than a PowerElement, an element of another context
        or support, or a tree that is not constant on the level-`depth`
        cells."""
        if (
            f.__class__ is not PowerElement
            or (f.ctx is not self.ctx and f.ctx != self.ctx)
            or f.support != Clopen.all()
        ):
            return -1
        left, right = self._positions
        t = f.tree
        if self._right is None:
            return left.get(t, -1)
        t0, t1 = t if t.__class__ is tuple else (t, t)
        q, r = left.get(t0), right.get(t1)
        return -1 if q is None or r is None else q * len(self._right) + r

    def __contains__(self, f) -> bool:
        return self._find(f) >= 0

    def index(self, f, start: int = 0, stop: Optional[int] = None) -> int:
        k = self._find(f)
        lo, hi, _ = slice(start, stop).indices(len(self))
        if not lo <= k < hi:
            raise ValueError("element not in the enumeration")
        return k

    def count(self, f) -> int:
        return int(f in self)


def enumerate_elements(ctx: PowerContext, depth: int) -> Elements:
    """All elements constant on the level-`depth` cells, as a sequence
    that builds each element when it is read."""
    forced = _forced_cells(ctx, depth)
    if forced is None:
        return Elements(ctx, (), None)
    labels = range(ctx.algebra.size)

    def trees(w):
        """The trees of every labeling of the level-`depth` cells below w,
        ordered by their label vectors, the first cell the most
        significant; subtrees are shared between them."""
        if len(w) == depth:
            return [forced[w]] if w in forced else labels
        right = trees(w + "1")
        return [_node(t0, t1) for t0 in trees(w + "0") for t1 in right]

    # the forced cells carry their filters, so from_tree's check would pass
    if depth == 0:
        return Elements(ctx, trees(""), None)
    return Elements(ctx, trees("0"), trees("1"))
