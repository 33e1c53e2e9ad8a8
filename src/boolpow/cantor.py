"""Exact clopen algebra of the Cantor space X = {0,1}^w, distinguished
points, and clopens of the punctured space X° = X minus the points.

Clopens and labeled clopen partitions are canonical labeled binary trees,
read out as sorted prefix antichains.  A point of X is an EPSeq over
"01", an eventually periodic binary sequence.  A context fixes n
distinguished points x_i = 1^(i-1) 0^w whose punctured neighbourhoods
decompose into the branch cells cell(i, j) = 1^(i-1) 0^j 1 . X (j >= 1);
labelings and clopens of X° are one labeled tree below a threshold plus
one periodic label word per branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from math import gcd, lcm
from typing import Iterable

from .errors import ContextMismatch, EmptyInput, EmptyOrFull, NotGood
from .seqs import EPSeq, EPSet, common_threshold

# ---------------------------------------------------------------------------
# labeled prefix trees
#
# A tree is a leaf or a pair (t0, t1) of the trees below the prefixes "0"
# and "1".  A leaf is any value other than a tuple, the label on its whole
# cell; None (False in a clopen) marks the outside of the set the tree
# covers.  Canonical: two equal leaf siblings collapse into their parent;
# equal inner siblings stay apart, since a subtree's position fixes the
# words it stands for.  A clopen of X is the bool case.  No tree mixes bool
# and int leaves, as 1 == True.


def _node(t0, t1):
    if t0.__class__ is not tuple and t0 == t1:
        return t0
    return (t0, t1)


def _union(a, b):
    if a is True or b is False or a is b:
        return a
    if b is True or a is False:
        return b
    return _node(_union(a[0], b[0]), _union(a[1], b[1]))


def _inter(a, b):
    if a is False or b is True or a is b:
        return a
    if b is False or a is True:
        return b
    return _node(_inter(a[0], b[0]), _inter(a[1], b[1]))


def _compl(a):
    if a is True or a is False:
        return not a
    return (_compl(a[0]), _compl(a[1]))


def _zip(f, *ts):
    """The tree of f applied to the leaves of the trees ts on each cell of
    their common refinement."""
    if tuple in map(type, ts):
        return _node(
            _zip(f, *[t[0] if t.__class__ is tuple else t for t in ts]),
            _zip(f, *[t[1] if t.__class__ is tuple else t for t in ts]),
        )
    return f(*ts)


def _map(f, t):
    """The tree of f applied to each leaf of t."""
    if t.__class__ is tuple:
        return _node(_map(f, t[0]), _map(f, t[1]))
    return f(t)


def _leaves(t, out: set) -> set:
    """Add the leaves of t to out."""
    if t.__class__ is tuple:
        _leaves(t[0], out)
        _leaves(t[1], out)
    else:
        out.add(t)
    return out


def _words(t, prefix, out):
    """Append the (word, leaf) cells of t below prefix to out, in sorted
    order, leaving out the outside."""
    if t.__class__ is tuple:
        _words(t[0], prefix + "0", out)
        _words(t[1], prefix + "1", out)
    elif t is not None and t is not False:
        out.append((prefix, t))
    return out


def _common_cells(ts, prefix, out):
    """Append the cells of the common refinement of the trees ts below
    prefix to out as (word, leaves), in sorted order, leaving out the
    outside of ts[0]."""
    if tuple in map(type, ts):
        _common_cells([t[0] if t.__class__ is tuple else t for t in ts], prefix + "0", out)
        _common_cells([t[1] if t.__class__ is tuple else t for t in ts], prefix + "1", out)
    elif ts[0] is not None and ts[0] is not False:
        out.append((prefix, tuple(ts)))
    return out


def point_leaves(t, n: int) -> list:
    """The leaf of t at each point 1^(i-1) 0^w, i = 1..n: the leftmost
    leaf below 1^(i-1)."""
    out = []
    for _ in range(n):
        x = t
        while x.__class__ is tuple:
            x = x[0]
        out.append(x)
        if t.__class__ is tuple:
            t = t[1]
    return out


def _at(t, x: EPSeq):
    """The leaf of t at the point x, and the length of its cell's word."""
    i = 0
    while t.__class__ is tuple:
        i += 1
        t = t[x.at(i) == "1"]
    return t, i


def subtree(t, w: str):
    """The tree s -> t(w.s) of t below the word w."""
    for c in w:
        if t.__class__ is not tuple:
            break
        t = t[c == "1"]
    return t


def _graft(t, w, sub):
    if not w:
        return sub
    t0, t1 = t if t.__class__ is tuple else (t, t)
    if w[0] == "0":
        return _node(_graft(t0, w[1:], sub), t1)
    return _node(t0, _graft(t1, w[1:], sub))


def graft(t, cells):
    """The tree t with its part below w replaced by the tree sub, for each
    (w, sub) of the cells, whose words do not meet: grafting the subtrees
    of t below p at q carries t through the prefix pairs p.s -> q.s."""
    for w, sub in cells:
        t = _graft(t, w, sub)
    return t


# the word lists whose checked shape `shape` keeps, the least recently
# used dropped first; an entry holds its words, joined into one string,
# and two small ints a cell
SHAPE_MEMO_SIZE = 2048


def build(cells, s=True, what="cells", untiled="cells do not tile the support"):
    """The tree of the (word, leaf) cells, which must tile the clopen
    tree s.  ValueErrors come in this order: two cells that meet
    ("overlapping <what>"), a word not over 01, cells that do not tile s
    (`untiled`).  The checks read the words alone and run once per word
    list (`shape`); the leaves are then filled in."""
    program = shape([w for w, _ in cells], s, what, untiled)
    return fill(program, [a for _, a in cells] + [None])


def shape(words, s=True, what="cells", untiled="cells do not tile the support"):
    """The checked shape of cells with this list of words, which must
    tile the clopen tree s, raising as `build` does: their tree as a
    program in postorder over the cells' indices, -1 for the outside and
    None for joining the last two trees.  A shape is kept per word list,
    support tree and messages; a refusal is not kept."""
    key = ",".join(words)
    if key.count(",") != len(words) - 1:  # no words, or one not over 01
        return tuple(_postorder(_shape(words, s, what, untiled), []))
    return _kept_shape(key, s, what, untiled)


@lru_cache(maxsize=SHAPE_MEMO_SIZE)
def _kept_shape(key, s, what, untiled):
    return tuple(_postorder(_shape(key.split(","), s, what, untiled), []))


def _shape(words, s, what, untiled):
    """`shape`'s checks without the memo, for word lists that seldom
    recur: the tree of the cells' indices, -1 outside s."""
    order = sorted(range(len(words)), key=words.__getitem__)
    ordered = [words[k] for k in order]
    # in sorted order a word prefixing a later one prefixes the next
    for u, v in zip(ordered, ordered[1:]):
        if v.startswith(u):
            raise ValueError(f"overlapping {what}")
    for w in words:
        if w.strip("01"):
            raise ValueError(f"bad word {w!r}")
    return _tile(ordered, order, 0, len(order), 0, s, untiled)


def _tile(words, order, lo, hi, d, s, untiled):
    """The tree of cell indices order[lo:hi] of the sorted words[lo:hi], no
    two of which meet, which share their first d letters and, cut after
    them, tile the clopen tree s; -1 outside s."""
    if s is False:
        if lo < hi:
            raise ValueError(untiled)
        return -1
    if lo == hi:
        raise ValueError(untiled)
    if len(words[lo]) == d:  # the only cell
        if s is not True:
            raise ValueError(untiled)
        return order[lo]
    mid = lo
    while mid < hi and words[mid][d] == "0":
        mid += 1
    s0, s1 = s if s.__class__ is tuple else (s, s)
    return _node(
        _tile(words, order, lo, mid, d + 1, s0, untiled),
        _tile(words, order, mid, hi, d + 1, s1, untiled),
    )


def _postorder(t, out):
    if t.__class__ is tuple:
        _postorder(t[0], out)
        _postorder(t[1], out)
        out.append(None)
    else:
        out.append(t)
    return out


def fill(program, labels):
    """The canonical tree of a shape's program on the cells' labels,
    followed by None for the outside (index -1): equal leaf siblings
    collapse as in `_node`."""
    stack = []
    push, pop = stack.append, stack.pop
    for k in program:
        if k is None:
            t1 = pop()
            t0 = stack[-1]
            if t0.__class__ is not tuple and t0 == t1:
                continue
            stack[-1] = (t0, t1)
        else:
            push(labels[k])
    return stack[0]


class Clopen:
    """Clopen subset of X, stored as a canonical binary tree.

    Its boundary form ``words`` is the sorted canonical prefix antichain:
    no word is a prefix of another and no two sibling words p0, p1 are
    both present.  The empty set is (), all of X is ("",).
    """

    __slots__ = ("_t", "_words")

    def __init__(self, tree):
        self._t = tree
        self._words = None

    @property
    def words(self) -> tuple[str, ...]:
        if self._words is None:
            self._words = tuple([w for w, _ in _words(self._t, "", [])])
        return self._words

    def __eq__(self, other):
        if other.__class__ is not Clopen:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(self._t)

    def __repr__(self):
        return f"Clopen(words={self.words!r})"

    @staticmethod
    def make(words: Iterable[str]) -> "Clopen":
        t = False
        for w in words:
            if w.strip("01"):
                raise ValueError(f"bad word {w!r}")
            p = True
            for c in reversed(w):
                p = (p, False) if c == "0" else (False, p)
            t = _union(t, p)
        return Clopen(t)

    @staticmethod
    def empty() -> "Clopen":
        return Clopen(False)

    @staticmethod
    def all() -> "Clopen":
        return Clopen(True)

    def union(self, other: "Clopen") -> "Clopen":
        return Clopen(_union(self._t, other._t))

    def intersect(self, other: "Clopen") -> "Clopen":
        return Clopen(_inter(self._t, other._t))

    def complement(self) -> "Clopen":
        return Clopen(_compl(self._t))

    def difference(self, other: "Clopen") -> "Clopen":
        return self.intersect(other.complement())

    def is_empty(self) -> bool:
        return self._t is False

    def is_all(self) -> bool:
        return self._t is True

    def is_subset(self, other: "Clopen") -> bool:
        return self.difference(other).is_empty()


def split(b: Clopen) -> tuple[Clopen, Clopen]:
    """Split a nonempty clopen into two disjoint nonempty clopens."""
    if b.is_empty():
        raise EmptyInput("cannot split the empty clopen")
    w = min(b.words, key=lambda x: (len(x), x))
    first = Clopen.make([w + "0"])
    return first, b.difference(first)


# ---------------------------------------------------------------------------
# points of X


def point_in(x: EPSeq, b: Clopen) -> bool:
    return _at(b._t, x)[0]


def cell_witness(w: str) -> EPSeq:
    """A canonical point inside cell(w) distinct from every x_i."""
    return EPSeq.make(w, "01")


# ---------------------------------------------------------------------------
# distinguished points and branch cells


@dataclass(frozen=True)
class PointContext:
    """n distinguished points x_i = 1^(i-1) 0^w with their branch cells."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(self.n)

    def point(self, i: int) -> EPSeq:
        if not 1 <= i <= self.n:
            raise IndexError(i)
        return EPSeq("1" * (i - 1), "0")  # canonical as it stands

    def points(self) -> list[EPSeq]:
        return [self.point(i) for i in range(1, self.n + 1)]

    def cellword(self, i: int, j: int) -> str:
        if not (1 <= i <= self.n and j >= 1):
            raise IndexError((i, j))
        return "1" * (i - 1) + "0" * j + "1"

    def branch_cell(self, w: str):
        """(i, j) for a word inside cell(i, j), None for a word below 1^n;
        a ValueError for a word that holds a distinguished point."""
        k = len(w) - len(w.lstrip("1"))
        if k >= self.n:
            return None
        j = w.find("1", k) - k  # w = 1^k 0^j 1 ...
        if j < 0:
            raise ValueError(f"word {w!r} holds the distinguished point x_{k + 1}")
        return k + 1, j

    def cell(self, i: int, j: int) -> Clopen:
        return Clopen.make([self.cellword(i, j)])

    def nbhd_word(self, i: int, d: int) -> str:
        """1^(i-1) 0^d, the clopen of X containing x_i and cells j >= d."""
        return "1" * (i - 1) + "0" * d

    def region(self, d: int) -> Clopen:
        """Off-branch region plus the cells of tail index <= d: X minus
        every nbhd_word(i, d + 1), built as one tree."""
        if d < 0:  # nbhd_word(1, d + 1) is all of X
            return Clopen.all() if self.n == 0 else Clopen.empty()
        below = False  # X minus 0^d, the part kept below each 1^(i-1) 0
        for _ in range(d):
            below = (below, True)
        t = True  # the off-branch part below 1^n
        for _ in range(self.n):
            t = (below, t)
        return Clopen(t)

    def locate(self, x: EPSeq):
        """("point", i) / ("cell", i, j, suffix) / ("off", None)."""
        ones = 0
        while ones < self.n and x.at(ones + 1) == "1":
            ones += 1
        if ones >= self.n:
            return ("off", None)
        i = ones + 1
        rest = x.shift(ones)
        if rest == EPSeq("", "0"):
            return ("point", i)
        zeros = 0
        while rest.at(zeros + 1) == "0":
            zeros += 1
        return ("cell", i, zeros, rest.shift(zeros + 1))


def tail_cells(ctx: PointContext, threshold: int, label, depths, ends) -> list:
    """(nbhd_word(i, threshold + 1), tree) for each branch i, to graft into
    an exceptional part: the tree carries label(i, j) on cell(i, j) for
    threshold < j < D = depths[i-1] and the leaf ends[i-1] below
    nbhd_word(i, D)."""
    out = []
    for i, (D, sub) in enumerate(zip(depths, ends), start=1):
        for j in range(D - 1, threshold, -1):
            sub = _node(sub, label(i, j))
        out.append((ctx.nbhd_word(i, threshold + 1), sub))
    return out


def _cell_labels(t, i: int, d: int) -> tuple:
    """For j = 1..d: the leaf of tree t on the whole of cell(i, j), None
    when t splits that cell."""
    for _ in range(i - 1):
        if t.__class__ is tuple:
            t = t[1]
    out = []
    for _ in range(d):
        if t.__class__ is tuple:
            t = t[0]
        c = t[1] if t.__class__ is tuple else t
        out.append(None if c.__class__ is tuple else c)
    return tuple(out)


# ---------------------------------------------------------------------------
# labelings and clopens of the punctured space


@dataclass(frozen=True)
class ClopenType:
    """Branches accumulating the set (ins) and its complement (outs)."""

    ins: frozenset[int]
    outs: frozenset[int]


@dataclass(frozen=True)
class TailTree:
    """Locally constant labeling of X° with periodic branch tails.

    The tree is a canonical labeled tree tiling region(threshold), None
    outside it; a leaf is any value other than a tuple.  Beyond the
    threshold, cell(i, j) carries tails[i-1][(j - threshold - 1) % len],
    each tail word a primitive tuple of leaves.  A clopen of X° is the
    bool case, a kernel labeling the automorphism-index case.
    """

    ctx: PointContext
    threshold: int
    tree: object
    tails: tuple

    @staticmethod
    def make(ctx, threshold, tree, tails) -> "TailTree":
        """The canonical form: the least threshold, where each branch
        reads its whole-cell labels (no region cell has a proper prefix
        inside the region) followed by its tail word; the cells past it
        leave the tree."""
        if threshold < 0:  # a tree on region(-1) misses the off-branch cells
            raise ValueError(f"negative threshold {threshold}")
        d, tails = common_threshold(
            (_cell_labels(tree, i, threshold), t) for i, t in enumerate(tails, start=1)
        )
        if d < threshold:
            tree = _zip(lambda k, inside: k if inside else None, tree, ctx.region(d)._t)
        return TailTree(ctx, d, tree, tuple(tails))

    def tail_at(self, i: int, j: int):
        """The label of cell(i, j), for j past the threshold."""
        word = self.tails[i - 1]
        return word[(j - self.threshold - 1) % len(word)]

    def raised(self, d: int) -> "TailTree":
        """Same labeling re-expressed at threshold d >= current (not
        canonical)."""
        if d < self.threshold:
            raise ValueError(d)
        if d == self.threshold:
            return self
        n = self.ctx.n
        cells = tail_cells(self.ctx, self.threshold, self.tail_at, [d + 1] * n, [None] * n)
        # stored tail words are primitive
        tails = tuple(EPSeq((), t).shift(d - self.threshold).word for t in self.tails)
        return TailTree(self.ctx, d, graft(self.tree, cells), tails)

    def zip(self, f, *others) -> "TailTree":
        """The labeling x -> f(self(x), *(o(x) for o in others)), canonical;
        f must keep None, the outside of the region, None."""
        for o in others:
            if o.ctx != self.ctx:
                raise ContextMismatch((self.ctx, o.ctx))
        d = max(o.threshold for o in (self,) + others)
        ts = [o.raised(d) for o in (self,) + others]
        tails = []
        for words in zip(*[o.tails for o in ts]):
            L = lcm(*map(len, words))
            tails.append(tuple(map(f, *[w * (L // len(w)) for w in words])))
        return TailTree.make(self.ctx, d, _zip(f, *[o.tree for o in ts]), tails)

    def push(self, h) -> "TailTree":
        """The labeling x -> self(h^{-1}(x)) for a homeomorphism h of X° in
        tabular-plus-tail form (an `EPHomeo`), which may move tail cells
        between branches.

        One pass over h's normal form: the tree below each source cell of
        a tabular pair, or of a piece cell's `cellmap` pair, is grafted at
        its image.  Past the new threshold D every image cell is a whole
        tail cell of self, whose label is read at its preimage."""
        pts, T = self.ctx, self.threshold
        # D: the deepest tabular image and the deepest image of a piece
        # cell at or below T; Ds: the depth the tree is read at
        D = max((c[1] for _, q in h.pairs if (c := pts.branch_cell(q))), default=0)
        Ds = max([T] + [c[1] for p, _ in h.pairs if (c := pts.branch_cell(p))])
        for pc in h.pieces:
            if pc.first <= T:
                D = max(D, pc.image_of(T - (T - pc.first) % pc.step))
        tree = self.raised(Ds).tree
        cells = [(q, subtree(tree, p)) for p, q in h.pairs]
        for pc in h.pieces:
            j, jj = pc.first, pc.ifirst
            while jj <= D:
                dst = pts.cellword(pc.target, jj)
                if j <= Ds:
                    src = pts.cellword(pc.branch, j)
                    cells += [(dst + b, subtree(tree, src + a)) for a, b in pc.cellmap.pairs]
                else:
                    cells.append((dst, self.tail_at(pc.branch, j)))
                j, jj = j + pc.step, jj + pc.istep
        # tails: image indices D+1 .. D+P, P a period of every piece's
        # labels in the image index
        periods = [len(w) for w in self.tails]
        tails = []
        for t in range(1, pts.n + 1):
            onto = [pc for pc in h.pieces if pc.target == t]
            P = lcm(*(
                pc.istep * periods[pc.branch - 1] // gcd(periods[pc.branch - 1], pc.step)
                for pc in onto
            ))
            word = [None] * P
            for pc in onto:
                k = max(0, -((pc.ifirst - D - 1) // pc.istep))  # first image past D
                for jj in range(pc.ifirst + k * pc.istep, D + P + 1, pc.istep):
                    word[jj - D - 1] = self.tail_at(pc.branch, pc.first + k * pc.step)
                    k += 1
            tails.append(tuple(word))
        return TailTree.make(pts, D, graft(None, cells), tails)


@dataclass(frozen=True)
class TailClopen:
    """Clopen subset of X°: the bool case of TailTree, True on the set.

    Read back as the exceptional part, an arbitrary clopen inside
    region(threshold), and one tail word per branch: beyond the
    threshold, branch i contains cell(i, j) as a whole iff
    tails[i-1][(j - threshold - 1) % len] == '1'.  Never contains any x_i.
    """

    labels: TailTree

    @staticmethod
    def make(ctx, threshold, exceptional, tails) -> "TailClopen":
        tails = tuple(tails)
        if len(tails) != ctx.n:
            raise ValueError("one tail word per branch")
        for w in tails:
            if not w or any(c not in "01" for c in w):
                raise ValueError(f"bad tail word {w!r}")

        def inside(b, r):
            if b and not r:
                raise ValueError("exceptional part leaks into a branch tail")
            return b if r else None

        tree = _zip(inside, exceptional._t, ctx.region(threshold)._t)
        words = [tuple(c == "1" for c in w) for w in tails]
        return TailClopen(TailTree.make(ctx, threshold, tree, words))

    @property
    def ctx(self) -> PointContext:
        return self.labels.ctx

    @property
    def threshold(self) -> int:
        return self.labels.threshold

    @cached_property
    def exceptional(self) -> Clopen:
        return Clopen(_map(lambda b: b is True, self.labels.tree))

    @cached_property
    def tails(self) -> tuple[str, ...]:
        return tuple("".join("01"[b] for b in w) for w in self.labels.tails)

    @staticmethod
    def empty(ctx) -> "TailClopen":
        return TailClopen.make(ctx, 0, Clopen.empty(), ("0",) * ctx.n)

    @staticmethod
    def full(ctx) -> "TailClopen":
        """All of X°."""
        return TailClopen.make(ctx, 0, ctx.region(0), ("1",) * ctx.n)

    @staticmethod
    def from_clopen(ctx, b: Clopen) -> "TailClopen":
        """b minus the distinguished points, as a clopen of X°."""
        d = max([len(w) for w in b.words], default=0)
        tails = []
        for i in range(1, ctx.n + 1):
            tails.append("1" if point_in(ctx.point(i), b) else "0")
        exc = b.intersect(ctx.region(d))
        return TailClopen.make(ctx, d, exc, tails)

    def tail_epset(self, i: int) -> EPSet:
        """Whole-cell membership on branch i beyond the threshold."""
        return EPSet.make((False,) * self.threshold, self.labels.tails[i - 1])

    def raised(self, d: int) -> "TailClopen":
        """Same set re-expressed at threshold d >= current (not canonical)."""
        return TailClopen(self.labels.raised(d))

    # a zip meets the outside, None, only with None: `or` and `and` keep it
    def union(self, other) -> "TailClopen":
        return TailClopen(self.labels.zip(lambda a, b: a or b, other.labels))

    def intersect(self, other) -> "TailClopen":
        return TailClopen(self.labels.zip(lambda a, b: a and b, other.labels))

    def difference(self, other) -> "TailClopen":
        return self.intersect(other.complement())

    def complement(self) -> "TailClopen":
        """Complement within X°."""
        return TailClopen(self.labels.zip(lambda a: None if a is None else not a))

    def is_empty(self) -> bool:
        labels = self.labels
        return True not in _leaves(labels.tree, set()) and not any(map(any, labels.tails))

    def is_full(self) -> bool:
        labels = self.labels
        return False not in _leaves(labels.tree, set()) and all(map(all, labels.tails))

    def is_subset(self, other) -> bool:
        return self.difference(other).is_empty()

    def extends_to_clopen(self) -> bool:
        """True when every tail word is constant."""
        return all(len(set(w)) == 1 for w in self.tails)

    def to_clopen(self) -> Clopen:
        """Closure in X: adds x_i for every all-ones branch."""
        if not self.extends_to_clopen():
            raise ValueError("branch tails are not eventually constant")
        out = self.exceptional
        for i in range(1, self.ctx.n + 1):
            if self.tails[i - 1] == "1":
                out = out.union(Clopen.make([self.ctx.nbhd_word(i, self.threshold + 1)]))
        return out

    def contains_point(self, x: EPSeq) -> bool:
        loc = self.ctx.locate(x)
        if loc[0] == "point":
            return False
        if loc[0] == "cell":
            _, i, j, _ = loc
            if j > self.threshold:
                return self.labels.tail_at(i, j)
        return point_in(x, self.exceptional)


def type_of(c: TailClopen) -> ClopenType:
    """Branches whose point is a limit point of c (ins) and of X° minus c
    (outs); requires c proper and nonempty."""
    if c.is_empty() or c.is_full():
        raise EmptyOrFull("type is defined for proper nonempty clopens of X°")
    tails = c.labels.tails
    ins = frozenset(i for i, w in enumerate(tails, start=1) if True in w)
    outs = frozenset(i for i, w in enumerate(tails, start=1) if False in w)
    return ClopenType(ins, outs)


def is_good(c: TailClopen) -> bool:
    """Good: both c and its complement accumulate at every point."""
    if c.is_empty() or c.is_full():
        return False
    t = type_of(c)
    allb = frozenset(range(1, c.ctx.n + 1))
    return t.ins == allb and t.outs == allb


def deal_cyclic(word: str, parts: int, r: int) -> str:
    """Share r of the ones of a periodic 0/1 word dealt out cyclically by
    rank among `parts` shares (the first one has rank 0), as a word over
    `parts` periods."""
    rank = count()
    return "".join(
        "1" if c == "1" and next(rank) % parts == r else "0"
        for c in word * parts
    )


def split_cyclic(c: TailClopen, parts: int, exceptional_to: int = 0):
    """Partition c into `parts` disjoint pieces: the whole tail cells of c
    are dealt out cyclically by rank on every branch, and the exceptional
    content of c goes to piece `exceptional_to`."""
    if parts < 1:
        raise ValueError(parts)
    out = []
    for r in range(parts):
        tails = [deal_cyclic(w, parts, r) for w in c.tails]
        exc = c.exceptional if r == exceptional_to else Clopen.empty()
        out.append(TailClopen.make(c.ctx, c.threshold, exc, tails))
    return out


def split_good(c: TailClopen) -> tuple[TailClopen, TailClopen]:
    """Split a good clopen into two disjoint good clopens covering it."""
    if not is_good(c):
        raise NotGood(c)
    a, b = split_cyclic(c, 2)
    return a, b


# ---------------------------------------------------------------------------
# tabular bijections of X (finite prefix exchanges)


def merge_sibling_pairs(pairs) -> tuple:
    """Sorted prefix pairs after joining p0 -> q0, p1 -> q1 into p -> q
    wherever q0, q1 are the sibling words q0, q1; one stack scan over the
    sorted, de-duplicated pairs: the pair of a merged p0 is on top of the
    stack when p1 arrives."""
    merged = []
    for p, q in sorted(set(pairs)):
        while (
            p[-1:] == "1"
            and q[-1:] == "1"
            and merged
            and merged[-1][0] == p[:-1] + "0"
            and merged[-1][1] == q[:-1] + "0"
        ):
            merged.pop()
            p, q = p[:-1], q[:-1]
        merged.append((p, q))
    return tuple(merged)


class Table:
    """A cell map is an `EPHomeo` on PointContext(0); `perfbench/tracer.py`
    still reports calls under the name `cantor.Table.make`."""

    @staticmethod
    def make(pairs):
        from .homeo import EPHomeo

        return EPHomeo.make(PointContext(0), pairs, ())
