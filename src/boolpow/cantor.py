"""Exact clopen algebra of the Cantor space X = {0,1}^w, distinguished
points, and clopens of the punctured space X° = X minus the points.

Clopens are canonical binary trees, read out as prefix antichains.  Points
are eventually periodic binary sequences.  A context fixes n distinguished points x_i = 1^(i-1) 0^w
whose punctured neighbourhoods decompose into the branch cells
cell(i, j) = 1^(i-1) 0^j 1 . X (j >= 1); clopens of X° are stored as an
exceptional clopen below a threshold plus one periodic inclusion word per
branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable

from .errors import ContextMismatch, EmptyInput, EmptyOrFull, NotGood
from .seqs import EPSeq, EPSet, common_threshold

# ---------------------------------------------------------------------------
# clopens of X as binary trees
#
# A tree is False (empty), True (all of X) or a pair (t0, t1) of the parts
# below the prefixes "0" and "1".  Canonical: two True or two False
# siblings collapse into their parent; equal inner siblings stay apart,
# since a subtree's position fixes the words it stands for.


def _node(t0, t1):
    if t0 is t1 and (t0 is True or t0 is False):
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


def _words(t, prefix, out):
    if t is True:
        out.append(prefix)
    elif t is not False:
        _words(t[0], prefix + "0", out)
        _words(t[1], prefix + "1", out)
    return out


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
            self._words = tuple(_words(self._t, "", []))
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

    def covers(self, w: str) -> bool:
        """Whether the cell w.X lies inside this clopen."""
        t = self._t
        for c in w:
            if t.__class__ is not tuple:
                break
            t = t[c == "1"]
        return t is True

    def measure(self, depth: int) -> int:
        """The number of length-``depth`` cells inside, 2^depth times the
        Haar measure; ``depth`` is at least the longest word."""
        return sum(1 << (depth - len(w)) for w in self.words)


def prefix_overlap(words) -> bool:
    """Whether two of the cells intersect (one word prefixes another)."""
    ws = sorted(words)
    for a, b in zip(ws, ws[1:]):
        if b.startswith(a):
            return True
    return False


def split(b: Clopen) -> tuple[Clopen, Clopen]:
    """Split a nonempty clopen into two disjoint nonempty clopens."""
    if b.is_empty():
        raise EmptyInput("cannot split the empty clopen")
    w = min(b.words, key=lambda x: (len(x), x))
    first = Clopen.make([w + "0"])
    return first, b.difference(first)


# ---------------------------------------------------------------------------
# labeled prefix antichains
#
# A labeled antichain is a sorted list of (word, label) cells, no word a
# prefix of another.  In sorted order the cells are read left to right, so
# the cells inside one word come next to each other.


def merge_sibling_cells(cells) -> tuple:
    """The sorted labeled antichain `cells` with sibling cells p0, p1 of
    equal label merged into p, repeatedly, in one stack scan: the cell of
    a merged p0 is on top of the stack when p1 arrives."""
    merged = []
    for w, a in cells:
        while (
            w[-1:] == "1"
            and merged
            and merged[-1][1] == a
            and merged[-1][0] == w[:-1] + "0"
        ):
            merged.pop()
            w = w[:-1]
        merged.append((w, a))
    return tuple(merged)


def meet(xs, ys) -> list[tuple[str, object, object]]:
    """Common refinement of two sorted labeled antichains that tile the
    same set, as sorted (word, x label, y label) triples.

    One linear scan: the shorter side advances once the longer side has
    left its cell.  Raises ValueError when the cells do not nest.
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


def transport(cells, pairs) -> list[tuple[str, object]]:
    """The sorted labeled cells carried through the sorted prefix pairs
    p.s -> q.s, whose sources tile the same set: each piece w of the
    common refinement goes to q + w[len(p):] with its label (unsorted)."""
    return [
        (q + w[len(p):], a)
        for w, a, (p, q) in meet(cells, [(p, (p, q)) for p, q in pairs])
    ]


# ---------------------------------------------------------------------------
# eventually periodic points


@dataclass(frozen=True)
class Point:
    """The sequence pre . per^w, with minimal preperiod and primitive period."""

    pre: str
    per: str

    @staticmethod
    def make(pre: str, per: str) -> "Point":
        if not per or any(c not in "01" for c in pre + per):
            raise ValueError((pre, per))
        s = EPSeq.make(pre, per)
        return Point(s.head, s.word)

    def bit(self, i: int) -> str:
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def startswith(self, w: str) -> bool:
        return self.prefix(len(w)) == w

    def drop(self, k: int) -> "Point":
        if k <= len(self.pre):
            return Point.make(self.pre[k:], self.per)
        sh = (k - len(self.pre)) % len(self.per)
        return Point.make("", self.per[sh:] + self.per[:sh])

    def prepend(self, w: str) -> "Point":
        return Point.make(w + self.pre, self.per)

    def prefix(self, k: int) -> str:
        k = max(k, 0)
        # ceil((k - len(pre)) / len(per)) periods reach past k
        reps = -((len(self.pre) - k) // len(self.per))
        return (self.pre + self.per * reps)[:k]


def point_in(x: Point, b: Clopen) -> bool:
    t, i = b._t, 0
    while t.__class__ is tuple:
        t = t[x.bit(i) == "1"]
        i += 1
    return t


def cell_witness(w: str) -> Point:
    """A canonical point inside cell(w) distinct from every x_i."""
    return Point.make(w, "01")


# ---------------------------------------------------------------------------
# distinguished points and branch cells


@dataclass(frozen=True)
class PointContext:
    """n distinguished points x_i = 1^(i-1) 0^w with their branch cells."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(self.n)

    def point(self, i: int) -> Point:
        if not 1 <= i <= self.n:
            raise IndexError(i)
        return Point("1" * (i - 1), "0")  # canonical as it stands

    def points(self) -> list[Point]:
        return [self.point(i) for i in range(1, self.n + 1)]

    def cellword(self, i: int, j: int) -> str:
        if not (1 <= i <= self.n and j >= 1):
            raise IndexError((i, j))
        return "1" * (i - 1) + "0" * j + "1"

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

    def locate(self, x: Point):
        """("point", i) / ("cell", i, j, suffix) / ("off", None)."""
        ones = 0
        while ones < self.n and x.bit(ones) == "1":
            ones += 1
        if ones >= self.n:
            return ("off", None)
        i = ones + 1
        rest = x.drop(ones)
        if rest == Point.make("", "0"):
            return ("point", i)
        zeros = 0
        while rest.bit(zeros) == "0":
            zeros += 1
        return ("cell", i, zeros, rest.drop(zeros + 1))


def _cell_labels(t, i: int, d: int) -> tuple:
    """For j = 1..d: "1" or "0" when tree t holds all or none of
    cell(i, j), None when it splits that cell."""
    for _ in range(i - 1):
        if t.__class__ is tuple:
            t = t[1]
    out = []
    for _ in range(d):
        if t.__class__ is tuple:
            t = t[0]
        c = t[1] if t.__class__ is tuple else t
        out.append(None if c.__class__ is tuple else "01"[c])
    return tuple(out)


# ---------------------------------------------------------------------------
# clopens of the punctured space


@dataclass(frozen=True)
class ClopenType:
    """Branches accumulating the set (ins) and its complement (outs)."""

    ins: frozenset[int]
    outs: frozenset[int]


@dataclass(frozen=True)
class TailClopen:
    """Clopen subset of X°.

    The exceptional part is an arbitrary clopen inside region(threshold);
    beyond the threshold, branch i contains cell(i, j) as a whole iff
    tails[i-1][(j - threshold - 1) % len] == '1'.  Never contains any x_i.
    """

    ctx: PointContext
    threshold: int
    exceptional: Clopen
    tails: tuple[str, ...]

    @staticmethod
    def make(ctx, threshold, exceptional, tails) -> "TailClopen":
        tails = tuple(tails)
        if len(tails) != ctx.n:
            raise ValueError("one tail word per branch")
        for w in tails:
            if not w or any(c not in "01" for c in w):
                raise ValueError(f"bad tail word {w!r}")
        if not exceptional.is_subset(ctx.region(threshold)):
            raise ValueError("exceptional part leaks into a branch tail")
        # minimal threshold: each branch reads its whole-cell labels up to
        # the threshold followed by its tail word
        d, words = common_threshold(
            (_cell_labels(exceptional._t, i, threshold), tuple(w))
            for i, w in enumerate(tails, start=1)
        )
        if d < threshold:
            exceptional = exceptional.intersect(ctx.region(d))
        return TailClopen(ctx, d, exceptional, tuple(map("".join, words)))

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

    def tail_bit(self, i: int, j: int) -> str:
        w = self.tails[i - 1]
        return w[(j - self.threshold - 1) % len(w)]

    def tail_epset(self, i: int) -> EPSet:
        """Whole-cell membership on branch i beyond the threshold."""
        return EPSet.make(
            (False,) * self.threshold,
            tuple(c == "1" for c in self.tails[i - 1]),
        )

    def raised(self, d: int) -> "TailClopen":
        """Same set re-expressed at threshold d >= current (not canonical)."""
        if d < self.threshold:
            raise ValueError(d)
        if d == self.threshold:
            return self
        exc = self.exceptional
        tails = []
        for i, w in enumerate(self.tails, start=1):
            s = EPSeq((), w)  # stored tail words are primitive
            for j in range(1, d - self.threshold + 1):
                if s.at(j) == "1":
                    exc = exc.union(self.ctx.cell(i, self.threshold + j))
            tails.append(s.shift(d - self.threshold).word)
        return TailClopen(self.ctx, d, exc, tuple(tails))

    def _binop(self, other, excfn, bitfn) -> "TailClopen":
        if self.ctx != other.ctx:
            raise ContextMismatch((self.ctx, other.ctx))
        d = max(self.threshold, other.threshold)
        a, b = self.raised(d), other.raised(d)
        exc = excfn(a.exceptional, b.exceptional)
        tails = [
            "".join(EPSeq((), x).zip_with(bitfn, EPSeq((), y)).word)
            for x, y in zip(a.tails, b.tails)
        ]
        return TailClopen.make(self.ctx, d, exc, tails)

    def union(self, other) -> "TailClopen":
        return self._binop(
            other, lambda p, q: p.union(q), lambda x, y: "1" if "1" in (x, y) else "0"
        )

    def intersect(self, other) -> "TailClopen":
        return self._binop(
            other,
            lambda p, q: p.intersect(q),
            lambda x, y: "1" if x == y == "1" else "0",
        )

    def difference(self, other) -> "TailClopen":
        return self.intersect(other.complement())

    def complement(self) -> "TailClopen":
        """Complement within X°."""
        exc = self.ctx.region(self.threshold).difference(self.exceptional)
        tails = ["".join("1" if c == "0" else "0" for c in w) for w in self.tails]
        return TailClopen.make(self.ctx, self.threshold, exc, tails)

    def is_empty(self) -> bool:
        return self.exceptional.is_empty() and all(
            set(w) == {"0"} for w in self.tails
        )

    def is_full(self) -> bool:
        return self.complement().is_empty()

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

    def contains_point(self, x: Point) -> bool:
        loc = self.ctx.locate(x)
        if loc[0] == "point":
            return False
        if loc[0] == "cell":
            _, i, j, _ = loc
            if j > self.threshold:
                return self.tail_bit(i, j) == "1"
        return point_in(x, self.exceptional)


def type_of(c: TailClopen) -> ClopenType:
    """Branches whose point is a limit point of c (ins) and of X° minus c
    (outs); requires c proper and nonempty."""
    if c.is_empty() or c.is_full():
        raise EmptyOrFull("type is defined for proper nonempty clopens of X°")
    ins = frozenset(
        i for i in range(1, c.ctx.n + 1) if "1" in c.tails[i - 1]
    )
    outs = frozenset(
        i for i in range(1, c.ctx.n + 1) if "0" in c.tails[i - 1]
    )
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
    sorted, de-duplicated pairs, as in merge_sibling_cells."""
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


@dataclass(frozen=True)
class Table:
    """Bijection of X given by pairs (p, q): p.s -> q.s; the p's and the
    q's each form a complete prefix partition of X."""

    pairs: tuple[tuple[str, str], ...]

    @staticmethod
    def make(pairs) -> "Table":
        pairs = [(str(p), str(q)) for p, q in pairs]
        srcs = [p for p, _ in pairs]
        if prefix_overlap(srcs):
            raise ValueError("overlapping source cells")
        if not Clopen.make(srcs).is_all():
            raise ValueError("source cells do not cover X")
        dsts = [q for _, q in pairs]
        if prefix_overlap(dsts):
            raise ValueError("overlapping image cells")
        if not Clopen.make(dsts).is_all():
            raise ValueError("image cells do not cover X")
        return Table(merge_sibling_pairs(pairs))

    @staticmethod
    def identity() -> "Table":
        return Table((("", ""),))

    def is_identity(self) -> bool:
        return self.pairs == (("", ""),)

    def inverse(self) -> "Table":
        return Table(merge_sibling_pairs([(q, p) for p, q in self.pairs]))

    def compose(self, first: "Table") -> "Table":
        """self after first: first's image cells met with self's source
        cells."""
        images = sorted((q, (p, q)) for p, q in first.pairs)
        sources = [(p, (p, q)) for p, q in self.pairs]
        return Table(
            merge_sibling_pairs(
                (p + w[len(q):], q2 + w[len(p2):])
                for w, (p, q), (p2, q2) in meet(images, sources)
            )
        )

    def apply_point(self, x: Point) -> Point:
        for p, q in self.pairs:
            if x.startswith(p):
                return x.drop(len(p)).prepend(q)
        raise AssertionError("incomplete table")

