"""Eventually periodic sequences indexed by j = 1, 2, ... and
arithmetic-progression bookkeeping.

One normal form backs every "head plus repeating word" in the package:
the points of X, the branch tails of clopens of X° and of kernel
labelings, and the index sets of homeomorphism pieces.  A sequence is a
finite head followed by a word repeated forever, kept canonical: the word
is primitive and the head is as short as possible.  Words may be strings
or tuples; only slicing, concatenation and equality of terms are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, lcm
from operator import and_, gt, not_, or_


def _prime_factors(m: int) -> list[int]:
    out, p = [], 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    return out + [m] if m > 1 else out


def _canon(head, word):
    """(head, word) of head . word^w with a primitive word and the
    shortest head."""
    n = len(word)
    for p in _prime_factors(n):  # any period dividing n divides some n/p
        while n % p == 0 and word[n // p:] == word[:n - n // p]:
            n //= p
            word = word[:n]
    k = len(head)
    while k >= n and head[k - n:k] == word:  # a whole period
        k -= n
    m = 0  # further terms that continue the word backwards
    while m < k and head[k - 1 - m] == word[(-1 - m) % n]:
        m += 1
    r = m % n
    return head[:k - m], (word[-r:] + word[:-r] if r else word)


@dataclass(frozen=True)
class EPSeq:
    """The sequence head . word^w, at(j) for j = 1, 2, ... (canonical:
    primitive word, minimal head)."""

    head: tuple
    word: tuple

    @classmethod
    def make(cls, head, word):
        if not word:
            raise ValueError("empty period")
        return cls(*_canon(head, word))

    def at(self, j: int):
        if j < 1:
            raise IndexError(j)
        h = self.head
        if j <= len(h):
            return h[j - 1]
        return self.word[(j - len(h) - 1) % len(self.word)]

    def shift(self, k: int):
        """The sequence j -> at(j + k), k >= 0."""
        h, w = self.head, self.word
        if k <= len(h):
            return type(self)(h[k:], w)
        r = (k - len(h)) % len(w)
        return type(self)(h[:0], w[r:] + w[:r])

    def prefix(self, k: int):
        """The first k terms (none for k <= 0)."""
        k = max(k, 0)
        # ceil((k - len(head)) / len(word)) words reach past k
        reps = -((len(self.head) - k) // len(self.word))
        return (self.head + self.word * reps)[:k]

    def startswith(self, w) -> bool:
        return self.prefix(len(w)) == w

    def prepend(self, w):
        """The sequence w . self, canonical."""
        return self.make(w + self.head, self.word)

    def _window(self, t: int, L: int):
        """The first t terms and the next L terms; t >= len(head) and L a
        multiple of len(word)."""
        h, w = self.head, self.word
        q, r = divmod(t - len(h), len(w))
        if q or r:
            h = tuple(h) + tuple(w) * q + tuple(w[:r])
            w = w[r:] + w[:r]
        return h, w * (L // len(w))

    def zip_with(self, f, other):
        """The sequence j -> f(at(j), other.at(j)), canonical."""
        t = max(len(self.head), len(other.head))
        L = lcm(len(self.word), len(other.word))
        h1, w1 = self._window(t, L)
        h2, w2 = other._window(t, L)
        head = tuple(map(f, h1, h2))
        return type(self)(*_canon(head, tuple(map(f, w1, w2))))


def common_threshold(branches):
    """The least t past which every sequence (head, word) of `branches` is
    purely periodic, and each one's word from t on."""
    seqs = [EPSeq.make(h, w) for h, w in branches]
    t = max((len(s.head) for s in seqs), default=0)
    return t, [s.shift(t).word for s in seqs]


class EPSet(EPSeq):
    """Eventually periodic subset of {1, 2, ...}: a bool-valued EPSeq
    stored as tuples."""

    @classmethod
    def make(cls, head, word) -> "EPSet":
        return super().make(tuple(map(bool, head)), tuple(map(bool, word)))

    @staticmethod
    def from_aps(aps, singles=()) -> "EPSet":
        """The union of the progressions {f, f+s, f+2s, ...} for (f, s) in
        aps and of the points in singles."""
        if any(f < 1 or s < 1 for f, s in aps) or any(j < 1 for j in singles):
            raise ValueError((aps, singles))
        L = lcm(*(s for _, s in aps))
        h = max([f - s for f, s in aps] + list(singles) + [0])
        bits = [False] * (h + L)  # periodic beyond h: each f - s <= h
        for f, s in aps:
            bits[f - 1::s] = [True] * len(range(f - 1, h + L, s))
        for j in singles:
            bits[j - 1] = True
        return EPSet.make(bits[:h], bits[h:])

    @staticmethod
    def from_ap(first: int, step: int) -> "EPSet":
        """{first, first+step, first+2*step, ...}"""
        return EPSet.from_aps([(first, step)])

    @staticmethod
    def singleton(j: int) -> "EPSet":
        return EPSet.from_aps([], [j])

    def on_ap(self, first: int, step: int):
        """The members of the set among first + k*step (k >= 0), as
        (single positions, pairwise disjoint APs (f, s))."""
        h, n = len(self.head), len(self.word)
        k0 = max(0, (h - first) // step + 1)  # terms inside the head
        period = n // gcd(n, step)
        terms = [self.at(first + k * step) for k in range(k0 + period)]
        g = EPSet.make(terms[:k0], terms[k0:])  # g.at(k + 1): first + k*step
        singles = [first + (k - 1) * step for k in g.finite_part()]
        aps = [(first + (k - 1) * step, m * step) for k, m in g.periodic_aps()]
        return singles, aps

    def union(self, other) -> "EPSet":
        return self.zip_with(or_, other)

    def intersect(self, other) -> "EPSet":
        return self.zip_with(and_, other)

    def difference(self, other) -> "EPSet":
        return self.zip_with(gt, other)  # on bools, a > b is a and not b

    def complement(self) -> "EPSet":
        return EPSet(tuple(map(not_, self.head)), tuple(map(not_, self.word)))

    def is_empty(self) -> bool:
        return not any(self.head) and not any(self.word)

    def is_finite(self) -> bool:
        return not any(self.word)

    def finite_part(self) -> list[int]:
        """Positions of the head ones (all ones when the set is finite)."""
        return list(compress(range(1, len(self.head) + 1), self.head))

    def periodic_aps(self) -> list[tuple[int, int]]:
        """APs (first, step) covering the ones beyond the head, pairwise
        disjoint."""
        h, n = len(self.head), len(self.word)
        return [(j, n) for j in compress(range(h + 1, h + n + 1), self.word)]

    def kth_one(self, k: int) -> int:
        """0-based rank; the set must be infinite."""
        if self.is_finite():
            raise ValueError("finite set")
        ones = self.finite_part()
        if k < len(ones):
            return ones[k]
        k -= len(ones)
        per = list(compress(range(len(self.word)), self.word))
        m = len(per)
        return len(self.head) + 1 + (k // m) * len(self.word) + per[k % m]


def ap_intersect(f1: int, s1: int, f2: int, s2: int):
    """Intersection of two APs as an AP (first, step), or None."""
    g = gcd(s1, s2)
    if (f2 - f1) % g != 0:
        return None
    step = lcm(s1, s2)
    k = ((f2 - f1) // g * pow(s1 // g, -1, s2 // g)) % (s2 // g)
    x = f1 + k * s1
    lo = max(f1, f2)
    if x < lo:
        x += ((lo - x + step - 1) // step) * step
    return x, step


def match_ones(src: EPSet, dst: EPSet):
    """Order isomorphism between two infinite sets, decomposed into
    finitely many single matches plus AP-to-AP pieces.

    Returns (singles, pieces): singles is a list of (j, j') matching the
    k-th one of src to the k-th one of dst for small k; pieces is a list
    of ((f, s), (f', s')) meaning f + t*s maps to f' + t*s' for t >= 0.
    """
    if src.is_finite() or dst.is_finite():
        raise ValueError("both sets must be infinite")
    m1, m2 = sum(src.word), sum(dst.word)
    L = lcm(m1, m2)
    k0 = max(sum(src.head), sum(dst.head))
    singles = [(src.kth_one(k), dst.kth_one(k)) for k in range(k0)]
    pieces = []
    for r in range(L):
        k = k0 + r
        pieces.append(
            (
                (src.kth_one(k), len(src.word) * (L // m1)),
                (dst.kth_one(k), len(dst.word) * (L // m2)),
            )
        )
    return singles, pieces
