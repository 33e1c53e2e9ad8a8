"""Eventually periodic 0/1 sequences indexed by j = 1, 2, ... and
arithmetic-progression bookkeeping.

These back the branch-tail data of clopens and homeomorphisms: membership
of the j-th branch cell is an eventually periodic bit, and index maps
carry arithmetic progressions to arithmetic progressions.  Bits are
packed into integers; position j of the head is bit j-1 of hbits, and the
periodic word starts right after the head.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm


def _tile(bits: int, width: int, length: int) -> int:
    """Repeat a width-bit block to cover `length` bits."""
    if length <= 0:
        return 0
    out = bits
    have = width
    while have < length:
        out |= out << have
        have *= 2
    return out & ((1 << length) - 1)


def _rotate_right(bits: int, width: int, k: int) -> int:
    """New bit i = old bit (i - k) mod width."""
    k %= width
    if k == 0:
        return bits
    mask = (1 << width) - 1
    return ((bits << k) | (bits >> (width - k))) & mask


def _divisors_sorted(m: int) -> list[int]:
    small, big = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                big.append(m // d)
        d += 1
    return small + big[::-1]


def _primitive_width(bits: int, width: int) -> int:
    for d in _divisors_sorted(width):
        if d == width:
            break
        if _tile(bits & ((1 << d) - 1), d, width) == bits:
            return d
    return width


@dataclass(frozen=True)
class EPSet:
    """Eventually periodic subset of {1, 2, ...} (canonical: primitive
    word, minimal head)."""

    hlen: int
    hbits: int
    wlen: int
    wbits: int

    @staticmethod
    def _canon(hlen, hbits, wlen, wbits) -> "EPSet":
        d = _primitive_width(wbits, wlen)
        if d < wlen:
            wlen, wbits = d, wbits & ((1 << d) - 1)
        k = 0
        while hlen and (hbits >> (hlen - 1)) & 1 == (
            wbits >> ((wlen - 1 - k) % wlen)
        ) & 1:
            hlen -= 1
            hbits &= (1 << hlen) - 1
            k += 1
        wbits = _rotate_right(wbits, wlen, k)
        return EPSet(hlen, hbits, wlen, wbits)

    @staticmethod
    def make(head, word) -> "EPSet":
        head = [bool(b) for b in head]
        word = [bool(b) for b in word]
        if not word:
            raise ValueError("empty period")
        hbits = sum(1 << i for i, b in enumerate(head) if b)
        wbits = sum(1 << i for i, b in enumerate(word) if b)
        return EPSet._canon(len(head), hbits, len(word), wbits)

    @staticmethod
    def constant(value: bool) -> "EPSet":
        return EPSet(0, 0, 1, 1 if value else 0)

    @staticmethod
    def from_ap(first: int, step: int) -> "EPSet":
        """{first, first+step, first+2*step, ...}"""
        if first < 1 or step < 1:
            raise ValueError((first, step))
        h = max(0, first - step)
        return EPSet(h, 0, step, 1 << ((first - h - 1) % step))

    @staticmethod
    def singleton(j: int) -> "EPSet":
        if j < 1:
            raise ValueError(j)
        return EPSet(j, 1 << (j - 1), 1, 0)

    @property
    def head(self) -> tuple[bool, ...]:
        return tuple(bool((self.hbits >> i) & 1) for i in range(self.hlen))

    @property
    def word(self) -> tuple[bool, ...]:
        return tuple(bool((self.wbits >> i) & 1) for i in range(self.wlen))

    def bit(self, j: int) -> bool:
        if j < 1:
            raise IndexError(j)
        if j <= self.hlen:
            return bool((self.hbits >> (j - 1)) & 1)
        return bool((self.wbits >> ((j - self.hlen - 1) % self.wlen)) & 1)

    def _expand(self, t: int, L: int) -> tuple[int, int]:
        """(head bits to length t, window bits of length L); t >= hlen."""
        fill = t - self.hlen
        hb = self.hbits | (_tile(self.wbits, self.wlen, fill) << self.hlen)
        s0 = fill % self.wlen
        rot = _rotate_right(self.wbits, self.wlen, (-s0) % self.wlen)
        return hb & ((1 << t) - 1), _tile(rot, self.wlen, L)

    def _binop(self, other, fn) -> "EPSet":
        t = max(self.hlen, other.hlen)
        L = lcm(self.wlen, other.wlen)
        h1, w1 = self._expand(t, L)
        h2, w2 = other._expand(t, L)
        hmask = (1 << t) - 1
        wmask = (1 << L) - 1
        return EPSet._canon(t, fn(h1, h2) & hmask, L, fn(w1, w2) & wmask)

    def union(self, other) -> "EPSet":
        return self._binop(other, lambda a, b: a | b)

    def intersect(self, other) -> "EPSet":
        return self._binop(other, lambda a, b: a & b)

    def difference(self, other) -> "EPSet":
        return self._binop(other, lambda a, b: a & ~b)

    def complement(self) -> "EPSet":
        return EPSet._canon(
            self.hlen,
            ~self.hbits & ((1 << self.hlen) - 1),
            self.wlen,
            ~self.wbits & ((1 << self.wlen) - 1),
        )

    def is_empty(self) -> bool:
        return self.hbits == 0 and self.wbits == 0

    def is_finite(self) -> bool:
        return self.wbits == 0

    def is_cofinite(self) -> bool:
        return self.wbits == (1 << self.wlen) - 1

    def finite_part(self) -> list[int]:
        """Positions of the head ones (all ones when the set is finite)."""
        return [i + 1 for i in _bit_positions(self.hbits)]

    def periodic_aps(self) -> list[tuple[int, int]]:
        """APs (first, step) covering the ones beyond the head, pairwise
        disjoint."""
        return [
            (self.hlen + 1 + i, self.wlen) for i in _bit_positions(self.wbits)
        ]

    def kth_one(self, k: int) -> int:
        """0-based rank; the set must be infinite."""
        if self.is_finite():
            raise ValueError("finite set")
        hones = self.hbits.bit_count()
        if k < hones:
            return self.finite_part()[k]
        k -= hones
        per = _bit_positions(self.wbits)
        m = len(per)
        return self.hlen + 1 + (k // m) * self.wlen + per[k % m]


def _bit_positions(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


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
    h1 = src.hbits.bit_count()
    h2 = dst.hbits.bit_count()
    m1 = src.wbits.bit_count()
    m2 = dst.wbits.bit_count()
    L = lcm(m1, m2)
    k0 = max(h1, h2)
    singles = [(src.kth_one(k), dst.kth_one(k)) for k in range(k0)]
    pieces = []
    for r in range(L):
        k = k0 + r
        pieces.append(
            (
                (src.kth_one(k), src.wlen * (L // m1)),
                (dst.kth_one(k), dst.wlen * (L // m2)),
            )
        )
    return singles, pieces
