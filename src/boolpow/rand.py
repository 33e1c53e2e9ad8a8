"""Seeded generators for clopens, homeomorphisms, labelings and power
automorphisms.  Everything is driven by an explicit random.Random so runs
are reproducible from a seed."""

from __future__ import annotations

import random
from typing import Optional

from .autgroup import AutLabeling, PowerAutomorphism
from .cantor import Clopen, PointContext, TailClopen, is_good
from .errors import SizeBudgetExceeded
from .homeo import EPHomeo, TailPiece, orbit_witness
from .power import PowerContext


def random_tailclopen(
    pctx: PointContext,
    rng: random.Random,
    max_threshold: int = 2,
    max_period: int = 3,
) -> TailClopen:
    d = rng.randint(0, max_threshold)
    exc_words = []
    for w in pctx.region(d).words:
        for suffix in ("00", "01", "10", "11"):
            if rng.random() < 0.4:
                exc_words.append(w + suffix)
    tails = []
    for _ in range(pctx.n):
        L = rng.randint(1, max_period)
        tails.append("".join(rng.choice("01") for _ in range(L)))
    return TailClopen.make(pctx, d, Clopen.make(exc_words), tails)


# random_good_tailclopen's draws.  A draw is good when each of the n tail
# words holds a 0 and a 1, which with periods of 1 or 2 happens about once
# in 4^n draws.  Over seeds 1-3,000, factor-homeo's homeomorphism needed
# at most 36, 112 and 502 draws on 1, 2 and 3 points.
GOOD_TAIL_DRAWS = 4096


def random_good_tailclopen(
    pctx: PointContext,
    rng: random.Random,
    max_threshold: int = 2,
    max_period: int = 3,
) -> TailClopen:
    """Draw random tail clopens until one is good; raise
    SizeBudgetExceeded rather than draw more than GOOD_TAIL_DRAWS."""
    for _ in range(GOOD_TAIL_DRAWS):
        c = random_tailclopen(pctx, rng, max_threshold, max_period)
        if is_good(c):
            return c
    raise SizeBudgetExceeded(
        f"no good tail clopen over n = {pctx.n} points in {GOOD_TAIL_DRAWS} draws"
    )


# -- elementary point-fixing homeomorphisms ----------------------------------


def tail_shift(pctx: PointContext, i: int, by: int = 1) -> EPHomeo:
    """cell(i, j) -> cell(i, j + by); the freed cells are fed from a slice
    of the off-branch region."""
    ident = EPHomeo.identity(PointContext(0))
    pieces = [
        TailPiece(k, 1, 1, k, 1, 1, ident) for k in range(1, pctx.n + 1) if k != i
    ]
    pieces.append(TailPiece(i, 1, 1, i, 1 + by, 1, ident))
    off = "1" * pctx.n
    pairs = [(off + "1" * (j - 1) + "0", pctx.cellword(i, j)) for j in range(1, by + 1)]
    pairs.append((off + "1" * by, off))
    return EPHomeo.make(pctx, pairs, pieces)


def parity_swap(pctx: PointContext, i: int) -> EPHomeo:
    """Swap cell(i, 2k-1) with cell(i, 2k) for every k; an involution."""
    ident = EPHomeo.identity(PointContext(0))
    pieces = [
        TailPiece(k, 1, 1, k, 1, 1, ident) for k in range(1, pctx.n + 1) if k != i
    ]
    pieces.append(TailPiece(i, 1, 2, i, 2, 2, ident))
    pieces.append(TailPiece(i, 2, 2, i, 1, 2, ident))
    pairs = [("1" * pctx.n, "1" * pctx.n)]
    return EPHomeo.make(pctx, pairs, pieces)


def first_bit_swap(pctx: PointContext) -> EPHomeo:
    """The first-bit swap of X, over a context with no points."""
    return EPHomeo.make(pctx, [("0", "1"), ("1", "0")], ())


def suffix_twist(pctx: PointContext, i: int, cellmap: Optional[EPHomeo] = None) -> EPHomeo:
    """Apply a fixed homeomorphism of X (by default the first-bit swap)
    inside every cell of branch i."""
    cellmap = cellmap or first_bit_swap(PointContext(0))
    ident = EPHomeo.identity(PointContext(0))
    pieces = [
        TailPiece(k, 1, 1, k, 1, 1, ident) for k in range(1, pctx.n + 1) if k != i
    ]
    pieces.append(TailPiece(i, 1, 1, i, 1, 1, cellmap))
    return EPHomeo.make(pctx, [("1" * pctx.n, "1" * pctx.n)], pieces)


def cell_swap(pctx: PointContext, w1: str, w2: str) -> EPHomeo:
    """Swap two disjoint cells lying in the exceptional region at depth 2."""
    region = pctx.region(2)
    for w in (w1, w2):
        if not Clopen.make([w]).is_subset(region):
            raise ValueError(f"{w!r} not inside the depth-2 exceptional region")
    ident = EPHomeo.identity(PointContext(0))
    pieces = [
        TailPiece(k, 3, 1, k, 3, 1, ident) for k in range(1, pctx.n + 1)
    ]
    rest = region.difference(Clopen.make([w1])).difference(Clopen.make([w2]))
    pairs = [(w1, w2), (w2, w1)] + [(w, w) for w in rest.words]
    return EPHomeo.make(pctx, pairs, pieces)


def random_point_fixing_homeo(
    pctx: PointContext, rng: random.Random, moves: int = 3
) -> EPHomeo:
    h = EPHomeo.identity(pctx)
    for _ in range(moves):
        kind = rng.randrange(5 if pctx.n else 1)
        if pctx.n == 0:
            g = first_bit_swap(pctx)
        elif kind == 0:
            g = tail_shift(pctx, rng.randint(1, pctx.n), rng.randint(1, 2))
        elif kind == 1:
            g = parity_swap(pctx, rng.randint(1, pctx.n))
        elif kind == 2:
            g = suffix_twist(pctx, rng.randint(1, pctx.n))
        elif kind == 3:
            region = pctx.region(2)
            cand = [w + s for w in region.words for s in ("0", "1")]
            w1, w2 = rng.sample(cand, 2)
            g = cell_swap(pctx, w1, w2)
        else:
            # witnesses of small type structures keep compositions compact
            c1 = random_good_tailclopen(pctx, rng, max_threshold=1, max_period=2)
            c2 = random_good_tailclopen(pctx, rng, max_threshold=1, max_period=2)
            g = orbit_witness(c1, c2)
        h = h.compose(g) if rng.random() < 0.5 else g.compose(h)
    return h


def random_block_preserving_homeo(
    pctx: PointContext, rng: random.Random, moves: int = 3
) -> EPHomeo:
    """Moves confined inside single standard blocks (branch regions)."""
    h = EPHomeo.identity(pctx)
    for _ in range(moves):
        i = rng.randint(1, pctx.n)
        kind = rng.randrange(3)
        if kind == 0:
            g = parity_swap(pctx, i)
        elif kind == 1:
            g = suffix_twist(pctx, i)
        else:
            # swap two subcells of one branch cell
            base = pctx.cellword(i, rng.randint(1, 2))
            g = cell_swap(pctx, base + "0", base + "1")
        h = h.compose(g)
    return h


# -- labelings and automorphisms ----------------------------------------------


def random_labeling(ctx: PowerContext, rng: random.Random) -> AutLabeling:
    auts = ctx.aut_mappings
    pts = ctx.points
    d = rng.randint(0, 1)
    cells = []
    for w in pts.region(d).words:
        if rng.random() < 0.5:
            cells.append((w, rng.choice(auts)))
        else:
            cells += [(w + "0", rng.choice(auts)), (w + "1", rng.choice(auts))]
    tails = []
    for i in range(1, pts.n + 1):
        e = ctx.filters[i - 1]
        stab = [m for m in auts if m[e] == e]
        L = rng.randint(1, 2)
        tails.append(tuple(rng.choice(stab) for _ in range(L)))
    return AutLabeling.make(ctx, d, cells, tails)


def random_automorphism(
    ctx: PowerContext, rng: random.Random, moves: int = 2
) -> PowerAutomorphism:
    phi = PowerAutomorphism.from_labeling(random_labeling(ctx, rng))
    psi = PowerAutomorphism.from_homeo(
        ctx, random_point_fixing_homeo(ctx.points, rng, moves)
    )
    return phi.compose(psi) if rng.random() < 0.5 else psi.compose(phi)
