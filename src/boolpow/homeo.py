"""Computable homeomorphisms of X and of the punctured space X°.

A homeomorphism is a finite tabular prefix bijection on an exceptional
region together with per-branch tail rules: beyond a threshold, cell(i, j)
is carried to cell(t, s(j)) for an index map s that is affine on residue
classes, with a fixed tabular self-map of X applied to the in-cell suffix.
The class is closed under composition and inverse, and membership of the
image of any clopen is again exactly representable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd, lcm

from .cantor import (
    Clopen,
    PointContext,
    TailClopen,
    _shape,
    merge_sibling_pairs,
    type_of,
)
from .errors import (
    ContextMismatch,
    NotBijective,
    NotExtendable,
    OverlappingDomains,
    SizeBudgetExceeded,
    TypeMismatch,
)
from .seqs import EPSeq, EPSet, ap_intersect, match_ones


@dataclass(frozen=True)
class TailPiece:
    """cell(branch, first + k*step) -> cell(target, ifirst + k*istep),
    with `cellmap`, a homeomorphism of X = X° on PointContext(0), applied
    to the suffix inside the cell."""

    branch: int
    first: int
    step: int
    target: int
    ifirst: int
    istep: int
    cellmap: EPHomeo

    def covers(self, j: int) -> bool:
        return j >= self.first and (j - self.first) % self.step == 0

    def image_of(self, j: int) -> int:
        return self.ifirst + (j - self.first) // self.step * self.istep

    def inverted(self) -> "TailPiece":
        return TailPiece(
            self.target,
            self.ifirst,
            self.istep,
            self.branch,
            self.first,
            self.step,
            self.cellmap.inverse(),
        )


@dataclass(frozen=True)
class EPHomeo:
    """Homeomorphism of X° in tabular-plus-tail form (canonical)."""

    ctx: PointContext
    pairs: tuple[tuple[str, str], ...]
    pieces: tuple[TailPiece, ...]

    # -- construction -------------------------------------------------------

    @staticmethod
    def make(ctx: PointContext, pairs, pieces) -> "EPHomeo":
        pairs = [(str(p), str(q)) for p, q in pairs]
        pieces = list(pieces)
        branches = _validate(ctx, pairs, pieces)
        pairs, pieces = _canonicalize(ctx, pairs, branches)
        return EPHomeo(ctx, tuple(pairs), tuple(pieces))

    @staticmethod
    @cache
    def identity(ctx: PointContext) -> "EPHomeo":
        """Built in its canonical form, which `make` would return."""
        pieces = tuple(
            TailPiece(i, 1, 1, i, 1, 1, EPHomeo.identity(PointContext(0)))
            for i in range(1, ctx.n + 1)
        )
        return EPHomeo(ctx, (("1" * ctx.n, "1" * ctx.n),), pieces)

    def is_identity(self) -> bool:
        return self == EPHomeo.identity(self.ctx)

    # -- structure ----------------------------------------------------------

    def branch_pieces(self, i: int) -> list[TailPiece]:
        return [p for p in self.pieces if p.branch == i]

    def branch_target(self, i: int):
        """The single branch the tail of branch i eventually reaches, or
        None when the tail splits across several branches."""
        ts = {p.target for p in self.branch_pieces(i)}
        return ts.pop() if len(ts) == 1 else None

    def point_map(self):
        """i -> image point index, when the extension to X exists."""
        out = {}
        for i in range(1, self.ctx.n + 1):
            t = self.branch_target(i)
            if t is None:
                return None
            out[i] = t
        if sorted(out.values()) != list(range(1, self.ctx.n + 1)):
            return None
        return out

    def extends_to_X(self) -> bool:
        """A point-fixing extension: every branch tail stays on its branch."""
        pm = self.point_map()
        return pm is not None and all(pm[i] == i for i in pm)

    @cached_property
    def _cell_images(self) -> dict[str, Clopen]:
        return {}

    def cell_image(self, w: str) -> Clopen:
        """h(cell(w)) in X, distinguished points included; remembered per
        homeomorphism, so a partition is pushed forward cell by cell."""
        img = self._cell_images.get(w)
        if img is None:
            img = self.apply_clopen_in_X(Clopen.make([w]))
            self._cell_images[w] = img
        return img

    # -- action -------------------------------------------------------------

    def apply_point(self, x: EPSeq) -> EPSeq:
        loc = self.ctx.locate(x)
        if loc[0] == "point":
            pm = self.point_map()
            if pm is None:
                raise NotExtendable("tail splits across branches")
            return self.ctx.point(pm[loc[1]])
        if loc[0] == "cell":
            _, i, j, suffix = loc
            for piece in self.branch_pieces(i):
                if piece.covers(j):
                    jj = piece.image_of(j)
                    return piece.cellmap.apply_point(suffix).prepend(
                        self.ctx.cellword(piece.target, jj)
                    )
        for p, q in self.pairs:
            if x.startswith(p):
                return x.shift(len(p)).prepend(q)
        raise AssertionError("point escaped the domain partition")

    def apply(self, b) -> TailClopen:
        """Image of a Clopen or TailClopen, as a clopen of X°."""
        if isinstance(b, Clopen):
            b = TailClopen.from_clopen(self.ctx, b)
        if b.ctx != self.ctx:
            raise ContextMismatch((b.ctx, self.ctx))
        return TailClopen(b.labels.push(self))

    def apply_clopen_in_X(self, b: Clopen) -> Clopen:
        """Image in X, including mapped distinguished points; needs the
        extension to X to exist."""
        if self.point_map() is None:
            raise NotExtendable("no continuous extension")
        return self.apply(b).to_clopen()

    # -- group structure ------------------------------------------------------

    def inverse(self) -> "EPHomeo":
        if self.is_identity():
            return self
        return EPHomeo.make(
            self.ctx,
            [(q, p) for p, q in self.pairs],
            [p.inverted() for p in self.pieces],
        )

    def compose(self, first: "EPHomeo") -> "EPHomeo":
        """self after first."""
        if self.ctx != first.ctx:
            raise ContextMismatch((self.ctx, first.ctx))
        if self.is_identity():
            return first
        if first.is_identity():
            return self
        ctx = self.ctx
        new_pieces = []
        for p1 in first.pieces:
            for p2 in self.branch_pieces(p1.target):
                hit = ap_intersect(p1.ifirst, p1.istep, p2.first, p2.step)
                if hit is None:
                    continue
                v0, vstep = hit
                k0 = (v0 - p1.ifirst) // p1.istep
                j0 = p1.first + k0 * p1.step
                jstep = p1.step * (vstep // p1.istep)
                im0 = p2.image_of(v0)
                imstep = p2.istep * (vstep // p2.step)
                new_pieces.append(
                    TailPiece(
                        p1.branch,
                        j0,
                        jstep,
                        p2.target,
                        im0,
                        imstep,
                        p2.cellmap.compose(p1.cellmap),
                    )
                )
        # composite tabular part covers everything the pieces do not
        new_pairs = []
        leftover_cells = [
            ctx.cellword(p.branch, j) for p in new_pieces for j in _before(p.first, p.step)
        ]
        dom = Clopen.make(["1" * ctx.n] + leftover_cells)
        for w in dom.words:
            for s, d in _pairs_on(first, w):
                for s2, d2 in _pairs_on(self, d):
                    new_pairs.append((s + s2[len(d):], d2))
        return EPHomeo.make(ctx, new_pairs, new_pieces)


# ---------------------------------------------------------------------------
# internal helpers


def _ap_coverage(aps, cap: int = 1 << 22):
    """Residue analysis of pairwise disjoint APs (first, step) covering a
    cofinite part of {1, 2, ...}.

    Returns (owner, entry, leftover) for the modulus M = lcm of the steps:
    owner[r] = index of the AP owning residue r < M, entry[r] = its smallest
    member in that class, leftover = the finitely many uncovered
    positions.  Raises on overlaps or non-cofinite coverage, and
    SizeBudgetExceeded when M passes the cap.
    """
    if not aps:
        raise NotBijective("a branch tail has no covering pieces")
    M = lcm(*[s for _, s in aps])
    if M > cap:
        raise SizeBudgetExceeded(f"tail modulus {M} exceeds the budget")
    owner = [-1] * M
    entry = [0] * M
    for idx, (f, s) in enumerate(aps):
        for j in range(f, f + M, s):
            r = j % M
            if owner[r] != -1:
                raise OverlappingDomains("tail pieces overlap")
            owner[r] = idx
            entry[r] = j
    if -1 in owner:
        raise NotBijective("tail pieces do not cover cofinitely")
    leftover = sorted(j for f, s in aps for j in _before(f, s))
    return owner, entry, leftover


def _before(first: int, step: int) -> range:
    """The positions j >= 1 below `first` in its class mod `step`: what an
    AP leaves out of a partition of a cofinite set into APs."""
    return range(first % step or step, first, step)


def _validate(ctx, pairs, pieces):
    """Check that pairs and pieces form a homeomorphism of X°; returns
    each branch's pieces with the residue analysis of their domains.

    The tabular sources, then the tabular images, must tile the
    exceptional region: the cell 1^n and the branch cells the tail pieces
    leave out.  Each side goes through `build`'s shape check, but not
    its memo or its program (`cantor._shape`, not `shape`): a
    homeomorphism's word lists seldom recur, and kept they would crowd
    out the element shapes the memo is for.  Its ValueErrors come back
    typed: overlapping sources raise OverlappingDomains, overlapping
    images and either side not tiling raise NotBijective; a word not
    over 01 stays a ValueError."""
    plists = [[] for _ in range(ctx.n)]
    images = [[] for _ in range(ctx.n)]
    for p in pieces:
        if p.first < 1 or p.step < 1 or p.ifirst < 1 or p.istep < 1:
            raise NotBijective(f"bad piece indices {p}")
        if not (1 <= p.branch <= ctx.n and 1 <= p.target <= ctx.n):
            raise NotBijective(f"piece on missing branch {p}")
        plists[p.branch - 1].append(p)
        images[p.target - 1].append((p.ifirst, p.istep))
    # per-branch domain coverage
    branches = []
    leftover_cells = []
    for i, plist in enumerate(plists, start=1):
        owner, entry, leftover = _ap_coverage([(p.first, p.step) for p in plist])
        branches.append((plist, owner, entry))
        leftover_cells += [ctx.cellword(i, j) for j in leftover]
    # per-target image coverage
    image_cells = []
    for t, aps in enumerate(images, start=1):
        try:
            _, _, leftover = _ap_coverage(aps)
        except OverlappingDomains as e:
            raise NotBijective(f"image cells collide on branch {t}") from e
        image_cells += [ctx.cellword(t, j) for j in leftover]
    # tabular part must tile exactly the complement of the tails
    off = "1" * ctx.n
    for k, what, cells, overlap in (
        (0, "tabular sources", leftover_cells, OverlappingDomains),
        (1, "tabular images", image_cells, NotBijective),
    ):
        untiled = f"{what} do not tile the exceptional region"
        support = Clopen.make([off] + cells)._t
        try:
            _shape([pair[k] for pair in pairs], support, what, untiled)
        except ValueError as e:
            if str(e) == untiled:
                raise NotBijective(untiled) from None
            if str(e) == f"overlapping {what}":
                raise overlap(f"{what} overlap") from None
            raise
    return branches


def _canonicalize(ctx, pairs, branches):
    """The canonical form of validated data; `branches` is what
    `_validate` returned."""
    pairs = dict(pairs)
    out = []
    for i, (plist, owner, entry) in enumerate(branches, start=1):
        M = len(owner)
        # each piece's index map j -> (A*j + C) / S as a gcd-reduced
        # integer class (target, cellmap, A, C, S), interned to an id
        ids = {}
        piece_ids = []
        for p in plist:
            A, C, S = p.istep, p.ifirst * p.step - p.istep * p.first, p.step
            g = gcd(A, C, S)
            key = (p.target, p.cellmap, A // g, C // g, S // g)
            piece_ids.append(ids.setdefault(key, len(ids)))
        keys = list(ids)
        D = [piece_ids[o] for o in owner]
        # the least modulus, D's primitive period; its image steps A*d/S are
        # integral, since j and j + d in one class both have integral images
        d = len(EPSeq.make((), tuple(D)).word)
        classes = []
        for r in range(d):
            tgt, cm, A, C, S = keys[D[r]]
            j0 = max(entry[r::d])
            while j0 > d and j0 - d >= entry[(j0 - d) % M]:
                j0 -= d
            # covered cells below the contiguous start become tabular
            for j in range(j0 - d, 0, -d):
                if j >= entry[j % M]:
                    cw = ctx.cellword(i, j)
                    cw2 = ctx.cellword(tgt, (A * j + C) // S)
                    for u, v in cm.pairs:
                        pairs[cw + u] = cw2 + v
            classes.append([i, j0, d, tgt, (A * j0 + C) // S, A * d // S, cm])
        # pull matching tabular cells back into each class
        inside = _cell_sources(ctx, pairs, i)
        for c in classes:
            _, first, step, target, ifirst, istep, cm = c
            while first > step and ifirst > istep:
                j, jj = first - step, ifirst - istep
                srcs = inside.get(j)
                cw2 = ctx.cellword(target, jj)
                if not srcs or not all(pairs[p].startswith(cw2) for p in srcs):
                    break
                cut = i + j  # len(cellword(i, j))
                rel = merge_sibling_pairs((p[cut:], pairs[p][len(cw2):]) for p in srcs)
                if rel != cm.pairs:
                    break
                for p in srcs:
                    del pairs[p]
                first, ifirst = j, jj
            c[1], c[4] = first, ifirst
        out += [TailPiece(*c) for c in classes]
    out.sort(key=lambda p: (p.branch, p.first))
    return list(merge_sibling_pairs(pairs.items())), out


def _cell_sources(ctx, pairs, i: int) -> dict[int, list[str]]:
    """The sources lying in cell(i, j), for each j; a validated source
    lies in one branch cell or off the branches."""
    out = {}
    for p in pairs:
        cell = ctx.branch_cell(p)
        if cell is not None and cell[0] == i:
            out.setdefault(cell[1], []).append(p)
    return out


def _pairs_on(h: EPHomeo, w: str):
    """h's action on cell(w) as absolute (src, dst) prefix pairs; cell(w)
    must avoid every distinguished point."""
    ctx = h.ctx
    pairs = h.pairs  # sorted by source
    # the sources inside cell(w) follow w in sorted order; a source
    # holding it is the one just before
    at = bisect_left(pairs, (w,))
    if at and w.startswith(pairs[at - 1][0]):
        p, q = pairs[at - 1]
        return [(w, q + w[len(p):])]
    out = []
    while at < len(pairs) and pairs[at][0].startswith(w):
        out.append(pairs[at])
        at += 1
    cell = ctx.branch_cell(w)
    if cell is None:  # off the branches
        return out
    i, j = cell
    for piece in h.pieces:
        if piece.branch == i and piece.covers(j):
            cw = w[: i + j]  # cellword(i, j)
            cw2 = ctx.cellword(piece.target, piece.image_of(j))
            out += [(cw + a, cw2 + b) for a, b in _pairs_on(piece.cellmap, w[len(cw):])]
    return out


# ---------------------------------------------------------------------------
# orbit witnesses and piecewise gluing


def orbit_witness(c1: TailClopen, c2: TailClopen) -> EPHomeo:
    """A point-fixing homeomorphism of X carrying c1 onto c2 and the
    complement onto the complement; requires equal types.

    Whole tail cells are matched rank-to-rank on every branch; the
    exceptional contents are matched tabularly, borrowing the first tail
    cell on each side whenever one side's exceptional part could be empty.
    """
    if c1.ctx != c2.ctx:
        raise ContextMismatch((c1.ctx, c2.ctx))
    ctx = c1.ctx
    if c1 == c2:
        return EPHomeo.identity(ctx)
    if c1.is_empty() or c1.is_full() or c2.is_empty() or c2.is_full():
        if (c1.is_empty() and c2.is_empty()) or (c1.is_full() and c2.is_full()):
            return EPHomeo.identity(ctx)
        raise TypeMismatch("one side is empty or full")
    t1, t2 = type_of(c1), type_of(c2)
    if t1 != t2:
        raise TypeMismatch((t1, t2))
    D = max(c1.threshold, c2.threshold)
    a, b = c1.raised(D), c2.raised(D)
    region = ctx.region(D)
    E1, E2 = a.exceptional, b.exceptional
    # each side's exceptional contents: inside c, then outside it
    sides = [[E1, E2], [region.difference(E1), region.difference(E2)]]
    head = EPSet.from_ap(1, 1).difference(EPSet.from_ap(D + 1, 1))  # cells 1..D
    pairs = []
    pieces = []
    ident = EPHomeo.identity(PointContext(0))
    for i in range(1, ctx.n + 1):
        in1, in2 = a.tail_epset(i), b.tail_epset(i)
        outs = (in1.complement().difference(head), in2.complement().difference(head))
        for side, held, (s1, s2) in zip(sides, (t1.ins, t1.outs), ((in1, in2), outs)):
            if i not in held:
                continue
            j1, j2 = s1.kth_one(0), s2.kth_one(0)
            side[0] = side[0].union(ctx.cell(i, j1))
            side[1] = side[1].union(ctx.cell(i, j2))
            singles, aps = match_ones(
                s1.difference(EPSet.singleton(j1)), s2.difference(EPSet.singleton(j2))
            )
            pairs += [(ctx.cellword(i, j), ctx.cellword(i, jj)) for j, jj in singles]
            pieces += [TailPiece(i, f, s, i, f2, s2, ident) for (f, s), (f2, s2) in aps]
    for u, v in sides:
        pairs += _match_clopens(u, v)
    return EPHomeo.make(ctx, pairs, pieces)


def _match_clopens(u: Clopen, v: Clopen):
    """Prefix pairs carrying clopen u onto clopen v cell by cell."""
    if u.is_empty() != v.is_empty():
        raise NotBijective("cannot match empty with nonempty")
    if u.is_empty():
        return []
    us, vs = list(u.words), list(v.words)
    while len(us) < len(vs):
        w = us.pop()
        us += [w + "0", w + "1"]
    while len(vs) < len(us):
        w = vs.pop()
        vs += [w + "0", w + "1"]
    return list(zip(sorted(us), sorted(vs)))


def restrict_homeo(h: EPHomeo, d: TailClopen):
    """h's action on the clopen d, as raw (pairs, pieces) data."""
    ctx = h.ctx
    pairs = []
    pieces = []
    for w in d.exceptional.words:
        pairs += _pairs_on(h, w)
    for i in range(1, ctx.n + 1):
        ineps = d.tail_epset(i)
        for piece in h.branch_pieces(i):
            ones, aps = ineps.on_ap(piece.first, piece.step)
            for j in ones:
                cw = ctx.cellword(i, j)
                cw2 = ctx.cellword(piece.target, piece.image_of(j))
                for a, bb in piece.cellmap.pairs:
                    pairs.append((cw + a, cw2 + bb))
            for f, s in aps:
                pieces.append(
                    TailPiece(
                        i,
                        f,
                        s,
                        piece.target,
                        piece.image_of(f),
                        piece.istep * (s // piece.step),
                        piece.cellmap,
                    )
                )
        for p in h.branch_pieces(i):  # the cells no piece covers
            for j in _before(p.first, p.step):
                if ineps.at(j):
                    pairs += _pairs_on(h, ctx.cellword(i, j))
    return pairs, pieces


def piecewise_glue(parts: list[tuple[TailClopen, EPHomeo]]) -> EPHomeo:
    """Single homeomorphism agreeing with each h on its domain and the
    identity elsewhere.  Domains must be pairwise disjoint and the stated
    codomains must tile the same set (or its complement stays put)."""
    if not parts:
        raise ValueError("no pieces")
    ctx = parts[0][0].ctx
    used = TailClopen.empty(ctx)
    for d, h in parts:
        if d.ctx != ctx or h.ctx != ctx:
            raise ContextMismatch("pieces on different contexts")
        if not used.intersect(d).is_empty():
            raise OverlappingDomains("piece domains overlap")
        used = used.union(d)
    pairs = []
    pieces = []
    for d, h in parts:
        pr, pc = restrict_homeo(h, d)
        pairs += pr
        pieces += pc
    rest = used.complement()
    pr, pc = restrict_homeo(EPHomeo.identity(ctx), rest)
    pairs += pr
    pieces += pc
    try:
        return EPHomeo.make(ctx, pairs, pieces)
    except (OverlappingDomains, NotBijective) as e:
        raise NotBijective(f"glued map is not bijective: {e}") from e


# ---------------------------------------------------------------------------
# the cross-branch tail swap (a homeomorphism of X° with no extension to X)


def cross_branch_involution(ctx: PointContext) -> EPHomeo:
    """On a 2-point context: fixes every odd-index branch cell and swaps
    the even-index cells of the two branches, suffix-preservingly.  A
    homeomorphism of X° that admits no continuous extension to X."""
    if ctx.n != 2:
        raise ContextMismatch("needs exactly two distinguished points")
    ident = EPHomeo.identity(PointContext(0))
    pieces = [
        TailPiece(1, 1, 2, 1, 1, 2, ident),
        TailPiece(1, 2, 2, 2, 2, 2, ident),
        TailPiece(2, 1, 2, 2, 1, 2, ident),
        TailPiece(2, 2, 2, 1, 2, 2, ident),
    ]
    return EPHomeo.make(ctx, [("11", "11")], pieces)


# ---------------------------------------------------------------------------
# truncation oracles (independent cross-checks)


# Words read after a cell's prefix by the witness points inside it.
WITNESS_SUFFIXES = ("", "0", "1", "01")


def witness_points(ctx: PointContext, depth: int):
    """Deterministic sample of eventually periodic points: several
    witnesses inside every branch cell of index <= depth plus off-branch
    witnesses."""
    pts = []
    for i in range(1, ctx.n + 1):
        for j in range(1, depth + 1):
            for u in WITNESS_SUFFIXES:
                pts.append(EPSeq.make(ctx.cellword(i, j) + u + "01", "01"))
            pts.append(EPSeq.make(ctx.cellword(i, j), "0"))
    off = "1" * ctx.n
    for u in WITNESS_SUFFIXES:
        pts.append(EPSeq.make(off + u + "01", "01"))
        pts.append(EPSeq.make(off + u, "0"))
        pts.append(EPSeq.make(off + u, "1"))
    return pts


def homeos_agree_on_sample(h1: EPHomeo, h2: EPHomeo, depth: int = 32) -> bool:
    """Pointwise comparison on the deterministic witness sample."""
    for x in witness_points(h1.ctx, depth):
        if h1.apply_point(x) != h2.apply_point(x):
            return False
    return True


def image_matches_on_sample(
    h: EPHomeo, src: TailClopen, img: TailClopen, depth: int = 32
) -> bool:
    """Membership of h-images of witness points agrees with img."""
    for x in witness_points(h.ctx, depth):
        if src.contains_point(x) != img.contains_point(h.apply_point(x)):
            return False
    return True
