"""Computable homeomorphisms of X and of the punctured space X°.

A homeomorphism is a finite tabular prefix bijection on an exceptional
region together with per-branch tail rules: beyond a threshold, cell(i, j)
is carried to cell(t, s(j)) for an index map s that is affine on residue
classes, with a fixed tabular self-map of X applied to the in-cell suffix.
The class is closed under composition and inverse, and membership of the
image of any clopen is again exactly representable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .cantor import (
    Clopen,
    Point,
    PointContext,
    Table,
    TailClopen,
    merge_sibling_pairs,
    prefix_overlap,
    type_of,
)
from .errors import (
    ContextMismatch,
    NotBijective,
    NotExtendable,
    OverlappingDomains,
    TypeMismatch,
)
from .seqs import EPSet, ap_intersect, divisors, match_ones


@dataclass(frozen=True)
class TailPiece:
    """cell(branch, first + k*step) -> cell(target, ifirst + k*istep),
    with `cellmap` applied to the suffix inside the cell."""

    branch: int
    first: int
    step: int
    target: int
    ifirst: int
    istep: int
    cellmap: Table

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
        _validate(ctx, pairs, pieces)
        pairs, pieces = _canonicalize(ctx, pairs, pieces)
        return EPHomeo(ctx, tuple(pairs), tuple(pieces))

    @staticmethod
    def identity(ctx: PointContext) -> "EPHomeo":
        """Built in its canonical form, which `make` would return."""
        pieces = tuple(
            TailPiece(i, 1, 1, i, 1, 1, Table.identity())
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
        """Point-fixing extension: every branch tail stays on its branch."""
        pm = self.point_map()
        return pm is not None and all(pm[i] == i for i in pm)

    @cached_property
    def tabular_domain(self) -> Clopen:
        return Clopen.make([p for p, _ in self.pairs])

    @cached_property
    def _tabular_tail(self) -> TailClopen:
        """The tabular domain as a clopen of X°."""
        return TailClopen.from_clopen(self.ctx, self.tabular_domain)

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

    def apply_point(self, x: Point) -> Point:
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
                return x.drop(len(p)).prepend(q)
        raise AssertionError("point escaped the domain partition")

    def apply(self, b) -> TailClopen:
        """Image of a Clopen or TailClopen, as a clopen of X°."""
        if isinstance(b, Clopen):
            b = TailClopen.from_clopen(self.ctx, b)
        if b.ctx != self.ctx:
            raise ContextMismatch((b.ctx, self.ctx))
        ctx = self.ctx
        singles: list[tuple[int, int]] = []  # whole image cells
        ap_images: dict[int, list[tuple[int, int]]] = {}
        # words away from whole cells: the content inside the tabular
        # region, then the partial cells of the pieces
        words = list(b.intersect(self._tabular_tail).to_clopen().words)
        for piece in self.pieces:
            i = piece.branch
            # partial/whole cells at indices covered by the piece but at or
            # below b's threshold live in b's exceptional part
            j = piece.first
            while j <= b.threshold:
                part = b.exceptional.intersect(ctx.cell(i, j))
                if part == ctx.cell(i, j):
                    singles.append((piece.target, piece.image_of(j)))
                else:
                    words += part.words
                j += piece.step
            # whole cells beyond the threshold, by word
            ones, aps = b.tail_epset(i).on_ap(piece.first, piece.step)
            for j in ones:
                singles.append((piece.target, piece.image_of(j)))
            for f, s in aps:
                ap_images.setdefault(piece.target, []).append(
                    (piece.image_of(f), piece.istep * (s // piece.step))
                )
        partial = Clopen.make([q for w in words for _, q in _pairs_on(self, w)])
        # assemble the image
        epsets = {}
        for t in range(1, ctx.n + 1):
            epsets[t] = EPSet.from_aps(
                ap_images.get(t, []), [jj for tt, jj in singles if tt == t]
            )
        depth = _max_branch_index(ctx, partial.words)
        for t, e in epsets.items():
            depth = max(depth, len(e.head))
        exc = partial
        tails = []
        for t in range(1, ctx.n + 1):
            e = epsets[t]
            for j in range(1, depth + 1):
                if e.at(j):
                    exc = exc.union(ctx.cell(t, j))
            tails.append("".join("01"[b] for b in e.shift(depth).word))
        return TailClopen.make(ctx, depth, exc, tails)

    def apply_clopen_in_X(self, b: Clopen) -> Clopen:
        """Image in X, including mapped distinguished points; needs the
        extension to X to exist."""
        if self.point_map() is None:
            raise NotExtendable("no continuous extension")
        img = self.apply(TailClopen.from_clopen(self.ctx, b))
        out = img.to_clopen()
        return out

    # -- group structure ------------------------------------------------------

    def inverse(self) -> "EPHomeo":
        return EPHomeo.make(
            self.ctx,
            [(q, p) for p, q in self.pairs],
            [p.inverted() for p in self.pieces],
        )

    def compose(self, first: "EPHomeo") -> "EPHomeo":
        """self after first."""
        if self.ctx != first.ctx:
            raise ContextMismatch((self.ctx, first.ctx))
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
        leftover_cells = []
        for i in range(1, ctx.n + 1):
            aps = [
                (p.first, p.step) for p in new_pieces if p.branch == i
            ]
            _, _, _, leftover = _ap_coverage(aps)
            leftover_cells += [ctx.cellword(i, j) for j in leftover]
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

    Returns (M, owner, entry, leftover): modulus M = lcm of the steps,
    owner[r] = index of the AP owning residue r, entry[r] = its smallest
    member in that class, leftover = the finitely many uncovered
    positions.  Raises on overlaps or non-cofinite coverage.
    """
    if not aps:
        raise NotBijective("a branch tail has no covering pieces")
    M = lcm(*[s for _, s in aps])
    if M > cap:
        raise NotBijective(f"tail modulus {M} exceeds the budget")
    owner = [-1] * M
    entry = [0] * M
    for idx, (f, s) in enumerate(aps):
        for r in range(f % s, M, s):
            if owner[r] != -1:
                raise OverlappingDomains("tail pieces overlap")
            owner[r] = idx
            entry[r] = f + ((r - f) % M)
    if any(o == -1 for o in owner):
        raise NotBijective("tail pieces do not cover cofinitely")
    leftover = []
    for r in range(M):
        j = r if r >= 1 else M
        while j < entry[r]:
            leftover.append(j)
            j += M
    return M, owner, entry, sorted(leftover)


def _validate(ctx, pairs, pieces):
    for p in pieces:
        if p.first < 1 or p.step < 1 or p.ifirst < 1 or p.istep < 1:
            raise NotBijective(f"bad piece indices {p}")
        if not (1 <= p.branch <= ctx.n and 1 <= p.target <= ctx.n):
            raise NotBijective(f"piece on missing branch {p}")
    # per-branch domain coverage
    leftover_cells = []
    for i in range(1, ctx.n + 1):
        aps = [(p.first, p.step) for p in pieces if p.branch == i]
        _, _, _, leftover = _ap_coverage(aps)
        leftover_cells += [ctx.cellword(i, j) for j in leftover]
    # per-target image coverage
    image_cells = []
    for t in range(1, ctx.n + 1):
        aps = [(p.ifirst, p.istep) for p in pieces if p.target == t]
        try:
            _, _, _, leftover = _ap_coverage(aps)
        except OverlappingDomains as e:
            raise NotBijective(f"image cells collide on branch {t}") from e
        image_cells += [ctx.cellword(t, j) for j in leftover]
    # tabular part must tile exactly the complement of the tails
    srcs = [p for p, _ in pairs]
    if prefix_overlap(srcs):
        raise OverlappingDomains("tabular sources overlap")
    want_dom = Clopen.make(["1" * ctx.n] + leftover_cells)
    if Clopen.make(srcs) != want_dom:
        raise NotBijective("tabular sources do not tile the exceptional region")
    dsts = [q for _, q in pairs]
    if prefix_overlap(dsts):
        raise NotBijective("tabular images overlap")
    want_img = Clopen.make(["1" * ctx.n] + image_cells)
    if Clopen.make(dsts) != want_img:
        raise NotBijective("tabular images do not tile the exceptional region")


def _canonicalize(ctx, pairs, pieces):
    pairs = list(pairs)
    out = []
    for i in range(1, ctx.n + 1):
        plist = [p for p in pieces if p.branch == i]
        if not plist:
            continue
        aps = [(p.first, p.step) for p in plist]
        M, owner, entry, _ = _ap_coverage(aps)
        # affine data per piece: j -> a*j + b on its progression
        data = []
        for p in plist:
            a = Fraction(p.istep, p.step)
            data.append((p.target, p.cellmap, a, p.ifirst - a * p.first))
        D = [data[owner[r]] for r in range(M)]
        # minimal modulus: owner data d-periodic with integral image step
        chosen = M
        for d in divisors(M):
            if d < M and any(D[r] != D[(r + d) % M] for r in range(M)):
                continue
            if all(
                (dat[2] * d).denominator == 1 and dat[2] * d >= 1
                for dat in set(D)
            ):
                chosen = d
                break
        d = chosen
        classes = []
        for r in range(d):
            tgt, cm, a, b = D[r % M]
            hi = max(entry[rr % M] for rr in range(r, r + M, d))
            j0 = hi if hi % d == r % d else hi + ((r - hi) % d)
            while j0 - d >= 1 and j0 - d >= entry[(j0 - d) % M] and a * (j0 - d) + b >= 1:
                j0 -= d
            # covered cells below the contiguous start become tabular
            j = j0 - d
            while j >= 1:
                if j >= entry[j % M]:
                    jj = a * j + b
                    if jj.denominator == 1 and jj >= 1:
                        cw = ctx.cellword(i, j)
                        cw2 = ctx.cellword(tgt, int(jj))
                        for u, v in cm.pairs:
                            pairs.append((cw + u, cw2 + v))
                    else:  # pragma: no cover - excluded by validation
                        raise NotBijective("fractional image index")
                j -= d
            im0 = a * j0 + b
            if im0.denominator != 1 or im0 < 1:
                raise NotBijective("fractional image index")
            classes.append([i, j0, d, tgt, int(im0), int(a * d), cm])
        # pull matching tabular cells back into each class
        for c in classes:
            while True:
                _, first, step, target, ifirst, istep, cm = c
                j, jj = first - step, ifirst - istep
                if j < 1 or jj < 1:
                    break
                cw = ctx.cellword(i, j)
                cw2 = ctx.cellword(target, jj)
                inside = [(p, q) for p, q in pairs if p.startswith(cw)]
                if not inside or not all(q.startswith(cw2) for _, q in inside):
                    break
                try:
                    rel = Table.make(
                        [(p[len(cw):], q[len(cw2):]) for p, q in inside]
                    )
                except ValueError:
                    break
                if rel != cm:
                    break
                for pr in inside:
                    pairs.remove(pr)
                c[1], c[4] = j, jj
        out += [TailPiece(*c) for c in classes]
    out.sort(key=lambda p: (p.branch, p.first))
    return list(merge_sibling_pairs(pairs)), out


def _pairs_on(h: EPHomeo, w: str):
    """h's action on cell(w) as absolute (src, dst) prefix pairs; cell(w)
    must avoid every distinguished point."""
    ctx = h.ctx
    out = []
    for p, q in h.pairs:
        if p.startswith(w):
            out.append((p, q))
        elif w.startswith(p) and w != p:
            out.append((w, q + w[len(p):]))
    for piece in h.pieces:
        i = piece.branch
        pre = "1" * (i - 1)
        if not w.startswith(pre):
            continue
        rest = w[i - 1:]
        if "1" not in rest:
            raise ValueError(f"cell {w!r} contains a distinguished point")
        j = 0
        while j < len(rest) and rest[j] == "0":
            j += 1
        if j == 0 or not piece.covers(j):
            continue
        cw = ctx.cellword(i, j)
        cw2 = ctx.cellword(piece.target, piece.image_of(j))
        u = w[len(cw):]
        for a, b in piece.cellmap.pairs:
            if a.startswith(u):
                out.append((cw + a, cw2 + b))
            elif u.startswith(a) and u != a:
                out.append((cw + u, cw2 + b + u[len(a):]))
    return out


def _max_branch_index(ctx, words) -> int:
    """The largest j of a cell(i, j) holding one of the words, 0 for none."""
    depth = 0
    for w in words:
        for i in range(1, ctx.n + 1):
            pre = "1" * (i - 1)
            if not w.startswith(pre):
                continue
            rest = w[i - 1:]
            if not rest or rest[0] != "0":
                continue
            if "1" not in rest:
                raise ValueError(f"clopen word {w!r} covers a distinguished point")
            j = 0
            while rest[j] == "0":
                j += 1
            depth = max(depth, j)
    return depth


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
    F1, F2 = region.difference(E1), region.difference(E2)
    pairs = []
    pieces = []
    for i in range(1, ctx.n + 1):
        in1, in2 = a.tail_epset(i), b.tail_epset(i)
        out1 = in1.complement().difference(EPSet.from_ap(1, 1).difference(EPSet.from_ap(D + 1, 1)))
        out2 = in2.complement().difference(EPSet.from_ap(1, 1).difference(EPSet.from_ap(D + 1, 1)))
        if i in t1.ins:
            j1, j2 = in1.kth_one(0), in2.kth_one(0)
            E1 = E1.union(ctx.cell(i, j1))
            E2 = E2.union(ctx.cell(i, j2))
            in1 = in1.difference(EPSet.singleton(j1))
            in2 = in2.difference(EPSet.singleton(j2))
            singles, aps = match_ones(in1, in2)
            pairs += [
                (ctx.cellword(i, j), ctx.cellword(i, jj)) for j, jj in singles
            ]
            pieces += [
                TailPiece(i, f, s, i, f2, s2, Table.identity())
                for (f, s), (f2, s2) in aps
            ]
        if i in t1.outs:
            j1, j2 = out1.kth_one(0), out2.kth_one(0)
            F1 = F1.union(ctx.cell(i, j1))
            F2 = F2.union(ctx.cell(i, j2))
            out1 = out1.difference(EPSet.singleton(j1))
            out2 = out2.difference(EPSet.singleton(j2))
            singles, aps = match_ones(out1, out2)
            pairs += [
                (ctx.cellword(i, j), ctx.cellword(i, jj)) for j, jj in singles
            ]
            pieces += [
                TailPiece(i, f, s, i, f2, s2, Table.identity())
                for (f, s), (f2, s2) in aps
            ]
    pairs += _match_clopens(E1, E2)
    pairs += _match_clopens(F1, F2)
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
        cover = EPSet.from_aps([(p.first, p.step) for p in h.branch_pieces(i)])
        for j in cover.complement().finite_part():
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
    ident = Table.identity()
    pieces = [
        TailPiece(1, 1, 2, 1, 1, 2, ident),
        TailPiece(1, 2, 2, 2, 2, 2, ident),
        TailPiece(2, 1, 2, 2, 1, 2, ident),
        TailPiece(2, 2, 2, 1, 2, 2, ident),
    ]
    return EPHomeo.make(ctx, [("11", "11")], pieces)


# ---------------------------------------------------------------------------
# truncation oracles (independent cross-checks)


def witness_points(ctx: PointContext, depth: int, within_cell_words=("", "0", "1", "01")):
    """Deterministic sample of eventually periodic points: several
    witnesses inside every branch cell of index <= depth plus off-branch
    witnesses."""
    pts = []
    for i in range(1, ctx.n + 1):
        for j in range(1, depth + 1):
            for u in within_cell_words:
                pts.append(Point.make(ctx.cellword(i, j) + u + "01", "01"))
            pts.append(Point.make(ctx.cellword(i, j), "0"))
    off = "1" * ctx.n
    for u in within_cell_words:
        pts.append(Point.make(off + u + "01", "01"))
        pts.append(Point.make(off + u, "0"))
        pts.append(Point.make(off + u, "1"))
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
