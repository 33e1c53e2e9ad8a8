"""Automorphisms of a filtered Boolean power in semidirect normal form:
a point-fixing homeomorphism part and a kernel labeling that twists values
by automorphisms of the base algebra, locally constantly on the punctured
space, with stabilizer-valued labels along every branch tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Sequence

from . import algebra as alg
from .algebra import Endomap
from .cantor import (
    Clopen,
    PointContext,
    TailClopen,
    meet,
    merge_sibling_cells,
    point_in,
    prefix_overlap,
    split_cyclic,
)
from .errors import (
    ContextMismatch,
    IllegalTriple,
    NotExtendable,
    NotSinglePoint,
    NotStabilizing,
    OrbitCollision,
    PointNotFixed,
    TailLabelViolation,
)
from .homeo import EPHomeo
from .power import PowerContext, PowerElement
from .seqs import EPSeq, common_threshold

Mapping = tuple[int, ...]


def _ident(size: int) -> Mapping:
    return tuple(range(size))


@dataclass(frozen=True)
class AutLabeling:
    """Locally constant map X° -> Aut A with periodic branch tails whose
    labels all stabilize the filter idempotent of their branch."""

    ctx: PowerContext
    threshold: int
    exc_cells: tuple[tuple[str, Mapping], ...]
    tails: tuple[tuple[Mapping, ...], ...]

    @staticmethod
    def make(ctx, threshold, exc_cells, tails) -> "AutLabeling":
        pts = ctx.points
        auts = ctx.aut_mappings
        exc_cells = [(str(w), tuple(m)) for w, m in exc_cells]
        tails = tuple(tuple(tuple(m) for m in t) for t in tails)
        if len(tails) != pts.n:
            raise ValueError("one tail label word per branch")
        for _, m in exc_cells:
            if m not in auts:
                raise TailLabelViolation(f"{m} is not an automorphism")
        for i, word in enumerate(tails, start=1):
            if not word:
                raise ValueError("empty tail label word")
            e = ctx.filters[i - 1]
            for m in word:
                if m not in auts:
                    raise TailLabelViolation(f"{m} is not an automorphism")
                if m[e] != e:
                    raise TailLabelViolation(
                        f"tail label on branch {i} moves the idempotent {e}"
                    )
        words = [w for w, _ in exc_cells]
        if prefix_overlap(words):
            raise ValueError("overlapping label cells")
        if Clopen.make(words) != pts.region(threshold):
            raise ValueError("label cells do not tile the exceptional region")
        # canonical form: merged cells, then the minimal threshold, where
        # each branch reads its whole-cell labels (no region cell has a
        # proper prefix inside the region) followed by its tail word
        merged = merge_sibling_cells(sorted(exc_cells))
        cells = dict(merged)
        cws = [
            [pts.cellword(i, j) for j in range(1, threshold + 1)]
            for i in range(1, pts.n + 1)
        ]
        d, tails = common_threshold(
            (tuple(map(cells.get, cw)), t) for cw, t in zip(cws, tails)
        )
        if d < threshold:
            folded = {w for cw in cws for w in cw[d:]}
            merged = tuple(c for c in merged if c[0] not in folded)
        return AutLabeling(ctx, d, merged, tuple(tails))

    @staticmethod
    def identity(ctx) -> "AutLabeling":
        e = _ident(ctx.algebra.size)
        pts = ctx.points
        return AutLabeling.make(
            ctx,
            0,
            [(w, e) for w in pts.region(0).words],
            tuple(((e,),) * pts.n),
        )

    def is_identity(self) -> bool:
        return self == AutLabeling.identity(self.ctx)

    def tail_label(self, i: int, j: int) -> Mapping:
        word = self.tails[i - 1]
        return word[(j - self.threshold - 1) % len(word)]

    def label_on_word(self, w: str) -> Mapping:
        for u, m in self.exc_cells:
            if w.startswith(u):
                return m
        raise KeyError(w)

    def labels_used(self) -> set[Mapping]:
        out = {m for _, m in self.exc_cells}
        for t in self.tails:
            out |= set(t)
        return out

    def fiber(self, m: Mapping) -> TailClopen:
        exc = Clopen.make([w for w, mm in self.exc_cells if mm == m])
        tails = []
        for t in self.tails:
            tails.append("".join("1" if mm == m else "0" for mm in t))
        return TailClopen.make(self.ctx.points, self.threshold, exc, tails)

    @staticmethod
    def from_fibers(ctx, fibers: Sequence[tuple[TailClopen, Mapping]]) -> "AutLabeling":
        """Assemble from a labeled partition of X°."""
        pts = ctx.points
        d = max([tc.threshold for tc, _ in fibers] + [0])
        raised = [(tc.raised(d), m) for tc, m in fibers]
        exc_cells = []
        for tc, m in raised:
            exc_cells += [(w, m) for w in tc.exceptional.words]
        tails = []
        for i in range(pts.n):
            labels = EPSeq((), (None,))
            for tc, m in raised:
                fiber = EPSeq((), tc.tails[i])  # tail words are primitive
                labels = labels.zip_with(partial(_claim, m=m), fiber)
            if None in labels.word:
                raise ValueError("fibers do not partition a branch tail")
            tails.append(labels.word)
        return AutLabeling.make(ctx, d, exc_cells, tails)

    def multiply(self, other: "AutLabeling") -> "AutLabeling":
        """Pointwise composition x -> self(x) o other(x)."""
        if self.ctx != other.ctx:
            raise ContextMismatch((self.ctx, other.ctx))
        d = max(self.threshold, other.threshold)
        a = self._raised(d)
        b = other._raised(d)
        cells = [
            (w, _comp(m1, m2))
            for w, m1, m2 in meet(sorted(a.exc_cells), sorted(b.exc_cells))
        ]
        tails = [
            EPSeq((), t1).zip_with(_comp, EPSeq((), t2)).word
            for t1, t2 in zip(a.tails, b.tails)
        ]
        return AutLabeling.make(self.ctx, d, cells, tails)

    def invert(self) -> "AutLabeling":
        cells = [(w, _inv(m)) for w, m in self.exc_cells]
        tails = tuple(tuple(_inv(m) for m in t) for t in self.tails)
        return AutLabeling.make(self.ctx, self.threshold, cells, tails)

    def pushforward(self, h: EPHomeo) -> "AutLabeling":
        """The labeling x -> self(h^{-1}(x)); h must fix every point."""
        fibers = [(h.apply(self.fiber(m)), m) for m in self.labels_used()]
        fibers = [(tc, m) for tc, m in fibers if not tc.is_empty()]
        return AutLabeling.from_fibers(self.ctx, fibers)

    def _raised(self, d: int) -> "AutLabeling":
        """Same labeling re-expressed at threshold d >= current (not
        canonical)."""
        if d == self.threshold:
            return self
        pts = self.ctx.points
        cells = list(self.exc_cells)
        tails = []
        for i, t in enumerate(self.tails, start=1):
            s = EPSeq((), t)  # stored tail words are primitive
            for j in range(1, d - self.threshold + 1):
                cells.append((pts.cellword(i, self.threshold + j), s.at(j)))
            tails.append(s.shift(d - self.threshold).word)
        return AutLabeling(self.ctx, d, tuple(cells), tuple(tails))

    def act(self, f: PowerElement) -> PowerElement:
        """(self . f)(x) = self(x)(f(x)); finite because tail labels fix
        the filter idempotents."""
        ctx = self.ctx
        if f.ctx != ctx:
            raise ContextMismatch((f.ctx, ctx))
        pts = ctx.points
        # the labeling as one partition of X: its exceptional cells, the
        # tail cells below T_i, and the neighbourhood of x_i inside f's cell
        # there, where f is e_i and every tail label fixes e_i
        part = list(self.exc_cells)
        for i in range(1, pts.n + 1):
            pw = next(w for w, _ in f.cells if pts.point(i).startswith(w))
            T = max(self.threshold + 1, len(pw) - (i - 1))
            part += [
                (pts.cellword(i, j), self.tail_label(i, j))
                for j in range(self.threshold + 1, T)
            ]
            part.append((pts.nbhd_word(i, T), self.tail_label(i, T)))
        out = [(w, m[a]) for w, m, a in meet(sorted(part), f.cells)]
        return PowerElement.make(ctx, out)


def _comp(m1: Mapping, m2: Mapping) -> Mapping:
    return tuple(m1[m2[a]] for a in range(len(m1)))


def _pair(m1: Mapping, m2: Mapping):
    return m1, m2


def _inv(m: Mapping) -> Mapping:
    out = [0] * len(m)
    for a, b in enumerate(m):
        out[b] = a
    return tuple(out)


def _claim(label, bit: str, m: Mapping):
    """One fiber's tail bit folded into a branch label: m where the bit
    is set, on a position no other fiber holds."""
    if bit != "1":
        return label
    if label is not None:
        raise ValueError("fibers do not partition a branch tail")
    return m


def separating_element(k1: AutLabeling, k2: AutLabeling):
    """An element on which two distinct labelings act differently, or
    None when they are equal; its depth is bounded by the labelings'
    thresholds and periods."""
    from .power import _complement_fill

    if k1.ctx != k2.ctx:
        raise ContextMismatch((k1.ctx, k2.ctx))
    ctx = k1.ctx
    D = max(k1.threshold, k2.threshold)
    a1, a2 = k1._raised(D), k2._raised(D)

    def build(w, a):
        cells = [(w, a)]
        rest = Clopen.all().difference(Clopen.make([w]))
        cells += _complement_fill(ctx, rest)
        return PowerElement.make(ctx, cells)

    for w, m1, m2 in meet(sorted(a1.exc_cells), sorted(a2.exc_cells)):
        if m1 != m2:
            a = next(x for x in ctx.algebra.carrier if m1[x] != m2[x])
            return build(w, a)
    for i, (t1, t2) in enumerate(zip(a1.tails, a2.tails), start=1):
        both = EPSeq((), t1).zip_with(_pair, EPSeq((), t2))
        for o, (m1, m2) in enumerate(both.word):
            if m1 != m2:
                w = ctx.points.cellword(i, D + 1 + o)
                a = next(x for x in ctx.algebra.carrier if m1[x] != m2[x])
                return build(w, a)
    return None


# ---------------------------------------------------------------------------
# elements through point-fixing homeomorphisms


def element_through_homeo(f: PowerElement, h: EPHomeo) -> PowerElement:
    """f o h^{-1}: push every cell of f forward through h; the images of a
    partition partition X, and make merges them back to canonical form."""
    ctx = f.ctx
    if not h.extends_to_X():
        raise NotExtendable("element transport needs a point-fixing extension")
    # h fixes the points: x_i stays in the image of the cell holding it
    for i in range(1, ctx.points.n + 1):
        x = ctx.points.point(i)
        w = next(w for w, _ in f.cells if x.startswith(w))
        if not point_in(x, h.cell_image(w)):
            raise AssertionError("point membership lost in transport")
    return PowerElement.make(
        ctx, [(u, a) for w, a in f.cells for u in h.cell_image(w).words]
    )


# ---------------------------------------------------------------------------
# the semidirect normal form


@dataclass(frozen=True)
class PowerAutomorphism:
    """Kernel labeling times point-fixing homeomorphism: acts on f as
    x -> labeling(x) applied to f(homeo^{-1}(x))."""

    ctx: PowerContext
    labeling: AutLabeling
    homeo: EPHomeo

    @staticmethod
    def make(ctx, labeling, homeo) -> "PowerAutomorphism":
        if labeling.ctx != ctx or homeo.ctx != ctx.points:
            raise ContextMismatch("labeling/homeo on a different context")
        pm = homeo.point_map()
        if pm is None:
            raise NotExtendable("homeo part has no continuous extension")
        if any(pm[i] != i for i in pm):
            raise PointNotFixed(pm)
        return PowerAutomorphism(ctx, labeling, homeo)

    @staticmethod
    def identity(ctx) -> "PowerAutomorphism":
        return PowerAutomorphism.make(
            ctx, AutLabeling.identity(ctx), EPHomeo.identity(ctx.points)
        )

    def is_identity(self) -> bool:
        return self == PowerAutomorphism.identity(self.ctx)

    @staticmethod
    def from_homeo(ctx, psi: EPHomeo) -> "PowerAutomorphism":
        return PowerAutomorphism.make(ctx, AutLabeling.identity(ctx), psi)

    @staticmethod
    def from_labeling(labeling: AutLabeling) -> "PowerAutomorphism":
        return PowerAutomorphism.make(
            labeling.ctx, labeling, EPHomeo.identity(labeling.ctx.points)
        )

    def h_part(self) -> EPHomeo:
        return self.homeo

    def in_kernel(self) -> bool:
        return self.homeo.is_identity()

    def apply(self, f: PowerElement) -> PowerElement:
        if f.ctx != self.ctx:
            raise ContextMismatch((f.ctx, self.ctx))
        return self.labeling.act(element_through_homeo(f, self.homeo))

    def compose(self, other: "PowerAutomorphism") -> "PowerAutomorphism":
        """self after other: (k1, s1)(k2, s2) = (k1 . (k2 o s1^{-1}), s1 s2)."""
        if self.ctx != other.ctx:
            raise ContextMismatch((self.ctx, other.ctx))
        lab = self.labeling.multiply(other.labeling.pushforward(self.homeo))
        return PowerAutomorphism.make(
            self.ctx, lab, self.homeo.compose(other.homeo)
        )

    def inverse(self) -> "PowerAutomorphism":
        hinv = self.homeo.inverse()
        lab = self.labeling.pushforward(hinv).invert()
        return PowerAutomorphism.make(self.ctx, lab, hinv)


# ---------------------------------------------------------------------------
# characteristic automorphisms and kernel factorizations


def characteristic(
    ctx: PowerContext, c: TailClopen, alpha: Endomap
) -> PowerAutomorphism:
    """Kernel automorphism acting by alpha on c and trivially elsewhere;
    legal when alpha fixes the idempotents of all branches accumulating c."""
    if not alpha.is_automorphism:
        raise IllegalTriple(f"{alpha} is not an automorphism")
    if c.ctx != ctx.points:
        raise ContextMismatch((c.ctx, ctx.points))
    ins = {
        i for i in range(1, ctx.points.n + 1) if "1" in c.tails[i - 1]
    }
    for i in ins:
        e = ctx.filters[i - 1]
        if alpha(e) != e:
            raise IllegalTriple(
                f"label moves idempotent {e} accumulating at point {i}"
            )
    if c.is_empty() or alpha.mapping == _ident(ctx.algebra.size):
        return PowerAutomorphism.identity(ctx)
    fibers = [(c, alpha.mapping)]
    comp = c.complement()
    if not comp.is_empty():
        fibers.append((comp, _ident(ctx.algebra.size)))
    return PowerAutomorphism.from_labeling(AutLabeling.from_fibers(ctx, fibers))


def characteristic_factors(k: AutLabeling) -> list[PowerAutomorphism]:
    """Disjointly supported characteristic automorphisms multiplying (in
    any order) to the kernel automorphism of k; at most |Aut A| of them."""
    e = _ident(k.ctx.algebra.size)
    out = []
    for m in sorted(k.labels_used()):
        if m == e:
            continue
        fib = k.fiber(m)
        if fib.is_empty():
            continue
        out.append(characteristic(k.ctx, fib, Endomap(m, True)))
    return out


def stabilizer(algebra, e: int) -> list[Endomap]:
    return [a for a in alg.automorphisms(algebra) if a(e) == e]


def dense_fiber_pair(ctx: PowerContext, c: TailClopen, alpha: Endomap):
    """Split a characteristic automorphism over a single-point power into
    sigma o tau^{-1} where every stabilizer fiber of sigma and of tau
    accumulates at the distinguished point.

    Returns (sigma, tau, case) with case 1 when c is clopen in X, 2 when
    its complement is, and 3 when both sides accumulate.
    """
    if ctx.points.n != 1:
        raise NotSinglePoint(ctx.points.n)
    e1 = ctx.filters[0]
    if not alpha.is_automorphism or alpha(e1) != e1:
        raise NotStabilizing((alpha, e1))
    stab = stabilizer(ctx.algebra, e1)
    maps = [s.mapping for s in stab]
    ident = _ident(ctx.algebra.size)
    maps.sort(key=lambda m: (m != ident, m))  # identity first
    ins = "1" in c.tails[0] if c.ctx.n else False
    outs = "0" in c.tails[0] if c.ctx.n else True
    if not ins:
        case = 1
        comp = c.complement()
        parts = split_cyclic(comp, len(maps), exceptional_to=0)
        sigma_fibers = []
        tau_fibers = []
        for part, m in zip(parts, maps):
            if part.is_empty():
                continue
            sigma_fibers.append((part.difference(c), m))
            tau_fibers.append((part.difference(c), m))
        if not c.is_empty():
            sigma_fibers.append((c, alpha.mapping))
            tau_fibers.append((c, ident))
    else:
        case = 2 if not outs else 3
        parts = split_cyclic(c, len(maps), exceptional_to=maps.index(ident))
        sigma_fibers = []
        tau_fibers = []
        for part, m in zip(parts, maps):
            if part.is_empty():
                continue
            sigma_fibers.append((part, _comp(alpha.mapping, m)))
            tau_fibers.append((part, m))
        comp = c.complement()
        if not comp.is_empty():
            sigma_fibers.append((comp, ident))
            tau_fibers.append((comp, ident))
    sigma = PowerAutomorphism.from_labeling(
        _merge_fibers(ctx, sigma_fibers)
    )
    tau = PowerAutomorphism.from_labeling(_merge_fibers(ctx, tau_fibers))
    return sigma, tau, case


def _merge_fibers(ctx, fibers):
    byl = {}
    for tc, m in fibers:
        byl[m] = byl[m].union(tc) if m in byl else tc
    return AutLabeling.from_fibers(ctx, [(tc, m) for m, tc in byl.items()])


def fiber_types_dense(phi: PowerAutomorphism) -> bool:
    """Every stabilizer automorphism's fiber accumulates at the point of a
    single-point power (the computable reading of density)."""
    ctx = phi.ctx
    if ctx.points.n != 1:
        raise NotSinglePoint(ctx.points.n)
    for s in stabilizer(ctx.algebra, ctx.filters[0]):
        fib = phi.labeling.fiber(s.mapping)
        if "1" not in fib.tails[0]:
            return False
    return True


# ---------------------------------------------------------------------------
# stabilizer containment


def block_family(ctx: PowerContext, blocks: Sequence[Clopen]):
    """The test elements f_a, a in prod {e_i} x A^(m-n), constant a_i on
    block b_i."""
    m = len(blocks)
    n = ctx.points.n
    choices = [[ctx.filters[i]] for i in range(n)]
    choices += [list(ctx.algebra.carrier) for _ in range(m - n)]
    out = []
    for a in product(*choices):
        cells = []
        for k, b in enumerate(blocks):
            cells += [(w, a[k]) for w in b.words]
        out.append((a, PowerElement.make(ctx, cells)))
    return out


def verify_stabilizer_containment(
    phi: PowerAutomorphism, blocks: Sequence[Clopen]
):
    """When phi fixes every block-constant test element, exhibit the
    decomposition phi = kappa o gamma with gamma a block-preserving
    homeomorphism part and kappa a kernel part whose labels stabilize the
    block idempotents (identity on the unpointed blocks).

    Returns ("decomposed", kappa, gamma, report) or ("violated", a, f_a).
    """
    ctx = phi.ctx
    n = ctx.points.n
    m = len(blocks)
    # distinct-orbit hypothesis
    auts = ctx.aut_mappings
    for i in range(n):
        for j in range(i + 1, n):
            if any(m[ctx.filters[i]] == ctx.filters[j] for m in auts):
                raise OrbitCollision((ctx.filters[i], ctx.filters[j]))
    cover = Clopen.empty()
    for k, b in enumerate(blocks):
        if not cover.intersect(b).is_empty():
            raise ValueError("blocks overlap")
        cover = cover.union(b)
        if k < n and not point_in(ctx.points.point(k + 1), b):
            raise ValueError(f"block {k + 1} misses its point")
    if not cover.is_all():
        raise ValueError("blocks do not tile X")
    for a, fa in block_family(ctx, blocks):
        if phi.apply(fa) != fa:
            return ("violated", a, fa)
    kappa = PowerAutomorphism.from_labeling(phi.labeling)
    gamma = PowerAutomorphism.from_homeo(ctx, phi.homeo)
    report = {
        "blocks_preserved": all(
            phi.homeo.apply_clopen_in_X(b) == b for b in blocks
        ),
        "labels_ok": _labels_in_block_stabilizers(phi.labeling, blocks),
        "recomposes": kappa.compose(gamma) == phi,
    }
    return ("decomposed", kappa, gamma, report)


def _labels_in_block_stabilizers(lab: AutLabeling, blocks) -> bool:
    ctx = lab.ctx
    n = ctx.points.n
    ident = _ident(ctx.algebra.size)
    for mmap in lab.labels_used():
        fib = lab.fiber(mmap)
        if fib.is_empty():
            continue
        for k, b in enumerate(blocks):
            hit = not fib.intersect(
                TailClopen.from_clopen(ctx.points, b)
            ).is_empty()
            if not hit:
                continue
            if k < n:
                e = ctx.filters[k]
                if mmap[e] != e:
                    return False
            elif mmap != ident:
                return False
    return True
