"""Automorphisms of a filtered Boolean power in semidirect normal form:
a point-fixing homeomorphism part and a kernel labeling that twists values
by automorphisms of the base algebra, locally constantly on the punctured
space, with stabilizer-valued labels along every branch tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from math import gcd, lcm
from typing import Sequence

from . import algebra as alg
from .algebra import Endomap
from .cantor import (
    Clopen,
    TailClopen,
    _at,
    _cell_labels,
    _common_cells,
    _words,
    _zip,
    build,
    graft,
    point_in,
    split_cyclic,
    subtree,
    tail_cells,
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
from .homeo import EPHomeo, _max_branch_index
from .power import PowerContext, PowerElement
from .seqs import EPSeq, common_threshold

Mapping = tuple[int, ...]


def _ident(size: int) -> Mapping:
    return tuple(range(size))


@dataclass(frozen=True)
class AutLabeling:
    """Locally constant map X° -> Aut A with periodic branch tails whose
    labels all stabilize the filter idempotent of their branch.

    A label is stored as its index in ctx.aut_mappings.  The exceptional
    part is a canonical labeled prefix tree tiling region(threshold), None
    outside it; beyond the threshold, cell(i, j) carries
    tail_ids[i-1][(j - threshold - 1) % len].
    """

    ctx: PowerContext
    threshold: int
    tree: object
    tail_ids: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(ctx, threshold, exc_cells, tails) -> "AutLabeling":
        pts = ctx.points
        ids = ctx.aut_ids
        exc_cells = [(str(w), tuple(m)) for w, m in exc_cells]
        tails = tuple(tuple(tuple(m) for m in t) for t in tails)
        if len(tails) != pts.n:
            raise ValueError("one tail label word per branch")
        for _, m in exc_cells:
            if m not in ids:
                raise TailLabelViolation(f"{m} is not an automorphism")
        for i, word in enumerate(tails, start=1):
            if not word:
                raise ValueError("empty tail label word")
            e = ctx.filters[i - 1]
            for m in word:
                if m not in ids:
                    raise TailLabelViolation(f"{m} is not an automorphism")
                if m[e] != e:
                    raise TailLabelViolation(
                        f"tail label on branch {i} moves the idempotent {e}"
                    )
        tree = build(
            [(w, ids[m]) for w, m in exc_cells],
            pts.region(threshold)._t,
            "label cells",
            "label cells do not tile the exceptional region",
        )
        tail_ids = [tuple(ids[m] for m in t) for t in tails]
        return AutLabeling._canonical(ctx, threshold, tree, tail_ids)

    @staticmethod
    def _canonical(ctx, threshold, tree, tail_ids) -> "AutLabeling":
        """The minimal threshold, where each branch reads its whole-cell
        labels (no region cell has a proper prefix inside the region)
        followed by its tail word; the cells past it leave the tree."""
        d, tail_ids = common_threshold(
            (_cell_labels(tree, i, threshold), t)
            for i, t in enumerate(tail_ids, start=1)
        )
        if d < threshold:
            region = ctx.points.region(d)._t
            tree = _zip(lambda k, inside: k if inside else None, tree, region)
        return AutLabeling(ctx, d, tree, tuple(tail_ids))

    @staticmethod
    def identity(ctx) -> "AutLabeling":
        e = ctx.aut_ids[_ident(ctx.algebra.size)]
        tree = _zip(lambda inside: e if inside else None, ctx.points.region(0)._t)
        return AutLabeling(ctx, 0, tree, ((e,),) * ctx.points.n)

    def is_identity(self) -> bool:
        return self == AutLabeling.identity(self.ctx)

    @property
    def exc_cells(self) -> tuple[tuple[str, Mapping], ...]:
        """The sorted (word, mapping) cells of the exceptional part."""
        auts = self.ctx.aut_mappings
        return tuple((w, auts[k]) for w, k in _words(self.tree, "", []))

    @property
    def tails(self) -> tuple[tuple[Mapping, ...], ...]:
        auts = self.ctx.aut_mappings
        return tuple(tuple(auts[k] for k in t) for t in self.tail_ids)

    def _tail_id(self, i: int, j: int) -> int:
        word = self.tail_ids[i - 1]
        return word[(j - self.threshold - 1) % len(word)]

    def tail_label(self, i: int, j: int) -> Mapping:
        return self.ctx.aut_mappings[self._tail_id(i, j)]

    def label_on_word(self, w: str) -> Mapping:
        k = subtree(self.tree, w)
        if k is None or k.__class__ is tuple:
            raise KeyError(w)
        return self.ctx.aut_mappings[k]

    def labels_used(self) -> set[Mapping]:
        auts = self.ctx.aut_mappings
        out = {auts[k] for _, k in _words(self.tree, "", [])}
        for t in self.tail_ids:
            out |= {auts[k] for k in t}
        return out

    def fiber(self, m: Mapping) -> TailClopen:
        k = self.ctx.aut_ids.get(m, -1)
        exc = Clopen(_zip(lambda l: l == k, self.tree))
        tails = ["".join("1" if l == k else "0" for l in t) for t in self.tail_ids]
        return TailClopen.make(self.ctx.points, self.threshold, exc, tails)

    @staticmethod
    def from_fibers(ctx, fibers: Sequence[tuple[TailClopen, Mapping]]) -> "AutLabeling":
        """Assemble from a labeled partition of X°."""
        pts = ctx.points
        d = max([tc.threshold for tc, _ in fibers] + [0])
        raised = [(tc.raised(d), m) for tc, m in fibers]
        exc_cells = [(w, m) for tc, m in raised for w in tc.exceptional.words]
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
        products = self.ctx.aut_products

        def comp(k, l):
            return None if k is None else products[k][l]

        tree = _zip(comp, a.tree, b.tree)
        tails = [
            EPSeq((), t1).zip_with(comp, EPSeq((), t2)).word
            for t1, t2 in zip(a.tail_ids, b.tail_ids)
        ]
        return AutLabeling._canonical(self.ctx, d, tree, tails)

    def invert(self) -> "AutLabeling":
        """Pointwise inverse; relabeling by a bijection keeps the form
        canonical."""
        e = self.ctx.aut_ids[_ident(self.ctx.algebra.size)]
        inv = [row.index(e) for row in self.ctx.aut_products]
        tree = _zip(lambda k: None if k is None else inv[k], self.tree)
        tails = tuple(tuple(inv[k] for k in t) for t in self.tail_ids)
        return AutLabeling(self.ctx, self.threshold, tree, tails)

    def pushforward(self, h: EPHomeo) -> "AutLabeling":
        """The labeling x -> self(h^{-1}(x)); h must fix every point.

        One pass over h's normal form: the tree below each source cell of
        a tabular pair, or of a piece cell's `cellmap` pair, is grafted at
        its image.  Past the new threshold D every image cell is a whole
        tail cell of self, whose label is read at its preimage."""
        pts, T = self.ctx.points, self.threshold
        # D: the deepest tabular image and the deepest image of a piece
        # cell at or below T; Ds: the depth the tree is read at
        D = _max_branch_index(pts, [q for _, q in h.pairs])
        Ds = max(T, _max_branch_index(pts, [p for p, _ in h.pairs]))
        for pc in h.pieces:
            if pc.first <= T:
                D = max(D, pc.image_of(T - (T - pc.first) % pc.step))
        tree = self._raised(Ds).tree
        cells = [(q, subtree(tree, p)) for p, q in h.pairs]
        for pc in h.pieces:
            j, jj = pc.first, pc.ifirst
            while jj <= D:
                dst = pts.cellword(pc.target, jj)
                if j <= Ds:
                    src = pts.cellword(pc.branch, j)
                    cells += [(dst + b, subtree(tree, src + a)) for a, b in pc.cellmap.pairs]
                else:
                    cells.append((dst, self._tail_id(pc.branch, j)))
                j, jj = j + pc.step, jj + pc.istep
        # tails: image indices D+1 .. D+P, P a period of every piece's
        # labels in the image index
        periods = [len(w) for w in self.tail_ids]
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
                    word[jj - D - 1] = self._tail_id(pc.branch, pc.first + k * pc.step)
                    k += 1
            tails.append(tuple(word))
        return AutLabeling._canonical(self.ctx, D, graft(None, cells), tails)

    def _with_tails(self, depths, ends):
        pts, thr = self.ctx.points, self.threshold
        return graft(self.tree, tail_cells(pts, thr, self._tail_id, depths, ends))

    def _raised(self, d: int) -> "AutLabeling":
        """Same labeling re-expressed at threshold d >= current (not
        canonical)."""
        if d == self.threshold:
            return self
        n = self.ctx.points.n
        tree = self._with_tails([d + 1] * n, [None] * n)
        tails = tuple(
            EPSeq((), t).shift(d - self.threshold).word  # stored words are primitive
            for t in self.tail_ids
        )
        return AutLabeling(self.ctx, d, tree, tails)

    def act(self, f: PowerElement) -> PowerElement:
        """(self . f)(x) = self(x)(f(x)); finite because tail labels fix
        the filter idempotents."""
        ctx = self.ctx
        if f.ctx != ctx:
            raise ContextMismatch((f.ctx, ctx))
        # the labeling as one tree on X: its exceptional part, the tail
        # cells below T_i, and the neighbourhood of x_i inside f's cell
        # there, where f is e_i and every tail label fixes e_i
        depths, ends = [], []
        for i, (x, _) in enumerate(ctx.marked, start=1):
            T = max(self.threshold + 1, _at(f.tree, x)[1] - (i - 1))
            depths.append(T)
            ends.append(self._tail_id(i, T))
        auts = ctx.aut_mappings
        tree = _zip(
            lambda k, a: None if a is None else auts[k][a],
            self._with_tails(depths, ends),
            f.tree,
        )
        return PowerElement.from_tree(ctx, tree, f.support)


def _comp(m1: Mapping, m2: Mapping) -> Mapping:
    return tuple(m1[m2[a]] for a in range(len(m1)))


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
    auts = ctx.aut_mappings

    def witness(w, l1, l2):
        m1, m2 = auts[l1], auts[l2]
        a = next(x for x in ctx.algebra.carrier if m1[x] != m2[x])
        cells = _complement_fill(ctx, Clopen.all().difference(Clopen.make([w])))
        return PowerElement.from_tree(ctx, graft(None, cells + [(w, a)]))

    for w, (l1, l2) in _common_cells([a1.tree, a2.tree], "", []):
        if l1 != l2:
            return witness(w, l1, l2)
    for i, (t1, t2) in enumerate(zip(a1.tail_ids, a2.tail_ids), start=1):
        both = EPSeq((), t1).zip_with(lambda l1, l2: (l1, l2), EPSeq((), t2))
        for o, (l1, l2) in enumerate(both.word):
            if l1 != l2:
                return witness(ctx.points.cellword(i, D + 1 + o), l1, l2)
    return None


# ---------------------------------------------------------------------------
# elements through point-fixing homeomorphisms


def element_through_homeo(f: PowerElement, h: EPHomeo) -> PowerElement:
    """f o h^{-1}: push every cell of f forward through h; the images of a
    partition partition X, grafted into one canonical tree."""
    ctx = f.ctx
    if not h.extends_to_X():
        raise NotExtendable("element transport needs a point-fixing extension")
    # h fixes the points: x_i stays in the image of the cell holding it
    for x, _ in ctx.marked:
        if not point_in(x, h.cell_image(x.prefix(_at(f.tree, x)[1]))):
            raise AssertionError("point membership lost in transport")
    cells = [(u, a) for w, a in f.cells for u in h.cell_image(w).words]
    return PowerElement.from_tree(ctx, graft(None, cells))


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
