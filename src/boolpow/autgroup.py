"""Automorphisms of a filtered Boolean power in semidirect normal form:
a point-fixing homeomorphism part and a kernel labeling that twists values
by automorphisms of the base algebra, locally constantly on the punctured
space, with stabilizer-valued labels along every branch tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from . import algebra as alg
from .algebra import Mapping, _comp, _ident
from .cantor import (
    Clopen,
    TailClopen,
    TailTree,
    _at,
    _common_cells,
    _map,
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
from .homeo import EPHomeo
from .power import PowerContext, PowerElement, _complement_fill
from .seqs import EPSeq


@dataclass(frozen=True)
class AutLabeling:
    """Locally constant map X° -> Aut A with periodic branch tails whose
    labels all stabilize the filter idempotent of their branch.

    The labels are the automorphism-index case of TailTree: a label is
    stored as its index in ctx.aut_mappings.
    """

    ctx: PowerContext
    labels: TailTree

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
        return AutLabeling(ctx, TailTree.make(pts, threshold, tree, tail_ids))

    @staticmethod
    def identity(ctx) -> "AutLabeling":
        e = ctx.aut_ids[_ident(ctx.algebra.size)]
        pts = ctx.points
        tree = _map(lambda inside: e if inside else None, pts.region(0)._t)
        return AutLabeling(ctx, TailTree(pts, 0, tree, ((e,),) * pts.n))

    def is_identity(self) -> bool:
        return self == AutLabeling.identity(self.ctx)

    @property
    def threshold(self) -> int:
        return self.labels.threshold

    @property
    def exc_cells(self) -> tuple[tuple[str, Mapping], ...]:
        """The sorted (word, mapping) cells of the exceptional part."""
        auts = self.ctx.aut_mappings
        return tuple((w, auts[k]) for w, k in _words(self.labels.tree, "", []))

    @property
    def tails(self) -> tuple[tuple[Mapping, ...], ...]:
        auts = self.ctx.aut_mappings
        return tuple(tuple(auts[k] for k in t) for t in self.labels.tails)

    def tail_label(self, i: int, j: int) -> Mapping:
        return self.ctx.aut_mappings[self.labels.tail_at(i, j)]

    def label_on_word(self, w: str) -> Mapping:
        k = subtree(self.labels.tree, w)
        if k is None or k.__class__ is tuple:
            raise KeyError(w)
        return self.ctx.aut_mappings[k]

    def labels_used(self) -> set[Mapping]:
        auts = self.ctx.aut_mappings
        out = {auts[k] for _, k in _words(self.labels.tree, "", [])}
        for t in self.labels.tails:
            out |= {auts[k] for k in t}
        return out

    def fiber(self, m: Mapping) -> TailClopen:
        k = self.ctx.aut_ids.get(m, -1)
        return TailClopen(self.labels.zip(lambda l: None if l is None else l == k))

    @staticmethod
    def from_fibers(ctx, fibers: Sequence[tuple[TailClopen, Mapping]]) -> "AutLabeling":
        """Assemble from a labeled partition of X°: one zip of the fibers,
        whose leaves are the bit sets of the fibers holding a cell."""
        fibers = list(fibers) or [(TailClopen.empty(ctx.points), None)]
        labels = [m for _, m in fibers]

        def held(*bits):
            return None if bits[0] is None else sum(1 << k for k, b in enumerate(bits) if b)

        joint = fibers[0][0].labels.zip(held, *[tc.labels for tc, _ in fibers[1:]])
        if any(b & (b - 1) or not b for word in joint.tails for b in word):
            raise ValueError("fibers do not partition a branch tail")
        # a cell no fiber holds is left out, one two fibers hold is given twice
        exc_cells = [
            (w, labels[k]) for w, b in _words(joint.tree, "", [])
            for k in range(b.bit_length()) if b >> k & 1
        ]
        tails = [[labels[b.bit_length() - 1] for b in word] for word in joint.tails]
        return AutLabeling.make(ctx, joint.threshold, exc_cells, tails)

    def multiply(self, other: "AutLabeling") -> "AutLabeling":
        """Pointwise composition x -> self(x) o other(x)."""
        if self.ctx != other.ctx:
            raise ContextMismatch((self.ctx, other.ctx))
        products = self.ctx.aut_products

        def comp(k, l):
            return None if k is None else products[k][l]

        return AutLabeling(self.ctx, self.labels.zip(comp, other.labels))

    def invert(self) -> "AutLabeling":
        """Pointwise inverse."""
        e = self.ctx.aut_ids[_ident(self.ctx.algebra.size)]
        inv = [row.index(e) for row in self.ctx.aut_products]
        return AutLabeling(
            self.ctx, self.labels.zip(lambda k: None if k is None else inv[k])
        )

    def pushforward(self, h: EPHomeo) -> "AutLabeling":
        """The labeling x -> self(h^{-1}(x)), for any homeomorphism h of
        X°; see TailTree.push."""
        return AutLabeling(self.ctx, self.labels.push(h))

    def act(self, f: PowerElement) -> PowerElement:
        """(self . f)(x) = self(x)(f(x)); finite because tail labels fix
        the filter idempotents."""
        ctx = self.ctx
        if f.ctx != ctx:
            raise ContextMismatch((f.ctx, ctx))
        # the labeling as one tree on X: its exceptional part, the tail
        # cells below T_i, and the neighbourhood of x_i inside f's cell
        # there, where f is e_i and every tail label fixes e_i
        lab = self.labels
        depths, ends = [], []
        for i, (x, _) in enumerate(ctx.marked, start=1):
            T = max(lab.threshold + 1, _at(f.tree, x)[1] - (i - 1))
            depths.append(T)
            ends.append(lab.tail_at(i, T))
        auts = ctx.aut_mappings
        tree = _zip(
            lambda k, a: None if a is None else auts[k][a],
            graft(lab.tree, tail_cells(ctx.points, lab.threshold, lab.tail_at, depths, ends)),
            f.tree,
        )
        return PowerElement.from_tree(ctx, tree, f.support)


def separating_element(k1: AutLabeling, k2: AutLabeling):
    """An element on which two distinct labelings act differently, or
    None when they are equal; its depth is bounded by the labelings'
    thresholds and periods."""
    if k1.ctx != k2.ctx:
        raise ContextMismatch((k1.ctx, k2.ctx))
    ctx = k1.ctx
    D = max(k1.threshold, k2.threshold)
    a1, a2 = k1.labels.raised(D), k2.labels.raised(D)
    auts = ctx.aut_mappings

    def witness(w, l1, l2):
        m1, m2 = auts[l1], auts[l2]
        a = next(x for x in ctx.algebra.carrier if m1[x] != m2[x])
        cells = _complement_fill(ctx, Clopen.all().difference(Clopen.make([w])))
        return PowerElement.from_tree(ctx, graft(None, cells + [(w, a)]))

    for w, (l1, l2) in _common_cells([a1.tree, a2.tree], "", []):
        if l1 != l2:
            return witness(w, l1, l2)
    for i, (t1, t2) in enumerate(zip(a1.tails, a2.tails), start=1):
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
    ctx: PowerContext, c: TailClopen, alpha: Mapping
) -> PowerAutomorphism:
    """Kernel automorphism acting by alpha on c and trivially elsewhere;
    legal when alpha is an automorphism fixing the idempotents of all
    branches accumulating c.  Its labeling is one zip of c."""
    if alpha not in ctx.aut_ids:
        raise IllegalTriple(f"{alpha} is not an automorphism")
    if c.ctx != ctx.points:
        raise ContextMismatch((c.ctx, ctx.points))
    for i, word in enumerate(c.tails, start=1):
        e = ctx.filters[i - 1]
        if "1" in word and alpha[e] != e:
            raise IllegalTriple(
                f"label moves idempotent {e} accumulating at point {i}"
            )
    a, e = ctx.aut_ids[alpha], ctx.aut_ids[_ident(ctx.algebra.size)]
    labels = c.labels.zip(lambda b: None if b is None else a if b else e)
    return PowerAutomorphism.from_labeling(AutLabeling(ctx, labels))


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
        out.append(characteristic(k.ctx, fib, m))
    return out


def stabilizer(algebra, e: int) -> list[Mapping]:
    return [m for m in alg.automorphisms(algebra) if m[e] == e]


def dense_fiber_pair(ctx: PowerContext, c: TailClopen, alpha: Mapping):
    """Split a characteristic automorphism over a single-point power into
    sigma o tau^{-1} where every stabilizer fiber of sigma and of tau
    accumulates at the distinguished point.

    Returns (sigma, tau, case) with case 1 when c is clopen in X, 2 when
    its complement is, and 3 when both sides accumulate.
    """
    if ctx.points.n != 1:
        raise NotSinglePoint(ctx.points.n)
    e1 = ctx.filters[0]
    if alpha not in ctx.aut_ids or alpha[e1] != e1:
        raise NotStabilizing((alpha, e1))
    if c.ctx != ctx.points:
        raise ContextMismatch((c.ctx, ctx.points))
    ident = _ident(ctx.algebra.size)
    # the identity first
    maps = sorted(stabilizer(ctx.algebra, e1), key=lambda m: (m != ident, m))
    ins, outs = "1" in c.tails[0], "0" in c.tails[0]
    # the parts are disjoint, and from_fibers takes any that share a label
    if not ins:
        case = 1
        parts = list(zip(split_cyclic(c.complement(), len(maps), exceptional_to=0), maps))
        sigma_fibers = parts + [(c, alpha)]
        tau_fibers = parts + [(c, ident)]
    else:
        case = 2 if not outs else 3
        parts = list(zip(split_cyclic(c, len(maps), exceptional_to=maps.index(ident)), maps))
        comp = c.complement()
        sigma_fibers = [(part, _comp(alpha, m)) for part, m in parts] + [(comp, ident)]
        tau_fibers = parts + [(comp, ident)]
    sigma = PowerAutomorphism.from_labeling(AutLabeling.from_fibers(ctx, sigma_fibers))
    tau = PowerAutomorphism.from_labeling(AutLabeling.from_fibers(ctx, tau_fibers))
    return sigma, tau, case


def fiber_types_dense(phi: PowerAutomorphism) -> bool:
    """Every stabilizer automorphism's fiber accumulates at the point of a
    single-point power (the computable reading of density)."""
    ctx = phi.ctx
    if ctx.points.n != 1:
        raise NotSinglePoint(ctx.points.n)
    for m in stabilizer(ctx.algebra, ctx.filters[0]):
        fib = phi.labeling.fiber(m)
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
