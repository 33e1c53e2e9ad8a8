"""Good clopens of the punctured space and the stabilizer factorizations:
partitions into good clopens, the explicit three-factor split of a
point-fixing homeomorphism through pointwise stabilizers, the pigeonhole
reduction over a good partition, and word-growth probes on finite
approximations of the automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .cantor import (
    Clopen,
    PointContext,
    TailClopen,
    deal_cyclic,
    is_good,
)
from .errors import (
    BoolpowError,
    EmptyGeneratorSet,
    GeneratorNotActing,
    NoPoints,
    PreconditionNotGood,
    TypeWitnessFailure,
)
from .homeo import EPHomeo, orbit_witness, piecewise_glue, restrict_homeo
from .power import PowerContext, enumerate_elements
from .autgroup import PowerAutomorphism


@dataclass(frozen=True)
class GoodPartition:
    """n+2 pairwise disjoint good clopens covering X°."""

    ctx: PointContext
    blocks: tuple[TailClopen, ...]


def good_partition(ctx: PointContext) -> GoodPartition:
    """Deal the tail cells of every branch among n+2 blocks cyclically;
    the off-branch region joins the first block."""
    n = ctx.n
    if n < 1:
        raise NoPoints("the unpunctured case has no tail structure")
    m = n + 2
    blocks = []
    for r in range(m):
        tails = []
        for _ in range(n):
            word = ["0"] * m
            word[r] = "1"
            tails.append("".join(word))
        exc = ctx.region(0) if r == 0 else Clopen.empty()
        blocks.append(TailClopen.make(ctx, 0, exc, tails))
    gp = GoodPartition(ctx, tuple(blocks))
    for b in gp.blocks:
        if not is_good(b):
            raise TypeWitnessFailure("constructed block is not good")
    return gp


def _accumulation_set(c: TailClopen) -> frozenset[int]:
    return frozenset(
        i for i in range(1, c.ctx.n + 1) if "1" in c.tails[i - 1]
    )


def _alternate_subset(d: TailClopen, branches) -> TailClopen:
    """Every other whole tail cell of d on the given branches."""
    tails = [
        deal_cyclic(w, 2, 0) if i in branches else "0"
        for i, w in enumerate(d.tails, start=1)
    ]
    return TailClopen.make(d.ctx, d.threshold, Clopen.empty(), tails)


def _first_cell(d: TailClopen) -> TailClopen:
    """The first whole tail cell of d, as a clopen."""
    ctx = d.ctx
    for i in range(1, ctx.n + 1):
        eps = d.tail_epset(i)
        if not eps.is_finite():
            j = eps.kth_one(0)
            return TailClopen.from_clopen(ctx, ctx.cell(i, j))
    raise PreconditionNotGood("no tail cell available")


def three_factor_split(
    sigma: EPHomeo, b: TailClopen, c: TailClopen, d: TailClopen
) -> tuple[EPHomeo, EPHomeo, EPHomeo]:
    """Factor sigma as s3 o s2 o s1 with s1, s3 fixing b pointwise and s2
    fixing c pointwise; requires b, c, d good, pairwise disjoint covering
    X°, sigma point-fixing, and d minus sigma^{-1}(b) good."""
    ctx = sigma.ctx
    for name, blk in (("b", b), ("c", c), ("d", d)):
        if not is_good(blk):
            raise PreconditionNotGood(f"block {name} is not good")
    if not (
        b.intersect(c).is_empty()
        and b.intersect(d).is_empty()
        and c.intersect(d).is_empty()
        and b.union(c).union(d).is_full()
    ):
        raise PreconditionNotGood("blocks do not partition the punctured space")
    if not sigma.extends_to_X():
        raise PreconditionNotGood("sigma must fix the distinguished points")
    sinv = sigma.inverse()
    sb = sinv.apply(b)
    cd = c.union(d)
    if not is_good(d.difference(sb)):
        raise PreconditionNotGood("d minus sigma^{-1}(b) is not good")
    A = cd.intersect(sb)
    B = cd.difference(A)
    if A.is_empty():
        f = TailClopen.empty(ctx)
        tau1 = None
    else:
        ins = _accumulation_set(A)
        f = _alternate_subset(d, ins)
        if f.is_empty():
            f = _first_cell(d)
        try:
            tau1 = orbit_witness(A, f)
        except BoolpowError as e:
            raise TypeWitnessFailure(f"no witness A -> f: {e}") from e
    Bprime = cd.difference(f)
    try:
        tau2 = orbit_witness(B, Bprime)
    except BoolpowError as e:
        raise TypeWitnessFailure(f"no witness onto the complement: {e}") from e
    parts = [(B, tau2)]
    if tau1 is not None:
        parts.append((A, tau1))
    sigma1 = piecewise_glue(parts)
    C = b.intersect(sinv.apply(cd)).union(d.difference(f))
    if not is_good(C):
        raise TypeWitnessFailure("intermediate block is not good")
    tau3 = orbit_witness(C, d)
    parts2 = []
    if not f.is_empty():
        parts2.append((f, sigma.compose(tau1.inverse())))
    bb = b.intersect(sb)
    if not bb.is_empty():
        parts2.append((bb, sigma))
    parts2.append((C, tau3))
    sigma2 = piecewise_glue(parts2)
    parts3 = []
    if not c.is_empty():
        parts3.append((c, sigma.compose(tau2.inverse())))
    mid = tau3.apply(b.intersect(sinv.apply(cd)))
    if not mid.is_empty():
        parts3.append((mid, sigma.compose(tau3.inverse())))
    tail_part = tau3.apply(d.difference(f))
    if not tail_part.is_empty():
        parts3.append(
            (tail_part, sigma.compose(tau2.inverse()).compose(tau3.inverse()))
        )
    sigma3 = piecewise_glue(parts3)
    if sigma3.compose(sigma2).compose(sigma1) != sigma:
        raise TypeWitnessFailure("three-factor product does not recompose")
    return sigma1, sigma2, sigma3


def fixes_pointwise(h: EPHomeo, blk: TailClopen) -> bool:
    """h restricted to blk is the identity (checked exactly through the
    canonical form of the glued restriction)."""
    ctx = h.ctx
    pairs, pieces = restrict_homeo(h, blk)
    for p, q in pairs:
        if p != q:
            return False
    for pc in pieces:
        if (
            pc.branch != pc.target
            or pc.first != pc.ifirst
            or pc.step != pc.istep
            or not pc.cellmap.is_identity()
        ):
            return False
    return True


def pigeonhole_failures(sigma: EPHomeo, gp: GoodPartition) -> dict[int, list[int]]:
    """For each point k, the blocks i <= n+1 for which the last block
    minus sigma^{-1}(b_i) does not accumulate at x_k; at most one each."""
    ctx = sigma.ctx
    n = ctx.n
    sinv = sigma.inverse()
    last = gp.blocks[-1]
    out = {k: [] for k in range(1, n + 1)}
    for i in range(n + 1):
        rest = last.difference(sinv.apply(gp.blocks[i]))
        acc = _accumulation_set(rest) if not rest.is_empty() else frozenset()
        for k in range(1, n + 1):
            if k not in acc:
                out[k].append(i + 1)
    return out


def pigeonhole_factor(sigma: EPHomeo, gp: GoodPartition):
    """Factor sigma through the pointwise stabilizers of two blocks of the
    good partition: returns (i, j, (s1, s2, s3)) with s1, s3 fixing
    block i pointwise and s2 fixing block j pointwise."""
    ctx = sigma.ctx
    n = ctx.n
    sinv = sigma.inverse()
    last = gp.blocks[-1]
    chosen = None
    for i in range(n + 1):
        rest = last.difference(sinv.apply(gp.blocks[i]))
        if not rest.is_empty() and is_good(rest):
            chosen = i
            break
    if chosen is None:
        raise TypeWitnessFailure("pigeonhole found no usable block")
    b = gp.blocks[chosen]
    others = [gp.blocks[t] for t in range(n + 1) if t != chosen]
    c = others[0]
    for blk in others[1:]:
        c = c.union(blk)
    d = last
    s1, s2, s3 = three_factor_split(sigma, b, c, d)
    j = next(t for t in range(n + 1) if t != chosen)
    return chosen + 1, j + 1, (s1, s2, s3)


# ---------------------------------------------------------------------------
# word growth on finite approximations


def bergman_growth(
    ctx: PowerContext,
    generators: Sequence,
    depth: int,
    steps: int,
):
    """Word-ball sizes of the group generated by the induced permutations
    of the depth-`depth` element set.

    Generators may be PowerAutomorphism or EPHomeo values; each must carry
    depth-`depth` elements to depth-`depth` elements.  Returns (sizes,
    stabilized_at) where stabilized_at is the first step with no growth,
    or None within the step budget.
    """
    if not generators:
        raise EmptyGeneratorSet("need at least one generator")
    gens = []
    for g in generators:
        if isinstance(g, EPHomeo):
            g = PowerAutomorphism.from_homeo(ctx, g)
        gens.append(g)
    elems = enumerate_elements(ctx, depth)
    perms = set()
    for g in list(gens) + [g.inverse() for g in gens]:
        images = []
        for f in elems:
            img = g.apply(f)
            if img not in elems:
                raise GeneratorNotActing(
                    "generator does not act on the depth-%d approximation" % depth
                )
            images.append(elems.index(img))
        perms.add(tuple(images))
    ident = tuple(range(len(elems)))
    ball = {ident} | perms
    # p -> p o q for each q; below two elements ident is the only one
    times = [itemgetter(*q) for q in perms] if len(ident) > 1 else []
    sizes = [len(ball)]
    stabilized = None
    # semi-naive: a word of length k + 1 ends in one of length k, so only
    # the words new at step k need extending
    frontier = ball
    for step in range(2, steps + 1):
        frontier = {q(p) for p in frontier for q in times} - ball
        if not frontier:
            stabilized = step - 1
            sizes.append(len(ball))
            break
        ball |= frontier
        sizes.append(len(ball))
    return sizes, stabilized
