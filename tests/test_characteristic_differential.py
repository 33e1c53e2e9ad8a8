"""Differential tests of the characteristic automorphisms and the dense
fiber pairs against the fiber route they were built by, kept here as the
oracle.

``characteristic(ctx, c, alpha)`` must have the labeling that
``AutLabeling.from_fibers`` assembles from the two fibers c (labeled
alpha) and its complement (labeled by the identity), for clopens drawn by
``rand.random_tailclopen`` and every automorphism legal on them, on
gf4-idempotent-reduct with filters (0, 1) and (0,) and on a bare
four-element set with filter (0,), where an automorphism moving 0 is
legal only on a clopen that does not accumulate at the point.

``dense_fiber_pair`` must return the sigma and tau of a frozen copy of
the old construction, which merged fibers sharing a label into one
(``old_merge_fibers``) before ``from_fibers``, on gf4-idempotent-reduct
with filter (0,) and on the bare four-element set with filter (0,), whose
stabilizer of 0 holds six automorphisms.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import autgroup as ag
from boolpow import power as bp
from boolpow.autgroup import AutLabeling, PowerAutomorphism
from boolpow.cantor import split_cyclic
from boolpow.rand import random_tailclopen

GF4 = alg.gf4_idempotent_reduct()
BARE4 = alg.make_algebra(4, [], [])
CHAR_CTXS = {
    "gf4-01": bp.make_context(GF4, (0, 1)),
    "gf4-0": bp.make_context(GF4, (0,)),
    "bare4-0": bp.make_context(BARE4, (0,)),
}
PAIR_CTXS = {
    "gf4-0": bp.make_context(GF4, (0,)),
    "bare4-0": bp.make_context(BARE4, (0,)),
}


def ident(ctx):
    return tuple(range(ctx.algebra.size))


def legal(ctx, c):
    """The automorphisms fixing the idempotent of every branch that c
    accumulates at."""
    ins = [i for i, w in enumerate(c.tails, start=1) if "1" in w]
    return [
        m for m in ctx.aut_mappings
        if all(m[ctx.filters[i - 1]] == ctx.filters[i - 1] for i in ins)
    ]


# ---------------------------------------------------------------------------
# oracles: the fibers, merged by label, assembled by from_fibers


def old_merge_fibers(ctx, fibers):
    byl = {}
    for tc, m in fibers:
        byl[m] = byl[m].union(tc) if m in byl else tc
    return AutLabeling.from_fibers(ctx, [(tc, m) for m, tc in byl.items()])


def old_dense_fiber_pair(ctx, c, alpha):
    e1 = ctx.filters[0]
    unit = ident(ctx)
    maps = sorted((m for m in ctx.aut_mappings if m[e1] == e1), key=lambda m: (m != unit, m))
    ins = "1" in c.tails[0]
    outs = "0" in c.tails[0]
    sigma_fibers, tau_fibers = [], []
    if not ins:
        case = 1
        parts = split_cyclic(c.complement(), len(maps), exceptional_to=0)
        for part, m in zip(parts, maps):
            if part.is_empty():
                continue
            sigma_fibers.append((part.difference(c), m))
            tau_fibers.append((part.difference(c), m))
        if not c.is_empty():
            sigma_fibers.append((c, alpha))
            tau_fibers.append((c, unit))
    else:
        case = 2 if not outs else 3
        parts = split_cyclic(c, len(maps), exceptional_to=maps.index(unit))
        for part, m in zip(parts, maps):
            if part.is_empty():
                continue
            sigma_fibers.append((part, tuple(alpha[m[a]] for a in range(len(m)))))
            tau_fibers.append((part, m))
        comp = c.complement()
        if not comp.is_empty():
            sigma_fibers.append((comp, unit))
            tau_fibers.append((comp, unit))
    sigma = PowerAutomorphism.from_labeling(old_merge_fibers(ctx, sigma_fibers))
    tau = PowerAutomorphism.from_labeling(old_merge_fibers(ctx, tau_fibers))
    return sigma, tau, case


# ---------------------------------------------------------------------------
# strategies


@st.composite
def tailclopens(draw, ctx):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_tailclopen(
        ctx.points, random.Random(seed), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    )


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(CHAR_CTXS)), st.data())
def test_characteristic_is_the_two_fiber_labeling(name, data):
    ctx = CHAR_CTXS[name]
    c = data.draw(tailclopens(ctx))
    for alpha in legal(ctx, c):
        want = AutLabeling.from_fibers(ctx, [(c, alpha), (c.complement(), ident(ctx))])
        chi = ag.characteristic(ctx, c, alpha)
        assert chi.labeling == want
        assert chi.in_kernel()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(PAIR_CTXS)), st.data())
def test_dense_fiber_pair_matches_merged_fibers(name, data):
    ctx = PAIR_CTXS[name]
    c = data.draw(tailclopens(ctx))
    for alpha in legal(ctx, c):
        if alpha[ctx.filters[0]] != ctx.filters[0]:
            continue
        assert ag.dense_fiber_pair(ctx, c, alpha) == old_dense_fiber_pair(ctx, c, alpha)
