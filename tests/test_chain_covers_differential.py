"""Differential tests of ``fraisse.chain_covers`` against the check it
replaced, kept here as the oracle: that one collected every stage image
in a set before it tested the enumerated elements for membership.  Both
must give the same verdict on covering stages and on stages that do not
cover."""

from dataclasses import replace
from itertools import product

import pytest

from boolpow import algebra as alg
from boolpow import fraisse as fr
from boolpow import power as bp

RED = alg.gf2_idempotent_reduct()
GF2 = alg.gf2_ring()


def old_chain_covers(ctx, stages, depth):
    stage = next(s for s in stages if s.depth == depth)
    elems = bp.enumerate_elements(ctx, depth)
    hit = set()
    for a in product(range(ctx.algebra.size), repeat=stage.bp.u):
        hit.add(stage.bp.eval(a))
    return all(f in hit for f in elems)


CASES = [(RED, (0, 1), d) for d in (2, 3, 4)] + [(GF2, (0,), d) for d in (2, 3)]


@pytest.mark.parametrize("algebra,filters,depth", CASES)
def test_covering_stage_agrees(algebra, filters, depth):
    ctx = bp.make_context(algebra, filters)
    chain = fr.limit_chain(ctx, depth)
    assert fr.chain_covers(ctx, chain, depth) is old_chain_covers(ctx, chain, depth) is True


def merged_stage(ctx, depth):
    """The depth-`depth` stage with its second value cell reading the first
    cell's source: no image separates the two cells, so the stage does not
    cover."""
    stage = next(s for s in fr.limit_chain(ctx, depth) if s.depth == depth)
    twists = list(stage.bp.twists)
    twists[1] = (twists[1][0], twists[0][1])
    return replace(stage, bp=replace(stage.bp, twists=tuple(twists)))


@pytest.mark.parametrize(
    "algebra,filters,depth", [(RED, (0, 1), 4), (RED, (0, 1), 2), (GF2, (0,), 3)]
)
def test_non_covering_stage_agrees(algebra, filters, depth):
    ctx = bp.make_context(algebra, filters)
    chain = [merged_stage(ctx, depth)]
    assert fr.chain_covers(ctx, chain, depth) is old_chain_covers(ctx, chain, depth) is False
