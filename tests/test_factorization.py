import random

import pytest

from boolpow import algebra as alg
from boolpow import factorization as fz
from boolpow import power as bp
from boolpow.cantor import Clopen, PointContext, TailClopen, is_good
from boolpow.errors import (
    EmptyGeneratorSet,
    NoPoints,
    PreconditionNotGood,
    TypeMismatch,
    TypeWitnessFailure,
)
from boolpow.homeo import EPHomeo, homeos_agree_on_sample
from boolpow.rand import (
    cell_swap,
    parity_swap,
    random_point_fixing_homeo,
    suffix_twist,
    tail_shift,
)

CTX1 = PointContext(1)
CTX2 = PointContext(2)


def test_good_partition_n1():
    gp = fz.good_partition(CTX1)
    assert len(gp.blocks) == 3
    for b in gp.blocks:
        assert is_good(b)
        assert len(b.tails[0]) == 3
    union = TailClopen.empty(CTX1)
    for b in gp.blocks:
        assert union.intersect(b).is_empty()
        union = union.union(b)
    assert union.is_full()


def test_good_partition_n2():
    gp = fz.good_partition(CTX2)
    assert len(gp.blocks) == 4
    union = TailClopen.empty(CTX2)
    for b in gp.blocks:
        assert is_good(b)
        union = union.union(b)
    assert union.is_full()


def test_good_partition_rejects_unpunctured():
    with pytest.raises(NoPoints):
        fz.good_partition(PointContext(0))


def test_three_factor_split_identity():
    gp = fz.good_partition(CTX1)
    b, c, d = gp.blocks
    s1, s2, s3 = fz.three_factor_split(EPHomeo.identity(CTX1), b, c, d)
    assert s3.compose(s2).compose(s1).is_identity()
    assert fz.fixes_pointwise(s1, b)
    assert fz.fixes_pointwise(s2, c)
    assert fz.fixes_pointwise(s3, b)


def test_three_factor_split_shift():
    gp = fz.good_partition(CTX1)
    b, c, d = gp.blocks
    sigma = tail_shift(CTX1, 1, 3)
    if not is_good(d.difference(sigma.inverse().apply(b))):
        pytest.skip("precondition fails for this block choice")
    s1, s2, s3 = fz.three_factor_split(sigma, b, c, d)
    assert s3.compose(s2).compose(s1) == sigma
    assert fz.fixes_pointwise(s1, b)
    assert fz.fixes_pointwise(s2, c)
    assert fz.fixes_pointwise(s3, b)
    assert homeos_agree_on_sample(s3.compose(s2).compose(s1), sigma, depth=32)


@pytest.mark.parametrize("shift", [0, 2], ids=["identity", "tail-shift"])
def test_three_factor_split_witness_errors(monkeypatch, shift):
    # a typed failure of a witness is a TypeWitnessFailure; a defect (an
    # AssertionError) comes out as it is.  The identity first fails at the
    # witness onto the complement, the shift at the witness A -> f.
    gp = fz.good_partition(CTX1)
    b, c, d = gp.blocks
    sigma = tail_shift(CTX1, 1, shift) if shift else EPHomeo.identity(CTX1)
    if not is_good(d.difference(sigma.inverse().apply(b))):
        pytest.skip("precondition fails for this block choice")

    def failing(error):
        def witness(c1, c2):
            raise error

        return witness

    monkeypatch.setattr(fz, "orbit_witness", failing(TypeMismatch("no witness")))
    with pytest.raises(TypeWitnessFailure):
        fz.three_factor_split(sigma, b, c, d)
    monkeypatch.setattr(fz, "orbit_witness", failing(AssertionError("defect")))
    with pytest.raises(AssertionError, match="defect"):
        fz.three_factor_split(sigma, b, c, d)


def test_three_factor_precondition_checks():
    gp = fz.good_partition(CTX1)
    b, c, d = gp.blocks
    with pytest.raises(PreconditionNotGood):
        fz.three_factor_split(EPHomeo.identity(CTX1), b, c, c)
    bad = TailClopen.from_clopen(CTX1, Clopen.make(["01"]))
    with pytest.raises(PreconditionNotGood):
        fz.three_factor_split(EPHomeo.identity(CTX1), bad, c, d)


def test_pigeonhole_failure_bound():
    rng = random.Random(3)
    gp = fz.good_partition(CTX2)
    for _ in range(8):
        sigma = random_point_fixing_homeo(CTX2, rng, moves=2)
        fails = fz.pigeonhole_failures(sigma, gp)
        for k, bad in fails.items():
            assert len(bad) <= 1, (k, bad)


@pytest.mark.parametrize("n", [1, 2])
def test_pigeonhole_factor_random(n):
    ctx = PointContext(n)
    rng = random.Random(17 + n)
    gp = fz.good_partition(ctx)
    for _ in range(4):
        sigma = random_point_fixing_homeo(ctx, rng, moves=2)
        i, j, (s1, s2, s3) = fz.pigeonhole_factor(sigma, gp)
        assert s3.compose(s2).compose(s1) == sigma
        assert fz.fixes_pointwise(s1, gp.blocks[i - 1])
        assert fz.fixes_pointwise(s3, gp.blocks[i - 1])
        assert fz.fixes_pointwise(s2, gp.blocks[j - 1])
        assert i != j


def test_pigeonhole_identity_any_block():
    gp = fz.good_partition(CTX1)
    i, j, facs = fz.pigeonhole_factor(EPHomeo.identity(CTX1), gp)
    assert i in (1, 2) and j != i


# --- word growth -----------------------------------------------------------------


GF2 = alg.gf2_ring()
RED = alg.gf2_idempotent_reduct()


def test_bergman_growth_identity_only():
    ctx = bp.make_context(GF2, (0,))
    sizes, stab = fz.bergman_growth(
        ctx, [EPHomeo.identity(ctx.points)], depth=2, steps=5
    )
    assert sizes == [1, 1]
    assert stab == 1


def test_bergman_growth_monotone_and_stabilizes():
    ctx = bp.make_context(RED, (0, 1))
    gens = [
        cell_swap(ctx.points, "110", "111"),
        parity_swap(ctx.points, 1),
    ]
    # parity swap at depth 3 moves cell(1,1)=01 and cell(1,2)=001 across
    # levels: it does not act on depth-3 elements, so drop it
    gens = [gens[0], suffix_twist(ctx.points, 1)]
    sizes, stab = fz.bergman_growth(ctx, gens, depth=3, steps=8)
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    assert stab is not None


def test_bergman_growth_with_characteristic():
    from boolpow import autgroup as ag

    gf4 = alg.gf4_idempotent_reduct()
    ctx = bp.make_context(gf4, (0, 1))
    frob = next(a for a in alg.automorphisms(gf4) if a != tuple(range(4)))
    c = TailClopen.from_clopen(ctx.points, Clopen.make(["110"]))
    chi = ag.characteristic(ctx, c, frob)
    sizes, stab = fz.bergman_growth(ctx, [chi], depth=3, steps=6)
    assert sizes[0] >= 2
    assert stab is not None
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def naive_ball_sizes(ctx, gens, depth, steps):
    """Word-ball sizes by the naive loop, which extends the whole ball at
    every step; the oracle for the frontier-only loop."""
    from boolpow.autgroup import PowerAutomorphism

    gens = [PowerAutomorphism.from_homeo(ctx, g) for g in gens]
    elems = bp.enumerate_elements(ctx, depth)
    index = {f: i for i, f in enumerate(elems)}
    perms = {
        tuple(index[g.apply(f)] for f in elems)
        for g in gens + [g.inverse() for g in gens]
    }
    ball = {tuple(range(len(elems)))} | perms
    sizes = [len(ball)]
    for step in range(2, steps + 1):
        new = set(ball)
        for p in ball:
            for q in perms:
                new.add(tuple(p[q[i]] for i in range(len(q))))
        sizes.append(len(new))
        if len(new) == len(ball):
            return sizes, step - 1
        ball = new
    return sizes, None


def _cli_default_generators(pctx):
    """The generators the bergman-growth subcommand uses without --gens."""
    base = pctx.cellword(1, 1)
    return [suffix_twist(pctx, 1), cell_swap(pctx, base + "0", base + "1")]


@pytest.mark.parametrize(
    "algebra, gens, depth, steps",
    [
        ("gf2-idempotent-reduct", None, 3, 8),
        ("gf4-idempotent-reduct", None, 3, 8),
        # a ball that keeps growing for ten steps
        ("gf2-ring", [("10", "11"), ("100", "010"), ("010", "011"), ("011", "001")], 3, 12),
    ],
)
def test_bergman_growth_matches_naive_ball(algebra, gens, depth, steps):
    a = alg.builtin(algebra)
    filters = (0,) if gens else tuple(sorted(alg.idempotents(a)))
    ctx = bp.make_context(a, filters)
    if gens is None:
        gens = _cli_default_generators(ctx.points)
    else:
        gens = [cell_swap(ctx.points, u, v) for u, v in gens]
    want = naive_ball_sizes(ctx, gens, depth, steps)
    assert fz.bergman_growth(ctx, gens, depth, steps) == want


def test_bergman_growth_empty_generators():
    ctx = bp.make_context(GF2, (0,))
    with pytest.raises(EmptyGeneratorSet):
        fz.bergman_growth(ctx, [], depth=2, steps=3)


def test_split_good_iterated_power_of_two():
    from boolpow.cantor import split_good

    c = fz.good_partition(CTX2).blocks[0]
    pieces = [c]
    for _ in range(2):
        nxt = []
        for p in pieces:
            a, b = split_good(p)
            nxt += [a, b]
        pieces = nxt
    assert len(pieces) == 4
    union = TailClopen.empty(CTX2)
    for p in pieces:
        assert is_good(p)
        assert union.intersect(p).is_empty()
        union = union.union(p)
    assert union == c
