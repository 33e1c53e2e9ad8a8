"""Differential tests of ``EPHomeo.make`` against the ``Fraction``-based
canonical form, kept here as the oracle: ``_validate`` checks the piece
indices, runs the residue analysis ``_ap_coverage`` once per branch for
the domains and once per branch for the images, and compares the tabular
sources and images with the wanted regions through ``prefix_overlap`` and
``Clopen.make``; ``_canonicalize`` runs the domain analysis again, keeps
each piece's index map as a pair of ``Fraction`` (slope, offset), finds
the least modulus by rescanning all M residues for each divisor of M,
and pulls matching tabular cells back into each class.

The raw ``(pairs, pieces)`` data that ``make`` receives is recorded while
``random_point_fixing_homeo`` and ``random_block_preserving_homeo`` draw
homeomorphisms on 1 to 3 points, while ``tail_shift``, ``parity_swap``,
``suffix_twist`` and ``cross_branch_involution`` are built, while their
composites and inverses are formed, and while ``pigeonhole_factor``
factors a drawn homeomorphism (its tail moduli reach the thousands).  Every recorded input is fed to both
routes, which must return equal homeomorphisms.  The canonical forms are
also re-expressed (pieces split into two classes, their first cells
peeled off into tabular pairs, tabular pairs split) and perturbed into
invalid data (overlapping pieces, untiled sources or images, changed
image steps, bad indices, a source or image word not over 01); both
routes must then return the same normal form, or raise the same
exception type with the same message.
"""

import random
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow.cantor import (
    Clopen,
    PointContext,
    build,
    merge_sibling_pairs,
)
from boolpow.errors import BoolpowError, NotBijective, OverlappingDomains
from boolpow.homeo import _ap_coverage
from boolpow.factorization import good_partition, pigeonhole_factor
from boolpow.homeo import EPHomeo, TailPiece, cross_branch_involution
from boolpow.rand import (
    parity_swap,
    random_block_preserving_homeo,
    random_point_fixing_homeo,
    suffix_twist,
    tail_shift,
)

from oracles import prefix_overlap

CTXS = {n: PointContext(n) for n in (1, 2, 3)}
PARTITIONS = {n: good_partition(ctx) for n, ctx in CTXS.items()}
TWISTS = [
    EPHomeo.make(PointContext(0), [("0", "1"), ("1", "0")], ()),
    EPHomeo.make(PointContext(0), [("00", "1"), ("01", "01"), ("1", "00")], ()),
]

# ---------------------------------------------------------------------------
# oracle: the Fraction-based validation and canonical form


def divisors(m: int) -> list[int]:
    """The divisors of m >= 1, ascending."""
    small, big = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                big.append(m // d)
        d += 1
    return small + big[::-1]


def old_table_pairs(pairs) -> tuple:
    """The merged pairs of a bijection of X, as ``Table.make`` built
    them when cell maps were their own type: a ValueError unless both
    sides tile X."""
    pairs = [(str(p), str(q)) for p, q in pairs]
    for side, k in (("source", 0), ("image", 1)):
        cells = [(pair[k], True) for pair in pairs]
        build(cells, True, f"{side} cells", f"{side} cells do not cover X")
    return merge_sibling_pairs(pairs)


def old_ap_coverage(aps, cap: int = 1 << 22):
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


def old_validate(ctx, pairs, pieces):
    for p in pieces:
        if p.first < 1 or p.step < 1 or p.ifirst < 1 or p.istep < 1:
            raise NotBijective(f"bad piece indices {p}")
        if not (1 <= p.branch <= ctx.n and 1 <= p.target <= ctx.n):
            raise NotBijective(f"piece on missing branch {p}")
    leftover_cells = []
    for i in range(1, ctx.n + 1):
        aps = [(p.first, p.step) for p in pieces if p.branch == i]
        _, _, _, leftover = old_ap_coverage(aps)
        leftover_cells += [ctx.cellword(i, j) for j in leftover]
    image_cells = []
    for t in range(1, ctx.n + 1):
        aps = [(p.ifirst, p.istep) for p in pieces if p.target == t]
        try:
            _, _, _, leftover = old_ap_coverage(aps)
        except OverlappingDomains as e:
            raise NotBijective(f"image cells collide on branch {t}") from e
        image_cells += [ctx.cellword(t, j) for j in leftover]
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


def old_canonicalize(ctx, pairs, pieces):
    pairs = list(pairs)
    out = []
    for i in range(1, ctx.n + 1):
        plist = [p for p in pieces if p.branch == i]
        if not plist:
            continue
        aps = [(p.first, p.step) for p in plist]
        M, owner, entry, _ = old_ap_coverage(aps)
        data = []
        for p in plist:
            a = Fraction(p.istep, p.step)
            data.append((p.target, p.cellmap, a, p.ifirst - a * p.first))
        D = [data[owner[r]] for r in range(M)]
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
            j = j0 - d
            while j >= 1:
                if j >= entry[j % M]:
                    jj = a * j + b
                    if jj.denominator == 1 and jj >= 1:
                        cw = ctx.cellword(i, j)
                        cw2 = ctx.cellword(tgt, int(jj))
                        for u, v in cm.pairs:
                            pairs.append((cw + u, cw2 + v))
                    else:
                        raise NotBijective("fractional image index")
                j -= d
            im0 = a * j0 + b
            if im0.denominator != 1 or im0 < 1:
                raise NotBijective("fractional image index")
            classes.append([i, j0, d, tgt, int(im0), int(a * d), cm])
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
                    rel = old_table_pairs(
                        [(p[len(cw):], q[len(cw2):]) for p, q in inside]
                    )
                except ValueError:
                    break
                if rel != cm.pairs:
                    break
                for pr in inside:
                    pairs.remove(pr)
                c[1], c[4] = j, jj
        out += [TailPiece(*c) for c in classes]
    out.sort(key=lambda p: (p.branch, p.first))
    return list(merge_sibling_pairs(pairs)), out


def old_make(ctx, pairs, pieces):
    pairs = [(str(p), str(q)) for p, q in pairs]
    pieces = list(pieces)
    old_validate(ctx, pairs, pieces)
    pairs, pieces = old_canonicalize(ctx, pairs, pieces)
    return EPHomeo(ctx, tuple(pairs), tuple(pieces))


# ---------------------------------------------------------------------------
# the raw data make receives


@contextmanager
def recording():
    """Every (ctx, pairs, pieces) passed to EPHomeo.make inside the block."""
    calls = []
    saved = EPHomeo.__dict__["make"]
    make = saved.__func__

    def spy(ctx, pairs, pieces):
        pairs, pieces = list(pairs), list(pieces)
        calls.append((ctx, pairs, pieces))
        return make(ctx, pairs, pieces)

    EPHomeo.make = staticmethod(spy)
    try:
        yield calls
    finally:
        EPHomeo.make = saved


def outcome(route, ctx, pairs, pieces):
    """The homeomorphism route returns, or the type and message of what
    it raises."""
    try:
        return route(ctx, list(pairs), list(pieces))
    except (BoolpowError, ValueError) as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 6, 12])), max_size=5)
)
def test_ap_coverage_matches_oracle(aps):
    """The residue analysis on families of APs that overlap, leave gaps
    or, for every odd-sized family, are replaced by a partition of the
    residues mod the first step with shifted starts."""
    if len(aps) % 2:
        step = aps[0][1]
        aps = [(f + step * (f % 3), step) for f in range(1, step + 1)]

    def analysis(route):
        try:
            return route(aps)
        except BoolpowError as e:
            return type(e), str(e)

    assert analysis(_ap_coverage) == analysis(lambda aps: old_ap_coverage(aps)[1:])


def assert_routes_agree(ctx, pairs, pieces):
    old = outcome(old_make, ctx, pairs, pieces)
    new = outcome(EPHomeo.make, ctx, pairs, pieces)
    assert new == old, (pairs, pieces)
    return new


def drawn_homeo(ctx, kind, seed, moves):
    rng = random.Random(seed)
    if kind == "point_fixing":
        return random_point_fixing_homeo(ctx, rng, moves)
    if kind == "block_preserving":
        return random_block_preserving_homeo(ctx, rng, moves)
    i = rng.randint(1, ctx.n)
    if kind == "tail_shift":
        return tail_shift(ctx, i, rng.randint(1, 2))
    if kind == "parity_swap":
        return parity_swap(ctx, i)
    if kind == "suffix_twist":
        return suffix_twist(ctx, i, rng.choice(TWISTS))
    return cross_branch_involution(CTXS[2])


KINDS = [
    "point_fixing",
    "block_preserving",
    "tail_shift",
    "parity_swap",
    "suffix_twist",
    "cross_branch",
]


@st.composite
def drawn_pair(draw):
    """Two homeomorphisms on one context, with every make input recorded
    on the way: their construction, composites and inverses."""
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(2)]
    n = 2 if "cross_branch" in kinds else draw(st.integers(1, 3))
    ctx = CTXS[n]
    moves = draw(st.integers(1, 2 if n == 3 else 3))
    seeds = [draw(st.integers(0, 2**32 - 1)) for _ in range(2)]
    with recording() as calls:
        g, h = (drawn_homeo(ctx, k, s, moves) for k, s in zip(kinds, seeds))
        g.compose(h)
        h.compose(g.inverse())
        h.inverse()
    return g, h, calls


@settings(max_examples=120, deadline=None)
@given(drawn_pair())
def test_recorded_inputs_agree(pair):
    *_, calls = pair
    assert calls
    for ctx, pairs, pieces in calls:
        assert isinstance(assert_routes_agree(ctx, pairs, pieces), EPHomeo)


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_factorization_inputs_agree(n, seed):
    """pigeonhole_factor glues and composes homeomorphisms whose tail
    moduli reach the thousands on three points."""
    sigma = random_point_fixing_homeo(CTXS[n], random.Random(seed), 2)
    with recording() as calls:
        pigeonhole_factor(sigma, PARTITIONS[n])
    for ctx, pairs, pieces in calls:
        assert isinstance(assert_routes_agree(ctx, pairs, pieces), EPHomeo)


# ---------------------------------------------------------------------------
# re-expressions of a canonical form: same homeomorphism


def split_piece(ctx, pairs, pieces, k):
    p = pieces[k]
    two = [
        TailPiece(p.branch, p.first, 2 * p.step, p.target, p.ifirst, 2 * p.istep, p.cellmap),
        TailPiece(
            p.branch,
            p.first + p.step,
            2 * p.step,
            p.target,
            p.ifirst + p.istep,
            2 * p.istep,
            p.cellmap,
        ),
    ]
    return pairs, pieces[:k] + two + pieces[k + 1:]


def peel_piece(ctx, pairs, pieces, k):
    p = pieces[k]
    cw, cw2 = ctx.cellword(p.branch, p.first), ctx.cellword(p.target, p.ifirst)
    peeled = [(cw + u, cw2 + v) for u, v in p.cellmap.pairs]
    rest = TailPiece(
        p.branch, p.first + p.step, p.step, p.target, p.ifirst + p.istep, p.istep, p.cellmap
    )
    return pairs + peeled, pieces[:k] + [rest] + pieces[k + 1:]


def split_pair(ctx, pairs, pieces, k):
    p, q = pairs[k]
    return pairs[:k] + [(p + "0", q + "0"), (p + "1", q + "1")] + pairs[k + 1:], pieces


VALID = [split_piece, peel_piece, split_pair]


@settings(max_examples=80, deadline=None)
@given(drawn_pair(), st.data())
def test_reexpressed_forms_agree(pair, data):
    h = pair[data.draw(st.integers(0, 1))]
    pairs, pieces = list(h.pairs), list(h.pieces)
    for _ in range(data.draw(st.integers(1, 4))):
        move = data.draw(st.sampled_from(VALID))
        seq = pieces if move is not split_pair else pairs
        if not seq:
            continue
        k = data.draw(st.integers(0, len(seq) - 1))
        pairs, pieces = move(h.ctx, pairs, pieces, k)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    rng.shuffle(pairs)
    rng.shuffle(pieces)
    assert assert_routes_agree(h.ctx, pairs, pieces) == h


# ---------------------------------------------------------------------------
# invalid perturbations: same exception, same message


def dup_piece(ctx, pairs, pieces, rng):
    return pairs, pieces + [rng.choice(pieces)]


def overlap_piece(ctx, pairs, pieces, rng):
    p = rng.choice(pieces)
    extra = TailPiece(p.branch, p.first + p.step, p.step, p.target, p.ifirst, p.istep, p.cellmap)
    return pairs, pieces + [extra]


def drop_piece(ctx, pairs, pieces, rng):
    k = rng.randrange(len(pieces))
    return pairs, pieces[:k] + pieces[k + 1:]


def _repiece(pieces, rng, **changes):
    k = rng.randrange(len(pieces))
    return pieces[:k] + [replace(pieces[k], **changes)] + pieces[k + 1:]


def shift_image(ctx, pairs, pieces, rng):
    p = rng.choice(pieces)
    return pairs, _repiece([p], rng, ifirst=p.ifirst + p.istep) + [
        q for q in pieces if q is not p
    ]


def fractional_slope(ctx, pairs, pieces, rng):
    """A piece whose image step no longer matches its class: the slope
    istep/step changes to a non-integral multiple of the old one."""
    p = rng.choice(pieces)
    changed = rng.choice([dict(istep=2 * p.istep), dict(step=2 * p.step), dict(istep=p.istep + 1)])
    return pairs, _repiece([p], rng, **changed) + [q for q in pieces if q is not p]


def peel_without_pairs(ctx, pairs, pieces, rng):
    p = rng.choice(pieces)
    return pairs, _repiece([p], rng, first=p.first + p.step, ifirst=p.ifirst + p.istep) + [
        q for q in pieces if q is not p
    ]


def bad_index(ctx, pairs, pieces, rng):
    return pairs, _repiece(pieces, rng, **{rng.choice(["first", "step", "ifirst", "istep"]): 0})


def missing_branch(ctx, pairs, pieces, rng):
    return pairs, _repiece(pieces, rng, target=ctx.n + 1)


def drop_pair(ctx, pairs, pieces, rng):
    k = rng.randrange(len(pairs))
    return pairs[:k] + pairs[k + 1:], pieces


def overlap_source(ctx, pairs, pieces, rng):
    p, q = rng.choice(pairs)
    return pairs + [(p + "0", q + "0")], pieces


def shared_image(ctx, pairs, pieces, rng):
    if len(pairs) < 2:
        return pairs + pairs, pieces
    k, m = rng.sample(range(len(pairs)), 2)
    return pairs[:k] + [(pairs[k][0], pairs[m][1])] + pairs[k + 1:], pieces


def short_image(ctx, pairs, pieces, rng):
    k = rng.randrange(len(pairs))
    p, q = pairs[k]
    return pairs[:k] + [(p, q + "0")] + pairs[k + 1:], pieces


def bad_word(ctx, pairs, pieces, rng):
    k = rng.randrange(len(pairs))
    p, q = pairs[k]
    return pairs[:k] + [rng.choice([(p + "2", q), (p, q + "2")])] + pairs[k + 1:], pieces


def _misspelt(w, rng):
    """w with a letter not over 01 put in at a random place."""
    i = rng.randrange(len(w) + 1)
    return w[:i] + rng.choice("2a ") + w[i:]


def bad_source_word(ctx, pairs, pieces, rng):
    k = rng.randrange(len(pairs))
    p, q = pairs[k]
    return pairs[:k] + [(_misspelt(p, rng), q)] + pairs[k + 1:], pieces


def bad_image_word(ctx, pairs, pieces, rng):
    k = rng.randrange(len(pairs))
    p, q = pairs[k]
    return pairs[:k] + [(p, _misspelt(q, rng))] + pairs[k + 1:], pieces


ON_PIECES = [
    dup_piece,
    overlap_piece,
    drop_piece,
    shift_image,
    fractional_slope,
    peel_without_pairs,
    bad_index,
    missing_branch,
]
ON_PAIRS = [
    drop_pair,
    overlap_source,
    shared_image,
    short_image,
    bad_word,
    bad_source_word,
    bad_image_word,
]


@settings(max_examples=150, deadline=None)
@given(drawn_pair(), st.data())
def test_perturbed_inputs_agree(pair, data):
    h = pair[data.draw(st.integers(0, 1))]
    pairs, pieces = list(h.pairs), list(h.pieces)
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(data.draw(st.integers(1, 2))):
        moves = ON_PIECES * bool(pieces) + ON_PAIRS * bool(pairs)
        pairs, pieces = data.draw(st.sampled_from(moves))(h.ctx, pairs, pieces, rng)
    assert_routes_agree(h.ctx, pairs, pieces)


@pytest.mark.parametrize("move", ON_PIECES + ON_PAIRS, ids=lambda m: m.__name__)
def test_each_perturbation_is_rejected(move):
    """On a fixed two-point homeomorphism every perturbation is invalid,
    and both routes reject it alike."""
    ctx = CTXS[2]
    h = tail_shift(ctx, 1, 2).compose(parity_swap(ctx, 2))
    for seed in range(8):
        pairs, pieces = move(ctx, list(h.pairs), list(h.pieces), random.Random(seed))
        assert not isinstance(assert_routes_agree(ctx, pairs, pieces), EPHomeo)
