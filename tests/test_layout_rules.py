"""The fixed layouts of the Cantor space that the filtered power is read
through, each pinned against a brute decode or a frozen copy of the code
that first wrote it:

- the branch cells 1^(i-1) 0^j 1 (``PointContext.branch_cell``), against
  ``cellword`` and the points' prefixes;
- the level-t stage cells of the Fraisse chain (``limit_chain``): the
  free cells in order, one block per point at its level-t prefix, and the
  step's coordinates;
- the standard prefix code 0, 10, ..., 1^(m-2) 0, 1^(m-1) that
  ``power.restrict`` rebases a clopen onto (``RestrictionMap.pairs``) and
  that ``freealg.kernel_class_power_iso`` lays its blocks and cells out
  on.

A different valid layout would still pass the round-trip tests, so these
compare the layouts themselves.
"""

import random
from itertools import product

import pytest

from boolpow import algebra as alg
from boolpow import fraisse as fr
from boolpow import power as bp
from boolpow.algebra import _ident
from boolpow.cantor import Clopen, PointContext, _words, split

RED = alg.gf2_idempotent_reduct()


# ---------------------------------------------------------------------------
# frozen copies


def old_stage_words(ctx, t):
    words = ["".join(b) for b in product("01", repeat=t)]
    pts = [ctx.points.point(i).prefix(t) for i in range(1, ctx.points.n + 1)]
    if len(set(pts)) != len(pts):
        return None
    free = [w for w in words if w not in pts]
    if not free:
        return None
    return free, pts


def old_step_coords(ctx, t, free, free2):
    ident = _ident(ctx.algebra.size)
    index = {w: k for k, w in enumerate(free)}
    pts = {
        ctx.points.point(i).prefix(t): ctx.filters[i - 1]
        for i in range(1, ctx.points.n + 1)
    }
    coords = []
    for w2 in free2:
        parent = w2[:-1]
        if parent in index:
            coords.append(("aut", ident, index[parent]))
        else:
            coords.append(("idem", pts[parent]))
    return tuple(coords)


def old_codes(m):
    if m == 1:
        return [""]
    return ["1" * k + "0" for k in range(m - 1)] + ["1" * (m - 1)]


def old_restrict_pairs(ctx, b):
    pts = ctx.points.points()
    words = bp._one_point_words(pts, b.words)
    point_cells = {}
    for i, x in enumerate(pts, start=1):
        w = next((w for w in words if x.startswith(w)), None)
        if w is not None:
            point_cells[i] = w
    retained = list(point_cells)
    leftover = [w for w in words if w not in point_cells.values()]
    n2 = len(retained)
    pairs = []
    if leftover:
        for k, i in enumerate(retained, start=1):
            pairs.append((point_cells[i], "1" * (k - 1) + "0"))
        for code, w in zip(old_codes(len(leftover)), leftover):
            pairs.append((w, "1" * n2 + code))
    else:
        for k, i in enumerate(retained, start=1):
            tgt = "1" * (k - 1) + ("0" if k < n2 else "")
            pairs.append((point_cells[i], tgt))
    return tuple(sorted(pairs))


def old_kernel_layout(n, free):
    """kernel_class_power_iso's blocks and value cells for n points and
    `free` free tuples."""
    blocks = [Clopen.make(["1" * (i - 1) + "0"]) for i in range(1, n)]
    rest = Clopen.make(["1" * (n - 1)]) if n else Clopen.all()
    pieces = []
    for _ in range(free if n else free - 1):
        piece, rest = split(rest)
        pieces.append(piece)
    pieces.append(rest)
    if n:
        blocks.append(pieces.pop(0))
    return blocks, pieces


# ---------------------------------------------------------------------------
# branch cells


@pytest.mark.parametrize("n", range(5))
def test_branch_cell_matches_a_brute_decode(n):
    ctx = PointContext(n)
    for length in range(9):
        for w in map("".join, product("01", repeat=length)):
            held = [i for i in range(1, n + 1) if ctx.point(i).startswith(w)]
            cells = [
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, length + 1)
                if w.startswith(ctx.cellword(i, j))
            ]
            if held:
                with pytest.raises(ValueError):
                    ctx.branch_cell(w)
            elif cells:
                assert [ctx.branch_cell(w)] == cells
            else:
                assert w.startswith("1" * n)
                assert ctx.branch_cell(w) is None


# ---------------------------------------------------------------------------
# stage cells


def _filters(n):
    return tuple(i % 2 for i in range(n))  # both idempotents of the reduct


@pytest.mark.parametrize("n", range(13))
def test_stage_cells_match_the_frozen_layout(n):
    ctx = bp.make_context(RED, _filters(n))
    t0 = fr.first_stage_depth(ctx)
    stages = fr.limit_chain(ctx, t0 + 2)
    assert [s.depth for s in stages] == [t0, t0 + 1, t0 + 2]
    for s, stage in enumerate(stages):
        free, pts = old_stage_words(ctx, stage.depth)
        assert stage.free_words == tuple(free)
        cells, blocks = {}, {}
        for w, k in _words(stage.bp.tree, "", []):
            assert (blocks if k < 0 else cells).setdefault(abs(k), w) == w
        assert [cells[k] for k in range(len(free))] == free
        assert [blocks[i] for i in range(1, n + 1)] == pts
        assert len(cells) + len(blocks) == 2**stage.depth
        if s + 1 < len(stages):
            want = old_step_coords(ctx, stage.depth, free, stages[s + 1].free_words)
            assert stage.step.coords == want
        else:
            assert stage.step is None


def test_stage_words_exist_exactly_from_the_first_stage():
    for n in range(13):
        ctx = bp.make_context(RED, _filters(n))
        t0 = fr.first_stage_depth(ctx)
        assert [old_stage_words(ctx, t) is None for t in range(1, t0 + 1)] == [True] * (
            t0 - 1
        ) + [False]


# ---------------------------------------------------------------------------
# the standard prefix code


def _clopens(depth):
    """Every nonempty clopen constant on the level-`depth` cells."""
    cells = ["".join(b) for b in product("01", repeat=depth)]
    for mask in range(1, 1 << len(cells)):
        yield Clopen.make([w for k, w in enumerate(cells) if mask >> k & 1])


def _sample_clopens(depth, count, seed):
    rng = random.Random(seed)
    cells = ["".join(b) for b in product("01", repeat=depth)]
    for _ in range(count):
        words = [w for w in cells if rng.random() < 0.5] or [rng.choice(cells)]
        yield Clopen.make(words)


@pytest.mark.parametrize("n", range(5))
def test_restriction_pairs_match_the_frozen_loops(n):
    ctx = bp.make_context(RED, _filters(n))
    clopens = [*_clopens(1), *_clopens(2), *_clopens(3), *_sample_clopens(4, 300, n)]
    for b in clopens:
        _, rm = bp.restrict(ctx, b)
        assert rm.pairs == old_restrict_pairs(ctx, b), b


@pytest.mark.parametrize("n", range(7))
def test_kernel_layout_is_the_standard_code(n):
    for free in range(12):
        blocks, pieces = old_kernel_layout(n, free)
        codes = bp._codes(n + free)
        assert [b.words for b in blocks] == [(c,) for c in codes[:n]]
        assert [p.words for p in pieces] == [(c,) for c in codes[n:]]
