"""Differential test of the one-pass ``PowerElement.make`` against the
make it replaced, kept here as the oracle: a ``Clopen`` tree rebuilt from
the cell words and compared with the support, ``prefix_overlap`` and
the bottom-up dict merge of sibling cells, and a bit-by-bit value lookup
at each point.

Inputs are labeled prefix antichains tiling all of X or a random support,
on gf2-ring (filter 0) and gf4-idempotent-reduct (filters 0, 1), as given
or with one defect: an overlap, a duplicate word, a gap, a cell outside
the support, a character other than 0/1, a label outside the carrier or a
wrong label at a retained point.  Each input is made cold, with the shape
memo behind ``cantor.shape`` emptied, then warm, on its own support and
then on the other one (X, or {"0", "11"} for an input on X), so that a
shape kept for one support meets a list on the other; both makes must
return the same cells or raise the same exception type with the same
message.  The messages ``AutLabeling.make`` passes to ``cantor.build``
are compared in ``test_tail_differential``.

The same oracle, after the quadratic common refinement of the cell lists
(``oracles.old_refine``), checks ``refine`` and every basic operation
through ``apply_operation`` on valid elements of one common support.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolpow import algebra as alg
from boolpow import cantor
from boolpow import power as bp
from boolpow.cantor import Clopen, point_in
from boolpow.errors import FilterViolation

from oracles import labeled_tiling, old_refine, outcome, prefix_overlap

CTXS = {
    "gf2": bp.make_context(alg.gf2_ring(), (0,)),
    "gf4": bp.make_context(alg.gf4_idempotent_reduct(), (0, 1)),
}
SUPPORTS = {"X": Clopen.all(), "0|11": Clopen.make(["0", "11"])}

DEFECTS = ("none", "overlap", "duplicate", "gap", "outside", "char", "label", "point")

# ---------------------------------------------------------------------------
# oracle: the make of the tree-backed Clopen


def old_merge(cells):
    """Sibling cells p0, p1 of equal label merged into p, bottom-up."""
    cur = dict(cells)
    by_len = {}
    for w in cur:
        by_len.setdefault(len(w), []).append(w)
    for n in range(max(by_len, default=0), 0, -1):
        for w in by_len.get(n, ()):
            sib = w[:-1] + "1"
            if w[-1] == "0" and sib in cur and cur[w] == cur[sib]:
                label = cur[w]
                del cur[w], cur[sib]
                cur[w[:-1]] = label
                by_len.setdefault(n - 1, []).append(w[:-1])
    return tuple(sorted(cur.items()))


def old_make(ctx, cells, support=None):
    support = Clopen.all() if support is None else support
    cells = [(str(w), int(a)) for w, a in cells]
    for _, a in cells:
        if a not in range(ctx.algebra.size):
            raise FilterViolation(f"label {a} outside carrier")
    words = [w for w, _ in cells]
    if prefix_overlap(words):
        raise ValueError("overlapping cells")
    if Clopen.make(words) != support:
        raise ValueError("cells do not tile the support")
    cells = old_merge(cells)
    for i in range(1, ctx.points.n + 1):
        x = ctx.points.point(i)
        if point_in(x, support):
            value = next(
                a for w, a in cells if all(x.at(j + 1) == c for j, c in enumerate(w))
            )
            if value != ctx.filters[i - 1]:
                raise FilterViolation(
                    f"value at point {i} must be {ctx.filters[i - 1]}"
                )
    return cells


# ---------------------------------------------------------------------------
# strategies


@st.composite
def element_inputs(draw):
    ctx = CTXS[draw(st.sampled_from(sorted(CTXS)))]
    size = ctx.algebra.size
    if draw(st.booleans()):
        support = Clopen.all()
    else:
        support = Clopen.make(
            draw(st.lists(st.text(alphabet="01", max_size=3), max_size=4))
        )
    cells = []
    for u in support.words:
        cells += draw(labeled_tiling(u, size, 4 - len(u)))
    # the filter value at each retained point, so that most inputs are valid
    for i in range(1, ctx.n + 1):
        x = ctx.points.point(i)
        for k, (w, a) in enumerate(cells):
            if x.startswith(w):
                cells[k] = (w, ctx.filters[i - 1])
    defect = draw(st.sampled_from(DEFECTS))
    cells = perturb(draw, ctx, cells, support, defect)
    order = draw(st.permutations(range(len(cells))))
    return ctx, [cells[k] for k in order], support


def perturb(draw, ctx, cells, support, defect):
    size = ctx.algebra.size
    pick = (lambda: draw(st.integers(0, len(cells) - 1))) if cells else None
    if defect == "overlap" and cells:
        k = pick()
        w, a = cells[k]
        other = w + draw(st.sampled_from(["0", "1", "01"]))
        if w and draw(st.booleans()):
            other = w[: draw(st.integers(0, len(w) - 1))]
        cells.append((other, a))
    elif defect == "duplicate" and cells:
        w, a = cells[pick()]
        cells.append((w, draw(st.integers(0, size - 1))))
    elif defect == "gap" and cells:
        del cells[pick()]
    elif defect == "outside":
        rest = support.complement().words
        if rest:
            u = draw(st.sampled_from(rest))
            if cells:
                # keep the measure where the lengths allow it
                k = pick()
                w, a = cells[k]
                u += "0" * max(0, len(w) - len(u))
                cells[k] = (u, a)
            else:
                cells.append((u, 0))
    elif defect == "char" and cells:
        k = pick()
        w, a = cells[k]
        j = draw(st.integers(0, len(w)))
        bad = draw(st.sampled_from(["2", "a", " ", "x0"]))
        cells[k] = (w[:j] + bad + w[j + 1 :], a)
    elif defect == "label" and cells:
        k = pick()
        cells[k] = (cells[k][0], draw(st.sampled_from([-1, size, size + 3])))
    elif defect == "point":
        for i in range(1, ctx.n + 1):
            x = ctx.points.point(i)
            for k, (w, a) in enumerate(cells):
                if x.startswith(w):
                    wrong = draw(st.integers(1, size - 1))
                    cells[k] = (w, (ctx.filters[i - 1] + wrong) % size)
    return cells


@st.composite
def valid_cells(draw, ctx, support):
    """Cells of depth up to 4 tiling the support, a cell holding points
    cut until their filters agree and labeled by them."""
    marked = list(zip(ctx.points.points(), ctx.filters))

    def cut(w):
        held = {e for x, e in marked if x.startswith(w)}
        if len(held) > 1 or (len(w) < 4 and draw(st.integers(0, 2)) > 0):
            return cut(w + "0") + cut(w + "1")
        return [(w, held.pop() if held else draw(st.integers(0, ctx.algebra.size - 1)))]

    return [c for u in support.words for c in cut(u)]


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=600, deadline=None)
@given(element_inputs())
def test_make_matches_oracle(args):
    ctx, cells, support = args
    other = SUPPORTS["0|11"] if support.is_all() else SUPPORTS["X"]
    cantor._kept_shape.cache_clear()
    for s in (support, other):
        want = outcome(old_make, ctx, cells, s)
        for _ in ("cold", "warm"):  # a kept shape must not pass a defect
            got = outcome(bp.PowerElement.make, ctx, cells, s)
            if got[0] == "ok":
                el = got[1]
                assert el.support == s
                got = ("ok", el.cells)
            assert got == want


@settings(max_examples=200, deadline=None)
@given(element_inputs())
def test_fiber_matches_union_of_cells(args):
    ctx, cells, support = args
    try:
        el = bp.PowerElement.make(ctx, cells, support)
    except (ValueError, FilterViolation):
        return
    for a in range(ctx.algebra.size):
        want = Clopen.empty()
        for w, b in el.cells:
            if b == a:
                want = want.union(Clopen.make([w]))
        assert el.fiber(a) == want


@pytest.mark.parametrize(
    "cells, support, error",
    [
        # disjoint, the support's measure, but outside it
        ([("1", 1)], ["0"], "cells do not tile the support"),
        ([("00", 0), ("11", 1)], ["0"], "cells do not tile the support"),
        # a cell that is the whole of a shorter support word plus a gap
        ([("0", 0)], ["0", "11"], "cells do not tile the support"),
        ([], [], None),
        ([("0", 0), ("1", 2)], None, "label 2 outside carrier"),
        ([("0", 0), ("0", 1)], None, "overlapping cells"),
        ([("0", 0), ("12", 1)], None, "bad word '12'"),
        ([("0", 1), ("1", 1)], None, "value at point 1 must be 0"),
        # the last cell completes 11, then 1, then the whole space
        ([("0", 0), ("10", 0), ("110", 0), ("111", 0)], None, None),
    ],
)
def test_make_edge_cases(cells, support, error):
    ctx = CTXS["gf2"]
    support = None if support is None else Clopen.make(support)
    want = outcome(old_make, ctx, cells, support)
    got = outcome(bp.PowerElement.make, ctx, cells, support)
    if got[0] == "ok":
        got = ("ok", got[1].cells)
    assert got == want
    if error is not None:
        assert got[1] == error


@pytest.mark.parametrize(
    "first,second,error",
    [
        # the same words on a support they do not tile
        ((["0", "1"], [0, 1], "X"), (["0", "1"], [0, 1], "0|11"), ValueError),
        # the same words with a wrong value at point 2, x_2 = 10^w
        ((["0", "1"], [0, 1], "X"), (["0", "1"], [0, 0], "X"), FilterViolation),
        # the same words, a label outside the carrier
        ((["0", "1"], [0, 1], "X"), (["0", "1"], [0, 4], "X"), FilterViolation),
    ],
)
def test_cached_shape_does_not_pass_a_defect(first, second, error):
    ctx = CTXS["gf4"]
    cantor._kept_shape.cache_clear()
    (w1, a1, s1), (w2, a2, s2) = first, second
    cells = bp.PowerElement.make(ctx, list(zip(w1, a1)), SUPPORTS[s1]).cells
    assert cells == old_make(ctx, list(zip(w1, a1)), SUPPORTS[s1])
    want = outcome(old_make, ctx, list(zip(w2, a2)), SUPPORTS[s2])
    assert want[0] is error
    for _ in range(2):
        with pytest.raises(error, match=f"^{re.escape(want[1])}$"):
            bp.PowerElement.make(ctx, list(zip(w2, a2)), SUPPORTS[s2])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_operation_and_refine_match_oracle(data):
    ctx = CTXS[data.draw(st.sampled_from(sorted(CTXS)))]
    support = Clopen.all()
    if data.draw(st.booleans()):
        words = data.draw(st.lists(st.text(alphabet="01", max_size=3), max_size=4))
        support = Clopen.make(words)
    A = ctx.algebra
    for k, (op, arity) in enumerate(A.signature):
        if arity == 0:
            continue
        cell_lists = [data.draw(valid_cells(ctx, support)) for _ in range(arity)]
        elems = [bp.PowerElement.make(ctx, cells, support) for cells in cell_lists]
        refined = old_refine([old_make(ctx, cells, support) for cells in cell_lists])
        assert bp.refine(elems) == refined
        out = bp.apply_operation(op, elems)
        want = old_make(ctx, [(w, A.apply(k, labs)) for w, labs in refined], support)
        assert (out.cells, out.support) == (want, support)
