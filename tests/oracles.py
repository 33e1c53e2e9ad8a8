"""Frozen helpers that more than one test file uses, one copy each: the
flat-word-list overlap test, the pairwise prefix loop of a common
refinement, the branch-index scan of clopen words, the outcome of a call
as a comparable value, a labeled-tiling strategy and the seeded random
algebras.  The first three are oracles and call no library code."""

import random
from itertools import product

from hypothesis import strategies as st

from boolpow import algebra as alg


def prefix_overlap(words) -> bool:
    """Whether one word prefixes another: in sorted order it prefixes the
    next."""
    ordered = sorted(words)
    return any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))


def old_refine(cell_lists):
    """The common refinement of labeled antichains tiling one clopen, by
    the pairwise prefix loop: (word, tuple of labels) cells, sorted."""
    out = [(w, (a,)) for w, a in cell_lists[0]]
    for cells in cell_lists[1:]:
        new = []
        for w, labs in out:
            for w2, a in cells:
                if w2.startswith(w):
                    new.append((w2, labs + (a,)))
                elif w.startswith(w2):
                    new.append((w, labs + (a,)))
        out = new
    return sorted(out)


def old_max_branch_index(ctx, words):
    """The largest j of a cell(i, j) holding one of the words, 0 for none."""
    depth = 0
    for w in words:
        for i in range(1, ctx.n + 1):
            pre = "1" * (i - 1)
            if not w.startswith(pre):
                continue
            rest = w[i - 1:]
            if not rest or rest[0] != "0":
                continue
            if "1" not in rest:
                raise ValueError(f"clopen word {w!r} covers a distinguished point")
            j = 0
            while rest[j] == "0":
                j += 1
            depth = max(depth, j)
    return depth


def outcome(fn, *args):
    """The value of fn(*args), or the type and message it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the exception itself is what is compared
        return (type(exc), str(exc))


@st.composite
def labeled_tiling(draw, prefix, size, depth):
    """(word, label) cells tiling cell(prefix); a subtree may take one label
    throughout, so that equal siblings collapse over several levels."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return [(prefix, draw(st.integers(0, size - 1)))]
    cells = draw(labeled_tiling(prefix + "0", size, depth - 1)) + draw(
        labeled_tiling(prefix + "1", size, depth - 1)
    )
    if draw(st.booleans()):
        a = draw(st.integers(0, size - 1))
        cells = [(w, a) for w, _ in cells]
    return cells


def random_algebra(seed):
    """An algebra of 2 to 6 elements with one to three operations of arity
    0 to 3; each entry of an operation of positive arity is one of its
    arguments with a probability drawn per operation."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    arities = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    signature = [(f"op{k}", r) for k, r in enumerate(arities)]
    tables = []
    for r in arities:
        keep = rng.random()
        tables.append([
            rng.choice(args) if args and rng.random() < keep else rng.randrange(n)
            for args in product(range(n), repeat=r)
        ])
    return alg.make_algebra(n, signature, tables)
