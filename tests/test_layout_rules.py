"""The fixed layouts of the Cantor space that the filtered power is read
through, each pinned against a brute decode or a frozen copy of the code
that first wrote it:

- the branch cells 1^(i-1) 0^j 1 (``PointContext.branch_cell``), against
  ``cellword`` and the points' prefixes;
- the level-t stage cells of the Fraisse chain (``limit_chain``): the
  free cells in order, one block per point at its level-t prefix, and the
  step's coordinates;
- the standard prefix code 0, 10, ..., 1^(m-2) 0, 1^(m-1) that
  ``power.restrict`` rebases a clopen onto (``RestrictionMap.pairs``);
- the block layout of a finite-power embedding's normal form (source
  blocks, then idempotent blocks in the given order), as
  ``normalize_embedding``, ``amalgamate`` and ``jep`` write it, against
  frozen copies of those functions.

A different valid layout would still pass the round-trip tests, so these
compare the layouts themselves.  ``extend_weak_homogeneity``,
``back_and_forth`` and ``kernel_class_power_iso``, which read these
layouts, are compared with the list-of-clopens oracle of
``test_bp_embedding_differential``, built on the normal-form copies here.
"""

import random
from itertools import product

import pytest

from boolpow import algebra as alg
from boolpow import fraisse as fr
from boolpow import power as bp
from boolpow.algebra import _ident, _inv
from boolpow.cantor import Clopen, PointContext, _words
from boolpow.errors import BoolpowError, NotEmbedding, SourceMismatch
from boolpow.fraisse import NormalForm, PowerEmbedding

from test_fraisse import all_normal_embeddings

RED = alg.gf2_idempotent_reduct()
GF2 = alg.gf2_ring()
GF4 = alg.gf4_idempotent_reduct()


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


def old_normalize_embedding(emb, idem_order=None):
    A = emb.algebra
    if idem_order is None:
        idem_order = sorted(alg.idempotents(A))
    p = [0] * emb.u
    q = {e: 0 for e in idem_order}
    for c in emb.coords:
        if c[0] == "aut":
            p[c[2]] += 1
        else:
            if c[1] not in q:
                raise NotEmbedding(f"idempotent {c[1]} outside the block order")
            q[c[1]] += 1
    if any(x == 0 for x in p):
        raise NotEmbedding("some source coordinate is never hit")
    ident = _ident(A.size)
    normal_coords = []
    slots: dict = {}
    for j in range(emb.u):
        slots[("aut", j)] = []
        for _ in range(p[j]):
            slots[("aut", j)].append(len(normal_coords))
            normal_coords.append(("aut", ident, j))
    for e in idem_order:
        slots[("idem", e)] = []
        for _ in range(q[e]):
            slots[("idem", e)].append(len(normal_coords))
            normal_coords.append(("idem", e))
    normal = PowerEmbedding(A, emb.u, tuple(normal_coords))
    used = {k: 0 for k in slots}
    adj_coords = [None] * emb.v
    for i, c in enumerate(emb.coords):
        key = ("aut", c[2]) if c[0] == "aut" else ("idem", c[1])
        pos = slots[key][used[key]]
        used[key] += 1
        delta = c[1] if c[0] == "aut" else ident
        adj_coords[i] = ("aut", delta, pos)
    adjust = PowerEmbedding(A, emb.v, tuple(adj_coords))
    nf = NormalForm(
        tuple(p), tuple((e, q[e]) for e in idem_order), normal, adjust
    )
    if adjust.compose(normal) != emb:
        raise AssertionError("normal form reconstruction failed")
    return nf


def old_invert_adjust(adjust):
    v = adjust.v
    coords = [None] * v
    for i, c in enumerate(adjust.coords):
        _, m, k = c
        coords[k] = ("aut", _inv(m), i)
    return PowerEmbedding(adjust.algebra, v, tuple(coords))


def old_jep(algebra, u, w):
    if u < 1 or w < 1:
        raise SourceMismatch((u, w))
    e = _ident(algebra.size)
    m = u + w
    e1 = PowerEmbedding.make(
        algebra,
        u,
        [("aut", e, j) for j in range(u)]
        + [("idem", min(alg.idempotents(algebra))) for _ in range(w)],
    )
    e2 = PowerEmbedding.make(
        algebra,
        w,
        [("idem", min(alg.idempotents(algebra))) for _ in range(u)]
        + [("aut", e, j) for j in range(w)],
    )
    return m, e1, e2


def old_amalgamate(phi, psi):
    if phi.algebra != psi.algebra or phi.u != psi.u:
        raise SourceMismatch("amalgamation needs a common source")
    A = phi.algebra
    nphi, npsi = old_normalize_embedding(phi), old_normalize_embedding(psi)
    u = phi.u
    idems = [e for e, _ in nphi.q]
    qphi = dict(nphi.q)
    qpsi = dict(npsi.q)
    v_i = [max(nphi.p[j], npsi.p[j]) for j in range(u)]
    w_e = {e: max(qphi[e], qpsi[e]) for e in idems}
    m = sum(v_i) + sum(w_e.values())

    def build(nf):
        ident = _ident(A.size)
        coords = []
        pos = 0
        for j in range(u):
            block = nf.p[j]
            for t in range(block):
                mult = v_i[j] - block + 1 if t == 0 else 1
                coords += [("aut", ident, pos)] * mult
                pos += 1
            assert block >= 1
        for e, block in nf.q:
            if block == 0:
                coords += [("idem", e)] * w_e[e]
                continue
            for t in range(block):
                mult = w_e[e] - block + 1 if t == 0 else 1
                coords += [("aut", ident, pos)] * mult
                pos += 1
        return PowerEmbedding.make(A, nf.normal.v, coords)

    phi2 = build(nphi).compose(old_invert_adjust(nphi.adjust))
    psi2 = build(npsi).compose(old_invert_adjust(npsi.adjust))
    if phi2.compose(phi) != psi2.compose(psi):
        raise AssertionError("amalgamation square does not commute")
    return m, phi2, psi2


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


# ---------------------------------------------------------------------------
# the block layout of finite-power embeddings


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except BoolpowError as exc:
        return (type(exc), str(exc))


def _twisted(e, rng):
    """e with its coordinates shuffled and each automorphism coordinate
    twisted by a drawn automorphism, so that the adjust is not trivial."""
    auts = alg.automorphisms(e.algebra)
    coords = [("aut", rng.choice(auts), c[2]) if c[0] == "aut" else c for c in e.coords]
    rng.shuffle(coords)
    return PowerEmbedding.make(e.algebra, e.u, coords)


def _block_forms():
    """(algebra, u, the block-form embeddings A^u -> A^v) for u <= 2."""
    for algebra, top in ((RED, 4), (GF2, 4), (GF4, 3)):
        for u in (1, 2):
            yield algebra, u, [
                e for v in range(u, top + 1) for e in all_normal_embeddings(algebra, u, v)
            ]


def _orders(algebra):
    idems = sorted(alg.idempotents(algebra))
    return [None, idems, idems[::-1], idems[:1]]


def test_normal_forms_match_the_frozen_layout():
    rng = random.Random(24)
    errors = 0
    for algebra, _, embs in _block_forms():
        for e in embs + [_twisted(e, rng) for e in embs]:
            for order in _orders(algebra):
                new = outcome(fr.normalize_embedding, e, order)
                assert new == outcome(old_normalize_embedding, e, order), (e, order)
                if new[0] == "ok":
                    adjust = new[1].adjust
                    assert fr._invert_adjust(adjust) == old_invert_adjust(adjust)
                else:
                    errors += 1
    assert errors  # the lone first idempotent leaves some outside the order


def test_normal_form_errors_keep_their_order():
    # past make: source 1 is never hit and both idempotents are outside []
    ident = _ident(RED.size)
    e = PowerEmbedding(RED, 2, (("idem", 1), ("aut", ident, 0), ("idem", 0)))
    for order in (None, [], [0], [1], [0, 1]):
        new = outcome(fr.normalize_embedding, e, order)
        assert new[0] is NotEmbedding
        assert new == outcome(old_normalize_embedding, e, order)


def test_amalgams_match_the_frozen_layout():
    rng = random.Random(23)
    for _, _, embs in _block_forms():
        embs = embs + [_twisted(e, rng) for e in embs[1::3]]
        for k, phi in enumerate(embs):
            for psi in embs[k:]:
                assert outcome(fr.amalgamate, phi, psi) == outcome(old_amalgamate, phi, psi)


def test_jep_matches_the_frozen_layout():
    for algebra in (RED, GF2, GF4):
        for u, w in product(range(4), repeat=2):
            assert outcome(fr.jep, algebra, u, w) == outcome(old_jep, algebra, u, w)
