"""Finite algebras as operation tables.

Carriers are index sets 0..n-1 with the canonical order.  Decision
procedures cover the hypotheses used throughout the package: existence of
a ternary operation m with m(x,x,y) = y = m(y,x,x), simplicity,
non-abelianness, plus idempotents, subalgebras, automorphisms, congruence
generation and finite direct powers.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional, Sequence

from .errors import (
    ArityMismatch,
    DegenerateCarrier,
    NoMalcevTerm,
    OutOfRange,
    ParseError,
    SearchBudgetExceeded,
    SizeBudgetExceeded,
)

# A term is ("var", i) or (op_name, (t1, ..., tr)).
Term = tuple


@dataclass(frozen=True)
class FiniteAlgebra:
    size: int
    signature: tuple[tuple[str, int], ...]
    tables: tuple[tuple[int, ...], ...]
    # verified hint set by the builtin constructors; not part of identity
    malcev_hint: Optional[Term] = field(default=None, compare=False, repr=False)

    @property
    def carrier(self) -> range:
        return range(self.size)

    def op_index(self, name: str) -> int:
        for k, (nm, _) in enumerate(self.signature):
            if nm == name:
                return k
        raise KeyError(name)

    def apply(self, k: int, args: Sequence[int]) -> int:
        _, arity = self.signature[k]
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.tables[k][idx]

    def apply_name(self, name: str, *args: int) -> int:
        return self.apply(self.op_index(name), args)


def make_algebra(size, signature, tables, malcev_hint=None) -> FiniteAlgebra:
    """Validate and build an algebra from raw tables.

    Tables are flat row-major: entry for args (a_1,..,a_r) sits at index
    sum a_i * size^(r-1-i).
    """
    if size < 2:
        raise DegenerateCarrier(f"carrier size {size} < 2")
    signature = tuple((str(n), int(r)) for n, r in signature)
    tabs = []
    if len(tables) != len(signature):
        raise ArityMismatch("one table per operation required")
    for (name, arity), table in zip(signature, tables):
        if arity < 0:
            raise ArityMismatch(f"negative arity for {name}")
        expect = size**arity
        table = tuple(int(v) for v in table)
        if len(table) != expect:
            raise ArityMismatch(
                f"table for {name} has {len(table)} entries, expected {expect}"
            )
        for v in table:
            if not 0 <= v < size:
                raise OutOfRange(f"table entry {v} for {name} outside carrier")
        tabs.append(table)
    alg = FiniteAlgebra(size, signature, tuple(tabs), malcev_hint)
    if malcev_hint is not None and not _is_malcev_witness(alg, malcev_hint):
        raise OutOfRange("supplied Mal'cev hint fails its defining identities")
    return alg


def from_json(text: str, source: str = "algebra JSON") -> FiniteAlgebra:
    """Parse the algebra JSON schema; malformed input raises ParseError
    naming the source and the missing or ill-typed field."""
    try:
        data = json.loads(text)
        sig = [(o["name"], o["arity"]) for o in data["ops"]]
        tables = [o["table"] for o in data["ops"]]
        return make_algebra(data["carrier"], sig, tables)
    except (ValueError, KeyError, TypeError) as e:
        raise ParseError(f"{source}: {type(e).__name__}: {e}") from e


# ---------------------------------------------------------------------------
# built-in algebras


def _table(size, arity, fn):
    return tuple(fn(*args) for args in product(range(size), repeat=arity))


def gf2_ring() -> FiniteAlgebra:
    return make_algebra(
        2,
        [("add", 2), ("neg", 1), ("mul", 2), ("zero", 0)],
        [
            _table(2, 2, lambda x, y: (x + y) % 2),
            _table(2, 1, lambda x: x),
            _table(2, 2, lambda x, y: x * y),
            (0,),
        ],
        malcev_hint=("add", (("add", (("var", 0), ("var", 1))), ("var", 2))),
    )


def gf2_idempotent_reduct() -> FiniteAlgebra:
    """(Z2, x-y+z, *): the idempotent reduct of the two-element field."""
    return make_algebra(
        2,
        [("mal", 3), ("mul", 2)],
        [
            _table(2, 3, lambda x, y, z: (x + y + z) % 2),
            _table(2, 2, lambda x, y: x * y),
        ],
        malcev_hint=("mal", (("var", 0), ("var", 1), ("var", 2))),
    )


_GF4_MUL = {
    # 0, 1, w, w+1 encoded as 0..3; multiplication in GF(4)
    (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
    (1, 0): 0, (1, 1): 1, (1, 2): 2, (1, 3): 3,
    (2, 0): 0, (2, 1): 2, (2, 2): 3, (2, 3): 1,
    (3, 0): 0, (3, 1): 3, (3, 2): 1, (3, 3): 2,
}


def gf4_idempotent_reduct() -> FiniteAlgebra:
    """(GF(4), x-y+z, *); addition is XOR of the 2-bit encodings."""
    return make_algebra(
        4,
        [("mal", 3), ("mul", 2)],
        [
            _table(4, 3, lambda x, y, z: x ^ y ^ z),
            _table(4, 2, lambda x, y: _GF4_MUL[(x, y)]),
        ],
        malcev_hint=("mal", (("var", 0), ("var", 1), ("var", 2))),
    )


def cyclic_group(k: int) -> FiniteAlgebra:
    return make_algebra(
        k,
        [("mul", 2), ("inv", 1), ("e", 0)],
        [
            _table(k, 2, lambda x, y: (x + y) % k),
            _table(k, 1, lambda x: (-x) % k),
            (0,),
        ],
        malcev_hint=(
            "mul",
            (("var", 0), ("mul", (("inv", (("var", 1),)), ("var", 2)))),
        ),
    )


def zero_ring(k: int) -> FiniteAlgebra:
    return make_algebra(
        k,
        [("add", 2), ("neg", 1), ("mul", 2), ("zero", 0)],
        [
            _table(k, 2, lambda x, y: (x + y) % k),
            _table(k, 1, lambda x: (-x) % k),
            _table(k, 2, lambda x, y: 0),
            (0,),
        ],
        malcev_hint=(
            "add",
            (("add", (("var", 0), ("neg", (("var", 1),)))), ("var", 2)),
        ),
    )


BUILTINS = {
    "gf2-ring": gf2_ring,
    "gf2-idempotent-reduct": gf2_idempotent_reduct,
    "gf4-idempotent-reduct": gf4_idempotent_reduct,
}


PARAMETERIZED = {"cyclic-group": cyclic_group, "zero-ring": zero_ring}

# the largest carrier of a parameterized builtin: its binary tables, with
# size^2 entries, are built before any budget is checked
MAX_BUILTIN_SIZE = 256


def builtin(name: str) -> FiniteAlgebra:
    if name in BUILTINS:
        return BUILTINS[name]()
    parts = name.split()
    if len(parts) == 2 and parts[0] in PARAMETERIZED:
        k = int(parts[1])
        if k > MAX_BUILTIN_SIZE:
            raise ValueError(f"size {k} is over the ceiling {MAX_BUILTIN_SIZE}")
        return PARAMETERIZED[parts[0]](k)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# terms


def eval_term(alg: FiniteAlgebra, term: Term, args: Sequence[int]) -> int:
    head = term[0]
    if head == "var":
        return args[term[1]]
    k = alg.op_index(head)
    return alg.apply(k, [eval_term(alg, t, args) for t in term[1]])


def _is_malcev_witness(alg, term) -> bool:
    for x in alg.carrier:
        for y in alg.carrier:
            if eval_term(alg, term, (x, x, y)) != y:
                return False
            if eval_term(alg, term, (y, x, x)) != y:
                return False
    return True


def find_malcev_term(alg: FiniteAlgebra, budget: int = 200_000) -> Optional[Term]:
    """Search for a ternary term t with t(x,x,y) = y = t(y,x,x).

    Runs breadth-first closure of the three projections under pointwise
    application of the basic operations, restricted to the argument tuples
    (x,x,y) and (y,x,x).  Returns None when the closure completes without
    a witness; raises SearchBudgetExceeded before it would visit more
    than `budget` vectors.
    """
    if alg.malcev_hint is not None and _is_malcev_witness(alg, alg.malcev_hint):
        return alg.malcev_hint
    dom = []
    seen_args = set()
    for x in alg.carrier:
        for y in alg.carrier:
            for t in ((x, x, y), (y, x, x)):
                if t not in seen_args:
                    seen_args.add(t)
                    dom.append(t)
    goal = tuple(
        (t[2] if t[0] == t[1] else t[0]) for t in dom
    )  # value y on both (x,x,y) and (y,x,x)
    start = [
        (tuple(t[i] for t in dom), ("var", i)) for i in range(3)
    ]
    visited = {v: term for v, term in start}
    queue = deque(visited.keys())
    if goal in visited:
        return visited[goal]

    def admit(vec, term):
        # checked per vector: one dequeued vector meets the whole pool
        if len(visited) >= budget:
            raise SearchBudgetExceeded(f"Mal'cev search passed {budget} vectors")
        visited[vec] = term
        queue.append(vec)

    while queue:
        base = queue.popleft()
        base_term = visited[base]
        # combine the dequeued vector with all visited ones, per operation
        for k, (name, arity) in enumerate(alg.signature):
            if arity == 0:
                vec = tuple(alg.tables[k][0] for _ in dom)
                if vec not in visited:
                    admit(vec, (name, ()))
                continue
            pool = list(visited.items())
            for pos in range(arity):
                for others in product(pool, repeat=arity - 1):
                    combo = others[:pos] + ((base, base_term),) + others[pos:]
                    vec = tuple(
                        alg.apply(k, [c[0][i] for c in combo])
                        for i in range(len(dom))
                    )
                    if vec not in visited:
                        admit(vec, (name, tuple(c[1] for c in combo)))
                        if vec == goal:
                            return visited[vec]
    return visited.get(goal)


# ---------------------------------------------------------------------------
# congruences


@dataclass(frozen=True)
class AlgCongruence:
    """Partition of the carrier, compatible with every operation."""

    size: int
    block_index: tuple[int, ...]

    @staticmethod
    def from_blocks(size: int, blocks: Iterable[Iterable[int]]) -> "AlgCongruence":
        idx = [-1] * size
        canon = {}
        for bl in blocks:
            rep = min(bl)
            for a in bl:
                canon[a] = rep
        reps = sorted(set(canon.values()))
        remap = {r: i for i, r in enumerate(reps)}
        for a in range(size):
            idx[a] = remap[canon[a]]
        return AlgCongruence(size, tuple(idx))

    def blocks(self) -> list[frozenset[int]]:
        out: dict[int, set[int]] = {}
        for a, i in enumerate(self.block_index):
            out.setdefault(i, set()).add(a)
        return [frozenset(out[i]) for i in sorted(out)]

    def related(self, a: int, b: int) -> bool:
        return self.block_index[a] == self.block_index[b]

    def is_full(self) -> bool:
        return len(set(self.block_index)) == 1

    def is_identity(self) -> bool:
        return len(set(self.block_index)) == self.size


def congruence_generated(alg: FiniteAlgebra, pairs) -> AlgCongruence:
    """Smallest congruence containing the given pairs.

    Worklist closure under one-argument substitutions into the basic
    operations; transitivity is carried by union-find.
    """
    parent = list(alg.carrier)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    work = []

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            work.append((a, b))

    for a, b in pairs:
        union(a, b)
    while work:
        a, b = work.pop()
        for k, (_, arity) in enumerate(alg.signature):
            if arity == 0:
                continue
            for pos in range(arity):
                for rest in product(alg.carrier, repeat=arity - 1):
                    u = rest[:pos] + (a,) + rest[pos:]
                    v = rest[:pos] + (b,) + rest[pos:]
                    union(alg.apply(k, u), alg.apply(k, v))
    blocks: dict[int, set[int]] = {}
    for a in alg.carrier:
        blocks.setdefault(find(a), set()).add(a)
    return AlgCongruence.from_blocks(alg.size, blocks.values())


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> AlgCongruence:
    if not (0 <= a < alg.size and 0 <= b < alg.size):
        raise OutOfRange((a, b))
    return congruence_generated(alg, [(a, b)])


def is_simple(alg: FiniteAlgebra) -> bool:
    for a in alg.carrier:
        for b in range(a + 1, alg.size):
            if not principal_congruence(alg, a, b).is_full():
                return False
    return True


def all_congruences(alg: FiniteAlgebra) -> list[AlgCongruence]:
    """Exhaustive congruence enumeration; oracle for small carriers."""
    if alg.size > 7:
        raise SizeBudgetExceeded("congruence enumeration limited to size 7")
    out = []
    for part in _set_partitions(list(alg.carrier)):
        cong = AlgCongruence.from_blocks(alg.size, part)
        if _is_compatible(alg, cong):
            out.append(cong)
    return out


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _is_compatible(alg, cong) -> bool:
    for k, (_, arity) in enumerate(alg.signature):
        if arity == 0:
            continue
        for u in product(alg.carrier, repeat=arity):
            for pos in range(arity):
                for b in alg.carrier:
                    if cong.related(u[pos], b):
                        v = u[:pos] + (b,) + u[pos + 1 :]
                        if not cong.related(alg.apply(k, u), alg.apply(k, v)):
                            return False
    return True


# ---------------------------------------------------------------------------
# idempotents, subalgebras, automorphisms


def idempotents(alg: FiniteAlgebra) -> frozenset[int]:
    out = set()
    for e in alg.carrier:
        if all(
            alg.apply(k, (e,) * arity) == e
            for k, (_, arity) in enumerate(alg.signature)
        ):
            out.add(e)
    return frozenset(out)


def subalgebra_generated(alg: FiniteAlgebra, gens: Iterable[int]) -> frozenset[int]:
    """The subuniverse of A generated by gens and the constants: the
    closure of their one-coordinate vectors."""
    closed = pointwise_closure(alg, 1, [(g,) for g in gens], alg.size)
    return frozenset(v for v, in closed)


# Pointwise evaluations (argument tuples times vector length) one closure
# may make.  free-algebra rank 3 on gf2-idempotent-reduct, the largest
# closure in the goldens, makes 266,240 * 8 = 2,129,920.
CLOSURE_EVALS = 1 << 23
# Generator closures one subalgebra enumeration may take above size 8,
# nodes one automorphism search may visit, and entries one operation table
# of a direct power may have.
SUBALGEBRA_CLOSURES = 1 << 16
AUTOMORPHISM_NODES = 1 << 20
POWER_TABLE_ENTRIES = 2_000_000


def pointwise_closure(alg: FiniteAlgebra, length: int, gens, budget: int) -> dict:
    """Subuniverse of A^L, L = `length`, generated by the vectors `gens`
    (tuples of length L) and the constants under the pointwise basic
    operations.

    Returns a dict from each member, in discovery order, to how it was
    first produced: None for a generator, (k, args) for operation k applied
    to the members args (() for a constant).  No generators give the
    constants' subuniverse, which is {} when A has no constant.
    Semi-naive: when member i leaves the FIFO frontier, each operand
    position pos takes it in turn, with the positions before pos drawing
    from members 0..i-1 and those after from members 0..i, so every
    ordered argument tuple is evaluated exactly once: by the end of
    member i's round an operation of arity a has evaluated (i + 1)^a
    tuples, each at every coordinate.  Raises SizeBudgetExceeded exactly
    when the closure has more than `budget` members, or before a round
    that would take these pointwise evaluations past CLOSURE_EVALS.

    A vector is packed in one int, a lane of bytes per coordinate wide
    enough for every table index, so Horner's rule on the ints computes
    the table offsets at every coordinate without carries.  With one-byte
    lanes (every table at most 256 entries) one bytes.translate reads a
    table at every coordinate; wider lanes are read one at a time.
    """
    size = alg.size
    top = max([size, *map(len, alg.tables)])
    fmt = next(f for f in "BHIQ" if 256 ** array(f).itemsize >= top)
    order = sys.byteorder
    index: dict = {}  # member as lane bytes -> its discovery index
    vals: list = []  # members as ints
    records: list = []  # None, or (k, discovery indices of the arguments)

    def pack(vec):
        return array(fmt, vec).tobytes()

    def lanes(n):
        return array(fmt, n.to_bytes(nbytes, order))

    def admit(key, record):
        if len(index) >= budget:
            raise SizeBudgetExceeded(f"closure passed {budget} members")
        index[key] = len(index)
        vals.append(int.from_bytes(key, order))
        records.append(record)

    nbytes = length * array(fmt).itemsize
    for g in gens:
        if (g := pack(g)) not in index:
            admit(g, None)
    for k, (_, arity) in enumerate(alg.signature):
        if arity == 0 and (c := pack([alg.tables[k][0]] * length)) not in index:
            admit(c, (k, ()))

    if fmt == "B":
        tabs = [bytes(t).ljust(256, b"\0") for t in alg.tables]

        def read(tab, off, xs):
            return [(off + x).to_bytes(nbytes, order).translate(tab) for x in xs]

    else:
        tabs = [t.__getitem__ for t in alg.tables]

        def read(get, off, xs):
            return [pack(map(get, lanes(off + x))) for x in xs]

    def walk(k, pools, off, args, tail):
        # off packs the table offsets of the operands fixed so far; the
        # last pool is read as one vector, after a fixed last operand (the
        # frontier member, in tail) is folded into the offsets
        lo, hi = pools[len(args)]
        xs = vals[lo:hi]
        if len(args) + 1 < len(pools):
            for j, x in enumerate(xs, lo):
                walk(k, pools, (off + x) * size, args + (j,), tail)
            return
        if tail:
            off = off * size + vals[tail[0]]
            xs = [x * size for x in xs]
        for j, v in enumerate(read(tabs[k], off, xs), lo):
            if v not in index:
                admit(v, (k, args + (j,) + tail))

    ops = [(k, arity) for k, (_, arity) in enumerate(alg.signature) if arity]
    for i, _ in enumerate(vals):  # vals grows as the frontier
        if sum((i + 1) ** arity for _, arity in ops) * length > CLOSURE_EVALS:
            raise SizeBudgetExceeded(
                f"closure passed {CLOSURE_EVALS} pointwise evaluations"
            )
        for k, arity in ops:
            for pos in range(arity):
                pools = [(0, i)] * pos + [(i, i + 1)] + [(0, i + 1)] * (arity - 1 - pos)
                if 0 < pos == arity - 1:  # read the operand before member i
                    walk(k, pools[:-1], 0, (), (i,))
                else:
                    walk(k, pools, 0, (), ())
    members = [tuple(lanes(v)) for v in vals]
    return {
        m: None if r is None else (r[0], tuple(members[j] for j in r[1]))
        for m, r in zip(members, records)
    }


def subalgebras(alg: FiniteAlgebra) -> list[frozenset[int]]:
    """All nonempty closed subsets: each is the closure of a smaller one
    plus one element, so closing every found one with each element finds
    them all."""
    found: set[frozenset[int]] = set()
    count = 0
    frontier = [frozenset()]
    for sub in frontier:
        for a in alg.carrier:
            cl = subalgebra_generated(alg, set(sub) | {a})
            count += 1
            if count > SUBALGEBRA_CLOSURES:
                raise SearchBudgetExceeded("subalgebra enumeration budget")
            if cl not in found:
                found.add(cl)
                frontier.append(cl)
    return sorted((s for s in found if s), key=lambda s: (len(s), sorted(s)))


# an automorphism, or any self-map of a carrier, as the tuple of its values
Mapping = tuple[int, ...]


def _ident(size: int) -> Mapping:
    """The identity map of a carrier of this size, as a mapping tuple."""
    return tuple(range(size))


def _comp(m1: Mapping, m2: Mapping) -> Mapping:
    """The mapping tuple of m1 after m2."""
    return tuple(m1[m2[a]] for a in range(len(m1)))


def _inv(m: Mapping) -> Mapping:
    """The mapping tuple of the inverse of a bijection m."""
    out = [0] * len(m)
    for a, b in enumerate(m):
        out[b] = a
    return tuple(out)


def automorphisms(alg: FiniteAlgebra) -> list[Mapping]:
    """All bijective operation-preserving maps, as mapping tuples, by
    pruned backtracking."""
    n = alg.size
    out = []
    nodes = 0

    def consistent(partial):
        # every fully-mapped argument tuple must map consistently
        dom = [a for a in range(n) if partial[a] is not None]
        domset = set(dom)
        for k, (_, arity) in enumerate(alg.signature):
            for args in product(dom, repeat=arity):
                v = alg.apply(k, args)
                if v in domset:
                    img = alg.apply(k, [partial[a] for a in args])
                    if partial[v] != img:
                        return False
        return True

    def backtrack(partial, used, a):
        nonlocal nodes
        nodes += 1
        if nodes > AUTOMORPHISM_NODES:
            raise SearchBudgetExceeded("automorphism search budget")
        if a == n:
            out.append(tuple(partial))
            return
        for b in range(n):
            if b in used:
                continue
            partial[a] = b
            used.add(b)
            if consistent(partial):
                backtrack(partial, used, a + 1)
            partial[a] = None
            used.discard(b)

    backtrack([None] * n, set(), 0)
    return out


# ---------------------------------------------------------------------------
# abelianness and direct powers


def is_abelian(alg: FiniteAlgebra, term: Optional[Term]) -> bool:
    """Diagonal-block criterion on the square of the algebra.

    True iff {(a,a)} is a block of the congruence of alg^2 generated by
    all pairs ((a,a),(b,b)); valid in the presence of a ternary operation
    m with m(x,x,y) = y = m(y,x,x).  `term` is such an m, as
    find_malcev_term returns it; it is checked first, without a search.
    """
    if term is None or not _is_malcev_witness(alg, term):
        raise NoMalcevTerm("abelianness test needs m(x,x,y)=y=m(y,x,x)")
    sq = direct_power(alg, 2)
    n = alg.size
    diag = [a * n + a for a in alg.carrier]
    pairs = [(diag[0], d) for d in diag[1:]]
    cong = congruence_generated(sq, pairs)
    block = {x for x in sq.carrier if cong.related(x, diag[0])}
    return block == set(diag)


def direct_power(alg: FiniteAlgebra, k: int) -> FiniteAlgebra:
    if k < 1:
        raise OutOfRange("power exponent must be >= 1")
    size = alg.size**k
    for _, arity in alg.signature:
        if size**arity > POWER_TABLE_ENTRIES:
            raise SizeBudgetExceeded(f"table of size {size ** arity}")
    return tuple_algebra(alg, list(product(alg.carrier, repeat=k)))


def tuple_algebra(alg: FiniteAlgebra, tuples: Sequence[tuple]) -> FiniteAlgebra:
    """The algebra on a nonempty list of equal-length tuples closed under
    the pointwise basic operations of alg: element i is tuples[i]."""
    index = {t: i for i, t in enumerate(tuples)}
    coords = range(len(tuples[0]))
    tables = tuple(
        tuple(
            index[tuple(alg.apply(k, [c[i] for c in combo]) for i in coords)]
            for combo in product(tuples, repeat=arity)
        )
        for k, (_, arity) in enumerate(alg.signature)
    )
    return FiniteAlgebra(len(tuples), alg.signature, tables)
