"""Finite-rank free algebras in the variety generated by the base
algebra: term clones with witness terms, automorphism-orbit transversals,
the tuples generating proper subalgebras, the rank decomposition into a
full power times the free algebra of the subvariety, quotient classes of
the restriction kernel, and the loop/ring split at finite rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from . import algebra as alg
from .algebra import FiniteAlgebra, Term, _ident
from .cantor import Clopen
from .errors import (
    NotIdempotentOnSk,
    NotLoopOrRing,
    PatternMismatch,
    SizeBudgetExceeded,
)
from .fraisse import BPEmbedding
from .power import _codes, apply_operation, make_context


@dataclass(frozen=True)
class TermFunction:
    """k-ary term operation as a value table over A^k in lex order."""

    arity: int
    table: tuple[int, ...]
    witness: Optional[Term] = None

    def __eq__(self, other):
        return (
            isinstance(other, TermFunction)
            and self.arity == other.arity
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.arity, self.table))

    def value(self, args: Sequence[int], size: int) -> int:
        idx = 0
        for a in args:
            idx = idx * size + a
        return self.table[idx]


@dataclass(frozen=True)
class FreeAlgebraRep:
    """The free algebra of rank k: all k-ary term operations."""

    algebra: FiniteAlgebra
    rank: int
    elements: tuple[TermFunction, ...]
    generators: tuple[TermFunction, ...]

    def tables(self) -> set[tuple[int, ...]]:
        return {f.table for f in self.elements}


def clone_generate(
    algebra: FiniteAlgebra, k: int, budget: int = 100_000
) -> FreeAlgebraRep:
    """Closure of the projections under the pointwise basic operations
    (one semi-naive algebra.pointwise_closure), with witness terms.

    The closure's evaluation budget is checked before the |A|^k-long
    projections are built.  With |A| >= 2 they are k distinct members, so
    the closure reaches member k-1's round, of sum_ops k^arity tuples at
    |A|^k coordinates each, unless its member budget stops it first; it
    cannot when the projections, the constants and one member per tuple
    of the earlier rounds fit in the budget."""
    arities = [arity for _, arity in algebra.signature if arity]
    if (
        algebra.size >= 2
        and k + len(algebra.signature) + sum((k - 1) ** a for a in arities) <= budget
        and sum(k**a for a in arities) * algebra.size**k > alg.CLOSURE_EVALS
    ):
        raise SizeBudgetExceeded(
            f"closure passed {alg.CLOSURE_EVALS} pointwise evaluations"
        )
    tuples = list(product(range(algebra.size), repeat=k))
    projections = [tuple(t[j] for t in tuples) for j in range(k)]
    found = alg.pointwise_closure(algebra, projections, budget)
    witness = {p: ("var", j) for j, p in enumerate(projections)}
    for vec, record in found.items():
        if record is not None:
            opk, args = record
            name = algebra.signature[opk][0]
            witness[vec] = (name, tuple(witness[a] for a in args))
    elements = tuple(
        sorted(
            (TermFunction(k, t, witness[t]) for t in found),
            key=lambda f: f.table,
        )
    )
    gens = tuple(TermFunction(k, p, witness[p]) for p in projections)
    return FreeAlgebraRep(algebra, k, elements, gens)


def witness_terms_check(rep: FreeAlgebraRep) -> bool:
    tuples = list(product(range(rep.algebra.size), repeat=rep.rank))
    for f in rep.elements:
        for t, want in zip(tuples, f.table):
            if alg.eval_term(rep.algebra, f.witness, t) != want:
                return False
    return True


# ---------------------------------------------------------------------------
# orbit transversals and generating-deficient tuples


def orbit_transversal(algebra: FiniteAlgebra, k: int) -> list[tuple[int, ...]]:
    """Lexicographically minimal representative of every coordinatewise
    automorphism orbit on A^k, in lexicographic order."""
    auts = alg.automorphisms(algebra)
    out = []
    for t in product(range(algebra.size), repeat=k):
        rep = min(tuple(m[x] for x in t) for m in auts)
        if rep == t:
            out.append(t)
    return out


def proper_tuples(algebra: FiniteAlgebra, k: int) -> list[tuple[int, ...]]:
    """Transversal members whose entries generate a proper subalgebra."""
    full = set(algebra.carrier)
    return [
        t
        for t in orbit_transversal(algebra, k)
        if set(alg.subalgebra_generated(algebra, set(t))) != full
    ]


def _restrict_vector(f: TermFunction, size: int, domain) -> tuple[int, ...]:
    return tuple(f.value(t, size) for t in domain)


def kernel_class(
    rep: FreeAlgebraRep,
    e: TermFunction,
    sk: Optional[Sequence[tuple[int, ...]]] = None,
) -> list[TermFunction]:
    """All term functions agreeing with e on the generating-deficient
    transversal tuples sk (proper_tuples at the rank of rep when None); e
    must take idempotent values there."""
    A = rep.algebra
    sk = proper_tuples(A, rep.rank) if sk is None else sk
    idems = alg.idempotents(A)
    for t in sk:
        if e.value(t, A.size) not in idems:
            raise NotIdempotentOnSk((t, e.value(t, A.size)))
    evec = _restrict_vector(e, A.size, sk)
    return [
        f
        for f in rep.elements
        if _restrict_vector(f, A.size, sk) == evec
    ]


# ---------------------------------------------------------------------------
# the rank decomposition


@dataclass
class RankFactorizationReport:
    rank: int
    level: int
    transversal_size: int
    proper_count: int
    power_exponent: int
    subvariety_restriction_size: int
    inclusion_left: bool  # every clone member satisfies the description
    inclusion_right: bool  # every described function is a clone member
    product_structure: bool

    def ok(self) -> bool:
        return self.inclusion_left and self.inclusion_right and self.product_structure


def verify_rank_factorization(
    algebra: FiniteAlgebra,
    k: int,
    level: Optional[int] = None,
    budget: int = 1 << 22,
    rep: Optional[FreeAlgebraRep] = None,
) -> RankFactorizationReport:
    """Check, by enumeration over the level-(k+1) transversal, that the
    rank-k free algebra is exactly: functions constant on every cylinder
    over a generating transversal tuple whose restriction to the deficient
    part lies in the restricted free algebra; and that it factors as a
    full power times that restriction.  rep is the rank-k clone when the
    caller has built it already."""
    level = k + 1 if level is None else level
    rep = clone_generate(algebra, k) if rep is None else rep
    R_m = orbit_transversal(algebra, level)
    R_k = orbit_transversal(algebra, k)
    S_k = set(proper_tuples(algebra, k))
    free_ps = [p for p in R_k if p not in S_k]
    T = [r for r in R_m if tuple(r[:k]) in S_k]
    cylinders = {p: [r for r in R_m if tuple(r[:k]) == p] for p in free_ps}
    G1 = {
        tuple(f.value(r[:k], algebra.size) for r in R_m) for f in rep.elements
    }
    K = {tuple(g[R_m.index(r)] for r in T) for g in G1}
    # left inclusion: every clone member is cylinder-constant with
    # restriction in K (constancy is by construction; assert anyway)
    left = True
    for g in G1:
        for p, rs in cylinders.items():
            vals = {g[R_m.index(r)] for r in rs}
            if len(vals) > 1:
                left = False
    # right inclusion: every described function arises from the clone
    count = len(K) * algebra.size ** len(free_ps)
    if count > budget:
        raise SizeBudgetExceeded(f"{count} candidate functions")
    right = True
    tindex = [R_m.index(r) for r in T]
    cyl_index = {p: [R_m.index(r) for r in rs] for p, rs in cylinders.items()}
    for kvec in K:
        for fill in product(range(algebra.size), repeat=len(free_ps)):
            g = [None] * len(R_m)
            for i, pos in enumerate(tindex):
                g[pos] = kvec[i]
            for p, val in zip(free_ps, fill):
                for pos in cyl_index[p]:
                    g[pos] = val
            if tuple(g) not in G1:
                right = False
    product_structure = len(G1) == len(K) * algebra.size ** len(free_ps)
    return RankFactorizationReport(
        rank=k,
        level=level,
        transversal_size=len(R_k),
        proper_count=len(S_k),
        power_exponent=len(free_ps),
        subvariety_restriction_size=len(K),
        inclusion_left=left,
        inclusion_right=right,
        product_structure=product_structure,
    )


def no_atoms_at_rank(algebra: FiniteAlgebra, k: int) -> bool:
    """Finite-stage atom-freeness of the cylinder algebra: every rank-k
    transversal cylinder admits a proper refinement at rank k+1 whose
    entries generate the whole algebra."""
    full = set(algebra.carrier)
    nxt = orbit_transversal(algebra, k + 1)
    for p in orbit_transversal(algebra, k):
        if not any(
            tuple(q[:k]) == p
            and set(alg.subalgebra_generated(algebra, set(q))) == full
            for q in nxt
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# kernel classes as truncated filtered powers


def kernel_class_power_iso(
    rep: FreeAlgebraRep,
    e: TermFunction,
    expected_filters: Optional[Sequence[int]] = None,
):
    """Isomorphism between the kernel class of e and an embedded copy of
    the corresponding finite power stage inside the filtered power whose
    filters match e's idempotent pattern on the deficient tuples.

    Returns (ctx, mapping dict class-element -> PowerElement, report).
    """
    A = rep.algebra
    k = rep.rank
    sk = proper_tuples(A, k)
    cls = kernel_class(rep, e)
    filters = []
    for t in sk:
        v = e.value(t, A.size)
        if v not in filters:
            filters.append(v)
    if expected_filters is not None and tuple(expected_filters) != tuple(filters):
        raise PatternMismatch((tuple(expected_filters), tuple(filters)))
    ctx = make_context(A, tuple(filters))
    n = len(filters)
    free = [t for t in orbit_transversal(A, k) if t not in set(sk)]
    # the blocks on the first n words of the standard code, around the
    # points, and the value cells on the rest
    parts = [Clopen.make([c]) for c in _codes(n + len(free))]
    ident = _ident(A.size)
    cells = [(c, ident, j) for j, c in enumerate(parts[n:])]
    emb = BPEmbedding.make(ctx, len(free), cells, parts[:n])
    mapping = {f: emb.eval([f.value(t, A.size) for t in free]) for f in cls}
    report = {
        "class_size": len(cls),
        "power_exponent": len(free),
        "injective": len(set(mapping.values())) == len(cls),
        "filters": tuple(filters),
    }
    return ctx, mapping, report


def kernel_class_iso_is_homomorphism(rep, mapping) -> bool:
    """The class-to-power map intertwines every basic operation."""
    A = rep.algebra
    cls = list(mapping)
    byt = {f.table: f for f in cls}
    for opk, (name, arity) in enumerate(A.signature):
        if arity == 0:
            continue
        base = cls[: min(len(cls), 4)]
        for combo in product(base, repeat=arity):
            table = tuple(
                A.apply(opk, [f.table[i] for f in combo])
                for i in range(len(combo[0].table))
            )
            if table not in byt:
                return False  # class not closed: not a subalgebra
            lhs = mapping[byt[table]]
            rhs = apply_operation(name, [mapping[f] for f in combo])
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# loop/ring split


def _find_loop_product(algebra: FiniteAlgebra, e: int) -> Optional[int]:
    """A binary operation with identity e and the Latin-square property."""
    n = algebra.size
    for kop, (_, arity) in enumerate(algebra.signature):
        if arity != 2:
            continue
        if any(algebra.apply(kop, (e, x)) != x for x in range(n)):
            continue
        if any(algebra.apply(kop, (x, e)) != x for x in range(n)):
            continue
        ok = True
        for x in range(n):
            row = {algebra.apply(kop, (x, y)) for y in range(n)}
            col = {algebra.apply(kop, (y, x)) for y in range(n)}
            if len(row) != n or len(col) != n:
                ok = False
        if ok:
            return kop
    return None


@dataclass
class LoopRingSplitReport:
    rank: int
    kernel_size: int
    complement_size: int
    intersection_trivial: bool
    product_covers: bool

    def ok(self) -> bool:
        return self.intersection_trivial and self.product_covers


def loop_ring_split(algebra: FiniteAlgebra, k: int):
    """N_k = functions collapsing the deficient tuples to the identity
    idempotent; H_k = the subalgebra generated by the y-generators; checks
    N_k meets H_k trivially and N_k * H_k covers the rank-k free algebra.

    Returns (N tables, H tables, report), all restricted to the rank-k
    orbit transversal."""
    idems = alg.idempotents(algebra)
    if len(idems) != 1:
        raise NotLoopOrRing(f"needs a unique idempotent, got {sorted(idems)}")
    e = next(iter(idems))
    prod_op = _find_loop_product(algebra, e)
    if prod_op is None:
        raise NotLoopOrRing("no binary operation acts as a loop product")
    rep = clone_generate(algebra, k)
    R_k = orbit_transversal(algebra, k)
    full = set(algebra.carrier)
    sk_flags = [
        [
            set(alg.subalgebra_generated(algebra, set(t[:j]))) != full
            for j in range(1, k + 1)
        ]
        for t in R_k
    ]
    F = { _restrict_vector(f, algebra.size, R_k) for f in rep.elements }
    N = {
        v
        for v in F
        if all(
            v[i] == e
            for i, t in enumerate(R_k)
            if set(alg.subalgebra_generated(algebra, set(t))) != full
        )
    }
    ys = []
    for j in range(1, k + 1):
        y = tuple(
            t[j - 1] if sk_flags[i][j - 1] else e for i, t in enumerate(R_k)
        )
        if y not in F:
            raise AssertionError("y-generator escaped the clone")
        ys.append(y)
    # F is closed and holds every y, so H fits in len(F) members
    H = set(alg.pointwise_closure(algebra, ys, budget=len(F)))
    ebar = tuple(e for _ in R_k)
    inter = N & H
    products = {
        tuple(algebra.apply(prod_op, (a, b)) for a, b in zip(nv, hv))
        for nv in N
        for hv in H
    }
    report = LoopRingSplitReport(
        rank=k,
        kernel_size=len(N),
        complement_size=len(H),
        intersection_trivial=inter == {ebar},
        product_covers=products == F,
    )
    return sorted(N), sorted(H), report
