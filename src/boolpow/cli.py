"""Batch entry points: algebra inspection, power construction, the
amalgamation and homogeneity drivers, free-algebra reports, idempotent
reduction, the non-extendable homeomorphism demo, homeomorphism
factorization and word-growth probes.

Every subcommand emits a JSON report carrying verification verdicts; the
exit code is 0 exactly when all verdicts pass.  Identical configurations
(including --seed) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import product

from . import algebra as alg
from . import factorization as fz
from . import fraisse as fr
from . import freealg as fa
from . import power as bp
from . import serialize as ser
from .cantor import PointContext
from .errors import BoolpowError, ParseError, SizeBudgetExceeded
from .homeo import cross_branch_involution
from .rand import cell_swap, first_bit_swap, random_point_fixing_homeo, suffix_twist

# --budget when not given; extend-homogeneity and amalgamate, which have
# no --budget, bound their chain and source tuples by it
DEFAULT_BUDGET = 200_000

# demo-example-2-3 takes time quadratic in --depth (1.2 s at 200, 57 s at 800)
DEMO_MAX_DEPTH = 200

# factor-homeo finishes on 16 points in about 3 s; from 20 points on, the
# tail moduli of its homeomorphisms pass the budget of homeo._ap_coverage
FACTOR_MAX_POINTS = 16


def _load_algebra(args) -> alg.FiniteAlgebra:
    if args.builtin:
        try:
            return alg.builtin(args.builtin)
        except KeyError as e:
            raise ParseError(f"unknown builtin {args.builtin!r}") from e
        except ValueError as e:  # a parameter not an integer or too large
            raise ParseError(f"builtin {args.builtin!r}: {e}") from e
    if args.alg:
        with open(args.alg) as fh:
            return alg.from_json(fh.read(), args.alg)
    raise ParseError("need --builtin or --alg")


def _load_json(path: str, parse):
    """parse(obj) for the JSON object in the file at path; content that is
    not JSON or lacks a field raises ParseError naming the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError) as e:
        raise ParseError(f"{path}: {type(e).__name__}: {e}") from e


def _filters(args, algebra) -> tuple[int, ...]:
    if args.filters is not None:
        if args.filters.strip() == "":
            return ()
        try:
            return tuple(int(x) for x in args.filters.split(","))
        except ValueError as e:
            raise ParseError(f"--filters {args.filters!r}: {e}") from e
    return tuple(sorted(alg.idempotents(algebra)))


def check_source_tuples(a: alg.FiniteAlgebra, u: int) -> None:
    """Raise SizeBudgetExceeded when the |A|^u source tuples of an
    exhaustive check are more than DEFAULT_BUDGET, without computing
    |A|^u for a large u."""
    # |A| >= 2, so from budget.bit_length() coordinates on |A|^u is over
    if u >= DEFAULT_BUDGET.bit_length() or a.size**u > DEFAULT_BUDGET:
        raise SizeBudgetExceeded(
            f"|A|^u source tuples, with |A| = {a.size} and u = {u}, "
            f"are more than {DEFAULT_BUDGET}"
        )


def cmd_inspect_algebra(args):
    a = _load_algebra(args)
    term = alg.find_malcev_term(a, budget=args.budget)
    # before is_simple, whose scan takes about n^4 steps: is_abelian
    # refuses a large carrier at once
    abelian = alg.is_abelian(a, term) if term else None
    report = {
        "carrier": a.size,
        "signature": [[n, r] for n, r in a.signature],
        "malcev_term": repr(term) if term else None,
        "simple": alg.is_simple(a),
        "abelian": abelian,
        "idempotents": sorted(alg.idempotents(a)),
        "automorphism_count": len(alg.automorphisms(a)),
        "proper_subalgebras": [
            sorted(s) for s in alg.subalgebras(a) if len(s) < a.size
        ],
    }
    ok = term is not None
    return report, ok


def cmd_build_power(args):
    a = _load_algebra(args)
    ctx = bp.make_context(a, _filters(args, a))
    bp.check_element_budget(ctx, args.depth, args.budget)
    elems = bp.enumerate_elements(ctx, args.depth)
    sample = [ser.element_to_obj(f) for f in elems[:4]]
    round_trips = all(
        ser.element_from_obj(ctx, ser.element_to_obj(f)) == f for f in elems
    )
    report = {
        "filters": list(ctx.filters),
        "depth": args.depth,
        "element_count": len(elems),
        "sample": sample,
        "round_trip": round_trips,
    }
    return report, round_trips


def cmd_amalgamate(args):
    a = _load_algebra(args)
    if args.emb1 and args.emb2:
        phi = _load_json(args.emb1, lambda obj: ser.embedding_from_obj(a, obj))
        psi = _load_json(args.emb2, lambda obj: ser.embedding_from_obj(a, obj))
    else:
        phi = fr.PowerEmbedding.identity(a, 1)
        psi = fr.PowerEmbedding.identity(a, 1)
    check_source_tuples(a, phi.u)
    m, phi2, psi2 = fr.amalgamate(phi, psi)
    commutes = phi2.compose(phi) == psi2.compose(psi)
    exhaustive = all(
        phi2.eval(phi.eval(t)) == psi2.eval(psi.eval(t))
        for t in product(range(a.size), repeat=phi.u)
    )
    report = {
        "m": m,
        "phi_prime": ser.embedding_to_obj(phi2),
        "psi_prime": ser.embedding_to_obj(psi2),
        "commutes": commutes,
        "exhaustive": exhaustive,
    }
    return report, commutes and exhaustive


def cmd_extend_homogeneity(args):
    a = _load_algebra(args)
    ctx = bp.make_context(a, _filters(args, a))
    rng = random.Random(args.seed)
    fr.check_chain_budget(ctx, args.depth, DEFAULT_BUDGET)
    chain = fr.limit_chain(ctx, max(args.depth, fr.first_stage_depth(ctx)))
    psi = chain[min(len(chain) - 1, 1)].bp
    u = psi.u
    ident = tuple(range(a.size))
    coords = [("aut", ident, j) for j in range(u)]
    idems = sorted(alg.idempotents(a))
    for _ in range(rng.randint(1, 2)):
        coords.append(
            ("idem", rng.choice(idems))
            if rng.random() < 0.5 and idems
            else ("aut", ident, rng.randrange(u))
        )
    rng.shuffle(coords)
    phi = fr.PowerEmbedding.make(a, u, coords)
    check_source_tuples(a, u)
    psi2 = fr.extend_weak_homogeneity(phi, psi)
    verified = all(
        psi2.eval(phi.eval(t)) == psi.eval(t)
        for t in product(range(a.size), repeat=u)
    )
    report = {
        "source_arity": u,
        "target_arity": phi.v,
        "verified": verified,
    }
    return report, verified


def cmd_fraisse_chain(args):
    a = _load_algebra(args)
    ctx = bp.make_context(a, _filters(args, a))
    # the depth of chain[0], known before the chain is built
    first = fr.first_stage_depth(ctx)
    n = ctx.points.n
    cover_depth = max(min(args.depth, 2 + n), first)
    if cover_depth == args.depth:
        name = None
    elif cover_depth == first:
        name = f"depth {first}, the first stage for {n} points,"
    else:
        name = f"the coverage depth {cover_depth} (2 + {n} points)"
    bp.check_element_budget(ctx, cover_depth, args.budget, name)
    fr.check_chain_budget(ctx, args.depth, args.budget)
    chain = fr.limit_chain(ctx, args.depth)
    commutes = fr.chain_commutes(chain)
    covers = fr.chain_covers(ctx, chain, cover_depth)
    report = {
        "stages": [
            {"depth": st.depth, "arity": st.bp.u} for st in chain
        ],
        "squares_commute": commutes,
        "coverage_verified": covers,
    }
    return report, commutes and covers


def cmd_free_algebra(args):
    a = _load_algebra(args)
    k = args.rank
    rep = fa.clone_generate(a, k, budget=args.budget)
    sk = fa.proper_tuples(a, k)
    rpt = fa.verify_rank_factorization(a, k, rep=rep)
    class_sizes = {}
    idems = sorted(alg.idempotents(a))
    for f in rep.elements:
        if all(f.value(t, a.size) in idems for t in sk):
            cls = fa.kernel_class(rep, f, sk)
            key = ",".join(str(f.value(t, a.size)) for t in sk)
            class_sizes[key] = len(cls)
    report = {
        "rank": k,
        "free_algebra_size": len(rep.elements),
        "proper_tuples": [list(t) for t in sk],
        "factorization": {
            "power_exponent": rpt.power_exponent,
            "restriction_size": rpt.subvariety_restriction_size,
            "both_inclusions": rpt.inclusion_left and rpt.inclusion_right,
            "product_structure": rpt.product_structure,
        },
        "kernel_class_sizes": class_sizes,
    }
    return report, rpt.ok()


def cmd_reduce_idempotents(args):
    a = _load_algebra(args)
    ctx = bp.make_context(a, _filters(args, a))
    red, iso = bp.reduce_idempotents(ctx)
    # the points past the depth share the cell 1^depth, so the source has
    # elements from the last point whose filter is not the last one's on
    differ = [i for i, e in enumerate(ctx.filters, 1) if e != ctx.filters[-1]]
    depth = max([2, fr.first_stage_depth(red)] + differ)
    bp.check_element_budget(ctx, depth, args.budget)
    bp.check_reduction_budget(ctx, depth)
    elems = bp.enumerate_elements(ctx, depth)
    ok = True
    seen = set()
    for f in elems:
        g = iso.forward(f)
        ok = ok and iso.backward(g) == f
        seen.add(g)
    ok = ok and len(seen) == len(elems)
    report = {
        "filters": list(ctx.filters),
        "reduced_filters": list(red.filters),
        "round_trip_on_depth": depth,
        "verified": ok,
    }
    return report, ok


def cmd_demo_example_2_3(args):
    if args.depth > DEMO_MAX_DEPTH:
        raise SizeBudgetExceeded(
            f"--depth {args.depth} is over the ceiling {DEMO_MAX_DEPTH}"
        )
    pctx = PointContext(2)
    psi = cross_branch_involution(pctx)
    involution = psi.compose(psi).is_identity()
    extends = psi.extends_to_X()
    depth = max(args.depth, 6)
    evidence = []
    near_first = near_second = 0
    for j in range(2, depth + 1):
        img = psi.apply(pctx.cell(1, j)).to_clopen()
        w = img.words[0]
        towards = 1 if w.startswith("0") else 2
        if towards == 1:
            near_first += 1
        else:
            near_second += 1
        evidence.append({"cell": [1, j], "image": list(img.words), "towards": towards})
    report = {
        "extends_to_X": extends,
        "is_involution": involution,
        "depth": depth,
        "cluster_evidence": evidence,
        "meets_both_neighbourhoods": near_first > 0 and near_second > 0,
    }
    ok = (not extends) and involution and near_first > 0 and near_second > 0
    return report, ok


def cmd_factor_homeo(args):
    n = args.points
    if n > FACTOR_MAX_POINTS:
        raise ParseError(f"--points {n} is over the ceiling {FACTOR_MAX_POINTS}")
    pctx = PointContext(n)
    gp = fz.good_partition(pctx)
    if args.sigma:
        sigma = _load_json(args.sigma, lambda obj: ser.homeo_from_obj(pctx, obj))
    else:
        rng = random.Random(args.seed)
        sigma = random_point_fixing_homeo(pctx, rng, moves=2)
    i, j, (s1, s2, s3) = fz.pigeonhole_factor(sigma, gp)
    recomposes = s3.compose(s2).compose(s1) == sigma
    stabilizers = (
        fz.fixes_pointwise(s1, gp.blocks[i - 1])
        and fz.fixes_pointwise(s3, gp.blocks[i - 1])
        and fz.fixes_pointwise(s2, gp.blocks[j - 1])
    )
    report = {
        "block_i": i,
        "block_j": j,
        "factors": [ser.homeo_to_obj(s) for s in (s1, s2, s3)],
        "recomposes": recomposes,
        "stabilizers_verified": stabilizers,
    }
    return report, recomposes and stabilizers


def cmd_bergman_growth(args):
    a = _load_algebra(args)
    ctx = bp.make_context(a, _filters(args, a))
    bp.check_element_budget(ctx, args.depth, args.budget)
    pctx = ctx.points
    if args.gens:
        gens = _load_json(
            args.gens, lambda objs: [ser.homeo_from_obj(pctx, o) for o in objs]
        )
    else:
        if pctx.n:
            base = pctx.cellword(1, 1)
            gens = [suffix_twist(pctx, 1), cell_swap(pctx, base + "0", base + "1")]
        else:  # no branch: the first-bit swap of X
            gens = [first_bit_swap(pctx)]
    sizes, stabilized = fz.bergman_growth(ctx, gens, args.depth, args.steps)
    monotone = all(x <= y for x, y in zip(sizes, sizes[1:]))
    report = {
        "depth": args.depth,
        "sizes": sizes,
        "stabilized_at": stabilized,
        "monotone": monotone,
    }
    return report, monotone


COMMANDS = {
    "inspect-algebra": cmd_inspect_algebra,
    "build-power": cmd_build_power,
    "amalgamate": cmd_amalgamate,
    "extend-homogeneity": cmd_extend_homogeneity,
    "fraisse-chain": cmd_fraisse_chain,
    "free-algebra": cmd_free_algebra,
    "reduce-idempotents": cmd_reduce_idempotents,
    "demo-example-2-3": cmd_demo_example_2_3,
    "factor-homeo": cmd_factor_homeo,
    "bergman-growth": cmd_bergman_growth,
}


FLAGS = {
    "alg": {"help": "algebra JSON file"},
    "builtin": {"help": "built-in algebra name"},
    "filters": {"help": "comma-separated filter idempotents"},
    "rank": {"type": int, "default": 2},
    "depth": {"type": int, "default": 3},
    "budget": {"type": int, "default": DEFAULT_BUDGET},
    "seed": {"type": int, "default": 0},
    "steps": {"type": int, "default": 6},
    "points": {"type": int, "default": 1},
    "sigma": {"help": "homeomorphism JSON file"},
    "gens": {"help": "generator list JSON file"},
    "emb1": {"help": "embedding JSON file"},
    "emb2": {"help": "embedding JSON file"},
}

# the flags each subcommand reads, besides --out
_ALG = ("alg", "builtin")
COMMAND_FLAGS = {
    "inspect-algebra": _ALG + ("budget",),
    "build-power": _ALG + ("filters", "depth", "budget"),
    "amalgamate": _ALG + ("emb1", "emb2"),
    "extend-homogeneity": _ALG + ("filters", "depth", "seed"),
    "fraisse-chain": _ALG + ("filters", "depth", "budget"),
    "free-algebra": _ALG + ("rank", "budget"),
    "reduce-idempotents": _ALG + ("filters", "budget"),
    "demo-example-2-3": ("depth",),
    "factor-homeo": ("points", "seed", "sigma"),
    "bergman-growth": _ALG + ("filters", "depth", "budget", "steps", "gens"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="boolpow")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        for flag in COMMAND_FLAGS[name]:
            sp.add_argument(f"--{flag}", **FLAGS[flag])
        sp.add_argument("--out", help="write the report here instead of stdout")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("depth", "points", "rank", "steps", "budget"):
            if getattr(args, flag, 0) < 0:  # only the flags it has
                raise ParseError(f"--{flag} must be non-negative")
        report, ok = COMMANDS[args.command](args)
    except BoolpowError as e:
        report, ok = {"error": f"{type(e).__name__}: {e}"}, False
    except OSError as e:
        report, ok = {"error": str(e)}, False
    report["command"] = args.command
    report["ok"] = ok
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
