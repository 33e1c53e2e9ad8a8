"""The three benchmark workloads.

Each workload is built by ``setup(seed)``, which does all context
construction and seeded input generation, and returns a :class:`Job`: a
list of cases plus the function that runs one case.  Running a case returns
its kind, a JSON-able result and the case's own verdict; the result is
what the output digest and the golden comparison cover.

Inputs come from ``boolpow.rand`` driven by ``random.Random(seed)``; the
program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

from boolpow import algebra as alg
from boolpow import cli
from boolpow import factorization as fz
from boolpow import homeo as hm
from boolpow import power as bp
from boolpow import serialize as ser
from boolpow.cantor import PointContext
from boolpow.rand import random_automorphism, random_point_fixing_homeo

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Refuse to enumerate more elements than this.  ``enumerate_elements`` has
# no guard of its own; :func:`guard_enumeration` computes |A|^(free cells)
# first, for every caller.
ELEMENT_CAP = 1 << 16


@dataclass
class Job:
    cases: list
    run: Callable  # case -> (kind, result, ok)
    labels: list[str]  # one per case, for reports
    golden_always: list[bool]  # golden applies at every seed, not only the default


class ElementBudgetExceeded(RuntimeError):
    pass


def element_count(ctx: bp.PowerContext, depth: int) -> int:
    """How many elements ``enumerate_elements(ctx, depth)`` would return:
    |A| to the number of level-`depth` cells no distinguished point forces."""
    forced = {}
    for i in range(1, ctx.points.n + 1):
        w = ctx.points.point(i).prefix(depth)
        if forced.get(w, ctx.filters[i - 1]) != ctx.filters[i - 1]:
            return 0
        forced[w] = ctx.filters[i - 1]
    return ctx.algebra.size ** (2**depth - len(forced))


def check_element_budget(ctx: bp.PowerContext, depth: int) -> int:
    count = element_count(ctx, depth)
    if count > ELEMENT_CAP:
        raise ElementBudgetExceeded(
            f"depth {depth} would enumerate {count} elements (cap {ELEMENT_CAP})"
        )
    return count


def guard_enumeration():
    """Put :func:`check_element_budget` in front of ``enumerate_elements``
    in every ``boolpow`` namespace that binds it (``factorization`` imports
    it by name), so every enumeration, from the CLI or a library call, is
    checked before it starts.  Call once, after importing the library."""
    original = bp.enumerate_elements

    @functools.wraps(original)
    def guarded(ctx, depth):
        check_element_budget(ctx, depth)
        return original(ctx, depth)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "boolpow" or name.startswith("boolpow.")):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, attr, guarded)


# ---------------------------------------------------------------------------
# homeo-factor


HOMEO_CASES = 150


def setup_homeo_factor(seed: int) -> Job:
    rng = random.Random(seed)
    ctxs = {n: PointContext(n) for n in (1, 2, 3)}
    partitions = {n: fz.good_partition(ctxs[n]) for n in ctxs}
    cases = []
    for k in range(HOMEO_CASES):
        n = 1 + k % 3
        cases.append((n, random_point_fixing_homeo(ctxs[n], rng, moves=2)))

    def run(case):
        n, sigma = case
        gp = partitions[n]
        i, j, (s1, s2, s3) = fz.pigeonhole_factor(sigma, gp)
        product = s3.compose(s2).compose(s1)
        recomposes = product == sigma
        stabilizers = (
            fz.fixes_pointwise(s1, gp.blocks[i - 1])
            and fz.fixes_pointwise(s3, gp.blocks[i - 1])
            and fz.fixes_pointwise(s2, gp.blocks[j - 1])
        )
        oracle = hm.homeos_agree_on_sample(product, sigma)
        result = {
            "n": n,
            "blocks": [i, j],
            "factors": [ser.homeo_to_obj(s) for s in (s1, s2, s3)],
            "recomposes": recomposes,
            "stabilizers": stabilizers,
            "oracle": oracle,
        }
        return "factor", result, recomposes and stabilizers and oracle

    labels = [f"case{k}" for k in range(len(cases))]
    return Job(cases, run, labels, [False] * len(cases))


# ---------------------------------------------------------------------------
# autgroup-act

AUT_POOL = 96
AUT_CASES = 1500
# One compose case to two apply cases.  With the kinds one to one, the
# median case would sit in the gap between the two kinds' latencies and
# jump from run to run; with a 1:2 mix it lies inside the apply cases.
AUT_PATTERN = ("compose", "apply", "apply")


def _automorphism_obj(phi) -> dict:
    """Normal-form fields of a power automorphism (no serialize format)."""
    lab = phi.labeling
    return {
        "threshold": lab.threshold,
        "exc_cells": [[w, list(m)] for w, m in lab.exc_cells],
        "tails": [[list(m) for m in t] for t in lab.tails],
        "homeo": ser.homeo_to_obj(phi.homeo),
    }


def setup_autgroup_act(seed: int) -> Job:
    rng = random.Random(seed)
    ctx = bp.make_context(alg.gf4_idempotent_reduct(), (0, 1))
    auts = [random_automorphism(ctx, rng, moves=1) for _ in range(AUT_POOL)]
    depth2 = bp.enumerate_elements(ctx, 2)
    depth3 = bp.enumerate_elements(ctx, 3)
    cases = []
    for k in range(AUT_CASES):
        if AUT_PATTERN[k % len(AUT_PATTERN)] == "compose":
            cases.append(("compose", tuple(rng.randrange(AUT_POOL) for _ in range(3))))
        else:
            cases.append(
                (
                    "apply",
                    (
                        rng.randrange(AUT_POOL),
                        rng.choice(depth2),
                        rng.choice(depth3),
                        rng.choice(depth3),
                    ),
                )
            )

    def run(case):
        kind, args = case
        if kind == "compose":
            x, y, z = (auts[i] for i in args)
            left = x.compose(y).compose(z)
            assoc = left == x.compose(y.compose(z))
            inverse = x.compose(x.inverse()).is_identity()
            result = {
                "kind": kind,
                "assoc": assoc,
                "inverse": inverse,
                "product": _automorphism_obj(left),
            }
            return kind, result, assoc and inverse
        phi, f, g, h = auts[args[0]], args[1], args[2], args[3]
        pf, pg, ph = phi.apply(f), phi.apply(g), phi.apply(h)
        mul_hom = phi.apply(bp.apply_operation("mul", [f, g])) == bp.apply_operation(
            "mul", [pf, pg]
        )
        mal_hom = phi.apply(
            bp.apply_operation("mal", [f, g, h])
        ) == bp.apply_operation("mal", [pf, pg, ph])
        result = {
            "kind": kind,
            "mul": mul_hom,
            "mal": mal_hom,
            "images": [ser.element_to_obj(e) for e in (pf, pg, ph)],
        }
        return kind, result, mul_hom and mal_hom

    labels = [f"case{k}" for k in range(len(cases))]
    return Job(cases, run, labels, [False] * len(cases))


# ---------------------------------------------------------------------------
# cli-reports

# Every subcommand at its README arguments, then configurations heavy
# enough to measure, each doing different work: ``build-power`` at depth 4
# and on gf4, ``free-algebra`` at rank 3, ``demo-example-2-3`` at depth 40
# and ``factor-homeo`` on three points.  ``bergman-growth`` on gf4 is left
# out: one probe took 108 s.
_CLI_FIXED = [
    ("inspect-algebra", ["inspect-algebra", "--builtin", "gf2-idempotent-reduct"]),
    ("build-power-d2", ["build-power", "--builtin", "gf2-ring", "--filters", "0", "--depth", "2"]),
    ("amalgamate", ["amalgamate", "--builtin", "gf2-ring", "--emb1", "{data}/phi.json", "--emb2", "{data}/psi.json"]),
    ("extend-homogeneity-s5", ["extend-homogeneity", "--builtin", "gf2-idempotent-reduct", "--seed", "5"]),
    ("fraisse-chain-d4", ["fraisse-chain", "--builtin", "gf2-idempotent-reduct", "--depth", "4"]),
    ("free-algebra-r2", ["free-algebra", "--builtin", "gf2-ring", "--rank", "2"]),
    ("reduce-idempotents", ["reduce-idempotents", "--builtin", "gf2-ring", "--filters", "0,0"]),
    ("demo-example-2-3-d6", ["demo-example-2-3", "--depth", "6"]),
    ("factor-homeo-s11", ["factor-homeo", "--points", "2", "--seed", "11"]),
    ("bergman-growth", ["bergman-growth", "--builtin", "gf2-idempotent-reduct", "--depth", "3", "--steps", "8"]),
    ("build-power-d4", ["build-power", "--builtin", "gf2-ring", "--filters", "0", "--depth", "4"]),
    ("free-algebra-r3", ["free-algebra", "--builtin", "gf2-idempotent-reduct", "--rank", "3"]),
    ("demo-example-2-3-d40", ["demo-example-2-3", "--depth", "40"]),
    ("build-power-gf4-d3", ["build-power", "--builtin", "gf4-idempotent-reduct", "--filters", "0,1", "--depth", "3"]),
    ("factor-homeo-p3-s1", ["factor-homeo", "--points", "3", "--seed", "1"]),
]


def _cli_invocations(seed: int) -> list[tuple[str, list[str], bool]]:
    rng = random.Random(seed)
    s1, s2 = rng.randrange(1 << 16), rng.randrange(1 << 16)
    data = os.path.join(BENCH_DIR, "data")
    out = [(label, [a.format(data=data) for a in argv], False) for label, argv in _CLI_FIXED]
    out.append((f"factor-homeo-s{s1}", ["factor-homeo", "--points", "2", "--seed", str(s1)], True))
    out.append(
        (
            f"extend-homogeneity-s{s2}",
            ["extend-homogeneity", "--builtin", "gf2-idempotent-reduct", "--seed", str(s2)],
            True,
        )
    )
    return out


def setup_cli_reports(seed: int) -> Job:
    invocations = _cli_invocations(seed)

    def run(case):
        label, argv, _ = case
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        ok = code == 0 and json.loads(text).get("ok") is True
        return argv[0], text, ok

    labels = [label for label, _, _ in invocations]
    golden_always = [not seeded for _, _, seeded in invocations]
    return Job(invocations, run, labels, golden_always)


WORKLOADS = {
    "homeo-factor": setup_homeo_factor,
    "autgroup-act": setup_autgroup_act,
    "cli-reports": setup_cli_reports,
}

# cli-reports measures whole passes over its invocation list: the
# invocations differ in cost by three orders of magnitude, so a partial
# pass would make throughput depend on where the clock ran out.
WHOLE_PASSES = {"cli-reports"}
