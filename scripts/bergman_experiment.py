#!/usr/bin/env python3
"""Word-growth experiment on finite approximations of the automorphism
group: for several generator sets, print the word-ball sizes of the
induced permutation action on depth-d elements and the step at which
growth stabilizes."""

import argparse
import json

from boolpow import algebra as alg
from boolpow import cli
from boolpow import factorization as fz
from boolpow import power as bp
from boolpow.autgroup import characteristic
from boolpow.cantor import Clopen, TailClopen
from boolpow.errors import SizeBudgetExceeded
from boolpow.rand import cell_swap, suffix_twist


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--steps", type=int, default=10)
    args = ap.parse_args()
    if args.depth < 3:
        # the generator sets below do not act at depth 2, and at depths
        # 0 and 1 each acts as the identity
        ap.error("--depth must be at least 3, where every generator set acts")

    red = alg.gf2_idempotent_reduct()
    gf4 = alg.gf4_idempotent_reduct()
    ctx = bp.make_context(red, (0, 1))
    ctx4 = bp.make_context(gf4, (0, 1))
    for name, c in (("gf2-idempotent-reduct", ctx), ("gf4-idempotent-reduct", ctx4)):
        try:
            bp.check_element_budget(c, args.depth, cli.DEFAULT_BUDGET)
        except SizeBudgetExceeded:
            ap.error(
                f"--depth {args.depth} gives the {name} power more than "
                f"{cli.DEFAULT_BUDGET} elements to enumerate"
            )

    runs = []
    gens = {
        "cell swap only": [cell_swap(ctx.points, "110", "111")],
        "swap + suffix twist": [
            cell_swap(ctx.points, "110", "111"),
            suffix_twist(ctx.points, 1),
        ],
    }
    for label, gg in gens.items():
        sizes, stab = fz.bergman_growth(ctx, gg, args.depth, args.steps)
        runs.append(
            {
                "algebra": "gf2-idempotent-reduct",
                "generators": label,
                "sizes": sizes,
                "stabilized_at": stab,
            }
        )

    frob = next(m for m in alg.automorphisms(gf4) if m != tuple(range(4)))
    chi = characteristic(
        ctx4, TailClopen.from_clopen(ctx4.points, Clopen.make(["110"])), frob
    )
    gens4 = [chi, cell_swap(ctx4.points, "110", "111")]
    sizes, stab = fz.bergman_growth(ctx4, gens4, args.depth, args.steps)
    runs.append(
        {
            "algebra": "gf4-idempotent-reduct",
            "generators": "characteristic twist + cell swap",
            "sizes": sizes,
            "stabilized_at": stab,
        }
    )

    print(json.dumps({"depth": args.depth, "runs": runs}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
