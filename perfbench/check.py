"""Correctness and determinism check over every workload.

    python3 perfbench/check.py [--seconds 5] [--other-seed 2]

For each workload, in its own fresh process each time: two runs at the
default seed, which must agree on ``output_digest`` (same seed, same
bytes) and match the goldens, and one run at another seed, which must
have no failed case.  Prints every end-to-end metric with its unit and
sample count, and exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import BENCH_DIR, DEFAULT_SEED, ROOT

# homeo-factor is not in BENCHMARK.json, but its results are checked too.
WORKLOADS = ("homeo-factor", "autgroup-act", "cli-reports")


def run(workload: str, seed: int, seconds: float) -> tuple[int, dict, dict]:
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return proc.returncode, {}, {}
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--other-seed", type=int, default=2)
    args = p.parse_args(argv)
    problems = []
    for w in WORKLOADS:
        runs = [
            (seed, *run(w, seed, args.seconds))
            for seed in (DEFAULT_SEED, DEFAULT_SEED, args.other_seed)
        ]
        for seed, code, detail, result in runs:
            if code != 0 or not result.get("correct"):
                problems.append(f"{w} seed {seed}: exit {code}, {detail.get('failed_cases')}")
                continue
            print(f"{w}  seed {seed}  attempted {result['attempted']}  failed {result['failed']}"
                  f"  output_digest {detail['output_digest'][:16]}")
            for name, m in detail["metrics"].items():
                print(f"    {name:16s} {m['value']:12.4f} {m['unit']:9s} n={m['n']}")
        digests = {detail.get("output_digest") for seed, _, detail, _ in runs if seed == DEFAULT_SEED}
        if len(digests) != 1:
            problems.append(f"{w}: two runs at seed {DEFAULT_SEED} gave different digests {digests}")
    for line in problems:
        print(f"FAIL {line}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
