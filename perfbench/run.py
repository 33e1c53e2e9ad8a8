"""Benchmark runner for boolpow: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload autgroup-act --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run imports the library and sets up the
workload, times the same cold set-up in four fresh child processes
(``setup_s`` is the median of the five), then runs a closed loop, one
client, over the seeded cases until ``--seconds`` have passed, and prints
the end-to-end metrics.  With ``--trace 1`` it sets up once,
runs the loop untraced for half of ``--seconds``, runs the same cases
again with every layer's public functions wrapped, and prints the
per-layer metrics and the tracing overhead; the spans go to
``.bench_out/``.

The end-to-end times are CPU time of the process (``time.process_time``),
not wall time.  The library is single-threaded, CPU-bound and does no
I/O in these workloads, so on an idle machine the two agree; on a shared
virtual machine, CPU time leaves out the time the host gives to other
guests, which moved wall-time figures by up to a quarter from run to run.
Run length, the tracer's spans and the tracing overhead use wall time.

Every case carries its own verdict.  Each run prints an ``output_digest``
over the results of its first cases; at the default seed those digests
are compared with the golden copies in ``perfbench/golden``, and the
``cli-reports`` reports are compared byte for byte with golden reports.  A wrong verdict, a mismatch or an exception fails
the case, and any failed case makes the exit code 1.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details: every metric with its unit and sample count, the
digest, and the commit, Python version, CPU count and machine note.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# setup_s counts from here: interpreter start-up (site, .pth files) is the
# host's, not the library's.
T_START = time.process_time()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")
OUT_DIR = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 1
# setup_s is the median of this many cold set-ups (import, context
# construction, input generation), each in a fresh process: the run's own
# and those of SETUP_PROCESSES - 1 children started with --setup-only.
SETUP_PROCESSES = 5
# Cases whose results make up output_digest; every run completes at least
# these (cli-reports: its whole invocation list).
DIGEST_CASES = {"homeo-factor": 30, "autgroup-act": 100}

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics of the result line, as named in BENCHMARK.json.
# case_ms_p50 is on the detail line only: on cli-reports the median of its
# 17 distinct reports falls among the seeded invocations, whose cost
# depends on the seed.
GATED = ("setup_s", "cases_per_s", "case_ms_p90", "peak_rss_mb")


def _die(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "boolpow", "__init__.py")):
        _die(f"no boolpow sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import boolpow

    if not os.path.abspath(boolpow.__file__).startswith(SRC + os.sep):
        _die(f"imported boolpow from {boolpow.__file__}, not from {SRC}")
    import tracer
    import workloads

    workloads.guard_enumeration()
    return workloads, tracer


# ---------------------------------------------------------------------------
# environment record


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def _source_digest() -> str:
    """sha256 over src/boolpow/*.py, naming the code when there is no git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "boolpow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": f"{platform.platform()}; {_cpu_model()}",
        "note": "end-to-end times are process CPU time (time.process_time), "
        "traced times wall time (time.perf_counter), in one process on one "
        "machine; not comparable across machines",
    }


# ---------------------------------------------------------------------------
# goldens and digests


def case_digest(result) -> str:
    if isinstance(result, str):
        payload = result
    else:
        payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def output_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


class Golden:
    """Recorded results at the default seed: per-case digests for every
    workload, and the report text of every cli-reports invocation."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.at_default = seed == DEFAULT_SEED
        self.cases: dict[str, str] = {}
        self.output = None
        path = os.path.join(GOLDEN_DIR, f"{workload}.json")
        if os.path.isfile(path):
            with open(path) as fh:
                data = json.load(fh)
            self.cases = data["case_digests"]
            self.output = data["output_digest"]

    def report_path(self, label: str) -> str:
        return os.path.join(GOLDEN_DIR, self.workload, f"{label}.json")

    def check(self, label: str, result, digest: str, always: bool) -> bool:
        """False on a mismatch with a golden value that applies here."""
        if isinstance(result, str) and (always or self.at_default):
            try:
                with open(self.report_path(label)) as fh:
                    if fh.read() != result:
                        return False
            except FileNotFoundError:
                return False
        if self.at_default and label in self.cases:
            return self.cases[label] == digest
        return True


# ---------------------------------------------------------------------------
# the timed loop


class Loop:
    """Closed loop, one client: the next case starts when the last ends."""

    def __init__(self, job, golden: Golden, min_cases: int, whole_passes: bool):
        self.job = job
        self.golden = golden
        self.min_cases = min_cases
        self.whole_passes = whole_passes
        self.times: list[float] = []  # CPU seconds of each case
        self.kinds: list[str] = []
        self.digests: list[str] = []
        self.failures: list[str] = []
        self.wall = 0.0
        self.cpu = 0.0

    def _stop(self, k: int, now: float, start: float, deadline: float) -> bool:
        if k < self.min_cases:
            return False
        if not self.whole_passes:
            return now >= deadline
        n_cases = len(self.job.cases)
        if k % n_cases:
            return False
        # End at the pass boundary closest to the deadline: stop unless the
        # next pass would overshoot it by less than this one falls short.
        pass_s = (now - start) / (k // n_cases)
        return now + pass_s - deadline > deadline - now

    def run(self, seconds: float, limit: int | None = None, tracer=None):
        job, perf, clock = self.job, time.perf_counter, time.process_time
        n_cases = len(job.cases)
        start, cpu_start = perf(), clock()
        deadline = start + seconds
        k = 0
        while (k < limit) if limit is not None else not self._stop(k, perf(), start, deadline):
            idx = k % n_cases
            label = job.labels[idx]
            if tracer is not None:
                tracer.case = k
            t0 = clock()
            try:
                kind, result, ok = job.run(job.cases[idx])
                digest = case_digest(result)
                ok = self.golden.check(label, result, digest, job.golden_always[idx]) and ok
            except Exception as e:  # a failed case, reported and counted
                kind, digest, ok = "error", f"error: {type(e).__name__}: {e}", False
            self.times.append(clock() - t0)
            self.kinds.append(kind)
            if k < self.min_cases:
                self.digests.append(digest)
            if not ok:
                self.failures.append(f"{label}: {digest[:200]}")
            k += 1
        self.wall = perf() - start
        self.cpu = clock() - cpu_start


def _quantile_ms(times: list[float], q: int) -> float:
    """The q-th percentile in ms (Python's exclusive quantile method)."""
    if len(times) == 1:
        return times[0] * 1e3
    return statistics.quantiles(times, n=100)[q - 1] * 1e3


def per_case_times(loop: Loop) -> dict[int, float]:
    """One latency per distinct case: the median over its repeats.

    A run that wraps around its case list (every cli-reports run past its
    first pass) would otherwise weight the repeated cases by how many
    passes the clock allowed."""
    by_case: dict[int, list[float]] = {}
    n_cases = len(loop.job.cases)
    for k, t in enumerate(loop.times):
        by_case.setdefault(k % n_cases, []).append(t)
    return {idx: statistics.median(ts) for idx, ts in by_case.items()}


def cold_setups(workload: str, seed: int, count: int) -> list[float]:
    """Set-up CPU time (import and set-up) of `count` fresh processes,
    one after the other."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(seed),
        "--setup-only",
    ]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _die(f"a --setup-only child exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def end_to_end(loop: Loop, setup_s: list[float]) -> dict:
    """Every end-to-end metric as {"value", "unit", "n"}."""
    n = len(loop.times)
    by_case = per_case_times(loop)
    distinct = list(by_case.values())
    out = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "cases_per_s": (n / loop.cpu, n),
        "case_ms_p50": (statistics.median(distinct) * 1e3, len(distinct)),
        "case_ms_p90": (_quantile_ms(distinct, 90), len(distinct)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }
    detail = {
        k: {"value": v, "unit": END_TO_END_UNITS[k], "n": c} for k, (v, c) in out.items()
    }
    for kind in sorted(set(loop.kinds) & {"compose", "apply"}):
        ts = [t for idx, t in by_case.items() if loop.kinds[idx] == kind]
        detail[f"{kind}_ms_p50"] = {
            "value": statistics.median(ts) * 1e3,
            "unit": "ms",
            "n": len(ts),
        }
    detail["failed_frac"] = {
        "value": len(loop.failures) / n,
        "unit": "fraction",
        "n": n,
    }
    return detail


# ---------------------------------------------------------------------------


def record_golden(workloads, name: str):
    """Write the golden files for one workload at the default seed."""
    job = workloads.WORKLOADS[name](DEFAULT_SEED)
    count = DIGEST_CASES.get(name, len(job.cases))
    reports = os.path.join(GOLDEN_DIR, name)
    digests = {}
    for idx in range(count):
        label = job.labels[idx]
        _, result, ok = job.run(job.cases[idx])
        if not ok:
            _die(f"not recording goldens: case {label} failed its verdict")
        digests[label] = case_digest(result)
        if isinstance(result, str):
            os.makedirs(reports, exist_ok=True)
            with open(os.path.join(reports, f"{label}.json"), "w") as fh:
                fh.write(result)
    data = {
        "seed": DEFAULT_SEED,
        "case_digests": digests,
        "output_digest": output_digest(list(digests.values())),
    }
    with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="import and set up, print the time as JSON, and exit",
    )
    p.add_argument(
        "--record-golden",
        action="store_true",
        help="write perfbench/golden/ for this workload at the default seed",
    )
    args = p.parse_args(argv)

    workloads, tracer_mod = _import_library()
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.record_golden:
        record_golden(workloads, args.workload)
        return 0

    job = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = [time.process_time() - T_START]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_times[0]}))
        return 0
    if not args.trace:
        setup_times += cold_setups(args.workload, args.seed, SETUP_PROCESSES - 1)
    golden = Golden(args.workload, args.seed)
    whole = args.workload in workloads.WHOLE_PASSES
    min_cases = DIGEST_CASES.get(args.workload, len(job.cases))

    loop = Loop(job, golden, min_cases, whole)
    loop.run(args.seconds / 2 if args.trace else args.seconds)
    loops = [loop]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        tr = tracer_mod.Tracer()
        traced = Loop(job, golden, min_cases, whole)
        tr.install()
        try:
            traced.run(0.0, limit=len(loop.times), tracer=tr)
        finally:
            tr.uninstall()
        loops.append(traced)
        overhead = traced.wall - loop.wall
        values = tr.metrics(overhead, loop.wall)
        units = tracer_mod.metric_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tr.write_spans(spans_path)
        detail["spans"] = {
            "path": os.path.relpath(spans_path, ROOT),
            "recorded": tr.n_spans,
            "kept": len(tr.sp_fn),
        }
        detail["untraced_s"] = loop.wall
        detail["traced_s"] = traced.wall
    else:
        metrics_detail = end_to_end(loop, setup_times)
        detail["metrics"] = metrics_detail
        metrics = {
            k: {"value": metrics_detail[k]["value"], "unit": END_TO_END_UNITS[k]}
            for k in GATED
        }

    digest = output_digest(loop.digests)
    failures = [f for lp in loops for f in lp.failures]
    attempted = sum(len(lp.times) for lp in loops)
    failed = len(failures)
    if golden.at_default and digest != golden.output and not failures:
        # no case failed, so the golden file itself is missing or stale
        failures.append(f"output_digest {digest} != golden {golden.output}")
        failed = 1
    detail.update(
        {
            "output_digest": digest,
            "digest_cases": len(loop.digests),
            "golden_checked": golden.at_default,
            "attempted": attempted,
            "failed_cases": failures[:20],
            "env": environment(),
        }
    )
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
