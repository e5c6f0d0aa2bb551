"""Check-level benchmark of focklab.

Usage (from the repository root):

    python3 bench/run.py --workload weyl-wide --seed 1 --seconds 15 --trace 0

Each workload is a closed loop of checks in one process: the next check
starts when the previous one has finished.  Checks run in rounds of a fixed
number; rounds repeat until the timed checks have used ``--seconds``.  With
``--trace 0`` the last line of standard output is the end-to-end result,
with ``--trace 1`` it carries the per-layer metrics of a traced run.  A
header line with the machine and code identity precedes it, and both are
also written to ``bench/results/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread everywhere: numpy's batched QR otherwise spreads over every
# core and the Monte Carlo workloads measure the thread pool, not the program.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS setting)

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_REPEATS = 3  # this process plus two fresh set-up-only processes
WARMUP_STREAM = 1
CHECK_STREAM = 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for repeats)")
    return parser.parse_args(argv)


def input_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index)))


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "focklab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def machine_header(args, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "checks_per_round": workload.checks_per_round,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def run_check(workload, inputs, timed: list):
    """Time one check; returns its outcome, or None when it raised."""
    start = time.perf_counter()
    try:
        outcome = workload.check(inputs)
    except Exception:
        traceback.print_exc()
        return None
    timed.append(time.perf_counter() - start)
    report_misses(outcome.misses())
    return outcome


def reference_misses(workload, inputs, outcome) -> list:
    """Rerun a check by the reference route; its estimates must match bit for bit."""
    reference = workload.reference(inputs)
    misses = reference.misses()
    if _bits(outcome.values) != _bits(reference.values):
        misses.append(("estimates_equal_reference_bitwise", 1.0, 0.0))
    report_misses(misses)
    return misses


def report_misses(misses) -> None:
    for identity, value, limit in misses:
        print(f"check missed: {identity} = {value!r} > {limit!r}", file=sys.stderr)


def _bits(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def _child(args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--seed", str(args.seed), *extra]


def repeat_setups(args) -> list[float]:
    """Set-up time of fresh processes, one after another."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            _child(args, "--workload", args.workload, "--setup-only"),
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up repeat exited with {done.returncode}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_all(args, names) -> int:
    """Run every workload in turn, in fresh processes, and print one summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            _child(args, "--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace)),
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        header, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
        if name == names[0]:
            print(json.dumps(header))
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:14.6g} {entry['unit']}")
            merged["metrics"][f"{name}.{metric}"] = entry
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "focklab" / "__init__.py").is_file():
        print(f"focklab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    warmup = run_check(workload, workload.draw(input_rng(args.seed, WARMUP_STREAM, 0)), [])
    if warmup is None:
        return 1
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is not None:
        tracer.reset()
    check_s: list[float] = []
    round_s: list[float] = []
    attempted = failed = 0
    missed = len(warmup.misses())
    pending = []  # (inputs, outcome) awaiting the reference route
    first_round_counts = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    # a check that raises adds no timed seconds, so wall time also ends the loop
    while not round_s or (sum(round_s) < args.seconds and time.perf_counter() - wall0 < 3 * args.seconds):
        before = len(check_s)
        for _ in range(workload.checks_per_round):
            inputs = workload.draw(input_rng(args.seed, CHECK_STREAM, attempted))
            attempted += 1
            outcome = run_check(workload, inputs, check_s)
            if outcome is None:
                failed += 1
                continue
            missed += len(outcome.misses())
            if workload.reference is not None:
                pending.append((inputs, outcome))
        round_s.append(sum(check_s[before:]))
        if tracer is not None and first_round_counts is None:
            first_round_counts = dict(tracer.counts)
    cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    usage = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    peak_rss_mb = max(usage) / 1024.0
    # references run after the peak is read, untraced, so neither their time
    # nor their memory enters the metrics
    if tracer is not None:
        tracer.disable()
    for inputs, outcome in pending:
        missed += len(reference_misses(workload, inputs, outcome))

    header = machine_header(args, workload)
    header["cpu_per_wall"] = cpu_per_wall
    detail = {"rounds": len(round_s), "round_s": round_s, "check_ms": [t * 1e3 for t in check_s]}
    if tracer is None:
        setups = [setup_s] + repeat_setups(args)
        detail["setup_s"] = setups
        metrics = {
            "wall_s": (statistics.median(round_s), "s"),
            "check_p50_ms": (statistics.median(check_s) * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        rounds = len(round_s)
        metrics = {name: (value / rounds, "s")
                   for name, value in tracing.self_time_metrics(tracer.self_s).items()}
        metrics.update({name: (first_round_counts.get(name, 0), "count")
                        for name in tracing.COUNT_METRICS})
        metrics["traced.wall_s"] = (statistics.median(round_s), "s")
        detail["spans"] = tracer.span_table()
    result = {
        "correct": missed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"header": header, "result": result, "detail": detail}, indent=1))
    print(json.dumps({"header": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
