"""Benchmark runner for metainfluence.

    python3 perfbench/run.py --workload exact-maml --seed 1 --seconds 42 --trace 0

Runs one workload as a closed loop: one client, one pipeline at a time, each
repetition in a fresh ``pipeline.py`` process whose BLAS thread variables are
pinned before numpy is imported. Repetitions continue until ``--seconds``
would be exceeded (at least MIN_REPS of them). ``total_s`` is the slowest
repetition's time; the other values are medians over repetitions. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and prints the per-layer metrics
of the traced ones, plus the tracing overhead. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``attempted`` and ``failed`` count correctness checks over all repetitions,
so failed / attempted is the run's error rate. The span record of the last
traced repetition is kept under ``.perfbench-out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pipeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = tuple(pipeline.WORKLOADS)
MIN_REPS = 2
# a run must end within 180 s; leave room for the last repetition to finish
DEADLINE_S = 165.0
END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))
# Printed, not in the metrics object: the query stage lasts about a second, so
# on a shared machine its rate spreads more between runs than any bound allows.
QUERY = ("query_tasks_per_s", "1/s")


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, trace: int, work: Path, timeout: float) -> dict:
    """One pipeline in a fresh process; returns its parsed JSON result."""
    env = dict(os.environ)
    env.update({var: str(pipeline.BLAS_THREADS) for var in pipeline.THREAD_VARS})
    cmd = [
        sys.executable, str(HERE / "pipeline.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace), "--work", str(work),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"pipeline exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"pipeline exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# How repetitions are summarised. On a shared 2-vCPU Xeon VM the CPU ran at a
# base speed with boosts of up to 1.8x lasting 10-60 s. The median of two to
# four repetitions flips with the boosts, while the slowest repetition is the
# base-speed time: over two sets of 30 runs its spread between seeds was
# 0.03-0.17 against 0.12-0.26 for the median (README.md, "Noise").
SUMMARY = {"setup_s": median, "total_s": max, "peak_rss_mb": median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metainfluence pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "metainfluence" / "__init__.py").is_file():
        print(f"error: no metainfluence sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    # untraced repetitions feed the end-to-end metrics; traced ones the layers
    kinds = (0, 1) if args.trace else (0,)
    min_rounds = 1 if args.trace else MIN_REPS
    results: dict[int, list[dict]] = {0: [], 1: []}
    attempted = failed = 0
    errors = []
    rounds = 0
    while True:
        for kind in kinds:
            work = OUT / f"work-{os.getpid()}-{rounds}-{kind}"
            try:
                res = run_child(args.workload, args.seed, kind, work,
                                DEADLINE_S - (time.monotonic() - start))
            except ChildFailed as exc:
                attempted += 1
                failed += 1
                errors.append(str(exc))
                res = None
            finally:
                if kind and (work / "spans.json").exists():
                    shutil.copyfile(work / "spans.json", OUT / f"spans-{args.workload}-seed{args.seed}.json")
                shutil.rmtree(work, ignore_errors=True)
            if res is None:
                continue
            results[kind].append(res)
            attempted += len(res["checks"])
            failed += sum(not c["ok"] for c in res["checks"])
            for c in res["checks"]:
                if not c["ok"]:
                    errors.append(f"check {c['name']} failed: {c['detail']}")
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        if elapsed + per_round > DEADLINE_S or (rounds >= min_rounds and elapsed + per_round > args.seconds):
            break
        if errors and not results[0]:
            break

    untraced = results[0]
    if not untraced or (args.trace and not results[1]):
        for err in errors:
            print(f"error: {err}", file=sys.stderr)
        return 1

    if args.trace:
        layers = {}
        for name, (_, unit) in results[1][0]["layers"].items():
            # counts stay whole numbers: take the median element, not a mean of two
            pick = statistics.median_low if unit in ("count", "bytes") else median
            layers[name] = {"value": pick([r["layers"][name][0] for r in results[1]]), "unit": unit}
        layers["trace.overhead_s"] = {
            "value": median([r["total_s"] for r in results[1]]) - median([r["total_s"] for r in untraced]),
            "unit": "s",
        }
        metrics = layers
    else:
        metrics = {
            name: {"value": SUMMARY[name]([r[name] for r in untraced]), "unit": unit}
            for name, unit in END_TO_END
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(untraced)} untraced, {len(results[1])} traced")
    print(f"environment {json.dumps(untraced[0]['env'], sort_keys=True)}")
    for res in untraced:
        print("  rep " + "  ".join(f"{n} {res[n]:.4f}" for n, _ in END_TO_END + (QUERY,)))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"{QUERY[0]} {median([r[QUERY[0]] for r in untraced]):.6g} {QUERY[1]}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} checks failed)")
    for err in errors:
        print(f"  {err}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
