"""Regenerate the stored score-table references in reference.json.

    python3 perfbench/make_reference.py --workload gn-maml --seeds 0-31

For each workload and seed this runs the pipeline once in-process, keeps the
digest of its score table (see ``pipeline.table_digest``) and merges it into
``reference.json``. Regenerate only when a change is meant to move the
scores by more than ``pipeline.REFERENCE_TOL``, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-31")
    args = parser.parse_args(argv)

    import pipeline

    for var in pipeline.THREAD_VARS:
        os.environ.setdefault(var, str(pipeline.BLAS_THREADS))
    sys.path.insert(0, str(pipeline.SRC))
    work = HERE.parent / ".perfbench-out" / f"reference-{os.getpid()}"
    digests: dict[str, dict] = {}
    for name in args.workload:
        setup, run, check = pipeline.WORKLOADS[name]
        for seed in args.seeds:
            work.mkdir(parents=True, exist_ok=True)
            state = setup(seed, work, None)
            checks, scores = check(name, seed, state, run(state, None))
            failed = [c for c in checks if not c[1] and c[0] != "reference_scores"]
            if failed:
                print(f"{name} seed {seed}: checks failed {failed}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = pipeline.table_digest(scores)
            print(f"{name} seed {seed}: {scores.shape} table, fro {digests[name][str(seed)]['fro']:.6g}")
    shutil.rmtree(work, ignore_errors=True)
    with open(pipeline.REFERENCE_FILE, "r+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        doc = json.load(fh)
        for name, by_seed in digests.items():
            doc["workloads"].setdefault(name, {}).update(by_seed)
            doc["workloads"][name] = dict(sorted(doc["workloads"][name].items(), key=lambda kv: int(kv[0])))
        doc["environment"] = pipeline.environment()
        fh.seek(0)
        fh.truncate()
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
