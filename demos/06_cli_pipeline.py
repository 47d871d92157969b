"""The staged command-line pipeline, driven end to end.

Each stage persists an artifact (taskset JSON, parameter and curvature
binaries, influence records, score CSV, report JSON) in the output
directory, so any stage can be rerun or reused without recomputing the
previous ones. Running the whole pipeline twice with one config produces
byte-identical artifacts.

Run:  python3 demos/06_cli_pipeline.py   (~1 minute)
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = {
    "model": {"layer_widths": [12, 10, 4], "activation": "tanh"},
    "learner": {"kind": "maml", "inner_lr": 0.05},
    "tasksets": {
        "train": {
            "kind": "clustered",
            "count": 12,
            "feature_dim": 12,
            "n_ways": 4,
            "k_support": 5,
            "k_query": 5,
            "within_class_noise": 0.35,
            "seed": 11,
        },
        "noise": {"count": 4, "seed": 13},
        "test": {"count": 6, "seed": 17},
        "mix_seed": 19,
    },
    "train": {"steps": 150, "meta_batch": 8, "lr": 0.005, "seed": 23, "init_seed": 29},
    "hessian": {"method": "exact", "keep": "positive"},
    "experiments": {"run": ["self_rank", "distribution_distinction"]},
}


def run_stage(config_path, out_dir, *args):
    cmd = [sys.executable, "-m", "metainfluence.cli", "--config", str(config_path), "--out", str(out_dir), *args]
    print(f"$ metainfluence --out {Path(out_dir).name} {' '.join(args)}")
    result = subprocess.run(cmd, capture_output=True, text=True)
    for line in result.stdout.strip().splitlines():
        print(f"  {line}")
    if result.returncode != 0:
        print(result.stderr, file=sys.stderr)
        raise SystemExit(result.returncode)


def digest_dir(path):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(path).iterdir())
    }


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    config_path = tmp / "config.json"
    config_path.write_text(json.dumps(CONFIG, indent=1))

    for out_name in ("run_a", "run_b"):
        out = tmp / out_name
        for stage in ("gen", "train", "hessian", "influence", "experiment"):
            run_stage(config_path, out, stage)
        run_stage(config_path, out, "report")

    a, b = digest_dir(tmp / "run_a"), digest_dir(tmp / "run_b")
    assert a == b, "artifact hashes differ between identical runs"
    print(f"\nboth runs produced byte-identical artifacts ({len(a)} files):")
    for name, digest in a.items():
        print(f"  {digest[:16]}  {name}")
