"""One benchmark pipeline in one process: set up, run, check, report.

Run from the root of a checkout:

    python3 perfbench/pipeline.py --workload exact-maml --seed 1 --trace 0 --work DIR

``run.py`` starts this script in a fresh process per repetition, with the
BLAS thread variables set before numpy is imported. It prints one JSON
line: the timings, the peak resident memory, every correctness check, the
environment and, with ``--trace 1``, the per-layer metrics of the span
recorder (``spans.py``) plus the full span record written to ``--work``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Shapes scaled down from the acceptance criteria so that one pipeline takes
# a few seconds on a 2-core machine; each keeps its dominant layer dominant.
# exact-maml keeps a count, not "positive": at this scale "positive" also keeps
# near-null positive finite-difference eigenvalues, whose 1/lambda dominates H+
# and broke self-rank on 5 of 12 seeds.
EXACT_MAML = {
    "widths": (20, 14, 5), "tasks": 16, "test": 3000, "steps": 200, "meta_batch": 32, "lr": 3e-3,
    "keep": 128,
}
GN_MAML = {
    "widths": (32, 32, 5), "tasks": 64, "test": 3000, "steps": 150, "meta_batch": 32, "lr": 1e-3,
    "capacity": 256,
}
CLI_PROTONET = {
    "widths": [16, 16, 8],
    "train": 16,
    "noise": 8,
    "augment": 2,
    "test": 1000,
    "steps": 100,
    "meta_batch": 16,
    "capacity": 32,
    "alphas": [0.0, 0.25, 0.5, 0.75, 1.0],
    "ratios": [0.0, 0.5, 1.0],
}
CLI_STAGES = ("train", "hessian", "influence", "experiment")
CLI_EXPERIMENTS = ("self_rank", "degradation", "distribution_distinction")

# self-rank bar of acceptance criterion 5
MIN_FRACTION_RANK0 = 0.9
REFERENCE_FILE = HERE / "reference.json"
# Relative distance allowed between a score table and its stored reference.
# Perturbing the trained parameters by 1e-13 relative moves the tables by at
# most 1e-10, so this admits any rounding-level change and rejects a changed
# formula.
REFERENCE_TOL = 1e-4
REFERENCE_SAMPLE = 32


def _seeds(seed: int, count: int) -> list[int]:
    """Distinct non-negative integer seeds derived from the workload seed."""
    return [seed * 100 + k for k in range(1, count + 1)]


# --- score-table reference --------------------------------------------------------


def table_digest(scores) -> dict:
    """Frobenius norm plus a fixed sample of entries of a score table."""
    import numpy as np

    scores = np.asarray(scores, dtype=float)
    flat = scores.ravel()
    pick = np.random.default_rng(list(scores.shape)).choice(
        flat.size, size=min(REFERENCE_SAMPLE, flat.size), replace=False
    )
    pick.sort()
    return {
        "shape": list(scores.shape),
        "fro": float(np.linalg.norm(flat)),
        "index": [int(i) for i in pick],
        "sample": [float(v) for v in flat[pick]],
    }


def reference_check(workload: str, seed: int, scores) -> tuple[str, bool, str] | None:
    """Compare a score table with the stored reference; None if none is stored."""
    import numpy as np

    with open(REFERENCE_FILE) as fh:
        ref = json.load(fh)["workloads"].get(workload, {}).get(str(seed))
    if ref is None:
        return None
    got = table_digest(scores)
    if got["shape"] != ref["shape"] or got["index"] != ref["index"]:
        return ("reference_scores", False, f"shape {got['shape']} != reference {ref['shape']}")
    d_fro = abs(got["fro"] - ref["fro"]) / max(ref["fro"], 1e-300)
    s_ref = np.asarray(ref["sample"])
    d_sample = float(np.linalg.norm(np.asarray(got["sample"]) - s_ref) / max(np.linalg.norm(s_ref), 1e-300))
    ok = d_fro <= REFERENCE_TOL and d_sample <= REFERENCE_TOL
    return ("reference_scores", bool(ok), f"rel diff {max(d_fro, d_sample):.3g} <= {REFERENCE_TOL:g}")


# --- synthetic MAML workloads ---------------------------------------------------


def _maml_setup(seed: int, shape: dict) -> dict:
    import numpy as np

    import metainfluence as mi

    s_tasks, s_test, s_init, s_train = _seeds(seed, 4)
    spec = mi.MlpSpec(shape["widths"], "tanh")

    def tasks(count, task_seed, prefix):
        dist = mi.TaskDistributionSpec(
            "clustered", spec.input_dim, spec.num_classes, 5, 5,
            class_center_scale=1.0, within_class_noise=0.4, seed=task_seed,
        )
        return mi.sample_taskset(dist, count, id_prefix=prefix)

    learner = mi.Learner("maml", spec, 0.01)
    return {
        "mp0": mi.MetaParams(spec.init_weights(np.random.default_rng(s_init), 1.0), learner),
        "tasks": tasks(shape["tasks"], s_tasks, "train"),
        "test_tasks": tasks(shape["test"], s_test, "test"),
        "cfg": mi.MetaTrainConfig(
            steps=shape["steps"], meta_batch=shape["meta_batch"], lr=shape["lr"], seed=s_train
        ),
    }


def _exact_curvature(mp, tasks):
    from metainfluence import hessian

    rep = hessian.exact_meta_hessian(mp, tasks)
    return rep, hessian.invert(rep, EXACT_MAML["keep"])


def _gn_curvature(mp, tasks):
    from metainfluence import hessian

    rep = hessian.accumulate_gn(mp, tasks, capacity=GN_MAML["capacity"])
    return rep, hessian.invert(rep, "all")


def _maml_pipeline(curvature):
    """Train, build and invert curvature, self-rank, then score the held-out tasks."""

    def run(state: dict, rec) -> dict:
        from metainfluence import experiments, influence, metalearn

        tasks = state["tasks"]
        mp, _ = metalearn.meta_train(state["mp0"], tasks, state["cfg"])
        rep, inv = curvature(mp, tasks)
        report = experiments.run_self_rank(mp, inv, tasks)
        t_query = time.perf_counter()
        table = influence.score_table(mp, inv, tasks, state["test_tasks"])
        query_s = time.perf_counter() - t_query
        return {"rep": rep, "report": report, "table": table,
                "query_tasks": len(state["test_tasks"]), "query_s": query_s}

    return run


def _maml_checks(workload: str, seed: int, state: dict, out: dict) -> tuple[list, object]:
    import numpy as np

    rep, report, scores = out["rep"], out["report"], out["table"].scores
    curvature = rep.matrix if rep.variant == "dense" else rep.factor.columns
    frac = report.summary["fraction_rank0"]
    self_scores = np.array([r["self_score"] for r in report.rows])
    checks = [
        ("curvature_finite", bool(np.all(np.isfinite(curvature))), f"shape {curvature.shape}"),
        ("self_scores_finite", bool(np.all(np.isfinite(self_scores))), f"{self_scores.size} tasks"),
        ("fraction_rank0", frac >= MIN_FRACTION_RANK0, f"{frac:.4f} >= {MIN_FRACTION_RANK0}"),
        (
            "query_scores_complete_and_finite",
            scores.shape == (len(state["test_tasks"]), len(state["tasks"]))
            and bool(np.all(np.isfinite(scores))),
            f"shape {scores.shape}",
        ),
    ]
    ref = reference_check(workload, seed, scores)
    return checks + ([ref] if ref else []), scores


# --- staged CLI workload ---------------------------------------------------------


def _cli_config(seed: int) -> dict:
    s = _seeds(seed, 9)
    shape = CLI_PROTONET
    return {
        "model": {"layer_widths": shape["widths"], "activation": "tanh"},
        "learner": {"kind": "protonet"},
        "tasksets": {
            "train": {
                "kind": "clustered", "count": shape["train"], "feature_dim": shape["widths"][0],
                "n_ways": 5, "k_support": 5, "k_query": 5, "within_class_noise": 0.4, "seed": s[0],
            },
            "noise": {"count": shape["noise"], "seed": s[1]},
            "test": {"count": shape["test"], "seed": s[2]},
            "augment": {"count": shape["augment"], "transform_scale": 1.0, "seed": s[3]},
            "mix_seed": s[4],
        },
        "train": {
            "steps": shape["steps"], "meta_batch": shape["meta_batch"], "lr": 0.005,
            "seed": s[5], "init_seed": s[6],
        },
        "hessian": {"method": "gn", "capacity": shape["capacity"], "keep": "all"},
        "experiments": {
            "run": list(CLI_EXPERIMENTS),
            "degradation": {"alphas": shape["alphas"], "ratios": shape["ratios"], "seed": s[7]},
        },
    }


def _cli_stage(state: dict, stage: str, rec) -> None:
    from metainfluence import cli

    args = ["--config", str(state["config"]), "--out", str(state["out"]), stage]
    err = io.StringIO()
    span = rec.span(f"cli.{stage}") if rec else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    state["stage_s"][stage] = time.perf_counter() - t0
    state["exit"][stage] = (code, err.getvalue().strip())


def _cli_setup(seed: int, work: Path, rec) -> dict:
    import metainfluence  # noqa: F401  (import cost belongs to set-up)

    out = work / "cli-out"
    config = work / "config.json"
    config.write_text(json.dumps(_cli_config(seed), indent=1))
    state = {"config": config, "out": out, "stage_s": {}, "exit": {}}
    _cli_stage(state, "gen", rec)
    return state


def _cli_run(state: dict, rec) -> dict:
    for stage in CLI_STAGES:
        _cli_stage(state, stage, rec)
    return {
        "query_tasks": CLI_PROTONET["test"],
        "query_s": state["stage_s"]["influence"],
    }


def _read_scores_csv(path: Path):
    import numpy as np

    tests: dict[str, int] = {}
    trains: dict[str, int] = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("test_id,"):
                continue
            tid, jid, score, _ = line.rstrip("\n").split(",")
            # numpy 2 writes the repr of a numpy scalar: np.float64(-0.07...)
            score = score.removeprefix("np.float64(").removesuffix(")")
            rows.append((tests.setdefault(tid, len(tests)), trains.setdefault(jid, len(trains)), float(score)))
    scores = np.full((len(tests), len(trains)), np.nan)
    for i, j, v in rows:
        scores[i, j] = v
    return scores


def _cli_checks(workload: str, seed: int, state: dict, out: dict) -> tuple[list, object]:
    import numpy as np

    from metainfluence import cli

    checks = [
        (f"exit_{stage}", code == cli.EXIT_OK, f"exit {code} {msg}".strip())
        for stage, (code, msg) in state["exit"].items()
    ]
    report_path = state["out"] / "report.json"
    results = json.loads(report_path.read_text())["results"] if report_path.exists() else {}
    checks.append(
        ("report_has_experiments", sorted(results) == sorted(CLI_EXPERIMENTS), f"{sorted(results)}")
    )
    tests = results.get("distribution_distinction", {}).get("results", {}).get("counts", {}).get("tests")
    checks.append(("distinction_counts_all_tests", tests == CLI_PROTONET["test"], f"{tests} tests"))
    scores_path = state["out"] / "scores.csv"
    scores = _read_scores_csv(scores_path) if scores_path.exists() else np.zeros((0, 0))
    n_train = (CLI_PROTONET["train"] + CLI_PROTONET["noise"]) * CLI_PROTONET["augment"]
    checks.append(
        (
            "scores_complete_and_finite",
            scores.shape == (CLI_PROTONET["test"], n_train) and bool(np.all(np.isfinite(scores))),
            f"shape {scores.shape}",
        )
    )
    ref = reference_check(workload, seed, scores) if scores.size else None
    return checks + ([ref] if ref else []), scores


def _artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


# name -> (setup(seed, work, rec), run(state, rec), checks(workload, seed, state, out))
WORKLOADS = {
    "exact-maml": (
        lambda seed, work, rec: _maml_setup(seed, EXACT_MAML),
        _maml_pipeline(_exact_curvature),
        _maml_checks,
    ),
    "gn-maml": (
        lambda seed, work, rec: _maml_setup(seed, GN_MAML),
        _maml_pipeline(_gn_curvature),
        _maml_checks,
    ),
    "cli-protonet-query": (_cli_setup, _cli_run, _cli_checks),
}


# --- per-layer metrics -------------------------------------------------------------


def _after_hooks() -> dict:
    import numpy as np

    def hvp(rec, args, kwargs, out):
        v = kwargs["v"] if "v" in kwargs else args[3]
        rec.tally("model.hvp.dirs", 1 if np.ndim(v) == 1 else np.shape(v)[1])

    def invert(rec, args, kwargs, out):
        rec.tally("hessian.invert.retained", out.retained)
        rec.tally("hessian.invert.dim", out.dim)

    def orthogonalize(rec, args, kwargs, out):
        cols = (kwargs["cols"] if "cols" in kwargs else args[0]).columns
        rec.tally("linalg.orthogonalize_keep_largest.cols_in", cols.shape[1])
        rec.tally("linalg.orthogonalize_keep_largest.cols_out", out.ncols)
        rec.tally("linalg.orthogonalize_keep_largest.trace_in", float(np.einsum("ij,ij->", cols, cols)))
        rec.tally(
            "linalg.orthogonalize_keep_largest.trace_out",
            float(np.einsum("ij,ij->", out.columns, out.columns)),
        )

    return {
        "model.hvp": hvp,
        "hessian.invert": invert,
        "linalg.orthogonalize_keep_largest": orthogonalize,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, state: dict) -> dict:
    """Per-layer metrics, named <module>.<function>.<stat>, from a finished recorder."""
    t = rec.tallies
    m = {}
    for name in ("model.grad", "model.loss_and_grad", "model.hvp", "model.output_jacobian",
                 "metalearn.meta_grad", "metalearn.meta_output_jacobian",
                 "hessian.gn_columns_for_task", "linalg.orthogonalize_keep_largest",
                 "linalg.psd_sqrt_small", "linalg.eigh_symmetric", "influence.influence_meta",
                 "influence.score_pairs", "influence.rank_rows"):
        m[f"{name}.calls"] = (rec.calls(name), "count")
        m[f"{name}.self_s"] = (rec.self_s(name), "s")
    m["model.hvp.dirs"] = (int(t.get("model.hvp.dirs", 0)), "count")
    for name in ("metalearn.meta_train", "hessian.exact_meta_hessian", "hessian.accumulate_gn",
                 "hessian.invert"):
        m[f"{name}.s"] = (rec.inclusive_s(name), "s")
        m[f"{name}.self_s"] = (rec.self_s(name), "s")
    m["hessian.exact_meta_hessian.calls"] = (rec.calls("hessian.exact_meta_hessian"), "count")
    for parent, child in (("hessian.exact_meta_hessian", "model.hvp"),
                          ("hessian.exact_meta_hessian", "model.grad"),
                          ("hessian.accumulate_gn", "linalg.orthogonalize_keep_largest"),
                          ("hessian.accumulate_gn", "linalg.psd_sqrt_small")):
        m[f"{parent}.{child}.calls"] = (rec.calls(child, under=parent), "count")
    m["hessian.invert.retained_frac"] = (
        _ratio(t.get("hessian.invert.retained", 0), t.get("hessian.invert.dim", 0)), "fraction",
    )
    okl = "linalg.orthogonalize_keep_largest"
    m[f"{okl}.kept_frac"] = (_ratio(t.get(f"{okl}.cols_out", 0), t.get(f"{okl}.cols_in", 0)), "fraction")
    m[f"{okl}.dropped_trace_frac"] = (
        _ratio(t.get(f"{okl}.trace_in", 0) - t.get(f"{okl}.trace_out", 0), t.get(f"{okl}.trace_in", 0)),
        "fraction",
    )
    for name in ("hessian.spectrum_summary", "influence.save_influence_records",
                 "influence.load_influence_records", "influence.ScoreTable.to_csv",
                 "experiments.run_self_rank", "experiments.run_degradation",
                 "experiments.run_distribution_distinction", "experiments.write_report",
                 "taskgen.sample_taskset", "taskgen.save_taskset", "taskgen.load_taskset"):
        m[f"{name}.s"] = (rec.inclusive_s(name), "s")
    m["taskgen.load_taskset.calls"] = (rec.calls("taskgen.load_taskset"), "count")
    for stage in ("gen",) + CLI_STAGES:
        m[f"cli.{stage}.s"] = (rec.inclusive_s(f"cli.{stage}"), "s")
    out = state.get("out") if isinstance(state, dict) else None
    m["cli.artifact_bytes"] = (_artifact_bytes(out) if out and out.exists() else 0, "bytes")
    return m


# --- entry point ---------------------------------------------------------------------


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="working directory for this process")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "metainfluence" / "__init__.py").is_file():
        print(f"error: no metainfluence sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(BLAS_THREADS))
    sys.path.insert(0, str(SRC))
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    import metainfluence

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        rec.install(_after_hooks())
    setup, run, check = WORKLOADS[args.workload]
    state = setup(args.seed, work, rec)
    t_setup = time.perf_counter()
    out = run(state, rec)
    t_end = time.perf_counter()
    if rec:
        rec.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks, _ = check(args.workload, args.seed, state, out)
    result = {
        "workload": args.workload,
        "setup_s": t_setup - T_START,
        "total_s": t_end - t_setup,
        "peak_rss_mb": peak_rss_mb,
        "query_tasks_per_s": out["query_tasks"] / out["query_s"],
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "env": dict(environment(), seed=args.seed),
        "source": str(Path(metainfluence.__file__).resolve().parent),
    }
    if rec:
        result["layers"] = layer_metrics(rec, state)
        with open(work / "spans.json", "w") as fh:
            json.dump(rec.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
