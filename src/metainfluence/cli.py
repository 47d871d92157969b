"""Pipeline command line: gen -> train -> hessian -> influence -> experiment -> report.

Each stage persists its artifact under the output directory so expensive
stages are computed once and reused. All randomness comes from explicit
seeds in the JSON config; two runs of the same config produce byte-identical
artifacts on one platform.

Exit codes: 0 ok, 1 usage/config, 2 numerical failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


def _section(parent: dict, key: str) -> dict:
    """The object under ``key`` (empty when absent); any other JSON value is a ConfigError."""
    value = parent.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config entry {key!r} must be an object, not {type(value).__name__}")
    return value


def _setting(section: dict, key: str, default, convert):
    """``convert`` of the value under ``key``, or of ``default``; a rejected value is a ConfigError."""
    try:
        return convert(section.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value {key!r}: {exc}") from exc


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _ints(values) -> list[int]:
    return [int(v) for v in values]


@dataclass
class RunConfig:
    model: dict
    learner: dict
    tasksets: dict
    train: dict
    hessian: dict
    experiments: dict = field(default_factory=dict)
    output_dir: str = "out"

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, not {type(doc).__name__}")
        sections = ("model", "learner", "tasksets", "train", "hessian", "experiments")
        for key in sections[:-1]:
            if key not in doc:
                raise ConfigError(f"config is missing required section {key!r}")
        unknown = set(doc) - {*sections, "output_dir"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        output_dir = doc.get("output_dir", "out")
        if not isinstance(output_dir, str):
            raise ConfigError("output_dir must be a string")
        return RunConfig(**{key: _section(doc, key) for key in sections}, output_dir=output_dir)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(doc)


def _spec_from_config(cfg: RunConfig):
    from .model import MlpSpec

    mdl = cfg.model
    try:
        acts = mdl.get("activation", "tanh")
        return MlpSpec(tuple(mdl["layer_widths"]), tuple(acts) if isinstance(acts, list) else acts)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def _learner_from_config(cfg: RunConfig):
    from .metalearn import Learner

    try:
        return Learner(
            kind=cfg.learner["kind"],
            spec=_spec_from_config(cfg),
            inner_lr=float(cfg.learner.get("inner_lr", 0.01)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad learner section: {exc}") from exc


def _taskset_spec(section: dict, default_kind: str):
    from .taskgen import TaskDistributionSpec

    pool = section.get("center_pool_size")
    try:
        return TaskDistributionSpec(
            kind=section.get("kind", default_kind),
            feature_dim=int(section["feature_dim"]),
            n_ways=int(section["n_ways"]),
            k_support=int(section["k_support"]),
            k_query=int(section["k_query"]),
            class_center_scale=float(section.get("class_center_scale", 1.0)),
            within_class_noise=float(section.get("within_class_noise", 0.3)),
            seed=int(section["seed"]),
            center_pool_size=int(pool) if pool is not None else None,
            pool_seed=int(section.get("pool_seed", 0)),
        ), int(section["count"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad taskset section: {exc}") from exc


def _train_config(cfg: RunConfig):
    from .metalearn import MetaTrainConfig

    t = cfg.train
    try:
        return MetaTrainConfig(
            steps=int(t["steps"]),
            meta_batch=int(t.get("meta_batch", 32)),
            lr=float(t.get("lr", 1e-3)),
            beta1=float(t.get("beta1", 0.9)),
            beta2=float(t.get("beta2", 0.999)),
            eps=float(t.get("eps", 1e-8)),
            weight_decay=float(t.get("weight_decay", 0.0)),
            seed=int(t.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad train section: {exc}") from exc


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    out = Path(override) if override else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing prerequisite artifact {path}")
    return path


def cmd_gen(cfg: RunConfig, out: Path) -> None:
    from . import taskgen

    sections = cfg.tasksets
    if "train" not in sections:
        raise ConfigError("tasksets section needs a 'train' entry")
    train = _section(sections, "train")
    spec, count = _taskset_spec(train, "clustered")
    tasks = taskgen.sample_taskset(spec, count, id_prefix="train")
    if "noise" in sections:
        nspec, ncount = _taskset_spec({**train, **_section(sections, "noise"), "kind": "noise"}, "noise")
        noise = taskgen.sample_taskset(nspec, ncount, id_prefix="noise")
        tasks = taskgen.mix_tasksets(tasks, noise, _setting(sections, "mix_seed", 0, int))
    if "augment" in sections:
        aug = _section(sections, "augment")
        count_aug = _setting(aug, "count", 1, int)
        scale = _setting(aug, "transform_scale", 1.0, float)
        seed = _setting(aug, "seed", 0, int)
        tasks = [v for t in tasks for v in taskgen.augment_group(t, count_aug, scale, seed)]
    taskgen.save_taskset(out / "train_tasks.json", tasks, spec)
    print(f"wrote {len(tasks)} training tasks to {out / 'train_tasks.json'}")
    if "test" in sections:
        tspec, tcount = _taskset_spec({**train, **_section(sections, "test")}, "clustered")
        test_tasks = taskgen.sample_taskset(tspec, tcount, id_prefix="test")
        taskgen.save_taskset(out / "test_tasks.json", test_tasks, tspec)
        print(f"wrote {tcount} test tasks to {out / 'test_tasks.json'}")


def cmd_train(cfg: RunConfig, out: Path, taskset_path: str | None) -> None:
    from . import metalearn, taskgen
    from .metalearn import MetaParams

    tasks, _ = taskgen.load_taskset(_require(Path(taskset_path or out / "train_tasks.json")))
    learner = _learner_from_config(cfg)
    train_cfg = _train_config(cfg)
    import numpy as np

    init_seed = _setting(cfg.train, "init_seed", train_cfg.seed + 1, int)
    init_scale = _setting(cfg.train, "init_scale", 1.0, float)
    omega0 = learner.spec.init_weights(np.random.default_rng(init_seed), init_scale)
    mp0 = MetaParams(omega0, learner)
    mp, log = metalearn.meta_train(mp0, tasks, train_cfg)
    metalearn.save_params(out / "params.bin", mp)
    with open(out / "train_log.jsonl", "w") as fh:
        fh.write(log.to_jsonl())
    print(
        f"trained {train_cfg.steps} steps; final mean loss {log.final_loss:.6f}, "
        f"accuracy {log.final_accuracy:.4f}; wrote {out / 'params.bin'}"
    )


def cmd_hessian(cfg: RunConfig, out: Path, params_path: str | None, taskset_path: str | None) -> None:
    from . import hessian as hessian_mod
    from . import metalearn, taskgen
    from .experiments import canonical_json

    mp = metalearn.load_params(_require(Path(params_path or out / "params.bin")))
    tasks, _ = taskgen.load_taskset(_require(Path(taskset_path or out / "train_tasks.json")))
    method = cfg.hessian.get("method", "exact")
    if method == "exact":
        dense_cap = _setting(cfg.hessian, "dense_cap", hessian_mod.DENSE_CAP_DEFAULT, int)
        if mp.q > dense_cap:
            raise ConfigError(f"q={mp.q} exceeds dense cap {dense_cap} for method=exact")
        rep = hessian_mod.exact_meta_hessian(mp, tasks, dense_cap=dense_cap)
    elif method == "gn":
        capacity = _setting(cfg.hessian, "capacity", 1024, int)
        rep = hessian_mod.accumulate_gn(mp, tasks, capacity=capacity)
    else:
        raise ConfigError(f"unknown hessian method {method!r}")
    hessian_mod.save_hessian(out / "hessian.bin", rep)
    summary = hessian_mod.spectrum_summary(rep)
    with open(out / "spectrum.json", "w") as fh:
        fh.write(canonical_json(summary))
    print(json.dumps(summary, sort_keys=True))
    print(f"wrote {out / 'hessian.bin'}")


def _keep_from_config(cfg: RunConfig):
    keep = cfg.hessian.get("keep", "positive")
    if isinstance(keep, str) and keep not in ("positive", "all"):
        raise ConfigError(f"unknown keep rule {keep!r}")
    if isinstance(keep, bool) or not isinstance(keep, (str, int, float)):
        raise ConfigError(f"keep must be a count, threshold, or rule name, not {keep!r}")
    return keep


def _load_matching_hessian(path: Path, mp, tasks):
    """Load a stored Hessian and check it was built for these params and this taskset."""
    from . import hessian as hessian_mod

    rep = hessian_mod.load_hessian(_require(path))
    if rep.dim != mp.q:
        raise ConfigError(f"hessian dim {rep.dim} does not match params q {mp.q}")
    if rep.num_tasks != len(tasks):
        raise ConfigError(
            f"hessian {path} was built on {rep.num_tasks} tasks, "
            f"but the training taskset has {len(tasks)}"
        )
    return rep


def cmd_influence(cfg: RunConfig, out: Path, params_path, hessian_path, taskset_path, test_path) -> None:
    from . import hessian as hessian_mod
    from . import influence as influence_mod
    from . import metalearn, taskgen

    mp = metalearn.load_params(_require(Path(params_path or out / "params.bin")))
    tasks, _ = taskgen.load_taskset(_require(Path(taskset_path or out / "train_tasks.json")))
    rep = _load_matching_hessian(Path(hessian_path or out / "hessian.bin"), mp, tasks)
    test_file = Path(test_path) if test_path else out / "test_tasks.json"
    test_tasks = taskgen.load_taskset(test_file)[0] if test_file.exists() else tasks
    inv = hessian_mod.invert(rep, _keep_from_config(cfg))
    records = influence_mod.influence_records(inv, mp, tasks)
    influence_mod.save_influence_records(out / "influence.bin", records)
    table = influence_mod.score_table(mp, inv, tasks, test_tasks, records=records)
    table.to_csv(out / "scores.csv")
    print(
        f"wrote {len(records)} influence records and a "
        f"{len(table.test_ids)}x{len(table.train_ids)} score table to {out}"
    )


def cmd_experiment(cfg: RunConfig, out: Path) -> None:
    from . import experiments as exp
    from . import hessian as hessian_mod
    from . import metalearn, taskgen

    requested = cfg.experiments.get("run", [])
    if not isinstance(requested, list):
        raise ConfigError("experiments.run must be a list of experiment names")
    if not requested:
        exp.write_report(
            out / "report.json",
            {
                "schema_version": exp.REPORT_SCHEMA_VERSION,
                "kind": "empty",
                "config_echo": cfg.experiments,
                "results": {},
            },
        )
        print(f"no experiments requested; wrote empty report to {out / 'report.json'}")
        return
    mp = metalearn.load_params(_require(out / "params.bin"))
    tasks, _ = taskgen.load_taskset(_require(out / "train_tasks.json"))
    reports = {}
    inv = None

    def _inverse():
        nonlocal inv
        if inv is None:
            rep = _load_matching_hessian(out / "hessian.bin", mp, tasks)
            inv = hessian_mod.invert(rep, _keep_from_config(cfg))
        return inv

    for name in requested:
        if name == "self_rank":
            reports[name] = exp.run_self_rank(mp, _inverse(), tasks).to_dict()
        elif name == "degradation":
            d = _section(cfg.experiments, "degradation")
            reports[name] = exp.run_degradation(
                mp,
                _inverse(),
                tasks,
                alphas=_setting(d, "alphas", [0.0, 0.25, 0.5, 0.75, 1.0], _floats),
                ratios=_setting(d, "ratios", [0.0, 0.25, 0.5, 0.75, 1.0], _floats),
                seed=_setting(d, "seed", 0, int),
                alpha_fixed=_setting(d, "alpha_fixed", 1.0, float),
                ratio_fixed=_setting(d, "ratio_fixed", 1.0, float),
                parts=d.get("parts", "both"),
            ).to_dict()
        elif name == "distribution_distinction":
            test_file = out / "test_tasks.json"
            test_tasks = taskgen.load_taskset(_require(test_file))[0]
            reports[name] = exp.run_distribution_distinction(mp, _inverse(), tasks, test_tasks).to_dict()
        elif name == "exact_vs_gn":
            g = _section(cfg.experiments, "exact_vs_gn")
            reports[name] = exp.run_exact_vs_gn(
                mp,
                tasks,
                keep_grid=_setting(g, "keep_grid", [8, 16, 32], _ints),
                capacity_grid=_setting(g, "capacity_grid", [8, 16, 32], _ints),
            ).to_dict()
        else:
            raise ConfigError(f"unknown experiment {name!r}")
    exp.write_report(
        out / "report.json",
        {
            "schema_version": exp.REPORT_SCHEMA_VERSION,
            "kind": "experiment_suite",
            "config_echo": cfg.experiments,
            "results": reports,
        },
    )
    print(f"wrote report with {len(reports)} experiment(s) to {out / 'report.json'}")


def cmd_report(out: Path, report_path: str | None, csv: bool) -> None:
    path = _require(Path(report_path or out / "report.json"))
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("results", {}), dict):
        raise ValueError(f"{path} is not a report: it is not an object with an object under 'results'")
    results = doc.get("results", {})
    print(f"report kind: {doc.get('kind')}  schema v{doc.get('schema_version')}")
    for name, rep in results.items():
        kind = rep.get("kind", name) if isinstance(rep, dict) else name
        print(f"- {name} ({kind})")
        res = rep.get("results", {}) if isinstance(rep, dict) else {}
        if "summary" in res:
            print(f"    summary: {json.dumps(res['summary'], sort_keys=True)}")
        if "counts" in res:
            print(f"    counts: {json.dumps(res['counts'], sort_keys=True)}")
            print(
                f"    p_value_mean={res.get('p_value_mean')!r} "
                f"p_value_median={res.get('p_value_median')!r}"
            )
        if "rows_max_adjacent_fraction" in res:
            print(f"    rows_max_adjacent_fraction: {res['rows_max_adjacent_fraction']}")
        for key in ("alpha", "ratio"):
            if key in res:
                sweep = res[key]
                print(
                    f"    {key}: rank_corr {sweep['rank_corr_mean']} +- {sweep['rank_corr_std']} "
                    f"(excluded {sweep['rank_corr_excluded']}), "
                    f"score_corr {sweep['score_corr_mean']} +- {sweep['score_corr_std']}"
                )
    if csv:
        _flatten_report_csv(results, path)
        print(f"wrote CSV tables next to {path}")


def _flatten_report_csv(results: dict, path: Path) -> None:
    for name, rep in results.items():
        res = rep.get("results", {}) if isinstance(rep, dict) else {}
        rows = res.get("per_test") or res.get("cells")
        if not rows:
            continue
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ValueError(f"{path} is not a report: the rows of {name!r} are not JSON objects")
        keys = sorted({k for row in rows for k in row})
        target = path.parent / f"report_{name}.csv"
        with open(target, "w", newline="") as fh:
            fh.write(",".join(keys) + "\n")
            for row in rows:
                fh.write(",".join(_csv_cell(row.get(k)) for k in keys) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return '"' + json.dumps(value) + '"'
    return str(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metainfluence",
        description="Task-level influence pipeline for meta-learned classifiers",
    )
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    parser.add_argument("--seed", type=int, default=None, help="override the training seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", help="generate taskset files")
    p = sub.add_parser("train", help="meta-train and persist parameters")
    p.add_argument("--taskset", default=None)
    p = sub.add_parser("hessian", help="build and persist the curvature representation")
    p.add_argument("--params", default=None)
    p.add_argument("--taskset", default=None)
    p = sub.add_parser("influence", help="compute influence records and the score table")
    p.add_argument("--params", default=None)
    p.add_argument("--hessian", default=None)
    p.add_argument("--taskset", default=None)
    p.add_argument("--test-taskset", default=None)
    sub.add_parser("experiment", help="run the configured experiment protocols")
    p = sub.add_parser("report", help="summarize a report JSON")
    p.add_argument("--report", default=None)
    p.add_argument("--csv", action="store_true", help="also flatten tables to CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.train = dict(cfg.train, seed=args.seed)
        out = _out_dir(cfg, args.out)
        if args.command == "gen":
            cmd_gen(cfg, out)
        elif args.command == "train":
            cmd_train(cfg, out, args.taskset)
        elif args.command == "hessian":
            cmd_hessian(cfg, out, args.params, args.taskset)
        elif args.command == "influence":
            cmd_influence(cfg, out, args.params, args.hessian, args.taskset, args.test_taskset)
        elif args.command == "experiment":
            cmd_experiment(cfg, out)
        elif args.command == "report":
            cmd_report(out, args.report, args.csv)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
