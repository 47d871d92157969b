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


def _verbatim(value):
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, not {type(value).__name__}")
    return value


def _activation(value):
    return tuple(value) if isinstance(value, list) else value


def _optional_int(value) -> int | None:
    return None if value is None else int(value)


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _names(values) -> list:
    if not isinstance(values, list):
        raise TypeError(f"expected a list of experiment names, not {type(values).__name__}")
    return values


def _keep(keep):
    if isinstance(keep, str) and keep not in ("positive", "all"):
        raise ValueError(f"unknown keep rule {keep!r}")
    if isinstance(keep, bool) or not isinstance(keep, (str, int, float)):
        raise TypeError(f"keep must be a count, threshold, or rule name, not {keep!r}")
    return keep


_TASKSET_KEYS = {
    "kind": _verbatim, "count": int, "feature_dim": int, "n_ways": int, "k_support": int, "k_query": int,
    "class_center_scale": float, "within_class_noise": float, "seed": int,
    "center_pool_size": _optional_int, "pool_seed": int,
}

# Every key a config may set, with the converter its value goes through; a
# nested table is a subsection. A key the config leaves out stays out, so the
# dataclass or function it configures applies its own default.
CONFIG_KEYS = {
    "model": {"layer_widths": tuple, "activation": _activation},
    "learner": {"kind": _verbatim, "inner_lr": float},
    "tasksets": {
        "train": _TASKSET_KEYS,
        "noise": _TASKSET_KEYS,
        "test": _TASKSET_KEYS,
        "augment": {"count": int, "transform_scale": float, "seed": int},
        "mix_seed": int,
    },
    "train": {
        "steps": int, "meta_batch": int, "lr": float, "weight_decay": float, "seed": int, "init_seed": int,
    },
    "hessian": {"method": _verbatim, "dense_cap": int, "capacity": int, "keep": _keep},
    "experiments": {
        "run": _names,
        "degradation": {"alphas": _floats, "ratios": _floats, "seed": int},
        "exact_vs_gn": {"keep_grid": _ints, "capacity_grid": _ints},
    },
    "output_dir": _text,
}
REQUIRED_SECTIONS = ("model", "learner", "tasksets", "train", "hessian")


def _read(doc, table: dict, where: str = "") -> dict:
    """The keys ``doc`` sets, each through its converter in ``table``.

    An unknown key, a section that is not an object and a value its
    converter rejects are ConfigErrors that name the key.
    """
    section = f"config section {where!r}" if where else "the config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} must be a JSON object, not {type(doc).__name__}")
    values = {}
    for key, value in doc.items():
        name = f"{where}.{key}" if where else key
        if key not in table:
            raise ConfigError(f"unknown config key {name!r}; {section} accepts {', '.join(table)}")
        convert = table[key]
        if isinstance(convert, dict):
            values[key] = _read(value, convert, name)
            continue
        try:
            values[key] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value {name!r}: {exc}") from exc
    return values


def _build(section: str, make, **values):
    """``make(**values)``; a missing or rejected value is a ConfigError naming ``section``."""
    try:
        return make(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config section {section!r}: {exc}") from exc


@dataclass
class RunConfig:
    """A config read through CONFIG_KEYS; each section holds the keys it sets."""

    model: dict
    learner: dict
    tasksets: dict
    train: dict
    hessian: dict
    experiments: dict = field(default_factory=dict)
    output_dir: str = "out"
    # The experiments section as written, which reports echo byte for byte.
    echo: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        values = _read(doc, CONFIG_KEYS)
        for key in REQUIRED_SECTIONS:
            if key not in values:
                raise ConfigError(f"config is missing required section {key!r}")
        return RunConfig(**values, echo=doc.get("experiments", {}))


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(doc)


def _learner(cfg: RunConfig):
    from .metalearn import Learner
    from .model import MlpSpec

    return _build("learner", Learner, spec=_build("model", MlpSpec, **cfg.model), **cfg.learner)


def _taskset_spec(section: str, values: dict):
    from .taskgen import TaskDistributionSpec

    if "count" not in values:
        raise ConfigError(f"config section {section!r} is missing required key 'count'")
    spec = {key: value for key, value in values.items() if key != "count"}
    return _build(section, TaskDistributionSpec, **spec), values["count"]


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
    train = {"kind": "clustered", **sections["train"]}
    spec, count = _taskset_spec("tasksets.train", train)
    tasks = taskgen.sample_taskset(spec, count, id_prefix="train")
    if "noise" in sections:
        nspec, ncount = _taskset_spec("tasksets.noise", {**train, **sections["noise"], "kind": "noise"})
        noise = taskgen.sample_taskset(nspec, ncount, id_prefix="noise")
        tasks = taskgen.mix_tasksets(tasks, noise, sections.get("mix_seed", 0))
    if "augment" in sections:
        aug = {"count": 1, "transform_scale": 1.0, "seed": 0, **sections["augment"]}
        tasks = [v for t in tasks for v in taskgen.augment_group(t, **aug)]
    taskgen.save_taskset(out / "train_tasks.json", tasks, spec)
    print(f"wrote {len(tasks)} training tasks to {out / 'train_tasks.json'}")
    if "test" in sections:
        tspec, tcount = _taskset_spec("tasksets.test", {**train, **sections["test"]})
        test_tasks = taskgen.sample_taskset(tspec, tcount, id_prefix="test")
        taskgen.save_taskset(out / "test_tasks.json", test_tasks, tspec)
        print(f"wrote {tcount} test tasks to {out / 'test_tasks.json'}")


def cmd_train(cfg: RunConfig, out: Path, taskset_path: str | None) -> None:
    import numpy as np

    from . import metalearn, taskgen
    from .metalearn import MetaParams

    tasks, _ = taskgen.load_taskset(_require(Path(taskset_path or out / "train_tasks.json")))
    learner = _learner(cfg)
    train = dict(cfg.train)
    init_seed = train.pop("init_seed", None)
    train_cfg = _build("train", metalearn.MetaTrainConfig, **train)
    rng = np.random.default_rng(train_cfg.seed + 1 if init_seed is None else init_seed)
    mp0 = MetaParams(learner.spec.init_weights(rng), learner)
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
    h = cfg.hessian
    method = h.get("method", "exact")
    if method == "exact":
        cap = {"dense_cap": h["dense_cap"]} if "dense_cap" in h else {}
        rep = hessian_mod.exact_meta_hessian(mp, tasks, **cap)
    elif method == "gn":
        rep = hessian_mod.accumulate_gn(mp, tasks, capacity=h.get("capacity", 1024))
    else:
        raise ConfigError(f"unknown hessian method {method!r}")
    hessian_mod.save_hessian(out / "hessian.bin", rep)
    summary = hessian_mod.spectrum_summary(rep)
    with open(out / "spectrum.json", "w") as fh:
        fh.write(canonical_json(summary))
    print(json.dumps(summary, sort_keys=True))
    print(f"wrote {out / 'hessian.bin'}")


def _matching_inverse(cfg: RunConfig, path: Path, mp, tasks):
    """Load a stored Hessian, check it was built for these params and this taskset, and invert it."""
    from . import hessian as hessian_mod

    rep = hessian_mod.load_hessian(_require(path))
    if rep.dim != mp.q:
        raise ConfigError(f"hessian dim {rep.dim} does not match params q {mp.q}")
    if rep.num_tasks != len(tasks):
        raise ConfigError(
            f"hessian {path} was built on {rep.num_tasks} tasks, "
            f"but the training taskset has {len(tasks)}"
        )
    return hessian_mod.invert(rep, cfg.hessian.get("keep", "positive"))


def cmd_influence(cfg: RunConfig, out: Path, params_path, hessian_path, taskset_path, test_path) -> None:
    from . import influence as influence_mod
    from . import metalearn, taskgen

    mp = metalearn.load_params(_require(Path(params_path or out / "params.bin")))
    tasks, _ = taskgen.load_taskset(_require(Path(taskset_path or out / "train_tasks.json")))
    inv = _matching_inverse(cfg, Path(hessian_path or out / "hessian.bin"), mp, tasks)
    test_file = Path(test_path) if test_path else out / "test_tasks.json"
    test_tasks = taskgen.load_taskset(test_file)[0] if test_file.exists() else tasks
    records = influence_mod.influence_records(inv, mp, tasks)
    influence_mod.save_influence_records(out / "influence.bin", records)
    table = influence_mod.score_table(mp, inv, tasks, test_tasks, records=records)
    table.to_csv(out / "scores.csv")
    print(
        f"wrote {len(records)} influence records and a "
        f"{len(table.test_ids)}x{len(table.train_ids)} score table to {out}"
    )


def _experiment_results(cfg: RunConfig, out: Path, requested: list) -> dict:
    """The report of each requested experiment, by name; loads no artifact when none is requested."""
    from . import experiments as exp
    from . import metalearn, taskgen

    if not requested:
        return {}
    mp = metalearn.load_params(_require(out / "params.bin"))
    tasks, _ = taskgen.load_taskset(_require(out / "train_tasks.json"))
    reports = {}
    inv = None

    def _inverse():
        nonlocal inv
        if inv is None:
            inv = _matching_inverse(cfg, out / "hessian.bin", mp, tasks)
        return inv

    for name in requested:
        if name == "self_rank":
            reports[name] = exp.run_self_rank(mp, _inverse(), tasks).to_dict()
        elif name == "degradation":
            grid = [0.0, 0.25, 0.5, 0.75, 1.0]
            d = {"alphas": grid, "ratios": grid, "seed": 0, **cfg.experiments.get("degradation", {})}
            reports[name] = exp.run_degradation(mp, _inverse(), tasks, **d).to_dict()
        elif name == "distribution_distinction":
            test_file = out / "test_tasks.json"
            test_tasks = taskgen.load_taskset(_require(test_file))[0]
            reports[name] = exp.run_distribution_distinction(mp, _inverse(), tasks, test_tasks).to_dict()
        elif name == "exact_vs_gn":
            grid = [8, 16, 32]
            g = {"keep_grid": grid, "capacity_grid": grid, **cfg.experiments.get("exact_vs_gn", {})}
            reports[name] = exp.run_exact_vs_gn(mp, tasks, **g).to_dict()
        else:
            raise ConfigError(f"unknown experiment {name!r}")
    return reports


def cmd_experiment(cfg: RunConfig, out: Path) -> None:
    from . import experiments as exp

    requested = cfg.experiments.get("run", [])
    reports = _experiment_results(cfg, out, requested)
    exp.write_report(
        out / "report.json",
        {
            "schema_version": exp.REPORT_SCHEMA_VERSION,
            "kind": "experiment_suite" if requested else "empty",
            "config_echo": cfg.echo,
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
    nested = {name: rep.get("results", {}) if isinstance(rep, dict) else {} for name, rep in results.items()}
    for name, res in nested.items():
        if not isinstance(res, dict) or not all(isinstance(res.get(k, {}), dict) for k in ("alpha", "ratio")):
            raise ValueError(f"{path} is not a report: the results of {name!r} are not an object of objects")
    print(f"report kind: {doc.get('kind')}  schema v{doc.get('schema_version')}")
    for name, res in nested.items():
        rep = results[name]
        kind = rep.get("kind", name) if isinstance(rep, dict) else name
        print(f"- {name} ({kind})")
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
                    f"    {key}: rank_corr {sweep.get('rank_corr_mean')} +- {sweep.get('rank_corr_std')} "
                    f"(excluded {sweep.get('rank_corr_excluded')}), "
                    f"score_corr {sweep.get('score_corr_mean')} +- {sweep.get('score_corr_std')}"
                )
    if csv:
        _flatten_report_csv(nested, path)
        print(f"wrote CSV tables next to {path}")


def _flatten_report_csv(nested: dict, path: Path) -> None:
    for name, res in nested.items():
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
