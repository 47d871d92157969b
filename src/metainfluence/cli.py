"""Pipeline command line: gen -> train -> hessian -> influence -> experiment -> report.

Every stage reads its inputs from the output directory (``--out``, default
``out``) and writes its artifact there, so expensive stages are computed
once and reused. Each taskset file and ``params.bin``, ``hessian.bin`` and
``scores.bin`` record the sha256 of the bytes of each file they were built
from and of each config section they were built under (``INPUTS``); a
stage that loads one refuses it when a file or section it names differs
from the one the directory or the config holds. A taskset that records
none, such as an ingested one, loads unchecked. The config is checked in
full when it is read: a fault exits 1 before any stage runs or any file is made.
All randomness comes from explicit seeds in the JSON config. Two runs of
the same config produce byte-identical artifacts on one machine at one BLAS
thread count; across thread counts the Gauss-Newton artifacts differ at
about 1.5e-14.

Exit codes: 0 ok, 1 usage/config, 2 numerical failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifact
from . import experiments as exp
from . import hessian as hessian_mod
from . import influence as influence_mod
from . import linalg, metalearn, taskgen
from .metalearn import Learner, MetaParams, MetaTrainConfig
from .model import MlpSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


def _verbatim(value):
    return value


def _activation(value):
    return tuple(value) if isinstance(value, list) else value


def _int(value) -> int:
    """A JSON integer, or a float with an integral value; a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, not {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, not {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite JSON number; a bool, a string, NaN and +-Infinity are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, not {type(value).__name__}")
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, not {value!r}")
    return float(value)


def _optional_int(value) -> int | None:
    return None if value is None else _int(value)


def _at_least(low: int):
    """A converter to an integer of at least ``low``."""

    def convert(value) -> int:
        value = _int(value)
        if value < low:
            raise ValueError(f"expected at least {low}, not {value}")
        return value

    return convert


def _one_of(*names):
    """A converter that passes one of ``names`` and refuses anything else."""

    def convert(value):
        if value not in names:
            raise ValueError(f"expected {' or '.join(map(repr, names))}, not {value!r}")
        return value

    return convert


def _list(item, length: int = 0, distinct: bool = False):
    """A converter to a list of at least ``length`` entries, each through ``item``."""

    def convert(values) -> list:
        if not isinstance(values, list):
            raise TypeError(f"expected a list, not {type(values).__name__}")
        values = [item(value) for value in values]
        if len(values) < length:
            raise ValueError(f"expected at least {length} entries, not {values}")
        if distinct and len(set(values)) < len(values):
            raise ValueError(f"expected distinct entries, not {values}")
        return values

    return convert


def _fraction(value) -> float:
    """A degradation alpha or ratio; ``DegradeParams`` owns its range."""
    value = _float(value)
    taskgen.DegradeParams(alpha=value, ratio=value)
    return value


def _keep(keep):
    linalg.check_keep(keep)
    return keep


EXPERIMENTS = ("self_rank", "degradation", "distribution_distinction", "exact_vs_gn")
_TASKSET_KEYS = {
    "kind": _verbatim, "count": _at_least(0), "feature_dim": _int, "n_ways": _int, "k_support": _int,
    "k_query": _int, "class_center_scale": _float, "within_class_noise": _float, "seed": _int,
    "center_pool_size": _optional_int, "pool_seed": _int,
}
_SIZE_GRID = _list(_at_least(1), 1, distinct=True)
# each degradation sweep reports a correlation, so its grid needs two values
_DEGRADE_GRID = _list(_fraction, 2)

# Every key a config may set, with the converter its value goes through; a
# nested table is a subsection. A key the config leaves out stays out, so the
# dataclass or function it configures applies its own default.
CONFIG_KEYS = {
    "model": {"layer_widths": _list(_int), "activation": _activation},
    "learner": {"kind": _verbatim, "inner_lr": _float},
    "tasksets": {
        "train": _TASKSET_KEYS,
        "noise": {
            "kind": _one_of("noise"), "count": _at_least(0), "feature_dim": _int, "n_ways": _int,
            "k_support": _int, "k_query": _int, "seed": _int,
        },
        "test": _TASKSET_KEYS,
        "augment": {"count": _at_least(1), "transform_scale": _float, "seed": _int},
        "mix_seed": _int,
    },
    "train": {
        "steps": _int, "meta_batch": _int, "lr": _float, "weight_decay": _float, "seed": _int, "init_seed": _int,
    },
    "hessian": {
        "method": _one_of("exact", "gn"), "capacity": _at_least(1), "keep": _keep,
    },
    "experiments": {
        "run": _list(_one_of(*EXPERIMENTS)),
        "degradation": {"alphas": _DEGRADE_GRID, "ratios": _DEGRADE_GRID, "seed": _int},
        "exact_vs_gn": {"keep_grid": _SIZE_GRID, "capacity_grid": _SIZE_GRID},
    },
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
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config value {name!r}: {exc}") from exc
    return values


def _build(section: str, make, **values):
    """``make(**values)``; a missing or rejected value is a ConfigError naming ``section``."""
    try:
        return make(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config section {section!r}: {exc}") from exc


def _tasksets(sections: dict) -> dict:
    """``sections`` with each of train, noise and test built into ``(TaskDistributionSpec, count)``.

    Noise and test inherit what they leave out from train; noise inherits
    only the keys of its own table.
    """
    if "train" not in sections:
        raise ConfigError("config section 'tasksets' is missing required key 'train'")
    train = {"kind": "clustered", **sections["train"]}
    merged = {"train": train}
    if "noise" in sections:
        inherited = {key: value for key, value in train.items() if key in CONFIG_KEYS["tasksets"]["noise"]}
        merged["noise"] = {**inherited, **sections["noise"], "kind": "noise"}
    if "test" in sections:
        merged["test"] = {**train, **sections["test"]}
    built = dict(sections)
    for name, values in merged.items():
        if "count" not in values:
            raise ConfigError(f"config section 'tasksets.{name}' is missing required key 'count'")
        spec = {key: value for key, value in values.items() if key != "count"}
        built[name] = _build(f"tasksets.{name}", taskgen.TaskDistributionSpec, **spec), values["count"]
    return built


@dataclass
class RunConfig:
    """A config read through CONFIG_KEYS, with the library objects it configures.

    The learner, the training config and the taskset specs are built when
    the config is read, so a value one of them refuses is a config fault
    before any stage runs. ``hessian`` holds the keys it sets over the CLI's
    defaults; ``values`` holds every key it sets, as artifacts digest them.
    """

    learner: Learner
    train: MetaTrainConfig
    init_seed: int
    tasksets: dict  # as read, with "train", "noise" and "test" as (TaskDistributionSpec, count)
    hessian: dict
    # The experiments section as written, which reports echo byte for byte.
    echo: dict
    values: dict  # every key the config sets, through its converter

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        values = _read(doc, CONFIG_KEYS)
        for key in REQUIRED_SECTIONS:
            if key not in values:
                raise ConfigError(f"config is missing required section {key!r}")
        learner = _build("learner", Learner, spec=_build("model", MlpSpec, **values["model"]), **values["learner"])
        train = dict(values["train"])
        init_seed = train.pop("init_seed", None)
        train_cfg = _build("train", MetaTrainConfig, **train)
        return RunConfig(
            learner=learner,
            train=train_cfg,
            init_seed=train_cfg.seed + 1 if init_seed is None else init_seed,
            tasksets=_tasksets(values["tasksets"]),
            hessian={"method": "exact", "capacity": 1024, "keep": "positive", **values["hessian"]},
            echo=doc.get("experiments", {}),
            values=values,
        )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(doc)


def _require(path: Path) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing prerequisite artifact {path}")
    return path


def cmd_gen(cfg: RunConfig, out: Path) -> None:
    sections = cfg.tasksets
    tasks = taskgen.sample_taskset(*sections["train"], id_prefix="train")
    if "noise" in sections:
        noise = taskgen.sample_taskset(*sections["noise"], id_prefix="noise")
        tasks = taskgen.mix_tasksets(tasks, noise, sections.get("mix_seed", 0))
    if "augment" in sections:
        aug = {"count": 1, "transform_scale": 1.0, "seed": 0, **sections["augment"]}
        tasks = [v for t in tasks for v in taskgen.augment_group(t, **aug)]
    taskgen.save_taskset(out / "train_tasks.json", tasks, _inputs(cfg, out, "train_tasks.json"))
    print(f"wrote {len(tasks)} training tasks to {out / 'train_tasks.json'}")
    if "test" in sections:
        test_tasks = taskgen.sample_taskset(*sections["test"], id_prefix="test")
        taskgen.save_taskset(out / "test_tasks.json", test_tasks, _inputs(cfg, out, "test_tasks.json"))
        print(f"wrote {len(test_tasks)} test tasks to {out / 'test_tasks.json'}")


# file -> (the files of --out it is built from, the config sections it is built under); it records the sha256
# of each under "inputs". A binary's sections accumulate, as distinction checks scores.bin but not hessian.bin.
_TRAINED = ("model", "learner", "train")
_CURVED = (*_TRAINED, "hessian.method", "hessian.capacity")
_SCORED = (*_CURVED, "hessian.keep", "tasksets.test")
INPUTS = {
    "train_tasks.json": ((), ("tasksets.train", "tasksets.noise", "tasksets.augment", "tasksets.mix_seed")),
    "test_tasks.json": ((), ("tasksets.train", "tasksets.test")),  # test inherits what it leaves out from train
    "params.bin": (("train_tasks.json",), _TRAINED),
    "hessian.bin": (("params.bin", "train_tasks.json"), _CURVED),
    "scores.bin": (("params.bin", "train_tasks.json", "hessian.bin", "test_tasks.json"), _SCORED),
}


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _inputs(cfg: RunConfig, out: Path, name: str) -> dict:
    """The ``inputs`` of ``out/name``: the sha256 of each file it is built from that ``out`` holds, and of each section.

    A section digests its canonical JSON as CONFIG_KEYS read it; one the
    config leaves out digests as null. Only the test taskset can be absent:
    then the influence stage scores the training tasks, and ``scores.bin``
    records no test taskset.
    """
    files, sections = INPUTS[name]
    digests = {source: _file_sha256(out / source) for source in files if (out / source).exists()}
    for section in sections:
        head, _, key = section.partition(".")
        value = cfg.values.get(head, {}).get(key) if key else cfg.values.get(head)
        digests[section] = hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
    return digests


def _check_inputs(cfg: RunConfig, out: Path, name: str, recorded) -> None:
    """Refuse ``out/name`` unless ``recorded`` holds the sha256 of each file and section INPUTS names, as they are now."""
    path = out / name
    if not isinstance(recorded, dict) or not all(isinstance(v, str) for v in recorded.values()):
        raise ConfigError(f"{path} records no object of input digests")
    files, sections = INPUTS[name]
    for source in files:
        _require(out / source)
    current = _inputs(cfg, out, name)
    unrecorded = [source for source in current if source not in recorded]
    if unrecorded:
        raise ConfigError(f"{path} records no sha256 of {' or '.join(unrecorded)}")
    stale = [f"config section {s!r}" if s in sections else s for s in current if recorded[s] != current[s]]
    if stale:
        raise ConfigError(f"{path} was built from another {' and '.join(stale)} than {out} and the config hold")


def _checked(cfg: RunConfig, out: Path, name: str, load):
    """``load(out/name)``, once the ``inputs`` its header records pass ``_check_inputs``."""
    path = _require(out / name)
    _check_inputs(cfg, out, name, artifact.inputs(path, path.stem))
    return load(path)


def _taskset(cfg: RunConfig, out: Path, name: str) -> list:
    """The tasks of ``out/<name>_tasks.json``, once the ``inputs`` it records, if any, pass ``_check_inputs``."""
    path = _require(out / f"{name}_tasks.json")
    tasks, recorded = taskgen.load_taskset(path)
    if recorded is not None:
        _check_inputs(cfg, out, path.name, recorded)
    return tasks


def _trained(cfg: RunConfig, out: Path):
    """The params and training tasks ``out`` holds, once params.bin is checked to be trained on them under ``cfg``."""
    tasks = _taskset(cfg, out, "train")
    return _checked(cfg, out, "params.bin", metalearn.load_params), tasks


def cmd_train(cfg: RunConfig, out: Path) -> None:
    tasks = _taskset(cfg, out, "train")
    inputs = _inputs(cfg, out, "params.bin")
    rng = np.random.default_rng(cfg.init_seed)
    mp0 = MetaParams(cfg.learner.spec.init_weights(rng), cfg.learner)
    mp, log = metalearn.meta_train(mp0, tasks, cfg.train)
    metalearn.save_params(out / "params.bin", mp, inputs)
    with open(out / "train_log.jsonl", "w") as fh:
        fh.write(log.to_jsonl())
    print(
        f"trained {cfg.train.steps} steps; final mean loss {log.final_loss:.6f}, "
        f"accuracy {log.final_accuracy:.4f}; wrote {out / 'params.bin'}"
    )


def cmd_hessian(cfg: RunConfig, out: Path) -> None:
    mp, tasks = _trained(cfg, out)
    inputs = _inputs(cfg, out, "hessian.bin")
    if cfg.hessian["method"] == "exact":
        rep = hessian_mod.exact_meta_hessian(mp, tasks)
    else:
        rep = hessian_mod.accumulate_gn(mp, tasks, capacity=cfg.hessian["capacity"])
    hessian_mod.save_hessian(out / "hessian.bin", rep, inputs)
    summary = hessian_mod.spectrum_summary(rep)
    with open(out / "spectrum.json", "w") as fh:
        fh.write(exp.canonical_json(summary))
    print(json.dumps(summary, sort_keys=True))
    print(f"wrote {out / 'hessian.bin'}")


def _matching_inverse(cfg: RunConfig, out: Path):
    """The inverse of ``out/hessian.bin`` under ``hessian.keep``, once its ``inputs`` are checked."""
    return hessian_mod.invert(_checked(cfg, out, "hessian.bin", hessian_mod.load_hessian), cfg.hessian["keep"])


def cmd_influence(cfg: RunConfig, out: Path) -> None:
    mp, tasks = _trained(cfg, out)
    test_tasks = _taskset(cfg, out, "test") if (out / "test_tasks.json").exists() else tasks
    inv = _matching_inverse(cfg, out)
    inputs = _inputs(cfg, out, "scores.bin")
    records = influence_mod.influence_records(inv, mp, tasks)
    influence_mod.save_influence_records(out / "influence.bin", records)
    table = influence_mod.score_table(mp, inv, tasks, test_tasks, records=records)
    table.to_csv(out / "scores.csv")
    influence_mod.save_score_table(out / "scores.bin", table, inputs)
    print(
        f"wrote {len(records)} influence records and a "
        f"{len(table.test_ids)}x{len(table.train_ids)} score table to {out}"
    )


def _experiment_results(cfg: RunConfig, out: Path, requested: list) -> dict:
    """The report of each requested experiment, by name.

    No artifact is read when no experiment is requested. Self-rank and
    degradation score from the stored Hessian; distribution distinction
    reads the table the influence stage stored.
    """
    if not requested:
        return {}
    settings = cfg.values.get("experiments", {})
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    degradation = {"alphas": grid, "ratios": grid, "seed": 0, **settings.get("degradation", {})}
    sizes = [8, 16, 32]
    exact_vs_gn = {"keep_grid": sizes, "capacity_grid": sizes, **settings.get("exact_vs_gn", {})}
    mp, tasks = _trained(cfg, out)
    recompute = {"self_rank", "degradation"} & set(requested)
    inv = _matching_inverse(cfg, out) if recompute else None
    distinction = "distribution_distinction" in requested
    table = _checked(cfg, out, "scores.bin", influence_mod.load_score_table) if distinction else None
    reports = {}
    for name in requested:
        if name == "self_rank":
            reports[name] = exp.run_self_rank(mp, inv, tasks).to_dict()
        elif name == "degradation":
            reports[name] = exp.run_degradation(mp, inv, tasks, **degradation)
        elif name == "distribution_distinction":
            reports[name] = exp.run_distribution_distinction(table, tasks)
        else:
            reports[name] = exp.run_exact_vs_gn(mp, tasks, **exact_vs_gn)
    return reports


def cmd_experiment(cfg: RunConfig, out: Path) -> None:
    requested = cfg.values.get("experiments", {}).get("run", [])
    reports = _experiment_results(cfg, out, requested)
    doc = exp._report("experiment_suite" if requested else "empty", cfg.echo, reports)
    exp.write_report(out / "report.json", doc)
    print(f"wrote report with {len(reports)} experiment(s) to {out / 'report.json'}")


def cmd_report(cfg: RunConfig, out: Path, csv: bool) -> None:
    path = _require(out / "report.json")
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
    """One CSV per row list: ``per_test`` or ``cells``, and each degradation sweep's ``per_task``."""
    tables = {}
    for name, res in nested.items():
        tables[name] = res.get("per_test") or res.get("cells")
        tables.update({f"{name}_{key}": res[key].get("per_task") for key in ("alpha", "ratio") if key in res})
    for name, rows in tables.items():
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
    parser.add_argument("--out", default="out", help="the directory every stage reads and writes (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen", help="generate taskset files")
    sub.add_parser("train", help="meta-train and persist parameters")
    sub.add_parser("hessian", help="build and persist the curvature representation")
    sub.add_parser("influence", help="compute influence records and the score table")
    sub.add_parser("experiment", help="run the configured experiment protocols")
    p = sub.add_parser("report", help="summarize out/report.json")
    p.add_argument("--csv", action="store_true", help="also flatten tables to CSV")
    return parser


_STAGES = {"gen": cmd_gen, "train": cmd_train, "hessian": cmd_hessian, "influence": cmd_influence,
           "experiment": cmd_experiment}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, the code of a numerical failure here
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "report":
            cmd_report(cfg, out, args.csv)
        else:
            _STAGES[args.command](cfg, out)
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
