import json
import hashlib
import shutil
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fd_asymmetric_problem
from metainfluence import artifact, cli, experiments, hessian, influence, metalearn, model, taskgen


BASE_CONFIG = {
    "model": {"layer_widths": [6, 6, 3], "activation": "tanh"},
    "learner": {"kind": "maml", "inner_lr": 0.05},
    "tasksets": {
        "train": {
            "kind": "clustered",
            "count": 6,
            "feature_dim": 6,
            "n_ways": 3,
            "k_support": 4,
            "k_query": 5,
            "within_class_noise": 0.4,
            "seed": 11,
        },
        "noise": {"count": 2, "seed": 13},
        "test": {"count": 3, "seed": 17},
        "mix_seed": 19,
    },
    "train": {"steps": 30, "meta_batch": 4, "lr": 0.01, "seed": 23, "init_seed": 29},
    "hessian": {"method": "exact", "keep": "positive"},
    "experiments": {
        "run": ["self_rank", "distribution_distinction"],
    },
}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        for key, val in overrides.items():
            if isinstance(val, dict):
                doc.setdefault(key, {}).update(val)
            else:
                doc[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


def run(args):
    return cli.main([str(a) for a in args])


def pipeline(tmp_path, out_name, overrides=None):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / out_name
    for command in ("gen", "train", "hessian", "influence", "experiment"):
        code = run(["--config", cfg, "--out", out, command])
        assert code == cli.EXIT_OK, command
    return out


def digest_tree(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


def test_full_pipeline_and_determinism(tmp_path):
    out_a = pipeline(tmp_path, "run_a")
    out_b = pipeline(tmp_path, "run_b")
    expected = {
        "train_tasks.json",
        "test_tasks.json",
        "params.bin",
        "train_log.jsonl",
        "hessian.bin",
        "spectrum.json",
        "influence.bin",
        "scores.csv",
        "scores.bin",
        "report.json",
    }
    assert expected <= set(digest_tree(out_a))
    assert digest_tree(out_a) == digest_tree(out_b)


PROTONET_GN_GROUPS = {
    "learner": {"kind": "protonet"},
    "tasksets": {"augment": {"count": 2, "transform_scale": 1.0, "seed": 3}},
    "hessian": {"method": "gn", "capacity": 64, "keep": "all"},
}


def test_grouped_gauss_newton_pipeline_determinism(tmp_path):
    # criterion 10 reruns an exact-MAML config; this reruns the Gauss-Newton path with group-level distinction
    runs = [pipeline(tmp_path, name, PROTONET_GN_GROUPS) for name in ("run_a", "run_b")]
    report = json.loads((runs[0] / "report.json").read_text())
    assert report["results"]["distribution_distinction"]["config_echo"]["entity_level"] == "group"
    assert {"hessian.bin", "influence.bin", "scores.csv", "scores.bin", "report.json"} <= set(digest_tree(runs[0]))
    assert digest_tree(runs[0]) == digest_tree(runs[1])


def test_report_command_and_csv(tmp_path, capsys):
    out = pipeline(tmp_path, "run")
    assert run(["--config", tmp_path / "config.json", "--out", out, "report", "--csv"]) == cli.EXIT_OK
    shown = capsys.readouterr().out
    assert "self_rank" in shown
    assert (out / "report_self_rank.csv").exists()
    assert (out / "report_distribution_distinction.csv").exists()


def test_gen_counts_and_schema(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "gen"]) == cli.EXIT_OK
    doc = json.loads((out / "train_tasks.json").read_text())
    assert len(doc["tasks"]) == 8  # 6 regular + 2 noise
    provenances = {t["provenance"] for t in doc["tasks"]}
    assert provenances == {"regular", "noise"}


def test_gen_noise_section_may_name_its_kind(tmp_path):
    noise = dict(BASE_CONFIG["tasksets"]["noise"], kind="noise")
    cfg = write_config(tmp_path, {"tasksets": {"noise": noise}})
    assert run(["--config", cfg, "--out", tmp_path / "out", "gen"]) == cli.EXIT_OK


def test_gen_noise_inherits_only_its_own_keys_from_train(tmp_path):
    # a noise task draws no class centers, so the train section's pool does not bind it
    train = dict(BASE_CONFIG["tasksets"]["train"], center_pool_size=4)
    noise = dict(BASE_CONFIG["tasksets"]["noise"], n_ways=5)
    cfg = write_config(tmp_path, {"tasksets": {"train": train, "noise": noise}})
    assert run(["--config", cfg, "--out", tmp_path / "out", "gen"]) == cli.EXIT_OK
    doc = json.loads((tmp_path / "out" / "train_tasks.json").read_text())
    assert {max(t["query"]["y"]) + 1 for t in doc["tasks"] if t["provenance"] == "noise"} == {5}


@pytest.mark.parametrize(
    "section, values, names",
    [
        ("test", {"count": 3, "seed": 17, "n_ways": 1}, "'tasksets.test'"),
        ("augment", {"count": 0}, "'tasksets.augment.count'"),
        ("train", dict(BASE_CONFIG["tasksets"]["train"], count=-2), "'tasksets.train.count'"),
        ("noise", {"count": -2, "seed": 13}, "'tasksets.noise.count'"),
        ("test", {"count": -2, "seed": 17}, "'tasksets.test.count'"),
        ("train", dict(BASE_CONFIG["tasksets"]["train"], within_class_noise=-1.0), "'tasksets.train'"),
        ("train", dict(BASE_CONFIG["tasksets"]["train"], class_center_scale=-2.0), "'tasksets.train'"),
        ("test", {"count": 3, "seed": 17, "within_class_noise": -1.0}, "'tasksets.test'"),
        ("test", {"count": 3, "seed": 17, "class_center_scale": -2.0}, "'tasksets.test'"),
    ],
    ids=["test-n_ways-one", "augment-count-zero", "train-count-negative", "noise-count-negative",
         "test-count-negative", "train-noise-negative", "train-scale-negative", "test-noise-negative",
         "test-scale-negative"],
)
def test_gen_config_fault_writes_no_taskset(tmp_path, capsys, section, values, names):
    cfg = write_config(tmp_path, {"tasksets": {section: values}})
    out = tmp_path / "empty"
    assert_clean_exit(["--config", cfg, "--out", out, "gen"], capsys, cli.EXIT_USAGE, names)
    assert not out.exists()


def test_gen_zero_count_writes_empty_taskset(tmp_path):
    cfg = write_config(tmp_path, {"tasksets": {"train": dict(BASE_CONFIG["tasksets"]["train"], count=0)}})
    # drop noise/test to keep it minimal
    doc = json.loads(cfg.read_text())
    doc["tasksets"].pop("noise")
    doc["tasksets"].pop("test")
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "gen"]) == cli.EXIT_OK
    assert json.loads((out / "train_tasks.json").read_text())["tasks"] == []


def test_train_zero_steps_echoes_init(tmp_path):
    cfg = write_config(tmp_path, {"train": {"steps": 0}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "gen"]) == cli.EXIT_OK
    assert run(["--config", cfg, "--out", out, "train"]) == cli.EXIT_OK
    from metainfluence.metalearn import load_params
    from metainfluence.model import MlpSpec
    import numpy as np

    mp = load_params(out / "params.bin")
    spec = MlpSpec((6, 6, 3))
    expected = spec.init_weights(np.random.default_rng(29), 1.0)
    np.testing.assert_array_equal(mp.omega, expected)


def test_missing_config_is_usage_error(tmp_path):
    assert run(["--config", tmp_path / "nope.json", "gen"]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "args",
    [
        ["gen"],
        ["--config", "{cfg}", "--out", "{out}", "bogus"],
        ["--config", "{cfg}", "--out", "{out}", "train", "--tasket", "x"],
        ["--config", "{cfg}", "--out", "{out}", "--seed", "abc", "gen"],
        ["--config", "{cfg}", "--out", "{out}", "influence", "--test-taskset", "x"],
    ],
    ids=["missing-config", "unknown-command", "unknown-flag", "removed-seed", "removed-test-taskset"],
)
def test_command_line_usage_error_exits_1(tmp_path, capsys, args):
    # argparse exits 2 on its own, which is the code of a numerical failure here
    cfg, out = write_config(tmp_path), tmp_path / "out"
    capsys.readouterr()
    assert run([a.format(cfg=cfg, out=out) for a in args]) == cli.EXIT_USAGE
    assert "metainfluence: error:" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    assert run(["--help"]) == cli.EXIT_OK
    assert "--config" in capsys.readouterr().out


def test_readme_example_config_loads(tmp_path):
    # the README's config section documents what load_config accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("## Command line", 1)[1]
    path = tmp_path / "readme.json"
    path.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = cli.load_config(path)
    assert cfg.values["experiments"]["run"] == ["self_rank", "degradation", "distribution_distinction"]
    top_row = next(line for line in readme.splitlines() if line.startswith("| top level |"))
    assert top_row.split("|")[2].replace("`", "").strip().split(", ") == list(cli.CONFIG_KEYS)


def test_invalid_config_section_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, bogus={})))
    assert run(["--config", path, "gen"]) == cli.EXIT_USAGE


def test_missing_artifact_is_io_error(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "train"]) == cli.EXIT_IO


def test_dense_cap_violation_is_usage_error(tmp_path, capsys):
    # q = 3003 > hessian.DENSE_CAP; the exact Hessian refuses it before any meta-gradient
    cfg = write_config(tmp_path, {"model": {"layer_widths": [6, 300, 3]}, "train": {"steps": 0}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "gen"]) == cli.EXIT_OK
    assert run(["--config", cfg, "--out", out, "train"]) == cli.EXIT_OK
    args = ["--config", cfg, "--out", out, "hessian"]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, f"q=3003 exceeds dense cap {hessian.DENSE_CAP}")


def _hessian_of_other_dim(tmp_path):
    """A config and the out directory trained under it, holding the Hessian of a model of other widths."""
    out = pipeline(tmp_path, "out")
    other_cfg = write_config(
        tmp_path, {"model": {"layer_widths": [6, 4, 3]}}, name="other.json"
    )
    out2 = tmp_path / "out2"
    assert run(["--config", other_cfg, "--out", out2, "gen"]) == cli.EXIT_OK
    assert run(["--config", other_cfg, "--out", out2, "train"]) == cli.EXIT_OK
    # plant the hessian of out next to the params of out2
    shutil.copy(out / "hessian.bin", out2 / "hessian.bin")
    return other_cfg, out2


def test_mismatched_hessian_params_is_usage_error(tmp_path, capsys):
    cfg, out = _hessian_of_other_dim(tmp_path)
    args = ["--config", cfg, "--out", out, "influence"]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, out / "hessian.bin", "config section 'model'")


def test_hessian_of_other_dim_with_forged_inputs_is_usage_error(tmp_path, capsys):
    # inputs rewritten to match over a payload of another dimension: the influence stage's own dim check refuses it
    cfg, out = _hessian_of_other_dim(tmp_path)
    inputs = cli._inputs(cli.load_config(cfg), out, "hessian.bin")
    rewrite_header(out / "hessian.bin", lambda header: dict(header, inputs=inputs))
    args = ["--config", cfg, "--out", out, "influence"]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, "!= inverse dim")


def test_empty_experiment_list_writes_empty_report(tmp_path):
    cfg = write_config(tmp_path, {"experiments": {"run": []}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "gen"]) == cli.EXIT_OK
    assert run(["--config", cfg, "--out", out, "experiment"]) == cli.EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    assert doc["kind"] == "empty"
    assert doc["results"] == {}


def test_gn_method_pipeline(tmp_path):
    out = pipeline(
        tmp_path,
        "out_gn",
        {"hessian": {"method": "gn", "capacity": 32, "keep": "all"}},
    )
    from metainfluence.hessian import load_hessian

    rep = load_hessian(out / "hessian.bin")
    assert rep.variant == "factored"
    assert rep.buffer_capacity == 32


def test_protonet_pipeline(tmp_path):
    out = pipeline(
        tmp_path,
        "out_proto",
        {
            "learner": {"kind": "protonet"},
            "hessian": {"method": "gn", "capacity": 64, "keep": "all"},
        },
    )
    from metainfluence.metalearn import load_params

    assert load_params(out / "params.bin").learner.kind == "protonet"
    assert (out / "report.json").exists()


@pytest.mark.parametrize("overrides", [{}, PROTONET_GN_GROUPS], ids=["maml-exact", "protonet-gn-groups"])
def test_stored_records_are_the_ones_the_experiment_stage_recomputes(tmp_path, overrides):
    # the experiment stage scores from records it recomputes; they must be the stored ones, bit for bit
    out = pipeline(tmp_path, "out", overrides)
    mp = metalearn.load_params(out / "params.bin")
    tasks, _ = taskgen.load_taskset(out / "train_tasks.json")
    inv = cli._matching_inverse(cli.load_config(tmp_path / "config.json"), out)
    want = influence.influence_records(inv, mp, tasks)
    got = influence.load_influence_records(out / "influence.bin")
    assert [(r.task_id, r.group_id) for r in got] == [(r.task_id, r.group_id) for r in want]
    assert [r.i_meta.tobytes() for r in got] == [r.i_meta.tobytes() for r in want]
    assert any(r.group_id is not None for r in got) == bool(overrides)


def test_exact_vs_gn_experiment_and_report(tmp_path, capsys):
    grids = {"keep_grid": [4, 8], "capacity_grid": [4, 8]}
    cfg = write_config(tmp_path, {"experiments": {"run": ["exact_vs_gn"], "exact_vs_gn": grids}})
    out = tmp_path / "out"
    # exact_vs_gn builds its own curvature, so the stage needs no hessian.bin
    for command in ("gen", "train", "experiment"):
        assert run(["--config", cfg, "--out", out, command]) == cli.EXIT_OK
    capsys.readouterr()
    assert run(["--config", cfg, "--out", out, "report", "--csv"]) == cli.EXIT_OK
    assert "rows_max_adjacent_fraction" in capsys.readouterr().out
    cells = json.loads((out / "report.json").read_text())["results"]["exact_vs_gn"]["results"]["cells"]
    assert len(cells) == 4
    assert all({"mean_corr", "std_corr", "undefined"} <= set(cell) for cell in cells)
    lines = (out / "report_exact_vs_gn.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + len(cells)


def test_gen_with_a_center_pool(tmp_path):
    train = dict(BASE_CONFIG["tasksets"]["train"], center_pool_size=4, pool_seed=7)
    cfg = write_config(tmp_path, {"tasksets": {"train": train}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "gen"]) == cli.EXIT_OK
    tasks, _ = taskgen.load_taskset(out / "train_tasks.json")
    regular = sorted((t for t in tasks if t.provenance == "regular"), key=lambda t: t.task_id)
    spec = taskgen.TaskDistributionSpec(**{key: value for key, value in train.items() if key != "count"})
    pooled = taskgen.sample_taskset(spec, train["count"], id_prefix="train")
    assert [t.support.x.tobytes() for t in regular] == [t.support.x.tobytes() for t in pooled]


def test_scores_csv_row_count(tmp_path):
    out = pipeline(tmp_path, "out")
    lines = (out / "scores.csv").read_text().strip().split("\n")
    # header comment + column header + |test| * |train| rows
    assert len(lines) == 2 + 3 * 8


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Config and output directory after the gen, train and hessian stages."""
    tmp = tmp_path_factory.mktemp("trained")
    cfg = write_config(tmp)
    out = tmp / "out"
    for command in ("gen", "train", "hessian"):
        assert run(["--config", cfg, "--out", out, command]) == cli.EXIT_OK
    return cfg, out


@pytest.mark.parametrize(
    "artifact, stage", [("params.bin", "hessian"), ("hessian.bin", "influence")]
)
@pytest.mark.parametrize("cut", ["header", "payload"])
def test_truncated_binary_is_io_error(trained, tmp_path, capsys, artifact, stage, cut):
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    data = (out / artifact).read_bytes()
    keep = 12 if cut == "header" else len(data) - 100
    (out / artifact).write_bytes(data[:keep])
    capsys.readouterr()
    assert run(["--config", cfg, "--out", out, stage]) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert str(out / artifact) in err
    assert "is truncated: expected" in err and "found" in err


@pytest.mark.parametrize("method", ["exact", "gn"])
def test_nonfinite_feature_is_usage_error(trained, tmp_path, capsys, method):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    doc = json.loads((out / "train_tasks.json").read_text())
    task = doc["tasks"][2]
    task["query"]["x"][1][0] = float("nan")
    (out / "train_tasks.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path, {"hessian": {"method": method, "capacity": 32}})
    capsys.readouterr()
    assert run(["--config", cfg, "--out", out, "hessian"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"task {task['id']!r} has a non-finite feature in its query batch" in err


def test_hessian_from_other_taskset_is_usage_error(trained, tmp_path, capsys):
    cfg8, out8 = trained
    train5 = dict(BASE_CONFIG["tasksets"]["train"], count=3)
    cfg5 = write_config(tmp_path, {"tasksets": {"train": train5}}, name="five.json")
    out5 = tmp_path / "out5"
    for command in ("gen", "train", "hessian"):
        assert run(["--config", cfg5, "--out", out5, command]) == cli.EXIT_OK
    # plant each run's hessian.bin in a copy of the other's output directory
    for cfg, out, foreign, has in ((cfg5, out5, out8, 5), (cfg8, out8, out5, 8)):
        crossed = tmp_path / f"crossed{has}"
        shutil.copytree(out, crossed)
        shutil.copy(foreign / "hessian.bin", crossed / "hessian.bin")
        for stage in ("influence", "experiment"):
            needles = [crossed / "hessian.bin", "train_tasks.json"]
            assert_clean_exit(["--config", cfg, "--out", crossed, stage], capsys, cli.EXIT_USAGE, *needles)


def assert_clean_exit(args, capsys, code, *needles):
    """cli.main returns ``code`` with one ``error:`` line, ``numerical failure:`` at exit 2,
    that contains every needle."""
    capsys.readouterr()
    assert run(args) == code
    err = capsys.readouterr().err
    prefix = "numerical failure: " if code == cli.EXIT_NUMERICAL else "error: "
    assert err.startswith(prefix) and err.count("\n") == 1, err
    for needle in needles:
        assert str(needle) in err


@pytest.mark.parametrize(
    "overrides, stage",
    [
        ({"hessian": {"keep": None}}, "influence"),
        ({"hessian": {"keep": [3]}}, "influence"),
        ({"hessian": {"keep": {}}}, "influence"),
        ({"hessian": {"method": "gn", "capacity": None}}, "hessian"),
        ({"train": {"steps": None}}, "train"),
        ({"experiments": {"run": ["degradation"], "degradation": {"alphas": ["a"]}}}, "experiment"),
    ],
    ids=["keep-null", "keep-list", "keep-object", "capacity-null", "steps-null", "alphas-string"],
)
def test_config_type_error_is_usage_error(trained, tmp_path, capsys, overrides, stage):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    cfg = write_config(tmp_path, overrides)
    assert_clean_exit(["--config", cfg, "--out", out, stage], capsys, cli.EXIT_USAGE)


@pytest.mark.parametrize(
    "overrides, stage, key",
    [
        ({"train": {"meta_bacth": 8}}, "train", "train.meta_bacth"),
        ({"train": {"beta1": 0.5}}, "train", "train.beta1"),
        ({"train": {"init_scale": 2.0}}, "train", "train.init_scale"),
        ({"model": {"activations": "relu"}}, "train", "model.activations"),
        ({"tasksets": {"tests": {"count": 3}}}, "gen", "tasksets.tests"),
        ({"tasksets": {"train": dict(BASE_CONFIG["tasksets"]["train"], n_way=4)}}, "gen", "tasksets.train.n_way"),
        ({"tasksets": {"augment": {"scale": 2.0}}}, "gen", "tasksets.augment.scale"),
        ({"hessian": {"kep": 4}}, "influence", "hessian.kep"),
        (
            {"experiments": {"run": ["degradation"], "degradation": {"alpha_fixed": 0.5}}},
            "experiment",
            "experiments.degradation.alpha_fixed",
        ),
        # a noise task ignores these, so the noise section refuses them
        *(
            ({"tasksets": {"noise": dict(BASE_CONFIG["tasksets"]["noise"], **{key: value})}}, "gen", f"tasksets.noise.{key}")
            for key, value in (
                ("class_center_scale", 2.0), ("within_class_noise", 0.1), ("center_pool_size", 8), ("pool_seed", 3)
            )
        ),
        # the output directory is --out alone
        ({"output_dir": "elsewhere"}, "gen", "output_dir"),
        # the exact Hessian's cap is the constant hessian.DENSE_CAP
        ({"hessian": {"dense_cap": 2000}}, "hessian", "hessian.dense_cap"),
    ],
)
def test_unknown_config_key_is_usage_error(trained, tmp_path, capsys, overrides, stage, key):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    cfg = write_config(tmp_path, overrides)
    assert_clean_exit(["--config", cfg, "--out", out, stage], capsys, cli.EXIT_USAGE, repr(key))


@pytest.mark.parametrize(
    "overrides, stage, key",
    [
        ({"train": {"steps": 2.9}}, "train", "train.steps"),
        ({"train": {"meta_batch": True}}, "train", "train.meta_batch"),
        ({"train": {"lr": True}}, "train", "train.lr"),
        ({"tasksets": {"train": dict(BASE_CONFIG["tasksets"]["train"], count="8")}}, "gen", "tasksets.train.count"),
        ({"model": {"layer_widths": "16"}}, "train", "model.layer_widths"),
    ],
    ids=["steps-fraction", "meta_batch-bool", "lr-bool", "count-string", "layer_widths-string"],
)
def test_config_number_of_wrong_type_is_usage_error(trained, tmp_path, capsys, overrides, stage, key):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    cfg = write_config(tmp_path, overrides)
    assert_clean_exit(["--config", cfg, "--out", out, stage], capsys, cli.EXIT_USAGE, repr(key))


@pytest.mark.parametrize(
    "section, key, literal, stage, names",
    [
        ("hessian", "keep", "NaN", "gen", "hessian.keep"),
        ("hessian", "keep", "1e999", "gen", "hessian.keep"),
        ("hessian", "keep", "-Infinity", "gen", "hessian.keep"),
        ("train", "lr", "NaN", "train", "train.lr"),
        ("learner", "inner_lr", "NaN", "train", "learner.inner_lr"),
        ("train", "weight_decay", "1e999", "train", "train.weight_decay"),
        ("train", "lr", "1" + "0" * 400, "train", "train.lr"),
        ("hessian", "keep", "-3", "gen", "hessian.keep"),
        ("hessian", "keep", "-0.5", "gen", "hessian.keep"),
        ("train", "meta_batch", "0", "train", "train"),
        ("train", "steps", "-5", "train", "train"),
        ("hessian", "keep", "3.0", "gen", "hessian.keep"),
        ("hessian", "keep", "0", "gen", "hessian.keep"),
    ],
    ids=[
        "keep-nan", "keep-overflow", "keep-minus-infinity", "lr-nan", "inner_lr-nan", "weight_decay-overflow",
        "lr-integer-beyond-float",
        "keep-negative-count", "keep-negative-threshold", "meta_batch-zero", "steps-negative",
        "keep-threshold-above-one", "keep-zero-count",
    ],
)
def test_config_number_out_of_range_is_usage_error(trained, tmp_path, capsys, section, key, literal, stage, names):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    cfg = write_config(tmp_path, {section: {key: 0.125}})
    cfg.write_text(cfg.read_text().replace("0.125", literal))
    assert_clean_exit(["--config", cfg, "--out", out, stage], capsys, cli.EXIT_USAGE, repr(names))


@pytest.mark.parametrize(
    "overrides, stage, names",
    [
        ({"train": {"meta_batch": 0}}, "train", "'train'"),
        ({"train": {"lr": -0.01}}, "train", "'train'"),
        ({"train": {"lr": 0.0}}, "train", "'train'"),
        ({"train": {"weight_decay": -0.5}}, "train", "'train'"),
        ({"learner": {"kind": "bogus"}}, "train", "'learner'"),
        ({"hessian": {"method": "bogus"}}, "hessian", "'hessian.method'"),
        ({"experiments": {"run": ["bogus"]}}, "experiment", "'experiments.run'"),
        (
            {"experiments": {"run": ["self_rank", "degradation"], "degradation": {"alphas": [2.0]}}},
            "experiment",
            "'experiments.degradation.alphas'",
        ),
        (
            {"experiments": {"run": ["exact_vs_gn"], "exact_vs_gn": {"keep_grid": [0, 4]}}},
            "experiment",
            "'experiments.exact_vs_gn.keep_grid'",
        ),
        (
            {"experiments": {"run": ["exact_vs_gn"], "exact_vs_gn": {"capacity_grid": [4, 4]}}},
            "experiment",
            "'experiments.exact_vs_gn.capacity_grid'",
        ),
        (
            {"tasksets": {"noise": dict(BASE_CONFIG["tasksets"]["noise"], kind="clustered")}},
            "gen",
            "'tasksets.noise.kind'",
        ),
        ({"hessian": {"method": "gn", "capacity": 0}}, "hessian", "'hessian.capacity'"),
        ({"hessian": {"method": "gn", "capacity": -4}}, "hessian", "'hessian.capacity'"),
        ({"hessian": {"dense_cap": -1}}, "hessian", "'hessian.dense_cap'"),
        (
            {"experiments": {"run": ["degradation"], "degradation": {"alphas": [0.5]}}},
            "experiment",
            "'experiments.degradation.alphas'",
        ),
        (
            {"experiments": {"run": ["degradation"], "degradation": {"ratios": []}}},
            "experiment",
            "'experiments.degradation.ratios'",
        ),
        (
            {"experiments": {"run": ["exact_vs_gn"], "exact_vs_gn": {"keep_grid": []}}},
            "experiment",
            "'experiments.exact_vs_gn.keep_grid'",
        ),
        # a grid is checked whether or not its experiment is requested
        (
            {"experiments": {"run": ["self_rank"], "degradation": {"ratios": [0.0, 1.5]}}},
            "experiment",
            "'experiments.degradation.ratios'",
        ),
        (
            {"experiments": {"run": [], "exact_vs_gn": {"capacity_grid": [8, 0]}}},
            "experiment",
            "'experiments.exact_vs_gn.capacity_grid'",
        ),
    ],
    ids=[
        "meta_batch-zero", "lr-negative", "lr-zero", "weight_decay-negative", "learner-kind", "hessian-method", "experiment-name", "degradation-alpha",
        "exact_vs_gn-keep-zero", "exact_vs_gn-capacity-repeat", "noise-kind",
        "capacity-zero", "capacity-negative", "dense_cap-negative",
        "degradation-alphas-one", "degradation-ratios-empty", "exact_vs_gn-keep-empty",
        "degradation-unrequested", "exact_vs_gn-unrequested",
    ],
)
def test_config_fault_is_reported_before_any_artifact_is_read(tmp_path, capsys, overrides, stage, names):
    # every stage reads the whole config first, so gen refuses the fault too, and nothing is created
    cfg = write_config(tmp_path, overrides)
    for command in (stage, "gen"):
        assert_clean_exit(["--config", cfg, "--out", tmp_path / "empty", command], capsys, cli.EXIT_USAGE, names)
        assert not (tmp_path / "empty").exists()


def test_config_integral_float_is_an_integer(tmp_path):
    steps = cli.load_config(write_config(tmp_path, {"train": {"steps": 3.0}})).train.steps
    assert steps == 3 and isinstance(steps, int)


@pytest.mark.parametrize(
    "doc", [None, 5, dict(BASE_CONFIG, hessian=[]), dict(BASE_CONFIG, experiments=None)],
    ids=["null", "number", "hessian-list", "experiments-null"],
)
def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit(["--config", path, "--out", tmp_path / "out", "gen"], capsys, cli.EXIT_USAGE)


def rewrite_header(path, edit):
    """Replace a binary artifact's JSON header by ``edit(header)``, keeping magic, version and payload."""
    data = path.read_bytes()
    magic, version, size = struct.unpack("<4sIQ", data[:16])
    text = json.dumps(edit(json.loads(data[16 : 16 + size])), sort_keys=True).encode()
    path.write_bytes(struct.pack("<4sIQ", magic, version, len(text)) + text + data[16 + size :])


@pytest.mark.parametrize(
    "artifact, field, value, stage, what",
    [
        ("params.bin", "kind", "hopfield", "hessian", "unknown learner kind 'hopfield'"),
        ("hessian.bin", "variant", "sparse", "influence", "unknown variant 'sparse'"),
        ("hessian.bin", "method", "bfgs", "influence", "unknown method 'bfgs'"),
    ],
    ids=["learner-kind", "hessian-variant", "hessian-method"],
)
def test_unknown_header_name_is_usage_error(
    trained, tmp_path, capsys, artifact, field, value, stage, what
):
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    rewrite_header(out / artifact, lambda header: dict(header, **{field: value}))
    args = ["--config", cfg, "--out", out, stage]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, out / artifact, what)


def _version_1(path):
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "corrupt, what",
    [
        (_version_1, "unsupported version 1 of a MetaParams file"),
        (lambda path: rewrite_header(path, lambda header: [header]), "is not a JSON object"),
    ],
    ids=["version-1", "header-not-an-object"],
)
def test_unreadable_params_header_is_usage_error(trained, tmp_path, capsys, corrupt, what):
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    corrupt(out / "params.bin")
    args = ["--config", cfg, "--out", out, "hessian"]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, out / "params.bin", what)


def _drop_query(doc):
    del doc["tasks"][1]["query"]
    return doc


def _huge_label(doc):
    doc["tasks"][1]["support"]["y"][0] = 10**30
    return doc


def _repeated_id(doc):
    doc["tasks"][1]["id"] = doc["tasks"][0]["id"]
    return doc


def _number_for_a_digest(doc):
    doc["inputs"]["tasksets.train"] = 5
    return doc


@pytest.mark.parametrize(
    "corrupt, needle",
    [
        (_drop_query, "has no field 'query'"),
        (lambda doc: doc["tasks"], "is not a taskset"),
        (_number_for_a_digest, "records no object of input digests"),
        (_huge_label, "labels must fit in int64"),
        (_repeated_id, "repeats"),
    ],
    ids=["task-without-query", "top-level-array", "digest-not-a-string", "label-beyond-int64", "repeated-id"],
)
def test_taskset_schema_error_is_usage_error(trained, tmp_path, capsys, corrupt, needle):
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    path = out / "train_tasks.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(corrupt(doc)))
    names_task = "field" in needle or "int64" in needle or needle == "repeats"
    needles = [path, needle] + ([repr(doc["tasks"][1]["id"])] if names_task else [])
    assert_clean_exit(["--config", cfg, "--out", out, "hessian"], capsys, cli.EXIT_USAGE, *needles)


def test_truncated_taskset_is_usage_error(trained, tmp_path, capsys):
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    path = out / "train_tasks.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    needles = [path, "is not valid JSON at char"]
    assert_clean_exit(["--config", cfg, "--out", out, "hessian"], capsys, cli.EXIT_USAGE, *needles)


def test_report_csv_writes_both_degradation_tables(trained, tmp_path):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    degradation = {"alphas": [0.0, 1.0], "ratios": [0.0, 0.5, 1.0], "seed": 3}
    cfg = write_config(tmp_path, {"experiments": {"run": ["degradation"], "degradation": degradation}})
    assert run(["--config", cfg, "--out", out, "experiment"]) == cli.EXIT_OK
    assert run(["--config", cfg, "--out", out, "report", "--csv"]) == cli.EXIT_OK
    n_train = len(json.loads((out / "train_tasks.json").read_text())["tasks"])
    for sweep in ("alpha", "ratio"):
        lines = (out / f"report_degradation_{sweep}.csv").read_text().splitlines()
        assert len(lines) == 1 + n_train
        assert lines[0] == "rank_corr,score_corr,self_ranks,self_scores,task_id"


@pytest.mark.parametrize(
    "doc, flags",
    [
        ([], []),
        ({"results": []}, []),
        ({"results": {"self_rank": {"results": {"per_test": [1, 2]}}}}, ["--csv"]),
        ({"results": {"degradation": {"results": {"alpha": 1}}}}, []),
        ({"results": {"self_rank": {"results": ["summary"]}}}, []),
        ({"results": {"self_rank": {"results": []}}}, ["--csv"]),
    ],
    ids=["top-level-array", "results-array", "csv-rows-not-objects", "sweep-number",
         "nested-results-array", "csv-nested-results-array"],
)
def test_malformed_report_is_usage_error(tmp_path, capsys, doc, flags):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    path = out / "report.json"
    path.write_text(json.dumps(doc))
    args = ["--config", cfg, "--out", out, "report", *flags]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, path, "is not a report")


@pytest.mark.parametrize(
    "stage, loads", [("train", 1), ("hessian", 1), ("influence", 2), ("experiment", 1)]
)
def test_each_stage_parses_each_taskset_once(trained, tmp_path, monkeypatch, stage, loads):
    from metainfluence import taskgen

    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    # distinction reads the influence stage's scores.bin, not the test taskset
    assert "distribution_distinction" in BASE_CONFIG["experiments"]["run"]
    if stage == "experiment":
        assert run(["--config", cfg, "--out", out, "influence"]) == cli.EXIT_OK
    paths = []
    real_load = taskgen.load_taskset

    def counting_load(path):
        paths.append(Path(path))
        return real_load(path)

    monkeypatch.setattr(taskgen, "load_taskset", counting_load)
    assert run(["--config", cfg, "--out", out, stage]) == cli.EXIT_OK
    assert len(paths) == loads
    assert len(set(paths)) == loads
    assert (out / "test_tasks.json" in paths) == (stage == "influence")


GN_HESSIAN = {"hessian": {"method": "gn", "capacity": 32, "keep": "all"}}


@pytest.mark.parametrize(
    "stage, fails_on",
    [
        ("hessian", lambda a: a.shape[0] == 3),
        ("hessian", lambda a: a.shape[0] != 3),
        ("influence", lambda a: True),
    ],
    ids=["softmax-block", "gram-matrix", "factored-invert"],
)
def test_eigensolver_failure_is_numerical_failure(trained, tmp_path, capsys, monkeypatch, stage, fails_on):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    cfg = write_config(tmp_path, GN_HESSIAN)
    if stage == "influence":
        assert run(["--config", cfg, "--out", out, "hessian"]) == cli.EXIT_OK
    real_eigh = np.linalg.eigh

    def eigh(a):
        if fails_on(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    args = ["--config", cfg, "--out", out, stage]
    assert_clean_exit(args, capsys, cli.EXIT_NUMERICAL, "did not converge")


def test_non_psd_softmax_curvature_is_numerical_failure(trained, tmp_path, capsys, monkeypatch):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    cfg = write_config(tmp_path, GN_HESSIAN)
    # a negated softmax makes each diag(s) - s s^T block negative definite
    monkeypatch.setattr(hessian, "model", SimpleNamespace(softmax=lambda z: -model.softmax(z)))
    args = ["--config", cfg, "--out", out, "hessian"]
    assert_clean_exit(args, capsys, cli.EXIT_NUMERICAL, "eigenvalue", "below")


def test_fd_asymmetry_is_numerical_failure(tmp_path, capsys, monkeypatch):
    mp, tasks = fd_asymmetric_problem()
    out = tmp_path / "out"
    out.mkdir()
    taskgen.save_taskset(out / "train_tasks.json", tasks)
    cfg = write_config(tmp_path, {"model": {"layer_widths": [4, 5, 3]}})
    metalearn.save_params(out / "params.bin", mp, cli._inputs(cli.load_config(cfg), out, "params.bin"))
    monkeypatch.setattr(hessian, "FD_STEP_SCALE", 1e-1)
    args = ["--config", cfg, "--out", out, "hessian"]
    assert_clean_exit(args, capsys, cli.EXIT_NUMERICAL, "pre-symmetrization asymmetry")
    assert not (out / "hessian.bin").exists()


def test_ill_conditioned_keep_is_usage_error(trained, tmp_path, capsys):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    q = metalearn.load_params(out / "params.bin").q
    lam = np.ones(q)
    lam[-1] = 1e-14
    rep = hessian.HessianRep("dense", matrix=np.diag(lam))
    cfg = write_config(tmp_path, {"hessian": {"keep": q}})
    hessian.save_hessian(out / "hessian.bin", rep, cli._inputs(cli.load_config(cfg), out, "hessian.bin"))
    args = ["--config", cfg, "--out", out, "influence"]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, "ill-conditioned inversion requested")


def test_influence_without_test_tasks_scores_the_training_tasks(trained, tmp_path):
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    (out / "test_tasks.json").unlink()
    assert run(["--config", cfg, "--out", out, "influence"]) == cli.EXIT_OK
    lines = (out / "scores.csv").read_text().strip().split("\n")
    assert len(lines) == 2 + 8 * 8
    files, sections = cli.INPUTS["scores.bin"]
    assert set(artifact.inputs(out / "scores.bin", "scores")) == {*files, *sections} - {"test_tasks.json"}


DISTINCTION_ONLY = {"experiments": {"run": ["distribution_distinction"]}}


@pytest.fixture(scope="module")
def scored(trained, tmp_path_factory):
    """The trained output directory after the influence stage as well."""
    cfg, done = trained
    out = tmp_path_factory.mktemp("scored") / "out"
    shutil.copytree(done, out)
    assert run(["--config", cfg, "--out", out, "influence"]) == cli.EXIT_OK
    return cfg, out


def _perturb_first_feature(path):
    doc = json.loads(path.read_text())
    doc["tasks"][0]["query"]["x"][0][0] += 0.5
    path.write_text(json.dumps(doc))


def _edit_header(name):
    """Rewrite ``name``'s header with one more field: another file that still records its own inputs."""

    def corrupt(cfg, out):
        rewrite_header(out / name, lambda header: dict(header, note="edited"))

    return corrupt


def _foreign_train_tasks(cfg, out):
    """Copy in the tasks of the same config with ``tasksets.train.seed`` 12, with no inputs, as an ingested file holds."""
    train = dict(BASE_CONFIG["tasksets"]["train"], seed=12)
    other = write_config(out.parent, {"tasksets": {"train": train}}, name="foreign.json")
    assert run(["--config", other, "--out", out.parent / "foreign", "gen"]) == cli.EXIT_OK
    taskgen.save_taskset(out / "train_tasks.json", taskgen.load_taskset(out.parent / "foreign" / "train_tasks.json")[0])


def _retrained_after(corrupt):
    """``corrupt``, then the train stage again, so params.bin is trained on the changed taskset."""

    def corrupt_and_retrain(cfg, out):
        corrupt(cfg, out)
        assert run(["--config", cfg, "--out", out, "train"]) == cli.EXIT_OK

    return corrupt_and_retrain


def _drop_input(artifact_name, source):
    def corrupt(cfg, out):
        rewrite_header(out / artifact_name, lambda h: dict(h, inputs={k: v for k, v in h["inputs"].items() if k != source}))

    return corrupt


def _rescore_training_tasks(cfg, out):
    shutil.move(out / "test_tasks.json", out / "held.json")
    assert run(["--config", cfg, "--out", out, "influence"]) == cli.EXIT_OK
    shutil.move(out / "held.json", out / "test_tasks.json")


def _score_other_tests(cfg, out):
    # score a foreign test taskset planted in out under its own config, then put the run's own one back
    other_cfg = write_config(out.parent, {"tasksets": {"test": {"count": 3, "seed": 18}}}, name="other.json")
    assert run(["--config", other_cfg, "--out", out.parent / "other", "gen"]) == cli.EXIT_OK
    shutil.move(out / "test_tasks.json", out / "held.json")
    shutil.copy(out.parent / "other" / "test_tasks.json", out / "test_tasks.json")
    assert run(["--config", other_cfg, "--out", out, "influence"]) == cli.EXIT_OK
    shutil.move(out / "held.json", out / "test_tasks.json")


@pytest.mark.parametrize(
    "corrupt, overrides, needles",
    [
        (_edit_header("params.bin"), {}, ["built from another params.bin than"]),
        (
            _retrained_after(lambda cfg, out: _perturb_first_feature(out / "train_tasks.json")),
            {},
            ["built from another params.bin and train_tasks.json than"],
        ),
        (_edit_header("hessian.bin"), {}, ["built from another hessian.bin than"]),
        (lambda cfg, out: None, {"hessian": {"keep": "all"}}, ["built from another config section 'hessian.keep' than"]),
        (lambda cfg, out: _perturb_first_feature(out / "test_tasks.json"), {}, ["built from another test_tasks.json than"]),
        (_score_other_tests, {}, ["built from another test_tasks.json and config section 'tasksets.test' than"]),
        (_rescore_training_tasks, {}, ["records no sha256 of test_tasks.json"]),
        (_drop_input("scores.bin", "train_tasks.json"), {}, ["records no sha256 of train_tasks.json"]),
    ],
    ids=["params", "training-taskset", "hessian", "keep", "test-taskset", "other-test-taskset", "no-test-taskset",
         "no-digest"],
)
def test_scores_from_other_inputs_are_refused(scored, tmp_path, capsys, corrupt, overrides, needles):
    base_cfg, done = scored
    out = tmp_path / "out"
    shutil.copytree(done, out)
    corrupt(base_cfg, out)
    cfg = write_config(tmp_path, {**DISTINCTION_ONLY, **overrides}, name="distinction.json")
    assert_clean_exit(["--config", cfg, "--out", out, "experiment"], capsys, cli.EXIT_USAGE, out / "scores.bin", *needles)
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "corrupt, stage, artifact_name, needle",
    [
        (_foreign_train_tasks, "hessian", "params.bin", "another train_tasks.json"),
        (_foreign_train_tasks, "influence", "params.bin", "another train_tasks.json"),
        (_foreign_train_tasks, "experiment", "params.bin", "another train_tasks.json"),
        (_drop_input("params.bin", "train_tasks.json"), "hessian", "params.bin", "no sha256 of train_tasks.json"),
        (_edit_header("params.bin"), "influence", "hessian.bin", "another params.bin than"),
        (_edit_header("params.bin"), "experiment", "hessian.bin", "another params.bin than"),
        (_retrained_after(_foreign_train_tasks), "influence", "hessian.bin", "another params.bin and train_tasks.json"),
        (_drop_input("hessian.bin", "params.bin"), "influence", "hessian.bin", "no sha256 of params.bin"),
    ],
    ids=[
        "params-foreign-taskset-hessian", "params-foreign-taskset-influence", "params-foreign-taskset-experiment",
        "params-unrecorded-taskset", "hessian-other-params-influence", "hessian-other-params-experiment",
        "hessian-foreign-taskset", "hessian-unrecorded-params",
    ],
)
def test_artifact_from_other_inputs_is_refused(trained, tmp_path, capsys, corrupt, stage, artifact_name, needle):
    # each artifact records the sha256 of the files it was built from; a stage that loads it refuses other files
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    corrupt(cfg, out)
    before = digest_tree(out)
    assert_clean_exit(["--config", cfg, "--out", out, stage], capsys, cli.EXIT_USAGE, out / artifact_name, needle)
    assert digest_tree(out) == before


@pytest.mark.parametrize("missing", ["scores.bin", "test_tasks.json"])
def test_distinction_without_its_inputs_is_io_error(scored, tmp_path, capsys, missing):
    _, done = scored
    out = tmp_path / "out"
    shutil.copytree(done, out)
    (out / missing).unlink()
    cfg = write_config(tmp_path, DISTINCTION_ONLY, name="distinction.json")
    assert_clean_exit(["--config", cfg, "--out", out, "experiment"], capsys, cli.EXIT_IO, out / missing)


def test_distinction_reads_the_stored_table(scored, tmp_path):
    # the report is the one run_distribution_distinction gives for the stored table
    cfg, done = scored
    out = tmp_path / "out"
    shutil.copytree(done, out)
    distinction_cfg = write_config(tmp_path, DISTINCTION_ONLY, name="distinction.json")
    assert run(["--config", distinction_cfg, "--out", out, "experiment"]) == cli.EXIT_OK
    got = json.loads((out / "report.json").read_text())["results"]["distribution_distinction"]
    tasks, _ = taskgen.load_taskset(out / "train_tasks.json")
    table = influence.load_score_table(out / "scores.bin")
    assert got == json.loads(json.dumps(experiments.run_distribution_distinction(table, tasks)))
    assert table.test_ids == [t.task_id for t in taskgen.load_taskset(out / "test_tasks.json")[0]]


@pytest.mark.parametrize(
    "overrides, stage, refused, section",
    [
        ({"train": {"steps": 300}}, "hessian", "params.bin", "train"),
        ({"train": {"lr": 0.05}}, "influence", "params.bin", "train"),
        ({"hessian": {"method": "gn"}}, "influence", "hessian.bin", "hessian.method"),
        ({"learner": {"inner_lr": 0.2}}, "hessian", "params.bin", "learner"),
        ({"tasksets": {"train": dict(BASE_CONFIG["tasksets"]["train"], seed=12)}}, "train", "train_tasks.json", "tasksets.train"),
        ({"tasksets": {"test": {"count": 3, "seed": 18}}}, "influence", "test_tasks.json", "tasksets.test"),
        ({"tasksets": {"noise": {"count": 2, "seed": 14}}}, "train", "train_tasks.json", "tasksets.noise"),
        ({"tasksets": {"train": dict(BASE_CONFIG["tasksets"]["train"], count=7)}}, "train", "train_tasks.json",
         "tasksets.train"),
        ({"tasksets": {"mix_seed": 20}}, "train", "train_tasks.json", "tasksets.mix_seed"),
        ({"tasksets": {"augment": {"count": 2, "seed": 3}}}, "train", "train_tasks.json", "tasksets.augment"),
        ({"tasksets": {"test": {"count": 5, "seed": 17}}}, "influence", "test_tasks.json", "tasksets.test"),
        ({"tasksets": {"test": {"count": 5, "seed": 17}}}, "experiment", "scores.bin", "tasksets.test"),
    ],
    ids=["train-steps", "train-lr", "hessian-method", "learner-inner_lr", "train-taskset-seed", "test-taskset-seed",
         "noise-seed", "train-taskset-count", "mix-seed", "augment", "test-taskset-count-influence",
         "test-taskset-count-experiment"],
)
def test_artifact_built_under_another_config_is_refused(scored, tmp_path, capsys, overrides, stage, refused, section):
    # one run directory, one config: a stage refuses what was built under another value of a section it depends on
    _, done = scored
    out = tmp_path / "out"
    shutil.copytree(done, out)
    cfg = write_config(tmp_path, overrides, name="changed.json")
    before = digest_tree(out)
    needles = [out / refused, f"config section '{section}'"]
    assert_clean_exit(["--config", cfg, "--out", out, stage], capsys, cli.EXIT_USAGE, *needles)
    assert digest_tree(out) == before


def test_ingested_taskset_is_not_refused_and_params_record_its_bytes(tmp_path):
    # a taskset that records no inputs, as an ingested one, trains under any tasksets section
    out = tmp_path / "out"
    assert run(["--config", write_config(tmp_path), "--out", out, "gen"]) == cli.EXIT_OK
    path = out / "train_tasks.json"
    taskgen.save_taskset(path, taskgen.load_taskset(path)[0])
    cfg = write_config(tmp_path, {"tasksets": {"noise": {"count": 2, "seed": 14}}}, name="noise.json")
    assert run(["--config", cfg, "--out", out, "train"]) == cli.EXIT_OK
    sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    assert artifact.inputs(out / "params.bin", "params")["train_tasks.json"] == sha256


def test_a_section_no_artifact_was_built_under_is_not_refused(scored, tmp_path):
    # experiments is recorded nowhere, and tasksets.test only in test_tasks.json and scores.bin,
    # which gen and influence remake
    _, done = scored
    out = tmp_path / "out"
    shutil.copytree(done, out)
    before = digest_tree(out)
    cfg = write_config(tmp_path, {"experiments": {"run": ["self_rank"]}}, name="experiments.json")
    assert run(["--config", cfg, "--out", out, "experiment"]) == cli.EXIT_OK
    cfg = write_config(tmp_path, {"tasksets": {"test": {"count": 3, "seed": 18}}}, name="tests.json")
    for stage in ("gen", "influence", "experiment"):
        assert run(["--config", cfg, "--out", out, stage]) == cli.EXIT_OK, stage
    after = digest_tree(out)
    assert all(after[name] == before[name] for name in ("params.bin", "hessian.bin", "train_tasks.json"))
    assert after["test_tasks.json"] != before["test_tasks.json"]
