import json
import hashlib
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fd_asymmetric_problem
from metainfluence import cli, hessian, metalearn, model, taskgen


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
    "hessian": {"method": "exact", "keep": "positive", "dense_cap": 200},
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
        "report.json",
    }
    assert expected <= set(digest_tree(out_a))
    assert digest_tree(out_a) == digest_tree(out_b)


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


def test_invalid_config_section_is_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BASE_CONFIG, bogus={})))
    assert run(["--config", path, "gen"]) == cli.EXIT_USAGE


def test_missing_artifact_is_io_error(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "train"]) == cli.EXIT_IO


def test_dense_cap_violation_is_usage_error(tmp_path):
    cfg = write_config(tmp_path, {"hessian": {"dense_cap": 10}})
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "gen"]) == cli.EXIT_OK
    assert run(["--config", cfg, "--out", out, "train"]) == cli.EXIT_OK
    assert run(["--config", cfg, "--out", out, "hessian"]) == cli.EXIT_USAGE


def test_mismatched_hessian_params_is_usage_error(tmp_path):
    out = pipeline(tmp_path, "out")
    other_cfg = write_config(
        tmp_path, {"model": {"layer_widths": [6, 4, 3]}}, name="other.json"
    )
    out2 = tmp_path / "out2"
    assert run(["--config", other_cfg, "--out", out2, "gen"]) == cli.EXIT_OK
    assert run(["--config", other_cfg, "--out", out2, "train"]) == cli.EXIT_OK
    # mix params from out2 with hessian from out
    assert (
        run(
            [
                "--config",
                other_cfg,
                "--out",
                out2,
                "influence",
                "--hessian",
                out / "hessian.bin",
            ]
        )
        == cli.EXIT_USAGE
    )


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


def test_scores_csv_row_count(tmp_path):
    out = pipeline(tmp_path, "out")
    lines = (out / "scores.csv").read_text().strip().split("\n")
    # header comment + column header + |test| * |train| rows
    assert len(lines) == 2 + 3 * 8


def test_seed_override_decides_params(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run(["--config", cfg, "--out", out, "gen"]) == cli.EXIT_OK
    params = []
    for seed in (5, 5, 6):
        assert run(["--config", cfg, "--out", out, "--seed", seed, "train"]) == cli.EXIT_OK
        params.append((out / "params.bin").read_bytes())
    assert params[0] == params[1]
    assert params[0] != params[2]


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
    for cfg, out, foreign, built, has in ((cfg5, out5, out8, 8, 5), (cfg8, out8, out5, 5, 8)):
        capsys.readouterr()
        args = ["--config", cfg, "--out", out, "influence", "--hessian", foreign / "hessian.bin"]
        assert run(args) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"built on {built} tasks, but the training taskset has {has}" in err
    # experiment reads hessian.bin from its own directory; plant the foreign one there
    crossed = tmp_path / "crossed"
    shutil.copytree(out5, crossed)
    shutil.copy(out8 / "hessian.bin", crossed / "hessian.bin")
    capsys.readouterr()
    assert run(["--config", cfg5, "--out", crossed, "experiment"]) == cli.EXIT_USAGE
    assert "built on 8 tasks, but the training taskset has 5" in capsys.readouterr().err


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


def test_config_integral_float_is_an_integer(tmp_path):
    steps = cli.load_config(write_config(tmp_path, {"train": {"steps": 3.0}})).train["steps"]
    assert steps == 3 and isinstance(steps, int)


@pytest.mark.parametrize(
    "doc", [None, 5, dict(BASE_CONFIG, hessian=[]), dict(BASE_CONFIG, experiments=None)],
    ids=["null", "number", "hessian-list", "experiments-null"],
)
def test_config_that_is_not_an_object_is_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit(["--config", path, "--out", tmp_path / "out", "gen"], capsys, cli.EXIT_USAGE)


@pytest.mark.parametrize(
    "artifact, offset, code, stage, what",
    [
        ("params.bin", 8, 7, "hessian", "learner kind code 7"),
        ("hessian.bin", 8, 2, "influence", "Hessian variant code 2"),
        ("hessian.bin", 9, 5, "influence", "Hessian method code 5"),
    ],
)
def test_unknown_binary_code_is_usage_error(
    trained, tmp_path, capsys, artifact, offset, code, stage, what
):
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    data = bytearray((out / artifact).read_bytes())
    data[offset] = code
    (out / artifact).write_bytes(bytes(data))
    args = ["--config", cfg, "--out", out, stage]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, out / artifact, what)


def _drop_query(doc):
    del doc["tasks"][1]["query"]
    return doc


def _huge_label(doc):
    doc["tasks"][1]["support"]["y"][0] = 10**30
    return doc


@pytest.mark.parametrize(
    "corrupt, needle",
    [
        (_drop_query, "has no field 'query'"),
        (lambda doc: doc["tasks"], "is not a taskset"),
        (lambda doc: dict(doc, spec=dict(doc["spec"], colour="red")), "bad taskset spec"),
        (_huge_label, "labels must fit in int64"),
    ],
    ids=["task-without-query", "top-level-array", "unknown-spec-field", "label-beyond-int64"],
)
def test_taskset_schema_error_is_usage_error(trained, tmp_path, capsys, corrupt, needle):
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    path = out / "train_tasks.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(corrupt(doc)))
    names_task = "field" in needle or "int64" in needle
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
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    args = ["--config", cfg, "--out", tmp_path, "report", "--report", path, *flags]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, path, "is not a report")


@pytest.mark.parametrize(
    "stage, loads", [("train", 1), ("hessian", 1), ("influence", 2), ("experiment", 2)]
)
def test_each_stage_parses_each_taskset_once(trained, tmp_path, monkeypatch, stage, loads):
    from metainfluence import taskgen

    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    assert "distribution_distinction" in BASE_CONFIG["experiments"]["run"]
    paths = []
    real_load = taskgen.load_taskset

    def counting_load(path):
        paths.append(Path(path))
        return real_load(path)

    monkeypatch.setattr(taskgen, "load_taskset", counting_load)
    assert run(["--config", cfg, "--out", out, stage]) == cli.EXIT_OK
    assert len(paths) == loads
    assert len(set(paths)) == loads


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
    metalearn.save_params(out / "params.bin", mp)
    taskgen.save_taskset(out / "train_tasks.json", tasks)
    cfg = write_config(tmp_path, {"model": {"layer_widths": [4, 5, 3]}})
    monkeypatch.setattr(hessian, "FD_STEP_SCALE", 1e-1)
    args = ["--config", cfg, "--out", out, "hessian"]
    assert_clean_exit(args, capsys, cli.EXIT_NUMERICAL, "pre-symmetrization asymmetry")
    assert not (out / "hessian.bin").exists()


def test_ill_conditioned_keep_is_usage_error(trained, tmp_path, capsys):
    _, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    q = metalearn.load_params(out / "params.bin").q
    num_tasks = len(taskgen.load_taskset(out / "train_tasks.json")[0])
    lam = np.ones(q)
    lam[-1] = 1e-14
    rep = hessian.HessianRep("dense", matrix=np.diag(lam), num_tasks=num_tasks)
    hessian.save_hessian(out / "hessian.bin", rep)
    cfg = write_config(tmp_path, {"hessian": {"keep": q}})
    args = ["--config", cfg, "--out", out, "influence"]
    assert_clean_exit(args, capsys, cli.EXIT_USAGE, "ill-conditioned inversion requested")


def test_explicit_test_taskset_must_exist(trained, tmp_path, capsys):
    cfg, done = trained
    out = tmp_path / "out"
    shutil.copytree(done, out)
    missing = tmp_path / "no_such_file.json"
    args = ["--config", cfg, "--out", out, "influence", "--test-taskset", missing]
    assert_clean_exit(args, capsys, cli.EXIT_IO, missing)
    assert not (out / "scores.csv").exists()
    # without the flag, a missing default test taskset still falls back to the training tasks
    (out / "test_tasks.json").unlink()
    assert run(["--config", cfg, "--out", out, "influence"]) == cli.EXIT_OK
    lines = (out / "scores.csv").read_text().strip().split("\n")
    assert len(lines) == 2 + 8 * 8
