"""Self-tests of the benchmark: exact work counts at a tiny shape.

Wall time on a small shared machine is too noisy to decide small changes;
these counts are exact and repeat, so later changes can be judged by them.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import metainfluence as mi  # noqa: E402
from metainfluence import experiments, hessian, linalg, metalearn, model  # noqa: E402

import pipeline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def tiny_problem(seed: int = 7, m: int = 3):
    spec = mi.MlpSpec((4, 5, 3), "tanh")
    tasks = mi.sample_taskset(mi.TaskDistributionSpec("clustered", 4, 3, 2, 1, seed=seed), m)
    mp0 = mi.MetaParams(spec.init_weights(np.random.default_rng(seed)), mi.Learner("maml", spec, 0.05))
    return mp0, tasks


@pytest.fixture
def recorder():
    rec = spans.Recorder()
    rec.install(pipeline._after_hooks())
    try:
        yield rec
    finally:
        rec.uninstall()


def tiny_pipeline(seed: int):
    mp0, tasks = tiny_problem(seed)
    mp, _ = metalearn.meta_train(mp0, tasks, mi.MetaTrainConfig(steps=5, meta_batch=2, seed=seed))
    exact = hessian.exact_meta_hessian(mp, tasks)
    experiments.run_self_rank(mp, hessian.invert(exact, "positive"), tasks)
    gn = hessian.accumulate_gn(mp, tasks, capacity=8)
    experiments.run_self_rank(mp, hessian.invert(gn, "all"), tasks)
    return mp, tasks


def test_exact_hessian_counts(recorder):
    mp0, tasks = tiny_problem()
    hessian.exact_meta_hessian(mp0, tasks)
    q, m = mp0.q, len(tasks)
    assert recorder.calls("model.hvp", under="hessian.exact_meta_hessian") == 2 * q * m
    assert recorder.calls("model.grad", under="hessian.exact_meta_hessian") == 4 * q * m
    assert recorder.calls("linalg.orthogonalize_keep_largest") == 0


def test_factor_buffer_counts(recorder):
    mp0, tasks = tiny_problem()
    hessian.accumulate_gn(mp0, tasks, capacity=8)
    m = len(tasks)
    assert recorder.calls("linalg.orthogonalize_keep_largest", under="hessian.accumulate_gn") == m
    n_query = tasks[0].query.n
    assert recorder.calls("linalg.psd_sqrt_small", under="hessian.accumulate_gn") == m * n_query
    assert recorder.calls("hessian.exact_meta_hessian") == 0


def test_counts_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        rec = spans.Recorder()
        rec.install(pipeline._after_hooks())
        try:
            tiny_pipeline(seed=11)
        finally:
            rec.uninstall()
        layers = pipeline.layer_metrics(rec, {})
        counts.append(
            (
                {p: e[0] for p, e in rec.paths.items()},
                {k: v for k, (v, unit) in layers.items() if unit == "count"},
            )
        )
    assert counts[0] == counts[1]
    assert counts[0][1]["hessian.exact_meta_hessian.calls"] == 1


def test_self_time_excludes_children(recorder):
    mp0, tasks = tiny_problem()
    hessian.exact_meta_hessian(mp0, tasks)
    total = recorder.inclusive_s("hessian.exact_meta_hessian")
    children = sum(recorder.self_s(n) for n in ("model.grad", "model.loss_and_grad", "model.hvp"))
    assert 0.0 <= recorder.self_s("hessian.exact_meta_hessian") <= total
    assert recorder.self_s("hessian.exact_meta_hessian") + children == pytest.approx(total, rel=1e-6)


def test_uninstall_restores_every_binding():
    originals = (model.grad, model.hvp, linalg.orthogonalize_keep_largest, hessian.meta_output_jacobian,
                 mi.influence.meta_grad, mi.experiments.score_pairs, mi.influence.ScoreTable.to_csv)
    rec = spans.Recorder()
    rec.install()
    assert model.grad is not originals[0]
    assert mi.influence.meta_grad is not originals[4]
    rec.uninstall()
    restored = (model.grad, model.hvp, linalg.orthogonalize_keep_largest, hessian.meta_output_jacobian,
                mi.influence.meta_grad, mi.experiments.score_pairs, mi.influence.ScoreTable.to_csv)
    assert all(a is b for a, b in zip(originals, restored))


def test_declared_metrics_match_emitted():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rec = spans.Recorder()
    emitted = set(pipeline.layer_metrics(rec, {})) | {"trace.overhead_s"}
    assert {m["name"] for m in doc["per_layer"]} == emitted
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) == list(pipeline.WORKLOADS)


def test_reference_check_rejects_changed_scores(tmp_path, monkeypatch):
    scores = np.random.default_rng(3).normal(size=(20, 12))
    ref_file = tmp_path / "reference.json"
    ref_file.write_text(json.dumps({"workloads": {"gn-maml": {"5": pipeline.table_digest(scores)}}}))
    monkeypatch.setattr(pipeline, "REFERENCE_FILE", ref_file)
    assert pipeline.reference_check("gn-maml", 6, scores) is None
    assert pipeline.reference_check("gn-maml", 5, scores * (1 + 1e-9))[1]
    assert not pipeline.reference_check("gn-maml", 5, scores * 1.01)[1]
    assert not pipeline.reference_check("gn-maml", 5, scores[:, :-1])[1]
