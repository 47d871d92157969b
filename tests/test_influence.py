import tracemalloc

import numpy as np
import pytest

from conftest import adaptation_jacobian, make_params, project
from metainfluence import hessian, metalearn, taskgen
from metainfluence.hessian import SpectralInverse, exact_meta_hessian, invert
from metainfluence.influence import (
    InfluenceRecord,
    influence_group,
    influence_meta,
    influence_perf,
    influence_records,
    load_influence_records,
    rank_rows,
    save_influence_records,
    score_pairs,
    score_table,
)
from metainfluence.metalearn import MetaParams, TruncatedFileError, adapt, adapt_jacobian_matvec, meta_grad


def sample_tasks(seed=7, count=4, d=6, ways=3, ks=4, kq=5, noise=0.6):
    spec = taskgen.TaskDistributionSpec("clustered", d, ways, ks, kq, within_class_noise=noise, seed=seed)
    return taskgen.sample_taskset(spec, count)


def identity_inverse(q):
    return SpectralInverse(vectors=np.eye(q), values=np.ones(q), discarded_negative=0, keep=q)


def test_influence_meta_identity_inverse_is_negative_grad(rng):
    mp = make_params(rng)
    task = sample_tasks()[0]
    rec = influence_meta(identity_inverse(mp.q), mp, task)
    np.testing.assert_allclose(rec.i_meta, -meta_grad(mp, task), atol=1e-12)
    assert rec.task_id == task.task_id


def test_influence_meta_dimension_mismatch(rng):
    mp = make_params(rng)
    with pytest.raises(ValueError):
        influence_meta(identity_inverse(mp.q + 1), mp, sample_tasks()[0])


def test_influence_meta_zero_at_task_stationarity():
    # inner_lr 0 and a weight vector that is stationary for this task's query
    from metainfluence.model import Batch, MlpSpec
    from metainfluence.metalearn import Learner, Task

    spec = MlpSpec((2, 2))
    # same input under every label: zero weights are exactly stationary
    x = np.array([[1.0, 0.5], [1.0, 0.5]])
    task = Task("t", Batch(x, np.array([0, 1])), Batch(x, np.array([0, 1])))
    mp = MetaParams(np.zeros(spec.num_params), Learner("maml", spec, 0.0))
    assert np.linalg.norm(meta_grad(mp, task)) <= 1e-15
    rec = influence_meta(identity_inverse(mp.q), mp, task)
    np.testing.assert_allclose(rec.i_meta, 0.0, atol=1e-12)


def test_influence_group_singleton_and_partition(rng):
    mp = make_params(rng)
    tasks = sample_tasks(count=6)
    inv = identity_inverse(mp.q)
    records = []
    for i, t in enumerate(tasks):
        rec = influence_meta(inv, mp, t)
        rec.group_id = f"g{i % 2}"
        records.append(rec)
    single = [r for r in records if r.group_id == "g0"][:1]
    lone = influence_group(single, "g0")
    np.testing.assert_array_equal(lone.i_meta, single[0].i_meta)

    g0 = influence_group(records, "g0")
    g1 = influence_group(records, "g1")
    total_by_groups = g0.i_meta + g1.i_meta
    total_all = records[0].i_meta.copy()
    for r in records[1:]:
        total_all = total_all + r.i_meta
    np.testing.assert_allclose(total_by_groups, total_all, atol=1e-12)


def test_influence_group_bitwise_ordered_sum(rng):
    q = 9
    records = [
        InfluenceRecord(f"t{i}", rng.normal(size=q), group_id="g") for i in range(5)
    ]
    combined = influence_group(records, "g")
    expected = records[0].i_meta.copy()
    for r in records[1:]:
        expected = expected + r.i_meta
    assert np.array_equal(combined.i_meta, expected)


def test_influence_group_unknown_id(rng):
    with pytest.raises(ValueError):
        influence_group([InfluenceRecord("t", np.zeros(3), "a")], "missing")


@pytest.mark.parametrize("kind,inner_lr", [("protonet", 0.0), ("maml", 0.0)])
def test_influence_adapt_identity_cases(kind, inner_lr, rng):
    mp = make_params(rng, kind=kind, inner_lr=inner_lr)
    task = sample_tasks()[0]
    rec = InfluenceRecord("r", rng.normal(size=mp.q))
    np.testing.assert_allclose(adapt_jacobian_matvec(mp, task, rec.i_meta), rec.i_meta, atol=1e-12)


def test_influence_adapt_matches_jacobian_and_fd(rng):
    mp = make_params(rng, inner_lr=0.05)
    task = sample_tasks()[1]
    rec = InfluenceRecord("r", rng.normal(size=mp.q))
    via_jac = adaptation_jacobian(mp, task) @ rec.i_meta
    via_matvec = adapt_jacobian_matvec(mp, task, rec.i_meta)
    np.testing.assert_allclose(via_jac, via_matvec, atol=1e-10)

    # directional FD of the adaptation map along i_meta
    direction = rec.i_meta / np.linalg.norm(rec.i_meta)
    h = 1e-5
    theta_p = adapt(MetaParams(mp.omega + h * direction, mp.learner), task)
    theta_m = adapt(MetaParams(mp.omega - h * direction, mp.learner), task)
    fd = (theta_p - theta_m) / (2 * h) * np.linalg.norm(rec.i_meta)
    np.testing.assert_allclose(via_jac, fd, atol=1e-4 * max(1.0, np.linalg.norm(fd)))


def test_influence_perf_zero_when_test_loss_stationary(rng):
    mp = make_params(rng, inner_lr=0.0)
    task = sample_tasks()[0]
    rec = InfluenceRecord("r", np.zeros(mp.q))
    assert influence_perf(mp, task, rec) == 0.0


def test_influence_perf_linear_in_record(rng):
    mp = make_params(rng, inner_lr=0.05)
    task = sample_tasks()[2]
    rec = InfluenceRecord("r", rng.normal(size=mp.q))
    doubled = InfluenceRecord("r2", 2.0 * rec.i_meta)
    assert influence_perf(mp, task, doubled) == pytest.approx(
        2.0 * influence_perf(mp, task, rec), rel=1e-12
    )


@pytest.mark.parametrize("kind,inner_lr", [("maml", 0.05), ("protonet", 0.0)])
def test_score_pairs_match_composed_chain(kind, inner_lr, rng):
    """The fast score path equals sign * influence_perf built from the chain.

    The chain's weight shift equals the materialized adaptation Jacobian
    applied to the record.
    """
    mp = make_params(rng, kind=kind, inner_lr=inner_lr)
    train_tasks = sample_tasks(count=3)
    test_tasks = sample_tasks(seed=99, count=2)
    inv = identity_inverse(mp.q)
    table = score_table(mp, inv, train_tasks, test_tasks)
    records = [influence_meta(inv, mp, t) for t in train_tasks]
    for i, tt in enumerate(test_tasks):
        jac = adaptation_jacobian(mp, tt)
        for j, rec in enumerate(records):
            np.testing.assert_allclose(adapt_jacobian_matvec(mp, tt, rec.i_meta), jac @ rec.i_meta, atol=1e-10)
            composed = -influence_perf(mp, tt, rec)
            assert table.scores[i, j] == pytest.approx(composed, rel=1e-9, abs=1e-12)


def test_influence_records_match_per_task_records(rng):
    mp = make_params(rng, inner_lr=0.05)
    tasks = sample_tasks(count=5)
    inv = invert(exact_meta_hessian(mp, tasks), "positive")
    batched = influence_records(inv, mp, tasks)
    assert [r.task_id for r in batched] == [t.task_id for t in tasks]
    for rec, t in zip(batched, tasks):
        want = -inv.apply(meta_grad(mp, t))
        np.testing.assert_allclose(rec.i_meta, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())


def test_score_pairs_runs_one_kernel_call_per_chunk(rng, model_calls):
    hvp_calls = model_calls("hvp")
    mp = make_params(rng, inner_lr=0.05)
    records = [InfluenceRecord(f"r{j}", rng.normal(size=mp.q)) for j in range(3)]
    n_test = 2 * metalearn.STACK_CHUNK + 5
    test_tasks = sample_tasks(seed=13, count=n_test)
    scores = score_pairs(mp, records, test_tasks)
    assert len(hvp_calls) == -(-n_test // metalearn.STACK_CHUNK)
    stack = np.stack([r.i_meta for r in records], axis=1)
    loop = np.array([-(meta_grad(mp, t) @ stack) for t in test_tasks])
    np.testing.assert_allclose(scores, loop, rtol=1e-10, atol=1e-14)


def test_protonet_score_pairs_runs_one_backward_sweep_per_chunk(rng, model_calls):
    jacobian_calls, sweeps = model_calls("output_jacobian"), model_calls("_backward")
    mp = make_params(rng, kind="protonet")
    records = [InfluenceRecord(f"r{j}", rng.normal(size=mp.q)) for j in range(3)]
    n_test = 2 * metalearn.STACK_CHUNK + 5
    score_pairs(mp, records, sample_tasks(seed=13, count=n_test))
    assert len(jacobian_calls) == 0
    assert len(sweeps) == -(-n_test // metalearn.STACK_CHUNK)


def test_score_table_single_train_task_rank_zero(rng):
    mp = make_params(rng)
    train = sample_tasks(count=1)
    test = sample_tasks(seed=31, count=3)
    table = score_table(mp, identity_inverse(mp.q), train, test)
    assert np.all(table.ranks == 0)


def test_rank_rows_ties_break_by_id():
    scores = np.array([[1.0, 1.0, 0.5]])
    ranks = rank_rows(scores, ["b", "a", "c"])
    # equal scores: "a" outranks "b"
    assert ranks[0, 1] == 0 and ranks[0, 0] == 1 and ranks[0, 2] == 2


@pytest.mark.parametrize("n_test", [0, 1, 7])
def test_rank_rows_matches_per_row_sort(rng, n_test):
    scores = rng.integers(-2, 3, size=(n_test, 9)).astype(float)  # many ties
    ids = [f"t{j}" for j in rng.permutation(9)]
    expected = np.empty(scores.shape, dtype=int)
    for i, row in enumerate(scores):
        order = sorted(range(9), key=lambda j: (-row[j], ids[j]))
        expected[i, order] = np.arange(9)
    np.testing.assert_array_equal(rank_rows(scores, ids), expected)


def test_ranking_invariant_under_positive_scaling(rng):
    scores = rng.normal(size=(4, 6))
    ids = [f"t{j}" for j in range(6)]
    np.testing.assert_array_equal(rank_rows(scores, ids), rank_rows(3.7 * scores, ids))


def test_projector_consistency_of_records(rng):
    mp = make_params(rng, widths=(4, 4, 3), inner_lr=0.05)
    tasks = sample_tasks(d=4, count=3)
    h = exact_meta_hessian(mp, tasks)
    inv = invert(h, "positive")
    for t in tasks:
        rec = influence_meta(inv, mp, t)
        residual = rec.i_meta - project(inv, rec.i_meta)
        assert np.linalg.norm(residual) <= 1e-6 * max(np.linalg.norm(rec.i_meta), 1e-12)


def test_store_roundtrip(tmp_path, rng):
    records = [
        InfluenceRecord("a", rng.normal(size=7), None),
        InfluenceRecord("b", rng.normal(size=7), "grp"),
    ]
    path = tmp_path / "infl.bin"
    save_influence_records(path, records)
    loaded = load_influence_records(path)
    assert [r.task_id for r in loaded] == ["a", "b"]
    assert [r.group_id for r in loaded] == [None, "grp"]
    for got, want in zip(loaded, records):
        np.testing.assert_array_equal(got.i_meta, want.i_meta)
    save_influence_records(tmp_path / "infl2.bin", loaded)
    assert (tmp_path / "infl.bin").read_bytes() == (tmp_path / "infl2.bin").read_bytes()


def test_store_load_holds_its_payload_once(tmp_path, rng):
    records = [InfluenceRecord(f"t{i}", rng.normal(size=400), None) for i in range(200)]
    path = tmp_path / "infl.bin"
    save_influence_records(path, records)
    payload = 200 * 400 * 8
    tracemalloc.start()
    try:
        loaded = load_influence_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for got, want in zip(loaded, records):
        np.testing.assert_array_equal(got.i_meta, want.i_meta)
    # the bytes, a float copy and then a copy per record were 2x the payload
    assert payload <= peak < 1.25 * payload, peak / payload


def test_store_truncated_payload_raises(tmp_path, rng):
    path = tmp_path / "infl.bin"
    save_influence_records(path, [InfluenceRecord("a", rng.normal(size=7), None)])
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(TruncatedFileError, match="expected 56 more bytes, found 48"):
        load_influence_records(path)


def test_score_csv_round_trips_scores(tmp_path, rng):
    mp = make_params(rng)
    train, test = sample_tasks(count=3), sample_tasks(seed=5, count=2)
    table = score_table(mp, identity_inverse(mp.q), train, test)
    path = tmp_path / "scores.csv"
    table.to_csv(path)
    rows = path.read_text().strip().split("\n")[2:]
    parsed = np.array([float(row.split(",")[2]) for row in rows]).reshape(table.scores.shape)
    np.testing.assert_array_equal(parsed, table.scores)


def test_score_csv_row_count(tmp_path, rng):
    mp = make_params(rng)
    train = sample_tasks(count=3)
    test = sample_tasks(seed=5, count=2)
    table = score_table(mp, identity_inverse(mp.q), train, test)
    path = tmp_path / "scores.csv"
    table.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[1] == "test_id,train_id,score,rank"
    assert len(lines) == 2 + 3 * 2
