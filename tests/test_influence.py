import tracemalloc

import numpy as np
import pytest

from conftest import adaptation_jacobian, make_params, meta_loss, project
from metainfluence import artifact, hessian, metalearn, model, taskgen
from metainfluence.hessian import SpectralInverse, exact_meta_hessian, invert
from metainfluence.influence import (
    InfluenceRecord,
    ScoreTable,
    influence_meta,
    influence_records,
    load_influence_records,
    load_score_table,
    rank_rows,
    save_influence_records,
    save_score_table,
    score_pairs,
    score_table,
)
from metainfluence.artifact import TruncatedFileError
from metainfluence.metalearn import MetaParams, adapt, meta_grad


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


def test_influence_adapt_matches_jacobian_and_fd(rng):
    mp = make_params(rng, inner_lr=0.05)
    task = sample_tasks()[1]
    rec = InfluenceRecord("r", rng.normal(size=mp.q))
    via_jac = adaptation_jacobian(mp, task) @ rec.i_meta

    # directional FD of the adaptation map along i_meta
    direction = rec.i_meta / np.linalg.norm(rec.i_meta)
    h = 1e-5
    theta_p = adapt(MetaParams(mp.omega + h * direction, mp.learner), task)
    theta_m = adapt(MetaParams(mp.omega - h * direction, mp.learner), task)
    fd = (theta_p - theta_m) / (2 * h) * np.linalg.norm(rec.i_meta)
    np.testing.assert_allclose(via_jac, fd, atol=1e-4 * max(1.0, np.linalg.norm(fd)))


@pytest.mark.parametrize("kind,inner_lr", [("maml", 0.05), ("protonet", 0.0)])
def test_score_pairs_match_composed_chain(kind, inner_lr, rng):
    """The fast score path equals the composed chain, -g_test . (J_adapt @ record).

    g_test is the query-loss gradient at the adapted weights: the plain
    gradient at adapt(mp, tt) for MAML, and the full meta-gradient for
    protonet, whose weights pass through while the centroids move with them.
    """
    mp = make_params(rng, kind=kind, inner_lr=inner_lr)
    train_tasks = sample_tasks(count=3)
    test_tasks = sample_tasks(seed=99, count=2)
    inv = identity_inverse(mp.q)
    table = score_table(mp, inv, train_tasks, test_tasks)
    records = [influence_meta(inv, mp, t) for t in train_tasks]
    for i, tt in enumerate(test_tasks):
        if kind == "protonet":
            g_test = meta_grad(mp, tt)
        else:
            g_test = model.grad(mp.learner.spec, adapt(mp, tt), tt.query)
        jac = adaptation_jacobian(mp, tt)
        for j, rec in enumerate(records):
            composed = -(g_test @ (jac @ rec.i_meta))
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


def test_score_csv_writes_shortest_repr_bytes(tmp_path):
    scores = np.array([[1e-05, -0.0, 0.1], [1e16, -2.5, 0.1 + 0.2]])
    path = tmp_path / "scores.csv"
    table = ScoreTable(["t0", "t1"], ["a", "b", "c"], scores, np.zeros(2), "all")
    np.testing.assert_array_equal(table.ranks, [[1, 2, 0], [0, 2, 1]])
    table.to_csv(path)
    assert path.read_bytes() == (
        b"# sign_convention=-1 (positive = helpful)\n"
        b"test_id,train_id,score,rank\n"
        b"t0,a,1e-05,1\n"
        b"t0,b,-0.0,2\n"
        b"t0,c,0.1,0\n"
        b"t1,a,1e+16,0\n"
        b"t1,b,-2.5,2\n"
        b"t1,c,0.30000000000000004,1\n"
    )


@pytest.mark.parametrize("kind", ["maml", "protonet"])
def test_score_table_keeps_each_test_loss_and_the_keep_rule(kind, rng):
    mp = make_params(rng, kind=kind, inner_lr=0.05 if kind == "maml" else 0.0)
    train, test = sample_tasks(count=3), sample_tasks(seed=5, count=4)
    table = score_table(mp, identity_inverse(mp.q), train, test)
    np.testing.assert_allclose(table.losses, [meta_loss(mp, t) for t in test], rtol=1e-12)
    assert table.keep == mp.q
    np.testing.assert_array_equal(table.scores, score_pairs(mp, influence_records(identity_inverse(mp.q), mp, train), test))


def test_score_table_store_round_trips_bitwise(tmp_path, rng):
    mp = make_params(rng)
    table = score_table(mp, identity_inverse(mp.q), sample_tasks(count=3), sample_tasks(seed=5, count=4))
    inputs = {name: digit * 64 for name, digit in (("params.bin", "a"), ("train_tasks.json", "b"), ("hessian.bin", "c"))}
    save_score_table(tmp_path / "scores.bin", table, inputs)
    loaded = load_score_table(tmp_path / "scores.bin")
    assert artifact.inputs(tmp_path / "scores.bin", "scores") == inputs
    assert (loaded.test_ids, loaded.train_ids, loaded.keep) == (table.test_ids, table.train_ids, table.keep)
    assert loaded.scores.tobytes() == table.scores.tobytes()
    assert loaded.losses.tobytes() == table.losses.tobytes()
    save_score_table(tmp_path / "again.bin", loaded, inputs)
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "scores.bin").read_bytes()


def test_score_table_store_refuses_ids_that_do_not_fit(tmp_path):
    table = ScoreTable(["t0", "t1"], ["a", "b", "c"], np.zeros((2, 3)), np.zeros(2), "all")
    short = ScoreTable(["t0"], ["a", "b", "c"], np.zeros((2, 3)), np.zeros(2), "all")
    for bad in (short, ScoreTable(table.test_ids, table.train_ids, table.scores, np.zeros(3), "all")):
        save_score_table(tmp_path / "scores.bin", bad, {})
        with pytest.raises(ValueError, match="a score table"):
            load_score_table(tmp_path / "scores.bin")


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
