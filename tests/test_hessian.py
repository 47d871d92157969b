import tracemalloc

import numpy as np
import pytest

from conftest import fd_asymmetric_problem, gn_dense, gram, make_params, project, rel_err
from metainfluence import hessian, linalg, metalearn, model, taskgen
from metainfluence.hessian import (
    HessianRep,
    accumulate_gn,
    exact_meta_hessian,
    gn_columns_for_task,
    invert,
    load_hessian,
    save_hessian,
    spectrum_summary,
)
from metainfluence.metalearn import Learner, MetaParams, Task
from metainfluence.model import Batch, MlpSpec


def sample_tasks(seed=7, count=3, d=6, ways=3, ks=4, kq=5, noise=0.6):
    spec = taskgen.TaskDistributionSpec("clustered", d, ways, ks, kq, within_class_noise=noise, seed=seed)
    return taskgen.sample_taskset(spec, count)


def test_exact_hessian_linear_model_matches_analytic():
    # logistic regression: curvature is J^T (diag(s)-ss^T) J / n, exactly
    spec = MlpSpec((4, 3))
    learner = Learner("maml", spec, 0.0)
    rng = np.random.default_rng(0)
    mp = MetaParams(spec.init_weights(rng, 0.5), learner)
    task = sample_tasks(d=4, count=1, kq=8)[0]
    h = exact_meta_hessian(mp, [task])
    analytic = model.hvp(spec, mp.omega, task.query, np.eye(mp.q))
    assert rel_err(h.matrix, analytic) < 1e-5


def test_exact_hessian_duplicated_taskset_unchanged(rng):
    mp = make_params(rng, widths=(4, 4, 2), inner_lr=0.05)
    tasks = sample_tasks(d=4, ways=2, count=2)
    h1 = exact_meta_hessian(mp, tasks)
    h2 = exact_meta_hessian(mp, tasks + tasks)
    np.testing.assert_allclose(h1.matrix, h2.matrix, atol=1e-12)
    assert h2.num_tasks == 4


def test_exact_hessian_dense_cap(rng):
    mp = make_params(rng, widths=(6, 5, 3))
    with pytest.raises(ValueError):
        exact_meta_hessian(mp, sample_tasks(), dense_cap=10)


def test_exact_hessian_matches_fd_of_meta_grad(rng):
    mp = make_params(rng, widths=(5, 4, 3), inner_lr=0.05)
    tasks = sample_tasks(d=5, count=2)
    h = exact_meta_hessian(mp, tasks)
    v = rng.normal(size=mp.q)
    step = 1e-5
    gp = np.zeros(mp.q)
    gm = np.zeros(mp.q)
    for t in tasks:
        gp += metalearn.meta_grad(MetaParams(mp.omega + step * v, mp.learner), t)
        gm += metalearn.meta_grad(MetaParams(mp.omega - step * v, mp.learner), t)
    fd = (gp - gm) / (2 * step * len(tasks))
    assert rel_err(h.matrix @ v, fd) < 1e-3


def test_fd_asymmetry_beyond_tolerance_raises(monkeypatch):
    mp, tasks = fd_asymmetric_problem()
    exact_meta_hessian(mp, tasks)  # the default step passes the check
    monkeypatch.setattr(hessian, "FD_STEP_SCALE", 1e-1)
    with pytest.raises(hessian.FdAsymmetryError, match="pre-symmetrization asymmetry"):
        exact_meta_hessian(mp, tasks)


def test_gn_columns_saturated_prediction_contributes_nothing():
    spec = MlpSpec((2, 2))
    learner = Learner("maml", spec, 0.0)
    w = np.zeros(spec.num_params)
    w[-2:] = [30.0, -30.0]  # hugely confident logits for every input
    mp = MetaParams(w, learner)
    task = Task("t", Batch(np.zeros((2, 2)), np.array([0, 0])), Batch(np.zeros((2, 2)), np.array([0, 0])))
    cols = gn_columns_for_task(mp, task)
    assert cols.ncols == 0


def test_gn_columns_rank_bound_per_sample(rng):
    mp = make_params(rng, widths=(4, 4, 3), inner_lr=0.0, jitter=0.0)
    task = Task(
        "t",
        Batch(rng.normal(size=(3, 4)), np.array([0, 1, 2])),
        Batch(rng.normal(size=(1, 4)), np.array([0])),
    )
    cols = gn_columns_for_task(mp, task)
    # softmax curvature of one sample has rank <= c - 1
    assert cols.ncols <= mp.learner.spec.num_classes - 1


@pytest.mark.parametrize("kind,inner_lr", [("maml", 0.05), ("protonet", 0.0)])
def test_gn_columns_reproduce_dense(kind, inner_lr, rng):
    mp = make_params(rng, widths=(6, 5, 3), kind=kind, inner_lr=inner_lr)
    tasks = sample_tasks(count=3)
    dense = gn_dense(mp, tasks)
    total = np.zeros((mp.q, mp.q))
    for t in tasks:
        total += gram(gn_columns_for_task(mp, t, num_tasks=len(tasks)))
    assert np.abs(total - dense.matrix).max() <= 1e-8 * max(np.abs(dense.matrix).max(), 1.0)


def test_gn_dense_is_psd(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.05)
    h = gn_dense(mp, sample_tasks(count=4))
    lam = np.linalg.eigvalsh(h.matrix)
    assert lam.min() >= -1e-9 * max(lam.max(), 1.0)


def test_accumulate_gn_full_capacity_matches_dense(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.05)
    tasks = sample_tasks(count=3)
    dense = gn_dense(mp, tasks)
    # 1024 is the default buffer size; far above the column count here
    factored = accumulate_gn(mp, tasks, capacity=1024)
    err = np.linalg.norm(gram(factored.factor) - dense.matrix)
    assert err <= 1e-7 * max(np.linalg.norm(dense.matrix), 1.0)
    assert factored.buffer_capacity == 1024


def test_exact_hessian_names_task_and_coordinate_on_nan(rng):
    mp = make_params(rng, widths=(4, 4, 2), inner_lr=0.05)
    bad = Task(
        "poisoned",
        Batch(np.array([[np.inf, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]), np.array([0, 1])),
        Batch(np.zeros((2, 4)), np.array([0, 1])),
    )
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(FloatingPointError) as err:
        exact_meta_hessian(mp, [bad])
    assert "poisoned" in str(err.value)
    assert "coordinate 0" in str(err.value)


def test_accumulate_gn_single_task_equals_columns(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.05)
    task = sample_tasks(count=1)[0]
    factored = accumulate_gn(mp, [task], capacity=10_000)
    cols = gn_columns_for_task(mp, task, num_tasks=1)
    np.testing.assert_allclose(
        gram(factored.factor), gram(cols), atol=1e-10 * max(1.0, np.linalg.norm(gram(cols)))
    )


def test_accumulate_gn_respects_capacity(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.05)
    tasks = sample_tasks(count=4)
    factored = accumulate_gn(mp, tasks, capacity=7)
    assert factored.factor.ncols <= 7


def test_accumulate_gn_rank_bound(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.05)
    tasks = sample_tasks(count=2, kq=4)
    factored = accumulate_gn(mp, tasks, capacity=10_000)
    c = mp.learner.spec.num_classes
    n_query = tasks[0].query.n
    assert factored.factor.ncols <= c * n_query * len(tasks)


def test_invert_dense_counts_and_values():
    h = HessianRep(variant="dense", matrix=np.diag([4.0, 1.0, -3.0]), num_tasks=1)
    inv = invert(h, 2)
    np.testing.assert_allclose(inv.apply(np.eye(3)), np.diag([0.25, 1.0, 0.0]))
    assert inv.retained == 2
    assert inv.discarded_negative == 1
    np.testing.assert_allclose(project(inv, np.eye(3)), np.diag([1.0, 1.0, 0.0]))


def test_invert_full_keep_is_plain_inverse(rng):
    a = rng.normal(size=(6, 6))
    spd = linalg.symmetrize(a @ a.T + 6 * np.eye(6))
    h = HessianRep(variant="dense", matrix=spd, num_tasks=1)
    inv = invert(h, 6)
    np.testing.assert_allclose(
        inv.apply(np.eye(6)), np.linalg.inv(spd), atol=1e-8 * np.linalg.norm(np.linalg.inv(spd))
    )
    np.testing.assert_allclose(project(inv, np.eye(6)), np.eye(6), atol=1e-10)
    assert inv.discarded_negative == 0


def test_invert_clamps_excess_keep():
    h = HessianRep(variant="dense", matrix=np.diag([2.0, 1.0]), num_tasks=1)
    inv = invert(h, 10)
    assert inv.clamped and inv.retained == 2


def test_invert_annihilates_discarded_directions(rng):
    a = linalg.symmetrize(rng.normal(size=(8, 8)))
    h = HessianRep(variant="dense", matrix=a, num_tasks=1)
    inv = invert(h, 4)
    e = linalg.eigh_symmetric(a)
    for j in range(4, 8):
        assert np.linalg.norm(inv.apply(e.eigenvectors[:, j])) <= 1e-8


def test_invert_factored_matches_dense_path(rng):
    cols = linalg.FactorMatrix(rng.normal(size=(9, 5)))
    h_f = HessianRep(variant="factored", factor=cols, num_tasks=1, method="gauss_newton")
    h_d = HessianRep(variant="dense", matrix=gram(cols), num_tasks=1, method="gauss_newton")
    inv_f = invert(h_f, 5)
    inv_d = invert(h_d, 5)
    eye = np.eye(9)
    scale = np.linalg.norm(inv_d.apply(eye))
    np.testing.assert_allclose(inv_f.apply(eye), inv_d.apply(eye), atol=1e-7 * scale)
    np.testing.assert_allclose(project(inv_f, eye), project(inv_d, eye), atol=1e-7)


def test_invert_factored_keep_subset(rng):
    cols = linalg.FactorMatrix(rng.normal(size=(9, 5)))
    h_f = HessianRep(variant="factored", factor=cols, num_tasks=1, method="gauss_newton")
    inv = invert(h_f, 2)
    assert inv.retained == 2
    # projector has rank 2
    assert int(round(np.trace(project(inv, np.eye(9))))) == 2


def test_invert_factored_refuses_ill_conditioned_count():
    # orthogonal columns: eigenvalues 1 and 1e-14, both above the factor's zero floor
    f = linalg.FactorMatrix(np.diag([1.0, 1e-7]))
    h = HessianRep(variant="factored", factor=f, num_tasks=1)
    with pytest.raises(linalg.IllConditionedError):
        invert(h, 2)
    assert invert(h, 1).retained == 1


def test_invert_factored_clamps_to_live_directions(rng):
    a, b = rng.normal(size=(2, 7))
    f = linalg.FactorMatrix(np.stack([a, b, a], axis=1))
    h = HessianRep(variant="factored", factor=f, num_tasks=1)
    inv = invert(h, 3)
    assert inv.clamped and inv.retained == 2
    assert not invert(h, 2).clamped


def test_spectrum_summary_factored_matches_dense(rng):
    cols = linalg.FactorMatrix(rng.normal(size=(9, 4)))
    s = spectrum_summary(HessianRep(variant="factored", factor=cols, num_tasks=1))
    lam = linalg.eigh_symmetric(gram(cols)).eigenvalues[: cols.ncols]
    assert s["num_eigenvalues"] == cols.ncols
    assert s["num_negative"] == 0 and s["num_nonpositive"] == 0
    assert s["lambda_max"] == pytest.approx(lam[0], rel=1e-10)
    assert s["lambda_min"] == pytest.approx(lam[-1], rel=1e-10)


def test_spectrum_summary_dense():
    h = HessianRep(variant="dense", matrix=np.diag([4.0, 0.0, -1.0]), num_tasks=1)
    s = spectrum_summary(h)
    assert s["num_negative"] == 1
    assert s["num_nonpositive"] == 2
    assert s["lambda_max"] == 4.0
    assert s["lambda_min"] == -1.0


@pytest.mark.parametrize("variant", ["dense", "factored"])
def test_hessian_roundtrip(tmp_path, rng, variant):
    if variant == "dense":
        h = HessianRep(variant="dense", matrix=linalg.symmetrize(rng.normal(size=(5, 5))), num_tasks=3)
    else:
        h = HessianRep(
            variant="factored",
            factor=linalg.FactorMatrix(rng.normal(size=(5, 2))),
            num_tasks=3,
            method="gauss_newton",
            buffer_capacity=8,
        )
    path = tmp_path / "h.bin"
    save_hessian(path, h)
    loaded = load_hessian(path)
    assert loaded.variant == h.variant
    assert loaded.method == h.method
    assert loaded.num_tasks == h.num_tasks
    assert loaded.buffer_capacity == h.buffer_capacity
    if variant == "dense":
        np.testing.assert_array_equal(loaded.matrix, h.matrix)
    else:
        np.testing.assert_array_equal(loaded.factor.columns, h.factor.columns)
    save_hessian(tmp_path / "h2.bin", loaded)
    assert (tmp_path / "h.bin").read_bytes() == (tmp_path / "h2.bin").read_bytes()


def test_dense_hessian_load_holds_its_payload_once(tmp_path, rng):
    h = HessianRep(variant="dense", matrix=linalg.symmetrize(rng.normal(size=(400, 400))), num_tasks=3)
    path = tmp_path / "h.bin"
    save_hessian(path, h)
    payload = h.matrix.nbytes
    tracemalloc.start()
    try:
        loaded = load_hessian(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(loaded.matrix, h.matrix)
    # the bytes and then a float copy of them were 2x the payload
    assert payload <= peak < 1.05 * payload, peak / payload


def test_gn_matches_exact_near_fit_small():
    # tiny fit-able problem: after training to low loss the outer-product term
    # dominates the exact curvature
    spec = MlpSpec((4, 8, 2))
    learner = Learner("maml", spec, 0.05)
    tasks = taskgen.sample_taskset(
        taskgen.TaskDistributionSpec("clustered", 4, 2, 5, 10, within_class_noise=0.12, seed=5), 8
    )
    mp0 = MetaParams(spec.init_weights(np.random.default_rng(3), 0.7), learner)
    mp, log = metalearn.meta_train(
        mp0, tasks, metalearn.MetaTrainConfig(steps=600, meta_batch=8, lr=0.02, seed=13)
    )
    assert log.final_loss < 0.05
    exact = exact_meta_hessian(mp, tasks)
    gn = gn_dense(mp, tasks)
    rel = np.linalg.norm(exact.matrix - gn.matrix) / np.linalg.norm(exact.matrix)
    assert rel < 0.2
