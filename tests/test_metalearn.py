import numpy as np
import pytest

from conftest import accuracy, adaptation_jacobian, fd_gradient, make_params, meta_loss, rel_err
from metainfluence import artifact, hessian, metalearn, model, taskgen
from metainfluence.metalearn import (
    Learner,
    MetaParams,
    MetaTrainConfig,
    Task,
    TrainingDivergedError,
    adapt,
    load_params,
    meta_grad,
    meta_grads,
    meta_train,
    save_params,
    total_meta_gradient_norm,
)
from metainfluence.model import Batch, MlpSpec


def sample_tasks(seed=7, count=3, d=6, ways=3, ks=4, kq=5, noise=0.6):
    spec = taskgen.TaskDistributionSpec("clustered", d, ways, ks, kq, within_class_noise=noise, seed=seed)
    return taskgen.sample_taskset(spec, count)


def test_task_dim_mismatch_rejected():
    s = Batch(np.zeros((2, 3)), np.array([0, 1]))
    q = Batch(np.zeros((2, 4)), np.array([0, 1]))
    with pytest.raises(ValueError):
        Task("t", s, q)


def test_adapt_zero_inner_lr_is_identity(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.0)
    task = sample_tasks()[0]
    np.testing.assert_array_equal(adapt(mp, task), mp.omega)
    np.testing.assert_array_equal(adaptation_jacobian(mp, task), np.eye(mp.q))


def test_adapt_stationary_point_fixed():
    # zero weights on a label-symmetric support set: gradient vanishes in the bias
    spec = MlpSpec((2, 2))
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    task = Task("t", Batch(x, np.array([0, 1])), Batch(x, np.array([0, 1])))
    learner = Learner("maml", spec, 0.5)
    mp = MetaParams(np.zeros(spec.num_params), learner)
    g = model.grad(spec, mp.omega, task.support)
    np.testing.assert_allclose(adapt(mp, task), mp.omega - 0.5 * g, atol=1e-15)


@pytest.mark.parametrize("seed", range(3))
def test_adapt_matches_fd_gradient_step(seed):
    rng = np.random.default_rng(seed)
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.07)
    task = sample_tasks(seed=seed)[0]
    fd = fd_gradient(lambda w: model.loss_and_grad(mp.learner.spec, w, task.support)[0], mp.omega)
    assert rel_err(adapt(mp, task), mp.omega - 0.07 * fd) < 1e-5


def test_adapt_jacobian_symmetric(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.05)
    task = sample_tasks()[1]
    jac = adaptation_jacobian(mp, task)
    assert np.abs(jac - jac.T).max() <= 1e-9


def test_protonet_adapt_passthrough_and_empty_class(rng):
    mp = make_params(rng, widths=(6, 5, 3), kind="protonet")
    task = sample_tasks()[0]
    np.testing.assert_array_equal(adapt(mp, task), mp.omega)
    # remove class 0 from support
    keep = task.support.y != 0
    broken = Task(
        "broken",
        Batch(task.support.x[keep], task.support.y[keep]),
        task.query,
    )
    with pytest.raises(ValueError):
        adapt(mp, broken)


def test_meta_loss_uniform_is_log_c(rng):
    spec = MlpSpec((4, 3))
    learner = Learner("maml", spec, 0.0)
    mp = MetaParams(np.zeros(spec.num_params), learner)
    task = sample_tasks(d=4, ways=3)[0]
    assert meta_loss(mp, task) == pytest.approx(np.log(3.0))


def test_meta_loss_composes_adapt_and_loss(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.05)
    task = sample_tasks()[2]
    theta = adapt(mp, task)
    assert meta_loss(mp, task) == pytest.approx(model.loss_and_grad(mp.learner.spec, theta, task.query)[0])


def test_meta_loss_invariant_under_query_duplication(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.05)
    task = sample_tasks()[0]
    doubled = Task(
        "dup",
        task.support,
        Batch(np.vstack([task.query.x, task.query.x]), np.concatenate([task.query.y, task.query.y])),
    )
    assert meta_loss(mp, doubled) == pytest.approx(meta_loss(mp, task), rel=1e-12)


def test_protonet_loss_invariant_under_support_permutation(rng):
    mp = make_params(rng, widths=(6, 5, 3), kind="protonet")
    task = sample_tasks()[0]
    perm = np.random.default_rng(0).permutation(task.support.n)
    shuffled = Task("p", Batch(task.support.x[perm], task.support.y[perm]), task.query)
    assert abs(meta_loss(mp, shuffled) - meta_loss(mp, task)) <= 1e-12


@pytest.mark.parametrize("kind,inner_lr", [("maml", 0.05), ("maml", 0.0), ("protonet", 0.0)])
@pytest.mark.parametrize("seed", range(3))
def test_meta_grad_matches_fd(seed, kind, inner_lr):
    rng = np.random.default_rng(30 + seed)
    mp = make_params(rng, widths=(6, 5, 3), kind=kind, inner_lr=inner_lr)
    task = sample_tasks(seed=seed)[0]
    g = meta_grad(mp, task)
    fd = fd_gradient(lambda w: meta_loss(MetaParams(w, mp.learner), task), mp.omega)
    assert rel_err(g, fd) < 1e-4


def test_meta_grad_zero_lr_reduces_to_plain_gradient(rng):
    mp = make_params(rng, widths=(6, 5, 3), inner_lr=0.0)
    task = sample_tasks()[0]
    np.testing.assert_allclose(
        meta_grad(mp, task), model.grad(mp.learner.spec, mp.omega, task.query), atol=1e-12
    )


def test_meta_output_jacobian_matches_fd(rng):
    mp = make_params(rng, widths=(5, 4, 3), inner_lr=0.05)
    task = sample_tasks(d=5)[0]
    logits, jac = metalearn.meta_output_jacobian(mp, task)
    np.testing.assert_allclose(logits, metalearn.task_logits(mp, task), atol=1e-12)
    fd = np.empty_like(jac)
    for j in range(mp.q):
        h = 1e-4 * (1 + abs(mp.omega[j]))
        wp = mp.omega.copy()
        wp[j] += h
        wm = mp.omega.copy()
        wm[j] -= h
        lp = metalearn.task_logits(MetaParams(wp, mp.learner), task)
        lm = metalearn.task_logits(MetaParams(wm, mp.learner), task)
        fd[:, :, j] = (lp - lm) / (2 * h)
    assert rel_err(jac, fd) < 1e-4


def test_meta_train_zero_steps_returns_init(rng):
    mp0 = make_params(rng)
    tasks = sample_tasks()
    mp, log = meta_train(mp0, tasks, MetaTrainConfig(steps=0, seed=1))
    np.testing.assert_array_equal(mp.omega, mp0.omega)
    assert log.entries == []
    assert np.isfinite(log.final_loss)


def test_meta_train_bit_reproducible(rng):
    mp0 = make_params(rng)
    tasks = sample_tasks()
    cfg = MetaTrainConfig(steps=40, meta_batch=4, lr=0.01, seed=5, weight_decay=1e-3)
    mp_a, log_a = meta_train(mp0, tasks, cfg)
    mp_b, log_b = meta_train(mp0, tasks, cfg)
    np.testing.assert_array_equal(mp_a.omega, mp_b.omega)
    assert log_a.to_jsonl() == log_b.to_jsonl()


def test_meta_train_learns_separable_tasks():
    spec = MlpSpec((4, 8, 2))
    learner = Learner("maml", spec, 0.05)
    tasks = taskgen.sample_taskset(
        taskgen.TaskDistributionSpec("clustered", 4, 2, 5, 8, within_class_noise=0.15, seed=3), 6
    )
    mp0 = MetaParams(spec.init_weights(np.random.default_rng(2), 0.5), learner)
    mp, log = meta_train(mp0, tasks, MetaTrainConfig(steps=300, meta_batch=6, lr=0.02, seed=9))
    assert log.final_accuracy > 0.9


def test_meta_train_divergence_raises():
    spec = MlpSpec((4, 8, 2))
    learner = Learner("maml", spec, 0.05)
    tasks = sample_tasks(d=4, ways=2)
    mp0 = MetaParams(spec.init_weights(np.random.default_rng(0), 10.0), learner)
    # overflowing regularizer makes the objective non-finite at step 1
    cfg = MetaTrainConfig(steps=10, meta_batch=2, lr=0.01, seed=0, weight_decay=1e308)
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
        meta_train(mp0, tasks, cfg)
    assert "step 1" in str(err.value)


def test_train_log_jsonl_schema(rng):
    mp0 = make_params(rng)
    tasks = sample_tasks()
    _, log = meta_train(mp0, tasks, MetaTrainConfig(steps=3, meta_batch=2, seed=0))
    import json

    lines = log.to_jsonl().strip().split("\n")
    assert len(lines) == 4
    for line in lines[:-1]:
        entry = json.loads(line)
        assert set(entry) == {"step", "loss", "grad_norm"}


def test_total_meta_gradient_norm_properties(rng):
    mp = make_params(rng, inner_lr=0.0)
    tasks = sample_tasks()
    # scale equivariance under loss rescaling: double every task's weight by
    # duplicating the taskset leaves the mean unchanged
    n1 = total_meta_gradient_norm(mp, tasks)
    n2 = total_meta_gradient_norm(mp, tasks + tasks)
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_total_meta_gradient_norm_shrinks_over_training():
    spec = MlpSpec((4, 8, 2))
    learner = Learner("maml", spec, 0.05)
    tasks = taskgen.sample_taskset(
        taskgen.TaskDistributionSpec("clustered", 4, 2, 5, 8, within_class_noise=0.15, seed=3), 6
    )
    mp0 = MetaParams(spec.init_weights(np.random.default_rng(2), 0.5), learner)
    before = total_meta_gradient_norm(mp0, tasks)
    mp, _ = meta_train(mp0, tasks, MetaTrainConfig(steps=300, meta_batch=6, lr=0.02, seed=9))
    after = total_meta_gradient_norm(mp, tasks)
    assert after < 0.5 * before


def ragged_tasks():
    """Two query sizes, interleaved, so shape groups are not contiguous."""
    five, three = sample_tasks(count=4, kq=5), sample_tasks(seed=8, count=3, kq=3)
    return [five[0], three[0], five[1], five[2], three[1], five[3], three[2]]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("inner_lr", [0.0, 0.05])
def test_meta_grads_match_per_task_loop(activation, inner_lr, rng):
    spec = MlpSpec((6, 5, 3), activation)
    omega = spec.init_weights(rng) + 0.2 * rng.normal(size=spec.num_params)
    mp = MetaParams(omega, Learner("maml", spec, inner_lr))
    for tasks in (sample_tasks(count=70), ragged_tasks()):
        stacked = meta_grads(mp, tasks)
        loop = np.array([meta_grad(mp, t) for t in tasks])
        assert stacked.shape == loop.shape
        assert rel_err(stacked, loop) <= 1e-12


def test_meta_grads_protonet_is_per_task(rng):
    mp = make_params(rng, kind="protonet")
    tasks = sample_tasks(count=3)
    np.testing.assert_array_equal(meta_grads(mp, tasks), [meta_grad(mp, t) for t in tasks])


def same_shape_mixed_ways():
    """3-way and 2-way tasks with 12 support and 12 query samples each, interleaved."""
    three = sample_tasks(count=3, ks=4, kq=4)
    two = sample_tasks(seed=9, count=3, ways=2, ks=6, kq=6)
    return [three[0], two[0], three[1], two[1], two[2], three[2]]


def proto_reference_meta_grad(mp, task):
    """(softmax - onehot) / n contracted with the logit meta-Jacobian."""
    logits, jac = metalearn.meta_output_jacobian(mp, task)
    coeff = model.softmax(logits) - (task.query.y[:, None] == np.arange(logits.shape[1]))
    return np.tensordot(coeff / task.query.n, jac, axes=2)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_protonet_meta_grads_match_output_jacobian_contraction(activation, rng):
    spec = MlpSpec((6, 5, 3), activation)
    omega = spec.init_weights(rng) + 0.2 * rng.normal(size=spec.num_params)
    mp = MetaParams(omega, Learner("protonet", spec, 0.0))
    for tasks in (sample_tasks(count=40), ragged_tasks(), same_shape_mixed_ways()):
        want = np.array([proto_reference_meta_grad(mp, t) for t in tasks])
        assert rel_err(meta_grads(mp, tasks), want) <= 1e-12


def test_protonet_more_ways_than_embedding_width(rng):
    mp = make_params(rng, widths=(6, 5, 3), kind="protonet")
    tasks = sample_tasks(count=2, ways=5, ks=2, kq=2)
    task = tasks[0]
    assert task.n_ways > mp.learner.spec.num_classes
    fd = fd_gradient(lambda w: meta_loss(MetaParams(w, mp.learner), task), mp.omega)
    assert rel_err(meta_grad(mp, task), fd) < 1e-4
    rep = hessian.accumulate_gn(mp, tasks, capacity=8)
    assert np.all(np.isfinite(rep.factor.columns))


def reference_meta_train(mp0, tasks, cfg, weights):
    """Adam with one meta_grad call per sampled task, times its weight, summed in order."""
    rng = np.random.default_rng(cfg.seed)
    omega = mp0.omega.copy()
    m = np.zeros_like(omega)
    v = np.zeros_like(omega)
    for step in range(1, cfg.steps + 1):
        g = np.zeros_like(omega)
        for i in rng.integers(0, len(tasks), size=cfg.meta_batch):
            g += weights[i] * meta_grad(MetaParams(omega, mp0.learner), tasks[i])
        g = g / cfg.meta_batch + cfg.weight_decay * omega
        m = metalearn.ADAM_BETA1 * m + (1.0 - metalearn.ADAM_BETA1) * g
        v = metalearn.ADAM_BETA2 * v + (1.0 - metalearn.ADAM_BETA2) * g * g
        mhat = m / (1.0 - metalearn.ADAM_BETA1**step)
        vhat = v / (1.0 - metalearn.ADAM_BETA2**step)
        omega = omega - cfg.lr * mhat / (np.sqrt(vhat) + metalearn.ADAM_EPS)
    return omega


@pytest.mark.parametrize("ragged", [False, True])
def test_meta_train_upweight_matches_per_task_loop(ragged, rng):
    tasks = ragged_tasks() if ragged else sample_tasks(count=5)
    # meta_batch above STACK_CHUNK, so a step runs more than one chunk
    cfg = MetaTrainConfig(
        steps=5, meta_batch=metalearn.STACK_CHUNK + 8, lr=0.02, seed=3, weight_decay=1e-3
    )
    weights = np.ones(len(tasks))
    weights[2] += 0.3 * len(tasks)
    for kind in ("maml", "protonet"):
        mp0 = make_params(rng, kind=kind)
        mp, _ = meta_train(mp0, tasks, cfg, weights)
        want = reference_meta_train(mp0, tasks, cfg, weights)
        assert rel_err(mp.omega, want) <= 1e-10


def test_meta_train_runs_one_kernel_call_per_step(rng, model_calls):
    hvp_calls = model_calls("hvp")
    mp0 = make_params(rng)
    cfg = MetaTrainConfig(steps=7, meta_batch=metalearn.STACK_CHUNK, seed=1)
    meta_train(mp0, sample_tasks(count=6), cfg)
    assert len(hvp_calls) == cfg.steps


def test_protonet_meta_train_runs_one_backward_sweep_per_step(rng, model_calls):
    jacobian_calls, sweeps = model_calls("output_jacobian"), model_calls("_backward")
    mp0 = make_params(rng, kind="protonet")
    cfg = MetaTrainConfig(steps=7, meta_batch=metalearn.STACK_CHUNK, seed=1)
    meta_train(mp0, sample_tasks(count=6), cfg)
    assert len(jacobian_calls) == 0
    assert len(sweeps) == cfg.steps


def test_meta_train_final_log_matches_per_task_values(rng):
    mp0 = make_params(rng)
    tasks = sample_tasks(count=4)
    mp, log = meta_train(mp0, tasks, MetaTrainConfig(steps=3, meta_batch=4, seed=2))
    assert log.final_loss == pytest.approx(np.mean([meta_loss(mp, t) for t in tasks]), rel=1e-12)
    assert log.final_accuracy == np.mean([accuracy(mp, t) for t in tasks])


def test_meta_train_upweight_zero_eps_matches_base(rng):
    mp0 = make_params(rng)
    tasks = sample_tasks()
    cfg = MetaTrainConfig(steps=25, meta_batch=4, lr=0.02, seed=11)
    base, _ = meta_train(mp0, tasks, cfg)
    weights = np.ones(len(tasks))
    weights[1] += 0.0 * len(tasks)
    same, _ = meta_train(mp0, tasks, cfg, weights)
    np.testing.assert_array_equal(base.omega, same.omega)


@pytest.mark.parametrize("kind", ["maml", "protonet"])
def test_meta_train_zero_weight_removes_the_task(kind, rng):
    tasks = sample_tasks(count=5)
    other = sample_tasks(seed=8, count=5)
    swapped = tasks[:3] + [Task(tasks[3].task_id, other[3].support, other[3].query)] + tasks[4:]
    weights = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
    # meta_batch above twice STACK_CHUNK, so a step runs three chunks
    cfg = MetaTrainConfig(
        steps=6, meta_batch=2 * metalearn.STACK_CHUNK + 8, lr=0.02, seed=3, weight_decay=1e-3
    )
    mp0 = make_params(rng, kind=kind)
    mp, log = meta_train(mp0, tasks, cfg, weights)
    mp_swapped, log_swapped = meta_train(mp0, swapped, cfg, weights)
    np.testing.assert_array_equal(mp_swapped.omega, mp.omega)
    # the final loss and accuracy are weighted too, so the removed task's data does not reach them
    assert (log_swapped.final_loss, log_swapped.final_accuracy) == (log.final_loss, log.final_accuracy)
    assert not np.array_equal(meta_train(mp0, swapped, cfg)[0].omega, meta_train(mp0, tasks, cfg)[0].omega)


@pytest.mark.parametrize(
    "weights",
    [
        np.ones(4), np.ones(6), np.ones((5, 1)), [1.0, 1.0, np.nan, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0, 1.0],
        np.zeros(5), [1.0, -1.0, 0.0, 0.0, -0.5],
    ],
    ids=["short", "long", "column", "nan", "inf", "zero-sum", "negative-sum"],
)
def test_meta_train_refuses_bad_weights(weights, rng):
    with pytest.raises(ValueError, match="weights"):
        meta_train(make_params(rng), sample_tasks(count=5), MetaTrainConfig(steps=1, meta_batch=2), weights)


def test_params_roundtrip(tmp_path, rng):
    mp = make_params(rng, widths=(5, 4, 3), kind="protonet")
    path = tmp_path / "params.bin"
    inputs = {"train_tasks.json": "ab" * 32}
    save_params(path, mp, inputs)
    loaded = load_params(path)
    assert artifact.inputs(path, "params") == inputs
    np.testing.assert_array_equal(loaded.omega, mp.omega)
    assert loaded.learner.kind == mp.learner.kind
    assert loaded.learner.spec == mp.learner.spec
    assert loaded.learner.inner_lr == mp.learner.inner_lr
    # byte-identical re-save
    save_params(tmp_path / "params2.bin", loaded, inputs)
    assert (tmp_path / "params.bin").read_bytes() == (tmp_path / "params2.bin").read_bytes()


def test_params_roundtrip_linear_model(tmp_path, rng):
    spec = MlpSpec((4, 3))
    mp = MetaParams(spec.init_weights(rng), Learner("maml", spec, 0.0))
    save_params(tmp_path / "p.bin", mp, {})
    loaded = load_params(tmp_path / "p.bin")
    assert loaded.learner.spec.layer_widths == (4, 3)
    np.testing.assert_array_equal(loaded.omega, mp.omega)
