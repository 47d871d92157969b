import dataclasses

import numpy as np
import pytest

from conftest import fd_gradient, random_batch, random_net, rel_err
from metainfluence import model
from metainfluence.model import Batch, MlpSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((4,))
    with pytest.raises(ValueError):
        MlpSpec((4, 1))  # class count < 2
    with pytest.raises(ValueError):
        MlpSpec((4, 5, 3), "sigmoid")
    assert MlpSpec((4, 8, 3)).num_params == 4 * 8 + 8 + 8 * 3 + 3


def test_packing_roundtrip():
    spec = MlpSpec((3, 5, 2))
    rng = np.random.default_rng(0)
    w = rng.normal(size=spec.num_params)
    rebuilt = np.concatenate(
        [
            np.concatenate([w[w_sl].reshape(d_out, d_in).ravel(), w[b_sl]])
            for w_sl, b_sl, d_out, d_in in spec.layer_slices()
        ]
    )
    np.testing.assert_array_equal(rebuilt, w)


def test_forward_zero_weights_tanh():
    spec = MlpSpec((4, 6, 3), "tanh")
    x = np.random.default_rng(1).normal(size=(5, 4))
    np.testing.assert_array_equal(model.forward(spec, np.zeros(spec.num_params), x), np.zeros((5, 3)))


def test_forward_single_layer_is_affine():
    spec = MlpSpec((3, 2))
    w = np.array([1.0, 2.0, 3.0, -1.0, 0.5, 2.0, 0.25, -0.5])  # W rows then bias
    x = np.eye(3)
    logits = model.forward(spec, w, x)
    W = w[:6].reshape(2, 3)
    b = w[6:]
    np.testing.assert_allclose(logits, x @ W.T + b)


def test_loss_uniform_logits_is_log_c():
    spec = MlpSpec((2, 4))
    batch = Batch(np.zeros((6, 2)), np.arange(6) % 4)
    assert model.loss_and_grad(spec, np.zeros(spec.num_params), batch)[0] == pytest.approx(np.log(4.0))


def test_loss_saturated_correct_is_tiny():
    spec = MlpSpec((2, 2))
    # logits +-20 via the bias, weights zero
    w = np.zeros(spec.num_params)
    w[-2:] = [20.0, -20.0]
    batch = Batch(np.zeros((3, 2)), np.zeros(3, dtype=int))
    assert model.loss_and_grad(spec, w, batch)[0] <= 1e-8


def test_loss_shift_invariance():
    rng = np.random.default_rng(4)
    spec, w = random_net(rng)
    batch = random_batch(rng, 7, spec)
    logits = model.forward(spec, w, batch.x)
    shifted = logits + rng.normal(size=(batch.n, 1))
    base = model.cross_entropy(logits, batch.y)
    assert abs(model.cross_entropy(shifted, batch.y) - base) < 1e-10


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("seed", range(4))
def test_grad_matches_fd(seed, activation):
    rng = np.random.default_rng(seed)
    spec, w = random_net(rng, activation=activation)
    batch = random_batch(rng, 8, spec)
    g = model.grad(spec, w, batch)
    fd = fd_gradient(lambda ww: model.loss_and_grad(spec, ww, batch)[0], w)
    assert rel_err(g, fd) < 1e-5


def test_grad_zero_at_stationary_point():
    # symmetric two-sample batch with opposite labels makes zero weights stationary
    spec = MlpSpec((2, 2))
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    batch = Batch(x, np.array([0, 1]))
    g = model.grad(spec, np.zeros(spec.num_params), batch)
    # weight block antisymmetry cancels; bias gradients cancel exactly
    np.testing.assert_allclose(g[-2:], 0.0, atol=1e-15)


def test_grad_is_mean_of_per_sample_grads():
    rng = np.random.default_rng(9)
    spec, w = random_net(rng)
    batch = random_batch(rng, 6, spec)
    per_sample = [
        model.grad(spec, w, Batch(batch.x[i : i + 1], batch.y[i : i + 1]))
        for i in range(batch.n)
    ]
    np.testing.assert_allclose(np.mean(per_sample, axis=0), model.grad(spec, w, batch), atol=1e-12)


def test_hvp_zero_direction():
    rng = np.random.default_rng(2)
    spec, w = random_net(rng)
    batch = random_batch(rng, 5, spec)
    np.testing.assert_array_equal(model.hvp(spec, w, batch, np.zeros(spec.num_params)), 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_hvp_matches_fd_of_grad(seed):
    rng = np.random.default_rng(10 + seed)
    spec, w = random_net(rng)
    batch = random_batch(rng, 6, spec)
    v = rng.normal(size=spec.num_params)
    h = 1e-5
    fd = (model.grad(spec, w + h * v, batch) - model.grad(spec, w - h * v, batch)) / (2 * h)
    assert rel_err(model.hvp(spec, w, batch, v), fd) < 1e-4


def test_hvp_symmetry_and_full_hessian():
    rng = np.random.default_rng(3)
    spec, w = random_net(rng, widths=(4, 5, 3))
    batch = random_batch(rng, 6, spec)
    u = rng.normal(size=spec.num_params)
    v = rng.normal(size=spec.num_params)
    left = u @ model.hvp(spec, w, batch, v)
    right = v @ model.hvp(spec, w, batch, u)
    assert abs(left - right) <= 1e-8 * max(abs(left), 1.0)
    hess = model.hvp(spec, w, batch, np.eye(spec.num_params))
    assert np.abs(hess - hess.T).max() <= 1e-9 * max(np.abs(hess).max(), 1.0)


def test_hvp_multi_direction_matches_single():
    rng = np.random.default_rng(8)
    spec, w = random_net(rng)
    batch = random_batch(rng, 5, spec)
    vs = rng.normal(size=(spec.num_params, 3))
    multi = model.hvp(spec, w, batch, vs)
    for k in range(3):
        np.testing.assert_allclose(multi[:, k], model.hvp(spec, w, batch, vs[:, k]), atol=1e-12)


def stacked_batches(rng, spec, m=4, n=6):
    x = rng.normal(size=(m, n, spec.input_dim))
    y = rng.integers(0, spec.num_classes, (m, n))
    return Batch(x, y), [Batch(x[i], y[i]) for i in range(m)]


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_stacked_primitives_match_per_task_rows(activation):
    rng = np.random.default_rng(41)
    spec, w = random_net(rng, widths=(5, 7, 6, 4), activation=activation)
    stacked, singles = stacked_batches(rng, spec)
    m = len(singles)
    per_task_w = w + 0.1 * rng.normal(size=(m, spec.num_params))
    v = rng.normal(size=(m, spec.num_params))
    g_shared = model.grad(spec, w, stacked)
    losses, g_own = model.loss_and_grad(spec, per_task_w, stacked)
    h_shared = model.hvp(spec, w, stacked, v)
    h_own = model.hvp(spec, per_task_w, stacked, v)
    assert g_shared.shape == g_own.shape == h_shared.shape == (m, spec.num_params)
    assert losses.shape == (m,)
    for i, b in enumerate(singles):
        np.testing.assert_allclose(g_shared[i], model.grad(spec, w, b), rtol=1e-12, atol=1e-15)
        loss_i, g_i = model.loss_and_grad(spec, per_task_w[i], b)
        assert losses[i] == pytest.approx(loss_i, rel=1e-12)
        np.testing.assert_allclose(g_own[i], g_i, rtol=1e-12, atol=1e-15)
        scale = np.abs(h_own[i]).max()
        assert np.abs(h_shared[i] - model.hvp(spec, w, b, v[i])).max() <= 1e-12 * scale
        assert np.abs(h_own[i] - model.hvp(spec, per_task_w[i], b, v[i])).max() <= 1e-12 * scale


def test_stacked_shape_errors():
    rng = np.random.default_rng(42)
    spec, w = random_net(rng)
    stacked, _ = stacked_batches(rng, spec, m=3)
    with pytest.raises(ValueError):
        model.hvp(spec, w, stacked, rng.normal(size=spec.num_params))
    with pytest.raises(ValueError):
        model.grad(spec, np.zeros((2, spec.num_params)), stacked)
    with pytest.raises(ValueError):
        model.output_jacobian(spec, w, stacked.x)
    with pytest.raises(ValueError):
        model.forward(spec, np.zeros((2, spec.num_params)), stacked.x)


def test_output_jacobian_bias_columns():
    rng = np.random.default_rng(5)
    spec, w = random_net(rng)
    batch = random_batch(rng, 4, spec)
    jac = model.output_jacobian(spec, w, batch.x)
    _, b_sl, d_out, _ = spec.layer_slices()[-1]
    np.testing.assert_allclose(
        jac[:, :, b_sl], np.broadcast_to(np.eye(d_out), (batch.n, d_out, d_out)), atol=1e-12
    )


def test_output_jacobian_zero_input_first_layer_weights():
    spec = MlpSpec((3, 4, 2), "tanh")
    rng = np.random.default_rng(6)
    w = spec.init_weights(rng)
    batch = Batch(np.zeros((2, 3)), np.array([0, 1]))
    jac = model.output_jacobian(spec, w, batch.x)
    w_sl = spec.layer_slices()[0][0]
    np.testing.assert_allclose(jac[:, :, w_sl], 0.0, atol=1e-15)


@pytest.mark.parametrize("seed", range(3))
def test_output_jacobian_matches_fd(seed):
    rng = np.random.default_rng(20 + seed)
    spec, w = random_net(rng, widths=(4, 5, 3))
    batch = random_batch(rng, 4, spec)
    jac = model.output_jacobian(spec, w, batch.x)
    fd = np.empty_like(jac)
    for j in range(spec.num_params):
        h = 1e-4 * (1 + abs(w[j]))
        wp = w.copy()
        wp[j] += h
        wm = w.copy()
        wm[j] -= h
        fd[:, :, j] = (model.forward(spec, wp, batch.x) - model.forward(spec, wm, batch.x)) / (2 * h)
    assert rel_err(jac, fd) < 1e-5


def test_forward_matches_independent_reimplementation():
    rng = np.random.default_rng(77)
    spec, w = random_net(rng, widths=(3, 6, 4, 3))
    x = rng.normal(size=(5, 3))

    def reference(w, x):
        # plain loop reimplementation of the same packing convention
        a = x
        offset = 0
        widths = spec.layer_widths
        for i in range(len(widths) - 1):
            d_in, d_out = widths[i], widths[i + 1]
            W = w[offset : offset + d_out * d_in].reshape(d_out, d_in)
            offset += d_out * d_in
            b = w[offset : offset + d_out]
            offset += d_out
            z = a @ W.T + b
            a = np.tanh(z) if i < len(widths) - 2 else z
        return a

    np.testing.assert_allclose(model.forward(spec, w, x), reference(w, x), atol=1e-12)
    # a task stack takes one shared weight vector or one per task
    xs = rng.normal(size=(4, 5, 3))
    per_task_w = w + 0.1 * rng.normal(size=(4, spec.num_params))
    shared = model.forward(spec, w, xs)
    own = model.forward(spec, per_task_w, xs)
    assert shared.shape == own.shape == (4, 5, 3)
    for i in range(4):
        np.testing.assert_allclose(shared[i], reference(w, xs[i]), atol=1e-12)
        np.testing.assert_allclose(own[i], reference(per_task_w[i], xs[i]), atol=1e-12)


def test_batch_validation():
    with pytest.raises(ValueError):
        Batch(np.zeros((0, 3)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 3)), np.array([0, -1]))
    with pytest.raises(ValueError, match="labels must fit in int64"):
        Batch(np.zeros((2, 3)), [0, 10**30])
    with pytest.raises(ValueError):
        Batch(np.zeros(3), np.zeros(3, dtype=int))
    # stacked: labels must be (m, n) for inputs (m, n, d)
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 4, 3)), np.zeros(8, dtype=int))
    with pytest.raises(ValueError):
        Batch(np.zeros((2, 4, 3)), np.zeros((2, 3), dtype=int))
    assert Batch(np.zeros((2, 4, 3)), np.zeros((2, 4), dtype=int)).n == 4


def test_label_out_of_range_rejected():
    spec = MlpSpec((2, 2))
    batch = Batch(np.zeros((1, 2)), np.array([2]))
    with pytest.raises(ValueError):
        model.loss_and_grad(spec, np.zeros(spec.num_params), batch)[0]


def test_layout_is_cached_tuple_of_packing_formula():
    spec = MlpSpec((4, 6, 5, 3), "tanh")
    expected, offset = [], 0
    for d_in, d_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        w_sl = slice(offset, offset + d_out * d_in)
        offset += d_out * d_in
        expected.append((w_sl, slice(offset, offset + d_out), d_out, d_in))
        offset += d_out
    assert isinstance(spec.layer_slices(), tuple)
    assert spec.layer_slices() == tuple(expected)
    assert spec.layer_slices() is spec.layer_slices()
    assert spec.num_params == offset and spec.num_layers == 3


def test_equal_specs_compare_and_hash_equal_whether_or_not_layout_was_read():
    read, fresh = MlpSpec((4, 6, 3), "relu"), MlpSpec((4, 6, 3), "relu")
    read.layer_slices()
    assert read.num_params == 4 * 6 + 6 + 6 * 3 + 3
    assert read == fresh and hash(read) == hash(fresh)
    assert len({read, fresh}) == 1
    assert read != MlpSpec((4, 7, 3), "relu")


def test_replaced_spec_has_its_own_correct_layout():
    spec = MlpSpec((4, 6, 3), "tanh")
    spec.layer_slices()
    relu = dataclasses.replace(spec, activation="relu")
    assert relu.activation == ("relu",) and relu.layer_slices() == spec.layer_slices()
    wider = dataclasses.replace(spec, layer_widths=(4, 8, 3))
    assert wider.num_params == 4 * 8 + 8 + 8 * 3 + 3
    assert wider.layer_slices()[-1] == (slice(40, 64), slice(64, 67), 3, 8)


def test_batch_owns_read_only_labels_and_their_range():
    spec = MlpSpec((2, 2))
    w = np.zeros(spec.num_params)
    y = np.array([0, 1])
    batch = Batch(np.zeros((2, 2)), y)
    with pytest.raises(ValueError):
        batch.y[0] = 1
    y[1] = 7  # the caller's array, not the batch's
    np.testing.assert_array_equal(batch.y, [0, 1])
    assert model.loss_and_grad(spec, w, batch)[0] == pytest.approx(np.log(2))
    y_bad = np.array([0, 2])
    bad = Batch(np.zeros((2, 2)), y_bad)
    y_bad[1] = 0
    with pytest.raises(ValueError, match="label 2 out of range"):
        model.grad(spec, w, bad)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_sweeps_leave_caller_arrays_unchanged(activation):
    """The in-place sweeps write only into temporaries they allocate themselves."""
    rng = np.random.default_rng(43)
    spec, w = random_net(rng, widths=(5, 7, 6, 4), activation=activation)
    stacked, singles = stacked_batches(rng, spec, m=3)
    batch = singles[0]
    per_task_w = w + 0.1 * rng.normal(size=(3, spec.num_params))
    v1 = rng.normal(size=spec.num_params)
    vk = rng.normal(size=(spec.num_params, 4))
    vm = rng.normal(size=(3, spec.num_params))
    logits = rng.normal(size=(6, 4))
    cot = rng.normal(size=(3, 6, 4))
    owned = [w, per_task_w, batch.x, batch.y, stacked.x, stacked.y, v1, vk, vm, logits, cot]
    before = [a.copy() for a in owned]

    model.grad(spec, w, batch)
    model.loss_and_grad(spec, w, batch)
    model.grad(spec, w, stacked)
    model.loss_and_grad(spec, per_task_w, stacked)
    model.hvp(spec, w, batch, v1)
    model.hvp(spec, w, batch, vk)
    model.hvp(spec, w, stacked, vm)
    model.hvp(spec, per_task_w, stacked, vm)
    model.output_jacobian(spec, w, batch.x)
    model.softmax(logits)
    out, pullback = model.vjp(spec, per_task_w, stacked.x)
    first = pullback(cot)
    np.testing.assert_array_equal(pullback(cot), first)
    np.testing.assert_array_equal(out, model.vjp(spec, per_task_w, stacked.x)[0])

    for a, b in zip(owned, before):
        assert a.tobytes() == b.tobytes()
