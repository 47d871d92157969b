"""Small dense feed-forward classifier with exact derivative primitives.

All weights of a network live in one flat float64 vector. The packing order
is fixed so stored vectors are portable: for each layer in order, the weight
matrix W (out x in, row-major) followed by the bias b (out). Losses are mean
softmax cross-entropy over the batch, so every derivative here carries the
1/n prefactor.

``grad``, ``loss_and_grad`` and ``hvp`` also take a stack of same-shape
batches on a leading task axis and return one row per task; every
contraction is a broadcasting ``matmul`` over the leading axes. ``vjp``
returns the logits with a pullback for any output cotangent; it, ``grad``,
``loss_and_grad`` and ``output_jacobian`` share one reverse sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

ACTIVATIONS = ("tanh", "relu")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a fully-connected classifier.

    ``layer_widths`` runs input dim -> hidden widths -> class count.
    ``activation`` applies to every hidden layer, or per hidden layer when a
    tuple is given. tanh is the default because its second derivatives are
    smooth, which exact curvature checks rely on.
    """

    layer_widths: tuple[int, ...]
    activation: str | tuple[str, ...] = "tanh"

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w <= 0 for w in widths):
            raise ValueError(f"widths must be positive, got {widths}")
        if widths[-1] < 2:
            raise ValueError("output width (class count) must be >= 2")
        acts = self.activation
        if isinstance(acts, str):
            acts = (acts,) * (len(widths) - 2)
        else:
            acts = tuple(acts)
            if len(acts) != len(widths) - 2:
                raise ValueError(
                    f"need {len(widths) - 2} activations, got {len(acts)}"
                )
        for a in acts:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        object.__setattr__(self, "layer_widths", widths)
        object.__setattr__(self, "activation", acts)

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def num_classes(self) -> int:
        return self.layer_widths[-1]

    # the layout is read on every derivative call, so it is computed once;
    # cached_property writes the instance dict, not a field, so equality and
    # hashing see only the widths and activations
    @cached_property
    def num_layers(self) -> int:
        return len(self.layer_widths) - 1

    @cached_property
    def num_params(self) -> int:
        widths = self.layer_widths
        return sum((widths[i] + 1) * widths[i + 1] for i in range(len(widths) - 1))

    @cached_property
    def _layout(self) -> tuple[tuple[slice, slice, int, int], ...]:
        out = []
        offset = 0
        widths = self.layer_widths
        for i in range(self.num_layers):
            d_in, d_out = widths[i], widths[i + 1]
            w_sl = slice(offset, offset + d_out * d_in)
            offset += d_out * d_in
            b_sl = slice(offset, offset + d_out)
            offset += d_out
            out.append((w_sl, b_sl, d_out, d_in))
        return tuple(out)

    def layer_slices(self) -> tuple[tuple[slice, slice, int, int], ...]:
        """(weight slice, bias slice, out, in) per layer in packing order."""
        return self._layout

    def init_weights(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        """Scaled fan-in Gaussian weights, zero biases."""
        w = np.zeros(self.num_params)
        for w_sl, _, d_out, d_in in self.layer_slices():
            w[w_sl] = rng.normal(0.0, scale / np.sqrt(d_in), size=d_out * d_in)
        return w


@dataclass(frozen=True)
class Batch:
    """Inputs (n x d) with integer class labels (n), or a stack of m such batches.

    A stacked batch has inputs (m, n, d) and labels (m, n); every task in the
    stack has the same sample count n. The derivative primitives then return
    one row per task.

    The batch keeps its own read-only copy of the labels, and their maximum
    once a derivative call has read it, so the range check of every later
    call compares one stored int.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        try:
            y = np.array(self.y, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"labels must fit in int64: {exc}") from exc
        y.flags.writeable = False
        if x.ndim not in (2, 3):
            raise ValueError(f"inputs must be (n, d) or stacked (m, n, d), got shape {x.shape}")
        if y.shape != x.shape[:-1]:
            raise ValueError(f"labels of shape {y.shape} do not match inputs of shape {x.shape}")
        if x.shape[-2] < 1:
            raise ValueError("batch must contain at least one sample")
        if y.size and y.min() < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        """Samples per task."""
        return int(self.x.shape[-2])

    @property
    def stacked(self) -> bool:
        return self.x.ndim == 3

    @cached_property
    def _y_max(self) -> int:
        return int(self.y.max()) if self.y.size else -1


def _layers(spec: MlpSpec, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer views of flat vectors w (..., p): W (..., out, in) and b (..., out)."""
    lead = w.shape[:-1]
    return [
        (w[..., w_sl].reshape(lead + (d_out, d_in)), w[..., b_sl])
        for w_sl, b_sl, d_out, d_in in spec.layer_slices()
    ]


def _act(kind: str, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Activation value, written over the pre-activation z, and first derivative."""
    if kind == "tanh":
        a = np.tanh(z, out=z)
        da = a * a
        return a, np.subtract(1.0, da, out=da)
    da = (z > 0.0).astype(float)
    return np.maximum(z, 0.0, out=z), da


def _act_second(kind: str, a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """Activation second derivative from the value a and first derivative da."""
    if kind == "tanh":
        dda = -2.0 * a
        dda *= da
        return dda
    return np.zeros_like(a)


def _forward_cache(spec: MlpSpec, w: np.ndarray, x: np.ndarray):
    """Logits plus per-layer activations (inputs first), their derivatives and (W, b) views.

    ``x`` is (n, d) or (m, n, d); ``w`` is (p,) or, for stacked inputs, (m, p).
    """
    layers = _layers(spec, w)
    acts: list[np.ndarray] = [x]
    dacts: list[np.ndarray] = []
    for i, (W, b) in enumerate(layers):
        z = acts[-1] @ W.swapaxes(-1, -2)
        z += b[..., None, :]
        if i < spec.num_layers - 1:
            a, da = _act(spec.activation[i], z)
            acts.append(a)
            dacts.append(da)
    return z, acts, dacts, layers


def forward(spec: MlpSpec, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Logits (n x c) for inputs (n x d), or (m, n, c) for a stack (m, n, d)."""
    x = np.asarray(x, dtype=float)
    logits, *_ = _forward_cache(spec, _checked(spec, w, x), x)
    return logits


def softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def cross_entropy(logits: np.ndarray, y: np.ndarray):
    """Mean softmax cross-entropy, log-sum-exp stabilized.

    A float for logits (n, c); one value per task, shape (m,), for stacked
    logits (m, n, c).
    """
    m = logits.max(axis=-1)
    lse = m + np.log(np.exp(logits - m[..., None]).sum(axis=-1))
    picked = np.take_along_axis(logits, y[..., None], axis=-1)[..., 0]
    ce = np.mean(lse - picked, axis=-1)
    return float(ce) if ce.ndim == 0 else ce


def _softmax_and_delta(logits: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax and the logit gradient (softmax - onehot) / n of the mean cross-entropy."""
    s = softmax(logits)
    delta = s - (y[..., None] == np.arange(logits.shape[-1]))
    delta /= y.shape[-1]
    return s, delta


def _checked(spec: MlpSpec, w: np.ndarray, x: np.ndarray, y_max: int | None = None) -> np.ndarray:
    """Validate inputs, and the largest label if given; return the weights as floats.

    Inputs are (n, d) or a stack (m, n, d). Weights are one vector (p,)
    shared by every task, or (m, p) with one vector per task of a stack.
    """
    if x.ndim not in (2, 3) or x.shape[-1] != spec.input_dim:
        raise ValueError(
            f"expected inputs (n, {spec.input_dim}) or (m, n, {spec.input_dim}), got {x.shape}"
        )
    if y_max is not None and y_max >= spec.num_classes:
        raise ValueError(f"label {y_max} out of range for {spec.num_classes} classes")
    w = np.asarray(w, dtype=float)
    p = spec.num_params
    if w.shape != (p,) and w.shape != x.shape[:-2] + (p,):
        raise ValueError(
            f"expected weights of shape ({p},) or {x.shape[:-2] + (p,)}, got {w.shape}"
        )
    return w


def _backward(spec: MlpSpec, acts, dacts, layers, delta: np.ndarray) -> np.ndarray:
    """Reverse sweep from the output cotangent ``delta`` (..., n, c) of a cached forward pass.

    Returns the weight gradient of <delta, logits> summed over the sample
    axis: (p,) for one batch, (..., p), one row per leading index, otherwise.
    """
    lead = delta.shape[:-2]
    g = np.empty(lead + (spec.num_params,))
    slices = spec.layer_slices()
    for l in range(spec.num_layers - 1, -1, -1):
        w_sl, b_sl, _, _ = slices[l]
        g[..., w_sl] = (delta.swapaxes(-1, -2) @ acts[l]).reshape(lead + (-1,))
        g[..., b_sl] = delta.sum(axis=-2)
        if l > 0:
            delta = delta @ layers[l][0]
            delta *= dacts[l - 1]
    return g


def vjp(spec: MlpSpec, w: np.ndarray, x: np.ndarray):
    """Logits of inputs x and their pullback, from one forward pass.

    ``x`` is (n, d) or a stack (m, n, d); ``w`` is (p,) or (m, p). The
    pullback maps a cotangent of the logits' shape to the weight gradient
    of <cotangent, logits> with one reverse sweep: (p,) for one batch,
    (m, p), one row per task, for a stack.
    """
    x = np.asarray(x, dtype=float)
    w = _checked(spec, w, x)
    logits, acts, dacts, layers = _forward_cache(spec, w, x)
    return logits, lambda delta: _backward(spec, acts, dacts, layers, delta)


def _logits_and_grad(spec: MlpSpec, w: np.ndarray, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """One forward/backward pass: logits and the loss gradient, (p,) or (m, p)."""
    w = _checked(spec, w, batch.x, batch._y_max)
    logits, acts, dacts, layers = _forward_cache(spec, w, batch.x)
    _, delta = _softmax_and_delta(logits, batch.y)
    return logits, _backward(spec, acts, dacts, layers, delta)


def loss_and_grad(spec: MlpSpec, w: np.ndarray, batch: Batch):
    """Loss and its gradient in one forward/backward pass (per task when stacked)."""
    logits, g = _logits_and_grad(spec, w, batch)
    return cross_entropy(logits, batch.y), g


def grad(spec: MlpSpec, w: np.ndarray, batch: Batch) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the weight vector.

    (p,) for one batch; (m, p), one row per task, for a stacked batch.
    """
    return _logits_and_grad(spec, w, batch)[1]


def hvp(spec: MlpSpec, w: np.ndarray, batch: Batch, v: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product(s) of the mean cross-entropy.

    For one batch, ``v`` may be a single direction (p,) or a stack of
    directions (p, k); the result has the same shape. For a stacked batch,
    ``v`` is (m, p), one direction per task, and row i of the result is task
    i's Hessian times v[i]. Uses forward-over-reverse propagation, so no
    second-order tensor is ever materialized.
    """
    w = _checked(spec, w, batch.x, batch._y_max)
    v = np.asarray(v, dtype=float)
    p = spec.num_params
    # directions as rows (..., p) on the leading axes: one direction (p,), one
    # per task (m, p), or k directions (k, p) for one batch. Each product
    # below is then a matmul that broadcasts the directions against the cache.
    if batch.stacked:
        if v.shape != (batch.x.shape[0], p):
            raise ValueError(
                f"stacked batch needs directions ({batch.x.shape[0]}, {p}), got {v.shape}"
            )
        dirs = v
    elif v.ndim in (1, 2) and v.shape[0] == p:
        dirs = v if v.ndim == 1 else v.T
    else:
        raise ValueError(f"direction length {v.shape[0] if v.ndim else v.shape} != {p}")

    logits, acts, dacts, layers = _forward_cache(spec, w, batch.x)
    s, delta = _softmax_and_delta(logits, batch.y)
    weights = [W for W, _ in layers]
    v_layers = _layers(spec, dirs)
    n_layers = spec.num_layers

    # forward sweep of directional derivatives r_z, r_a, each (..., n, width)
    r_acts: list[np.ndarray | None] = [None]  # inputs are constants
    r_zs: list[np.ndarray] = []
    for l in range(n_layers):
        vW, vb = v_layers[l]
        rz = acts[l] @ vW.swapaxes(-1, -2)
        rz += vb[..., None, :]
        if r_acts[l] is not None:
            rz += r_acts[l] @ weights[l].swapaxes(-1, -2)
        r_zs.append(rz)
        if l < n_layers - 1:
            r_acts.append(dacts[l] * rz)

    rz_last = r_zs[-1]
    r_delta = rz_last - (s * rz_last).sum(axis=-1, keepdims=True)
    r_delta *= s
    r_delta /= batch.n

    out = np.empty(dirs.shape)
    slices = spec.layer_slices()
    for l in range(n_layers - 1, -1, -1):
        w_sl, b_sl, _, _ = slices[l]
        hw = r_delta.swapaxes(-1, -2) @ acts[l]
        if r_acts[l] is not None:
            hw += delta.swapaxes(-1, -2) @ r_acts[l]
        out[..., w_sl] = hw.reshape(hw.shape[:-2] + (-1,))
        out[..., b_sl] = r_delta.sum(axis=-2)
        if l > 0:
            # r_delta = ru * da + (u * dda) * r_z and delta = u * da, each
            # product written into a temporary of this sweep; r_z takes the
            # product with u * dda because it carries the k directions u lacks
            u = delta @ weights[l]
            ru = r_delta @ weights[l]
            ru += delta @ v_layers[l][0]
            da = dacts[l - 1]
            ru *= da
            dda = _act_second(spec.activation[l - 1], acts[l], da)
            dda *= u
            rz = r_zs[l - 1]
            rz *= dda
            ru += rz
            r_delta = ru
            u *= da
            delta = u
    return out.T if v.ndim == 2 and not batch.stacked else out


def output_jacobian(spec: MlpSpec, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Jacobian of every logit with respect to the weights, shape (n, c, p), for inputs (n, d)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"output_jacobian takes one task's inputs (n, d), not shape {x.shape}")
    w = _checked(spec, w, x)
    _, acts, dacts, layers = _forward_cache(spec, w, x)
    # every (sample, logit) pair is its own one-sample batch with a unit
    # cotangent, so the reverse sweep returns one gradient row per pair
    n, c = x.shape[0], spec.num_classes
    unit = np.broadcast_to(np.eye(c)[:, None, :], (n, c, 1, c))
    acts = [a[:, None, None, :] for a in acts]
    dacts = [da[:, None, None, :] for da in dacts]
    return _backward(spec, acts, dacts, layers, unit)
