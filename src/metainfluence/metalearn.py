"""Adaptation algorithms, meta-gradients, and the Adam meta-training loop.

Two learners share one parameter layout (the meta-parameter vector has the
same length as the model weight vector):

* ``maml``     -- adaptation is one gradient step on the support set with a
                  fixed inner learning rate; the adaptation Jacobian is
                  I - lr * H_support, which is symmetric.
* ``protonet`` -- weights pass through unchanged; class centroids are the
                  mean support embeddings and query logits are negative
                  squared Euclidean distances to them.

Each learner has one meta-gradient kernel, ``(learner, omega, support,
query, with_loss)``, that takes one task's batches or a stack of same-shape
tasks on a leading task axis. ``meta_grad``, ``meta_grads``, ``meta_train``
and the curvature and scoring code above them all go through it.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import model
from .model import Batch, MlpSpec

LEARNER_KINDS = ("maml", "protonet")

# Tasks per stacked kernel call. The stacked MAML intermediates take about
# 130 KB per task at q=1221; chunks of 32 keep them small next to the inputs.
STACK_CHUNK = 32

# Adam moment decays and denominator guard of ``meta_train``.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_PARAMS_MAGIC = b"MIMP"
_PARAMS_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """Meta-training produced a non-finite loss or gradient."""


class TruncatedFileError(OSError):
    """A binary artifact ends before the bytes its header declares."""


def _check_remaining(fh, n: int) -> None:
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > remaining:
        raise TruncatedFileError(
            f"{fh.name} is truncated: expected {n} more bytes, found {remaining}"
        )


def read_exact(fh, n: int) -> bytes:
    """Read exactly n bytes from a binary file or raise TruncatedFileError.

    The length is checked against the bytes left in the file before reading,
    so a corrupt header that declares a huge payload allocates nothing.
    """
    _check_remaining(fh, n)
    return fh.read(n)


def read_f64(fh, count: int) -> np.ndarray:
    """Read ``count`` little-endian float64 values straight into a new array.

    Length-checked like ``read_exact``. The file is read into the array
    itself, so the payload is held once.
    """
    _check_remaining(fh, 8 * count)
    out = np.empty(count, dtype="<f8")
    if fh.readinto(out) != out.nbytes:
        raise TruncatedFileError(f"{fh.name} is truncated: it shrank while being read")
    return out.astype(float, copy=False)


def read_struct(fh, fmt: str) -> tuple:
    """Read and unpack one struct of format ``fmt``, length-checked."""
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt)))


def read_header(fh, magic: bytes, version: int, what: str) -> None:
    """Read a binary artifact's magic and version and check both against ``what``'s."""
    got_magic, got_version = read_struct(fh, "<4sI")
    if got_magic != magic:
        raise ValueError(f"{fh.name} is not {what}: bad magic {got_magic!r}")
    if got_version != version:
        raise ValueError(f"{fh.name}: unsupported version {got_version} of {what}")


def code_name(fh, names: tuple[str, ...], code: int, what: str) -> str:
    """The name a stored enum code stands for; an unknown code raises ValueError."""
    if code >= len(names):
        raise ValueError(f"{fh.name}: unknown {what} code {code}")
    return names[code]


@dataclass(frozen=True)
class Learner:
    kind: str
    spec: MlpSpec
    inner_lr: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.kind == "maml" and self.inner_lr < 0:
            raise ValueError("inner_lr must be non-negative")


@dataclass(frozen=True)
class Task:
    """One few-shot episode: a support batch to adapt on, a query batch to score."""

    task_id: str
    support: Batch
    query: Batch
    group_id: str | None = None
    provenance: str = "regular"

    def __post_init__(self) -> None:
        if self.support.x.shape[1] != self.query.x.shape[1]:
            raise ValueError("support and query feature dims differ")

    @cached_property
    def n_ways(self) -> int:
        """Class count, read once per task; ``dataclasses.replace`` builds a fresh cache."""
        return int(max(self.support.y.max(), self.query.y.max())) + 1


@dataclass
class MetaParams:
    omega: np.ndarray
    learner: Learner

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape != (self.learner.spec.num_params,):
            raise ValueError(
                f"omega length {omega.shape} != parameter count {self.learner.spec.num_params}"
            )
        self.omega = omega

    @property
    def q(self) -> int:
        return int(self.omega.size)


def _proto_logits(f: np.ndarray, y_s: np.ndarray, n_ways: int):
    """Protonet logits from the embeddings f of support + query, of one task or a stack.

    f holds the n_s support embeddings f_s, then the query embeddings f_q.
    The centroids are avg^T f_s with avg = onehot / counts, (..., n_s, k),
    and the logits (..., n_q, k) are -|f_q - c_k|^2. Returns the logits, the
    differences f_q - c_k (..., n_q, k, e) and avg.
    """
    n_s = y_s.shape[-1]
    f_s, f_q = f[..., :n_s, :], f[..., n_s:, :]
    onehot = y_s[..., None] == np.arange(n_ways)
    counts = onehot.sum(axis=-2, keepdims=True)
    if (counts == 0).any():
        missing = int(np.argwhere(counts == 0)[0, -1])
        raise ValueError(f"support set has no samples for class {missing}")
    avg = onehot / counts
    diff = f_q[..., :, None, :] - (avg.swapaxes(-1, -2) @ f_s)[..., None, :, :]
    return -np.square(diff).sum(axis=-1), diff, avg


def adapt(mp: MetaParams, task: Task) -> np.ndarray:
    """Run the learner's adaptation and return the adapted weights theta_hat."""
    if mp.learner.kind == "protonet":
        # weights pass through; building the centroids validates the support set
        task_logits(mp, task)
        return mp.omega.copy()
    return mp.omega - mp.learner.inner_lr * model.grad(mp.learner.spec, mp.omega, task.support)


def adapt_jacobian_matvec(mp: MetaParams, task: Task, v: np.ndarray) -> np.ndarray:
    """(d theta_hat / d omega) @ v without materializing the Jacobian.

    For MAML the Jacobian is symmetric, so this is also the transposed
    product. Accepts a single vector (p,) or a stack (p, k).
    """
    if mp.learner.kind == "protonet":
        return np.array(v, dtype=float, copy=True)
    lr = mp.learner.inner_lr
    return v - lr * model.hvp(mp.learner.spec, mp.omega, task.support, v)


def task_logits(mp: MetaParams, task: Task) -> np.ndarray:
    """Query logits after adaptation."""
    spec = mp.learner.spec
    if mp.learner.kind == "protonet":
        f = model.forward(spec, mp.omega, np.concatenate([task.support.x, task.query.x]))
        return _proto_logits(f, task.support.y, task.n_ways)[0]
    return model.forward(spec, adapt(mp, task), task.query.x)


def _accuracy(logits: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(logits.argmax(axis=1) == y))


def meta_loss(mp: MetaParams, task: Task) -> float:
    """Query loss after adaptation (the outer-loop objective for one task)."""
    return model.cross_entropy(task_logits(mp, task), task.query.y)


def _maml_meta_grad(
    learner: Learner, omega: np.ndarray, support: Batch, query: Batch, with_loss: bool = False
):
    """The MAML meta-gradient kernel: g_q - lr * H_support(omega) g_q.

    g_q is the query-loss gradient at theta_hat = omega - lr * grad_support(omega).
    The batches hold one task, or a stack of m same-shape tasks that gives
    one row per task, (m, q). With ``with_loss`` it returns (query loss, meta-gradient).
    """
    spec, lr = learner.spec, learner.inner_lr
    if lr == 0.0:
        return (model.loss_and_grad if with_loss else model.grad)(spec, omega, query)
    theta = omega - lr * model.grad(spec, omega, support)
    if with_loss:
        loss_q, g_q = model.loss_and_grad(spec, theta, query)
    else:
        g_q = model.grad(spec, theta, query)
    g = g_q - lr * model.hvp(spec, omega, support, g_q)
    return (loss_q, g) if with_loss else g


def _proto_meta_grad(
    learner: Learner, omega: np.ndarray, support: Batch, query: Batch, with_loss: bool = False
):
    """The protonet meta-gradient kernel: one forward and one reverse sweep over support + query.

    The query loss reaches the embeddings through the logits
    -|f_q - c_k|^2; with coeff = (softmax - onehot) / n_q its cotangents are
    d f_q = -2 sum_k coeff diff and d f_s = avg @ (2 sum_n coeff diff). The
    batches hold one task, or a stack of same-shape tasks with one class
    count, which gives one row per task, (m, q). With ``with_loss`` it
    returns (query loss, meta-gradient).
    """
    n_ways = int(max(support.y.max(), query.y.max())) + 1
    f, pullback = model.vjp(learner.spec, omega, np.concatenate([support.x, query.x], axis=-2))
    logits, diff, avg = _proto_logits(f, support.y, n_ways)
    _, coeff = model._softmax_and_delta(logits, query.y)
    weighted = coeff[..., None] * diff
    d_f_s = avg @ (2.0 * weighted.sum(axis=-3))
    g = pullback(np.concatenate([d_f_s, -2.0 * weighted.sum(axis=-2)], axis=-2))
    return (model.cross_entropy(logits, query.y), g) if with_loss else g


_KERNELS = {"maml": _maml_meta_grad, "protonet": _proto_meta_grad}


def _meta_grad(learner: Learner, omega: np.ndarray, task: Task) -> np.ndarray:
    return _KERNELS[learner.kind](learner, omega, task.support, task.query)


def meta_grad(mp: MetaParams, task: Task) -> np.ndarray:
    """Exact gradient of the adapted query loss with respect to the meta-parameters."""
    return _meta_grad(mp.learner, mp.omega, task)


def _shape_groups(tasks: list[Task]) -> list[list[int]]:
    """Positions of the tasks sharing each (support, query) shape and class count.

    Groups and the positions in them are in first-seen order.
    """
    groups: dict[tuple, list[int]] = {}
    for i, task in enumerate(tasks):
        groups.setdefault((task.support.x.shape, task.query.x.shape, task.n_ways), []).append(i)
    return list(groups.values())


def _stack(tasks: list[Task]) -> tuple[Batch, Batch]:
    """Support and query batches of same-shape tasks, stacked on a leading task axis."""
    return (
        Batch(np.stack([t.support.x for t in tasks]), np.stack([t.support.y for t in tasks])),
        Batch(np.stack([t.query.x for t in tasks]), np.stack([t.query.y for t in tasks])),
    )


def _stacked_rows(learner: Learner, omega: np.ndarray, tasks: list[Task], with_loss: bool = False):
    """Meta-gradients of many tasks, one row per task, and with ``with_loss`` their query losses.

    Tasks of one (support, query) shape and class count go through the
    learner's stacked kernel STACK_CHUNK at a time. Returns the (len(tasks), q)
    rows, or (losses, rows) with ``with_loss``.
    """
    kernel = _KERNELS[learner.kind]
    losses, grads = np.empty(len(tasks)), np.empty((len(tasks), learner.spec.num_params))
    for group in _shape_groups(tasks):
        for c in range(0, len(group), STACK_CHUNK):
            rows = group[c : c + STACK_CHUNK]
            out = kernel(learner, omega, *_stack([tasks[i] for i in rows]), with_loss=with_loss)
            if with_loss:
                losses[rows], grads[rows] = out
            else:
                grads[rows] = out
    return (losses, grads) if with_loss else grads


def meta_grads(mp: MetaParams, tasks: list[Task]) -> np.ndarray:
    """Meta-gradients of many tasks, one row per task: (len(tasks), q)."""
    return _stacked_rows(mp.learner, mp.omega, tasks)


def meta_output_jacobian(mp: MetaParams, task: Task) -> tuple[np.ndarray, np.ndarray]:
    """Query logits and their Jacobian w.r.t. the meta-parameters, (n, c, q).

    For MAML this chains the adapted-weight logit Jacobian through the
    adaptation Jacobian; for protonet the logits are centroid distances, so
    both query and support embeddings contribute, the support ones through
    their class means.
    """
    spec = mp.learner.spec
    if mp.learner.kind == "protonet":
        x = np.concatenate([task.support.x, task.query.x])
        f = model.forward(spec, mp.omega, x)
        j = model.output_jacobian(spec, mp.omega, x)
        n_s, (_, e, q) = task.support.n, j.shape
        logits, diff, avg = _proto_logits(f, task.support.y, task.n_ways)
        jbar = (avg.T @ j[:n_s].reshape(n_s, e * q)).reshape(-1, e, q)
        jac = -2.0 * (diff @ j[n_s:] - (diff.swapaxes(0, 1) @ jbar).swapaxes(0, 1))
        return logits, jac
    theta = adapt(mp, task)
    logits = model.forward(spec, theta, task.query.x)
    j_out = model.output_jacobian(spec, theta, task.query.x)
    n, c, p = j_out.shape
    flat = j_out.reshape(n * c, p).T
    chained = adapt_jacobian_matvec(mp, task, flat)
    return logits, chained.T.reshape(n, c, p)


@dataclass(frozen=True)
class MetaTrainConfig:
    steps: int
    meta_batch: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0
    seed: int = 0


@dataclass
class TrainLog:
    entries: list[dict] = field(default_factory=list)
    final_loss: float = float("nan")
    final_accuracy: float = float("nan")

    def to_jsonl(self) -> str:
        lines = [json.dumps(e, sort_keys=True) for e in self.entries]
        lines.append(
            json.dumps(
                {"final_loss": self.final_loss, "final_accuracy": self.final_accuracy},
                sort_keys=True,
            )
        )
        return "\n".join(lines) + "\n"


def meta_train(
    mp0: MetaParams,
    taskset: list[Task],
    cfg: MetaTrainConfig,
    upweight: tuple[int, float] | None = None,
) -> tuple[MetaParams, TrainLog]:
    """Adam on the mean adapted query loss over sampled meta-batches.

    Tasks are sampled with replacement per batch from a PCG64 generator
    seeded with ``cfg.seed``, so a run is a pure function of its inputs.
    ``upweight=(j, eps)`` multiplies task j's loss by (1 + eps * M) whenever
    it is sampled, which in expectation adds eps * L_j to the objective.
    Weight decay adds wd * |omega|^2 / 2.
    """
    if not taskset:
        raise ValueError("taskset must be nonempty")
    learner = mp0.learner
    m_tasks = len(taskset)
    weights = np.ones(m_tasks)
    if upweight is not None:
        j, eps = upweight
        weights[j] += eps * m_tasks

    rng = np.random.default_rng(cfg.seed)
    omega = mp0.omega.copy()
    m = np.zeros_like(omega)
    v = np.zeros_like(omega)
    log = TrainLog()

    for step in range(1, cfg.steps + 1):
        idx = rng.integers(0, m_tasks, size=cfg.meta_batch)
        losses, grads = _stacked_rows(learner, omega, [taskset[i] for i in idx], with_loss=True)
        g = (weights[idx] @ grads) / cfg.meta_batch
        batch_loss = float(weights[idx] @ losses) / cfg.meta_batch
        if cfg.weight_decay:
            g += cfg.weight_decay * omega
            batch_loss += 0.5 * cfg.weight_decay * float(omega @ omega)
        if not np.isfinite(batch_loss) or not np.all(np.isfinite(g)):
            raise TrainingDivergedError(f"non-finite loss or gradient at step {step}")

        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        mhat = m / (1.0 - ADAM_BETA1**step)
        vhat = v / (1.0 - ADAM_BETA2**step)
        omega -= cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        log.entries.append(
            {"step": step, "loss": float(batch_loss), "grad_norm": float(np.linalg.norm(g))}
        )

    mp = MetaParams(omega, learner)
    scored = [(task_logits(mp, t), t.query.y) for t in taskset]
    log.final_loss = float(np.mean([model.cross_entropy(z, y) for z, y in scored]))
    log.final_accuracy = float(np.mean([_accuracy(z, y) for z, y in scored]))
    return mp, log


def total_meta_gradient_norm(mp: MetaParams, taskset: list[Task]) -> float:
    """Norm of the taskset-mean meta-gradient; near zero at a trained optimum."""
    if not taskset:
        raise ValueError("taskset must be nonempty")
    return float(np.linalg.norm(meta_grads(mp, taskset).mean(axis=0)))


def save_params(path, mp: MetaParams) -> None:
    """Binary MetaParams file: header, spec, then the little-endian f64 vector."""
    spec = mp.learner.spec
    acts = ",".join(spec.activation).encode()
    widths = spec.layer_widths
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _PARAMS_MAGIC, _PARAMS_VERSION))
        kind_code = LEARNER_KINDS.index(mp.learner.kind)
        fh.write(struct.pack("<Bd", kind_code, mp.learner.inner_lr))
        fh.write(struct.pack("<I", len(acts)) + acts)
        fh.write(struct.pack("<I", len(widths)))
        fh.write(struct.pack(f"<{len(widths)}Q", *widths))
        fh.write(struct.pack("<Q", mp.q))
        fh.write(np.ascontiguousarray(mp.omega, dtype="<f8").tobytes())


def load_params(path) -> MetaParams:
    with open(path, "rb") as fh:
        read_header(fh, _PARAMS_MAGIC, _PARAMS_VERSION, "a MetaParams file")
        kind_code, inner_lr = read_struct(fh, "<Bd")
        kind = code_name(fh, LEARNER_KINDS, kind_code, "learner kind")
        (alen,) = read_struct(fh, "<I")
        acts = tuple(read_exact(fh, alen).decode().split(",")) if alen else ()
        (nw,) = read_struct(fh, "<I")
        widths = read_struct(fh, f"<{nw}Q")
        (q,) = read_struct(fh, "<Q")
        omega = read_f64(fh, q)
    spec = MlpSpec(widths, acts if acts else "tanh")
    learner = Learner(kind, spec, inner_lr)
    return MetaParams(omega, learner)
