"""Influence of training tasks on meta-parameters, adapted weights, and test loss.

The per-task record is the vector -H^+ g_j, where g_j is the task's
meta-gradient at the trained optimum. Everything downstream (adapted-weight
influence, test-loss influence, rankings) is computed from stored records
alone, so the raw training tasks are not needed once records exist.

Sign convention for scores: helpful-positive. A positive score means
upweighting the training task is predicted to lower the test loss; this is
the negative of the raw test-loss derivative and it is recorded in every
report and table header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .hessian import SpectralInverse
from .metalearn import (
    STACK_CHUNK,
    MetaParams,
    MetaTrainConfig,
    Task,
    adapt,
    adapt_jacobian_matvec,
    meta_grad,
    meta_grads,
    meta_train,
    read_exact,
    read_f64,
    read_header,
    read_struct,
)
from . import model

_STORE_MAGIC = b"MIIR"
_STORE_VERSION = 1

HELPFUL_POSITIVE = -1.0  # score = HELPFUL_POSITIVE * d(test loss)/d(upweight)


@dataclass
class InfluenceRecord:
    """Influence of one training task (or group) on the meta-parameters."""

    task_id: str
    i_meta: np.ndarray
    group_id: str | None = None


def influence_records(
    inv: SpectralInverse, mp: MetaParams, train_tasks: list[Task]
) -> list[InfluenceRecord]:
    """-H^+ times each task's meta-gradient at the current meta-parameters.

    The meta-gradients are stacked as q x m columns and pass through one
    ``inv.apply``.
    """
    if mp.q != inv.dim:
        raise ValueError(f"meta-gradient length {mp.q} != inverse dim {inv.dim}")
    i_meta = np.ascontiguousarray(-inv.apply(meta_grads(mp, train_tasks).T).T)
    return [InfluenceRecord(t.task_id, i_meta[i], t.group_id) for i, t in enumerate(train_tasks)]


def influence_meta(inv: SpectralInverse, mp: MetaParams, train_task: Task) -> InfluenceRecord:
    """-H^+ times one task's meta-gradient at the current meta-parameters."""
    return influence_records(inv, mp, [train_task])[0]


def influence_group(records: list[InfluenceRecord], group_id: str) -> InfluenceRecord:
    """Summed influence of all records carrying ``group_id``, in list order."""
    members = [r for r in records if r.group_id == group_id]
    if not members:
        raise ValueError(f"no records with group_id {group_id!r}")
    total = members[0].i_meta.copy()
    for rec in members[1:]:
        total = total + rec.i_meta
    return InfluenceRecord(task_id=group_id, i_meta=total, group_id=group_id)


def influence_perf(mp: MetaParams, test_task: Task, rec: InfluenceRecord) -> float:
    """Induced change rate of the test task's query loss (positive = loss rises)."""
    shift = adapt_jacobian_matvec(mp, test_task, rec.i_meta)
    if mp.learner.kind == "protonet":
        # theta passes through adaptation, so the loss derivative w.r.t. the
        # weights is the full meta-gradient (query features and centroids).
        g_test = meta_grad(mp, test_task)
    else:
        g_test = model.grad(mp.learner.spec, adapt(mp, test_task), test_task.query)
    return float(g_test @ shift)


@dataclass
class ScoreTable:
    """Scores and per-test rankings for every (test, train) pair.

    ``scores[i, j]`` is the helpful-positive score of train entity j on test
    task i; ``ranks[i, j]`` its rank in test i's descending-score order (0 =
    most helpful), ties broken by ascending train id.
    """

    test_ids: list[str]
    train_ids: list[str]
    scores: np.ndarray
    ranks: np.ndarray

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# sign_convention={HELPFUL_POSITIVE:g} (positive = helpful)\n")
            fh.write("test_id,train_id,score,rank\n")
            for i, tid in enumerate(self.test_ids):
                for j, jid in enumerate(self.train_ids):
                    fh.write(f"{tid},{jid},{float(self.scores[i, j])!r},{int(self.ranks[i, j])}\n")


def rank_rows(scores: np.ndarray, train_ids: list[str]) -> np.ndarray:
    """Per-row ranks, descending score, ties by ascending train id."""
    id_order = np.argsort(np.argsort(np.asarray(train_ids, dtype=object), kind="stable"))
    order = np.lexsort((np.broadcast_to(id_order, scores.shape), -scores), axis=-1)
    ranks = np.empty(scores.shape, dtype=int)
    np.put_along_axis(ranks, order, np.arange(scores.shape[1]), axis=-1)
    return ranks


def score_pairs(mp: MetaParams, records: list[InfluenceRecord], test_tasks: list[Task]) -> np.ndarray:
    """Score matrix (tests x records) from stored records.

    Relies on the adaptation Jacobian being symmetric (MAML) or the identity
    (protonet), which folds the loss-gradient/adaptation chain into the test
    task's meta-gradient; tests verify agreement with the composed form.
    Test meta-gradients are computed STACK_CHUNK tasks at a time.
    """
    if not records:
        raise ValueError("need at least one influence record")
    stack = np.stack([r.i_meta for r in records], axis=1)
    scores = np.empty((len(test_tasks), len(records)))
    for c in range(0, len(test_tasks), STACK_CHUNK):
        chunk = test_tasks[c : c + STACK_CHUNK]
        scores[c : c + len(chunk)] = HELPFUL_POSITIVE * (meta_grads(mp, chunk) @ stack)
    return scores


def score_table(
    mp: MetaParams,
    inv: SpectralInverse,
    train_tasks: list[Task],
    test_tasks: list[Task],
    records: list[InfluenceRecord] | None = None,
) -> ScoreTable:
    """Full influence score table; records are computed when not supplied."""
    if records is None:
        records = influence_records(inv, mp, train_tasks)
    train_ids = [r.task_id for r in records]
    scores = score_pairs(mp, records, test_tasks)
    ranks = rank_rows(scores, train_ids)
    return ScoreTable(
        test_ids=[t.task_id for t in test_tasks],
        train_ids=train_ids,
        scores=scores,
        ranks=ranks,
    )


def loo_retrain_oracle(
    mp0: MetaParams,
    taskset: list[Task],
    cfg: MetaTrainConfig,
    j: int,
    epsilon: float,
    base_omega: np.ndarray | None = None,
) -> np.ndarray:
    """Finite-difference ground truth for the parameter influence of task j.

    Re-runs meta-training with task j upweighted by ``epsilon`` under the
    identical seed and schedule and returns (omega_eps - omega) / epsilon.
    ``base_omega`` may carry the unperturbed run's result to avoid repeating
    it across calls; it must come from the same (mp0, taskset, cfg).
    """
    if base_omega is None:
        base_omega = meta_train(mp0, taskset, cfg)[0].omega
    bumped, _ = meta_train(mp0, taskset, cfg, upweight=(j, epsilon))
    return (bumped.omega - base_omega) / epsilon


def save_influence_records(path, records: list[InfluenceRecord]) -> None:
    """Binary store: header, id table, then the row-major f64 record matrix."""
    if not records:
        raise ValueError("nothing to save")
    q = records[0].i_meta.size
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _STORE_MAGIC, _STORE_VERSION))
        fh.write(struct.pack("<QQ", len(records), q))
        for rec in records:
            tid = rec.task_id.encode()
            gid = (rec.group_id or "").encode()
            fh.write(struct.pack("<I", len(tid)) + tid)
            fh.write(struct.pack("<I", len(gid)) + gid)
        mat = np.stack([r.i_meta for r in records], axis=0)
        fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())


def load_influence_records(path) -> list[InfluenceRecord]:
    with open(path, "rb") as fh:
        read_header(fh, _STORE_MAGIC, _STORE_VERSION, "an influence store")
        count, q = read_struct(fh, "<QQ")
        ids = []
        for _ in range(count):
            (tlen,) = read_struct(fh, "<I")
            tid = read_exact(fh, tlen).decode()
            (glen,) = read_struct(fh, "<I")
            gid = read_exact(fh, glen).decode() if glen else None
            ids.append((tid, gid))
        mat = read_f64(fh, count * q).reshape(count, q)
    return [InfluenceRecord(tid, mat[i], gid) for i, (tid, gid) in enumerate(ids)]
