"""Influence of training tasks on meta-parameters and test loss.

The per-task record is the vector -H^+ g_j, where g_j is the task's
meta-gradient at the trained optimum. Test-loss influence and rankings are
computed from stored records alone, so the raw training tasks are not
needed once records exist. No library code computes influence on the
adapted weights; only the tests' ``adaptation_jacobian`` does, and whether
it joins the pipeline is an open item in ROADMAP.md.

Sign convention for scores: helpful-positive. A positive score means
upweighting the training task is predicted to lower the test loss; this is
the negative of the raw test-loss derivative and it is recorded in every
report and table header.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hessian import SpectralInverse
from .metalearn import MetaParams, Task, _kernel_chunks, meta_grads
# not called here: perfbench's test_uninstall_restores_every_binding reads influence.meta_grad
from .metalearn import meta_grad  # noqa: F401
from . import artifact

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


@dataclass
class ScoreTable:
    """Scores and per-test rankings for every (test, train) pair.

    ``scores[i, j]`` is the helpful-positive score of train entity j on test
    task i; ``ranks[i, j]`` its rank in test i's descending-score order (0 =
    most helpful), ties broken by ascending train id. ``losses[i]`` is test
    i's query loss and ``keep`` the pruning rule of the inverse that scored
    the table.
    """

    test_ids: list[str]
    train_ids: list[str]
    scores: np.ndarray
    losses: np.ndarray
    keep: int | float | str

    @cached_property
    def ranks(self) -> np.ndarray:
        return rank_rows(self.scores, self.train_ids)

    def to_csv(self, path) -> None:
        """One line per pair; a score is written as the repr of its Python float.

        Each test row is converted with ``tolist`` and written as one string,
        so the whole table is never held as Python objects at once. A line is
        joined from the test id, a prebuilt ``,{train_id},`` piece, the score
        and a prebuilt ``,{rank}`` line end.
        """
        middles = [f",{jid}," for jid in self.train_ids]
        ends = [f",{r}\n" for r in range(len(self.train_ids))]
        with open(path, "w", newline="") as fh:
            fh.write(f"# sign_convention={HELPFUL_POSITIVE:g} (positive = helpful)\n")
            fh.write("test_id,train_id,score,rank\n")
            for tid, scores, ranks in zip(self.test_ids, self.scores, self.ranks):
                rows = zip(middles, scores.tolist(), ranks.tolist())
                fh.write("".join([f"{tid}{middle}{s!r}{ends[r]}" for middle, s, r in rows]))


def rank_rows(scores: np.ndarray, train_ids: list[str]) -> np.ndarray:
    """Per-row ranks, descending score, ties by ascending train id."""
    id_order = np.argsort(np.argsort(np.asarray(train_ids, dtype=object), kind="stable"))
    order = np.lexsort((np.broadcast_to(id_order, scores.shape), -scores), axis=-1)
    ranks = np.empty(scores.shape, dtype=int)
    np.put_along_axis(ranks, order, np.arange(scores.shape[1]), axis=-1)
    return ranks


def _record_stack(records: list[InfluenceRecord]) -> np.ndarray:
    """The records' vectors as the columns of one (q, len(records)) matrix."""
    if not records:
        raise ValueError("need at least one influence record")
    return np.stack([r.i_meta for r in records], axis=1)


def _scored_chunks(mp: MetaParams, records: list[InfluenceRecord], test_tasks: list[Task]):
    """The tests' query losses and their score matrix (tests x records).

    The test meta-gradients of each stacked kernel call are multiplied by the
    record stack once.
    """
    stack = _record_stack(records)
    losses, scores = np.empty(len(test_tasks)), np.empty((len(test_tasks), len(records)))
    for rows, (chunk_losses, grads) in _kernel_chunks(mp.learner, mp.omega, test_tasks):
        losses[rows], scores[rows] = chunk_losses, HELPFUL_POSITIVE * (grads @ stack)
    return losses, scores


def score_pairs(mp: MetaParams, records: list[InfluenceRecord], test_tasks: list[Task]) -> np.ndarray:
    """Score matrix (tests x records) from stored records.

    Relies on the adaptation Jacobian being symmetric (MAML) or the identity
    (protonet), which folds the loss-gradient/adaptation chain into the test
    task's meta-gradient; tests verify agreement with the composed form.
    """
    return _scored_chunks(mp, records, test_tasks)[1]


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
    losses, scores = _scored_chunks(mp, records, test_tasks)
    return ScoreTable(
        test_ids=[t.task_id for t in test_tasks],
        train_ids=[r.task_id for r in records],
        scores=scores,
        losses=losses,
        keep=inv.keep,
    )


def save_influence_records(path, records: list[InfluenceRecord]) -> None:
    """Task and group ids in the header; the (records, q) matrix as the payload."""
    if not records:
        raise ValueError("nothing to save")
    header = {"task_ids": [r.task_id for r in records], "group_ids": [r.group_id for r in records]}
    artifact.save(path, "influence", header, np.stack([r.i_meta for r in records]))


def load_influence_records(path) -> list[InfluenceRecord]:
    def build(head: dict, mat: np.ndarray) -> list[InfluenceRecord]:
        if mat.ndim != 2:
            raise ValueError(f"records need a 2-D payload, got shape {mat.shape}")
        rows = zip(head["task_ids"], mat, head["group_ids"], strict=True)
        return [InfluenceRecord(tid, row, gid) for tid, row, gid in rows]

    return artifact.load(path, "influence", build)


def save_score_table(path, table: ScoreTable, inputs: dict) -> None:
    """Ids, test losses, the keep rule and ``inputs`` in the header; the (tests, train) scores as payload."""
    header = {
        "test_ids": table.test_ids, "train_ids": table.train_ids,
        "losses": table.losses.tolist(), "keep": table.keep, "inputs": inputs,
    }
    artifact.save(path, "scores", header, table.scores)


def load_score_table(path) -> ScoreTable:
    def build(head: dict, scores: np.ndarray) -> ScoreTable:
        ids = head["test_ids"], head["train_ids"]
        losses = np.array(head["losses"], dtype=float)
        if scores.shape != tuple(map(len, ids)) or losses.shape != scores.shape[:1]:
            raise ValueError(f"scores of shape {scores.shape} and {losses.size} losses do not fit the ids")
        return ScoreTable(*ids, scores, losses, head["keep"])

    return artifact.load(path, "scores", build)
