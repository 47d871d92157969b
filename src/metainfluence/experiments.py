"""Experiment protocols over trained artifacts, each returning its JSON report document.

A report is the dict ``write_report`` writes: ``schema_version``, ``kind``,
``config_echo`` and ``results``, built by ``_report``. Reports are pure
functions of their inputs (trained parameters and an inverse, or a score
table; tasksets, grids, seeds): rerunning one reproduces byte-identical
JSON. Every report echoes its configuration, including the score sign
convention (helpful-positive). ``run_self_rank`` alone returns a
``SelfRankReport``, whose ``to_dict()`` gives its document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import hessian as hessian_mod
from .hessian import SpectralInverse
from .influence import (
    HELPFUL_POSITIVE,
    InfluenceRecord,
    ScoreTable,
    _record_stack,
    influence_records,
    rank_rows,
    score_pairs,
    score_table,
)
from .metalearn import MetaParams, Task, meta_grads
from .taskgen import DegradeParams, degrade_task

REPORT_SCHEMA_VERSION = 1

# The degradation sweeps hold the other knob at full strength and degrade
# both the support and the query batch.
DEGRADE_ALPHA_FIXED = 1.0
DEGRADE_RATIO_FIXED = 1.0


def pearson(xs, ys) -> float | None:
    """Sample Pearson r; None (never NaN) when either variance vanishes."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length 1-D sequences of length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        return None
    r = float((dx @ dy) / math.sqrt(sx * sy))
    return max(-1.0, min(1.0, r))


def binomial_two_sided_p(successes: int, trials: int) -> float:
    """Exact two-sided binomial p-value at p = 1/2.

    The outcomes no likelier than k successes in n trials are the two tails
    beyond min(k, n - k), so p = min(1, 2 * sum_{i <= min(k, n - k)} C(n, i) / 2^n),
    summed in exact integers and rounded once.
    """
    if not (0 <= successes <= trials):
        raise ValueError("need 0 <= successes <= trials")
    tail = sum(math.comb(trials, i) for i in range(min(successes, trials - successes) + 1))
    return min(1.0, 2 * tail / 2**trials)


def _corr_summary(corrs: list[float | None]) -> tuple[float | None, float | None, int]:
    """Mean and std of the defined correlations (None, None if none is) and how many are None."""
    defined = [r for r in corrs if r is not None]
    if not defined:
        return None, None, len(corrs)
    arr = np.asarray(defined, dtype=float)
    return float(arr.mean()), float(arr.std()), len(corrs) - len(defined)


def _report(kind: str, config_echo: dict, results: dict) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        "config_echo": config_echo,
        "results": results,
    }


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write_report(path, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))


@dataclass
class SelfRankReport:
    rows: list[dict]
    summary: dict

    def to_dict(self) -> dict:
        return _report(
            "self_rank",
            {"sign_convention": HELPFUL_POSITIVE, "num_train_tasks": len(self.rows)},
            {"per_test": self.rows, "summary": self.summary},
        )


def run_self_rank(mp: MetaParams, inv: SpectralInverse, train_tasks: list[Task]) -> SelfRankReport:
    """Reuse every training task as a test task and locate it in its own ranking."""
    table = score_table(mp, inv, train_tasks, train_tasks)
    ranks = np.diag(table.ranks).astype(float)
    scores = np.diag(table.scores)
    rows = [
        {"test_id": tid, "self_rank": int(r), "self_score": float(s)}
        for tid, r, s in zip(table.test_ids, ranks, scores)
    ]
    summary = {
        "mean_rank": float(ranks.mean()),
        "std_rank": float(ranks.std()),
        "fraction_rank0": float(np.mean(ranks == 0)),
        "mean_score": float(scores.mean()),
        "std_score": float(scores.std()),
    }
    return SelfRankReport(rows=rows, summary=summary)


def _degradation_sweep(
    mp: MetaParams,
    records: list[InfluenceRecord],
    train_tasks: list[Task],
    values: list[float],
    make_params,
    seed: int,
) -> dict:
    """Self ranks and scores of each training task over its degraded grid.

    The meta-gradients of every degraded test come from one ``meta_grads``
    call. Each task's k-row block is then multiplied by the record stack on
    its own, as ``score_pairs`` does for that grid alone: one product over
    every grid would send a trailing one-row chunk through a matrix-vector
    kernel and change its last bits.
    """
    stack, train_ids, k = _record_stack(records), [r.task_id for r in records], len(values)
    grads = meta_grads(mp, [degrade_task(t, make_params(v), seed) for t in train_tasks for v in values])
    per_task = []
    # records follow train_tasks, so task j's own column is column j
    for j, task in enumerate(train_tasks):
        scores = HELPFUL_POSITIVE * (grads[j * k : (j + 1) * k] @ stack)
        self_ranks = rank_rows(scores, train_ids)[:, j].astype(float)
        self_scores = scores[:, j]
        per_task.append(
            {
                "task_id": task.task_id,
                "self_ranks": [int(r) for r in self_ranks],
                "self_scores": [float(s) for s in self_scores],
                "rank_corr": pearson(values, self_ranks),
                "score_corr": pearson(values, self_scores),
            }
        )
    sweep = {"values": [float(v) for v in values], "per_task": per_task}
    for key in ("rank_corr", "score_corr"):
        mean, std, excluded = _corr_summary([row[key] for row in per_task])
        sweep.update({f"{key}_mean": mean, f"{key}_std": std, f"{key}_excluded": excluded})
    return sweep


def run_degradation(
    mp: MetaParams,
    inv: SpectralInverse,
    train_tasks: list[Task],
    alphas: list[float],
    ratios: list[float],
    seed: int,
) -> dict:
    """Sweep degradation strength and coverage of each self-test task.

    For every training task reused as a test task, the alpha grid runs at
    DEGRADE_RATIO_FIXED and the ratio grid at DEGRADE_ALPHA_FIXED, degrading
    both batches; per-task Pearson correlations between the grid and the
    self rank/score are aggregated.
    Tasks whose rank never changes are excluded from the rank statistics and
    counted.
    """
    records = influence_records(inv, mp, train_tasks)
    results = {
        "alpha": _degradation_sweep(
            mp, records, train_tasks, alphas, lambda a: DegradeParams(a, DEGRADE_RATIO_FIXED), seed
        ),
        "ratio": _degradation_sweep(
            mp, records, train_tasks, ratios, lambda r: DegradeParams(DEGRADE_ALPHA_FIXED, r), seed
        ),
    }
    config = {
        "alphas": [float(a) for a in alphas],
        "ratios": [float(r) for r in ratios],
        "alpha_fixed": DEGRADE_ALPHA_FIXED,
        "ratio_fixed": DEGRADE_RATIO_FIXED,
        "seed": int(seed),
        "parts": "both",
        "sign_convention": HELPFUL_POSITIVE,
        "keep": repr(inv.keep),
    }
    return _report("degradation", config, results)


def _group_columns(scores: np.ndarray, train_tasks: list[Task]) -> tuple[np.ndarray, list[str]]:
    """Each group's score column and provenance, groups in first-occurrence order.

    A group's column is the sum of its members' columns, added in training
    order: first-order group influence is additive.
    """
    columns: dict[str, np.ndarray] = {}
    provenance: dict[str, str] = {}
    for j, task in enumerate(train_tasks):
        gid = task.group_id
        if gid is None:
            raise ValueError(
                f"training task {task.task_id!r} has no group id while others have one; "
                "group every training task or none"
            )
        if gid not in columns:
            columns[gid], provenance[gid] = scores[:, j].copy(), task.provenance
        elif provenance[gid] != task.provenance:
            raise ValueError(f"group {gid!r} mixes provenances")
        else:
            columns[gid] += scores[:, j]
    return np.stack(list(columns.values()), axis=1), list(provenance.values())


def run_distribution_distinction(table: ScoreTable, train_tasks: list[Task]) -> dict:
    """Compare score distributions of regular vs noise training entities per test.

    ``table`` scores the test tasks against ``train_tasks``, in their order;
    its losses order the rows. When the training tasks carry group ids, an
    entity is a group, whose column is the sum of its members' columns;
    otherwise it is a task. A training set in which only some tasks carry a
    group id raises ValueError. A test is in proper order when the regular
    mean (or median) strictly exceeds the noise one; the counts feed an exact
    two-sided binomial test against chance. Rows are ordered by ascending
    test loss.
    """
    if table.train_ids != [t.task_id for t in train_tasks]:
        raise ValueError("the score table's training ids are not those of the training tasks, in order")
    if any(t.group_id is not None for t in train_tasks):
        scores, provenance = _group_columns(table.scores, train_tasks)
        level = "group"
    else:
        scores, provenance = table.scores, [t.provenance for t in train_tasks]
        level = "task"
    provenance_arr = np.asarray(provenance, dtype=object)
    regular_mask = provenance_arr == "regular"
    noise_mask = provenance_arr == "noise"
    if not noise_mask.any():
        raise ValueError("no noise-provenance training entities; comparison undefined")
    if not regular_mask.any():
        raise ValueError("no regular-provenance training entities; comparison undefined")

    regular, noise = scores[:, regular_mask], scores[:, noise_mask]
    median_regular, median_noise = np.median(regular, axis=1), np.median(noise, axis=1)
    rows = []
    for i, (test_id, loss) in enumerate(zip(table.test_ids, table.losses.tolist())):
        # a mean over axis 1 sums in another order than each row's own mean
        means = float(regular[i].mean()), float(noise[i].mean())
        medians = float(median_regular[i]), float(median_noise[i])
        rows.append(
            {
                "test_id": test_id,
                "test_loss": loss,
                "mean_regular": means[0],
                "mean_noise": means[1],
                "median_regular": medians[0],
                "median_noise": medians[1],
                "proper_order_mean": means[0] > means[1],
                "proper_order_median": medians[0] > medians[1],
            }
        )
    rows.sort(key=lambda r: (r["test_loss"], r["test_id"]))
    n_tests = len(rows)
    count_mean = sum(r["proper_order_mean"] for r in rows)
    count_median = sum(r["proper_order_median"] for r in rows)
    counts = {
        "tests": n_tests,
        "proper_order_mean": int(count_mean),
        "proper_order_median": int(count_median),
        "regular_entities": int(regular_mask.sum()),
        "noise_entities": int(noise_mask.sum()),
    }
    config = {
        "entity_level": level,
        "sign_convention": HELPFUL_POSITIVE,
        "keep": repr(table.keep),
    }
    results = {
        "per_test": rows,
        "counts": counts,
        "p_value_mean": binomial_two_sided_p(count_mean, n_tests),
        "p_value_median": binomial_two_sided_p(count_median, n_tests),
    }
    return _report("distribution_distinction", config, results)


def _rows_max_adjacent_fraction(cells: list[dict], n_keep: int) -> float:
    """Share of capacity rows whose best keep count sits within one grid step of the diagonal.

    ``cells`` run capacity-major and keep-minor, so row i of the reshaped
    ``mean_corr`` grid is the i-th capacity. A row with no defined cell has no best.
    """
    if not cells:
        return 0.0
    grid = np.array([np.nan if c["mean_corr"] is None else c["mean_corr"] for c in cells]).reshape(-1, n_keep)
    adjacent = sum(
        not np.all(np.isnan(row)) and abs(int(np.nanargmax(row)) - i) <= 1 for i, row in enumerate(grid)
    )
    return adjacent / len(grid)


def run_exact_vs_gn(
    mp: MetaParams,
    train_tasks: list[Task],
    keep_grid: list[int],
    capacity_grid: list[int],
) -> dict:
    """Correlate exact-curvature scores with factored approximation scores.

    The exact path prunes to each keep count; the approximate path rebuilds
    the factor buffer at each capacity. Training tasks double as test tasks.
    Each cell holds the mean and std over tests of the per-test Pearson
    correlation between the two score vectors. Neither grid may repeat a value.
    """
    if len(set(keep_grid)) < len(keep_grid) or len(set(capacity_grid)) < len(capacity_grid):
        raise ValueError("keep_grid and capacity_grid must not repeat a value")
    exact = hessian_mod.exact_meta_hessian(mp, train_tasks)
    exact_scores: dict[int, np.ndarray] = {}
    for k in sorted(set(keep_grid)):
        inv = hessian_mod.invert(exact, int(k))
        exact_scores[k] = score_pairs(mp, influence_records(inv, mp, train_tasks), train_tasks)
    gn_scores: dict[int, np.ndarray] = {}
    for cap in sorted(set(capacity_grid)):
        rep = hessian_mod.accumulate_gn(mp, train_tasks, capacity=int(cap))
        inv = hessian_mod.invert(rep, "all")
        gn_scores[cap] = score_pairs(mp, influence_records(inv, mp, train_tasks), train_tasks)

    cells = []
    for cap in capacity_grid:
        for k in keep_grid:
            corrs = [pearson(e, g) for e, g in zip(exact_scores[k], gn_scores[cap])]
            mean, std, undefined = _corr_summary(corrs)
            cells.append(
                {
                    "capacity": int(cap),
                    "keep": int(k),
                    "mean_corr": mean,
                    "std_corr": std,
                    "undefined": undefined,
                }
            )
    config = {
        "keep_grid": [int(k) for k in keep_grid],
        "capacity_grid": [int(c) for c in capacity_grid],
        "num_tasks": len(train_tasks),
        "sign_convention": HELPFUL_POSITIVE,
    }
    results = {"cells": cells, "rows_max_adjacent_fraction": _rows_max_adjacent_fraction(cells, len(keep_grid))}
    return _report("exact_vs_gn", config, results)
