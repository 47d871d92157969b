"""Experiment protocols over trained artifacts, each yielding a JSON-ready report.

Reports are pure functions of (trained parameters, inverse, tasksets, grids,
seeds): rerunning one reproduces byte-identical JSON. Every report echoes its
configuration, including the score sign convention (helpful-positive).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import hessian as hessian_mod
from .hessian import SpectralInverse
from .influence import (
    HELPFUL_POSITIVE,
    InfluenceRecord,
    influence_group,
    influence_records,
    rank_rows,
    score_pairs,
    score_table,
)
from .metalearn import MetaParams, Task, meta_loss
from .taskgen import DegradeParams, degrade_task

REPORT_SCHEMA_VERSION = 1

# The degradation sweeps hold the other knob at full strength and degrade
# both the support and the query batch.
DEGRADE_ALPHA_FIXED = 1.0
DEGRADE_RATIO_FIXED = 1.0
DEGRADE_PARTS = "both"


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

    Sums the probabilities of all outcomes whose point probability does not
    exceed that of the observed count, using log-factorials.
    """
    if not (0 <= successes <= trials):
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return 1.0
    log_half_n = trials * math.log(0.5)
    lgamma = math.lgamma

    def log_pmf(k: int) -> float:
        return lgamma(trials + 1) - lgamma(k + 1) - lgamma(trials - k + 1) + log_half_n

    obs = log_pmf(successes)
    total = 0.0
    for k in range(trials + 1):
        if log_pmf(k) <= obs + 1e-12:
            total += math.exp(log_pmf(k))
    return min(1.0, total)


def _mean_std(values: list[float]) -> tuple[float | None, float | None]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


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


@dataclass
class DegradationReport:
    alpha_sweep: dict
    ratio_sweep: dict
    config: dict

    def to_dict(self) -> dict:
        return _report(
            "degradation",
            self.config,
            {"alpha": self.alpha_sweep, "ratio": self.ratio_sweep},
        )


def _degradation_sweep(
    mp: MetaParams,
    records: list[InfluenceRecord],
    train_tasks: list[Task],
    values: list[float],
    make_params,
    seed: int,
) -> dict:
    train_ids = [r.task_id for r in records]
    per_task = []
    rank_corrs: list[float] = []
    score_corrs: list[float] = []
    rank_excluded = 0
    score_excluded = 0
    for task in train_tasks:
        tests = [degrade_task(task, make_params(v), seed, DEGRADE_PARTS) for v in values]
        scores = score_pairs(mp, records, tests)
        ranks = rank_rows(scores, train_ids)
        j = train_ids.index(task.task_id)
        self_ranks = ranks[:, j].astype(float)
        self_scores = scores[:, j]
        r_rank = pearson(values, self_ranks)
        r_score = pearson(values, self_scores)
        per_task.append(
            {
                "task_id": task.task_id,
                "self_ranks": [int(r) for r in self_ranks],
                "self_scores": [float(s) for s in self_scores],
                "rank_corr": r_rank,
                "score_corr": r_score,
            }
        )
        if r_rank is None:
            rank_excluded += 1
        else:
            rank_corrs.append(r_rank)
        if r_score is None:
            score_excluded += 1
        else:
            score_corrs.append(r_score)
    rank_mean, rank_std = _mean_std(rank_corrs)
    score_mean, score_std = _mean_std(score_corrs)
    return {
        "values": [float(v) for v in values],
        "per_task": per_task,
        "rank_corr_mean": rank_mean,
        "rank_corr_std": rank_std,
        "rank_corr_excluded": rank_excluded,
        "score_corr_mean": score_mean,
        "score_corr_std": score_std,
        "score_corr_excluded": score_excluded,
    }


def run_degradation(
    mp: MetaParams,
    inv: SpectralInverse,
    train_tasks: list[Task],
    alphas: list[float],
    ratios: list[float],
    seed: int,
) -> DegradationReport:
    """Sweep degradation strength and coverage of each self-test task.

    For every training task reused as a test task, the alpha grid runs at
    DEGRADE_RATIO_FIXED and the ratio grid at DEGRADE_ALPHA_FIXED, degrading
    DEGRADE_PARTS; per-task Pearson correlations between the grid and the
    self rank/score are aggregated.
    Tasks whose rank never changes are excluded from the rank statistics and
    counted.
    """
    records = influence_records(inv, mp, train_tasks)
    alpha_sweep = _degradation_sweep(
        mp, records, train_tasks, alphas, lambda a: DegradeParams(a, DEGRADE_RATIO_FIXED), seed
    )
    ratio_sweep = _degradation_sweep(
        mp, records, train_tasks, ratios, lambda r: DegradeParams(DEGRADE_ALPHA_FIXED, r), seed
    )
    config = {
        "alphas": [float(a) for a in alphas],
        "ratios": [float(r) for r in ratios],
        "alpha_fixed": DEGRADE_ALPHA_FIXED,
        "ratio_fixed": DEGRADE_RATIO_FIXED,
        "seed": int(seed),
        "parts": DEGRADE_PARTS,
        "sign_convention": HELPFUL_POSITIVE,
        "keep": repr(inv.keep),
    }
    return DegradationReport(alpha_sweep=alpha_sweep, ratio_sweep=ratio_sweep, config=config)


@dataclass
class ProperOrderReport:
    rows: list[dict]
    counts: dict
    p_value_mean: float
    p_value_median: float
    config: dict

    def to_dict(self) -> dict:
        return _report(
            "distribution_distinction",
            self.config,
            {
                "per_test": self.rows,
                "counts": self.counts,
                "p_value_mean": self.p_value_mean,
                "p_value_median": self.p_value_median,
            },
        )


def _group_records(records: list[InfluenceRecord], train_tasks: list[Task]) -> tuple[list[InfluenceRecord], dict]:
    """Collapse records into group records (first-occurrence order) with provenance."""
    provenance_by_group: dict[str, str] = {}
    order: list[str] = []
    for task in train_tasks:
        gid = task.group_id
        if gid is None:
            continue
        if gid not in provenance_by_group:
            provenance_by_group[gid] = task.provenance
            order.append(gid)
        elif provenance_by_group[gid] != task.provenance:
            raise ValueError(f"group {gid!r} mixes provenances")
    grouped = [influence_group(records, gid) for gid in order]
    return grouped, provenance_by_group


def run_distribution_distinction(
    mp: MetaParams,
    inv: SpectralInverse,
    train_tasks: list[Task],
    test_tasks: list[Task],
) -> ProperOrderReport:
    """Compare score distributions of regular vs noise training entities per test.

    When the training tasks carry group ids, scoring happens at the group
    level (summed member influence); otherwise per task. A test is in proper
    order when the regular mean (or median) strictly exceeds the noise one;
    the counts feed an exact two-sided binomial test against chance. Rows are
    ordered by ascending test loss.
    """
    records = influence_records(inv, mp, train_tasks)
    if any(t.group_id is not None for t in train_tasks):
        entities, provenance_of = _group_records(records, train_tasks)
        provenance = [provenance_of[r.task_id] for r in entities]
        level = "group"
    else:
        entities = records
        provenance = [t.provenance for t in train_tasks]
        level = "task"
    provenance_arr = np.asarray(provenance, dtype=object)
    regular_mask = provenance_arr == "regular"
    noise_mask = provenance_arr == "noise"
    if not noise_mask.any():
        raise ValueError("no noise-provenance training entities; comparison undefined")
    if not regular_mask.any():
        raise ValueError("no regular-provenance training entities; comparison undefined")

    scores = score_pairs(mp, entities, test_tasks)
    rows = []
    for i, task in enumerate(test_tasks):
        reg = scores[i, regular_mask]
        noi = scores[i, noise_mask]
        means = float(reg.mean()), float(noi.mean())
        medians = float(np.median(reg)), float(np.median(noi))
        rows.append(
            {
                "test_id": task.task_id,
                "test_loss": float(meta_loss(mp, task)),
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
        "keep": repr(inv.keep),
    }
    return ProperOrderReport(
        rows=rows,
        counts=counts,
        p_value_mean=binomial_two_sided_p(count_mean, n_tests),
        p_value_median=binomial_two_sided_p(count_median, n_tests),
        config=config,
    )


@dataclass
class ExactVsGnReport:
    keep_grid: list[int]
    capacity_grid: list[int]
    cells: list[dict]
    config: dict = field(default_factory=dict)

    def mean_grid(self) -> np.ndarray:
        """Rows indexed by capacity, columns by keep count."""
        grid = np.full((len(self.capacity_grid), len(self.keep_grid)), np.nan)
        for cell in self.cells:
            i = self.capacity_grid.index(cell["capacity"])
            j = self.keep_grid.index(cell["keep"])
            grid[i, j] = np.nan if cell["mean_corr"] is None else cell["mean_corr"]
        return grid

    @property
    def rows_max_adjacent_fraction(self) -> float:
        """Share of capacity rows whose best keep count sits within one grid step of the diagonal."""
        adjacent = 0
        for i, row in enumerate(self.mean_grid()):
            if not np.all(np.isnan(row)) and abs(int(np.nanargmax(row)) - i) <= 1:
                adjacent += 1
        return adjacent / len(self.capacity_grid) if self.capacity_grid else 0.0

    def to_dict(self) -> dict:
        return _report(
            "exact_vs_gn",
            {
                "keep_grid": self.keep_grid,
                "capacity_grid": self.capacity_grid,
                **self.config,
            },
            {
                "cells": self.cells,
                "rows_max_adjacent_fraction": self.rows_max_adjacent_fraction,
            },
        )


def run_exact_vs_gn(
    mp: MetaParams,
    train_tasks: list[Task],
    keep_grid: list[int],
    capacity_grid: list[int],
) -> ExactVsGnReport:
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

    n_tests = len(train_tasks)
    cells = []
    for cap in capacity_grid:
        for k in keep_grid:
            corrs = []
            undefined = 0
            for t in range(n_tests):
                r = pearson(exact_scores[k][t], gn_scores[cap][t])
                if r is None:
                    undefined += 1
                else:
                    corrs.append(r)
            mean, std = _mean_std(corrs)
            cells.append(
                {
                    "capacity": int(cap),
                    "keep": int(k),
                    "mean_corr": mean,
                    "std_corr": std,
                    "undefined": undefined,
                }
            )
    return ExactVsGnReport(
        keep_grid=[int(k) for k in keep_grid],
        capacity_grid=[int(c) for c in capacity_grid],
        cells=cells,
        config={"num_tasks": len(train_tasks), "sign_convention": HELPFUL_POSITIVE},
    )
