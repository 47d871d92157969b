import functools
import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import gn_dense, group_record, grouped_tasks, make_params, meta_loss
from metainfluence import experiments as exp
from metainfluence import hessian, metalearn, taskgen
from metainfluence.hessian import SpectralInverse
from metainfluence.influence import influence_records, score_pairs, score_table
from metainfluence.metalearn import STACK_CHUNK


def identity_inverse(q):
    return SpectralInverse(vectors=np.eye(q), values=np.ones(q), discarded_negative=0, keep=q)


@functools.cache
def binomial_coefficients(trials):
    return [math.comb(trials, k) for k in range(trials + 1)]


def brute_force_binomial_p(successes, trials):
    """Exact-rational tail sum: include every k with pmf(k) <= pmf(successes)."""
    combs = binomial_coefficients(trials)
    return float(Fraction(sum(c for c in combs if c <= combs[successes]), 2**trials))


def test_binomial_balanced_is_one():
    assert exp.binomial_two_sided_p(64, 128) == pytest.approx(1.0, abs=1e-12)


def test_binomial_extreme_closed_form():
    assert exp.binomial_two_sided_p(128, 128) == pytest.approx(2.0 * 0.5**128, rel=1e-10)
    assert exp.binomial_two_sided_p(0, 128) == pytest.approx(2.0 * 0.5**128, rel=1e-10)


def test_binomial_cross_checked_against_brute_force():
    assert exp.binomial_two_sided_p(90, 128) == pytest.approx(
        brute_force_binomial_p(90, 128), abs=1e-10
    )


@pytest.mark.parametrize("trials", [1, 2, 7, 50, 128, 200, 1000])
def test_binomial_matches_brute_force_across_counts(trials):
    # both sides round the same rational once, so they agree exactly
    got = [exp.binomial_two_sided_p(k, trials) for k in range(trials + 1)]
    assert got == [brute_force_binomial_p(k, trials) for k in range(trials + 1)]


def test_binomial_edge_cases():
    assert exp.binomial_two_sided_p(0, 0) == 1.0
    with pytest.raises(ValueError):
        exp.binomial_two_sided_p(5, 3)


def test_pearson_basic():
    assert exp.pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert exp.pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0)
    assert exp.pearson([1, 1, 1], [1, 2, 3]) is None
    assert exp.pearson([1, 2, 3], [5, 5, 5]) is None


def test_pearson_matches_reference(rng):
    x = rng.normal(size=40)
    y = 0.3 * x + rng.normal(size=40)
    assert exp.pearson(x, y) == pytest.approx(float(np.corrcoef(x, y)[0, 1]), rel=1e-12)
    assert -1.0 <= exp.pearson(x, y) <= 1.0


def sample_tasks(seed=7, count=4, d=6, ways=3, ks=4, kq=5, noise=0.6, kind="clustered"):
    spec = taskgen.TaskDistributionSpec(kind, d, ways, ks, kq, within_class_noise=noise, seed=seed)
    return taskgen.sample_taskset(spec, count)


def test_self_rank_single_training_task(rng):
    mp = make_params(rng)
    report = exp.run_self_rank(mp, identity_inverse(mp.q), sample_tasks(count=1))
    assert report.rows[0]["self_rank"] == 0
    assert report.summary["fraction_rank0"] == 1.0


def test_self_rank_report_roundtrip_and_schema(rng):
    mp = make_params(rng)
    report = exp.run_self_rank(mp, identity_inverse(mp.q), sample_tasks(count=3))
    doc = report.to_dict()
    assert doc["kind"] == "self_rank"
    assert doc["schema_version"] == exp.REPORT_SCHEMA_VERSION
    assert len(doc["results"]["per_test"]) == 3
    # byte-identical rerun
    again = exp.run_self_rank(mp, identity_inverse(mp.q), sample_tasks(count=3))
    assert exp.canonical_json(doc) == exp.canonical_json(again.to_dict())


def test_degradation_all_zero_grid_excludes_everything(rng):
    mp = make_params(rng)
    tasks = sample_tasks(count=2)
    report = exp.run_degradation(
        mp, identity_inverse(mp.q), tasks, alphas=[0.0, 0.0, 0.0], ratios=[0.0, 0.0, 0.0], seed=3
    )
    alpha = report["results"]["alpha"]
    assert alpha["rank_corr_excluded"] == 2
    assert alpha["rank_corr_mean"] is None
    # scores are constant across an all-zero grid, so score correlations are
    # undefined as well
    assert alpha["score_corr_excluded"] == 2


def test_degradation_report_structure(rng):
    mp = make_params(rng)
    tasks = sample_tasks(count=3)
    doc = exp.run_degradation(
        mp, identity_inverse(mp.q), tasks, alphas=[0.0, 0.5, 1.0], ratios=[0.0, 1.0], seed=3
    )
    assert doc["kind"] == "degradation"
    assert doc["results"]["alpha"]["values"] == [0.0, 0.5, 1.0]
    assert len(doc["results"]["alpha"]["per_task"]) == 3
    assert doc["config_echo"]["sign_convention"] == exp.HELPFUL_POSITIVE


def test_degradation_reads_each_task_column_by_position(rng):
    # the last task reuses the first one's id; its self scores still come from its own column
    mp = make_params(rng, widths=(4, 6, 3))
    tasks = sample_tasks(d=4, count=5)
    tasks[4] = replace(tasks[4], task_id=tasks[0].task_id)
    inv, alphas, seed = identity_inverse(mp.q), [0.0, 0.5, 1.0], 3
    report = exp.run_degradation(mp, inv, tasks, alphas, [0.0, 1.0], seed)
    degraded = [
        taskgen.degrade_task(tasks[4], taskgen.DegradeParams(a, exp.DEGRADE_RATIO_FIXED), seed) for a in alphas
    ]
    want = score_pairs(mp, influence_records(inv, mp, tasks), degraded)[:, 4]
    assert report["results"]["alpha"]["per_task"][4]["self_scores"] == want.tolist()


def test_distribution_distinction_requires_noise(rng):
    mp = make_params(rng)
    regular = sample_tasks(count=3)
    with pytest.raises(ValueError):
        exp.run_distribution_distinction(score_table(mp, identity_inverse(mp.q), regular, regular[:2]), regular)


def test_distribution_distinction_counts_and_rows(rng):
    mp = make_params(rng)
    regular = sample_tasks(count=4)
    noise = sample_tasks(count=2, kind="noise", seed=9)
    mixed = taskgen.mix_tasksets(regular, noise, seed=1)
    tests = sample_tasks(count=3, seed=55)
    results = exp.run_distribution_distinction(score_table(mp, identity_inverse(mp.q), mixed, tests), mixed)["results"]
    assert results["counts"]["tests"] == 3
    assert results["counts"]["regular_entities"] == 4
    assert results["counts"]["noise_entities"] == 2
    assert 0.0 <= results["p_value_mean"] <= 1.0
    assert 0.0 <= results["p_value_median"] <= 1.0
    losses = [row["test_loss"] for row in results["per_test"]]
    assert losses == sorted(losses)


def test_distribution_distinction_group_level(rng):
    mp = make_params(rng)
    regular = sample_tasks(count=2)
    noise = sample_tasks(count=1, kind="noise", seed=9)
    grouped = []
    for t in taskgen.mix_tasksets(regular, noise, seed=4):
        grouped.extend(taskgen.augment_group(t, 2, 0.5, seed=8))
    tests = sample_tasks(count=2, seed=66)
    report = exp.run_distribution_distinction(score_table(mp, identity_inverse(mp.q), grouped, tests), grouped)
    assert report["config_echo"]["entity_level"] == "group"
    assert report["results"]["counts"]["regular_entities"] == 2
    assert report["results"]["counts"]["noise_entities"] == 1


@pytest.mark.parametrize("kind,inner_lr", [("maml", 0.05), ("protonet", 0.0)])
def test_group_column_is_the_sum_of_its_member_columns(kind, inner_lr, rng):
    mp = make_params(rng, kind=kind, inner_lr=inner_lr)
    inv = hessian.invert(gn_dense(mp, sample_tasks(count=4)), "all")
    regular, noise = sample_tasks(count=3), sample_tasks(count=2, kind="noise", seed=9)
    train = [v for t in taskgen.mix_tasksets(regular, noise, seed=4) for v in taskgen.augment_group(t, 3, 0.5, seed=8)]
    tests = sample_tasks(count=6, seed=66)
    table = score_table(mp, inv, train, tests)
    columns, provenance = exp._group_columns(table.scores, train)
    gids = list(dict.fromkeys(t.group_id for t in train))
    assert provenance == [next(t.provenance for t in train if t.group_id == gid) for gid in gids]
    for column, gid in zip(columns.T, gids, strict=True):
        members = [j for j, t in enumerate(train) if t.group_id == gid]
        want = table.scores[:, members[0]].copy()
        for j in members[1:]:
            want = want + table.scores[:, j]
        assert np.array_equal(column, want)
    # first-order group influence is additive: the scores of the summed group records agree to rounding
    records = influence_records(inv, mp, train)
    oracle = score_pairs(mp, [group_record(records, gid) for gid in gids], tests)
    np.testing.assert_allclose(columns, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())
    counts = exp.run_distribution_distinction(table, train)["results"]["counts"]
    assert (counts["regular_entities"], counts["noise_entities"]) == (3, 2)


def test_group_columns_singleton_and_partition(rng):
    scores = rng.normal(size=(4, 6))
    columns, _ = exp._group_columns(scores, grouped_tasks(["g0", "g1", "g0", "g1", "g0", "lone"]))
    np.testing.assert_array_equal(columns[:, 2], scores[:, 5])
    np.testing.assert_allclose(columns.sum(axis=1), scores.sum(axis=1), rtol=0, atol=1e-12)


def test_group_columns_bitwise_ordered_sum(rng):
    scores = rng.normal(size=(3, 5))
    columns, _ = exp._group_columns(scores, grouped_tasks(["g"] * 5))
    expected = scores[:, 0].copy()
    for j in range(1, 5):
        expected = expected + scores[:, j]
    assert np.array_equal(columns[:, 0], expected)


def test_distribution_distinction_refuses_a_table_of_other_training_tasks(rng):
    mp = make_params(rng)
    mixed = sample_tasks(count=3) + sample_tasks(count=2, kind="noise", seed=9)
    table = score_table(mp, identity_inverse(mp.q), mixed, sample_tasks(count=2, seed=66))
    with pytest.raises(ValueError, match="training ids"):
        exp.run_distribution_distinction(table, mixed[::-1])


def test_distribution_distinction_refuses_partly_grouped_training_set(rng):
    mp = make_params(rng)
    regular = sample_tasks(count=3)
    grouped = taskgen.augment_group(regular[0], 2, 0.5, seed=8) + regular[1:]
    noise = [replace(t, group_id=f"g-{t.task_id}") for t in sample_tasks(count=2, kind="noise", seed=9)]
    tests = sample_tasks(count=2, seed=66)
    train = grouped + noise
    with pytest.raises(ValueError, match=f"{regular[1].task_id!r} has no group id"):
        exp.run_distribution_distinction(score_table(mp, identity_inverse(mp.q), train, tests), train)
    # ungrouped noise tasks next to grouped regular ones name the first of them
    ungrouped = sample_tasks(count=2, kind="noise", seed=9)
    train = grouped[:2] + ungrouped
    with pytest.raises(ValueError, match=f"{ungrouped[0].task_id!r} has no group id"):
        exp.run_distribution_distinction(score_table(mp, identity_inverse(mp.q), train, tests), train)


def two_shape_tasks(prefix, count, seed, kind="clustered"):
    """``count`` tasks alternating between two (support, query) shapes, with unique ids."""
    a = sample_tasks(count=(count + 1) // 2, seed=seed, kind=kind, ks=4, kq=5)
    b = sample_tasks(count=count // 2, seed=seed + 1, kind=kind, ks=3, kq=6)
    mixed = [t for pair in zip(a, b) for t in pair] + a[len(b) :]
    return [replace(t, task_id=f"{prefix}-{i:03d}") for i, t in enumerate(mixed)]


@pytest.mark.parametrize("kind,inner_lr", [("maml", 0.05), ("protonet", 0.0)])
def test_stacked_experiment_paths_match_per_task_oracles(kind, inner_lr, rng):
    mp = make_params(rng, kind=kind, inner_lr=inner_lr)
    inv = identity_inverse(mp.q)
    train = two_shape_tasks("reg", 24, seed=3) + two_shape_tasks("noi", 17, seed=9, kind="noise")
    # 2 * STACK_CHUNK + 1 tests: two full chunks of two shape groups each, then a 1-task chunk
    tests = two_shape_tasks("test", 2 * STACK_CHUNK + 1, seed=21)

    report = exp.run_distribution_distinction(score_table(mp, inv, train, tests), train)
    records = influence_records(inv, mp, train)
    scores = score_pairs(mp, records, tests)
    regular = np.array([t.provenance == "regular" for t in train])
    want = []
    for i, task in enumerate(tests):
        reg, noi = scores[i, regular], scores[i, ~regular]
        means = float(reg.mean()), float(noi.mean())
        medians = float(np.median(reg)), float(np.median(noi))
        want.append(
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
    want.sort(key=lambda r: (r["test_loss"], r["test_id"]))
    assert report["results"]["per_test"] == want

    # a grid of 5 does not divide STACK_CHUNK, so some tasks' grids span two stacked calls
    alphas, ratios, seed = [0.0, 0.2, 0.5, 0.8, 1.0], [0.0, 0.25, 0.5, 0.75, 1.0], 5
    report = exp.run_degradation(mp, inv, train, alphas, ratios, seed)
    for sweep, grid, make in (
        (report["results"]["alpha"], alphas, lambda a: taskgen.DegradeParams(a, exp.DEGRADE_RATIO_FIXED)),
        (report["results"]["ratio"], ratios, lambda r: taskgen.DegradeParams(exp.DEGRADE_ALPHA_FIXED, r)),
    ):
        assert [row["task_id"] for row in sweep["per_task"]] == [t.task_id for t in train]
        for j, (task, row) in enumerate(zip(train, sweep["per_task"])):
            degraded = [taskgen.degrade_task(task, make(v), seed) for v in grid]
            assert row["self_scores"] == score_pairs(mp, records, degraded)[:, j].tolist()


def test_one_stack_chunk_setting_reaches_every_stacked_path(rng, monkeypatch, model_calls):
    hvp_calls = model_calls("hvp")
    mp = make_params(rng, inner_lr=0.05)
    inv = identity_inverse(mp.q)
    train = two_shape_tasks("reg", 12, seed=3) + two_shape_tasks("noi", 7, seed=9, kind="noise")
    # 2 * STACK_CHUNK + 1 tests in two shape groups, so chunks of 5 do not line up with chunks of 32
    tests = two_shape_tasks("test", 2 * STACK_CHUNK + 1, seed=21)
    grid, seed = [0.0, 0.5, 1.0], 5
    degraded = [taskgen.degrade_task(t, taskgen.DegradeParams(v, v), seed) for t in train for v in grid]

    def calls(tasks):
        """Kernel calls of at most 5 tasks over ``tasks``, one shape group at a time."""
        sizes = Counter((t.support.x.shape, t.query.x.shape, t.n_ways) for t in tasks)
        return sum(-(-n // 5) for n in sizes.values())

    def counted(path):
        before = len(hvp_calls)
        return path(), len(hvp_calls) - before

    def run_paths():
        """Each stacked path's output and the kernel calls it made."""
        records = influence_records(inv, mp, train)
        return [
            counted(lambda: metalearn.meta_grads(mp, tests)),
            counted(lambda: score_pairs(mp, records, tests)),
            counted(
                lambda: exp.run_distribution_distinction(score_table(mp, inv, train, tests), train)["results"]["per_test"]
            ),
            counted(lambda: exp.run_degradation(mp, inv, train, grid, grid, seed)["results"]),
        ]

    want = [out for out, _ in run_paths()]
    monkeypatch.setattr(metalearn, "STACK_CHUNK", 5)
    (grads, n_grads), (scores, n_scores), (rows, n_rows), (results, n_degradation) = run_paths()
    assert n_grads == n_scores == calls(tests)
    assert n_rows == calls(train) + calls(tests)
    assert n_degradation == calls(train) + 2 * calls(degraded)

    np.testing.assert_allclose(grads, want[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(scores, want[1], rtol=1e-12, atol=0)
    fields = ("test_loss", "mean_regular", "mean_noise", "median_regular", "median_noise")
    assert [r["test_id"] for r in rows] == [r["test_id"] for r in want[2]]
    np.testing.assert_allclose([[r[f] for f in fields] for r in rows], [[r[f] for f in fields] for r in want[2]], rtol=1e-12)
    for key in ("alpha", "ratio"):
        for row, ref in zip(results[key]["per_task"], want[3][key]["per_task"], strict=True):
            np.testing.assert_allclose(row["self_scores"], ref["self_scores"], rtol=1e-12)


def test_all_equal_scores_is_not_proper_order(rng):
    mp = make_params(rng)
    regular = sample_tasks(count=2)
    noise = sample_tasks(count=2, kind="noise", seed=9)
    mixed = regular + noise
    tests = sample_tasks(count=2, seed=77)
    zero_inv = SpectralInverse(
        vectors=np.zeros((mp.q, 0)), values=np.zeros(0), discarded_negative=0, keep=0
    )
    counts = exp.run_distribution_distinction(score_table(mp, zero_inv, mixed, tests), mixed)["results"]["counts"]
    assert counts["proper_order_mean"] == 0
    assert counts["proper_order_median"] == 0


def test_exact_vs_gn_self_correlation_is_one(rng):
    # compare a method against itself through the report machinery: any keep
    # grid cell where the factored buffer reproduces the dense curvature must
    # correlate perfectly when the exact method is the same matrix
    mp = make_params(rng, widths=(4, 4, 3), inner_lr=0.05)
    tasks = sample_tasks(d=4, count=3)
    gn_rep = gn_dense(mp, tasks)
    inv = hessian.invert(gn_rep, "positive")
    from metainfluence.influence import influence_meta, score_pairs

    scores = score_pairs(mp, [influence_meta(inv, mp, t) for t in tasks], tasks)
    for row in scores:
        assert exp.pearson(row, row) == pytest.approx(1.0)


def test_exact_vs_gn_report_grid(rng):
    mp = make_params(rng, widths=(4, 4, 3), inner_lr=0.05)
    tasks = sample_tasks(d=4, count=4)
    doc = exp.run_exact_vs_gn(mp, tasks, keep_grid=[4, 8], capacity_grid=[4, 8])
    cells = doc["results"]["cells"]
    # capacity-major, keep-minor
    assert [(c["capacity"], c["keep"]) for c in cells] == [(4, 4), (4, 8), (8, 4), (8, 8)]
    assert doc["kind"] == "exact_vs_gn"
    assert doc["config_echo"]["keep_grid"] == [4, 8] and doc["config_echo"]["capacity_grid"] == [4, 8]
    fraction = doc["results"]["rows_max_adjacent_fraction"]
    assert fraction == exp._rows_max_adjacent_fraction(cells, 2)
    assert 0.0 <= fraction <= 1.0
    with pytest.raises(ValueError, match="must not repeat"):
        exp.run_exact_vs_gn(mp, tasks, keep_grid=[4, 4], capacity_grid=[4, 8])


def test_reports_are_json_serializable(rng):
    mp = make_params(rng)
    report = exp.run_self_rank(mp, identity_inverse(mp.q), sample_tasks(count=2))
    text = exp.canonical_json(report.to_dict())
    parsed = json.loads(text)
    assert parsed["kind"] == "self_rank"


def grid_cells(rows):
    """Cells of a mean_corr grid, capacity-major and keep-minor, as run_exact_vs_gn builds them."""
    return [{"capacity": i, "keep": j, "mean_corr": r} for i, row in enumerate(rows) for j, r in enumerate(row)]


def test_rows_max_adjacent_fraction_counts_rows_peaking_near_the_diagonal():
    cells = grid_cells(
        [
            [0.9, 0.5, 0.1],  # peaks on the diagonal
            [None, None, None],  # no defined cell, so no peak
            [0.8, 0.2, 0.3],  # peaks two steps off
        ]
    )
    assert exp._rows_max_adjacent_fraction(cells, 3) == 1 / 3
    # more keep counts than capacities: rows are 4 long, peaks at 1 (adjacent) and 3 (two off)
    cells = grid_cells([[0.1, 0.9, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4]])
    assert exp._rows_max_adjacent_fraction(cells, 4) == 1 / 2
    assert exp._rows_max_adjacent_fraction([], 0) == 0.0
