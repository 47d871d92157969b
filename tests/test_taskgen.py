import json
import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import accuracy
from metainfluence import metalearn, taskgen
from metainfluence.metalearn import Learner, MetaParams, Task
from metainfluence.model import Batch, MlpSpec
from metainfluence.taskgen import (
    DegradeParams,
    TaskDistributionSpec,
    augment_group,
    degrade_task,
    load_taskset,
    mix_tasksets,
    sample_taskset,
    save_taskset,
)


def clustered_spec(seed=0, d=6, ways=3, ks=4, kq=5, noise=0.4):
    return TaskDistributionSpec("clustered", d, ways, ks, kq, within_class_noise=noise, seed=seed)


# the section digests a taskset records, as the CLI writes them
INPUTS = {"tasksets.train": "0" * 64, "tasksets.mix_seed": "1" * 64}


def test_spec_validation():
    with pytest.raises(ValueError):
        TaskDistributionSpec("weird", 4, 3, 2, 2)
    with pytest.raises(ValueError):
        TaskDistributionSpec("noise", 4, 1, 2, 2)
    with pytest.raises(ValueError):
        DegradeParams(1.5, 0.0)


def test_sample_count_zero_is_empty():
    assert sample_taskset(clustered_spec(), 0) == []


def test_sampling_is_deterministic_and_balanced():
    spec = clustered_spec(seed=42)
    a = sample_taskset(spec, 5)
    b = sample_taskset(spec, 5)
    for ta, tb in zip(a, b):
        assert ta.task_id == tb.task_id
        np.testing.assert_array_equal(ta.support.x, tb.support.x)
        np.testing.assert_array_equal(ta.query.x, tb.query.x)
    t = a[0]
    counts = np.bincount(t.support.y, minlength=3)
    np.testing.assert_array_equal(counts, [4, 4, 4])
    counts_q = np.bincount(t.query.y, minlength=3)
    np.testing.assert_array_equal(counts_q, [5, 5, 5])


def test_noise_tasks_have_noise_provenance():
    spec = TaskDistributionSpec("noise", 6, 3, 4, 5, seed=1)
    tasks = sample_taskset(spec, 3)
    assert all(t.provenance == "noise" for t in tasks)
    assert all(t.task_id.startswith("noise-") for t in tasks)


def test_degrade_identity_and_total():
    task = sample_taskset(clustered_spec(seed=3), 1)[0]
    same = degrade_task(task, DegradeParams(0.0, 1.0), seed=9)
    np.testing.assert_array_equal(same.support.x, task.support.x)
    np.testing.assert_array_equal(same.query.x, task.query.x)
    same2 = degrade_task(task, DegradeParams(1.0, 0.0), seed=9)
    np.testing.assert_array_equal(same2.support.x, task.support.x)
    dark = degrade_task(task, DegradeParams(1.0, 1.0), seed=9)
    np.testing.assert_array_equal(dark.support.x, 0.0)
    np.testing.assert_array_equal(dark.query.x, 0.0)
    assert dark.task_id == task.task_id


def test_degrade_subsets_are_nested_in_ratio():
    task = sample_taskset(clustered_spec(seed=4), 1)[0]
    changed_prev: set[int] = set()
    for ratio in (0.25, 0.5, 0.75, 1.0):
        out = degrade_task(task, DegradeParams(0.5, ratio), seed=11)
        changed = set(np.flatnonzero(np.any(out.query.x != task.query.x, axis=1)))
        assert changed_prev <= changed
        changed_prev = changed


def test_augment_group_identity_cases():
    task = sample_taskset(clustered_spec(seed=6), 1)[0]
    only = augment_group(task, count=1, transform_scale=0.0, seed=3)
    assert len(only) == 1
    np.testing.assert_array_equal(only[0].support.x, task.support.x)
    assert only[0].group_id == task.task_id

    zero_scale = augment_group(task, count=3, transform_scale=0.0, seed=3)
    for variant in zero_scale:
        np.testing.assert_allclose(variant.support.x, task.support.x, atol=1e-12)


def test_augment_group_rotations_preserve_geometry():
    task = sample_taskset(clustered_spec(seed=7), 1)[0]
    group = augment_group(task, count=4, transform_scale=1.0, seed=13)
    assert len(group) == 4
    assert len({t.task_id for t in group}) == 4
    for variant in group:
        assert variant.group_id == task.task_id
        np.testing.assert_array_equal(variant.support.y, task.support.y)
        # orthogonal transform preserves pairwise distances
        d0 = np.linalg.norm(task.support.x[:1] - task.support.x[1:], axis=1)
        d1 = np.linalg.norm(variant.support.x[:1] - variant.support.x[1:], axis=1)
        np.testing.assert_allclose(d1, d0, atol=1e-9)


def test_mix_at_reference_scale():
    # 896 regular + 128 noise = 1024 mixed tasks
    regular = sample_taskset(clustered_spec(seed=21, d=4, ways=2, ks=1, kq=1), 896)
    noise = sample_taskset(TaskDistributionSpec("noise", 4, 2, 1, 1, seed=22), 128)
    mixed = mix_tasksets(regular, noise, seed=23)
    assert len(mixed) == 1024
    assert sum(t.provenance == "noise" for t in mixed) == 128


def test_mix_tasksets_preserves_partition():
    regular = sample_taskset(clustered_spec(seed=8), 5)
    noise = sample_taskset(TaskDistributionSpec("noise", 6, 3, 4, 5, seed=9), 3)
    mixed = mix_tasksets(regular, noise, seed=17)
    assert len(mixed) == 8
    assert sum(t.provenance == "noise" for t in mixed) == 3
    assert {t.task_id for t in mixed} == {t.task_id for t in regular + noise}
    assert mix_tasksets(regular, [], seed=17) != regular or True  # shuffle only
    again = mix_tasksets(regular, noise, seed=17)
    assert [t.task_id for t in again] == [t.task_id for t in mixed]


def special_float_task():
    x = np.array([[-0.0, 5e-324], [1e308, 0.1]])
    return Task("special", Batch(x, np.array([0, 1])), Batch(-x, np.array([1, 0])))


def assert_bitwise_equal_tasks(got, want):
    fields = [(t.task_id, t.group_id, t.provenance) for t in want]
    assert [(t.task_id, t.group_id, t.provenance) for t in got] == fields
    for g, w in zip(got, want):
        for part in ("support", "query"):
            gb, wb = getattr(g, part), getattr(w, part)
            assert gb.x.shape == wb.x.shape and gb.x.tobytes() == wb.x.tobytes()
            np.testing.assert_array_equal(gb.y, wb.y)


def test_taskset_roundtrip(tmp_path):
    spec = clustered_spec(seed=10)
    tasks = sample_taskset(spec, 3)
    tasks = augment_group(tasks[0], 2, 0.5, seed=1) + tasks[1:] + [special_float_task()]
    path = tmp_path / "tasks.json"
    save_taskset(path, tasks, INPUTS)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    loaded, loaded_inputs = load_taskset(path)
    assert loaded_inputs == INPUTS
    assert_bitwise_equal_tasks(loaded, tasks)
    # determinism: identical bytes on re-save
    save_taskset(tmp_path / "tasks2.json", loaded, loaded_inputs)
    assert (tmp_path / "tasks.json").read_bytes() == (tmp_path / "tasks2.json").read_bytes()


def test_taskset_in_indented_layout_loads(tmp_path):
    spec = clustered_spec(seed=14)
    tasks = sample_taskset(spec, 2) + [special_float_task()]
    save_taskset(tmp_path / "compact.json", tasks, INPUTS)
    doc = json.loads((tmp_path / "compact.json").read_text())
    with open(tmp_path / "indented.json", "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    loaded, loaded_inputs = load_taskset(tmp_path / "indented.json")
    assert loaded_inputs == INPUTS
    assert_bitwise_equal_tasks(loaded, tasks)


def layout_text(tasks, inputs, layout):
    """The taskset document in one of three layouts: as saved, indented, or reordered keys."""
    text = whole_document(tasks, inputs)
    doc = json.loads(text)
    if layout == "indented":
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if layout == "version-first":
        return json.dumps({"version": doc["version"], "inputs": doc["inputs"], "tasks": doc["tasks"]})
    return text


@pytest.mark.parametrize("window", [1, 7, 64])
@pytest.mark.parametrize("layout", ["compact", "indented", "version-first"])
def test_small_window_round_trips_bitwise(tmp_path, monkeypatch, window, layout):
    monkeypatch.setattr(taskgen, "_WINDOW_CHARS", window)
    spec = clustered_spec(seed=24)
    tasks = augment_group(sample_taskset(spec, 2)[0], 2, 0.5, seed=3) + [special_float_task()]
    path = tmp_path / "tasks.json"
    path.write_text(layout_text(tasks, INPUTS, layout))
    loaded, loaded_inputs = load_taskset(path)
    assert loaded_inputs == INPUTS
    assert_bitwise_equal_tasks(loaded, tasks)


def test_every_window_edge_position_loads(tmp_path, monkeypatch):
    # the first refill ends at char `window`, so the sweep puts an edge at
    # every offset of the file, in and at the end of every number
    x = np.array([[0.30000000000000004, -12.5], [1e-7, 123456789.0]])
    tasks = [Task("t", Batch(x, np.array([0, 1])), Batch(-x, np.array([1, 0])))]
    path = tmp_path / "tasks.json"
    save_taskset(path, tasks)
    for window in range(1, path.stat().st_size + 2):
        monkeypatch.setattr(taskgen, "_WINDOW_CHARS", window)
        assert_bitwise_equal_tasks(load_taskset(path)[0], tasks)


@pytest.mark.parametrize("window", [1, 2, 3, 64])
def test_number_that_ends_at_the_window_edge_is_read_whole(tmp_path, monkeypatch, window):
    monkeypatch.setattr(taskgen, "_WINDOW_CHARS", window)
    path = tmp_path / "tasks.json"
    path.write_text('{"tasks":[],"version":10}')
    with pytest.raises(ValueError, match="unsupported taskset version 10$"):
        load_taskset(path)
    path.write_text('{"tasks":[],"version":1')
    with pytest.raises(ValueError, match="not valid JSON at char 23: Expecting ',' delimiter"):
        load_taskset(path)


@pytest.mark.parametrize("window", [3, 1 << 16])
def test_empty_task_list_loads(tmp_path, monkeypatch, window):
    monkeypatch.setattr(taskgen, "_WINDOW_CHARS", window)
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": [], "inputs": INPUTS}, indent=2))
    assert load_taskset(path) == ([], INPUTS)


def test_file_that_records_a_spec_and_no_inputs_loads_with_none(tmp_path):
    # files written before inputs recorded their TaskDistributionSpec; that key is ignored
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps({"version": 1, "tasks": [], "spec": asdict(clustered_spec(seed=25))}))
    assert load_taskset(path) == ([], None)


@pytest.mark.parametrize("window", [3, 1 << 16])
@pytest.mark.parametrize("trailer", ["x", "{}", " []\n", "\n1"])
def test_trailing_data_is_refused(tmp_path, monkeypatch, window, trailer):
    monkeypatch.setattr(taskgen, "_WINDOW_CHARS", window)
    path = tmp_path / "tasks.json"
    save_taskset(path, sample_taskset(clustered_spec(seed=26), 2))
    text = path.read_text()
    path.write_text(text + trailer)
    offset = len(text) + len(trailer) - len(trailer.lstrip())
    with pytest.raises(ValueError, match=f"not valid JSON at char {offset}: Extra data"):
        load_taskset(path)


@pytest.mark.parametrize("text", ["[]", "1", '"tasks"', "", "  \n", "null", "garbage"])
def test_document_that_is_not_an_object_is_not_a_taskset(tmp_path, monkeypatch, text):
    monkeypatch.setattr(taskgen, "_WINDOW_CHARS", 2)
    path = tmp_path / "tasks.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="is not a taskset: the document is not a JSON object"):
        load_taskset(path)


def test_truncated_file_names_the_json_error_and_its_file_offset(tmp_path, monkeypatch):
    monkeypatch.setattr(taskgen, "_WINDOW_CHARS", 5)
    spec = clustered_spec(seed=27, d=2, ways=2, ks=1, kq=1)
    save_taskset(tmp_path / "whole.json", sample_taskset(spec, 2) + [special_float_task()], INPUTS)
    text = (tmp_path / "whole.json").read_text()
    path = tmp_path / "cut.json"
    for cut in range(1, len(text) - 1):
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads(text[:cut])
        path.write_text(text[:cut])
        with pytest.raises(ValueError) as got:
            load_taskset(path)
        assert str(got.value) == f"{path} is not valid JSON at char {want.value.pos}: {want.value.msg}"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_nonfinite_literal_reaches_the_finiteness_check(tmp_path, monkeypatch, literal):
    monkeypatch.setattr(taskgen, "_WINDOW_CHARS", 4)
    path = tmp_path / "tasks.json"
    save_taskset(path, sample_taskset(clustered_spec(seed=28), 2))
    doc = json.loads(path.read_text())
    doc["tasks"][1]["support"]["x"][0][0] = 0.125
    path.write_text(json.dumps(doc).replace("0.125", literal))
    with pytest.raises(ValueError, match="'clustered-0001' has a non-finite feature in its support batch"):
        load_taskset(path)


@pytest.mark.parametrize("part", ["support", "query"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_refuses_nonfinite_feature(tmp_path, part, bad):
    task = sample_taskset(clustered_spec(seed=15), 1)[0]
    x = getattr(task, part).x.copy()
    x[1, 0] = bad
    task = replace(task, **{part: Batch(x, getattr(task, part).y)})
    path = tmp_path / "tasks.json"
    needle = f"task 'clustered-0000' has a non-finite feature in its {part} batch"
    with pytest.raises(ValueError, match=needle):
        save_taskset(path, [task])
    assert not path.exists()


@pytest.mark.parametrize(
    "bad_id, why",
    [
        ("clustered-0000", "repeats"),
        ("noise,0004", "holds a comma or a line break"),
        ("a\nb", "holds a comma or a line break"),
        ("a\rb", "holds a comma or a line break"),
    ],
    ids=["repeated", "comma", "newline", "carriage-return"],
)
def test_bad_task_id_is_refused_on_save_and_load(tmp_path, bad_id, why):
    tasks = sample_taskset(clustered_spec(seed=21), 3)
    path = tmp_path / "tasks.json"
    needle = re.escape(f"{path}: task id {bad_id!r} {why}")
    with pytest.raises(ValueError, match=needle):
        save_taskset(path, tasks[:2] + [replace(tasks[2], task_id=bad_id)])
    assert not path.exists()
    save_taskset(path, tasks)
    doc = json.loads(path.read_text())
    doc["tasks"][2]["id"] = bad_id
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=needle):
        load_taskset(path)


def whole_document(tasks, inputs):
    """The compact sorted-key encoding of the whole taskset document."""
    doc = {
        "version": taskgen.TASKSET_FORMAT_VERSION,
        "inputs": inputs,
        "tasks": [
            {
                "id": t.task_id,
                "group_id": t.group_id,
                "provenance": t.provenance,
                "support": {"x": t.support.x.tolist(), "y": t.support.y.tolist()},
                "query": {"x": t.query.x.tolist(), "y": t.query.y.tolist()},
            }
            for t in tasks
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


@pytest.mark.parametrize("case", ["inputs", "no-inputs", "groups", "empty"])
def test_saved_file_is_the_whole_document_encoding(tmp_path, case):
    inputs = INPUTS
    tasks = sample_taskset(clustered_spec(seed=16), 3) + [special_float_task()]
    if case == "no-inputs":
        inputs = None
    elif case == "groups":
        tasks = augment_group(tasks[0], 3, 0.5, seed=2) + tasks[1:]
    elif case == "empty":
        tasks = []
    path = tmp_path / "tasks.json"
    save_taskset(path, tasks, inputs)
    assert path.read_text() == whole_document(tasks, inputs)
    loaded, loaded_inputs = load_taskset(path)
    assert loaded_inputs == inputs
    assert_bitwise_equal_tasks(loaded, tasks)


def test_save_and_load_hold_about_one_task_at_a_time(tmp_path):
    # 16-d 5-way 5+5 tasks: 300 of them are about 4.6 MiB of JSON, 1200 about 18 MiB
    spec = TaskDistributionSpec("clustered", 16, 5, 5, 5, seed=18)
    transient, size = {}, {}
    for count in (300, 1200):
        path = tmp_path / f"tasks{count}.json"
        tasks = sample_taskset(spec, count)
        tracemalloc.start()
        try:
            save_taskset(path, tasks)
            save_peak = tracemalloc.get_traced_memory()[1]
            del tasks
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            loaded, _ = load_taskset(path)
            kept, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(loaded) == count
        size[count] = path.stat().st_size
        # the whole document as Python lists plus its text would be ~4x the file
        assert save_peak < 0.1 * size[count], save_peak / size[count]
        # beyond what the loaded tasks keep: about one text window and one
        # task's float lists (the whole text was 1.5x the file)
        transient[count] = peak - kept
        assert transient[count] < 2 << 20, transient
    # the file's growth adds next to nothing: each task is built as it is read
    assert transient[1200] - transient[300] < 0.05 * (size[1200] - size[300]), (transient, size)


def test_refused_save_leaves_the_existing_file(tmp_path):
    tasks = sample_taskset(clustered_spec(seed=19), 3)
    path = tmp_path / "tasks.json"
    save_taskset(path, tasks)
    before = path.read_bytes()
    x = tasks[2].query.x.copy()
    x[0, 0] = np.nan
    bad = tasks[:2] + [replace(tasks[2], query=Batch(x, tasks[2].query.y))]
    with pytest.raises(ValueError, match="non-finite feature in its query batch"):
        save_taskset(path, bad)
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda batch: dict(batch, x=[batch["x"]]),
        lambda batch: dict(batch, y=batch["y"][:-1]),
        lambda batch: dict(batch, y=[10**30] + batch["y"][1:]),
    ],
    ids=["x-3d", "y-short", "y-beyond-int64"],
)
def test_refused_batch_names_its_task(tmp_path, corrupt):
    spec = clustered_spec(seed=20)
    save_taskset(tmp_path / "tasks.json", sample_taskset(spec, 3), INPUTS)
    doc = json.loads((tmp_path / "tasks.json").read_text())
    doc["tasks"][1]["support"] = corrupt(doc["tasks"][1]["support"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="task 'clustered-0001' is malformed"):
        load_taskset(path)


def cut_in_third_task(tasks, corrupt):
    """The saved text of ``corrupt(doc)``, cut halfway through its third and last task."""
    doc = json.loads(whole_document(tasks, INPUTS))
    text = json.dumps(corrupt(doc), sort_keys=True, separators=(",", ":"))
    third = text.index(f'"id":{json.dumps(tasks[2].task_id)}')
    return text[: third + (len(text) - third) // 2]


def _short_support_y(doc):
    doc["tasks"][1]["support"]["y"].pop()
    return doc


def _nan_feature(doc):
    doc["tasks"][0]["query"]["x"][0][1] = float("nan")
    return doc


@pytest.mark.parametrize("window", [4, 1 << 16])
@pytest.mark.parametrize(
    "corrupt, needle",
    [
        (_short_support_y, "task 'clustered-0001' is malformed"),
        (_nan_feature, "task 'clustered-0000' has a non-finite feature in its query batch"),
    ],
    ids=["short-y", "nan-feature"],
)
def test_bad_task_is_refused_before_a_later_cut(tmp_path, monkeypatch, window, corrupt, needle):
    monkeypatch.setattr(taskgen, "_WINDOW_CHARS", window)
    spec = clustered_spec(seed=29)
    path = tmp_path / "tasks.json"
    path.write_text(cut_in_third_task(sample_taskset(spec, 3), corrupt))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {needle}")):
        load_taskset(path)


def test_replaced_tasks_count_their_own_classes():
    task = sample_taskset(clustered_spec(seed=12), 1)[0]
    assert task.n_ways == 3
    derived = [degrade_task(task, DegradeParams(0.5, 0.5), seed=1)] + augment_group(task, 3, 0.5, seed=2)
    assert [variant.n_ways for variant in derived] == [3] * 4
    two_way = replace(
        task,
        support=Batch(task.support.x, task.support.y % 2),
        query=Batch(task.query.x, task.query.y % 2),
    )
    assert two_way.n_ways == 2 and task.n_ways == 3


def test_loader_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "tasks": []}')
    with pytest.raises(ValueError):
        load_taskset(path)


def test_pooled_centers_are_shared_across_tasksets():
    base = dict(kind="clustered", feature_dim=6, n_ways=3, k_support=4, k_query=4,
                within_class_noise=0.0, center_pool_size=5, pool_seed=7)
    a = sample_taskset(TaskDistributionSpec(**base, seed=1), 20)
    b = sample_taskset(TaskDistributionSpec(**base, seed=2), 20)
    # with zero within-class noise, samples sit exactly on pool centers
    centers_a = {tuple(np.round(row, 9)) for t in a for row in t.support.x}
    centers_b = {tuple(np.round(row, 9)) for t in b for row in t.support.x}
    assert len(centers_a) <= 5 and len(centers_b) <= 5
    assert centers_a & centers_b  # distinct seeds still draw from one pool


def test_pool_smaller_than_ways_rejected():
    with pytest.raises(ValueError):
        TaskDistributionSpec("clustered", 6, 4, 2, 2, center_pool_size=3)


def test_noise_tasks_are_at_chance_after_adaptation():
    d, ways = 6, 3
    spec = MlpSpec((d, 8, ways))
    learner = Learner("maml", spec, 0.05)
    mp = MetaParams(spec.init_weights(np.random.default_rng(0), 0.5), learner)
    noise_tasks = sample_taskset(TaskDistributionSpec("noise", d, ways, 5, 20, seed=3), 20)
    accs = [accuracy(mp, t) for t in noise_tasks]
    assert abs(float(np.mean(accs)) - 1.0 / ways) < 0.1
