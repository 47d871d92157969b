"""Synthetic few-shot episode generation and controlled task surgery.

Two distributions cover the experiments' needs:

* ``clustered`` -- each task draws its own Gaussian class centers and then
  Gaussian samples around them, so tasks are individually learnable and
  mutually distinct.
* ``noise``     -- features are i.i.d. standard normal and labels are
  assigned round-robin, so labels carry no feature information.

Degradation attenuates a seeded subset of sample features toward zero (the
feature-space analog of darkening images); augmentation applies seeded
random orthogonal rotations of feature space (the analog of rotating
images). Everything is a pure function of (spec, seed).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace

import numpy as np

from .metalearn import Task
from .model import Batch

TASKSET_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TaskDistributionSpec:
    """Episode distribution parameters.

    With ``center_pool_size`` unset, every clustered task draws its own
    class centers. When set, tasks draw their classes (without replacement)
    from a shared pool of that many centers, seeded by ``pool_seed``, with a
    task-specific label binding; distinct tasksets sharing a pool_seed then
    reuse the same underlying classes, the way few-shot episodes recycle
    categories under fresh class indices.
    """

    kind: str  # "clustered" | "noise"
    feature_dim: int
    n_ways: int
    k_support: int
    k_query: int
    class_center_scale: float = 1.0
    within_class_noise: float = 0.3
    seed: int = 0
    center_pool_size: int | None = None
    pool_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("clustered", "noise"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.n_ways < 2:
            raise ValueError("n_ways must be >= 2")
        if min(self.feature_dim, self.k_support, self.k_query) < 1:
            raise ValueError("dims and shot counts must be positive")
        if not (self.class_center_scale >= 0 and self.within_class_noise >= 0):
            raise ValueError("class_center_scale and within_class_noise must be non-negative")
        if self.center_pool_size is not None and self.center_pool_size < self.n_ways:
            raise ValueError("center pool must hold at least n_ways centers")


@dataclass(frozen=True)
class DegradeParams:
    """alpha scales features toward zero; ratio is the fraction of samples hit."""

    alpha: float
    ratio: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.ratio <= 1.0):
            raise ValueError("alpha and ratio must lie in [0, 1]")


def _seed_for(base_seed: int, task_id: str) -> np.random.Generator:
    digest = hashlib.sha256(task_id.encode()).digest()
    return np.random.default_rng([base_seed, int.from_bytes(digest[:8], "little")])


def _center_pool(spec: TaskDistributionSpec) -> np.ndarray:
    rng = np.random.default_rng([spec.pool_seed, spec.center_pool_size, spec.feature_dim])
    return rng.normal(0.0, spec.class_center_scale, size=(spec.center_pool_size, spec.feature_dim))


def _episode_batches(
    spec: TaskDistributionSpec, rng: np.random.Generator, pool: np.ndarray | None
) -> tuple[Batch, Batch]:
    d, ways = spec.feature_dim, spec.n_ways
    labels_s = np.repeat(np.arange(ways), spec.k_support)
    labels_q = np.repeat(np.arange(ways), spec.k_query)
    if spec.kind == "clustered":
        if pool is None:
            centers = rng.normal(0.0, spec.class_center_scale, size=(ways, d))
        else:
            centers = pool[rng.choice(pool.shape[0], size=ways, replace=False)]
        xs = centers[labels_s] + rng.normal(0.0, spec.within_class_noise, size=(labels_s.size, d))
        xq = centers[labels_q] + rng.normal(0.0, spec.within_class_noise, size=(labels_q.size, d))
    else:
        xs = rng.normal(0.0, 1.0, size=(labels_s.size, d))
        xq = rng.normal(0.0, 1.0, size=(labels_q.size, d))
    return Batch(xs, labels_s), Batch(xq, labels_q)


def sample_taskset(spec: TaskDistributionSpec, count: int, id_prefix: str | None = None) -> list[Task]:
    """Deterministic taskset of ``count`` episodes; ids are zero-padded."""
    if count < 0:
        raise ValueError("count must be non-negative")
    prefix = id_prefix if id_prefix is not None else spec.kind
    provenance = "noise" if spec.kind == "noise" else "regular"
    rng = np.random.default_rng(spec.seed)
    pool = None
    if spec.kind == "clustered" and spec.center_pool_size is not None:
        pool = _center_pool(spec)
    tasks = []
    for t in range(count):
        support, query = _episode_batches(spec, rng, pool)
        tasks.append(
            Task(task_id=f"{prefix}-{t:04d}", support=support, query=query, provenance=provenance)
        )
    return tasks


def degrade_task(task: Task, dp: DegradeParams, seed: int) -> Task:
    """Attenuate a seeded subset of both batches' features by (1 - alpha).

    The subset is the first round(ratio * n) entries of a per-(task, seed)
    permutation, so for a fixed seed the degraded subsets are nested as the
    ratio grows.
    """
    rng = _seed_for(seed, task.task_id)
    degraded = {}
    for name in ("support", "query"):
        batch = getattr(task, name)
        x = batch.x.copy()
        n_hit = int(np.floor(dp.ratio * batch.n + 0.5))
        x[rng.permutation(batch.n)[:n_hit]] *= 1.0 - dp.alpha
        degraded[name] = Batch(x, batch.y)
    return replace(task, **degraded)


def _random_rotation(dim: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix that is the identity at scale 0 (Cayley transform)."""
    a = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    t = 0.5 * scale * (a - a.T)
    eye = np.eye(dim)
    return np.linalg.solve(eye + t, eye - t)


def augment_group(task: Task, count: int, transform_scale: float, seed: int) -> list[Task]:
    """The task plus ``count - 1`` feature-rotated variants, sharing a group id."""
    if count < 1:
        raise ValueError("count must be >= 1")
    gid = task.group_id or task.task_id
    rng = _seed_for(seed, task.task_id)
    out = [replace(task, group_id=gid)]
    dim = task.support.x.shape[1]
    for v in range(1, count):
        rot = _random_rotation(dim, transform_scale, rng)
        out.append(
            replace(
                task,
                task_id=f"{task.task_id}-aug{v}",
                group_id=gid,
                support=Batch(task.support.x @ rot.T, task.support.y),
                query=Batch(task.query.x @ rot.T, task.query.y),
            )
        )
    return out


def mix_tasksets(regular: list[Task], noise: list[Task], seed: int) -> list[Task]:
    """Concatenate and shuffle; ids and provenance labels are preserved."""
    combined = list(regular) + list(noise)
    order = np.random.default_rng(seed).permutation(len(combined))
    return [combined[i] for i in order]


def _dumps(value) -> str:
    # json.dumps without indent runs the C encoder; json.dump never does.
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def save_taskset(path, tasks: list[Task], inputs: dict | None = None) -> None:
    """Write tasks as one compact JSON line with sorted keys, one task at a time.

    The file is the compact sorted-key encoding of the whole document, but
    only one task's float lists exist at once. ``inputs`` is written as
    given. Floats keep their shortest round-trip repr, so ``load_taskset``
    returns bitwise-equal tasks. A feature that is not finite or a bad task
    id raises ValueError, as it does on load, before the file is opened.
    """
    seen: set[str] = set()
    for task in tasks:
        _check_task(path, task, seen)
    head = _dumps(inputs)
    with open(path, "w") as fh:
        # sorted top-level keys: inputs, tasks, version
        fh.write(f'{{"inputs":{head},"tasks":[')
        for i, t in enumerate(tasks):
            if i:
                fh.write(",")
            fh.write(
                _dumps(
                    {
                        "id": t.task_id,
                        "group_id": t.group_id,
                        "provenance": t.provenance,
                        "support": {"x": t.support.x.tolist(), "y": t.support.y.tolist()},
                        "query": {"x": t.query.x.tolist(), "y": t.query.y.tolist()},
                    }
                )
            )
        fh.write(f'],"version":{TASKSET_FORMAT_VERSION}}}\n')


def _check_task(path, task: Task, seen: set[str]) -> None:
    """Refuse a non-finite feature, and an id in ``seen`` or that would split a CSV row; record the id."""
    if task.task_id in seen or any(c in task.task_id for c in ",\n\r"):
        why = "repeats" if task.task_id in seen else "holds a comma or a line break"
        raise ValueError(f"{path}: task id {task.task_id!r} {why}")
    seen.add(task.task_id)
    for part in ("support", "query"):
        if not np.all(np.isfinite(getattr(task, part).x)):
            raise ValueError(f"{path}: task {task.task_id!r} has a non-finite feature in its {part} batch")


def _load_batch(part) -> Batch:
    batch = Batch(np.array(part["x"], dtype=float), np.array(part["y"]))
    if batch.stacked:
        raise ValueError(f"inputs must be (n, d), got shape {batch.x.shape}")
    return batch


def _load_task(path, entry, seen: set[str]) -> Task:
    """The checked Task of one decoded ``tasks`` entry; a bad entry raises ValueError naming it."""
    tid = entry.get("id") if isinstance(entry, dict) else None
    try:
        if not isinstance(entry["id"], str):
            raise TypeError("its id is not a string")
        task = Task(
            task_id=entry["id"],
            support=_load_batch(entry["support"]),
            query=_load_batch(entry["query"]),
            group_id=entry.get("group_id"),
            provenance=entry.get("provenance", "regular"),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: task {tid!r} has no field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: task {tid!r} is malformed: {exc}") from exc
    _check_task(path, task, seen)
    return task


# Characters that load_taskset reads per refill of its text window. On a
# 19 MB taskset, 64 Ki loads as fast as 1 Mi and holds 4 MB less at peak.
_WINDOW_CHARS = 1 << 16
_DECODER = json.JSONDecoder()
_WHITESPACE = re.compile(r"[ \t\n\r]*")


class _TextWindow:
    """The unread part of a JSON text file, decoded one value at a time.

    ``text[pos:]`` is the pending text and ``start`` the file offset of
    ``text[0]``. Each refill drops the consumed text, so beyond the decoded
    values it holds under two windows, or twice the largest single value.
    """

    def __init__(self, path, fh) -> None:
        self.path, self.fh = path, fh
        self.text, self.pos, self.start, self.eof = "", 0, 0, False

    def refill(self, extra: int) -> None:
        n = max(_WINDOW_CHARS, extra)
        chunk = self.fh.read(n)
        self.start += self.pos
        self.text, self.pos, self.eof = self.text[self.pos :] + chunk, 0, len(chunk) < n

    def error(self, msg: str, pos: int | None = None) -> ValueError:
        at = self.start + (self.pos if pos is None else pos)
        return ValueError(f"{self.path} is not valid JSON at char {at}: {msg}")

    def peek(self) -> str:
        """The next non-whitespace character, left unread; "" at the end of the file."""
        while True:
            self.pos = _WHITESPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return self.text[self.pos : self.pos + 1]
            self.refill(0)

    def take(self, allowed: str, msg: str) -> str:
        char = self.peek()
        if not char or char not in allowed:
            raise self.error(msg)
        self.pos += 1
        return char

    def value(self):
        """Decode the next value.

        The window is topped up first, so only a value longer than a window
        can run past its end. Such a value is decoded again after a refill;
        so is a syntax error, which more text might have completed, until
        the end of the file.
        """
        if len(self.text) - self.pos < _WINDOW_CHARS and not self.eof:
            self.refill(0)
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
                if end < len(self.text) or self.eof:
                    self.pos = end
                    return value
            except json.JSONDecodeError as exc:
                if self.eof:
                    raise self.error(exc.msg, exc.pos) from None
            # at least double the pending text, so a large value costs O(its size)
            self.refill(len(self.text) - self.pos)

    def members(self, close: str, member) -> None:
        """Call ``member`` for each comma-separated member up to ``close``; ``pos`` is at the opener."""
        self.pos += 1
        if self.peek() == close:
            self.pos += 1
            return
        while True:
            member()
            if self.take("," + close, "Expecting ',' delimiter") == close:
                return


def _read_document(path, fh) -> dict:
    """The taskset document; each entry of its "tasks" array becomes a checked Task as it is read."""
    window = _TextWindow(path, fh)
    if window.peek() != "{":
        raise ValueError(f"{path} is not a taskset: the document is not a JSON object")
    doc: dict = {}

    def field() -> None:
        if window.peek() != '"':
            raise window.error("Expecting property name enclosed in double quotes")
        key = window.value()
        window.take(":", "Expecting ':' delimiter")
        if key == "tasks" and window.peek() == "[":
            tasks, seen = [], set()
            doc[key] = tasks
            window.members("]", lambda: tasks.append(_load_task(path, window.value(), seen)))
        else:
            doc[key] = window.value()

    window.members("}", field)
    if window.peek():
        raise window.error("Extra data")
    return doc


def load_taskset(path) -> tuple[list[Task], object]:
    """The tasks of a taskset file, and the ``inputs`` it records unchecked or None.

    Externally produced files in the same schema load; other top-level keys,
    such as the ``spec`` older files hold, are ignored. The file is read
    through a bounded text window, and each task is built and checked as it
    is read. Text that is not JSON, a document that breaks the schema, a
    feature that is not finite, or a task id that repeats or holds a comma
    or a line break raises ValueError naming the file and, where it is
    known, the offset or the task (a bad task before the rest).
    """
    with open(path) as fh:
        doc = _read_document(path, fh)
    version = doc.get("version")
    if version != TASKSET_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported taskset version {version!r}")
    tasks = doc.get("tasks")
    if not isinstance(tasks, list):
        raise ValueError(f"{path}: 'tasks' is not a list")
    return tasks, doc.get("inputs")
