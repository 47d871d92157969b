"""Span recorder that times calls into metainfluence's public functions.

The recorder wraps functions from outside the library: every module
attribute under ``metainfluence`` that is bound to a traced function is
replaced by a timing wrapper, so a caller that looks the function up as
``model.grad`` and one that imported it by name both hit the wrapper.
Nothing in ``src/`` changes.

Each call becomes a span with a name, start, end and parent. Spans are
aggregated per call path (the names from the outermost open span down to
this one), which keeps memory flat however many hot leaf calls a run makes;
spans of layers not marked hot are also kept one by one. A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, attribute, hot). Hot spans are called thousands of times per run,
# so they are only aggregated, never kept one by one.
TRACED = (
    ("model", "grad", True),
    ("model", "loss_and_grad", True),
    ("model", "hvp", True),
    ("model", "output_jacobian", True),
    ("metalearn", "meta_train", False),
    ("metalearn", "meta_grad", True),
    ("metalearn", "meta_output_jacobian", True),
    ("hessian", "exact_meta_hessian", False),
    ("hessian", "accumulate_gn", False),
    ("hessian", "gn_columns_for_task", True),
    ("hessian", "invert", False),
    ("hessian", "spectrum_summary", False),
    ("linalg", "orthogonalize_keep_largest", False),
    ("linalg", "psd_sqrt_small", True),
    ("linalg", "eigh_symmetric", False),
    ("influence", "influence_meta", True),
    ("influence", "score_pairs", False),
    ("influence", "rank_rows", False),
    ("influence", "save_influence_records", False),
    ("influence", "load_influence_records", False),
    ("influence", "ScoreTable.to_csv", False),
    ("experiments", "run_self_rank", False),
    ("experiments", "run_degradation", False),
    ("experiments", "run_distribution_distinction", False),
    ("experiments", "write_report", False),
    ("taskgen", "sample_taskset", False),
    ("taskgen", "save_taskset", False),
    ("taskgen", "load_taskset", False),
)


class Recorder:
    """Aggregated and individual spans of one traced run."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        # open frames: [path, start, time covered by children, span index or None]
        self._stack: list[list] = []
        # call path -> [calls, inclusive seconds, self seconds]
        self.paths: dict[tuple[str, ...], list] = {}
        # individually kept spans: [name, parent index or None, start, end]
        self.spans: list[list] = []
        # extra per-layer tallies, e.g. direction columns or kept fractions
        self.tallies: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def enter(self, name: str, keep: bool = True) -> None:
        parent = self._stack[-1] if self._stack else None
        path = (parent[0] if parent else ()) + (name,)
        start = time.perf_counter()
        index = None
        if keep:
            index = len(self.spans)
            parent_index = parent[3] if parent else None
            self.spans.append([name, parent_index, start - self.origin, None])
        self._stack.append([path, start, 0.0, index])

    def exit(self) -> None:
        end = time.perf_counter()
        path, start, covered, index = self._stack.pop()
        duration = end - start
        entry = self.paths.get(path)
        if entry is None:
            entry = self.paths[path] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered
        if index is not None:
            self.spans[index][3] = end - self.origin
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the caller's own code."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def tally(self, key: str, value: float) -> None:
        self.tallies[key] = self.tallies.get(key, 0.0) + value

    def wrap(self, name: str, fn, keep: bool, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec.enter(name, keep)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.exit()
            if after is not None:
                after(rec, args, kwargs, out)
            return out

        return traced

    def install(self, after: dict | None = None) -> None:
        """Replace every binding of each traced function under ``metainfluence``."""
        after = after or {}
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "metainfluence"]
        for mod_name, attr, hot in TRACED:
            name = f"{mod_name}.{attr}"
            home = sys.modules[f"metainfluence.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(name, original, not hot, after.get(name)))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, not hot, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def calls(self, name: str, under: str | None = None) -> int:
        """Calls of ``name``, optionally only those made inside a span of ``under``."""
        return sum(
            e[0] for p, e in self.paths.items() if p[-1] == name and (under is None or under in p[:-1])
        )

    def inclusive_s(self, name: str) -> float:
        """Wall time inside ``name``, counting each outermost span once."""
        return sum(e[1] for p, e in self.paths.items() if p[-1] == name and name not in p[:-1])

    def self_s(self, name: str) -> float:
        return sum(e[2] for p, e in self.paths.items() if p[-1] == name)

    def dump(self) -> dict:
        """JSON-ready record of every path aggregate and kept span."""
        return {
            "paths": [
                {"path": list(p), "calls": e[0], "s": e[1], "self_s": e[2]}
                for p, e in sorted(self.paths.items())
            ],
            "spans": [
                {"id": i, "name": n, "parent": par, "start_s": s, "end_s": e}
                for i, (n, par, s, e) in enumerate(self.spans)
            ],
            "tallies": dict(sorted(self.tallies.items())),
        }

