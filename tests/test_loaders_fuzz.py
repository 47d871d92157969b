"""Corrupt artifacts against the five loaders and the reader of the ``inputs`` header.

A truncated or byte-flipped ``params.bin``, ``hessian.bin``, ``influence.bin``,
``scores.bin`` or taskset JSON, in the compact layout ``save_taskset``
writes or in an indented one, must either load or raise ValueError or
OSError, the two failures the CLI maps to exit 1 and exit 3. So must
``artifact.inputs`` on a corrupt ``params.bin``, ``hessian.bin`` or
``scores.bin``. Examples are derandomized and bounded, so every run draws
the same corruptions.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metainfluence import artifact, hessian, influence, linalg, metalearn, taskgen
from metainfluence.model import MlpSpec

FUZZ = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
LOADERS = {
    "params": metalearn.load_params,
    "hessian-dense": hessian.load_hessian,
    "hessian-factored": hessian.load_hessian,
    "influence": influence.load_influence_records,
    "scores": influence.load_score_table,
    "taskset": taskgen.load_taskset,
    "taskset-indented": taskgen.load_taskset,
    "params-inputs": lambda path: artifact.inputs(path, "params"),
    "hessian-inputs": lambda path: artifact.inputs(path, "hessian"),
    "scores-inputs": lambda path: artifact.inputs(path, "scores"),
}
# the built-from and built-under digests each artifact records, as the CLI writes them
INPUTS = {
    "params": {"train_tasks.json": "0" * 64, "model": "3" * 64},
    "hessian": {"params.bin": "1" * 64, "train_tasks.json": "0" * 64, "hessian.method": "4" * 64},
    "scores": {"params.bin": "1" * 64, "train_tasks.json": "0" * 64, "hessian.bin": "2" * 64, "hessian.keep": "5" * 64},
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Valid bytes of each artifact kind, from a tiny model and taskset."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    spec = MlpSpec((3, 4, 2), "tanh")
    mp = metalearn.MetaParams(spec.init_weights(rng), metalearn.Learner("maml", spec, 0.05))
    dist = taskgen.TaskDistributionSpec("clustered", 3, 2, 2, 1, seed=1)
    tasks = taskgen.sample_taskset(dist, 2)
    dense = linalg.symmetrize(rng.normal(size=(mp.q, mp.q)))
    factor = linalg.FactorMatrix(rng.normal(size=(mp.q, 3)))
    metalearn.save_params(root / "params", mp, INPUTS["params"])
    dense_rep = hessian.HessianRep("dense", matrix=dense)
    hessian.save_hessian(root / "hessian-dense", dense_rep, INPUTS["hessian"])
    factored = hessian.HessianRep("factored", factor=factor, method="gauss_newton")
    hessian.save_hessian(root / "hessian-factored", factored, INPUTS["hessian"])
    records = [influence.InfluenceRecord(t.task_id, rng.normal(size=mp.q), "g") for t in tasks]
    influence.save_influence_records(root / "influence", records)
    table = influence.ScoreTable(["u", "v"], [t.task_id for t in tasks], rng.normal(size=(2, 2)), rng.normal(size=2), 3)
    influence.save_score_table(root / "scores", table, INPUTS["scores"])
    taskgen.save_taskset(root / "taskset", tasks, {"tasksets.train": "6" * 64, "tasksets.mix_seed": "7" * 64})
    doc = json.loads((root / "taskset").read_text())
    (root / "taskset-indented").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    for kind in ("params", "hessian", "scores"):
        source = "hessian-dense" if kind == "hessian" else kind
        (root / f"{kind}-inputs").write_bytes((root / source).read_bytes())
        assert artifact.inputs(root / f"{kind}-inputs", kind) == INPUTS[kind]
    for kind, load in LOADERS.items():
        load(root / kind)  # the uncorrupted file loads
    return {kind: (root / kind).read_bytes() for kind in LOADERS}


def corruptions():
    """("cut", n, _) keeps the first n bytes; ("flip", i, mask) xors byte i with mask.

    Half the flips land in the first 256 bytes, where the binary prefixes and
    JSON headers and the first keys of the taskset JSON are.
    """
    position = st.one_of(st.integers(0, 255), st.integers(0, 1 << 20))
    cut = st.tuples(st.just("cut"), st.integers(0, 1 << 20), st.just(0))
    flip = st.tuples(st.just("flip"), position, st.integers(1, 255))
    return st.one_of(cut, flip)


@pytest.mark.parametrize("kind", list(LOADERS))
@FUZZ
@given(corruption=corruptions())
def test_corrupt_file_loads_or_raises_value_or_os_error(artifacts, tmp_path, kind, corruption):
    data = bytearray(artifacts[kind])
    how, at, mask = corruption
    if how == "cut":
        data = data[: at % len(data)]
    else:
        data[at % len(data)] ^= mask
    path = tmp_path / kind
    path.write_bytes(bytes(data))
    try:
        LOADERS[kind](path)
    except (ValueError, OSError):
        pass
