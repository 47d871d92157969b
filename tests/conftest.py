import numpy as np
import pytest

from metainfluence import hessian, linalg, model, taskgen
from metainfluence.influence import InfluenceRecord
from metainfluence.metalearn import Learner, MetaParams, Task, meta_output_jacobian, task_logits
from metainfluence.model import Batch, MlpSpec


def rel_err(a, b, floor=1e-12):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), floor)


def fd_gradient(f, w, step_scale=1e-4):
    """Central finite differences of a scalar function of a flat vector."""
    w = np.asarray(w, dtype=float)
    g = np.empty_like(w)
    for j in range(w.size):
        h = step_scale * (1.0 + abs(w[j]))
        wp = w.copy()
        wp[j] += h
        wm = w.copy()
        wm[j] -= h
        g[j] = (f(wp) - f(wm)) / (2.0 * h)
    return g


def random_batch(rng, n, spec):
    return Batch(rng.normal(size=(n, spec.input_dim)), rng.integers(0, spec.num_classes, n))


def random_net(rng, widths=(5, 7, 4), activation="tanh", jitter=0.3):
    spec = MlpSpec(widths, activation)
    w = spec.init_weights(rng) + jitter * rng.normal(size=spec.num_params)
    return spec, w


def meta_loss(mp, task):
    """Query loss after adaptation, the outer-loop objective of one task."""
    return model.cross_entropy(task_logits(mp, task), task.query.y)


def adaptation_jacobian(mp, task):
    """d theta_hat / d omega as a q x q matrix: I for protonet, I - lr * H_support for MAML."""
    eye = np.eye(mp.q)
    if mp.learner.kind == "protonet":
        return eye
    return eye - mp.learner.inner_lr * model.hvp(mp.learner.spec, mp.omega, task.support, eye)


def gn_dense(mp, taskset):
    """Dense task-mean outer-product curvature, the oracle for the factored path.

    Each query sample contributes J^T (diag(s) - s s^T) J / (n_query * m),
    with J its logit meta-Jacobian, built without any factor column.
    """
    h = np.zeros((mp.q, mp.q))
    m = len(taskset)
    for task in taskset:
        logits, jac = meta_output_jacobian(mp, task)
        sm = model.softmax(logits)
        a = sm[:, :, None] * np.eye(sm.shape[1])[None, :, :] - np.einsum("nk,nl->nkl", sm, sm)
        tmp = np.einsum("nkl,nlq->nkq", a, jac)
        h += np.einsum("nkq,nkr->qr", jac, tmp) / (task.query.n * m)
    return hessian.HessianRep(
        "dense", matrix=linalg.symmetrize(h), method="gauss_newton"
    )


def gram(f):
    """Dense V V^T of a FactorMatrix."""
    return linalg.symmetrize(f.columns @ f.columns.T)


def rebuild(e, idx=slice(None)):
    """Q_I Lambda_I Q_I^T over the eigenpairs ``idx`` of an EigenDecomposition."""
    q = e.eigenvectors[:, idx]
    return linalg.symmetrize((q * e.eigenvalues[idx]) @ q.T)


def project(inv, x):
    """H^+ H x = U (U^T x), the projector onto the directions an inverse retains."""
    return inv.vectors @ (inv.vectors.T @ x)


def accuracy(mp, task):
    """Query accuracy after adaptation."""
    return float(np.mean(task_logits(mp, task).argmax(axis=1) == task.query.y))


def make_params(rng, widths=(6, 5, 3), kind="maml", inner_lr=0.05, jitter=0.2):
    spec = MlpSpec(widths)
    learner = Learner(kind, spec, inner_lr)
    omega = spec.init_weights(rng) + jitter * rng.normal(size=spec.num_params)
    return MetaParams(omega, learner)


def group_record(records, group_id):
    """The summed record of the records carrying ``group_id``, added in list order."""
    members = [r.i_meta for r in records if r.group_id == group_id]
    total = members[0].copy()
    for i_meta in members[1:]:
        total = total + i_meta
    return InfluenceRecord(group_id, total, group_id)


def grouped_tasks(groups):
    """One placeholder task per entry of ``groups``, carrying it as its group id."""
    batch = Batch(np.zeros((1, 1)), np.zeros(1, dtype=int))
    return [Task(f"t{i}", batch, batch, group_id=gid) for i, gid in enumerate(groups)]


def fd_asymmetric_problem():
    """A MAML problem whose FD meta-Hessian fails its symmetry check at a step scale of 1e-1.

    The raw asymmetry there is 8.3e-3 against a bound of 1e-5 * 0.41; the
    default step of 1e-4 passes.
    """
    spec = MlpSpec((4, 5, 3))
    mp = MetaParams(spec.init_weights(np.random.default_rng(3)), Learner("maml", spec, 0.05))
    tasks = taskgen.sample_taskset(taskgen.TaskDistributionSpec("clustered", 4, 3, 2, 2, seed=3), 3)
    return mp, tasks


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def model_calls(monkeypatch):
    """Call counters for ``model`` functions.

    ``model_calls("hvp")`` replaces ``model.hvp`` with a counting wrapper and
    returns a list that gains one entry per call made through the module,
    including calls between functions inside ``model``.
    """

    def count(name):
        calls = []
        original = getattr(model, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(model, name, counted)
        return calls

    return count


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: full acceptance-criteria runs (minutes)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid and report.when == "call":
                name = nodeid.split("::")[-1]
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines.append(f"{verdict}  {name}")
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(lines, key=lambda s: s.split("_criterion_")[-1]):
            terminalreporter.write_line(line)
