"""Influence predictions vs. actual retraining on a convex toy.

A linear softmax classifier trained on the pooled query sets of 8 tasks
(one-step adaptation disabled) is a convex problem, so the influence
machinery can be checked against ground truth: upweight one task's loss by a
small epsilon, retrain with the identical seed, and compare the measured
parameter shift against the predicted one.

Run:  python3 demos/01_convex_toy_influence.py   (~1 minute)
"""

import numpy as np

from metainfluence import (
    Learner,
    MetaParams,
    MetaTrainConfig,
    MlpSpec,
    TaskDistributionSpec,
    exact_meta_hessian,
    influence_records,
    invert,
    meta_grads,
    meta_train,
    sample_taskset,
    total_meta_gradient_norm,
)

spec = MlpSpec((4, 3))  # linear model: 4 features -> 3 classes, 15 parameters
tasks = sample_taskset(
    TaskDistributionSpec(
        "clustered", 4, 3, 6, 8, class_center_scale=1.0, within_class_noise=1.2, seed=11
    ),
    8,
)
learner = Learner("maml", spec, inner_lr=0.0)
mp_init = MetaParams(spec.init_weights(np.random.default_rng(5), 0.3), learner)

# coarse pass to get near the optimum, then a fine pass the oracle reuses
warm, _ = meta_train(mp_init, tasks, MetaTrainConfig(steps=1500, meta_batch=32, lr=0.05, seed=22))
cfg = MetaTrainConfig(steps=2000, meta_batch=32, lr=0.005, seed=21)
mp, log = meta_train(warm, tasks, cfg)
print(f"trained: mean loss {log.final_loss:.4f}, stationarity {total_meta_gradient_norm(mp, tasks):.2e}")

hess = exact_meta_hessian(mp, tasks)
inv = invert(hess, "positive")
print(
    f"curvature: {inv.retained} of {inv.dim} directions retained "
    f"({inv.dim - inv.retained} flat/negative pruned; softmax shift-invariance "
    f"alone accounts for {spec.input_dim + 1} flat directions)"
)


def retrained_shift(j: int, eps: float) -> np.ndarray:
    """Retrain with task j's weight raised by eps * M under the same seed; (omega_eps - omega) / eps."""
    weights = np.ones(len(tasks))
    weights[j] += eps * len(tasks)
    return (meta_train(warm, tasks, cfg, weights)[0].omega - mp.omega) / eps


eps = 1e-3
records = influence_records(inv, mp, tasks)
shifts = [retrained_shift(j, eps) for j in range(len(tasks))]
print(f"\n{'task':>12} {'cosine(pred, actual)':>22} {'|shift|':>10}")
for task, record, shift in zip(tasks, records, shifts):
    pred = inv.vectors @ (inv.vectors.T @ record.i_meta)  # H^+ H i_meta
    cos = pred @ shift / (np.linalg.norm(pred) * np.linalg.norm(shift))
    print(f"{task.task_id:>12} {cos:22.4f} {np.linalg.norm(shift):10.4f}")

# the same records predict per-test loss changes: compare rankings
test_task = tasks[2]
g_test = meta_grads(mp, [test_task])[0]
predicted = np.array([g_test @ r.i_meta for r in records])
actual = np.array([g_test @ shift for shift in shifts])
rank_p = np.argsort(np.argsort(predicted))
rank_a = np.argsort(np.argsort(actual))
rho = np.corrcoef(rank_p, rank_a)[0, 1]
print(f"\nloss-change ranking agreement on test {test_task.task_id}: spearman {rho:.3f}")
