"""The factored curvature approximation and its bounded column buffer.

The positive-semidefinite outer-product term of the cross-entropy curvature
can be accumulated as factor columns instead of a dense matrix. Rotating the
columns into the eigenbasis of their Gram matrix preserves the represented
matrix exactly, so compression to a fixed buffer keeps the dominant
directions. ``invert`` takes the pseudo-inverse's eigenpairs straight from the
rotated columns, never touching a dense eigenproblem, and returns the same
(U, lambda) form as for a dense matrix.

Run:  python3 demos/03_gn_factor_buffer.py   (~30 seconds)
"""

import numpy as np

from metainfluence import (
    HessianRep,
    Learner,
    MetaParams,
    MetaTrainConfig,
    MlpSpec,
    TaskDistributionSpec,
    accumulate_gn,
    eigh_symmetric,
    exact_meta_hessian,
    gn_columns_for_task,
    invert,
    meta_train,
    sample_taskset,
)

spec = MlpSpec((8, 10, 3), "tanh")
tasks = sample_taskset(
    TaskDistributionSpec("clustered", 8, 3, 5, 8, within_class_noise=0.25, seed=31), 10
)
learner = Learner("maml", spec, inner_lr=0.05)
mp0 = MetaParams(spec.init_weights(np.random.default_rng(32), 0.8), learner)
mp, log = meta_train(mp0, tasks, MetaTrainConfig(steps=700, meta_batch=10, lr=0.01, seed=33))
print(f"trained to mean loss {log.final_loss:.4f}  (q = {spec.num_params} parameters)")

# the uncompressed factor: every task's columns side by side, V V^T dense
v = np.concatenate([gn_columns_for_task(mp, t, num_tasks=len(tasks)).columns for t in tasks], axis=1)
dense = HessianRep("dense", matrix=v @ v.T, method="gauss_newton")
dense_norm = np.linalg.norm(dense.matrix)
print(f"uncompressed factor: {v.shape[1]} columns")
print(f"\n{'buffer':>8} {'columns':>8} {'rel. reconstruction error':>27}")
for capacity in (8, 16, 32, 64, 1024):
    factored = accumulate_gn(mp, tasks, capacity=capacity)
    vk = factored.factor.columns
    err = np.linalg.norm(vk @ vk.T - dense.matrix) / dense_norm
    print(f"{capacity:8d} {factored.factor.ncols:8d} {err:27.2e}")

# the inverse of the factor agrees with the inverse of the dense matrix
factored = accumulate_gn(mp, tasks, capacity=1024)
eye = np.eye(spec.num_params)
via_factor = invert(factored, "all").apply(eye)
e = eigh_symmetric(dense.matrix)
rank = int(np.sum(e.eigenvalues > 1e-10 * e.eigenvalues[0]))
via_dense = invert(dense, rank).apply(eye)
agree = np.linalg.norm(via_factor - via_dense) / np.linalg.norm(via_dense)
print(f"\nfactored vs dense pseudo-inverse:            rel. difference {agree:.2e}")

# near a good fit, the outer-product term approximates the exact curvature
exact = exact_meta_hessian(mp, tasks)
rel = np.linalg.norm(exact.matrix - dense.matrix) / np.linalg.norm(exact.matrix)
print(f"outer-product term vs exact curvature:       rel. Frobenius error {rel:.3f}")
