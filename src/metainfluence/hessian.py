"""Curvature of the meta-objective, two ways, plus its pruned pseudo-inverse.

* ``exact_meta_hessian``  -- central finite differences of the exact
  meta-gradient, column by column. The meta-gradient itself is analytic, so
  the only error is the controlled FD truncation; no third-order tensor is
  ever formed.
* ``accumulate_gn``       -- the positive-semidefinite outer-product term of
  the cross-entropy curvature, kept as a factor V with V V^T ~= H. After
  every task the buffer plus the new columns is compressed by one
  eigendecomposition of its Gram matrix to at most ``capacity`` orthogonal
  columns spanning the leading eigen-directions.

``invert`` prunes and inverts either representation through the same
eigenpairs and returns them as a ``SpectralInverse`` (U, lambda).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact, linalg, model
from .linalg import FactorMatrix
from .metalearn import MetaParams, Task, _meta_grad, meta_output_jacobian

DENSE_CAP = 2000
FD_STEP_SCALE = 1e-4
FD_ASYM_TOL = 1e-5


class FdAsymmetryError(RuntimeError):
    """Finite-difference columns disagree with their transpose beyond tolerance."""


@dataclass
class HessianRep:
    """Either a dense symmetric matrix or a factor V with V V^T ~= H."""

    variant: str  # "dense" | "factored"
    matrix: np.ndarray | None = None
    factor: FactorMatrix | None = None
    method: str = "exact"  # "exact" | "gauss_newton"
    buffer_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("dense", "factored"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.method not in ("exact", "gauss_newton"):
            raise ValueError(f"unknown method {self.method!r}")
        shape = np.shape(self.matrix)
        if self.variant == "dense" and (len(shape) != 2 or shape[0] != shape[1]):
            raise ValueError(f"dense variant needs a square matrix, got shape {shape}")
        if self.variant == "factored" and self.factor is None:
            raise ValueError("factored variant needs a factor")

    @property
    def dim(self) -> int:
        if self.variant == "dense":
            return int(self.matrix.shape[0])
        return self.factor.rows

    def eigen(self) -> linalg.EigenDecomposition:
        """Eigenpairs, descending: all q of a dense matrix, the nonzero ones of a factor."""
        if self.variant == "dense":
            return linalg.eigh_symmetric(self.matrix)
        return linalg.factor_eigen(self.factor)


@dataclass
class SpectralInverse:
    """Pruned pseudo-inverse H^+ = U diag(1/lambda) U^T, held as its retained eigenpairs.

    ``vectors`` (q x k) are orthonormal eigenvectors of H and ``values`` (k)
    their eigenvalues, negatives included when the pruning rule keeps them.
    H^+ H = U U^T is the projector onto the retained directions. No q x q
    matrix is stored or formed: ``apply`` costs O(q k) per vector.
    """

    vectors: np.ndarray
    values: np.ndarray
    discarded_negative: int
    keep: int | float | str
    clamped: bool = False

    @property
    def retained(self) -> int:
        return int(self.values.size)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[0])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """H^+ x = U ((U^T x) / lambda) for a q-vector or a q x n stack of columns."""
        coef = self.vectors.T @ x
        return self.vectors @ (coef.T / self.values).T


def exact_meta_hessian(mp: MetaParams, taskset: list[Task]) -> HessianRep:
    """Task-mean curvature of the adapted query loss at the current omega.

    Column j is the central difference of the mean meta-gradient along
    coordinate j with step ``FD_STEP_SCALE * (1 + |omega_j|)``. The result is
    symmetrized after checking the raw asymmetry stays below FD_ASYM_TOL
    relative. A q above DENSE_CAP raises ValueError before any work.
    """
    if not taskset:
        raise ValueError("taskset must be nonempty")
    q = mp.q
    if q > DENSE_CAP:
        raise ValueError(f"q={q} exceeds dense cap {DENSE_CAP}")
    learner = mp.learner
    omega = mp.omega
    work = omega.copy()
    h_mat = np.empty((q, q))
    for j in range(q):
        h = FD_STEP_SCALE * (1.0 + abs(float(omega[j])))
        work[j] = omega[j] + h
        g_plus = _mean_meta_grad_checked(learner, work, taskset, j)
        work[j] = omega[j] - h
        g_minus = _mean_meta_grad_checked(learner, work, taskset, j)
        work[j] = omega[j]
        h_mat[:, j] = (g_plus - g_minus) / (2.0 * h)
    scale = max(float(np.abs(h_mat).max()), 1e-300)
    asym = float(np.abs(h_mat - h_mat.T).max())
    if asym > FD_ASYM_TOL * scale:
        raise FdAsymmetryError(
            f"pre-symmetrization asymmetry {asym:g} exceeds {FD_ASYM_TOL:g} * {scale:g}"
        )
    return HessianRep(variant="dense", matrix=linalg.symmetrize(h_mat), method="exact")


def _mean_meta_grad_checked(learner, omega, taskset, coord: int) -> np.ndarray:
    total = np.zeros_like(omega)
    for task in taskset:
        g = _meta_grad(learner, omega, task)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"non-finite meta-gradient for task {task.task_id!r} at coordinate {coord}"
            )
        total += g
    return total / len(taskset)


def gn_columns_for_task(mp: MetaParams, task: Task, num_tasks: int = 1) -> FactorMatrix:
    """Factor columns of one task's outer-product curvature term.

    For each query sample the softmax curvature diag(s) - s s^T is factored
    with ``psd_sqrt_small``; one batched product pushes every sample's
    factor through its transposed logit meta-Jacobian. Columns carry
    1/sqrt(n_query * num_tasks) so that summing V V^T over a taskset
    reproduces the task-mean matrix. Zero factor columns, which include
    every column of a saturated sample, are omitted; the rest keep their
    (sample, column) order.
    """
    logits, jac = meta_output_jacobian(mp, task)
    nq, c, q = jac.shape
    scale = 1.0 / np.sqrt(nq * num_tasks)
    c_facs = np.stack(
        [linalg.psd_sqrt_small(np.diag(s) - np.outer(s, s)) for s in model.softmax(logits)]
    )
    nonzero = np.linalg.norm(c_facs, axis=1) > 0.0
    cols = jac.swapaxes(1, 2) @ c_facs
    cols *= scale
    return FactorMatrix(cols.swapaxes(0, 1)[:, nonzero])


def accumulate_gn(mp: MetaParams, taskset: list[Task], capacity: int) -> HessianRep:
    """Stream per-task factor columns through a buffer of at most ``capacity`` columns.

    After every task, ``orthogonalize_keep_largest`` compresses the buffer
    and the task's new columns with one Gram-matrix eigendecomposition: it
    keeps the leading eigen-directions of their V V^T, so each step is the
    optimal truncation of what it was given. Truncation makes insertion order
    matter, so the loop is serial over the task index.

    At most this is held at once: the buffer while a task's columns are
    built, then one merged q x (capacity + new columns) block, its Gram
    matrix and the ``eigh`` workspace while it is compressed into the next
    buffer. The previous buffer and the task's columns are dropped once the
    merged block holds them, and the merged block before the next task's
    columns are built, so no stale buffer is alive during a compression.
    """
    if not taskset:
        raise ValueError("taskset must be nonempty")
    buffer = FactorMatrix.empty(mp.q)
    m = len(taskset)
    for task in taskset:
        merged = buffer.concat(gn_columns_for_task(mp, task, num_tasks=m))
        del buffer
        buffer = linalg.orthogonalize_keep_largest(merged, capacity)
        del merged
    return HessianRep(
        variant="factored",
        factor=buffer,
        method="gauss_newton",
        buffer_capacity=capacity,
    )


def invert(h: HessianRep, keep: int | float | str) -> SpectralInverse:
    """Pruned pseudo-inverse of a Hessian representation.

    One path serves both variants: ``h.eigen()`` gives the eigenpairs (a full
    eigendecomposition of a dense matrix, or the nonzero directions of a
    factor from its small Gram matrix, never a q x q eigenproblem) and
    ``retained_indices`` picks those that ``keep`` retains. Retained
    negatives are inverted with their sign. A retained eigenvalue below
    INVERT_FLOOR times the spectrum scale raises IllConditionedError, and a
    rule that retains no eigenvalue raises ValueError, since every score would
    be zero. A count larger than the available directions is clamped and flagged.
    """
    e = h.eigen()
    lam = e.eigenvalues
    idx = linalg.retained_indices(lam, keep)
    if idx.size == 0:
        raise ValueError(f"keep {keep!r} retains none of the {lam.size} eigenvalues; every score would be zero")
    kept = lam[idx]
    scale = float(np.abs(lam).max(initial=0.0))
    small = np.abs(kept) < linalg.INVERT_FLOOR * scale
    if small.any():
        worst = float(np.abs(kept[small]).min())
        raise linalg.IllConditionedError(
            f"retained eigenvalue {worst:g} is below {linalg.INVERT_FLOOR:g} * {scale:g}; "
            "ill-conditioned inversion requested"
        )
    return SpectralInverse(
        vectors=e.eigenvectors[:, idx],
        values=kept,
        discarded_negative=int(np.sum(lam < 0.0)) - int(np.sum(kept < 0.0)),
        keep=keep,
        clamped=bool(isinstance(keep, (int, np.integer)) and keep > lam.size),
    )


def spectrum_summary(h: HessianRep) -> dict:
    """Eigenvalue digest used by reports: extremes and non-positive count."""
    lam = h.eigen().eigenvalues
    return {
        "dim": h.dim,
        "method": h.method,
        "variant": h.variant,
        "num_eigenvalues": int(lam.size),
        "num_nonpositive": int(np.sum(lam <= 0.0)),
        "num_negative": int(np.sum(lam < 0.0)),
        "lambda_max": float(lam[0]) if lam.size else 0.0,
        "lambda_min": float(lam[-1]) if lam.size else 0.0,
    }


def save_hessian(path, h: HessianRep, inputs: dict) -> None:
    """Variant, method, capacity and ``inputs`` in the header; the matrix or factor as payload."""
    header = {
        "variant": h.variant, "method": h.method, "buffer_capacity": h.buffer_capacity, "inputs": inputs,
    }
    payload = h.matrix if h.variant == "dense" else h.factor.columns
    artifact.save(path, "hessian", header, payload)


def load_hessian(path) -> HessianRep:
    def build(head: dict, data: np.ndarray) -> HessianRep:
        dense = head["variant"] == "dense"
        return HessianRep(
            variant=head["variant"],
            matrix=data if dense else None,
            factor=None if dense else FactorMatrix(data),
            method=head["method"],
            buffer_capacity=head["buffer_capacity"],
        )

    return artifact.load(path, "hessian", build)
