"""Dense symmetric linear algebra for the influence engine.

Everything operates on plain float64 numpy arrays. Symmetric matrices are
square arrays that are bitwise symmetric (run noisy data through
``symmetrize`` first). Low-rank representations are held as a
``FactorMatrix`` whose columns v_i stand for the outer-product sum
sum_i v_i v_i^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative floor below which an eigenvalue counts as numerically zero when
# "positive" pruning is requested.
POSITIVE_FLOOR = 1e-12
# Inverting a retained eigenvalue below this relative magnitude is refused.
INVERT_FLOOR = 1e-12
# Column drop tolerance, relative to the largest incoming column norm.
DROP_TOL_SCALE = 1e-9
# Gram eigenvalues at or below this relative level are indistinguishable from
# rounding noise of the Gram matrix itself and are always dropped.
GRAM_EIG_FLOOR = 1e-13
# psd_sqrt_small refuses an eigenvalue below -PSD_NEG_TOL and zeroes those
# below PSD_ZERO_TOL.
PSD_NEG_TOL = 1e-10
PSD_ZERO_TOL = 1e-12
# factor_eigen treats rotated factor columns with norm <= this scale times the
# largest norm as zero.
FACTOR_ZERO_SCALE = 1e-10


class EigenConvergenceError(RuntimeError):
    """The symmetric eigensolver failed to converge."""


class IllConditionedError(ValueError):
    """A retained eigenvalue is too small to invert safely."""


class NotPositiveSemidefiniteError(ArithmeticError):
    """An input that must be PSD has a clearly negative eigenvalue."""


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a.T) / 2, which is bitwise symmetric in IEEE arithmetic."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric q x q matrix.

    ``eigh_symmetric`` gives all q of them, ``factor_eigen`` only the nonzero
    ones of a low-rank V V^T. Eigenvalues are sorted descending in signed
    order (negative eigenvalues last); column i of the q-row ``eigenvectors``
    pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` unchanged; a solve that fails to converge raises EigenConvergenceError."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        off = a - np.diag(np.diag(a))
        resid = float(np.linalg.norm(off))
        raise EigenConvergenceError(
            f"eigendecomposition did not converge; off-diagonal Frobenius residual {resid:g}"
        ) from exc


def eigh_symmetric(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input must be finite and symmetric up to 1e-8 relative; it is
    symmetrized exactly before factorization.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    scale = float(np.abs(a).max()) if a.size else 0.0
    asym = float(np.abs(a - a.T).max())
    if asym > 1e-8 * max(scale, 1e-300):
        raise ValueError(f"matrix is not symmetric: max |a - a.T| = {asym:g}")
    w, q = _eigh(symmetrize(a))
    return EigenDecomposition(w[::-1].copy(), q[:, ::-1].copy())


def check_keep(keep) -> None:
    """Refuse a ``keep`` that is not one of the pruning rules of ``retained_indices``."""
    if isinstance(keep, str):
        if keep not in ("positive", "all"):
            raise ValueError(f"unknown keep rule {keep!r}")
    elif isinstance(keep, (bool, np.bool_)) or not isinstance(keep, (int, float, np.integer, np.floating)):
        raise TypeError(f"keep must be an int count, float threshold, or rule name, not {keep!r}")
    elif isinstance(keep, (int, np.integer)):
        if keep < 1:
            raise ValueError(f"keep count must be at least 1, not {keep!r}")
    elif not 0.0 <= keep <= 1.0:
        count = keep > 1 and keep.is_integer()
        hint = f"; a count is written as an integer, such as {int(keep)}" if count else ""
        raise ValueError(f"keep threshold must lie in [0, 1], not {keep!r}{hint}")


def retained_indices(eigenvalues: np.ndarray, keep: int | float | str) -> np.ndarray:
    """Indices of eigenvalues treated as non-zero under a pruning rule.

    ``keep`` is one of these (``check_keep`` refuses anything else):
      * int k >= 1 -- the k largest eigenvalues in signed descending order
                      (clamped to the available count);
      * float tau  -- every eigenvalue with |lam| >= tau * s, where s is the
                      largest eigenvalue magnitude and tau lies in [0, 1];
      * "positive" -- every eigenvalue above POSITIVE_FLOOR * s;
      * "all"      -- every eigenvalue with |lam| above INVERT_FLOOR * s,
                      i.e. the plain inverse minus numerically-zero modes.
    """
    check_keep(keep)
    lam = np.asarray(eigenvalues, dtype=float)
    scale = float(np.abs(lam).max(initial=0.0))
    if scale == 0.0:
        return np.empty(0, dtype=int)
    if keep == "positive":
        return np.flatnonzero(lam > POSITIVE_FLOOR * scale)
    if keep == "all":
        return np.flatnonzero(np.abs(lam) > INVERT_FLOOR * scale)
    if isinstance(keep, (int, np.integer)):
        return np.arange(min(int(keep), lam.size))
    return np.flatnonzero(np.abs(lam) >= float(keep) * scale)


def psd_sqrt_small(a: np.ndarray) -> np.ndarray:
    """Symmetric factor C with C C^T = a for a small PSD matrix.

    Eigendirections with eigenvalue below PSD_ZERO_TOL produce zero columns;
    an eigenvalue below -PSD_NEG_TOL raises NotPositiveSemidefiniteError.
    Intended for class-count-sized matrices such as diag(s) - s s^T.
    """
    w, q = _eigh(symmetrize(a))
    if w.size and float(w[0]) < -PSD_NEG_TOL:
        raise NotPositiveSemidefiniteError(f"eigenvalue {float(w[0]):g} below -{PSD_NEG_TOL:g}")
    w = np.where(w < PSD_ZERO_TOL, 0.0, w)
    return q * np.sqrt(w)


@dataclass(frozen=True)
class FactorMatrix:
    """Columns v_i of a factor V representing sum_i v_i v_i^T = V V^T."""

    columns: np.ndarray

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValueError(f"factor columns must be 2-D, got shape {cols.shape}")
        object.__setattr__(self, "columns", cols)

    @property
    def rows(self) -> int:
        return int(self.columns.shape[0])

    @property
    def ncols(self) -> int:
        return int(self.columns.shape[1])

    @staticmethod
    def empty(rows: int) -> "FactorMatrix":
        return FactorMatrix(np.zeros((rows, 0)))

    def concat(self, other: "FactorMatrix") -> "FactorMatrix":
        if other.rows != self.rows:
            raise ValueError(f"row mismatch: {self.rows} vs {other.rows}")
        return FactorMatrix(np.concatenate([self.columns, other.columns], axis=1))


def orthogonalize_keep_largest(cols: FactorMatrix, capacity: int) -> FactorMatrix:
    """Compress a factor to at most ``capacity`` mutually orthogonal columns.

    One eigendecomposition of the Gram matrix C^T C = O diag(w) O^T picks the
    retained directions: those with w > max(GRAM_EIG_FLOOR * max(w),
    drop_tol**2), at most ``capacity`` of them, largest first, where drop_tol
    is DROP_TOL_SCALE times the largest incoming column norm. The result is
    C O_keep: its columns are orthogonal to rounding, their squared norms are
    the retained w, and V V^T is C C^T with the dropped eigen-directions
    removed, the optimal truncation of C C^T to that rank.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    c = cols.columns
    if c.shape[1] == 0:
        return cols
    g = symmetrize(c.T @ c)
    max_in_sq = float(np.diag(g).max())
    if max_in_sq == 0.0:
        return FactorMatrix.empty(c.shape[0])
    drop_tol = DROP_TOL_SCALE * np.sqrt(max_in_sq)
    w, o = _eigh(g)
    w, o = w[::-1], o[:, ::-1]
    floor = max(GRAM_EIG_FLOOR * float(w[0]), drop_tol * drop_tol)
    n_keep = min(int(np.count_nonzero(w > floor)), capacity)
    return FactorMatrix(c @ o[:, :n_keep])


def factor_eigen(v: FactorMatrix) -> EigenDecomposition:
    """Nonzero eigenpairs of V V^T from one eigendecomposition of V^T V.

    With V^T V = O diag(w) O^T the columns of V O are orthogonal, their
    squared norms are the nonzero eigenvalues of V V^T and, normalized, they
    are its eigenvectors; no q x q matrix is formed. Columns with norm at or
    below FACTOR_ZERO_SCALE times the largest are numerically zero and are
    dropped. Eigenvalues are descending.
    """
    c = v.columns
    _, o = _eigh(symmetrize(c.T @ c))
    rotated = c @ o
    norms = np.linalg.norm(rotated, axis=0)
    order = np.argsort(-norms, kind="stable")
    order = order[norms[order] > FACTOR_ZERO_SCALE * float(norms.max(initial=0.0))]
    norms = norms[order]
    return EigenDecomposition(norms * norms, rotated[:, order] / norms)
