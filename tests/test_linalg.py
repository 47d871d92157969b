import numpy as np
import pytest

from conftest import gram, rebuild
from metainfluence import linalg
from metainfluence.hessian import HessianRep, invert
from metainfluence.linalg import (
    FactorMatrix,
    IllConditionedError,
    NotPositiveSemidefiniteError,
    eigh_symmetric,
    orthogonalize_keep_largest,
    psd_sqrt_small,
    symmetrize,
)


def random_symmetric(rng, n, scale=1.0):
    a = rng.normal(0, scale, size=(n, n))
    return symmetrize(a)


def dense_pinv(a, keep):
    """H^+ of a dense matrix, materialized from its pruned inverse."""
    inv = invert(HessianRep(variant="dense", matrix=a), keep)
    return inv.apply(np.eye(inv.dim))


def factor_pinv(f):
    """(V V^T)^+ over every non-negligible direction, materialized from the factored inverse."""
    inv = invert(HessianRep(variant="factored", factor=f), "all")
    return inv.apply(np.eye(inv.dim))


def test_eigh_identity():
    e = eigh_symmetric(np.eye(3))
    np.testing.assert_allclose(e.eigenvalues, np.ones(3))
    np.testing.assert_allclose(e.eigenvectors.T @ e.eigenvectors, np.eye(3), atol=1e-12)


def test_eigh_diagonal_signed_order():
    e = eigh_symmetric(np.diag([2.0, -1.0]))
    np.testing.assert_allclose(e.eigenvalues, [2.0, -1.0])
    # axis-aligned eigenvectors up to sign
    np.testing.assert_allclose(np.abs(e.eigenvectors), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_eigh_reconstruction_and_orthonormality(seed):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, 8)
    e = eigh_symmetric(a)
    recon = rebuild(e)
    assert np.linalg.norm(recon - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(e.eigenvectors.T @ e.eigenvectors - np.eye(8)) <= 1e-10 * 8
    assert np.all(np.diff(e.eigenvalues) <= 1e-12)


def test_eigh_rejects_nonfinite_and_asymmetric():
    with pytest.raises(ValueError):
        eigh_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigh_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_pseudo_inverse_rank1_diagonal():
    np.testing.assert_allclose(dense_pinv(np.diag([2.0, 0.0]), 1), np.diag([0.5, 0.0]))


def test_pseudo_inverse_drops_negative_when_excluded():
    pinv = dense_pinv(np.diag([4.0, 1.0, -3.0]), 2)
    np.testing.assert_allclose(pinv, np.diag([0.25, 1.0, 0.0]))


def test_pseudo_inverse_keeps_retained_negative():
    np.testing.assert_allclose(dense_pinv(np.diag([4.0, -2.0]), "all"), np.diag([0.25, -0.5]))


def test_pseudo_inverse_positive_rule():
    np.testing.assert_allclose(
        dense_pinv(np.diag([4.0, 1.0, 0.0, -3.0]), "positive"), np.diag([0.25, 1.0, 0.0, 0.0])
    )


def test_pseudo_inverse_threshold_rule():
    # tau = 0.1 -> retain |lam| >= 0.8
    pinv = dense_pinv(np.diag([8.0, 1.0, 0.5]), 0.1)
    np.testing.assert_allclose(pinv, np.diag([0.125, 1.0, 0.0]))


def test_pseudo_inverse_ill_conditioned_error():
    with pytest.raises(IllConditionedError):
        dense_pinv(np.diag([1.0, 1e-15]), 2)


def test_moore_penrose_on_psd_rank4():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(6, 4))
    a = symmetrize(b @ b.T)  # PSD rank 4
    pinv = dense_pinv(a, 4)
    np.testing.assert_allclose(a @ pinv @ a, a, atol=1e-8 * np.linalg.norm(a))
    np.testing.assert_allclose(pinv @ a @ pinv, pinv, atol=1e-8 * np.linalg.norm(pinv))
    np.testing.assert_allclose(a @ pinv, (a @ pinv).T, atol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_moore_penrose_mixed_spectrum(seed):
    """H pinv H = H_pruned and projector idempotence on mixed-sign spectra."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 12))
    a = random_symmetric(rng, n)
    e = eigh_symmetric(a)
    k = int(rng.integers(1, n + 1))
    idx = linalg.retained_indices(e.eigenvalues, k)
    scale = np.abs(e.eigenvalues).max()
    if np.abs(e.eigenvalues[idx]).min() < 1e-10 * scale:
        pytest.skip("random spectrum too close to singular for this draw")
    pinv = dense_pinv(a, k)
    pruned = rebuild(e, idx)
    tol = 1e-8 * max(1.0, np.linalg.norm(a))
    np.testing.assert_allclose(pruned @ pinv @ pruned, pruned, atol=tol)
    np.testing.assert_allclose(pinv @ pruned @ pinv, pinv, atol=tol)
    proj = pinv @ pruned
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)
    np.testing.assert_allclose(proj, proj.T, atol=1e-10)


def test_psd_sqrt_scalar_and_zero():
    np.testing.assert_allclose(psd_sqrt_small(np.array([[4.0]])), [[2.0]])
    np.testing.assert_allclose(psd_sqrt_small(np.zeros((3, 3))), np.zeros((3, 3)))


def test_psd_sqrt_softmax_curvature():
    s = np.array([0.5, 0.5])
    a = np.diag(s) - np.outer(s, s)
    c = psd_sqrt_small(a)
    np.testing.assert_allclose(c @ c.T, a, atol=1e-9)
    assert np.linalg.matrix_rank(c, tol=1e-10) == 1


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPositiveSemidefiniteError):
        psd_sqrt_small(np.diag([1.0, -1e-6]))


@pytest.mark.parametrize(
    "solve",
    [
        lambda: eigh_symmetric(np.eye(3)),
        lambda: psd_sqrt_small(np.eye(3)),
        lambda: orthogonalize_keep_largest(FactorMatrix(np.eye(3)), capacity=2),
        lambda: linalg.factor_eigen(FactorMatrix(np.eye(3))),
    ],
    ids=["eigh_symmetric", "psd_sqrt_small", "orthogonalize_keep_largest", "factor_eigen"],
)
def test_nonconverging_eigensolver_raises_convergence_error(monkeypatch, solve):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(linalg.EigenConvergenceError, match="did not converge"):
        solve()


def test_orthogonalize_axis_pair():
    f = FactorMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
    out = orthogonalize_keep_largest(f, capacity=2)
    assert out.ncols == 2
    g = out.columns.T @ out.columns
    assert abs(g[0, 1]) <= 1e-8 * np.sqrt(g[0, 0] * g[1, 1])
    np.testing.assert_allclose(gram(out), gram(f), atol=1e-12)


def test_orthogonalize_drops_duplicate():
    f = FactorMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    out = orthogonalize_keep_largest(f, capacity=2)
    assert out.ncols == 1
    np.testing.assert_allclose(gram(out), gram(f), atol=1e-12)


def test_orthogonalize_empty_input():
    out = orthogonalize_keep_largest(FactorMatrix.empty(5), capacity=3)
    assert out.ncols == 0 and out.rows == 5


def test_orthogonalize_capacity_compression_near_optimal():
    rng = np.random.default_rng(3)
    cols = FactorMatrix(rng.normal(size=(10, 20)))
    out = orthogonalize_keep_largest(cols, capacity=6)
    assert out.ncols == 6
    # pairwise orthogonality
    g = out.columns.T @ out.columns
    norms = np.sqrt(np.diag(g))
    off = g - np.diag(np.diag(g))
    assert np.abs(off).max() <= 1e-8 * np.outer(norms, norms).max()
    # captured mass within factor 2 of the optimal rank-6 truncation
    full = eigh_symmetric(gram(cols))
    best = rebuild(full, np.arange(6))
    err_best = np.linalg.norm(gram(cols) - best)
    err_ours = np.linalg.norm(gram(cols) - gram(out))
    assert err_ours <= 2.0 * err_best + 1e-12
    # span containment: each output column reconstructs from the input columns
    proj, *_ = np.linalg.lstsq(cols.columns, out.columns, rcond=None)
    np.testing.assert_allclose(cols.columns @ proj, out.columns, atol=1e-8)


@pytest.mark.parametrize("seed", range(4))
def test_orthogonalize_full_capacity_preserves_sum(seed):
    rng = np.random.default_rng(50 + seed)
    cols = FactorMatrix(rng.normal(size=(9, 14)))
    out = orthogonalize_keep_largest(cols, capacity=14)
    np.testing.assert_allclose(
        gram(out), gram(cols), atol=1e-10 * np.linalg.norm(gram(cols))
    )


@pytest.mark.parametrize("capacity", [1, 4, 7])
def test_orthogonalize_below_rank_is_optimal_truncation(capacity):
    rng = np.random.default_rng(11)
    cols = FactorMatrix(rng.normal(size=(12, 9)) * np.logspace(0, -2, 9))
    out = orthogonalize_keep_largest(cols, capacity=capacity)
    assert out.ncols == capacity
    best = rebuild(eigh_symmetric(gram(cols)), np.arange(capacity))
    np.testing.assert_allclose(gram(out), best, rtol=0, atol=1e-10 * np.linalg.norm(best))


def test_orthogonalize_graded_norms_preserves_sum():
    rng = np.random.default_rng(12)
    cols = FactorMatrix(rng.normal(size=(15, 10)) * np.logspace(0, -6, 10))
    out = orthogonalize_keep_largest(cols, capacity=10)
    assert out.ncols == 10
    want = gram(cols)
    np.testing.assert_allclose(gram(out), want, rtol=0, atol=1e-10 * np.linalg.norm(want))


@pytest.mark.parametrize("rank", [1, 3, 6])
def test_orthogonalize_never_exceeds_numerical_rank(rank):
    rng = np.random.default_rng(13 + rank)
    cols = FactorMatrix(rng.normal(size=(10, rank)) @ rng.normal(size=(rank, 8)))
    out = orthogonalize_keep_largest(cols, capacity=8)
    assert out.ncols == rank
    want = gram(cols)
    np.testing.assert_allclose(gram(out), want, rtol=0, atol=1e-10 * np.linalg.norm(want))


def test_factor_pinv_single_column():
    f = FactorMatrix(np.array([[2.0], [0.0]]))
    np.testing.assert_allclose(gram(f), np.diag([4.0, 0.0]))
    np.testing.assert_allclose(factor_pinv(f), np.diag([0.25, 0.0]), atol=1e-12)


def test_factor_pinv_duplicate_columns():
    u = np.array([1.0, 2.0, -1.0])
    f = FactorMatrix(np.stack([u, u], axis=1))
    expected = np.outer(u, u) / (2.0 * np.linalg.norm(u) ** 4)
    np.testing.assert_allclose(factor_pinv(f), expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_factor_pinv_matches_spectral(seed):
    rng = np.random.default_rng(200 + seed)
    q = int(rng.integers(6, 17))
    r = int(rng.integers(1, 9))
    f = FactorMatrix(rng.normal(size=(q, r)))
    via_factor = factor_pinv(f)
    e = eigh_symmetric(gram(f))
    rank = int(np.sum(e.eigenvalues > 1e-10 * e.eigenvalues[0]))
    via_spectral = dense_pinv(gram(f), rank)
    scale = np.linalg.norm(via_spectral)
    np.testing.assert_allclose(via_factor, via_spectral, atol=1e-7 * scale)


def test_retained_indices_count_clamps():
    idx = linalg.retained_indices(np.array([3.0, 1.0]), 5)
    np.testing.assert_array_equal(idx, [0, 1])


def test_retained_indices_rejects_bool():
    with pytest.raises(TypeError):
        linalg.retained_indices(np.array([1.0]), True)


@pytest.mark.parametrize("keep", [-3, -0.5, np.nan, np.inf, "largest", 3.0, 0])
def test_retained_indices_refuses_a_bad_rule_even_on_an_empty_spectrum(keep):
    for lam in (np.array([2.0, 1.0]), np.empty(0)):
        with pytest.raises(ValueError, match="keep"):
            linalg.retained_indices(lam, keep)
