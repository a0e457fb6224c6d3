import numpy as np
import pytest
from scipy import stats

from so3denoise.geom import (
    center,
    frobenius_norm_sq,
    proper_svd,
    rotate,
    sample_haar,
)


def is_rotation(m, tol=1e-12):
    """True if the 3x3 ``m`` is orthogonal with unit determinant within ``tol``."""
    return np.linalg.norm(m.T @ m - np.eye(3)) <= tol and abs(np.linalg.det(m) - 1.0) <= tol


def test_center_already_centered_unchanged():
    pc = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    np.testing.assert_array_equal(center(pc), pc)


def test_center_subtracts_centroid():
    pc = np.array([[2.0, 0, 0], [0.0, 0, 0]])
    np.testing.assert_allclose(center(pc), [[1, 0, 0], [-1, 0, 0]], atol=1e-15)


def test_center_idempotent_and_zero_column_sums():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pc = rng.standard_normal((7, 3)) * 10
        c = center(pc)
        bound = 1e-12 * pc.shape[0] * np.max(np.abs(pc))
        assert np.max(np.abs(c.sum(axis=0))) <= bound
        np.testing.assert_allclose(center(c), c, atol=1e-13 * np.max(np.abs(pc)))


def test_rotate_identity_and_associativity():
    rng = np.random.default_rng(1)
    pc = rng.standard_normal((5, 3))
    np.testing.assert_array_equal(rotate(np.eye(3), pc), pc)
    r1, r2 = sample_haar(rng), sample_haar(rng)
    np.testing.assert_allclose(rotate(r1 @ r2, pc), rotate(r1, rotate(r2, pc)), atol=1e-14)


def test_rotate_axis_flip():
    r = np.diag([1.0, -1.0, -1.0])
    np.testing.assert_allclose(rotate(r, np.array([[0.0, 1.0, 0.0]])), [[0, -1, 0]], atol=1e-15)


def test_frobenius_norm_sq_values():
    assert frobenius_norm_sq(np.zeros((4, 3))) == 0.0
    assert frobenius_norm_sq(np.array([[1.0, 0, 0], [0, 2.0, 0]])) == 5.0


def test_frobenius_norm_sq_rotation_invariant():
    rng = np.random.default_rng(2)
    pc = rng.standard_normal((9, 3))
    ref = frobenius_norm_sq(pc)
    for _ in range(25):
        val = frobenius_norm_sq(rotate(sample_haar(rng), pc))
        assert abs(val - ref) <= 1e-12 * ref


def test_sample_haar_matrices_are_rotations_and_close_under_product():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r1, r2 = sample_haar(rng), sample_haar(rng)
        assert is_rotation(r1)
        assert is_rotation(r1 @ r2)


def test_sample_haar_first_moments():
    rng = np.random.default_rng(4)
    m = sample_haar(rng, 1_000_000)
    assert np.max(np.abs(m.mean(axis=0))) <= 5e-3
    tr = np.trace(m, axis1=1, axis2=2)
    assert abs(tr.mean()) <= 5e-3
    assert abs(np.mean(tr * tr) - 1.0) <= 1e-2


def test_sample_haar_invariance_ks():
    # left translation by a fixed rotation should not change the trace law
    rng = np.random.default_rng(5)
    r0 = sample_haar(rng)
    m = sample_haar(rng, 100_000)
    plain = np.trace(m, axis1=1, axis2=2)
    translated = np.trace(r0 @ m, axis1=1, axis2=2)
    assert stats.ks_2samp(plain, translated).pvalue > 0.01


def test_proper_svd_diagonal_cases():
    u, s, v = proper_svd(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(u, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(v, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(s, [3, 2, 1], atol=1e-15)

    u, s, v = proper_svd(np.diag([3.0, 2.0, -1.0]))
    np.testing.assert_allclose(s, [3, 2, -1], atol=1e-15)
    np.testing.assert_allclose(u @ np.diag(s) @ v.T, np.diag([3.0, 2.0, -1.0]), atol=1e-14)
    np.testing.assert_allclose(np.abs(u), np.eye(3), atol=1e-15)
    np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-15)


def test_proper_svd_random_reconstruction():
    rng = np.random.default_rng(6)
    for _ in range(200):
        a = rng.standard_normal((3, 3))
        if np.linalg.cond(a) >= 1e6:
            continue
        u, s, v = proper_svd(a)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.det(v) == pytest.approx(1.0, abs=1e-12)
        assert s[0] >= s[1] >= abs(s[2])
        rel = np.linalg.norm(u @ np.diag(s) @ v.T - a) / np.linalg.norm(a)
        assert rel < 1e-10


def test_proper_svd_rejects_nonfinite():
    bad = np.eye(3)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        proper_svd(bad)

