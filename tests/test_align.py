import numpy as np
import pytest

from so3denoise.align import AlignmentError, aligned_rmsd, kabsch, rmsd
from so3denoise.geom import center, frobenius_norm_sq, rotate, sample_haar


def random_pair(rng, n=8, noise=0.2):
    x = center(rng.standard_normal((n, 3)))
    y = center(rotate(sample_haar(rng), x) + noise * rng.standard_normal((n, 3)))
    return y, x


def test_kabsch_self_alignment_is_identity():
    rng = np.random.default_rng(0)
    x = center(rng.standard_normal((8, 3)))
    result = kabsch(x, x)
    assert not result.degenerate
    np.testing.assert_allclose(result.rotation, np.eye(3), atol=1e-12)


def test_kabsch_exact_recovery():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = center(rng.standard_normal((6, 3)))
        r = sample_haar(rng)
        rec = kabsch(rotate(r, x), x).rotation
        assert np.max(np.abs(rec - r)) < 1e-10


def test_kabsch_beats_sampled_rotations():
    rng = np.random.default_rng(2)
    y, x = random_pair(rng, n=8, noise=1.0)
    best = kabsch(y, x).rotation
    obj = frobenius_norm_sq(y - rotate(best, x))
    sampled = sample_haar(rng, 1_000_000)
    gains = np.einsum("ij,nij->n", y.T @ x, sampled)
    sampled_min = frobenius_norm_sq(y) + frobenius_norm_sq(x) - 2 * gains.max()
    assert obj <= sampled_min


def test_kabsch_errors():
    with pytest.raises(AlignmentError):
        kabsch(np.zeros((3, 3)), np.zeros((4, 3)))
    with pytest.raises(AlignmentError):
        kabsch(np.zeros((4, 3)), np.ones((4, 3)))


def test_kabsch_degenerate_flag_for_collinear_points():
    line = center(np.array([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0], [4.0, 0, 0]]))
    result = kabsch(line, line)
    assert result.degenerate


def test_rmsd_values():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    assert rmsd(a, a) == 0.0
    b = a - 1.0
    assert rmsd(a, b) == pytest.approx(np.sqrt(3.0), rel=1e-14)
    r = sample_haar(rng)
    c = rng.standard_normal((5, 3))
    assert rmsd(rotate(r, a), rotate(r, c)) == pytest.approx(rmsd(a, c), rel=1e-12)
    with pytest.raises(AlignmentError):
        rmsd(a, np.zeros((4, 3)))


def test_aligned_rmsd_recovers_rotations():
    rng = np.random.default_rng(4)
    x = center(rng.standard_normal((8, 3)))
    r = sample_haar(rng)
    assert aligned_rmsd(rotate(r, x), x) < 1e-10


def test_aligned_rmsd_lower_bounds_rmsd():
    rng = np.random.default_rng(5)
    for _ in range(30):
        y, x = random_pair(rng, noise=0.8)
        assert aligned_rmsd(y, x) <= rmsd(y, x) + 1e-12


def test_aligned_rmsd_beats_sampled_rotations():
    rng = np.random.default_rng(6)
    y, x = random_pair(rng, noise=0.5)
    base = aligned_rmsd(y, x)
    sampled = sample_haar(rng, 10_000)
    for r in sampled[:: 100]:
        assert base <= rmsd(y, rotate(r, x)) + 1e-12
    # vectorized check over the full sample via the trace identity
    gains = np.einsum("ij,nij->n", y.T @ x, sampled)
    objs = frobenius_norm_sq(y) + frobenius_norm_sq(x) - 2 * gains
    assert base * base * y.shape[0] <= objs.min() + 1e-12


def test_equivariance_in_first_argument():
    rng = np.random.default_rng(8)
    for _ in range(100):
        y, x = random_pair(rng)
        r = sample_haar(rng)
        lhs = kabsch(rotate(r, y), x).rotation
        rhs = r @ kabsch(y, x).rotation
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_kabsch_maximizes_trace_gain_on_dense_sample():
    rng = np.random.default_rng(9)
    y, x = random_pair(rng)
    a = y.T @ x
    best_gain = np.sum(a * kabsch(y, x).rotation)
    sampled = sample_haar(rng, 50_000)
    gains = np.einsum("ij,nij->n", a, sampled)
    assert best_gain >= gains.max()
