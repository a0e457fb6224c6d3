import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3denoise.align import _MSD_FLOOR, _QCP_SWITCH, AlignmentError, _spectral_rmsd, aligned_rmsd, kabsch, rmsd
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
    # a zero cross-covariance is a degenerate alignment: every rotation is optimal
    result = kabsch(np.zeros((4, 3)), np.ones((4, 3)))
    assert result.degenerate is True
    np.testing.assert_array_equal(result.rotation, np.eye(3))


def test_aligned_rmsd_of_zero_cross_covariance_is_rmsd():
    rng = np.random.default_rng(10)
    x = center(rng.standard_normal((6, 3)))
    # points of y and x never pair up as nonzero vectors, so y.T @ x is zero
    y = np.zeros((4, 3))
    y[:2, 0] = [1.0, -1.0]
    z = np.zeros((4, 3))
    z[2:, 1] = [2.0, -2.0]
    assert not (y.T @ z).any()
    for a, b in ((y, z), (z, y), (np.zeros((6, 3)), x), (x, np.zeros((6, 3)))):
        assert aligned_rmsd(a, b) == rmsd(a, b)


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


@st.composite
def spectral_pair(draw):
    """(a, b, n): clouds of n points at a scale from 1e-100 to 1e100, b a rotated, possibly
    reflected, noisy copy of a; planar and collinear clouds, near-planar and near-collinear
    ones at every thinness from 1e-3 to 1 (reflected, they put s2 + sign(det) s3 on both sides
    of the QCP switch), and pairs whose cross-covariance is zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 12))
    scale = 10.0 ** draw(st.floats(-100.0, 100.0))
    if draw(st.integers(0, 5)) == 0:  # points that never pair up as nonzero vectors
        a, b = np.zeros((n, 3)), np.zeros((n, 3))
        a[:2, 0] = [scale, -scale]
        b[2:4, 1] = [-2.0 * scale, 2.0 * scale]
        assert not (a.T @ b).any()
        return a, b, n
    thin = st.floats(-3.0, 0.0).map(lambda p: 10.0**p)
    squash = [1.0] + [draw(st.sampled_from([1.0, 0.3, 1e-4, 1e-10, 0.0]) | thin) for _ in range(2)]
    a = center(scale * rng.standard_normal((n, 3)) * squash)
    mirror = np.diag([1.0, 1.0, -1.0 if draw(st.booleans()) else 1.0])  # det(a.T @ b) < 0
    noise = scale * draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.3, 3.0]))
    b = center(rotate(sample_haar(rng) @ mirror, a) + noise * rng.standard_normal(a.shape))
    return a, b * 10.0 ** draw(st.floats(-1.0, 1.0)), n


def _qcp_and_svd_pairs(n):
    """Two pairs of n-point clouds: one with a well-separated spectrum, which QCP scores, and a
    collinear one, whose double root takes the SVD."""
    axes = np.resize([[3.0, 0, 0], [-3.0, 0, 0], [0, 2.0, 0], [0, -2.0, 0], [0, 0, 1.0], [0, 0, -1.0]], (n, 3))
    line = np.outer(np.linspace(-1.0, 1.0, n), [1.0, 2.0, 2.0])
    r = sample_haar(np.random.default_rng(n))
    return (center(axes), rotate(r, center(axes))), (line, rotate(r, line))


# the formula's rounding (at most ~9 eps seen) plus the floor below which it reads 0
SPECTRAL_BOUND = 32 * np.finfo(float).eps
assert _MSD_FLOOR <= SPECTRAL_BOUND / 2


@settings(max_examples=300, deadline=None)
@given(spectral_pair())
def test_spectral_rmsd_agrees_with_kabsch_within_its_cancellation_bound(pair):
    # |delta msd| <= 32 eps (|a|^2 + |b|^2) / N against the rotate-and-subtract path
    a, b, n = pair
    a_sq, b_sq = np.sum(a * a), np.sum(b * b)
    got, want = _spectral_rmsd(a, b, b_sq), aligned_rmsd(a, b)
    assert abs(got * got - want * want) <= SPECTRAL_BOUND * (a_sq + b_sq) / n
    # a stack item gets the bits of its single call, its |b|^2 summed in the stack, in a
    # stack that also holds a pair that QCP scores and one that the SVD scores
    (g, g_rot), (line, line_rot) = _qcp_and_svd_pairs(n)
    firsts, seconds = np.stack([a, b, g, line]), np.stack([b, a, g_rot, line_rot])
    stacked = _spectral_rmsd(firsts, seconds, np.sum(seconds * seconds, axis=(-2, -1)))
    singles = [_spectral_rmsd(x, y, np.sum(y * y)) for x, y in zip(firsts, seconds)]
    assert np.array_equal(stacked, singles) and singles[0] == got


def test_spectral_rmsd_of_coinciding_clouds_is_exactly_zero():
    rng = np.random.default_rng(11)
    line = center(np.outer(rng.standard_normal(6), rng.standard_normal(3)))
    clouds = [center(rng.standard_normal((n, 3))) * scale for n in (4, 8, 30) for scale in (1e-100, 1.0, 1e100)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in clouds + [line, np.zeros((5, 3))]:
            assert _spectral_rmsd(x, x, np.sum(x * x)) == 0.0
            assert _spectral_rmsd(rotate(sample_haar(rng), x), x, np.sum(x * x)) == 0.0


def test_spectral_rmsd_takes_the_svd_only_for_near_degenerate_pairs(monkeypatch):
    # a bench-shaped probe block: 16 steps of 16 predictions of 8 points against their clean
    # frames, jittered copies of one unit cloud (σ 0.5 noise on the predictions)
    rng = np.random.default_rng(35)
    base = center(rng.standard_normal((8, 3)))
    xs = center(base / np.sqrt(np.mean(np.sum(base * base, axis=1))) + 0.05 * rng.standard_normal((16, 8, 3)))
    preds = rotate(sample_haar(rng, 256).reshape(16, 16, 3, 3), xs) + 0.5 * rng.standard_normal((16, 16, 8, 3))
    xs_sq = np.sum(xs * xs, axis=(-2, -1))
    want = aligned_rmsd(preds, np.broadcast_to(xs, preds.shape))
    # every pair's root is well separated from the next: P'(l1) / l1^3 is at least twice the switch
    s = np.linalg.svd(np.swapaxes(preds, -1, -2) @ xs, compute_uv=False)
    s[..., 2] *= np.sign(np.linalg.det(np.swapaxes(preds, -1, -2) @ xs))
    l1 = s.sum(axis=-1)
    gaps = 8 * (s[..., 1] + s[..., 2]) * (s[..., 0] + s[..., 2]) * (s[..., 0] + s[..., 1])
    assert (gaps >= 2 * _QCP_SWITCH * l1**3).all()

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    got = _spectral_rmsd(preds, xs, xs_sq)
    assert (np.abs(got**2 - want**2) <= SPECTRAL_BOUND * (np.sum(preds * preds, axis=(-2, -1)) + xs_sq) / 8).all()
    # a collinear pair's double root does reach the SVD, in a stack and on its own
    (g, g_rot), (line, line_rot) = _qcp_and_svd_pairs(8)
    assert np.isfinite(_spectral_rmsd(g, g_rot, np.sum(g_rot * g_rot)))
    for firsts, seconds in ((line, line_rot), (np.stack([g, line]), np.stack([g_rot, line_rot]))):
        with pytest.raises(AssertionError, match="np.linalg.svd was called"):
            _spectral_rmsd(firsts, seconds, np.sum(seconds * seconds, axis=(-2, -1)))


def test_spectral_rmsd_of_reflected_near_collinear_pairs_keeps_its_bound():
    # thin clouds (widths 1e-20 to 1e-3 of their length) against a reflected copy: l1 and l2
    # nearly meet, and a Newton step from the upper bound can land below l2
    for seed in range(3000):
        rng = np.random.default_rng(seed)
        t = 10.0 ** rng.uniform(-20.0, -3.0)
        a = center(rng.standard_normal((8, 3)) * [1.0, t, t * rng.uniform(0.5, 1.0)])
        b = center(rotate(sample_haar(rng) @ np.diag([1.0, 1.0, -1.0]), a) + 1e-8 * t * rng.standard_normal((8, 3)))
        a_sq, b_sq = np.sum(a * a), np.sum(b * b)
        got, want = _spectral_rmsd(a, b, b_sq), aligned_rmsd(a, b)
        assert abs(got * got - want * want) <= SPECTRAL_BOUND * (a_sq + b_sq) / 8
