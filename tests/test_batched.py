"""Batched primitives equal their per-item scalar calls, bit for bit.

Every stack below mixes spectrum regimes: reflected spectra (s3 < 0),
near-collinear pairs (s2 + s3 -> 0), rank-deficient clouds and scales
up to 1e6.  Equality is ``np.array_equal``, not a tolerance: the batched
bodies do the same floating-point operations as the scalar calls.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from so3denoise.align import AlignmentError, kabsch
from so3denoise.diffusion import MlpDenoiser, mlp_forward
from so3denoise.estimators import DegenerateAlignmentWarning, EstimatorKind, estimator_target
from so3denoise.fisher import ExpansionSingularError, _pairwise_sums, c1, c2, mf_mean_laplace
from so3denoise.geom import center, proper_svd, rotate, sample_haar
from so3denoise.quadrature import NoConvergenceError, mf_mean_quadrature, oracle_conditional_denoiser

SETTINGS = settings(max_examples=60, deadline=None)

# s3 / s2 ratios that put s2 + s3 at or next to zero, plus any ratio
S3_RATIOS = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([-1.0, -1.0 + 1e-12, -1.0 + 1e-9, -1.0 + 1e-6, 0.0]),
)


@st.composite
def spectrum_matrix(draw):
    """``a = r1 diag(s) r2.T`` with s1 up to 1e6 and any sign of s3."""
    s1 = 10.0 ** draw(st.floats(-3.0, 6.0))
    s2 = s1 * draw(st.sampled_from([1.0, 0.5, 1e-3, 1e-9, 0.0]) | st.floats(0.0, 1.0))
    s3 = s2 * draw(S3_RATIOS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r1, r2 = sample_haar(rng, 2)
    return (r1 * np.array([s1, s2, s3])) @ r2.T


@st.composite
def cloud_pair(draw, n_points=7):
    """(y, x): a cloud squashed toward a line or plane, and a rotated,
    possibly reflected, noisy copy of it, at a scale up to 1e6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-2.0, 6.0))
    squash = [1.0] + [draw(st.sampled_from([1.0, 0.3, 1e-4, 1e-10, 0.0])) for _ in range(2)]
    x = center(scale * rng.standard_normal((n_points, 3)) * squash)
    mirror = np.diag([1.0, 1.0, -1.0 if draw(st.booleans()) else 1.0])
    noise = scale * draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.3]))
    y = center(rotate(sample_haar(rng) @ mirror, x) + noise * rng.standard_normal(x.shape))
    return y, x


@SETTINGS
@given(st.lists(spectrum_matrix(), min_size=1, max_size=6))
def test_proper_svd_stack_equals_per_item(mats):
    a = np.stack(mats)
    u, s, v = proper_svd(a)
    assert u.shape == v.shape == a.shape and s.shape == a.shape[:-1]
    for i, m in enumerate(mats):
        ui, si, vi = proper_svd(m)
        assert np.array_equal(ui, u[i]) and np.array_equal(si, s[i]) and np.array_equal(vi, v[i])


@SETTINGS
@given(st.lists(cloud_pair(), min_size=1, max_size=6))
def test_kabsch_stack_equals_per_item(pairs):
    ys, xs = (np.stack(part) for part in zip(*pairs))
    rotation, degenerate = kabsch(ys, xs)
    assert degenerate.shape == (len(pairs),) and degenerate.dtype == bool
    for i, (y, x) in enumerate(pairs):
        one = kabsch(y, x)
        assert isinstance(one.degenerate, bool)
        assert np.array_equal(one.rotation, rotation[i])
        assert one.degenerate == degenerate[i]


# noise levels where numpy's array power rounds sigma**2, and sigma**4, otherwise than
# libm pow (Python's float ``**``) on x86-64 with glibc; both paths now take products,
# and a stack item must still equal its single call
SIGMA_SQUARE_PIN = 0.5212416573669058
SIGMA_FOURTH_PIN = 1.598336239474182
PINNED_SIGMAS = [SIGMA_SQUARE_PIN, SIGMA_FOURTH_PIN]


def _sigma_per_item(sigma, n):
    """``sigma`` as the stack call takes it (one float, or an array of the
    first ``n`` per-item levels) and as the n scalar calls take it."""
    if isinstance(sigma, float):
        return sigma, [sigma] * n
    return np.array(sigma[:n]), [float(s) for s in sigma[:n]]


@example([np.diag([1.0, 0.7, 0.4])] * 2, PINNED_SIGMAS, 1)
@example([np.diag([1.0, 0.7, 0.4])] * 2, PINNED_SIGMAS, 2)
@SETTINGS
@given(
    st.lists(spectrum_matrix(), min_size=1, max_size=6),
    st.floats(1e-3, 10.0) | st.lists(st.floats(1e-3, 10.0), min_size=6, max_size=6),
    st.sampled_from([0, 1, 2]),
)
def test_mf_mean_laplace_stack_equals_per_item(mats, sigma, order):
    a = np.stack(mats)
    sigma, item_sigmas = _sigma_per_item(sigma, len(mats))
    mean, singular = mf_mean_laplace(a, sigma, order)
    spectra = proper_svd(a).s
    expected = _pairwise_sums(spectra)[1] if order else np.zeros(len(a), bool)
    assert np.array_equal(singular, expected)
    for i, (m, s) in enumerate(zip(mats, item_sigmas)):
        if singular[i]:
            with pytest.raises(ExpansionSingularError):
                mf_mean_laplace(m, s, order)
            assert np.all(np.isnan(mean[i]))
            continue
        assert np.array_equal(mf_mean_laplace(m, s, order), mean[i])
    for coeff in (c1, c2):
        rows = coeff(spectra)
        for i, s in enumerate(spectra):
            if _pairwise_sums(s)[1]:
                assert np.all(np.isnan(rows[i]))
            else:
                assert np.array_equal(coeff(s), rows[i])


@SETTINGS
@given(
    st.lists(spectrum_matrix() | st.just(np.zeros((3, 3))), min_size=1, max_size=6),
    st.sampled_from([1e-6, 1e-8, 1e-12]),
)
def test_mf_mean_quadrature_stack_equals_per_item(mats, tol):
    a = np.stack(mats)
    mean, converged = mf_mean_quadrature(a, tol)
    assert mean.shape == a.shape and converged.shape == (len(mats),)
    for i, m in enumerate(mats):
        try:
            one = mf_mean_quadrature(m, tol)
        except NoConvergenceError:
            assert not converged[i] and np.all(np.isnan(mean[i]))
            continue
        assert converged[i] and np.array_equal(one, mean[i])
    # any number of leading axes
    mean2, converged2 = mf_mean_quadrature(a[None], tol)
    assert np.array_equal(mean2[0], mean, equal_nan=True)
    assert np.array_equal(converged2[0], converged)


_EMPTY_PAIRS = np.zeros((0, 7, 3))
# (id, call on an empty stack, shape of each of its two results)
_EMPTY_STACKS = [
    ("mf_mean_laplace", lambda: mf_mean_laplace(np.zeros((0, 3, 3)), 1.0, 2), [(0, 3, 3), (0,)]),
    ("mf_mean_quadrature", lambda: mf_mean_quadrature(np.zeros((0, 3, 3))), [(0, 3, 3), (0,)]),
    ("mf_mean_quadrature-two-axes", lambda: mf_mean_quadrature(np.zeros((2, 0, 3, 3))), [(2, 0, 3, 3), (2, 0)]),
    *((f"estimator_target-{kind.value}",
       lambda kind=kind: estimator_target(kind, _EMPTY_PAIRS, _EMPTY_PAIRS, 0.5,
                                          r_aug=np.zeros((0, 3, 3)) if kind is EstimatorKind.AUG else None),
       [(0, 7, 3), (0,)]) for kind in EstimatorKind),
    ("estimator_target-oracle-per-item-sigma",
     lambda: estimator_target(EstimatorKind.ORACLE, _EMPTY_PAIRS, _EMPTY_PAIRS, np.ones(0)), [(0, 7, 3), (0,)]),
]


@pytest.mark.parametrize("call, shapes", [row[1:] for row in _EMPTY_STACKS], ids=[row[0] for row in _EMPTY_STACKS])
def test_an_empty_stack_returns_empty_results(call, shapes):
    assert [part.shape for part in call()] == shapes


def _pin_pair(seed):
    """A unit-scale cloud and a noisy rotated copy of it."""
    rng = np.random.default_rng(seed)
    x = center(rng.standard_normal((7, 3)))
    return center(rotate(sample_haar(rng), x) + 0.3 * rng.standard_normal(x.shape)), x


PINNED_PAIRS = [_pin_pair(0), _pin_pair(1)]
# a collinear clean cloud (rank-1 cross-covariance) and a zero one: both degenerate alignments
COLLINEAR_PAIR = (PINNED_PAIRS[0][0], center(np.outer(np.arange(7.0), [1.0, 2.0, -0.5])))
ZERO_PAIR = (PINNED_PAIRS[1][0], np.zeros((7, 3)))


def test_per_item_sigma_must_match_the_stack():
    a = np.stack([np.diag([3.0, 2.0, 1.0])] * 3)
    with pytest.raises(ValueError, match="does not match"):
        mf_mean_laplace(a, np.array([0.1, 0.2]), 1)
    with pytest.raises(ValueError, match="does not match"):
        mf_mean_laplace(a[0], np.array([0.1]), 1)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        mf_mean_laplace(a, np.array([0.1, np.nan, 0.2]), 1)
    ys = np.stack([_pin_pair(k)[0] for k in range(3)])
    with pytest.raises(ValueError, match="does not match"):
        estimator_target(EstimatorKind.ORDER0, ys, ys, np.array([0.1, 0.2]))


def _scalar_c1_c2(s):
    """c1 and c2 written out in numpy-scalar arithmetic, one entry at a time."""
    d = [s[1] + s[2], s[0] + s[2], s[0] + s[1]]
    c1 = [-0.5 * (1.0 / d[j] + 1.0 / d[k]) for j, k in ((2, 1), (2, 0), (1, 0))]
    c2 = [-0.125 * (1.0 / (d[j] * d[j]) + 1.0 / (d[k] * d[k])) for j, k in ((2, 1), (2, 0), (1, 0))]
    return np.array(c1), np.array(c2)


# a spectrum whose c2 changes in the last bit when the sums are squared through
# libm pow, which ``** 2`` on a numpy scalar calls, instead of as products
@example([4.776923071241418, 3.86463145078297, 1.9819685813741565])
@SETTINGS
@given(st.lists(st.floats(0.01, 1e6), min_size=3, max_size=3))
def test_c1_c2_match_scalar_arithmetic(spectrum):
    s = np.array(sorted(spectrum, reverse=True))
    want1, want2 = _scalar_c1_c2(s)
    for got, want in ((c1(s), want1), (c2(s), want2), (c1(s[None])[0], want1), (c2(s[None])[0], want2)):
        assert np.array_equal(got, want)


def _scalar_target(kind, y, x, sigma, r_aug):
    """Per-item reference: the target, or None where the scalar call raises."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = estimator_target(kind, y, x, sigma, r_aug=r_aug, tol=1e-8)
    except (ExpansionSingularError, NoConvergenceError):
        return None, False
    return t, any(issubclass(w.category, DegenerateAlignmentWarning) for w in caught)


@st.composite
def pairs_and_sigma(draw):
    """Cloud pairs and one noise level, or one per pair, relative to the
    stack's scale."""
    pairs = draw(st.lists(cloud_pair(), min_size=1, max_size=5))
    xs = np.stack([x for _, x in pairs])
    scale = max(float(np.sqrt(np.mean(xs * xs))), 1e-12)
    rel = draw(st.floats(1e-3, 2.0) | st.lists(st.floats(1e-3, 2.0), min_size=5, max_size=5))
    return pairs, rel * scale if isinstance(rel, float) else [r * scale for r in rel]


@example((PINNED_PAIRS, PINNED_SIGMAS), EstimatorKind.ORACLE, 0)
@example(([PINNED_PAIRS[0], COLLINEAR_PAIR, ZERO_PAIR], 0.3), EstimatorKind.ORDER0, 0)
@example((PINNED_PAIRS, PINNED_SIGMAS), EstimatorKind.ORDER2, 0)
@settings(max_examples=40, deadline=None)
@given(pairs_and_sigma(), st.sampled_from(list(EstimatorKind)), st.integers(0, 2**32 - 1))
def test_estimator_target_stack_equals_per_item(pairs_sigma, kind, seed):
    pairs, sigma = pairs_sigma
    sigma, item_sigmas = _sigma_per_item(sigma, len(pairs))
    ys, xs = (np.stack(part) for part in zip(*pairs))
    r_aug = sample_haar(np.random.default_rng(seed), len(pairs)) if kind is EstimatorKind.AUG else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        targets, keep = estimator_target(kind, ys, xs, sigma, r_aug=r_aug, tol=1e-8)
    batch_warnings = [w for w in caught if issubclass(w.category, DegenerateAlignmentWarning)]
    assert targets.shape == ys.shape and keep.shape == (len(pairs),)
    any_degenerate = False
    for i, ((y, x), s) in enumerate(zip(pairs, item_sigmas)):
        want, warned = _scalar_target(kind, y, x, s, None if r_aug is None else r_aug[i])
        any_degenerate |= warned
        assert keep[i] == (want is not None)
        if want is None:
            assert np.all(np.isnan(targets[i]))
        else:
            assert np.array_equal(want, targets[i])
        if kind is EstimatorKind.ORDER0:  # the order-0 target is the Kabsch alignment
            assert np.array_equal(rotate(kabsch(y, x).rotation, x), targets[i])
    assert len(batch_warnings) == int(any_degenerate)


@SETTINGS
@given(st.lists(cloud_pair(), min_size=1, max_size=4),
       st.lists(st.floats(1e-3, 3.0), min_size=4, max_size=4))
def test_oracle_target_comes_from_the_shared_svd(pairs, rel):
    # planar, near-collinear and reflected pairs at sigma from 1e-3 to 3 times the
    # scale: the single ORACLE target, its stacked item and oracle_conditional_denoiser
    # are one computation, and the spectrum scaled after the SVD moves the oracle by at
    # most rounding from the SVD of y.T @ x / sigma**2
    ys, xs = (np.stack(part) for part in zip(*pairs))
    scale = max(float(np.sqrt(np.mean(xs * xs))), 1e-12)
    sigmas = [r * scale for r in rel[: len(pairs)]]
    targets, keep = estimator_target(EstimatorKind.ORACLE, ys, xs, np.array(sigmas))
    for i, ((y, x), s) in enumerate(zip(pairs, sigmas)):
        try:
            one = estimator_target(EstimatorKind.ORACLE, y, x, s)
        except NoConvergenceError:
            assert not keep[i]
            with pytest.raises(NoConvergenceError):
                oracle_conditional_denoiser(y, x, s)
            continue
        assert keep[i] and np.array_equal(one, targets[i])
        assert np.array_equal(one, oracle_conditional_denoiser(y, x, s))
        scaled_first = x @ mf_mean_quadrature(y.T @ x / s**2).T
        assert np.max(np.abs(one - scaled_first)) <= 1e-12 * np.linalg.norm(x)
    # clouds of different sizes are an alignment error, single and stacked
    for y, x, s in ((ys[0], xs[0, 1:], sigmas[0]), (ys, xs[:, 1:], np.array(sigmas))):
        with pytest.raises(AlignmentError):
            estimator_target(EstimatorKind.ORACLE, y, x, s)
    with pytest.raises(AlignmentError):
        oracle_conditional_denoiser(ys[0], xs[0, 1:], sigmas[0])


@SETTINGS
@given(
    st.integers(1, 9),
    st.integers(1, 33),
    st.integers(1, 12),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_mlp_forward_stack_equals_per_cloud(n_points, hidden, batch, sigma, seed):
    rng = np.random.default_rng(seed)
    m = MlpDenoiser.initialize(n_points, hidden, float(rng.uniform(0.1, 10.0)), rng)
    ys = rng.standard_normal((batch, n_points, 3))
    out = mlp_forward(m, ys, sigma)
    assert out.shape == ys.shape
    for i in range(batch):
        assert np.array_equal(mlp_forward(m, ys[i], sigma), out[i])
    # a cloud's prediction does not depend on the rest of its stack
    assert np.array_equal(mlp_forward(m, ys[::-1], sigma), out[::-1])
