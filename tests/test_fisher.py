import numpy as np
import pytest

from so3denoise.fisher import ExpansionSingularError, c1, c2, mf_mean_laplace
from so3denoise.geom import center, proper_svd, sample_haar
from so3denoise.quadrature import mf_mean_quadrature
from so3denoise.selftest import LAPLACE_SIGMAS, laplace_vs_quadrature
from so3_reference import so3_grid_global


def log_density_unnorm(f, r):
    """Unnormalized matrix Fisher log density Tr[f^T r]."""
    return float(np.sum(f * r))


def test_log_density_values():
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert log_density_unnorm(np.zeros((3, 3)), sample_haar(rng)) == 0.0
    assert log_density_unnorm(np.diag([2.5, 2.5, 2.5]), np.eye(3)) == pytest.approx(7.5)


def test_log_density_maximized_at_mode():
    # the mode of MF(f) is the order-0 term of the expansion for y.T @ x = f
    rng = np.random.default_rng(2)
    f = rng.standard_normal((3, 3)) * 2.0
    mode = mf_mean_laplace(f, 1.0, 0)
    best = log_density_unnorm(f, mode)
    grid = so3_grid_global(24)
    gains = np.einsum("ij,nij->n", f, grid.rotations)
    assert best >= gains.max()
    sampled = sample_haar(rng, 100_000)
    gains = np.einsum("ij,nij->n", f, sampled)
    assert best >= gains.max()


def test_mode_special_cases():
    np.testing.assert_allclose(mf_mean_laplace(np.eye(3), 1.0, 0), np.eye(3), atol=1e-14)
    r = sample_haar(np.random.default_rng(3))
    np.testing.assert_allclose(mf_mean_laplace(r, 1.0, 0), r, atol=1e-12)


def test_c1_c2_spot_values():
    np.testing.assert_allclose(c1(np.array([1.0, 1, 1])), [-0.5, -0.5, -0.5], rtol=1e-15)
    np.testing.assert_allclose(
        c1(np.array([2.0, 1.0, 0.0])), [-5.0 / 12.0, -2.0 / 3.0, -3.0 / 4.0], rtol=1e-15
    )
    np.testing.assert_allclose(c2(np.array([1.0, 1, 1])), [-1.0 / 16] * 3, rtol=1e-15)
    np.testing.assert_allclose(
        c2(np.array([2.0, 1.0, 0.0])), [-13.0 / 288.0, -5.0 / 36.0, -5.0 / 32.0], rtol=1e-15
    )


@pytest.mark.parametrize("s", [0.5, 1.0, 4.0])
def test_c1_c2_symmetric_spectrum(s):
    spectrum = np.array([s, s, s])
    np.testing.assert_allclose(c1(spectrum), [-1.0 / (2 * s)] * 3, rtol=1e-15)
    np.testing.assert_allclose(c2(spectrum), [-1.0 / (16 * s * s)] * 3, rtol=1e-15)


def test_expansion_singular_raised():
    with pytest.raises(ExpansionSingularError):
        c1(np.array([1.0, 0.5, -0.5]))
    with pytest.raises(ExpansionSingularError):
        c2(np.array([0.0, 0.0, 0.0]))


@pytest.mark.parametrize("shape", [(2,), (3, 2), ()])
def test_c1_rejects_a_shape_that_is_not_a_spectrum(shape):
    with pytest.raises(ValueError, match=r"expected a singular spectrum \(s1, s2, s3\)"):
        c1(np.ones(shape))


def test_mean_laplace_symmetric_case():
    out = mf_mean_laplace(np.eye(3), 0.1, 2)
    np.testing.assert_allclose(out, np.eye(3) * 0.99499375, rtol=1e-12)


def test_mean_laplace_order0_is_mode():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3))
    u, _, v = proper_svd(a)
    np.testing.assert_array_equal(mf_mean_laplace(a, 0.2, 0), u @ v.T)


def test_mean_laplace_nesting_bit_exact():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3))
    sigma = 0.13
    u, s, v = proper_svd(a)
    order1 = mf_mean_laplace(a, sigma, 1)
    manual = (u * (np.ones(3) + sigma**2 * c1(s))) @ v.T
    np.testing.assert_array_equal(order1, manual)
    # zeroing the top correction must reproduce the lower order bitwise
    zero_c2 = (u * (np.ones(3) + sigma**2 * c1(s) + sigma**4 * np.zeros(3))) @ v.T
    np.testing.assert_array_equal(order1, zero_c2)


def test_mean_laplace_rotation_covariance():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        r1, r2 = sample_haar(rng), sample_haar(rng)
        for order in (0, 1, 2):
            lhs = mf_mean_laplace(r1 @ a @ r2.T, 0.15, order)
            rhs = r1 @ mf_mean_laplace(a, 0.15, order) @ r2.T
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_mean_laplace_singular_values_below_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.standard_normal((3, 3))
        s = proper_svd(a).s
        coeff = c1(s)
        sigma = 0.9 / np.sqrt(np.max(np.abs(coeff)))  # sigma^2 max|c1| < 1
        out = mf_mean_laplace(a, sigma, 2)
        assert np.all(np.linalg.svd(out, compute_uv=False) <= 1.0 + 1e-12)


def test_mean_laplace_order1_vs_quadrature_example():
    # symmetric concentration at sigma^2 = 0.04
    exact = mf_mean_quadrature(np.eye(3) / 0.04, tol=1e-8)
    order1 = mf_mean_laplace(np.eye(3), 0.2, 1)
    order0 = mf_mean_laplace(np.eye(3), 0.2, 0)
    assert np.max(np.abs(order1 - exact)) < 5e-4
    assert np.max(np.abs(order0 - exact)) == pytest.approx(2e-2, rel=0.2)


def test_mean_laplace_convergence_slopes():
    # per-order error against quadrature decays with slope >= 2(k+1) - 0.5, on C03's
    # inputs and errors
    _, errs = laplace_vs_quadrature(np.random.default_rng(2024))
    for k, floor in ((0, 1.5), (1, 3.5), (2, 5.5)):
        slope = np.polyfit(np.log(LAPLACE_SIGMAS), np.log(errs[k]), 1)[0]
        assert slope >= floor, f"order {k}: slope {slope}"
    # the rate alone does not bound the error: at sigma = 0.12 the orders rank and
    # order 2 is within 1e-6
    assert LAPLACE_SIGMAS[2] == 0.12
    assert errs[0][2] > errs[1][2] > errs[2][2]
    assert errs[2][2] <= 1e-6, f"order-2 error {errs[2][2]}"


def test_mean_laplace_argument_validation():
    with pytest.raises(ValueError):
        mf_mean_laplace(np.eye(3), -0.1, 0)
    with pytest.raises(ValueError):
        mf_mean_laplace(np.eye(3), 0.1, 3)
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            mf_mean_laplace(np.eye(3), sigma, 0)
    # a finite sigma whose power overflows is named, not pow's OverflowError
    for sigma, order, power in ((1e80, 2, r"1e\+80\*\*4"), (1e160, 1, r"1e\+160\*\*2"),
                                (np.array([0.1, 1e160]), 1, r"1e\+160\*\*2")):
        a = np.eye(3) if np.ndim(sigma) == 0 else np.stack([np.eye(3)] * 2)
        with pytest.raises(ValueError, match=f"{power} overflows a float"):
            mf_mean_laplace(a, sigma, order)
    assert np.all(np.isfinite(mf_mean_laplace(np.eye(3), 1e76, 2)))
