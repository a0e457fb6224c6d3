import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0, i0e, i1

import so3denoise.quadrature as quad
from so3denoise.estimators import EstimatorKind, error_sweep, estimator_target
from so3denoise.fisher import mf_mean_laplace
from so3denoise.geom import (
    center, frobenius_norm_sq, haar_from_normals, proper_svd, rotate, sample_haar, transpose,
)
from so3denoise.quadrature import NoConvergenceError, mf_mean_quadrature, oracle_conditional_denoiser
from so3_reference import grid_moments, log_partition, posterior_mean, so3_grid_global


def test_global_grid_invariants():
    for n in (8, 16):
        g = so3_grid_global(n)
        assert g.rotations.shape == (n**3, 3, 3)
        assert np.all(g.weights > 0)
        assert abs(g.weights.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        so3_grid_global(1)


def test_global_grid_haar_moments():
    for n in (8, 16):
        grid_moments(n)


@pytest.mark.parametrize(
    "spectrum", [(2.0, 1.0, 0.5), (8.0, 3.0, -2.0), (5.0, 5.0, -4.99), (20.0, 10.0, 1.0)]
)
def test_mean_quadrature_matches_global_grid(spectrum):
    # two independent paths: the 1-D Bessel integral and a fine grid over SO(3)
    rng = np.random.default_rng(8)
    r1, r2 = sample_haar(rng), sample_haar(rng)
    f = r1 @ np.diag(spectrum) @ r2.T
    ref = posterior_mean(f, so3_grid_global(48))
    est = mf_mean_quadrature(f, tol=1e-12)
    assert np.max(np.abs(est - ref)) <= 1e-10


@pytest.mark.parametrize("s1", [1e4, 1e6])
def test_mean_quadrature_needle_limit(s1):
    # as s1 -> inf the posterior of Q22 tends to exp(6 cos t) on a circle,
    # so E[Q22] -> I1(6)/I0(6) with an O(1/s1) gap
    m = mf_mean_quadrature(np.diag([s1, 5.0, 1.0]), tol=1e-10)
    assert abs(m[1, 1] - i1(6.0) / i0(6.0)) <= 1.0 / s1


def test_partition_uniform_and_jensen():
    g = so3_grid_global(16)
    assert log_partition(np.zeros((3, 3)), g) == pytest.approx(0.0, abs=1e-12)
    z = np.exp(log_partition(np.diag([0.1, 0.1, 0.1]), g))
    assert z > 1.0


def test_partition_self_convergence():
    f = np.diag([5.0, 4.0, 3.0])
    z32 = np.exp(log_partition(f, so3_grid_global(32)))
    z64 = np.exp(log_partition(f, so3_grid_global(64)))
    assert abs(z32 - z64) / z64 < 1e-8


def test_log_partition_no_overflow_extreme_concentration():
    logz = log_partition(np.diag([1e6, 9e5, 8e5]), so3_grid_global(16))
    assert np.isfinite(logz)


def test_mean_quadrature_uniform_is_zero():
    m = mf_mean_quadrature(np.zeros((3, 3)), tol=1e-10)
    assert np.max(np.abs(m)) < 1e-10


def test_mean_quadrature_matches_expansion_at_high_concentration():
    lam = 100.0
    m = mf_mean_quadrature(np.diag([lam, lam, lam]), tol=1e-8)
    d = 1.0 - 1.0 / (2 * lam) - 1.0 / (16 * lam**2)
    np.testing.assert_allclose(np.diag(m), [d, d, d], atol=1e-5)
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) < 1e-8


def test_mean_quadrature_rotation_covariance():
    rng = np.random.default_rng(1)
    tol = 1e-8
    f = rng.standard_normal((3, 3)) * 3.0
    base = mf_mean_quadrature(f, tol=tol)
    for _ in range(5):
        r1, r2 = sample_haar(rng), sample_haar(rng)
        moved = mf_mean_quadrature(r1 @ f @ r2.T, tol=tol)
        assert np.max(np.abs(moved - r1 @ base @ r2.T)) < 2 * tol


def test_mean_quadrature_finite_for_huge_concentration():
    m = mf_mean_quadrature(np.diag([1e6, 9e5, 8e5]), tol=1e-8)
    assert np.all(np.isfinite(m))
    np.testing.assert_allclose(np.diag(m), np.ones(3), atol=1e-5)


@pytest.mark.parametrize("scale", [1e20, 1e24])
def test_mean_quadrature_far_above_the_bessel_range_is_the_identity(scale):
    mean, converged = mf_mean_quadrature(np.stack([np.diag([1.0, 0.8, 0.5]) * scale]))
    assert converged.tolist() == [True]
    assert np.array_equal(mean[0], np.eye(3))


def test_mean_quadrature_non_finite_diagonal_is_not_converged():
    # from a concentration of about 1e25 both Bessel sums underflow to 0, so the
    # diagonal is 0/0: a stack flags the item, a single call raises, numpy warns of
    # nothing (a RuntimeWarning fails the test)
    huge = np.diag([1e30, 8e29, 5e29])
    mean, converged = mf_mean_quadrature(np.stack([huge, np.diag([3.0, 2.0, 1.0]), huge * 1e-4]))
    assert converged.tolist() == [False, True, False]
    assert np.all(np.isnan(mean[[0, 2]])) and np.all(np.isfinite(mean[1]))
    with pytest.raises(NoConvergenceError, match=r"posterior mean is not finite \(concentration 1e\+30\)"):
        mf_mean_quadrature(huge)


def test_mean_quadrature_no_convergence_states_the_last_change(monkeypatch):
    # a needle-like posterior that one halving of the start step cannot resolve to 1e-12
    monkeypatch.setattr(quad, "_MAX_HALVINGS", 1)
    f = np.diag([4000.0, 1.0, 0.5])
    with pytest.raises(NoConvergenceError, match=r"did not converge to tol=1e-12 in 1 halvings, "
                       r"last max\|d - prev\| = \S+ \(concentration 4e\+03\)"):
        mf_mean_quadrature(f, tol=1e-12)
    # a stack flags the item instead of raising
    mean, converged = mf_mean_quadrature(np.stack([f, np.zeros((3, 3))]), tol=1e-12)
    assert converged.tolist() == [False, True]
    assert np.all(np.isnan(mean[0])) and np.all(np.isfinite(mean[1]))
    # no comparison with a NaN tol is true, and every difference is below an infinite
    # one: either would let this needle pass as converged after one halving
    for bad in (0.0, -1e-12, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            mf_mean_quadrature(f, tol=bad)


@pytest.mark.parametrize("spectrum", [(1e6, 5.0, 1.0), (1000.0, 1000.0, -999.99)])
def test_mean_quadrature_hard_spectra_converge_in_two_halvings(monkeypatch, spectrum):
    # the 1e6 needle and a near-collinear reflected pair (s2 + s3 = 0.01) stop by
    # h = 1/64 (449 nodes) even at tol 1e-12
    monkeypatch.setattr(quad, "_MAX_HALVINGS", 2)
    m = mf_mean_quadrature(np.diag(spectrum), tol=1e-12)
    assert np.all(np.isfinite(m))


def _level_by_level(f, tol):
    """mf_mean_quadrature's refinement with each level's nodes in a Bessel pass of
    its own: the means of a stack and the last level each item was refined at."""
    u, s, v = proper_svd(f)
    num, den = sums = np.array(quad._level_sums(s, (0,))[0])
    d = prev = 1.0 - num / den
    pending = np.ones(len(s), dtype=bool)
    last = np.zeros(len(s), dtype=int)
    for level in range(1, quad._MAX_HALVINGS + 1):
        if not pending.any():
            break
        sums[:, pending] += quad._level_sums(s[pending], (level,))[0]
        prev, d = d, d.copy()
        d[pending] = 1.0 - num[pending] / den[pending]
        last[pending] = level
        pending &= np.max(np.abs(d - prev), axis=1) >= tol
    return (u * d[:, None, :]) @ transpose(v), ~pending, last


@pytest.mark.parametrize("tol, n_stop_levels", [(1e-6, 1), (1e-16, 5)])
def test_fused_first_pass_matches_level_by_level_bit_for_bit(tol, n_stop_levels):
    # levels 0 and 1 share one Bessel pass but are summed apart, so every check and
    # every later halving sees the same numbers; at the sweep's tol 1e-6 every item
    # stops at level 1, at tol 1e-16 they stop at levels 1 to 6 and one never converges
    # (which of them converge at 1e-16 is a matter of the last bit)
    rng = np.random.default_rng(17)
    spectra = [(1e6, 5.0, 1.0), (1000.0, 1000.0, -999.99), (1e6, 1e6, -1e6 + 1e-2), (1e5, 1e5, 1e5),
               (5.0, 1.0, -0.9), (0.0, 0.0, 0.0), (5e5, 5e5, -499999.9), (1e5, 10.0, -9.99),
               (1e6, 1e-3, -1e-3)]
    f = np.concatenate([
        [np.diag(spectrum) for spectrum in spectra],
        rng.standard_normal((12, 3, 3)) * np.geomspace(1e-2, 1e4, 12)[:, None, None],
    ])
    s = proper_svd(f).s
    for fused, alone in zip(quad._level_sums(s, (0, 1)), [quad._level_sums(s, (k,))[0] for k in (0, 1)]):
        assert np.array(fused).tobytes() == np.array(alone).tobytes()
    mean, converged = mf_mean_quadrature(f, tol)
    ref_mean, ref_converged, last = _level_by_level(f, tol)
    assert converged.tolist() == ref_converged.tolist()
    assert mean[converged].tobytes() == ref_mean[converged].tobytes()
    assert len(set(last.tolist())) >= n_stop_levels
    if n_stop_levels > 1:  # the halving cap is reached too
        assert not converged.all()
    assert mf_mean_quadrature(f[0], tol).tobytes() == ref_mean[0].tobytes()


def _mixed_arguments():
    z = np.concatenate([
        np.linspace(0.0, 1e6, 100001), np.geomspace(1e-12, 1e6, 20001),
        [8.0, 700.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), np.nextafter(700.0, 0.0),
         np.nextafter(700.0, 701.0)],
    ])
    np.random.default_rng(3).shuffle(z)
    return z


def _level_sums_arguments():
    """The (2, B, 3, n) array that ``_level_sums`` passes to ``_i0e`` for six items
    from diffuse to sharp: both series, and arguments above 700, where I0 overflows."""
    seen, i0e = [], quad._i0e
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_i0e", lambda z: seen.append(z) or i0e(z))
        f = np.random.default_rng(4).standard_normal((6, 3, 3)) * np.geomspace(1.0, 3e4, 6)[:, None, None]
        quad._level_sums(proper_svd(f).s, (0, 1))
    [z] = seen
    assert z.shape == (2, 6, 3, 225) and (z <= 8.0).any() and (z > 8.0).any() and (z > 700.0).any()
    return z


I0E_ARGUMENTS = {
    "mixed": _mixed_arguments,
    "level-sums-stack": _level_sums_arguments,
    "endpoints": lambda: np.array([8.0, 700.0]),
    "all-up-to-8": lambda: np.linspace(0.0, 8.0, 1001),
    "all-in-8-to-700": lambda: np.linspace(np.nextafter(8.0, 9.0), 700.0, 1001),
    "all-above-700": lambda: np.geomspace(np.nextafter(700.0, 701.0), 1e300, 1001),
    "empty": lambda: np.empty(0),
}


@pytest.mark.parametrize("arguments", I0E_ARGUMENTS.values(), ids=I0E_ARGUMENTS)
def test_i0e_matches_both_forms_bit_for_bit(arguments):
    # Cephes' i0e, the series in z / 2 - 2 up to z = 8 and the one in 32 / z - 2 above
    z = arguments()
    out = quad._i0e(z)
    assert out.shape == z.shape
    assert out.tobytes() == i0e(z).tobytes()


def test_the_oracle_does_not_call_np_i0(monkeypatch):
    # np.i0 sums its series on new temporaries and scales them by exp(z): the oracle
    # sums Cephes' i0e series in place, each over its own arguments
    def refuse(z):
        raise AssertionError("np.i0 was called")

    monkeypatch.setattr(np, "i0", refuse)
    rng = np.random.default_rng(5)
    x = center(rng.standard_normal((8, 3)))  # a bench-shaped sweep: 8 points, six levels, one draw each
    x /= np.sqrt(np.mean(np.sum(x * x, axis=1)))
    records = error_sweep(x, [0.01, 0.1, 0.2, 0.3, 0.5, 1.0], 1, 5201)
    assert len(records) == 24 and all(r.n_excluded == 0 for r in records)
    # a diffuse, a moderate and a sharp item: arguments in both Cephes intervals, z <= 8
    # and above, past where I0 itself would overflow
    mean, converged = mf_mean_quadrature(np.stack([np.diag([2.0, 1.0, 0.5]), np.diag([300.0, 200.0, 100.0]),
                                                   np.diag([3e4, 2e4, 1e4])]))
    assert converged.all() and np.isfinite(mean).all()


def _langevin(kappa: float) -> float:
    """coth(k) - 1/k, by its series where the closed form cancels."""
    if kappa < 1e-2:
        return kappa / 3 - kappa**3 / 45 + 2 * kappa**5 / 945
    return 1.0 / np.tanh(kappa) - 1.0 / kappa


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 6.0), st.integers(0, 2**32 - 1))
def test_mean_quadrature_rank_one_closed_form(log_kappa, seed):
    # for f = U diag(k, 0, 0) V^T only R e1 is constrained; its law on the sphere
    # is von Mises-Fisher, whose mean resultant length is the Langevin function
    kappa = 10.0**log_kappa
    u, v = sample_haar(np.random.default_rng(seed), 2)
    f = kappa * np.outer(u[:, 0], v[:, 0])
    m = mf_mean_quadrature(f, tol=1e-10)
    want = _langevin(kappa) * np.outer(u[:, 0], v[:, 0])
    # rounded to floating point, f has s2, s3 of order kappa * eps, not 0; the
    # mean answers them with Q22 and Q33 of at most their size
    s = proper_svd(f).s
    assert np.max(np.abs(m - want)) <= 1e-12 + abs(s[1]) + abs(s[2])


# unit-scale 8-point clouds; an observation of each is drawn at sigma 0.1, 0.3, 1 and 3
MC_CLOUDS = {
    "generic": lambda rng: rng.standard_normal((8, 3)),
    "near-collinear": lambda rng: np.outer(rng.standard_normal(8), [1.0, 2.0, -0.5])
    + 0.05 * rng.standard_normal((8, 3)),
    "near-planar": lambda rng: rng.standard_normal((8, 3)) * [1.0, 0.8, 0.05],
}


@pytest.mark.parametrize("cloud", MC_CLOUDS)
def test_oracle_agrees_with_the_generative_process(cloud):
    # y = center(x R^T + sigma eta) with R Haar; the oracle target x M^T claims
    # M = E[R | y], so for any target T(y) the residual
    #   |x R^T - T|^2 - (|x|^2 - |x M^T|^2) - |x M^T - T|^2
    # has mean zero over draws.  Checked for T = the oracle and T = the alignment
    # from the generative process alone, with no formula of the Bessel reduction.
    seed = list(MC_CLOUDS).index(cloud)
    x = center(MC_CLOUDS[cloud](np.random.default_rng([12, seed])))
    x /= np.sqrt(frobenius_norm_sq(x) / len(x))
    n = 1000
    for k, sigma in enumerate([0.1, 0.3, 1.0, 3.0]):
        rng = np.random.default_rng([seed, k])
        r_aug = haar_from_normals(rng.standard_normal((n, 4)))
        clean = x @ transpose(r_aug)
        ys = center(clean + sigma * rng.standard_normal((n, *x.shape)))
        xs = np.broadcast_to(x, ys.shape)
        oracle, converged = estimator_target(EstimatorKind.ORACLE, ys, xs, sigma)
        order0, kept = estimator_target(EstimatorKind.ORDER0, ys, xs, sigma)
        assert converged.all() and kept.all()
        irreducible = frobenius_norm_sq(x) - np.sum(oracle * oracle, axis=(1, 2))
        for name, target in (("oracle", oracle), ("order0", order0)):
            residual = (np.sum((clean - target) ** 2, axis=(1, 2)) - irreducible
                        - np.sum((oracle - target) ** 2, axis=(1, 2)))
            z = residual.mean() / (residual.std(ddof=1) / np.sqrt(n))
            assert abs(z) <= 4.0, (cloud, sigma, name, z)


def test_oracle_uniform_limit():
    rng = np.random.default_rng(2)
    x = center(rng.standard_normal((8, 3)))
    y = center(rotate(sample_haar(rng), x) + 0.1 * rng.standard_normal((8, 3)))
    tol = 1e-6
    out = oracle_conditional_denoiser(y, x, 1e4, tol=tol)
    assert np.sqrt(frobenius_norm_sq(out)) < tol * np.sqrt(frobenius_norm_sq(x))


def test_oracle_vs_expansion_slope():
    rng = np.random.default_rng(4)
    x = center(rng.standard_normal((8, 3)))
    y = center(rotate(sample_haar(rng), x) + 0.1 * rng.standard_normal((8, 3)))
    a = y.T @ x
    a /= proper_svd(a).s[0]
    sigmas = np.array([0.05, 0.08, 0.12, 0.2, 0.3])
    errs = []
    for s in sigmas:
        exact = mf_mean_quadrature(a / s**2, tol=1e-8)
        errs.append(np.max(np.abs(mf_mean_laplace(a, s, 2) - exact)))
    slope = np.polyfit(np.log(sigmas), np.log(errs), 1)[0]
    assert slope >= 4.5
