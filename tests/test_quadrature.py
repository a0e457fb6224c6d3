import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0, i1

import so3denoise.quadrature as quad
from so3denoise.fisher import MatrixFisher, mf_mean_laplace
from so3denoise.geom import center, frobenius_norm_sq, proper_svd, rotate, sample_haar, transpose
from so3denoise.quadrature import (
    NoConvergenceError,
    mf_log_partition,
    mf_mean_quadrature,
    oracle_conditional_denoiser,
    so3_grid_global,
)


def posterior_mean(f, grid):
    """E[R] under exp(Tr[f^T R]) dHaar as a log-shifted weighted sum over grid nodes."""
    logp = np.einsum("ij,nij->n", f, grid.rotations)
    w = grid.weights * np.exp(logp - logp.max())
    return np.einsum("n,nij->ij", w, grid.rotations) / w.sum()


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
        g = so3_grid_global(n)
        mean = np.einsum("n,nij->ij", g.weights, g.rotations)
        assert np.max(np.abs(mean)) <= 1e-10
        tr = np.trace(g.rotations, axis1=1, axis2=2)
        assert abs(np.sum(g.weights * tr**2) - 1.0) <= 1e-8


@pytest.mark.parametrize(
    "spectrum", [(2.0, 1.0, 0.5), (8.0, 3.0, -2.0), (5.0, 5.0, -4.99), (20.0, 10.0, 1.0)]
)
def test_mean_quadrature_matches_global_grid(spectrum):
    # two independent paths: the 1-D Bessel integral and a fine grid over SO(3)
    rng = np.random.default_rng(8)
    r1, r2 = sample_haar(rng), sample_haar(rng)
    f = r1 @ np.diag(spectrum) @ r2.T
    ref = posterior_mean(f, so3_grid_global(48))
    est = mf_mean_quadrature(MatrixFisher(f), tol=1e-12)
    assert np.max(np.abs(est - ref)) <= 1e-10


@pytest.mark.parametrize("s1", [1e4, 1e6])
def test_mean_quadrature_needle_limit(s1):
    # as s1 -> inf the posterior of Q22 tends to exp(6 cos t) on a circle,
    # so E[Q22] -> I1(6)/I0(6) with an O(1/s1) gap
    m = mf_mean_quadrature(MatrixFisher(np.diag([s1, 5.0, 1.0])), tol=1e-10)
    assert abs(m[1, 1] - i1(6.0) / i0(6.0)) <= 1.0 / s1


def test_partition_uniform_and_jensen():
    g = so3_grid_global(16)
    uniform = MatrixFisher(np.zeros((3, 3)))
    assert mf_log_partition(uniform, g) == pytest.approx(0.0, abs=1e-12)
    z = np.exp(mf_log_partition(MatrixFisher(np.diag([0.1, 0.1, 0.1])), g))
    assert z > 1.0


def test_partition_self_convergence():
    p = MatrixFisher(np.diag([5.0, 4.0, 3.0]))
    z32 = np.exp(mf_log_partition(p, so3_grid_global(32)))
    z64 = np.exp(mf_log_partition(p, so3_grid_global(64)))
    assert abs(z32 - z64) / z64 < 1e-8


def test_log_partition_no_overflow_extreme_concentration():
    p = MatrixFisher(np.diag([1e6, 9e5, 8e5]))
    logz = mf_log_partition(p, so3_grid_global(16))
    assert np.isfinite(logz)


def test_mean_quadrature_uniform_is_zero():
    m = mf_mean_quadrature(MatrixFisher(np.zeros((3, 3))), tol=1e-10)
    assert np.max(np.abs(m)) < 1e-10


def test_mean_quadrature_matches_expansion_at_high_concentration():
    lam = 100.0
    m = mf_mean_quadrature(MatrixFisher(np.diag([lam, lam, lam])), tol=1e-8)
    d = 1.0 - 1.0 / (2 * lam) - 1.0 / (16 * lam**2)
    np.testing.assert_allclose(np.diag(m), [d, d, d], atol=1e-5)
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) < 1e-8


def test_mean_quadrature_rotation_covariance():
    rng = np.random.default_rng(1)
    tol = 1e-8
    f = rng.standard_normal((3, 3)) * 3.0
    base = mf_mean_quadrature(MatrixFisher(f), tol=tol)
    for _ in range(5):
        r1, r2 = sample_haar(rng), sample_haar(rng)
        moved = mf_mean_quadrature(MatrixFisher(r1 @ f @ r2.T), tol=tol)
        assert np.max(np.abs(moved - r1 @ base @ r2.T)) < 2 * tol


def test_mean_quadrature_finite_for_huge_concentration():
    m = mf_mean_quadrature(MatrixFisher(np.diag([1e6, 9e5, 8e5])), tol=1e-8)
    assert np.all(np.isfinite(m))
    np.testing.assert_allclose(np.diag(m), np.ones(3), atol=1e-5)


def test_mean_quadrature_no_convergence_carries_estimates(monkeypatch):
    # a needle-like posterior that one halving of the start step cannot resolve to 1e-12
    monkeypatch.setattr(quad, "_MAX_HALVINGS", 1)
    p = MatrixFisher(np.diag([4000.0, 1.0, 0.5]))
    with pytest.raises(NoConvergenceError) as excinfo:
        mf_mean_quadrature(p, tol=1e-12)
    assert excinfo.value.last.shape == (3, 3)
    assert excinfo.value.previous.shape == (3, 3)
    # a stack flags the item instead of raising
    mean, converged = mf_mean_quadrature(np.stack([p.f, np.zeros((3, 3))]), tol=1e-12)
    assert converged.tolist() == [False, True]
    assert np.all(np.isnan(mean[0])) and np.all(np.isfinite(mean[1]))
    # no comparison with a NaN tol is true, and every difference is below an infinite
    # one: either would let this needle pass as converged after one halving
    for bad in (0.0, -1e-12, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            mf_mean_quadrature(p, tol=bad)


@pytest.mark.parametrize("spectrum", [(1e6, 5.0, 1.0), (1000.0, 1000.0, -999.99)])
def test_mean_quadrature_hard_spectra_converge_in_two_halvings(monkeypatch, spectrum):
    # the 1e6 needle and a near-collinear reflected pair (s2 + s3 = 0.01) stop by
    # h = 1/64 (449 nodes) even at tol 1e-12
    monkeypatch.setattr(quad, "_MAX_HALVINGS", 2)
    m = mf_mean_quadrature(MatrixFisher(np.diag(spectrum)), tol=1e-12)
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
    # stops at level 1, at tol 1e-16 they stop at levels 1 to 4 and two never converge
    rng = np.random.default_rng(17)
    spectra = [(1e6, 5.0, 1.0), (1000.0, 1000.0, -999.99), (1e6, 1e6, -1e6 + 1e-2), (1e5, 1e5, 1e5),
               (5.0, 1.0, -0.9), (0.0, 0.0, 0.0)]
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
    assert mf_mean_quadrature(MatrixFisher(f[0]), tol).tobytes() == ref_mean[0].tobytes()


def test_i0e_matches_both_forms_bit_for_bit():
    # np.i0(z) e^-z up to the switch at z = 700, the Hankel expansion past it
    z = np.concatenate([
        np.linspace(0.0, 1e6, 100001), np.geomspace(1e-12, 1e6, 20001),
        [8.0, 700.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), np.nextafter(700.0, 0.0),
         np.nextafter(700.0, 701.0)],
    ])
    np.random.default_rng(3).shuffle(z)
    out = quad._i0e(z)
    small = z <= quad._I0E_SWITCH
    zs, zl = z[small], z[~small]
    assert out[small].tobytes() == (np.i0(zs) * np.exp(-zs)).tobytes()
    hankel = np.polynomial.polynomial.polyval(1.0 / zl, quad._HANKEL_I0) / np.sqrt(2.0 * np.pi * zl)
    assert out[~small].tobytes() == hankel.tobytes()
    assert quad._i0e(np.array([8.0, 700.0])).tobytes() == (np.i0([8.0, 700.0]) * np.exp([-8.0, -700.0])).tobytes()


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
    m = mf_mean_quadrature(MatrixFisher(f), tol=1e-10)
    want = _langevin(kappa) * np.outer(u[:, 0], v[:, 0])
    # rounded to floating point, f has s2, s3 of order kappa * eps, not 0; the
    # mean answers them with Q22 and Q33 of at most their size
    s = proper_svd(f).s
    assert np.max(np.abs(m - want)) <= 1e-12 + abs(s[1]) + abs(s[2])


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
        exact = mf_mean_quadrature(MatrixFisher(a / s**2), tol=1e-8)
        errs.append(np.max(np.abs(mf_mean_laplace(a, s, 2) - exact)))
    slope = np.polyfit(np.log(sigmas), np.log(errs), 1)[0]
    assert slope >= 4.5
