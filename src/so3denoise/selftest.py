"""Built-in invariant suites behind the ``selftest`` subcommand.

Each check is a quick, self-contained verification of a core contract:
grid normalization, Haar-density mass, alignment optimality and
commutation, expansion coefficients against quadrature, oracle
symmetries, gradient correctness and the DDIM closed forms.  ``run``
prints one line per check and returns a process exit code.
"""

from __future__ import annotations

import numpy as np

from .align import aligned_rmsd, kabsch, rmsd
from .diffusion import DdimSchedule, MlpDenoiser, ddim_sample, loss_and_grad, mlp_forward
from .estimators import EstimatorKind, averaging_offset_check, estimator_target
from .fisher import MatrixFisher, c1, c2, mf_mean_laplace
from .geom import center, exp_map, frobenius_norm_sq, proper_svd, rotate, sample_haar
from .quadrature import mf_mean_quadrature, so3_grid_global


def _random_pair(rng, n=8, noise=0.15):
    x = center(rng.standard_normal((n, 3)))
    r = sample_haar(rng)
    y = center(rotate(r, x) + noise * rng.standard_normal((n, 3)))
    return y, x


def _check_grid_moments(fast):
    g = so3_grid_global(16)
    assert abs(g.weights.sum() - 1.0) <= 1e-12, "weights not normalized"
    mean_rot = np.einsum("n,nij->ij", g.weights, g.rotations)
    assert np.max(np.abs(mean_rot)) <= 1e-10, "Haar first moment not zero"
    tr = np.trace(g.rotations, axis1=1, axis2=2)
    assert abs(np.sum(g.weights * tr * tr) - 1.0) <= 1e-8, "trace^2 moment off"


def _check_expmap_density_mass(fast):
    from .geom import _expmap_density

    r, w = np.polynomial.legendre.leggauss(200)
    r = (r + 1.0) * (np.pi / 2.0)
    w = w * (np.pi / 2.0)
    mass = np.sum(w * 4.0 * np.pi * r**2 * _expmap_density(r))
    assert abs(mass - 1.0) <= 1e-6, f"density mass {mass}"


def _check_geom_roundtrips(fast):
    rng = np.random.default_rng(11)
    for _ in range(20 if fast else 200):
        theta = rng.standard_normal(3)
        norm = np.linalg.norm(theta)
        if norm > np.pi:
            theta *= (np.pi / norm) * rng.uniform(0, 1)
        r = exp_map(theta)
        assert np.max(np.abs(r @ exp_map(-theta) - np.eye(3))) <= 1e-12, "exp-map inverse"
        a = rng.standard_normal((3, 3))
        u, s, v = proper_svd(a)
        rel = np.linalg.norm((u * s) @ v.T - a) / np.linalg.norm(a)
        assert rel <= 1e-10, f"svd reconstruction {rel}"


def _check_kabsch(fast):
    rng = np.random.default_rng(12)
    x = center(rng.standard_normal((8, 3)))
    r = sample_haar(rng)
    rec = kabsch(rotate(r, x), x).rotation
    assert np.max(np.abs(rec - r)) <= 1e-10, "exact recovery"
    n_rot = 20_000 if fast else 200_000
    for _ in range(3 if fast else 10):
        y, x = _random_pair(rng)
        best = kabsch(y, x).rotation
        obj = frobenius_norm_sq(y - rotate(best, x))
        sampled = sample_haar(rng, n_rot)
        vals = np.einsum("ij,nij->n", y.T @ x, sampled)
        sampled_obj = frobenius_norm_sq(y) + frobenius_norm_sq(x) - 2.0 * vals.max()
        assert obj <= sampled_obj + 1e-12, "brute-force optimality"


def _check_commutation(fast):
    rng = np.random.default_rng(13)
    for _ in range(100 if fast else 1000):
        y, x = _random_pair(rng)
        r = sample_haar(rng)
        lhs = kabsch(rotate(r, y), rotate(r, x)).rotation
        rhs = r @ kabsch(y, x).rotation @ r.T
        assert np.linalg.norm(lhs - rhs) <= 1e-10, "alignment-augmentation commutation"


def _check_expansion_coeffs(fast):
    got = c1(np.array([2.0, 1.0, 0.0]))
    want = np.array([-5.0 / 12.0, -2.0 / 3.0, -0.75])
    assert np.max(np.abs(got - want)) <= 1e-15, "c1 spot values"
    got = c2(np.array([2.0, 1.0, 0.0]))
    want = np.array([-13.0 / 288.0, -5.0 / 36.0, -5.0 / 32.0])
    assert np.max(np.abs(got - want)) <= 1e-15, "c2 spot values"


def _check_laplace_vs_quadrature(fast):
    rng = np.random.default_rng(14)
    y, x = _random_pair(rng)
    a = y.T @ x
    a /= proper_svd(a).s[0]
    sigma = 0.12
    exact = mf_mean_quadrature(MatrixFisher(a / sigma**2), 1e-8)
    errs = [np.max(np.abs(mf_mean_laplace(a, sigma, k) - exact)) for k in (0, 1, 2)]
    assert errs[0] > errs[1] > errs[2], f"error ordering {errs}"
    assert errs[2] <= 1e-6, f"order-2 error {errs[2]}"


def _check_oracle_symmetries(fast):
    rng = np.random.default_rng(15)
    tol = 1e-8
    for _ in range(3 if fast else 10):
        y, x = _random_pair(rng, noise=0.1)
        r = sample_haar(rng)
        sigma = 0.1
        base = estimator_target(EstimatorKind.ORACLE, y, x, sigma, tol=tol)
        equi = estimator_target(EstimatorKind.ORACLE, rotate(r, y), x, sigma, tol=tol)
        scale = np.sqrt(frobenius_norm_sq(x))
        assert np.max(np.abs(equi - rotate(r, base))) <= 2 * tol * scale, "oracle equivariance"
        inv = estimator_target(EstimatorKind.ORACLE, y, rotate(r, x), sigma, tol=tol)
        assert np.max(np.abs(inv - base)) <= 2 * tol * scale, "conditioning invariance"


def _check_gradients(fast):
    rng = np.random.default_rng(16)
    for _ in range(2 if fast else 5):
        model = MlpDenoiser.initialize(4, 8, 1.0, rng)
        x = center(rng.standard_normal((4, 3)))
        batch = []
        for _ in range(3):
            r = sample_haar(rng)
            y = center(rotate(r, x) + 0.3 * rng.standard_normal((4, 3)))
            batch.append((y, x, r))
        _, grads, _ = loss_and_grad(model, batch, 0.3, EstimatorKind.ORDER0)
        h = 1e-5
        for name in ("w1", "b1", "w2", "b2"):
            p = getattr(model, name)
            idx = tuple(rng.integers(d) for d in p.shape)
            p[idx] += h
            lp = loss_and_grad(model, batch, 0.3, EstimatorKind.ORDER0).loss
            p[idx] -= 2 * h
            lm = loss_and_grad(model, batch, 0.3, EstimatorKind.ORDER0).loss
            p[idx] += h
            fd = (lp - lm) / (2 * h)
            g = grads[name][idx]
            assert abs(g - fd) <= 1e-5 * max(abs(g), abs(fd), 1e-4), f"gradient {name}{idx}"


def _check_ddim(fast):
    rng = np.random.default_rng(17)
    schedule = DdimSchedule((1.0, 0.5, 0.25, 0.0))
    y0 = ddim_sample(lambda y, s: y, schedule, 6, np.random.default_rng(3))
    y_init = center(1.0 * np.random.default_rng(3).standard_normal((6, 3)))
    assert np.array_equal(y0, y_init), "identity denoiser fixed point"
    z = ddim_sample(lambda y, s: np.zeros_like(y), schedule, 6, rng)
    assert np.all(z == 0.0), "zero denoiser telescopes to zero"


def _check_averaging_offset(fast):
    rng = np.random.default_rng(18)
    tol = 1e-8
    for _ in range(2 if fast else 5):
        y, x = _random_pair(rng, noise=0.2)
        probes = [x, np.zeros_like(x), center(rng.standard_normal(x.shape))]
        spread = averaging_offset_check(y, x, 0.2, probes, tol=tol)
        assert spread <= 4 * tol * frobenius_norm_sq(x), f"offset spread {spread}"


_CHECKS = [
    ("grid-moments", _check_grid_moments),
    ("expmap-density-mass", _check_expmap_density_mass),
    ("geom-roundtrips", _check_geom_roundtrips),
    ("kabsch-optimality", _check_kabsch),
    ("alignment-commutation", _check_commutation),
    ("expansion-coefficients", _check_expansion_coeffs),
    ("laplace-vs-quadrature", _check_laplace_vs_quadrature),
    ("oracle-symmetries", _check_oracle_symmetries),
    ("mlp-gradients", _check_gradients),
    ("ddim-closed-forms", _check_ddim),
    ("averaging-offset", _check_averaging_offset),
]


def run(fast: bool = False) -> int:
    failures = 0
    for name, fn in _CHECKS:
        try:
            fn(fast)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        except Exception as exc:  # a crashing check fails; the others still run
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return 0 if failures == 0 else 1
