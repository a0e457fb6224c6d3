"""Built-in invariant suites behind the ``selftest`` subcommand.

Each check is a quick, self-contained verification of a core contract:
SVD reconstruction, alignment optimality and commutation, expansion
coefficients against quadrature, oracle symmetries, the averaging
offset, gradient correctness and the DDIM closed forms.  ``run``
prints one line per check and returns a process exit code.

The public check functions are the bodies of the acceptance criteria
C01-C03, C05, C06, C08 and of the closed-form part of C07
(``tests/test_acceptance.py`` calls them with its own seeds and sample
counts); ``selftest`` runs the same bodies at reduced sizes.  C10 checks
the brute-force grid over SO(3), which lives with the tests.
Each takes an RNG (or seed) and its sample counts, raises
:class:`CheckFailed` (an ``AssertionError`` that ``python -O`` does not
strip) when the invariant fails and returns the figure its acceptance
PASS line prints, or None where that line prints only its inputs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .align import kabsch
from .diffusion import DdimSchedule, MlpDenoiser, _batch_loss_and_grad, ddim_sample, noise_sample
from .estimators import EstimatorKind, estimator_target
from .fisher import c1, c2, mf_mean_laplace
from .geom import _quat_to_matrix, center, frobenius_norm_sq, proper_svd, rotate, sample_haar
from .quadrature import mf_mean_quadrature

# noise levels of the order-0/1/2 error ladder in ``laplace_vs_quadrature`` (C03)
LAPLACE_SIGMAS = np.array([0.05, 0.08, 0.12, 0.2, 0.3])


class CheckFailed(AssertionError):
    """An invariant does not hold.  Raised explicitly, so ``python -O`` keeps the checks."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _homogeneous_gain_matrix(a: np.ndarray) -> np.ndarray:
    """4x4 K with q^T K q = <R(q/|q|), a> * |q|^2, built by polarization.

    Uses the same quaternion-to-matrix conversion as the sampler, so the
    quadratic form cannot drift from the sampled rotations.
    """

    def g(q):
        q = np.asarray(q, dtype=float)
        n2 = q @ q
        return float(np.sum(_quat_to_matrix(q / np.sqrt(n2)) * a)) * n2

    k = np.zeros((4, 4))
    basis = np.eye(4)
    diag = [g(basis[i]) for i in range(4)]
    for i in range(4):
        k[i, i] = diag[i]
        for j in range(i + 1, 4):
            k[i, j] = k[j, i] = 0.5 * (g(basis[i] + basis[j]) - diag[i] - diag[j])
    return k


def kabsch_optimality(rng: np.random.Generator, n_pairs: int, n_rot: int) -> None:
    """C01: the Kabsch objective beats ``n_rot`` sampled rotations on each pair."""
    for trial in range(n_pairs):
        x = center(rng.standard_normal((8, 3)))
        y = center(rng.standard_normal((8, 3)))
        a = y.T @ x
        best_obj = frobenius_norm_sq(y - rotate(kabsch(y, x).rotation, x))
        k = _homogeneous_gain_matrix(a)
        q = rng.standard_normal((n_rot, 4))
        gains = np.einsum("ni,ni->n", q @ k, q) / np.einsum("ni,ni->n", q, q)
        if trial == 0:
            # validate the quadratic form against direct conversion on a subsample
            sub = q[:1000]
            direct = np.einsum(
                "ij,nij->n", a, _quat_to_matrix(sub / np.linalg.norm(sub, axis=1, keepdims=True))
            )
            _require(np.max(np.abs(direct - np.einsum("ni,ni->n", sub @ k, sub)
                                   / np.einsum("ni,ni->n", sub, sub))) < 1e-12, "gain matrix")
        sampled_obj = frobenius_norm_sq(y) + frobenius_norm_sq(x) - 2.0 * gains.max()
        _require(best_obj <= sampled_obj, f"trial {trial}: {best_obj} > {sampled_obj}")


def alignment_commutation(rng: np.random.Generator, n_triples: int) -> float:
    """C02: aligning rotated clouds conjugates the alignment; returns the worst deviation."""
    worst = 0.0
    for _ in range(n_triples):
        x = center(rng.standard_normal((8, 3)))
        y = center(rotate(sample_haar(rng), x) + 0.3 * rng.standard_normal((8, 3)))
        r = sample_haar(rng)
        lhs = kabsch(rotate(r, y), rotate(r, x)).rotation
        rhs = r @ kabsch(y, x).rotation @ r.T
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    _require(worst < 1e-10, f"max Frobenius deviation {worst}")
    return worst


def laplace_vs_quadrature(
    rng: np.random.Generator,
) -> tuple[dict[int, float], dict[int, list[float]]]:
    """C03: log-log slopes of the order-0/1/2 errors against quadrature, by order.

    Returns the slopes and the errors behind them, one per sigma in
    ``LAPLACE_SIGMAS``.
    """
    x = center(rng.standard_normal((8, 3)))
    y = center(rotate(sample_haar(rng), x) + 0.15 * rng.standard_normal((8, 3)))
    a = y.T @ x
    a /= proper_svd(a).s[0]  # unit-scale spectrum
    sigmas = LAPLACE_SIGMAS
    exact, converged = mf_mean_quadrature(np.stack([a / s**2 for s in sigmas]), tol=1e-8)
    _require(converged.all(), "quadrature did not converge")
    errs = {
        k: [float(np.max(np.abs(mf_mean_laplace(a, s, k) - e))) for s, e in zip(sigmas, exact)]
        for k in (0, 1, 2)
    }
    slopes = {}
    for k, floor in ((0, 1.5), (1, 3.5), (2, 4.5)):
        slopes[k] = float(np.polyfit(np.log(sigmas), np.log(errs[k]), 1)[0])
        _require(slopes[k] >= floor, f"order {k}: slope {slopes[k]} < {floor}")
    return slopes, errs


def oracle_symmetries(rng: np.random.Generator, n_draws: int) -> tuple[float, float]:
    """C05: oracle equivariance in y and invariance in x; worst deviations in tol*|x|."""
    tol = 1e-8
    worst_equi = worst_inv = 0.0
    for _ in range(n_draws):
        x = center(rng.standard_normal((8, 3)))
        sigma = float(rng.uniform(0.05, 0.15)) * np.sqrt(frobenius_norm_sq(x) / 8)
        y = center(rotate(sample_haar(rng), x) + sigma * rng.standard_normal((8, 3)))
        r = sample_haar(rng)
        scale = np.sqrt(frobenius_norm_sq(x))
        base = estimator_target(EstimatorKind.ORACLE, y, x, sigma, tol=tol)
        equi = estimator_target(EstimatorKind.ORACLE, rotate(r, y), x, sigma, tol=tol)
        worst_equi = max(worst_equi, float(np.max(np.abs(equi - rotate(r, base)))) / (tol * scale))
        inv = estimator_target(EstimatorKind.ORACLE, y, rotate(r, x), sigma, tol=tol)
        worst_inv = max(worst_inv, float(np.max(np.abs(inv - base))) / (tol * scale))
    _require(worst_equi < 2.0 and worst_inv < 2.0, f"dev/(tol*|x|) {worst_equi} / {worst_inv}")
    return worst_equi, worst_inv


def averaging_offset(rng: np.random.Generator, n_instances: int) -> None:
    """C06: averaging a target shifts the loss by the same constant for every probe.

    For each probe output ``d`` computes, from the posterior mean,
    ``delta(d) = E_R[||d - R x||^2] - ||d - E_R[R] x||^2`` and bounds the
    spread ``|delta(d_i) - delta(d_0)|`` by ``4 tol |x|^2``.  The averaging
    identity predicts the spread is zero (delta is the same constant for
    every d).  The first term is linear in R,
    ``E_R[||d - R x||^2] = |d|^2 + |x|^2 - 2 <d, E_R[R] x>``, so every
    expectation comes from one quadrature of E_R[R].
    """
    tol = 1e-8
    for _ in range(n_instances):
        x = center(rng.standard_normal((8, 3)))
        sigma = float(rng.uniform(0.1, 0.4))
        y = center(rotate(sample_haar(rng), x) + sigma * rng.standard_normal((8, 3)))
        probes = [x, np.zeros_like(x), center(rng.standard_normal(x.shape))]
        mean_x = estimator_target(EstimatorKind.ORACLE, y, x, sigma, tol=tol)
        deltas = [frobenius_norm_sq(d) + frobenius_norm_sq(x) - 2.0 * np.sum(d * mean_x)
                  - frobenius_norm_sq(d - mean_x) for d in probes]
        spread = max(abs(dl - deltas[0]) for dl in deltas)
        _require(spread < 4 * tol * frobenius_norm_sq(x), f"spread {spread}")


def ddim_closed_forms(seed: int, n_points: int) -> None:
    """C07 closed forms: the identity denoiser keeps the start, the zero one reaches 0."""
    schedule = DdimSchedule((1.0, 0.5, 0.2, 0.0))
    seed_rng = np.random.default_rng(seed)
    out = ddim_sample(lambda y, s: y, schedule, n_points, np.random.default_rng(seed))
    np.testing.assert_array_equal(out, center(1.0 * seed_rng.standard_normal((n_points, 3))))
    zero = ddim_sample(
        lambda y, s: np.zeros_like(y), schedule, n_points, np.random.default_rng(seed + 1)
    )
    np.testing.assert_array_equal(zero, np.zeros((n_points, 3)))


def _gradient_pairs(rng: np.random.Generator):
    """C08's ``(name, index, analytic, central difference)`` per parameter: ORDER0 targets made once."""
    model, h = MlpDenoiser.initialize(4, 8, 1.0, rng), 1e-5
    x = center(rng.standard_normal((4, 3)))
    ys, xs = np.stack([noise_sample(x, 0.3, rng)[0] for _ in range(2)]), np.stack([x, x])
    targets, keep = estimator_target(EstimatorKind.ORDER0, ys, xs, 0.3)
    grad, scratch = (replace(model, theta=np.empty_like(model.theta)) for _ in range(2))
    _batch_loss_and_grad(model, ys, targets, keep, 0.3, grad)
    for name in ("w1", "b1", "w2", "b2"):
        p, g = getattr(model, name), getattr(grad, name)
        for idx in np.ndindex(*p.shape):
            p[idx] += h
            lp = _batch_loss_and_grad(model, ys, targets, keep, 0.3, scratch)[0]
            p[idx] -= 2 * h
            lm = _batch_loss_and_grad(model, ys, targets, keep, 0.3, scratch)[0]
            p[idx] += h
            yield name, idx, g[idx], (lp - lm) / (2 * h)


def mlp_gradients(rng: np.random.Generator, n_models: int) -> int:
    """C08: every analytic parameter gradient matches central differences; returns the count."""
    pairs = [pair for _ in range(n_models) for pair in _gradient_pairs(rng)]
    for name, idx, grad, fd in pairs:
        _require(abs(grad - fd) <= 1e-5 * max(abs(grad), abs(fd), 1e-4), f"{name}{idx}: analytic {grad} vs fd {fd}")
    return len(pairs)


def _check_geom_roundtrips(fast):
    rng = np.random.default_rng(11)
    for _ in range(20 if fast else 200):
        a = rng.standard_normal((3, 3))
        u, s, v = proper_svd(a)
        rel = np.linalg.norm((u * s) @ v.T - a) / np.linalg.norm(a)
        _require(rel <= 1e-10, f"svd reconstruction {rel}")


def _check_expansion_coeffs(fast):
    got = c1(np.array([2.0, 1.0, 0.0]))
    want = np.array([-5.0 / 12.0, -2.0 / 3.0, -0.75])
    _require(np.max(np.abs(got - want)) <= 1e-15, "c1 spot values")
    got = c2(np.array([2.0, 1.0, 0.0]))
    want = np.array([-13.0 / 288.0, -5.0 / 36.0, -5.0 / 32.0])
    _require(np.max(np.abs(got - want)) <= 1e-15, "c2 spot values")


def _sized(check, seed, fast_counts, full_counts):
    """A ``(fast) -> figure`` check running ``check`` on a fresh RNG at either size."""
    return lambda fast: check(np.random.default_rng(seed), *(fast_counts if fast else full_counts))


_CHECKS = [
    ("geom-roundtrips", _check_geom_roundtrips),
    ("kabsch-optimality", _sized(kabsch_optimality, 12, (3, 20_000), (10, 200_000))),
    ("alignment-commutation", _sized(alignment_commutation, 13, (100,), (1000,))),
    ("expansion-coefficients", _check_expansion_coeffs),
    ("laplace-vs-quadrature", _sized(laplace_vs_quadrature, 14, (), ())),
    ("oracle-symmetries", _sized(oracle_symmetries, 15, (3,), (10,))),
    ("mlp-gradients", _sized(mlp_gradients, 16, (2,), (5,))),
    ("ddim-closed-forms", lambda fast: ddim_closed_forms(17, 6)),
    ("averaging-offset", _sized(averaging_offset, 18, (2,), (5,))),
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
