"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line once its criterion holds, so running
``pytest tests/test_acceptance.py -v -s`` gives a per-criterion report.
The invariant bodies live in :mod:`so3denoise.selftest`, which runs them
at reduced sizes, and C10's grid checks in ``so3_reference``; each test
here fixes the criterion's seed, sample counts and runtime cap.
"""

import time

import numpy as np

from so3denoise.diffusion import TrainConfig, noise_sample, train
from so3denoise.estimators import EstimatorKind, error_sweep
from so3denoise.geom import frobenius_norm_sq, rotate, sample_haar
from so3denoise.selftest import (
    alignment_commutation,
    averaging_offset,
    ddim_closed_forms,
    kabsch_optimality,
    laplace_vs_quadrature,
    mlp_gradients,
    oracle_symmetries,
)
from so3denoise.trajectory import synth_trajectory
from so3_reference import grid_moments, log_partition, so3_grid_global


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPT C{criterion:02d} PASS {detail}")


def test_c01_kabsch_optimality_brute_force():
    start = time.time()
    kabsch_optimality(np.random.default_rng(101), n_pairs=100, n_rot=1_000_000)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(1, f"100 pairs beat 1e6 sampled rotations each ({elapsed:.1f}s)")


def test_c02_alignment_augmentation_commutation():
    worst = alignment_commutation(np.random.default_rng(102), n_triples=1000)
    _report(2, f"1000 triples, max deviation {worst:.2e}")


def test_c03_expansion_slopes_against_quadrature():
    start = time.time()
    slopes, _ = laplace_vs_quadrature(np.random.default_rng(2024))
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(3, f"slopes {slopes[0]:.2f}/{slopes[1]:.2f}/{slopes[2]:.2f} ({elapsed:.1f}s)")


def test_c04_sweep_reproduces_error_hierarchy():
    traj = synth_trajectory(8, 1, 0.0, seed=11)
    x = traj.frames[0]
    scale = traj.scale
    sigmas = [s * scale for s in (0.005, 0.01, 0.05, 0.1, 0.2, 0.3)]
    records = error_sweep(x, sigmas, n_noise=64, seed=123, tol=1e-6)
    by_sigma = {}
    for rec in records:
        by_sigma.setdefault(rec.sigma, {})[rec.kind] = rec
    floor = 1e-8 * frobenius_norm_sq(x)
    for sigma in sigmas:
        kinds = by_sigma[sigma]
        o0 = kinds[EstimatorKind.ORDER0].mean_mse
        o1 = kinds[EstimatorKind.ORDER1].mean_mse
        o2 = kinds[EstimatorKind.ORDER2].mean_mse
        assert o2 <= o1 <= o0, f"sigma={sigma}: {o2} {o1} {o0}"
        if sigma <= 0.01 * scale:
            assert max(o0, o1, o2) < floor, f"sigma={sigma}: floor violated"
        assert all(k.n_excluded == 0 for k in kinds.values())
    _report(4, f"order hierarchy at {len(sigmas)} noise levels, floor below {floor:.1e}")


def test_c05_oracle_equivariance_and_invariance():
    worst_equi, worst_inv = oracle_symmetries(np.random.default_rng(105), n_draws=100)
    _report(5, f"100 checks each; worst dev/(tol*|x|) {worst_equi:.2e} / {worst_inv:.2e}, bound 2")


def test_c06_averaging_offset_lemma():
    averaging_offset(np.random.default_rng(106), n_instances=20)
    _report(6, "20 instances x 3 probes within 4*tol*|x|^2")


def test_c07_ddim_invariance():
    from so3denoise.quadrature import oracle_conditional_denoiser

    ddim_closed_forms(71, n_points=8)

    rng = np.random.default_rng(107)
    x_ref = synth_trajectory(8, 1, 0.0, seed=11).frames[0]
    s_hi, s_lo, tol = 0.2, 0.1, 1e-8
    y, _ = noise_sample(x_ref, s_hi, rng)
    norm_y = np.sqrt(frobenius_norm_sq(y))

    def step(z):
        d = oracle_conditional_denoiser(z, x_ref, s_hi, tol)
        return z + (1 - s_lo / s_hi) * (d - z)

    base = step(y)
    worst = 0.0
    for _ in range(100):
        r = sample_haar(rng)
        worst = max(worst, float(np.max(np.abs(step(rotate(r, y)) - rotate(r, base)))))
    assert worst < 1e-7 * norm_y, f"one-step deviation {worst}"
    _report(7, f"closed forms exact; 100 rotations, worst one-step dev {worst:.2e}")


def test_c08_gradient_check():
    checked = mlp_gradients(np.random.default_rng(108), n_models=20)
    _report(8, f"{checked} parameter gradients match central differences")


def test_c09_training_smoke():
    start = time.time()
    traj = synth_trajectory(8, 1, 0.0, seed=7)
    scale = traj.scale
    base = dict(sigma=0.5 * scale, steps=2000, seed=3, hidden=64)

    result = train(TrainConfig(estimator=EstimatorKind.ORDER0, **base), traj.frames)
    assert result.status == "completed"
    first, last = result.metrics[0], result.metrics[-1]
    assert last.aligned_rmsd < 0.5 * first.aligned_rmsd, (
        f"aligned rmsd {first.aligned_rmsd} -> {last.aligned_rmsd}"
    )

    for kind in (EstimatorKind.AUG, EstimatorKind.ORDER1, EstimatorKind.ORDER2):
        res = train(TrainConfig(estimator=kind, **base), traj.frames)
        assert res.status == "completed", f"{kind} diverged at sigma=0.5*scale"

    # a large-noise second-order run must terminate with a status, never raise
    big = train(
        TrainConfig(sigma=10.0 * scale, estimator=EstimatorKind.ORDER2, steps=300, seed=3, hidden=64),
        traj.frames,
    )
    assert big.status in ("completed", "diverged")

    elapsed = time.time() - start
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds 10min"
    _report(
        9,
        f"aligned rmsd {first.aligned_rmsd:.3f}->{last.aligned_rmsd:.3f}; "
        f"all estimators completed; large-sigma order2: {big.status} ({elapsed:.1f}s)",
    )


def test_c10_quadrature_sanity():
    grid_moments(16)

    f = np.diag([5.0, 4.0, 3.0])
    z32 = np.exp(log_partition(f, so3_grid_global(32)))
    z64 = np.exp(log_partition(f, so3_grid_global(64)))
    rel = abs(z32 - z64) / z64
    assert rel < 1e-8
    _report(10, f"grid moments in tolerance; partition self-convergence {rel:.1e}")
