import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from so3denoise import diffusion
from so3denoise.align import aligned_rmsd, rmsd
from so3denoise.diffusion import (
    DdimSchedule,
    MlpDenoiser,
    StepMetrics,
    TrainConfig,
    TrainResult,
    ddim_sample,
    load_denoiser,
    loss_and_grad,
    mlp_forward,
    noise_sample,
    save_denoiser,
    train,
    write_metrics_csv,
)
from so3denoise.estimators import EstimatorKind, estimator_target
from so3denoise.fisher import ExpansionSingularError
from so3denoise.geom import _noised, center, frobenius_norm_sq, rotate, sample_haar
from so3denoise.quadrature import NoConvergenceError, oracle_conditional_denoiser
from so3denoise.trajectory import synth_trajectory


@pytest.fixture(scope="module")
def traj():
    return synth_trajectory(8, 20, 0.1, seed=7)


def test_noise_sample_zero_sigma_exact(traj):
    rng = np.random.default_rng(0)
    x = traj.frames[0]
    y, r_aug = noise_sample(x, 0.0, rng)
    np.testing.assert_array_equal(y, rotate(r_aug, x))


def test_noise_sample_variance_reflects_centering(traj):
    # re-centering removes 3 degrees of freedom: E||y - R x||^2 = 3 (N-1) sigma^2
    rng = np.random.default_rng(1)
    x = traj.frames[0]
    n, sigma, draws = x.shape[0], 0.35, 100_000
    total = 0.0
    for _ in range(draws):
        y, r_aug = noise_sample(x, sigma, rng)
        total += frobenius_norm_sq(y - rotate(r_aug, x))
    expected = 3 * (n - 1) * sigma**2
    assert total / draws == pytest.approx(expected, rel=0.02)


def test_noise_sample_distribution_rotation_invariant(traj):
    rng = np.random.default_rng(2)
    x = traj.frames[0]
    r0 = sample_haar(rng)
    plain = np.array([np.sqrt(frobenius_norm_sq(noise_sample(x, 0.4, rng)[0])) for _ in range(2000)])
    rotated = np.array(
        [np.sqrt(frobenius_norm_sq(rotate(r0, noise_sample(x, 0.4, rng)[0]))) for _ in range(2000)]
    )
    assert stats.ks_2samp(plain, rotated).pvalue > 0.01


def test_mlp_forward_zero_weights_and_shapes():
    rng = np.random.default_rng(3)
    m = MlpDenoiser.initialize(5, 8, 1.0, rng)
    m.w1[:] = 0
    m.w2[:] = 0
    out = mlp_forward(m, rng.standard_normal((5, 3)), 0.3)
    np.testing.assert_array_equal(out, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        mlp_forward(m, rng.standard_normal((4, 3)), 0.3)


def test_mlp_forward_finite_over_sigma_range():
    rng = np.random.default_rng(4)
    m = MlpDenoiser.initialize(6, 16, 2.0, rng)
    y = rng.standard_normal((6, 3))
    for sigma in (1e-3, 1.0, 1e3):
        out = mlp_forward(m, y, sigma)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out.sum(axis=0))) < 1e-10  # re-centered


def test_mlp_forward_lipschitz_bound():
    rng = np.random.default_rng(5)
    m = MlpDenoiser.initialize(4, 12, 1.5, rng)
    y = rng.standard_normal((4, 3))
    eps = 1e-4
    base = mlp_forward(m, y, 0.7)
    bound = np.linalg.norm(m.w2, 2) * np.linalg.norm(m.w1, 2) * eps / m.s_ref
    for i in range(4):
        for j in range(3):
            pert = y.copy()
            pert[i, j] += eps
            delta = np.linalg.norm(mlp_forward(m, pert, 0.7) - base)
            assert delta <= bound * (1 + 1e-9)


def test_loss_and_grad_zero_case():
    rng = np.random.default_rng(6)
    m = MlpDenoiser.initialize(4, 8, 1.0, rng)
    m.w1[:] = 0
    m.w2[:] = 0
    x = np.zeros((4, 3))
    batch = [(rng.standard_normal((4, 3)), x, sample_haar(rng)) for _ in range(3)]
    out = loss_and_grad(m, batch, 0.5, EstimatorKind.AUG)
    assert out.loss == 0.0
    assert all(np.all(g == 0) for g in out.grads.values())


def test_loss_and_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = center(rng.standard_normal((4, 3)))
    for _ in range(3):
        m = MlpDenoiser.initialize(4, 8, 1.0, rng)
        batch = []
        for _ in range(3):
            y, r_aug = noise_sample(x, 0.3, rng)
            batch.append((y, x, r_aug))
        result = loss_and_grad(m, batch, 0.3, EstimatorKind.ORDER0)
        h = 1e-5
        for name, grad in result.grads.items():
            p = getattr(m, name)
            for _ in range(6):
                idx = tuple(rng.integers(d) for d in p.shape)
                p[idx] += h
                lp = loss_and_grad(m, batch, 0.3, EstimatorKind.ORDER0).loss
                p[idx] -= 2 * h
                lm = loss_and_grad(m, batch, 0.3, EstimatorKind.ORDER0).loss
                p[idx] += h
                fd = (lp - lm) / (2 * h)
                assert abs(grad[idx] - fd) <= 1e-5 * max(abs(grad[idx]), abs(fd), 1e-4)


def test_loss_exact_recovery_limit():
    rng = np.random.default_rng(8)
    x = center(rng.standard_normal((5, 3)))
    r = sample_haar(rng)
    y = rotate(r, x)  # noise-free observation
    m = MlpDenoiser.initialize(5, 8, 1.0, rng)
    out = loss_and_grad(m, [(y, x, r)], 1e-9, EstimatorKind.ORDER0)
    direct = frobenius_norm_sq(mlp_forward(m, y, 1e-9) - rotate(r, x))
    assert out.loss == pytest.approx(direct, rel=1e-9)


def test_train_zero_steps_initial_metrics_only(traj):
    cfg = TrainConfig(sigma=0.5, estimator=EstimatorKind.ORDER0, steps=0, seed=1)
    result = train(cfg, traj.frames)
    assert result.status == "completed"
    assert len(result.metrics) == 1
    assert result.metrics[0].step == 0


def test_train_deterministic(traj):
    cfg = TrainConfig(sigma=0.5, estimator=EstimatorKind.ORDER1, steps=25, seed=3)
    a = train(cfg, traj.frames)
    b = train(cfg, traj.frames)
    assert a.metrics == b.metrics
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(a.model, name), getattr(b.model, name))


def test_train_smoke_improves(traj):
    cfg = TrainConfig(
        sigma=0.5, estimator=EstimatorKind.ORDER0, steps=300, seed=3, dataset_mode="single-frame"
    )
    result = train(cfg, traj.frames)
    assert result.status == "completed"
    assert result.metrics[-1].aligned_rmsd < result.metrics[0].aligned_rmsd


def test_train_aug_vs_order0_comparative(traj):
    # both must converge; the relative ordering is recorded, not asserted
    finals = {}
    for kind in (EstimatorKind.AUG, EstimatorKind.ORDER0):
        cfg = TrainConfig(sigma=0.5, estimator=kind, steps=150, seed=3, dataset_mode="single-frame")
        result = train(cfg, traj.frames)
        assert result.status == "completed"
        finals[kind.value] = result.metrics[-1].rmsd
    print(f"comparative final rmsd: {finals}")


def test_train_divergence_is_reported_not_raised(traj):
    cfg = TrainConfig(sigma=0.5, estimator=EstimatorKind.ORDER0, steps=50, seed=3, lr=1e200)
    result = train(cfg, traj.frames)
    assert result.status == "diverged"
    assert result.diverged_at is not None
    assert 1 <= result.diverged_at <= 50


def test_ddim_identity_denoiser_fixed_point():
    schedule = DdimSchedule((2.0, 1.0, 0.5, 0.0))
    out = ddim_sample(lambda y, s: y, schedule, 6, np.random.default_rng(9))
    start = center(2.0 * np.random.default_rng(9).standard_normal((6, 3)))
    np.testing.assert_array_equal(out, start)


def test_ddim_zero_denoiser_telescopes_to_zero():
    schedule = DdimSchedule((2.0, 1.0, 0.5, 0.0))
    out = ddim_sample(lambda y, s: np.zeros_like(y), schedule, 6, np.random.default_rng(10))
    np.testing.assert_array_equal(out, np.zeros((6, 3)))


def test_ddim_schedule_validation():
    with pytest.raises(ValueError):
        DdimSchedule((1.0, 0.5))  # does not end at zero
    with pytest.raises(ValueError):
        DdimSchedule((0.5, 1.0, 0.0))
    with pytest.raises(ValueError):
        DdimSchedule((0.0,))
    for sigmas in ((np.inf, 0.0), (np.nan, 0.0), (1.0, np.nan, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            DdimSchedule(sigmas)


@pytest.mark.parametrize("field", ["sigma", "lr"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(**{"sigma": 0.5, "estimator": "order0", "steps": 1, field: value})


def test_ddim_one_step_equivariance_with_oracle(traj):
    rng = np.random.default_rng(11)
    x_ref = traj.frames[0]
    tol = 1e-8
    s_hi, s_lo = 0.2, 0.1

    def denoiser(y, s):
        return oracle_conditional_denoiser(y, x_ref, s, tol)

    def step(y):
        return y + (1 - s_lo / s_hi) * (denoiser(y, s_hi) - y)

    y, _ = noise_sample(x_ref, s_hi, rng)
    base = step(y)
    norm_y = np.sqrt(frobenius_norm_sq(y))
    for _ in range(5):
        r = sample_haar(rng)
        dev = np.max(np.abs(step(rotate(r, y)) - rotate(r, base)))
        assert dev < 1e-7 * norm_y


def test_loss_invariance_with_oracle_denoiser(traj):
    # an equivariant denoiser makes the per-sample loss independent of the augmentation
    rng = np.random.default_rng(12)
    x = traj.frames[0]
    sigma, tol = 0.2, 1e-8
    eta = rng.standard_normal(x.shape)
    base_in = center(x + sigma * eta)
    base_loss = frobenius_norm_sq(oracle_conditional_denoiser(base_in, x, sigma, tol) - x)
    for _ in range(100):
        r = sample_haar(rng)
        rin = rotate(r, base_in)
        loss = frobenius_norm_sq(oracle_conditional_denoiser(rin, x, sigma, tol) - rotate(r, x))
        assert abs(loss - base_loss) <= 1e-7 * base_loss


def test_checkpoint_round_trip(tmp_path, traj):
    rng = np.random.default_rng(13)
    model = MlpDenoiser.initialize(8, 16, traj.scale, rng)
    cfg = TrainConfig(sigma=0.5, estimator=EstimatorKind.ORDER2, steps=10, seed=4)
    path = tmp_path / "model.bin"
    save_denoiser(model, path, seed=4, config=cfg)
    loaded, header = load_denoiser(path)
    assert header["n_points"] == 8 and header["hidden"] == 16
    assert header["seed"] == 4
    assert header["config"]["estimator"] == "order2"
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
    assert loaded.s_ref == model.s_ref


def test_loaded_parameters_are_writable_and_own_their_data(tmp_path, traj):
    model = MlpDenoiser.initialize(8, 16, traj.scale, np.random.default_rng(14))
    path = tmp_path / "model.bin"
    save_denoiser(model, path)
    loaded, _ = load_denoiser(path)
    again, _ = load_denoiser(path)
    path.write_bytes(b"")  # the loaded parameters do not read the file again
    for name in ("w1", "b1", "w2", "b2"):
        p = getattr(loaded, name)
        assert p.flags.writeable and p.dtype == np.float64
        assert not np.shares_memory(p, getattr(again, name))
        p += 1.0  # changes this parameter only
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name) + 1.0)
        np.testing.assert_array_equal(getattr(again, name), getattr(model, name))


def test_truncated_checkpoint_raises_naming_the_file(tmp_path, traj):
    path = tmp_path / "model.bin"
    save_denoiser(MlpDenoiser.initialize(8, 4, traj.scale, np.random.default_rng(15)), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ValueError, match=f"truncated checkpoint: {path}"):
        load_denoiser(path)


def test_metrics_csv_round_trip(tmp_path, traj):
    cfg = TrainConfig(sigma=0.5, estimator=EstimatorKind.ORDER0, steps=5, seed=5)
    result = train(cfg, traj.frames)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(result.metrics, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,rmsd,aligned_rmsd,n_excluded"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [[repr(v) for v in m] for m in result.metrics]


def _reference_train(cfg, frames, probe_size=16, tol=1e-8):
    """Per-sample training loop that ``train`` replaced, kept as its reference.

    Each batch is drawn with the three generator calls of ``train`` and
    noised item by item; every target, prediction and metric goes through
    a scalar call, and the gradient and the per-parameter Adam arithmetic
    are written out as before.
    """
    frames = np.asarray(frames, dtype=float)
    s_ref = float(np.sqrt(np.mean(np.sum(frames[0] ** 2, axis=1))))
    rng = np.random.default_rng(cfg.seed)
    model = MlpDenoiser.initialize(frames.shape[1], cfg.hidden, s_ref, rng)

    def draw_batch(size):
        idx = [0] * size if cfg.dataset_mode == "single-frame" else rng.integers(len(frames), size=size)
        q = rng.standard_normal((size, 4))
        eta = rng.standard_normal((size,) + frames.shape[1:])
        items = []
        for i in range(size):
            y, r_aug = _noised(frames[idx[i]], q[i], eta[i], cfg.sigma)
            items.append((y, frames[idx[i]], r_aug))
        return items

    def targets(batch):
        kept, ts = [], []
        for y, x, r_aug in batch:
            try:
                t = estimator_target(
                    cfg.estimator, y, x, cfg.sigma,
                    r_aug=r_aug if cfg.estimator is EstimatorKind.AUG else None, tol=tol,
                )
            except (ExpansionSingularError, NoConvergenceError):
                continue
            kept.append(y)
            ts.append(t)
        return kept, ts

    def probe_metrics():
        pairs = [(mlp_forward(model, y, cfg.sigma), x, r_aug) for y, x, r_aug in probe]
        return (
            float(np.mean([rmsd(p, rotate(r_aug, x)) for p, x, r_aug in pairs])),
            float(np.mean([aligned_rmsd(p, x) for p, x, _ in pairs])),
        )

    def features(ys):
        feats = np.empty((len(ys), 3 * model.n_points + 2))
        feats[:, :-2] = ys.reshape(len(ys), -1) / model.s_ref
        feats[:, -2] = np.log(cfg.sigma)
        feats[:, -1] = 1.0
        return feats

    probe = draw_batch(probe_size)
    probe_kept, probe_targets = targets(probe)
    loss0 = float("nan")
    if probe_targets:
        preds = np.stack([mlp_forward(model, y, cfg.sigma) for y in probe_kept])
        loss0 = float(np.sum((preds - np.stack(probe_targets)) ** 2) / len(probe_targets))
    metrics = [StepMetrics(0, loss0, *probe_metrics(), 0)]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moment1 = {k: np.zeros_like(v) for k, v in model.params().items()}
    moment2 = {k: np.zeros_like(v) for k, v in model.params().items()}
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.steps + 1):
            batch = draw_batch(cfg.batch)
            kept, ts = targets(batch)
            if not kept:
                return TrainResult(model, metrics, "diverged", step)
            ys, ts = np.stack(kept), np.stack(ts)
            b = len(ys)
            feats = features(ys)
            hidden = np.tanh(feats @ model.w1.T + model.b1)
            out = (hidden @ model.w2.T + model.b2).reshape(ys.shape)
            diff = out - out.mean(axis=1, keepdims=True) - ts
            loss = float(np.sum(diff * diff) / b)
            if not np.isfinite(loss):
                return TrainResult(model, metrics, "diverged", step)
            g_out = 2.0 * diff / b
            g_flat = (g_out - g_out.mean(axis=1, keepdims=True)).reshape(b, -1)
            g_pre = (g_flat @ model.w2) * (1.0 - hidden * hidden)
            grads = {"w2": g_flat.T @ hidden, "b2": g_flat.sum(axis=0),
                     "w1": g_pre.T @ feats, "b1": g_pre.sum(axis=0)}
            for name, g in grads.items():
                moment1[name] = beta1 * moment1[name] + (1 - beta1) * g
                moment2[name] = beta2 * moment2[name] + (1 - beta2) * g * g
                m_hat = moment1[name] / (1 - beta1**step)
                v_hat = moment2[name] / (1 - beta2**step)
                setattr(model, name, getattr(model, name) - cfg.lr * m_hat / (np.sqrt(v_hat) + eps))
            if not all(np.all(np.isfinite(p)) for p in model.params().values()):
                return TrainResult(model, metrics, "diverged", step)
            metrics.append(StepMetrics(step, loss, *probe_metrics(), len(batch) - b))
    return TrainResult(model, metrics, "completed", None)


def _use_blocks_of(monkeypatch, steps, cfg, frames):
    """Make ``train`` run in blocks of ``steps`` steps for this config and dataset."""
    monkeypatch.setattr(diffusion, "_BLOCK_POINTS", steps * cfg.batch * frames.shape[1])


def _same_checkpoint(tmp_path, cfg, got, want):
    for result, name in ((got, "got.bin"), (want, "want.bin")):
        save_denoiser(result.model, tmp_path / name, seed=cfg.seed, config=cfg)
    return (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()


@pytest.mark.parametrize("mode", ["all-frames", "single-frame"])
@pytest.mark.parametrize("kind", ["aug", "order0", "order1", "order2"])
def test_train_bit_identical_to_per_sample_loop(monkeypatch, tmp_path, traj, kind, mode):
    cfg = TrainConfig(sigma=0.5, estimator=kind, steps=20, batch=8, seed=11, dataset_mode=mode)
    _use_blocks_of(monkeypatch, 3, cfg, traj.frames)  # six full blocks, then a partial one
    got, want = train(cfg, traj.frames), _reference_train(cfg, traj.frames)
    assert got.status == want.status == "completed"
    assert got.metrics == want.metrics
    assert _same_checkpoint(tmp_path, cfg, got, want)


def test_train_divergence_mid_block_matches_per_sample_loop(monkeypatch, tmp_path, traj):
    # the probe rows of the block's earlier steps must be scored before the return
    cfg = TrainConfig(sigma=0.5, estimator="order0", steps=20, batch=8, seed=11, lr=1e200)
    _use_blocks_of(monkeypatch, 3, cfg, traj.frames)
    got, want = train(cfg, traj.frames), _reference_train(cfg, traj.frames)
    assert want.status == "diverged" and (want.diverged_at - 1) % 3 != 0  # not a block's first step
    assert (got.status, got.diverged_at) == (want.status, want.diverged_at)
    assert repr(got.metrics) == repr(want.metrics)
    assert _same_checkpoint(tmp_path, cfg, got, want)


def _probe_frames(cfg, frames, probe_size=16):
    """Indices of the frames the probe batch of ``train`` draws (all-frames mode)."""
    rng = np.random.default_rng(cfg.seed)
    MlpDenoiser.initialize(frames.shape[1], cfg.hidden, 1.0, rng)
    return rng.integers(len(frames), size=probe_size).tolist()


@pytest.mark.filterwarnings("ignore::so3denoise.estimators.DegenerateAlignmentWarning")
@pytest.mark.parametrize("kind", ["aug", "order0", "order1", "order2"])
def test_train_with_zero_frame_matches_per_sample_loop(monkeypatch, tmp_path, traj, kind):
    # an all-zero frame has a zero cross-covariance with any observation: its order-0
    # target is a degenerate alignment and its order-1/2 targets are excluded, in the
    # training batches and in the probe alike
    frames = traj.frames.copy()
    frames[5] = 0.0
    for seed, in_probe in ((3, False), (1, True)):
        cfg = TrainConfig(sigma=0.5, estimator=kind, steps=20, batch=8, seed=seed)
        assert (5 in _probe_frames(cfg, frames)) == in_probe
        want = _reference_train(cfg, frames)
        assert want.status == "completed"
        if kind in ("order1", "order2"):
            assert sum(m.n_excluded for m in want.metrics) > 0
        for steps in (None, 1, 3):  # the default block holds all 20 steps
            if steps is not None:
                _use_blocks_of(monkeypatch, steps, cfg, frames)
            got = train(cfg, frames)
            assert (got.status, got.diverged_at) == (want.status, want.diverged_at)
            assert repr(got.metrics) == repr(want.metrics)
            assert _same_checkpoint(tmp_path, cfg, got, want)
        monkeypatch.undo()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_rejects_non_finite_dataset(traj, value):
    frames = traj.frames.copy()
    frames[3, 2, 1] = value
    with pytest.raises(ValueError, match="finite"):
        train(TrainConfig(sigma=0.5, estimator="aug", steps=1), frames)


def test_train_excludes_singular_targets_like_per_sample_loop(traj):
    # order-2 targets of a collinear frame are expansion-singular: mixed with a
    # generic frame some samples are excluded, alone the whole batch is
    line = np.zeros((8, 3))
    line[:, 0] = np.linspace(-1.0, 1.0, 8)
    cfg = TrainConfig(sigma=0.5, estimator="order2", steps=15, batch=8, seed=2)
    for frames, status in ((np.stack([line, traj.frames[0]]), "completed"), (line[None], "diverged")):
        got, want = train(cfg, frames), _reference_train(cfg, frames)
        assert want.status == status
        assert (got.status, got.diverged_at) == (want.status, want.diverged_at)
        assert repr(got.metrics) == repr(want.metrics)  # row 0's loss is NaN when all are excluded
        if status == "completed":
            assert sum(m.n_excluded for m in want.metrics) > 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bench_shaped_train_halves_probe_aligned_rmsd(seed):
    # the bench's train call and its check: the final probe aligned RMSD is below half of step 0's
    frames = synth_trajectory(8, 64, 0.05, seed=seed).frames
    cfg = TrainConfig(sigma=0.5, estimator="order2", steps=300, batch=32, hidden=64, seed=seed)
    result = train(cfg, frames)
    assert result.status == "completed"
    assert result.metrics[-1].aligned_rmsd < 0.5 * result.metrics[0].aligned_rmsd


def _reference_walk(denoiser, schedule, n_points, rng):
    """The DDIM walk of ``ddim_sample``, written out step by step."""
    sig = schedule.sigmas
    y = center(sig[0] * rng.standard_normal((n_points, 3)))
    for s_hi, s_lo in zip(sig, sig[1:]):
        y = y + (1.0 - s_lo / s_hi) * (denoiser(y, s_hi) - y)
    return y


@settings(max_examples=60, deadline=None)
@given(
    n_points=st.integers(4, 16),
    hidden=st.integers(1, 64),
    trained_steps=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    levels=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=59, unique=True),
)
def test_sample_walk_is_bit_for_bit_the_mlp_forward_walk(n_points, hidden, trained_steps, seed,
                                                         levels):
    rng = np.random.default_rng(seed)
    data = synth_trajectory(n_points, 3, 0.1, seed=seed % 1000)
    if trained_steps:
        cfg = TrainConfig(sigma=0.5, estimator=EstimatorKind.ORDER0, steps=trained_steps, batch=4,
                          lr=0.05, seed=seed % 1000, hidden=hidden)
        m = train(cfg, data.frames, probe_size=2).model
    else:
        m = MlpDenoiser.initialize(n_points, hidden, data.scale, rng)
        m.b1, m.b2 = rng.standard_normal(hidden), rng.standard_normal(3 * n_points)
    schedule = DdimSchedule((*sorted(levels, reverse=True), 0.0))
    walked = ddim_sample(diffusion._walk_denoiser(m), schedule, n_points, np.random.default_rng(seed))
    reference = _reference_walk(lambda y, s: mlp_forward(m, y, s), schedule, n_points,
                                np.random.default_rng(seed))
    assert np.array_equal(walked, reference)


def test_walk_denoiser_rejects_a_malformed_model(traj):
    m = MlpDenoiser.initialize(8, 4, traj.scale, np.random.default_rng(16))
    m.w2 = m.w2[:, :3]
    with pytest.raises(ValueError, match="parameter w2 has shape"):
        diffusion._walk_denoiser(m)
