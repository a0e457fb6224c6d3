import csv
import re
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from so3denoise import diffusion
from so3denoise.align import _spectral_rmsd, rmsd
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
from so3denoise.selftest import _gradient_pairs
from so3denoise.trajectory import synth_trajectory


@pytest.fixture(scope="module")
def traj():
    return synth_trajectory(8, 20, 0.1, seed=7)


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


def test_c08_pairs_are_bit_for_bit_those_through_loss_and_grad():
    # C08 makes its ORDER0 targets once and takes every loss from train's loss body; each
    # (analytic, central-difference) pair is still loss_and_grad's, bit for bit
    got = list(_gradient_pairs(np.random.default_rng(16)))
    rng = np.random.default_rng(16)  # the draws C08 makes for one model
    m = MlpDenoiser.initialize(4, 8, 1.0, rng)
    x = center(rng.standard_normal((4, 3)))
    batch = [(y, x, r_aug) for y, r_aug in (noise_sample(x, 0.3, rng) for _ in range(2))]
    want, h = [], 1e-5
    for name, grad in loss_and_grad(m, batch, 0.3, EstimatorKind.ORDER0).grads.items():
        p = getattr(m, name)
        for idx in np.ndindex(*p.shape):
            p[idx] += h
            lp = loss_and_grad(m, batch, 0.3, EstimatorKind.ORDER0).loss
            p[idx] -= 2 * h
            lm = loss_and_grad(m, batch, 0.3, EstimatorKind.ORDER0).loss
            p[idx] += h
            want.append((name, idx, grad[idx], (lp - lm) / (2 * h)))
    assert len(got) == len(want) == m.theta.size
    bits = [(name, idx, float(g).hex(), float(fd).hex()) for name, idx, g, fd in got]
    assert bits == [(name, idx, float(g).hex(), float(fd).hex()) for name, idx, g, fd in want]


def test_loss_and_grad_calls_share_no_gradient_memory():
    # the four gradients are views of one flat vector; each call must make its own
    rng = np.random.default_rng(9)
    x = center(rng.standard_normal((4, 3)))
    m = MlpDenoiser.initialize(4, 8, 1.0, rng)
    batch = [(y, x, r_aug) for y, r_aug in (noise_sample(x, 0.3, rng) for _ in range(3))]
    first, second = (loss_and_grad(m, batch, 0.3, EstimatorKind.ORDER0).grads for _ in range(2))
    assert first.keys() == second.keys() == {"w1", "b1", "w2", "b2"}
    for name, g in first.items():
        np.testing.assert_array_equal(g, second[name])
        assert g.shape == getattr(m, name).shape
        assert not any(np.shares_memory(g, other) for other in (*second.values(), m.theta))


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
    cfg = TrainConfig(sigma=0.5, estimator=EstimatorKind.ORDER0, steps=300, seed=3)
    result = train(cfg, traj.frames[:1])
    assert result.status == "completed"
    assert result.metrics[-1].aligned_rmsd < result.metrics[0].aligned_rmsd


def test_train_aug_vs_order0_comparative(traj):
    # both must converge; the relative ordering is recorded, not asserted
    finals = {}
    for kind in (EstimatorKind.AUG, EstimatorKind.ORDER0):
        cfg = TrainConfig(sigma=0.5, estimator=kind, steps=150, seed=3)
        result = train(cfg, traj.frames[:1])
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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("sigma", 0.0, "sigma must be positive and finite, got 0.0"),
        ("sigma", -0.5, "sigma must be positive and finite, got -0.5"),
        ("lr", 0.0, "lr must be positive and finite, got 0.0"),
        ("batch", 0, "batch must be >= 1, got 0"),
        ("hidden", 0, "hidden must be >= 1, got 0"),
        ("steps", -1, "steps must be >= 0, got -1"),
        ("batch", 2.5, "batch must be an integer, got 2.5"),
        ("hidden", 3.5, "hidden must be an integer, got 3.5"),
        ("steps", 2.5, "steps must be an integer, got 2.5"),
    ],
)
def test_train_config_rejects_out_of_range_values(field, value, message):
    error = TypeError if "must be an integer" in message else ValueError
    with pytest.raises(error, match=message):
        TrainConfig(**{"sigma": 0.5, "estimator": "order0", "steps": 1, field: value})


def test_train_config_makes_counts_plain_ints():
    cfg = TrainConfig(0.5, "order0", np.int64(3), batch=True, hidden=np.uint8(5))
    assert (cfg.steps, cfg.batch, cfg.hidden) == (3, 1, 5)
    assert all(type(v) is int for v in (cfg.steps, cfg.batch, cfg.hidden))


def _model():
    return MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0))


# the start of every message of ``train``'s refusal of a dataset, as a pattern
_DATASET_RULE = re.escape("dataset must be finite coordinates of shape (F >= 1, N >= 1, 3), ")

# a collinear cloud: its order-1/2 targets are expansion-singular
_LINE = np.outer(np.linspace(-1.0, 1.0, 8), [1.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda x: noise_sample(x, -0.1, np.random.default_rng(0)),
         "sigma must be positive and finite, got -0.1"),
        (lambda x: noise_sample(x, float("nan"), np.random.default_rng(0)),
         "sigma must be positive and finite, got nan"),
        (lambda x: noise_sample(x, float("inf"), np.random.default_rng(0)),
         "sigma must be positive and finite, got inf"),
        (lambda x: loss_and_grad(MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0)), [], 0.5,
                                 EstimatorKind.AUG), "batch must be nonempty"),
        (lambda x: train(TrainConfig(0.5, "aug", 1), x), _DATASET_RULE + "got shape"),
        (lambda x: train(TrainConfig(0.5, "aug", 1), x[None, :, :2]), _DATASET_RULE + "got shape"),
        (lambda x: train(TrainConfig(0.5, "aug", 1), np.empty((0, *x.shape))), _DATASET_RULE + "got shape"),
        (lambda x: mlp_forward(_model(), x, 0.0), "sigma must be positive and finite, got 0.0"),
        (lambda x: mlp_forward(_model(), x, -0.1), "sigma must be positive and finite, got -0.1"),
        (lambda x: mlp_forward(_model(), x, float("nan")), "sigma must be positive and finite, got nan"),
        (lambda x: mlp_forward(_model(), x[None], float("inf")), "sigma must be positive and finite, got inf"),
        (lambda x: loss_and_grad(_model(), [(y, _LINE, np.eye(3)) for y in (_LINE, 2 * _LINE)], 0.5,
                                 EstimatorKind.ORDER2), "every sample in the batch was excluded"),
    ],
    ids=["noise_sample-negative-sigma", "noise_sample-nan-sigma", "noise_sample-inf-sigma",
         "loss_and_grad-empty-batch", "train-one-unstacked-frame",
         "train-two-coordinates", "train-no-frames", "mlp_forward-zero-sigma",
         "mlp_forward-negative-sigma", "mlp_forward-nan-sigma", "mlp_forward-inf-sigma",
         "loss_and_grad-all-expansion-singular"],
)
def test_invalid_input_raises(traj, call, message):
    with pytest.raises(ValueError, match=message):
        call(traj.frames[0])


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
    save_denoiser(model, path, config=cfg)
    loaded, header = load_denoiser(path)
    assert header["n_points"] == 8 and header["hidden"] == 16
    assert header["seed"] == 4  # the config's
    assert header["config"]["estimator"] == "order2"
    for name in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
    assert loaded.s_ref == model.s_ref


def test_loaded_parameters_are_writable_and_own_their_data(tmp_path, traj):
    model = MlpDenoiser.initialize(8, 16, traj.scale, np.random.default_rng(14))
    path = tmp_path / "model.bin"
    save_denoiser(model, path)
    loaded, header = load_denoiser(path)
    assert header["seed"] is None and header["config"] is None
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


def test_checkpoint_of_numpy_scalars_is_the_checkpoint_of_plain_ones(tmp_path, traj):
    model = MlpDenoiser.initialize(8, 4, traj.scale, np.random.default_rng(15))
    numpy_model = MlpDenoiser(model.theta, np.int64(4), np.int64(8), np.float64(traj.scale))
    save_denoiser(model, tmp_path / "plain.bin", TrainConfig(0.5, "order0", 3, seed=1))
    save_denoiser(numpy_model, tmp_path / "numpy.bin",
                  TrainConfig(np.float32(0.5), "order0", np.int64(3), seed=np.int64(1), lr=np.float64(1e-3)))
    assert (tmp_path / "numpy.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()


def test_a_save_that_fails_keeps_the_existing_checkpoint(tmp_path, traj):
    @dataclass(frozen=True)
    class Unwritable:  # a config with a field json cannot write
        seed: int = 0
        tag: object = field(default_factory=object)

    path = tmp_path / "model.bin"
    model = MlpDenoiser.initialize(8, 4, traj.scale, np.random.default_rng(15))
    save_denoiser(model, path, TrainConfig(0.5, "order0", 3))
    before = path.read_bytes()
    with pytest.raises(TypeError, match="not JSON serializable"):
        save_denoiser(model, path, Unwritable())
    assert path.read_bytes() == before


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
        idx = rng.integers(len(frames), size=size)
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
            float(np.mean([_spectral_rmsd(p, x) for p, x, _ in pairs])),
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
    params = {name: getattr(model, name) for name in ("w1", "b1", "w2", "b2")}
    moment1 = {k: np.zeros_like(v) for k, v in params.items()}
    moment2 = {k: np.zeros_like(v) for k, v in params.items()}
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
                p = params[name]
                p[...] = p - cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
            if not all(np.all(np.isfinite(p)) for p in params.values()):
                return TrainResult(model, metrics, "diverged", step)
            metrics.append(StepMetrics(step, loss, *probe_metrics(), len(batch) - b))
    return TrainResult(model, metrics, "completed", None)


def _use_blocks_of(monkeypatch, steps, cfg, frames):
    """Make ``train`` run in blocks of ``steps`` steps for this config and dataset."""
    monkeypatch.setattr(diffusion, "_BLOCK_POINTS", steps * cfg.batch * frames.shape[1])


def _same_checkpoint(tmp_path, cfg, got, want):
    for result, name in ((got, "got.bin"), (want, "want.bin")):
        save_denoiser(result.model, tmp_path / name, config=cfg)
    return (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()


@pytest.mark.parametrize("n_frames", [None, 1], ids=["all-frames", "single-frame"])
@pytest.mark.parametrize("kind", ["aug", "order0", "order1", "order2"])
def test_train_bit_identical_to_per_sample_loop(monkeypatch, tmp_path, traj, kind, n_frames):
    frames = traj.frames[:n_frames]
    cfg = TrainConfig(sigma=0.5, estimator=kind, steps=20, batch=8, seed=11)
    _use_blocks_of(monkeypatch, 3, cfg, frames)  # six full blocks, then a partial one
    got, want = train(cfg, frames), _reference_train(cfg, frames)
    assert got.status == want.status == "completed"
    assert got.metrics == want.metrics
    assert _same_checkpoint(tmp_path, cfg, got, want)


@pytest.mark.parametrize("seed", [4, 5])
def test_bench_shaped_train_bit_identical_to_per_sample_loop(tmp_path, seed):
    # the bench's shapes with the default block size: 40 steps are two full 16-step
    # blocks and a partial one
    frames = synth_trajectory(8, 64, 0.05, seed=seed).frames
    cfg = TrainConfig(sigma=0.5, estimator="order2", steps=40, batch=32, hidden=64, seed=seed)
    assert diffusion._BLOCK_POINTS // (cfg.batch * frames.shape[1]) == 16
    got, want = train(cfg, frames), _reference_train(cfg, frames)
    assert got.status == want.status == "completed"
    assert repr(got.metrics) == repr(want.metrics)
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


@pytest.mark.parametrize("seed, block", [(1, None), (2, 3), (3, 3)])
def test_train_non_finite_loss_exit_matches_per_sample_loop(monkeypatch, tmp_path, traj, seed, block):
    # a frame scaled by 1e160 makes AUG's loss overflow to inf while theta is still
    # finite; seeds 1 and 2 also draw it into the probe, whose row 0 then overflows
    frames = traj.frames.copy()
    frames[2] *= 1e160
    cfg = TrainConfig(sigma=0.5, estimator="aug", steps=20, batch=8, seed=seed)
    assert (2 in _probe_frames(cfg, frames)) == (seed != 3)
    if block is not None:
        _use_blocks_of(monkeypatch, block, cfg, frames)
    got = train(cfg, frames)  # warns nothing: an overflow is reported through the status
    with np.errstate(over="ignore", invalid="ignore"):
        want = _reference_train(cfg, frames)
    assert want.status == "diverged" and want.diverged_at == {1: 1, 2: 2, 3: 6}[seed]
    assert (got.status, got.diverged_at) == (want.status, want.diverged_at)
    assert np.isfinite(got.model.theta).all()
    assert repr(got.metrics) == repr(want.metrics)
    assert _same_checkpoint(tmp_path, cfg, got, want)


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("kind", ["aug", "order0", "order2"])
def test_train_non_finite_theta_exit_matches_per_sample_loop(monkeypatch, tmp_path, traj, kind, block):
    # at ten times the trajectory's scale some gradient of step 1 exceeds 1.8, so lr 1e308
    # times it overflows theta in Adam's update while the step's loss is finite
    frames = 10.0 * traj.frames
    cfg = TrainConfig(sigma=0.5, estimator=kind, steps=20, batch=8, seed=11, lr=1e308)
    if block is not None:
        _use_blocks_of(monkeypatch, block, cfg, frames)
    got = train(cfg, frames)  # warns nothing: an overflow is reported through the status
    want = _reference_train(cfg, frames)
    assert want.status == "diverged" and want.diverged_at == 1
    assert (got.status, got.diverged_at) == (want.status, want.diverged_at)
    assert len(got.metrics) == 1 and not np.isfinite(got.model.theta).all()
    assert repr(got.metrics) == repr(want.metrics)
    assert _same_checkpoint(tmp_path, cfg, got, want)


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("kind", ["aug", "order0", "order1", "order2"])
@pytest.mark.parametrize("shape", ["traj", "bench"])
def test_train_overflowing_probe_exit_matches_per_sample_loop(monkeypatch, tmp_path, traj, kind, block,
                                                              shape):
    # at the trajectory's own scale lr 1e308 leaves theta finite after step 1, but the probe
    # predictions overflow: step 1's row reads NaN metrics (no SVD of a non-finite matrix)
    # and step 2's loss is not finite
    frames, batch = (traj.frames, 8) if shape == "traj" else (synth_trajectory(8, 64, 0.05, seed=4).frames, 32)
    cfg = TrainConfig(sigma=0.5, estimator=kind, steps=20, batch=batch, seed=11, lr=1e308)
    if block is not None:
        _use_blocks_of(monkeypatch, block, cfg, frames)
    got = train(cfg, frames)  # warns nothing: an overflow is reported through the status
    want = _reference_train(cfg, frames)
    assert want.status == "diverged" and want.diverged_at == 2
    assert (got.status, got.diverged_at) == (want.status, want.diverged_at)
    assert np.isfinite(got.model.theta).all()
    assert len(got.metrics) == 2 and np.isnan(got.metrics[1].rmsd) and np.isnan(got.metrics[1].aligned_rmsd)
    assert repr(got.metrics) == repr(want.metrics)
    assert _same_checkpoint(tmp_path, cfg, got, want)


def test_spectral_rmsd_of_a_non_finite_pair_is_nan_and_leaves_the_others():
    rng = np.random.default_rng(30)
    a, b = rng.standard_normal((5, 8, 3)), rng.standard_normal((8, 3))
    want = _spectral_rmsd(a, b)
    bad = a.copy()
    bad[1] = 1e308 * np.sign(b)  # finite coordinates whose a.T @ b overflows
    bad[3, 2, 0] = np.nan
    with np.errstate(over="ignore"):  # a.T @ b and |a|^2 of pair 1 overflow
        assert not np.isfinite(bad[1].T @ b).all()
        got = _spectral_rmsd(bad, b)
    assert np.isnan(got[[1, 3]]).all()
    assert np.array_equal(got[[0, 2, 4]], want[[0, 2, 4]])


def test_train_all_excluded_exit_mid_block_matches_per_sample_loop(monkeypatch, tmp_path, traj):
    # batch 1 over a generic and a collinear frame: the step that draws the collinear
    # frame has its only order-2 target expansion-singular, in the second block here
    line = np.zeros((8, 3))
    line[:, 0] = np.linspace(-1.0, 1.0, 8)
    frames = np.stack([traj.frames[0], line])
    cfg = TrainConfig(sigma=0.5, estimator="order2", steps=20, batch=1, seed=2)
    _use_blocks_of(monkeypatch, 3, cfg, frames)
    got, want = train(cfg, frames), _reference_train(cfg, frames)
    assert want.status == "diverged" and want.diverged_at == 5  # not a block's first step
    assert (got.status, got.diverged_at) == (want.status, want.diverged_at)
    assert np.isfinite(got.model.theta).all()
    assert repr(got.metrics) == repr(want.metrics)
    assert _same_checkpoint(tmp_path, cfg, got, want)


def _probe_frames(cfg, frames, probe_size=16):
    """Indices of the frames the probe batch of ``train`` draws."""
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
        m = train(cfg, data.frames).model
    else:
        m = MlpDenoiser.initialize(n_points, hidden, data.scale, rng)
        m.b1[:] = rng.standard_normal(hidden)
        m.b2[:] = rng.standard_normal(3 * n_points)
    schedule = DdimSchedule((*sorted(levels, reverse=True), 0.0))
    walked = ddim_sample(diffusion._walk_denoiser(m), schedule, n_points, np.random.default_rng(seed))
    reference = _reference_walk(lambda y, s: mlp_forward(m, y, s), schedule, n_points,
                                np.random.default_rng(seed))
    assert np.array_equal(walked, reference)


def _reference_mlp(m, feats):
    """``_mlp``'s body as it was written with ``np.matmul`` and a kept-axis centroid:
    (prediction, hidden activations) of feature rows ``(..., 3n + 2)``."""
    hidden = np.empty(feats.shape[:-1] + (m.hidden,))
    pred = np.empty(feats.shape[:-1] + (m.n_points, 3))
    flat = pred.reshape(feats.shape[:-1] + (-1,))
    np.matmul(feats, m.w1.T, out=hidden)
    np.add(hidden, m.b1, out=hidden)
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, m.w2.T, out=flat)
    np.add(flat, m.b2, out=flat)
    centroid = np.add.reduce(pred, axis=-2, keepdims=True)
    np.divide(centroid, m.n_points, out=centroid)
    return np.subtract(pred, centroid, out=pred), hidden


def _random_model(n_points, hidden, trained_steps, seed):
    """An initialized model with random biases, or one trained for ``trained_steps`` steps."""
    data = synth_trajectory(n_points, 3, 0.1, seed=seed % 1000)
    if trained_steps:
        cfg = TrainConfig(sigma=0.5, estimator=EstimatorKind.ORDER0, steps=trained_steps, batch=4,
                          lr=0.05, seed=seed % 1000, hidden=hidden)
        return train(cfg, data.frames).model
    rng = np.random.default_rng(seed)
    m = MlpDenoiser.initialize(n_points, hidden, data.scale, rng)
    m.b1[:] = rng.standard_normal(hidden)
    m.b2[:] = rng.standard_normal(3 * n_points)
    return m


@settings(max_examples=60, deadline=None)
@given(
    n_points=st.integers(4, 16),
    hidden=st.integers(1, 64),
    trained_steps=st.integers(0, 3),
    lead=st.sampled_from([(), (1,), (5,), (32,), (1, 1), (16, 1), (3, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_mlp_is_bit_for_bit_the_matmul_body(n_points, hidden, trained_steps, lead, seed):
    # 1-D rows (the walk), matrices (mlp_forward's single row, a training batch) and
    # stacks of rows (the probe) against the np.matmul form with a kept-axis centroid
    m = _random_model(n_points, hidden, trained_steps, seed)
    feats = np.random.default_rng(seed).standard_normal(lead + (3 * n_points + 2,))
    hidden_out, pred = np.empty(lead + (hidden,)), np.empty(lead + (n_points, 3))
    got = diffusion._mlp(m, feats, hidden_out, pred)()
    want, want_hidden = _reference_mlp(m, feats)
    assert got is pred
    assert np.array_equal(got, want) and np.array_equal(hidden_out, want_hidden)


@settings(max_examples=60, deadline=None)
@given(
    n_points=st.integers(4, 16),
    hidden=st.integers(1, 64),
    trained_steps=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    levels=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=59, unique=True),
)
def test_sample_walk_is_bit_for_bit_the_matmul_body_walk(n_points, hidden, trained_steps, seed, levels):
    # the walk against the step-by-step walk over the np.matmul body on mlp_forward's
    # (1, 3n + 2) feature row, written out here
    m = _random_model(n_points, hidden, trained_steps, seed)

    def reference_denoiser(y, sigma):
        feats = np.empty((1, 3 * n_points + 2))
        feats[0, :-2] = y.reshape(-1) / m.s_ref
        feats[0, -2] = np.log(sigma)
        feats[0, -1] = 1.0
        return _reference_mlp(m, feats)[0][0]

    schedule = DdimSchedule((*sorted(levels, reverse=True), 0.0))
    walked = ddim_sample(diffusion._walk_denoiser(m), schedule, n_points, np.random.default_rng(seed))
    reference = _reference_walk(reference_denoiser, schedule, n_points, np.random.default_rng(seed))
    assert np.array_equal(walked, reference)


@pytest.mark.parametrize("sigmas, message", [
    ((np.nan, 0.0), "schedule noise levels must be finite, got (nan, 0.0)"),
    ((1.0, np.nan, 0.0), "schedule noise levels must be finite, got (1.0, nan, 0.0)"),
    ((np.inf, 0.0), "schedule noise levels must be finite, got (inf, 0.0)"),
    ((1.0, 0.5, -np.inf), "schedule noise levels must be finite, got (1.0, 0.5, -inf)"),
    ((0.0,), "schedule needs sigma_M > ... > sigma_0 = 0"),
    ((1.0,), "schedule needs sigma_M > ... > sigma_0 = 0"),
    ((), "schedule needs sigma_M > ... > sigma_0 = 0"),
    ((1.0, 0.5), "schedule needs sigma_M > ... > sigma_0 = 0"),
    ((-1.0, 0.0), "schedule needs sigma_M > ... > sigma_0 = 0"),
    ((1.0, 0.5, 0.5, 0.0), "schedule must be strictly descending"),
    ((1.0, 0.0, 0.0), "schedule must be strictly descending"),
    ((0.5, 1.0, 0.0), "schedule must be strictly descending"),
    ((2.0, 1.0, 1.5, 0.0), "schedule must be strictly descending"),
])
def test_ddim_schedule_error_messages(sigmas, message):
    with pytest.raises(ValueError) as info:
        DdimSchedule(sigmas)
    assert str(info.value) == message


def test_ddim_schedule_stores_plain_floats():
    for sigmas in ((2, 1, np.float32(0.5), np.float64(0.25), 0), np.array([2.0, 1.0, 0.5, 0.25, 0.0]),
                   ("2", "1", "0.5", "0.25", "0")):
        schedule = DdimSchedule(sigmas)
        assert schedule.sigmas == (2.0, 1.0, 0.5, 0.25, 0.0)
        assert all(type(s) is float for s in schedule.sigmas)


def test_walks_through_one_denoiser_do_not_share_a_result(traj):
    # the walk's denoiser returns a buffer it overwrites; a sample must not be a view of it
    m = MlpDenoiser.initialize(8, 16, traj.scale, np.random.default_rng(18))
    schedule = DdimSchedule((2.0, 1.0, 0.5, 0.1, 0.0))
    denoise = diffusion._walk_denoiser(m)
    first = ddim_sample(denoise, schedule, 8, np.random.default_rng(1))
    kept = first.copy()
    second = ddim_sample(denoise, schedule, 8, np.random.default_rng(2))
    assert not np.array_equal(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(first, ddim_sample(diffusion._walk_denoiser(m), schedule, 8, np.random.default_rng(1)))


def test_model_rejects_a_wrong_size_theta(traj):
    # n_points 8 and hidden 4 take 4 * 26 + 4 + 24 * 4 + 24 = 228 parameters
    for size in (227, 229):
        with pytest.raises(ValueError, match=rf"theta has shape \({size},\); n_points=8 and hidden=4 take 228"):
            MlpDenoiser(np.zeros(size), 4, 8, traj.scale)
    with pytest.raises(ValueError, match="take 228"):
        MlpDenoiser(np.zeros((12, 19)), 4, 8, traj.scale)


def test_model_parameters_cannot_be_rebound(traj):
    m = MlpDenoiser.initialize(8, 4, traj.scale, np.random.default_rng(16))
    with pytest.raises(FrozenInstanceError):
        m.w2 = m.w2[:, :3]
    with pytest.raises(FrozenInstanceError):
        m.b1 = np.zeros(1)
    assert m.w2.shape == (24, 4) and m.b1.shape == (4,)


def test_parameters_view_theta_and_checkpoint_is_its_bytes(tmp_path, traj):
    m = MlpDenoiser.initialize(8, 4, traj.scale, np.random.default_rng(17))
    shapes = {"w1": (4, 26), "b1": (4,), "w2": (24, 4), "b2": (24,)}
    start = 0
    for name, shape in shapes.items():  # checkpoint order
        p = getattr(m, name)
        assert p.shape == shape and np.shares_memory(p, m.theta)
        np.testing.assert_array_equal(p.ravel(), m.theta[start : start + p.size])
        start += p.size
    assert start == m.theta.size
    path = tmp_path / "model.bin"
    save_denoiser(m, path)
    assert path.read_bytes().partition(b"\n")[2] == m.theta.astype("<f8").tobytes()
    loaded, _ = load_denoiser(path)
    assert loaded.theta.tobytes() == m.theta.tobytes()
    assert all(np.shares_memory(getattr(loaded, name), loaded.theta) for name in shapes)
