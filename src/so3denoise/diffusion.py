"""Desk-scale diffusion machinery: noising, matching losses, MLP training, DDIM.

The denoiser is a 2-layer tanh MLP on flattened coordinates with a
log-noise feature, trained by matching one of the estimator targets.
Gradients are computed by manual reverse-mode differentiation (targets
are constants; there is no gradient through the alignment/SVD).  A run
that produces non-finite losses or parameters terminates with a
``diverged`` status instead of crashing.

Training runs in blocks of steps.  A step's draws and targets depend only
on the seeded stream, not on the model, and the probe metrics never feed
the update, so each block draws all its batches (three generator calls
per step), noises them and computes their targets in one stacked pass,
and scores the probe predictions of all its steps in one stacked pass
when it ends.  Each step keeps only its forward/backward pass and one
Adam update of the flat parameter vector the four parameters view.

Every forward pass (training, ``mlp_forward`` and the sampling walk) runs
through one MLP body, ``_mlp``.  The walk's denoiser checks the model
once and refills one feature row per step, so a DDIM step is the MLP
arithmetic and little else; it is bit for bit ``mlp_forward``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .align import aligned_rmsd, rmsd
from .estimators import EstimatorKind, _write_csv, estimator_target
from .geom import _noised, center, rotate
from .trajectory import _rms_point_norm

_PARAM_FIELDS = ("w1", "b1", "w2", "b2")

# cap on the points (steps x batch x N) a training block draws and scores at once
_BLOCK_POINTS = 4096


@dataclass
class MlpDenoiser:
    """2-layer tanh MLP acting on flattened point coordinates.

    Input features: coordinates scaled by the dataset reference scale
    ``s_ref``, then log(sigma), then a constant 1.  The output is
    reshaped to (N, 3) and re-centered.
    """

    w1: np.ndarray  # (hidden, 3n + 2)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (3n, hidden)
    b2: np.ndarray  # (3n,)
    hidden: int
    n_points: int
    s_ref: float

    @classmethod
    def initialize(
        cls, n_points: int, hidden: int, s_ref: float, rng: np.random.Generator
    ) -> "MlpDenoiser":
        d_in = 3 * n_points + 2
        d_out = 3 * n_points
        return cls(
            w1=rng.standard_normal((hidden, d_in)) / np.sqrt(d_in),
            b1=np.zeros(hidden),
            w2=rng.standard_normal((d_out, hidden)) / np.sqrt(hidden),
            b2=np.zeros(d_out),
            hidden=hidden,
            n_points=n_points,
            s_ref=float(s_ref),
        )

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in _PARAM_FIELDS}


class StepMetrics(NamedTuple):
    step: int
    loss: float
    rmsd: float
    aligned_rmsd: float
    n_excluded: int


@dataclass(frozen=True)
class TrainConfig:
    sigma: float
    estimator: EstimatorKind
    steps: int
    batch: int = 32
    lr: float = 1e-3
    seed: int = 0
    dataset_mode: str = "all-frames"  # or "single-frame"
    hidden: int = 64

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and np.isfinite(self.lr)):
            raise ValueError(f"sigma and lr must be finite, got {self.sigma} and {self.lr}")
        if self.sigma <= 0 or self.lr <= 0 or self.batch < 1 or self.hidden < 1:
            raise ValueError("sigma, lr, batch and hidden must be positive")
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.dataset_mode not in ("all-frames", "single-frame"):
            raise ValueError(f"unknown dataset_mode {self.dataset_mode!r}")
        object.__setattr__(self, "estimator", EstimatorKind(self.estimator))


@dataclass
class TrainResult:
    model: MlpDenoiser
    metrics: list[StepMetrics]
    status: str  # "completed" | "diverged"
    diverged_at: int | None = None


@dataclass(frozen=True)
class DdimSchedule:
    """Strictly descending noise levels ending at exactly zero."""

    sigmas: tuple[float, ...]

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        if not np.all(np.isfinite(sig)):
            raise ValueError(f"schedule noise levels must be finite, got {sig}")
        if len(sig) < 2 or sig[0] <= 0 or sig[-1] != 0.0:
            raise ValueError("schedule needs sigma_M > ... > sigma_0 = 0")
        if any(a <= b for a, b in zip(sig, sig[1:])):
            raise ValueError("schedule must be strictly descending")
        object.__setattr__(self, "sigmas", sig)


def noise_sample(
    x: np.ndarray, sigma: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate by a Haar draw, add isotropic noise, re-center.

    Returns (y, r_aug).  Re-centering is required because the noise
    breaks the zero-centroid constraint the posterior formulas assume.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    x = np.asarray(x, dtype=float)
    q = rng.standard_normal(4)
    return _noised(x, q, None if sigma == 0 else rng.standard_normal(x.shape), sigma)


def _features(m: MlpDenoiser, ys: np.ndarray, sigma: float) -> np.ndarray:
    """Feature rows ``(..., 3n + 2)`` for clouds ``(..., n, 3)``."""
    lead = ys.shape[:-2]
    feats = np.empty(lead + (3 * m.n_points + 2,))
    feats[..., : 3 * m.n_points] = ys.reshape(lead + (-1,)) / m.s_ref
    feats[..., -2] = np.log(sigma)
    feats[..., -1] = 1.0
    return feats


def _mlp(m: MlpDenoiser, feats: np.ndarray, shape: tuple[int, ...]):
    """The MLP on feature rows: the re-centered prediction of shape ``shape``
    and the hidden activations.  Every forward pass runs through here."""
    hidden = np.tanh(feats @ m.w1.T + m.b1)
    return center((hidden @ m.w2.T + m.b2).reshape(shape)), hidden


def _param_shapes(n_points: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Shapes of the four parameters, in checkpoint order."""
    return {"w1": (hidden, 3 * n_points + 2), "b1": (hidden,),
            "w2": (3 * n_points, hidden), "b2": (3 * n_points,)}


def _param_views(flat: np.ndarray, n_points: int, hidden: int) -> dict[str, np.ndarray]:
    """The four parameters as reshaped views of one flat vector, in checkpoint order."""
    params, start = {}, 0
    for name, shape in _param_shapes(n_points, hidden).items():
        size = math.prod(shape)
        params[name] = flat[start : start + size].reshape(shape)
        start += size
    return params


def _check_model(m: MlpDenoiser) -> None:
    for name, shape in _param_shapes(m.n_points, m.hidden).items():
        if getattr(m, name).shape != shape:
            raise ValueError(f"parameter {name} has shape {getattr(m, name).shape}, expected {shape}")


def mlp_forward(m: MlpDenoiser, y: np.ndarray, sigma: float) -> np.ndarray:
    """Denoised prediction for a cloud ``(n, 3)`` or a stack ``(b, n, 3)``.

    Each cloud of a stack is one feature row of its own, ``(b, 1, 3n + 2)``,
    so its prediction is bit for bit the single-cloud prediction whatever
    else is in the stack.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (2, 3) or y.shape[-2:] != (m.n_points, 3):
        raise ValueError(f"expected shape {(m.n_points, 3)} or a stack of it, got {y.shape}")
    ys = y[..., None, :, :]
    out, _ = _mlp(m, _features(m, ys, sigma), ys.shape)
    return out[..., 0, :, :]


def _walk_denoiser(m: MlpDenoiser) -> Callable[[np.ndarray, float], np.ndarray]:
    """``mlp_forward`` on one cloud, for a ``ddim_sample`` walk.

    The model is checked once, here, and every step refills one feature
    row in place.  The matmul shapes are those of ``mlp_forward`` on an
    ``(n, 3)`` cloud, so each step is bit for bit its prediction.  The walk
    passes only ``(n, 3)`` clouds, which are not checked again.
    """
    _check_model(m)
    d_out = 3 * m.n_points
    row = np.empty((1, d_out + 2))
    coords = row[:, :d_out]
    row[0, -1] = 1.0
    shape = (1, m.n_points, 3)

    def denoise(y: np.ndarray, sigma: float) -> np.ndarray:
        np.divide(y.reshape(1, d_out), m.s_ref, out=coords)
        row[0, -2] = np.log(sigma)
        return _mlp(m, row, shape)[0][0]

    return denoise


class LossAndGrad(NamedTuple):
    loss: float
    grads: dict[str, np.ndarray]
    n_excluded: int


def _targets(ys, xs, r_aug, sigma: float, estimator: EstimatorKind):
    """Estimator targets for stacked pairs and the mask of items to keep."""
    return estimator_target(estimator, ys, xs, sigma, r_aug=r_aug if estimator is EstimatorKind.AUG else None)


def _batch_loss_and_grad(
    m: MlpDenoiser, ys: np.ndarray, targets: np.ndarray, keep: np.ndarray, sigma: float
) -> LossAndGrad:
    """Loss and gradients of a stacked batch against its precomputed targets."""
    if not keep.any():
        raise ValueError("every sample in the batch was excluded")
    n = ys.shape[0]
    if not keep.all():
        ys, targets = ys[keep], targets[keep]
    b = ys.shape[0]

    # one (b, 3n + 2) feature matrix: the training forward is a single GEMM
    feats = _features(m, ys, sigma)
    out, hidden = _mlp(m, feats, ys.shape)
    diff = out - targets
    loss = float(np.sum(diff * diff) / b)

    g_out = 2.0 * diff / b
    g_out = g_out - np.add.reduce(g_out, axis=1, keepdims=True) / g_out.shape[1]  # through re-centering
    g_flat = g_out.reshape(b, -1)
    g_hidden = g_flat @ m.w2
    g_pre = g_hidden * (1.0 - hidden * hidden)
    grads = {
        "w2": g_flat.T @ hidden,
        "b2": g_flat.sum(axis=0),
        "w1": g_pre.T @ feats,
        "b1": g_pre.sum(axis=0),
    }
    return LossAndGrad(loss, grads, n - b)


def loss_and_grad(
    m: MlpDenoiser,
    batch: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    sigma: float,
    estimator: EstimatorKind,
) -> LossAndGrad:
    """Mean matching loss over a batch and its parameter gradients.

    ``batch`` holds (y, x, r_aug) triples.  Targets are constants in the
    backward pass.  Samples whose target cannot be computed are excluded
    and counted; an entirely excluded batch raises ``ValueError``.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    ys, xs, r_aug = (np.stack(part) for part in zip(*batch))
    return _batch_loss_and_grad(m, ys, *_targets(ys, xs, r_aug, sigma, estimator), sigma)


def train(
    cfg: TrainConfig,
    dataset: np.ndarray,
    probe_size: int = 16,
) -> TrainResult:
    """Adam-train an MLP denoiser against the configured estimator target.

    Metrics are recorded per step on a fixed probe batch drawn before
    training: RMSD of the prediction to the rotated ground truth, and
    aligned RMSD to the clean frame.  Row 0 reports the pre-training
    state (its loss is evaluated on the probe batch).  Fully
    deterministic given the config seed.  Non-finite losses or
    parameters, or a batch whose samples are all excluded, stop the run
    with status ``"diverged"``.  A dataset with non-finite coordinates
    raises ``ValueError``, and so does one whose coordinates are large
    enough (about 1e154 and up) that a cross-covariance ``y.T @ x``
    overflows, under every estimator but AUG.  So does a frame 0 of zero
    RMS norm (all zero, say), whose norm is the input scale ``s_ref``.
    Any later frame whose alignment is degenerate (an all-zero frame, say)
    is trained on like any other, with a ``DegenerateAlignmentWarning``
    under ORDER0.

    Each batch (the probe first, then one per step) is drawn with three
    generator calls: ``integers(frames, size=batch)`` in all-frames mode
    only, ``standard_normal((batch, 4))`` for the Haar rotations and
    ``standard_normal((batch, N, 3))`` for the noise.  Steps run in blocks
    of at most ``_BLOCK_POINTS`` drawn points (at least one step): a
    block's batches are drawn step by step, noised and given their
    targets in one stacked pass, and its probe predictions are scored in
    one stacked pass when it ends or diverges.  Results are bit for bit
    those of drawing, scoring and probing step by step; on divergence the
    rest of the block's draws are made but not used.  The four parameters
    are views into one flat vector, in checkpoint order, which one Adam
    update per step changes in place.
    """
    frames = np.asarray(dataset, dtype=float)
    if frames.ndim != 3 or frames.shape[0] < 1 or frames.shape[2] != 3:
        raise ValueError("dataset must be a nonempty (frames, N, 3) array")
    if not np.all(np.isfinite(frames)):
        raise ValueError("dataset coordinates must be finite")
    n_points = frames.shape[1]
    s_ref = _rms_point_norm(frames[0])
    if not s_ref > 0:
        raise ValueError("frame 0 has zero RMS norm; the denoiser's input scale is taken from it")

    rng = np.random.default_rng(cfg.seed)
    model = MlpDenoiser.initialize(n_points, cfg.hidden, s_ref, rng)

    def draw_batch(n_batches: int, size: int):
        """(ys, xs, r_aug) stacks of ``n_batches`` batches, each drawn with three generator calls."""
        idx = np.zeros((n_batches, size), dtype=int)
        q = np.empty((n_batches, size, 4))
        eta = np.empty((n_batches, size, n_points, 3))
        for k in range(n_batches):
            if cfg.dataset_mode == "all-frames":
                idx[k] = rng.integers(len(frames), size=size)
            rng.standard_normal(out=q[k])
            rng.standard_normal(out=eta[k])
        xs = frames[idx.ravel()]
        ys, r_aug = _noised(xs, q.reshape(-1, 4), eta.reshape(xs.shape), cfg.sigma)
        return ys, xs, r_aug

    probe_ys, probe_xs, probe_r = draw_batch(1, probe_size)
    probe_truth = rotate(probe_r, probe_xs)
    probe_targets, probe_keep = _targets(probe_ys, probe_xs, probe_r, cfg.sigma, cfg.estimator)

    block_steps = max(1, _BLOCK_POINTS // (cfg.batch * n_points))
    preds = np.empty((block_steps, probe_size, n_points, 3))  # probe predictions of a block
    pending: list[tuple[int, float, int]] = []  # (step, loss, n_excluded) rows of those
    metrics: list[StepMetrics] = []

    def flush() -> None:
        """Score the pending probe predictions in one stacked pass and append their rows."""
        stack = preds[: len(pending)]
        r = np.add.reduce(rmsd(stack, np.broadcast_to(probe_truth, stack.shape)), axis=1) / probe_size
        a = np.add.reduce(aligned_rmsd(stack, np.broadcast_to(probe_xs, stack.shape)), axis=1) / probe_size
        for (step, loss, n_excluded), r_j, a_j in zip(pending, r.tolist(), a.tolist()):
            metrics.append(StepMetrics(step, loss, r_j, a_j, n_excluded))
        pending.clear()

    def probe(step: int, loss: float, n_excluded: int) -> None:
        preds[len(pending)] = mlp_forward(model, probe_ys, cfg.sigma)
        pending.append((step, loss, n_excluded))

    def diverged(step: int) -> TrainResult:
        flush()
        return TrainResult(model, metrics, "diverged", step)

    if probe_keep.any():
        diff = mlp_forward(model, probe_ys[probe_keep], cfg.sigma) - probe_targets[probe_keep]
        probe_loss = float(np.sum(diff**2) / np.count_nonzero(probe_keep))
    else:
        probe_loss = float("nan")
    probe(0, probe_loss, 0)
    flush()

    # the parameters become views into one flat vector, in checkpoint order
    theta = np.concatenate([getattr(model, name).ravel() for name in _PARAM_FIELDS])
    for name, p in _param_views(theta, n_points, cfg.hidden).items():
        setattr(model, name, p)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moment1, moment2 = np.zeros_like(theta), np.zeros_like(theta)

    # overflow inside a step is the divergence signal, surfaced via the status
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, cfg.steps + 1, block_steps):
            n_steps = min(block_steps, cfg.steps + 1 - first)
            ys, xs, r_aug = draw_batch(n_steps, cfg.batch)
            targets, keep = _targets(ys, xs, r_aug, cfg.sigma, cfg.estimator)
            for step in range(first, first + n_steps):
                rows = slice((step - first) * cfg.batch, (step - first + 1) * cfg.batch)
                try:
                    loss, grads, n_excluded = _batch_loss_and_grad(
                        model, ys[rows], targets[rows], keep[rows], cfg.sigma
                    )
                except ValueError:  # every sample of the batch was excluded
                    return diverged(step)
                if not np.isfinite(loss):
                    return diverged(step)
                g = np.concatenate([grads[name].ravel() for name in _PARAM_FIELDS])
                moment1 = beta1 * moment1 + (1 - beta1) * g
                moment2 = beta2 * moment2 + (1 - beta2) * g * g
                m_hat = moment1 / (1 - beta1**step)
                v_hat = moment2 / (1 - beta2**step)
                theta -= cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
                if not np.isfinite(theta).all():
                    return diverged(step)
                probe(step, loss, n_excluded)
            flush()
    return TrainResult(model, metrics, "completed", None)


def ddim_sample(
    denoiser: Callable[[np.ndarray, float], np.ndarray],
    schedule: DdimSchedule,
    n_points: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deterministic denoising walk from centered Gaussian noise.

    Each update moves the current sample toward the denoiser prediction
    by the relative noise decrement: y <- y + (1 - s_lo/s_hi) (D(y, s_hi) - y).
    ``denoiser`` is any callable on an ``(n_points, 3)`` cloud and a noise
    level.  For a trained model, ``_walk_denoiser(model)`` is the cheap
    one: ``mlp_forward`` bit for bit, with the model checked once per walk
    instead of the cloud once per step.
    """
    sig = schedule.sigmas
    y = center(sig[0] * rng.standard_normal((n_points, 3)))
    for s_hi, s_lo in zip(sig, sig[1:]):
        y = y + (1.0 - s_lo / s_hi) * (denoiser(y, s_hi) - y)
    return y


METRICS_CSV_HEADER = ["step", "loss", "rmsd", "aligned_rmsd", "n_excluded"]


def write_metrics_csv(metrics: list[StepMetrics], path) -> None:
    _write_csv(path, METRICS_CSV_HEADER, metrics)


def save_denoiser(model: MlpDenoiser, path, seed: int | None = None,
                  config: TrainConfig | None = None) -> None:
    """Write a checkpoint: one JSON header line, then little-endian f64 params.

    The parameter block is the raveled w1, b1, w2, b2 in that order.
    """
    header = {
        "n_points": model.n_points,
        "hidden": model.hidden,
        "s_ref": model.s_ref,
        "seed": seed,
        "config": _config_dict(config),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for name in _PARAM_FIELDS:
            fh.write(np.ascontiguousarray(getattr(model, name), dtype="<f8").tobytes())


def _config_dict(config: TrainConfig | None):
    if config is None:
        return None
    d = asdict(config)
    d["estimator"] = config.estimator.value
    return d


def load_denoiser(path) -> tuple[MlpDenoiser, dict]:
    """Read a checkpoint back; returns the model and its JSON header.

    A missing or invalid ``n_points``, ``hidden`` or ``s_ref`` raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        line, _, block = fh.read().partition(b"\n")
    header = json.loads(line.decode("utf-8"))
    for key, types in (("n_points", (int,)), ("hidden", (int,)), ("s_ref", (int, float))):
        if not isinstance(header, dict) or key not in header:
            raise ValueError(f"checkpoint {path}: header has no {key!r}")
        if type(header[key]) not in types or not 0 < header[key] < math.inf:
            what = "a positive int" if types == (int,) else "positive and finite"
            raise ValueError(f"checkpoint {path}: header {key!r} must be {what}, got {header[key]!r}")
    n, h = header["n_points"], header["hidden"]
    count = sum(math.prod(shape) for shape in _param_shapes(n, h).values())
    if len(block) < 8 * count:
        raise ValueError(f"truncated checkpoint: {path}")
    # one copy of the block, which the four parameters view
    params = _param_views(np.frombuffer(block, dtype="<f8", count=count).copy(), n, h)
    return MlpDenoiser(hidden=h, n_points=n, s_ref=float(header["s_ref"]), **params), header
