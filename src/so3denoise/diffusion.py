"""Desk-scale diffusion machinery: noising, matching losses, MLP training, DDIM.

The denoiser is a 2-layer tanh MLP on flattened coordinates with a
log-noise feature, trained by matching one of the estimator targets.
Gradients are computed by manual reverse-mode differentiation (targets
are constants; there is no gradient through the alignment/SVD).  A run
that produces non-finite losses or parameters terminates with a
``diverged`` status instead of crashing.

How a run is drawn, blocked and scored, how every forward pass shares one
MLP body and how a DDIM walk runs without allocating are documented where
they live: ``train``, ``_mlp``, ``_walk_denoiser`` and ``ddim_sample``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .align import _spectral_rmsd, rmsd
from .estimators import EstimatorKind, _write_csv, estimator_target
from .geom import _count, _noised, _positive, center, rotate
from .trajectory import _rms_point_norm

# cap on the points (steps x batch x N) a training block draws and scores at once
_BLOCK_POINTS = 4096

# clouds in the fixed probe batch that ``train`` scores after every step
_PROBE_SIZE = 16


def _param_shapes(n_points: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Shapes of the four parameters, in checkpoint order."""
    return {"w1": (hidden, 3 * n_points + 2), "b1": (hidden,),
            "w2": (3 * n_points, hidden), "b2": (3 * n_points,)}


def _param_count(n_points: int, hidden: int) -> int:
    return sum(math.prod(shape) for shape in _param_shapes(n_points, hidden).values())


@dataclass(frozen=True)
class MlpDenoiser:
    """2-layer tanh MLP acting on flattened point coordinates.

    Input features: coordinates scaled by the dataset reference scale
    ``s_ref``, then log(sigma), then a constant 1.  The output is
    reshaped to (N, 3) and re-centered.

    ``theta`` holds every parameter in checkpoint order, and ``w1, b1, w2,
    b2`` are views into it, fixed when the model is built: a model with a
    rebound or wrongly sized parameter cannot exist.
    """

    theta: np.ndarray
    hidden: int
    n_points: int
    s_ref: float
    w1: np.ndarray = field(init=False, repr=False)  # (hidden, 3n + 2)
    b1: np.ndarray = field(init=False, repr=False)  # (hidden,)
    w2: np.ndarray = field(init=False, repr=False)  # (3n, hidden)
    b2: np.ndarray = field(init=False, repr=False)  # (3n,)

    def __post_init__(self):
        for name in ("n_points", "hidden"):  # numpy ints and bools become plain ints
            object.__setattr__(self, name, _count(getattr(self, name), name, 1))
        object.__setattr__(self, "s_ref", float(self.s_ref))  # a plain float, which json writes
        count = _param_count(self.n_points, self.hidden)
        if self.theta.shape != (count,):
            raise ValueError(f"theta has shape {self.theta.shape}; n_points={self.n_points} and "
                             f"hidden={self.hidden} take {count} parameters")
        start = 0
        for name, shape in _param_shapes(self.n_points, self.hidden).items():
            size = math.prod(shape)
            object.__setattr__(self, name, self.theta[start : start + size].reshape(shape))
            start += size

    @classmethod
    def initialize(
        cls, n_points: int, hidden: int, s_ref: float, rng: np.random.Generator
    ) -> "MlpDenoiser":
        n_points, hidden = _count(n_points, "n_points", 1), _count(hidden, "hidden", 1)
        model = cls(np.zeros(_param_count(n_points, hidden)), hidden, n_points, s_ref)
        model.w1[...] = rng.standard_normal(model.w1.shape) / np.sqrt(model.w1.shape[1])
        model.w2[...] = rng.standard_normal(model.w2.shape) / np.sqrt(hidden)
        return model


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
    hidden: int = 64

    def __post_init__(self):
        for name, least in (("steps", 0), ("batch", 1), ("seed", 0), ("hidden", 1)):  # made plain ints
            object.__setattr__(self, name, _count(getattr(self, name), name, least))
        for name in ("sigma", "lr"):
            _positive(getattr(self, name), name)
            object.__setattr__(self, name, float(getattr(self, name)))  # a plain float, which json writes
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
        levels = np.fromiter(self.sigmas, float)  # the one array both value checks read
        sig = tuple(levels.tolist())
        if not np.isfinite(levels).all():
            raise ValueError(f"schedule noise levels must be finite, got {sig}")
        if len(sig) < 2 or sig[0] <= 0 or sig[-1] != 0.0:
            raise ValueError("schedule needs sigma_M > ... > sigma_0 = 0")
        if not (levels[:-1] > levels[1:]).all():
            raise ValueError("schedule must be strictly descending")
        object.__setattr__(self, "sigmas", sig)


def noise_sample(
    x: np.ndarray, sigma: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Rotate by a Haar draw, add isotropic noise of positive finite level ``sigma``, re-center.

    Returns (y, r_aug).  Re-centering is required because the noise
    breaks the zero-centroid constraint the posterior formulas assume.
    """
    _positive(sigma, "sigma")
    x = np.asarray(x, dtype=float)
    q = rng.standard_normal(4)
    return _noised(x, q, rng.standard_normal(x.shape), sigma)


def _features(m: MlpDenoiser, ys: np.ndarray, sigma: float) -> np.ndarray:
    """Feature rows ``(..., 3n + 2)`` for clouds ``(..., n, 3)``."""
    lead = ys.shape[:-2]
    feats = np.empty(lead + (3 * m.n_points + 2,))
    feats[..., : 3 * m.n_points] = ys.reshape(lead + (-1,)) / m.s_ref
    feats[..., -2] = np.log(sigma)
    feats[..., -1] = 1.0
    return feats


def _mlp(
    m: MlpDenoiser, feats: np.ndarray, hidden: np.ndarray, pred: np.ndarray
) -> Callable[[], np.ndarray]:
    """The MLP bound to caller-owned buffers; every forward pass runs through here.

    ``feats`` holds feature rows ``(..., 3n + 2)``, ``hidden`` gets the
    activations ``(..., hidden)`` and ``pred`` the re-centered prediction
    ``(..., n, 3)``; ``pred`` is C-contiguous, so that its flat rows
    ``(..., 3n)`` are a view of it.  The returned call reads ``feats`` as
    it is then, writes ``hidden`` and ``pred`` in place and returns ``pred``.
    It allocates nothing; buffers, weight views and ufuncs are bound once,
    here.  Rows multiply with ``np.dot``, ``np.matmul``'s BLAS call for less;
    a stack keeps ``np.matmul``, which ``np.dot`` would make other bits.
    """
    w1t, b1, w2t, b2 = m.w1.T, m.b1, m.w2.T, m.b2
    flat = pred.reshape(pred.shape[:-2] + (-1,))
    centroid = np.empty(pred.shape[:-2] + (1, 3))
    sums = centroid[..., 0, :]  # the centroid without its kept axis, the reduction's out
    n = pred.shape[-2]
    product = np.dot if feats.ndim <= 2 else np.matmul
    add, tanh, reduce, divide, subtract = np.add, np.tanh, np.add.reduce, np.divide, np.subtract

    def forward() -> np.ndarray:
        product(feats, w1t, hidden)
        add(hidden, b1, hidden)
        tanh(hidden, hidden)
        product(hidden, w2t, flat)
        add(flat, b2, flat)
        # ``geom.center``'s sum and division, in place
        reduce(pred, -2, None, sums)
        divide(centroid, n, centroid)
        return subtract(pred, centroid, pred)

    return forward


def mlp_forward(m: MlpDenoiser, y: np.ndarray, sigma: float) -> np.ndarray:
    """Denoised prediction for a cloud ``(n, 3)`` or a stack ``(b, n, 3)``.

    Each cloud of a stack is one feature row of its own, ``(b, 1, 3n + 2)``,
    so its prediction is bit for bit the single-cloud prediction whatever
    else is in the stack.  ``sigma`` must be positive and finite.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (2, 3) or y.shape[-2:] != (m.n_points, 3):
        raise ValueError(f"expected shape {(m.n_points, 3)} or a stack of it, got {y.shape}")
    _positive(sigma, "sigma")
    ys = y[..., None, :, :]
    feats = _features(m, ys, sigma)
    out = _mlp(m, feats, np.empty(feats.shape[:-1] + (m.hidden,)), np.empty(ys.shape))()
    return out[..., 0, :, :]


def _walk_denoiser(m: MlpDenoiser) -> Callable[[np.ndarray, float], np.ndarray]:
    """``mlp_forward`` on one cloud, for a ``ddim_sample`` walk.

    The feature row, the hidden activations and the prediction are buffers
    made once, here, and ``_mlp`` is bound to them once.  Every step refills
    the row's coordinates and log(sigma) in place and runs the bound
    forward, which allocates nothing; its result is the prediction buffer,
    overwritten by the next step.  The row is 1-D ``(3n + 2,)``, which gives
    the bits of ``mlp_forward``'s ``(1, 3n + 2)`` row with fewer broadcasts.
    The walk passes only ``(n, 3)`` clouds, which are not checked.
    """
    s_ref = m.s_ref
    row = _features(m, np.zeros((m.n_points, 3)), 1.0)  # refilled by every step
    coords = row[:-2].reshape(m.n_points, 3)
    log_sigma = row[-2:-1]
    forward = _mlp(m, row, np.empty(m.hidden), np.empty((m.n_points, 3)))
    divide, log = np.divide, np.log

    def denoise(y: np.ndarray, sigma: float) -> np.ndarray:
        divide(y, s_ref, coords)
        log(sigma, log_sigma)
        return forward()

    return denoise


class LossAndGrad(NamedTuple):
    loss: float
    grads: dict[str, np.ndarray]
    n_excluded: int


def _targets(ys, xs, r_aug, sigma: float, estimator: EstimatorKind):
    """Estimator targets for stacked pairs and the mask of items to keep."""
    return estimator_target(estimator, ys, xs, sigma, r_aug=r_aug if estimator is EstimatorKind.AUG else None)


def _batch_loss_and_grad(
    m: MlpDenoiser, ys: np.ndarray, targets: np.ndarray, keep: np.ndarray, sigma: float, grad: MlpDenoiser
) -> tuple[float, int]:
    """Loss and excluded count of a stacked batch against its precomputed targets.

    Writes the gradients into ``grad``, shaped like ``m``: its ``theta`` is the flat gradient."""
    if not keep.all():
        ys, targets = ys[keep], targets[keep]
    b = ys.shape[0]

    # one (b, 3n + 2) feature matrix: the training forward is a single GEMM
    feats = _features(m, ys, sigma)
    hidden = np.empty((b, m.hidden))
    out = _mlp(m, feats, hidden, np.empty(ys.shape))()
    diff = out - targets
    loss = float(np.sum(diff * diff) / b)

    g_flat = center(2.0 * diff / b).reshape(b, -1)  # through re-centering
    g_pre = (g_flat @ m.w2) * (1.0 - hidden * hidden)
    np.matmul(g_flat.T, hidden, out=grad.w2)
    g_flat.sum(axis=0, out=grad.b2)
    np.matmul(g_pre.T, feats, out=grad.w1)
    g_pre.sum(axis=0, out=grad.b1)
    return loss, len(keep) - b


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
    targets, keep = _targets(ys, xs, r_aug, sigma, estimator)
    if not keep.any():
        raise ValueError("every sample in the batch was excluded")
    grad = replace(m, theta=np.empty_like(m.theta))  # a new flat gradient per call
    loss, n_excluded = _batch_loss_and_grad(m, ys, targets, keep, sigma, grad)
    return LossAndGrad(loss, {name: getattr(grad, name) for name in ("w1", "b1", "w2", "b2")}, n_excluded)


def train(cfg: TrainConfig, dataset: np.ndarray) -> TrainResult:
    """Adam-train an MLP denoiser against the configured estimator target.

    Metrics are recorded per step on a fixed probe batch drawn before
    training: RMSD of the prediction to the rotated ground truth, and
    aligned RMSD to the clean frame, from the spectrum of the clouds'
    cross-covariance alone (``align._spectral_rmsd``: Horn's quartic solved
    by QCP, an SVD only for near-degenerate pairs; within about sqrt(eps)
    times the clouds' scale of ``aligned_rmsd``).  Row 0 reports the pre-training
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
    generator calls: ``integers(frames, size=batch)``, which draws no bits
    from a one-frame dataset (pass ``dataset[:1]`` to train on frame 0),
    ``standard_normal((batch, 4))`` for the Haar rotations and
    ``standard_normal((batch, N, 3))`` for the noise.  Steps run in blocks
    of at most ``_BLOCK_POINTS`` drawn points (at least one step): a
    block's batches are drawn step by step, noised and given their
    targets in one stacked pass, and its probe predictions are scored in
    one stacked pass when it ends or diverges.  Results are bit for bit
    those of drawing, scoring and probing step by step; on divergence the
    rest of the block's draws are made but not used.  One Adam update
    per step changes the model's ``theta`` in place.
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
        idx = np.empty((n_batches, size), dtype=int)
        q = np.empty((n_batches, size, 4))
        eta = np.empty((n_batches, size, n_points, 3))
        for k in range(n_batches):
            idx[k] = rng.integers(len(frames), size=size)
            rng.standard_normal(out=q[k])
            rng.standard_normal(out=eta[k])
        xs = frames[idx.ravel()]
        ys, r_aug = _noised(xs, q.reshape(-1, 4), eta.reshape(xs.shape), cfg.sigma)
        return ys, xs, r_aug

    probe_ys, probe_xs, probe_r = draw_batch(1, _PROBE_SIZE)
    probe_truth = rotate(probe_r, probe_xs)
    probe_targets, probe_keep = _targets(probe_ys, probe_xs, probe_r, cfg.sigma, cfg.estimator)
    # mlp_forward's (16, 1, 3n + 2) rows: one (16, 3n + 2) GEMM would give other bits
    probe_forward = _mlp(model, _features(model, probe_ys[:, None], cfg.sigma),
                         np.empty((_PROBE_SIZE, 1, cfg.hidden)), np.empty((_PROBE_SIZE, 1, n_points, 3)))

    block_steps = max(1, _BLOCK_POINTS // (cfg.batch * n_points))
    preds = np.empty((block_steps, _PROBE_SIZE, n_points, 3))  # probe predictions of a block
    metrics: list[StepMetrics] = []

    def score(rows: list[tuple[int, float, int]]) -> None:
        """Append the metrics of ``(step, loss, n_excluded)`` rows, whose probe predictions
        fill the start of ``preds``, scored in one stacked pass."""
        stack = preds[: len(rows)]
        r = np.add.reduce(rmsd(stack, np.broadcast_to(probe_truth, stack.shape)), axis=1) / _PROBE_SIZE
        a = np.add.reduce(_spectral_rmsd(stack, probe_xs, probe_xs_sq), axis=1) / _PROBE_SIZE
        for (step, loss, n_excluded), r_j, a_j in zip(rows, r.tolist(), a.tolist()):
            metrics.append(StepMetrics(step, loss, r_j, a_j, n_excluded))

    theta, grad = model.theta, replace(model, theta=np.empty_like(model.theta))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moment1, moment2 = np.zeros_like(theta), np.zeros_like(theta)
    m_step, v_step = np.empty_like(theta), np.empty_like(theta)  # Adam's scratch
    finite = np.empty(theta.shape, dtype=bool)

    # overflow in a step or a probe score is the divergence signal, surfaced via the status
    with np.errstate(over="ignore", invalid="ignore"):
        probe_xs_sq = np.sum(probe_xs * probe_xs, axis=(-2, -1))  # |b|^2 of every probe score
        # row 0's loss is the mean over the kept probe items: 0 / 0, so NaN, when none is kept
        preds[0] = probe_forward()[:, 0]
        diff = preds[0, probe_keep] - probe_targets[probe_keep]
        score([(0, float(np.sum(diff**2) / np.count_nonzero(probe_keep)), 0)])
        for first in range(1, cfg.steps + 1, block_steps):
            n_steps = min(block_steps, cfg.steps + 1 - first)
            ys, xs, r_aug = draw_batch(n_steps, cfg.batch)
            targets, keep = _targets(ys, xs, r_aug, cfg.sigma, cfg.estimator)
            rows: list[tuple[int, float, int]] = []
            for step in range(first, first + n_steps):
                part = slice((step - first) * cfg.batch, (step - first + 1) * cfg.batch)
                if not keep[part].any():  # every sample of the step's batch was excluded
                    break
                loss, n_excluded = _batch_loss_and_grad(model, ys[part], targets[part], keep[part], cfg.sigma, grad)
                if not np.isfinite(loss):
                    break
                # m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, theta -= lr*m_hat / (sqrt(v_hat) + eps)
                g = grad.theta
                np.add(np.multiply(moment1, beta1, out=moment1),
                       np.multiply(g, 1 - beta1, out=m_step), out=moment1)
                np.multiply(np.multiply(g, 1 - beta2, out=v_step), g, out=v_step)
                np.add(np.multiply(moment2, beta2, out=moment2), v_step, out=moment2)
                np.multiply(np.divide(moment1, 1 - beta1**step, out=m_step), cfg.lr, out=m_step)
                np.sqrt(np.divide(moment2, 1 - beta2**step, out=v_step), out=v_step)
                theta -= np.divide(m_step, np.add(v_step, eps, out=v_step), out=m_step)
                if not np.isfinite(theta, out=finite).all():
                    break
                preds[len(rows)] = probe_forward()[:, 0]
                rows.append((step, loss, n_excluded))
            score(rows)
            if len(rows) < n_steps:  # the block stopped at its first step without a row
                return TrainResult(model, metrics, "diverged", first + len(rows))
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
    one: ``mlp_forward`` bit for bit, without checking the cloud at every step.

    The walk updates ``y`` in place through one step buffer, with the IEEE
    operations of the formula above.  The denoiser's result is used up
    before its next call, so a denoiser may return a buffer it overwrites
    on every call (``_walk_denoiser`` does); it must not keep ``y``, which
    the walk overwrites.
    """
    sig = schedule.sigmas
    y = center(sig[0] * rng.standard_normal((_count(n_points, "n_points", 1), 3)))
    step = np.empty_like(y)
    subtract, multiply, add = np.subtract, np.multiply, np.add
    for s_hi, s_lo in zip(sig, sig[1:]):
        subtract(denoiser(y, s_hi), y, step)
        multiply(step, 1.0 - s_lo / s_hi, step)
        add(y, step, y)
    return y


METRICS_CSV_HEADER = ["step", "loss", "rmsd", "aligned_rmsd", "n_excluded"]


def write_metrics_csv(metrics: list[StepMetrics], path) -> None:
    _write_csv(path, METRICS_CSV_HEADER, metrics)


def save_denoiser(model: MlpDenoiser, path, config: TrainConfig | None = None) -> None:
    """Write a checkpoint: one JSON header line, then ``theta`` as little-endian f64.

    The header's ``seed`` is the config's, or null without a config.  The whole file is
    made before ``path`` is opened, so a header json cannot write leaves ``path`` as it was.
    """
    header = {
        "n_points": model.n_points,
        "hidden": model.hidden,
        "s_ref": model.s_ref,
        "seed": None if config is None else config.seed,
        "config": None if config is None else asdict(config),  # json writes the str enum as its value
    }
    data = json.dumps(header).encode("utf-8") + b"\n" + model.theta.astype("<f8", copy=False).tobytes()
    with open(path, "wb") as fh:
        fh.write(data)


def load_denoiser(path) -> tuple[MlpDenoiser, dict]:
    """Read a checkpoint back; returns the model and its JSON header.

    A first line that is not UTF-8 JSON, a missing or invalid ``n_points``, ``hidden`` or
    ``s_ref`` and a parameter block shorter or longer than the header's sizes promise raise
    ``ValueError`` naming the file.
    """
    with open(path, "rb") as fh:
        line, _, block = fh.read().partition(b"\n")
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"checkpoint {path}: header is not UTF-8 JSON ({exc})") from None
    for key, types in (("n_points", (int,)), ("hidden", (int,)), ("s_ref", (int, float))):
        if not isinstance(header, dict) or key not in header:
            raise ValueError(f"checkpoint {path}: header has no {key!r}")
        if type(header[key]) not in types or not 0 < header[key] < math.inf:
            what = "a positive int" if types == (int,) else "positive and finite"
            raise ValueError(f"checkpoint {path}: header {key!r} must be {what}, got {header[key]!r}")
    n, h = header["n_points"], header["hidden"]
    count = _param_count(n, h)
    if len(block) < 8 * count:
        raise ValueError(f"truncated checkpoint: {path}")
    if len(block) > 8 * count:
        raise ValueError(f"checkpoint {path}: parameter block of {len(block)} bytes, "
                         f"header promises {8 * count}")
    # one copy of the block is the model's theta
    return MlpDenoiser(np.frombuffer(block, dtype="<f8").copy(), h, n, float(header["s_ref"])), header
