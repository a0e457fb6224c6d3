"""Denoiser-target estimators and the noise-level error sweep.

The estimator family approximates the posterior-mean denoiser target for
a noisy rotated observation ``y`` of a clean cloud ``x``:

* ``AUG``     -- the raw augmented ground truth ``r_aug`` applied to x,
* ``ORDER0``  -- alignment: the Kabsch rotation applied to x,
* ``ORDER1``  -- alignment plus the sigma^2 moment correction,
* ``ORDER2``  -- plus the sigma^4 correction,
* ``ORACLE``  -- the quadrature posterior mean (ground truth).

ORDER0-2 truncate the small-noise series of the posterior mean; they and
ORACLE all come from one proper SVD of ``y.T @ x``.  ``estimator_target``
takes one pair or a stack of pairs, and on a stack ``sigma`` may vary
per item.  ``error_sweep`` measures the mean squared error of each
estimator against the oracle across noise levels, reproducibly from a
seed, over one stack of every draw: one factorization serves ORDER0-2
and the oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .align import _cross_svd, _degenerate
from .fisher import _expansion
from .geom import _cloud, _count, _noised, _positive, rotate, transpose
from .quadrature import _oracle_mean

SWEEP_CSV_HEADER = ["sigma", "kind", "mean_mse", "stderr", "n_samples", "n_excluded", "seed"]


class EstimatorKind(str, Enum):
    AUG = "aug"
    ORDER0 = "order0"
    ORDER1 = "order1"
    ORDER2 = "order2"
    ORACLE = "oracle"


class DegenerateAlignmentWarning(UserWarning):
    """The alignment underlying an estimator target was rank-deficient."""


@dataclass(frozen=True)
class SweepRecord:
    sigma: float
    kind: EstimatorKind
    mean_mse: float
    stderr: float
    n_samples: int
    n_excluded: int
    seed: int


_ORDERS = {EstimatorKind.ORDER0: 0, EstimatorKind.ORDER1: 1, EstimatorKind.ORDER2: 2}


class BatchTargets(NamedTuple):
    """Batched ``estimator_target``: targets ``(..., N, 3)`` and which items to keep."""

    targets: np.ndarray
    keep: np.ndarray


def estimator_target(
    kind: EstimatorKind,
    y: np.ndarray,
    x: np.ndarray,
    sigma: float | np.ndarray,
    r_aug: np.ndarray | None = None,
    tol: float = 1e-8,
) -> np.ndarray | BatchTargets:
    """Regression target of the chosen estimator for the pair (y, x).

    ``r_aug`` must be supplied exactly when ``kind`` is AUG: the
    augmentation rotation is not a function of (y, x, sigma) alone.
    Order-1/2 targets raise :class:`ExpansionSingularError` on
    near-degenerate spectra, and ORACLE ones that miss ``tol`` raise
    :class:`NoConvergenceError`; a degenerate alignment is flagged with
    :class:`DegenerateAlignmentWarning`.  For every kind but AUG, clouds
    of different shapes raise :class:`AlignmentError`.

    Stacks of pairs ``(..., N, 3)`` (with ``r_aug`` of shape
    ``(..., 3, 3)``) return ``BatchTargets(targets, keep)``, and ``sigma``
    may be one level or an array of per-item levels ``(...)``.  Items
    whose target cannot be computed (expansion-singular spectra, oracle
    non-convergence) are not raised but have ``keep`` False and NaN
    targets; a batch with degenerate alignments warns once.
    """
    kind = EstimatorKind(kind)
    if (r_aug is not None) != (kind is EstimatorKind.AUG):
        raise ValueError("r_aug must be given for AUG and only for AUG")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    _positive(sigma, "sigma", y.shape[:-2])
    if kind is EstimatorKind.AUG:
        targets, keep = rotate(r_aug, x), np.ones(y.shape[:-2], dtype=bool)
    else:
        [(targets, keep)] = _expansion_targets(y, x, sigma, (kind,), tol)
    return BatchTargets(targets, keep) if y.ndim > 2 else targets


def _expansion_targets(
    y: np.ndarray, x: np.ndarray, sigma: float | np.ndarray, kinds: tuple[EstimatorKind, ...], tol: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Targets ``x @ mean.T`` and keep masks of each of ``kinds`` (ORDER0-2 and
    ORACLE), from one proper SVD of ``y.T @ x``; with ORDER0, degenerate
    alignments warn once."""
    svd = _cross_svd(y, x)
    if EstimatorKind.ORDER0 in kinds and _degenerate(svd.s).any():
        warnings.warn("alignment is degenerate; target not unique", DegenerateAlignmentWarning)
    targets = []
    for kind in kinds:
        mean, failed = (_oracle_mean(svd, sigma, tol) if kind is EstimatorKind.ORACLE
                        else _expansion(svd, sigma, _ORDERS[kind]))
        targets.append((x @ transpose(mean), ~failed))
    return targets


_SWEEP_KINDS = (EstimatorKind.AUG, *_ORDERS)


def error_sweep(
    x: np.ndarray,
    sigmas: list[float],
    n_noise: int,
    seed: int,
    tol: float = 1e-6,
) -> list[SweepRecord]:
    """Mean MSE to the oracle of each estimator over noisy rotated draws.

    For every noise level, ``n_noise`` pairs (Haar rotation, Gaussian
    noise) are drawn, the observation is re-centered, and the MSE of each
    estimator target against the oracle is averaged.  Samples whose
    target computation fails (oracle non-convergence, or an
    expansion-singular spectrum for orders 1 and 2) are excluded from the
    mean and counted in ``n_excluded``, never silently substituted.
    Deterministic given ``seed``: each draw has its own stream from
    (seed, sigma index, sample index).  The draws are then stacked across
    every noise level, each item with its own sigma.  The oracle and
    ORDER0, ORDER1 and ORDER2 share one proper SVD of the stacked
    ``y.T @ x``: one factorization per sweep.  Degenerate alignments warn
    once per sweep.  An ``x`` that is not a cloud ``(N >= 1, 3)`` of finite coordinates, an
    ``n_noise`` below 1, a negative ``seed`` or either not an integer raises, naming it.
    """
    x = _cloud(x, "x", 2)
    n_noise, seed = _count(n_noise, "n_noise", 1), _count(seed, "seed", 0)
    sig = [float(s) for s in sigmas]
    if not sig:
        raise ValueError("sigmas must be nonempty")
    _positive(sig, "sigma", (len(sig),))
    if any(a >= b for a, b in zip(sig, sig[1:])):
        raise ValueError("sigmas must be strictly ascending")

    # the normals of every draw, each from its own (seed, sigma index, sample index) stream
    normals = []
    for si in range(len(sig)):
        for j in range(n_noise):
            rng = np.random.default_rng([seed, si, j])
            normals.append((rng.standard_normal(4), rng.standard_normal(x.shape)))
    q, eta = (np.stack(part) for part in zip(*normals))
    sigma = np.repeat(sig, n_noise)
    ys, r_aug = _noised(x, q, eta, sigma[:, None, None])
    xs = np.broadcast_to(x, ys.shape)

    (oracle, converged), *scored = _expansion_targets(ys, xs, sigma, (EstimatorKind.ORACLE, *_ORDERS), tol)
    scored.insert(0, estimator_target(EstimatorKind.AUG, ys, xs, sigma, r_aug=r_aug))
    mse = np.empty((len(_SWEEP_KINDS), len(sigma)))
    keep = np.empty(mse.shape, dtype=bool)
    for k, (targets, kept) in enumerate(scored):
        diff = targets - oracle
        mse[k] = np.sum(diff * diff, axis=(-2, -1))
        keep[k] = kept & converged
    shape = (len(_SWEEP_KINDS), len(sig), n_noise)  # (kind, sigma, draw)
    mse, keep = mse.reshape(shape), keep.reshape(shape)

    n_ok = np.count_nonzero(keep, axis=-1)
    mean, stderr = _mean_stderr(mse)
    for k, si in np.argwhere(n_ok < n_noise):  # only records with excluded draws
        vals = mse[k, si][keep[k, si]]
        mean[k, si], stderr[k, si] = _mean_stderr(vals) if len(vals) else (np.nan, 0.0)
    return [
        SweepRecord(s, kind, m, e, n, n_noise - n, seed)
        for s, m_row, e_row, n_row in zip(sig, mean.T.tolist(), stderr.T.tolist(), n_ok.T.tolist())
        for kind, m, e, n in zip(_SWEEP_KINDS, m_row, e_row, n_row)
    ]


def _mean_stderr(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error along the last axis, each row reduced as ``np.mean``
    and ``np.std(ddof=1)`` reduce it alone; one value has stderr 0."""
    n = vals.shape[-1]
    mean = np.mean(vals, axis=-1)
    stderr = np.std(vals, axis=-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, stderr


def sweep_aug_anomalies(records: list[SweepRecord]) -> list[float]:
    """Noise levels where the raw augmented target beats alignment.

    The mode is not guaranteed to dominate the raw rotation target at
    every noise level, so sweeps flag such records instead of failing.
    """
    by_sigma: dict[float, dict[EstimatorKind, float]] = {}
    for rec in records:
        by_sigma.setdefault(rec.sigma, {})[rec.kind] = rec.mean_mse
    flagged = []
    for sigma, kinds in by_sigma.items():
        aug = kinds.get(EstimatorKind.AUG)
        order0 = kinds.get(EstimatorKind.ORDER0)
        if aug is not None and order0 is not None and aug < order0:
            flagged.append(sigma)
    return flagged


def _write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` at once, LF line ends, floats (numpy's too) as ``float.__repr__``,
    fields unquoted: no header name or value holds a comma, a quote or a line end."""
    lines = [",".join(header)]
    lines += [",".join([float.__repr__(v) if isinstance(v, float) else str(v) for v in row]) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    _write_csv(path, SWEEP_CSV_HEADER, (
        (r.sigma, r.kind.value, r.mean_mse, r.stderr, r.n_samples, r.n_excluded, r.seed)
        for r in records
    ))

