"""Denoiser-target estimators and the noise-level error sweep.

The estimator family approximates the posterior-mean denoiser target for
a noisy rotated observation ``y`` of a clean cloud ``x``:

* ``AUG``     -- the raw augmented ground truth ``r_aug`` applied to x,
* ``ORDER0``  -- alignment: the Kabsch rotation applied to x,
* ``ORDER1``  -- alignment plus the sigma^2 moment correction,
* ``ORDER2``  -- plus the sigma^4 correction,
* ``ORACLE``  -- the quadrature posterior mean (ground truth).

``estimator_target`` takes one pair or a stack of pairs, and on a stack
``sigma`` may vary per item.  ``error_sweep`` measures the mean squared
error of each estimator against the oracle across noise levels,
reproducibly from a seed, with one stacked target call per estimator
kind over all the draws of all the noise levels.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .align import _kabsch
from .fisher import _check_sigma, _power, mf_from_observation, mf_mean_laplace
from .geom import center, frobenius_norm_sq, haar_from_normals, rotate, transpose
from .quadrature import mf_mean_quadrature, oracle_conditional_denoiser

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
    near-degenerate spectra; a degenerate alignment is flagged with
    :class:`DegenerateAlignmentWarning`.

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
    _check_sigma(sigma, y.shape[:-2])
    batched = y.ndim > 2
    keep = np.ones(y.shape[:-2], dtype=bool)

    if kind is EstimatorKind.AUG:
        targets = rotate(r_aug, x)
    elif kind is EstimatorKind.ORACLE:
        if not batched:
            return oracle_conditional_denoiser(y, x, sigma, tol)
        mean, keep = mf_mean_quadrature(transpose(y) @ x / _power(sigma, 2.0)[..., None, None], tol)
        targets = x @ transpose(mean)
    elif kind is EstimatorKind.ORDER0:
        rotation, degenerate = _kabsch(y, x)
        if degenerate.any():
            warnings.warn("alignment is degenerate; target not unique", DegenerateAlignmentWarning)
        targets = rotate(rotation, x)
    else:
        order = 1 if kind is EstimatorKind.ORDER1 else 2
        mean = mf_mean_laplace(transpose(y) @ x, sigma, order)
        if batched:
            mean, singular = mean
            keep = ~singular
        targets = x @ transpose(mean)
    return BatchTargets(targets, keep) if batched else targets


_SWEEP_KINDS = (
    EstimatorKind.AUG,
    EstimatorKind.ORDER0,
    EstimatorKind.ORDER1,
    EstimatorKind.ORDER2,
)


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
    every noise level, each item with its own sigma, so each estimator
    kind and the oracle take one stacked target call per sweep; degenerate
    alignments warn once per sweep.
    """
    x = np.asarray(x, dtype=float)
    if n_noise < 1:
        raise ValueError(f"n_noise must be >= 1, got {n_noise}")
    sig = [float(s) for s in sigmas]
    if not sig:
        raise ValueError("sigmas must be nonempty")
    _check_sigma(np.array(sig), (len(sig),))
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
    r_aug = haar_from_normals(q)
    ys = center(rotate(r_aug, x) + sigma[:, None, None] * eta)
    xs = np.broadcast_to(x, ys.shape)

    oracle, converged = estimator_target(EstimatorKind.ORACLE, ys, xs, sigma, tol=tol)
    mse = np.empty((len(_SWEEP_KINDS), len(sigma)))
    keep = np.empty(mse.shape, dtype=bool)
    for k, kind in enumerate(_SWEEP_KINDS):
        aug = r_aug if kind is EstimatorKind.AUG else None
        targets, kept = estimator_target(kind, ys, xs, sigma, r_aug=aug, tol=tol)
        diff = targets - oracle
        mse[k] = np.sum(diff * diff, axis=(-2, -1))
        keep[k] = kept & converged
    shape = (len(_SWEEP_KINDS), len(sig), n_noise)  # (kind, sigma, draw)
    mse, keep = mse.reshape(shape), keep.reshape(shape)

    records = []
    for si, s in enumerate(sig):
        for k, kind in enumerate(_SWEEP_KINDS):
            vals = mse[k, si][keep[k, si]]
            n_ok = len(vals)
            mean = float(np.mean(vals)) if n_ok else float("nan")
            stderr = float(np.std(vals, ddof=1) / np.sqrt(n_ok)) if n_ok > 1 else 0.0
            records.append(SweepRecord(s, kind, mean, stderr, n_ok, n_noise - n_ok, seed))
    return records


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
    """Write ``header`` and ``rows`` with LF line ends and floats as ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)


def _read_csv(path, header: list[str], types: tuple, what: str) -> list[list]:
    """Rows of a CSV with exactly ``header``, each field parsed by its entry in ``types``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader)
        if got != header:
            raise ValueError(f"unexpected {what} CSV header: {got}")
        return [[parse(v) for parse, v in zip(types, row)] for row in reader]


def write_sweep_csv(records: list[SweepRecord], path) -> None:
    _write_csv(path, SWEEP_CSV_HEADER, (
        (r.sigma, r.kind.value, r.mean_mse, r.stderr, r.n_samples, r.n_excluded, r.seed)
        for r in records
    ))


def read_sweep_csv(path) -> list[SweepRecord]:
    types = (float, EstimatorKind, float, float, int, int, int)
    return [SweepRecord(*row) for row in _read_csv(path, SWEEP_CSV_HEADER, types, "sweep")]


def averaging_offset_check(
    y: np.ndarray,
    x: np.ndarray,
    sigma: float,
    probes: list[np.ndarray],
    tol: float = 1e-8,
) -> float:
    """Numerically verify that averaging a target only shifts the loss by a constant.

    For each probe output ``d`` computes, from the posterior mean,
    ``delta(d) = E_R[||d - R x||^2] - ||d - E_R[R] x||^2`` and returns
    the maximum spread ``|delta(d_i) - delta(d_0)|``.  The averaging
    identity predicts the spread is zero (delta is the same constant for
    every d).  The first term is linear in R,
    ``E_R[||d - R x||^2] = |d|^2 + |x|^2 - 2 <d, E_R[R] x>``, so every
    expectation comes from one quadrature of E_R[R].
    """
    if not probes:
        raise ValueError("need at least one probe")
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    ds = [np.asarray(d, dtype=float) for d in probes]
    mean_x = x @ mf_mean_quadrature(mf_from_observation(y, x, sigma), tol).T
    deltas = [
        frobenius_norm_sq(d) + frobenius_norm_sq(x) - 2.0 * np.sum(d * mean_x)
        - frobenius_norm_sq(d - mean_x)
        for d in ds
    ]
    return float(max(abs(dl - deltas[0]) for dl in deltas))
