"""Kabsch rotational alignment and RMSD metrics.

Alignment is rotation-only: inputs are assumed pre-centered and no
scale or translation is estimated.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geom import proper_svd, rotate, transpose

# Relative threshold on the second singular value of y.T @ x below which
# the optimal rotation is not unique (collinear/planar-degenerate input).
DEGENERACY_RTOL = 1e-9


class AlignmentError(ValueError):
    """Alignment is undefined (zero cross-covariance or shape mismatch)."""


class KabschResult(NamedTuple):
    rotation: np.ndarray
    degenerate: bool | np.ndarray


def _kabsch(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations ``(..., 3, 3)`` and degenerate flags ``(...)`` for stacks of pairs."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape:
        raise AlignmentError(f"shape mismatch: {y.shape} vs {x.shape}")
    a = transpose(y) @ x
    if not a.any(axis=(-2, -1)).all():
        raise AlignmentError("y.T @ x is zero; optimal rotation undefined")
    u, s, v = proper_svd(a)
    degenerate = s[..., 1] <= DEGENERACY_RTOL * s[..., 0]
    return u @ transpose(v), degenerate


def kabsch(y: np.ndarray, x: np.ndarray) -> KabschResult:
    """Rotation minimizing ``||y - x @ r.T||^2`` over SO(3).

    Computed as ``u @ v.T`` from the sign-corrected SVD of ``y.T @ x``.
    When ``rank(y.T @ x) < 2`` the minimizer is not unique; the result is
    still returned but flagged ``degenerate=True`` so callers can fall
    back or discard.  An all-zero cross-covariance raises
    ``AlignmentError``.

    Stacks of clouds ``(..., N, 3)`` align pair by pair: the rotations
    are ``(..., 3, 3)`` and ``degenerate`` is a boolean array ``(...)``.
    """
    rotation, degenerate = _kabsch(y, x)
    return KabschResult(rotation, degenerate if degenerate.ndim else bool(degenerate))


def rmsd(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Root mean square deviation sqrt(||a - b||^2 / N), per cloud for stacks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise AlignmentError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    out = np.sqrt(np.sum(d * d, axis=(-2, -1)) / a.shape[-2])
    return out if out.ndim else float(out)


def aligned_rmsd(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """RMSD after optimally rotating ``b`` onto ``a``; lower-bounds rmsd."""
    r, _ = _kabsch(a, b)
    return rmsd(a, rotate(r, b))
