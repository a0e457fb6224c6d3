"""Kabsch rotational alignment and RMSD metrics.

Alignment is rotation-only: inputs are assumed pre-centered and no
scale or translation is estimated.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geom import ProperSvd, _det3, proper_svd, rotate, transpose

# Relative threshold on the second singular value of y.T @ x below which
# the optimal rotation is not unique (collinear/planar-degenerate input).
DEGENERACY_RTOL = 1e-9


class AlignmentError(ValueError):
    """The clouds to align or compare have different shapes."""


class KabschResult(NamedTuple):
    rotation: np.ndarray
    degenerate: bool | np.ndarray


def _degenerate(s: np.ndarray) -> np.ndarray:
    """Flags ``(...)`` for spectra ``(..., 3)`` of ``y.T @ x`` of rank below 2."""
    return s[..., 1] <= DEGENERACY_RTOL * s[..., 0]


def _cross_svd(y: np.ndarray, x: np.ndarray) -> ProperSvd:
    """Proper SVD of ``y.T @ x``, pair by pair for stacks: the one factorization that
    alignment, expansion and oracle read.  Shapes that differ raise ``AlignmentError``."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape:
        raise AlignmentError(f"shape mismatch: {y.shape} vs {x.shape}")
    return proper_svd(transpose(y) @ x)


def kabsch(y: np.ndarray, x: np.ndarray) -> KabschResult:
    """Rotation minimizing ``||y - x @ r.T||^2`` over SO(3).

    Computed as ``u @ v.T`` from the sign-corrected SVD of ``y.T @ x``.
    When ``rank(y.T @ x) < 2`` the minimizer is not unique; the result is
    still returned but flagged ``degenerate=True`` so callers can fall
    back or discard.  A zero cross-covariance is the rank-0 end of that
    case: every rotation is optimal, and the identity is returned,
    flagged degenerate.  Clouds of different shapes raise
    ``AlignmentError``.

    Stacks of clouds ``(..., N, 3)`` align pair by pair: the rotations
    are ``(..., 3, 3)`` and ``degenerate`` is a boolean array ``(...)``.
    """
    u, s, v = _cross_svd(y, x)
    degenerate = _degenerate(s)
    return KabschResult(u @ transpose(v), degenerate if degenerate.ndim else bool(degenerate))


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
    u, _, v = _cross_svd(a, b)
    return rmsd(a, rotate(u @ transpose(v), b))


# a mean square within this many eps (|a|^2 + |b|^2) of zero is rounding, and reads 0
_MSD_FLOOR = 16 * np.finfo(float).eps

# Horn's quartic P(l) = (l^2 - f2)^2 - 8 det(M) l - 4 i2 has the largest root l1 = s1 + s2 +
# sign(det M) s3, where f2 = |M|^2 and i2 = |adj M|^2 = (f2^2 - |M.T M|^2) / 2.  Rounded at
# Newton's last l, P is within 4 eps l^4 of its exact value (at most 2.3 over 64 000 drawn
# pairs), so l is off by 4 eps l^4 / P'(l) at most and the sum of squares by twice that, at
# most 4 eps (|a|^2 + |b|^2) / r with r = P'(l) / l^3.  An item with r >= _QCP_SWITCH keeps
# that within _MSD_FLOOR; the others take the SVD (l1 nears l2 as s2 + sign(det M) s3 -> 0:
# collinear and reflected near-planar pairs).
_QCP_SWITCH = 0.25
_QCP_STEPS = 50  # a safety cap: Newton took at most 14 steps on the same pairs
# flat indices of the four entries whose products make each cofactor of a 3x3 matrix:
# adj(M).T[i, j] = M[i+1, j+1] M[i+2, j+2] - M[i+1, j+2] M[i+2, j+1], indices mod 3
_ROW, _COL = np.divmod(np.arange(9), 3)
_COFACTOR_TAKES = [(_ROW + di) % 3 * 3 + (_COL + dj) % 3 for di, dj in ((1, 1), (2, 2), (1, 2), (2, 1))]


def _spectral_rmsd(a: np.ndarray, b: np.ndarray, b_sq: float | np.ndarray) -> np.ndarray:
    """``aligned_rmsd`` of clouds (stacks broadcast) from the spectrum of ``M = a.T @ b``.

    The mean square is (|a|^2 + |b|^2 - 2 (s1 + s2 + sign(det M) s3)) / N, with ``b_sq`` =
    |b|^2, per cloud.  The sum l1 = s1 + s2 + sign(det M) s3 is the largest root of Horn's
    quartic, found by Theobald's QCP: Newton from an upper bound, each item frozen once its
    step stops descending.  Its coefficients come from ``M`` scaled by a power of two near its
    largest entry: |M|^2 and |adj M|^2 as sums of squares, and det M from the cofactors.  Items
    whose root nearly meets the next one (``_QCP_SWITCH``) take a ``compute_uv=False`` SVD
    instead, which runs only when there are any.  The formula cancels: it is off
    by about eps (|a|^2 + |b|^2) / N, so a mean square below ``_MSD_FLOOR`` times that is
    clipped to 0, and the RMSD of clouds that nearly coincide is good only to about sqrt(eps)
    times their scale.  ``aligned_rmsd`` rotates and subtracts instead.  A pair whose ``M`` is
    not finite (an overflowing prediction, say) reads NaN, without a solve.  Every step is
    elementwise, so an item of a stack gets the bits of its single call.
    """
    m = transpose(a) @ b
    shape = m.shape[:-2]
    m = m.reshape(-1, 9)
    finite = np.isfinite(m).all(axis=-1)
    m = np.where(finite[:, None], m, 0.0)  # LAPACK's SVD does not converge on inf or NaN
    _, e = np.frexp(np.max(np.abs(m), axis=-1))
    ms = np.ldexp(m, -e[:, None])  # entries below 1 in size: no coefficient overflows
    # np.take keeps the rows contiguous, so each sum adds its item's terms in one order
    r1, r2, x1, x2 = (np.take(ms, take, axis=1) for take in _COFACTOR_TAKES)
    cof = r1 * r2 - x1 * x2
    f2 = np.sum(ms * ms, axis=-1)
    i2 = np.sum(cof * cof, axis=-1)
    c1 = 8.0 * np.sum(ms[:, :3] * cof[:, :3], axis=-1)  # 8 det M, down the first row
    c0 = 4.0 * i2
    # l1^2 = f2 + 2 (s1 s2 + s1 s3 + s2 s3) <= f2 + 2 sqrt(3 i2).  P is convex above
    # sqrt(f2 / 3) <= s1 <= l1, so Newton descends onto l1 without leaving that range; a step
    # below it (past l2, which only a near-degenerate item has there) freezes the item too
    # and sends it to the SVD.  0 / 0 at a zero M leaves its l = 0
    lam = np.sqrt(f2 + 2.0 * np.sqrt(3.0 * i2))
    low = np.sqrt(f2 / 3.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_QCP_STEPS):
            u = lam * lam - f2
            dp = 4.0 * lam * u - c1
            step = lam - (u * u - c1 * lam - c0) / dp
            moved = (step < lam) & (step >= low)
            if not moved.any():
                break
            np.copyto(lam, step, where=moved)
    qcp = ~moved & (dp >= _QCP_SWITCH * lam * lam * lam)
    lam = np.ldexp(lam, e)
    svd = finite & ~qcp
    if svd.any():
        m = m[svd].reshape(-1, 3, 3)
        s = np.linalg.svd(m, compute_uv=False)
        # the determinant of the matrix scaled by s1, which can neither overflow nor underflow
        # to 0 unless s3 is negligible; 0 / tiny keeps a zero matrix's determinant 0
        det = _det3(m / np.maximum(s[..., :1, None], np.finfo(float).tiny))
        lam[svd] = s[..., 0] + s[..., 1] + np.copysign(s[..., 2], det)
    total = np.sum(a * a, axis=(-2, -1)) + b_sq
    ssd = total - 2.0 * lam.reshape(shape)  # N times the mean square
    ssd = np.where(finite.reshape(shape), np.where(ssd < _MSD_FLOOR * total, 0.0, ssd), np.nan)
    return np.sqrt(ssd / a.shape[-2])
