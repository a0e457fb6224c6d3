"""The matrix Fisher distribution on SO(3) and its small-noise moment expansion.

The distribution has unnormalized density exp(Tr[F^T R]) over SO(3).
For centered clouds ``y`` and ``x`` observed at noise level ``sigma``,
the rotation posterior is matrix Fisher with concentration
``F = y.T @ x / sigma**2``; its mode is the Kabsch rotation.

The closed-form approximation of the first moment E[R] is a series in
``sigma**2`` around the mode, with diagonal correction coefficients
``c1`` and ``c2`` in the SVD basis of the concentration matrix; its
order-0 term, the mode, is the Kabsch alignment.  The
quadrature module provides the independent numerical reference these
formulas are validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geom import ProperSvd, proper_svd, transpose


class ExpansionSingularError(ValueError):
    """A pairwise singular-value sum is too small for the moment expansion.

    Happens when the observed pair is nearly planar-degenerate; callers
    should fall back to the order-0 estimate or to quadrature.
    """


@dataclass(frozen=True)
class MatrixFisher:
    """Concentration parameter ``f`` (3x3) of a matrix Fisher distribution."""

    f: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        if f.shape != (3, 3) or not np.all(np.isfinite(f)):
            raise ValueError("concentration parameter must be a finite 3x3 matrix")
        object.__setattr__(self, "f", f)


def _check_sigma(sigma: float | np.ndarray, shape: tuple[int, ...] = ()) -> None:
    """Reject noise levels that are not positive and finite (NaN included);
    an array of per-item levels must have the stack's leading ``shape``."""
    s = np.asarray(sigma, dtype=float)
    if s.ndim and s.shape != shape:
        raise ValueError(f"sigma of shape {s.shape} does not match the stack's {shape}")
    if not ((0 < s) & (s < math.inf)).all():
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


def mf_from_observation(y: np.ndarray, x: np.ndarray, sigma: float) -> MatrixFisher:
    """Rotation-posterior parameters for observing ``y`` of ``x`` at noise ``sigma``."""
    _check_sigma(sigma)
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {x.shape}")
    return MatrixFisher(y.T @ x / _power(sigma, 2.0))


def mf_mode(p: MatrixFisher) -> np.ndarray:
    """Density maximizer ``u @ v.T`` from the sign-corrected SVD of ``f``."""
    if not np.any(p.f):
        raise ValueError("mode undefined for zero concentration")
    u, _, v = proper_svd(p.f)
    return u @ v.T


# entry i of the sums leaves out s_i; entry i of c1, c2 combines the other two sums
_PAIRS = (np.array([1, 0, 0]), np.array([2, 2, 1]))


def _pairwise_sums(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s2+s3, s1+s3, s1+s2), the expansion denominator for each axis, and
    the mask of spectra where one of them is too small."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1:] != (3,):
        raise ValueError("expected a singular spectrum (s1, s2, s3)")
    d = s.take(_PAIRS[0], axis=-1) + s.take(_PAIRS[1], axis=-1)
    return d, (d <= 1e-9 * s[..., :1]).any(axis=-1)


def _safe_sums(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise sums, set to ones for singular spectra, and the singular mask.

    A single spectrum that is singular raises ``ExpansionSingularError``.
    """
    d, singular = _pairwise_sums(s)
    if d.ndim > 1:
        return np.where(singular[..., None], 1.0, d), singular
    if singular:
        raise ExpansionSingularError(
            f"pairwise singular-value sums {d} too small relative to s1={s[0]}"
        )
    return d, singular


_POW = np.frompyfunc(math.pow, 2, 1)


def _power(d: float | np.ndarray, p: float) -> np.ndarray:
    # Raised one element at a time through libm pow, as ``d ** p`` does on a
    # float or a numpy scalar: numpy's array ``**`` rounds differently (pow
    # and d * d differ in the last bit for about one value in 1200), and
    # seeded results are pinned to the pow rounding.  A finite power too large
    # for a float raises ValueError rather than pow's OverflowError.
    try:
        return np.asarray(_POW(d, p), dtype=float)
    except OverflowError:
        raise ValueError(f"{np.max(np.abs(d)):g}**{p:g} overflows a float") from None


def _diagonal(d: np.ndarray, singular: np.ndarray, scale: float) -> np.ndarray:
    """Entry i is ``scale * (d_j + d_k)`` over the two sums containing s_i.

    Rows of singular spectra are NaN.
    """
    out = scale * (d.take(_PAIRS[1], axis=-1) + d.take(_PAIRS[0], axis=-1))
    if out.ndim > 1:
        out[singular] = np.nan
    return out


def _c1(d: np.ndarray, singular: np.ndarray) -> np.ndarray:
    return _diagonal(1.0 / d, singular, -0.5)


def _c2(d: np.ndarray, singular: np.ndarray) -> np.ndarray:
    return _diagonal(1.0 / _power(d, 2.0), singular, -0.125)


def c1(s: np.ndarray) -> np.ndarray:
    """First-order diagonal correction to E[R] in the SVD basis.

    Entry i is -1/2 * (1/(s_i + s_j) + 1/(s_i + s_k)) with j, k the other
    two indices.  Requires all pairwise sums positive: a single spectrum
    raises ``ExpansionSingularError``, and in a stack ``(..., 3)`` the
    rows of singular spectra (a pairwise sum at most 1e-9 s1) are NaN.
    """
    return _c1(*_safe_sums(s))


def c2(s: np.ndarray) -> np.ndarray:
    """Second-order diagonal correction, -1/8 of the squared-denominator sums.

    Singular spectra are handled as in ``c1``.
    """
    return _c2(*_safe_sums(s))


class LaplaceMean(NamedTuple):
    """Batched ``mf_mean_laplace``: means ``(..., 3, 3)`` and the singular mask."""

    mean: np.ndarray
    singular: np.ndarray


def _expansion(svd: ProperSvd, sigma, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The series ``u @ diag(d) @ v.T`` truncated at ``order``, from the proper
    SVD of ``y.T @ x``, and the mask of spectra singular for it.

    At order 0, ``d`` is all ones and the mean is the alignment rotation
    ``u @ v.T``, bit for bit.  Above order 0, a single singular spectrum
    raises ``ExpansionSingularError``.
    """
    u, s, v = svd
    d = np.ones(s.shape)
    singular = np.zeros(s.shape[:-1], dtype=bool)
    if order >= 1:
        sums, singular = _safe_sums(s)
        d = d + _power(sigma, 2.0)[..., None] * _c1(sums, singular)
    if order >= 2:
        d = d + _power(sigma, 4.0)[..., None] * _c2(sums, singular)
    return (u * d[..., None, :]) @ transpose(v), singular


def mf_mean_laplace(
    a: np.ndarray, sigma: float | np.ndarray, order: int
) -> np.ndarray | LaplaceMean:
    """Closed-form approximation of E[R] under MF(R; a / sigma**2).

    ``a`` is the unscaled cross-covariance ``y.T @ x``; the concentration
    1/sigma**2 is applied internally so the series reads
    ``u @ diag(1 + sigma^2 c1 + sigma^4 c2) @ v.T`` truncated at
    ``order`` (0, 1 or 2).  Order 0 is the alignment: ``u @ v.T`` is the
    Kabsch rotation, bit for bit.  Higher orders are generally not
    rotation matrices: they approximate a mean, which lies inside the
    convex hull of SO(3).

    A single ``(3, 3)`` input returns the mean and raises
    ``ExpansionSingularError`` on a singular spectrum.  A stack
    ``(..., 3, 3)`` returns ``LaplaceMean(mean, singular)``: the means of
    singular items are NaN and flagged in the mask.  ``sigma`` may then be
    an array of per-item levels ``(...)``.  A ``sigma**2`` (or, at order 2,
    ``sigma**4``) too large for a float raises ``ValueError``.
    """
    a = np.asarray(a, dtype=float)
    _check_sigma(sigma, a.shape[:-2])
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    mean, singular = _expansion(proper_svd(a), sigma, order)
    return mean if a.ndim == 2 else LaplaceMean(mean, singular)
