"""The small-noise moment expansion of the matrix Fisher rotation posterior.

The matrix Fisher distribution has unnormalized density exp(Tr[F^T R])
over SO(3).  For centered clouds ``y`` and ``x`` observed at noise level
``sigma``, the rotation posterior has concentration
``F = y.T @ x / sigma**2``, so ``y.T @ x`` and ``sigma`` describe it.

The closed-form approximation of its first moment E[R] is a series in
``sigma**2`` around the mode, with diagonal correction coefficients
``c1`` and ``c2`` in the SVD basis of ``y.T @ x``; its order-0 term, the
mode, is the Kabsch alignment, bit for bit.  The quadrature module
provides the independent numerical reference.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geom import ProperSvd, _positive, proper_svd, transpose


class ExpansionSingularError(ValueError):
    """A pairwise singular-value sum is too small for the moment expansion.

    Happens when the observed pair is nearly planar-degenerate; callers
    should fall back to the order-0 estimate or to quadrature.
    """


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


def _square(x: float | np.ndarray, base: float | np.ndarray, p: int) -> np.ndarray:
    """``x * x``, which is ``base**p``, as an array.  A square too large for a float raises
    ``ValueError`` naming ``base**p``: divided by, an infinite power would quietly give 0."""
    with np.errstate(over="ignore"):
        square = np.square(x, dtype=float)
    if not np.isfinite(square).all():
        raise ValueError(f"{np.max(np.abs(base)):g}**{p} overflows a float")
    return square


def _coefficients(s: np.ndarray, order: int) -> tuple[list[np.ndarray], np.ndarray]:
    """``[c1]``, or ``[c1, c2]`` at ``order`` 2, of spectra ``(..., 3)``, and the
    singular mask.

    Entry i of c1 is -1/2 (1/d_j + 1/d_k), and of c2 -1/8 (1/d_j**2 + 1/d_k**2),
    over the two pairwise sums d_j, d_k that contain s_i.  A single singular
    spectrum raises ``ExpansionSingularError``; in a stack, its row is NaN.
    """
    d, singular = _pairwise_sums(s)
    if d.ndim == 1 and singular:
        raise ExpansionSingularError(
            f"pairwise singular-value sums {d} too small relative to s1={s[0]}"
        )
    d[singular] = 1.0  # no division by a zero sum; these rows end NaN
    inverses = [(-0.5, 1.0 / d)]
    if order == 2:
        inverses.append((-0.125, 1.0 / _square(d, d, 2)))
    coefficients = [scale * (inv.take(_PAIRS[1], axis=-1) + inv.take(_PAIRS[0], axis=-1))
                    for scale, inv in inverses]
    for c in coefficients:
        c[singular] = np.nan
    return coefficients, singular


def c1(s: np.ndarray) -> np.ndarray:
    """First-order diagonal correction to E[R] in the SVD basis.

    Entry i is -1/2 * (1/(s_i + s_j) + 1/(s_i + s_k)) with j, k the other
    two indices.  Requires all pairwise sums positive: a single spectrum
    raises ``ExpansionSingularError``, and in a stack ``(..., 3)`` the
    rows of singular spectra (a pairwise sum at most 1e-9 s1) are NaN.
    """
    return _coefficients(s, 1)[0][0]


def c2(s: np.ndarray) -> np.ndarray:
    """Second-order diagonal correction, -1/8 of the squared-denominator sums.

    Singular spectra are handled as in ``c1``.
    """
    return _coefficients(s, 2)[0][1]


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
    if order:
        coefficients, singular = _coefficients(s, order)
        square = _square(sigma, sigma, 2)
        d = d + square[..., None] * coefficients[0]
        if order == 2:
            d = d + _square(square, sigma, 4)[..., None] * coefficients[1]
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
    _positive(sigma, "sigma", a.shape[:-2])
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    mean, singular = _expansion(proper_svd(a), sigma, order)
    return mean if a.ndim == 2 else LaplaceMean(mean, singular)
