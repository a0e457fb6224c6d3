"""Deterministic numerical integration over SO(3).

The exact first moment of matrix Fisher distributions and the optimal
conditional denoiser built on it.  This ground-truth path shares only
the SVD of ``y.T @ x`` with the expansion in :mod:`so3denoise.fisher`,
not its formulas: agreement is evidence.  The tests also check it
against brute-force sums over an Euler-angle grid on SO(3).

The first moment uses the canonical-frame 1-D Bessel representation of
the matrix Fisher normalizer (Wood 1993; Lee, Leok & McClamroch 2018).
For the proper SVD ``f = U diag(s) V^T``, ``E[R] = U diag(d) V^T`` with

    d_k = int u g_k(u) du / int g_k(u) du   over u in [-1, 1],
    g_k(u) = I0(a (1 - u)) I0(b (1 + u)) exp(s_k u),

where ``a, b = (s_i -+ s_j) / 2`` for the other two indices ``s_i >= s_j``.
The exponent is shifted to zero at ``u = 1`` (no overflow up to ~1e6).
The integrals use nested tanh-sinh quadrature (Takahasi & Mori 1974),
``u = tanh((pi/2) sinh t)`` at ``t = k h``, whose nodes crowd doubly
exponentially toward both endpoints; each halving of h adds only the new
odd nodes, and one pass covers every axis of a whole stack.  The first
pass evaluates the nodes of levels 0 and 1 (h and h/2) together, and
sums each level on its own, so the first convergence check costs one
Bessel pass.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .align import _cross_svd
from .fisher import _square
from .geom import ProperSvd, _positive, proper_svd, transpose

# Tanh-sinh nodes t = k h on [-_T_MAX, _T_MAX]; h starts at _START_STEP and
# halves at most _MAX_HALVINGS times, so a converged result has >= 225 nodes.
_T_MAX = 3.5
_START_STEP = 1.0 / 16.0
_MAX_HALVINGS = 6

# Above this argument np.i0 overflows; the Hankel expansion of
# I0(z) e^-z, sum_k ((2k-1)!!)^2 / (k! (8z)^k) / sqrt(2 pi z), takes over.
_I0E_SWITCH = 700.0
_HANKEL_I0 = np.array([1.0, 1 / 8, 9 / 128, 225 / 3072, 11025 / 98304, 893025 / 3932160])

# For each index k, the other two (i, j) with s_i >= s_j under proper_svd's ordering.
_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])


class NoConvergenceError(RuntimeError):
    """Refinement hit the halving cap short of the tolerance, or the mean is not finite."""


def _i0e(z: np.ndarray) -> np.ndarray:
    """Exponentially scaled modified Bessel function I0(z) e^-z for z >= 0."""
    out = np.i0(np.minimum(z, _I0E_SWITCH)) * np.exp(-z)
    large = z > _I0E_SWITCH
    if large.any():
        zl = z[large]
        out[large] = np.polynomial.polynomial.polyval(1.0 / zl, _HANKEL_I0) / np.sqrt(2.0 * np.pi * zl)
    return out


@lru_cache(maxsize=None)
def _level_nodes(levels: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[slice, ...]]:
    """1 - u, 1 + u and weight / h of the nodes new at each of ``levels`` (all k at
    level 0, odd k later), concatenated, and the slice of each level."""
    parts, slices, start = [], [], 0
    for level in levels:
        h = _START_STEP / 2**level
        k = np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1)
        t = h * (k if level == 0 else k[k % 2 == 1])
        e = np.pi * np.sinh(t)
        # each of 1 - u and 1 + u stays exact near its endpoint; h cancels in the mean
        one_minus_u, one_plus_u = 2.0 / (1.0 + np.exp(e)), 2.0 / (1.0 + np.exp(-e))
        parts.append((one_minus_u, one_plus_u, (np.pi / 2) * np.cosh(t) * one_minus_u * one_plus_u))
        slices.append(slice(start, start + len(t)))
        start += len(t)
    nodes = [np.concatenate(a) for a in zip(*parts)]
    for a in nodes:
        a.setflags(write=False)  # cached: shared by every caller
    return *nodes, tuple(slices)


def _level_sums(s: np.ndarray, levels: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per level of ``levels``, in one Bessel pass, sums of (1 - u) g_k and of g_k over its new nodes, each (B, 3)."""
    one_minus_u, one_plus_u, w, slices = _level_nodes(levels)
    i, j = _OTHER_AXES.T
    si, sj, sk = s[:, i, None], s[:, j, None], s[..., None]
    # exponent a(1-u) + b(1+u) + s_k u = s_i + (s_j + s_k) u, shifted to 0 at u = 1
    bessel_a, bessel_b = _i0e(np.stack([0.5 * (si - sj) * one_minus_u,
                                        0.5 * (si + sj) * one_plus_u]))
    g = w * bessel_a * bessel_b * np.exp(-(sj + sk) * one_minus_u)
    moment = g * one_minus_u
    return [(np.sum(moment[..., part], axis=-1), np.sum(g[..., part], axis=-1)) for part in slices]


class OracleMean(NamedTuple):
    """Batched ``mf_mean_quadrature``: means ``(..., 3, 3)`` and which converged."""

    mean: np.ndarray
    converged: np.ndarray


def _oracle_mean(svd: ProperSvd, sigma, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``mf_mean_quadrature`` of ``u diag(s / sigma**2) v.T`` for the proper SVD of ``y.T @ x``
    and one ``sigma`` or one per item, scaled item by item as in ``fisher._expansion``; returns
    the means and the mask of items that did not converge (a single one raises)."""
    _positive(tol, "tol")
    u, s, v = svd
    with np.errstate(all="ignore"):  # a non-finite concentration raises below
        s = s / _square(sigma, sigma, 2)[..., None]
    if not np.all(np.isfinite(s)):
        raise ValueError("the concentration y.T @ x / sigma**2 is not finite")
    u, s, vt = u.reshape(-1, 3, 3), s.reshape(-1, 3), transpose(v).reshape(-1, 3, 3)
    first, second = _level_sums(s, (0, 1))
    num, den = sums = np.array(first)  # num and den are views into sums
    # from a concentration of ~1e25 both sums underflow to 0: a NaN diagonal stops at once
    with np.errstate(invalid="ignore"):
        d = prev = 1.0 - num / den
        pending = np.ones(len(s), dtype=bool)
        for level in range(1, _MAX_HALVINGS + 1):
            if not pending.any():
                break
            # every item is pending at level 1, whose sums came with level 0's
            sums[:, pending] += second if level == 1 else _level_sums(s[pending], (level,))[0]
            prev, d = d, d.copy()
            d[pending] = 1.0 - num[pending] / den[pending]
            pending &= np.max(np.abs(d - prev), axis=1) >= tol
    pending |= ~np.isfinite(d).all(axis=1)  # and has not converged
    mean = (u * d[:, None, :]) @ vt
    if pending[0] and v.ndim == 2:
        why = "is not finite"
        if np.isfinite(d[0]).all():
            why = (f"did not converge to tol={tol} in {_MAX_HALVINGS} halvings, "
                   f"last max|d - prev| = {np.max(np.abs(d[0] - prev[0])):.3g}")
        raise NoConvergenceError(f"posterior mean {why} (concentration {s[0, 0]:.3g})")
    mean[pending] = np.nan
    return mean.reshape(v.shape), pending.reshape(v.shape[:-2])


def mf_mean_quadrature(f: np.ndarray, tol: float = 1e-8) -> np.ndarray | OracleMean:
    """Exact first moment E[R] of MF(R; f) by nested tanh-sinh quadrature.

    For the rotation posterior ``f = y.T @ x / sigma**2``; a non-finite one raises ``ValueError``.

    The step halves until two successive diagonals d agree to ``tol`` per
    entry, which bounds the change in every entry of E[R]; failure to
    converge, or a diagonal that is not finite (a concentration from about
    1e25), raises :class:`NoConvergenceError`, which states the last change
    of d.  A stack of concentrations ``(..., 3, 3)`` returns
    ``OracleMean(mean, converged)`` instead, NaN where not converged; each
    item stops at its own level, so it equals its single call exactly.
    """
    f = np.asarray(f, dtype=float)
    mean, pending = _oracle_mean(proper_svd(f), 1.0, tol)
    return mean if f.ndim == 2 else OracleMean(mean, ~pending)


def oracle_conditional_denoiser(
    y: np.ndarray, x: np.ndarray, sigma: float, tol: float = 1e-8
) -> np.ndarray:
    """Posterior-mean denoiser target: E[R | y, x, sigma] applied to x.

    The mean over the rotation posterior MF(y.T x / sigma^2) is not a rotation,
    but acts on coordinates the same way: the ORACLE ``estimator_target``.
    """
    _positive(sigma, "sigma")
    mean, _ = _oracle_mean(_cross_svd(y, x), sigma, tol)
    return np.asarray(x, dtype=float) @ transpose(mean)
