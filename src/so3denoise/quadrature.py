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

# Cephes' i0e Chebyshev coefficients, highest degree first: I0(z) e^-z in z / 2 - 2
# for z <= 8, and I0(z) e^-z sqrt(z) in 32 / z - 2 above.
_I0_SMALL = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16, 1.715391285555133e-15,
    -1.1685332877993451e-14, 7.676185498604936e-14, -4.856446783111929e-13, 2.95505266312964e-12,
    -1.726826291441556e-11, 9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07, 1.1173875391201037e-06,
    -4.4167383584587505e-06, 1.6448448070728896e-05, -5.754195010082104e-05, 0.00018850288509584165,
    -0.0005763755745385824, 0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764, 0.17162090152220877,
    -0.3046826723431984, 0.6767952744094761)
_I0_LARGE = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17, 3.461222867697461e-17,
    -2.8276239805165836e-16, -3.425485619677219e-16, 1.7725601330565263e-15, 3.8116806693526224e-15,
    -9.554846698828307e-15, -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11, -3.1499165279632416e-11,
    1.1889147107846439e-11, 4.94060238822497e-10, 3.3962320257083865e-09, 2.266668990498178e-08,
    2.0489185894690638e-07, 2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088)

# For each index k, the other two (i, j) with s_i >= s_j under proper_svd's ordering.
_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])


class NoConvergenceError(RuntimeError):
    """Refinement hit the halving cap short of the tolerance, or the mean is not finite."""


def _chbevl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """Cephes' Chebyshev sum at ``x``: its operations in its order, in three reused buffers."""
    b0, b1, b2 = np.full_like(x, coefficients[0]), np.zeros_like(x), np.empty_like(x)
    for c in coefficients[1:]:
        b0, b1, b2 = b2, b0, b1  # b2 <- b1 <- b0, and b0 takes the spent buffer
        np.multiply(x, b1, out=b0)
        np.subtract(b0, b2, out=b0)
        np.add(b0, c, out=b0)
    np.subtract(b0, b2, out=b0)
    return np.multiply(b0, 0.5, out=b0)


def _i0e(z: np.ndarray) -> np.ndarray:
    """Exponentially scaled modified Bessel function I0(z) e^-z for z >= 0.

    Cephes' ``i0e`` (``scipy.special.i0e``) bit for bit: its two Chebyshev series, summed
    in place, each over the arguments of its own interval (z <= 8 or above) only.  The
    second series never forms I0(z), so it needs no other branch where I0 overflows.
    """
    out = np.empty_like(z)
    small = z <= 8.0
    large = ~small  # NaN goes here, as in Cephes
    zs, zl = z[small], z[large]
    out[small] = _chbevl(zs / 2.0 - 2.0, _I0_SMALL)
    out[large] = _chbevl(32.0 / zl - 2.0, _I0_LARGE) / np.sqrt(zl)
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
    if v.ndim == 2 and pending[0]:  # an empty stack has no item 0
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
