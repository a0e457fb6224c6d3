"""Deterministic numerical integration over SO(3).

Provides the exact first moment of matrix Fisher distributions, the
partition function on a global grid, and the quadrature-backed optimal
conditional denoiser.  This is the ground-truth path: it shares no code
with the closed-form expansion in :mod:`so3denoise.fisher`, so agreement
between the two is evidence rather than tautology.

The first moment uses the canonical-frame 1-D Bessel representation of
the matrix Fisher normalizer (Wood 1993; Lee, Leok & McClamroch 2018).
For the proper SVD ``f = U diag(s) V^T``, ``E[R] = U diag(d) V^T`` with

    d_k = int u g_k(u) du / int g_k(u) du   over u in [-1, 1],
    g_k(u) = I0(a (1 - u)) I0(b (1 + u)) exp(s_k u),

where ``a, b = (s_i -+ s_j) / 2`` for the other two indices ``s_i >= s_j``.
The exponent is shifted to zero at ``u = 1`` and the integrals use
Gauss-Legendre panels that shrink geometrically toward both endpoints,
so concentrations up to ~1e6 neither overflow nor under-resolve.

The ZYZ Euler product grid (periodic trapezoid in the two azimuthal
angles, Gauss-Legendre in cos(beta)) remains as the partition-function
path and as an independent reference for the moment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fisher import MatrixFisher, mf_from_observation
from .geom import proper_svd

# Panels halve in width toward each endpoint of [-1, 1] down to 2**-_PANEL_DEPTH.
_PANEL_DEPTH = 40
_START_NODES_PER_PANEL = 4
_MAX_NODES_PER_PANEL = 64

# Above this argument np.i0 overflows; the Hankel expansion of
# I0(z) e^-z, sum_k ((2k-1)!!)^2 / (k! (8z)^k) / sqrt(2 pi z), takes over.
_I0E_SWITCH = 700.0
_HANKEL_I0 = np.array([1.0, 1 / 8, 9 / 128, 225 / 3072, 11025 / 98304, 893025 / 3932160])

# For each index k, the other two (i, j) with s_i >= s_j under proper_svd's ordering.
_OTHER_AXES = np.array([[1, 2], [0, 2], [0, 1]])


class NoConvergenceError(RuntimeError):
    """Refinement hit the node cap before meeting the tolerance.

    Carries the last two (finest) estimates for inspection.
    """

    def __init__(self, message: str, last: np.ndarray, previous: np.ndarray):
        super().__init__(message)
        self.last = last
        self.previous = previous


@dataclass(frozen=True)
class So3Grid:
    """Quadrature nodes and weights on SO(3); weights are normalized to 1."""

    rotations: np.ndarray  # (M, 3, 3)
    weights: np.ndarray    # (M,)
    n: int                 # nodes per axis

    @property
    def node_count(self) -> int:
        return self.rotations.shape[0]


def _rot_z(angles: np.ndarray) -> np.ndarray:
    c, s = np.cos(angles), np.sin(angles)
    m = np.zeros(angles.shape + (3, 3))
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    m[..., 2, 2] = 1.0
    return m


def _rot_y(angles: np.ndarray) -> np.ndarray:
    c, s = np.cos(angles), np.sin(angles)
    m = np.zeros(angles.shape + (3, 3))
    m[..., 0, 0] = c
    m[..., 0, 2] = s
    m[..., 1, 1] = 1.0
    m[..., 2, 0] = -s
    m[..., 2, 2] = c
    return m


def so3_grid_global(n: int) -> So3Grid:
    """ZYZ Euler product grid with n nodes per axis (n^3 total)."""
    if n < 2:
        raise ValueError(f"need n >= 2 nodes per axis, got {n}")
    azimuth = 2.0 * np.pi * np.arange(n) / n
    u, gl_w = np.polynomial.legendre.leggauss(n)
    rab = np.einsum("aij,bjk->abik", _rot_z(azimuth), _rot_y(np.arccos(u))).reshape(n * n, 3, 3)
    rotations = (rab[None] @ _rot_z(azimuth)[:, None]).reshape(-1, 3, 3)
    # Haar weight: (2pi/n)^2 * gl_w / (8 pi^2) = gl_w / (2 n^2); sums to 1.
    weights = np.tile(gl_w / (2.0 * n * n), n * n)
    return So3Grid(rotations, weights, n)


def mf_log_partition(p: MatrixFisher, grid: So3Grid) -> float:
    """log of the Haar-normalized partition function Z(f) on a global grid."""
    logp = np.einsum("ij,nij->n", p.f, grid.rotations)
    shift = logp.max()
    return float(shift + np.log(np.sum(grid.weights * np.exp(logp - shift))))


def mf_partition(p: MatrixFisher, grid: So3Grid) -> float:
    """Partition function Z(f); may overflow to inf for extreme concentrations."""
    with np.errstate(over="ignore"):
        return float(np.exp(mf_log_partition(p, grid)))


def _i0e(z: np.ndarray) -> np.ndarray:
    """Exponentially scaled modified Bessel function I0(z) e^-z for z >= 0."""
    out = np.empty_like(z)
    small = z <= _I0E_SWITCH
    zs, zl = z[small], z[~small]
    out[small] = np.i0(zs) * np.exp(-zs)
    out[~small] = np.polynomial.polynomial.polyval(1.0 / zl, _HANKEL_I0) / np.sqrt(2.0 * np.pi * zl)
    return out


@lru_cache(maxsize=8)
def _panel_nodes(n: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes as 1 - u on [0, 2] and Gauss-Legendre weights, n per panel.

    Each half of [-1, 1] is split at distances 2^-depth, ..., 1/2, 1 from
    its endpoint; nodes are placed by that distance so 1 - u and 1 + u
    stay exact near u = 1 and u = -1 respectively.
    """
    edges = np.concatenate([[0.0], 2.0 ** -np.arange(depth, -1, -1)])
    x, w = np.polynomial.legendre.leggauss(n)
    lo, hi = edges[:-1, None], edges[1:, None]
    t = ((lo + hi) / 2 + (hi - lo) / 2 * x).ravel()
    wt = ((hi - lo) / 2 * w).ravel()
    one_minus_u, weights = np.concatenate([t, 2.0 - t]), np.concatenate([wt, wt])
    one_minus_u.setflags(write=False)  # cached: shared by every caller
    weights.setflags(write=False)
    return one_minus_u, weights


def _canonical_mean(s: np.ndarray, n: int) -> np.ndarray:
    """Diagonal d of E[Q] under exp(sum_k s_k Q_kk) dHaar, n nodes per panel."""
    one_minus_u, w = _panel_nodes(n, _PANEL_DEPTH)
    i, j = _OTHER_AXES.T
    a = 0.5 * (s[i] - s[j])
    b = 0.5 * (s[i] + s[j])
    # exponent a(1-u) + b(1+u) + s_k u = s_i + (s_j + s_k) u, shifted to 0 at u = 1
    g = (
        w
        * _i0e(np.outer(a, one_minus_u))
        * _i0e(np.outer(b, 2.0 - one_minus_u))
        * np.exp(-np.outer(s[j] + s, one_minus_u))
    )
    return 1.0 - (g @ one_minus_u) / g.sum(axis=1)


def mf_mean_quadrature(p: MatrixFisher, tol: float = 1e-8) -> np.ndarray:
    """Exact first moment E[R] of MF(R; f) by 1-D Bessel quadrature.

    The nodes per panel double until two successive estimates agree to
    ``tol`` per matrix entry; failure to converge raises
    :class:`NoConvergenceError` carrying the last two estimates.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    u, s, v = proper_svd(p.f)
    prev = None
    est = None
    n = _START_NODES_PER_PANEL
    while n <= _MAX_NODES_PER_PANEL:
        prev, est = est, (u * _canonical_mean(s, n)) @ v.T
        if prev is not None and np.max(np.abs(est - prev)) < tol:
            return est
        n *= 2
    raise NoConvergenceError(
        f"posterior mean did not converge to tol={tol} "
        f"by {_MAX_NODES_PER_PANEL} nodes per panel (concentration {s[0]:.3g})",
        last=est,
        previous=prev,
    )


def oracle_conditional_denoiser(
    y: np.ndarray, x: np.ndarray, sigma: float, tol: float = 1e-8
) -> np.ndarray:
    """Posterior-mean denoiser target: E[R | y, x, sigma] applied to x.

    The expectation is over the rotation posterior MF(y.T x / sigma^2);
    the resulting mean matrix (not a rotation) acts on coordinates the
    same way a rotation does.
    """
    mean = mf_mean_quadrature(mf_from_observation(y, x, sigma), tol)
    return np.asarray(x, dtype=float) @ mean.T
