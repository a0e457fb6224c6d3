"""Brute-force integration over SO(3): the independent reference for the oracle.

A ZYZ Euler product grid (trapezoid in the two azimuths, Gauss-Legendre
in cos(beta)) with Haar weights, and the partition function and first
moment of a matrix Fisher distribution as weighted sums over its nodes.
It shares no formula with the 1-D Bessel quadrature of
:mod:`so3denoise.quadrature`, so agreement between the two is evidence.
"""

from dataclasses import dataclass

import numpy as np

from so3denoise.geom import _count


@dataclass(frozen=True)
class So3Grid:
    """Quadrature nodes and weights on SO(3); weights are normalized to 1."""

    rotations: np.ndarray  # (M, 3, 3)
    weights: np.ndarray    # (M,)


def _plane_rotation(angles: np.ndarray, i: int, j: int) -> np.ndarray:
    """Rotations by ``angles`` turning axis i toward axis j: (0, 1) is about z, (2, 0) about y."""
    c, s = np.cos(angles), np.sin(angles)
    m = np.zeros(angles.shape + (3, 3))
    m[..., range(3), range(3)] = 1.0
    m[..., i, i] = m[..., j, j] = c
    m[..., i, j] = -s
    m[..., j, i] = s
    return m


def so3_grid_global(n: int) -> So3Grid:
    """ZYZ Euler product grid with n nodes per axis (n^3 total)."""
    n = _count(n, "n", 2)
    azimuth = 2.0 * np.pi * np.arange(n) / n
    u, gl_w = np.polynomial.legendre.leggauss(n)
    rot_z, rot_y = _plane_rotation(azimuth, 0, 1), _plane_rotation(np.arccos(u), 2, 0)
    rab = np.einsum("aij,bjk->abik", rot_z, rot_y).reshape(n * n, 3, 3)
    rotations = (rab[None] @ rot_z[:, None]).reshape(-1, 3, 3)
    # Haar weight: (2pi/n)^2 * gl_w / (8 pi^2) = gl_w / (2 n^2); sums to 1.
    weights = np.tile(gl_w / (2.0 * n * n), n * n)
    return So3Grid(rotations, weights)


def log_partition(f, grid):
    """log of the Haar-normalized partition function Z(f), a log-shifted sum over grid nodes."""
    logp = np.einsum("ij,nij->n", f, grid.rotations)
    shift = logp.max()
    return float(shift + np.log(np.sum(grid.weights * np.exp(logp - shift))))


def posterior_mean(f, grid):
    """E[R] under exp(Tr[f^T R]) dHaar as a log-shifted weighted sum over grid nodes."""
    logp = np.einsum("ij,nij->n", f, grid.rotations)
    w = grid.weights * np.exp(logp - logp.max())
    return np.einsum("n,nij->ij", w, grid.rotations) / w.sum()


def grid_moments(n: int) -> None:
    """The grid's weights and first two Haar moments: sum 1, E[R] = 0 and E[tr(R)^2] = 1."""
    g = so3_grid_global(n)
    assert abs(g.weights.sum() - 1.0) <= 1e-12, "weights not normalized"
    mean = np.einsum("n,nij->ij", g.weights, g.rotations)
    assert np.max(np.abs(mean)) <= 1e-10, "Haar first moment not zero"
    tr = np.trace(g.rotations, axis1=1, axis2=2)
    assert abs(np.sum(g.weights * tr * tr) - 1.0) <= 1e-8, "trace^2 moment off"
