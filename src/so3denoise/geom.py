"""Point-cloud and SO(3) primitives.

Conventions used throughout the package:

* A point cloud is an ``(N, 3)`` float array of Cartesian coordinates,
  one point per row.  Centered clouds have zero column sums.
* A rotation is a ``(3, 3)`` proper orthogonal matrix.  A rotation ``r``
  acts on a cloud ``pc`` as ``pc @ r.T`` (each row rotated independently).
* ``center``, ``rotate`` and ``proper_svd`` also take stacks: leading
  axes in front of ``(N, 3)`` or ``(3, 3)`` are batch axes, and each
  item of a stack gets bit for bit the result of a call on that item.
* Random draws always take an explicit ``numpy.random.Generator``; there
  is no hidden global state and every function here is pure.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np


class ProperSvd(NamedTuple):
    """Sign-corrected SVD ``a = u @ diag(s) @ v.T`` with ``det(u) = det(v) = 1``.

    Singular values satisfy ``s[0] >= s[1] >= abs(s[2])``; any reflection
    in the input is absorbed into the sign of ``s[2]``.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def transpose(m: np.ndarray) -> np.ndarray:
    """Swap the last two axes: ``m.T`` of every matrix in a stack."""
    return m.swapaxes(-1, -2)


def center(pc: np.ndarray) -> np.ndarray:
    """Subtract the centroid so each coordinate column sums to zero."""
    pc = np.asarray(pc, dtype=float)
    # the sum and division of ``pc.mean``, without its Python wrapper
    return pc - np.add.reduce(pc, axis=-2, keepdims=True) / pc.shape[-2]


def rotate(r: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """Apply a rotation (or any 3x3 matrix) to every point of a cloud.

    Stacks ``(..., 3, 3)`` and ``(..., N, 3)`` rotate item by item.
    """
    return np.asarray(pc, dtype=float) @ transpose(np.asarray(r, dtype=float))


def frobenius_norm_sq(pc: np.ndarray) -> float:
    """Sum of squared point norms, invariant under rotations."""
    pc = np.asarray(pc, dtype=float)
    return float(np.sum(pc * pc))


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices from unit quaternions ``(..., 4)``, scalar first."""
    w, x, y, z = np.moveaxis(q, -1, 0)
    m = np.empty(q.shape[:-1] + (3, 3))
    m[..., 0, 0] = 1 - 2 * (y * y + z * z)
    m[..., 0, 1] = 2 * (x * y - w * z)
    m[..., 0, 2] = 2 * (x * z + w * y)
    m[..., 1, 0] = 2 * (x * y + w * z)
    m[..., 1, 1] = 1 - 2 * (x * x + z * z)
    m[..., 1, 2] = 2 * (y * z - w * x)
    m[..., 2, 0] = 2 * (x * z - w * y)
    m[..., 2, 1] = 2 * (y * z + w * x)
    m[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def haar_from_normals(q: np.ndarray) -> np.ndarray:
    """Rotations from standard-normal 4-vectors ``(..., 4)``.

    Normalizing four independent standard normals gives a uniform unit
    quaternion, so the result is Haar distributed; ``sample_haar`` is
    this applied to fresh draws.
    """
    q = np.asarray(q, dtype=float)
    return _quat_to_matrix(q / np.linalg.norm(q, axis=-1, keepdims=True))


def _noised(xs: np.ndarray, q: np.ndarray, eta: np.ndarray, sigma):
    """Rotate clouds by the Haar rotations of normals ``q``, add ``sigma * eta``, re-center.

    Works on one cloud or a stack; ``sigma`` is a level or anything that
    broadcasts against ``eta`` (per-item levels as ``(b, 1, 1)``).
    Returns the clouds and the rotations.
    """
    r_aug = haar_from_normals(q)
    return center(rotate(r_aug, xs) + sigma * eta), r_aug


def _count(value, name: str, least: int) -> int:
    """``value`` as a plain int (numpy ints and bools too) of at least ``least``; anything
    else raises a ``TypeError`` or ``ValueError`` naming the argument ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def _positive(value, name: str, shape: tuple[int, ...] = ()):
    """``value``, if its levels are positive and finite; others (NaN included) raise, naming the
    argument ``name``.  An array of per-item levels must have the stack's leading ``shape``."""
    s = np.asarray(value, dtype=float)
    if s.ndim and s.shape != shape:
        raise ValueError(f"{name} of shape {s.shape} does not match the stack's {shape}")
    if not ((0 < s) & (s < np.inf)).all():
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _cloud(value, name: str, ndim: int) -> np.ndarray:
    """``value`` as finite float coordinates: one cloud ``(N >= 1, 3)`` at ``ndim`` 2, a stack ``(F >= 1, N >= 1, 3)``
    at 3.  Anything else raises a ``ValueError`` naming ``name``, and a non-finite coordinate's index."""
    pc = np.asarray(value, dtype=float)
    rule = f"{name} must be finite coordinates of shape {'(F >= 1, ' if ndim == 3 else '('}N >= 1, 3), got"
    if pc.ndim != ndim or pc.shape[-1] != 3 or not pc.size:
        raise ValueError(f"{rule} shape {pc.shape}")
    if not np.isfinite(pc).all():
        at = tuple(np.argwhere(~np.isfinite(pc))[0].tolist())
        raise ValueError(f"{rule} {pc[at]} at {at}")
    return pc


def sample_haar(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw uniformly distributed rotations (Haar measure on SO(3)).

    A unit quaternion is sampled uniformly on S^3 (four independent
    standard normals, normalized) and converted to a matrix.  With
    ``size=None`` returns a single ``(3, 3)`` matrix, otherwise
    ``(size, 3, 3)``; a negative ``size`` or one that is not an integer raises.
    """
    n = 1 if size is None else _count(size, "size", 0)
    m = haar_from_normals(rng.standard_normal((n, 4)))
    return m[0] if size is None else m


def _det3(m: np.ndarray) -> np.ndarray:
    """Determinants ``(...)`` of 3x3 matrices ``(..., 3, 3)`` by cofactor expansion down the
    first column; elementwise, so an item of a stack gets the bits of a call on that item."""
    # columns p, q, r: ``.T`` puts the entry axes first and reverses the batch axes
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = m.T
    return (p0 * (q1 * r2 - q2 * r1) - p1 * (q0 * r2 - q2 * r0) + p2 * (q0 * r1 - q1 * r0)).T


def proper_svd(a: np.ndarray) -> ProperSvd:
    """Sign-corrected SVD of a 3x3 matrix or a ``(..., 3, 3)`` stack.

    Computes an ordinary SVD and, for each factor with negative
    determinant, negates its last column together with the sign of the
    smallest singular value.  If both factors are improper, both columns
    flip and ``s[2]`` is unchanged.  Stacks give ``u``, ``v`` of shape
    ``(..., 3, 3)`` and ``s`` of shape ``(..., 3)``.

    Both factors are orthogonal to rounding, so each determinant is +-1:
    its sign, that of ``np.linalg.det``, comes from a cofactor expansion.

    Raises ``ValueError`` on non-finite input.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("proper_svd requires finite input")
    u, s, vt = np.linalg.svd(a)
    v = transpose(vt).copy()
    # det(vt) = det(v); -1 where the factor is improper
    for factor, sign in zip((u, v), np.sign(_det3(np.stack((u, vt))))):
        factor[..., 2] *= sign[..., None]
        s[..., 2] *= sign
    return ProperSvd(u, s, v)
