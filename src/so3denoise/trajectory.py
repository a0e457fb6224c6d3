"""XYZ trajectory files and synthetic data generation.

The file format is plain multi-frame XYZ: for each frame, a line with
the point count, a comment line, then one ``LABEL x y z`` line per
point.  Frames are centered on load and the trajectory carries a
reference scale (RMS point norm of frame 0) used for noise-level
bookkeeping and as the denoiser input scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geom import center


class TrajectoryFormatError(ValueError):
    """Malformed trajectory file; the message carries the offending line."""


@dataclass
class Trajectory:
    frames: np.ndarray  # (F, N, 3), every frame centered
    name: str
    scale: float        # RMS point norm of frame 0

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_points(self) -> int:
        return self.frames.shape[1]


def _rms_point_norm(frame: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum(frame * frame, axis=1))))


def _make_trajectory(frames: list[np.ndarray], name: str) -> Trajectory:
    centered = np.stack([center(f) for f in frames])
    return Trajectory(centered, name, _rms_point_norm(centered[0]))


def load_trajectory(path) -> Trajectory:
    """Parse a multi-frame XYZ file; frames are centered and the scale computed.

    Malformed lines, including ``nan`` or ``inf`` coordinates, raise
    ``TrajectoryFormatError`` naming the file and line.
    """
    path = Path(path)
    with open(path) as fh:
        lines = fh.read().splitlines()

    frames: list[np.ndarray] = []
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            n = int(lines[i].strip())
        except ValueError:
            raise TrajectoryFormatError(
                f"{path}:{i + 1}: expected a point count, got {lines[i]!r}"
            ) from None
        if n < 1:
            raise TrajectoryFormatError(f"{path}:{i + 1}: point count must be >= 1")
        if i + 1 + n > len(lines) - 1:
            raise TrajectoryFormatError(
                f"{path}:{i + 1}: frame declares {n} points but the file ends early"
            )
        coords = []  # the frame's rows, checked in file order and made one array
        for line_no in range(i + 2, i + 2 + n):
            parts = lines[line_no].split()
            if len(parts) < 4:
                raise TrajectoryFormatError(
                    f"{path}:{line_no + 1}: expected 'LABEL x y z', got {lines[line_no]!r}"
                )
            try:
                row = [float(v) for v in parts[1:4]]
            except ValueError:
                raise TrajectoryFormatError(
                    f"{path}:{line_no + 1}: non-numeric coordinate in {lines[line_no]!r}"
                ) from None
            if not all(map(math.isfinite, row)):
                raise TrajectoryFormatError(
                    f"{path}:{line_no + 1}: non-finite coordinate in {lines[line_no]!r}"
                )
            coords.append(row)
        frames.append(np.array(coords))
        i += 2 + n

    if not frames:
        raise TrajectoryFormatError(f"{path}: no frames found")
    if any(f.shape[0] != frames[0].shape[0] for f in frames):
        raise TrajectoryFormatError(f"{path}: inconsistent point counts across frames")
    return _make_trajectory(frames, path.stem)


def save_trajectory(traj: Trajectory, path, label: str = "P") -> None:
    """Write frames in the XYZ format with full float64 round-trip precision."""
    with open(path, "w", newline="\n") as fh:
        for idx in range(traj.n_frames):
            fh.write(f"{traj.n_points}\n{traj.name} frame {idx}\n")
            for p in traj.frames[idx]:
                fh.write(f"{label} {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")


def synth_trajectory(n_points: int, n_frames: int, jitter: float, seed: int) -> Trajectory:
    """Synthetic stand-in for a molecular trajectory.

    Frame 0 is a centered standard-normal cloud rescaled to unit RMS
    point norm; every other frame is the base cloud plus fresh Gaussian
    jitter, re-centered.  Deterministic given the seed.
    """
    if n_points < 4:
        raise ValueError(f"need at least 4 points, got {n_points}")
    if n_frames < 1:
        raise ValueError(f"need at least 1 frame, got {n_frames}")
    rng = np.random.default_rng(seed)
    base = center(rng.standard_normal((n_points, 3)))
    base /= _rms_point_norm(base)
    frames = [base]
    for _ in range(1, n_frames):
        if jitter == 0:
            frames.append(base)
        else:
            frames.append(center(base + jitter * rng.standard_normal(base.shape)))
    return _make_trajectory(frames, "synth")
