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

from .geom import _cloud, _count, center


class TrajectoryFormatError(ValueError):
    """Malformed trajectory file; the message carries the offending line."""


@dataclass
class Trajectory:
    frames: np.ndarray  # (F, N, 3), every frame centered
    name: str

    @property
    def scale(self) -> float:
        """RMS point norm of frame 0."""
        return _rms_point_norm(self.frames[0])

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_points(self) -> int:
        return self.frames.shape[1]


def _rms_point_norm(frame: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum(frame * frame, axis=1))))


def _make_trajectory(frames: list[np.ndarray], name: str) -> Trajectory:
    return Trajectory(np.stack([center(f) for f in frames]), name)


def load_trajectory(path) -> Trajectory:
    """Parse a multi-frame XYZ file; frames are centered.

    Malformed lines, including rows of other than four fields and ``nan``
    or ``inf`` coordinates, raise ``TrajectoryFormatError`` naming the file
    and line; a file that is not UTF-8 raises it naming the file.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise TrajectoryFormatError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None

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
            if len(parts) != 4:
                raise TrajectoryFormatError(
                    f"{path}:{line_no + 1}: expected 'LABEL x y z', got {lines[line_no]!r}"
                )
            try:
                row = [float(v) for v in parts[1:]]
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


def save_trajectory(traj: Trajectory, path) -> None:
    """Write frames as UTF-8 XYZ, every point labelled ``P``, at full float64 round-trip precision.

    Frames that are not a finite float ``(F >= 1, N >= 1, 3)`` array, or a name with a line
    break, raise ``ValueError``: ``load_trajectory`` could not read the file back.  The file is
    made before ``path`` is opened, so a save that fails leaves ``path`` as it was."""
    if np.asarray(traj.frames).dtype.kind != "f":
        raise ValueError(f"frames must be a float array, got {np.asarray(traj.frames).dtype}")
    frames = _cloud(traj.frames, "frames", 3)
    if "".join(traj.name.splitlines()) != traj.name:
        raise ValueError(f"name {traj.name!r} holds a line break; it must fit the comment line")
    point = "P {:.17g} {:.17g} {:.17g}\n".format
    data = "".join(f"{frames.shape[1]}\n{traj.name} frame {idx}\n" + "".join([point(*p) for p in frame])
                   for idx, frame in enumerate(frames.tolist())).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def synth_trajectory(n_points: int, n_frames: int, jitter: float, seed: int) -> Trajectory:
    """Synthetic stand-in for a molecular trajectory.

    Frame 0 is a centered standard-normal cloud rescaled to unit RMS
    point norm; every other frame is the base cloud plus fresh Gaussian
    jitter, re-centered.  Deterministic given the seed.  Bad counts, a bad
    seed and a ``jitter`` that is not finite raise, naming the argument.
    """
    n_points, n_frames = _count(n_points, "n_points", 4), _count(n_frames, "n_frames", 1)
    if not math.isfinite(jitter):
        raise ValueError(f"jitter must be finite, got {jitter}")
    rng = np.random.default_rng(_count(seed, "seed", 0))
    base = center(rng.standard_normal((n_points, 3)))
    base /= _rms_point_norm(base)
    frames = [base]
    for _ in range(1, n_frames):
        if jitter == 0:
            frames.append(base)
        else:
            frames.append(center(base + jitter * rng.standard_normal(base.shape)))
    return _make_trajectory(frames, "synth")
