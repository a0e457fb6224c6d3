import numpy as np
import pytest

from so3denoise.trajectory import (
    Trajectory,
    TrajectoryFormatError,
    load_trajectory,
    save_trajectory,
    synth_trajectory,
)


def test_minimal_file(tmp_path):
    path = tmp_path / "pair.xyz"
    path.write_text("2\nt\nA 1 0 0\nA -1 0 0\n")
    traj = load_trajectory(path)
    assert traj.n_frames == 1
    assert traj.n_points == 2
    assert traj.scale == pytest.approx(1.0)
    np.testing.assert_allclose(traj.frames[0], [[1, 0, 0], [-1, 0, 0]], atol=1e-15)


def test_empty_file_errors(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("")
    with pytest.raises(TrajectoryFormatError):
        load_trajectory(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("2\nt\nA 1 0 0\nA nope 0 0\n")
    with pytest.raises(TrajectoryFormatError, match="bad.xyz:4"):
        load_trajectory(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_coordinate_reports_line_number(tmp_path, value):
    path = tmp_path / "bad.xyz"
    path.write_text(f"2\nt\nA 1 0 0\nA -1 0 0\n2\nt\nA 1 0 0\nA 0 {value} 0\n")
    with pytest.raises(TrajectoryFormatError, match="bad.xyz:8: non-finite"):
        load_trajectory(path)


def test_format_errors_reported_in_file_order(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("2\nt\nA nan 0 0\nA x 0 0\n")
    with pytest.raises(TrajectoryFormatError, match="bad.xyz:3: non-finite"):
        load_trajectory(path)


def test_truncated_frame_errors(tmp_path):
    path = tmp_path / "short.xyz"
    path.write_text("3\nt\nA 1 0 0\nA -1 0 0\n")
    with pytest.raises(TrajectoryFormatError):
        load_trajectory(path)


def test_inconsistent_point_counts_error(tmp_path):
    path = tmp_path / "mixed.xyz"
    path.write_text("2\nt\nA 1 0 0\nA -1 0 0\n3\nt\nA 1 0 0\nA -1 0 0\nA 0 1 0\n")
    with pytest.raises(TrajectoryFormatError, match="inconsistent"):
        load_trajectory(path)


def test_round_trip_exact(tmp_path):
    traj = synth_trajectory(6, 4, 0.3, seed=1)
    path = tmp_path / "rt.xyz"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    # %.17g preserves doubles exactly; the loader re-centering only moves
    # coordinates by the stored frames' residual centroid (~1 ulp)
    np.testing.assert_allclose(back.frames, traj.frames, rtol=1e-15, atol=1e-15)
    assert back.n_frames == traj.n_frames


def test_synth_trajectory_properties():
    traj = synth_trajectory(8, 5, 0.0, seed=2)
    for k in range(1, 5):
        np.testing.assert_array_equal(traj.frames[k], traj.frames[0])
    assert traj.scale == pytest.approx(1.0, abs=1e-12)
    again = synth_trajectory(8, 5, 0.0, seed=2)
    np.testing.assert_array_equal(traj.frames, again.frames)
    with pytest.raises(ValueError):
        synth_trajectory(3, 5, 0.0, seed=2)
    with pytest.raises(ValueError):
        synth_trajectory(8, 0, 0.0, seed=2)


def test_frames_centered_on_load(tmp_path):
    path = tmp_path / "off.xyz"
    path.write_text("2\nt\nA 2 0 0\nA 0 0 0\n")
    traj = load_trajectory(path)
    np.testing.assert_allclose(traj.frames[0], [[1, 0, 0], [-1, 0, 0]], atol=1e-15)
