import re

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


@pytest.mark.parametrize(
    "text, message",
    [
        ("2.5\nt\nA 1 0 0\nA -1 0 0\n", "bad.xyz:1: expected a point count, got '2.5'"),
        ("2\nt\nA 1 0 0\nA -1 0 0\nP\nt\n", "bad.xyz:5: expected a point count, got 'P'"),
        ("0\nt\n", "bad.xyz:1: point count must be >= 1"),
        ("-2\nt\nA 1 0 0\nA -1 0 0\n", "bad.xyz:1: point count must be >= 1"),
        ("2\nt\nA 1 0\nA -1 0 0\n", "bad.xyz:3: expected 'LABEL x y z', got 'A 1 0'"),
        ("2\nt\nA 1 0 0 9\nA -1 0 0 junk\n", "bad.xyz:3: expected 'LABEL x y z', got 'A 1 0 0 9'"),
        ("2\nt\nA 1 0 0\nA -1 0 0 junk\n", "bad.xyz:4: expected 'LABEL x y z', got 'A -1 0 0 junk'"),
        ("2\nt\n\xc5 1 0 0\nA -1 0 0\n", "bad.xyz: not UTF-8 text (invalid continuation byte at byte 4)"),
    ],
)
def test_malformed_count_or_row_reports_line_number(tmp_path, text, message):
    path = tmp_path / "bad.xyz"
    path.write_text(text, encoding="latin-1")  # a label of U+00C5 is one byte, which UTF-8 cannot start
    with pytest.raises(TrajectoryFormatError, match=re.escape(message)):
        load_trajectory(path)


def test_blank_lines_between_frames_are_skipped(tmp_path):
    path = tmp_path / "gaps.xyz"
    path.write_text("\n2\nt\nA 1 0 0\nA -1 0 0\n\n  \n2\nt\nA 0 1 0\nA 0 -1 0\n\n")
    traj = load_trajectory(path)
    assert traj.n_frames == 2
    np.testing.assert_array_equal(traj.frames[1], [[0, 1, 0], [0, -1, 0]])


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


def _line_by_line(traj, path):
    """The writer ``save_trajectory`` replaced: open, then one write per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for idx in range(traj.n_frames):
            fh.write(f"{traj.n_points}\n{traj.name} frame {idx}\n")
            for p in traj.frames[idx]:
                fh.write(f"P {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")


def test_save_writes_the_bytes_of_the_line_by_line_writer(tmp_path):
    rng = np.random.default_rng(30)
    extremes = np.array([[[0.0, -0.0, 1e-310], [1e300, -1.7976931348623157e308, 5e-324],
                          [0.1, 1 / 3, -2.5], [1.0, 123456789.0, -1e-7]]])
    for traj in (synth_trajectory(8, 1, 0.0, seed=1), synth_trajectory(6, 4, 0.3, seed=2),
                 Trajectory(rng.standard_normal((3, 5, 3)) * 10.0 ** rng.integers(-20, 20, (3, 5, 3)), "wide"),
                 Trajectory(extremes, "extremes ü")):
        save_trajectory(traj, tmp_path / "one.xyz")
        _line_by_line(traj, tmp_path / "lines.xyz")
        assert (tmp_path / "one.xyz").read_bytes() == (tmp_path / "lines.xyz").read_bytes()


@pytest.mark.parametrize("frames, name, error", [
    (np.zeros((1, 4, 2)), "pairs", ValueError),  # a point with two coordinates
    (np.zeros((2, 4, 3)), "\ud800", UnicodeEncodeError),  # a name UTF-8 cannot encode
], ids=["two-coordinates", "unencodable-name"])
def test_a_save_that_fails_keeps_the_existing_file(tmp_path, frames, name, error):
    path = tmp_path / "kept.xyz"
    save_trajectory(synth_trajectory(4, 2, 0.1, seed=3), path)
    before = path.read_bytes()
    with pytest.raises(error):
        save_trajectory(Trajectory(frames, name), path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("frames, name, message", [
    (np.zeros((1, 4, 4)), "t", "frames must be a float array of shape (F >= 1, N >= 1, 3), "
                                "got float64 of shape (1, 4, 4)"),
    (np.zeros((4, 3)), "t", "frames must be a float array of shape (F >= 1, N >= 1, 3), "
                            "got float64 of shape (4, 3)"),
    (np.zeros((0, 4, 3)), "t", "frames must be a float array of shape (F >= 1, N >= 1, 3), "
                               "got float64 of shape (0, 4, 3)"),
    (np.zeros((2, 0, 3)), "t", "frames must be a float array of shape (F >= 1, N >= 1, 3), "
                               "got float64 of shape (2, 0, 3)"),
    (np.zeros((1, 4, 3), dtype=np.int64), "t", "frames must be a float array of shape (F >= 1, N >= 1, 3), "
                                          "got int64 of shape (1, 4, 3)"),
    (np.array([[[0.0, 0.0, 0.0]], [[1.0, np.inf, 0.0]]]), "t", "frame 1 point 0 has a non-finite coordinate"),
    (np.zeros((1, 4, 3)), "a\nb", "name 'a\\nb' holds a line break; it must fit the comment line"),
    (np.zeros((1, 4, 3)), "a\u2028", "name 'a\\u2028' holds a line break; it must fit the comment line"),
], ids=["four-coordinates", "2-d", "no-frames", "no-points", "integer", "non-finite", "newline",
        "line-separator"])
def test_save_refuses_frames_and_names_that_load_cannot_read_back(tmp_path, frames, name, message):
    # each of these would fail in the formatting or make a file that load_trajectory
    # refuses or reads back as other frames (a fourth column is dropped); integer frames
    # are refused too, since a trajectory holds float coordinates
    path = tmp_path / "never.xyz"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        save_trajectory(Trajectory(frames, name), path)
    assert not path.exists()
    save_trajectory(Trajectory(np.zeros((1, 4, 3)), "a b\tc"), path)  # a plain name saves and reads back
    assert load_trajectory(path).frames.shape == (1, 4, 3)


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
    for args, message in (((8, 2.5), r"^n_frames must be an integer, got 2\.5$"),
                          ((8.0, 5), r"^n_points must be an integer, got 8\.0$")):
        with pytest.raises(TypeError, match=message):
            synth_trajectory(*args, 0.0, seed=2)
    np.testing.assert_array_equal(synth_trajectory(np.int64(8), np.int64(5), 0.0, seed=2).frames, traj.frames)
    for jitter in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=rf"^jitter must be finite, got {jitter}$"):
            synth_trajectory(8, 5, jitter, seed=2)


def test_frames_centered_on_load(tmp_path):
    path = tmp_path / "off.xyz"
    path.write_text("2\nt\nA 2 0 0\nA 0 0 0\n")
    traj = load_trajectory(path)
    np.testing.assert_allclose(traj.frames[0], [[1, 0, 0], [-1, 0, 0]], atol=1e-15)
