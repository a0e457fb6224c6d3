import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import so3denoise
import so3denoise.selftest
from so3denoise import align, cli, fisher, geom, quadrature
from so3denoise.cli import main
from so3denoise.diffusion import MlpDenoiser, TrainConfig, load_denoiser, save_denoiser, train, write_metrics_csv
from so3denoise.fisher import mf_mean_laplace
from so3denoise.geom import proper_svd
from so3denoise.quadrature import mf_mean_quadrature
from so3denoise.trajectory import Trajectory, load_trajectory, save_trajectory, synth_trajectory


@pytest.fixture(scope="module")
def traj_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.xyz"
    save_trajectory(synth_trajectory(8, 6, 0.1, seed=21), path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_align_outputs_rotation_and_metrics(capsys, traj_path):
    code, payload = run_json(capsys, ["align", traj_path, "--frame-a", "0", "--frame-b", "1"])
    assert code == 0
    r = np.array(payload["rotation"])
    assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-10
    assert abs(np.linalg.det(r) - 1.0) <= 1e-10
    assert payload["aligned_rmsd"] <= payload["rmsd"] + 1e-12
    assert payload["degenerate"] is False


def test_moment_orders_and_oracle_errors(capsys, traj_path):
    code, payload = run_json(
        capsys, ["moment", "--input", traj_path, "--frame", "0", "--sigma", "0.1", "--order", "1"]
    )
    assert code == 0
    assert np.array(payload["moment"]).shape == (3, 3)

    code, payload = run_json(
        capsys,
        ["moment", "--input", traj_path, "--frame", "0", "--sigma", "0.1", "--order", "oracle"],
    )
    assert code == 0
    errs = payload["per_order_max_abs_error"]
    assert errs["order2"] <= errs["order1"] <= errs["order0"]


def test_moment_oracle_on_expansion_singular_frame(capsys, tmp_path):
    # a collinear frame: the oracle moment exists, the order-1/2 expansions do not
    path = tmp_path / "collinear.xyz"
    path.write_text("3\ncollinear\nA -1 0 0\nA 0 0 0\nA 1 0 0\n")
    code, payload = run_json(capsys, ["moment", "--input", str(path), "--sigma", "0.5"])
    assert code == 0
    assert np.array(payload["moment"]).shape == (3, 3)
    errs = payload["per_order_max_abs_error"]
    assert isinstance(errs["order0"], float)
    assert errs["order1"] is None and errs["order2"] is None


def test_moment_uniform_posterior_limits(capsys, traj_path):
    # extremely diffuse posterior: entries vanish at the tolerance scale
    tol = 1e-6
    code, payload = run_json(
        capsys,
        ["moment", "--input", traj_path, "--sigma", "1e4", "--order", "oracle", "--tol", str(tol)],
    )
    assert code == 0
    assert np.max(np.abs(payload["moment"])) < tol * 10
    # at sigma = 10*scale the posterior is diffuse but the mean is only
    # O(s1 / (3 sigma^2)); assert that derivable linear-response bound
    traj = load_trajectory(traj_path)
    x = traj.frames[0]
    s1 = proper_svd(x.T @ x).s[0]
    code, payload = run_json(
        capsys, ["moment", "--input", traj_path, "--sigma", "10", "--order", "oracle"]
    )
    assert code == 0
    assert np.max(np.abs(payload["moment"])) < s1 / (2 * 100.0)


def test_moment_factors_its_frame_once(capsys, monkeypatch, traj_path):
    # one proper SVD of x.T @ x serves the oracle and every order; an order alone
    # prints mf_mean_laplace's moment byte for byte
    calls = []

    def counted(a):
        calls.append(np.shape(a))
        return proper_svd(a)

    for module in (geom, align, fisher, quadrature, cli):  # counted wherever bound
        monkeypatch.setattr(module, "proper_svd", counted, raising=False)
    x = load_trajectory(traj_path).frames[0]
    for sigma in (0.05, 0.5, 3.0):
        argv = ["moment", "--input", traj_path, "--sigma", repr(sigma)]
        calls.clear()
        code, payload = run_json(capsys, argv)
        assert code == 0 and calls == [(3, 3)]
        moment = np.array(payload["moment"])
        for k in (0, 1, 2):
            error = np.max(np.abs(mf_mean_laplace(x.T @ x, sigma, k) - moment))
            assert payload["per_order_max_abs_error"][f"order{k}"] == error
        assert np.max(np.abs(moment - mf_mean_quadrature(x.T @ x / sigma**2, 1e-6))) <= 1e-14
        for k in (0, 1, 2):
            calls.clear()
            assert main(argv + ["--order", str(k)]) == 0 and calls == [(3, 3)]
            want = {"sigma": sigma, "order": k, "moment": mf_mean_laplace(x.T @ x, sigma, k).tolist()}
            assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


def test_sweep_byte_identical_and_parseable(capsys, tmp_path, traj_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--input", traj_path, "--frame", "0", "--sigmas", "0.05,0.1",
            "--n-noise", "4", "--seed", "9"]
    code, payload = run_json(capsys, argv + ["--out", str(out_a)])
    assert code == 0 and payload["records"] == 8
    code, _ = run_json(capsys, argv + ["--out", str(out_b)])
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_text().splitlines()) == 1 + 8


def test_train_and_sample_round_trip(capsys, tmp_path):
    data = tmp_path / "one.xyz"
    save_trajectory(synth_trajectory(8, 1, 0.1, seed=21), data)  # frame 0 of traj_path
    metrics = tmp_path / "metrics.csv"
    model = tmp_path / "model.bin"
    code, payload = run_json(
        capsys,
        ["train", "--input", str(data), "--sigma", "0.5", "--estimator", "order0",
         "--steps", "20", "--seed", "2",
         "--out-metrics", str(metrics), "--out-model", str(model)],
    )
    assert code == 0
    assert payload["status"] == "completed"
    assert metrics.read_text().splitlines()[0] == "step,loss,rmsd,aligned_rmsd,n_excluded"

    sample_out = tmp_path / "sample.xyz"
    code, payload = run_json(
        capsys,
        ["sample", "--model", str(model), "--schedule", "1.0,0.5,0.25,0.1,0",
         "--seed", "4", "--out", str(sample_out)],
    )
    assert code == 0
    sampled = load_trajectory(sample_out)
    assert sampled.n_points == 8
    assert sampled.n_frames == 1


def test_train_takes_its_defaults_from_train_config(capsys, tmp_path, traj_path):
    model = tmp_path / "model.bin"
    code, payload = run_json(
        capsys,
        ["train", "--input", traj_path, "--sigma", "0.5", "--estimator", "order1", "--steps", "3",
         "--out-metrics", str(tmp_path / "m.csv"), "--out-model", str(model)],
    )
    assert code == 0 and payload["status"] == "completed"
    config = json.loads(json.dumps(asdict(TrainConfig(0.5, "order1", 3))))
    assert load_denoiser(model)[1]["config"] == config


def test_train_oracle_writes_the_files_of_the_library_calls(capsys, tmp_path):
    data, metrics, model = tmp_path / "t.xyz", tmp_path / "m.csv", tmp_path / "m.bin"
    save_trajectory(synth_trajectory(8, 3, 0.1, seed=5), data)
    code, payload = run_json(
        capsys,
        ["train", "--input", str(data), "--sigma", "0.5", "--estimator", "oracle", "--steps", "3",
         "--batch", "4", "--hidden", "8", "--seed", "2", "--out-metrics", str(metrics), "--out-model", str(model)],
    )
    assert code == 0 and payload["status"] == "completed"
    cfg = TrainConfig(0.5, "oracle", 3, batch=4, seed=2, hidden=8)
    result = train(cfg, load_trajectory(data).frames)
    write_metrics_csv(result.metrics, tmp_path / "want.csv")
    save_denoiser(result.model, tmp_path / "want.bin", config=cfg)
    assert metrics.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert model.read_bytes() == (tmp_path / "want.bin").read_bytes()


def test_a_checkpoint_whose_config_has_dataset_mode_samples_the_same_bytes(capsys, tmp_path):
    # checkpoints saved while TrainConfig had a dataset_mode field carry it in the header's config
    new, old = tmp_path / "new.bin", tmp_path / "old.bin"
    save_denoiser(MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0)), new, TrainConfig(0.5, "order1", 5))
    line, _, block = new.read_bytes().partition(b"\n")
    header = json.loads(line)
    config = {k: v for k, v in header["config"].items() if k != "hidden"}
    header["config"] = config | {"dataset_mode": "all-frames", "hidden": header["config"]["hidden"]}
    old.write_bytes(json.dumps(header).encode() + b"\n" + block)
    model, loaded = load_denoiser(old)
    assert loaded["config"]["dataset_mode"] == "all-frames"
    np.testing.assert_array_equal(model.theta, load_denoiser(new)[0].theta)
    for path in (new, old):
        code, _ = run_json(capsys, ["sample", "--model", str(path), "--schedule", "1.0,0.5,0.1,0", "--seed", "4",
                                    "--out", str(path.with_suffix(".xyz"))])
        assert code == 0
    assert new.with_suffix(".xyz").read_bytes() == old.with_suffix(".xyz").read_bytes()


def test_train_divergence_prints_valid_json(capsys, tmp_path, traj_path):
    def reject(token):
        raise ValueError(f"not a JSON number: {token}")

    code = main(
        ["train", "--input", traj_path, "--sigma", "0.5", "--estimator", "order0",
         "--steps", "100", "--seed", "3", "--lr", "1e200",
         "--out-metrics", str(tmp_path / "m.csv"), "--out-model", str(tmp_path / "t.bin")]
    )
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0
    assert payload["status"] == "diverged"
    assert payload["final"]["rmsd"] is None and payload["final"]["aligned_rmsd"] is None


def test_train_with_an_overflowing_probe_reports_divergence(capsys, tmp_path):
    # lr 1e308 leaves theta finite after step 1 but overflows the probe predictions
    data, metrics, model = tmp_path / "synth.xyz", tmp_path / "m.csv", tmp_path / "t.bin"
    save_trajectory(synth_trajectory(8, 20, 0.1, seed=7), data)
    code, payload = run_json(
        capsys,
        ["train", "--input", str(data), "--sigma", "0.5", "--estimator", "order0", "--steps", "20",
         "--batch", "8", "--seed", "11", "--lr", "1e308",
         "--out-metrics", str(metrics), "--out-model", str(model)],
    )
    assert code == 0
    assert (payload["status"], payload["diverged_at"], payload["steps_recorded"]) == ("diverged", 2, 2)
    assert payload["final"]["rmsd"] is None and payload["final"]["aligned_rmsd"] is None
    assert metrics.read_text().splitlines()[2].endswith(",nan,nan,0")
    saved, header = load_denoiser(model)
    assert header["config"]["lr"] == 1e308 and np.isfinite(saved.theta).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_from_a_diverged_checkpoint_exits_1(capsys, tmp_path, traj_path):
    # training diverges at step 2 and saves parameters near 1e200, whose walk overflows
    model, out = tmp_path / "t.bin", tmp_path / "s.xyz"
    code, payload = run_json(
        capsys,
        ["train", "--input", traj_path, "--sigma", "0.5", "--estimator", "order0",
         "--steps", "100", "--seed", "3", "--lr", "1e200",
         "--out-metrics", str(tmp_path / "m.csv"), "--out-model", str(model)],
    )
    assert code == 0 and payload["status"] == "diverged"
    assert main(["sample", "--model", str(model), "--schedule", "1,0.5,0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: sampling from {model} gave non-finite coordinates (a diverged model?)\n"


def test_sample_from_a_truncated_checkpoint_exits_1(capsys, tmp_path):
    model, out = tmp_path / "model.bin", tmp_path / "s.xyz"
    save_denoiser(MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0)), model)
    model.write_bytes(model.read_bytes()[:-8])
    assert main(["sample", "--model", str(model), "--schedule", "1,0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: truncated checkpoint: {model}\n"


def _checkpoint_bytes(path, hidden: int) -> tuple[bytes, bytes]:
    """Header line and parameter block of a freshly saved 8-point checkpoint."""
    save_denoiser(MlpDenoiser.initialize(8, hidden, 1.0, np.random.default_rng(0)), path)
    line, _, block = path.read_bytes().partition(b"\n")
    return line, block


@pytest.mark.parametrize("defect", ["trailing-bytes", "header-halves-hidden"])
def test_sample_from_a_checkpoint_longer_than_its_header_exits_1(capsys, tmp_path, defect):
    # a block longer than the header's sizes promise is refused, not read from its start
    model, out = tmp_path / "model.bin", tmp_path / "s.xyz"
    line, block = _checkpoint_bytes(model, 64)
    if defect == "trailing-bytes":
        promised, block = len(block), block + bytes(8)
    else:
        promised = len(_checkpoint_bytes(tmp_path / "h32.bin", 32)[1])
        line = json.dumps(json.loads(line) | {"hidden": 32}).encode()
    model.write_bytes(line + b"\n" + block)
    assert main(["sample", "--model", str(model), "--schedule", "1,0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"error: checkpoint {model}: parameter block of {len(block)} bytes, "
                            f"header promises {promised}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h | {"n_points": 0, "hidden": 0}, "header 'n_points' must be a positive int, got 0"),
        (lambda h: h | {"hidden": -1}, "header 'hidden' must be a positive int, got -1"),
        (lambda h: {k: v for k, v in h.items() if k != "n_points"}, "header has no 'n_points'"),
        (lambda h: h | {"s_ref": float("nan")}, "header 's_ref' must be positive and finite, got nan"),
        (lambda h: [h], "header has no 'n_points'"),
        (lambda h: b"", "header is not UTF-8 JSON (Expecting value: line 1 column 1 (char 0))"),
        (lambda h: b'{"n_points": 8', "header is not UTF-8 JSON (Expecting ',' delimiter: "
         "line 1 column 15 (char 14))"),
        (lambda h: b"\xff" + json.dumps(h).encode(), "header is not UTF-8 JSON ('utf-8' codec can't decode "
         "byte 0xff in position 0: invalid start byte)"),
    ],
    ids=["zero-sizes", "negative-hidden", "missing-n-points", "nan-s-ref", "not-an-object", "empty-line",
         "unterminated-object", "not-utf-8"],
)
def test_sample_from_an_invalid_checkpoint_header_exits_1(capsys, tmp_path, edit, message):
    model, out = tmp_path / "model.bin", tmp_path / "s.xyz"
    save_denoiser(MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0)), model)
    line, _, block = model.read_bytes().partition(b"\n")
    header = edit(json.loads(line))  # a header, or the raw bytes of a first line
    model.write_bytes((header if isinstance(header, bytes) else json.dumps(header).encode()) + b"\n" + block)
    assert main(["sample", "--model", str(model), "--schedule", "1,0", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: checkpoint {model}: {message}\n"


@pytest.mark.parametrize("scale", [0.0, 1e-170])
def test_train_on_a_frame_0_of_zero_rms_norm_exits_1(capsys, tmp_path, scale):
    # frame 0's RMS norm is the denoiser's input scale; at 1e-170 its squares underflow
    traj = synth_trajectory(8, 4, 0.1, seed=3)
    traj.frames[0] *= scale
    data, metrics, model = tmp_path / "t.xyz", tmp_path / "m.csv", tmp_path / "m.bin"
    save_trajectory(traj, data)
    code = main(["train", "--input", str(data), "--sigma", "0.5", "--estimator", "order0",
                 "--steps", "5", "--out-metrics", str(metrics), "--out-model", str(model)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: frame 0 has zero RMS norm; the denoiser's input scale is taken from it\n"
    assert not metrics.exists() and not model.exists()


@pytest.mark.parametrize("estimator", ["aug", "order0", "order2"])
def test_train_on_a_frame_0_whose_rms_norm_overflows_exits_1(capsys, tmp_path, estimator):
    # at 1e200 the squares overflow: s_ref would be inf, which no checkpoint may hold
    traj = synth_trajectory(8, 4, 0.1, seed=3)
    traj.frames[:] *= 1e200
    data, metrics, model = tmp_path / "t.xyz", tmp_path / "m.csv", tmp_path / "m.bin"
    save_trajectory(traj, data)
    code = main(["train", "--input", str(data), "--sigma", "0.5", "--estimator", estimator,
                 "--steps", "5", "--out-metrics", str(metrics), "--out-model", str(model)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: frame 0 has an overflowing RMS norm; "
                            "the denoiser's input scale is taken from it\n")
    assert not metrics.exists() and not model.exists()


def test_align_factors_its_frames_once(monkeypatch, capsys, traj_path):
    # the aligned RMSD reads kabsch's rotation instead of factoring a.T @ b again
    calls = []
    monkeypatch.setattr(align, "proper_svd", lambda m: calls.append(m) or proper_svd(m))
    code, payload = run_json(capsys, ["align", traj_path, "--frame-a", "0", "--frame-b", "1"])
    assert code == 0 and len(calls) == 1
    a, b = load_trajectory(traj_path).frames[:2]
    assert payload["aligned_rmsd"] == align.aligned_rmsd(a, b)


def test_unknown_flag_exits_2(traj_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["align", traj_path, "--frame-a", "0", "--frame-b", "1", "--bogus"])
    assert excinfo.value.code == 2


def test_runtime_error_exits_1(capsys):
    code = main(["align", "/nonexistent/file.xyz", "--frame-a", "0", "--frame-b", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, values",
    [
        ("train", ["--sigma", "nan"]),
        ("train", ["--sigma", "inf"]),
        ("train", ["--sigma", "0.5", "--lr", "nan"]),
        ("train", ["--sigma", "0.5", "--lr", "inf"]),
        ("sample", ["--schedule", "inf,0"]),
        ("sample", ["--schedule", "nan,0"]),
        ("sample", ["--schedule", "1,nan,0"]),
        ("moment", ["--sigma", "nan", "--order", "1"]),
        ("moment", ["--sigma", "inf", "--order", "2"]),
        ("moment", ["--sigma", "nan"]),
        ("sweep", ["--sigmas", "0.1,nan"]),
        ("sweep", ["--sigmas", "0.1,inf"]),
        ("moment", ["--sigma", "0.5", "--tol", "nan"]),
        ("moment", ["--sigma", "0.5", "--tol", "inf"]),
        ("sweep", ["--sigmas", "0.1,0.2", "--tol", "nan"]),
        ("sweep", ["--sigmas", "0.1,0.2", "--tol", "inf"]),
    ],
)
def test_non_finite_parameters_exit_1(capsys, tmp_path, traj_path, command, values):
    model = tmp_path / "model.bin"
    save_denoiser(MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0)), model)
    rest, message = {
        "train": (["--input", traj_path, "--estimator", "order0", "--steps", "2",
                   "--out-metrics", str(tmp_path / "m.csv"), "--out-model", str(tmp_path / "t.bin")],
                  "finite"),
        "sample": (["--model", str(model), "--out", str(tmp_path / "s.xyz")], "finite"),
        "moment": (["--input", traj_path], "sigma must be positive and finite"),
        "sweep": (["--input", traj_path, "--n-noise", "2", "--seed", "0",
                   "--out", str(tmp_path / "w.csv")], "sigma must be positive and finite"),
    }[command]
    if "--tol" in values:
        message = "tol must be positive and finite"
    assert main([command, *values, *rest]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


@pytest.mark.parametrize(
    "argv, frame",
    [
        (["align", "{traj}", "--frame-a", "0", "--frame-b", "6"], 6),
        (["align", "{traj}", "--frame-a", "-1", "--frame-b", "0"], -1),
        (["moment", "--input", "{traj}", "--frame", "9", "--sigma", "0.1"], 9),
        (["sweep", "--input", "{traj}", "--frame", "-1", "--sigmas", "0.1", "--n-noise", "1", "--seed", "0",
          "--out", "{out}"], -1),
    ],
)
def test_frame_out_of_range_exits_1(capsys, tmp_path, traj_path, argv, frame):
    out = tmp_path / "w.csv"
    assert main([a.format(traj=traj_path, out=out) for a in argv]) == 1
    captured = capsys.readouterr()
    assert f"error: frame {frame} out of range (trajectory has 6)" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "values, message",
    [
        (["--sigma", "1e80", "--order", "2"], "1e+80**4 overflows a float"),
        (["--sigma", "1e160", "--order", "1"], "1e+160**2 overflows a float"),
        (["--sigma", "1e160"], "1e+160**2 overflows a float"),
    ],
)
def test_overflowing_sigma_exits_1(capsys, traj_path, values, message):
    assert main(["moment", "--input", traj_path, *values]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "scale, sigma, failing",
    [
        (1.0, "1e80", {"order2": "1e+80**4 overflows a float"}),
        (1e-3, "1e152", {"order1": "the order-1 moment at sigma=1e+152 is not finite",
                         "order2": "1e+152**4 overflows a float"}),
    ],
)
def test_moment_prints_valid_json_at_any_accepted_sigma(capsys, tmp_path, traj_path, scale, sigma,
                                                        failing):
    # under --order oracle an order whose power overflows or whose moment is not
    # finite reports null; asked for alone, that order exits 1 with a named error.
    # Either way numpy warns of nothing: a RuntimeWarning fails the test
    def reject(token):
        raise ValueError(f"not a JSON number: {token}")

    path = tmp_path / "frame.xyz"
    save_trajectory(Trajectory(scale * load_trajectory(traj_path).frames[:1], "frame"), path)
    code = main(["moment", "--input", str(path), "--sigma", sigma])
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0 and np.all(np.isfinite(payload["moment"]))
    errors = payload["per_order_max_abs_error"]
    assert {order for order, e in errors.items() if e is None} == set(failing)
    for order, message in failing.items():
        assert main(["moment", "--input", str(path), "--sigma", sigma, "--order", order[-1]]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def test_moment_oracle_with_non_finite_mean_exits_1(capsys, traj_path):
    # at sigma 1e-150 the concentration (~1e300) is finite, but its Bessel sums
    # underflow: the oracle fails instead of printing NaN tokens, which are not JSON
    code = main(["moment", "--input", traj_path, "--sigma", "1e-150"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "error: posterior mean is not finite" in captured.err


def _main_result(capsys, argv):
    """Exit code, stdout and stderr of one ``main`` call; usage errors exit via SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_matches_a_fresh_parser_call_by_call(capsys, tmp_path, traj_path):
    model = tmp_path / "model.bin"
    save_denoiser(MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0)), model)
    # at this sigma --tol 1e-12 prints other bytes than the default 1e-6 (1e-3 does not)
    moment = ["moment", "--input", traj_path, "--sigma", "0.003"]
    sample = ["sample", "--model", str(model), "--schedule", "1.0,0.5,0.1,0", "--seed", "4", "--out"]
    calls = [moment + ["--tol", "1e-12"], moment,
             ["align", traj_path, "--frame-a", "0", "--frame-b", "1", "--bogus"],
             sample + [str(tmp_path / "a.xyz")], sample + [str(tmp_path / "b.xyz")]]

    def run(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            results.append(_main_result(capsys, argv))
        return results, [(tmp_path / name).read_bytes() for name in ("a.xyz", "b.xyz")]

    cli._parser.cache_clear()
    shared = run(fresh=False)
    assert cli._parser.cache_info().misses == 1  # one parser served all five calls
    assert shared == run(fresh=True)
    (tol, default, usage, sample_a, sample_b), (xyz_a, xyz_b) = shared
    assert tol[1] != default[1]  # --tol reached the oracle, and the next call got its default
    assert usage[0] == 2 and "unrecognized arguments: --bogus" in usage[2]
    assert sample_a[0] == sample_b[0] == 0 and xyz_a == xyz_b


def _bench_workloads():
    """The benchmark's workload module, loaded from this checkout's bench/ by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def test_parser_accepts_every_argv_the_bench_passes(tmp_path):
    # the bench calls main with these argv; a flag the parser lost (sweep's --tol,
    # say) would exit 2 on every call and fail the whole bench run
    wl = _bench_workloads()
    sweep = wl.Sweep(1, tmp_path)
    argvs = {
        "sweep": sweep.argv(0, "t"),
        "train": wl.train_argv(tmp_path / "d.xyz", wl.TRAIN_STEPS, 1, tmp_path / "m.csv",
                               tmp_path / "m.bin"),
        "sample": wl.Sample(1, tmp_path).argv(0, "t"),
    }
    parsed = {command: cli._parser().parse_args(argv) for command, argv in argvs.items()}
    assert all(args.command == command for command, args in parsed.items())
    assert "--tol" in argvs["sweep"] and parsed["sweep"].tol == wl.SWEEP_TOL


def test_readme_command_line_examples_parse():
    # README's "Command line" block shows one call of every subcommand; a flag the parser
    # lost must leave the block too.  Continuation lines are joined and [...] groups dropped.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    parser = cli.build_parser()
    commands = [parser.parse_args(shlex.split(re.sub(r"\[[^\]]*\]", "", line))[1:]).command
                for line in block.replace("\\\n", " ").splitlines() if line.startswith("so3denoise ")]
    assert sorted(commands) == ["align", "moment", "sample", "selftest", "sweep", "train"]


def test_bench_reference_sweep_matches_its_recorded_csv(tmp_path):
    # the bench refuses a run whose reference sweep leaves bench/reference/sweep.csv
    # by more than its per-record tolerance; check the same thing here
    assert _bench_workloads().Sweep(1, tmp_path).check_reference() == []


def test_bench_sample_workload_passes_its_own_checks(tmp_path):
    # set-up trains the bench checkpoint and runs sample call 0; one more call with
    # call 0's seed must write the same bytes, as a finite, centered cloud
    wl = _bench_workloads()
    sample = wl.Sample(1, tmp_path)
    assert sample.setup() == []
    rc, stdout, _ = wl.run_cli(sample.argv(0, "t"))
    assert sample.check(0, "t", rc, stdout).problems == []


def test_bench_train_workload_passes_its_own_checks(tmp_path):
    # set-up writes the bench dataset and runs a 20-step warm-up; one timed-shape call
    # (300 steps) must complete and pass the bench's own train check
    wl = _bench_workloads()
    train_wl = wl.Train(1, tmp_path)
    assert train_wl.setup() == []
    rc, stdout, _ = wl.run_cli(train_wl.argv(0, "t"))
    assert train_wl.check(0, "t", rc, stdout).problems == []


def test_selftest_fast_passes(capsys):
    assert main(["selftest", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "ok   geom-roundtrips" in out
    assert "FAIL" not in out


def test_selftest_runs_every_check_at_full_size(capsys):
    assert main(["selftest"]) == 0
    names = ["geom-roundtrips", "kabsch-optimality",
             "alignment-commutation", "expansion-coefficients", "laplace-vs-quadrature",
             "oracle-symmetries", "mlp-gradients", "ddim-closed-forms", "averaging-offset"]
    assert capsys.readouterr().out.splitlines() == [f"ok   {n}" for n in names] + ["9/9 checks passed"]


def test_selftest_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    def raising(fast):
        raise ValueError("no such spectrum")

    checks = [("first", lambda fast: None), ("raises", raising), ("last", lambda fast: None)]
    monkeypatch.setattr(so3denoise.selftest, "_CHECKS", checks)
    assert main(["selftest", "--fast"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["ok   first", "FAIL raises: ValueError: no such spectrum", "ok   last",
                   "2/3 checks passed"]


def test_selftest_reports_a_failing_check_and_runs_the_rest(capsys, monkeypatch):
    def failing(fast):
        so3denoise.selftest._require(False, "c1 spot values")

    checks = [("first", lambda fast: None), ("fails", failing), ("last", lambda fast: None)]
    monkeypatch.setattr(so3denoise.selftest, "_CHECKS", checks)
    assert main(["selftest", "--fast"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["ok   first", "FAIL fails: c1 spot values", "ok   last", "2/3 checks passed"]


_NO_SCIPY_SCRIPT = """
import sys
import numpy as np
from so3denoise.cli import main
from so3denoise.diffusion import MlpDenoiser, save_denoiser
from so3denoise.quadrature import mf_mean_quadrature
from so3denoise.trajectory import save_trajectory, synth_trajectory

out_dir = sys.argv[1]
mf_mean_quadrature(np.diag([5.0, 3.0, 1.0]))
save_trajectory(synth_trajectory(8, 2, 0.1, seed=3), out_dir + "/t.xyz")
code = main(["sweep", "--input", out_dir + "/t.xyz", "--frame", "0", "--sigmas", "0.1",
             "--n-noise", "2", "--seed", "1", "--out", out_dir + "/s.csv"])
assert code == 0
assert main(["selftest", "--fast"]) == 0
assert "scipy" not in sys.modules, "scipy was imported"
"""


def _run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports so3denoise from this checkout."""
    src = str(Path(so3denoise.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          cwd=cwd)


def test_cli_oracle_and_sweep_do_not_import_scipy(tmp_path):
    # scipy is a test-only dependency; importing it would bloat every CLI run, and
    # selftest ships in the package
    proc = _run_python("-c", _NO_SCIPY_SCRIPT, str(tmp_path))
    assert proc.returncode == 0, proc.stderr


_NUMPY_ONLY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # every import of scipy, or of a scipy submodule, now raises
from so3denoise.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_the_cli_runs_on_numpy_alone(tmp_path):
    # the tests check _i0e and other kernels against scipy, which the package never needs
    xyz = str(tmp_path / "t.xyz")
    save_trajectory(synth_trajectory(8, 2, 0.1, seed=3), xyz)
    commands = [
        ["selftest", "--fast"],
        ["sweep", "--input", xyz, "--frame", "0", "--sigmas", "0.1", "--n-noise", "1", "--seed", "1",
         "--out", str(tmp_path / "s.csv")],
        ["train", "--input", xyz, "--sigma", "0.5", "--estimator", "order2", "--steps", "2", "--seed", "1",
         "--out-metrics", str(tmp_path / "m.csv"), "--out-model", str(tmp_path / "m.json")],
    ]
    for args in commands:
        proc = _run_python("-c", _NUMPY_ONLY_SCRIPT, *args)
        assert proc.returncode == 0, (args[0], proc.stderr)


_OPTIMIZED_SELFTEST_SCRIPT = """
import sys
import so3denoise.selftest as selftest

assert False, "python -O strips plain asserts"
c1 = selftest.c1
selftest.c1 = lambda s: c1(s) * 1.001  # a wrong expansion coefficient
selftest._CHECKS = [c for c in selftest._CHECKS if c[0] == "expansion-coefficients"]
sys.exit(selftest.run(fast=True))
"""


def test_selftest_fails_a_failing_check_under_python_O():
    proc = _run_python("-O", "-c", _OPTIMIZED_SELFTEST_SCRIPT)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == ["FAIL expansion-coefficients: c1 spot values",
                                        "0/1 checks passed"]


_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.stem for d in _DEMOS])
def test_demo_runs(tmp_path, demo):
    # in a scratch directory: demo 03 writes its sweep CSV to the working directory
    proc = _run_python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
