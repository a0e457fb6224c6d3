import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import so3denoise
import so3denoise.selftest
from so3denoise import cli
from so3denoise.cli import main
from so3denoise.diffusion import MlpDenoiser, save_denoiser
from so3denoise.geom import proper_svd
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


def test_train_and_sample_round_trip(capsys, tmp_path, traj_path):
    metrics = tmp_path / "metrics.csv"
    model = tmp_path / "model.bin"
    code, payload = run_json(
        capsys,
        ["train", "--input", traj_path, "--sigma", "0.5", "--estimator", "order0",
         "--steps", "20", "--mode", "single-frame", "--seed", "2",
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda h: h | {"n_points": 0, "hidden": 0}, "header 'n_points' must be a positive int, got 0"),
        (lambda h: h | {"hidden": -1}, "header 'hidden' must be a positive int, got -1"),
        (lambda h: {k: v for k, v in h.items() if k != "n_points"}, "header has no 'n_points'"),
        (lambda h: h | {"s_ref": float("nan")}, "header 's_ref' must be positive and finite, got nan"),
        (lambda h: [h], "header has no 'n_points'"),
    ],
    ids=["zero-sizes", "negative-hidden", "missing-n-points", "nan-s-ref", "not-an-object"],
)
def test_sample_from_an_invalid_checkpoint_header_exits_1(capsys, tmp_path, edit, message):
    model, out = tmp_path / "model.bin", tmp_path / "s.xyz"
    save_denoiser(MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0)), model)
    line, _, block = model.read_bytes().partition(b"\n")
    model.write_bytes(json.dumps(edit(json.loads(line))).encode() + b"\n" + block)
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
    save_trajectory(Trajectory(scale * load_trajectory(traj_path).frames[:1], "frame", scale), path)
    code = main(["moment", "--input", str(path), "--sigma", sigma])
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert code == 0 and np.all(np.isfinite(payload["moment"]))
    errors = payload["per_order_max_abs_error"]
    assert {order for order, e in errors.items() if e is None} == set(failing)
    for order, message in failing.items():
        assert main(["moment", "--input", str(path), "--sigma", sigma, "--order", order[-1]]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


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


def test_selftest_fast_passes(capsys):
    assert main(["selftest", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "ok   grid-moments" in out
    assert "FAIL" not in out


def test_selftest_runs_every_check_at_full_size(capsys):
    assert main(["selftest"]) == 0
    names = ["grid-moments", "geom-roundtrips", "kabsch-optimality",
             "alignment-commutation", "expansion-coefficients", "laplace-vs-quadrature",
             "oracle-symmetries", "mlp-gradients", "ddim-closed-forms", "averaging-offset"]
    assert capsys.readouterr().out.splitlines() == [f"ok   {n}" for n in names] + ["10/10 checks passed"]


def test_selftest_reports_a_raising_check_and_runs_the_rest(capsys, monkeypatch):
    def raising(fast):
        raise ValueError("no such spectrum")

    checks = [("first", lambda fast: None), ("raises", raising), ("last", lambda fast: None)]
    monkeypatch.setattr(so3denoise.selftest, "_CHECKS", checks)
    assert main(["selftest", "--fast"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["ok   first", "FAIL raises: ValueError: no such spectrum", "ok   last",
                   "2/3 checks passed"]


_NO_SCIPY_SCRIPT = """
import sys
import numpy as np
from so3denoise.cli import main
from so3denoise.diffusion import MlpDenoiser, save_denoiser
from so3denoise.fisher import MatrixFisher
from so3denoise.quadrature import mf_mean_quadrature
from so3denoise.trajectory import save_trajectory, synth_trajectory

out_dir = sys.argv[1]
mf_mean_quadrature(MatrixFisher(np.diag([5.0, 3.0, 1.0])))
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
