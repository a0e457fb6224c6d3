"""Tests of the benchmark's tracer.  Run from the root of a checkout:

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import so3denoise.align  # noqa: E402
import so3denoise.geom  # noqa: E402
from tracer import LAYER_FUNCTIONS, Tracer, TracerError  # noqa: E402
from workloads import make_frames, run_cli, write_xyz  # noqa: E402

import numpy as np  # noqa: E402


def test_missing_function_is_a_hard_error_naming_it():
    layers = {**LAYER_FUNCTIONS, "geom": ("proper_svd", "no_such_function")}
    with pytest.raises(TracerError, match=r"so3denoise\.geom\.no_such_function"):
        Tracer(layers)


def test_uncalled_function_reports_zero_calls():
    tracer = Tracer()
    x = make_frames(np.random.default_rng(0), 8, 1, 0.0)[0]
    with tracer:
        so3denoise.align.kabsch(x, x)
    metrics = tracer.metrics()
    assert metrics["align.kabsch.calls"][0] == 1
    assert metrics["geom.proper_svd.calls"][0] == 1  # reached through align's binding
    assert metrics["quadrature.oracle_conditional_denoiser.calls"][0] == 0
    assert metrics["quadrature.oracle_conditional_denoiser.self_s"][0] == 0.0
    assert metrics["quadrature.oracle_conditional_denoiser.global_sharp.p90_ms"][0] == 0.0


def test_uninstall_restores_every_binding():
    original = so3denoise.geom.proper_svd
    with Tracer():
        assert so3denoise.align.proper_svd is not original
    assert so3denoise.align.proper_svd is original
    assert so3denoise.geom.proper_svd is original


def _run_all(tmp: Path, traced: bool) -> dict[str, bytes]:
    """A small sweep, train and sample through the CLI; returns every output."""
    data = tmp / "data.xyz"
    write_xyz(data, make_frames(np.random.default_rng(5), 8, 4, 0.05), "data")
    calls = [
        ["sweep", "--input", str(data), "--sigmas", "0.5,1.0", "--n-noise", "2",
         "--seed", "3", "--out", str(tmp / "sweep.csv")],
        ["train", "--input", str(data), "--sigma", "0.5", "--estimator", "order2",
         "--steps", "5", "--seed", "3", "--out-metrics", str(tmp / "metrics.csv"),
         "--out-model", str(tmp / "model.bin")],
        ["sample", "--model", str(tmp / "model.bin"), "--schedule", "1.0,0.5,0.1,0",
         "--seed", "3", "--out", str(tmp / "sample.xyz")],
    ]
    tracer = Tracer()
    for argv in calls:
        if traced:
            with tracer:
                rc, _, _ = run_cli(argv)
        else:
            rc, _, _ = run_cli(argv)
        assert rc == 0, argv
    if traced:
        assert tracer.metrics()["cli.main.calls"][0] == len(calls)
    return {name: (tmp / name).read_bytes()
            for name in ("sweep.csv", "metrics.csv", "model.bin", "sample.xyz")}


def test_traced_and_untraced_outputs_are_byte_identical(tmp_path):
    (tmp_path / "u").mkdir()
    (tmp_path / "t").mkdir()
    untraced = _run_all(tmp_path / "u", traced=False)
    traced = _run_all(tmp_path / "t", traced=True)
    for name, data in untraced.items():
        assert traced[name] == data, name
