"""Every count, seed, positive level and point cloud is checked by ``geom._count``,
``geom._positive`` or ``geom._cloud``.

One table: each row is a call with one bad argument and the exact error
it must raise, which names the argument in one of four forms:

* ``TypeError: <name> must be an integer, got <value>``
* ``ValueError: <name> must be >= <least>, got <value>``
* ``ValueError: <name> must be positive and finite, got <value>``
* ``ValueError: <name> must be finite coordinates of shape <shape>, got <what>``

The cloud form covers ``error_sweep``'s ``x`` (shape ``(N >= 1, 3)``), ``train``'s
``dataset`` and ``save_trajectory``'s ``frames`` (both ``(F >= 1, N >= 1, 3)``).
``<what>`` is ``shape <shape>`` or the first non-finite coordinate and its index,
``nan at (3, 1)``; each of the three callers gets the same bad clouds.

A CLI row runs ``main`` in-process and expects exit status 1, no stdout
and ``error: <message>`` on stderr.
"""

import contextlib
import io
import re

import numpy as np
import pytest

from so3denoise.cli import main
from so3denoise.diffusion import (DdimSchedule, MlpDenoiser, TrainConfig, ddim_sample, mlp_forward, noise_sample,
                                  save_denoiser)
from so3denoise.estimators import EstimatorKind, error_sweep, estimator_target
from so3denoise.fisher import mf_mean_laplace
from so3denoise.geom import sample_haar
from so3denoise.quadrature import mf_mean_quadrature, oracle_conditional_denoiser
from so3denoise.diffusion import train
from so3denoise.trajectory import Trajectory, save_trajectory, synth_trajectory
from so3_reference import so3_grid_global

_X = synth_trajectory(8, 1, 0.0, seed=11).frames[0]


def _with_point(value: float) -> np.ndarray:
    """``_X`` with one coordinate set to ``value``."""
    x = _X.copy()
    x[3, 1] = value
    return x


class _CliError(Exception):
    """The message a CLI call printed on stderr before exiting 1."""


def _cli(tmp_path, *argv):
    data, model = tmp_path / "t.xyz", tmp_path / "m.bin"
    save_trajectory(synth_trajectory(8, 4, 0.1, seed=3), data)
    save_denoiser(MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0)), model)
    out, err = io.StringIO(), io.StringIO()
    argv = [str({"{data}": data, "{model}": model, "{out}": tmp_path / "o"}.get(a, a)) for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 1 and out.getvalue() == ""
    assert not (tmp_path / "o").exists()
    raise _CliError(err.getvalue().removeprefix("error: ").removesuffix("\n"))


def _config(**kw):
    return TrainConfig(**{"sigma": 0.5, "estimator": "order0", "steps": 1} | kw)


def _model():
    return MlpDenoiser.initialize(8, 4, 1.0, np.random.default_rng(0))


def _ddim(n_points):
    return ddim_sample(lambda y, s: y, DdimSchedule((1.0, 0.0)), n_points, np.random.default_rng(0))


_TRAIN = ["train", "--input", "{data}", "--sigma", "0.5", "--estimator", "order0", "--steps", "1",
          "--out-metrics", "{out}", "--out-model", "{out}"]

# the same bad clouds for each caller, (id, value, what the message says it got) for a caller
# of one cloud and then for one of a stack: a point, an empty cloud, a planar one, the wrong
# number of axes, a NaN and an inf
_BAD_CLOUDS = [
    (("point", np.zeros(3), "shape (3,)"), ("point", np.zeros(3), "shape (3,)")),
    (("empty", np.zeros((0, 3)), "shape (0, 3)"), ("empty", np.zeros((2, 0, 3)), "shape (2, 0, 3)")),
    (("planar", np.zeros((8, 2)), "shape (8, 2)"), ("planar", np.zeros((1, 8, 2)), "shape (1, 8, 2)")),
    (("stack", np.stack([_X, _X]), "shape (2, 8, 3)"), ("cloud", _X, "shape (8, 3)")),
    (("nan", _with_point(np.nan), "nan at (3, 1)"), ("nan", _with_point(np.nan)[None], "nan at (0, 3, 1)")),
    (("inf", _with_point(np.inf), "inf at (3, 1)"), ("inf", _with_point(np.inf)[None], "inf at (0, 3, 1)")),
]
_STACK = "(F >= 1, N >= 1, 3)"
_CLOUD_ROWS = [
    *((f"error_sweep-x-{row}", lambda t, x=x: error_sweep(x, [0.1], 1, 0), ValueError,
       f"x must be finite coordinates of shape (N >= 1, 3), got {got}") for (row, x, got), _ in _BAD_CLOUDS),
    *((f"train-dataset-{row}", lambda t, v=v: train(_config(), v), ValueError,
       f"dataset must be finite coordinates of shape {_STACK}, got {got}") for _, (row, v, got) in _BAD_CLOUDS),
    *((f"save_trajectory-frames-{row}", lambda t, v=v: save_trajectory(Trajectory(v, "t"), t / "o"), ValueError,
       f"frames must be finite coordinates of shape {_STACK}, got {got}") for _, (row, v, got) in _BAD_CLOUDS),
]

# (id, call on tmp_path, error, message)
_ROWS = [
    *_CLOUD_ROWS,
    ("TrainConfig-steps", lambda t: _config(steps=-1), ValueError, "steps must be >= 0, got -1"),
    ("TrainConfig-steps-float", lambda t: _config(steps=2.5), TypeError, "steps must be an integer, got 2.5"),
    ("TrainConfig-batch", lambda t: _config(batch=0), ValueError, "batch must be >= 1, got 0"),
    ("TrainConfig-hidden", lambda t: _config(hidden=np.int64(0)), ValueError, "hidden must be >= 1, got 0"),
    ("TrainConfig-seed", lambda t: _config(seed=-1), ValueError, "seed must be >= 0, got -1"),
    ("TrainConfig-seed-none", lambda t: _config(seed=None), TypeError, "seed must be an integer, got None"),
    ("TrainConfig-seed-float", lambda t: _config(seed=1.0), TypeError, "seed must be an integer, got 1.0"),
    ("TrainConfig-sigma", lambda t: _config(sigma=0.0), ValueError, "sigma must be positive and finite, got 0.0"),
    ("TrainConfig-sigma-nan", lambda t: _config(sigma=np.nan), ValueError,
     "sigma must be positive and finite, got nan"),
    ("TrainConfig-lr", lambda t: _config(lr=-1e-3), ValueError, "lr must be positive and finite, got -0.001"),
    ("TrainConfig-lr-inf", lambda t: _config(lr=np.inf), ValueError, "lr must be positive and finite, got inf"),
    ("MlpDenoiser-n_points", lambda t: MlpDenoiser(np.zeros(228), 4, 8.0, 1.0), TypeError,
     "n_points must be an integer, got 8.0"),
    ("MlpDenoiser-hidden", lambda t: MlpDenoiser(np.zeros(48), 0, 8, 1.0), ValueError,
     "hidden must be >= 1, got 0"),
    *((f"MlpDenoiser-s_ref-{s_ref}", lambda t, s_ref=s_ref: MlpDenoiser(np.zeros(228), 4, 8, s_ref), ValueError,
       f"s_ref must be positive and finite, got {s_ref}") for s_ref in (0.0, -1.0, np.nan, np.inf)),
    ("MlpDenoiser.initialize-n_points", lambda t: MlpDenoiser.initialize(0, 4, 1.0, np.random.default_rng(0)),
     ValueError, "n_points must be >= 1, got 0"),
    ("MlpDenoiser.initialize-hidden", lambda t: MlpDenoiser.initialize(8, -1, 1.0, np.random.default_rng(0)),
     ValueError, "hidden must be >= 1, got -1"),
    ("MlpDenoiser.initialize-hidden-float",
     lambda t: MlpDenoiser.initialize(8, 2.5, 1.0, np.random.default_rng(0)), TypeError,
     "hidden must be an integer, got 2.5"),
    ("error_sweep-n_noise", lambda t: error_sweep(_X, [0.1], 0, 0), ValueError, "n_noise must be >= 1, got 0"),
    ("error_sweep-seed", lambda t: error_sweep(_X, [0.1], 1, -1), ValueError, "seed must be >= 0, got -1"),
    ("error_sweep-seed-float", lambda t: error_sweep(_X, [0.1], 1, 0.5), TypeError,
     "seed must be an integer, got 0.5"),
    ("error_sweep-sigmas", lambda t: error_sweep(_X, [0.1, -0.2], 1, 0), ValueError,
     "sigma must be positive and finite, got [0.1, -0.2]"),
    ("error_sweep-tol", lambda t: error_sweep(_X, [0.1], 1, 0, tol=0.0), ValueError,
     "tol must be positive and finite, got 0.0"),
    ("mf_mean_quadrature-tol", lambda t: mf_mean_quadrature(np.eye(3), tol=np.nan), ValueError,
     "tol must be positive and finite, got nan"),
    ("synth_trajectory-n_points", lambda t: synth_trajectory(3, 5, 0.0, seed=2), ValueError,
     "n_points must be >= 4, got 3"),
    ("synth_trajectory-n_frames", lambda t: synth_trajectory(8, 0, 0.0, seed=2), ValueError,
     "n_frames must be >= 1, got 0"),
    ("synth_trajectory-seed", lambda t: synth_trajectory(8, 3, 0.1, seed=None), TypeError,
     "seed must be an integer, got None"),
    ("sample_haar-size", lambda t: sample_haar(np.random.default_rng(0), -1), ValueError,
     "size must be >= 0, got -1"),
    ("ddim_sample-n_points", lambda t: _ddim(0), ValueError, "n_points must be >= 1, got 0"),
    ("ddim_sample-n_points-negative", lambda t: _ddim(-1), ValueError, "n_points must be >= 1, got -1"),
    ("ddim_sample-n_points-float", lambda t: _ddim(2.5), TypeError, "n_points must be an integer, got 2.5"),
    ("so3_grid_global-float", lambda t: so3_grid_global(3.5), TypeError, "n must be an integer, got 3.5"),
    ("so3_grid_global-n", lambda t: so3_grid_global(1), ValueError, "n must be >= 2, got 1"),
    ("estimator_target-sigma", lambda t: estimator_target(EstimatorKind.ORDER0, _X, _X, 0.0), ValueError,
     "sigma must be positive and finite, got 0.0"),
    ("estimator_target-sigma-shape",
     lambda t: estimator_target(EstimatorKind.ORDER1, np.stack([_X, _X]), np.stack([_X, _X]), np.ones(3)),
     ValueError, "sigma of shape (3,) does not match the stack's (2,)"),
    ("mf_mean_laplace-sigma", lambda t: mf_mean_laplace(np.eye(3), np.nan, 1), ValueError,
     "sigma must be positive and finite, got nan"),
    ("oracle_conditional_denoiser-sigma", lambda t: oracle_conditional_denoiser(_X, _X, -1.0), ValueError,
     "sigma must be positive and finite, got -1.0"),
    ("mlp_forward-sigma", lambda t: mlp_forward(_model(), _X, np.inf), ValueError,
     "sigma must be positive and finite, got inf"),
    ("noise_sample-sigma", lambda t: noise_sample(_X, 0.0, np.random.default_rng(0)), ValueError,
     "sigma must be positive and finite, got 0.0"),
    ("cli-moment-sigma", lambda t: _cli(t, "moment", "--input", "{data}", "--sigma", "0"), _CliError,
     "sigma must be positive and finite, got 0.0"),
    ("cli-train-seed", lambda t: _cli(t, *_TRAIN, "--seed", "-1"), _CliError, "seed must be >= 0, got -1"),
    ("cli-train-steps", lambda t: _cli(t, *_TRAIN, "--steps", "-2"), _CliError, "steps must be >= 0, got -2"),
    ("cli-sample-seed", lambda t: _cli(t, "sample", "--model", "{model}", "--schedule", "1,0", "--seed", "-1",
                                       "--out", "{out}"), _CliError, "seed must be >= 0, got -1"),
    ("cli-sweep-seed", lambda t: _cli(t, "sweep", "--input", "{data}", "--sigmas", "0.1", "--n-noise", "1",
                                      "--seed", "-1", "--out", "{out}"), _CliError, "seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("call, error, message", [row[1:] for row in _ROWS], ids=[row[0] for row in _ROWS])
def test_a_bad_argument_raises_an_error_naming_it(tmp_path, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(tmp_path)


def test_numpy_scalars_are_stored_as_plain_numbers():
    cfg = _config(sigma=np.float32(0.5), lr=np.float64(1e-3), seed=np.int64(1), steps=np.uint8(1))
    assert [type(getattr(cfg, f)) for f in ("sigma", "lr", "seed", "steps")] == [float, float, int, int]
    model = MlpDenoiser(_model().theta, np.int64(4), np.int64(8), np.float32(1.0))
    assert [type(v) for v in (model.hidden, model.n_points, model.s_ref)] == [int, int, float]
