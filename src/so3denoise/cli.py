"""Command-line interface tying the library into reproducible experiments.

Subcommands: align, moment, sweep, train, sample, selftest.  Scalar and
matrix results print as JSON on stdout; tabular series go to CSV files.
Every randomized subcommand is reproducible from its --seed alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import selftest as _selftest
from .align import _cross_svd, aligned_rmsd, kabsch, rmsd
from .diffusion import (DdimSchedule, TrainConfig, _walk_denoiser, ddim_sample, load_denoiser,
                        save_denoiser, train, write_metrics_csv)
from .estimators import EstimatorKind, error_sweep, sweep_aug_anomalies, write_sweep_csv
from .fisher import _expansion
from .geom import _count, _positive
from .quadrature import _oracle_mean
from .trajectory import Trajectory, load_trajectory, save_trajectory


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _json_number(v: float) -> float | None:
    """``v``, or None for inf and NaN, which JSON has no number for."""
    return v if np.isfinite(v) else None


def _frame(traj, idx: int) -> np.ndarray:
    if not 0 <= idx < traj.n_frames:
        raise ValueError(f"frame {idx} out of range (trajectory has {traj.n_frames})")
    return traj.frames[idx]


def _cmd_align(args) -> int:
    traj = load_trajectory(args.trajectory)
    a = _frame(traj, args.frame_a)
    b = _frame(traj, args.frame_b)
    result = kabsch(a, b)
    _emit({"rotation": result.rotation.tolist(), "rmsd": rmsd(a, b),
           "aligned_rmsd": aligned_rmsd(a, b), "degenerate": result.degenerate})
    return 0


def _cmd_moment(args) -> int:
    traj = load_trajectory(args.input)
    x = _frame(traj, args.frame)
    _positive(args.sigma, "sigma")
    svd = _cross_svd(x, x)  # the posterior for observing the frame itself, factored once
    if args.order == "oracle":
        moment, _ = _oracle_mean(svd, args.sigma, args.tol)
        errors = {}
        for order in (0, 1, 2):
            # sigma and tol passed the oracle call, so a ValueError (a singular
            # spectrum, an overflowing power) means only that this order has no value;
            # so does an overflow inside the series, which reports null
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    error = float(np.max(np.abs(_expansion(svd, args.sigma, order)[0] - moment)))
            except ValueError:
                error = float("nan")
            errors[f"order{order}"] = _json_number(error)
        _emit({"sigma": args.sigma, "order": "oracle", "moment": moment.tolist(),
               "per_order_max_abs_error": errors})
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
            moment, _ = _expansion(svd, args.sigma, int(args.order))
        if not np.all(np.isfinite(moment)):
            raise ValueError(f"the order-{args.order} moment at sigma={args.sigma:g} is not finite")
        _emit({"sigma": args.sigma, "order": int(args.order), "moment": moment.tolist()})
    return 0


def _cmd_sweep(args) -> int:
    traj = load_trajectory(args.input)
    x = _frame(traj, args.frame)
    sigmas = [float(s) for s in args.sigmas.split(",") if s.strip()]
    records = error_sweep(x, sigmas, args.n_noise, args.seed, tol=args.tol)
    write_sweep_csv(records, args.out)
    _emit({"out": args.out, "records": len(records), "aug_anomalies": sweep_aug_anomalies(records)})
    return 0


def _cmd_train(args) -> int:
    traj = load_trajectory(args.input)
    # options not given are absent from ``args``, so TrainConfig's defaults fill them in
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    cfg = TrainConfig(**{name: value for name, value in vars(args).items() if name in fields})
    result = train(cfg, traj.frames)
    write_metrics_csv(result.metrics, args.out_metrics)
    save_denoiser(result.model, args.out_model, config=cfg)
    last = result.metrics[-1]
    final = {"step": last.step, "loss": _json_number(last.loss), "rmsd": _json_number(last.rmsd),
             "aligned_rmsd": _json_number(last.aligned_rmsd)}
    _emit({"status": result.status, "diverged_at": result.diverged_at, "steps_recorded": len(result.metrics),
           "final": final, "out_metrics": args.out_metrics, "out_model": args.out_model})
    return 0


def _cmd_sample(args) -> int:
    model, _header = load_denoiser(args.model)
    sigmas = tuple(float(s) for s in args.schedule.split(",") if s.strip())
    schedule = DdimSchedule(sigmas)
    rng = np.random.default_rng(_count(args.seed, "seed", 0))
    # a diverged checkpoint overflows in the walk; the finiteness check below names it
    with np.errstate(over="ignore", invalid="ignore"):
        cloud = ddim_sample(_walk_denoiser(model), schedule, model.n_points, rng)
    if not np.isfinite(cloud).all():
        raise ValueError(f"sampling from {args.model} gave non-finite coordinates (a diverged model?)")
    save_trajectory(Trajectory(cloud[None], "sampled"), args.out)
    _emit({"out": args.out, "n_points": model.n_points, "schedule": list(sigmas)})
    return 0


def _cmd_selftest(args) -> int:
    return _selftest.run(fast=args.fast)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="so3denoise",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="Kabsch-align two trajectory frames")
    p.add_argument("trajectory")
    p.add_argument("--frame-a", type=int, required=True)
    p.add_argument("--frame-b", type=int, required=True)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser(
        "moment",
        help="rotation-posterior first moment for observing a frame of itself at noise sigma",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--order", choices=["0", "1", "2", "oracle"], default="oracle")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("sweep", help="estimator-vs-oracle MSE sweep over noise levels")
    p.add_argument("--input", required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--sigmas", required=True, help="comma-separated ascending noise levels")
    p.add_argument("--n-noise", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("train", help="train the MLP denoiser against an estimator target",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--estimator", choices=[k.value for k in EstimatorKind], required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--hidden", type=int)
    p.add_argument("--out-metrics", required=True)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sample", help="DDIM-sample a point cloud from a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--schedule", required=True, help="comma-separated descending sigmas ending in 0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("selftest", help="run the invariant suites; exit 0 iff all pass")
    p.add_argument("--fast", action="store_true", help="reduced sample counts")
    p.set_defaults(func=_cmd_selftest)

    return parser


# Parsing never changes a parser (each parse fills a fresh Namespace), so one
# built parser serves every call in a process.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one CLI command and return its exit code.

    The parser is built on the first call and shared by later calls in the
    same process.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime errors: message + exit 1, usage errors exit 2 via argparse
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
