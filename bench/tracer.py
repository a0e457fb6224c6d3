"""Span tracer that wraps the public functions of each so3denoise layer.

The tracer lives entirely in the benchmark: it patches module attributes
while installed and restores them afterwards, so the program under test
carries no tracing code.  ``from .x import f`` copies the reference into
the importing module at import time, so every function is replaced under
every name any loaded ``so3denoise`` module binds it to, not only in the
module that defines it.

Each call of a wrapped function records one span: name, start, end,
parent span and the id of the CLI call it belongs to.  Spans stay in
memory (compact arrays) and are written out once, at the end of a run.
Self time is a span's duration minus the time covered by its direct
children.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import os
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "so3denoise"

# layer (module) -> public functions whose spans and self times are reported
LAYER_FUNCTIONS = {
    "geom": ("proper_svd", "sample_haar"),
    "align": ("kabsch", "aligned_rmsd", "rmsd"),
    "fisher": ("mf_mean_laplace",),
    "quadrature": ("oracle_conditional_denoiser",),
    "estimators": ("estimator_target", "error_sweep", "write_sweep_csv"),
    "diffusion": (
        "noise_sample",
        "loss_and_grad",
        "train",
        "mlp_forward",
        "ddim_sample",
        "load_denoiser",
        "save_denoiser",
        "write_metrics_csv",
    ),
    "trajectory": ("load_trajectory", "save_trajectory"),
    "cli": ("main",),
}

# Oracle cost regimes by sigma / scale of the call: the mode-centered grid
# (sigma <= 0.1 scale), the global grid on a sharp posterior (0.2-0.3) and
# the global grid on a diffuse one (>= 0.5).  The cut points sit between
# the benchmark's ladder rungs so rounding in the scale cannot move a rung.
RUNG_GROUPS = (("mode_centered", 0.15), ("global_sharp", 0.4), ("global_diffuse", float("inf")))

ORACLE = "quadrature.oracle_conditional_denoiser"


class TracerError(RuntimeError):
    """A function the tracer must wrap does not exist in the program."""


def rung_group(sigma_over_scale: float) -> str:
    for name, upper in RUNG_GROUPS:
        if sigma_over_scale <= upper:
            return name
    raise ValueError(f"no rung group for sigma/scale {sigma_over_scale}")


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _kabsch_hook(tracer, fn, args, kwargs, outcome, duration):
    if getattr(outcome, "degenerate", False):
        tracer.counters["align.kabsch.degenerate"] += 1


def _laplace_hook(tracer, fn, args, kwargs, outcome, duration):
    if isinstance(outcome, tracer.singular_error):
        tracer.counters["fisher.mf_mean_laplace.singular"] += 1


def _oracle_hook(tracer, fn, args, kwargs, outcome, duration):
    if isinstance(outcome, tracer.no_convergence_error):
        tracer.counters[f"{ORACLE}.no_convergence"] += 1
    bound = _arguments(fn, args, kwargs)
    x = np.asarray(bound["x"], dtype=float)
    scale = float(np.sqrt(np.mean(np.sum(x * x, axis=1))))
    tracer.oracle_ms[rung_group(bound["sigma"] / scale)].append(1e3 * duration)


def _loss_hook(tracer, fn, args, kwargs, outcome, duration):
    if isinstance(outcome, BaseException):
        return
    bound = _arguments(fn, args, kwargs)
    m = bound["m"]
    kept = len(bound["batch"]) - outcome.n_excluded
    d_in, d_out = 3 * m.n_points + 2, 3 * m.n_points
    # matmul flops only: forward (x W1, h W2) and backward (dW2, dh, dW1)
    tracer.counters["diffusion.loss_and_grad.flops_computed"] += (
        2 * kept * m.hidden * (2 * d_in + 3 * d_out)
    )


def _save_trajectory_hook(tracer, fn, args, kwargs, outcome, duration):
    if isinstance(outcome, BaseException):
        return
    tracer.counters["trajectory.save_trajectory.bytes"] += os.path.getsize(
        _arguments(fn, args, kwargs)["path"]
    )


HOOKS = {
    "align.kabsch": _kabsch_hook,
    "fisher.mf_mean_laplace": _laplace_hook,
    ORACLE: _oracle_hook,
    "diffusion.loss_and_grad": _loss_hook,
    "trajectory.save_trajectory": _save_trajectory_hook,
}

COUNTERS = {
    "align.kabsch.degenerate": "count",
    "fisher.mf_mean_laplace.singular": "count",
    f"{ORACLE}.no_convergence": "count",
    "diffusion.loss_and_grad.flops_computed": "flop",
    "trajectory.save_trajectory.bytes": "B",
}


class Tracer:
    """Wraps the layer functions while installed; use as a context manager.

    Construction resolves every target and raises :class:`TracerError`
    naming the first one that no longer exists, so a renamed function can
    never silently drop out of the per-layer report.
    """

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYER_FUNCTIONS):
        from so3denoise.fisher import ExpansionSingularError
        from so3denoise.quadrature import NoConvergenceError

        self.singular_error, self.no_convergence_error = ExpansionSingularError, NoConvergenceError
        self._originals: dict[int, tuple[str, object]] = {}
        for layer, names in layers.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    raise TracerError(f"{PACKAGE}.{layer}.{name} does not exist")
                self._originals[id(fn)] = (f"{layer}.{name}", fn)
        self.names = [name for name, _ in self._originals.values()]
        self._stats = [[0, 0.0] for _ in self.names]  # calls, self seconds
        self.counters = {name: 0 for name in COUNTERS}
        self.oracle_ms = {name: [] for name, _ in RUNG_GROUPS}
        self.call_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._span_ids = itertools.count()
        # (id, parent id, name index, call id, start, end) per span, flat
        self._spans = array("d")
        self._wrappers = {
            key: self._wrap(index, fn)
            for index, (key, (_, fn)) in enumerate(self._originals.items())
        }

    def _wrap(self, index, fn):
        hook = HOOKS.get(self.names[index])
        stat = self._stats[index]
        stack = self._stack
        next_id = self._span_ids.__next__
        record = self._spans.extend

        def wrapper(*args, **kwargs):
            span = next_id()
            parent = stack[-1] if stack else None
            frame = [span, 0.0]  # span id, time covered by direct children
            stack.append(frame)
            outcome = None
            start = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stat[0] += 1
                stat[1] += duration - frame[1]
                record((span, parent[0] if parent is not None else -1, index, self.call_id, start, end))
                if hook is not None:
                    hook(self, fn, args, kwargs, outcome, duration)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", self.names[index])
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                # the originals are held alive, so an id match is an identity match
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and self time of every wrapped function,
        the counters, and oracle latency percentiles per rung group.
        Functions never called report 0, never a missing key."""
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, self_s) in zip(self.names, self._stats):
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counters[name], unit)
        for group, values in self.oracle_ms.items():
            p50, p90 = np.percentile(values, [50, 90]) if values else (0.0, 0.0)
            out[f"{ORACLE}.{group}.p50_ms"] = (float(p50), "ms")
            out[f"{ORACLE}.{group}.p90_ms"] = (float(p90), "ms")
        return out

    def write_spans(self, path) -> None:
        """Write every span as one JSON object per line, in the order spans
        ended, gzip-compressed."""
        spans = self._spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for k in range(0, len(spans), 6):
                span, parent, index, call, start, end = spans[k : k + 6]
                fh.write(
                    f'{{"id": {int(span)}, "name": "{self.names[int(index)]}", '
                    f'"parent": {int(parent)}, "call": {int(call)}, '
                    f'"start": {start!r}, "end": {end!r}}}\n'
                )
