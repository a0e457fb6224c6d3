"""The benchmark's three workloads: inputs, CLI calls and output checks.

Every workload is a closed loop with one client: the next CLI call is
made only after the previous one returned.  Inputs come from the run
seed through the benchmark's own generator, so a change to the
program's ``synth_trajectory`` cannot change what is measured; the
program sees only the XYZ files written here and its CLI arguments.

Units: ``ops`` is the work counted by ``ops_per_s`` (one scored draw on
sweep, one optimizer step on train, one cloud written on sample).
``attempted``/``failed`` are the units ``fail_frac`` is defined over:
estimator scorings on sweep (four per draw), training samples on train,
calls on sample.  A failed call fails every unit it attempted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
SWEEP_REFERENCE = BENCH_DIR / "reference" / "sweep.csv"

# Clouds are normalized to unit RMS point norm, so scale = 1 and every
# sigma below is already sigma / scale.
SWEEP_POINTS = 8
SWEEP_LADDER = (0.01, 0.1, 0.2, 0.3, 0.5, 1.0)
SWEEP_DRAWS = 1  # per rung per call; many small calls average over clouds
SWEEP_TOL = 1e-6
SWEEP_POOL = 128  # distinct clouds per run, cycled
SWEEP_KINDS = ("aug", "order0", "order1", "order2")
HIERARCHY_MAX_SIGMA = 0.3  # order2 <= order1 <= order0 is checked up to here (C04 range)
REFERENCE_SEED = 20251003  # fixed cloud and sweep seed of the stored reference records

TRAIN_FRAMES, TRAIN_POINTS, TRAIN_JITTER = 64, 8, 0.05
TRAIN_SIGMA = 0.5
TRAIN_STEPS, TRAIN_BATCH, TRAIN_HIDDEN = 300, 32, 64
TRAIN_WARMUP_STEPS = 20

SAMPLE_SCHEDULE = ",".join(f"{s:.6g}" for s in np.geomspace(1.0, 0.01, 50)) + ",0"


@dataclass
class Outcome:
    """What one CLI call did and whether its outputs passed the checks."""

    ops: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    final_aligned_rmsd: float | None = None


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Call ``so3denoise.cli.main`` in-process: exit code, captured stdout, seconds.

    ``main`` is looked up on every call so that a tracer installed around
    the call sees its patched version.
    """
    from so3denoise import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = perf_counter() - start
    return rc, buf.getvalue(), seconds


def call_seed(seed: int, i: int) -> int:
    return int(np.random.default_rng([seed, i]).integers(2**31))


def make_frames(rng: np.random.Generator, n_points: int, n_frames: int, jitter: float):
    """Centered unit-RMS base cloud, then jittered and re-centered copies."""
    base = rng.standard_normal((n_points, 3))
    base -= base.mean(axis=0)
    base /= math.sqrt(np.mean(np.sum(base * base, axis=1)))
    frames = [base]
    for _ in range(1, n_frames):
        frame = base + jitter * rng.standard_normal(base.shape)
        frames.append(frame - frame.mean(axis=0))
    return np.stack(frames)


def write_xyz(path: Path, frames: np.ndarray, name: str) -> None:
    with open(path, "w", newline="\n") as fh:
        for k, frame in enumerate(frames):
            fh.write(f"{len(frame)}\n{name} frame {k}\n")
            for p in frame:
                fh.write(f"P {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")


def read_xyz_frame(path: Path) -> np.ndarray:
    """Parse a single-frame XYZ file; raises ValueError when malformed."""
    lines = Path(path).read_text().splitlines()
    n = int(lines[0])
    if len(lines) != n + 2:
        raise ValueError(f"{path}: {len(lines)} lines for {n} points")
    rows = []
    for line in lines[2:]:
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}: bad row {line!r}")
        rows.append([float(v) for v in parts[1:]])
    return np.array(rows)


def read_csv_rows(path: Path, header: list[str]) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != header:
            raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
        return list(reader)


class Workload:
    """One workload: ``setup`` writes inputs and runs the warm-up checks,
    ``argv`` gives CLI call ``i``, ``check`` scores what it wrote."""

    name = ""
    setup_rmsd: float | None = None  # final probe aligned RMSD of a model trained in set-up

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def path(self, stem: str, tag: str) -> Path:
        return self.workdir / f"{stem}-{tag}"

    def setup(self) -> list[str]:
        raise NotImplementedError

    def argv(self, i: int, tag: str) -> list[str]:
        raise NotImplementedError

    def outputs(self, tag: str) -> list[Path]:
        raise NotImplementedError

    def check(self, i: int, tag: str, rc: int, stdout: str) -> Outcome:
        raise NotImplementedError


SWEEP_HEADER = ["sigma", "kind", "mean_mse", "stderr", "n_samples", "n_excluded", "seed"]


def sweep_tolerance(reference_mse: float, x: np.ndarray, tol: float) -> float:
    """How far a record's mean MSE may sit from the reference at oracle tolerance ``tol``.

    Two oracles that each meet ``tol`` per entry of E[R] (up to a factor 10
    for the adaptive stopping rule) give targets ``x E^T`` at most
    ``delta = 2 * 10 * 3 * tol * |x|_F`` apart; the squared error to a
    fixed estimator target then moves by at most ``2 sqrt(mse) delta + delta^2``.
    """
    delta = 60.0 * tol * float(np.linalg.norm(x))
    return 2.0 * math.sqrt(max(reference_mse, 0.0)) * delta + delta * delta


class Sweep(Workload):
    name = "sweep"

    def cloud_path(self, k: int) -> Path:
        return self.workdir / f"cloud-{k:03d}.xyz"

    def setup(self) -> list[str]:
        for k in range(SWEEP_POOL):
            frames = make_frames(np.random.default_rng([self.seed, k]), SWEEP_POINTS, 1, 0.0)
            write_xyz(self.cloud_path(k), frames, "cloud")
        return self.check_reference()

    def sweep_argv(self, cloud: Path, seed: int, out: Path) -> list[str]:
        return [
            "sweep", "--input", str(cloud), "--frame", "0",
            "--sigmas", ",".join(repr(s) for s in SWEEP_LADDER),
            "--n-noise", str(SWEEP_DRAWS), "--seed", str(seed),
            "--out", str(out), "--tol", repr(SWEEP_TOL),
        ]

    def reference_run(self) -> Path:
        """Run the reference sweep and return its CSV (also how the reference was made)."""
        cloud = self.workdir / "reference.xyz"
        frames = make_frames(np.random.default_rng(REFERENCE_SEED), SWEEP_POINTS, 1, 0.0)
        write_xyz(cloud, frames, "reference")
        out = self.path("sweep", "reference.csv")
        rc, _, _ = run_cli(self.sweep_argv(cloud, REFERENCE_SEED, out))
        if rc != 0:
            raise RuntimeError(f"reference sweep exited {rc}")
        return out

    def check_reference(self) -> list[str]:
        try:
            out = self.reference_run()
            got = read_csv_rows(out, SWEEP_HEADER)
        except (RuntimeError, OSError, ValueError) as exc:
            return [f"reference sweep: {exc}"]
        want = read_csv_rows(SWEEP_REFERENCE, SWEEP_HEADER)
        x = make_frames(np.random.default_rng(REFERENCE_SEED), SWEEP_POINTS, 1, 0.0)[0]
        if len(got) != len(want):
            return [f"reference sweep: {len(got)} records, expected {len(want)}"]
        problems = []
        for g, w in zip(got, want):
            exact = ("sigma", "kind", "n_samples", "n_excluded", "seed")
            if any(g[k] != w[k] for k in exact):
                problems.append(f"reference sweep: record {g} does not match {w}")
                continue
            ref = float(w["mean_mse"])
            if not abs(float(g["mean_mse"]) - ref) <= sweep_tolerance(ref, x, SWEEP_TOL):
                problems.append(
                    f"reference sweep: sigma={g['sigma']} {g['kind']} mean_mse "
                    f"{g['mean_mse']} vs reference {w['mean_mse']}"
                )
        return problems

    def argv(self, i: int, tag: str) -> list[str]:
        cloud = self.cloud_path(i % SWEEP_POOL)
        return self.sweep_argv(cloud, call_seed(self.seed, i), self.path("sweep", f"{tag}.csv"))

    def outputs(self, tag: str) -> list[Path]:
        return [self.path("sweep", f"{tag}.csv")]

    def check(self, i: int, tag: str, rc: int, stdout: str) -> Outcome:
        """Every record accounts for every draw, the records cover the ladder
        for every kind, and order2 <= order1 <= order0 holds in the C04 range."""
        units = len(SWEEP_LADDER) * len(SWEEP_KINDS) * SWEEP_DRAWS
        failed = Outcome(0, units, units)
        if rc != 0:
            failed.problems.append(f"sweep call {i} exited {rc}")
            return failed
        try:
            records = {
                (float(r["sigma"]), r["kind"]): (float(r["mean_mse"]), int(r["n_samples"]), int(r["n_excluded"]))
                for r in read_csv_rows(self.outputs(tag)[0], SWEEP_HEADER)
            }
        except (OSError, ValueError, TypeError) as exc:
            failed.problems.append(f"sweep call {i}: {exc}")
            return failed
        if sorted(records) != sorted((s, k) for s in SWEEP_LADDER for k in SWEEP_KINDS):
            failed.problems.append(f"sweep call {i}: records do not cover the ladder for every kind")
            return failed
        ops = excluded = 0
        for sigma in SWEEP_LADDER:
            for kind in SWEEP_KINDS:
                _, n_samples, n_excluded = records[sigma, kind]
                excluded += n_excluded
                if n_samples + n_excluded != SWEEP_DRAWS:
                    failed.problems.append(f"sweep call {i}: sigma={sigma} {kind} loses draws")
            ops += max(records[sigma, kind][1] for kind in SWEEP_KINDS)
            mse, scored = zip(*(records[sigma, k][:2] for k in ("order2", "order1", "order0")))
            if sigma <= HIERARCHY_MAX_SIGMA and all(scored) and not mse[0] <= mse[1] <= mse[2]:
                failed.problems.append(f"sweep call {i}: sigma={sigma} order2<=order1<=order0 fails: {mse}")
        if failed.problems:
            return failed
        return Outcome(ops, units, excluded)


METRICS_HEADER = ["step", "loss", "rmsd", "aligned_rmsd", "n_excluded"]


def train_argv(data: Path, steps: int, seed: int, metrics: Path, model: Path) -> list[str]:
    return [
        "train", "--input", str(data), "--sigma", repr(TRAIN_SIGMA),
        "--estimator", "order2", "--steps", str(steps), "--seed", str(seed),
        "--batch", str(TRAIN_BATCH), "--hidden", str(TRAIN_HIDDEN),
        "--out-metrics", str(metrics), "--out-model", str(model),
    ]


def check_train(i, rc, stdout, metrics: Path, model: Path, steps: int, learn: bool) -> Outcome:
    """Score one train call; with ``learn`` the probe aligned RMSD must halve."""
    units = steps * TRAIN_BATCH
    failed = Outcome(0, units, units)
    if rc != 0:
        failed.problems.append(f"train call {i} exited {rc}")
        return failed
    try:
        status = json.loads(stdout).get("status")
        rows = read_csv_rows(metrics, METRICS_HEADER)
        if not model.is_file():
            raise ValueError(f"{model} was not written")
        first, last = float(rows[0]["aligned_rmsd"]), float(rows[-1]["aligned_rmsd"])
        excluded = sum(int(r["n_excluded"]) for r in rows[1:])
    except (OSError, ValueError, TypeError, IndexError) as exc:
        failed.problems.append(f"train call {i}: {exc}")
        return failed
    if status != "completed" or len(rows) != steps + 1:
        failed.problems.append(f"train call {i}: status {status}, {len(rows)} metric rows")
        return failed
    if not (math.isfinite(first) and math.isfinite(last)):
        failed.problems.append(f"train call {i}: non-finite aligned rmsd")
        return failed
    if learn and not last < 0.5 * first:
        failed.problems.append(f"train call {i}: aligned rmsd {first} -> {last} did not halve")
        return failed
    return Outcome(steps, units, excluded, final_aligned_rmsd=last)


def write_train_data(workdir: Path, seed: int) -> Path:
    path = workdir / "train.xyz"
    frames = make_frames(np.random.default_rng(seed), TRAIN_POINTS, TRAIN_FRAMES, TRAIN_JITTER)
    write_xyz(path, frames, "train")
    return path


class Train(Workload):
    name = "train"

    def setup(self) -> list[str]:
        self.data = write_train_data(self.workdir, self.seed)
        metrics, model = self.outputs("warmup")
        rc, stdout, _ = run_cli(train_argv(self.data, TRAIN_WARMUP_STEPS, self.seed, metrics, model))
        return check_train("warmup", rc, stdout, metrics, model, TRAIN_WARMUP_STEPS, False).problems

    def argv(self, i: int, tag: str) -> list[str]:
        metrics, model = self.outputs(tag)
        return train_argv(self.data, TRAIN_STEPS, call_seed(self.seed, i), metrics, model)

    def outputs(self, tag: str) -> list[Path]:
        return [self.path("metrics", f"{tag}.csv"), self.path("model", f"{tag}.bin")]

    def check(self, i: int, tag: str, rc: int, stdout: str) -> Outcome:
        metrics, model = self.outputs(tag)
        return check_train(i, rc, stdout, metrics, model, TRAIN_STEPS, True)


class Sample(Workload):
    name = "sample"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.model = workdir / "model.bin"
        self.checkpoint: bytes | None = None
        self.first_output: bytes | None = None

    def setup(self) -> list[str]:
        """Train the checkpoint with train's settings, then sample once as call 0."""
        data = write_train_data(self.workdir, self.seed)
        metrics = self.workdir / "metrics.csv"
        rc, stdout, _ = run_cli(train_argv(data, TRAIN_STEPS, self.seed, metrics, self.model))
        trained = check_train("setup", rc, stdout, metrics, self.model, TRAIN_STEPS, True)
        self.setup_rmsd = trained.final_aligned_rmsd
        problems = list(trained.problems)
        checkpoint = self.model.read_bytes() if self.model.is_file() else b""
        if self.checkpoint is not None and checkpoint != self.checkpoint:
            problems.append("setup: the same seed trained a different checkpoint")
        self.checkpoint = checkpoint
        rc, stdout, _ = run_cli(self.argv(0, "warmup"))
        return problems + self.check(0, "warmup", rc, stdout).problems

    def argv(self, i: int, tag: str) -> list[str]:
        return [
            "sample", "--model", str(self.model), "--schedule", SAMPLE_SCHEDULE,
            "--seed", str(call_seed(self.seed, i)), "--out", str(self.outputs(tag)[0]),
        ]

    def outputs(self, tag: str) -> list[Path]:
        return [self.path("sample", f"{tag}.xyz")]

    def check(self, i: int, tag: str, rc: int, stdout: str) -> Outcome:
        """Output parses as a finite, centered cloud; every call with call 0's
        seed (warm-up, timed and traced) must write the same bytes."""
        failed = Outcome(0, 1, 1)
        if rc != 0:
            failed.problems.append(f"sample call {i} exited {rc}")
            return failed
        path = self.outputs(tag)[0]
        try:
            cloud = read_xyz_frame(path)
        except (OSError, ValueError, IndexError) as exc:
            failed.problems.append(f"sample call {i}: output does not parse: {exc}")
            return failed
        if cloud.shape != (TRAIN_POINTS, 3) or not np.all(np.isfinite(cloud)):
            failed.problems.append(f"sample call {i}: output {cloud.shape} is not a finite cloud")
            return failed
        scale = max(1.0, float(np.sqrt(np.mean(np.sum(cloud * cloud, axis=1)))))
        if np.max(np.abs(cloud.mean(axis=0))) > 1e-12 * scale:
            failed.problems.append(f"sample call {i}: output is not centered")
            return failed
        if i == 0:
            written = path.read_bytes()
            if self.first_output is None:
                self.first_output = written
            elif written != self.first_output:
                failed.problems.append(f"sample call {i} ({tag}): same seed, different bytes")
                return failed
        return Outcome(1, 1, 0)


WORKLOADS = {w.name: w for w in (Sweep, Train, Sample)}
