"""Benchmark of the so3denoise CLI: sweep, train and sample workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload calls ``so3denoise.cli.main`` in-process from one client in
a closed loop for ``--seconds`` and checks every output.  With
``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` a separate traced run wraps each
layer's public functions (see ``tracer.py``) and reports per-module call
counts and self times instead.  Lines before it are a readable table and
the environment record.  The exit code is 1 when a correctness check
failed and 2 when the benchmark cannot run here.  Results and spans are
written under ``bench_out/`` in the checkout.
"""

import time

_T0 = time.perf_counter()  # everything below, imports included, is set-up time

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

# One client on one thread: BLAS threads give these small arrays no speed,
# but they make every timing depend on what else runs on the other cores.
# Set before numpy is imported; the caller's values go into the record.
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CALLER_BLAS = {var: os.environ.get(var) for var in BLAS_VARS}
os.environ.update({var: "1" for var in BLAS_VARS})

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
WORKLOAD_NAMES = ("sweep", "train", "sample")
SETUP_REPEATS = 3  # setup_s is the median of this many complete set-ups
WINDOWS = 10  # timings are medians over this many equal slices of a run
CALIBRATE_EVERY_S = 0.5  # seconds of loop time between calibration kernels
# Seconds calibration_kernel takes on the reference host (a 2-vCPU Xeon VM,
# Python 3.11, numpy 2.4, one BLAS thread); timings are scaled to it.
CALIBRATION_S = 0.013
# Traced runs do a fixed amount of work, so counts repeat exactly for a
# seed: this many (untraced, traced) call pairs per second of --seconds,
# which fills about --seconds at the 2-vCPU baseline.
TRACE_PAIRS_PER_S = {"sweep": 1.0, "train": 0.2, "sample": 100.0}


class BenchmarkError(Exception):
    """The benchmark cannot run in this environment."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_environment() -> None:
    if "SO3_DENOISE_THREADS" in os.environ:
        raise BenchmarkError(
            "SO3_DENOISE_THREADS is set; the sweep's thread pool would change what the "
            "sweep workload measures. Unset it: the benchmark measures the serial default."
        )
    if not (SRC / "so3denoise" / "__init__.py").is_file():
        raise BenchmarkError(f"no so3denoise sources under {SRC}; run from a full checkout")


def import_program():
    sys.path.insert(0, str(SRC))
    import so3denoise.cli

    if Path(so3denoise.__file__).resolve().parent != (SRC / "so3denoise").resolve():
        raise BenchmarkError(f"imported so3denoise from {so3denoise.__file__}, not {SRC}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "caller_blas_threads": CALLER_BLAS,
        "git_commit": git_commit(),
    }


class Run:
    """Totals of one benchmark run: checked calls and problems found."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.final_rmsd: list[float] = []
        self.windows: dict = {}  # per-slice timings and kernel times, for the record

    def call(self, i: int, tag: str):
        from workloads import run_cli

        for stale in self.workload.outputs(tag):  # a call that writes nothing must not pass
            stale.unlink(missing_ok=True)
        rc, stdout, seconds = run_cli(self.workload.argv(i, tag))
        outcome = self.workload.check(i, tag, rc, stdout)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        if outcome.final_aligned_rmsd is not None:
            self.final_rmsd.append(outcome.final_aligned_rmsd)
        return outcome, seconds

    def add_problems(self, problems: list[str]) -> None:
        self.attempted += len(problems)
        self.failed += len(problems)
        self.problems += problems


def percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q))


def calibration_kernel() -> float:
    """Run fixed work that shares nothing with so3denoise; return its seconds.

    The mix follows the workloads: 3x3 SVDs in a Python loop, an einsum
    and exp over a large rotation array, and plain Python arithmetic.
    """
    start = time.perf_counter()
    import numpy

    rng = numpy.random.default_rng(0)
    for m in rng.standard_normal((300, 3, 3)):
        u, _, vt = numpy.linalg.svd(m)
        numpy.linalg.det(u @ vt)
    f, rotations = rng.standard_normal((3, 3)), rng.standard_normal((10000, 3, 3))
    for _ in range(16):
        logp = numpy.einsum("ij,nij->n", f, rotations)
        numpy.exp(logp - logp.max()).sum()
    sum(k * k for k in range(30000))
    return time.perf_counter() - start


def host_scale(kernel_s: list[float]) -> float:
    """How much slower the host ran than the reference host (>1 = slower)."""
    return statistics.median(kernel_s) / CALIBRATION_S


def measure(run: Run, seconds: float) -> dict:
    """Closed loop: call after call until ``seconds`` of wall time have passed.

    On a shared 2-vCPU VM the host's speed drifts by up to a third, in
    episodes of seconds to minutes that cover whole runs.  So every
    timing is calibrated: the run is cut into WINDOWS equal slices by call
    start, ``calibration_kernel`` runs between calls every
    CALIBRATE_EVERY_S, and each slice's rate and latencies are scaled to
    the reference host by the median kernel time in that slice.  Each
    timing is then the median over slices (rate, median and 90th
    percentile of per-op latency).  Kernel time is not call time.
    """
    windows: dict[int, tuple[list, list]] = {}  # slice -> (ops and seconds per call, kernel seconds)
    start = time.perf_counter()
    next_kernel = 0.0
    i = 0
    while (now := time.perf_counter() - start) < seconds:
        calls, kernels = windows.setdefault(int(now * WINDOWS / seconds), ([], []))
        if now >= next_kernel:
            kernels.append(calibration_kernel())
            next_kernel = now + CALIBRATE_EVERY_S
        outcome, secs = run.call(i, "timed")
        calls.append((outcome.ops, secs))
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_kernels = [k for _, kernels in windows.values() for k in kernels]
    raw = {"ops_per_s": [], "op_p50_ms": [], "op_p90_ms": []}
    calibrated = {name: [] for name in raw}
    for calls, kernels in windows.values():
        per_op_ms = [1e3 * secs / ops for ops, secs in calls if ops]
        if not per_op_ms:  # a slice whose calls all failed has no timing
            continue
        scale = host_scale(kernels or all_kernels)
        figures = {
            "ops_per_s": sum(ops for ops, _ in calls) / sum(secs for _, secs in calls),
            "op_p50_ms": percentile(per_op_ms, 50),
            "op_p90_ms": percentile(per_op_ms, 90),
        }
        for name, value in figures.items():
            raw[name].append(value)
            calibrated[name].append(value * scale if name == "ops_per_s" else value / scale)
    run.windows = {"raw": raw, "calibrated": calibrated, "kernel_s": all_kernels}
    ops = sum(o for calls, _ in windows.values() for o, _ in calls)
    return {
        "ops_per_s": (median_or_zero(calibrated["ops_per_s"]), "op/s", ops),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "op_p50_ms": (median_or_zero(calibrated["op_p50_ms"]), "ms", i),
        "op_p90_ms": (median_or_zero(calibrated["op_p90_ms"]), "ms", i),
    }, {f"raw.{name}": median_or_zero(values) for name, values in raw.items()}


def median_or_zero(values: list[float]) -> float:
    """Median, or 0 when every call failed (the run is then reported incorrect)."""
    return statistics.median(values) if values else 0.0


def measure_traced(run: Run, seconds: float, spans_path: Path) -> dict:
    """Fixed number of call pairs, each made untraced and traced in
    alternating order; the two must write byte-identical outputs."""
    from tracer import Tracer

    tracer = Tracer()
    workload = run.workload
    pairs = max(1, round(seconds * TRACE_PAIRS_PER_S[workload.name]))
    spent = {"u": 0.0, "t": 0.0}
    ops = {"u": 0, "t": 0}
    for i in range(pairs):
        for tag in ("u", "t") if i % 2 == 0 else ("t", "u"):
            if tag == "t":
                tracer.call_id = i
                with tracer:
                    outcome, secs = run.call(i, tag)
            else:
                outcome, secs = run.call(i, tag)
            spent[tag] += secs
            ops[tag] += outcome.ops
        for untraced, traced in zip(workload.outputs("u"), workload.outputs("t")):
            if untraced.read_bytes() != traced.read_bytes():
                run.add_problems([f"call {i}: traced output {traced.name} differs from untraced"])
    tracer.write_spans(spans_path)
    metrics = {name: (value, unit, pairs) for name, (value, unit) in tracer.metrics().items()}
    untraced_rate = ops["u"] / spent["u"] if spent["u"] else 0.0
    traced_rate = ops["t"] / spent["t"] if spent["t"] else 0.0
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "op/s", ops["u"])
    metrics["trace.ops_per_s_traced"] = (traced_rate, "op/s", ops["t"])
    overhead = untraced_rate / traced_rate - 1.0 if traced_rate else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio", pairs)
    return metrics


def run_workload(args) -> int:
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = Run(workload)
        calibration_kernel()  # warm-up: the first run pays for cold caches
        setups, kernels = [], []
        for _ in range(SETUP_REPEATS):
            kernels.append(calibration_kernel())
            start = time.perf_counter()
            run.add_problems(workload.setup())
            setups.append(time.perf_counter() - start)
        raw_setup_s = import_s + statistics.median(setups)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        raw = {}
        if args.trace:
            metrics = measure_traced(run, args.seconds, OUT / f"spans-{tag}.jsonl.gz")
        else:
            timed, raw = measure(run, args.seconds)
            setup_s = raw_setup_s / host_scale(kernels)
            metrics = {"setup_s": (setup_s, "s", SETUP_REPEATS), **timed}
            raw["raw.setup_s"] = raw_setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # readable only: fail_frac is 0 when healthy and the rmsd exists only
    # where training happens, so neither is a metric of BENCHMARK.json
    extra = {"fail_frac": (run.failed / run.attempted if run.attempted else 0.0, "ratio", run.attempted)}
    rmsd = run.final_rmsd or ([workload.setup_rmsd] if workload.setup_rmsd is not None else [])
    if rmsd and not args.trace:
        extra["final_aligned_rmsd"] = (statistics.median(rmsd), "length", len(rmsd))
    for name, value in raw.items():  # uncalibrated timings, same units
        extra[name] = (value, metrics[name[4:]][1], metrics[name[4:]][2])
    if not args.trace:
        extra["calibration_kernel_ms"] = (1e3 * statistics.median(run.windows["kernel_s"]), "ms",
                                          len(run.windows["kernel_s"]))

    correct = not run.problems
    print(f"# so3denoise benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env))
    for problem in run.problems[:20]:
        print(f"# FAILED CHECK: {problem}")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"{args.workload:<7} {name:<58} {value:>14.6g} {unit:<6} n={n}")
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = {**result, "env": env, "samples": {k: n for k, (_, _, n) in {**metrics, **extra}.items()},
              "extra": {k: v for k, (v, _, _) in extra.items()}, "windows": run.windows,
              "problems": run.problems}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is that workload's alone."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_environment()
        if args.workload == "all":
            return run_all(args)
        import_program()
        return run_workload(args)
    except BenchmarkError as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
