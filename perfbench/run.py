"""Benchmark of the logsum_prox library, one workload per run.

    python3 perfbench/run.py --workload vector-prox --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the library is imported from its
``src/`` directory and from nowhere else.  The workload runs in one process
as a closed loop with one caller: each op starts when the previous one has
returned.  Every op's output is checked outside the timed ops.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See README.md beside this file.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: a 2-core machine spreads a
# multi-threaded SVD's time several times wider than a single-threaded one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LOGSUM_PROX_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import BAD, KNOWN, OK, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("vector-prox", "param-scan", "matprox-bin", "matprox-csv")

SETUP_SAMPLES = 3  # set-ups timed in child processes; setup_s is their median
MIN_OPS = 40  # fewest ops a run makes, so that op_ms_tail has ten ops beyond it
FIXED_ROUNDS = 8  # traced rounds whose counts are reported (they repeat exactly)
CALIBRATION_EVERY_S = 0.25
# op_ms_tail is the highest of these with at least ten ops beyond it.  The
# ladder stops at p99: above it the slowest ops of a run are host stalls of
# 5-10 ms that hit ops at random, and p99.9 spread 1.7-9 ms between runs.
TAIL_LADDER = (99.0, 90.0, 75.0)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    pkg = SRC / "logsum_prox"
    if not (pkg / "__init__.py").is_file():
        fail(f"no library source at {pkg}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import logsum_prox
    import logsum_prox.cli

    if Path(logsum_prox.__file__).resolve().parent != pkg:
        fail(f"imported logsum_prox from {logsum_prox.__file__}, not from {pkg}")
    return SimpleNamespace(
        ProxParams=logsum_prox.ProxParams,
        z_star=logsum_prox.z_star,
        prox_vector=logsum_prox.prox_vector,
        failure_intervals=logsum_prox.failure_intervals,
        irl1_predict_limit=logsum_prox.irl1_predict_limit,
        cli_main=logsum_prox.cli.main,
    )


def set_up(workload: str, seed: int, workdir: Path):
    """Imports, inputs, input files and warm-up: everything before the first timed op."""
    lib = import_library()
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[workload](lib, seed, str(workdir))
    wl.warm_up()
    return lib, wl


def measure_set_up(args) -> list[float]:
    """Time ``SETUP_SAMPLES`` set-ups, each from the start of a fresh process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"set-up process exited with code {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


class Calibration:
    """Machine speed read during the run: a pure-Python loop and a numpy SVD that
    never call the library.  Printed beside the metrics, not a metric."""

    def __init__(self):
        self._mat = np.random.default_rng(0).standard_normal((128, 128))
        self.py_ms: list[float] = []
        self.np_ms: list[float] = []
        self._last = -math.inf

    def maybe_sample(self) -> None:
        now = time.monotonic()
        if now - self._last < CALIBRATION_EVERY_S:
            return
        self._last = now
        t0 = perf_counter_ns()
        s = 0
        for i in range(20000):
            s += i * i % 7
        t1 = perf_counter_ns()
        np.linalg.svd(self._mat, compute_uv=False)
        t2 = perf_counter_ns()
        self.py_ms.append((t1 - t0) / 1e6)
        self.np_ms.append((t2 - t1) / 1e6)

    def summary(self) -> str:
        def q(v):
            q1, q2, q3 = statistics.quantiles(v, n=4)
            return f"median {q2:.4f} ms (quartiles {q1:.4f}, {q3:.4f})"

        return (f"calibration (machine speed, not a metric; n={len(self.py_ms)}): "
                f"py_loop {q(self.py_ms)}; numpy_svd128 {q(self.np_ms)}")


def run_loop(wl, lib, seconds: float, tracer=None, traced_lib=None):
    """Run whole rounds until ``seconds`` of op time.  With a tracer, even rounds
    are traced and odd rounds are not, so the overhead is measured in-run."""
    plain_ns, traced_ns, status = [], [], []
    cal = Calibration()
    min_rounds = max(2 * FIXED_ROUNDS if tracer else 1, math.ceil(MIN_OPS / wl.ops_per_round))
    timed_ns, k, op_id = 0, 0, 0
    while k < min_rounds or timed_ns < seconds * 1e9:
        inputs = wl.round_inputs(k)
        traced = tracer is not None and k % 2 == 0
        use = traced_lib if traced else lib
        outputs, times = [], []
        with tracer.installed() if traced else contextlib.nullcontext():
            for inp in inputs:
                if traced:
                    tracer.begin_op(op_id)
                t0 = perf_counter_ns()
                try:
                    out = wl.op(use, inp)
                except Exception as exc:  # counted as a failed op by the check
                    out = exc
                t1 = perf_counter_ns()
                if traced:
                    tracer.end_op(t0, t1)
                if not isinstance(out, Exception):
                    try:
                        out = wl.digest(out)
                    except Exception as exc:  # an output of the wrong form fails too
                        out = exc
                outputs.append(out)
                times.append(t1 - t0)
                op_id += 1
        (traced_ns if traced else plain_ns).extend(times)
        timed_ns += sum(times)
        status.extend(wl.check(k, inputs, outputs))
        k += 1
        cal.maybe_sample()
    return plain_ns, traced_ns, status, k, cal


def tail(times_ns) -> tuple[float, float]:
    """Highest percentile of the ladder with at least ten ops beyond it, and its value."""
    n = len(times_ns)
    ordered = sorted(times_ns)
    for p in TAIL_LADDER:
        if math.floor(n * (1 - p / 100) + 1e-9) >= 10:
            break
    idx = min(n - 11, math.ceil(n * p / 100) - 1)
    return p, ordered[idx]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0, help="op time to measure (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run that reports the per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            print(repr(time.monotonic()))
            return 0
        setup = [] if args.trace else measure_set_up(args)
        lib, wl = set_up(args.workload, args.seed, workdir)
        tracer = traced_lib = None
        if args.trace:
            tracer = tracing.Tracer()
            traced_lib = tracing.instrument(tracer, lib)
        plain_ns, traced_ns, status, rounds, cal = run_loop(wl, lib, args.seconds, tracer, traced_lib)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    failed = sum(s != OK for s in status)
    known = sum(s == KNOWN for s in status)
    ops = len(plain_ns)
    p, tail_ns = tail(plain_ns)
    p50_ms = statistics.median(plain_ns) / 1e6
    print(f"perfbench {args.workload} seed={args.seed}: {len(status)} ops in {rounds} rounds, "
          f"{(sum(plain_ns) + sum(traced_ns)) / 1e9:.3f} s of op time; "
          f"op_ms_tail is p{p:g} of {ops} untraced ops")
    print(f"checks: {len(status)} attempted, {failed} failed, of which {known} on the wide-range "
          f"pairs hit by the z_star stop-rule fault")
    print(cal.summary())
    if args.trace:
        traced_p50 = statistics.median(traced_ns) / 1e6
        overhead = {"op_ms_p50_traced": traced_p50, "op_ms_p50_untraced": p50_ms,
                    "overhead_pct": 100 * (traced_p50 / p50_ms - 1)}
        print(f"tracing overhead: op_ms_p50 {traced_p50:.4f} traced vs {p50_ms:.4f} untraced "
              f"({overhead['overhead_pct']:+.1f}%)")
        for name, row in sorted(tracer.self_time_table().items()):
            print(f"  span {name}: calls {row['calls']}, busy {row['busy_ms']:.3f} ms, "
                  f"self {row['self_ms']:.3f} ms")
        values = tracing.layer_metrics(tracer, FIXED_ROUNDS * wl.ops_per_round)
        metrics = {k: {"value": v, "unit": tracing.LAYER_UNITS[k]} for k, v in values.items()}
        tracer.write(str(HERE / "traces" / f"{args.workload}-seed{args.seed}.json.gz"),
                     {"workload": args.workload, "seed": args.seed, "tracing_overhead": overhead,
                      "layer_metrics": values})
    else:
        metrics = {
            "items_per_s": {"value": ops * wl.items_per_op / (sum(plain_ns) / 1e9), "unit": "items/s"},
            "op_ms_p50": {"value": p50_ms, "unit": "ms"},
            "op_ms_tail": {"value": tail_ns / 1e6, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": BAD not in status, "attempted": len(status), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
