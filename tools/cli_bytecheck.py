"""Run a fixed list of ``logsum-prox`` invocations and record what each one prints and writes.

Usage:

    python3 tools/cli_bytecheck.py OUTDIR

Every invocation runs as ``python -m logsum_prox.cli`` with the ``src``
directory of the tree this script sits in on ``PYTHONPATH``, with
``OUTDIR`` as its working directory and relative file names, so the
``wrote x_star ... to <path>`` lines of two trees compare equal.  The input
matrices are generated deterministically with numpy alone, never with the
library under test.  To compare two trees:

    python3 tools/cli_bytecheck.py /tmp/a
    python3 /path/to/other/tree/tools/cli_bytecheck.py /tmp/b
    diff -r /tmp/a /tmp/b

``OUTDIR/NNN`` records invocation ``NNN``: its arguments, exit code and
stdout; ``OUTDIR/out`` holds every file the invocations wrote.  Stderr is
not recorded, since warnings and tracebacks name the tree's own paths.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
FORMATS = ("text", "csv", "json")
ZS31 = "2.5710831932251654"  # z_star(3, 1), as printed by zstar --format json


def _matrices() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20211)
    low_rank = rng.standard_normal((40, 3)) @ (rng.standard_normal((3, 30)) * 4.0)
    return {
        "lowrank_40x30": low_rank + 0.05 * rng.standard_normal((40, 30)),
        "diag_5_01": np.diag([5.0, 0.1]),
        "zero_2x3": np.zeros((2, 3)),
        "random_3x4": rng.standard_normal((3, 4)) * 3.0,
        "diag_zstar": np.diag([float(ZS31), 4.0, 1.0]),
        "neg_1x1": np.array([[-7.25]]),
        "neg_diag": np.diag([-6.0, -3.0, 0.5]),
    }


# The squares of X* - Z overflow a double here under --lambda 1e308 --eps 1e-300.
OVERFLOW = {"diag_overflow": np.diag([1e156, 2e155])}


def _write_inputs(outdir: Path) -> list[str]:
    (outdir / "in").mkdir()
    matrices = _matrices()
    for name, x in {**matrices, **OVERFLOW}.items():
        np.savetxt(outdir / "in" / f"{name}.csv", x, fmt="%.17g", delimiter=",")
        with open(outdir / "in" / f"{name}.bin", "wb") as fh:
            fh.write(np.array(x.shape, dtype="<u8").tobytes())
            fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
    (outdir / "in" / "bad.csv").write_text("1,2\n3,oops\n")
    (outdir / "in" / "ragged.csv").write_text("1,2,3\n4,5\n")
    (outdir / "in" / "blank.csv").write_text("1,2\n\n3,4\n")
    return list(matrices)


def _invocations(matrices: list[str]) -> list[list[str]]:
    cases: list[list[str]] = []

    def each_format(*argv: str) -> None:
        for fmt in FORMATS:
            cases.append([*argv, "--format", fmt])

    p31 = ("--lambda", "3", "--eps", "1")
    p23 = ("--lambda", "2", "--eps", "3")
    each_format("prox", *p31, "--z", f"2.9,0.5,-2.9,{ZS31},-{ZS31},0")
    each_format("prox", *p23, "--z", "5,0.5,-5,0.6666666666666666")
    for lam, eps in (("3", "1"), ("4", "1"), ("1e10", "1e-10"), ("2", "3")):
        each_format("zstar", "--lambda", lam, "--eps", eps)
    each_format("irl1", "simulate", *p31, "--z", "2.5", "--x0", "2")
    each_format("irl1", "simulate", *p31, "--z", "2.9", "--x0", "0.1")
    for z, x0 in (("2.5", "2"), ("2.9", "0.1"), ("2.0", "1")):
        each_format("irl1", "predict", *p31, "--z", z, "--x0", x0)
    for params, x0 in ((p31, "0.1"), (p31, "2"), (p31, "9"), (p23, "1")):
        each_format("irl1", "failures", *params, "--x0", x0)
        each_format("irl1", "failures", *params, "--x0", x0, "--sweep", "2.3:3.1:17")
    each_format("sweep", *p31, "--from", "-6", "--to", "6", "--points", "25")
    each_format("sweep", *p23, "--from", "-3", "--to", "3", "--points", "13")
    each_format("sweep", *p31, "--from", "2", "--to", ZS31, "--points", "5")
    for fmt in FORMATS:
        cases.append(["zstar", *p31, "--format", fmt, "--output", f"out/zstar.{fmt}"])
        cases.append(["sweep", *p31, "--from", "-3", "--to", "3", "--points", "7",
                      "--format", fmt, "--output", f"out/sweep.{fmt}"])
    # where (z + eps)**2 overflows a double, and where lam/eps overflows
    each_format("prox", *p31, "--z", "1e160")
    each_format("sweep", *p31, "--from", "1e150", "--to", "1e160", "--points", "3")
    each_format("irl1", "predict", *p31, "--z", "1e160", "--x0", "1")
    each_format("irl1", "failures", "--lambda", "1e308", "--eps", "1e-300", "--x0", "0")
    each_format("prox", "--lambda", "1e308", "--eps", "1e-300", "--z", "1e156")
    each_format("zstar", "--lambda", "1e300", "--eps", "1e-10")
    each_format("irl1", "failures", "--lambda", "1e300", "--eps", "1e-10", "--x0", "0")
    for name in matrices:
        for mfmt in ("csv", "bin"):
            for tag, params in (("31", p31), ("23", p23)):
                cases.append(["matprox", *params, "--in", f"in/{name}.{mfmt}",
                              "--out", f"out/{name}_{tag}.{mfmt}", "--format", mfmt])
            cases.append(["matprox", *p31, "--in", f"in/{name}.{mfmt}",
                          "--out", f"out/{name}_o.{mfmt}", "--format", mfmt,
                          "--output", f"out/{name}_summary_{mfmt}.txt"])
    for bad in ("bad", "ragged", "blank"):
        cases.append(["matprox", *p31, "--in", f"in/{bad}.csv", "--out", f"out/{bad}_x.csv"])
    cases.append(["prox", "--lambda", "3", "--eps", "1"])
    cases.append(["prox", "--lambda", "-1", "--eps", "1", "--z", "1"])
    cases.append(["frobnicate"])
    cases.append(["--help"])
    # appended last, so the records above keep their numbers
    # a convex pair whose prox one double above lam/eps came out with the wrong sign
    p_sign = ("--lambda", "0.6401025772860353", "--eps", "0.8149779273673193")
    each_format("prox", *p_sign, "--z", "0.7854232069251297,-0.7854232069251297")
    each_format("sweep", *p_sign, "--from", "0.785423206925129", "--to", "0.785423206925131",
                "--points", "9")
    each_format("sweep", *p23, "--from", "0.6666", "--to", "0.6667", "--points", "11")
    for name in OVERFLOW:
        for mfmt in ("csv", "bin"):
            cases.append(["matprox", "--lambda", "1e308", "--eps", "1e-300", "--in", f"in/{name}.{mfmt}",
                          "--out", f"out/{name}.{mfmt}", "--format", mfmt])
    # a non-finite z, and a negative iteration cap, are errors
    for z in ("nan", "inf", "-inf"):
        cases.append(["irl1", "predict", *p31, f"--z={z}", "--x0", "1"])
        cases.append(["irl1", "simulate", *p31, f"--z={z}", "--x0", "1"])
    for sweep in ("nan:3:3", "0:inf:3"):
        cases.append(["irl1", "failures", *p31, "--x0", "1", "--sweep", sweep])
    cases.append(["irl1", "simulate", *p31, "--z", "2.5", "--x0", "2", "--max-iters", "-3"])
    # a non-finite grid bound is an error before any point is formed; fewer than 1 point is a usage error
    for start, stop in (("0", "inf"), ("nan", "1"), ("-inf", "0")):
        cases.append(["sweep", *p31, "--from", start, "--to", stop, "--points", "3"])
    for points in ("0", "-1", "1"):
        cases.append(["sweep", *p31, "--from", "2", "--to", "3", "--points", points])
    # x0 below and above r1(z) = 1.000001e-6, which cancelled to 0 near lam/eps
    for x0 in ("5e-7", "2e-6"):
        each_format("irl1", "predict", "--lambda", "1e12", "--eps", "1", "--z", "999999000000",
                    "--x0", x0)
    # far from lam ~ 1: the stop step and the match distance are multiples of sqrt(lam)
    each_format("irl1", "failures", "--lambda", "3e-20", "--eps", "1e-10", "--x0", "0",
                "--sweep=1e-10:4e-10:4")
    each_format("irl1", "simulate", "--lambda", "3e-40", "--eps", "1e-20", "--z", "4e-20",
                "--x0", "1e-20")
    cases.append(["irl1", "simulate", *p31, "--z", "2.5", "--x0", "2", "--tol", "1e-9"])
    # where (z + eps)**2/4 - lam cancels near the regime boundary sqrt(lam) ~ eps: at the first
    # pair z is lam/eps, where r1 and r2 are 1.218e50 and 7.409e53
    cases.append(["irl1", "predict", "--lambda", "4.027183851979102e+123", "--eps", "6.346009616250486e+61",
                  "--z", "6.346009690351757e+61", "--x0", "1", "--format", "json"])
    cases.append(["prox", "--lambda", "0.9999", "--eps", "1", "--z", "1.000008999", "--format", "json"])
    # a bad pair exits 2 from ProxParams, before any file is read or written
    cases.append(["prox", "--lambda", "nan", "--eps", "1", "--z", "1"])
    cases.append(["sweep", "--lambda", "3", "--eps", "inf", "--from", "0", "--to", "1", "--points", "3"])
    cases.append(["irl1", "predict", "--lambda", "1e400", "--eps", "1", "--z", "1", "--x0", "1"])
    cases.append(["matprox", "--lambda", "0", "--eps", "1", "--in", "in/missing.csv", "--out", "out/never.csv"])
    # a vector long enough for prox_vector's mask pass (at least 128 elements), planted at +-z_star;
    # the "=" form, which a tree that reads "--z -6.0,..." as an option also takes
    long_z = ",".join([*(repr(k / 16) for k in range(-96, 97)), ZS31, f"-{ZS31}"])
    each_format("prox", *p31, f"--z={long_z}")
    # a value that starts with "-" after a space, as its "=" form
    cases.append(["prox", *p31, "--z", "-1e-3"])
    cases.append(["prox", *p31, "--z", "-inf"])
    cases.append(["prox", *p31, "--z", "-1,2"])
    cases.append(["irl1", "failures", *p31, "--x0", "1", "--sweep", "-6:6:5"])
    cases.append(["irl1", "predict", *p31, "--z", "-inf", "--x0", "1"])
    cases.append(["prox", "--lambda", "-inf", "--eps", "1", "--z", "1"])
    return cases


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    outdir = Path(argv[0]).resolve()
    outdir.mkdir(parents=True, exist_ok=False)
    (outdir / "out").mkdir()
    matrices = _write_inputs(outdir)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cases = _invocations(matrices)
    for i, case in enumerate(cases):
        proc = subprocess.run([sys.executable, "-m", "logsum_prox.cli", *case], cwd=outdir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        record = "\n".join(case) + f"\n--- exit {proc.returncode}\n"
        (outdir / f"{i:03d}").write_bytes(record.encode() + proc.stdout)
    print(f"{len(cases)} invocations recorded in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
