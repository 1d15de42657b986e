"""Matrix prox: shrink singular values, keep the factors.

The matrix problem reduces to the vector prox on the singular values:
factor Z, shrink sigma(Z) componentwise, rebuild.  Small singular values
map to exact zeros, so the operator reduces rank, and the result is
invariant to rotations of the input.

Run:  python3 demos/04_matrix_prox.py
"""

import tempfile
from pathlib import Path

import numpy as np

from logsum_prox import (
    ProxParams,
    cli,
    logdet_penalty,
    matrix_objective,
    prox_matrix,
)
from logsum_prox.matrix_io import read_matrix_csv, write_matrix_csv

rng = np.random.default_rng(7)
p = ProxParams(3.0, 1.0)

############################################################################
# A noisy low-rank matrix: rank-2 signal plus small dense noise.
############################################################################

m, n = 5, 7
signal = rng.standard_normal((m, 2)) @ (rng.standard_normal((2, n)) * 3.0)
noisy = signal + 0.05 * rng.standard_normal((m, n))

res = prox_matrix(p, noisy)
print("singular values in :", np.round(np.linalg.svd(noisy, compute_uv=False), 4))
print("singular values out:", np.round(res.d, 4))
print(f"rank: {np.linalg.matrix_rank(noisy)} -> {np.count_nonzero(res.d)}")
print(f"objective at x_star: {res.objective_value:.6f}")
print(f"objective at input : {matrix_objective(p, noisy, noisy):.6f}")
print(f"objective at zero  : {matrix_objective(p, np.zeros_like(noisy), noisy):.6f}")

############################################################################
# Rotation invariance: rotating the input only rotates the output.
############################################################################

q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
rotated = prox_matrix(p, q1 @ noisy @ q2.T)
drift = np.abs(np.linalg.svd(rotated.x_star, compute_uv=False) - res.d).max()
print(f"\nmax singular-value drift under rotation: {drift:.2e}")

############################################################################
# The penalty really is the log-det of I + (X X^T)^{1/2}/eps.
############################################################################

gram = noisy @ noisy.T
sqrt_gram_eigs = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
via_eigs = float(np.sum(np.log1p(sqrt_gram_eigs / p.eps)))
print(f"\nlogdet_penalty          = {logdet_penalty(p, noisy):.12f}")
print(f"via Gram eigenvalues    = {via_eigs:.12f}")

############################################################################
# File IO used by the command line tool (same formats, library level).
############################################################################

with tempfile.TemporaryDirectory() as tmp:
    src, dst = Path(tmp, "in.csv"), Path(tmp, "out.csv")
    write_matrix_csv(src, noisy)
    print(f"\nCSV round-trip exact: {np.array_equal(read_matrix_csv(src), noisy)}")
    # the same as: logsum-prox matprox --lambda 3 --eps 1 --in in.csv --out out.csv
    cli.main(["matprox", "--lambda", "3", "--eps", "1", "--in", str(src), "--out", str(dst)])
    print(f"CLI output equals prox_matrix: {np.array_equal(read_matrix_csv(dst), res.x_star)}")
