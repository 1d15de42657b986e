"""Proximity operator of the log-sum penalty composed with singular values.

The matrix problem

    min  ||X - Z||_F^2 / (2*lam) + sum_i log(1 + sigma_i(X)/eps)

reduces to the vector prox on sigma(Z): factor ``Z = U diag(sigma) V^T``,
shrink the singular values componentwise, and rebuild
``X* = U diag(d) V^T``.  The shrunk vector ``d`` stays descending, so it is
a valid singular-value vector and the reduction is tight; its zeros form a
suffix, so the rebuild uses only the ``r`` nonzero triplets.

When sigma(Z) has entries on the jump point the minimizer is not unique;
one canonical choice (zero branch) is returned and the affected indices
are reported.  The same applies to repeated singular values, where U and V
themselves are not unique: any valid factorization gives the same
``sigma(X*)`` and objective.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .scalar import ProxParams
from .vector import _half_square, logsum_penalty, prox_vector

__all__ = [
    "MatrixProxResult",
    "svd",
    "prox_matrix",
    "logdet_penalty",
    "matrix_objective",
]


class SvdFactorization(NamedTuple):
    """Thin SVD: ``u (m,k)``, ``singular_values (k,)`` descending nonnegative,
    ``v (n,k)``, with ``k = min(m, n)`` and orthonormal columns in both factors.
    A ``NamedTuple``, like numpy's ``SVDResult``, but its third field is ``v``."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.v.T


def _validated_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise PreconditionError(f"expected a nonempty 2-d matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise PreconditionError("matrix entries must be finite")
    return x


def svd(x) -> SvdFactorization:
    """Thin singular value decomposition of a real matrix.

    Backed by LAPACK through ``numpy.linalg.svd``, which is deterministic
    for fixed input and converges to machine precision, so there is no
    tolerance to set.  Raises ``ConvergenceError`` if the iterative
    diagonalization inside LAPACK fails.
    """
    u, s, vt = _lapack_svd(_validated_matrix(x), full_matrices=False)
    return SvdFactorization(u, s, vt.T)


def _lapack_svd(x: np.ndarray, **options):
    try:
        return np.linalg.svd(x, **options)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge for shape {x.shape}: {exc}") from exc


class MatrixProxResult(NamedTuple):
    """Canonical matrix minimizer, as a ``NamedTuple``.

    ``d`` holds the shrunk singular values (descending, zeros for every
    value below the scalar threshold); ``ambiguous_indices`` marks singular
    values that sat on the jump point, where the alternative branch
    ``r2(z_star)`` is equally optimal.  ``singular_values`` are those of the
    input ``z`` that ``d`` was shrunk from.
    """

    x_star: np.ndarray
    d: np.ndarray
    ambiguous_indices: tuple[int, ...]
    objective_value: float
    singular_values: np.ndarray


def matrix_objective(params: ProxParams, x, z) -> float:
    """``||x - z||_F^2 / (2*lam) + logdet_penalty(x)`` (same shapes), finite wherever the true value is."""
    x = _validated_matrix(x)
    z = _validated_matrix(z)
    with np.errstate(over="ignore"):  # overflowing differences or squares are redone, not reported
        quad = _half_square(params, x, z)
    return quad + logdet_penalty(params, x)


def prox_matrix(params: ProxParams, z) -> MatrixProxResult:
    """Solve the matrix problem exactly via the singular-value reduction.

    ``objective_value`` is taken from the singular values: ``X* - Z`` and
    ``diag(d - sigma)`` share the orthogonal factors, so
    ``||X* - Z||_F = ||d - sigma||_2`` and the objective is
    ``vector_objective(params, d, sigma)``, which ``prox_vector`` already
    returns.
    """
    fac = svd(z)  # validates z
    vec = prox_vector(params, fac.singular_values)
    d = vec.canonical
    # d is descending, so its zeros are a suffix: rebuild from the first r
    # singular triplets only, in O(m*n*r) instead of O(m*n*k)
    r = int(np.count_nonzero(d))
    x_star = (fac.u[:, :r] * d[:r]) @ fac.v[:, :r].T
    return MatrixProxResult(x_star, d, vec.ambiguous_indices, vec.objective_value, fac.singular_values)


def logdet_penalty(params: ProxParams, x) -> float:
    """``sum_i log(1 + sigma_i(x)/eps)``.

    Equals ``log det(I + (x x^T)^{1/2}/eps)`` for wide-or-square ``x``
    (``m <= n``) and the transposed form otherwise.  Only the singular
    values are computed, not the singular vectors.
    """
    return logsum_penalty(params, _lapack_svd(_validated_matrix(x), compute_uv=False))
