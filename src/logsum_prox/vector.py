"""Componentwise proximity operator of the separable log-sum penalty.

The vector penalty ``f(x) = sum_i log(1 + |x_i|/eps)`` is additively
separable, so the minimizer set of ``||x - z||^2/(2*lam) + f(x)`` is the
Cartesian product of the scalar minimizer sets.  The full set is never
materialized (it has ``2**k`` elements when ``k`` components sit on the
jump point); one canonical selection is returned together with the indices
where the scalar operator is two-valued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .scalar import ProxKind, ProxParams, prox_scalar

__all__ = [
    "VectorProxResult",
    "logsum_penalty",
    "vector_objective",
    "prox_vector",
]


@dataclass(frozen=True)
class VectorProxResult:
    """One canonical minimizer plus multiplicity metadata.

    ``canonical`` picks the zero branch at every ambiguous component (the
    sparser minimizer).  The set of all minimizers is the Cartesian product
    of the scalar sets and has ``2 ** len(ambiguous_indices)`` elements.
    """

    canonical: np.ndarray
    ambiguous_indices: tuple[int, ...]
    objective_value: float


@np.errstate(over="ignore")  # an overflowing |x_i|/eps is replaced, not reported
def logsum_penalty(params: ProxParams, x: np.ndarray) -> float:
    """``sum_i log(1 + |x_i|/eps)``, finite wherever ``x`` is."""
    return _logsum_penalty(params, np.asarray(x, dtype=float))


def _logsum_penalty(params: ProxParams, x: np.ndarray) -> float:
    """``logsum_penalty`` of a float array; the caller ignores overflow in ``np.errstate``."""
    a = np.abs(x)
    terms = np.log1p(a / params.eps)
    total = float(terms.sum())  # the method skips np.sum's dispatch; same reduction
    if total == math.inf:
        # some |x_i|/eps overflowed, so eps < 1 and eps + |x_i| cannot
        fallback = np.log(params.eps + a) - math.log(params.eps)
        total = float(np.where(np.isinf(terms), fallback, terms).sum())
    return total


def vector_objective(params: ProxParams, x: np.ndarray, z: np.ndarray) -> float:
    """``||x - z||^2 / (2*lam) + logsum_penalty(x)``."""
    x = np.asarray(x, dtype=float)
    return _objective(params, x, x - np.asarray(z, dtype=float))


@np.errstate(over="ignore")  # overflowing squares or quotients are redone, not reported
def _objective(params: ProxParams, x: np.ndarray, d: np.ndarray) -> float:
    quad = float((d * d).sum()) / params.lam
    if quad == math.inf and np.all(np.isfinite(d)):  # the squares overflowed, the quotient need not
        m = float(np.max(np.abs(d)))
        u = d / m
        quad = float(np.sum(u * u)) * (m / params.lam) * m
    # halved after the division (exact above the subnormal range), so 2*lam cannot overflow
    return 0.5 * quad + _logsum_penalty(params, x)


def _validated_vector(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim != 1 or z.size < 1:
        raise PreconditionError(f"z must be a nonempty 1-d vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise PreconditionError("z must have finite entries")
    return z


def prox_vector(params: ProxParams, z) -> VectorProxResult:
    """Apply the scalar operator to every component of ``z``."""
    z = _validated_vector(z)
    values: list[float] = []
    ambiguous: list[int] = []
    for i, zi in enumerate(z.tolist()):
        res = prox_scalar(params, zi)
        values.append(res.canonical)
        if res.kind is ProxKind.PAIR:
            ambiguous.append(i)
    canonical = np.array(values)
    return VectorProxResult(
        canonical=canonical,
        ambiguous_indices=tuple(ambiguous),
        objective_value=vector_objective(params, canonical, z),
    )
