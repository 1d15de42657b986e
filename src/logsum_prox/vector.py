"""Componentwise proximity operator of the separable log-sum penalty.

The vector penalty ``f(x) = sum_i log(1 + |x_i|/eps)`` is additively
separable, so the minimizer set of ``||x - z||^2/(2*lam) + f(x)`` is the
Cartesian product of the scalar minimizer sets.  The full set is never
materialized (it has ``2**k`` elements when ``k`` components sit on the
jump point); one canonical selection is returned together with the indices
where the scalar operator is two-valued.
"""

from __future__ import annotations

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


def logsum_penalty(params: ProxParams, x: np.ndarray) -> float:
    """``sum_i log(1 + |x_i|/eps)``."""
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.log1p(np.abs(x) / params.eps)))


def vector_objective(params: ProxParams, x: np.ndarray, z: np.ndarray) -> float:
    """``||x - z||^2 / (2*lam) + logsum_penalty(x)``."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return float(np.sum((x - z) ** 2) / (2.0 * params.lam) + logsum_penalty(params, x))


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
    canonical = np.empty_like(z)
    ambiguous: list[int] = []
    for i, zi in enumerate(z):
        res = prox_scalar(params, float(zi))
        canonical[i] = res.canonical
        if res.kind is ProxKind.PAIR:
            ambiguous.append(i)
    return VectorProxResult(
        canonical=canonical,
        ambiguous_indices=tuple(ambiguous),
        objective_value=vector_objective(params, canonical, z),
    )
