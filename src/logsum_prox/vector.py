"""Componentwise proximity operator of the separable log-sum penalty.

The vector penalty ``f(x) = sum_i log(1 + |x_i|/eps)`` is additively
separable, so the minimizer set of ``||x - z||^2/(2*lam) + f(x)`` is the
Cartesian product of the scalar minimizer sets.  The full set is never
materialized (it has ``2**k`` elements when ``k`` components sit on the
jump point); one canonical selection is returned together with the indices
where the scalar operator is two-valued.

The scalar rule is applied in one of two passes, chosen by length: a loop
over Python floats for short vectors, and numpy mask passes that leave
only the nonzero components to ``r2`` for long ones.  Both give the bits
of ``prox_scalar``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .scalar import _MASK_MIN, ProxParams, _prox_array
# prox_scalar stays a module attribute: perfbench/tracing.py patches it by name
from .scalar import prox_scalar  # noqa: F401

__all__ = [
    "VectorProxResult",
    "logsum_penalty",
    "vector_objective",
    "prox_vector",
]


class VectorProxResult(NamedTuple):
    """One canonical minimizer plus multiplicity metadata, as a ``NamedTuple``.

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


@np.errstate(over="ignore")  # overflowing differences, squares or quotients are redone, not reported
def vector_objective(params: ProxParams, x: np.ndarray, z: np.ndarray) -> float:
    """``||x - z||^2 / (2*lam) + logsum_penalty(x)``; ``x`` and ``z`` must have the same shape."""
    x = np.asarray(x, dtype=float)
    return _half_square(params, x, np.asarray(z, dtype=float)) + _logsum_penalty(params, x)


def _half_square(params: ProxParams, x: np.ndarray, z: np.ndarray) -> float:
    """``||x - z||^2 / (2*lam)`` of same-shape float arrays, finite wherever the true value is.

    The caller ignores overflow in ``np.errstate``.
    """
    if x.shape != z.shape:  # no broadcasting: a mismatched pair has no objective
        raise PreconditionError(f"x and z must have the same shape, got {x.shape} and {z.shape}")
    d = x - z
    quad = float((d * d).sum()) / params.lam
    if quad == math.inf:
        h = 0.5 * x - 0.5 * z  # d/2, finite wherever x and z are, even where d overflowed
        if np.all(np.isfinite(h)):  # the squares or d overflowed, the quotient need not
            m = float(np.max(np.abs(h)))
            u = h / m
            return 2.0 * (float(np.sum(u * u)) * (m / params.lam) * m)
    # halved after the division (exact above the subnormal range), so 2*lam cannot overflow
    return 0.5 * quad


def _validated_vector(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim != 1 or z.size < 1:
        raise PreconditionError(f"z must be a nonempty 1-d vector, got shape {z.shape}")
    if not (all(map(math.isfinite, z.tolist())) if z.size < _MASK_MIN else np.isfinite(z).all()):
        raise PreconditionError("z must have finite entries")  # a short z is checked as floats: faster
    return z


def prox_vector(params: ProxParams, z) -> VectorProxResult:
    """Apply the scalar operator to every component of ``z``.

    The rule of ``prox_scalar``: zero below the jump, the pair (canonical
    zero, an ambiguous index) on it, ``sgn(z) * r2(|z|)`` above it.  A
    vector shorter than ``scalar._MASK_MIN`` takes that rule as one loop
    over ``z.tolist()``; a longer one takes it as numpy mask passes, with
    ``r2`` called on the nonzero components only.  On either path the
    canonical values and ambiguous indices equal ``prox_scalar`` on each
    component, bit for bit.
    """
    z = _validated_vector(z)
    canonical, ambiguous = _prox_array(params, z)
    return VectorProxResult(canonical, tuple(ambiguous), vector_objective(params, canonical, z))
