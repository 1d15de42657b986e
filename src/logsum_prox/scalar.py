"""Exact scalar proximity operator of the log-sum penalty.

For parameters ``lam > 0`` and ``eps > 0`` this module minimizes

    q(x) = (x - z)^2 / (2*lam) + log(1 + |x|/eps)

exactly.  Away from the origin the stationarity equation ``q'(x) = 0``
factors through the two roots of a quadratic,

    r1(z) = (z - eps)/2 - sqrt((z + eps)^2/4 - lam)
    r2(z) = (z - eps)/2 + sqrt((z + eps)^2/4 - lam)

and the minimizer set is either {0}, {sgn(z)*r2(|z|)}, or - in the
nonconvex regime, at exactly one magnitude ``z_star`` - the two-point set
{0, sgn(z)*r2(z_star)}.  ``z_star`` is the unique root of the tie gap
``gap_r(z) = q(r2(z)) - q(0)`` on [2*sqrt(lam)-eps, lam/eps] and is found
by bisection.

All functions here are pure.  The ``z_star`` value used by
:func:`prox_scalar` is memoized per ``(lam, eps)`` in an ``lru_cache``
without a lock of its own; bisection is deterministic, so two threads that
miss the cache together compute the identical value.  The module is safe
for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import ConvergenceError, DomainError, RegimeError

__all__ = [
    "Regime",
    "ProxParams",
    "ProxKind",
    "ProxResult",
    "ZStarResult",
    "q_objective",
    "r1",
    "r2",
    "gap_r",
    "z_star",
    "prox_scalar",
]

# Discriminants in [-_DISC_CLAMP * max(1, lam), 0) are rounded up to zero so
# that z sitting exactly on the float representation of 2*sqrt(lam) - eps
# never fails.
_DISC_CLAMP = 1e-12

DEFAULT_ZSTAR_MAX_ITER = 200


class Regime(Enum):
    """Shape of the one-dimensional objective on [0, inf)."""

    CONVEX = "convex"  # sqrt(lam) <= eps: prox is single-valued and continuous
    NONCONVEX = "nonconvex"  # sqrt(lam) > eps: prox jumps at +/- z_star


@dataclass(frozen=True)
class ProxParams:
    """Parameter pair ``(lam, eps)`` of the operator, both strictly positive.

    ``lam`` is the prox index (step size) and ``eps`` the penalty scale of
    ``g(w) = log(1 + |w|/eps)``.  The boundary ``sqrt(lam) == eps`` is
    classified as convex; both regime branches give the same operator there
    because ``r2(lam/eps) == 0``.
    """

    lam: float
    eps: float

    def __post_init__(self):
        if not (isinstance(self.lam, (int, float)) and math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be a positive finite real, got {self.lam!r}")
        if not (isinstance(self.eps, (int, float)) and math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be a positive finite real, got {self.eps!r}")
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "eps", float(self.eps))

    def regime(self) -> Regime:
        return Regime.CONVEX if math.sqrt(self.lam) <= self.eps else Regime.NONCONVEX

    @property
    def threshold(self) -> float:
        """``lam / eps``: the zero/nonzero threshold of the convex-regime prox."""
        return self.lam / self.eps

    @property
    def bracket_low(self) -> float:
        """``2*sqrt(lam) - eps``: below this |z| the stationarity equation has no real roots."""
        return 2.0 * math.sqrt(self.lam) - self.eps


class ProxKind(Enum):
    ZERO = "zero"
    POINT = "point"
    PAIR = "pair"


@dataclass(frozen=True)
class ProxResult:
    """Minimizer set of ``q``: at most two points.

    ``values`` holds every global minimizer.  For ``PAIR`` (which occurs
    only at ``|z| == z_star`` in the nonconvex regime) it is
    ``(0.0, sgn(z) * r2(z_star))``.  Every nonzero value has the sign of the
    input and magnitude strictly below ``|z|``.
    """

    kind: ProxKind
    values: tuple[float, ...]

    @property
    def canonical(self) -> float:
        """One selected minimizer; the sparser branch ``0`` whenever it is in the set."""
        return self.values[0]

    @property
    def is_ambiguous(self) -> bool:
        return self.kind is ProxKind.PAIR


@dataclass(frozen=True)
class ZStarResult:
    """Outcome of the jump-point bisection.

    ``bracket`` is the a-priori root bracket ``(2*sqrt(lam)-eps, lam/eps)``;
    ``residual`` is ``|gap_r|`` at the returned point.  Bisection stops once
    the working bracket width or the residual falls below the tolerance, so
    the recorded residual is guaranteed small only up to the slope of the
    gap function (in practice it is far below the width tolerance).
    """

    z_star: float
    bracket: tuple[float, float]
    iterations: int
    residual: float


def q_objective(params: ProxParams, z: float, x: float) -> float:
    """Value of ``(x - z)^2 / (2*lam) + log(1 + |x|/eps)``."""
    return (x - z) ** 2 / (2.0 * params.lam) + math.log1p(abs(x) / params.eps)


def _root_discriminant(params: ProxParams, z: float) -> float:
    try:
        d = (z + params.eps) ** 2 / 4.0 - params.lam
    except OverflowError:
        raise DomainError(
            f"z={z!r} is too large: (z + eps)**2 overflows a double"
        ) from None
    if d < 0.0:
        if d >= -_DISC_CLAMP * max(1.0, params.lam):
            return 0.0
        raise DomainError(
            f"z={z!r} lies below the root bracket: need z >= "
            f"{max(params.bracket_low, 0.0)!r} for real stationary points"
        )
    return d


def r1(params: ProxParams, z: float) -> float:
    """Smaller root of ``x = z - lam/(eps + x)``; strictly decreasing in ``z``."""
    return 0.5 * (z - params.eps) - math.sqrt(_root_discriminant(params, z))


def r2(params: ProxParams, z: float) -> float:
    """Larger root of ``x = z - lam/(eps + x)``; strictly increasing in ``z``.

    This is the candidate nonzero prox value.  ``r2(lam/eps)`` is ``0`` in
    the convex regime and ``lam/eps - eps`` in the nonconvex regime.
    """
    return 0.5 * (z - params.eps) + math.sqrt(_root_discriminant(params, z))


def gap_r(params: ProxParams, z: float) -> float:
    """Tie gap ``q(r2(z)) - q(0)`` whose unique root is the jump point.

    Defined for the nonconvex regime on ``[2*sqrt(lam)-eps, lam/eps]``;
    positive at the left endpoint and negative at the right one.
    """
    if params.regime() is Regime.CONVEX:
        raise RegimeError(
            f"gap function needs sqrt(lam) > eps; got lam={params.lam}, eps={params.eps}"
        )
    lo, hi = params.bracket_low, params.threshold
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if not (lo - slack <= z <= hi + slack):
        raise DomainError(f"z={z!r} outside the bracket [{lo!r}, {hi!r}]")
    return q_objective(params, z, r2(params, z)) - q_objective(params, z, 0.0)


def z_star(
    params: ProxParams,
    tol: float | None = None,
    max_iter: int = DEFAULT_ZSTAR_MAX_ITER,
) -> ZStarResult:
    """Locate the prox jump point by bisection on the sign of :func:`gap_r`.

    The default tolerance is ``1e-13`` of the bracket width, floored at a
    few ulps of the bracket magnitude so the stop condition stays reachable
    even when the bracket is far narrower than the root itself.  Bisection
    reaches it in under 60 iterations.  The endpoint signs of ``gap_r`` are
    pinned analytically (positive at ``2*sqrt(lam)-eps``, negative at
    ``lam/eps``), so only midpoints are evaluated.

    Raises ``RegimeError`` when ``sqrt(lam) <= eps`` and ``ConvergenceError``
    if ``max_iter`` bisection steps do not meet the tolerance (or the
    bracket hits float resolution first, possible only for a sub-ulp ``tol``).
    """
    if params.regime() is Regime.CONVEX:
        raise RegimeError(
            f"no jump point when sqrt(lam) <= eps; got lam={params.lam}, eps={params.eps}"
        )
    lo, hi = params.bracket_low, params.threshold
    if tol is None:
        tol = max(1e-13 * (hi - lo), 4.0 * math.ulp(hi))
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    a, b = lo, hi
    for it in range(1, max_iter + 1):
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            raise ConvergenceError(
                f"bracket reached float resolution (width {b - a!r}) before tol={tol!r}"
            )
        resid = gap_r(params, mid)
        if resid > 0.0:
            a = mid
        else:
            b = mid
        if (b - a) <= tol or abs(resid) <= tol:
            return ZStarResult(z_star=mid, bracket=(lo, hi), iterations=it, residual=abs(resid))
    raise ConvergenceError(
        f"bisection did not reach tol={tol!r} within {max_iter} iterations "
        f"(bracket width {b - a!r})"
    )


@lru_cache(maxsize=None)
def _z_star_cached(lam: float, eps: float) -> float:
    return z_star(ProxParams(lam, eps)).z_star


def prox_scalar(params: ProxParams, z: float, pair_tol: float | None = None) -> ProxResult:
    """Global minimizer set of ``q`` at ``z``.

    Convex regime: ``{0}`` for ``|z| <= lam/eps`` (the boundary is
    classified as zero; both branches agree there), else
    ``{sgn(z) * r2(|z|)}``.

    Nonconvex regime: ``{0}`` for ``|z| < z_star``,
    ``{0, sgn(z) * r2(z_star)}`` for ``|z|`` within ``pair_tol`` of
    ``z_star`` (default ``1e-12 * max(1, z_star)``), else
    ``{sgn(z) * r2(|z|)}``.
    """
    if z == 0.0:
        return ProxResult(ProxKind.ZERO, (0.0,))
    a = abs(z)
    s = 1.0 if z > 0 else -1.0
    if params.regime() is Regime.CONVEX:
        if a <= params.threshold:
            return ProxResult(ProxKind.ZERO, (0.0,))
        return ProxResult(ProxKind.POINT, (s * r2(params, a),))
    zs = _z_star_cached(params.lam, params.eps)
    tol = 1e-12 * max(1.0, zs) if pair_tol is None else pair_tol
    if abs(a - zs) <= tol:
        return ProxResult(ProxKind.PAIR, (0.0, s * r2(params, zs)))
    if a < zs:
        return ProxResult(ProxKind.ZERO, (0.0,))
    return ProxResult(ProxKind.POINT, (s * r2(params, a),))
