"""Iteratively reweighted l1 iteration for the scalar prox, and its failure map.

The reweighted scheme linearizes the log penalty at the current iterate and
solves the resulting weighted soft-thresholding problem:

    x_{k+1} = 0                        if |z| <= lam/(eps + |x_k|)
    x_{k+1} = |z| - lam/(eps + |x_k|)  otherwise        (sign restored at the end)

The iteration always converges, but its limit depends on the start ``x0``
and can differ from the true prox.  This module simulates the iteration,
predicts its limit in closed form (tagged ``conv1``..``conv6`` by the
convergence argument that applies), and computes the exact set of inputs
``z`` on which the limit is not a global minimizer.

Negative ``z`` is handled by running the iteration at ``|z|`` and restoring
the sign of the limit, mirroring the odd symmetry of the prox.  Everything
here is pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import PreconditionError
from .scalar import ProxParams, Regime, _roots, _z_star_cached, prox_scalar, r1, r2

__all__ = [
    "StopReason",
    "LimitKind",
    "FailureCase",
    "IrlTrace",
    "LimitPrediction",
    "Interval",
    "FailureReport",
    "irl1_step",
    "irl1_simulate",
    "irl1_predict_limit",
    "failure_intervals",
    "limit_matches_prox",
]

# The contraction factor lam/((eps+a)(eps+b)) approaches 1 near the jump
# point, so honest simulation needs a generous iteration cap.
DEFAULT_STOP_TOL = 1e-12
DEFAULT_MAX_ITERS = 10**6

# Equality with r1-values is a measure-zero knife edge; resolved within this
# relative tolerance.
_R1_EQ_TOL = 1e-12


class StopReason(Enum):
    FIXED_POINT_HIT = "fixed_point_hit"
    TOLERANCE_MET = "tolerance_met"
    MAX_ITERS = "max_iters"


class LimitKind(Enum):
    ZERO = "zero"
    R1_FIXED_POINT = "r1_fixed_point"
    R2 = "r2"


class FailureCase(Enum):
    """Which failure pattern applies, keyed by the regime and the start value."""

    EXACT = "exact"  # convex regime: the iteration is always exact
    HIGH_X0 = "high_x0"  # x0 >= sqrt(lam) - eps
    MID_X0 = "mid_x0"  # r1(z_star) < x0 < sqrt(lam) - eps
    KNIFE_EDGE_X0 = "knife_edge_x0"  # x0 == r1(z_star): fails only at +/- z_star
    LOW_X0 = "low_x0"  # 0 <= x0 < r1(z_star)


class IrlTrace(NamedTuple):
    """Recorded trajectory, as a ``NamedTuple``.  ``iterates[0]`` is ``x0``;
    each later entry is the update of the one before it, bit-reproducibly."""

    z: float
    x0: float
    iterates: tuple[float, ...]
    stop_reason: StopReason
    limit_estimate: float


class LimitPrediction(NamedTuple):
    """Analytic limit of the iteration, as a ``NamedTuple``.

    ``justification`` names the convergence case (``conv1``..``conv6``) that
    settles the limit.  ``classification`` is ``R1_FIXED_POINT`` only in the
    knife-edge start ``x0 == r1(|z|)`` inside the nonconvex critical band;
    otherwise it reports whether the limit is zero or the nonzero root.
    """

    limit: float
    classification: LimitKind
    justification: str


class Interval(NamedTuple):
    """Real interval with explicit endpoint membership, as a ``NamedTuple``.

    Endpoint conventions follow the failure-set statements literally;
    membership of an endpoint is not testable in floating point and is
    excluded from the property tests.
    """

    lower: float
    upper: float
    lower_closed: bool
    upper_closed: bool

    def contains(self, x: float) -> bool:
        if x < self.lower or x > self.upper:
            return False
        if x == self.lower and not self.lower_closed:
            return False
        if x == self.upper and not self.upper_closed:
            return False
        return True

    def mirrored(self) -> "Interval":
        return Interval(-self.upper, -self.lower, self.upper_closed, self.lower_closed)

    def __str__(self) -> str:
        lb = "[" if self.lower_closed else "("
        ub = "]" if self.upper_closed else ")"
        return f"{lb}{self.lower!r}, {self.upper!r}{ub}"


class FailureReport(NamedTuple):
    """Union of intervals (symmetric about 0) where the iteration limit is not
    a global minimizer, for a given start ``x0``, as a ``NamedTuple``.  Empty
    in the convex regime; ``z_star`` is ``None`` there.  ``x0`` is always a
    ``float``."""

    x0: float
    z_star: float | None
    intervals: tuple[Interval, ...]
    case: FailureCase


def _check_x0(x0: float) -> float:
    if not (x0 >= 0 and math.isfinite(x0)):
        raise PreconditionError(f"x0 must be a finite nonnegative real, got {x0!r}")
    return float(x0)


def irl1_step(params: ProxParams, z: float, x_k: float) -> float:
    """One weighted soft-threshold update at threshold ``lam/(eps + x_k)``.

    Expects ``z >= 0`` and ``x_k >= 0`` (signs are handled by the simulate
    level).
    """
    t = params.lam / (params.eps + x_k)
    return 0.0 if z <= t else z - t


def irl1_simulate(
    params: ProxParams,
    z: float,
    x0: float,
    stop_tol: float = DEFAULT_STOP_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> IrlTrace:
    """Run the iteration from ``x0`` until a fixed point, tolerance, or the cap.

    Stops with ``FIXED_POINT_HIT`` on exact repetition, ``TOLERANCE_MET``
    once ``|x_{k+1} - x_k| <= stop_tol``, else ``MAX_ITERS``.  The limit
    estimate is the last iterate with the sign of ``z`` restored.  A
    non-finite ``z`` raises ``PreconditionError``; a negative ``max_iters``
    or ``stop_tol <= 0`` raises ``ValueError``.
    """
    x0 = _check_x0(x0)
    if not (stop_tol > 0):
        raise ValueError(f"stop_tol must be positive, got {stop_tol!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters!r}")
    a = abs(z)
    if not a < math.inf:
        raise PreconditionError(f"z must be finite, got {z!r}")
    iterates = [x0]
    reason = StopReason.MAX_ITERS
    x = x0
    for _ in range(max_iters):
        nxt = irl1_step(params, a, x)
        iterates.append(nxt)
        if nxt == x:
            reason = StopReason.FIXED_POINT_HIT
            break
        if abs(nxt - x) <= stop_tol:
            reason = StopReason.TOLERANCE_MET
            x = nxt
            break
        x = nxt
    limit = iterates[-1] if z >= 0 else -iterates[-1]
    return IrlTrace(z=z, x0=x0, iterates=tuple(iterates), stop_reason=reason, limit_estimate=limit)


def irl1_predict_limit(params: ProxParams, z: float, x0: float) -> LimitPrediction:
    """Analytic limit of the iteration, without iterating.

    Case analysis on ``|z|`` against ``2*sqrt(lam)-eps``, ``z_star`` and
    ``lam/eps``, and on ``x0`` against ``r1(|z|)``:

    * ``conv2``: some iterate is exactly zero (in particular ``x0 == 0`` or
      ``z == 0``): limit 0 for ``|z| <= lam/eps``, else ``r2(|z|)``.
    * ``conv3``: ``x0 > 0`` and ``|z| >= lam/eps``: limit ``r2(|z|)``.
    * ``conv4``: ``0 < |z| < 2*sqrt(lam)-eps``: limit 0.
    * ``conv5``: convex regime, ``0 < |z| < lam/eps``, ``x0 > 0``: limit 0.
    * ``conv6``: nonconvex critical band ``2*sqrt(lam)-eps <= |z| < lam/eps``:
      limit 0 if ``x0 < r1(|z|)``, the unstable fixed point ``r1(|z|)`` if
      ``x0`` equals it (within ``1e-12 * r1``), else ``r2(|z|)``.

    A non-finite ``z`` raises ``PreconditionError``.
    """
    if not 0.0 <= x0 < math.inf:
        _check_x0(x0)
    a = abs(z)
    if not a < math.inf:
        raise PreconditionError(f"z must be finite, got {z!r}")
    s = 1.0 if z >= 0 else -1.0
    # every limit is s*magnitude, so a zero limit at negative z is -0.0
    if a == 0.0:
        return LimitPrediction(s * 0.0, LimitKind.ZERO, "conv2")
    if x0 == 0.0:
        if a <= params.threshold:
            return LimitPrediction(s * 0.0, LimitKind.ZERO, "conv2")
        return LimitPrediction(s * r2(params, a), LimitKind.R2, "conv2")
    if a >= params.threshold:
        lim = r2(params, a)
        return LimitPrediction(s * lim, LimitKind.R2 if lim > 0 else LimitKind.ZERO, "conv3")
    lo = params.bracket_low
    if params._regime is Regime.CONVEX:
        return LimitPrediction(s * 0.0, LimitKind.ZERO, "conv4" if (lo > 0 and a < lo) else "conv5")
    if a < lo:
        return LimitPrediction(s * 0.0, LimitKind.ZERO, "conv4")
    r1a, r2a = _roots(params, a)
    if abs(x0 - r1a) <= _R1_EQ_TOL * abs(r1a):
        return LimitPrediction(s * r1a, LimitKind.R1_FIXED_POINT, "conv6")
    if x0 < r1a:
        return LimitPrediction(s * 0.0, LimitKind.ZERO, "conv6")
    return LimitPrediction(s * r2a, LimitKind.R2, "conv6")


def failure_intervals(params: ProxParams, x0: float) -> FailureReport:
    """Exact inputs ``z`` on which the iteration limit misses the true prox.

    Convex regime: the iteration is always exact and the list is empty.
    Nonconvex regime, with ``rs = r1(z_star)``, ``top = sqrt(lam)-eps`` and
    ``zx = x0 + lam/(eps + x0)``, the ``z`` on the bracket with ``r1(z) == x0``:

    * ``x0 >= top``:            fails on +/- [2*sqrt(lam)-eps, z_star)
    * ``rs < x0 < top``:        fails on +/- [zx, z_star)
    * ``x0 == rs`` (within ``1e-12 * rs``): fails exactly at +/- z_star
    * ``0 <= x0 < rs``:         fails on +/- (z_star, zx]

    The negative-side interval is the mirror image of the positive one.
    """
    if not 0.0 <= x0 < math.inf:
        _check_x0(x0)
    x0 = float(x0)
    if params._regime is Regime.CONVEX:
        return FailureReport(x0, None, (), FailureCase.EXACT)
    zs = _z_star_cached(params.lam, params.eps).z_star
    rs = r1(params, zs)
    if x0 >= params.r1_max:
        pos = Interval(params.bracket_low, zs, True, False)
        case = FailureCase.HIGH_X0
    elif abs(x0 - rs) <= _R1_EQ_TOL * rs:
        pos = Interval(zs, zs, True, True)
        case = FailureCase.KNIFE_EDGE_X0
    elif x0 > rs:
        pos = Interval(x0 + params.lam / (params.eps + x0), zs, True, False)
        case = FailureCase.MID_X0
    else:
        pos = Interval(zs, x0 + params.lam / (params.eps + x0), False, True)
        case = FailureCase.LOW_X0
    lo, hi, lo_closed, hi_closed = pos  # pos.mirrored(), without the method call
    return FailureReport(x0, zs, (Interval(-hi, -lo, hi_closed, lo_closed), pos), case)


def limit_matches_prox(params: ProxParams, z: float, limit: float, tol: float = 1e-8) -> bool:
    """Whether ``limit`` is a member of the true minimizer set at ``z``, within ``tol``."""
    res = prox_scalar(params, z)
    return any(abs(limit - v) <= tol for v in res.values)
