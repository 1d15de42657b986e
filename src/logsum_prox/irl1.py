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
# r1 is not called here; it stays a module attribute: perfbench/tracing.py patches it by name
from .scalar import ProxParams, prox_scalar, r1, r2  # noqa: F401

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
DEFAULT_MAX_ITERS = 10**6
# The stop step and the match distance, in units of sqrt(lam): scaling lam by
# 4**j and z, eps, x0 by 2**j scales both exactly, as it scales the prox.
DEFAULT_STOP_TOL = 1e-12
_MATCH_TOL = 1e-8


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
    MID_X0 = "mid_x0"  # zx < z_star, that is r1(z_star) < x0
    KNIFE_EDGE_X0 = "knife_edge_x0"  # zx == z_star with x0 > 0: fails only at +/- z_star
    LOW_X0 = "low_x0"  # zx > z_star, that is x0 < r1(z_star); and x0 == 0


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
    settles the limit.  ``classification`` is ``R1_FIXED_POINT`` only on the
    knife edge ``|z| == x0 + lam/(eps + x0)``, where ``x0 == r1(|z|)``;
    otherwise it reports whether the limit is zero or the nonzero root.
    """

    limit: float
    classification: LimitKind
    justification: str


# What irl1_predict_limit returns, prebuilt: enum members, and one zero limit per sign and case tag.
_ZERO, _R1_FIXED_POINT, _R2 = LimitKind.ZERO, LimitKind.R1_FIXED_POINT, LimitKind.R2
_new = tuple.__new__  # builds irl1_predict_limit's records without NamedTuple's Python-level __new__
_ZEROS = {s: {tag: LimitPrediction(s * 0.0, _ZERO, tag) for tag in ("conv2", "conv4", "conv5", "conv6")}
          for s in (1.0, -1.0)}


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


def irl1_simulate(params: ProxParams, z: float, x0: float,
                  max_iters: int = DEFAULT_MAX_ITERS) -> IrlTrace:
    """Run the iteration from ``x0`` until a fixed point, tolerance, or the cap.

    Stops with ``FIXED_POINT_HIT`` on exact repetition, ``TOLERANCE_MET`` once
    ``|x_{k+1} - x_k| <= DEFAULT_STOP_TOL*sqrt(lam)`` (``1e-12*sqrt(lam)``), else
    ``MAX_ITERS``.  The limit estimate is the last iterate with the sign of ``z``
    restored.  A non-finite ``z`` raises ``PreconditionError``; a negative
    ``max_iters`` raises ``ValueError``.
    """
    x0 = _check_x0(x0)
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters!r}")
    a = abs(z)
    if not a < math.inf:
        raise PreconditionError(f"z must be finite, got {z!r}")
    z, a = float(z), float(a)
    stop_tol = DEFAULT_STOP_TOL * math.sqrt(params.lam)
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
            break
        x = nxt
    limit = iterates[-1] if z >= 0 else -iterates[-1]
    return IrlTrace(z=z, x0=x0, iterates=tuple(iterates), stop_reason=reason, limit_estimate=limit)


def irl1_predict_limit(params: ProxParams, z: float, x0: float) -> LimitPrediction:
    """Analytic limit of the iteration, without iterating.

    Case analysis on ``|z|`` against ``2*sqrt(lam)-eps`` and ``lam/eps``,
    and on ``x0`` against ``r1(|z|)``, which needs no root: ``r1`` decreases
    on the bracket, so for ``0 <= x0 < sqrt(lam)-eps``, ``x0 < r1(|z|)``
    exactly when ``|z| < zx = x0 + lam/(eps + x0)``, where ``r1(zx) == x0``:

    * ``conv2``: some iterate is exactly zero (in particular ``x0 == 0`` or
      ``z == 0``): limit 0 for ``|z| <= lam/eps``, else ``r2(|z|)``.
    * ``conv3``: ``x0 > 0`` and ``|z| >= lam/eps``: limit ``r2(|z|)``.
    * ``conv4``: ``0 < |z| < 2*sqrt(lam)-eps``: limit 0.
    * ``conv5``: convex regime, ``0 < |z| < lam/eps``, ``x0 > 0``: limit 0.
    * ``conv6``: nonconvex critical band ``2*sqrt(lam)-eps <= |z| < lam/eps``:
      for ``x0 < sqrt(lam)-eps``, limit 0 if ``|z| < zx`` and the unstable
      fixed point ``x0`` if ``|z| == zx``; otherwise ``r2(|z|)``.

    :func:`failure_intervals` forms the same double ``zx``.  A zero limit is
    one of eight shared records, one per sign and case tag: compare by
    value.  A non-finite ``z`` raises ``PreconditionError``.
    """
    if not 0.0 <= x0 < math.inf:
        _check_x0(x0)
    a = abs(z)
    if not a < math.inf:
        raise PreconditionError(f"z must be finite, got {z!r}")
    a, x0 = float(a), float(x0)
    s = 1.0 if z >= 0 else -1.0
    zeros = _ZEROS[s]  # every limit is s*magnitude, so a zero limit at negative z is -0.0
    if a == 0.0:
        return zeros["conv2"]
    if x0 == 0.0:
        if a <= params.threshold:
            return zeros["conv2"]
        return _new(LimitPrediction, (s * r2(params, a), _R2, "conv2"))
    if a >= params.threshold:
        lim = r2(params, a)
        return _new(LimitPrediction, (s * lim, _R2 if lim > 0 else _ZERO, "conv3"))
    if a < params.bracket_low:  # a > 0 here, so the bracket starts above 0
        return zeros["conv4"]
    if params._solve is None:
        return zeros["conv5"]
    if x0 < params.r1_max:
        zx = x0 + params.lam / (params.eps + x0)
        if a < zx:
            return zeros["conv6"]
        if a == zx:
            return _new(LimitPrediction, (s * x0, _R1_FIXED_POINT, "conv6"))
    return _new(LimitPrediction, (s * r2(params, a), _R2, "conv6"))


def failure_intervals(params: ProxParams, x0: float) -> FailureReport:
    """Exact inputs ``z`` on which the iteration limit misses the true prox.

    Convex regime: the iteration is always exact and the list is empty.
    Nonconvex regime, with ``top = sqrt(lam)-eps`` and ``zx = x0 + lam/(eps + x0)``,
    the ``z`` on the bracket with ``r1(z) == x0`` (``lam/eps`` at ``x0 = 0``).
    ``r1`` decreases there, so ``x0 > r1(z_star)`` exactly when ``zx < z_star``:

    * ``x0 >= top``:              fails on +/- [2*sqrt(lam)-eps, z_star)
    * ``x0 == 0 or zx > z_star``: fails on +/- (z_star, zx]
    * ``zx < z_star``:            fails on +/- [zx, z_star)
    * ``zx == z_star``:           fails exactly at +/- z_star

    The first case that holds applies, decided on the printed doubles, with
    no root.  Where a start within ulps of ``top`` or 0 rounds ``zx`` past
    a bracket end, the interval stops there (open at ``lam/eps`` for
    ``x0 > 0``, which is ``conv3``).  So outside the prox's pair window an
    input lies in an interval exactly when :func:`irl1_predict_limit` misses
    the prox.  The negative-side interval mirrors the positive one.
    """
    if not 0.0 <= x0 < math.inf:
        _check_x0(x0)
    x0 = float(x0)
    if params._solve is None:
        return FailureReport(x0, None, (), FailureCase.EXACT)
    zs, zx = params._solve.z_star, x0 + params.lam / (params.eps + x0)
    if x0 >= params.r1_max:
        pos, case = Interval(params.bracket_low, zs, True, False), FailureCase.HIGH_X0
    elif x0 == 0.0 or zx > zs:  # x0 = 0 is conv2's zero start
        hi = min(zx, params.threshold)
        pos, case = Interval(zs, hi, False, x0 == 0.0 or hi < params.threshold), FailureCase.LOW_X0
    elif zx < zs:
        pos, case = Interval(max(zx, params.bracket_low), zs, True, False), FailureCase.MID_X0
    else:
        pos, case = Interval(zs, zs, True, True), FailureCase.KNIFE_EDGE_X0
    lo, hi, lo_closed, hi_closed = pos  # pos.mirrored(), without the method call
    return FailureReport(x0, zs, (Interval(-hi, -lo, hi_closed, lo_closed), pos), case)


def limit_matches_prox(params: ProxParams, z: float, limit: float) -> bool:
    """Whether ``limit`` is within ``1e-8*sqrt(lam)`` of a member of the true minimizer set at ``z``."""
    limit = float(limit)  # prox_scalar converts z
    tol = _MATCH_TOL * math.sqrt(params.lam)
    return any(abs(limit - v) <= tol for v in prox_scalar(params, z).values)
