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
``q(r2(z)) - q(0)`` on [2*sqrt(lam)-eps, lam/eps].

The operator is scale covariant: with ``s = sqrt(lam)`` and ``c = eps/s``,
``prox(lam, eps; z) = s*prox(1, c; z/s)``, so ``z_star = s*Z(c)`` is a
function of one number.  :func:`z_star` solves for it in the coordinate
``t = (eps + r2)/s``, where the tie gap becomes
``g(t) = log(t) + log(1/c) - (t - c)^2/2 - 1 + c/t``, decreasing on
``t > 1`` with exactly one root ``t*`` when ``c < 1``.  Then
``z_star = s*(t* - c + 1/t*)``: no ``lam/eps`` is formed and no tolerance
is involved, so the solve holds over the whole double range.

All functions here are pure.  The ``z_star`` solve is memoized per
``(lam, eps)`` in one bounded ``lru_cache`` that :func:`z_star`,
:func:`prox_scalar` and ``irl1.failure_intervals`` all read, so a caller
that asks for the jump point and then applies the prox solves once.  The
cache has no lock of its own; the solve is deterministic, so two threads
that miss the cache together compute the identical value.  The module is
safe for concurrent use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, PreconditionError, RegimeError

__all__ = [
    "Regime",
    "ProxParams",
    "ProxKind",
    "ProxResult",
    "ZStarResult",
    "q_objective",
    "r1",
    "r2",
    "z_star",
    "prox_scalar",
]

# Discriminants in [-_DISC_CLAMP * lam, 0) are rounded up to zero so that z
# sitting exactly on the float representation of 2*sqrt(lam) - eps never
# fails.
_DISC_CLAMP = 1e-12

# The product of the roots lam - z*eps (for Vieta's formula) and the root
# discriminant are formed exact-rational where they fall below this share of
# lam, so that the roundings of their float forms cost at most 2**-39 relative.
_VIETA_CANCEL = 2.0**-12


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

    Three constants of the pair are attributes, not fields:

    * ``threshold = lam/eps``: the zero/nonzero threshold of the
      convex-regime prox;
    * ``bracket_low = 2*sqrt(lam) - eps``: below this ``|z|`` the
      stationarity equation has no real roots;
    * ``r1_max = sqrt(lam) - eps``: the largest value of ``r1`` on the
      bracket, taken at ``bracket_low``.
    """

    lam: float
    eps: float

    def __post_init__(self):
        if not (isinstance(self.lam, (int, float)) and math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be a positive finite real, got {self.lam!r}")
        if not (isinstance(self.eps, (int, float)) and math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be a positive finite real, got {self.eps!r}")
        lam, eps = float(self.lam), float(self.eps)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "eps", eps)
        # Constants of the pair, derived once: every call on it reads them.
        # Plain attributes, not fields, so repr, ==, hash and fields() see
        # (lam, eps) only; dataclasses.replace re-runs this method.
        s = math.sqrt(lam)
        object.__setattr__(self, "_convex", s <= eps)  # a bool, so a regime check is one attribute test
        object.__setattr__(self, "_disc_cut", _VIETA_CANCEL * lam)  # see _root_radius
        object.__setattr__(self, "threshold", lam / eps)
        object.__setattr__(self, "bracket_low", 2.0 * s - eps)
        object.__setattr__(self, "r1_max", s - eps)

    def regime(self) -> Regime:
        return Regime.CONVEX if self._convex else Regime.NONCONVEX


class ProxKind(Enum):
    ZERO = "zero"
    POINT = "point"
    PAIR = "pair"


class ProxResult(NamedTuple):
    """Minimizer set of ``q``: at most two points, as a ``NamedTuple``.

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


class ZStarResult(NamedTuple):
    """Outcome of the jump-point solve, as a ``NamedTuple``.

    ``z_star`` has a relative error of at most ``1e-14`` for every
    ``c = eps/sqrt(lam) < 1``, also as ``c`` nears 1, where the root of the
    tie gap turns double.  ``bracket`` is the
    a-priori root bracket ``(2*sqrt(lam)-eps, lam/eps)`` in z-units (its
    upper end is ``inf`` where ``lam/eps`` overflows).  ``iterations``
    counts the evaluations of ``g`` (at most 64) and ``residual`` is
    ``|g(t*)|`` at the returned point, which has no units.
    """

    z_star: float
    bracket: tuple[float, float]
    iterations: int
    residual: float


def q_objective(params: ProxParams, z: float, x: float) -> float:
    """Value of ``(x - z)^2 / (2*lam) + log(1 + |x|/eps)``."""
    d = x - z
    # halved after the division (exact above the subnormal range), so 2*lam cannot overflow
    quad = 0.5 * (d * d / params.lam)
    if quad == math.inf:  # d or d*d overflowed, which the quotient need not
        h = 0.5 * x - 0.5 * z  # d/2, finite wherever x and z are
        quad = 2.0 * (abs(h) / params.lam * abs(h))
    a = abs(x)
    u = a / params.eps
    if u == math.inf:  # a/eps overflowed, so eps < 1 and eps + a cannot
        return quad + (math.log(params.eps + a) - math.log(params.eps))
    return quad + math.log1p(u)


def _root_radius(params: ProxParams, z: float) -> float:
    """``sqrt((z + eps)^2/4 - lam)``, half the distance from ``r1(z)`` to ``r2(z)``.

    The square is a product, never ``**``: CPython's ``**`` calls the C
    library's ``pow``, which can round differently from numpy's squaring.
    Where the discriminant cancels (below ``_VIETA_CANCEL*lam``), it is formed
    exactly from ``z``, ``eps`` and ``lam`` and rounded once.
    """
    t = z + params.eps
    d = t * t / 4.0 - params.lam
    if d == math.inf:
        # t*t overflowed: take h = |z + eps|/2 out of the root, h*sqrt((1 - s/h)*(1 + s/h))
        h = abs(0.5 * z + 0.5 * params.eps)
        q = math.sqrt(params.lam) / h
        w = (1.0 - q) * (1.0 + q)
        if w >= 0.0:
            return h * math.sqrt(w)
        if w >= -_DISC_CLAMP * q * q:
            return 0.0
        raise _below_bracket(params, z)
    if d < params._disc_cut:
        (zn, zd), (en, ed) = float(z).as_integer_ratio(), params.eps.as_integer_ratio()
        ln, ld = params.lam.as_integer_ratio()
        tn, td = zn * ed + en * zd, zd * ed  # z + eps = tn/td
        d = (tn * tn * ld - 4 * ln * td * td) / (4 * ld * td * td)  # int / int rounds correctly
        if d < 0.0:
            if d >= -_DISC_CLAMP * params.lam:
                return 0.0
            raise _below_bracket(params, z)
    return math.sqrt(d)


def _below_bracket(params: ProxParams, z: float) -> DomainError:
    return DomainError(
        f"z={z!r} lies below the root bracket: need z >= "
        f"{max(params.bracket_low, 0.0)!r} for real stationary points"
    )


def _roots(params: ProxParams, z: float) -> tuple[float, float]:
    """``(r1(z), r2(z))`` from one root radius; a root that ``(z - eps)/2 -/+ sqrt(...)``
    cancels (``r2`` below ``eps``, ``r1`` below ``(z - eps)/32``) is taken from the other."""
    half = 0.5 * z - 0.5 * params.eps  # halved first, so z - eps cannot overflow
    rad = _root_radius(params, z)
    r1_z = half - rad
    if z < params.eps:
        return r1_z, _by_vieta(params, z, r1_z)
    r2_z = half + rad
    if r1_z < 0.0625 * half:
        r1_z = _by_vieta(params, z, r2_z)
    return r1_z, r2_z


def r1(params: ProxParams, z: float) -> float:
    """Smaller root of ``x = z - lam/(eps + x)``; strictly decreasing in ``z``.

    Near ``lam/eps``, where ``(z - eps)/2 - sqrt(...)`` cancels, it is taken
    by Vieta's formula from ``r2``: for every ``eps/sqrt(lam) < 1`` its
    relative error there is below ``1e-11``, and its sign is right on either
    side.
    """
    return _roots(params, z)[0]


def r2(params: ProxParams, z: float) -> float:
    """Larger root of ``x = z - lam/(eps + x)``; strictly increasing in ``z``.

    This is the candidate nonzero prox value.  ``r2(lam/eps)`` is ``0`` in
    the convex regime and ``lam/eps - eps`` in the nonconvex regime.  Below
    ``eps``, where ``(z - eps)/2 + sqrt(...)`` cancels, it is taken by
    Vieta's formula from ``r1``, so its sign is right even one double above
    ``lam/eps``.
    """
    # _roots(params, z)[1], spelled out: the prox calls r2 once per element
    half = 0.5 * z - 0.5 * params.eps
    rad = _root_radius(params, z)
    if z < params.eps:
        return _by_vieta(params, z, half - rad)
    return half + rad


def _by_vieta(params: ProxParams, z: float, other: float) -> float:
    """One root as ``(lam - z*eps)/other``, from the nonzero root ``other`` that does not cancel.

    ``lam - z*eps`` is the product of the roots.  Where it cancels (near
    ``lam/eps``, where it is below ``_VIETA_CANCEL*lam``) or ``z*eps``
    overflows, the quotient is taken in exact rational arithmetic and
    rounded once.
    """
    lam, eps = params.lam, params.eps
    num = lam - z * eps
    if _VIETA_CANCEL * lam <= abs(num) < math.inf or not math.isfinite(other):
        return num / other
    (ln, ld), (zn, zd), (en, ed) = lam.as_integer_ratio(), z.as_integer_ratio(), eps.as_integer_ratio()
    rn, rd = other.as_integer_ratio()
    # (ln/ld - zn*en/(zd*ed)) / (rn/rd); int / int rounds correctly
    return ((ln * zd * ed - zn * en * ld) * rd) / (ld * zd * ed * rn)


def z_star(params: ProxParams) -> ZStarResult:
    """Locate the prox jump point; see :class:`ZStarResult` for its accuracy.

    With ``s = sqrt(lam)``, ``c = eps/s`` and ``L = log(1/c)`` the root
    ``t*`` of ``g(t) = log(t) + L - (t - c)^2/2 - 1 + c/t`` lies in
    ``[1, 2 + sqrt(2*(L + 1))]``, where ``g`` decreases from ``g(1) > 0``.
    Newton steps that leave the shrinking sign bracket are replaced by
    bisection, and the solve stops once ``|g|`` is down to the rounding
    error of its terms, a few ulps from the root.  The result is cached per
    ``(lam, eps)``.

    Raises ``RegimeError`` when ``sqrt(lam) <= eps``.
    """
    if params._convex:
        raise RegimeError(
            f"no jump point when sqrt(lam) <= eps; got lam={params.lam}, eps={params.eps}"
        )
    return _z_star_cached(params.lam, params.eps)


@lru_cache(maxsize=1024)  # bounded: a miss costs one solve of a few microseconds
def _z_star_cached(lam: float, eps: float) -> ZStarResult:
    s = math.sqrt(lam)
    c = eps / s
    # L = log(1/c) from c itself, so that L and c agree to an ulp and the
    # near-double root at c -> 1 keeps its accuracy; once c underflows, from
    # the inputs' logs, where L > 708 swamps their rounding.
    L = -math.log(c) if c >= sys.float_info.min else math.log(s) - math.log(eps)
    lo, hi = 1.0, 2.0 + math.sqrt(2.0 * (L + 1.0))
    if c > 0.5:
        # t* = 1 + d/2 + 9*d**2/32 + O(d**3) near the double root at d = 1 - c = 0;
        # the start stays above 1, where g' vanishes
        d = 1.0 - c
        t = 1.0 + max(0.5 * d * (1.0 + 0.5625 * d), 2.0**-52)
    else:
        t = c + math.sqrt(2.0 * L)  # leading term of t* = c + sqrt(2*(L - 1 + log t* + c/t*))
    for it in range(1, 65):
        u = t - c
        log_t = math.log(t)
        # g(t), with -1 + c/t written as -u/t so that no term cancels near c = 1
        g = log_t + L - 0.5 * u * u - u / t
        if abs(g) <= 4.0 * sys.float_info.epsilon * (log_t + L + 0.5 * u * u + u / t):
            break
        if g > 0.0:
            lo = t
        else:
            hi = t
        t_next = t - g * t * t / (u * (1.0 - t * t))  # g' = u*(1 - t*t)/t**2 < 0
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
            if not lo < t_next < hi:  # the bracket is down to adjacent doubles
                break
        t = t_next
    else:
        raise ConvergenceError(f"jump-point solve did not settle in 64 steps (lam={lam!r}, eps={eps!r})")
    return ZStarResult(s * (u + 1.0 / t), (2.0 * s - eps, lam / eps), it, abs(g))


def prox_scalar(params: ProxParams, z: float) -> ProxResult:
    """Global minimizer set of ``q`` at ``z``, by the rule of :func:`_prox_values`.

    One rule for both regimes: ``{0}`` below the jump, ``{0, sgn(z) * r2(jump)}``
    on it and ``{sgn(z) * r2(|z|)}`` above it.  Nonconvex: the jump is
    ``z_star``, and on it means within ``1e-12 * z_star``.  Convex: the jump
    is ``lam/eps``, classified as zero (both branches agree there), so no
    input is on it.

    Raises ``PreconditionError`` for a non-finite ``z``.
    """
    if not abs(z) < math.inf:
        raise PreconditionError(f"z must be finite, got {z!r}")
    (value,), pairs, jump = _prox_values(params, [z])
    if pairs:
        other = r2(params, jump)
        return ProxResult(ProxKind.PAIR, (0.0, other if z > 0 else -other))
    # r2 is nonzero wherever the rule takes it: above lam/eps, or at or above z_star
    return ProxResult(ProxKind.ZERO if value == 0.0 else ProxKind.POINT, (value,))


def _prox_values(params: ProxParams, zs: list[float]) -> tuple[list[float], list[int], float]:
    """Canonical prox value of each float in ``zs``, the positions on the jump point, and the jump.

    The branch rule, written once for every elementwise path and both
    regimes: zero where ``|z| - jump <= above``, a pair (canonical zero)
    where also ``jump - |z| <= below``, otherwise ``sgn(z) * r2(|z|)``.
    Convex: ``jump = lam/eps``, ``above = 0`` (the boundary is zero) and
    ``below = -1``, so no pair.  Nonconvex: ``jump = z_star`` and
    ``above = below = 1e-12 * z_star``.  Near the jump ``|z| - jump`` is
    exact, and distinct doubles never subtract to zero.  A plain loop over
    Python floats, with no object per element.
    """
    if params._convex:
        jump, above, below = params.threshold, 0.0, -1.0
    else:
        jump = _z_star_cached(params.lam, params.eps).z_star
        above = below = 1e-12 * jump
    values: list[float] = []
    pairs: list[int] = []
    append = values.append
    for z in zs:
        a = abs(z)
        if a - jump <= above:
            if jump - a <= below:
                pairs.append(len(values))
            append(0.0)
        elif z > 0:
            append(r2(params, a))
        else:
            append(-r2(params, a))
    return values, pairs, jump
