"""Brute-force reference minimizer, independent of the closed forms.

The oracle locates the global minimizer of the scalar objective by dense
grid search plus zoomed refinement.  It never touches ``r1``/``r2`` or the
jump-point machinery, so agreement between the oracle and the closed-form
operator is genuine evidence.

Two precision details matter:

* Refinement rounds and the final comparison between candidate basins use
  the objective *difference* in an algebraically stabilized form
  (``(x-c)(x+c-2z)/(2*lam) + log1p((|x|-|c|)/(eps+|c|))``).  Comparing
  absolute objective values in double precision cannot localize a minimum
  better than ~sqrt(machine eps); the stabilized difference restores
  grid-spacing accuracy.
* Every round inserts ``x = 0`` as an extra candidate, since the penalty
  has a kink there.

Ties are broken toward smaller ``|x|``.  The search radius ``|z| + 1`` is
absolute, not a multiple of ``sqrt(lam)``, so the oracle is evidence for the
acceptance band (``lam``, ``eps`` and ``z`` near 1) only, not at every scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegimeError
from .scalar import ProxParams, Regime

__all__ = [
    "OracleConfig",
    "OracleProxInfo",
    "oracle_prox",
    "oracle_prox_info",
    "oracle_z_star",
]

# Fixed zoom of the refinement window per round, and the number of rounds.
_ZOOM = 100.0
_REFINE_ROUNDS = 3

# Two refined basins closer than this in objective value count as a tie
# (expected only at inputs sitting essentially on the jump point).
_NEAR_TIE_GAP = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Grid-search budget.

    The initial grid spans ``[-R, R]`` with ``R = |z| + 1``; each of the
    three refinement rounds shrinks the window 100x around the incumbent
    and re-grids it with the same number of points.
    """

    grid_points: int = 2_000_000

    def __post_init__(self):
        if self.grid_points < 1000:
            raise ValueError(f"grid_points must be >= 1000, got {self.grid_points}")

    def final_spacing(self, z: float) -> float:
        radius = abs(z) + 1.0
        return 2.0 * radius / _ZOOM**_REFINE_ROUNDS / (self.grid_points - 1)


@dataclass(frozen=True)
class OracleProxInfo:
    value: float
    final_spacing: float
    near_tie: bool


def _q_values(params: ProxParams, z: float, x: np.ndarray) -> np.ndarray:
    return (x - z) ** 2 / (2.0 * params.lam) + np.log1p(np.abs(x) / params.eps)


def _q_diff(params: ProxParams, z: float, x: np.ndarray, c: float) -> np.ndarray:
    # q(x) - q(c) without cancellation:
    #   (x-z)^2 - (c-z)^2 = (x-c)(x+c-2z)
    #   log1p(|x|/e) - log1p(|c|/e) = log1p((|x|-|c|)/(e+|c|))
    return (x - c) * (x + c - 2.0 * z) / (2.0 * params.lam) + np.log1p(
        (np.abs(x) - abs(c)) / (params.eps + abs(c))
    )


def _grid_argmin(x: np.ndarray, vals: np.ndarray) -> float:
    # smallest value; among exact ties, the point of smallest |x|
    return float(x[np.lexsort((np.abs(x), vals))[0]])


def oracle_prox_info(params: ProxParams, z: float, cfg: OracleConfig | None = None) -> OracleProxInfo:
    """Grid minimizer of the scalar objective, with resolution metadata."""
    if cfg is None:
        cfg = OracleConfig()
    radius = abs(z) + 1.0
    lo, hi = -radius, radius
    grid = np.append(np.linspace(lo, hi, cfg.grid_points), 0.0)
    q = _q_values(params, z, grid)

    # candidate basins: interior grid local minima, both endpoints and the
    # kink appended at index n, keyed by point so that a grid point equal to
    # 0.0 is seeded once; ranked by objective, then by |x|
    n = cfg.grid_points
    interior = np.where((q[1:-1] <= q[:-2]) & (q[1:-1] <= q[2:]))[0] + 1
    cand = {float(grid[i]): i for i in (*interior, 0, n - 1, n)}
    seeds = sorted(cand, key=lambda x: (float(q[cand[x]]), abs(x)))[:6]

    span0 = hi - lo
    refined: list[float] = []
    for seed in seeds:
        span, x = span0, seed
        for _ in range(_REFINE_ROUNDS):
            span /= _ZOOM
            # keep the incumbent in the candidate set so a refinement round
            # can never move to a worse point; each seed stays in its own
            # basin (the kink at 0 is always one of the seeds)
            g = np.append(
                np.linspace(max(lo, x - span / 2.0), min(hi, x + span / 2.0), cfg.grid_points),
                x,
            )
            x = _grid_argmin(g, _q_diff(params, z, g, x))
        refined.append(x)

    best = refined[0]
    tie_gap = math.inf
    basin_sep = 1e-6 * (1.0 + abs(z))
    for x in refined[1:]:
        if x == best:
            continue
        d = float(_q_diff(params, z, np.array([x]), best)[0])
        if abs(x - best) > basin_sep:  # only distinct basins count as a tie
            tie_gap = min(tie_gap, abs(d))
        if d < 0.0 or (d == 0.0 and abs(x) < abs(best)):
            best = x
    return OracleProxInfo(
        value=best,
        final_spacing=cfg.final_spacing(z),
        near_tie=tie_gap < _NEAR_TIE_GAP,
    )


def oracle_prox(params: ProxParams, z: float, cfg: OracleConfig | None = None) -> float:
    """Grid minimizer of the scalar objective (value only)."""
    return oracle_prox_info(params, z, cfg).value


def oracle_z_star(params: ProxParams, cfg: OracleConfig | None = None) -> float:
    """Jump point located purely from the oracle.

    Sweeps the bracket ``[2*sqrt(lam)-eps, lam/eps]`` for the z at which the
    grid minimizer jumps away from zero, then bisects on that indicator.
    The jump height is at least ``sqrt(lam)-eps``, so half of that is a safe
    detection cut.
    """
    if params.regime() is Regime.CONVEX:
        raise RegimeError(
            f"no jump point when sqrt(lam) <= eps; got lam={params.lam}, eps={params.eps}"
        )
    lo, hi = params.bracket_low, params.threshold
    cut = 0.5 * (math.sqrt(params.lam) - params.eps)

    def jumped(z: float) -> bool:
        return oracle_prox(params, z, cfg) > cut

    # coarse sweep to find a sign change of the indicator
    sweep = np.linspace(lo, hi, 17)
    a = lo
    b = None
    for z in sweep[1:]:
        if jumped(float(z)):
            b = float(z)
            break
        a = float(z)
    if b is None:  # jump sits in the last cell
        b = hi
    tol = 1e-8 * max(1.0, hi - lo)
    while (b - a) > tol:
        mid = 0.5 * (a + b)
        if jumped(mid):
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)
