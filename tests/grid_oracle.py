"""Brute-force reference minimizer for the test suite, independent of the closed forms.

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

The grid of ``grid_points`` (at least 1000) spans ``[-R, R]``; each of three
refinement rounds shrinks the window 100x and re-grids it as finely.
"""

import math
from typing import NamedTuple

import numpy as np

from logsum_prox import ProxParams, Regime, RegimeError

# Fixed zoom of the refinement window per round, and the number of rounds.
_ZOOM = 100.0
_REFINE_ROUNDS = 3

# Two refined basins closer than this in objective value count as a tie
# (expected only at inputs sitting essentially on the jump point).
_NEAR_TIE_GAP = 1e-12


class OracleProxInfo(NamedTuple):
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
    # smallest value; among exact ties, the first point of smallest |x|
    ties = x[np.flatnonzero(vals == vals.min())]
    return float(ties[np.argmin(np.abs(ties))])


def oracle_prox_info(params: ProxParams, z: float, grid_points: int) -> OracleProxInfo:
    """Grid minimizer of the scalar objective, with resolution metadata."""
    if grid_points < 1000:
        raise ValueError(f"grid_points must be >= 1000, got {grid_points}")
    radius = abs(z) + 1.0
    lo, hi = -radius, radius
    grid = np.append(np.linspace(lo, hi, grid_points), 0.0)
    q = _q_values(params, z, grid)

    # candidate basins: interior grid local minima, both endpoints and the
    # kink appended at index n, keyed by point so that a grid point equal to
    # 0.0 is seeded once; ranked by objective, then by |x|
    n = grid_points
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
                np.linspace(max(lo, x - span / 2.0), min(hi, x + span / 2.0), grid_points),
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
        final_spacing=2.0 * radius / _ZOOM**_REFINE_ROUNDS / (grid_points - 1),
        near_tie=tie_gap < _NEAR_TIE_GAP,
    )


def oracle_z_star(params: ProxParams, grid_points: int) -> float:
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
        return oracle_prox_info(params, z, grid_points).value > cut

    # coarse sweep to find a sign change of the indicator; unless it finds
    # one earlier, the jump sits in the last cell
    a, b = lo, hi
    for z in np.linspace(lo, hi, 17)[1:]:
        if jumped(float(z)):
            b = float(z)
            break
        a = float(z)
    tol = 1e-8 * max(1.0, hi - lo)
    while (b - a) > tol:
        mid = 0.5 * (a + b)
        if jumped(mid):
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)
