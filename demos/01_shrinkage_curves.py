"""Shape of the log-sum prox in both parameter regimes.

Tabulates prox values over a z grid for a convex-regime pair (2, 3) and a
nonconvex-regime pair (3, 1), and locates the qualitative landmarks: the
flat zero region, the jump (if any), and the near-identity tail.

Run:  python3 demos/01_shrinkage_curves.py
"""

import numpy as np

from logsum_prox import ProxParams, prox_scalar, prox_vector, r2, z_star

############################################################################
# Convex regime: sqrt(lam) <= eps.  The operator is continuous and single
# valued; it is exactly zero on [-lam/eps, lam/eps].
############################################################################

p = ProxParams(2.0, 3.0)
print(f"(lam, eps) = (2, 3): regime = {p.regime().value}, zero region = "
      f"[-{p.threshold:.4f}, {p.threshold:.4f}]")

grid = np.linspace(-6, 6, 25)
vals = prox_vector(p, grid).canonical
for z, v in zip(grid, vals):
    bar = "#" * int(round(abs(v) * 4))
    print(f"  z = {z:+6.2f}   prox = {v:+8.4f}  {bar}")

############################################################################
# Nonconvex regime: sqrt(lam) > eps.  The operator stays zero up to the
# jump point z_star and then jumps straight to r2(z_star).
############################################################################

p = ProxParams(3.0, 1.0)
zs = z_star(p)
print(f"\n(lam, eps) = (3, 1): regime = {p.regime().value}")
print(f"  jump point z_star = {zs.z_star:.12f}  (bracket {zs.bracket}, "
      f"{zs.iterations} solver steps)")
print(f"  jump height r2(z_star) = {r2(p, zs.z_star):.12f}")

for z in (0.5, 2.0, 2.5, zs.z_star, 2.6, 2.9, 4.0):
    res = prox_scalar(p, z)
    print(f"  prox({z:.6f}) = {res.values}   [{res.kind.value}]")

############################################################################
# Near-unbiasedness: far from the origin both curves hug the identity, the
# shrinkage decays like lam/(|z|+eps).
############################################################################

print("\nlarge-z behavior for (3, 1):")
for z in (10.0, 30.0, 100.0, 300.0):
    v = prox_scalar(p, z).canonical
    print(f"  z = {z:7.1f}   z - prox = {z - v:.6f}   lam/(z+eps) = {3.0/(z+1.0):.6f}")
