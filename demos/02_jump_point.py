"""Anatomy of the jump point z_star.

In the nonconvex regime the objective has two competing local minimizers,
0 and r2(z).  The tie gap  q(r2(z)) - q(0)  is positive at the
left end of the bracket and negative at the right end; its unique root is
where the global minimizer switches branches.  This script shows the sign
change and the solved jump point.  The independent brute-force confirmation
of that point is acceptance criterion 2 (tests/test_acceptance.py).

Run:  python3 demos/02_jump_point.py
"""

import numpy as np

from logsum_prox import ProxParams, prox_scalar, q_objective, r2, z_star


def tie_gap(p, z):
    """q(r2(z)) - q(0): positive where zero is the global minimizer."""
    return q_objective(p, z, r2(p, z)) - q_objective(p, z, 0.0)


p = ProxParams(3.0, 1.0)
lo, hi = p.bracket_low, p.threshold
print(f"bracket for the root: [{lo:.12f}, {hi:.12f}]")
print(f"gap at left endpoint  = {tie_gap(p, lo):+.12f}   (positive: zero wins)")
print(f"gap at right endpoint = {tie_gap(p, hi):+.12f}   (negative: r2 wins)")

print("\ntie gap across the bracket:")
for z in np.linspace(lo, hi, 11):
    g = tie_gap(p, float(z))
    print(f"  z = {z:.4f}   gap = {g:+.6f}   {'zero' if g > 0 else 'r2'} branch wins")

res = z_star(p)
print(f"\nsolve:              z_star = {res.z_star:.15f} "
      f"({res.iterations} iterations, residual {res.residual:.2e})")

# at the jump point both branches attain the same objective value
zs = res.z_star
pair = prox_scalar(p, zs)
print(f"\nprox at z_star: {pair.values}  [{pair.kind.value}]")
for v in pair.values:
    print(f"  q({v:.12f}) = {q_objective(p, zs, v):.15f}")

# just off the jump point the minimizer set is a singleton again
for dz in (-1e-6, 1e-6):
    res_off = prox_scalar(p, zs + dz)
    print(f"prox at z_star{dz:+.0e}: {res_off.values}  [{res_off.kind.value}]")

# ... and the nonzero branch value sits on r2
print(f"\nr2(z_star) = {r2(p, zs):.15f}")
