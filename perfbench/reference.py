"""Independent references and output checks for the benchmark.

Nothing here imports ``logsum_prox``: every expected value is computed from
the mathematics of the log-sum prox, with numpy in double precision or with
mpmath at high precision.

The jump point is solved in a one-parameter form.  With ``x = eps*u`` the
stationarity equation gives ``z = eps*(u + c/(1+u))`` with ``c = lam/eps**2``,
and the tie gap ``q(x) - q(0)`` becomes

    g(u) = log1p(u) - u/(1+u) - u**2/(2*c),

which is positive at ``u = sqrt(c)-1`` and negative at ``u = c-1`` whenever
``c > 1``.  Its root ``u*`` gives ``z* = eps*(u* + c/(1+u*))`` and
``r2(z*) = eps*u*`` without squaring ``z`` or subtracting nearly equal
objective values, so it stays accurate far outside the band the tests
sample.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance on z* and on every returned value.
REL_TOL = 1e-9
# Relative tolerance on objective ties and on the first-order condition.
FOC_TOL = 1e-10


def _gap_u(u, c):
    return np.log1p(u) - u / (1.0 + u) - u * u / (2.0 * c)


def zstar_u(lam, eps):
    """Vectorized root ``u*`` of ``g`` for nonconvex pairs (``lam > eps**2``)."""
    lam = np.asarray(lam, dtype=float)
    eps = np.asarray(eps, dtype=float)
    c = lam / (eps * eps)
    lo = np.sqrt(c) - 1.0
    hi = c - 1.0
    for _ in range(100):
        geometric = hi > 4.0 * lo
        mid = np.where(geometric, np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi))
        pos = _gap_u(mid, c) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    return 0.5 * (lo + hi)


def zstar(lam, eps, u=None):
    """Vectorized jump point ``z*`` of nonconvex pairs (from ``u = zstar_u(lam, eps)``, if given)."""
    lam = np.asarray(lam, dtype=float)
    eps = np.asarray(eps, dtype=float)
    u = zstar_u(lam, eps) if u is None else u
    c = lam / (eps * eps)
    return eps * (u + c / (1.0 + u))


def zstar_mp(lam: float, eps: float, u0: float | None = None, dps: int = 30) -> float:
    """``z*`` from mpmath at ``dps`` digits, rounded to a double.

    Safeguarded Newton on ``g`` inside its bracket, started from ``u0``
    (by default the double-precision root, from which it converges in one or
    two steps).
    """
    import mpmath as mp

    with mp.workdps(dps):
        lam_m, eps_m = mp.mpf(lam), mp.mpf(eps)
        c = lam_m / eps_m**2
        lo, hi = mp.sqrt(c) - 1, c - 1

        def g(u):
            return mp.log1p(u) - u / (1 + u) - u * u / (2 * c)

        u = mp.mpf(float(zstar_u(lam, eps)) if u0 is None else u0)
        if not lo < u < hi:
            u = (lo + hi) / 2
        tiny = mp.mpf(10) ** (-dps + 5)
        for _ in range(400):
            gu = g(u)
            if gu == 0:
                break
            if gu > 0:
                lo = u
            else:
                hi = u
            nxt = u - gu / (u / (1 + u) ** 2 - u / c)
            if not lo < nxt < hi:
                nxt = (lo + hi) / 2
            done = abs(nxt - u) <= tiny * abs(u)
            u = nxt
            if done:
                break
        return float(eps_m * (u + c / (1 + u)))


def r2(lam, eps, a):
    """Larger stationary point ``(a-eps)/2 + sqrt(((a+eps)/2)**2 - lam)``; nan below the bracket."""
    a = np.asarray(a, dtype=float)
    h = 0.5 * (a + eps)
    s = np.sqrt(lam)
    with np.errstate(invalid="ignore"):
        return 0.5 * (a - eps) + np.sqrt((h - s) * (h + s))


def r1(lam, eps, a):
    """Smaller stationary point, by Vieta's formula ``(lam - a*eps)/r2`` to avoid cancellation."""
    a = np.asarray(a, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return (lam - a * eps) / r2(lam, eps, a)


def threshold(lam, eps, zs=None):
    """Input magnitude above which the prox is nonzero: ``z*`` (given as ``zs``, or
    solved for a scalar pair) or, if convex, ``lam/eps``."""
    if zs is not None:
        return zs
    if np.sqrt(lam) <= eps:
        return lam / eps
    return zstar(lam, eps)


def prox(lam, eps, z, zs=None):
    """Canonical prox (zero branch at a tie) of every entry of ``z``."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    keep = a > threshold(lam, eps, zs)
    x = np.where(keep, r2(lam, eps, np.where(keep, a, 2.0 * np.sqrt(lam) + eps)), 0.0)
    return np.sign(z) * x


def gap(lam, eps, a, x):
    """``q(x) - q(0)`` at input magnitude ``a`` for ``x >= 0``, in the stable form
    ``x*(x - 2a)/(2*lam) + log1p(x/eps)``."""
    return x * (x - 2.0 * a) / (2.0 * lam) + np.log1p(x / eps)


def prox_property_errors(lam, eps, z, x) -> np.ndarray:
    """Entries of ``x`` that break a property every prox output must have.

    Nonzero entries keep the sign of ``z``, shrink (``|x| < |z|``, up to rounding) and meet
    the first-order condition ``|x| = |z| - lam/(eps+|x|)``.  No entry has a
    worse objective than the other branch (zero against ``r2(|z|)``).
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    a, m = np.abs(z), np.abs(x)
    nz = m != 0.0
    bad = ~np.isfinite(x)
    # |x| == |z| only where the shrinkage lam/(eps+|x|) is below half an ulp of |z|
    shrinks = (m < a) | ((m == a) & (a - lam / (eps + m) == a))
    bad |= nz & ((np.sign(x) != np.sign(z)) | ~shrinks)
    foc = np.abs(m + lam / (eps + m) - a)
    bad |= nz & (foc > FOC_TOL * a)
    other = np.where(nz, 0.0, r2(lam, eps, a))
    has_other = np.isfinite(other) & (other > 0.0) | nz
    diff = np.where(nz, gap(lam, eps, a, m), -gap(lam, eps, a, np.nan_to_num(other)))
    scale = FOC_TOL * (1.0 + a * a / lam)
    bad |= has_other & (diff > scale)
    return bad


def prox_errors(lam, eps, z, x, zs=None) -> np.ndarray:
    """Entries of ``x`` that differ from the closed form or break a prox property."""
    ref = prox(lam, eps, z, zs)
    bad = np.abs(np.asarray(x, dtype=float) - ref) > REL_TOL * np.abs(z)
    return bad | prox_property_errors(lam, eps, z, x)


def odd_symmetry_errors(x, mirror) -> np.ndarray:
    """Entries whose mirrored input ``-z`` did not give exactly ``-x``."""
    x = np.asarray(x, dtype=float)
    return x[mirror] != -x


def irl1_limit(lam, eps, a, x0):
    """Limit of ``x <- max(a - lam/(eps+x), 0)`` from ``x0``, for arrays ``a, x0 >= 0``.

    The update map is increasing, so the iterates move monotonically to the
    nearest fixed point in the direction of the first step.  The fixed points
    are ``0`` (when ``a <= lam/eps``) and the nonnegative real roots ``r1``
    and ``r2``.  Inputs must keep clear of ``x0 == r1(a)``, the unstable
    fixed point.
    """
    a = np.asarray(a, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    t0 = np.maximum(a - lam / (eps + x0), 0.0)
    big = np.inf
    zero = np.where(a <= lam / eps, 0.0, np.nan)
    hi_root = r2(lam, eps, a)
    lo_root = r1(lam, eps, a)
    roots = np.stack([zero, lo_root, hi_root])
    roots = np.where(np.isfinite(roots) & (roots >= 0.0), roots, np.nan)
    up = t0 > x0
    above = np.where(roots >= x0, roots, big)
    below = np.where(roots <= x0, roots, -big)
    lim = np.where(up, np.min(above, axis=0), np.max(below, axis=0))
    return np.where(t0 == x0, x0, lim)


def read_matrix_file(path, fmt: str) -> np.ndarray:
    """Read a matrix file with numpy alone (the format is in the package docs)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if fmt == "bin":
        m, n = np.frombuffer(raw, dtype="<u8", count=2)
        return np.frombuffer(raw, dtype="<f8", offset=16).reshape(int(m), int(n))
    text = raw.decode("ascii")
    rows = text.count("\n")
    vals = np.array(text.replace("\n", ",").split(",")[:-1], dtype=float)
    return vals.reshape(rows, -1)


def write_matrix_file(path, x: np.ndarray, fmt: str) -> None:
    """Write a matrix file with numpy alone: 17-digit CSV, or a 16-byte header plus payload."""
    x = np.asarray(x, dtype=float)
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(np.array(x.shape, dtype="<u8").tobytes())
            fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())
    else:
        np.savetxt(path, x, fmt="%.17g", delimiter=",")
