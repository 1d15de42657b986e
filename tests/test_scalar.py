"""Scalar operator: parameters, roots, tie gap, jump point, prox."""

import dataclasses
import math
import re
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from logsum_prox import (
    DomainError,
    PreconditionError,
    ProxKind,
    ProxParams,
    Regime,
    RegimeError,
    failure_intervals,
    irl1_predict_limit,
    irl1_simulate,
    limit_matches_prox,
    prox_scalar,
    q_objective,
    r1,
    r2,
    z_star,
)
from logsum_prox import scalar

P31 = ProxParams(3.0, 1.0)
P23 = ProxParams(2.0, 3.0)

# Frozen references, computed once with mpmath at 50 digits (bisection on the
# exact tie gap / direct evaluation of the closed forms).
Z_STAR_31 = 2.571083193225166
R1_AT_ZSTAR_31 = 0.3517688528471269
R2_AT_ZSTAR_31 = 1.219314340378039
GAP_LEFT_31 = 0.03734001604663971
GAP_RIGHT_31 = -0.23472104466522364
Q_31_27_15 = 1.156290731874155
R1_31_2577 = 0.3427060453527886
R2_23_5 = 1.0 + math.sqrt(14.0)
PROX_31_29 = 1.8458236433584458


def tie_gap(p, z):
    """The tie gap ``q(r2(z)) - q(0)`` in z-units; its unique root is the jump point."""
    return q_objective(p, z, r2(p, z)) - q_objective(p, z, 0.0)


params_st = st.builds(
    ProxParams,
    st.floats(0.01, 100.0),
    st.floats(0.01, 10.0),
)


class TestProxParams:
    @pytest.mark.parametrize("lam,eps", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                                         (float("nan"), 1.0), (1.0, float("inf"))])
    def test_rejects_nonpositive(self, lam, eps):
        with pytest.raises(ValueError):
            ProxParams(lam, eps)

    @pytest.mark.parametrize("lam,eps", [(np.float32(3.0), 1.0), (np.int64(3), 1), (3.0, np.float64(1.0)),
                                         (np.float16(3.0), np.uint8(1)), (Fraction(3), 1.0)])
    def test_accepts_every_real_type(self, lam, eps):
        p = ProxParams(lam, eps)
        assert type(p.lam) is float and type(p.eps) is float
        assert p == P31 and p._rule == P31._rule

    @pytest.mark.parametrize("lam,eps", [("3", 1.0), (3.0, "1"), (None, 1.0), (3.0, None),
                                         (3.0 + 0j, 1.0), (3.0, np.complex128(1.0))])
    def test_rejects_non_reals(self, lam, eps):
        with pytest.raises(ValueError, match="must be a positive finite real"):
            ProxParams(lam, eps)

    def test_regime_split(self):
        assert P23.regime() is Regime.CONVEX
        assert P31.regime() is Regime.NONCONVEX
        # boundary sqrt(lam) == eps is classified convex
        assert ProxParams(4.0, 2.0).regime() is Regime.CONVEX
        assert ProxParams(4.0001, 2.0).regime() is Regime.NONCONVEX

    def test_derived_landmarks(self):
        assert P31.threshold == 3.0
        assert P31.bracket_low == pytest.approx(2.0 * math.sqrt(3.0) - 1.0, abs=1e-15)
        assert P23.threshold == pytest.approx(2.0 / 3.0, abs=1e-16)

    def test_derived_constants_are_not_fields(self):
        # the pair's constants are stored beside the fields, not as fields
        assert [f.name for f in dataclasses.fields(ProxParams)] == ["lam", "eps"]
        assert repr(P31) == "ProxParams(lam=3.0, eps=1.0)"
        assert ProxParams(3, 1) == P31 and hash(P31) == hash((3.0, 1.0))
        assert ProxParams(3.0, 2.0) != P31
        q = dataclasses.replace(P31, eps=2.0)  # sqrt(3) <= 2
        assert q.regime() is Regime.CONVEX
        assert (q.threshold, q.bracket_low, q.r1_max) == (1.5, 2.0 * math.sqrt(3.0) - 2.0, math.sqrt(3.0) - 2.0)
        assert q._solve is None and q._rule == (1.5, 0.0, -1.0)
        # replace re-solves the jump point; the solve record stays outside the fields
        r = dataclasses.replace(q, eps=0.5)
        assert r._solve == z_star(ProxParams(3.0, 0.5)) and r._solve != z_star(P31)
        assert r._rule == (r._solve.z_star, 1e-12 * r._solve.z_star, 1e-12 * r._solve.z_star)
        assert repr(r) == "ProxParams(lam=3.0, eps=0.5)"
        assert r == ProxParams(3.0, 0.5) and hash(r) == hash((3.0, 0.5))
        assert [f.name for f in dataclasses.fields(r)] == ["lam", "eps"]

    @given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
    @settings(max_examples=200, deadline=None)
    def test_derived_constants_over_the_double_range(self, log_lam, log_eps):
        lam, eps = 10.0**log_lam, 10.0**log_eps
        p = ProxParams(lam, eps)
        assert p.regime() is (Regime.CONVEX if math.sqrt(lam) <= eps else Regime.NONCONVEX)
        assert p.threshold == lam / eps  # inf where the quotient overflows
        assert p.bracket_low == 2.0 * math.sqrt(lam) - eps
        assert p.r1_max == math.sqrt(lam) - eps

    @given(params_st)
    @settings(max_examples=100, deadline=None)
    def test_regime_partitions_all_params(self, p):
        expected = Regime.CONVEX if math.sqrt(p.lam) <= p.eps else Regime.NONCONVEX
        assert p.regime() is expected


class TestQObjective:
    def test_vanishes_at_origin_input(self):
        assert q_objective(P23, 0.0, 0.0) == 0.0

    def test_log_term_vanishes_at_zero(self):
        assert q_objective(P31, 2.7, 0.0) == pytest.approx(2.7**2 / 6.0, abs=1e-15)

    def test_generic_point_against_high_precision(self):
        # frozen from a 50-digit evaluation of the same formula
        assert q_objective(P31, 2.7, 1.5) == pytest.approx(Q_31_27_15, abs=1e-14)

    def test_finite_everywhere(self):
        for x in (-1e8, -3.2, 0.0, 1e-12, 7.0, 1e8):
            assert math.isfinite(q_objective(P31, 2.0, x))

    @pytest.mark.parametrize("z, x", [(1e156, 0.0), (1e156, 9.999e155), (0.0, -1e156)])
    def test_finite_where_square_or_quotient_overflows(self, z, x):
        # (x - z)**2 or |x|/eps overflows a double here; the objective does not
        p = ProxParams(1e308, 1e-300)
        with mp.workdps(60):
            want = (mpf(x) - mpf(z)) ** 2 / (2 * mpf(p.lam)) + mp.log(1 + abs(mpf(x)) / mpf(p.eps))
        assert abs(q_objective(p, z, x) - want) <= 1e-14 * want

    @pytest.mark.parametrize("z, x", [(-1e308, 1e308), (1e308, -1e308)])
    def test_finite_where_the_difference_overflows(self, z, x):
        # x - z overflows a double here; the objective, 1.18e308, does not
        p = ProxParams(1.7e308, 1.0)
        with mp.workdps(60):
            want = (mpf(x) - mpf(z)) ** 2 / (2 * mpf(p.lam)) + mp.log(1 + abs(mpf(x)) / mpf(p.eps))
        assert abs(q_objective(p, z, x) - want) <= 1e-14 * want


class TestRoots:
    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("params", [P31, P23])
    @pytest.mark.parametrize("call, name", [
        (r1, "z"),
        (r2, "z"),
        (lambda p, v: q_objective(p, v, 1.0), "z"),
        (lambda p, v: q_objective(p, 1.0, v), "x"),
    ], ids=["r1", "r2", "q_objective_z", "q_objective_x"])
    def test_rejects_nonfinite_argument(self, call, name, params, v):
        # an error, never a silent nan or inf
        with pytest.raises(PreconditionError, match=rf"^{name} must be finite, got {re.escape(repr(v))}$"):
            call(params, v)

    def test_double_root_at_bracket_edge(self):
        # the discriminant is a tiny negative float here; the clamp must absorb it
        z_edge = 2.0 * math.sqrt(3.0) - 1.0
        expected = math.sqrt(3.0) - 1.0
        assert r1(P31, z_edge) == pytest.approx(expected, abs=1e-12)
        assert r2(P31, z_edge) == pytest.approx(expected, abs=1e-12)

    def test_r1_zero_at_threshold_nonconvex(self):
        assert r1(P31, 3.0) == 0.0

    def test_r1_generic_value_and_fixed_point(self):
        v = r1(P31, 2.577)
        assert v == pytest.approx(R1_31_2577, abs=1e-13)
        # both roots solve x + lam/(eps + x) = z
        assert v + 3.0 / (1.0 + v) == pytest.approx(2.577, abs=1e-12)

    def test_r2_zero_at_threshold_convex(self):
        assert abs(r2(P23, 2.0 / 3.0)) <= 1e-15

    def test_r2_values(self):
        assert r2(P23, 5.0) == pytest.approx(R2_23_5, rel=1e-15)
        assert r2(P31, 2.5) == 1.0  # discriminant 0.0625 is exact in binary

    def test_r2_fixed_point_identity(self):
        for z in (2.5, 2.7, 3.0, 8.0):
            v = r2(P31, z)
            assert v + 3.0 / (1.0 + v) == pytest.approx(z, abs=1e-12)

    def test_domain_error_below_bracket(self):
        with pytest.raises(DomainError):
            r1(P31, 2.0)
        with pytest.raises(DomainError):
            r2(P31, 0.0)

    @pytest.mark.parametrize("lam, eps, z", [
        (1e308, 1e-300, 1e156),
        (1e308, 1e-300, 4.58082494322124e155),  # near z_star there
        (1e308, 1e-300, 1.7e308),
        (3.0, 1.0, 1e160),
        (1e300, 1.0, 3e154),
        (1e308, 1e-300, 2.0 * math.sqrt(1e308) * (1 + 1e-3)),  # inside the bracket edge
    ])
    def test_roots_where_the_square_overflows(self, lam, eps, z):
        # (z + eps)**2 overflows a double; the scaled root keeps r1 and r2 accurate
        p = ProxParams(lam, eps)
        with mp.workdps(60):
            c = (mpf(z) - eps) / 2
            radius = mp.sqrt((mpf(z) + eps) ** 2 / 4 - lam)
            assert abs(r2(p, z) - (c + radius)) <= 1e-14 * (c + radius)
            assert abs(r1(p, z) - (c - radius)) <= 1e-14 * (c + radius)

    def test_negative_z_where_z_minus_eps_overflows(self):
        # z - eps overflows here; the roots halve each term first
        lam, eps, z = 1e300, 1.7e308, -1e308
        p = ProxParams(lam, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got1, got2 = r1(p, z), r2(p, z)
        with mp.workdps(60):
            c = (mpf(z) - eps) / 2
            radius = mp.sqrt((mpf(z) + eps) ** 2 / 4 - lam)
            assert abs(got1 - (c - radius)) <= 1e-14 * abs(c - radius)  # about -1.7e308
            assert abs(got2 - (c + radius)) <= 1e-14 * abs(c + radius)  # about -1.0e308

    @given(st.floats(2.0**-1020, 1.7976931348623157e308), st.booleans(),
           st.floats(2.0**-1020, 1.7976931348623157e308))
    @settings(max_examples=500, deadline=None)
    def test_halving_first_keeps_the_bits(self, a, negative, eps):
        # above the subnormal range both halvings are exact, so 0.5*z - 0.5*eps
        # rounds once to the same double as 0.5*(z - eps) wherever z - eps is finite
        z = -a if negative else a
        assume(math.isfinite(z - eps))
        assert (0.5 * z - 0.5 * eps).hex() == (0.5 * (z - eps)).hex()

    def test_overflowing_square_below_bracket(self):
        p = ProxParams(1e308, 1e-300)
        edge = 2.0 * math.sqrt(1e308)  # (edge + eps)**2 overflows
        assert r2(p, edge) == r1(p, edge) == pytest.approx(math.sqrt(1e308), rel=1e-15)
        with pytest.raises(DomainError, match="below the root bracket"):
            r2(p, 0.75 * edge)

    @example(lam=0.25, eps=0.5, zs=[15.975627167855432])  # z + eps squares wrongly by pow()
    @example(lam=92.98149886228654, eps=1.32626880757148, zs=[17.959588809088643])  # the discriminant cancels
    @given(st.floats(0.01, 100.0), st.floats(0.01, 10.0), st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_r2_matches_the_numpy_elementwise_form(self, lam, eps, zs):
        # numpy squares by multiplication; so must r2, for an array kernel to match it bit for bit
        p = ProxParams(lam, eps)
        z = np.array(zs)
        disc = (z + eps) ** 2 / 4.0 - lam
        z, disc = z[disc >= 0.0], disc[disc >= 0.0]
        half, rad = 0.5 * (z - eps), np.sqrt(disc)
        # where the discriminant cancels (below 2**-12 * lam), exactly from z, eps and lam, rounded once
        for i in np.flatnonzero(disc < 2.0**-12 * lam):
            rad[i] = math.sqrt(max(float((Fraction(z[i]) + Fraction(eps)) ** 2 / 4 - Fraction(lam)), 0.0))
        # below eps by Vieta, r2 = (lam - z*eps)/r1; where lam - z*eps cancels, in exact arithmetic
        num, below = lam - z * eps, z < eps
        want = half + rad
        want[below] = num[below] / (half - rad)[below]
        for i in np.flatnonzero(below & (np.abs(num) < 2.0**-12 * lam)):
            want[i] = float((Fraction(lam) - Fraction(z[i]) * Fraction(eps)) / Fraction(half[i] - rad[i]))
        assert [r2(p, v) for v in z.tolist()] == want.tolist()

    def test_convex_sign_just_above_the_threshold(self):
        # (z - eps)/2 + sqrt(...) cancels below eps; r2 by Vieta keeps the sign of the
        # prox one to three doubles above lam/eps, where the true value is tiny but positive
        rng = np.random.default_rng(31)
        for _ in range(2000):
            eps = 10.0 ** rng.uniform(-100, 100)
            p = ProxParams((eps * 10.0 ** rng.uniform(-6, 0)) ** 2, eps)
            if p.regime() is not Regime.CONVEX:
                continue
            z = p.threshold
            for _ in range(3):
                z = math.nextafter(z, math.inf)
                if z >= eps:
                    break
                for sign in (1.0, -1.0):
                    v = prox_scalar(p, sign * z).canonical
                    assert v != 0.0 and math.copysign(1.0, v) == sign, (p, z, v)

    def test_r2_below_eps_against_high_precision(self):
        rng = np.random.default_rng(32)
        cases = [(0.6401025772860353, 0.8149779273673193, 0.7854232069251297)]  # printed -8.3e-16
        while len(cases) < 400:
            eps = 10.0 ** rng.uniform(-100, 100)
            p = ProxParams((eps * 10.0 ** rng.uniform(-6, 0)) ** 2, eps)
            lo = p.threshold * (1 + 1e-3)
            if lo < eps:
                cases.append((p.lam, eps, lo + (eps - lo) * rng.uniform() ** 4))
        for lam, eps, z in cases:
            with mp.workdps(50):
                want = (mpf(z) - eps) / 2 + mp.sqrt((mpf(z) + eps) ** 2 / 4 - lam)
                assert abs(r2(ProxParams(lam, eps), z) - want) <= 1e-12 * want, (lam, eps, z)

    @pytest.mark.parametrize("lam, eps, z", [
        (1e300, 1e200, 1.5e100),
        (1.7e308, 1e200, 1.8e108),
        (1e300, 1.7e308, 1e-7),
    ])
    def test_r2_below_eps_where_the_product_overflows(self, lam, eps, z):
        # z*eps overflows a double; the root product lam - z*eps is taken exactly
        with mp.workdps(400):  # (z - eps)/2 + sqrt(...) cancels to 1e-315 of eps here
            want = (mpf(z) - eps) / 2 + mp.sqrt((mpf(z) + eps) ** 2 / 4 - lam)
            assert abs(r2(ProxParams(lam, eps), z) - want) <= 1e-15 * abs(want)

    def test_r1_near_threshold_against_high_precision(self):
        # (z - eps)/2 - sqrt(...) cancels near lam/eps; r1 is taken from r2 there
        rng = np.random.default_rng(15)
        cases = [
            (1e12, 1.0, 999999000000.0),  # printed 0 for r1 = 1.000001e-6
            (1e20, 1e-2, 1e22 * (1 - 1e-6)),
            (1e4, 1.0, 1e4 * (1 - 1e-8)),  # relative error 2e-5
        ]
        while len(cases) < 600:
            s = 10.0 ** rng.uniform(-150, 150)
            if len(cases) < 300:
                eps = s * 10.0 ** rng.uniform(-300, math.log10(0.98))  # c = eps/s up to 0.98
            else:
                eps = s * rng.uniform(0.98, 0.9999)  # the band next to the regime boundary
            if eps > 0 and math.isfinite(s * s / eps):
                p = ProxParams(s * s, eps)
                z = p.threshold * (1 - 10.0 ** rng.uniform(-12, -3))
                if z >= p.bracket_low:
                    cases.append((p.lam, p.eps, z))
        for lam, eps, z in cases:
            with mp.workdps(700):  # the cancellation costs up to 650 digits at c = 1e-300
                want = (mpf(z) - eps) / 2 - mp.sqrt((mpf(z) + eps) ** 2 / 4 - lam)
                if want < sys.float_info.min:  # r1 underflows
                    continue
                assert abs(r1(ProxParams(lam, eps), z) - want) <= 1e-11 * want, (lam, eps, z)

    def test_monotone_on_domain(self):
        zs = np.linspace(P31.bracket_low, 12.0, 400)
        r1s = [r1(P31, z) for z in zs]
        r2s = [r2(P31, z) for z in zs]
        assert all(a >= b for a, b in zip(r1s, r1s[1:]))
        assert all(a <= b for a, b in zip(r2s, r2s[1:]))


def mp_roots(lam, eps, z):
    """``(disc, r1, r2)`` at 80 digits; the root that ``(z - eps)/2 -/+ sqrt(disc)``
    cancels is taken from the product of the roots, ``lam - z*eps``."""
    with mp.workdps(80):
        lam, eps, z = mpf(lam), mpf(eps), mpf(z)
        disc = (z + eps) ** 2 / 4 - lam
        half = (z - eps) / 2
        if disc < 0:
            return disc, None, None
        big = half + mp.sqrt(disc) if half >= 0 else half - mp.sqrt(disc)
        small = (lam - z * eps) / big
        return (disc, small, big) if half >= 0 else (disc, big, small)


def boundary_cases():
    """300 pairs per band ``c = eps/sqrt(lam) = 1 -+ d``, ``lam`` log-uniform in [1e-50, 1e50],
    each with a ``z`` in the critical band or up to 1e-1 above ``lam/eps`` where the true
    discriminant is positive; led by the two pairs where the float discriminant cancelled."""
    rng = np.random.default_rng(1216)
    cases = [
        (4.027183851979102e123, 6.346009616250486e61, 6.346009690351757e61),  # z = lam/eps: r1 was r2
        (0.9999, 1.0, 1.000008999),  # r2 off by 1.4e-12
    ]
    for d in (1e-3, 1e-5, 1e-7, 1e-9):
        for c in (1.0 - d, 1.0 + d):
            n = 0
            while n < 300:
                lam = 10.0 ** rng.uniform(-50.0, 50.0)
                p = ProxParams(lam, c * math.sqrt(lam))
                lo, hi = max(p.bracket_low, 0.0), p.threshold
                if rng.uniform() < 0.5:
                    z = lo + rng.uniform() * (hi - lo)
                else:
                    z = hi * (1.0 + 10.0 ** rng.uniform(-13.0, -1.0))
                if mp_roots(p.lam, p.eps, z)[0] > 0:
                    cases.append((p.lam, p.eps, z))
                    n += 1
    return cases


class TestRootsNearTheRegimeBoundary:
    """Near ``sqrt(lam) ~ eps`` the discriminant ``(z + eps)**2/4 - lam`` cancels in
    floating point for every ``z`` in the critical band and just above it."""

    @staticmethod
    def close(got, want, rel):
        return got == 0.0 if want == 0 else abs(got - want) <= rel * abs(want)

    def test_roots_and_prox_against_high_precision(self):
        for lam, eps, z in boundary_cases():
            p = ProxParams(lam, eps)
            _, want1, want2 = mp_roots(lam, eps, z)
            assert self.close(r1(p, z), want1, 1e-11), (lam, eps, z)
            assert self.close(r2(p, z), want2, 1e-12), (lam, eps, z)
            if p.regime() is Regime.CONVEX:
                want = want2 if z > p.threshold else mpf(0)
            else:
                zs = z_star(p).z_star
                if abs(z - zs) <= 1e-9 * zs:  # the tie itself is z_star's to decide
                    continue
                with mp.workdps(80):  # q(r2(z)) - q(0)
                    gap = ((want2 - z) ** 2 - mpf(z) ** 2) / (2 * mpf(lam)) + mp.log1p(want2 / eps)
                want = want2 if gap < 0 else mpf(0)
            assert self.close(prox_scalar(p, z).canonical, want, 1e-12), (lam, eps, z)

    def test_predicted_limit_at_lam_over_eps(self):
        # z is lam/eps and bracket_low in doubles; the limit from x0 = 1 is r2(z), not r1(z)
        lam, eps, z = 4.027183851979102e123, 6.346009616250486e61, 6.346009690351757e61
        pred = irl1_predict_limit(ProxParams(lam, eps), z, 1.0)
        assert pred.justification == "conv3"
        assert abs(pred.limit - mp_roots(lam, eps, z)[2]) <= 1e-12 * pred.limit


class TestGapR:
    """The tie gap in z-units, ``tie_gap`` above, on the closed-form ``r2``."""

    def test_left_endpoint_closed_form(self):
        lam, eps = 3.0, 1.0
        # direct evaluation of q(r2)-q(0) at the left endpoint reduces to this
        closed = -math.log(eps / math.sqrt(lam)) + (
            2.0 * eps / math.sqrt(lam) - eps**2 / (2.0 * lam) - 1.5
        )
        got = tie_gap(P31, P31.bracket_low)
        assert got == pytest.approx(closed, abs=1e-12)
        assert got == pytest.approx(GAP_LEFT_31, abs=1e-12)
        assert got > 0.0

    def test_right_endpoint_closed_form(self):
        lam, eps = 3.0, 1.0
        closed = eps**2 / (2.0 * lam) + math.log(lam / eps**2) - lam / (2.0 * eps**2)
        got = tie_gap(P31, P31.threshold)
        assert got == pytest.approx(closed, abs=1e-12)
        assert got == pytest.approx(GAP_RIGHT_31, abs=1e-12)
        assert got < 0.0

    @pytest.mark.parametrize("lam,eps", [(3.0, 1.0), (9.0, 1.5), (1.21, 1.0), (25.0, 0.3)])
    def test_endpoint_signs_across_parameters(self, lam, eps):
        p = ProxParams(lam, eps)
        sq = math.sqrt(lam)
        left = -math.log(eps / sq) + (2.0 * eps / sq - eps**2 / (2.0 * lam) - 1.5)
        right = eps**2 / (2.0 * lam) + math.log(lam / eps**2) - lam / (2.0 * eps**2)
        assert tie_gap(p, p.bracket_low) == pytest.approx(left, abs=1e-12 * max(1.0, abs(left)))
        assert tie_gap(p, p.threshold) == pytest.approx(right, abs=1e-12 * max(1.0, abs(right)))
        assert tie_gap(p, p.bracket_low) > 0.0 > tie_gap(p, p.threshold)

    def test_nearly_zero_at_jump_point(self):
        assert abs(tie_gap(P31, Z_STAR_31)) < 1e-12


class TestZStar:
    def test_reference_value(self):
        res = z_star(P31)
        assert res.z_star == pytest.approx(Z_STAR_31, abs=1e-9)
        lo, hi = res.bracket
        assert lo == P31.bracket_low and hi == 3.0
        assert lo < res.z_star < hi
        assert res.iterations <= 64
        assert res.residual < 1e-10

    def test_deterministic(self):
        a = z_star(P31)
        b = z_star(P31)
        assert a == b

    def test_bracket_containment_tight(self):
        res = z_star(ProxParams(1.21, 1.0))
        assert 1.2 < res.z_star < 1.21

    def test_sign_change_around_root(self):
        p = ProxParams(4.0, 1.0)
        res = z_star(p)
        assert 3.0 < res.z_star < 4.0
        d = 1e-4
        assert tie_gap(p, res.z_star - d) > 0.0 > tie_gap(p, res.z_star + d)

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            z_star(P23)

    def test_one_solve_per_pair(self, monkeypatch):
        calls = []

        def counted(params, s):
            calls.append(params)
            return solve(params, s)

        solve = scalar._solve_z_star
        monkeypatch.setattr(scalar, "_solve_z_star", counted)
        p = ProxParams(7.3, 1.1)
        assert calls == [p]  # building the pair solves once
        zs = z_star(p).z_star
        prox_scalar(p, zs)
        prox_scalar(p, 2.0 * zs)
        failure_intervals(p, 0.0)
        assert calls == [p] and z_star(p) is p._solve
        c = ProxParams(2.0, 3.0)
        prox_scalar(c, 1.0)
        failure_intervals(c, 0.0)
        assert calls == [p]  # a convex pair runs none

    def test_memoized_value_is_race_free(self):
        p = ProxParams(5.77, 1.0)
        start = threading.Barrier(8)  # all threads read the pair's stored jump together
        results = []

        def worker():
            start.wait()
            results.extend(prox_scalar(p, 4.0).canonical for _ in range(8))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 64 and len(set(results)) == 1
        # and the prox result equals a fresh single-threaded computation
        assert prox_scalar(ProxParams(5.77, 1.0), 4.0).canonical == results[0]


def mp_z_star(lam, eps, z0):
    """Root of the z-form tie gap ``q(r2(z)) - q(0)`` in mpmath at 80 digits.

    Bisection on a bracket of relative width 1e-6 about ``z0`` (cut at the
    left end ``2*sqrt(lam) - eps`` of the gap's domain); fails if the gap
    does not change sign on it, i.e. if ``z0`` is off by more than that.
    The discriminant is clamped at 0: at that left end it rounds to either
    side of 0 in mpmath too.
    """
    with mp.workdps(80):
        lam, eps = mpf(lam), mpf(eps)

        def gap(z):
            r2 = (z - eps) / 2 + mp.sqrt(max((z + eps) ** 2 / 4 - lam, 0))
            return ((r2 - z) ** 2 - z**2) / (2 * lam) + mp.log1p(r2 / eps)

        a = max(mpf(z0) * (1 - mpf("1e-6")), 2 * mp.sqrt(lam) - eps)
        b = mpf(z0) * (1 + mpf("1e-6"))
        assert gap(a) > 0 > gap(b), "z0 is not within 1e-6 of the root"
        while b - a > a * mpf("1e-40"):
            m = (a + b) / 2
            if gap(m) > 0:
                a = m
            else:
                b = m
        return (a + b) / 2


def _rel_err(lam, eps):
    res = z_star(ProxParams(lam, eps))
    assert res.iterations <= 64
    ref = mp_z_star(lam, eps, res.z_star)
    return float(abs(res.z_star - ref) / ref)


class TestZStarAccuracy:
    """Relative error against mpmath over the whole double range."""

    @pytest.mark.parametrize("lam,eps", [
        (3.0, 1.0), (4.0, 1.0), (1e10, 1e-10), (1e-300, 1e-160), (1e4, 1e-3),
        (1e300, 1e-10), (1e300, 1.0), (1e300, 1e-320),
    ])
    def test_landmark_pairs(self, lam, eps):
        assert _rel_err(lam, eps) <= 1e-14

    def test_log_uniform_pairs(self):
        rng = np.random.default_rng(2021)
        pairs = []
        while len(pairs) < 200:
            lam, eps = 10.0 ** rng.uniform(-300.0, 300.0, 2)
            if math.sqrt(lam) > eps:
                pairs.append((float(lam), float(eps)))
        for lam, eps in pairs:
            assert _rel_err(lam, eps) <= 1e-14, (lam, eps)

    @pytest.mark.parametrize("c", [0.999, 1 - 1e-6, 1 - 1e-9])
    def test_near_double_root(self, c):
        # g(1) = g'(1) = 0 at c = 1; the root turns double as c -> 1
        assert _rel_err(1.0, c) <= 1e-14

    @pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-6, 1e-9, 1e-12, 1e-14])
    def test_band_next_to_the_regime_boundary(self, d):
        # c = 1 - d, 60 pairs per band with lam log-uniform in [1e-100, 1e100]
        rng = np.random.default_rng(19)
        for lam in 10.0 ** rng.uniform(-100.0, 100.0, 60):
            lam = float(lam)
            eps = (1.0 - d) * math.sqrt(lam)
            assert _rel_err(lam, eps) <= 1e-14, (lam, eps)

    @given(st.floats(-300.0, 300.0), st.floats(-150.0, -1e-3))
    @settings(max_examples=200, deadline=None)
    def test_scale_covariance(self, log_lam, log_c):
        lam = 10.0**log_lam
        s = math.sqrt(lam)
        eps = s * 10.0**log_c
        c = eps / s
        scaled = s * z_star(ProxParams(1.0, c)).z_star
        assert abs(z_star(ProxParams(lam, eps)).z_star - scaled) <= 4 * math.ulp(scaled)


class TestProxScalar:
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("params", [P31, P23])
    def test_rejects_nonfinite_z(self, params, z):
        with pytest.raises(PreconditionError, match=r"^z must be finite, got " + re.escape(repr(z)) + "$"):
            prox_scalar(params, z)

    def test_convex_zero_region(self):
        res = prox_scalar(P23, 0.5)
        assert res.kind is ProxKind.ZERO and res.values == (0.0,)

    def test_convex_point(self):
        res = prox_scalar(P23, -5.0)
        assert res.kind is ProxKind.POINT
        assert res.values[0] == pytest.approx(-R2_23_5, rel=1e-15)

    def test_convex_boundary_is_zero_branch(self):
        res = prox_scalar(P23, P23.threshold)
        assert res.kind is ProxKind.ZERO

    def test_convex_continuity_at_threshold(self):
        thr = P23.threshold
        below = prox_scalar(P23, thr - 1e-9).canonical
        above = prox_scalar(P23, thr + 1e-9).canonical
        assert below == 0.0
        assert abs(above) < 1e-8

    def test_nonconvex_zero_below_jump(self):
        assert prox_scalar(P31, 2.5).kind is ProxKind.ZERO

    def test_nonconvex_point_above_jump(self):
        res = prox_scalar(P31, 2.9)
        assert res.kind is ProxKind.POINT
        assert res.values[0] == pytest.approx(PROX_31_29, abs=1e-13)

    def test_origin_always_zero(self):
        for p in (P23, P31):
            assert prox_scalar(p, 0.0).values == (0.0,)

    def test_pair_at_jump_point(self):
        zs = z_star(P31).z_star
        res = prox_scalar(P31, zs)
        assert res.kind is ProxKind.PAIR
        assert res.values[0] == 0.0
        assert res.values[1] == pytest.approx(R2_AT_ZSTAR_31, abs=1e-10)
        neg = prox_scalar(P31, -zs)
        assert neg.kind is ProxKind.PAIR
        assert neg.values[1] == -res.values[1]
        assert res.canonical == 0.0 and res.is_ambiguous

    def test_tiny_scale_is_not_a_pair(self):
        # the twin of (1, 1e-10) at z = 1e10, scaled by sqrt(lam) = 1e-150
        p = ProxParams(1e-300, 1e-160)
        res = prox_scalar(p, 1e-140)
        assert res.kind is ProxKind.POINT
        twin = prox_scalar(ProxParams(1.0, 1e-10), 1e10)
        assert res.values[0] == pytest.approx(1e-150 * twin.values[0], rel=1e-15)
        p = ProxParams(1.6269779599083617e-50, 4.36226149196013e-45)  # z_star = 1.24e-24
        zs = z_star(p).z_star
        assert prox_scalar(p, zs * (1 + 1e-6)).kind is ProxKind.POINT
        assert prox_scalar(p, zs).kind is ProxKind.PAIR

    @given(params_st, st.floats(-100.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_odd_symmetry(self, p, z):
        pos = prox_scalar(p, z)
        neg = prox_scalar(p, -z)
        assert sorted(-v for v in neg.values) == sorted(pos.values)

    @given(params_st, st.floats(-100.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_shrinkage(self, p, z):
        for v in prox_scalar(p, z).values:
            if z > 0:
                assert 0.0 <= v < z
            elif z < 0:
                assert z < v <= 0.0
            else:
                assert v == 0.0

    @given(params_st, st.floats(-100.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_stationarity_of_nonzero_values(self, p, z):
        for v in prox_scalar(p, z).values:
            if v != 0.0:
                s = 1.0 if z > 0 else -1.0
                assert v == pytest.approx(z - s * p.lam / (abs(v) + p.eps), abs=1e-10)

    @given(params_st, st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_z(self, p, a, b):
        u, v = min(a, b), max(a, b)
        if u == v:
            return
        hi_u = max(prox_scalar(p, u).values)
        lo_v = min(prox_scalar(p, v).values)
        assert hi_u <= lo_v + 1e-12 * max(1.0, abs(lo_v))

    def test_singleton_except_at_jump(self):
        zs = z_star(P31).z_star
        rng = np.random.default_rng(7)
        for z in rng.uniform(-6, 6, size=200):
            if abs(abs(z) - zs) < 1e-6:
                continue
            assert prox_scalar(P31, float(z)).kind is not ProxKind.PAIR

    def test_global_optimality_against_dense_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ratio = rng.uniform(0.2, 3.0)
            eps = rng.uniform(0.2, 3.0)
            p = ProxParams((ratio * eps) ** 2, eps)
            z = float(rng.uniform(-10, 10))
            grid = np.linspace(-abs(z) - 1.0, abs(z) + 1.0, 100_001)
            qmin = float(np.min((grid - z) ** 2 / (2 * p.lam) + np.log1p(np.abs(grid) / p.eps)))
            for v in prox_scalar(p, z).values:
                assert q_objective(p, z, v) <= qmin + 1e-9


def _leaves(v):
    if isinstance(v, tuple):
        for x in v:
            yield from _leaves(x)
    else:
        yield v


@pytest.mark.parametrize("fn,args", [
    (prox_scalar, (P31, np.float32(Z_STAR_31))),  # 1.14e-7 above z_star: a point, as in double
    (prox_scalar, (P31, np.float32(-2.9))),
    (r1, (P31, np.float32(2.9))),
    (r2, (P31, np.float32(2.9))),
    (q_objective, (P31, np.float32(2.7), np.float32(1.5))),
    (irl1_simulate, (P31, np.float32(-2.9), np.float32(0.5))),
    (irl1_predict_limit, (P31, np.float32(2.55), np.float32(0.5))),
    (limit_matches_prox, (P31, np.float32(Z_STAR_31), np.float32(0.0))),  # the limit 0 is not in {point}
], ids=["prox_scalar-at-z_star", "prox_scalar-negative", "r1", "r2", "q_objective", "irl1_simulate",
         "irl1_predict_limit", "limit_matches_prox"])
def test_single_precision_input_computes_in_double(fn, args):
    """A float32 input gives its double's value and branch, and a Python float comes back."""
    got = fn(*args)
    assert got == fn(*(float(a) if isinstance(a, np.floating) else a for a in args))
    assert all(type(x) is float for x in _leaves(got) if isinstance(x, (float, np.floating)))
