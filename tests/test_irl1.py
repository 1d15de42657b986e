"""Reweighted-l1 iteration: simulation, analytic limits, failure intervals."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logsum_prox import (
    FailureCase,
    Interval,
    LimitKind,
    PreconditionError,
    ProxParams,
    Regime,
    StopReason,
    failure_intervals,
    irl1_predict_limit,
    irl1_simulate,
    irl1_step,
    limit_matches_prox,
    prox_scalar,
    r1,
    r2,
    z_star,
)

P31 = ProxParams(3.0, 1.0)
P23 = ProxParams(2.0, 3.0)
ZS31 = z_star(P31).z_star  # 2.5710831932251...
SQRT3 = math.sqrt(3.0)


class TestStep:
    def test_threshold_branch(self):
        assert irl1_step(P31, 2.5, 0.0) == 0.0

    def test_linear_branch(self):
        assert irl1_step(P31, 2.5, 2.0) == pytest.approx(1.5, abs=1e-15)

    def test_fixed_point_of_r2(self):
        assert irl1_step(P31, 2.5, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert r2(P31, 2.5) == 1.0


class TestSimulate:
    def test_negative_max_iters_rejected(self):
        with pytest.raises(ValueError, match=r"^max_iters must be nonnegative, got -3$"):
            irl1_simulate(P31, 2.5, 2.0, max_iters=-3)
        trace = irl1_simulate(P31, 2.5, 2.0, max_iters=0)
        assert trace.iterates == (2.0,) and trace.stop_reason is StopReason.MAX_ITERS
        assert trace.limit_estimate == 2.0

    def test_converges_to_r2_from_above(self):
        trace = irl1_simulate(P31, 2.5, 2.0)
        assert trace.stop_reason is StopReason.TOLERANCE_MET
        assert trace.limit_estimate == pytest.approx(1.0, abs=1e-8)
        # ... even though the true prox at 2.5 is {0}
        assert prox_scalar(P31, 2.5).values == (0.0,)

    def test_zero_start_is_an_exact_fixed_point(self):
        trace = irl1_simulate(P31, 2.5, 0.0)
        assert trace.stop_reason is StopReason.FIXED_POINT_HIT
        assert trace.iterates == (0.0, 0.0)
        assert trace.limit_estimate == 0.0

    def test_zero_start_beyond_threshold(self):
        trace = irl1_simulate(P23, 5.0, 0.0)
        assert trace.limit_estimate == pytest.approx(1.0 + math.sqrt(14.0), abs=1e-8)

    def test_trace_is_bit_reproducible(self):
        trace = irl1_simulate(P31, 2.5, 2.0)
        for xk, xk1 in zip(trace.iterates, trace.iterates[1:]):
            assert xk1 == irl1_step(P31, 2.5, xk)
        again = irl1_simulate(P31, 2.5, 2.0)
        assert again.iterates == trace.iterates

    def test_tolerance_met_invariant(self):
        trace = irl1_simulate(P31, 2.5, 2.0)
        assert trace.stop_reason is StopReason.TOLERANCE_MET
        assert abs(trace.iterates[-1] - trace.iterates[-2]) <= 1e-12 * SQRT3

    def test_max_iters_recorded_not_raised(self):
        trace = irl1_simulate(P31, 2.5, 2.0, max_iters=50)
        assert trace.stop_reason is StopReason.MAX_ITERS
        assert len(trace.iterates) == 51

    def test_negative_z_mirrors(self):
        pos = irl1_simulate(P31, 2.9, 1.5)
        neg = irl1_simulate(P31, -2.9, 1.5)
        assert neg.limit_estimate == -pos.limit_estimate
        assert neg.iterates == pos.iterates

    def test_monotone_while_positive(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            z = float(rng.uniform(0.0, 6.0))
            x0 = float(rng.uniform(0.0, 4.0))
            trace = irl1_simulate(P31, z, x0, max_iters=2000)
            xs = trace.iterates
            if all(x > 0 for x in xs):
                diffs = [b - a for a, b in zip(xs, xs[1:]) if b != a]
                assert all(d > 0 for d in diffs) or all(d < 0 for d in diffs)

    def test_first_step_sign_identity(self):
        # (x1 - x0)(eps + x0) = -(x0 - r1(z))(x0 - r2(z)) whenever x1 > 0
        rng = np.random.default_rng(17)
        for _ in range(200):
            lam = float(rng.uniform(0.5, 9.0))
            eps = float(rng.uniform(0.1, math.sqrt(lam) * 0.99))
            p = ProxParams(lam, eps)
            z = float(rng.uniform(p.bracket_low, p.bracket_low + 4.0))
            x0 = float(rng.uniform(0.0, 4.0))
            x1 = irl1_step(p, z, x0)
            if x1 <= 0.0:
                continue
            lhs = (x1 - x0) * (eps + x0)
            rhs = -(x0 - r1(p, z)) * (x0 - r2(p, z))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(PreconditionError):
            irl1_simulate(P31, 2.5, -0.5)


class TestPredict:
    def test_below_unstable_root_collapses(self):
        pred = irl1_predict_limit(P31, 2.5, 0.3)
        assert pred.limit == 0.0
        assert pred.classification is LimitKind.ZERO
        assert pred.justification == "conv6"
        assert r1(P31, 2.5) == 0.5  # 0.3 sits below it

    def test_exactly_on_unstable_root(self):
        pred = irl1_predict_limit(P31, 2.5, 0.5)
        assert pred.limit == 0.5
        assert pred.classification is LimitKind.R1_FIXED_POINT
        assert pred.justification == "conv6"

    def test_above_unstable_root(self):
        pred = irl1_predict_limit(P31, 2.5, 2.0)
        assert pred.limit == 1.0
        assert pred.classification is LimitKind.R2

    def test_convex_regime_collapses(self):
        pred = irl1_predict_limit(P23, 0.5, 7.0)
        assert pred.limit == 0.0
        assert pred.classification is LimitKind.ZERO
        assert pred.justification == "conv5"

    def test_zero_start_cases(self):
        pred = irl1_predict_limit(P31, 2.5, 0.0)
        assert (pred.limit, pred.justification) == (0.0, "conv2")
        pred = irl1_predict_limit(P31, 5.0, 0.0)
        assert pred.limit == pytest.approx(r2(P31, 5.0), rel=1e-15)
        assert pred.justification == "conv2"

    def test_beyond_threshold(self):
        pred = irl1_predict_limit(P31, 3.5, 1.0)
        assert pred.justification == "conv3"
        assert pred.limit == pytest.approx(r2(P31, 3.5), rel=1e-15)

    def test_below_bracket(self):
        pred = irl1_predict_limit(P31, 2.0, 5.0)
        assert (pred.limit, pred.justification) == (0.0, "conv4")

    def test_convex_inner_band_tags(self):
        p = ProxParams(4.0, 2.5)  # convex with 2*sqrt(lam) > eps
        assert irl1_predict_limit(p, 1.0, 0.5).justification == "conv4"
        assert irl1_predict_limit(p, 1.55, 0.5).justification == "conv5"

    def test_sign_carries_through(self):
        pred = irl1_predict_limit(P31, -2.9, 2.0)
        assert pred.limit == -irl1_predict_limit(P31, 2.9, 2.0).limit

    def test_agrees_with_simulation(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 150:
            ratio = float(rng.uniform(0.3, 3.0))
            eps = float(rng.uniform(0.3, 2.0))
            p = ProxParams((ratio * eps) ** 2, eps)
            lo = max(p.bracket_low, 0.0)
            hi = p.threshold
            band = rng.integers(0, 3)
            if band == 0 and lo > 0:
                z = float(rng.uniform(1e-3 * lo, lo * (1 - 1e-3)))
            elif band == 1 and hi - lo > 1e-2:
                w = hi - lo
                z = float(rng.uniform(lo + 1e-3 * w, hi - 1e-3 * w))
            else:
                z = float(rng.uniform(hi * (1 + 1e-3), hi + 5.0))
            x0 = float(rng.uniform(0.0, 3.0))
            if p.regime().value == "nonconvex" and lo <= z < hi:
                if abs(x0 - r1(p, z)) < 1e-6:
                    continue
            if rng.uniform() < 0.5:
                z = -z
            sim = irl1_simulate(p, z, x0)
            pred = irl1_predict_limit(p, z, x0)
            assert sim.limit_estimate == pytest.approx(pred.limit, abs=1e-8)
            checked += 1

    def test_exact_outside_critical_band(self):
        # for |z| above the threshold or below the bracket, the limit is the
        # true prox regardless of the start
        rng = np.random.default_rng(29)
        for _ in range(100):
            lam = float(rng.uniform(0.5, 9.0))
            eps = float(rng.uniform(0.2, 2.0))
            p = ProxParams(lam, eps)
            lo, hi = max(p.bracket_low, 0.0), p.threshold
            side = rng.integers(0, 2)
            if side == 0 and lo > 1e-3:
                z = float(rng.uniform(1e-4, lo * (1 - 1e-9)))
            else:
                z = float(rng.uniform(hi * (1 + 1e-9) + 1e-6, hi + 8.0))
            if rng.uniform() < 0.5:
                z = -z
            x0 = float(rng.uniform(0.0, 5.0))
            pred = irl1_predict_limit(p, z, x0)
            assert pred.limit in prox_scalar(p, z).values


def predicted_by_case_table(p, z, x0):
    """``(limit, kind, tag)`` from irl1_predict_limit's docstring, read literally,
    with the public ``r1``/``r2`` and the sign of ``z`` on every limit."""
    a = abs(z)
    sign = 1.0 if z >= 0 else -1.0
    threshold, bracket_low = p.lam / p.eps, 2.0 * math.sqrt(p.lam) - p.eps
    convex = math.sqrt(p.lam) <= p.eps
    if a == 0.0 or x0 == 0.0:
        if a <= threshold:
            return sign * 0.0, LimitKind.ZERO, "conv2"
        return sign * r2(p, a), LimitKind.R2, "conv2"
    if a >= threshold:
        lim = r2(p, a)
        return sign * lim, LimitKind.R2 if lim > 0 else LimitKind.ZERO, "conv3"
    if a < bracket_low:
        return sign * 0.0, LimitKind.ZERO, "conv4"
    if convex:
        return sign * 0.0, LimitKind.ZERO, "conv5"
    r1a = r1(p, a)
    if abs(x0 - r1a) <= 1e-12 * abs(r1a):
        return sign * r1a, LimitKind.R1_FIXED_POINT, "conv6"
    if x0 < r1a:
        return sign * 0.0, LimitKind.ZERO, "conv6"
    return sign * r2(p, a), LimitKind.R2, "conv6"


@st.composite
def predict_cases(draw, whole_range=True):
    """A pair from the tested band or the whole double range (the band only
    if not ``whole_range``), an input in a chosen region of the case analysis
    and a start chosen against r1 there."""
    if not whole_range or draw(st.booleans()):
        eps = draw(st.floats(0.1, 3.0))
        lam = (eps * draw(st.floats(0.15, 3.2))) ** 2
    else:
        lam, eps = 10.0 ** draw(st.floats(-300.0, 300.0)), 10.0 ** draw(st.floats(-300.0, 300.0))
    p = ProxParams(lam, eps)
    lo, hi = max(p.bracket_low, 0.0), min(p.threshold, 1e300)
    f, g = draw(st.floats(0.0, 1.0)), draw(st.floats(0.01, 0.99))
    region = draw(st.sampled_from(["zero", "below", "band", "band", "beyond"]))
    a = {"zero": 0.0, "below": f * lo, "band": lo + f * max(hi - lo, 0.0), "beyond": hi * (1.0 + 4.0 * f)}[region]
    r1a = r1(p, a) if p.regime() is Regime.NONCONVEX and lo <= a < p.threshold else None
    start = draw(st.sampled_from(["zero", "on_r1", "near_r1", "below_r1", "above_r1", "any"]))
    if r1a is None or r1a <= 0.0 or start in ("zero", "any"):
        x0 = 0.0 if start == "zero" else math.sqrt(lam) * 10.0 ** draw(st.floats(-3.0, 3.0))
    else:
        x0 = {"on_r1": r1a, "near_r1": r1a * (1.0 + 5e-13), "below_r1": g * r1a,
              "above_r1": r1a + g * (math.sqrt(lam) + a)}[start]
    z = -a if draw(st.booleans()) else a
    return p, z, x0


class TestPredictCaseTable:
    @example(case=(P31, 0.0, 1.0))  # conv2, z == 0
    @example(case=(P31, -2.5, 0.0))  # conv2, zero start: -0.0
    @example(case=(P31, -5.0, 0.0))  # conv2 beyond the threshold
    @example(case=(P31, 3.5, 1.0))  # conv3
    @example(case=(P31, -2.0, 5.0))  # conv4, nonconvex: -0.0
    @example(case=(ProxParams(1.0, 1.5), 0.3, 1.0))  # conv4, convex with a positive bracket edge
    @example(case=(ProxParams(1.0, 1.5), -0.6, 1.0))  # conv5: -0.0
    @example(case=(P31, 2.5, 0.5))  # conv6 on r1(2.5) = 0.5
    @example(case=(P31, -2.5, 0.3))  # conv6 below r1: -0.0
    @example(case=(P31, -2.5, 2.0))  # conv6 above r1
    @given(predict_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_case_table(self, case):
        p, z, x0 = case
        got = irl1_predict_limit(p, z, x0)
        limit, kind, tag = predicted_by_case_table(p, z, x0)
        assert (got.classification, got.justification) == (kind, tag)
        assert got.limit == limit and math.copysign(1.0, got.limit) == math.copysign(1.0, limit)


class TestScaleCovariance:
    """Scaling ``lam`` by ``4**j`` and ``eps``, ``z``, ``x0`` by ``2**j`` is exact
    in doubles away from overflow and underflow, and the prox scales by
    ``2**j`` (``prox(lam, eps; z) = s*prox(1, eps/s; z/s)``, ``s = sqrt(lam)``).
    So must every scalar and IRL1 result, bit for bit."""

    # z = 4*eps, x0 = eps at (3, 1), scaled to lam = 3*2**-132, eps = 2**-66
    @example(case=(ProxParams(3.0, 1.0), 4.0, 1.0), j=-66, offset=0.0)
    @given(predict_cases(whole_range=False), st.sampled_from([5, 20, 40, -5, -20, -40]),
           st.floats(0.0, 3e-8))
    @settings(max_examples=300, deadline=None)
    def test_power_of_two_scaling(self, case, j, offset):
        p, z, x0 = case
        k = 2.0**j
        q, zq, x0q = ProxParams(p.lam * k * k, p.eps * k), z * k, x0 * k

        def scaled(xs):
            return tuple(x * k for x in xs)

        got, want = prox_scalar(q, zq), prox_scalar(p, z)
        assert (got.kind, got.values) == (want.kind, scaled(want.values))
        if abs(z) >= p.bracket_low:
            assert r2(q, abs(zq)) == r2(p, abs(z)) * k
        if p.regime() is Regime.NONCONVEX:
            got, want = z_star(q), z_star(p)
            assert (got.z_star, got.bracket) == (want.z_star * k, scaled(want.bracket))
            assert (got.iterations, got.residual) == (want.iterations, want.residual)
        got, want = failure_intervals(q, x0q), failure_intervals(p, x0)
        assert (got.x0, got.case) == (x0q, want.case)
        assert got.z_star == (None if want.z_star is None else want.z_star * k)
        assert got.intervals == tuple(
            Interval(iv.lower * k, iv.upper * k, iv.lower_closed, iv.upper_closed) for iv in want.intervals)
        pred, pred_q = irl1_predict_limit(p, z, x0), irl1_predict_limit(q, zq, x0q)
        assert pred_q == (pred.limit * k, pred.classification, pred.justification)
        sim, sim_q = irl1_simulate(p, z, x0, max_iters=2000), irl1_simulate(q, zq, x0q, max_iters=2000)
        assert (sim_q.iterates, sim_q.stop_reason) == (scaled(sim.iterates), sim.stop_reason)
        assert sim_q.limit_estimate == sim.limit_estimate * k
        for lim in (pred.limit, sim.limit_estimate, pred.limit + offset * math.sqrt(p.lam)):
            assert limit_matches_prox(q, zq, lim * k) == limit_matches_prox(p, z, lim)


def r1_inverse(p, x0):
    """The ``z`` on the bracket with ``r1(z) == x0``, which bounds the failure intervals."""
    return x0 + p.lam / (p.eps + x0)


class TestR1Inverse:
    def test_maximum_of_r1(self):
        got = r1_inverse(P31, SQRT3 - 1.0)
        assert got == pytest.approx(2.0 * SQRT3 - 1.0, abs=1e-14)

    def test_zero_maps_to_threshold(self):
        assert r1_inverse(P31, 0.0) == 3.0

    def test_roundtrip(self):
        for x0 in np.linspace(0.0, SQRT3 - 1.0, 25):
            z = r1_inverse(P31, float(x0))
            assert r1(P31, z) == pytest.approx(float(x0), abs=1e-12)

    def test_consistency_with_jump_point(self):
        assert r1_inverse(P31, r1(P31, ZS31)) == pytest.approx(ZS31, abs=1e-12)

    def test_lower_bound_on_r1(self):
        # lam/z - eps < r1(z) on the critical band
        for p in (P31, ProxParams(9.0, 1.5), ProxParams(1.21, 1.0)):
            for z in np.linspace(p.bracket_low, p.threshold, 50, endpoint=False):
                assert p.lam / z - p.eps < r1(p, float(z))


class TestFailureIntervals:
    def test_convex_regime_is_exact(self):
        report = failure_intervals(P23, 9.0)
        assert report.case is FailureCase.EXACT
        assert report.intervals == ()
        assert report.z_star is None

    def test_high_start(self):
        report = failure_intervals(P31, 2.0)
        assert report.case is FailureCase.HIGH_X0
        neg, pos = report.intervals
        assert pos.lower == pytest.approx(2.0 * SQRT3 - 1.0, abs=1e-14)
        assert pos.upper == ZS31
        assert pos.lower_closed and not pos.upper_closed
        assert (neg.lower, neg.upper) == (-pos.upper, -pos.lower)
        assert not neg.lower_closed and neg.upper_closed

    def test_high_start_boundary_inclusive(self):
        assert failure_intervals(P31, SQRT3 - 1.0).case is FailureCase.HIGH_X0

    def test_mid_start(self):
        report = failure_intervals(P31, 0.5)
        assert report.case is FailureCase.MID_X0
        pos = report.intervals[1]
        assert pos.lower == 2.5  # r1_inverse(0.5) = 0.5 + 3/1.5 exactly
        assert pos.upper == ZS31

    def test_knife_edge_start(self):
        report = failure_intervals(P31, r1(P31, ZS31))
        assert report.case is FailureCase.KNIFE_EDGE_X0
        neg, pos = report.intervals
        assert pos.lower == pos.upper == ZS31
        assert pos.lower_closed and pos.upper_closed
        assert neg.lower == neg.upper == -ZS31

    def test_low_start(self):
        report = failure_intervals(P31, 0.1)
        assert report.case is FailureCase.LOW_X0
        pos = report.intervals[1]
        assert pos.lower == ZS31
        assert pos.upper == pytest.approx(0.1 + 3.0 / 1.1, abs=1e-15)
        assert not pos.lower_closed and pos.upper_closed

    def test_low_start_at_tiny_scale(self):
        # r1(z_star) = 1.3e-26 here: an absolute knife-edge tolerance would swallow x0 = 0
        p = ProxParams(1.6269779599083617e-50, 4.36226149196013e-45)
        rep = failure_intervals(p, 0.0)
        assert rep.case is FailureCase.LOW_X0
        assert rep.intervals[1].lower == rep.z_star

    def test_intervals_inside_critical_band(self):
        for x0 in (0.0, 0.1, 0.5, 2.0, 10.0):
            report = failure_intervals(P31, x0)
            for iv in report.intervals:
                assert -3.0 <= iv.lower <= iv.upper <= 3.0
                assert abs(iv.lower) >= P31.bracket_low - 1e-12
                assert abs(iv.upper) >= P31.bracket_low - 1e-12

    def test_soundness_spot_check(self):
        rng = np.random.default_rng(31)
        for x0 in (2.0, 0.1):
            report = failure_intervals(P31, x0)
            neg, pos = report.intervals
            w = pos.upper - pos.lower
            inside = rng.uniform(pos.lower + 1e-6, pos.upper - 1e-6, size=20)
            for z in inside:
                z = float(z if rng.uniform() < 0.5 else -z)
                pred = irl1_predict_limit(P31, z, x0)
                assert not limit_matches_prox(P31, z, pred.limit)
            outside = np.concatenate([
                rng.uniform(0.0, P31.bracket_low - 1e-6, size=10),
                rng.uniform(max(pos.upper + 1e-6, ZS31 + 1e-6), 6.0, size=10),
            ])
            for z in outside:
                z = float(z if rng.uniform() < 0.5 else -z)
                if any(iv.contains(z) for iv in report.intervals):
                    continue
                pred = irl1_predict_limit(P31, z, x0)
                assert limit_matches_prox(P31, z, pred.limit)


def failure_report_by_case_table(p, x0):
    """``(x0, z_star, intervals, case)`` from failure_intervals's docstring, read literally,
    with the public ``r1`` and ``zx = x0 + lam/(eps + x0)``, the first case that holds."""
    s = math.sqrt(p.lam)
    if s <= p.eps:
        return x0, None, (), FailureCase.EXACT
    zs = z_star(p).z_star
    rs, top, zx = r1(p, zs), s - p.eps, x0 + p.lam / (p.eps + x0)
    if x0 >= top:
        case, pos = FailureCase.HIGH_X0, Interval(2.0 * s - p.eps, zs, True, False)
    elif abs(x0 - rs) <= 1e-12 * rs:
        case, pos = FailureCase.KNIFE_EDGE_X0, Interval(zs, zs, True, True)
    elif rs < x0 < top:
        case, pos = FailureCase.MID_X0, Interval(zx, zs, True, False)
    else:
        assert 0.0 <= x0 < rs
        case, pos = FailureCase.LOW_X0, Interval(zs, zx, False, True)
    return x0, zs, (pos.mirrored(), pos), case


@st.composite
def failure_cases(draw):
    """A pair from the tested band or the whole double range and a start chosen
    against ``r1(z_star)`` and ``sqrt(lam) - eps``."""
    if draw(st.booleans()):
        eps = draw(st.floats(0.1, 3.0))
        lam = (eps * draw(st.floats(0.15, 3.2))) ** 2
    else:
        lam, eps = 10.0 ** draw(st.floats(-300.0, 300.0)), 10.0 ** draw(st.floats(-300.0, 300.0))
    p = ProxParams(lam, eps)
    g = draw(st.floats(0.01, 0.99))
    any_x0 = math.sqrt(lam) * 10.0 ** draw(st.floats(-3.0, 3.0))
    if p.regime() is Regime.CONVEX:
        return p, draw(st.sampled_from([0.0, any_x0]))
    rs, top = r1(p, z_star(p).z_star), p.r1_max
    near = draw(st.sampled_from([5e-13, -5e-13, 3e-12, -3e-12]))  # inside and just outside the knife edge
    x0 = draw(st.sampled_from([0.0, g * rs, rs, rs * (1.0 + near), rs + g * (top - rs), top, top * (1.0 + g),
                               any_x0]))
    return p, x0


class TestFailureCaseTable:
    @example(case=(P23, 1.0))  # exact: convex
    @example(case=(P31, 2.0))  # high start
    @example(case=(P31, SQRT3 - 1.0))  # high start on sqrt(lam) - eps
    @example(case=(P31, 0.5))  # mid start
    @example(case=(P31, r1(P31, ZS31)))  # knife edge
    @example(case=(P31, r1(P31, ZS31) * (1.0 + 5e-13)))  # knife edge, within 1e-12
    @example(case=(P31, r1(P31, ZS31) * (1.0 + 3e-12)))  # mid start beside the knife edge
    @example(case=(P31, 0.1))  # low start
    @example(case=(P31, 0.0))  # low start at zero
    @example(case=(ProxParams(1.6269779599083617e-50, 4.36226149196013e-45), 0.0))  # r1(z_star) = 1.3e-26
    @given(failure_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_case_table(self, case):
        p, x0 = case
        got, want = failure_intervals(p, x0), failure_report_by_case_table(p, x0)
        assert got == want and repr(tuple(got)) == repr(want)
        if got.intervals:
            assert got.intervals[0] == got.intervals[1].mirrored()


class TestInterval:
    def test_contains_respects_closures(self):
        iv = Interval(1.0, 2.0, True, False)
        assert iv.contains(1.0)
        assert iv.contains(1.5)
        assert not iv.contains(2.0)
        assert not iv.contains(0.999)

    def test_mirrored_swaps_closures(self):
        iv = Interval(1.0, 2.0, True, False)
        m = iv.mirrored()
        assert (m.lower, m.upper) == (-2.0, -1.0)
        assert not m.lower_closed and m.upper_closed
        assert str(iv) == "[1.0, 2.0)"
        assert str(m) == "(-2.0, -1.0]"


class TestStartContract:
    """Both per-call entry points check ``x0`` with one comparison and report it as a float."""

    @pytest.mark.parametrize("x0", [math.nan, -1.0, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda x0: irl1_predict_limit(P31, 2.9, x0),
        lambda x0: failure_intervals(P31, x0),
        lambda x0: failure_intervals(P23, x0),
    ])
    def test_rejects_with_the_message(self, call, x0):
        with pytest.raises(PreconditionError, match=r"^x0 must be a finite nonnegative real, got "
                           + re.escape(repr(x0)) + "$"):
            call(x0)

    @pytest.mark.parametrize("x0, want", [(-0.0, -0.0), (1, 1.0), (np.float64(0.5), 0.5)])
    @pytest.mark.parametrize("params", [P31, P23])
    def test_accepts_and_reports_a_float(self, params, x0, want):
        report = failure_intervals(params, x0)
        assert type(report.x0) is float
        assert math.copysign(1.0, report.x0) == math.copysign(1.0, want) and report.x0 == want
        assert report == failure_intervals(params, float(x0))
        assert irl1_predict_limit(params, 2.9, x0) == irl1_predict_limit(params, 2.9, float(x0))

    @pytest.mark.parametrize("x0", [0.0, 0.1, r1(P31, ZS31), 0.6, SQRT3 - 1.0, 5.0])
    def test_negative_interval_is_the_mirror(self, x0):
        neg, pos = failure_intervals(P31, x0).intervals
        assert neg == pos.mirrored()


class TestZContract:
    """The scalar entry points reject a non-finite ``z``, as ``prox_vector`` does."""

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda z: irl1_predict_limit(P31, z, 1.0),
        lambda z: irl1_predict_limit(P31, z, 0.0),
        lambda z: irl1_predict_limit(P23, z, 1.0),
        lambda z: irl1_simulate(P31, z, 1.0, max_iters=10),
        lambda z: irl1_simulate(P23, z, 0.0, max_iters=10),
    ], ids=["predict-31", "predict-31-x0=0", "predict-23", "simulate-31", "simulate-23"])
    def test_rejects_with_the_message(self, call, z):
        with pytest.raises(PreconditionError, match=r"^z must be finite, got " + re.escape(repr(z)) + "$"):
            call(z)
