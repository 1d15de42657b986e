"""Componentwise vector operator."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from logsum_prox import scalar as scalar_module
from logsum_prox import (
    PreconditionError,
    ProxKind,
    ProxParams,
    Regime,
    logsum_penalty,
    prox_scalar,
    prox_vector,
    vector_objective,
    z_star,
)
from logsum_prox.scalar import _MASK_MIN

P31 = ProxParams(3.0, 1.0)
P23 = ProxParams(2.0, 3.0)

R2_23_5 = 1.0 + math.sqrt(14.0)
PROX_31_29 = 1.8458236433584458


def test_prox_at_origin():
    res = prox_vector(P23, [0.0, 0.0, 0.0])
    assert np.array_equal(res.canonical, np.zeros(3))
    assert res.objective_value == 0.0
    assert res.ambiguous_indices == ()


def test_componentwise_assembly():
    res = prox_vector(P23, [5.0, 0.5, -5.0])
    np.testing.assert_allclose(res.canonical, [R2_23_5, 0.0, -R2_23_5], rtol=1e-15)


def test_mixed_sides_of_jump():
    res = prox_vector(P31, [2.5, 2.9])
    np.testing.assert_allclose(res.canonical, [0.0, PROX_31_29], atol=1e-13)


def _log_uniform_pair(u, v):
    return ProxParams(10.0**u, 10.0**v)


def _boundary_pair(v):
    eps = 10.0**v
    return ProxParams(eps * eps, eps)  # sqrt(lam) == eps up to rounding: either regime


pairs_st = st.one_of(
    st.sampled_from([(3.0, 1.0), (0.5, 1.0), (4.0, 2.0), (1e10, 1e-10), (1e-300, 1e-160), (25.0, 1.0)])
    .map(lambda pair: ProxParams(*pair)),
    st.builds(_log_uniform_pair, st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
    st.builds(_boundary_pair, st.floats(-150.0, 150.0)),
)


def _landmarks(p):
    """``+-0.0``, ``+-z_star``, ``z_star*(1 +- 1e-12)``, ``lam/eps`` and its neighbour doubles."""
    out = [0.0, -0.0]
    t = p.threshold
    out += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    if p.regime() is Regime.NONCONVEX:
        zs = z_star(p).z_star
        out += [zs, zs * (1 + 1e-12), zs * (1 - 1e-12), math.nextafter(zs, math.inf)]
    out += [-v for v in out]
    return [v for v in out if math.isfinite(v)]


def _assert_componentwise(p, z):
    """``prox_vector(p, z)`` against ``prox_scalar`` on each component: canonical bits,
    the objective's bits and the ambiguous indices, which are Python ints."""
    res = prox_vector(p, z)
    scalar = [prox_scalar(p, v) for v in z]
    want = np.array([r.canonical for r in scalar])
    assert np.array_equal(res.canonical.view(np.int64), want.view(np.int64))
    assert res.ambiguous_indices == tuple(i for i, r in enumerate(scalar) if r.kind is ProxKind.PAIR)
    assert all(type(i) is int for i in res.ambiguous_indices)
    want_objective = vector_objective(p, want, z)
    assert np.float64(res.objective_value).view(np.int64) == np.float64(want_objective).view(np.int64)
    return res


@given(
    pairs_st,
    st.lists(st.floats(0.0, 4.0), max_size=20),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=10),
    st.integers(1, 16),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_matches_scalar_componentwise(p, scales, raw, tiles, rnd):
    # either pass applies the scalar rule bit for bit, -0.0 included, and reports
    # exactly the components where prox_scalar is two-valued; tiling the drawn
    # elements takes many vectors past _MASK_MIN, onto the mask pass
    landmarks = _landmarks(p)
    anchor = z_star(p).z_star if p.regime() is Regime.NONCONVEX else p.threshold
    z = (landmarks + [rnd.choice((-1.0, 1.0)) * s * anchor for s in scales] + raw) * tiles
    rnd.shuffle(z)
    _assert_componentwise(p, z)


def _edge_elements(p):
    """Landmarks of ``p`` plus a subnormal, inputs below ``eps`` (where ``r2`` goes by
    Vieta's formula when it is nonzero), inputs just above ``lam/eps`` and plain ones."""
    t, eps = p.threshold, p.eps
    out = _landmarks(p) + [5e-324, -2.2e-310, 1e-300]
    out += [eps * f for f in (0.25, 0.5, 0.9, 0.999999)]
    up = t
    for _ in range(4):
        up = math.nextafter(up, math.inf)
        out.append(up)
    out += [t * (1 + 1e-15), t * (1 + 1e-9), t * (1 + 1e-3)]
    rng = np.random.default_rng(17)
    out += (rng.uniform(-4.0, 4.0, 40) * max(t, eps)).tolist()
    out += [-v for v in out]
    return [v for v in out if math.isfinite(v)]


@pytest.mark.parametrize("pair", [(3.0, 1.0), (2.0, 3.0), (1e10, 1e-10), (0.9999, 1.0), (1e-300, 1e-160)])
def test_both_passes_at_the_mask_length(pair, monkeypatch):
    # the same elements at _MASK_MIN - 1 (the loop) and at _MASK_MIN (the mask pass)
    p = ProxParams(*pair)
    elements = _edge_elements(p)
    z = (elements * (_MASK_MIN // len(elements) + 1))[:_MASK_MIN]
    short = _assert_componentwise(p, z[:-1])
    full = _assert_componentwise(p, z)
    loops = []
    original = scalar_module._prox_values
    monkeypatch.setattr(scalar_module, "_prox_values", lambda *a: loops.append(len(a[1])) or original(*a))
    prox_vector(p, z[:-1])
    prox_vector(p, z)
    assert loops == [_MASK_MIN - 1]
    assert np.array_equal(full.canonical[:-1].view(np.int64), short.canonical.view(np.int64))
    if p.regime() is Regime.NONCONVEX:
        assert len(short.ambiguous_indices) >= 2


def test_objective_value_definition():
    z = np.array([5.0, 0.5, -5.0])
    res = prox_vector(P23, z)
    manual = float(np.sum((res.canonical - z) ** 2)) / (2 * P23.lam) + float(
        np.sum(np.log1p(np.abs(res.canonical) / P23.eps))
    )
    assert res.objective_value == pytest.approx(manual, rel=1e-15)
    assert res.objective_value == pytest.approx(vector_objective(P23, res.canonical, z), rel=1e-15)


def test_objective_rejects_mismatched_shapes():
    # broadcasting ones(3) against zeros(1) would give 2.579
    with pytest.raises(PreconditionError, match=r"same shape, got \(3,\) and \(1,\)"):
        vector_objective(P31, np.ones(3), np.zeros(1))


def test_penalty_where_the_quotient_overflows():
    # |x|/eps overflows a double for the first two entries; the penalty does not
    p = ProxParams(1e308, 1e-300)
    x = np.array([9.999e155, -1e156, 0.5, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsum_penalty(p, x)
    with mp.workdps(60):
        want = sum(mp.log(1 + abs(mpf(v)) / mpf(p.eps)) for v in x.tolist())
    assert abs(got - want) <= 1e-14 * want
    # a scalar or 0-d x takes the same fallback
    with mp.workdps(60):
        want = float(mp.log(1 + mpf(1e156) / mpf(p.eps)))
    for v in (1e156, np.float64(-1e156), np.array(1e156)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(logsum_penalty(p, v) - want) <= 1e-14 * want
    # where nothing overflows, the value is the plain sum, bit for bit
    y = np.random.default_rng(7).standard_normal(100) * 1e3
    assert logsum_penalty(p, y) == float(np.sum(np.log1p(np.abs(y) / p.eps)))


def test_objective_where_the_difference_overflows():
    # x - z overflows a double in the first entry; the objective does not
    p = ProxParams(1.7e308, 1.0)
    x, z = [1e308, 0.5], [-1e308, 0.25]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = vector_objective(p, x, z)
    with mp.workdps(60):
        want = sum((mpf(a) - mpf(b)) ** 2 / (2 * mpf(p.lam)) + mp.log(1 + abs(mpf(a)) / mpf(p.eps))
                   for a, b in zip(x, z))
    assert abs(got - want) <= 1e-14 * want


def test_objective_dominates_trivial_candidates():
    rng = np.random.default_rng(5)
    for p in (P23, P31):
        for _ in range(25):
            z = rng.uniform(-10, 10, size=6)
            res = prox_vector(p, z)
            assert res.objective_value <= vector_objective(p, z, z) + 1e-12
            assert res.objective_value <= vector_objective(p, np.zeros_like(z), z) + 1e-12


def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    z = rng.uniform(-6, 6, size=12)
    perm = rng.permutation(12)
    base = prox_vector(P31, z).canonical
    shuffled = prox_vector(P31, z[perm]).canonical
    assert np.array_equal(shuffled, base[perm])


def test_ambiguous_components_reported():
    zs = z_star(P31).z_star
    z = np.array([zs, 1.0, -zs])
    res = prox_vector(P31, z)
    assert res.ambiguous_indices == (0, 2)
    assert res.canonical[0] == 0.0 and res.canonical[2] == 0.0
    # the alternative branch at an ambiguous component ties in objective:
    # the full minimizer set is the 2^2-element product of the scalar sets
    alt = res.canonical.copy()
    pair = prox_scalar(P31, zs)
    count = 0
    for b0 in pair.values:
        for b2 in (-v for v in pair.values):
            cand = alt.copy()
            cand[0], cand[2] = b0, b2
            count += 1
            assert vector_objective(P31, cand, z) == pytest.approx(
                res.objective_value, abs=1e-10
            )
    assert count == 2 ** len(res.ambiguous_indices)


def prox_vector_sorted_check(params, z) -> bool:
    """Whether the canonical prox of descending nonnegative ``z`` is again
    descending and nonnegative, as the singular-value reduction of the
    matrix prox needs.  Raises ``PreconditionError`` if ``z`` itself is not
    descending nonnegative."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0) or np.any(np.diff(z) > 0):
        raise PreconditionError("z must be sorted descending with nonnegative entries")
    out = prox_vector(params, z).canonical
    return bool(np.all(out >= 0) and np.all(np.diff(out) <= 0))


class TestSortedCheck:
    def test_plain_descending(self):
        assert prox_vector_sorted_check(P23, [3.0, 2.0, 1.0])
        assert prox_vector_sorted_check(P31, [3.0, 2.0, 1.0])

    def test_straddling_the_jump(self):
        zs = z_star(P31).z_star
        assert prox_vector_sorted_check(P31, [zs + 0.1, zs - 0.1])
        out = prox_vector(P31, [zs + 0.1, zs - 0.1]).canonical
        assert out[0] > 0.0 and out[1] == 0.0

    def test_constant_vector(self):
        assert prox_vector_sorted_check(P31, [2.7, 2.7, 2.7])
        out = prox_vector(P31, [2.7, 2.7, 2.7]).canonical
        assert out[0] == out[1] == out[2]

    def test_random_descending_inputs(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            z = np.sort(rng.uniform(0, 8, size=7))[::-1]
            assert prox_vector_sorted_check(P31, z)

    def test_precondition_errors(self):
        with pytest.raises(PreconditionError):
            prox_vector_sorted_check(P31, [1.0, 2.0])
        with pytest.raises(PreconditionError):
            prox_vector_sorted_check(P31, [2.0, -1.0])


class TestValidation:
    def test_empty(self):
        with pytest.raises(PreconditionError):
            prox_vector(P31, [])

    def test_nonfinite(self):
        with pytest.raises(PreconditionError):
            prox_vector(P31, [1.0, float("nan")])
        with pytest.raises(PreconditionError):
            prox_vector(P31, [float("inf")])

    def test_not_a_vector(self):
        with pytest.raises(PreconditionError):
            prox_vector(P31, [[1.0, 2.0], [3.0, 4.0]])

    def test_scalar_is_promoted(self):
        res = prox_vector(P23, 5.0)
        assert res.canonical.shape == (1,)
        assert res.canonical[0] == pytest.approx(R2_23_5, rel=1e-15)
