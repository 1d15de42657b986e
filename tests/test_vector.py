"""Componentwise vector operator."""

import math
import warnings

import numpy as np
import pytest
from mpmath import mp, mpf

from logsum_prox import (
    PreconditionError,
    ProxParams,
    logsum_penalty,
    prox_scalar,
    prox_vector,
    vector_objective,
    z_star,
)

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


def test_matches_scalar_componentwise():
    rng = np.random.default_rng(3)
    z = rng.uniform(-8, 8, size=40)
    res = prox_vector(P31, z)
    for zi, vi in zip(z, res.canonical):
        assert vi == prox_scalar(P31, float(zi)).canonical


def test_objective_value_definition():
    z = np.array([5.0, 0.5, -5.0])
    res = prox_vector(P23, z)
    manual = float(np.sum((res.canonical - z) ** 2)) / (2 * P23.lam) + float(
        np.sum(np.log1p(np.abs(res.canonical) / P23.eps))
    )
    assert res.objective_value == pytest.approx(manual, rel=1e-15)
    assert res.objective_value == pytest.approx(vector_objective(P23, res.canonical, z), rel=1e-15)


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
