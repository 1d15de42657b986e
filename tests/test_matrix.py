"""Singular-value matrix operator and the log-det penalty."""

import math
import warnings

import numpy as np
import pytest
from mpmath import mp, mpf

from logsum_prox import (
    PreconditionError,
    ProxParams,
    logdet_penalty,
    matrix_objective,
    prox_matrix,
    prox_vector,
    svd,
    z_star,
)

P31 = ProxParams(3.0, 1.0)
P23 = ProxParams(2.0, 3.0)

R2_23_5 = 1.0 + math.sqrt(14.0)
PROX_31_29 = 1.8458236433584458


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def eigh_logdet(params, x):
    # independent route: eigendecomposition of the Gram matrix
    x = np.asarray(x, dtype=float)
    gram = x @ x.T if x.shape[0] <= x.shape[1] else x.T @ x
    ev = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    return float(np.sum(np.log1p(np.sqrt(ev) / params.eps)))


class TestSvd:
    def test_identity(self):
        fac = svd(np.eye(2))
        np.testing.assert_allclose(fac.singular_values, [1.0, 1.0], atol=1e-15)

    def test_signs_absorbed(self):
        fac = svd(np.diag([3.0, -2.0]))
        np.testing.assert_allclose(fac.singular_values, [3.0, 2.0], atol=1e-15)
        np.testing.assert_allclose(fac.reconstruct(), np.diag([3.0, -2.0]), atol=1e-14)

    def test_factorization_invariants(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3))
        fac = svd(x)
        k = 3
        np.testing.assert_allclose(fac.u.T @ fac.u, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(fac.v.T @ fac.v, np.eye(k), atol=1e-10)
        assert np.all(np.diff(fac.singular_values) <= 0)
        assert np.all(fac.singular_values >= 0)
        err = np.linalg.norm(fac.reconstruct() - x)
        assert err <= 1e-9 * np.linalg.norm(x)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 4))
        a, b = svd(x), svd(x)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.singular_values, b.singular_values)
        assert np.array_equal(a.v, b.v)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            svd(np.array([1.0, 2.0]))
        with pytest.raises(PreconditionError):
            svd(np.array([[np.nan, 1.0]]))


class TestProxMatrix:
    def test_zero_matrix(self):
        res = prox_matrix(P23, np.zeros((3, 4)))
        assert np.array_equal(res.x_star, np.zeros((3, 4)))
        assert res.objective_value == 0.0
        assert np.array_equal(res.d, np.zeros(3))

    def test_diagonal_example(self):
        res = prox_matrix(P23, np.diag([5.0, 0.1]))
        np.testing.assert_allclose(res.d, [R2_23_5, 0.0], rtol=1e-14)
        np.testing.assert_allclose(res.x_star, np.diag([R2_23_5, 0.0]), atol=1e-12)
        assert np.count_nonzero(res.d) == 1  # rank 2 -> 1

    def test_rotated_diagonal(self):
        rng = np.random.default_rng(6)
        q1 = random_orthogonal(rng, 2)
        q2 = random_orthogonal(rng, 2)
        z = q1 @ np.diag([2.9, 2.5]) @ q2.T
        res = prox_matrix(P31, z)
        np.testing.assert_allclose(res.d, [PROX_31_29, 0.0], atol=1e-10)
        s = np.linalg.svd(res.x_star, compute_uv=False)
        np.testing.assert_allclose(s, [PROX_31_29, 0.0], atol=1e-8)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((5, 4)) * 2.0
        q1 = random_orthogonal(rng, 5)
        q2 = random_orthogonal(rng, 4)
        base = np.linalg.svd(prox_matrix(P31, z).x_star, compute_uv=False)
        rotated = np.linalg.svd(prox_matrix(P31, q1 @ z @ q2.T).x_star, compute_uv=False)
        np.testing.assert_allclose(rotated, base, atol=1e-8)

    def test_singular_values_match_vector_prox(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m, n = rng.integers(1, 7), rng.integers(1, 9)
            z = rng.standard_normal((m, n)) * rng.uniform(0.3, 6.0)
            res = prox_matrix(P31, z)
            expected = prox_vector(P31, np.linalg.svd(z, compute_uv=False)).canonical
            np.testing.assert_allclose(res.d, expected, atol=1e-12)
            np.testing.assert_allclose(
                np.linalg.svd(res.x_star, compute_uv=False), expected, atol=1e-8
            )
            assert np.all(np.diff(res.d) <= 0)

    def test_rank_never_increases(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            left = rng.standard_normal((5, 2))
            right = rng.standard_normal((2, 6))
            z = left @ right  # rank <= 2
            res = prox_matrix(P31, z)
            assert np.count_nonzero(res.d) <= np.linalg.matrix_rank(z)

    def test_diagonal_consistency(self):
        w = np.array([6.0, 3.0, 0.4])
        res = prox_matrix(P31, np.diag(w))
        np.testing.assert_allclose(res.x_star, np.diag(prox_vector(P31, w).canonical), atol=1e-12)

    def test_ambiguous_singular_value(self):
        zs = z_star(P31).z_star
        res = prox_matrix(P31, np.diag([zs, 1.0]))
        assert res.ambiguous_indices == (0,)
        np.testing.assert_allclose(res.d, [0.0, 0.0], atol=0)

    def test_objective_value_consistency(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal((3, 5))
        res = prox_matrix(P23, z)
        assert res.objective_value == pytest.approx(
            matrix_objective(P23, res.x_star, z), abs=1e-12
        )

    def test_objective_where_the_difference_overflows(self):
        # X - Z overflows a double in its first entry; the objective does not
        p = ProxParams(1.7e308, 1.0)
        x, z = np.diag([1e308, 0.5]), np.diag([-1e308, 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = matrix_objective(p, x, z)
        with mp.workdps(60):
            lam, eps = mpf(p.lam), mpf(p.eps)
            want = sum((mpf(a) - mpf(b)) ** 2 / (2 * lam) + mp.log(1 + abs(mpf(a)) / eps)
                       for a, b in ((1e308, -1e308), (0.5, 0.25)))
        assert abs(got - want) <= 1e-14 * want

    def test_objective_where_the_squares_overflow(self):
        # 2*lam, the squares of the entries of X* - Z and |d_i|/eps all overflow a double
        p = ProxParams(1e308, 1e-300)
        z = np.diag([1e156, 2e155])  # z_star = 4.58e155 lies between them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = prox_matrix(p, z)
            direct = matrix_objective(p, res.x_star, z)
        with mp.workdps(60):
            lam, eps = mpf(p.lam), mpf(p.eps)
            want = 0
            for sigma in (mpf(1e156), mpf(2e155)):
                x = (sigma - eps) / 2 + mp.sqrt((sigma + eps) ** 2 / 4 - lam)
                want += min(sigma**2 / (2 * lam), (x - sigma) ** 2 / (2 * lam) + mp.log(1 + x / eps))
            assert abs(res.objective_value - want) <= 1e-12 * want
            assert abs(direct - want) <= 1e-12 * want

    def test_objective_beats_candidates_small_scale(self):
        rng = np.random.default_rng(16)
        for shape in ((2, 2), (3, 2)):
            z = rng.standard_normal(shape) * 3.0
            res = prox_matrix(P31, z)
            cands = [z, np.zeros(shape), 0.5 * z, 2.0 * z, res.x_star + 1e-3 * rng.standard_normal(shape)]
            cands += [rng.standard_normal(shape) * s for s in (0.5, 1.0, 2.0, 4.0)]
            for c in cands:
                assert res.objective_value <= matrix_objective(P31, c, z) + 1e-9


class TestLogdetPenalty:
    def test_zero(self):
        assert logdet_penalty(P23, np.zeros((2, 5))) == 0.0

    def test_diag_eps(self):
        p = ProxParams(1.0, 0.7)
        got = logdet_penalty(p, np.diag([0.7, 0.7]))
        assert got == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_values_only_svd_matches_the_full_one(self):
        rng = np.random.default_rng(19)
        low_rank = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 30))
        for x in (rng.standard_normal((416, 320)), rng.standard_normal((3, 7)) * 4.0, low_rank, np.eye(3)):
            full = float(np.sum(np.log1p(svd(x).singular_values / P31.eps)))
            assert logdet_penalty(P31, x) == pytest.approx(full, rel=1e-12)

    def test_matches_gram_eigendecomposition(self):
        rng = np.random.default_rng(18)
        for shape in ((3, 4), (4, 3), (2, 6), (5, 5)):
            x = rng.standard_normal(shape) * rng.uniform(0.2, 4.0)
            assert logdet_penalty(P23, x) == pytest.approx(eigh_logdet(P23, x), abs=1e-9)
