"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy criteria keep
explicit runtime budgets; the whole module finishes in a few minutes.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import sqrt as msqrt

from grid_oracle import oracle_prox_info, oracle_z_star
from logsum_prox import (
    FailureCase,
    ProxParams,
    Regime,
    failure_intervals,
    irl1_predict_limit,
    irl1_simulate,
    logdet_penalty,
    prox_matrix,
    prox_scalar,
    prox_vector,
    q_objective,
    r1,
    r2,
    z_star,
)
from logsum_prox.cli import main as cli_main
from logsum_prox.matrix_io import read_matrix_csv, write_matrix_csv

P31 = ProxParams(3.0, 1.0)
ZS31 = z_star(P31).z_star


def _within(limit, values, tol):
    """Whether ``limit`` is within the absolute ``tol`` of a member of ``values``."""
    return any(abs(limit - v) <= tol for v in values)


def tie_gap(p, z):
    """The tie gap ``q(r2(z)) - q(0)`` in z-units; its unique root is the jump point."""
    return q_objective(p, z, r2(p, z)) - q_objective(p, z, 0.0)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {desc}")


def _sample_triples(rng, n):
    """(params, z) pairs spanning both regimes and every band, with a small
    relative margin from band edges (knife-edge inputs are measure zero)."""
    out = []
    while len(out) < n:
        eps = float(np.exp(rng.uniform(np.log(0.1), np.log(3.0))))
        if rng.uniform() < 0.5:
            ratio = float(np.exp(rng.uniform(np.log(0.15), np.log(0.985))))
        else:
            ratio = float(np.exp(rng.uniform(np.log(1.015), np.log(3.2))))
        p = ProxParams((ratio * eps) ** 2, eps)
        thr = p.threshold
        if p.regime() is Regime.CONVEX:
            edges = [0.0, thr, thr * 1.3 + 8.0]
        else:
            zs = z_star(p).z_star
            edges = [0.0, p.bracket_low, zs, thr, thr * 1.3 + 8.0]
        k = int(rng.integers(0, len(edges) - 1))
        a, b = edges[k], edges[k + 1]
        w = b - a
        if w <= 0:
            continue
        m = max(1e-6 * w, 1e-12)
        z = float(rng.uniform(a + m, b - m))
        if rng.uniform() < 0.5:
            z = -z
        out.append((p, z))
    return out


def test_criterion_1_oracle_equivalence():
    with criterion(1, "closed-form prox matches the grid oracle over 1e4 triples"):
        rng = np.random.default_rng(101)
        triples = _sample_triples(rng, 10_000)
        worst = 0.0
        for p, z in triples:
            info = oracle_prox_info(p, z, 10_001)
            closed = prox_scalar(p, z).canonical
            diff = abs(info.value - closed)
            tol = 10.0 * info.final_spacing
            assert diff <= tol, (p, z, info.value, closed, tol)
            assert tol <= 1e-7  # spacing bound stays below the absolute envelope
            worst = max(worst, diff)
        assert worst <= 1e-7


def test_criterion_2_jump_point_landmarks():
    with criterion(2, "z_star landmarks for (lam, eps) = (3, 1)"):
        res = z_star(P31)
        lo, hi = 2.0 * math.sqrt(3.0) - 1.0, 3.0
        assert lo < res.z_star < hi
        grid = oracle_z_star(P31, 20_001)
        assert abs(grid - res.z_star) <= 1e-6
        d = 1e-6
        assert tie_gap(P31, res.z_star - d) > 0.0 > tie_gap(P31, res.z_star + d)
        # endpoint values against independent closed forms (direct reduction
        # of q(r2) - q(0) at each endpoint)
        lam, eps = 3.0, 1.0
        sq = math.sqrt(lam)
        left = -math.log(eps / sq) + (2.0 * eps / sq - eps**2 / (2.0 * lam) - 1.5)
        right = eps**2 / (2.0 * lam) + math.log(lam / eps**2) - lam / (2.0 * eps**2)
        assert abs(tie_gap(P31, lo) - left) <= 1e-12
        assert abs(tie_gap(P31, hi) - right) <= 1e-12
        assert left > 0.0 > right


def _run_sweep(tmp_path, lam, eps, a, b, n):
    out = tmp_path / f"sweep_{lam}_{eps}.csv"
    code = cli_main([
        "sweep", "--lambda", str(lam), "--eps", str(eps),
        "--from", str(a), "--to", str(b), "--points", str(n),
        "--format", "csv", "--output", str(out),
    ])
    assert code == 0
    rows = [tuple(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
    return rows


def test_criterion_3_shrinkage_curve_shapes(tmp_path):
    with criterion(3, "sweep curves: continuous for (2,3), jump of height r2(z*) for (3,1)"):
        rows = _run_sweep(tmp_path, 2.0, 3.0, -6.0, 6.0, 1201)
        assert len(rows) == 1201
        vals = np.array([v for _, v in rows])
        zs = np.array([z for z, _ in rows])
        # flat exactly on [-2/3, 2/3]
        inside = np.abs(zs) <= 2.0 / 3.0
        assert np.all(vals[inside] == 0.0)
        assert np.all(vals[~inside] != 0.0)
        # no interior jump: max gap bounded by max slope * grid step
        assert np.max(np.abs(np.diff(vals))) <= 0.02

        rows = _run_sweep(tmp_path, 3.0, 1.0, -6.0, 6.0, 1201)
        zs = np.array([z for z, _ in rows])
        vals = np.array([v for _, v in rows])
        gaps = np.abs(np.diff(vals))
        jump_idx = np.where(gaps > 0.5)[0]
        assert len(jump_idx) == 2
        height = r2(P31, ZS31)
        for j in jump_idx:
            assert gaps[j] == pytest.approx(height, abs=0.05)
            assert min(abs(zs[j] - ZS31), abs(zs[j] + ZS31)) <= 0.011
        assert np.max(np.delete(gaps, jump_idx)) <= 0.05


def test_criterion_4_convex_regime_exactness():
    with criterion(4, "convex regime: simulated limit is always a true minimizer"):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            eps = float(np.exp(rng.uniform(np.log(0.2), np.log(3.0))))
            ratio = float(rng.uniform(0.1, 0.95))
            p = ProxParams((ratio * eps) ** 2, eps)
            thr = p.threshold
            z = float(rng.uniform(-(2 * thr + 3), 2 * thr + 3))
            x0 = float(rng.uniform(0.0, 5.0))
            trace = irl1_simulate(p, z, x0)
            assert _within(trace.limit_estimate, prox_scalar(p, z).values, 1e-8), (p, z, x0)


def _complement_segments(report, thr):
    """Positive-axis complement of the failure set, up to thr + 2."""
    m = 1e-6
    pos = report.intervals[1]
    zs = report.z_star
    case = report.case
    if case in (FailureCase.HIGH_X0, FailureCase.MID_X0):
        return [(1e-3, pos.lower - m), (zs + m, thr + 2.0)]
    if case is FailureCase.KNIFE_EDGE_X0:
        return [(1e-3, zs - m), (zs + m, thr + 2.0)]
    return [(1e-3, zs - m), (pos.upper + m, thr + 2.0)]  # LOW_X0


def test_criterion_5_failure_intervals():
    x0_list = [0.0, 0.1, r1(P31, ZS31), 0.5, math.sqrt(3.0) - 1.0, 2.0, 10.0]
    expected_cases = [
        FailureCase.LOW_X0, FailureCase.LOW_X0, FailureCase.KNIFE_EDGE_X0,
        FailureCase.MID_X0, FailureCase.HIGH_X0, FailureCase.HIGH_X0, FailureCase.HIGH_X0,
    ]
    with criterion(5, "failure intervals: limit wrong inside, right outside (7 starts)"):
        rng = np.random.default_rng(303)
        for x0, case in zip(x0_list, expected_cases):
            report = failure_intervals(P31, x0)
            assert report.case is case, (x0, report.case)
            neg, pos = report.intervals
            assert (neg.lower, neg.upper) == (-pos.upper, -pos.lower)
            if case is FailureCase.KNIFE_EDGE_X0:
                inside = np.array([ZS31])  # degenerate interval: its single point
            else:
                inside = rng.uniform(pos.lower + 1e-6, pos.upper - 1e-6, size=100)
            for z in inside:
                z = float(z if rng.uniform() < 0.5 else -z)
                pred = irl1_predict_limit(P31, z, x0)
                assert not _within(pred.limit, prox_scalar(P31, z).values, 1e-8), (x0, z)
            segments = _complement_segments(report, P31.threshold)
            lens = np.array([b - a for a, b in segments])
            counts = np.maximum((100 * lens / lens.sum()).astype(int), 1)
            outside = np.concatenate([
                rng.uniform(a + 1e-9, b - 1e-9, size=c)
                for (a, b), c in zip(segments, counts)
            ])
            for z in outside[:100]:
                z = float(z if rng.uniform() < 0.5 else -z)
                pred = irl1_predict_limit(P31, z, x0)
                assert _within(pred.limit, prox_scalar(P31, z).values, 1e-8), (x0, z)
            # simulation cross-checks away from interval endpoints
            if case is not FailureCase.KNIFE_EDGE_X0:
                w = pos.upper - pos.lower
                spots = pos.lower + w * np.array([0.3, 0.5, 0.7])
            else:
                spots = np.array([ZS31])
            for z in spots:
                z = float(z)
                sim = irl1_simulate(P31, z, x0)
                pred = irl1_predict_limit(P31, z, x0)
                assert abs(sim.limit_estimate - pred.limit) <= 1e-7
                assert not _within(sim.limit_estimate, prox_scalar(P31, z).values, 1e-6)


def test_criterion_6_concrete_failure_witness():
    with criterion(6, "witness (3,1,z=2.5,x0=2): iteration limit 1.0 vs true prox {0}"):
        trace = irl1_simulate(P31, 2.5, 2.0)
        assert trace.limit_estimate == pytest.approx(1.0, abs=1e-10)
        assert r2(P31, 2.5) == 1.0
        res = prox_scalar(P31, 2.5)
        assert res.values == (0.0,)
        assert q_objective(P31, 2.5, 0.0) < q_objective(P31, 2.5, 1.0)


def _candidate_objectives(params, z, cands):
    fro = np.sum((cands - z) ** 2, axis=(1, 2)) / (2.0 * params.lam)
    sv = np.linalg.svd(cands, compute_uv=False)
    pen = np.sum(np.log1p(sv / params.eps), axis=1)
    return fro + pen


@mp.workdps(30)
def _gram_logdet(params, x):
    """log det(I + (x x^T)^{1/2}/eps) via a high-precision symmetric
    eigendecomposition of the Gram matrix.

    Forming the Gram matrix squares the condition number, so in double
    precision small singular values would drown in noise; running the whole
    route in mpmath keeps the independent evaluation accurate to far below
    the 1e-9 comparison tolerance.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] > x.shape[1]:
        x = x.T
    a = mp.matrix([[mpf(v) for v in row] for row in x])
    gram = a * a.T
    ev = mp.eigsy(gram, eigvals_only=True)
    total = mpf(0)
    for e in ev:
        if e > 0:
            total += mp.log(1 + mp.sqrt(e) / mpf(repr(params.eps)))
    return float(total)


def test_criterion_7_matrix_prox():
    with criterion(7, "matrix prox: sigma reduction, 1e4-candidate optimality, log-det identity"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 9))
            scale = float(np.exp(rng.uniform(-0.5, 1.5)))
            style = rng.integers(0, 3)
            if style == 0:
                z = rng.standard_normal((m, n)) * scale
            elif style == 1:
                k = int(rng.integers(1, min(m, n) + 1))
                z = (rng.standard_normal((m, k)) @ rng.standard_normal((k, n))) * scale
            else:
                z = np.zeros((m, n))
                d = rng.uniform(0, 4 * scale, size=min(m, n))
                z[: min(m, n), : min(m, n)] = np.diag(np.sort(d)[::-1])
            eps = float(np.exp(rng.uniform(np.log(0.3), np.log(2.0))))
            ratio = float(np.exp(rng.uniform(np.log(0.25), np.log(3.0))))
            p = ProxParams((ratio * eps) ** 2, eps)

            res = prox_matrix(p, z)
            sv_z = np.linalg.svd(z, compute_uv=False)
            expected = prox_vector(p, sv_z).canonical
            np.testing.assert_allclose(res.d, expected, atol=1e-10)
            np.testing.assert_allclose(
                np.linalg.svd(res.x_star, compute_uv=False), expected, atol=1e-8
            )

            structured = [z, np.zeros_like(z), res.x_star]
            structured += [a * z for a in np.linspace(0.1, 2.0, 20)]
            u, s, vt = np.linalg.svd(z, full_matrices=False)
            for k in range(min(m, n)):
                s_cut = s.copy()
                s_cut[k:] = 0.0
                structured.append((u * s_cut) @ vt)
            n_struct = len(structured)
            noise = rng.standard_normal((10_000 - n_struct, m, n))
            amp = np.exp(rng.uniform(-3, 1, size=(10_000 - n_struct, 1, 1)))
            cands = np.concatenate([
                np.array(structured),
                res.x_star + noise * amp * max(scale, 0.1),
            ])
            assert cands.shape[0] == 10_000
            objs = _candidate_objectives(p, z, cands)
            assert res.objective_value <= float(np.min(objs)) + 1e-9

            assert logdet_penalty(p, z) == pytest.approx(_gram_logdet(p, z), abs=1e-9)
            assert logdet_penalty(p, res.x_star) == pytest.approx(
                _gram_logdet(p, res.x_star), abs=1e-9
            )


def test_criterion_8_near_unbiasedness():
    with criterion(8, "large-input expansion bound 8*lam^3/(|z|+eps)^5 on 20x1000 grid"), mp.workdps(40):
        rng = np.random.default_rng(505)
        for _ in range(20):
            eps = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
            ratio = float(np.exp(rng.uniform(np.log(0.1), np.log(4.0))))
            lam = (ratio * eps) ** 2
            p = ProxParams(lam, eps)
            base = max(lam / eps, 2.0 * math.sqrt(lam) - eps, 1.0)
            le, ll = mpf(repr(eps)), mpf(repr(lam))
            for t in np.geomspace(10.0, 1000.0, 1000):
                z = float(t * base)
                lz = mpf(repr(z))
                s = lz + le
                r2_hp = (lz - le) / 2 + msqrt(s**2 / 4 - ll)
                approx = lz - ll / s - ll**2 / s**3
                assert abs(r2_hp - approx) <= 8 * ll**3 / s**5, (lam, eps, z)
                # the shipped double-precision r2 tracks the 40-digit value
                assert abs(mpf(repr(r2(p, z))) - r2_hp) <= mpf("1e-14") * (1 + abs(r2_hp))


def test_matrix_csv_interface_end_to_end(tmp_path):
    # not a numbered criterion: exercises the documented matprox file flow
    z = np.diag([5.0, 0.1])
    src, dst = tmp_path / "z.csv", tmp_path / "x.csv"
    write_matrix_csv(src, z)
    code = cli_main(["matprox", "--lambda", "2", "--eps", "3",
                     "--in", str(src), "--out", str(dst),
                     "--output", str(tmp_path / "summary.txt")])
    assert code == 0
    got = read_matrix_csv(dst)
    np.testing.assert_allclose(np.diag(got), [1.0 + math.sqrt(14.0), 0.0], rtol=1e-14)
