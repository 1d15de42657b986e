"""Self-test of the benchmark's output checks: planted wrong values are flagged
and correct ones pass.  It needs no library code.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math

import numpy as np
import pytest

import reference as ref
import workloads
from workloads import BAD, KNOWN, OK

# z_star at (1e10, 1e-10) as returned by the bisection with the stop test
# abs(resid) <= tol; the true jump point is 8.565e5.
WRONG_ZSTAR_1E10 = 363997880.7091705


def simulate_irl1(lam, eps, a, x0, steps=20000):
    x = np.array(x0, dtype=float)
    for _ in range(steps):
        x = np.maximum(a - lam / (eps + x), 0.0)
    return x


def test_zstar_check_flags_the_stop_rule_fault():
    truth = ref.zstar_mp(1e10, 1e-10, dps=60)
    assert truth == pytest.approx(856499.25613197, rel=1e-13)
    assert not workloads._close(WRONG_ZSTAR_1E10, truth)
    assert workloads._close(truth * (1 + 1e-12), truth)
    assert float(ref.zstar(1e10, 1e-10)) == pytest.approx(truth, rel=1e-15)


@pytest.mark.parametrize("lam,eps", [(3.0, 1.0), (0.7, 0.2), (1e10, 1e-10), (1e40, 1e-30)])
def test_numpy_jump_point_matches_mpmath(lam, eps):
    assert float(ref.zstar(lam, eps)) == pytest.approx(ref.zstar_mp(lam, eps, dps=50), rel=1e-14)


def test_prox_check_flags_wrong_branch_value_and_sign():
    lam, eps = 3.0, 1.0
    zs = float(ref.zstar(lam, eps))
    z = np.array([zs * (1 - 1e-6), zs * (1 + 1e-6), -5.0, 0.3, 7.5])
    good = ref.prox(lam, eps, z, zs)
    assert good[0] == 0.0 and good[1] > 0.0
    assert not ref.prox_errors(lam, eps, z, good, zs).any()
    for i, wrong in [(0, float(ref.r2(lam, eps, z[0]))),  # point branch below z*
                     (1, 0.0),                              # zero branch above z*
                     (2, good[2] * (1 + 1e-8)),             # value off by 1e-8
                     (4, -good[4])]:                        # sign flipped
        x = good.copy()
        x[i] = wrong
        assert ref.prox_errors(lam, eps, z, x, zs)[i], i
    # the property checks alone catch a branch decided against the objective
    x = good.copy()
    x[1] = 0.0
    assert ref.prox_property_errors(lam, eps, z, x)[1]


def test_wrong_zstar_gives_wrong_branches_at_the_probes():
    lam, eps = 1e10, 1e-10
    truth = ref.zstar_mp(lam, eps)
    probes = truth * np.array([1 - 1e-6, 1 + 1e-6])
    from_wrong = ref.prox(lam, eps, probes, WRONG_ZSTAR_1E10)
    assert ref.prox_errors(lam, eps, probes, from_wrong, truth)[1]
    assert not ref.prox_errors(lam, eps, probes, ref.prox(lam, eps, probes, truth), truth).any()


def test_odd_symmetry_check():
    rng = np.random.default_rng(0)
    z, mirror, _ = workloads._branch_mix(rng, 64, 2.0, 8.0, 1)
    assert np.array_equal(z[mirror], -z)
    x = ref.prox(3.0, 1.0, z)
    assert not ref.odd_symmetry_errors(x, mirror).any()
    x[np.flatnonzero(x)[0]] *= 1 + 1e-15
    assert ref.odd_symmetry_errors(x, mirror).any()


def test_irl1_limit_matches_the_iteration():
    lam, eps = 3.0, 1.0
    rng = np.random.default_rng(1)
    a = rng.uniform(0.0, 1.3 * lam / eps, 400)
    for x0 in (0.0, 0.2, 0.5, 1.0, 3.0):
        want = simulate_irl1(lam, eps, a, np.full_like(a, x0))
        got = ref.irl1_limit(lam, eps, a, np.full_like(a, x0))
        # the iteration creeps near the double root 2*sqrt(lam) - eps
        far = np.abs(a - (2 * math.sqrt(lam) - eps)) > 1e-2
        np.testing.assert_allclose(got[far], want[far], rtol=1e-9, atol=1e-12)


def param_scan_digests(ps, k):
    """Outputs the way a correct library would give them, from the references."""
    ps.round_inputs(k)
    r = ps._round
    out = []
    for i in range(ps.ROUND):
        lam, eps, zs, x0, z = r["lam"][i], r["eps"][i], r["zs"][i], r["x0"][i], r["z"][i]
        low = 2 * math.sqrt(lam) - eps
        x = ref.prox(lam, eps, z, zs)
        obj = np.sum((x - z) ** 2) / (2 * lam) + np.sum(np.log1p(np.abs(x) / eps))
        inv = x0 + lam / (eps + x0)
        rep = np.array([[0, zs, zs, inv[0], 0, 1, 1], [0, zs, zs, inv[1], 0, 1, 1],
                        [1, zs, inv[2], zs, 1, 0, 1], [2, zs, low, zs, 1, 0, 1]], dtype=float)
        lim = ref.irl1_limit(lam, eps, np.tile(z, 4), np.repeat(x0, z.size))
        head = np.array([zs, low, lam / eps, 0, obj])
        out.append((head, x, rep, lim, lim == 0.0))
    return out


def test_param_scan_check_sorts_wrong_ops():
    ps = workloads.ParamScan(None, seed=7, workdir="")
    digests = param_scan_digests(ps, 0)
    assert ps.check(0, None, digests) == [OK] * ps.ROUND
    band, wide = 0, int(ps.wide_pos[0])
    for i in (band, wide):
        head = digests[i][0].copy()
        head[0] *= 1 + 1e-6
        digests[i] = (head,) + digests[i][1:]
    lim = digests[band + 1][3].copy()
    lim[3] += 1e-3
    digests[band + 1] = digests[band + 1][:3] + (lim, digests[band + 1][4])
    status = ps.check(0, None, digests)
    assert status[band] == BAD and status[band + 1] == BAD and status[wide] == KNOWN
    assert status.count(OK) == ps.ROUND - 3


def test_matprox_check_flags_wrong_singular_values_and_rank(tmp_path):
    mp = workloads.MatProx(None, seed=3, workdir=str(tmp_path), fmt="bin")
    sv, d, rank_in, obj = mp._expect(0)
    u, _, vt = np.linalg.svd(mp.mats[0], full_matrices=False)
    x = (u * d) @ vt
    text = "\n".join([
        "wrote x_star",
        "d: " + ",".join(format(v, ".6g") for v in d),
        "ambiguous_indices: none",
        f"objective_value: {format(obj, '.6g')}",
        f"rank: {rank_in} -> {np.count_nonzero(d)}",
    ]) + "\n"
    assert np.count_nonzero(d) == mp.RANK
    assert not mp._output_bad(0, 0, text, x)
    worse = (u * (d * np.r_[1 + 1e-6, np.ones(d.size - 1)])) @ vt
    assert mp._output_bad(0, 0, text, worse)
    assert mp._output_bad(0, 0, text.replace(f"-> {mp.RANK}", f"-> {mp.RANK + 1}"), x)
    assert mp._output_bad(0, 2, text, x)
