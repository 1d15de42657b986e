"""The benchmark's workloads: inputs made from the seed, one op, and its checks.

A workload runs in rounds.  A round is a fixed list of ops of one size and
make-up; its inputs are made before the round starts and its outputs are
checked after it ends, both outside the timed ops.  A check gives each op
one of three outcomes: ``OK``; ``KNOWN``, an op on the wide-range pairs of
``param-scan`` that the ``z_star`` stop-rule fault gets wrong; or ``BAD``,
any other wrong output.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

import reference as ref

OK, KNOWN, BAD = "ok", "known", "bad"

# Entropy tag of the wide-range pairs of param-scan.  They are the same for
# every --seed, so that the ops they fail make the same share of every run.
WIDE_STREAM = 20210304


def _close(got, want, rel=ref.REL_TOL):
    return np.abs(np.asarray(got, dtype=float) - want) <= rel * np.abs(want)


def _branch_mix(rng, n: int, thr: float, top: float, planted: int, zero_share: float = 0.4):
    """``n`` inputs in mirrored pairs ``(z, -z)``: ``planted`` pairs at ``thr``, one
    pair each at ``thr*(1 -+ 1e-6)``, a ``zero_share`` of magnitudes below ``thr``
    and the rest up to ``top``, the random ones at least 1e-3 (relative) from ``thr``.

    Returns the shuffled inputs, the position of each entry's mirror, and
    the positions of the planted entries.
    """
    half = n // 2
    n_zero = int(round(zero_share * half)) - 1
    n_point = half - planted - n_zero - 2
    mags = np.concatenate([
        np.full(planted, thr),
        thr * np.array([1 - 1e-6, 1 + 1e-6]),
        rng.uniform(0.0, thr * (1 - 1e-3), n_zero),
        rng.uniform(thr * (1 + 1e-3), top, n_point),
    ])
    w = mags * rng.choice([-1.0, 1.0], half)
    perm = rng.permutation(n)
    z = np.concatenate([w, -w])[perm]
    where = np.empty(n, dtype=np.intp)
    where[perm] = np.arange(n)
    mirror = where[(perm + half) % n]
    planted_pos = np.sort(where[np.concatenate([np.arange(planted), half + np.arange(planted)])])
    return z, mirror, planted_pos


class VectorProx:
    """``prox_vector`` under a fixed nonconvex and a fixed convex pair, warm ``z_star`` cache."""

    name = "vector-prox"
    NONCONVEX = (3.0, 1.0)
    CONVEX = (0.5, 1.0)
    LENGTH = 1024
    POOL = 8
    PLANTED = 1  # mirrored pairs at the jump point per nonconvex vector
    ops_per_round = POOL
    items_per_op = 2 * LENGTH

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        rng = np.random.default_rng([seed, 1])
        lam, eps = self.NONCONVEX
        lam_c, eps_c = self.CONVEX
        self.zs = float(ref.zstar(lam, eps))
        self.p_nc = lib.ProxParams(lam, eps)
        self.p_cv = lib.ProxParams(lam_c, eps_c)
        self.pool = []
        for _ in range(self.POOL):
            zn, mirror_n, planted = _branch_mix(rng, self.LENGTH, self.zs, 4 * lam / eps, self.PLANTED)
            zc, mirror_c, _ = _branch_mix(rng, self.LENGTH, lam_c / eps_c, 4 * lam_c / eps_c, 0)
            self.pool.append((zn, mirror_n, tuple(planted), zc, mirror_c))
        self._expected = {}
        self._planted_checked = False

    def round_inputs(self, k: int):
        return list(range(self.POOL))

    def op(self, lib, j):
        zn, _, _, zc, _ = self.pool[j]
        return lib.prox_vector(self.p_nc, zn), lib.prox_vector(self.p_cv, zc)

    def warm_up(self):
        self.op(self.lib, 0)

    def digest(self, out):
        return out

    def _expect(self, j):
        if j not in self._expected:
            zn, _, _, zc, _ = self.pool[j]
            out = []
            for (lam, eps), z, zs in ((self.NONCONVEX, zn, self.zs), (self.CONVEX, zc, None)):
                x = ref.prox(lam, eps, z, zs)
                obj = np.sum((x - z) ** 2) / (2 * lam) + np.sum(np.log1p(np.abs(x) / eps))
                out.append(obj)
            self._expected[j] = out
        return self._expected[j]

    def check(self, k: int, inputs, outputs):
        if not self._planted_checked:
            # the planted inputs sit on the jump point to double precision
            lam, eps = self.NONCONVEX
            if not _close(self.zs, ref.zstar_mp(lam, eps), 4e-16):
                raise RuntimeError("numpy jump point disagrees with mpmath for the planted inputs")
            self._planted_checked = True
        status = []
        for j, out in zip(inputs, outputs):
            if isinstance(out, Exception):
                status.append(BAD)
                continue
            zn, mirror_n, planted, zc, mirror_c = self.pool[j]
            obj_n, obj_c = self._expect(j)
            res_n, res_c = out
            bad = ref.prox_errors(*self.NONCONVEX, zn, res_n.canonical, self.zs).any()
            bad |= ref.prox_errors(*self.CONVEX, zc, res_c.canonical).any()
            bad |= ref.odd_symmetry_errors(res_n.canonical, mirror_n).any()
            bad |= ref.odd_symmetry_errors(res_c.canonical, mirror_c).any()
            bad |= tuple(res_n.ambiguous_indices) != planted or len(res_c.ambiguous_indices) != 0
            bad |= not (_close(res_n.objective_value, obj_n, 1e-12) and _close(res_c.objective_value, obj_c, 1e-12))
            status.append(BAD if bad else OK)
        return status


class ParamScan:
    """One op per fresh nonconvex pair: ``z_star``, a short ``prox_vector``,
    ``failure_intervals`` at four starts and ``irl1_predict_limit`` at every input."""

    name = "param-scan"
    ROUND = 256
    WIDE = 16  # wide-range pairs per round, at fixed positions
    LENGTH = 8  # random inputs per pair; two probes at z*(1 -+ 1e-6) follow them
    MARGIN = 1e-6  # relative distance of random inputs from every branch point
    CASES = ("low_x0", "mid_x0", "high_x0")
    START_CASES = np.array([0, 0, 1, 2])  # case of each start x0, as an index into CASES
    ops_per_round = ROUND
    items_per_op = 1

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.wide_pos = np.arange(self.WIDE) * (self.ROUND // self.WIDE) + self.ROUND // (2 * self.WIDE)
        self._warm = self._make_round(np.random.default_rng([seed, 3]), np.random.default_rng([WIDE_STREAM, 2]))

    @staticmethod
    def _band_pairs(rng, n):
        # the band the tests sample, nonconvex part: eps in [0.1, 3], sqrt(lam)/eps in [1.1, 3.2]
        eps = 10.0 ** rng.uniform(-1.0, np.log10(3.0), n)
        lam = (eps * rng.uniform(1.1, 3.2, n)) ** 2
        return lam, eps

    @staticmethod
    def _wide_pairs(rng, n):
        # lam/eps**2 in [1e32, 1e120] with lam and eps in [1e-60, 1e60], log-uniform
        lam, eps = np.empty(0), np.empty(0)
        while lam.size < n:
            le = rng.uniform(-60.0, 30.0, 4 * n)
            ll = rng.uniform(32.0, 120.0, 4 * n) + 2 * le
            keep = (ll >= -60.0) & (ll <= 60.0)
            lam, eps = np.concatenate([lam, 10.0 ** ll[keep]]), np.concatenate([eps, 10.0 ** le[keep]])
        return lam[:n], eps[:n]

    def _make_round(self, rng, wide_rng):
        n = self.ROUND
        lam, eps = self._band_pairs(rng, n)
        wl, we = self._wide_pairs(wide_rng, self.WIDE)
        lam[self.wide_pos], eps[self.wide_pos] = wl, we
        col = lambda v: v[:, None]  # noqa: E731
        u = ref.zstar_u(lam, eps)
        zs = ref.zstar(lam, eps, u)
        rs = ref.r1(lam, eps, zs)
        top = np.sqrt(lam) - eps
        x0 = np.stack([np.zeros(n), 0.5 * rs, 0.5 * (rs + top), top + 0.5 * np.sqrt(lam)], axis=1)
        crit = np.concatenate([
            np.stack([zs, lam / eps, 2 * np.sqrt(lam) - eps], axis=1),
            x0 + col(lam) / (col(eps) + x0),  # inputs where r1 equals a start
        ], axis=1)
        hi = col(1.3 * lam / eps)
        z = rng.uniform(0.0, 1.0, (n, self.LENGTH)) * hi
        while True:
            near = (np.abs(z[:, :, None] - crit[:, None, :]) <= self.MARGIN * crit[:, None, :]).any(axis=2)
            if not near.any():
                break
            z[near] = rng.uniform(0.0, 1.0, near.sum()) * np.broadcast_to(hi, z.shape)[near]
        z = np.concatenate([z, col(zs) * np.array([1 - 1e-6, 1 + 1e-6])], axis=1)
        wide = np.zeros(n, dtype=bool)
        wide[self.wide_pos] = True
        ops = [(float(lam[i]), float(eps[i]), z[i], z[i].tolist(), x0[i].tolist()) for i in range(n)]
        return {"lam": lam, "eps": eps, "u": u, "zs": zs, "x0": x0, "z": z, "wide": wide, "ops": ops}

    def round_inputs(self, k: int):
        rng = np.random.default_rng([self.seed, 2, k])
        wide_rng = np.random.default_rng([WIDE_STREAM, 1, k])
        self._round = self._make_round(rng, wide_rng)
        return self._round["ops"]

    def op(self, lib, inp):
        lam, eps, z, z_list, x0s = inp
        p = lib.ProxParams(lam, eps)
        zr = lib.z_star(p)
        vr = lib.prox_vector(p, z)
        reports = [lib.failure_intervals(p, x0) for x0 in x0s]
        preds = [lib.irl1_predict_limit(p, zi, x0) for x0 in x0s for zi in z_list]
        return zr, vr, reports, preds

    def warm_up(self):
        for inp in self._warm["ops"][:16]:
            self.op(self.lib, inp)

    def digest(self, out):
        """The op's outputs as arrays, so a round holds few Python objects."""
        zr, vr, reports, preds = out
        rep = np.array([
            (self.CASES.index(rp.case.value) if rp.case.value in self.CASES else -1, rp.z_star,
             rp.intervals[-1].lower, rp.intervals[-1].upper,
             rp.intervals[-1].lower_closed, rp.intervals[-1].upper_closed,
             len(rp.intervals) == 2 and (rp.intervals[0].lower, rp.intervals[0].upper,
                                         rp.intervals[0].lower_closed, rp.intervals[0].upper_closed)
             == (-rp.intervals[1].upper, -rp.intervals[1].lower,
                 rp.intervals[1].upper_closed, rp.intervals[1].lower_closed))
            for rp in reports], dtype=float)
        head = np.array([zr.z_star, *zr.bracket, len(vr.ambiguous_indices), vr.objective_value])
        lim = np.array([p.limit for p in preds])
        zero = np.array([p.classification.value == "zero" for p in preds])
        return head, vr.canonical, rep, lim, zero

    def check(self, k: int, inputs, outputs):
        r = self._round
        lam, eps, x0, z, wide = r["lam"], r["eps"], r["x0"], r["z"], r["wide"]
        zs = r["zs"].copy()
        # wide-range jump points from mpmath, not from the double-precision form
        for i in np.flatnonzero(wide):
            zs[i] = ref.zstar_mp(lam[i], eps[i], r["u"][i])
        n, m = z.shape
        raised = np.array([isinstance(out, Exception) for out in outputs])
        head = np.full((n, 5), np.nan)
        x = np.zeros((n, m))
        rep = np.full((n, 4, 7), np.nan)
        lim = np.full((n, 4 * m), np.nan)
        zero = np.zeros((n, 4 * m), dtype=bool)
        for i, out in enumerate(outputs):
            if not raised[i]:
                head[i], x[i], rep[i], lim[i], zero[i] = out
        c = lambda v: v[:, None]  # noqa: E731
        low = 2 * np.sqrt(lam) - eps
        bad = raised | ~_close(head[:, 0], zs) | (head[:, 3] != 0)
        bad |= ~_close(head[:, 1:3], np.stack([low, lam / eps], axis=1), 1e-12).all(axis=1)
        bad |= ref.prox_errors(c(lam), c(eps), z, x, c(zs)).any(axis=1)
        xr = ref.prox(c(lam), c(eps), z, c(zs))
        obj_ref = np.sum((xr - z) ** 2, axis=1) / (2 * lam) + np.sum(np.log1p(np.abs(xr) / c(eps)), axis=1)
        bad |= ~_close(head[:, 4], obj_ref)
        # failure intervals: low_x0 (z*, r1_inverse(x0)], mid_x0 [r1_inverse(x0), z*),
        # high_x0 [2*sqrt(lam) - eps, z*), each mirrored about zero
        inv = x0 + c(lam) / (c(eps) + x0)
        zs4 = np.repeat(c(zs), 4, axis=1)
        case = self.START_CASES
        lower = np.where(case == 0, zs4, np.where(case == 1, inv, c(low)))
        upper = np.where(case == 0, inv, zs4)
        closed = np.where(c(case == 0), [0, 1], [1, 0])
        bad |= (rep[:, :, 0] != case).any(axis=1)
        bad |= ~(_close(rep[:, :, 1], zs4) & _close(rep[:, :, 2], lower) & _close(rep[:, :, 3], upper)).all(axis=1)
        bad |= (rep[:, :, 4:6] != closed).any(axis=(1, 2)) | (rep[:, :, 6] != 1).any(axis=1)
        zz = np.tile(z, (1, 4))
        lim_ref = ref.irl1_limit(c(lam), c(eps), zz, np.repeat(x0, m, axis=1))
        bad |= (np.abs(lim - lim_ref) > ref.REL_TOL * zz).any(axis=1)
        bad |= (zero != (lim_ref == 0.0)).any(axis=1)
        return [(KNOWN if wide[i] else BAD) if bad[i] else OK for i in range(n)]


class MatProx:
    """``logsum-prox matprox`` through ``cli.main`` on low-rank-plus-noise matrices of one shape."""

    SHAPE = (416, 320)
    RANK = 12
    POOL = 2
    LAM, EPS = 25.0, 1.0
    ops_per_round = POOL
    items_per_op = SHAPE[0] * SHAPE[1]

    def __init__(self, lib, seed: int, workdir: str, fmt: str):
        self.lib = lib
        self.fmt = fmt
        self.other = "csv" if fmt == "bin" else "bin"
        self.name = f"matprox-{fmt}"
        self.workdir = workdir
        self.zs = float(ref.zstar(self.LAM, self.EPS))
        rng = np.random.default_rng([seed, 4])
        m, n = self.SHAPE
        self.mats = []
        for j in range(self.POOL):
            q1 = np.linalg.qr(rng.standard_normal((m, self.RANK)))[0]
            q2 = np.linalg.qr(rng.standard_normal((n, self.RANK)))[0]
            s = np.sort(rng.uniform(2.5, 6.0, self.RANK))[::-1] * self.zs
            # noise singular values stay below about 0.45 * z*
            noise = rng.standard_normal((m, n)) * (0.45 * self.zs / (np.sqrt(m) + np.sqrt(n)))
            self.mats.append((q1 * s) @ q2.T + noise)
            ref.write_matrix_file(self._path("in", j, fmt), self.mats[-1], fmt)
        self._expected = {}
        self._cross_checked = False

    def _path(self, kind: str, j: int, fmt: str) -> str:
        return os.path.join(self.workdir, f"{kind}_{j}.{fmt}")

    def _argv(self, j: int, fmt: str, kind: str = "out"):
        return ["matprox", "--lambda", repr(self.LAM), "--eps", repr(self.EPS),
                "--in", self._path("in", j, fmt), "--out", self._path(kind, j, fmt), "--format", fmt]

    def round_inputs(self, k: int):
        return list(range(self.POOL))

    def op(self, lib, j):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = lib.cli_main(self._argv(j, self.fmt))
        return rc, buf.getvalue()

    def warm_up(self):
        self.op(self.lib, 0)

    def digest(self, out):
        return out

    def _expect(self, j):
        if j not in self._expected:
            z = self.mats[j]
            sv = np.linalg.svd(z, compute_uv=False)
            d = ref.prox(self.LAM, self.EPS, sv, self.zs)
            rank_in = int(np.sum(sv > sv[0] * max(z.shape) * np.finfo(float).eps))
            fro2 = np.sum((sv - d) ** 2)
            obj = fro2 / (2 * self.LAM) + np.sum(np.log1p(d / self.EPS))
            self._expected[j] = (sv, d, rank_in, obj)
        return self._expected[j]

    def _output_bad(self, j: int, rc: int, text: str, x: np.ndarray) -> bool:
        sv, d, rank_in, obj = self._expect(j)
        lines = dict(line.split(": ", 1) for line in text.splitlines()[1:])
        printed_d = np.array(lines["d"].split(","), dtype=float)
        rank = lines["rank"].split(" -> ")
        bad = rc != 0 or x.shape != self.mats[j].shape
        bad |= np.any(np.abs(np.linalg.svd(x, compute_uv=False) - d) > 1e-10 * sv[0])
        bad |= np.any(np.diff(printed_d) > 0) or np.any(np.abs(printed_d - d) > 5e-6 * d)
        bad |= (int(rank[0]), int(rank[1])) != (rank_in, int(np.count_nonzero(d)))
        bad |= lines["ambiguous_indices"] != "none"
        bad |= not _close(float(lines["objective_value"]), obj, 5e-6)
        return bool(bad)

    def check(self, k: int, inputs, outputs):
        status = []
        for j, out in zip(inputs, outputs):
            if isinstance(out, Exception):
                status.append(BAD)
                continue
            rc, text = out
            try:
                x = ref.read_matrix_file(self._path("out", j, self.fmt), self.fmt)
                bad = self._output_bad(j, rc, text, x)
            except (OSError, KeyError, IndexError, ValueError):  # missing file or summary line
                bad = True
            status.append(BAD if bad else OK)
        if not self._cross_checked:
            # the other file format gives the same x_star for the same matrix
            self._cross_checked = True
            for j in range(self.POOL):
                ref.write_matrix_file(self._path("in", j, self.other), self.mats[j], self.other)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = self.lib.cli_main(self._argv(j, self.other, kind="cross"))
                a = ref.read_matrix_file(self._path("out", j, self.fmt), self.fmt)
                b = ref.read_matrix_file(self._path("cross", j, self.other), self.other)
                if rc != 0 or a.shape != b.shape or np.max(np.abs(a - b)) > 1e-12 * np.max(np.abs(a)):
                    status = [BAD] * len(status)
        return status


WORKLOADS = {
    "vector-prox": VectorProx,
    "param-scan": ParamScan,
    "matprox-bin": lambda lib, seed, workdir: MatProx(lib, seed, workdir, "bin"),
    "matprox-csv": lambda lib, seed, workdir: MatProx(lib, seed, workdir, "csv"),
}
