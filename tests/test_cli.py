"""Command line wrapper: formats, exit codes, determinism, library equality."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

import logsum_prox
from logsum_prox import (
    ProxParams,
    failure_intervals,
    irl1_predict_limit,
    irl1_simulate,
    limit_matches_prox,
    prox_matrix,
    prox_scalar,
    prox_vector,
    r2,
    z_star,
)
from logsum_prox.cli import build_parser, main
from logsum_prox.matrix_io import (
    read_matrix_bin,
    read_matrix_csv,
    write_matrix_bin,
    write_matrix_csv,
)

P31 = ProxParams(3.0, 1.0)
P23 = ProxParams(2.0, 3.0)
ZS31 = z_star(P31).z_star


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProxCommand:
    def test_text_convex(self, capsys):
        code, out, _ = run(capsys, "prox", "--lambda", "2", "--eps", "3", "--z", "5")
        assert code == 0
        assert "regime: convex" in out
        assert "4.74166" in out

    def test_text_zero(self, capsys):
        code, out, _ = run(capsys, "prox", "--lambda", "3", "--eps", "1", "--z", "0")
        assert code == 0
        assert "prox(0) = 0" in out
        assert "z_star:" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "prox", "--lambda", "2", "--eps", "3",
                           "--z", "5,0.5,-5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"inputs", "values", "regime", "z_star",
                            "ambiguous_indices", "objective"}
        assert doc["regime"] == "convex"
        assert doc["z_star"] is None
        lib = prox_vector(P23, [5.0, 0.5, -5.0])
        assert doc["values"] == [float(v) for v in lib.canonical]
        assert doc["objective"] == lib.objective_value

    def test_json_nonconvex_reports_z_star(self, capsys):
        _, out, _ = run(capsys, "prox", "--lambda", "3", "--eps", "1",
                        "--z", "2.9", "--format", "json")
        doc = json.loads(out)
        assert doc["z_star"] == pytest.approx(ZS31, abs=1e-12)

    def test_ambiguity_flagged_at_jump_point(self, capsys):
        _, out, _ = run(capsys, "prox", "--lambda", "3", "--eps", "1",
                        "--z", repr(ZS31), "--format", "json")
        doc = json.loads(out)
        assert doc["ambiguous_indices"] == [0]
        assert doc["values"] == [0.0]

    def test_csv_roundtrips_library_values(self, capsys):
        code, out, _ = run(capsys, "prox", "--lambda", "3", "--eps", "1",
                           "--z", "2.5,2.9,-2.9", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,z,value,ambiguous"
        vals = [float(line.split(",")[2]) for line in lines[1:]]
        assert vals == [prox_scalar(P31, z).canonical for z in (2.5, 2.9, -2.9)]

    def test_overflowing_threshold(self, capsys):
        # lam/eps overflows to inf here; the prox of 1 is still 0
        code, out, _ = run(capsys, "prox", "--lambda", "1e300", "--eps", "1e-10", "--z", "1")
        assert code == 0
        assert "prox(1) = 0\n" in out

    def test_usage_errors_exit_2(self, capsys):
        assert run(capsys, "prox", "--lambda", "2", "--eps", "3")[0] == 2  # missing --z
        code, _, err = run(capsys, "prox", "--lambda", "-1", "--eps", "3", "--z", "1")
        assert code == 2
        assert "positive" in err
        assert run(capsys, "prox", "--lambda", "0", "--eps", "3", "--z", "1")[0] == 2
        assert run(capsys, "prox", "--lambda", "2", "--eps", "3", "--z", "a,b")[0] == 2


@pytest.mark.parametrize("words, option, value", [
    (["prox", "--lambda", "3", "--eps", "1"], "--z", "-1e-3"),
    (["prox", "--lambda", "3", "--eps", "1"], "--z", "-inf"),
    (["prox", "--lambda", "3", "--eps", "1"], "--z", "-1,2"),
    (["prox", "--lambda", "3", "--eps", "1"], "--z", "-NaN"),
    (["prox", "--lambda", "3", "--eps", "1"], "--z", "-.5e1"),
    (["irl1", "failures", "--lambda", "3", "--eps", "1", "--x0", "1"], "--sweep", "-6:6:5"),
    (["irl1", "predict", "--lambda", "3", "--eps", "1", "--x0", "1"], "--z", "-inf"),
    (["irl1", "predict", "--lambda", "3", "--eps", "1", "--z", "2.5"], "--x0", "-1e-300"),
    (["sweep", "--lambda", "3", "--eps", "1", "--to", "1", "--points", "3"], "--from", "-1e1"),
    (["prox", "--eps", "1", "--z", "1"], "--lambda", "-inf"),
])
def test_a_negative_value_after_a_space(capsys, words, option, value):
    # argparse reads a token that starts with "-" and is not a plain decimal as an
    # option ("expected one argument"); the CLI's parser reads these as values
    spaced = run(capsys, *words, option, value)
    joined = run(capsys, *words, f"{option}={value}")
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


def test_an_option_after_an_option_is_still_missing_its_value(capsys):
    code, out, err = run(capsys, "prox", "--lambda", "3", "--eps", "1", "--z", "--format", "csv")
    assert (code, out) == (2, "")
    assert "argument --z: expected one argument" in err


# every subcommand, with the arguments it needs besides --lambda and --eps
SUBCOMMANDS = {
    "prox": (["prox"], ["--z", "1"]),
    "zstar": (["zstar"], []),
    "irl1 simulate": (["irl1", "simulate"], ["--z", "2.5", "--x0", "2"]),
    "irl1 predict": (["irl1", "predict"], ["--z", "2.5", "--x0", "2"]),
    "irl1 failures": (["irl1", "failures"], ["--x0", "1"]),
    "sweep": (["sweep"], ["--from", "0", "--to", "1", "--points", "3"]),
    "matprox": (["matprox"], ["--in", "missing.csv", "--out", "never.csv"]),
}


@pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf", "1e400"])
@pytest.mark.parametrize("option", ["--lambda", "--eps"])
@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_bad_pair_gets_the_library_message(capsys, tmp_path, monkeypatch, command, option, bad):
    # the CLI checks the pair only through ProxParams, before any file is read or written
    monkeypatch.chdir(tmp_path)
    lam, eps = (bad, "1") if option == "--lambda" else ("3", bad)
    with pytest.raises(ValueError) as exc:
        ProxParams(float(lam), float(eps))
    words, rest = SUBCOMMANDS[command]
    code, out, err = run(capsys, *words, "--lambda", lam, "--eps", eps, *rest)
    assert (code, out, err) == (2, "", f"error: {exc.value}\n")
    assert list(tmp_path.iterdir()) == []


class TestZStarCommand:
    def test_nonconvex(self, capsys):
        code, out, _ = run(capsys, "zstar", "--lambda", "3", "--eps", "1")
        assert code == 0
        assert "z_star: 2.57108" in out
        assert "iterations:" in out and "residual:" in out

    def test_convex_exit_3(self, capsys):
        code, out, err = run(capsys, "zstar", "--lambda", "2", "--eps", "3")
        assert code == 3
        assert err == "error: no jump point when sqrt(lam) <= eps; got lam=2.0, eps=3.0\n"
        assert out == ""

    def test_bracket_containment(self, capsys):
        _, out, _ = run(capsys, "zstar", "--lambda", "4", "--eps", "1", "--format", "json")
        doc = json.loads(out)
        assert 3.0 < doc["z_star"] < 4.0
        assert doc["bracket"] == [2.0 * math.sqrt(4.0) - 1.0, 4.0]

    def test_matches_library_exactly(self, capsys):
        _, out, _ = run(capsys, "zstar", "--lambda", "3", "--eps", "1", "--format", "json")
        doc = json.loads(out)
        res = z_star(P31)
        assert doc["z_star"] == res.z_star
        assert doc["iterations"] == res.iterations

    def test_solver_tolerance_is_not_an_option(self, capsys):
        code, out, _ = run(capsys, "zstar", "--lambda", "3", "--eps", "1", "--tol", "1e-30")
        assert code == 2 and out == ""

    def test_wide_range_pair(self, capsys):
        # lam/eps = 1e300: the solve never forms the a-priori bracket
        code, out, _ = run(capsys, "zstar", "--lambda", "1e300", "--eps", "1", "--format", "json")
        assert code == 0
        # mpmath at 80 digits on the z-form tie gap
        assert json.loads(out)["z_star"] == pytest.approx(2.640684263808308e151, rel=1e-14)


class TestIrl1Command:
    def test_predict_disagrees_with_prox(self, capsys):
        code, out, _ = run(capsys, "irl1", "predict", "--lambda", "3", "--eps", "1",
                           "--z", "2.5", "--x0", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"limit": 1.0, "classification": "r2", "lemma": "conv6"}
        assert prox_scalar(P31, 2.5).values == (0.0,)

    def test_simulate_trace_csv(self, capsys):
        code, out, _ = run(capsys, "irl1", "simulate", "--lambda", "3", "--eps", "1",
                           "--z", "2.5", "--x0", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "iter,x"
        assert lines[1] == "0,2"
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0, abs=1e-8)

    def test_failures_empty_in_convex_regime(self, capsys):
        _, out, _ = run(capsys, "irl1", "failures", "--lambda", "2", "--eps", "3",
                        "--x0", "9", "--format", "json")
        doc = json.loads(out)
        assert doc["case"] == "exact"
        assert doc["intervals"] == []

    def test_failures_low_start(self, capsys):
        _, out, _ = run(capsys, "irl1", "failures", "--lambda", "3", "--eps", "1",
                        "--x0", "0.1", "--format", "json")
        doc = json.loads(out)
        assert doc["case"] == "low_x0"
        pos = doc["intervals"][1]
        assert pos["lower"] == pytest.approx(ZS31, abs=1e-12)
        assert pos["upper"] == pytest.approx(0.1 + 3.0 / 1.1, abs=1e-12)
        assert not pos["lower_closed"] and pos["upper_closed"]

    def test_failures_sweep_columns(self, capsys):
        code, out, _ = run(capsys, "irl1", "failures", "--lambda", "3", "--eps", "1",
                           "--x0", "2", "--sweep", "2.3:3.1:9", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z,irl1_limit,true_prox,agree"
        assert len(lines) == 10
        for line in lines[1:]:
            z_s, lim_s, true_s, agree = line.split(",")
            z = float(z_s)
            inside = 2.0 * math.sqrt(3.0) - 1.0 <= z < ZS31
            assert agree == ("false" if inside else "true")

    @pytest.mark.parametrize("z", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [("predict",), ("simulate", "--max-iters", "10")])
    def test_nonfinite_z_exits_3(self, capsys, argv, z):
        code, out, err = run(capsys, "irl1", *argv, "--lambda", "3", "--eps", "1",
                             f"--z={z}", "--x0", "1")
        assert code == 3 and out == ""
        assert err == f"error: z must be finite, got {z}\n"

    @pytest.mark.parametrize("sweep", ["nan:3:3", "0:inf:3"])
    def test_failures_nonfinite_sweep_exits_3(self, capsys, sweep):
        code, out, err = run(capsys, "irl1", "failures", "--lambda", "3", "--eps", "1",
                             "--x0", "1", "--sweep", sweep)
        assert code == 3 and out == ""
        bound = "nan" if sweep.startswith("nan") else "inf"
        assert err == f"error: grid bounds must be finite, got {bound}\n"

    @pytest.mark.parametrize("lam, eps, z, x0", [
        ("1e12", "1", "999999000000", "5e-7"),
        ("1e12", "1", "999999000000", "2e-6"),
        ("1e20", "1e-2", repr(1e22 * (1 - 1e-6)), "5e-9"),
        ("1e20", "1e-2", repr(1e22 * (1 - 1e-6)), "2e-8"),
    ])
    def test_predict_agrees_with_simulate_near_threshold(self, capsys, lam, eps, z, x0):
        # x0 is half or twice r1(z), which (z - eps)/2 - sqrt(...) cancels to 0 here
        args = ("--lambda", lam, "--eps", eps, "--z", z, "--x0", x0, "--format", "json")
        code, out, _ = run(capsys, "irl1", "predict", *args)
        assert code == 0
        predicted = json.loads(out)["limit"]
        code, out, _ = run(capsys, "irl1", "simulate", *args)
        assert code == 0
        assert predicted == pytest.approx(json.loads(out)["limit_estimate"], rel=1e-9, abs=0.0)

    def test_simulate_negative_max_iters_exits_2(self, capsys):
        code, out, err = run(capsys, "irl1", "simulate", "--lambda", "3", "--eps", "1",
                             "--z", "2.5", "--x0", "2", "--max-iters", "-3")
        assert code == 2 and out == ""
        assert err == "error: max_iters must be nonnegative, got -3\n"

    def test_stop_tolerance_is_not_an_option(self, capsys):
        code, out, _ = run(capsys, "irl1", "simulate", "--lambda", "3", "--eps", "1",
                           "--z", "2.5", "--x0", "2", "--tol", "1e-9")
        assert code == 2 and out == ""

    def test_failures_sweep_far_from_unit_scale(self, capsys):
        # (3, 1) with lam scaled by 1e-20 and eps, z by 1e-10: z = 3e-10 is inside
        # the failure interval the same output lists, so the limit 0 misses prox 2e-10
        code, out, _ = run(capsys, "irl1", "failures", "--lambda", "3e-20", "--eps", "1e-10",
                           "--x0", "0", "--sweep=1e-10:4e-10:4")
        assert code == 0
        lines = out.splitlines()
        assert "  (2.5710831932251655e-10, 3e-10]" in lines
        assert lines[-4:] == [
            "z=1e-10 irl1=0 prox=0 agree=yes",
            "z=2e-10 irl1=0 prox=0 agree=yes",
            "z=3e-10 irl1=0 prox=2e-10 agree=no",
            "z=4e-10 irl1=3.30278e-10 prox=3.30278e-10 agree=yes",
        ]

    def test_simulate_far_from_unit_scale(self, capsys):
        # z = 4*eps, x0 = eps at (3e-40, 1e-20): the run of (3, 1) scaled by 1e-20
        code, out, _ = run(capsys, "irl1", "simulate", "--lambda", "3e-40", "--eps", "1e-20",
                           "--z", "4e-20", "--x0", "1e-20", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["stop_reason"] == "tolerance_met"
        want = r2(ProxParams(3e-40, 1e-20), 4e-20)
        assert doc["limit_estimate"] == pytest.approx(want, rel=1e-12, abs=0.0)


class TestSweepCommand:
    def test_flat_zero_region_convex(self, capsys):
        code, out, _ = run(capsys, "sweep", "--lambda", "2", "--eps", "3",
                           "--from", "-6", "--to", "6", "--points", "1201")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z,value"
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 1201  # single-valued everywhere in the convex regime
        zero_zs = [z for z, v in rows if v == 0.0]
        assert zero_zs and max(abs(z) for z in zero_zs) <= 2.0 / 3.0 + 1e-12
        nonzero = [(z, v) for z, v in rows if v != 0.0]
        assert all(abs(z) > 2.0 / 3.0 for z, _ in nonzero)

    def test_both_branches_emitted_at_jump_point(self, capsys):
        _, out, _ = run(capsys, "sweep", "--lambda", "3", "--eps", "1",
                        "--from", repr(ZS31), "--to", repr(ZS31 + 1.0), "--points", "2")
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header + two rows at z_star + one beyond
        z0, v0 = map(float, lines[1].split(","))
        z1, v1 = map(float, lines[2].split(","))
        assert z0 == z1 == ZS31
        assert v0 == 0.0 and v1 > 0.0

    def test_near_identity_for_large_inputs(self, capsys):
        _, out, _ = run(capsys, "sweep", "--lambda", "2", "--eps", "3",
                        "--from", "50", "--to", "100", "--points", "51")
        rows = [tuple(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
        for z, v in rows:
            assert abs(v - (z - 2.0 / (z + 3.0))) <= 0.01

    @pytest.mark.parametrize("bounds", [("nan", "1"), ("1", "nan")])
    def test_nonfinite_grid_exits_3(self, capsys, bounds):
        code, out, err = run(capsys, "sweep", "--lambda", "3", "--eps", "1",
                             "--from", bounds[0], "--to", bounds[1], "--points", "3")
        assert code == 3 and out == ""
        assert err == "error: grid bounds must be finite, got nan\n"

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_fewer_than_one_point_is_a_usage_error(self, capsys, points):
        code, out, err = run(capsys, "sweep", "--lambda", "3", "--eps", "1",
                             "--from", "0", "--to", "1", "--points", points)
        assert code == 2 and out == ""
        assert f"argument --points: need at least 1 point, got '{points}'" in err

    def test_byte_determinism(self, capsys):
        args = ("sweep", "--lambda", "3", "--eps", "1",
                "--from", "-4", "--to", "4", "--points", "513")
        _, base, _ = run(capsys, *args)
        _, again, _ = run(capsys, *args)
        assert base == again


class TestMatproxCommand:
    def test_csv_roundtrip(self, capsys, tmp_path):
        z = np.diag([5.0, 0.1])
        src = tmp_path / "in.csv"
        dst = tmp_path / "out.csv"
        write_matrix_csv(src, z)
        code, out, _ = run(capsys, "matprox", "--lambda", "2", "--eps", "3",
                           "--in", str(src), "--out", str(dst))
        assert code == 0
        assert "rank: 2 -> 1" in out
        got = read_matrix_csv(dst)
        np.testing.assert_array_equal(got, prox_matrix(P23, z).x_star)

    def test_bin_roundtrip(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((3, 4)) * 3.0
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.bin"
        write_matrix_bin(src, z)
        code, _, _ = run(capsys, "matprox", "--lambda", "3", "--eps", "1",
                         "--in", str(src), "--out", str(dst), "--format", "bin")
        assert code == 0
        np.testing.assert_array_equal(read_matrix_bin(dst), prox_matrix(P31, z).x_star)

    def test_zero_matrix(self, capsys, tmp_path):
        src, dst = tmp_path / "in.csv", tmp_path / "out.csv"
        write_matrix_csv(src, np.zeros((2, 3)))
        code, out, _ = run(capsys, "matprox", "--lambda", "2", "--eps", "3",
                           "--in", str(src), "--out", str(dst))
        assert code == 0
        assert np.array_equal(read_matrix_csv(dst), np.zeros((2, 3)))
        assert "rank: 0 -> 0" in out

    def test_malformed_file_exit_2_names_line(self, capsys, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("1,2\n3,oops\n")
        code, _, err = run(capsys, "matprox", "--lambda", "2", "--eps", "3",
                           "--in", str(src), "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "line 2" in err


class TestPlumbing:
    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "res.json"
        code, out, _ = run(capsys, "zstar", "--lambda", "3", "--eps", "1",
                           "--format", "json", "--output", str(dest))
        assert code == 0 and out == ""
        doc = json.loads(dest.read_text())
        assert doc["z_star"] == z_star(P31).z_star

    def test_seed_flag_rejected(self, capsys):
        code, out, _ = run(capsys, "--seed", "7", "zstar", "--lambda", "3", "--eps", "1")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("argv", [
        ("prox", "--lambda", "3", "--eps", "1", "--z", "1e160"),
        ("sweep", "--lambda", "3", "--eps", "1", "--from", "1e150", "--to", "1e160",
         "--points", "3"),
        ("irl1", "predict", "--lambda", "3", "--eps", "1", "--z", "1e160", "--x0", "1"),
    ], ids=["prox", "sweep", "irl1-predict"])
    def test_overflowing_input_is_finite(self, capsys, argv):
        # (z + eps)**2 overflows a double here; r2(z) comes from the scaled root
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert "1e+160" in out
        assert "inf" not in out and "nan" not in out

    def test_failures_with_a_jump_point_beyond_the_square_range(self, capsys):
        # z_star = 4.58e155 here, where (z_star + eps)**2 overflows
        p = ProxParams(1e308, 1e-300)
        code, out, err = run(capsys, "irl1", "failures", "--lambda", "1e308", "--eps", "1e-300",
                             "--x0", "0")
        assert code == 0 and err == ""
        assert out.splitlines()[:2] == ["case: low_x0", f"z_star: {g6(z_star(p).z_star)}"]

    def test_prox_beyond_the_square_range(self, capsys):
        p = ProxParams(1e308, 1e-300)
        code, out, _ = run(capsys, "prox", "--lambda", "1e308", "--eps", "1e-300",
                           "--z", "1e156", "--format", "json")
        assert code == 0
        value = json.loads(out)["values"][0]
        assert value == prox_scalar(p, 1e156).canonical
        with mp.workdps(60):
            lam, eps, z = mpf(1e308), mpf(1e-300), mpf(1e156)
            expected = (z - eps) / 2 + mp.sqrt((z + eps) ** 2 / 4 - lam)
            assert abs(value - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("z", ["1e156", "4e155"])
    def test_objective_beyond_the_double_range(self, capsys, z):
        # 2*lam overflows a double here, and so do |prox(1e156)|/eps (the objective
        # is about 1049.98) and the square of 4e155 - prox(4e155) = 4e155 (it is 800)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "prox", "--lambda", "1e308", "--eps", "1e-300",
                                 "--z", z, "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        with mp.workdps(60):
            lam, eps, x = mpf(1e308), mpf(1e-300), mpf(doc["values"][0])
            expected = (x - mpf(z)) ** 2 / (2 * lam) + mp.log(1 + x / eps)
        assert abs(doc["objective"] - expected) <= 1e-14 * expected

    def test_matprox_objective_beyond_the_double_range(self, capsys, tmp_path):
        # the squares of X* - Z and 2*lam overflow; the objective comes from the singular values
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        write_matrix_bin(src, np.diag([1e156, 2e155]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "matprox", "--lambda", "1e308", "--eps", "1e-300",
                                 "--in", str(src), "--out", str(dst), "--format", "bin")
        assert code == 0 and err == ""
        assert "objective_value: 1249.98" in out.splitlines()

    @pytest.mark.parametrize("argv, nulls", [
        (("zstar", "--lambda", "1e300", "--eps", "1e-10"), [("bracket", 1)]),
        (("irl1", "failures", "--lambda", "1e300", "--eps", "1e-10", "--x0", "0"),
         [("intervals", 0, "lower"), ("intervals", 1, "upper")]),
    ], ids=["zstar", "irl1-failures"])
    def test_json_is_strict(self, capsys, argv, nulls):
        # the bracket end lam/eps and the outer interval ends are infinite here;
        # JSON has no Infinity, so they print as null
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        for path in nulls:
            node = doc
            for key in path:
                node = node[key]
            assert node is None

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "prox", "--help")[0] == 0

    def test_unknown_command_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_json_determinism(self, capsys):
        args = ("prox", "--lambda", "3", "--eps", "1", "--z", "2.5,2.9", "--format", "json")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b

    def test_one_process_prints_what_fresh_processes_print(self, capsys, tmp_path, monkeypatch):
        # main reuses one parser per process; no call may see state left by another
        np.savetxt(tmp_path / "z.csv", np.diag([5.0, 0.1, ZS31]), fmt="%.17g", delimiter=",")
        prox = ["prox", "--lambda", "3", "--eps", "1", "--z", f"2.9,-0.5,{ZS31}", "--format", "json"]
        sequence = [
            (prox, 0),
            (["matprox", "--lambda", "3", "--eps", "1", "--in", "z.csv", "--out", "x.csv"], 0),
            (["irl1", "failures", "--lambda", "3", "--eps", "1", "--x0", "0.2"], 0),
            (["prox", "--lambda", "3", "--z", "1"], 2),  # usage error: no --eps
            (["irl1", "predict", "--lambda", "3", "--eps", "1", "--z", "2.9", "--x0", "-1"], 3),
            (["--help"], 0),
            (prox, 0),
        ]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        env = {**os.environ, "PYTHONPATH": str(Path(logsum_prox.__file__).parents[1])}
        for argv, want_code in sequence:
            code, out, _ = run(capsys, *argv)
            fresh = subprocess.run([sys.executable, "-m", "logsum_prox.cli", *argv], cwd=tmp_path,
                                   env=env, capture_output=True, text=True)
            assert code == want_code, argv
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
        assert build_parser() is not build_parser()


# --- output contract: every command in every format against the library ---

def g6(v):
    return format(v, ".6g")


def _csv(out):
    header, *rows = out.rstrip("\n").split("\n")
    return header, [row.split(",") for row in rows]


def _check_prox(fmt, out):
    zs_in = [2.5, 2.9, -2.9, ZS31]
    lib = prox_vector(P31, zs_in)
    amb = set(lib.ambiguous_indices)
    assert amb == {3}
    if fmt == "json":
        assert json.loads(out) == {
            "inputs": {"lambda": 3.0, "eps": 1.0, "z": zs_in},
            "values": [float(v) for v in lib.canonical],
            "regime": "nonconvex",
            "z_star": ZS31,
            "ambiguous_indices": [3],
            "objective": lib.objective_value,
        }
    elif fmt == "csv":
        header, rows = _csv(out)
        assert header == "index,z,value,ambiguous"
        assert [(int(i), float(z), float(v), a) for i, z, v, a in rows] == [
            (i, z, float(v), "true" if i in amb else "false")
            for i, (z, v) in enumerate(zip(zs_in, lib.canonical))
        ]
    else:
        mark = "  (ambiguous: 0 and sgn(z)*r2(z_star) tie)"
        assert out.splitlines() == [
            "regime: nonconvex",
            f"z_star: {g6(ZS31)}",
            *[f"prox({g6(z)}) = {g6(float(v))}{mark if i in amb else ''}"
              for i, (z, v) in enumerate(zip(zs_in, lib.canonical))],
            f"objective: {g6(lib.objective_value)}",
        ]


def _check_zstar(fmt, out):
    res = z_star(P31)
    lo, hi = res.bracket
    if fmt == "json":
        assert json.loads(out) == {
            "inputs": {"lambda": 3.0, "eps": 1.0},
            "z_star": res.z_star,
            "bracket": [lo, hi],
            "iterations": res.iterations,
            "residual": res.residual,
        }
    elif fmt == "csv":
        header, rows = _csv(out)
        assert header == "z_star,bracket_low,bracket_high,iterations,residual"
        z, a, b, it, r = rows[0]
        assert len(rows) == 1
        assert (float(z), float(a), float(b), int(it), float(r)) == (
            res.z_star, lo, hi, res.iterations, res.residual)
    else:
        assert out.splitlines() == [
            f"z_star: {g6(res.z_star)}",
            f"bracket: [{g6(lo)}, {g6(hi)}]",
            f"iterations: {res.iterations}",
            f"residual: {g6(res.residual)}",
        ]


def _check_simulate(fmt, out):
    trace = irl1_simulate(P31, 2.5, 2.0, max_iters=10**6)
    if fmt == "json":
        assert json.loads(out) == {
            "inputs": {"lambda": 3.0, "eps": 1.0, "z": 2.5, "x0": 2.0},
            "stop_reason": trace.stop_reason.value,
            "iterations": len(trace.iterates) - 1,
            "limit_estimate": trace.limit_estimate,
            "iterates": list(trace.iterates),
        }
    elif fmt == "csv":
        header, rows = _csv(out)
        assert header == "iter,x"
        assert [(int(k), float(x)) for k, x in rows] == list(enumerate(trace.iterates))
    else:
        assert out.splitlines() == [
            f"iterations: {len(trace.iterates) - 1}",
            f"stop_reason: {trace.stop_reason.value}",
            f"limit_estimate: {g6(trace.limit_estimate)}",
        ]


def _check_predict(fmt, out):
    pred = irl1_predict_limit(P31, 2.5, 2.0)
    kind = pred.classification.value
    if fmt == "json":
        assert json.loads(out) == {"limit": pred.limit, "classification": kind,
                                   "lemma": pred.justification}
    elif fmt == "csv":
        header, rows = _csv(out)
        assert header == "limit,classification,lemma"
        assert [(float(v), c, j) for v, c, j in rows] == [(pred.limit, kind, pred.justification)]
    else:
        assert out.splitlines() == [
            f"limit: {g6(pred.limit)}",
            f"classification: {kind}",
            f"lemma: {pred.justification}",
        ]


def _failure_sweep(x0, a, b, n):
    rows = []
    for z in np.linspace(a, b, n):
        z = float(z)
        lim = irl1_predict_limit(P31, z, x0).limit
        rows.append((z, lim, prox_scalar(P31, z).canonical, limit_matches_prox(P31, z, lim)))
    return rows


def _check_failures(fmt, out, x0, sweep):
    rep = failure_intervals(P31, x0)
    if fmt == "json":
        assert json.loads(out) == {
            "x0": x0,
            "z_star": rep.z_star,
            "case": rep.case.value,
            "intervals": [{"lower": iv.lower, "upper": iv.upper,
                           "lower_closed": iv.lower_closed, "upper_closed": iv.upper_closed}
                          for iv in rep.intervals],
            "sweep": [{"z": z, "irl1_limit": lim, "true_prox": tp, "agree": ag}
                      for z, lim, tp, ag in sweep],
        }
    elif fmt == "csv" and sweep:
        header, rows = _csv(out)
        assert header == "z,irl1_limit,true_prox,agree"
        assert [(float(z), float(lim), float(tp), ag) for z, lim, tp, ag in rows] == [
            (z, lim, tp, "true" if ag else "false") for z, lim, tp, ag in sweep]
        assert {row[3] for row in rows} == {"true", "false"}
    elif fmt == "csv":
        header, rows = _csv(out)
        assert header == "lower,upper,lower_closed,upper_closed"
        assert [(float(a), float(b), lc, uc) for a, b, lc, uc in rows] == [
            (iv.lower, iv.upper, str(iv.lower_closed), str(iv.upper_closed))
            for iv in rep.intervals]
        assert {row[2] for row in rows} | {row[3] for row in rows} == {"True", "False"}
    else:
        assert rep.intervals
        assert out.splitlines() == [
            f"case: {rep.case.value}",
            f"z_star: {g6(rep.z_star)}",
            "failure intervals:",
            *[f"  {iv}" for iv in rep.intervals],
            *[f"z={g6(z)} irl1={g6(lim)} prox={g6(tp)} agree={'yes' if ag else 'no'}"
              for z, lim, tp, ag in sweep],
        ]


def _check_failures_plain(fmt, out):
    _check_failures(fmt, out, 0.1, [])


def _check_failures_sweep(fmt, out):
    _check_failures(fmt, out, 2.0, _failure_sweep(2.0, 2.3, 3.1, 9))


def _check_sweep(fmt, out):
    grid = np.linspace(ZS31, ZS31 + 1.0, 3)
    rows = [(float(z), float(v)) for z in grid for v in prox_scalar(P31, float(z)).values]
    assert len(rows) == 4  # both branches at the jump point
    if fmt == "json":
        assert json.loads(out) == {
            "inputs": {"lambda": 3.0, "eps": 1.0, "from": ZS31, "to": ZS31 + 1.0, "points": 3},
            "rows": [[z, v] for z, v in rows],
        }
    elif fmt == "csv":
        header, got = _csv(out)
        assert header == "z,value"
        assert [(float(z), float(v)) for z, v in got] == rows
    else:
        assert out.splitlines() == [f"{g6(z)} {g6(v)}" for z, v in rows]


_SWEEP_ARGS = ("--from", repr(ZS31), "--to", repr(ZS31 + 1.0), "--points", "3")
_L31 = ("--lambda", "3", "--eps", "1")

CONTRACT = {
    "prox": (("prox", *_L31, "--z", f"2.5,2.9,-2.9,{ZS31!r}"), _check_prox),
    "zstar": (("zstar", *_L31), _check_zstar),
    "irl1-simulate": (("irl1", "simulate", *_L31, "--z", "2.5", "--x0", "2"), _check_simulate),
    "irl1-predict": (("irl1", "predict", *_L31, "--z", "2.5", "--x0", "2"), _check_predict),
    "irl1-failures": (("irl1", "failures", *_L31, "--x0", "0.1"), _check_failures_plain),
    "irl1-failures-sweep": (("irl1", "failures", *_L31, "--x0", "2", "--sweep", "2.3:3.1:9"),
                            _check_failures_sweep),
    "sweep": (("sweep", *_L31, *_SWEEP_ARGS), _check_sweep),
}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", list(CONTRACT))
def test_output_contract(capsys, command, fmt):
    argv, check = CONTRACT[command]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 0 and err == ""
    check(fmt, out)


@pytest.mark.parametrize("matfmt", ["csv", "bin"])
def test_matprox_summary_contract(capsys, tmp_path, matfmt):
    if matfmt == "csv":
        z = np.diag([ZS31, 4.0, 1.0])  # one singular value on the jump point
        write, read = write_matrix_csv, read_matrix_csv
    else:
        z = np.random.default_rng(3).standard_normal((5, 4)) * 3.0
        write, read = write_matrix_bin, read_matrix_bin
    src, dst = tmp_path / f"in.{matfmt}", tmp_path / f"out.{matfmt}"
    write(src, z)
    code, out, err = run(capsys, "matprox", *_L31, "--in", str(src), "--out", str(dst),
                         "--format", matfmt)
    assert code == 0 and err == ""
    res = prox_matrix(P31, z)
    amb = ",".join(str(i) for i in res.ambiguous_indices) or "none"
    assert out.splitlines() == [
        f"wrote x_star ({z.shape[0]}x{z.shape[1]}) to {dst}",
        "d: " + ",".join(g6(float(v)) for v in res.d),
        f"ambiguous_indices: {amb}",
        f"objective_value: {g6(res.objective_value)}",
        f"rank: {np.linalg.matrix_rank(z)} -> {np.count_nonzero(res.d)}",
    ]
    np.testing.assert_array_equal(read(dst), res.x_star)
    if matfmt == "csv":
        assert amb == "1"
