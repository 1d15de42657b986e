"""Grid oracle: self-consistency and agreement with the closed forms."""

import ast
from pathlib import Path

import numpy as np
import pytest

from grid_oracle import oracle_prox_info, oracle_z_star
from logsum_prox import ProxParams, RegimeError, prox_scalar, r2, z_star

P31 = ProxParams(3.0, 1.0)
P23 = ProxParams(2.0, 3.0)

LIGHT = 20_001
Z_STAR_31 = 2.571083193225166


class TestConfig:
    @pytest.mark.parametrize("kwargs", [{"grid_points": 999}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            oracle_prox_info(P31, 2.9, **kwargs)

    def test_final_spacing(self):
        info = oracle_prox_info(P31, 2.9, 20_001)
        assert info.final_spacing == pytest.approx(2 * 3.9 / 1e6 / 20_000, rel=1e-12)


class TestOracleProx:
    def test_zero_region_convex(self):
        assert abs(oracle_prox_info(P23, 0.5, LIGHT).value) <= 1e-8

    def test_matches_nonzero_branch(self):
        info = oracle_prox_info(P31, 2.9, LIGHT)
        assert info.value == pytest.approx(r2(P31, 2.9), abs=10 * info.final_spacing)
        assert not info.near_tie

    def test_exposes_the_jump(self):
        # at z = 2.5 the nonzero stationary point exists (r2 = 1) but the
        # global minimizer is 0
        v = oracle_prox_info(P31, 2.5, LIGHT).value
        assert abs(v) <= 1e-8
        assert abs(v - 1.0) > 0.9

    def test_negative_input(self):
        info = oracle_prox_info(P23, -5.0, LIGHT)
        assert info.value == pytest.approx(-r2(P23, 5.0), abs=10 * info.final_spacing)

    def test_near_tie_flag_at_jump_point(self):
        zs = z_star(P31).z_star
        assert oracle_prox_info(P31, zs, LIGHT).near_tie
        assert not oracle_prox_info(P31, 2.9, LIGHT).near_tie

    def test_agreement_across_bands(self):
        rng = np.random.default_rng(42)
        cases = []
        for lam, eps in [(3.0, 1.0), (2.0, 3.0), (1.21, 1.0), (9.0, 2.0), (0.25, 0.2)]:
            p = ProxParams(lam, eps)
            lo = max(p.bracket_low, 0.0)
            hi = p.threshold
            edges = [0.0, lo] if lo > 0 else [0.0]
            if p.regime().value == "nonconvex":
                edges.append(z_star(p).z_star)
            edges += [hi, hi + 4.0]
            edges = sorted(set(edges))
            for a, b in zip(edges, edges[1:]):
                w = b - a
                if w <= 0:
                    continue
                z = float(rng.uniform(a + 1e-4 * w, b - 1e-4 * w))
                cases.append((p, z if rng.uniform() < 0.5 else -z))
        for p, z in cases:
            info = oracle_prox_info(p, z, LIGHT)
            closed = prox_scalar(p, z).canonical
            assert info.value == pytest.approx(closed, abs=10 * info.final_spacing)

    def test_default_config_resolution(self):
        # one call at a budget of 2,000,000 points: agreement at 10x its
        # much finer spacing
        info = oracle_prox_info(P31, 2.9, 2_000_000)
        assert info.value == pytest.approx(r2(P31, 2.9), abs=10 * info.final_spacing)


class TestOracleZStar:
    def test_reference_value(self):
        got = oracle_z_star(P31, LIGHT)
        assert got == pytest.approx(Z_STAR_31, abs=1e-6)
        assert got == pytest.approx(z_star(P31).z_star, abs=1e-6)

    def test_bracket_containment(self):
        assert 3.0 < oracle_z_star(ProxParams(4.0, 1.0), LIGHT) < 4.0
        assert 1.2 < oracle_z_star(ProxParams(1.21, 1.0), LIGHT) < 1.21

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            oracle_z_star(P23, LIGHT)


def test_oracle_imports_only_the_parameter_types():
    # the oracle is evidence only while it shares no code with the closed forms
    tree = ast.parse(Path(__file__).with_name("grid_oracle.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "logsum_prox" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "logsum_prox":
            assert node.module == "logsum_prox", node.module
            names |= {a.name for a in node.names}
    assert names <= {"ProxParams", "Regime", "RegimeError"}
