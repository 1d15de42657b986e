"""``tools/bench_pairs.py`` applies each end-to-end metric's bound from ``BENCHMARK.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_setup_time_27_percent_slower_is_beyond_its_bound(bench_pairs):
    # param-scan setup_s of a refused change: 0.161 -> 0.205 s, +27% against 25%
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    line = bench_pairs.summarize("setup_s", "s", [0.161], [0.205], "lower", bound)
    assert line.endswith("worse by +27.3% against bound 25%: BEYOND bound")


@pytest.mark.parametrize("parent,change,better,verdict", [
    ([0.161, 0.160, 0.162], [0.19, 0.20, 0.18], "lower", "+18.0% against bound 25%: within"),
    ([100.0, 110.0], [80.0, 90.0], "higher", "+19.0% against bound 25%: within"),
    ([100.0], [74.0], "higher", "+26.0% against bound 25%: BEYOND"),
    ([100.0], [130.0], "higher", "-30.0% against bound 25%: within"),
])
def test_verdict_on_the_medians(bench_pairs, parent, change, better, verdict):
    line = bench_pairs.summarize("m", "u", parent, change, better, 0.25)
    assert line.endswith(f"worse by {verdict} bound")


def test_no_bound_no_verdict(bench_pairs):
    assert "bound" not in bench_pairs.summarize("calibration", "ms", [1.0], [2.0], None)
    assert "bound" not in bench_pairs.summarize("op_ms_p50", "ms", [1.0], [2.0], "lower")
