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


# ten parent setup_s runs of param-scan: quartiles 0.1715 and 0.2535 s, an IQR 43% of the 0.189 s median
SETUP_S = [0.168, 0.170, 0.172, 0.174, 0.184, 0.194, 0.240, 0.252, 0.258, 0.263]


@pytest.mark.parametrize("change,verdict", [
    ([0.240] * 10, "+27.0% against bound 25%: unresolved"),
    ([0.190] * 10, "+0.5% against bound 25%: unresolved"),
    ([0.160] * 10, "-15.3% against bound 25%: within"),  # every change run beats every parent run
])
def test_a_bound_inside_the_parent_spread_is_unresolved(bench_pairs, change, verdict):
    line = bench_pairs.summarize("setup_s", "s", SETUP_S, change, "lower", 0.25)
    assert line.endswith(f"worse by {verdict} bound")


def test_unresolved_breaches_are_listed_apart(bench_pairs, monkeypatch, capsys):
    def run_once(tree, workload, seed):
        setup_s = SETUP_S[seed - 1] if tree.name == "parent" else 0.240
        items = 100.0 if tree.name == "parent" else 70.0
        metrics = {"items_per_s": {"value": items, "unit": "items/s"}, "setup_s": {"value": setup_s, "unit": "s"}}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics, "calibration": {},
                "wall_s": 1.0}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "parent", "change", "--workload", "w", "--pairs", "10"])
    assert bench_pairs.main() == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == ("w bound breaches: items_per_s +30.0% (bound 25%); "
                    "beyond the bound but unresolved: setup_s +27.0% (bound 25%)")
