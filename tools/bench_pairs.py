"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

Usage:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seed0 S

Pair ``i`` runs each tree's own, unchanged ``perfbench/run.py`` once with
seed ``S + i`` and nothing else, so at the benchmark's run length; the parent runs first in even pairs and second in odd ones,
so a drift in machine speed does not favour one side.  Every run is printed
as it finishes.  Then, for each end-to-end metric of ``BENCHMARK.json``,
the summary gives both sides' median and quartiles, how many pairs the
change won (ties count for neither side), the gap between the medians
against the parent's interquartile range, and whether the change's median
is worse than the parent's by more than the metric's ``bound``, or
``unresolved`` where the parent's own interquartile range is wider than
that bound; a last line lists every breach, and apart from them every
unresolved metric whose median is past its bound, or says there is none.
The calibration medians that ``run.py`` prints (a pure-Python loop and a
numpy SVD that never call the library) are summarized the same way: they
show whether the machine's speed moved during the comparison.  When the
two sides' median ``attempted`` counts differ, the summary also gives the
memory per extra op, the change in median ``peak_rss_mb`` over the change
in median ``attempted``: the harness keeps a little memory per op, so a
faster library raises ``peak_rss_mb`` by about that much per extra op with
no memory of its own.  It means something only where the op counts differ
by many thousands, as on ``param-scan``; a few hundred extra ops leave it
at the noise of ``peak_rss_mb``.  Each run's wall time, and each side's median of it, is
printed but not compared: ``run.py`` checks every op after its 20 s op
budget, so a faster library runs more ops and makes the whole run longer.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CALIBRATION = re.compile(r"py_loop median ([0-9.]+) ms .*numpy_svd128 median ([0-9.]+) ms")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``run.py`` process; returns its final JSON line plus the calibration medians and its wall time."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    cal = next((CALIBRATION.search(line) for line in lines if line.startswith("calibration")), None)
    result["calibration"] = {"py_loop_ms": float(cal.group(1)), "numpy_svd128_ms": float(cal.group(2))} if cal else {}
    result["wall_s"] = wall_s
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_share(parent: list[float], change: list[float], better: str) -> float:
    """How much worse the change's median is than the parent's, as a share of the parent's (negative: better)."""
    p, c = quartiles(parent)[1], quartiles(change)[1]
    return (p - c) / p if better == "higher" else (c - p) / p


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[float, str]:
    """``worse_share`` and whether it is ``within`` the bound, ``BEYOND`` it, or ``unresolved``.

    Where the parent's interquartile range is wider than ``bound`` times its
    median, noise alone can carry a median past the bound, so the metric is
    ``unresolved``, unless every change run reads better than every parent run.
    """
    worse = worse_share(parent, change, better)
    q1, median, q3 = quartiles(parent)
    every_run_better = min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    if q3 - q1 > bound * abs(median) and not every_run_better:
        return worse, "unresolved"
    return worse, "BEYOND" if worse > bound else "within"


def summarize(name: str, unit: str, parent: list[float], change: list[float], better: str | None,
              bound: float | None = None) -> str:
    pq, cq = quartiles(parent), quartiles(change)
    line = (f"{name} ({unit}): parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] -> "
            f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]")
    if better is None:
        return line
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (cq[1] - pq[1])
    iqr = pq[2] - pq[0]
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    line = (f"{line}; ratio {ratio:.3f}; change better in {wins} of {len(parent)} pairs; "
            f"median gap {gap:+.6g} ({better} is better) against parent IQR {iqr:.6g}")
    if bound is None:
        return line
    worse, state = verdict(parent, change, better, bound)
    return f"{line}; worse by {worse:+.1%} against bound {bound:.0%}: {state} bound"


def memory_per_extra_op(parent: list[dict], change: list[dict]) -> str | None:
    """``(delta median peak_rss_mb) / (delta median attempted)`` in bytes per op, if the counts differ."""
    ops = statistics.median(r["attempted"] for r in change) - statistics.median(r["attempted"] for r in parent)
    if ops == 0:
        return None
    rss = [statistics.median(r["metrics"]["peak_rss_mb"]["value"] for r in rs) for rs in (parent, change)]
    per_op = (rss[1] - rss[0]) * 2**20 / ops  # ru_maxrss / 1024, so MB here is MiB
    return (f"memory per extra op: {per_op:.1f} B (median peak_rss_mb {rss[1] - rss[0]:+.4g} MB "
            f"over median attempted {ops:+g} ops)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first pair; pair i uses seed0 + i")
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(getattr(args, side).resolve(), args.workload, seed)
            runs[side].append(res)
            values = ", ".join(f"{k} {v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"pair {i} seed {seed} {side}: correct {res['correct']}, attempted {res['attempted']}, "
                  f"failed {res['failed']}; {values}; calibration {res['calibration']}; "
                  f"wall {res['wall_s']:.1f} s", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}")
    breaches: dict[str, list[str]] = {"BEYOND": [], "unresolved": []}
    for name, unit in ((k, v["unit"]) for k, v in runs["parent"][0]["metrics"].items()):
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        print(summarize(name, unit, parent, change, better.get(name), bound.get(name)))
        if name in bound:
            worse, state = verdict(parent, change, better[name], bound[name])
            if worse > bound[name]:
                breaches[state].append(f"{name} {worse:+.1%} (bound {bound[name]:.0%})")
    per_op = memory_per_extra_op(runs["parent"], runs["change"])
    if per_op:
        print(per_op)
    for key in ("py_loop_ms", "numpy_svd128_ms"):
        parent = [r["calibration"][key] for r in runs["parent"] if key in r["calibration"]]
        change = [r["calibration"][key] for r in runs["change"] if key in r["calibration"]]
        if parent and change:
            print(summarize(f"calibration {key}", "ms", parent, change, None))
    wall = {side: [r["wall_s"] for r in rs] for side, rs in runs.items()}
    print(summarize("run wall time", "s", wall["parent"], wall["change"], None))
    for side, rs in runs.items():
        print(f"{side}: correct in {sum(r['correct'] for r in rs)} of {len(rs)} runs, "
              f"failed {sum(r['failed'] for r in rs)} of {sum(r['attempted'] for r in rs)} ops")
    print(f"{args.workload} bound breaches: {', '.join(breaches['BEYOND']) or 'none'}; "
          f"beyond the bound but unresolved: {', '.join(breaches['unresolved']) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
