"""Spans around the library's public functions, recorded from the benchmark.

The tracer wraps functions where a call crosses from one layer (module) of
``logsum_prox`` into another, or from the benchmark into the library, by
swapping the name the caller looks up for a wrapper while a traced op runs.
The library's own code is not changed.  Two calls inside a module are
wrapped as well because they have metrics of their own: ``vector_objective``
in ``prox_vector`` and ``z_star`` behind the cache of ``prox_scalar``.  Other
helpers called inside one module (``gap_r`` inside ``z_star``, ``r2`` inside
``prox_scalar``, the CSV and binary readers inside ``read_matrix``) are not
wrapped: they are a few floating-point operations each, so a span would
cost more than it measures, and their time counts in the caller's self time.

One span is kept per op and call path: repeated calls from the same parent
(``prox_scalar`` once per vector element, ``irl1_predict_limit`` once per
input) add to one span's ``calls`` and ``busy_ns``, so memory grows with the
number of ops, not of calls.  ``start_ns`` is the start of the first call and
``end_ns`` the end of the last.  Self time is ``busy_ns`` minus the
``busy_ns`` of the span's children.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace

ROOT = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self._index = {ROOT: 0}
        # one column per span field
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.calls: list[int] = []
        self.busy: list[int] = []
        self._stack: list[int] = []
        self._children: dict[tuple[int, int], int] = {}
        self._op_id = -1
        # counters of each traced op, in op order
        self.op_counts: list[dict[str, float]] = []
        self._op_counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _new_span(self, name_idx: int, parent: int) -> int:
        sid = len(self.name)
        self.name.append(name_idx)
        self.start.append(-1)
        self.end.append(-1)
        self.parent.append(parent)
        self.op.append(self._op_id)
        self.calls.append(0)
        self.busy.append(0)
        return sid

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._children.clear()
        self._op_counts = defaultdict(float)
        self._stack.clear()
        self._stack.append(self._new_span(0, -1))

    def end_op(self, start_ns: int, end_ns: int) -> None:
        root = self._stack[0]
        self.start[root] = start_ns
        self.end[root] = end_ns
        self.calls[root] = 1
        self.busy[root] = end_ns - start_ns
        self.op_counts.append(dict(self._op_counts))

    def count(self, key: str, value: float) -> None:
        self._op_counts[key] += value

    def wrap(self, fn, name: str, post=None):
        """Wrapper that records a span named ``name``; ``post(result, args)`` runs after it, untimed."""
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        stack, children = self._stack, self._children

        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = children.get((parent, idx))
            if sid is None:
                sid = children[(parent, idx)] = self._new_span(idx, parent)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if self.calls[sid] == 0:
                    self.start[sid] = t0
                self.end[sid] = t1
                self.calls[sid] += 1
                self.busy[sid] += t1 - t0
            if post is not None:
                post(result, args)
            return result

        return traced

    def patch(self, module, attr: str, wrapper) -> None:
        """Have ``module.attr`` resolve to ``wrapper`` while :meth:`installed` is active."""
        self._patches.append((module, attr, wrapper))

    @contextmanager
    def installed(self):
        saved = [(m, a, getattr(m, a)) for m, a, _ in self._patches]
        for m, a, w in self._patches:
            setattr(m, a, w)
        try:
            yield
        finally:
            for m, a, orig in saved:
                setattr(m, a, orig)

    def self_ns(self) -> list[int]:
        own = list(self.busy)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.busy[sid]
        return own

    def totals(self) -> dict[tuple[str, str], dict[int, list[int]]]:
        """``(name, parent name)`` -> op -> ``[busy_ns, self_ns, calls]``, summed over the op's spans."""
        own = self.self_ns()
        out: dict[tuple[str, str], dict[int, list[int]]] = defaultdict(dict)
        for sid, idx in enumerate(self.name):
            parent = self.parent[sid]
            key = (self.names[idx], self.names[self.name[parent]] if parent >= 0 else "")
            row = out[key].setdefault(self.op[sid], [0, 0, 0])
            row[0] += self.busy[sid]
            row[1] += own[sid]
            row[2] += self.calls[sid]
        return out

    def self_time_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy and self time in ms, summed over the run."""
        own = self.self_ns()
        table: dict[str, dict[str, float]] = {}
        for sid, idx in enumerate(self.name):
            row = table.setdefault(self.names[idx], {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
            row["calls"] += self.calls[sid]
            row["busy_ms"] += self.busy[sid] / 1e6
            row["self_ms"] += own[sid] / 1e6
        return table

    def write(self, path, extra: dict) -> None:
        doc = {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "calls", "busy_ns", "self_ns"],
            "names": self.names,
            "spans": {
                "name": self.name,
                "start_ns": self.start,
                "end_ns": self.end,
                "parent": self.parent,
                "op": self.op,
                "calls": self.calls,
                "busy_ns": self.busy,
                "self_ns": self.self_ns(),
            },
            "self_time": self.self_time_table(),
            **extra,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def instrument(tracer: Tracer, lib):
    """Register the spans of every layer boundary an op reaches.

    Returns the namespace the benchmark calls through in traced ops; calls
    the library makes internally reach the wrappers through ``tracer.patch``.
    """
    import numpy as np
    from logsum_prox import cli, irl1, matrix, matrix_io, scalar, vector

    def z_star_post(res, args):
        tracer.count("scalar.z_star_solves", 1)
        tracer.count("scalar.z_star_iterations", res.iterations)

    def prox_vector_post(res, args):
        tracer.count("vector.zero_count", int(np.count_nonzero(res.canonical == 0.0)))
        tracer.count("vector.ambiguous_count", len(res.ambiguous_indices))

    def prox_matrix_post(res, args):
        tracer.count("matrix.rank_out", int(np.count_nonzero(res.d)))

    def file_post(res, args):
        tracer.count("matrix_io.bytes", os.path.getsize(args[0]))

    wrap = tracer.wrap
    z_star = wrap(scalar.z_star, "scalar.z_star", z_star_post)
    prox_vector = wrap(vector.prox_vector, "vector.prox_vector", prox_vector_post)
    tracer.patch(scalar, "z_star", z_star)  # called by the cache behind prox_scalar
    tracer.patch(vector, "prox_scalar", wrap(scalar.prox_scalar, "scalar.prox_scalar"))
    tracer.patch(vector, "vector_objective", wrap(vector.vector_objective, "vector.objective"))
    tracer.patch(irl1, "r1", wrap(scalar.r1, "scalar.r1"))
    tracer.patch(irl1, "r2", wrap(scalar.r2, "scalar.r2"))
    tracer.patch(matrix, "svd", wrap(matrix.svd, "matrix.svd"))
    tracer.patch(matrix, "prox_vector", prox_vector)
    tracer.patch(matrix, "logsum_penalty", wrap(vector.logsum_penalty, "vector.logsum_penalty"))
    tracer.patch(cli, "prox_matrix", wrap(matrix.prox_matrix, "matrix.prox_matrix", prox_matrix_post))
    tracer.patch(matrix_io, "read_matrix", wrap(matrix_io.read_matrix, "matrix_io.read", file_post))
    tracer.patch(matrix_io, "write_matrix", wrap(matrix_io.write_matrix, "matrix_io.write", file_post))
    return SimpleNamespace(
        ProxParams=lib.ProxParams,
        z_star=z_star,
        prox_vector=prox_vector,
        failure_intervals=wrap(irl1.failure_intervals, "irl1.failure_intervals"),
        irl1_predict_limit=wrap(irl1.irl1_predict_limit, "irl1.predict_limit"),
        cli_main=wrap(cli.main, "cli.main"),
    )


def layer_metrics(tracer: Tracer, fixed_ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run; 0 for a layer the workload does not reach.

    Times per op (``_ms``) are medians over the traced ops; times per call
    (``_us``, ``_ns``) are total time over total calls.  Counts are means per
    op over the first ``fixed_ops`` traced ops, which are the same ops in
    every run with the same seed, so they repeat exactly.
    """
    totals = tracer.totals()
    ops = sorted(totals[(ROOT, "")])
    busy, own, calls = 0, 1, 2

    def select(name, parent=None):
        rows: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])
        for (n, p), per_op in totals.items():
            if n == name and (parent is None or p == parent):
                for op, row in per_op.items():
                    for i in range(3):
                        rows[op][i] += row[i]
        return rows

    def ms_per_op(name, field=busy, parent=None):
        rows = select(name, parent)
        return statistics.median(rows[op][field] if op in rows else 0 for op in ops) / 1e6

    def per_call(name, scale, field=busy):
        rows = select(name).values()
        n = sum(r[calls] for r in rows)
        return sum(r[field] for r in rows) / n / scale if n else 0.0

    first = tracer.op_counts[:fixed_ops]

    def count(key):
        return sum(c.get(key, 0) for c in first) / len(first)

    solves = count("scalar.z_star_solves")
    return {
        "scalar.prox_scalar_ns": per_call("scalar.prox_scalar", 1.0, own),
        "scalar.z_star_us": per_call("scalar.z_star", 1e3),
        "scalar.z_star_iterations": count("scalar.z_star_iterations") / solves if solves else 0.0,
        "vector.prox_vector_ms": ms_per_op("vector.prox_vector"),
        "vector.objective_ms": ms_per_op("vector.objective"),
        "vector.zero_count": count("vector.zero_count"),
        "vector.ambiguous_count": count("vector.ambiguous_count"),
        "irl1.failure_intervals_us": per_call("irl1.failure_intervals", 1e3),
        "irl1.predict_limit_us": per_call("irl1.predict_limit", 1e3),
        "matrix.svd_ms": ms_per_op("matrix.svd"),
        "matrix.shrink_ms": ms_per_op("vector.prox_vector", parent="matrix.prox_matrix"),
        "matrix.rebuild_ms": ms_per_op("matrix.prox_matrix", own),
        "matrix.rank_out": count("matrix.rank_out"),
        "matrix_io.read_ms": ms_per_op("matrix_io.read"),
        "matrix_io.write_ms": ms_per_op("matrix_io.write"),
        "matrix_io.bytes": count("matrix_io.bytes"),
        "cli.self_ms": ms_per_op("cli.main", own),
    }


LAYER_UNITS = {
    "scalar.prox_scalar_ns": "ns", "scalar.z_star_us": "us", "scalar.z_star_iterations": "count",
    "vector.prox_vector_ms": "ms", "vector.objective_ms": "ms", "vector.zero_count": "count",
    "vector.ambiguous_count": "count", "irl1.failure_intervals_us": "us", "irl1.predict_limit_us": "us",
    "matrix.svd_ms": "ms", "matrix.shrink_ms": "ms", "matrix.rebuild_ms": "ms", "matrix.rank_out": "count",
    "matrix_io.read_ms": "ms", "matrix_io.write_ms": "ms", "matrix_io.bytes": "bytes", "cli.self_ms": "ms",
}
