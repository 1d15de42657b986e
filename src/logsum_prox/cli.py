"""Command line front end.

Subcommands: ``prox``, ``zstar``, ``irl1 {simulate,predict,failures}``,
``sweep``, ``matprox``.  Each one is a thin wrapper over the library; the
printed numbers equal direct library calls exactly.

Output formats: ``text`` (6 significant digits), ``csv`` and ``json``
(17 significant digits / shortest round-trip form; JSON writes a
non-finite value, such as an unbounded interval end, as ``null``).  Every
command hands :func:`_emit` one renderer per format and only the requested
one runs.
Exit codes, set by the library's errors (:func:`main` builds the pair once):
0 success, 2 usage, input-file or pair error, 3 regime/domain error, 4 convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import matrix_io
from .errors import ConvergenceError, DomainError, MatrixFormatError, PreconditionError, RegimeError
from .irl1 import (DEFAULT_MAX_ITERS, failure_intervals, irl1_predict_limit, irl1_simulate,
                   limit_matches_prox)
from .matrix import prox_matrix
from .scalar import ProxParams, Regime, r2, z_star
from .vector import prox_vector

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that takes ``--z -1e-3``, ``--z -inf``, ``--z -1,2`` or
    ``--sweep -6:6:5`` as an option with its value, as it takes ``--z=-1e-3``.

    argparse reads a token that starts with ``-`` as an option unless it is a
    plain decimal such as ``-2`` or ``-0.5``; here a ``-`` followed by a
    digit, a point or ``inf``/``nan`` (any case) starts a value.  No option
    of this CLI starts that way.  Subparsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of reals"
        ) from None


def _point_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 point, got {text!r}")
    return n


def _grid(start: float, stop: float, n: int) -> np.ndarray:
    """``n`` evenly spaced points from ``start`` to ``stop``, both of which must be finite."""
    for bound in (start, stop):
        if not math.isfinite(bound):
            raise PreconditionError(f"grid bounds must be finite, got {bound!r}")
    return np.linspace(start, stop, n)


def _sweep_spec(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected a:b:n, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a:b:n with reals a,b and int n, got {text!r}") from None
    if n < 2:
        raise argparse.ArgumentTypeError("sweep needs at least 2 points")
    return a, b, n


def _finite_or_null(obj):
    """``obj`` with every non-finite float, at any depth, replaced by ``None``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _emit(args, text, csv=None, payload=None) -> None:
    """Write the output in ``args.format`` to ``args.output`` or stdout.

    ``text`` returns the text lines, ``csv`` a ``(header, rows)`` pair and
    ``payload`` the JSON document; all three are zero-argument callables and
    only the one for the requested format is called.  CSV rows are tuples,
    written with one ``%`` format taken from the first row's cells: ``%.17g``
    for a float, ``%s`` otherwise.  JSON is strict: a non-finite float is
    written as ``null``.
    """
    if args.format == "json":
        doc = _finite_or_null(payload())
        lines = [json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)]
    elif args.format == "csv":
        header, rows = csv()
        rows = list(rows)
        fmt = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) if rows else ""
        lines = [header, *(fmt % row for row in rows)]
    else:
        lines = text()
    out = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _add_common(sub, fmt_choices=("text", "csv", "json")) -> None:
    sub.add_argument("--lambda", dest="lam", type=float, required=True,
                     help="prox index, must be > 0")
    sub.add_argument("--eps", dest="eps", type=float, required=True,
                     help="penalty scale, must be > 0")
    sub.add_argument("--format", choices=fmt_choices, default=fmt_choices[0],
                     help="output format")
    sub.add_argument("--output", default=None, help="write output to this file instead of stdout")


def cmd_prox(params, args) -> int:
    res = prox_vector(params, np.asarray(args.z, dtype=float))
    zs = None
    if params.regime() is Regime.NONCONVEX:
        zs = z_star(params).z_star
    pairs = list(zip(args.z, res.canonical))
    amb = set(res.ambiguous_indices)

    def text():
        lines = [f"regime: {params.regime().value}"]
        if zs is not None:
            lines.append("z_star: %.6g" % zs)
        for i, (zi, vi) in enumerate(pairs):
            mark = "  (ambiguous: 0 and sgn(z)*r2(z_star) tie)" if i in amb else ""
            lines.append("prox(%.6g) = %.6g%s" % (zi, vi, mark))
        lines.append("objective: %.6g" % res.objective_value)
        return lines

    _emit(
        args,
        text,
        csv=lambda: ("index,z,value,ambiguous",
                     ((i, zi, vi, str(i in amb).lower()) for i, (zi, vi) in enumerate(pairs))),
        payload=lambda: {
            "inputs": {"lambda": params.lam, "eps": params.eps, "z": list(args.z)},
            "values": [float(v) for v in res.canonical],
            "regime": params.regime().value,
            "z_star": zs,
            "ambiguous_indices": list(res.ambiguous_indices),
            "objective": res.objective_value,
        },
    )
    return 0


def cmd_zstar(params, args) -> int:
    res = z_star(params)
    lo, hi = res.bracket
    _emit(
        args,
        lambda: [
            "z_star: %.6g" % res.z_star,
            "bracket: [%.6g, %.6g]" % (lo, hi),
            f"iterations: {res.iterations}",
            "residual: %.6g" % res.residual,
        ],
        csv=lambda: ("z_star,bracket_low,bracket_high,iterations,residual",
                     [(res.z_star, lo, hi, res.iterations, res.residual)]),
        payload=lambda: {
            "inputs": {"lambda": params.lam, "eps": params.eps},
            "z_star": res.z_star,
            "bracket": [lo, hi],
            "iterations": res.iterations,
            "residual": res.residual,
        },
    )
    return 0


def cmd_irl1_simulate(params, args) -> int:
    trace = irl1_simulate(params, args.z, args.x0, max_iters=args.max_iters)
    _emit(
        args,
        lambda: [
            f"iterations: {len(trace.iterates) - 1}",
            f"stop_reason: {trace.stop_reason.value}",
            "limit_estimate: %.6g" % trace.limit_estimate,
        ],
        csv=lambda: ("iter,x", enumerate(trace.iterates)),
        payload=lambda: {
            "inputs": {"lambda": params.lam, "eps": params.eps, "z": args.z, "x0": args.x0},
            "stop_reason": trace.stop_reason.value,
            "iterations": len(trace.iterates) - 1,
            "limit_estimate": trace.limit_estimate,
            "iterates": list(trace.iterates),
        },
    )
    return 0


def cmd_irl1_predict(params, args) -> int:
    pred = irl1_predict_limit(params, args.z, args.x0)
    kind = pred.classification.value
    _emit(
        args,
        lambda: [
            "limit: %.6g" % pred.limit,
            f"classification: {kind}",
            f"lemma: {pred.justification}",
        ],
        csv=lambda: ("limit,classification,lemma", [(pred.limit, kind, pred.justification)]),
        payload=lambda: {"limit": pred.limit, "classification": kind, "lemma": pred.justification},
    )
    return 0


def cmd_irl1_failures(params, args) -> int:
    report = failure_intervals(params, args.x0)
    sweep_rows = []
    if args.sweep is not None:
        grid = _grid(*args.sweep).tolist()
        limits = [irl1_predict_limit(params, z, args.x0).limit for z in grid]
        true = prox_vector(params, grid).canonical.tolist()
        sweep_rows = [(z, lim, tp, limit_matches_prox(params, z, lim))
                      for z, lim, tp in zip(grid, limits, true)]

    def text():
        lines = [f"case: {report.case.value}"]
        if report.z_star is not None:
            lines.append("z_star: %.6g" % report.z_star)
        if report.intervals:
            lines.append("failure intervals:")
            lines += [f"  {iv}" for iv in report.intervals]
        else:
            lines.append("failure intervals: none (iteration is exact for every z)")
        lines += ["z=%.6g irl1=%.6g prox=%.6g agree=%s" % (z, lim, tp, "yes" if ag else "no")
                  for z, lim, tp, ag in sweep_rows]
        return lines

    def csv():
        if sweep_rows:
            return ("z,irl1_limit,true_prox,agree",
                    ((z, lim, tp, str(ag).lower()) for z, lim, tp, ag in sweep_rows))
        return ("lower,upper,lower_closed,upper_closed",
                ((iv.lower, iv.upper, iv.lower_closed, iv.upper_closed) for iv in report.intervals))

    _emit(
        args,
        text,
        csv=csv,
        payload=lambda: {
            "x0": report.x0,
            "z_star": report.z_star,
            "case": report.case.value,
            "intervals": [
                {"lower": iv.lower, "upper": iv.upper,
                 "lower_closed": iv.lower_closed, "upper_closed": iv.upper_closed}
                for iv in report.intervals
            ],
            "sweep": [
                {"z": z, "irl1_limit": lim, "true_prox": tp, "agree": ag}
                for z, lim, tp, ag in sweep_rows
            ],
        },
    )
    return 0


def cmd_sweep(params, args) -> int:
    grid = _grid(args.start, args.stop, args.points)
    res = prox_vector(params, grid)
    rows = list(zip(grid.tolist(), res.canonical.tolist()))
    if res.ambiguous_indices:
        # both branches at the jump point: the canonical 0, then sgn(z)*r2(z_star)
        jump = r2(params, z_star(params).z_star)
        for i in reversed(res.ambiguous_indices):
            z = rows[i][0]
            rows.insert(i + 1, (z, jump if z > 0 else -jump))
    _emit(
        args,
        lambda: ["%.6g %.6g" % row for row in rows],
        csv=lambda: ("z,value", rows),
        payload=lambda: {
            "inputs": {"lambda": params.lam, "eps": params.eps,
                       "from": args.start, "to": args.stop, "points": args.points},
            "rows": [[z, v] for z, v in rows],
        },
    )
    return 0


def cmd_matprox(params, args) -> int:
    z = matrix_io.read_matrix(args.infile, args.matfmt)
    res = prox_matrix(params, z)
    matrix_io.write_matrix(args.outfile, res.x_star, args.matfmt)
    # numpy.linalg.matrix_rank's default cutoff, on the singular values
    # prox_matrix already computed
    s = res.singular_values
    rank_in = int(np.count_nonzero(s > s.max() * max(z.shape) * np.finfo(float).eps))
    rank_out = int(np.count_nonzero(res.d))
    _emit(args, lambda: [
        f"wrote x_star ({z.shape[0]}x{z.shape[1]}) to {args.outfile}",
        "d: " + ",".join("%.6g" % v for v in res.d),
        "ambiguous_indices: " + (",".join(str(i) for i in res.ambiguous_indices) or "none"),
        "objective_value: %.6g" % res.objective_value,
        f"rank: {rank_in} -> {rank_out}",
    ])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logsum-prox",
        description="Exact proximity operator of the log-sum penalty, its jump point, "
                    "the reweighted-l1 iteration, and the singular-value matrix prox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prox", help="componentwise prox of a scalar or vector input")
    _add_common(p)
    p.add_argument("--z", type=_float_list, required=True,
                   help="input point(s), comma separated")
    p.set_defaults(func=cmd_prox)

    p = sub.add_parser("zstar", help="locate the jump point by safeguarded Newton")
    _add_common(p)
    p.set_defaults(func=cmd_zstar)

    p = sub.add_parser("irl1", help="reweighted-l1 iteration tools")
    isub = p.add_subparsers(dest="irl1_command", required=True)

    ps = isub.add_parser("simulate", help="run the iteration and emit the trace")
    _add_common(ps, fmt_choices=("csv", "text", "json"))
    ps.add_argument("--z", type=float, required=True)
    ps.add_argument("--x0", type=float, required=True)
    ps.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    ps.set_defaults(func=cmd_irl1_simulate)

    pp = isub.add_parser("predict", help="analytic limit of the iteration")
    _add_common(pp)
    pp.add_argument("--z", type=float, required=True)
    pp.add_argument("--x0", type=float, required=True)
    pp.set_defaults(func=cmd_irl1_predict)

    pf = isub.add_parser("failures", help="inputs where the iteration misses the true prox")
    _add_common(pf)
    pf.add_argument("--x0", type=float, required=True)
    pf.add_argument("--sweep", type=_sweep_spec, default=None, metavar="a:b:n",
                    help="also tabulate z,irl1_limit,true_prox,agree over n points in [a,b]")
    pf.set_defaults(func=cmd_irl1_failures)

    p = sub.add_parser("sweep", help="tabulate the prox over a z grid (plot data)")
    _add_common(p, fmt_choices=("csv", "text", "json"))
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=_point_count, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("matprox", help="matrix prox via singular values")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eps", dest="eps", type=float, required=True)
    p.add_argument("--in", dest="infile", required=True, help="input matrix file")
    p.add_argument("--out", dest="outfile", required=True, help="output matrix file")
    p.add_argument("--format", dest="matfmt", choices=("csv", "bin"), default="csv",
                   help="matrix file format for --in and --out")
    p.add_argument("--output", default=None, help="write the text summary to this file")
    p.set_defaults(func=cmd_matprox, format="text")

    return parser


# main reuses one parser per process: parse_args keeps no state in it
_main_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    parser = _main_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(ProxParams(args.lam, args.eps), args)
    except MatrixFormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (RegimeError, DomainError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
