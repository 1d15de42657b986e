"""Dense matrix file formats used by the command line tool.

CSV: one matrix row per line, comma-separated, values printed with 17
significant digits (round-trip safe).  One trailing blank line is
allowed; any other blank line, a ragged row or a field ``float`` cannot
read is a ``MatrixFormatError`` naming its line.

Reading parses the decoded lines with ``numpy.loadtxt`` and keeps the
result only when it has one row per line; on any failure, and on any
blank line ``loadtxt`` would skip, the line-by-line parser runs instead.
That parser is the only one that raises, so its messages and line numbers
are the format's error contract, and both give bit-identical arrays on
every input they both accept.  Writing formats each row with one format
string of ``%.17g`` fields, the same bytes as ``format(v, ".17g")``.

Binary: a 16-byte header of two little-endian unsigned 64-bit integers
(rows, cols) followed by the row-major payload of little-endian 64-bit
floats.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import MatrixFormatError

__all__ = [
    "read_matrix_csv",
    "write_matrix_csv",
    "read_matrix_bin",
    "write_matrix_bin",
    "read_matrix",
    "write_matrix",
]

_HEADER = struct.Struct("<QQ")


def write_matrix_csv(path, x: np.ndarray) -> None:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    row_fmt = ",".join(["%.17g"] * x.shape[1])
    lines = [row_fmt % tuple(row) for row in x.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    # rows the file must hold: every line but one trailing blank one
    n = len(lines) - (1 if lines and lines[-1].strip() == "" else 0)
    # a blank first line is an error, and loadtxt would warn on an all-blank file
    if n and lines[0].strip() != "":
        try:
            x = np.loadtxt(lines[:n], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if x.shape[0] == n:  # loadtxt skips interior blank lines
                return x
    return _read_csv_lines_checked(lines)


def _read_csv_lines_checked(lines: list[str]) -> np.ndarray:
    """Parse CSV lines one by one, naming the first bad line in the error."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        if line.strip() == "":
            # allow a trailing blank line, nothing else
            if lineno == len(lines):
                continue
            raise MatrixFormatError(f"line {lineno}: blank line inside matrix", line=lineno)
        fields = line.split(",")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise MatrixFormatError(
                f"line {lineno}: could not parse {line.strip()!r} as comma-separated reals",
                line=lineno,
            ) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MatrixFormatError(
                f"line {lineno}: expected {width} columns, found {len(row)}", line=lineno
            )
        rows.append(row)
    if not rows:
        raise MatrixFormatError("line 1: file contains no matrix rows", line=1)
    return np.asarray(rows, dtype=float)


def write_matrix_bin(path, x: np.ndarray) -> None:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m, n = x.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(m, n))
        fh.write(np.ascontiguousarray(x, dtype="<f8").tobytes())


def read_matrix_bin(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise MatrixFormatError(f"binary header truncated: {len(raw)} bytes, need {_HEADER.size}")
    m, n = _HEADER.unpack_from(raw)
    expected = _HEADER.size + 8 * m * n
    if len(raw) != expected:
        raise MatrixFormatError(
            f"binary payload has {len(raw) - _HEADER.size} bytes, "
            f"header {m}x{n} requires {8 * m * n}"
        )
    if m == 0 or n == 0:
        raise MatrixFormatError(f"binary header declares empty matrix {m}x{n}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    return data.reshape(m, n).astype(float)


def read_matrix(path, fmt: str = "csv") -> np.ndarray:
    if fmt == "csv":
        return read_matrix_csv(path)
    if fmt == "bin":
        return read_matrix_bin(path)
    raise ValueError(f"unknown matrix format {fmt!r}")


def write_matrix(path, x: np.ndarray, fmt: str = "csv") -> None:
    if fmt == "csv":
        write_matrix_csv(path, x)
    elif fmt == "bin":
        write_matrix_bin(path, x)
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")
