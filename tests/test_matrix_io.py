"""CSV and binary matrix file formats."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logsum_prox import MatrixFormatError
from logsum_prox.matrix_io import (
    _read_csv_lines_checked,
    read_matrix_bin,
    read_matrix_csv,
    write_matrix_bin,
    write_matrix_csv,
)


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3)) * np.exp(rng.uniform(-8, 8, size=(4, 3)))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, x)
    back = read_matrix_csv(path)
    assert np.array_equal(back, x)  # 17 significant digits round-trip float64


def test_csv_deterministic_bytes(tmp_path):
    x = np.array([[1.0, 2.5], [-0.1, 3e-7]])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(a, x)
    write_matrix_csv(b, x)
    assert a.read_bytes() == b.read_bytes()


def test_csv_trailing_newline_tolerated(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n\n")
    assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_csv_bad_token_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(MatrixFormatError) as exc:
        read_matrix_csv(path)
    assert "line 2" in str(exc.value)
    assert exc.value.line == 2


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(MatrixFormatError) as exc:
        read_matrix_csv(path)
    assert exc.value.line == 2


def test_csv_interior_blank_line_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n")
    with pytest.raises(MatrixFormatError) as exc:
        read_matrix_csv(path)
    assert exc.value.line == 2


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(MatrixFormatError):
        read_matrix_csv(path)


def test_bin_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 5))
    path = tmp_path / "m.bin"
    write_matrix_bin(path, x)
    assert np.array_equal(read_matrix_bin(path), x)


def test_bin_layout_is_le_u64_header_rowmajor_f64(tmp_path):
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = tmp_path / "m.bin"
    write_matrix_bin(path, x)
    raw = path.read_bytes()
    m, n = struct.unpack_from("<QQ", raw)
    assert (m, n) == (2, 3)
    vals = struct.unpack_from("<6d", raw, 16)
    assert vals == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def test_bin_truncated_header(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"\x01\x02\x03")
    with pytest.raises(MatrixFormatError):
        read_matrix_bin(path)


def test_bin_payload_size_mismatch(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(struct.pack("<QQ", 2, 2) + b"\x00" * 24)  # needs 32
    with pytest.raises(MatrixFormatError):
        read_matrix_bin(path)


def test_bin_empty_dims_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(struct.pack("<QQ", 0, 4))
    with pytest.raises(MatrixFormatError):
        read_matrix_bin(path)


# --- the numpy CSV reader and row-format writer against the checked forms ---

_FIELD_CHARS = "0123456789.eE+- \t\x0c#\"_"
_FIELD = st.one_of(
    st.floats().map(lambda v: format(v, ".17g")),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "-nan", "inf", "+inf", "-Infinity", "1e999", "-0", ".5", "5.",
                     "1_0", "0x10", "", " ", "\t1", "2 ", " 3e-5 "]),
    st.text(_FIELD_CHARS, max_size=6),
)
_BLANK = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def _csv_texts(draw):
    """CSV-like texts: rows of fields (maybe ragged) with blank lines anywhere."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_BLANK))
            continue
        n = width if draw(st.integers(0, 7)) else draw(st.integers(1, 5))
        lines.append(",".join(draw(st.lists(_FIELD, min_size=n, max_size=n))))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c"]))
    text = newline.join(lines)
    return text + draw(st.sampled_from(["", "\n", "\n\n", "\n \n", "\r\n"]))


def _parse_both(path):
    """``(kind, value)`` of the fast reader and of the checked parser on ``path``."""
    out = []
    for parse in (read_matrix_csv, lambda p: _read_csv_lines_checked(p.read_text().splitlines())):
        try:
            x = parse(path)
        except MatrixFormatError as exc:
            out.append(("error", (str(exc), exc.line)))
        else:
            assert x.dtype == np.float64 and x.ndim == 2
            out.append(("array", (x.shape, x.view(np.uint64).tobytes())))
    return out


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """One file that the generated examples overwrite in turn."""
    return tmp_path_factory.mktemp("csv") / "m.csv"


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(_csv_texts(), st.text(_FIELD_CHARS + ",\r\nnaif", max_size=40)))
def test_csv_reader_matches_checked_parser(csv_path, text):
    csv_path.write_bytes(text.encode())
    fast, checked = _parse_both(csv_path)
    assert fast == checked


@pytest.mark.parametrize("text", [
    "1,2\n3,4\n", "1,2\r\n3,4\r\n\r\n", "1\n2\n3", " 1 , -0 \n inf,nan\n",
    "1,2\n\n3,4\n", "\n1,2\n", "1,2\n \n", "1,2\n3,4\n\n\n", "1,,2\n", "1,2,\n",
    "1_0,2\n", "1,2\n3\n", "1,2\x0c3,4\n", "# 1,2\n", "\"1\",2\n", "", " \n", "\n\n",
], ids=repr)
def test_csv_reader_matches_checked_parser_on_edge_cases(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    fast, checked = _parse_both(path)
    assert fast == checked


def _per_value_csv_bytes(x) -> bytes:
    """The writer's previous per-value form, kept as the reference for its bytes."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    lines = [",".join(format(v, ".17g") for v in row) for row in x]
    return ("\n".join(lines) + "\n").encode()


def test_csv_writer_bytes_match_per_value_format(tmp_path):
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 1.0, -3.0, 2.0**53, 2.0**53 + 2, 1e22, 1e23, 123456789012345678.0,
               5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3, math.pi]
    cases = [
        rng.standard_normal((7, 5)),
        rng.standard_normal((4, 6)) * np.exp(rng.uniform(-700, 700, (4, 6))),
        rng.integers(-10**6, 10**6, (3, 3)).astype(float),
        np.array(special).reshape(1, -1),
        np.array(special).reshape(-1, 1),
        np.array([[np.inf, -np.inf, np.nan]]),
        np.zeros((2, 3)),
        np.array(7.5),
        np.array([1.0, -2.5]),
    ]
    for i, x in enumerate(cases):
        path = tmp_path / f"m{i}.csv"
        write_matrix_csv(path, x)
        assert path.read_bytes() == _per_value_csv_bytes(x), i


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.floats(), min_size=n, max_size=n), min_size=1, max_size=4)))
def test_csv_writer_bytes_match_per_value_format_random(csv_path, rows):
    write_matrix_csv(csv_path, np.array(rows))
    assert csv_path.read_bytes() == _per_value_csv_bytes(rows)
