import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from carnot_extremals import InputError
from carnot_extremals.reporting import dumps_report, write_csv


def test_csv_bytes_are_the_17_digit_format(tmp_path):
    values = [0.0, -2.5, 1.0 / 3.0, 1e17, -1e-300, 5e-324]
    path = tmp_path / "golden.csv"
    write_csv(path, ["a", "b", "c"], np.array(values).reshape(2, 3))
    assert path.read_bytes() == (
        b"a,b,c\n"
        b"0,-2.5,0.33333333333333331\n"
        b"1e+17,-1e-300,4.9406564584124654e-324\n"
    )
    # the same bytes as rendering each value on its own with %.17g
    expected = "a,b,c\n" + "".join(
        ",".join("%.17g" % v for v in values[i:i + 3]) + "\n" for i in (0, 3))
    assert path.read_text() == expected


def test_csv_without_rows_writes_only_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["t", "h_1"], np.zeros((0, 2)))
    assert path.read_bytes() == b"t,h_1\n"


def test_csv_without_columns_writes_empty_lines(tmp_path):
    path = tmp_path / "bare.csv"
    write_csv(path, [], np.zeros((3, 0)))
    assert path.read_bytes() == b"\n\n\n\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_rejects_non_finite_values_by_name(tmp_path, bad):
    rows = np.ones((4, 3))
    rows[2, 1] = bad
    with pytest.raises(InputError, match="non-finite numbers, got " + repr(float(bad))):
        write_csv(tmp_path / "bad.csv", ["a", "b", "c"], rows)


def test_csv_blocks_give_the_bytes_of_row_by_row_rendering(tmp_path):
    # 3001 rows: eleven full blocks and a partial one
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((3001, 28)) * 10.0 ** rng.integers(-300, 300, (3001, 28))
    rows[5, 3], rows[7, 0] = 0.0, -0.0
    header = [f"c{j}" for j in range(28)]
    path = tmp_path / "rows.csv"
    write_csv(path, header, rows)
    # compared line by line: a failure then names the first wrong line at once
    assert path.read_text().split("\n") == row_by_row(header, rows).split("\n")


def row_by_row(header, rows):
    """The CSV text of rows rendered one value at a time with %.17g."""
    return ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in np.asarray(rows).tolist())


def assert_csv_matches_row_by_row(path, values, cols):
    values = np.asarray(values, dtype=float)
    rows = values[:values.size // cols * cols].reshape(-1, cols)
    header = [f"c{j}" for j in range(cols)]
    write_csv(path, header, rows)
    # compared line by line: a failure then names the first wrong line at once
    assert path.read_text().split("\n") == row_by_row(header, rows).split("\n")


def test_csv_exact_ties_round_half_to_even(tmp_path):
    # n + 0.25 with n in [1e15, 2e15) has 18 significant digits ending in 5,
    # so its 17-digit rounding is an exact tie, broken to even.
    rng = np.random.default_rng(3)
    n = rng.integers(10 ** 15, 2 * 10 ** 15, 2000).astype(float)
    m = rng.integers(10 ** 14, 2 * 10 ** 14, 2000).astype(float)
    eighths = m + rng.integers(1, 8, m.size) / 8.0
    ties = np.concatenate([n + 0.25, n + 0.75, eighths, near_ties()])
    assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"
    assert "%.17g" % 1000000000000000.75 == "1000000000000000.8"
    assert_csv_matches_row_by_row(tmp_path / "ties.csv", np.concatenate([ties, -ties]), 6)


def near_ties():
    """Doubles m 2^-(s + k) whose product with 10^k lies within 2^-s d of a half-integer.

    With m in [2^52, 2^53) and 10^k = 5^k 2^k, the fraction of the product
    is (m 5^k mod 2^s) / 2^s, so m = (2^(s-1) + d) / 5^k mod 2^s puts it
    d / 2^s off a tie: less than a double-double product of inexact 10^k
    can resolve, so these must reach the fallback to be rounded right.
    """
    out = []
    for k in range(23, 31):
        for s in range(45, 75):
            mod = 2 ** s
            for d in (-3, -2, -1, 1, 2, 3):
                m = (mod // 2 + d) * pow(5 ** k, -1, mod) % mod
                m += -(-(2 ** 52 - m) // mod) * mod if m < 2 ** 52 else 0
                product = Fraction(m * 5 ** k, mod)
                if m < 2 ** 53 and 10 ** 16 <= product < 10 ** 17:
                    out.append(float(Fraction(m, 2 ** (s + k))))
    assert len(out) > 20
    return out


def test_csv_powers_of_ten_and_their_neighbours(tmp_path):
    # 13 of these doubles lie just below their power of ten yet print as it,
    # rounding up into the next decade: 1e-79 is one.
    powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert Fraction(1e-79) < Fraction(1, 10 ** 79) and "%.17g" % 1e-79 == "1e-79"
    assert_csv_matches_row_by_row(tmp_path / "powers.csv", np.concatenate([values, -values]), 1)


def test_csv_format_switch_points_and_extremes(tmp_path):
    points = np.array([1e-5, 1e-4, 1e16, 1e17, 0.5, 1.0, 5e-324, 1e-323, 2.2250738585072014e-308,
                       1.7976931348623157e308])
    values = np.concatenate([points, np.nextafter(points, 0.0),
                             np.nextafter(points[:-1], np.inf), [0.0]])
    values = np.concatenate([values, -values])
    path = tmp_path / "switch.csv"
    assert_csv_matches_row_by_row(path, values, 1)
    lines = path.read_text().splitlines()
    assert {"0.0001", "1.0000000000000001e-05", "10000000000000000", "1e+17", "0", "-0",
            "4.9406564584124654e-324", "1.7976931348623157e+308"} <= set(lines)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 30)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_csv_of_any_finite_array_is_row_by_row_rendering(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "any.csv"
    header = [f"c{j}" for j in range(rows.shape[1])]
    write_csv(path, header, rows)
    assert path.read_text().split("\n") == row_by_row(header, rows).split("\n")


def test_report_strings_escape_to_fixed_bytes():
    report = {
        'quote " and back \\ slash': "line\nfeed\rreturn\ttab",
        "ctl\x01": ["\u03a9 \u2207H \u2264 1", "\u00e9\x1f"],
        "nested": {"\u043a\u043b\u044e\u0447": 'x\\"y'},
    }
    assert dumps_report(report).encode() == (
        b'{\n  "quote \\" and back \\\\ slash": "line\\nfeed\\rreturn\\ttab",\n'
        b'  "ctl\\u0001": [\n'
        b'    "\xce\xa9 \xe2\x88\x87H \xe2\x89\xa4 1",\n'
        b'    "\xc3\xa9\\u001f"\n'
        b'  ],\n'
        b'  "nested": {\n'
        b'    "\xd0\xba\xd0\xbb\xd1\x8e\xd1\x87": "x\\\\\\"y"\n'
        b'  }\n'
        b'}\n'
    )
    assert json.loads(dumps_report(report)) == report
    # backspace and form feed take JSON's short escapes and read back as sent
    odd = {"b\bf\f": ["\b", "\f"]}
    assert dumps_report(odd) == '{\n  "b\\bf\\f": [\n    "\\b",\n    "\\f"\n  ]\n}\n'
    assert json.loads(dumps_report(odd)) == odd


def test_numpy_values_write_as_their_python_equals():
    plain = {"flag": True, "n": 7, "x": [0.1, 0.5], "rows": [[1.0, 2.5], [3.0, 4.0]],
             "bits": [True, False], "zero_d": 2.0, "pair": [1, 2]}
    numpy = {"flag": np.bool_(True), "n": np.int64(7), "x": [np.float64(0.1), np.float32(0.5)],
             "rows": np.array([[1.0, 2.5], [3.0, 4.0]]), "bits": np.array([True, False]),
             "zero_d": np.array(2.0), "pair": (np.int32(1), 2)}
    assert dumps_report(numpy) == dumps_report(plain)
