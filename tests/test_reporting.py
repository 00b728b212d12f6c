import numpy as np
import pytest

from carnot_extremals import InputError
from carnot_extremals.reporting import write_csv


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
    expected = ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in rows.tolist())
    assert path.read_text() == expected
