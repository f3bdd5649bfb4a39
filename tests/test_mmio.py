import numpy as np
import pytest

from rgsolve import DenseMatrix, UsageError
from rgsolve.mmio import (read_array, read_matrix, read_vector, write_csv, write_matrix,
                          write_vector)


def test_matrix_roundtrip_exact(tmp_path):
    a = DenseMatrix(np.random.default_rng(0).standard_normal((7, 3)))
    path = tmp_path / "A.mtx"
    write_matrix(path, a)
    back = read_matrix(path)
    np.testing.assert_array_equal(back.entries, a.entries)


def test_vector_roundtrip_exact(tmp_path):
    v = np.random.default_rng(1).standard_normal(11)
    path = tmp_path / "b.mtx"
    write_vector(path, v)
    np.testing.assert_array_equal(read_vector(path), v)


def test_header_and_column_major_order(tmp_path):
    path = tmp_path / "A.mtx"
    write_matrix(path, DenseMatrix([[1.0, 3.0], [2.0, 4.0]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "2 2"
    # column-major: first column (1, 2) then second column (3, 4)
    assert [float(s) for s in lines[2:]] == [1.0, 2.0, 3.0, 4.0]


def test_writes_are_byte_identical(tmp_path):
    v = np.random.default_rng(2).standard_normal(9)
    p1, p2 = tmp_path / "x1.mtx", tmp_path / "x2.mtx"
    write_vector(p1, v)
    write_vector(p2, v)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1\n1.0\n")
    with pytest.raises(UsageError):
        read_array(path)


def test_rejects_wrong_value_count(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(UsageError):
        read_array(path)


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix array real general\n50 x\n",
    "%%MatrixMarket matrix array real general\n2\n1.0\n2.0\n",
    "%%MatrixMarket matrix array real general\n2 1\n1.0\nabc\n",
], ids=["size-not-a-number", "size-one-token", "value-not-a-number"])
def test_rejects_unparsable_size_or_value_line_naming_the_file(tmp_path, text):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(UsageError, match="bad.mtx"):
        read_array(path)


def test_reader_skips_comments(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n% a comment\n2 1\n1.5\n-2.5\n"
    )
    np.testing.assert_array_equal(read_vector(path), [1.5, -2.5])


def test_vector_file_must_be_single_column(tmp_path):
    path = tmp_path / "A.mtx"
    write_matrix(path, DenseMatrix([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(UsageError):
        read_vector(path)


def test_write_csv_is_ascii_with_newline_line_ends(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["k", "label", "value"], [[0, "a,b", repr(0.1)], [1, "", 2]])
    assert path.read_bytes() == b'k,label,value\n0,"a,b",0.1\n1,,2\n'
    write_csv(path, ["k"], iter([]))
    assert path.read_bytes() == b"k\n"
    path.unlink()
    with pytest.raises(UsageError, match="out.csv: cannot write non-ASCII text"):
        write_csv(path, ["k"], [["\u03b8"]])
    assert not path.exists()


def test_reader_takes_several_values_per_line_and_body_comments(tmp_path):
    path = tmp_path / "A.mtx"
    expected = [[1.5, 0.1], [-2.5, 10.0]]
    for body in ("1.5 -2.5\n\n0.1 1_0\n", "1.5 -2.5\n% a comment\n0.1\n1_0\n"):
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n" + body)
        np.testing.assert_array_equal(read_array(path), expected)


def test_reader_names_the_malformed_value_line(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n% a comment\n1.0\n2.0 x\n")
    with pytest.raises(UsageError, match=r"bad.mtx: malformed value line: '2.0 x'$"):
        read_array(path)
