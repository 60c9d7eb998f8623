import numpy as np
import pytest

from cssident import InputDomainError, read_matrix, write_matrix
from cssident.matio import (
    read_csv,
    read_matrixmarket,
    write_csv,
    write_matrixmarket,
)


@pytest.fixture
def awkward_matrix():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 3))
    a[0, 0] = 1e-300
    a[1, 1] = -9.87654321098765432e201
    a[2, 2] = 1.0 / 3.0
    return a


def test_csv_roundtrip_exact(tmp_path, awkward_matrix):
    path = tmp_path / "m.csv"
    write_csv(awkward_matrix, path)
    back = read_csv(path)
    assert np.array_equal(back, awkward_matrix)


def test_matrixmarket_roundtrip_exact(tmp_path, awkward_matrix):
    path = tmp_path / "m.mtx"
    write_matrixmarket(awkward_matrix, path)
    assert path.read_text().splitlines()[0] == \
        "%%MatrixMarket matrix array real general"
    back = read_matrixmarket(path)
    assert np.array_equal(back, awkward_matrix)


def test_read_matrix_sniffs_format(tmp_path, awkward_matrix):
    c = tmp_path / "a.csv"
    m = tmp_path / "a.mtx"
    write_matrix(awkward_matrix, c, "csv")
    write_matrix(awkward_matrix, m, "matrixmarket")
    assert np.array_equal(read_matrix(c), read_matrix(m))


def test_single_row_csv(tmp_path):
    path = tmp_path / "row.csv"
    write_csv(np.array([[1.0, 2.0, 3.0]]), path)
    assert read_csv(path).shape == (1, 3)


def test_malformed_inputs(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,not_a_number\n")
    with pytest.raises(InputDomainError):
        read_csv(bad)
    mm = tmp_path / "bad.mtx"
    mm.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n")
    with pytest.raises(InputDomainError):
        read_matrixmarket(mm)
    missing = tmp_path / "nope.csv"
    with pytest.raises(InputDomainError):
        read_matrix(missing)


@pytest.mark.parametrize("name, text", [
    ("bad.csv", b"1,2\n3,\xff\n"),
    ("bad.mtx", b"%%MatrixMarket matrix array real general\n2 1\n1\n\xff\n"),
])
def test_undecodable_file_is_input_error(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text)
    with pytest.raises(InputDomainError):
        read_matrix(path)


def test_unknown_format(tmp_path):
    with pytest.raises(InputDomainError):
        write_matrix(np.eye(2), tmp_path / "x", "parquet")


def test_writes_are_deterministic(tmp_path, awkward_matrix):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(awkward_matrix, p1)
    write_csv(awkward_matrix, p2)
    assert p1.read_bytes() == p2.read_bytes()
