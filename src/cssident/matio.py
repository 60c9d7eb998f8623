"""Matrix file I/O: headerless CSV and MatrixMarket array format.

Both writers emit 17 significant digits so that float64 values round-trip
exactly, and both produce byte-identical output for identical inputs.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import FLOAT_FMT
from .errors import InputDomainError
from .linalg import check_matrix

MM_HEADER = "%%MatrixMarket matrix array real general"


def write_csv(a, path) -> None:
    """Write a matrix as headerless CSV, one row per line."""
    arr = check_matrix(a)
    lines = [",".join(FLOAT_FMT % x for x in row) for row in arr]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix written by :func:`write_csv`."""
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, OSError) as exc:
        raise InputDomainError(f"cannot parse CSV matrix from {path}: {exc}") from exc
    return check_matrix(arr, str(path))


def write_matrixmarket(a, path) -> None:
    """Write a dense matrix in MatrixMarket array format (column-major)."""
    arr = check_matrix(a)
    n, p = arr.shape
    lines = [MM_HEADER, f"{n} {p}"]
    for j in range(p):
        lines.extend(FLOAT_FMT % x for x in arr[:, j])
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrixmarket(path) -> np.ndarray:
    """Read a dense real MatrixMarket array file."""
    # an undecodable byte becomes U+FFFD, which no number parses as
    text = Path(path).read_text(errors="replace")
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise InputDomainError(f"{path} is not a MatrixMarket file")
    header = lines[0].lower().split()
    if header[1:4] != ["matrix", "array", "real"]:
        raise InputDomainError(
            f"unsupported MatrixMarket header in {path}: {lines[0]!r}"
        )
    body = [ln for ln in lines[1:] if not ln.startswith("%")]
    try:
        n, p = (int(tok) for tok in body[0].split())
        values = np.array([float(tok) for tok in body[1:]])
    except (ValueError, IndexError) as exc:
        raise InputDomainError(f"malformed MatrixMarket body in {path}") from exc
    if values.size != n * p:
        raise InputDomainError(
            f"{path}: expected {n * p} entries, found {values.size}"
        )
    return check_matrix(values.reshape((p, n)).T, str(path))


def write_matrix(a, path, fmt: str = "csv") -> None:
    """Write ``a`` in the requested format ('csv' or 'matrixmarket')."""
    if fmt == "csv":
        write_csv(a, path)
    elif fmt == "matrixmarket":
        write_matrixmarket(a, path)
    else:
        raise InputDomainError(f"unknown matrix format {fmt!r}")


def read_matrix(path) -> np.ndarray:
    """Read a matrix, sniffing MatrixMarket vs CSV from the first line."""
    p = Path(path)
    if not p.is_file():
        raise InputDomainError(f"no such file: {path}")
    with p.open("rb") as fh:
        first = fh.readline()
    if first.startswith(b"%%MatrixMarket"):
        return read_matrixmarket(p)
    return read_csv(p)
