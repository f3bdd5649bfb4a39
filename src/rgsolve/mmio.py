"""MatrixMarket array-format reading and writing for dense matrices and vectors.

Files use the ``%%MatrixMarket matrix array real general`` header, values in
column-major order, one value per line. Vectors are stored as m x 1 matrices.
Writes are deterministic: the same data always produces byte-identical files.
Every file the package reads (these and its JSON files) is ASCII text, and a
file that is not raises a UsageError naming it. Its JSON and CSV outputs are
written here too.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .errors import UsageError
from .linalg import DenseMatrix

_HEADER_TOKENS = ("%%matrixmarket", "matrix", "array", "real", "general")


def write_matrix(path, values) -> None:
    """Write a DenseMatrix (or 2-D array) in MatrixMarket array format."""
    arr = values.entries if isinstance(values, DenseMatrix) else np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise UsageError(f"expected a 2-D array, got shape {arr.shape}")
    m, n = arr.shape
    body = "".join([f"{v!r}\n" for v in arr.T.ravel().tolist()])  # column-major
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{m} {n}\n{body}")


def write_vector(path, v) -> None:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise UsageError(f"expected a 1-D vector, got shape {arr.shape}")
    write_matrix(path, arr.reshape(-1, 1))


def read_text(path) -> str:
    """The contents of an ASCII text file."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not an ASCII text file ({exc})") from None


def read_json(path):
    """The value in an ASCII JSON file."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: malformed JSON: {exc}") from None


def write_json(path, payload) -> None:
    """Write ``payload`` as indented JSON with sorted keys, deterministically."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` as ASCII CSV lines ending in ``\\n``.

    The text is formed before the file is opened, so text that is not ASCII
    raises a UsageError naming ``path`` and leaves no file behind.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if not text.isascii():
        line = next(line for line in text.split("\n") if not line.isascii())
        raise UsageError(f"{path}: cannot write non-ASCII text to an ASCII CSV: {line!r}")
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(text)


def read_array(path) -> np.ndarray:
    """Read a MatrixMarket array file into a 2-D float array."""
    lines = iter(read_text(path).splitlines())
    header = next(lines, "")
    if tuple(header.lower().split()) != _HEADER_TOKENS:
        raise UsageError(f"{path}: unsupported MatrixMarket header: {header.strip()!r}")
    size_line = next(lines, "")
    while size_line and size_line.lstrip().startswith("%"):
        size_line = next(lines, "")
    try:
        m, n = (int(part) for part in size_line.split())
    except ValueError:
        raise UsageError(f"{path}: malformed size line: {size_line.strip()!r}") from None
    if m < 1 or n < 1:
        raise UsageError(f"{path}: matrix dimensions must be positive")
    body = list(lines)
    try:  # numpy parses each string with float(), so this is the loop below in one call
        values = np.array(" ".join(body).split(), dtype=float)
    except ValueError:  # a comment line (no float starts with "%") or a malformed value
        values = []
        for line in map(str.strip, body):
            if line.startswith("%"):
                continue
            try:
                values.extend(float(tok) for tok in line.split())
            except ValueError:
                raise UsageError(f"{path}: malformed value line: {line!r}") from None
    if len(values) != m * n:
        raise UsageError(f"{path}: expected {m * n} values, found {len(values)}")
    arr = np.asarray(values, dtype=float).reshape((n, m)).T
    if not np.all(np.isfinite(arr)):
        raise UsageError(f"{path}: file contains non-finite values")
    return np.ascontiguousarray(arr)


def read_matrix(path) -> DenseMatrix:
    return DenseMatrix._of(read_array(path))


def read_vector(path) -> np.ndarray:
    arr = read_array(path)
    if arr.shape[1] != 1:
        raise UsageError(f"{path}: expected an m x 1 vector file, got shape {arr.shape}")
    return arr[:, 0].copy()
