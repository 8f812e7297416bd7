"""Text matrix files.

Format: the first line holds the dimension; each of the next dim lines holds
dim entries.  An entry is a "re im" pair of decimal reals separated by a
single space; entries are separated by two or more spaces or a tab.  Values
are written with 17 significant digits so save/load round-trips doubles
exactly.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["MatrixFormatError", "parse_matrix", "format_matrix", "load_matrix", "save_matrix"]

_ENTRY_SEP = re.compile(r"\t+| {2,}")


class MatrixFormatError(ValueError):
    """Malformed matrix file; message carries line/column diagnostics."""


def _parse_entry(token: str, line_no: int, col: int) -> complex:
    parts = token.split()
    if len(parts) != 2:
        raise MatrixFormatError(
            f"line {line_no}, entry {col}: expected 're im' pair, got {token!r}"
        )
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise MatrixFormatError(
            f"line {line_no}, entry {col}: unparseable number in {token!r}"
        ) from exc


def parse_matrix(text: str, name: str = "<string>") -> np.ndarray:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixFormatError(f"{name}: empty file")
    header = lines[0].strip()
    try:
        dim = int(header)
    except ValueError as exc:
        raise MatrixFormatError(f"{name}: line 1: malformed header {header!r}") from exc
    if dim < 1:
        raise MatrixFormatError(f"{name}: line 1: dimension must be positive, got {dim}")
    if len(lines) - 1 != dim:
        raise MatrixFormatError(
            f"{name}: expected {dim} rows, found {len(lines) - 1}"
        )
    M = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        line_no = i + 2
        row = lines[i + 1].strip()
        tokens = [t for t in _ENTRY_SEP.split(row) if t.strip()]
        if len(tokens) != dim:
            # Lenient fallback: a row of 2*dim whitespace-separated numbers.
            flat = row.split()
            if len(flat) == 2 * dim:
                tokens = [f"{flat[2 * j]} {flat[2 * j + 1]}" for j in range(dim)]
            else:
                raise MatrixFormatError(
                    f"{name}: line {line_no}: expected {dim} entries, found {len(tokens)}"
                )
        for j, token in enumerate(tokens):
            M[i, j] = _parse_entry(token, line_no, j + 1)
    return M


def format_matrix(M) -> str:
    M = np.asarray(M, dtype=complex)
    dim = M.shape[0]
    rows = [str(dim)]
    for i in range(dim):
        rows.append(
            "  ".join(f"{M[i, j].real:.17g} {M[i, j].imag:.17g}" for j in range(dim))
        )
    return "\n".join(rows) + "\n"


def load_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(
            f"{path}: non-ASCII byte 0x{data[exc.start]:02x} at offset {exc.start}"
        ) from exc
    return parse_matrix(text, name=str(path))


def save_matrix(path, M) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(M))
