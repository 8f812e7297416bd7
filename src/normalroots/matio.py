"""Text matrix files.

Format: the first line holds the dimension; each of the next dim lines holds
2 * dim whitespace-separated decimal reals, re and im of each entry in turn.
The writer separates entries by two spaces and writes 17 significant digits,
so save/load round-trips doubles exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MatrixFormatError", "parse_matrix", "format_matrix", "load_matrix", "save_matrix"]


class MatrixFormatError(ValueError):
    """Malformed matrix file; message carries line/column diagnostics."""


def parse_matrix(text: str | bytes, name: str = "<string>") -> np.ndarray:
    """The matrix in text; bytes must be ASCII."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(
                f"{name}: non-ASCII byte 0x{text[exc.start]:02x} at offset {exc.start}"
            ) from exc
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
        numbers = lines[i + 1].split()
        if len(numbers) != 2 * dim:
            raise MatrixFormatError(
                f"{name}: line {i + 2}: expected {dim} entries ({2 * dim} numbers), "
                f"found {len(numbers)}"
            )
        for j in range(dim):
            pair = numbers[2 * j:2 * j + 2]
            try:
                M[i, j] = complex(float(pair[0]), float(pair[1]))
            except ValueError as exc:
                raise MatrixFormatError(
                    f"{name}: line {i + 2}, entry {j + 1}: unparseable number in "
                    f"{' '.join(pair)!r}"
                ) from exc
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
        return parse_matrix(fh.read(), name=str(path))


def save_matrix(path, M) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_matrix(M))
