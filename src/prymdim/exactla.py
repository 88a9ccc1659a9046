"""Exact integer linear algebra.

Every matrix the pipeline inverts (fixed-dim matrices, character tables,
root coordinates) has integer entries, and every right-hand side is an
integer vector. One fraction-free Bareiss forward pass (Bareiss, Math.
Comp. 22, 1968) serves both the determinant and the solve: by
Sylvester's identity each division in it is exact, so every intermediate
entry is an integer. A solution comes back as integer numerators over
one common denominator d = +-det, and callers decide integrality with a
divisibility test.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NotSquare, Singular


def _order(rows: Sequence[Sequence[int]]) -> int:
    n = len(rows)
    if any(len(row) != n for row in rows):
        lengths = sorted({len(row) for row in rows})
        raise NotSquare(f"matrix with {n} rows of lengths {lengths} is not square")
    return n


def _forward(m: list[list[int]], n: int) -> int:
    """Bareiss forward pass on the first n columns of the n rows m, in place.

    Columns past the n-th (a right-hand side) are carried along. Afterwards
    m is upper triangular in its first n columns and m[n-1][n-1] equals the
    determinant times the returned sign of the row swaps. Returns 0 instead
    when the matrix is singular.
    """
    width = len(m[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        mk = m[k]
        pkk = mk[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, width):
                mi[j] = (mi[j] * pkk - mik * mk[j]) // prev
            mi[k] = 0
        prev = pkk
    return sign if m[n - 1][n - 1] else 0


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    n = _order(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    return _forward(m, n) * m[n - 1][n - 1]


def solve(rows: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[list[int], int]:
    """Solve A x = b for square nonsingular integer A and integer b.

    Returns (y, d) with x = y / d, the y integers and d = +-det(A) != 0.
    The answer is checked by A y == d b before it is returned; failure
    there would indicate a bug, not bad input.
    """
    n = _order(rows)
    if len(b) != n:
        raise ValueError("right-hand side length mismatch")
    if n == 0:
        return [], 1
    m = [list(row) + [v] for row, v in zip(rows, b)]
    if not _forward(m, n):
        raise Singular(f"{n}x{n} matrix is singular")
    d = m[n - 1][n - 1]
    y = [0] * n
    # y = d x is the vector of Cramer numerators, so each division is exact
    for i in range(n - 1, -1, -1):
        mi = m[i]
        s = d * mi[n] - sum(mi[j] * y[j] for j in range(i + 1, n))
        y[i] = s // mi[i]
    for row, v in zip(rows, b):
        if sum(a * yc for a, yc in zip(row, y)) != d * v:
            raise AssertionError("solve verification failed")
    return y, d
