"""Exact integer linear algebra.

The one matrix the package solves with, the fixed-dim matrix, has integer
entries, and every right-hand side is an integer vector. One
fraction-free Bareiss forward pass (Bareiss, Math. Comp. 22, 1968)
serves both the determinant and the solve: by Sylvester's identity each
division in it is exact, so every intermediate entry is an integer.

A matrix is certified once, by its determinant: a ``Nonsingular`` keeps
the rows with their nonzero det. Then A x = b has exactly one solution,
so one product decides whether a candidate is it. ``solve`` takes a
candidate (y, d) and returns it when A y == d b: ``rhprym.validate``
passes its doubled closed form over d = 2. A missing or failed candidate
costs one elimination over [A | b]: its last column, back-substituted,
gives the Cramer numerators y = adj(A) b over d = det(A), checked by
A y == d b. Callers decide integrality with a divisibility test.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple, Sequence

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
    m is upper triangular in its first n columns. Returns the determinant
    of those columns, 0 when they are singular.
    """
    if n == 0:
        return 1
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
    return sign * m[n - 1][n - 1]


def determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    return _forward([list(row) for row in rows], _order(rows))


class Nonsingular(NamedTuple):
    """A square integer matrix with its determinant, which is nonzero."""

    rows: tuple[tuple[int, ...], ...]
    det: int


def nonsingular(rows: Sequence[Sequence[int]]) -> Nonsingular:
    """Certify a square integer matrix by its determinant. Raises NotSquare
    or Singular."""
    det = determinant(rows)
    if not det:
        raise Singular(f"{len(rows)}x{len(rows)} matrix is singular")
    return Nonsingular(rows=tuple(tuple(row) for row in rows), det=det)


def solve(
    m: Nonsingular,
    b: Sequence[int],
    candidate: tuple[Sequence[int], int] | None = None,
) -> tuple[list[int], int]:
    """Solve A x = b for the matrix A of a Nonsingular and an integer vector b.

    Returns (y, d) with x = y / d. A candidate (y, d), d != 0, with
    A y == d b is the one solution and is returned as it is. Otherwise
    one elimination over [A | b] gives y = adj(A) b and d = det(A),
    checked by A y == d b; failure there would indicate a bug, not bad
    input.
    """
    rows = m.rows
    n = len(rows)
    if len(b) != n:
        raise ValueError("right-hand side length mismatch")
    if candidate is not None:
        y, d = candidate
        if len(y) != n:
            raise ValueError("candidate length mismatch")
        if d and all(sum(map(mul, row, y)) == d * v for row, v in zip(rows, b)):
            return list(y), d
    a = [list(row) + [v] for row, v in zip(rows, b)]
    d = _forward(a, n)
    if not d:
        raise Singular(f"{n}x{n} matrix is singular")
    # by Cramer's rule y = d x is the vector of integer numerators, so
    # each division is exact
    y = [0] * n
    for i in range(n - 1, -1, -1):
        ai = a[i]
        y[i] = (d * ai[n] - sum(map(mul, ai[i + 1 : n], y[i + 1 :]))) // ai[i]
    for row, v in zip(rows, b):
        if sum(map(mul, row, y)) != d * v:
            raise AssertionError("solve verification failed")
    return y, d
