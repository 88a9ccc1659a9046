"""Exact integer linear algebra.

The one matrix the package solves with, the fixed-dim matrix, has integer
entries, and every right-hand side is an integer vector. One
fraction-free Bareiss forward pass (Bareiss, Math. Comp. 22, 1968)
serves both the determinant and the solve: by Sylvester's identity each
division in it is exact, so every intermediate entry is an integer.

A matrix is certified once, by its determinant: a ``Nonsingular`` keeps
the rows with their nonzero det. Then A x = b has exactly one solution,
so one product decides whether a candidate is it. ``solve`` takes a
candidate (y, d) and returns it when A y == d b, one plain dot product
per row: ``rhprym``'s group certificate passes each identity it checks
once per group as a candidate over d = 1. A missing or failed candidate
costs one elimination over [A | b]: its last column, back-substituted,
gives the Cramer numerators y = adj(A) b over d = det(A), checked by the
same product. Callers decide integrality with a divisibility test.
``rhprym.validate`` calls no ``solve``; the reference route
``rhprym.isotypic_dims_solve`` always eliminates.

``rhprym.validate`` forms its integer vectors on packed lanes (Kronecker
substitution; von zur Gathen and Gerhard, Modern Computer Algebra).
``lanes(n, w)``, w a multiple of 64, packs n signed entries v_i into the
one int sum_i v_i 2^(w i). Packing is linear, so a
weighted sum of packed rows is the packed weighted sum of the rows, at
the cost of a handful of big-int operations for any n. A packed int
whose every lane lies in [-2^(w - 1), 2^(w - 1)) reads back exactly:
adding bias = sum_i 2^(w - 1) 2^(w i) makes each lane a digit in
[0, 2^w), so no lane borrows from the next, and an XOR with the same
bias leaves each digit the two's complement of its lane, which is cast
back to signed words. ``pack`` runs the trick the other way, (words ^
bias) - bias, on the two's-complement words of the entries. The words
are in native byte order, so at w = 64 they read back as one cast to
machine words; on a big-endian machine that puts the lanes in reverse
order, which no lane-by-lane operation can tell. ``lane_width(B)`` is
the least w with B < 2^(w - 1), so every entry up to B in absolute value
fits its lane.
"""

from __future__ import annotations

import sys
from operator import mul
from typing import Callable, NamedTuple, Sequence

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


class LaneKernel(NamedTuple):
    """n signed lanes of one width (module docstring). ``pack`` packs a row
    of entries in [-2^(width-1), 2^(width-1)); ``read`` reads back a
    packed int whose lanes lie there; ``ones`` holds 1 in every lane."""

    pack: Callable[[Sequence[int]], int]
    read: Callable[[int], list[int]]
    ones: int


def lanes(n: int, width: int) -> LaneKernel:
    """The kernel of n lanes of ``width`` bits, a multiple of 64, in native
    byte order: a ``memoryview`` cast to machine words reads them at 64,
    one ``from_bytes`` slice per lane above it."""
    step = width // 8
    order = sys.byteorder

    def words(row: Sequence[int]) -> int:
        return int.from_bytes(b"".join(v.to_bytes(step, order, signed=True) for v in row), order)

    if width == 64:
        def digits(x: int) -> list[int]:
            return memoryview(x.to_bytes(8 * n, order)).cast("q").tolist()
    else:
        def digits(x: int) -> list[int]:
            data = x.to_bytes(n * step, order)
            return [int.from_bytes(data[i : i + step], order, signed=True)
                    for i in range(0, len(data), step)]

    ones = words([1] * n)
    bias = ones << (width - 1)
    return LaneKernel(lambda row: (words(row) ^ bias) - bias,
                      lambda x: digits((x + bias) ^ bias), ones)


def lane_width(bound: int) -> int:
    """The least multiple w of 64 with bound < 2^(w - 1)."""
    return -(-(bound.bit_length() + 1) // 64) * 64


class Nonsingular(NamedTuple):
    """A square integer matrix, its rows as tuples, with its determinant,
    which is nonzero."""

    rows: tuple[tuple[int, ...], ...]
    det: int


def nonsingular(rows: Sequence[Sequence[int]]) -> Nonsingular:
    """Certify a square integer matrix by its determinant. Raises NotSquare
    or Singular."""
    det = determinant(rows)
    if not det:
        raise Singular(f"{len(rows)}x{len(rows)} matrix is singular")
    return Nonsingular(tuple(map(tuple, rows)), det)


def _satisfies(m: Nonsingular, y: Sequence[int], d: int, b: Sequence[int]) -> bool:
    """A y == d b for the matrix A of m, one dot product per row."""
    return all(sum(map(mul, row, y)) == d * v for row, v in zip(m.rows, b))


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
        if d and _satisfies(m, y, d, b):
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
    if not _satisfies(m, y, d, b):
        raise AssertionError("solve verification failed")
    return y, d
