"""Exact integer linear algebra.

The one matrix the package inverts, the fixed-dim matrix, has integer
entries, and every right-hand side is an integer vector. One
fraction-free Bareiss forward pass (Bareiss, Math. Comp. 22, 1968)
serves both the determinant and the inverse: by
Sylvester's identity each division in it is exact, so every intermediate
entry is an integer. A matrix is inverted once, into its adjugate and
determinant (A adj(A) = det(A) I). The pass builds up a common factor:
the content c = gcd(det(A), entries of adj(A)) can be large (2^64 on the
W(B5) fixed-dim matrix, whose det is -2^71) while adj(A) / c and det(A) / c
are small (at most 6 and 8 bits on every supported Weyl group). So the
content is divided out once: an ``Inverse`` keeps only adj(A) / c and c,
whose product is the adjugate, and each solve without an accepted
candidate (below) is one small-integer matrix-vector product
y' = (adj(A) / c) b, checked by A y' = (det(A) / c) b before y = c y'
is returned over the common denominator d = det(A).
Callers decide integrality with a divisibility test. Once the inverse
exists, det(A) != 0, so A x = b has exactly one solution and one product
A x == b decides whether a candidate x is it. ``solve`` takes such a
candidate and returns it over d = 1 when it passes, so the adjugate
product runs only for a missing or failed candidate: ``rhprym.validate``
passes its closed form, while the reference route
``rhprym.isotypic_dims_solve`` passes none and always takes the product.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
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


class Inverse(NamedTuple):
    """A square integer matrix with its adjugate divided by its content:
    rows * reduced = (det / content) * I, content > 0 the gcd of det and
    every adjugate entry."""

    rows: tuple[tuple[int, ...], ...]
    reduced: tuple[tuple[int, ...], ...]
    det: int
    content: int


def inverse(rows: Sequence[Sequence[int]]) -> Inverse:
    """Adjugate and determinant of a square nonsingular integer matrix.

    One Bareiss pass over [A | I], then back substitution of each identity
    column; the adjugate is stored divided by its content. Raises NotSquare
    or Singular.
    """
    n = _order(rows)
    a = tuple(tuple(row) for row in rows)
    if n == 0:
        return Inverse(rows=a, reduced=(), det=1, content=1)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = _forward(m, n)
    if not sign:
        raise Singular(f"{n}x{n} matrix is singular")
    det = sign * m[n - 1][n - 1]
    # column c of adj(A) = det(A) A^-1 is the vector of Cramer numerators
    # of A x = e_c, so each division is exact
    cols = []
    for c in range(n, 2 * n):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            mi = m[i]
            s = det * mi[c] - sum(mi[j] * y[j] for j in range(i + 1, n))
            y[i] = s // mi[i]
        cols.append(y)
    c = gcd(det, *chain.from_iterable(cols))
    reduced = tuple(zip(*([v // c for v in col] for col in cols)))
    return Inverse(rows=a, reduced=reduced, det=det, content=c)


def solve(
    inv: Inverse, b: Sequence[int], candidate: Sequence[int] | None = None
) -> tuple[list[int], int]:
    """Solve A x = b for the matrix A of an Inverse and an integer vector b.

    Returns (y, d) with x = y / d. An integer candidate x with A x == b
    is the one solution, returned as (x, 1) with no further product.
    Otherwise y = adj(A) b and d = det(A) != 0. That product is taken
    with the reduced adjugate, y' = (adj(A) / c) b for the content c, and
    checked by A y' == (d / c) b, which holds iff A y == d b; failure
    there would indicate a bug, not bad input.
    """
    if len(b) != len(inv.rows):
        raise ValueError("right-hand side length mismatch")
    if candidate is not None:
        if len(candidate) != len(b):
            raise ValueError("candidate length mismatch")
        if all(sum(map(mul, row, candidate)) == v for row, v in zip(inv.rows, b)):
            return list(candidate), 1
    c = inv.content
    scaled = inv.det // c
    y = [sum(map(mul, row, b)) for row in inv.reduced]
    for row, v in zip(inv.rows, b):
        if sum(map(mul, row, y)) != scaled * v:
            raise AssertionError("solve verification failed")
    return [c * v for v in y], inv.det
