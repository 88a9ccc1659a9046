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

Both checks of A y == d b are one packed comparison (Kronecker
substitution; von zur Gathen and Gerhard, Modern Computer Algebra). A
``Nonsingular`` also keeps each column j packed at width w = 64 as the
integer c_j = sum_i a_ij 2^(w i), and the row norm |A| = max_i sum_j
|a_ij|. With e = A y - d b,

    sum_j c_j y_j - d sum_i b_i 2^(w i) = sum_i e_i 2^(w i),

and each |e_i| is at most B = |A| max|y| + |d| max|b|. While
B < 2^(w - 1), a nonzero e cannot pack to 0, since its lowest nonzero
e_i would have to be a multiple of 2^w. So A y == d b exactly when the
two packed sides are equal. For B >= 2^63 the columns are packed at the
least multiple w of 64 with B < 2^(w - 1): the same comparison, wider.
A record packs at each such width once, on the first check that needs
it, so every later check at that width (each post-elimination check on
W(B5), whose numerators reach about 2^80) reuses the packing.
"""

from __future__ import annotations

from operator import lshift, mul
from typing import Sequence

from .errors import NotSquare, Singular
from .permgroup import _Record

# the width of the packed columns a Nonsingular keeps
WIDTH = 64


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


def _pack(values: Sequence[int], width: int) -> int:
    """sum_i values[i] 2^(width i)."""
    return sum(map(lshift, values, range(0, width * len(values), width)))


def _packed_columns(rows: Sequence[Sequence[int]], width: int) -> tuple[int, ...]:
    return tuple(_pack(col, width) for col in zip(*rows))


class Nonsingular(_Record):
    """A square integer matrix with its determinant, which is nonzero.

    It compares and prints by its fields, rows and det. Built, it also
    keeps ``columns``, column j packed as sum_i rows[i][j] 2^(WIDTH i),
    and ``norm``, the row norm max_i sum_j |rows[i][j]|: the O(n^2)
    set-up by which ``solve`` decides A y == d b in one packed comparison,
    exact by the bound in the module docstring. ``packed`` maps each width
    a check has used, a multiple of WIDTH, to the columns packed at it:
    WIDTH from the start, a wider one filled on the first check that needs
    it. All are derived from the rows, so a copy (``_replace``) packs its
    own, starting again from WIDTH alone.
    """

    __slots__ = ("rows", "det", "columns", "norm", "packed")
    _fields = ("rows", "det")

    def __init__(self, rows: Sequence[Sequence[int]], det: int):
        rows = tuple(tuple(row) for row in rows)
        columns = _packed_columns(rows, WIDTH)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "norm", max((sum(map(abs, row)) for row in rows), default=0))
        object.__setattr__(self, "packed", {WIDTH: columns})

    def _replace(self, **changes) -> Nonsingular:
        """A copy with the given fields changed, like a NamedTuple's."""
        return Nonsingular(**{"rows": self.rows, "det": self.det, **changes})


def nonsingular(rows: Sequence[Sequence[int]]) -> Nonsingular:
    """Certify a square integer matrix by its determinant. Raises NotSquare
    or Singular."""
    det = determinant(rows)
    if not det:
        raise Singular(f"{len(rows)}x{len(rows)} matrix is singular")
    return Nonsingular(rows, det)


def _satisfies(m: Nonsingular, y: Sequence[int], d: int, b: Sequence[int]) -> bool:
    """A y == d b for the matrix A of m, by one packed comparison at the
    least multiple w of WIDTH with the bound B < 2^(w - 1) (module
    docstring), the columns packed at w once per record."""
    bound = m.norm * max(map(abs, y), default=0) + abs(d) * max(map(abs, b), default=0)
    width = -(-(bound.bit_length() + 1) // WIDTH) * WIDTH
    columns = m.packed.get(width)
    if columns is None:
        columns = m.packed[width] = _packed_columns(m.rows, width)
    return sum(map(mul, columns, y)) == d * _pack(b, width)


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
