import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import prymdim
from prymdim.chartable import fixed_dim_matrix
from prymdim.errors import NotSquare, Singular
from prymdim.exactla import determinant, inverse, solve
from prymdim.weyl import weyl_group


def cofactor_det(rows):
    """Independent oracle: cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for c in range(n):
        minor = [r[:c] + r[c + 1 :] for r in rows[1:]]
        total += (-1) ** c * rows[0][c] * cofactor_det(minor)
    return total


def mat_vec(rows, x):
    return [sum(a * v for a, v in zip(row, x)) for row in rows]


def _adjugate(inv):
    """The full adjugate of an Inverse: content times the reduced one."""
    return tuple(tuple(inv.content * v for v in row) for row in inv.reduced)


IDENTITY_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_determinant_examples():
    assert determinant([[1, 1], [1, 0]]) == -1
    assert determinant(IDENTITY_3) == 1
    fdm_s3 = [[1, 1, 2], [1, 0, 1], [1, 1, 0]]
    assert determinant(fdm_s3) == 2
    assert determinant(fdm_s3) == cofactor_det(fdm_s3)


def test_determinant_rejects_non_square():
    with pytest.raises(NotSquare):
        determinant([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(NotSquare):
        solve(inverse([[1, 2, 3], [4, 5, 6]]), [1, 1])


small_entries = st.integers(min_value=-6, max_value=6)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_determinant_matches_cofactor_oracle(rows):
    assert determinant(rows) == cofactor_det(rows)


def test_solve_examples():
    y, d = solve(inverse(IDENTITY_3), [3, 4, 5])
    assert d == 1 and y == [3, 4, 5]
    # classical double cover bookkeeping: rows (total space, quotient)
    g_x, g = 7, 3
    y, d = solve(inverse([[1, 1], [1, 0]]), [g_x, g])
    assert abs(d) == 1 and y == [d * g, d * (g_x - g)]
    y, d = solve(inverse([[1, 1, 2], [1, 0, 1], [1, 1, 0]]), [3, 2, 1])
    assert abs(d) == 2 and y == [d * v for v in (1, 0, 1)]


def test_solve_accepts_a_candidate_that_passes_the_check():
    """A candidate x with A x == b is the one solution: solve returns it
    over d = 1. A failed or absent candidate gives the adjugate answer."""
    inv = inverse([[1, 1, 2], [1, 0, 1], [1, 1, 0]])
    x = [1, 1, 2]
    b = mat_vec(inv.rows, x)
    assert solve(inv, b, x) == (x, 1)
    assert solve(inv, b, (1, 1, 2)) == (x, 1)
    y, d = solve(inv, b)
    assert d == inv.det and [Fraction(v, d) for v in y] == x
    assert solve(inv, b, [1, 1, 3]) == (y, d)
    with pytest.raises(ValueError, match="candidate length mismatch"):
        solve(inv, b, [1, 1])


@given(st.data())
def test_solve_candidate_matches_the_adjugate(data):
    """On random nonsingular systems with integer solutions, every candidate
    is accepted iff it is the solution, and the answer never depends on it."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if cofactor_det(rows) == 0:
        return
    inv = inverse(rows)
    x = data.draw(st.lists(small_entries, min_size=n, max_size=n))
    b = mat_vec(rows, x)
    y, d = solve(inv, b)
    assert [Fraction(v, d) for v in y] == x
    other = data.draw(st.lists(small_entries, min_size=n, max_size=n))
    expected = (other, 1) if other == x else (y, d)
    assert solve(inv, b, other) == expected


def test_solve_singular():
    for rows, b in (([[1, 2], [2, 4]], [1, 1]), ([[0, 0], [0, 0]], [0, 0])):
        with pytest.raises(Singular):
            solve(inverse(rows), b)


def test_solve_fractions():
    """An integer system whose solution is not integral."""
    A, b = [[1, 2], [3, 4]], [1, 0]
    y, d = solve(inverse(A), b)
    assert abs(d) == abs(determinant(A)) == 2
    assert mat_vec(A, y) == [d * v for v in b]
    assert [Fraction(v, d) for v in y] == [-2, Fraction(3, 2)]


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(small_entries, min_size=n, max_size=n),
        )
    )
)
def test_solve_roundtrip(data):
    rows, x = data
    b = mat_vec(rows, x)
    det = cofactor_det(rows)
    if det == 0:
        with pytest.raises(Singular):
            inverse(rows)
        return
    y, d = solve(inverse(rows), b)
    assert abs(d) == abs(det)
    assert y == [d * v for v in x]


def test_zero_determinant_iff_singular():
    for rows in ([[2, 3], [4, 6]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[5]]):
        is_zero = determinant(rows) == 0
        try:
            solve(inverse(rows), [1] * len(rows))
            solved = True
        except Singular:
            solved = False
        assert solved == (not is_zero)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_inverse_matches_cofactor_oracle(rows):
    """A adj(A) == det(A) I with det(A) from cofactor expansion; Singular iff det(A) = 0."""
    n = len(rows)
    det = cofactor_det(rows)
    if det == 0:
        with pytest.raises(Singular):
            inverse(rows)
        return
    inv = inverse(rows)
    assert inv.det == det
    assert inv.rows == tuple(tuple(r) for r in rows)
    product = [mat_vec(rows, col) for col in zip(*_adjugate(inv))]
    assert product == [[det * (i == j) for i in range(n)] for j in range(n)]


def test_inverse_examples():
    assert inverse([]).det == 1 and _adjugate(inverse([])) == ()
    assert solve(inverse([]), []) == ([], 1)
    inv = inverse([[1, 1], [1, 0]])
    assert inv.det == -1 and _adjugate(inv) == ((0, -1), (-1, 1))
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0]]):
        with pytest.raises(Singular):
            inverse(rows)
    with pytest.raises(NotSquare):
        inverse([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(NotSquare):
        inverse([[1, 2], [3]])


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_inverse_divides_out_the_content(rows):
    """The content c > 0 divides det and every adjugate entry, and what is
    left, the reduced adjugate with det / c, has no common factor."""
    if cofactor_det(rows) == 0:
        return
    inv = inverse(rows)
    c = inv.content
    assert c > 0 and inv.det % c == 0
    flat = [v for row in _adjugate(inv) for v in row]
    assert all(v % c == 0 for v in flat)
    reduced = [v for row in inv.reduced for v in row]
    assert reduced == [v // c for v in flat]
    assert gcd(inv.det // c, *reduced) == 1


@pytest.mark.parametrize("letter, rank, det, content, scaled", [
    ("B", 5, -2**71, 2**64, -128),
    ("F", 4, 9 * 2**37, 3 * 2**31, 192),
], ids=["B5", "F4"])
def test_fixed_dim_content_pins(letter, rank, det, content, scaled):
    """The fixed-dim content of W(B5) and W(F4): a large power of two
    (times 3) leaves det / content and the reduced entries a few bits,
    and solve still returns the full det."""
    inv = fixed_dim_matrix(weyl_group(letter, rank).group)
    assert (inv.det, inv.content) == (det, content) and det == determinant(inv.rows)
    assert inv.det // inv.content == scaled
    assert max(abs(v) for row in inv.reduced for v in row).bit_length() <= 6
    b = [1] * len(inv.rows)
    y, d = solve(inv, b)
    assert d == det
    assert mat_vec(inv.rows, y) == [d * v for v in b]


def _corrupted(inv):
    """The Inverse with its first reduced-adjugate entry off by one."""
    first = (inv.reduced[0][0] + 1,) + inv.reduced[0][1:]
    return inv._replace(reduced=(first,) + inv.reduced[1:])


def test_solve_rejects_a_corrupted_reduced_adjugate():
    for inv in (inverse([[1, 1, 2], [1, 0, 1], [1, 1, 0]]),
                fixed_dim_matrix(weyl_group("B", 5).group)):
        bad = _corrupted(inv)
        with pytest.raises(AssertionError, match="solve verification failed"):
            solve(bad, [1] * len(inv.rows))


def test_solve_check_survives_python_O():
    """The A y' == (det / c) b check is an explicit raise, so a corrupted
    reduced adjugate is caught when -O strips assert statements."""
    snippet = textwrap.dedent(
        """
        import sys
        from prymdim.chartable import fixed_dim_matrix
        from prymdim.exactla import solve
        from prymdim.weyl import weyl_group

        inv = fixed_dim_matrix(weyl_group("B", 5).group)
        first = (inv.reduced[0][0] + 1,) + inv.reduced[0][1:]
        bad = inv._replace(reduced=(first,) + inv.reduced[1:])
        print(sys.flags.optimize)
        try:
            solve(bad, [1] * len(inv.rows))
        except AssertionError:
            print("AssertionError")
        """
    )
    src = str(Path(prymdim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "AssertionError"]
