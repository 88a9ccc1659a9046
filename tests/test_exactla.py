import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import prymdim
from prymdim.chartable import fixed_dim_matrix
from prymdim.errors import NotSquare, Singular
from prymdim import exactla
from prymdim.exactla import determinant, nonsingular, solve
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


def _inverse(rows):
    """adj(A) and det(A), column c of adj(A) the solve of A x = e_c."""
    m = nonsingular(rows)
    n = len(m.rows)
    cols = []
    for c in range(n):
        y, d = solve(m, [int(i == c) for i in range(n)])
        assert d == m.det
        cols.append(y)
    return tuple(zip(*cols)), m.det


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
        solve(nonsingular([[1, 2, 3], [4, 5, 6]]), [1, 1])


small_entries = st.integers(min_value=-6, max_value=6)
square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(square_matrices)
def test_determinant_matches_cofactor_oracle(rows):
    assert determinant(rows) == cofactor_det(rows)


def test_solve_examples():
    y, d = solve(nonsingular(IDENTITY_3), [3, 4, 5])
    assert d == 1 and y == [3, 4, 5]
    # classical double cover bookkeeping: rows (total space, quotient)
    g_x, g = 7, 3
    y, d = solve(nonsingular([[1, 1], [1, 0]]), [g_x, g])
    assert abs(d) == 1 and y == [d * g, d * (g_x - g)]
    y, d = solve(nonsingular([[1, 1, 2], [1, 0, 1], [1, 1, 0]]), [3, 2, 1])
    assert abs(d) == 2 and y == [d * v for v in (1, 0, 1)]


def test_solve_accepts_a_candidate_that_passes_the_check():
    """A candidate (y, d), d != 0, with A y == d b is the one solution:
    solve returns it as it is, half-integral over d = 2 included. A failed
    or absent candidate gives the elimination's answer."""
    m = nonsingular([[1, 1, 2], [1, 0, 1], [1, 1, 0]])
    x = [1, 1, 2]
    b = mat_vec(m.rows, x)
    assert solve(m, b, (x, 1)) == (x, 1)
    assert solve(m, b, ((1, 1, 2), 1)) == (x, 1)
    assert solve(m, b, ([2, 2, 4], 2)) == ([2, 2, 4], 2)
    y, d = solve(m, b)
    assert d == m.det and [Fraction(v, d) for v in y] == x
    assert solve(m, b, ([1, 1, 3], 1)) == (y, d)
    assert solve(m, b, ([1, 1, 2], 2)) == (y, d)
    # x = (-1/2, 1/2, 1/2) for b = e_0
    half = ([-1, 1, 1], 2)
    assert solve(m, [1, 0, 0], half) == half
    assert solve(m, [1, 0, 0], ([1, -1, -1], -2)) == ([1, -1, -1], -2)
    assert solve(m, [1, 0, 0], ([-1, 1, 1], 1)) == half
    assert solve(m, [1, 0, 0]) == half
    # d = 0 is no solution: A 0 == 0 b holds, but 0 / 0 is not x
    assert solve(m, [0, 0, 0], ([0, 0, 0], 0)) == ([0, 0, 0], 2)
    with pytest.raises(ValueError, match="candidate length mismatch"):
        solve(m, b, ([1, 1], 1))
    with pytest.raises(ValueError, match="right-hand side length mismatch"):
        solve(m, [1, 1])


def test_solve_accepts_a_right_candidate_over_one_with_no_elimination(monkeypatch):
    """Over d = 1 the check compares A y with b itself, a list or a tuple
    alike (the quotient genera of a report are a tuple): the right
    candidate makes no Bareiss pass, on a small system and on W(F4)'s
    fixed-dim matrix, and a wrong one still eliminates, once."""
    small = nonsingular([[1, 1, 2], [1, 0, 1], [1, 1, 0]])
    big = fixed_dim_matrix(weyl_group("F", 4).group)
    passes = []
    forward = exactla._forward

    def counted(a, n):
        passes.append(n)
        return forward(a, n)

    monkeypatch.setattr(exactla, "_forward", counted)
    for m in (small, big):
        n = len(m.rows)
        x = [2**70 * (j % 3) + j for j in range(n)]
        b = mat_vec(m.rows, x)
        for bb in (b, tuple(b)):
            assert solve(m, bb, (x, 1)) == (x, 1)
            assert solve(m, bb, (tuple(x), 1)) == (x, 1)
        assert passes == []
        for bb in (b, tuple(b)):
            wrong = [v + (j == n - 1) for j, v in enumerate(x)]
            y, d = solve(m, bb, (wrong, 1))
            assert (d, [Fraction(v, d) for v in y]) == (m.det, x)
        assert passes == [n, n]
        passes.clear()


@given(st.data())
def test_solve_candidate_matches_the_adjugate(data):
    """On random nonsingular systems, a candidate (y, d) is accepted iff
    A y == d b, over d in -2..2, and the answer never depends on it: a
    rejected candidate gives the adjugate numerators over det."""
    n = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(st.lists(st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if cofactor_det(rows) == 0:
        return
    m = nonsingular(rows)
    x = data.draw(st.lists(small_entries, min_size=n, max_size=n))
    halves = data.draw(st.booleans())
    # b = A x, or A x / 2 where that is integral: a half-integral solution
    b = mat_vec(rows, x)
    if halves and all(v % 2 == 0 for v in b):
        b = [v // 2 for v in b]
    y, d = solve(m, b)
    assert mat_vec(rows, y) == [d * v for v in b]
    other = data.draw(st.lists(small_entries, min_size=n, max_size=n))
    scale = data.draw(st.integers(min_value=-2, max_value=2))
    for cand in ((x, 2), (x, 1), (other, scale), ([scale * v for v in x], scale)):
        passes = cand[1] != 0 and mat_vec(rows, cand[0]) == [cand[1] * v for v in b]
        assert solve(m, b, cand) == ((list(cand[0]), cand[1]) if passes else (y, d))


@given(square_matrices, st.data())
def test_solve_matches_cramer_oracle(rows, data):
    """solve(A, b) returns the Cramer numerators det(A_i) over det(A), A_i
    being A with column i replaced by b, both from cofactor expansion;
    Singular is raised iff det(A) = 0."""
    n = len(rows)
    b = data.draw(st.lists(small_entries, min_size=n, max_size=n))
    det = cofactor_det(rows)
    if det == 0:
        with pytest.raises(Singular):
            solve(nonsingular(rows), b)
        return
    cramer = [
        cofactor_det([row[:i] + [v] + row[i + 1 :] for row, v in zip(rows, b)])
        for i in range(n)
    ]
    y, d = solve(nonsingular(rows), b)
    assert (y, d) == (cramer, det)
    assert [Fraction(v, d) for v in y] == [Fraction(c, det) for c in cramer]


def test_solve_singular():
    for rows, b in (([[1, 2], [2, 4]], [1, 1]), ([[0, 0], [0, 0]], [0, 0])):
        with pytest.raises(Singular):
            solve(nonsingular(rows), b)
    # a record of singular rows made by hand is refused by the elimination
    with pytest.raises(Singular):
        solve(exactla.Nonsingular(rows=((1, 2), (2, 4)), det=1), [1, 1])


def test_solve_fractions():
    """An integer system whose solution is not integral."""
    A, b = [[1, 2], [3, 4]], [1, 0]
    y, d = solve(nonsingular(A), b)
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
            nonsingular(rows)
        return
    y, d = solve(nonsingular(rows), b)
    assert abs(d) == abs(det)
    assert y == [d * v for v in x]


def test_zero_determinant_iff_singular():
    for rows in ([[2, 3], [4, 6]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[5]]):
        is_zero = determinant(rows) == 0
        try:
            solve(nonsingular(rows), [1] * len(rows))
            solved = True
        except Singular:
            solved = False
        assert solved == (not is_zero)


@given(square_matrices)
def test_inverse_matches_cofactor_oracle(rows):
    """The inverse solved column by column: A adj(A) == det(A) I with det(A)
    from cofactor expansion; Singular iff det(A) = 0."""
    n = len(rows)
    det = cofactor_det(rows)
    if det == 0:
        with pytest.raises(Singular):
            nonsingular(rows)
        return
    m = nonsingular(rows)
    assert (m.rows, m.det) == (tuple(tuple(r) for r in rows), det)
    adj, d = _inverse(rows)
    assert d == det
    product = [mat_vec(rows, col) for col in zip(*adj)]
    assert product == [[det * (i == j) for i in range(n)] for j in range(n)]


def test_inverse_examples():
    m = nonsingular([])
    assert (m.rows, m.det) == ((), 1) and _inverse([]) == ((), 1)
    m = nonsingular([[1, -2], [3, 4]])
    assert repr(m) == "Nonsingular(rows=((1, -2), (3, 4)), det=10)"
    swapped = m._replace(rows=((3, 4), (1, -2)), det=-m.det)
    assert swapped == exactla.Nonsingular(((3, 4), (1, -2)), -10)
    assert solve(swapped, [3, 1], ([1, 0], 1)) == ([1, 0], 1)
    assert solve(nonsingular([]), []) == ([], 1)
    assert _inverse([[1, 1], [1, 0]]) == (((0, -1), (-1, 1)), -1)
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[0]]):
        with pytest.raises(Singular):
            nonsingular(rows)
    with pytest.raises(NotSquare):
        nonsingular([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(NotSquare):
        nonsingular([[1, 2], [3]])


@pytest.mark.parametrize("letter, rank, det", [
    ("B", 5, -2**71),
    ("F", 4, 9 * 2**37),
], ids=["B5", "F4"])
def test_fixed_dim_det_pins(letter, rank, det):
    """The fixed-dim determinants of W(B5) and W(F4), and solve returns
    the full det as its denominator."""
    fdm = fixed_dim_matrix(weyl_group(letter, rank).group)
    assert fdm.det == det == determinant(fdm.rows)
    b = [1] * len(fdm.rows)
    y, d = solve(fdm, b)
    assert d == det
    assert mat_vec(fdm.rows, y) == [d * v for v in b]


def _faulty_forward(monkeypatch):
    """Make every elimination carry its last right-hand-side entry off by
    one, so the last back-substituted numerator is off by one."""
    forward = exactla._forward

    def faulty(m, n):
        d = forward(m, n)
        m[n - 1][n] += 1
        return d

    monkeypatch.setattr(exactla, "_forward", faulty)


def test_solve_rejects_a_faulty_elimination(monkeypatch):
    fdms = (nonsingular([[1, 1, 2], [1, 0, 1], [1, 1, 0]]),
            fixed_dim_matrix(weyl_group("B", 5).group))
    _faulty_forward(monkeypatch)
    for m in fdms:
        with pytest.raises(AssertionError, match="solve verification failed"):
            solve(m, [1] * len(m.rows))


def _faulty_solves_under_O(systems):
    """Run solve on each of `systems` (a Python expression for a tuple of
    Nonsingular records) under python -O with every elimination faulty, and
    return the printed words: the optimize flag, then, per refused system,
    its determinant and the refusal message."""
    snippet = textwrap.dedent(
        """
        import sys
        from prymdim import exactla
        from prymdim.chartable import fixed_dim_matrix
        from prymdim.weyl import weyl_group

        ms = %s
        forward = exactla._forward

        def faulty(m, n):
            d = forward(m, n)
            m[n - 1][n] += 1
            return d

        exactla._forward = faulty
        print(sys.flags.optimize)
        for m in ms:
            try:
                exactla.solve(m, [1] * len(m.rows))
            except AssertionError as exc:
                print(m.det, exc.args[0].replace(" ", "_"))
        """
    ) % systems
    src = str(Path(prymdim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_solve_check_survives_python_O():
    """The A y == d b check is an explicit raise, so a faulty elimination
    is caught when -O strips assert statements."""
    assert _faulty_solves_under_O(
        '(fixed_dim_matrix(weyl_group("B", 5).group),)'
    ) == ["1", str(-2**71), "solve_verification_failed"]


def test_packed_check_refuses_a_faulty_elimination_under_python_O():
    """A faulty elimination is refused under -O at both sizes the packed
    check once split into lane widths, and the plain per-row check now
    covers alike: a 3x3 system with small numerators and W(B5), det
    -2^71, whose numerators reach about 2^80."""
    assert _faulty_solves_under_O(
        "(exactla.nonsingular([[1, 1, 2], [1, 0, 1], [1, 1, 0]]),"
        ' fixed_dim_matrix(weyl_group("B", 5).group))'
    ) == [
        "1", "2", "solve_verification_failed", str(-2**71), "solve_verification_failed",
    ]


def _row_by_row(rows, y, d, b):
    return mat_vec(rows, y) == [d * v for v in b]


@pytest.mark.parametrize("width", [64, 192])
def test_lane_read_round_trips(width):
    """Signed entries pack and read back lane by lane at the extremes
    -2^(w-1) + 1 and 2^(w-1) - 1 of a lane, at 0 and at -1 and 1; entry i
    sits at bit w i on a little-endian machine (the lanes are in native
    byte order); a difference of packed nonnegative rows reads back as
    the difference of the rows."""
    top = 2 ** (width - 1) - 1
    values = [-top, 0, top, -1, 1, top, -top]
    kernel = exactla.lanes(len(values), width)
    packed = kernel.pack(values)
    if sys.byteorder == "little":
        assert packed == sum(v << (width * i) for i, v in enumerate(values))
    assert kernel.read(packed) == values
    positive = kernel.pack([max(v, 0) for v in values])
    negative = kernel.pack([max(-v, 0) for v in values])
    assert positive - negative == packed
    assert kernel.read(kernel.ones) == [1] * len(values)
    assert kernel.read(0) == [0] * len(values)
    empty = exactla.lanes(0, width)
    assert (empty.pack([]), empty.read(0), empty.ones) == (0, [], 0)


@pytest.mark.parametrize("width", [64, 128, 192])
@given(data=st.data())
def test_packed_halves_and_parities(width, data):
    """One shift halves a packed vector of even lanes exactly, negative
    lanes and the extremes of a lane included, and one AND with the lane
    ones leaves the parity of every lane of a nonnegative one: how
    ``rhprym.validate`` finds the odd lanes of its one packed vector and
    halves it."""
    half = 2 ** (width - 2)
    lane = st.one_of(st.integers(-3, 3), st.sampled_from([-half, half - 1]),
                     st.integers(-half, half - 1))
    n = data.draw(st.integers(min_value=0, max_value=8))
    kernel = exactla.lanes(n, width)
    v = [2 * k for k in data.draw(st.lists(lane, min_size=n, max_size=n))]
    assert kernel.read(kernel.pack(v) >> 1) == [x // 2 for x in v]
    top = 2 ** (width - 1) - 1
    u = data.draw(st.lists(st.one_of(st.integers(0, 5), st.sampled_from([top - 1, top]),
                                     st.integers(0, top)), min_size=n, max_size=n))
    assert kernel.read(kernel.pack(u) & kernel.ones) == [x % 2 for x in u]


wide_entries = st.one_of(small_entries, st.integers(min_value=-2**70, max_value=2**70))
offsets = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**63, -2**63, 2**64, -2**64, 2**64 - 1, 2**128]),
)


@given(st.data())
def test_check_matches_the_row_by_row_product(data):
    """The decision A y == d b equals the n dot products on random integer
    matrices, n = 0 and n = 1 included, entries up to 2^70 in absolute
    value, for candidates that pass and the same ones with one coordinate
    of y or b moved by up to 2^128."""
    n = data.draw(st.integers(min_value=0, max_value=5))
    entries = data.draw(st.sampled_from([small_entries, wide_entries]))
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    # the check reads only the rows, so the record need not be certified
    m = exactla.Nonsingular(rows, det=1)
    x = data.draw(st.lists(entries, min_size=n, max_size=n))
    d = data.draw(st.integers(min_value=-3, max_value=3))
    y, b = [d * v for v in x], mat_vec(rows, x)
    assert exactla._satisfies(m, y, d, b)
    if n:
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        delta = data.draw(offsets)
        moved_y = [v + delta * (k == i) for k, v in enumerate(y)]
        moved_b = [v + delta * (k == i) for k, v in enumerate(b)]
        for yy, bb in ((moved_y, b), (y, moved_b)):
            assert exactla._satisfies(m, yy, d, bb) == _row_by_row(rows, yy, d, bb)
    other = data.draw(st.lists(entries, min_size=n, max_size=n))
    assert exactla._satisfies(m, other, d, b) == _row_by_row(rows, other, d, b)


def test_check_at_2_63():
    """Entries of A y on either side of 2^63, a d far past them and a
    negative d, over a list or a tuple b: the check answers as the
    row-by-row product does."""
    eye, cross = nonsingular([[1, 0], [0, 1]]), nonsingular([[1, 1], [1, -1]])
    cases = [
        # (A, y, d, b, A y == d b)
        (eye, [2**63 - 1, -5], 1, [2**63 - 1, -5], True),
        (eye, [2**63 - 1, 3], 1, [2**63 - 2, 3], False),
        (eye, [-(2**63 - 1), 0], 2**70, [1, 0], False),
        (eye, [2**63, 7], 1, [2**63, 7], True),
        (eye, [2**63, 7], 1, [2**63, 6], False),
        (eye, [-(2**63), 7], -1, [2**63, -7], True),
        (cross, [2**62 - 1, 2**62 - 1], 1, [2**63 - 2, 0], True),
        (cross, [2**62, -(2**62)], 2, [0, 2**62], True),
        (cross, [2**62, -(2**62)], 2, [2**62, 0], False),
    ]
    for m, y, d, b, holds in cases:
        for bb in (b, tuple(b)):
            assert exactla._satisfies(m, y, d, bb) is holds is _row_by_row(m.rows, y, d, bb)


def test_check_never_accepts_a_candidate_off_by_2_64(monkeypatch):
    """A candidate off by 2^64, -2^64 or 2^63 in one coordinate is refused,
    and solve answers by elimination instead, once per candidate."""
    eye = nonsingular([[1, 0], [0, 1]])
    assert not exactla._satisfies(eye, [2**64, -1], 1, [0, 0])
    m = nonsingular([[1, 1, 2], [1, 0, 1], [1, 1, 0]])
    x = [1, 1, 2]
    b = mat_vec(m.rows, x)
    passes = []
    forward = exactla._forward

    def counted(a, n):
        passes.append(n)
        return forward(a, n)

    monkeypatch.setattr(exactla, "_forward", counted)
    for i in range(3):
        for offset in (2**64, -2**64, 2**63):
            wrong = [v + offset * (k == i) for k, v in enumerate(x)]
            assert not exactla._satisfies(m, wrong, 1, b)
            y, d = solve(m, b, (wrong, 1))
            assert (d, [v // d for v in y]) == (m.det, x)
    assert passes == [3] * 9
