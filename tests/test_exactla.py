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


def test_solve_check_survives_python_O():
    """The A y == d b check is an explicit raise, so a faulty elimination
    is caught when -O strips assert statements."""
    snippet = textwrap.dedent(
        """
        import sys
        from prymdim import exactla
        from prymdim.chartable import fixed_dim_matrix
        from prymdim.weyl import weyl_group

        fdm = fixed_dim_matrix(weyl_group("B", 5).group)
        forward = exactla._forward

        def faulty(m, n):
            d = forward(m, n)
            m[n - 1][n] += 1
            return d

        exactla._forward = faulty
        print(sys.flags.optimize)
        try:
            exactla.solve(fdm, [1] * len(fdm.rows))
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


def _row_by_row(rows, y, d, b):
    return mat_vec(rows, y) == [d * v for v in b]


def _count_packings(monkeypatch):
    """Record the width of every lane kernel made from now on."""
    make = exactla.lanes
    widths = []

    def counted(n, width):
        widths.append(width)
        return make(n, width)

    monkeypatch.setattr(exactla, "lanes", counted)
    return widths


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


wide_entries = st.one_of(small_entries, st.integers(min_value=-2**70, max_value=2**70))
packed_offsets = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**63, -2**63, 2**64, -2**64, 2**64 - 1, 2**128]),
)


@given(st.data())
def test_packed_check_matches_the_row_by_row_product(data):
    """The packed decision A y == d b equals the n dot products on random
    integer matrices, n = 0 and n = 1 included, entries up to 2^70 in
    absolute value, for candidates that pass and the same ones with one
    coordinate of y or b moved."""
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
        delta = data.draw(packed_offsets)
        moved_y = [v + delta * (k == i) for k, v in enumerate(y)]
        moved_b = [v + delta * (k == i) for k, v in enumerate(b)]
        for yy, bb in ((moved_y, b), (y, moved_b)):
            assert exactla._satisfies(m, yy, d, bb) == _row_by_row(rows, yy, d, bb)
    other = data.draw(st.lists(entries, min_size=n, max_size=n))
    assert exactla._satisfies(m, other, d, b) == _row_by_row(rows, other, d, b)


def test_packed_check_at_the_bound(monkeypatch):
    """While |A| max|y| < 2^63 the check packs at 64 bits, whatever d and b
    are; at 2^63 it packs at 128 bits, once for the checks that need it;
    every answer agrees with the row-by-row product."""
    eye, cross = nonsingular([[1, 0], [0, 1]]), nonsingular([[1, 1], [1, -1]])
    widths = _count_packings(monkeypatch)
    cases = [
        # (A, y, d, b, |A| max|y|, A y == d b)
        (eye, [2**63 - 1, -5], 1, [2**63 - 1, -5], 2**63 - 1, True),
        (eye, [2**63 - 1, 3], 1, [2**63 - 2, 3], 2**63 - 1, False),
        (eye, [-(2**63 - 1), 0], 2**70, [1, 0], 2**63 - 1, False),
        (eye, [2**63, 7], 1, [2**63, 7], 2**63, True),
        (eye, [2**63, 7], 1, [2**63, 6], 2**63, False),
        (eye, [-(2**63), 7], -1, [2**63, -7], 2**63, True),
        (cross, [2**62 - 1, 2**62 - 1], 1, [2**63 - 2, 0], 2**63 - 2, True),
        (cross, [2**62, -(2**62)], 2, [0, 2**62], 2**63, True),
        (cross, [2**62, -(2**62)], 2, [2**62, 0], 2**63, False),
    ]
    for m, y, d, b, bound, holds in cases:
        assert m.norm * max(map(abs, y)) == bound
        assert exactla._satisfies(m, y, d, b) is holds is _row_by_row(m.rows, y, d, b)
        assert max(m.packed) == (64 if bound < 2**63 else 128)
    assert widths == [64, 128, 64, 128]


def test_packed_check_never_accepts_a_wrong_candidate(monkeypatch):
    """e = A y - d b = (2^64, -1) packs to 0 at width 64, so the bound
    sends it to a wider packing; a candidate off by 2^64 in one coordinate
    is refused, and solve answers by elimination instead."""
    eye = nonsingular([[1, 0], [0, 1]])
    assert (2**64) + (-1 << 64) == 0
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


def test_packed_check_refuses_a_faulty_elimination_under_python_O():
    """A faulty elimination is refused at both widths, 64 bits (a 3x3
    system with small numerators) and a wider one (W(B5), det -2^71), each
    check packing its columns once, when -O strips assert statements."""
    snippet = textwrap.dedent(
        """
        import sys
        from prymdim import exactla
        from prymdim.chartable import fixed_dim_matrix
        from prymdim.weyl import weyl_group

        forward, lanes = exactla._forward, exactla.lanes
        widths = []

        def faulty(m, n):
            d = forward(m, n)
            m[n - 1][n] += 1
            return d

        def counted(n, width):
            widths.append(width)
            return lanes(n, width)

        ms = (exactla.nonsingular([[1, 1, 2], [1, 0, 1], [1, 1, 0]]),
              fixed_dim_matrix(weyl_group("B", 5).group))
        exactla._forward, exactla.lanes = faulty, counted
        print(sys.flags.optimize)
        for m in ms:
            del widths[:]
            try:
                exactla.solve(m, [1] * len(m.rows))
            except AssertionError as exc:
                print(exc.args[0].replace(" ", "_"), *widths)
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
    assert proc.stdout.split() == [
        "1", "solve_verification_failed", "64", "solve_verification_failed", "128",
    ]


def test_wide_packing_is_made_once_per_record_and_width(monkeypatch):
    """Nothing is packed when a record is built. Each width a check needs,
    a multiple of 64, gets one (kernel, columns) on the first check at it,
    kept on the record: later checks at that width, passing or not, reuse
    it, another width packs once more, and a copy starts empty."""
    widths = _count_packings(monkeypatch)
    m = nonsingular([[1, 2], [3, 4]])
    assert m.packed == {} and widths == []
    x = [2**70, -(2**70)]
    b = mat_vec(m.rows, x)
    for wrong in (0, 1, 2**64):
        assert exactla._satisfies(m, [x[0] + wrong, x[1]], 1, b) is (wrong == 0)
    assert widths == [128] and list(m.packed) == [128]
    kernel, columns = wide = m.packed[128]
    assert [kernel.read(c) for c in columns] == [[1, 3], [2, 4]]
    assert exactla._satisfies(m, [2, -1], 1, [0, 2])
    assert exactla._satisfies(m, [2**130, 0], 1, [2**130, 3 * 2**130])
    assert widths == [128, 64, 192] and sorted(m.packed) == [64, 128, 192]
    assert solve(m, b) == ([-2 * v for v in x], -2)
    assert widths == [128, 64, 192] and m.packed[128] is wide  # the elimination's check
    copy = m._replace(det=m.det)
    assert copy == m and copy.packed == {}
    assert exactla._satisfies(copy, x, 1, b)
    assert widths == [128, 64, 192, 128] and list(copy.packed) == [128]


def test_nonsingular_packs_its_columns_and_repacks_a_copy():
    """Nothing is packed at construction; the first check packs column j,
    signed entries included, and reads it back as the column. The norm is
    the largest absolute row sum, and a copy with other rows packs those
    rows on its own first check."""
    m = nonsingular([[1, -2], [3, 4]])
    assert m.norm == 7 and m.packed == {}
    assert solve(m, [3, 1], ([1, 0], 1)) != ([1, 0], 1)
    kernel, columns = m.packed[64]
    assert [kernel.read(c) for c in columns] == [[1, 3], [-2, 4]]
    swapped = m._replace(rows=((3, 4), (1, -2)), det=-m.det)
    assert swapped == exactla.Nonsingular(((3, 4), (1, -2)), -10)
    assert swapped.norm == 7 and swapped.packed == {}
    assert solve(swapped, [3, 1], ([1, 0], 1)) == ([1, 0], 1)
    kernel, columns = swapped.packed[64]
    assert [kernel.read(c) for c in columns] == [[3, 1], [4, -2]]
    assert repr(m) == "Nonsingular(rows=((1, -2), (3, 4)), det=10)"
