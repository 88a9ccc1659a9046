import gc
import itertools
import math
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import prymdim
from prymdim.chartable import (
    CharacterTable,
    _check_cyclic_profile,
    _dixon_schneider,
    _kernel_mod,
    _rref,
    _verify_orthogonality,
    character_table,
    fixed_dim_matrix,
)
from prymdim.errors import LiftFailure, NotRationalGroup
from prymdim.permgroup import PermGroup, group_from_generators, parse_generators
from prymdim.weyl import weyl_group

from conftest import SMALL_WEYL, left_row


def test_table_s3(s3):
    T = character_table(s3)
    assert T.table == ((1, 1, 1), (1, -1, 1), (2, 0, -1))
    assert T.degrees == (1, 1, 2)
    assert T.table[0] == (1, 1, 1)


def test_table_z2_and_trivial(z2, trivial):
    assert character_table(z2).table == ((1, 1), (1, -1))
    assert character_table(trivial).table == ((1,),)


def test_table_s4(s4):
    # classes ordered (e, 2+2, 2, 3, 4); classical table rearranged to match
    T = character_table(s4)
    assert T.table == (
        (1, 1, 1, 1, 1),
        (1, 1, -1, 1, -1),
        (2, 2, 0, -1, 0),
        (3, -1, 1, 0, -1),
        (3, -1, -1, 0, 1),
    )


def test_table_dihedral_12_structure():
    W = weyl_group("G", 2)
    T = character_table(W.group)
    assert sorted(T.degrees) == [1, 1, 1, 1, 2, 2]
    classes = W.group.conjugacy_classes()
    cox_col = next(i for i, c in enumerate(classes) if c.element_order == 6)
    central_col = next(
        i for i, c in enumerate(classes) if c.element_order == 2 and c.size == 1
    )
    refl_cols = [
        i for i, c in enumerate(classes) if c.element_order == 2 and c.size == 3
    ]
    row = T.table[W.reflection_rep]
    assert row[0] == 2
    assert row[cox_col] == 1  # 2cos(pi/3)
    assert row[central_col] == -2
    assert all(row[c] == 0 for c in refl_cols)


def test_not_rational_raises(z3):
    with pytest.raises(NotRationalGroup):
        character_table(z3)


# non-rational groups: Z4, D10, A4, Z7 x| Z3 and PSL(2,7)
_NON_RATIONAL_GENERATORS = [
    ["(0 1 2 3)"],
    ["(0 1 2 3 4)", "(1 4)(2 3)"],
    ["(0 1 2)", "(0 1)(2 3)"],
    ["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)"],
    ["(1 2 3)(4 6 5)", "(0 4 1)(2 5 3)"],
]


def test_lift_failure_reachable(z3, z5):
    """Without the rationality pre-check a non-rational group must still be
    refused: its class matrices do not split over GF(p), or the symmetric
    residues fail orthogonality."""
    with pytest.raises(LiftFailure):
        _dixon_schneider(z3)
    with pytest.raises(LiftFailure):
        _dixon_schneider(z5)
    for gens in _NON_RATIONAL_GENERATORS:
        G = group_from_generators(parse_generators(gens))
        with pytest.raises(LiftFailure):
            _dixon_schneider(G)


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _hook_length_count(shape):
    """f^shape = n! / prod of hook lengths: the degree of the Specht module."""
    conj = [sum(1 for r in shape if r > j) for j in range(shape[0])]
    hooks = math.prod(
        (shape[i] - j) + (conj[j] - i) - 1
        for i in range(len(shape))
        for j in range(shape[i])
    )
    return math.factorial(sum(shape)) // hooks


def test_degrees_type_a_match_hook_lengths():
    for n in range(1, 7):
        T = character_table(weyl_group("A", n).group)
        assert sorted(T.degrees) == sorted(map(_hook_length_count, _partitions(n + 1)))


def test_degrees_f4_match_classical_table():
    # Carter, Finite Groups of Lie Type, the character table of W(F4)
    T = character_table(weyl_group("F", 4).group)
    assert sorted(T.degrees) == (
        [1] * 4 + [2] * 4 + [4] * 5 + [6] * 2 + [8] * 4 + [9] * 4 + [12, 16]
    )


def test_orthogonality_on_fleet():
    for letter, rank in SMALL_WEYL:
        G = weyl_group(letter, rank).group
        T = character_table(G)
        n = T.n
        sizes = [cl.size for cl in G.conjugacy_classes()]
        assert sum(d * d for d in T.degrees) == G.order
        for j in range(n):
            for j2 in range(n):
                s = sum(sizes[i] * T.table[j][i] * T.table[j2][i] for i in range(n))
                assert s == (G.order if j == j2 else 0)
        for i in range(n):
            for i2 in range(n):
                s = sum(T.table[j][i] * T.table[j][i2] for j in range(n))
                assert s == (G.order // sizes[i] if i == i2 else 0)


def _corrupted(T, sizes, how):
    """T's table with one corruption that breaks row orthogonality. A
    negated row is not one: it keeps both orthogonality relations."""
    rows = [list(r) for r in T.table]
    if how == "entry_off_by_one":
        rows[-1][1] += 1
    elif how == "row_doubled":
        rows[-1] = [2 * v for v in rows[-1]]
    elif how == "row_repeated":
        rows[-1] = rows[-2][:]
    else:  # two columns of different class sizes swapped
        a, b = next((a, b) for a, b in itertools.combinations(range(1, T.n), 2)
                    if sizes[a] != sizes[b])
        for r in rows:
            r[a], r[b] = r[b], r[a]
    return rows


@pytest.mark.parametrize(
    "how", ["entry_off_by_one", "row_doubled", "row_repeated", "columns_swapped"]
)
@pytest.mark.parametrize("label", ["S4", "B3"])
def test_verify_orthogonality_rejects_bad_tables(label, how, s4):
    """The row check is the only check on a lifted table."""
    G = s4 if label == "S4" else weyl_group("B", 3).group
    T = character_table(G)
    sizes = [cl.size for cl in G.conjugacy_classes()]
    _verify_orthogonality(G.order, sizes, T.table)
    with pytest.raises(LiftFailure, match="row orthogonality"):
        _verify_orthogonality(G.order, sizes, _corrupted(T, sizes, how))


def test_natural_permutation_character_decomposes():
    """Independent sanity check: the point-action character must decompose
    with nonnegative integer multiplicities."""
    for letter, rank in SMALL_WEYL:
        G = weyl_group(letter, rank).group
        T = character_table(G)
        classes = G.conjugacy_classes()
        nat = [
            sum(1 for i, v in enumerate(G.elements[c.representative].images) if v == i)
            for c in classes
        ]
        mults = []
        for j in range(T.n):
            s = sum(
                classes[i].size * T.table[j][i] * nat[i] for i in range(T.n)
            )
            assert s % G.order == 0 and s >= 0
            mults.append(s // G.order)
        for i in range(T.n):
            assert sum(mults[j] * T.table[j][i] for j in range(T.n)) == nat[i]


def _full_class_matrices(G):
    """M_r[s][t] = #{x in C_r : x^-1 rep_t in C_s} for every r, by enumerating G."""
    classes = G.conjugacy_classes()
    n = len(classes)
    mats = [[[0] * n for _ in range(n)] for _ in range(n)]
    for x in range(G.order):
        Mr = mats[G.class_of(x)]
        for t, cl in enumerate(classes):
            Mr[G.class_of(G.mul(G.inv(x), cl.representative))][t] += 1
    return mats


@pytest.mark.parametrize("label", ["S4", "B3", "G2", "D4"])
def test_table_satisfies_every_class_matrix(label, s4):
    """The table is built from the few class matrices the split needs; every
    other one must hold too. With K_r the class sum, K_r K_s = sum_t M_r[s][t]
    K_t, which chi turns into sum_t M_r[s][t] |C_t| chi(t) chi(1) =
    |C_r| chi(r) |C_s| chi(s)."""
    G = s4 if label == "S4" else weyl_group(label[0], int(label[1:])).group
    T = character_table(G)
    mats = _full_class_matrices(G)
    sizes = [cl.size for cl in G.conjugacy_classes()]
    for chi in T.table:
        weighted = [c * v for c, v in zip(sizes, chi)]
        for r, Mr in enumerate(mats):
            for s, row in enumerate(Mr):
                lhs = sum(m * w for m, w in zip(row, weighted)) * chi[0]
                assert lhs == weighted[r] * weighted[s], (label, chi, r, s)


def test_table_builds_only_the_class_matrices_it_uses(monkeypatch):
    """W(B5) splits after its first six non-identity classes (51 of 3840
    elements), so the table costs far fewer products than one per element."""
    G = PermGroup(weyl_group("B", 5).group.generators)
    G.conjugacy_classes()
    calls = 0
    mul = G.mul

    def counting_mul(i, j):
        nonlocal calls
        calls += 1
        return mul(i, j)

    monkeypatch.setattr(G, "mul", counting_mul)
    character_table(G)
    assert 0 < calls < G.order


@st.composite
def _matrices_mod_p(draw):
    """(rows, p): up to 4x4 integers over GF(p), p in {2, 3, 5, 7}; entries
    range past [0, p) so reduction of the input is exercised too."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.integers(-p, 2 * p)
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)], p


def _row_space(rows, p):
    """Every GF(p) combination of the rows, enumerated."""
    n = len(rows[0])
    return {
        tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(n))
        for coeffs in itertools.product(range(p), repeat=len(rows))
    }


@given(_matrices_mod_p())
def test_rref_is_reduced(case):
    rows, p = case
    pivots, R = _rref(rows, p)
    assert len(pivots) == len(R)
    assert pivots == sorted(set(pivots))
    for i, (c, row) in enumerate(zip(pivots, R)):
        assert all(0 <= v < p for v in row)
        assert row[c] == 1 and not any(row[:c])
        assert all(R[k][c] == 0 for k in range(len(R)) if k != i)


@given(_matrices_mod_p())
def test_rref_spans_the_row_space(case):
    rows, p = case
    _, R = _rref(rows, p)
    zero = [[0] * len(rows[0])]
    assert _row_space(R or zero, p) == _row_space(rows, p)


@given(_matrices_mod_p())
def test_kernel_mod_is_the_null_space(case):
    rows, p = case
    n = len(rows[0])
    kernel = _kernel_mod(rows, p)
    assert len(kernel) == n - len(_rref(rows, p)[0])
    assert not kernel or len(_rref(kernel, p)[0]) == len(kernel)  # independent
    for v in kernel:
        assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)


def test_fixed_dim_examples(s3):
    rows = fixed_dim_matrix(s3).rows
    assert rows[1][2] == 1  # standard rep, reflection subgroup
    assert rows[2][1] == 1  # sign rep, rotation subgroup
    for k in range(len(s3.cyclic_subgroup_classes())):
        assert rows[k][0] == 1


def test_fixed_dim_matrix_examples(z2, s3, trivial):
    assert fixed_dim_matrix(s3).rows == ((1, 1, 2), (1, 0, 1), (1, 1, 0))
    assert fixed_dim_matrix(z2).rows == ((1, 1), (1, 0))
    assert fixed_dim_matrix(trivial).rows == ((1,),)


def test_fixed_dim_matrix_invariants():
    for letter, rank in SMALL_WEYL:
        G = weyl_group(letter, rank).group
        T = character_table(G)
        F = fixed_dim_matrix(G)
        cyclic = G.cyclic_subgroup_classes()
        assert F.rows[0] == T.degrees
        assert all(row[0] == 1 for row in F.rows)
        for i, K in enumerate(cyclic):
            assert all(F.rows[i][j] <= T.degrees[j] for j in range(T.n))
            # sum_j dim rho_j^H * dim rho_j = [G : H]
            s = sum(F.rows[i][j] * T.degrees[j] for j in range(T.n))
            assert s == G.order // K.subgroup_order


def test_double_coset_identity_small():
    """Character sums, Burnside's class count and orbits on cosets agree."""
    for letter, rank in [("A", 2), ("B", 2), ("G", 2)]:
        G = weyl_group(letter, rank).group
        F = fixed_dim_matrix(G)
        cyclic = G.cyclic_subgroup_classes()
        n = len(F.rows)
        rows = [left_row(G, K.generator) for K in cyclic]
        for i in range(n):
            act = G.coset_action(cyclic[i].subgroup_elements)
            for k in range(n):
                char_route = sum(F.rows[i][j] * F.rows[k][j] for j in range(n))
                burnside_route = G.double_coset_count(cyclic[k], cyclic[i])
                orbit_route = act.cycle_count(rows[k])
                assert char_route == burnside_route == orbit_route, (letter, rank, i, k)


def test_non_integer_fixed_dim_detected(s3):
    from prymdim.errors import NonIntegerFixedDim
    from prymdim.permgroup import CyclicClass

    good = s3.cyclic_subgroup_classes()[1]
    corrupted = CyclicClass(
        generator=good.generator,
        subgroup_order=good.subgroup_order,
        subgroup_elements=good.subgroup_elements,
        member_class_profile={0: 2},  # inconsistent with any subgroup
    )
    with pytest.raises(NonIntegerFixedDim):
        _check_cyclic_profile(s3.conjugacy_classes(), corrupted)


@pytest.mark.parametrize(
    "profile",
    [
        {0: 1, -2: 1},  # negative index would wrap to the transposition class
        {0: 1, 3: 1},  # no class 3 in S3
        {0: 1, 1: 2, 2: -1},  # negative count
    ],
)
def test_fixed_dim_rejects_impossible_profile_s3(s3, profile):
    from prymdim.errors import NonIntegerFixedDim
    from prymdim.permgroup import CyclicClass

    good = s3.cyclic_subgroup_classes()[1]
    assert good.member_class_profile == {0: 1, 1: 1}
    bad = CyclicClass(
        generator=good.generator,
        subgroup_order=good.subgroup_order,
        subgroup_elements=good.subgroup_elements,
        member_class_profile=profile,
    )
    with pytest.raises(NonIntegerFixedDim):
        _check_cyclic_profile(s3.conjugacy_classes(), bad)


def test_fixed_dim_rejects_negative_count_with_right_order_tally(s4):
    # S4 classes (e, 2+2, 2, 3, 4): one identity and one element of order 2
    # in total, but made of -1 double transpositions and 2 transpositions.
    from prymdim.errors import NonIntegerFixedDim
    from prymdim.permgroup import CyclicClass

    good = next(K for K in s4.cyclic_subgroup_classes() if 2 in K.member_class_profile)
    assert good.member_class_profile == {0: 1, 2: 1}
    bad = CyclicClass(
        generator=good.generator,
        subgroup_order=good.subgroup_order,
        subgroup_elements=good.subgroup_elements,
        member_class_profile={0: 1, 1: -1, 2: 2},
    )
    with pytest.raises(NonIntegerFixedDim):
        _check_cyclic_profile(s4.conjugacy_classes(), bad)


def test_tables_are_cached_without_keeping_the_group_alive():
    """Repeated calls on a live group return the very same table and
    inverse; once the group is dropped, the caches do not keep it."""
    G = group_from_generators(parse_generators(["(0 1)", "(0 1 2 3)"]))
    T, F = character_table(G), fixed_dim_matrix(G)
    assert character_table(G) is T and fixed_dim_matrix(G) is F
    assert CharacterTable._fields == ("table", "degrees")
    assert not hasattr(G, "table") and not hasattr(G, "fixed_dims")
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


def test_fixed_dim_matrix_check_survives_python_O():
    """The trivial-row check of fixed_dim_matrix still runs when -O strips
    assert statements: a table whose last degree is off by one is caught."""
    snippet = textwrap.dedent(
        """
        import sys
        from prymdim import chartable
        from prymdim.chartable import character_table, fixed_dim_matrix
        from prymdim.permgroup import group_from_generators, parse_generators

        G = group_from_generators(parse_generators(["(0 1)", "(0 1 2)"]))
        T = character_table(G)
        chartable._tables[G] = T._replace(degrees=T.degrees[:-1] + (T.degrees[-1] + 1,))
        print(sys.flags.optimize)
        try:
            fixed_dim_matrix(G)
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


def test_tsv_export(s3, capsys):
    """The TSV export of the S3 table, rendered by the CLI from the
    character_table block, carries the class sizes and every row of
    character_table."""
    from prymdim.cli import main

    assert main(["chartable", "--generators", "(0 1)", "(0 1 2)",
                 "--format", "tsv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("class\t")
    assert lines[1] == "size\t1\t3\t2"
    assert lines[2] == "chi1\t1\t1\t1"
    assert len(lines) == 2 + 3
    T = character_table(s3)
    assert [line.split("\t")[1:] for line in lines[2:]] == [
        [str(v) for v in row] for row in T.table
    ]
