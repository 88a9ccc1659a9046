import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prymdim
from prymdim import exactla, rhprym
from prymdim.chartable import character_table, fixed_dim_matrix
from prymdim.errors import (
    NegativeGenus,
    NonIntegerDimension,
    NonIntegerSolution,
    NotRationalGroup,
    OddRamificationDegree,
)
from prymdim.rhprym import (
    BRANCH_DATA_DIAGNOSTICS,
    DimensionReport,
    CoverSpec,
    RamificationSpec,
    genus_quotient,
    genus_total,
    isotypic_dims_solve,
    prym_dim_formula,
    sample_cover_specs,
    validate,
)
from prymdim.permgroup import PermGroup
from prymdim.weyl import weyl_group

from conftest import SMALL_WEYL, WEYL_FLEET


def s3_spec(s3, g=0, r2=4, r3=1):
    counts = {}
    if r2:
        counts[1] = r2
    if r3:
        counts[2] = r3
    return CoverSpec(s3, g, RamificationSpec(counts))


def test_ramification_degree_examples(z2, s3):
    """The total ramification degree read back from Riemann-Hurwitz,
    2 g_X - 2 = |G| (2 g - 2) + deg R, and from the odd-degree text."""

    def degree(spec):
        g_x = genus_total(spec)
        return 2 * g_x - 2 - spec.group.order * (2 * spec.base_genus - 2)

    assert degree(CoverSpec(z2, 0, RamificationSpec({1: 4}))) == 4
    assert degree(s3_spec(s3)) == 16
    assert degree(CoverSpec(s3, 2, RamificationSpec({}))) == 0
    with pytest.raises(OddRamificationDegree, match="total ramification degree 3 is odd"):
        genus_total(CoverSpec(z2, 0, RamificationSpec({1: 3})))


def test_genus_total_examples(z2, s3, trivial):
    assert genus_total(CoverSpec(z2, 1, RamificationSpec({1: 4}))) == 3
    assert genus_total(CoverSpec(z2, 0, RamificationSpec({1: 4}))) == 1  # deg R = 4
    assert genus_total(s3_spec(s3)) == 3  # deg R = 16
    assert genus_total(CoverSpec(s3, 2, RamificationSpec({}))) == 7  # deg R = 0
    for g in range(4):
        assert genus_total(CoverSpec(trivial, g, RamificationSpec({}))) == g


def test_genus_total_errors(z2, s3):
    with pytest.raises(OddRamificationDegree):
        genus_total(CoverSpec(z2, 1, RamificationSpec({1: 3})))
    with pytest.raises(NegativeGenus):
        genus_total(CoverSpec(s3, 0, RamificationSpec({})))


def test_genus_quotient_examples(z2, s3):
    spec = s3_spec(s3)
    assert genus_quotient(spec, 0) == genus_total(spec)  # H trivial
    assert genus_quotient(spec, 1) == 1  # order-2 subgroup, computed by hand
    z2_spec = CoverSpec(z2, 3, RamificationSpec({1: 4}))
    assert genus_quotient(z2_spec, 1) == 3  # X/G = Y for the full cyclic group


def test_solve_examples(z2, s3):
    assert isotypic_dims_solve(CoverSpec(z2, 1, RamificationSpec({1: 4}))) == (1, 2)
    assert isotypic_dims_solve(s3_spec(s3)) == (0, 1, 1)
    # unramified genus-1 cover: only the trivial piece survives
    assert isotypic_dims_solve(CoverSpec(s3, 1, RamificationSpec({}))) == (1, 0, 0)


def test_formula_examples(z2, s3):
    for g in range(0, 4):
        for deg_r in range(0, 12, 2):
            spec = CoverSpec(z2, g, RamificationSpec({1: deg_r}))
            want = g - 1 + deg_r // 2
            if want < 0:
                continue
            assert prym_dim_formula(spec, 1) == want
    spec = s3_spec(s3)
    assert prym_dim_formula(spec, 2) == 1  # standard rep: 2(-1) + 4/2 + 2/2... by hand
    assert prym_dim_formula(spec, 0) == 0  # trivial rep returns the base genus
    unram = CoverSpec(s3, 1, RamificationSpec({}))
    assert all(prym_dim_formula(unram, j) == (1 if j == 0 else 0) for j in range(3))


def test_validate_clean(s3):
    rep = validate(s3_spec(s3))
    assert rep.diagnostics == ()
    assert rep.method_agreement
    assert rep.g_total == 3
    assert rep.dims == (0, 1, 1)


def test_validate_odd_parity(z2):
    """The total space is the quotient by the trivial class, so its
    parity failure repeats H1's under its own text."""
    rep = validate(CoverSpec(z2, 1, RamificationSpec({1: 3})))
    assert rep.diagnostics == (
        "OddRamificationDegree: total ramification degree 3 is odd",
        "OddRamificationDegree: quotient H1 ramification degree 3 is odd",
        "NonIntegerDimension: closed-form dimension 3/2 is not an integer",
    )


def test_validate_negative_genus(s3):
    rep = validate(CoverSpec(s3, 0, RamificationSpec({})))
    assert rep.dims_closed_form == (0, -1, -2)
    assert rep.diagnostics == (
        "NegativeGenus: total-space genus -5 is negative",
        "NegativeGenus: quotient H1 genus -5 is negative",
        "NegativeGenus: quotient H2 genus -2 is negative",
        "NegativeGenus: quotient H3 genus -1 is negative",
        "NegativeDimension: (0, -1, -2)",
    )


def test_validate_non_integer_diagnostics():
    """Both integrality diagnostics keep their exact text: the solve prints
    the reduced fractions, the closed form prints the half-integer. The
    one-quantity routes raise the same texts: the reference solve over
    d = det A, the closed form for irrep 1."""
    G = weyl_group("B", 3).group
    spec = CoverSpec(G, 1, RamificationSpec({7: 3}))
    rep = validate(spec)
    assert rep.dims is None and rep.dims_closed_form is None
    assert rep.diagnostics == (
        "NonIntegerSolution: isotypic dimensions are not integers: "
        "[Fraction(1, 1), Fraction(3, 2), Fraction(3, 2), Fraction(0, 1), "
        "Fraction(3, 2), Fraction(3, 2), Fraction(9, 2), Fraction(3, 1), "
        "Fraction(3, 1), Fraction(9, 2)]",
        "NonIntegerDimension: closed-form dimension 3/2 is not an integer",
    )
    with pytest.raises(NonIntegerSolution) as solved:
        isotypic_dims_solve(spec)
    with pytest.raises(NonIntegerDimension) as closed:
        prym_dim_formula(spec, 1)
    assert tuple(f"{type(e).__name__}: {e}" for e in (solved.value, closed.value)) \
        == rep.diagnostics


def test_validate_trivial_group(trivial):
    rep = validate(CoverSpec(trivial, 0, RamificationSpec({})))
    assert rep.g_total == 0
    assert rep.dims == (0,)
    assert rep.diagnostics == ()


def test_spec_rejects_bad_input(z3, s3):
    with pytest.raises(NotRationalGroup):
        CoverSpec(z3, 0, RamificationSpec({}))
    with pytest.raises(ValueError):
        CoverSpec(s3, 0, RamificationSpec({0: 2}))  # trivial class not allowed
    with pytest.raises(ValueError):
        CoverSpec(s3, -1, RamificationSpec({}))
    with pytest.raises(ValueError):
        RamificationSpec({1: -2})
    # non-integers are refused, not truncated or parsed
    for counts in ({1: 4.9, 2: 1}, {"1": "4"}, {1: "4"}, {1.0: 2}, {True: 2}, {1: True}):
        with pytest.raises(ValueError):
            RamificationSpec(counts)
    for genus in (1.5, 1.0, "1", True):
        with pytest.raises(ValueError):
            CoverSpec(s3, genus, RamificationSpec({}))


def test_two_routes_agree_on_sampled_specs():
    for letter, rank in SMALL_WEYL:
        G = weyl_group(letter, rank).group
        for spec, _ in sample_cover_specs(G, 25, random.Random(99)):
            solved = isotypic_dims_solve(spec)
            closed = tuple(prym_dim_formula(spec, j) for j in range(len(solved)))
            assert solved == closed


def test_dimension_sum_and_trivial_dim():
    for letter, rank in [("A", 2), ("B", 2), ("G", 2)]:
        W = weyl_group(letter, rank)
        G = W.group
        T = character_table(G)
        for spec, _ in sample_cover_specs(G, 15, random.Random(5)):
            dims = isotypic_dims_solve(spec)
            assert dims[0] == spec.base_genus
            assert sum(d * v for d, v in zip(T.degrees, dims)) == genus_total(spec)


def test_monotonic_in_branch_points(s4):
    """Adding two branch points to any class never shrinks any dimension."""
    for spec, _ in sample_cover_specs(s4, 10, random.Random(3)):
        base = isotypic_dims_solve(spec)
        for k in range(1, len(s4.cyclic_subgroup_classes())):
            counts = dict(spec.ramification.counts)
            counts[k] = counts.get(k, 0) + 2
            bumped = isotypic_dims_solve(
                CoverSpec(s4, spec.base_genus, RamificationSpec(counts))
            )
            assert all(b >= a for a, b in zip(base, bumped))


def _count_eliminations(monkeypatch):
    """Record the (rows, width) of every Bareiss pass exactla runs."""
    passes = []
    forward = exactla._forward

    def counted(m, n):
        passes.append((n, len(m[0]) if m else 0))
        return forward(m, n)

    monkeypatch.setattr(exactla, "_forward", counted)
    return passes


def _count_solves(monkeypatch):
    calls = []
    solve = exactla.solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(exactla, "solve", counted)
    return calls


def test_warm_validate_makes_no_elimination(monkeypatch):
    """The group is certified once, on its first spec: after it, 50 warm
    specs need neither a Bareiss pass nor a solve."""
    G = weyl_group("F", 4).group
    specs = [spec for spec, _ in sample_cover_specs(G, 51, random.Random(9))]
    validate(specs[0])
    passes = _count_eliminations(monkeypatch)
    calls = _count_solves(monkeypatch)
    for spec in specs[1:]:
        validate(spec)
    assert (len(passes), len(calls)) == (0, 0)


def _half_integral_specs(G, count, rng):
    """Seeded specs with odd counts whose quotient genera are all integers
    but whose isotypic dimensions are not, each with its report's
    NonIntegerSolution text."""
    n = len(G.cyclic_subgroup_classes())
    out = []
    while len(out) < count:
        counts = {k: rng.randint(1, 9) for k in range(1, n) if rng.random() < 0.3}
        spec = CoverSpec(G, rng.randint(0, 5), RamificationSpec(counts))
        texts = [d for d in validate(spec).diagnostics if d.startswith("NonIntegerSolution")]
        if texts:
            out.append((spec, texts[0]))
    return out


# The NonIntegerSolution texts of the 20 seeded W(F4) specs, as the
# adjugate solve printed them before validate settled them by the closed
# form's check over d = 2.
HALF_INTEGRAL_F4_FIRST = (
    "NonIntegerSolution: isotypic dimensions are not integers: "
    "[Fraction(5, 1), Fraction(5, 1), Fraction(17, 2), Fraction(19, 2), "
    "Fraction(31, 1), Fraction(61, 2), Fraction(65, 2), Fraction(31, 1), "
    "Fraction(77, 1), Fraction(175, 2), Fraction(175, 2), Fraction(175, 2), "
    "Fraction(175, 2), Fraction(195, 2), Fraction(195, 2), Fraction(175, 1), "
    "Fraction(178, 1), Fraction(178, 1), Fraction(184, 1), Fraction(323, 2), "
    "Fraction(321, 2), Fraction(166, 1), Fraction(165, 1), Fraction(216, 1), "
    "Fraction(365, 1)]"
)
HALF_INTEGRAL_F4_SHA256 = "3dcae9af23251bc74de2e70e894001f7664d5734373fe5f27d95f85ffc6be12a"


def test_warm_validate_settles_half_integral_specs_without_elimination(monkeypatch):
    """A half-integral closed form, doubled back over d = 2, is the
    solution of the certified group's system as well, so validate reports
    NonIntegerSolution with no Bareiss pass and no solve, in the very text
    the adjugate solve printed."""
    G = weyl_group("F", 4).group
    specs = _half_integral_specs(G, 20, random.Random(7))
    passes = _count_eliminations(monkeypatch)
    calls = _count_solves(monkeypatch)
    reports = [validate(spec) for spec, _ in specs]
    assert (passes, calls) == ([], [])
    texts = [text for _, text in specs]
    assert texts[0] == HALF_INTEGRAL_F4_FIRST
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == HALF_INTEGRAL_F4_SHA256
    for (spec, text), rep in zip(specs, reports):
        assert rep.dims is None and text in rep.diagnostics


def test_warm_validate_reads_its_lanes_once_and_halves_on_the_packed_int(monkeypatch):
    """50 warm W(F4) specs: each validate looks its packed rows up once,
    divides nothing with ``_exact``, calls no solve, and reports the
    closed form's halves as its dimensions."""
    G = weyl_group("F", 4).group
    specs = [spec for spec, _ in sample_cover_specs(G, 50, random.Random(11))]
    counted = {}
    for name in ("_lanes", "_exact"):
        real = getattr(rhprym, name)

        def counting(*args, name=name, real=real):
            counted[name] += 1
            return real(*args)

        monkeypatch.setattr(rhprym, name, counting)
    calls = _count_solves(monkeypatch)
    for spec in specs:
        counted.update(_lanes=0, _exact=0)
        calls.clear()
        rep = validate(spec)
        assert counted == {"_lanes": 1, "_exact": 0}
        assert calls == []
        assert rep.dims is not None and rep.dims == rep.dims_closed_form


def test_cold_fixed_dim_matrix_runs_one_pass_of_width_n(monkeypatch):
    """Certifying a cold fixed-dim matrix is one determinant pass over its
    n columns, with no identity block beside them."""
    G = PermGroup(weyl_group("F", 4).group.generators)
    n = len(character_table(G).degrees)
    passes = _count_eliminations(monkeypatch)
    fdm = fixed_dim_matrix(G)
    assert passes == [(n, n)]
    assert fdm.det == 9 * 2**37
    fixed_dim_matrix(G)
    assert passes == [(n, n)]


def test_warm_validate_looks_up_each_table_once(monkeypatch):
    """The group's packed rows hold both routes' inputs, so a warm spec
    looks up neither the character table nor the fixed-dim matrix; the
    miss path of ``_lanes`` reads each once, to certify and to pack."""
    G = weyl_group("F", 4).group
    specs = [spec for spec, _ in sample_cover_specs(G, 11, random.Random(9))]
    validate(specs[0])
    calls = {"character_table": 0, "fixed_dim_matrix": 0}

    def counted(name):
        inner = getattr(rhprym, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(rhprym, name, wrapper)

    counted("character_table")
    counted("fixed_dim_matrix")
    for spec in specs[1:]:
        validate(spec)
    assert calls == {"character_table": 0, "fixed_dim_matrix": 0}
    monkeypatch.delitem(rhprym._packed, G)
    wide = CoverSpec(G, 2**62, RamificationSpec({1: 2}))
    for spec, once in ((specs[1], 1), (specs[2], 1), (wide, 2), (wide, 2)):
        validate(spec)
        assert calls == {"character_table": once, "fixed_dim_matrix": once}


def test_warm_validate_reads_cyclic_classes_and_double_cosets_once(monkeypatch):
    """validate looks up the cyclic classes and the double-coset matrix at
    most once per spec for all n + 1 genera, not once per quotient: a warm
    spec reads neither, since the group's packed rows hold them."""
    G = weyl_group("F", 4).group
    specs = [spec for spec, _ in sample_cover_specs(G, 11, random.Random(9))]
    validate(specs[0])
    calls = {"cyclic_subgroup_classes": 0, "double_coset_matrix": 0}

    def counted(name):
        inner = getattr(PermGroup, name)

        def wrapper(self):
            if self is G:
                calls[name] += 1
            return inner(self)

        monkeypatch.setattr(PermGroup, name, wrapper)

    counted("cyclic_subgroup_classes")
    counted("double_coset_matrix")
    reports = [validate(spec) for spec in specs[1:]]
    assert calls == {"cyclic_subgroup_classes": 0, "double_coset_matrix": 0}
    monkeypatch.undo()
    for spec, report in zip(specs[1:], reports):
        n = len(G.cyclic_subgroup_classes())
        assert report.quotient_genera == tuple(genus_quotient(spec, i) for i in range(n))
        assert report.g_total == genus_total(spec)


def _report_from_public_functions(spec):
    """The fields and diagnostics validate should give, assembled from
    genus_total, genus_quotient, isotypic_dims_solve and prym_dim_formula
    and the exceptions they raise, in validate's order."""
    n = len(spec.group.cyclic_subgroup_classes())
    diags = []

    def attempt(fn, *args):
        try:
            return fn(*args)
        except (OddRamificationDegree, NegativeGenus, NonIntegerSolution,
                NonIntegerDimension) as exc:
            diags.append(f"{type(exc).__name__}: {exc}")
            return None

    g_total = attempt(genus_total, spec)
    genera = tuple(attempt(genus_quotient, spec, i) for i in range(n))
    dims = None
    if g_total is not None and None not in genera:
        dims = attempt(isotypic_dims_solve, spec)
    # the closed form stops at its first half-integer dimension
    closed = attempt(lambda: tuple(prym_dim_formula(spec, j) for j in range(n)))
    final = dims if dims is not None else closed
    if final is not None and any(v < 0 for v in final):
        diags.append(f"NegativeDimension: {final}")
    return g_total, genera, dims, closed, tuple(diags)


def test_validate_matches_public_functions_on_fleet():
    """On every supported Weyl group, seeded clean and dirty specs (odd
    counts, base genus 0): validate's genera, both routes' dimensions and
    its diagnostics equal those of the one-quantity functions, and every
    kind of branch-data diagnostic comes up."""
    kinds = set()
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        n = len(G.cyclic_subgroup_classes())
        rng = random.Random(f"fleet-validate:{letter}{rank}")
        for t in range(40):
            keys = rng.sample(range(1, n), rng.randint(0, min(6, n - 1)))
            counts = {k: rng.randint(0, 9) for k in keys}
            if t % 2:  # clean half: even counts, positive genus
                counts = {k: c - c % 2 for k, c in counts.items()}
            spec = CoverSpec(G, rng.randint(t % 2, 3), RamificationSpec(counts))
            rep = validate(spec)
            g_total, genera, dims, closed, diags = _report_from_public_functions(spec)
            assert (rep.g_total, rep.quotient_genera) == (g_total, genera), spec
            assert (rep.dims, rep.dims_closed_form) == (dims, closed), spec
            assert rep.method_agreement == (dims is not None and dims == closed)
            assert rep.diagnostics == diags, spec
            kinds.update(d.split(":", 1)[0] for d in diags)
    assert kinds == set(BRANCH_DATA_DIAGNOSTICS)


def test_double_coset_matrix_is_symmetric():
    """Genera read row i of the matrix as the column #(H_k\\G/H_i)."""
    for letter, rank in SMALL_WEYL + [("F", 4)]:
        dcm = weyl_group(letter, rank).group.double_coset_matrix()
        assert dcm == tuple(zip(*dcm)), (letter, rank)


@pytest.mark.parametrize("index", [-1, -3, 3])
def test_index_outside_range_raises(s3, index):
    """An irrep or cyclic-class index outside 0..n-1 raises IndexError;
    a negative one does not wrap round to the last entries."""
    spec = s3_spec(s3)
    with pytest.raises(IndexError):
        prym_dim_formula(spec, index)
    with pytest.raises(IndexError):
        genus_quotient(spec, index)


# -- packed lanes ------------------------------------------------------------


def _fault_text(exc):
    return f"{type(exc).__name__}: {exc}"


def _validate_by_rows(spec):
    """validate's report with every vector formed row by row: the
    R_k-weighted sums of the double-coset and fixed-dim rows entry by
    entry, then the genera, their faults and the doubled closed form from
    them, as validate formed them before the rows were packed. It still
    checks TrivialDimension and DimensionSum, which the group certificate
    proves and validate no longer checks, so every comparison with it
    asserts that neither fires."""
    G = spec.group
    table = character_table(G)
    fdm = fixed_dim_matrix(G)
    counts = spec.ramification.counts
    points = sum(counts.values())

    def weighted_rows(rows):
        total = [0] * len(rows[0])
        for k, r in counts.items():
            total = [w + r * v for w, v in zip(total, rows[k])]
        return total

    diags = []

    indices = [G.order // K.subgroup_order for K in G.cyclic_subgroup_classes()]
    rams = [index * points - w
            for index, w in zip(indices, weighted_rows(G.double_coset_matrix()))]
    g1 = spec.base_genus - 1
    genera = [1 + index * g1 + ram // 2 for index, ram in zip(indices, rams)]
    g_total = genera[0]
    bad = [i for i, (ram, g_h) in enumerate(zip(rams, genera)) if ram % 2 or g_h < 0]
    if bad:
        if bad[0] == 0:
            diags.append(_fault_text(rhprym._genus_fault(None, rams[0], g_total)))
            g_total = None
        for i in bad:
            diags.append(_fault_text(rhprym._genus_fault(i, rams[i], genera[i])))
            genera[i] = None
    scale = 2 * spec.base_genus - 2 + points
    twice = [deg * scale - w for deg, w in zip(table.degrees, weighted_rows(fdm.rows))]
    twice[0] = 2 * spec.base_genus
    dims = None
    if not bad:
        y, d = exactla.solve(fdm, genera, (twice, 2))
        x = [Fraction(v, d) for v in y]
        if all(q.denominator == 1 for q in x):
            dims = tuple(map(int, x))
        else:
            diags.append(f"NonIntegerSolution: isotypic dimensions are not integers: {x}")
    halves = [Fraction(v, 2) for v in twice]
    closed = None
    if all(q.denominator == 1 for q in halves):
        closed = tuple(map(int, halves))
    else:
        odd = next(v for v in twice if v % 2)
        diags.append(f"NonIntegerDimension: closed-form dimension {odd}/2 is not an integer")
    if dims is not None and closed is not None and dims != closed:
        diags.append(f"MethodDisagreement: solver {dims} != closed form {closed}")
    final = dims if dims is not None else closed
    if final is not None:
        if min(final) < 0:
            diags.append(f"NegativeDimension: {final}")
        if final[0] != spec.base_genus:
            diags.append("TrivialDimension: trivial isotypic dimension "
                         f"{final[0]} != base genus {spec.base_genus}")
        if g_total is not None:
            weighted = sum(d * v for d, v in zip(table.degrees, final))
            if weighted != g_total:
                diags.append(
                    f"DimensionSum: sum(deg_j * dim V_j) = {weighted} != g_X = {g_total}")
    return DimensionReport(
        g_total=g_total,
        quotient_genera=tuple(genera),
        dims=dims,
        dims_closed_form=closed,
        method_agreement=dims is not None and closed is not None and dims == closed,
        diagnostics=tuple(diags),
    )


# S3, S4, W(B3) and W(F4)
_LANE_GROUPS = ("A2", "A3", "B3", "F4")

# small counts, counts and genera on both sides of the 64-bit lanes' bound
# (2^62 over |G|) and of 2^64, and 2^200 ones
_WIDE = st.one_of(
    st.integers(0, 9),
    st.integers(2**61, 2**64),
    st.integers(2**200 - 2, 2**200 + 2),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("label", _LANE_GROUPS)
def test_validate_matches_row_by_row_reference(label, data):
    """validate's packed vectors give the row-by-row report, field by field
    and diagnostic by diagnostic, with counts and genera on both sides of
    the lane bound."""
    G = weyl_group(label[0], int(label[1])).group
    n = len(G.cyclic_subgroup_classes())
    counts = data.draw(st.dictionaries(st.integers(1, n - 1), _WIDE, max_size=6))
    genus = data.draw(st.one_of(st.integers(0, 3), _WIDE))
    spec = CoverSpec(G, genus, RamificationSpec(counts))
    assert validate(spec) == _validate_by_rows(spec)


def test_validate_matches_row_by_row_reference_on_every_diagnostic():
    """Seeded specs over S3, S4, W(B3) and W(F4), odd counts and base genus
    0 among them, small and wide: every branch-data diagnostic comes up,
    at both widths, and each report equals the row-by-row one."""
    kinds = {False: set(), True: set()}
    for label in _LANE_GROUPS:
        G = weyl_group(label[0], int(label[1])).group
        n = len(G.cyclic_subgroup_classes())
        rng = random.Random(f"lanes:{label}")
        for t in range(240):
            wide = t % 2
            keys = rng.sample(range(1, n), rng.randint(0, min(5, n - 1)))
            counts = {k: rng.randint(0, 9) for k in keys}
            genus = rng.randint(0, 3)
            if wide:
                counts = {k: c + 2**rng.choice((61, 63, 64, 200)) for k, c in counts.items()}
                genus += 2**rng.choice((0, 62, 64, 200)) * rng.randint(0, 1)
            spec = CoverSpec(G, genus, RamificationSpec(counts))
            rep = validate(spec)
            assert rep == _validate_by_rows(spec), (label, genus, counts)
            kinds[bool(wide)].update(d.split(":", 1)[0] for d in rep.diagnostics)
    assert kinds[False] >= set(BRANCH_DATA_DIAGNOSTICS)
    assert kinds[True] >= set(BRANCH_DATA_DIAGNOSTICS) - {"NegativeGenus", "NegativeDimension"}


def test_warm_validate_packs_the_group_rows_once(monkeypatch):
    """50 warm W(F4) validate calls pack the group's rows once, at 64-bit
    lanes; a spec past the lane bound packs them once more, at its width,
    and later ones at that width reuse them."""
    G = weyl_group("F", 4).group
    specs = [spec for spec, _ in sample_cover_specs(G, 50, random.Random(11))]
    packs = []
    pack_lanes = rhprym._pack_lanes

    def counted(G, table, fdm, width):
        packs.append(width)
        return pack_lanes(G, table, fdm, width)

    monkeypatch.setattr(rhprym, "_pack_lanes", counted)
    monkeypatch.delitem(rhprym._packed, G, raising=False)
    for spec in specs:
        validate(spec)
    assert packs == [64]
    wide = [CoverSpec(G, 2**62 + t, RamificationSpec({1: 2})) for t in range(3)]
    for spec in wide:
        validate(spec)
    assert packs == [64, 128]


# counts and genera from 0 to 2^70, small ones often
_TO_2_70 = st.one_of(st.integers(0, 9), st.integers(0, 2**70))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("label", _LANE_GROUPS)
def test_one_packed_vector_reads_back_both_routes(label, data):
    """The one packed vector v of a spec, halved and read back once, holds
    genus_quotient row by row in its genus half and prym_dim_formula irrep
    by irrep in its closed-form half, or half of the doubled closed form
    less its odd bit where that lane is odd. One AND with the lane ones
    finds both halves' odd lanes: the odd genus lanes are exactly those
    validate reports OddRamificationDegree for, and an odd closed-form
    lane is what makes it report NonIntegerDimension."""
    G = weyl_group(label[0], int(label[1])).group
    n = len(G.cyclic_subgroup_classes())
    counts = data.draw(st.dictionaries(st.integers(1, n - 1), _TO_2_70, max_size=6))
    genus = data.draw(_TO_2_70)
    spec = CoverSpec(G, genus, RamificationSpec(counts))
    lanes, points = rhprym._lanes(spec)
    kernel = lanes.kernel
    v = rhprym._vector(spec, lanes, points)
    odd = v & kernel.ones
    values = kernel.read(lanes.base + (genus - 1) * lanes.weights + ((v - odd) >> 1))
    parity = kernel.read(odd)
    assert len(values) == len(parity) == 2 * n
    assert min(kernel.read(v)) >= 0
    for i in range(n):
        try:
            assert (values[i], parity[i]) == (genus_quotient(spec, i), 0)
        except OddRamificationDegree:
            assert parity[i] == 1
        except NegativeGenus as exc:
            assert parity[i] == 0
            assert str(exc) == f"quotient H{i + 1} genus {values[i]} is negative"
    for j in range(n):
        try:
            assert (values[n + j], parity[n + j]) == (prym_dim_formula(spec, j), 0)
        except NonIntegerDimension as exc:
            assert parity[n + j] == 1
            assert str(exc) == f"closed-form dimension {2 * values[n + j] + 1}/2 is not an integer"
    rep = validate(spec)
    assert all(g_h in (None, value) for g_h, value in zip(rep.quotient_genera, values))
    assert rep.dims_closed_form in (None, tuple(values[n:]))
    diags = rep.diagnostics
    odd_quotients = {i for i in range(n) if parity[i]}
    assert {i for i in range(n)
            if any(d.startswith(f"OddRamificationDegree: quotient H{i + 1} ") for d in diags)
            } == odd_quotients
    assert any(d.startswith("OddRamificationDegree: total ") for d in diags) == (0 in odd_quotients)
    assert any(d.startswith("NonIntegerDimension: ") for d in diags) == any(parity[n:])


@pytest.mark.parametrize("label", _LANE_GROUPS + ("B2",))
def test_both_halves_pack_at_one_width_either_side_of_the_lane_bound(label, monkeypatch):
    """A spec whose lane bound (2g + 2R + 4)|G| is just below 2^62 packs
    the 2n lanes of both halves at 64 bits; the next genus, whose bound is
    at 2^62 or just past it (exactly at it on W(B2), of order 8), packs
    them at 128. Both reports equal the row-by-row one."""
    G = weyl_group(label[0], int(label[1])).group
    n = len(G.cyclic_subgroup_classes())
    widths = []
    pack_lanes = rhprym._pack_lanes

    def counted(G, table, fdm, width):
        widths.append(width)
        return pack_lanes(G, table, fdm, width)

    monkeypatch.setattr(rhprym, "_pack_lanes", counted)
    monkeypatch.delitem(rhprym._packed, G, raising=False)
    # R = 2, so the bound is 2|G|(g + 4)
    below = (2**62 - 1) // (2 * G.order) - 4
    for genus in (below, below + 1):
        spec = CoverSpec(G, genus, RamificationSpec({1: 2}))
        bound = (2 * genus + 2 * 2 + 4) * G.order
        lanes, _ = rhprym._lanes(spec)
        assert len(lanes.kernel.read(lanes.weights)) == 2 * n
        assert validate(spec) == _validate_by_rows(spec)
        assert widths[-1] == (64 if bound < 2**62 else 128)
    assert widths == [64, 128]
    if label == "B2":
        assert bound == 2**62


# -- group certificate -------------------------------------------------------


def _certificate_inputs(G):
    """The fixed-dim record, double-coset rows, indices and degrees that
    ``_lanes`` certifies G by."""
    return (fixed_dim_matrix(G), G.double_coset_matrix(), rhprym._indices(G),
            character_table(G).degrees)


def _one_off(rows, k, j):
    out = [list(row) for row in rows]
    out[k][j] += 1
    return out


def _certificate_refusals(label):
    """Certify W(label) with each entry of A, of D, of the indices and of
    the degrees one off in turn: {(what was off, the certificate's
    text)}, "passed" in place of a text that does not come."""
    fdm, dc, idx, deg = _certificate_inputs(weyl_group(label[0], int(label[1])).group)
    n = len(fdm.rows)
    cases = []
    for k in range(n):
        for j in range(n):
            cases.append((f"A[{k}][{j}]", (fdm._replace(rows=_one_off(fdm.rows, k, j)),
                                          dc, idx, deg)))
            cases.append((f"D[{k}][{j}]", (fdm, _one_off(dc, k, j), idx, deg)))
        cases.append((f"idx[{k}]", (fdm, dc, _one_off([idx], 0, k)[0], deg)))
        cases.append((f"deg[{k}]", (fdm, dc, idx, _one_off([deg], 0, k)[0])))
    out = set()
    for what, args in cases:
        try:
            rhprym._certify(*args)
            out.add((what, "passed"))
        except AssertionError as exc:
            out.add((what, str(exc)))
    return out


def _expected_refusals(n):
    """An entry of A, of the indices or of the degrees breaks I1 in the
    row it sits in, which is checked first; D[k][j] breaks I2 in row k."""
    i1 = "group certificate failed: I1: A deg != idx"
    out = {(f"A[{k}][{j}]", i1) for k in range(n) for j in range(n)}
    out |= {(f"D[{k}][{j}]", f"group certificate failed: I2: A A[{k}] != D[{k}]")
            for k in range(n) for j in range(n)}
    return out | {(f"{v}[{k}]", i1) for v in ("idx", "deg") for k in range(n)}


# S3, whose A has an entry that leaves it singular one off, and W(B3)
_CERTIFIED = ("A2", "B3")


def test_certificate_holds_on_every_fleet_group(monkeypatch):
    """I1-I3 hold on every supported Weyl group, each checked by one solve
    whose candidate is its answer, with no elimination."""
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        args = _certificate_inputs(G)
        passes = _count_eliminations(monkeypatch)
        calls = _count_solves(monkeypatch)
        rhprym._certify(*args)
        n = len(args[0].rows)
        assert passes == [] and len(calls) == n + 2
        assert all(d == 1 for _, _, (_, d) in calls)
        monkeypatch.undo()


@pytest.mark.parametrize("label", _CERTIFIED)
def test_certificate_refuses_every_entry_one_off(label):
    """Each entry of A, D, the indices and the degrees one off is refused
    by the certificate, with the identity it breaks named."""
    n = len(weyl_group(label[0], int(label[1])).group.cyclic_subgroup_classes())
    assert _certificate_refusals(label) == _expected_refusals(n)


def test_certificate_refuses_a_trivial_column_that_keeps_i1_and_i2():
    """A column 0 of A other than 1, with D and the indices recomputed
    from that A so that I1 and I2 hold, fails I3."""
    fdm, _, _, deg = _certificate_inputs(weyl_group("B", 3).group)
    rows = [(2,) + row[1:] for row in fdm.rows]
    dc = [[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]
    idx = [sum(x * d for x, d in zip(row, deg)) for row in rows]
    with pytest.raises(AssertionError, match=r"^group certificate failed: I3: A e_0 != 1$"):
        rhprym._certify(exactla.nonsingular(rows), dc, idx, deg)


def test_certificate_refusals_survive_python_O():
    """The certificate raises explicitly, so every one-off entry is still
    refused when -O strips assert statements."""
    snippet = (
        "import sys, json\n"
        "from test_rhprym import _certificate_refusals\n"
        "print(sys.flags.optimize)\n"
        f"print(json.dumps([sorted(_certificate_refusals(label)) for label in {_CERTIFIED}]))\n"
    )
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(prymdim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((src, tests))},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    flag, refusals = proc.stdout.splitlines()
    assert flag == "1"
    for label, got in zip(_CERTIFIED, json.loads(refusals)):
        n = len(weyl_group(label[0], int(label[1])).group.cyclic_subgroup_classes())
        assert {tuple(pair) for pair in got} == _expected_refusals(n)


def test_first_validate_of_a_group_certifies_it_once(monkeypatch):
    """A fresh group's first validate runs the certificate, n + 2 solves
    over d = 1 and no elimination; its later specs run none. A group whose
    fixed-dim rows are one entry off is refused on its first spec, and
    nothing of it is kept."""
    G = PermGroup(weyl_group("B", 3).group.generators)
    n = len(G.cyclic_subgroup_classes())
    spec = CoverSpec(G, 2, RamificationSpec({1: 2, 3: 4}))
    fixed_dim_matrix(G)
    passes = _count_eliminations(monkeypatch)
    calls = _count_solves(monkeypatch)
    validate(spec)
    assert (passes, [d for _, _, (_, d) in calls]) == ([], [1] * (n + 2))
    validate(spec)
    assert len(calls) == n + 2
    monkeypatch.undo()

    H = PermGroup(weyl_group("B", 3).group.generators)
    fdm = fixed_dim_matrix(H)
    bad = fdm._replace(rows=_one_off(fdm.rows, n - 1, n - 1))
    monkeypatch.setattr(rhprym, "fixed_dim_matrix", lambda _: bad)
    for _ in range(2):
        with pytest.raises(AssertionError, match="^group certificate failed: I1: "):
            validate(CoverSpec(H, 2, RamificationSpec({1: 2})))
        assert H not in rhprym._packed
