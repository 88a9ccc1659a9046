import random

import pytest

from prymdim import exactla
from prymdim.errors import (
    NegativeGenus,
    NotRationalGroup,
    OddRamificationDegree,
)
from prymdim.rhprym import (
    CoverSpec,
    RamificationSpec,
    genus_quotient,
    genus_total,
    isotypic_dims_solve,
    prym_dim_formula,
    ramification_degree_total,
    sample_cover_specs,
    validate,
)
from prymdim.weyl import weyl_group

from conftest import SMALL_WEYL


def s3_spec(s3, g=0, r2=4, r3=1):
    counts = {}
    if r2:
        counts[1] = r2
    if r3:
        counts[2] = r3
    return CoverSpec(s3, g, RamificationSpec(counts))


def test_ramification_degree_examples(z2, s3):
    assert ramification_degree_total(CoverSpec(z2, 0, RamificationSpec({1: 4}))) == 4
    assert ramification_degree_total(s3_spec(s3)) == 16
    assert ramification_degree_total(CoverSpec(s3, 2, RamificationSpec({}))) == 0


def test_genus_total_examples(z2, s3, trivial):
    assert genus_total(CoverSpec(z2, 1, RamificationSpec({1: 4}))) == 3
    assert genus_total(s3_spec(s3)) == 3
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
    rep = validate(CoverSpec(z2, 1, RamificationSpec({1: 3})))
    assert any("OddRamificationDegree" in d for d in rep.diagnostics)


def test_validate_non_integer_diagnostics():
    """Both integrality diagnostics keep their exact text: the solve prints
    the reduced fractions, the closed form prints the half-integer."""
    G = weyl_group("B", 3).group
    rep = validate(CoverSpec(G, 1, RamificationSpec({7: 3})))
    assert rep.dims is None and rep.dims_closed_form is None
    assert rep.diagnostics == (
        "NonIntegerSolution: isotypic dimensions are not integers: "
        "[Fraction(1, 1), Fraction(3, 2), Fraction(3, 2), Fraction(0, 1), "
        "Fraction(3, 2), Fraction(3, 2), Fraction(9, 2), Fraction(3, 1), "
        "Fraction(3, 1), Fraction(9, 2)]",
        "NonIntegerDimension: closed-form dimension 3/2 is not an integer",
    )


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
        for spec in sample_cover_specs(G, 25, random.Random(99)):
            solved = isotypic_dims_solve(spec)
            closed = tuple(prym_dim_formula(spec, j) for j in range(len(solved)))
            assert solved == closed


def test_dimension_sum_and_trivial_dim():
    for letter, rank in [("A", 2), ("B", 2), ("G", 2)]:
        W = weyl_group(letter, rank)
        G = W.group
        from prymdim.chartable import character_table

        T = character_table(G)
        for spec in sample_cover_specs(G, 15, random.Random(5)):
            dims = isotypic_dims_solve(spec)
            assert dims[0] == spec.base_genus
            assert sum(d * v for d, v in zip(T.degrees, dims)) == genus_total(spec)


def test_monotonic_in_branch_points(s4):
    """Adding two branch points to any class never shrinks any dimension."""
    for spec in sample_cover_specs(s4, 10, random.Random(3)):
        base = isotypic_dims_solve(spec)
        for k in range(1, len(s4.cyclic_subgroup_classes())):
            counts = dict(spec.ramification.counts)
            counts[k] = counts.get(k, 0) + 2
            bumped = isotypic_dims_solve(
                CoverSpec(s4, spec.base_genus, RamificationSpec(counts))
            )
            assert all(b >= a for a, b in zip(base, bumped))


def test_warm_validate_makes_no_elimination(monkeypatch):
    """The fixed-dim matrix is inverted once per group: once it is built,
    each spec's solve is a checked matrix-vector product, not a Bareiss pass."""
    G = weyl_group("F", 4).group
    specs = sample_cover_specs(G, 51, random.Random(9))
    validate(specs[0])
    calls = {"_forward": 0, "solve": 0}

    def counted(name):
        inner = getattr(exactla, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(exactla, name, wrapper)

    counted("_forward")
    counted("solve")
    for spec in specs[1:]:
        validate(spec)
    assert calls == {"_forward": 0, "solve": 50}
