import random

import pytest

from prymdim import exactla, rhprym
from prymdim.chartable import fixed_dim_matrix
from prymdim.errors import (
    NegativeGenus,
    NonIntegerDimension,
    NonIntegerSolution,
    NotRationalGroup,
    OddRamificationDegree,
)
from prymdim.rhprym import (
    BRANCH_DATA_DIAGNOSTICS,
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
        for spec, _ in sample_cover_specs(G, 25, random.Random(99)):
            solved = isotypic_dims_solve(spec)
            closed = tuple(prym_dim_formula(spec, j) for j in range(len(solved)))
            assert solved == closed


def test_dimension_sum_and_trivial_dim():
    for letter, rank in [("A", 2), ("B", 2), ("G", 2)]:
        W = weyl_group(letter, rank)
        G = W.group
        from prymdim.chartable import character_table

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


class _ReadCounted(tuple):
    """A reduced adjugate that counts how often its rows are read, that
    is, how many adjugate products solve takes."""

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def _count_adjugate_products(monkeypatch, G):
    fdm = fixed_dim_matrix(G)
    reduced = _ReadCounted(fdm.reduced)
    reduced.reads = 0
    counted = fdm._replace(reduced=reduced)
    monkeypatch.setattr(rhprym, "fixed_dim_matrix", lambda group: counted)
    return reduced


def test_warm_validate_makes_no_elimination(monkeypatch):
    """The fixed-dim matrix is inverted once per group: once it is built, a
    spec whose closed form x passes solve's check A x == genera needs
    neither a Bareiss pass nor the adjugate product."""
    G = weyl_group("F", 4).group
    specs = [spec for spec, _ in sample_cover_specs(G, 51, random.Random(9))]
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
    reduced = _count_adjugate_products(monkeypatch, G)
    for spec in specs[1:]:
        validate(spec)
    assert calls == {"_forward": 0, "solve": 50}
    assert reduced.reads == 0


def test_validate_solves_when_the_closed_form_fails_the_check(monkeypatch):
    """A closed form that fails A x == genera sends validate's solve to the
    adjugate product once, whose dimensions it reports against the closed
    form's."""
    G = weyl_group("F", 4).group
    spec = sample_cover_specs(G, 1, random.Random(9))[0][0]
    solved = isotypic_dims_solve(spec)
    closed_form = rhprym._closed_form_doubled

    def off_by_one(spec, table, fdm, j):
        return closed_form(spec, table, fdm, j) + 2 * (j == 3)

    monkeypatch.setattr(rhprym, "_closed_form_doubled", off_by_one)
    solve = exactla.solve
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(exactla, "solve", counted)
    reduced = _count_adjugate_products(monkeypatch, G)
    rep = validate(spec)
    closed = tuple(v + (j == 3) for j, v in enumerate(solved))
    assert len(calls) == 1 and list(calls[0][2]) == list(closed)
    assert reduced.reads == 1
    assert (rep.dims, rep.dims_closed_form) == (solved, closed)
    assert not rep.method_agreement
    assert rep.diagnostics == (f"MethodDisagreement: solver {solved} != closed form {closed}",)


def test_warm_validate_looks_up_each_table_once(monkeypatch):
    """validate reads the character table and the fixed-dim inverse once
    per spec and takes the closed form for every irrep from them."""
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
    assert calls == {"character_table": 10, "fixed_dim_matrix": 10}


def test_warm_validate_reads_cyclic_classes_and_double_cosets_once(monkeypatch):
    """validate looks up the cyclic classes and the double-coset matrix
    once per spec for all n + 1 genera, not once per quotient."""
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
    assert calls == {"cyclic_subgroup_classes": 10, "double_coset_matrix": 10}
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
