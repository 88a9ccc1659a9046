"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``).
Character tables and double-coset tables are cached per group, so later
criteria reuse what earlier ones built.
"""

import random
import time

import pytest

from prymdim.chartable import character_table, fixed_dim_matrix
from prymdim.cli import _triangular_change_of_basis_ok
from prymdim.errors import SamplingExhausted
from prymdim.exactla import determinant, nonsingular, solve
from prymdim.monodromy import sample_tuple, verify_tuple
from prymdim.permgroup import group_from_generators, parse_generators
from prymdim.rhprym import (
    CoverSpec,
    RamificationSpec,
    isotypic_dims_solve,
    prym_dim_formula,
    sample_cover_specs,
    validate,
)
from prymdim.weyl import expected_base_dim, hitchin_preset, markman_preset, toda_preset, weyl_group

from conftest import WEYL_FLEET, left_row


def _report(n, name, started):
    print(f"ACCEPTANCE {n} ({name}): PASS [{time.monotonic() - started:.1f}s]")


def test_criterion_1_classical_prym():
    started = time.monotonic()
    z2 = weyl_group("A", 1).group
    spec = CoverSpec(z2, 1, RamificationSpec({1: 4}))
    assert isotypic_dims_solve(spec) == (1, 2)
    for g in range(6):
        for deg_r in range(0, 12, 2):
            spec = CoverSpec(z2, g, RamificationSpec({1: deg_r} if deg_r else {}))
            report = validate(spec)
            if g == 0 and deg_r == 0:
                assert any("NegativeGenus" in d for d in report.diagnostics)
                continue
            assert report.diagnostics == ()
            assert report.dims is not None
            assert report.dims[1] == g - 1 + deg_r // 2
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"classical sweep took {elapsed:.2f}s"
    _report(1, "classical Prym", started)


def test_criterion_2_toda_full_fleet():
    # Only the Cartan-representation dimension is claimed; with all
    # reflection points in the long class, other isotypic pieces may
    # come out negative for some C types (no such cover exists) and are
    # reported as-is by validation.
    started = time.monotonic()
    for letter, rank in WEYL_FLEET:
        W = weyl_group(letter, rank)
        spec = toda_preset(W)
        assert prym_dim_formula(spec, W.reflection_rep) == W.rank, W.label
        assert isotypic_dims_solve(spec)[W.reflection_rep] == W.rank, W.label
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"toda sweep took {elapsed:.1f}s"
    _report(2, "toda = rank", started)


def test_criterion_3_hitchin_full_fleet():
    started = time.monotonic()
    for letter, rank in WEYL_FLEET:
        W = weyl_group(letter, rank)
        for g in (2, 3):
            spec = hitchin_preset(W, g)
            report = validate(spec)
            assert report.diagnostics == (), (W.label, g)
            assert report.dims is not None
            want = W.lie_dim * (g - 1)
            assert report.dims[W.reflection_rep] == want == expected_base_dim(W, g)
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"hitchin sweep took {elapsed:.1f}s"
    _report(3, "hitchin base/fiber match", started)


def test_criterion_4_markman_full_fleet():
    started = time.monotonic()
    for letter, rank in WEYL_FLEET:
        W = weyl_group(letter, rank)
        for g in (1, 2):
            for deg_d in (1, 2, 4):
                spec = markman_preset(W, g, deg_d)
                report = validate(spec)
                assert report.diagnostics == (), (W.label, g, deg_d)
                assert report.dims is not None
                want = W.lie_dim * (g - 1) + (W.lie_dim - W.rank) // 2 * deg_d
                assert report.dims[W.reflection_rep] == want
                assert want == expected_base_dim(W, g, deg_d)
    _report(4, "markman twisted match", started)


def test_criterion_5_two_route_equivalence():
    started = time.monotonic()
    for idx, (letter, rank) in enumerate(WEYL_FLEET):
        G = weyl_group(letter, rank).group
        rng = random.Random(1000 + idx)
        for spec, _ in sample_cover_specs(G, 200, rng):
            solved = isotypic_dims_solve(spec)
            closed = tuple(prym_dim_formula(spec, j) for j in range(len(solved)))
            assert solved == closed, (letter, rank, spec.base_genus,
                                      dict(spec.ramification.counts))
    _report(5, "closed form == exact solve, 200 specs/group", started)


def test_criterion_6_double_coset_identity():
    started = time.monotonic()
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        fdm = fixed_dim_matrix(G)
        cyclic = G.cyclic_subgroup_classes()
        n = len(fdm.rows)
        rows = [left_row(G, K.generator) for K in cyclic]
        for i in range(n):
            act = G.coset_action(cyclic[i].subgroup_elements)
            for k in range(n):
                char_route = sum(fdm.rows[i][j] * fdm.rows[k][j] for j in range(n))
                burnside_route = G.double_coset_count(cyclic[k], cyclic[i])
                orbit_route = act.cycle_count(rows[k])
                assert char_route == burnside_route == orbit_route, (letter, rank, i, k)
    _report(6, "character sums == class count == orbits on cosets", started)


def test_criterion_7_orthogonality_and_triangularity():
    started = time.monotonic()
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        T = character_table(G)
        n = T.n
        sizes = [cl.size for cl in G.conjugacy_classes()]
        for j in range(n):
            for j2 in range(n):
                s = sum(sizes[i] * T.table[j][i] * T.table[j2][i] for i in range(n))
                assert s == (G.order if j == j2 else 0)
        for i in range(n):
            for i2 in range(n):
                s = sum(T.table[j][i] * T.table[j][i2] for j in range(n))
                assert s == (G.order // sizes[i] if i == i2 else 0)

        fdm = fixed_dim_matrix(G)
        assert determinant(fdm.rows) != 0
        assert fdm.det == determinant(fdm.rows)
        assert _triangularity_failure(G, T, fdm.rows) is None, (letter, rank)
    _report(7, "orthogonality + invertible triangular structure", started)


def _triangularity_failure(G, T, rows):
    """Reference check, by exact solves in the table: the first (row, class)
    at which the rows, written in the basis of character-table rows, are
    not lower triangular with nonzero diagonal, or None."""
    cyclic = G.cyclic_subgroup_classes()
    pos_of_class = {G.class_of(K.generator): k for k, K in enumerate(cyclic)}
    table = nonsingular(T.table)
    for i, row in enumerate(rows):
        # numerators over one nonzero d: the zero pattern of the coefficients
        coeffs, _ = solve(table, row)
        for c, coef in enumerate(coeffs):
            k = pos_of_class[c]
            if (k > i and coef != 0) or (k == i and coef == 0):
                return i, c
    return None


def test_verify_triangularity_matches_inverse_reference():
    """verify reads triangularity off column orthogonality; it agrees with
    the exact-solve reference on every Weyl group, S6, D8 and Z2^3, and
    both reject the fixed-dim matrix with its first two rows swapped."""
    groups = [weyl_group(letter, rank).group for letter, rank in WEYL_FLEET] + [
        group_from_generators(parse_generators(gens))
        for gens in (["(0 1)", "(0 1 2 3 4 5)"], ["(0 1 2 3)", "(0 2)"],
                     ["(0 1)", "(2 3)", "(4 5)"])
    ]
    for G in groups:
        T, fdm = character_table(G), fixed_dim_matrix(G)
        assert _triangular_change_of_basis_ok(T, fdm) is True
        assert _triangularity_failure(G, T, fdm.rows) is None
        rows = list(fdm.rows)
        rows[0], rows[1] = rows[1], rows[0]
        swapped = fdm._replace(rows=tuple(rows))
        assert _triangular_change_of_basis_ok(T, swapped) is False
        assert _triangularity_failure(G, T, swapped.rows) is not None


def test_criterion_8_monodromy_oracle():
    started = time.monotonic()
    groups = {
        "S3": group_from_generators(parse_generators(["(0 1)", "(0 1 2)"])),
        "S4": group_from_generators(parse_generators(["(0 1)", "(0 1 2 3)"])),
        "W(B2)": weyl_group("B", 2).group,
        "W(G2)": weyl_group("G", 2).group,
    }
    total = 0
    for gi, (name, G) in enumerate(groups.items()):
        rng = random.Random(4000 + gi)
        verified = 0
        while verified < 125:
            g = rng.choice((0, 1))
            b = rng.randint(3 if g == 0 else 1, 6)
            try:
                t = sample_tuple(G, g, b, rng)
            except SamplingExhausted:
                continue
            v = verify_tuple(t)
            assert v.ok, (name, t, v)
            verified += 1
        total += verified
    assert total >= 500
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"oracle sweep took {elapsed:.1f}s"
    _report(8, f"monodromy oracle, {total} tuples", started)


def test_criterion_9_rationality():
    started = time.monotonic()
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        assert G.is_rational_group(), (letter, rank)
        assert len(G.cyclic_subgroup_classes()) == len(G.conjugacy_classes())
    z3 = group_from_generators(parse_generators(["(0 1 2)"]))
    z5 = group_from_generators(parse_generators(["(0 1 2 3 4)"]))
    assert not z3.is_rational_group()
    assert not z5.is_rational_group()
    _report(9, "rationality gate", started)
