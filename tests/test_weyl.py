import math

import pytest

from prymdim.chartable import character_table, fixed_dim_matrix
from prymdim.errors import OutOfRegime, UnsupportedType
from prymdim.permgroup import PermGroup
from prymdim.rhprym import isotypic_dims_solve, validate
from prymdim import weyl
from prymdim.weyl import (
    expected_base_dim,
    hitchin_preset,
    markman_preset,
    parse_weyl_label,
    toda_preset,
    weyl_group,
    weyl_order,
)

from conftest import SMALL_WEYL, WEYL_FLEET

# classical closed forms per type, an oracle for the metadata that
# weyl.py derives from the invariant degrees
_COXETER_ORDER = {"A": lambda n: n + 1, "B": lambda n: 2 * n, "C": lambda n: 2 * n,
                  "D": lambda n: 2 * n - 2, "G": lambda n: 6, "F": lambda n: 12}
_ORDER = {"A": lambda n: math.factorial(n + 1), "B": lambda n: 2**n * math.factorial(n),
          "C": lambda n: 2**n * math.factorial(n),
          "D": lambda n: 2 ** (n - 1) * math.factorial(n), "G": lambda n: 12,
          "F": lambda n: 1152}
_LIE_DIM = {"A": lambda n: n * (n + 2), "B": lambda n: n * (2 * n + 1),
            "C": lambda n: n * (2 * n + 1), "D": lambda n: n * (2 * n - 1),
            "G": lambda n: 14, "F": lambda n: 52}


def _reflections(W):
    """The members of W's reflection classes, in index order."""
    classes = W.group.conjugacy_classes()
    refl_classes = {W.long_reflection_class, W.short_reflection_class}
    return sorted(x for c in refl_classes for x in classes[c].members)


def _coxeter_order(W):
    """The element order of the generator of W's Coxeter cyclic class."""
    G = W.group
    return G.element_order(G.cyclic_subgroup_classes()[W.coxeter_class].generator)


def test_weyl_examples():
    a2 = weyl_group("A", 2)
    assert (a2.group.order, a2.rank, a2.lie_dim) == (6, 2, 8)
    assert len(_reflections(a2)) == 3
    assert _coxeter_order(a2) == 3

    g2 = weyl_group("G", 2)
    assert (g2.group.order, g2.rank, g2.lie_dim) == (12, 2, 14)
    assert len(_reflections(g2)) == 6
    assert _coxeter_order(g2) == 6

    a1 = weyl_group("A", 1)
    assert a1.group.order == 2
    assert a1.reflection_rep == 1  # the sign character row


def test_unsupported_types():
    for letter, rank in [("A", 8), ("B", 1), ("D", 3), ("E", 6), ("G", 3), ("F", 5)]:
        with pytest.raises(UnsupportedType):
            weyl_group(letter, rank)
    with pytest.raises(UnsupportedType):
        parse_weyl_label("X9")
    assert parse_weyl_label("g2") == ("G", 2)


def test_structural_invariants_small_fleet():
    for letter, rank in SMALL_WEYL:
        W = weyl_group(letter, rank)
        G = W.group
        assert G.is_rational_group()
        assert len(_reflections(W)) == (W.lie_dim - W.rank) // 2
        assert _coxeter_order(W) == _COXETER_ORDER[letter](rank)
        T = character_table(G)
        rows = fixed_dim_matrix(G).rows
        assert T.degrees[W.reflection_rep] == W.rank
        for cls in {W.long_reflection_class, W.short_reflection_class}:
            assert rows[cls][W.reflection_rep] == W.rank - 1
        assert rows[W.coxeter_class][W.reflection_rep] == 0
        assert sum(2 * d - 1 for d in W.invariant_degrees) == W.lie_dim


@pytest.mark.parametrize("rank", [True, False, 2.0, 3.0, "3", None])
def test_rank_must_be_an_int(rank):
    """A bool, a float or any other non-int rank is refused, not labelled
    ``ATrue`` or left to fail inside the construction."""
    with pytest.raises(UnsupportedType):
        weyl_group("A", rank)
    with pytest.raises(UnsupportedType):
        weyl_order("B", rank)


@pytest.mark.parametrize("letter", [None, 3, ["A"], b"A"])
def test_letter_must_be_a_str(letter):
    with pytest.raises(UnsupportedType):
        weyl_group(letter, 3)


def test_letter_case_shares_one_group():
    assert weyl_group("a", 3) is weyl_group("A", 3)
    assert weyl_group("f", 4) is weyl_group("F", 4)
    assert weyl_order("g", 2) == 12


@pytest.mark.parametrize("label, cycles", [
    (("A", 3), ["(0 1)", "(1 2)", "(2 3)"]),
    (("B", 3), ["(0 1)(3 4)", "(1 2)(4 5)", "(2 5)"]),
    (("C", 3), ["(0 1)(3 4)", "(1 2)(4 5)", "(2 5)"]),
    (("D", 4), ["(0 1)(4 5)", "(1 2)(5 6)", "(2 3)(6 7)", "(2 7)(3 6)"]),
])
def test_simple_reflections_in_the_readme_encoding(label, cycles):
    """Point i is e_(i+1) for A_n; for B_n, C_n and D_n point i is +e_(i+1)
    and point n+i is -e_(i+1)."""
    simple = weyl._simple_reflections(weyl._realization(*label))
    assert [s.cycle_str() for s in simple] == cycles
    assert all(s in weyl_group(*label).group for s in simple)


def _long_short_by_old_rules(W):
    """(long, short) reflection classes by rules that do not read the
    simple roots: moved points and the letter for B and C, the norm of
    the root a reflection negates for G and F."""
    G = W.group
    classes = G.conjugacy_classes()
    row = character_table(G).table[W.reflection_rep]
    a, b = [c for c, cl in enumerate(classes) if cl.element_order == 2 and row[c] == W.rank - 2]
    ga = G.elements[classes[a].representative].images
    gb = G.elements[classes[b].representative].images
    if W.letter in ("B", "C"):
        moved_a = sum(1 for i, v in enumerate(ga) if v != i)
        flips, swaps = (a, b) if moved_a == 2 else (b, a)
        # B: the sign flip is the short root e_i; C: it is the long root 2e_i
        return (swaps, flips) if W.letter == "B" else (flips, swaps)
    roots = weyl._realization(W.letter, W.rank).points

    def root_norm(images):
        r = next(r for i, r in enumerate(roots) if roots[images[i]] == tuple(-x for x in r))
        return sum(x * x for x in r)

    return (a, b) if root_norm(ga) > root_norm(gb) else (b, a)


@pytest.mark.parametrize(
    "label", [(x, r) for x in "BC" for r in range(2, 6)] + [("G", 2), ("F", 4)],
    ids=lambda v: f"{v[0]}{v[1]}",
)
def test_long_short_match_the_old_rules(label):
    W = weyl_group(*label)
    assert W.long_reflection_class != W.short_reflection_class
    assert (W.long_reflection_class, W.short_reflection_class) == _long_short_by_old_rules(W)


def test_long_short_labels():
    b2 = weyl_group("B", 2)
    c2 = weyl_group("C", 2)
    assert b2.long_reflection_class != b2.short_reflection_class
    # same abstract group, swapped root-length labels
    assert all(weyl_group("B", r).group is weyl_group("C", r).group for r in range(2, 6))
    assert b2.long_reflection_class == c2.short_reflection_class
    assert b2.short_reflection_class == c2.long_reflection_class
    a3 = weyl_group("A", 3)
    assert a3.long_reflection_class == a3.short_reflection_class


def test_toda_preset_examples():
    a1 = weyl_group("A", 1)
    spec = toda_preset(a1)
    assert spec.base_genus == 0
    assert sum(spec.ramification.counts.values()) == 4  # reflection == Coxeter here
    assert isotypic_dims_solve(spec)[a1.reflection_rep] == 1

    a3 = weyl_group("A", 3)
    spec = toda_preset(a3)
    assert spec.ramification.count(a3.long_reflection_class) == 6
    assert spec.ramification.count(a3.coxeter_class) == 2
    assert isotypic_dims_solve(spec)[a3.reflection_rep] == 3

    g2 = weyl_group("G", 2)
    spec = toda_preset(g2)
    assert spec.ramification.count(g2.long_reflection_class) == 4
    assert spec.ramification.count(g2.coxeter_class) == 2
    assert isotypic_dims_solve(spec)[g2.reflection_rep] == 2


def test_hitchin_preset_examples():
    a2 = weyl_group("A", 2)
    spec = hitchin_preset(a2, 2)
    assert sum(spec.ramification.counts.values()) == 12
    assert isotypic_dims_solve(spec)[a2.reflection_rep] == 8 == expected_base_dim(a2, 2)

    b2 = weyl_group("B", 2)
    spec = hitchin_preset(b2, 3)
    assert sum(spec.ramification.counts.values()) == 32
    assert isotypic_dims_solve(spec)[b2.reflection_rep] == 20

    a1 = weyl_group("A", 1)
    assert isotypic_dims_solve(hitchin_preset(a1, 2))[a1.reflection_rep] == 3

    with pytest.raises(OutOfRegime):
        hitchin_preset(a2, 1)


def test_markman_preset_examples():
    a2 = weyl_group("A", 2)
    spec = markman_preset(a2, 2, 2)
    assert isotypic_dims_solve(spec)[a2.reflection_rep] == 14 == expected_base_dim(a2, 2, 2)

    a1 = weyl_group("A", 1)
    assert isotypic_dims_solve(markman_preset(a1, 1, 2))[a1.reflection_rep] == 2

    # deg D = 0 reduces exactly to the untwisted preset
    assert markman_preset(a2, 2, 0).ramification.counts == hitchin_preset(a2, 2).ramification.counts


def test_expected_base_dim():
    assert expected_base_dim(weyl_group("A", 2), 2) == 8
    assert expected_base_dim(weyl_group("G", 2), 3) == 28
    assert expected_base_dim(weyl_group("A", 2), 2, 2) == 14
    with pytest.raises(OutOfRegime):
        expected_base_dim(weyl_group("A", 2), 1)
    # the closed form agrees with the Riemann-Roch count wherever it is in
    # regime, and the count refuses exactly what markman_preset refuses
    for letter, rank in SMALL_WEYL:
        W = weyl_group(letter, rank)
        for g in range(-1, 5):
            for d in range(-1, 5):
                if d < 0 or g < 0 or 2 * g - 2 + d <= 0:
                    with pytest.raises(OutOfRegime):
                        expected_base_dim(W, g, d)
                    with pytest.raises(OutOfRegime):
                        markman_preset(W, g, d)
                    continue
                want = W.lie_dim * (g - 1) + (W.lie_dim - W.rank) // 2 * d
                assert expected_base_dim(W, g, d) == want, (W.label, g, d)


def test_negative_twist_refused_by_both_counts():
    """deg D < 0 is out of regime for the preset and for the independent
    Riemann-Roch count alike."""
    W = weyl_group("A", 3)
    with pytest.raises(OutOfRegime):
        markman_preset(W, 3, -1)
    with pytest.raises(OutOfRegime):
        expected_base_dim(W, 3, -1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda W: hitchin_preset(W, 1), "base genus must be at least 2"),
        (lambda W: hitchin_preset(W, -3), "base genus must be at least 2"),
        (lambda W: markman_preset(W, -1, 5), "base genus must be nonnegative"),
        (lambda W: markman_preset(W, 2, -1), "deg D must be nonnegative"),
        (lambda W: markman_preset(W, 1, 0), "2g - 2 + deg D must be positive"),
        (lambda W: markman_preset(W, 0, 2), "2g - 2 + deg D must be positive"),
        (lambda W: expected_base_dim(W, 2, -1), "deg D must be nonnegative"),
        (lambda W: expected_base_dim(W, 1), "untwisted count needs base genus >= 2"),
        (lambda W: expected_base_dim(W, -1, 0), "untwisted count needs base genus >= 2"),
        (lambda W: expected_base_dim(W, 0, 2), "2g - 2 + deg D must be positive"),
        (lambda W: expected_base_dim(W, -1, 5), "2g - 2 + deg D must be positive"),
    ],
    ids=["hitchin_g1", "hitchin_g_negative", "markman_g_negative", "markman_degD_negative",
         "markman_g1_degD0", "markman_g0_degD2", "base_dim_degD_negative", "base_dim_g1",
         "base_dim_g_negative", "base_dim_g0_degD2", "base_dim_g_negative_degD5"],
)
def test_out_of_regime_messages(call, message):
    with pytest.raises(OutOfRegime) as exc:
        call(weyl_group("A", 3))
    assert str(exc.value) == message


@pytest.mark.parametrize("label", [("A", 3), ("D", 4), ("B", 3), ("G", 2)])
def test_unknown_reflection_split_refused(label):
    """An unknown split is refused on simply-laced types too, not only
    where there are two reflection classes to choose between."""
    W = weyl_group(*label)
    for make in (lambda: toda_preset(W, "bogus"),
                 lambda: hitchin_preset(W, 2, "bogus"),
                 lambda: markman_preset(W, 1, 2, "bogus")):
        with pytest.raises(ValueError, match="unknown reflection split 'bogus'"):
            make()


def test_reflection_split_invariance():
    """Moving reflection branch points between long and short classes does
    not change the Cartan-representation dimension. Other isotypic pieces
    may change, and a redistribution can even fail to come from a cover
    (odd per-class counts), so only the closed form is compared."""
    from prymdim.rhprym import prym_dim_formula

    for label in [("B", 2), ("C", 2), ("G", 2), ("B", 3)]:
        W = weyl_group(*label)
        assert validate(toda_preset(W)).diagnostics == ()  # default placement
        dims = set()
        for split in ("long", "short", "even"):
            spec = toda_preset(W, split)
            dims.add(prym_dim_formula(spec, W.reflection_rep))
        assert dims == {W.rank}


def test_weyl_orders_full_fleet_formulae():
    for letter, rank in WEYL_FLEET:
        W = weyl_group(letter, rank)
        G = W.group
        assert G.order == _ORDER[letter](rank), W.label
        assert W.lie_dim == _LIE_DIM[letter](rank), W.label
        assert _coxeter_order(W) == _COXETER_ORDER[letter](rank), W.label
        assert len(_reflections(W)) == (W.lie_dim - W.rank) // 2, W.label
        if letter in ("G", "F"):
            T = character_table(G)
            refl_classes = {W.long_reflection_class, W.short_reflection_class}
            assert T.degrees[W.reflection_rep] == rank
            assert all(T.table[W.reflection_rep][c] == rank - 2 for c in refl_classes)
            # a reflection is an involution with trace rank - 2 on the Cartan
            involutions = [x for x in range(G.order) if G.element_order(x) == 2
                           and T.table[W.reflection_rep][G.class_of(x)] == rank - 2]
            assert _reflections(W) == involutions


@pytest.mark.parametrize("letter, rank", WEYL_FLEET, ids=lambda v: str(v))
def test_short_generating_set_gives_the_simple_reflection_group(letter, rank):
    """Classes and metadata do not depend on the generators: the group
    weyl_group closes from {Coxeter element, s_(r-2)} (or from the simple
    reflections, where that pair does not generate) equals the group of
    the simple reflections class by class, and its metadata is the same."""
    W = weyl_group(letter, rank)
    real = weyl._realization(letter, rank)
    simple = weyl._simple_reflections(real)
    assert len(W.group.generators) == (4 if W.label in ("D4", "F4") else min(rank, 2))
    ref = PermGroup(simple)
    assert ref.order == W.group.order
    for a, b in zip(ref.conjugacy_classes(), W.group.conjugacy_classes(), strict=True):
        assert a == b, W.label
    assert weyl._weyl_data(letter, rank, ref, real)._replace(group=W.group) == W
