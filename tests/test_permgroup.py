import ast
import copy
import functools
import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from prymdim.errors import (
    CapExceeded,
    DegreeMismatch,
    NotASubgroup,
    NotRationalGroup,
    ParseError,
)
import prymdim.permgroup
from prymdim.permgroup import (
    CosetAction,
    Permutation,
    PermGroup,
    generates_group,
    group_from_generators,
    parse_generators,
    parse_permutation,
)
from prymdim.monodromy import BranchTuple, sample_tuple, verify_tuple
from prymdim import weyl
from prymdim.weyl import weyl_group

from conftest import SMALL_WEYL, WEYL_FLEET, closure_by_mul, left_row


# -- parsing / printing ---------------------------------------------------------


def test_cycle_parse_and_print():
    p = Permutation.from_cycles("(0 1)(2 3)")
    assert p.images == (1, 0, 3, 2)
    assert p.cycle_str() == "(0 1)(2 3)"
    assert Permutation.from_cycles("()", degree=4).images == (0, 1, 2, 3)
    assert Permutation.identity(3).cycle_str() == "()"
    assert parse_permutation("1 0 2").images == (1, 0, 2)
    assert parse_permutation("[2, 0, 1]").images == (2, 0, 1)


def test_parse_rejects_garbage():
    for bad in ["(0 1", "0 1)", "(0 0 1)", "(x)", "(0 1)(1 2)", "1 1 0"]:
        with pytest.raises(ParseError):
            parse_permutation(bad)


@given(st.permutations(list(range(6))))
def test_cycle_roundtrip(images):
    p = Permutation.from_images(images)
    assert Permutation.from_cycles(p.cycle_str(), degree=6) == p


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_compose_inverse(a, b):
    """``pa * pb`` applies pb first, and composing with the inverse images
    in either order gives the identity."""
    pa, pb = Permutation.from_images(a), Permutation.from_images(b)
    ab = pa * pb
    assert ab.images == tuple(a[b[i]] for i in range(5))
    inverse = [0] * 5
    for i, v in enumerate(ab.images):
        inverse[v] = i
    inv = Permutation.from_images(inverse)
    assert ab * inv == inv * ab == Permutation.identity(5)


# -- enumeration ----------------------------------------------------------------


def test_group_examples(trivial, z2, s3):
    assert z2.order == 2
    assert s3.order == 6
    assert trivial.order == 1
    # independent oracle: S3 is all permutations of 3 points
    everything = {p.images for p in s3.elements}
    assert everything == set(itertools.permutations(range(3)))


def test_group_identity_is_index_zero(s4):
    assert s4.identity_index == 0
    assert s4.elements[0] == Permutation.identity(4)


def test_cap_exceeded():
    """S4 (order 24) is refused below cap 24 and builds at cap 24: the cap
    bounds the order, so an order equal to the cap passes."""
    gens = parse_generators(["(0 1)", "(0 1 2 3)"])
    for cap in (10, 23):
        with pytest.raises(CapExceeded):
            group_from_generators(gens, cap=cap)
    assert group_from_generators(gens, cap=24).order == 24


def test_cap_boundary_on_four_generators():
    """W(F4) closed from its four simple reflections, several cosets per
    generator, is refused at cap 1151 and built at cap 1152 = |W(F4)|."""
    gens = weyl_group("F", 4).group.generators
    assert len(gens) == 4
    with pytest.raises(CapExceeded):
        group_from_generators(gens, cap=1151)
    assert group_from_generators(gens, cap=1152).order == 1152


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        group_from_generators(
            [Permutation.from_cycles("(0 1)"), Permutation.from_cycles("(0 1 2)")]
        )


@given(st.lists(st.permutations(list(range(4))), min_size=1, max_size=2))
def test_closure_is_a_group(gens):
    G = group_from_generators([Permutation.from_images(g) for g in gens])
    idx = set(range(G.order))
    assert all(G.inv(x) in idx for x in idx)
    for x in list(idx)[:6]:
        for y in list(idx)[:6]:
            assert G.mul(x, y) in idx
    assert G.order % 1 == 0 and 24 % G.order == 0  # Lagrange inside S4


# -- conjugacy classes -----------------------------------------------------------


def brute_force_classes(G):
    """Independent oracle: conjugate by every group element, through
    ``mul`` rather than ``conjugate``, which the classification pass uses."""
    seen = set()
    classes = []
    for x in range(G.order):
        if x in seen:
            continue
        cls = {G.mul(G.mul(g, x), G.inv(g)) for g in range(G.order)}
        seen |= cls
        classes.append(frozenset(cls))
    return set(classes)


def test_conjugacy_classes_examples(trivial, z2, s3):
    assert [c.size for c in s3.conjugacy_classes()] == [1, 3, 2]
    assert [c.size for c in z2.conjugacy_classes()] == [1, 1]
    assert len(trivial.conjugacy_classes()) == 1


def test_conjugacy_classes_match_brute_force(s3, s4):
    for G in (s3, s4):
        got = {frozenset(c.members) for c in G.conjugacy_classes()}
        assert got == brute_force_classes(G)


def test_class_equation_on_fleet():
    for letter, rank in SMALL_WEYL:
        G = weyl_group(letter, rank).group
        classes = G.conjugacy_classes()
        assert sum(c.size for c in classes) == G.order
        assert all(G.order % c.size == 0 for c in classes)
        assert classes[0].representative == G.identity_index


# -- rationality and cyclic classes ----------------------------------------------


def test_rationality_examples(trivial, s3, z3, z5):
    assert s3.is_rational_group()
    assert trivial.is_rational_group()
    assert not z3.is_rational_group()
    assert not z5.is_rational_group()
    # the power-map witness for Z/3: x^2 is not conjugate to x
    x = next(i for i in range(z3.order) if i != z3.identity_index)
    assert z3.class_of(z3.mul(x, x)) != z3.class_of(x)


def cyclic_subgroups_up_to_conjugacy(G):
    """Independent oracle: enumerate every cyclic subgroup, then merge
    conjugates; returns the sorted subgroup orders."""
    subgroups = {frozenset(G.subgroup_closure([x])) for x in range(G.order)}
    merged = set()
    for H in subgroups:
        orbit = frozenset(
            frozenset(G.mul(G.mul(g, h), G.inv(g)) for h in H) for g in range(G.order)
        )
        merged.add(orbit)
    return sorted(len(next(iter(orbit))) for orbit in merged)


def test_cyclic_classes_examples(z2, s3, z3):
    assert [k.subgroup_order for k in s3.cyclic_subgroup_classes()] == [1, 2, 3]
    assert [k.subgroup_order for k in z2.cyclic_subgroup_classes()] == [1, 2]
    g2 = weyl_group("G", 2).group
    assert [k.subgroup_order for k in g2.cyclic_subgroup_classes()] == [1, 2, 2, 2, 3, 6]
    assert cyclic_subgroups_up_to_conjugacy(g2) == [1, 2, 2, 2, 3, 6]
    assert cyclic_subgroups_up_to_conjugacy(s3) == [1, 2, 3]
    with pytest.raises(NotRationalGroup):
        z3.cyclic_subgroup_classes()


def test_cyclic_classes_are_power_sets(s4):
    for K in s4.cyclic_subgroup_classes():
        powers, y = set(), s4.identity_index
        for _ in range(K.subgroup_order):
            powers.add(y)
            y = s4.mul(y, K.generator)
        assert powers == set(K.subgroup_elements)
        assert len(K.subgroup_elements) == K.subgroup_order
        assert sum(K.member_class_profile.values()) == K.subgroup_order


def test_lemma_one_bijection_on_fleet():
    """Conjugates of the generator generate exactly the conjugates of H_k,
    and cyclic classes biject with element classes."""
    for letter, rank in [("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        G = weyl_group(letter, rank).group
        classes = G.conjugacy_classes()
        cyclic = G.cyclic_subgroup_classes()
        assert len(cyclic) == len(classes)
        for K in cyclic:
            members = classes[G.class_of(K.generator)].members
            generated = {
                frozenset(G.subgroup_closure([y])) for y in members
            }
            conjugates = {
                frozenset(G.mul(G.mul(g, h), G.inv(g)) for h in K.subgroup_elements)
                for g in range(G.order)
            }
            assert generated == conjugates


def powers_by_mul_walk(G, x):
    """Independent oracle: x^0, x^1, ... up to the identity, by G.mul."""
    powers, y = [G.identity_index], x
    while y != G.identity_index:
        powers.append(y)
        y = G.mul(y, x)
    return powers


def test_element_order_matches_mul_walk(s4):
    z12 = group_from_generators(parse_generators(["(0 1 2 3)(4 5 6)"]))
    for G in (s4, weyl_group("B", 3).group, weyl_group("G", 2).group, z12):
        for x in range(G.order):
            assert G.element_order(x) == len(powers_by_mul_walk(G, x))


def test_cyclic_classes_follow_conjugacy_classes():
    """Cyclic class k is generated by the representative of conjugacy
    class k, and its profile counts the classes of that element's powers."""
    for letter, rank in SMALL_WEYL:
        G = weyl_group(letter, rank).group
        classes = G.conjugacy_classes()
        cyclic = G.cyclic_subgroup_classes()
        for x in range(G.order):
            assert G.cyclic_class_of_element(x) == G.class_of(x)
        for cl, K in zip(classes, cyclic, strict=True):
            assert K.generator == cl.representative
            walk = powers_by_mul_walk(G, K.generator)
            assert K.member_class_profile == Counter(G.class_of(y) for y in walk)


def test_non_rational_dihedral_group():
    d10 = group_from_generators(parse_generators(["(0 1 2 3 4)", "(1 4)(2 3)"]))
    assert [c.size for c in d10.conjugacy_classes()] == [1, 5, 2, 2]
    assert not d10.is_rational_group()
    with pytest.raises(NotRationalGroup):
        d10.cyclic_subgroup_classes()
    with pytest.raises(NotRationalGroup):
        d10.cyclic_class_of_element(1)


def test_classification_cost_is_linear_on_cyclic_group(monkeypatch):
    """Z_2520 has 2520 classes of orders up to 2520. Element orders come
    from cycle types and the power walk stops at the first class that fails
    the rationality test, so the classification makes O(|G|) products
    rather than one per power of every representative (2,371,089)."""
    G = group_from_generators(parse_generators(
        ["(0 1 2 3 4 5 6 7)(8 9 10 11 12 13 14 15 16)(17 18 19 20 21)(22 23 24 25 26 27 28)"]
    ))
    assert G.order == 2520
    calls = 0
    mul = G.mul

    def counted(i, j):
        nonlocal calls
        calls += 1
        return mul(i, j)

    monkeypatch.setattr(G, "mul", counted)
    assert len(G.conjugacy_classes()) == G.order
    assert not G.is_rational_group()
    assert calls <= 3 * G.order
    assert [c.element_order for c in G.conjugacy_classes()[:4]] == [1, 2, 3, 3]


def test_is_subgroup_exact_on_large_sets():
    """The stabiliser of point 7 in S8 with {(0 1 2), (0 2 1)} swapped for
    {(0 1 7), (0 7 1)} has the identity, inverses and an order dividing
    8!, but is not closed."""
    s8 = group_from_generators(parse_generators(["(0 1)", "(0 1 2 3 4 5 6 7)"]))
    stab = frozenset(x for x in range(s8.order) if s8.elements[x].images[7] == 7)
    idx = lambda text: s8.index_of(Permutation.from_cycles(text, degree=8))
    fake = (stab - {idx("(0 1 2)"), idx("(0 2 1)")}) | {idx("(0 1 7)"), idx("(0 7 1)")}
    assert len(stab) == len(fake) == 5040
    assert not s8.is_subgroup(fake)
    with pytest.raises(NotASubgroup):
        s8.double_coset_count(fake, fake)
    assert s8.is_subgroup(stab)
    assert s8.double_coset_count(stab, stab) == 2


# -- coset actions and double cosets ----------------------------------------------


def coset_permutation(G, act, x):
    """The permutation of coset indices induced by x, one representative
    at a time with G.mul."""
    return tuple(act.coset_of[G.mul(x, r)] for r in act.cosets)


def cycle_count_of(perm):
    """Number of cycles of a permutation given as a tuple of images."""
    seen: set[int] = set()
    n = 0
    for c in range(len(perm)):
        if c not in seen:
            n += 1
            while c not in seen:
                seen.add(c)
                c = perm[c]
    return n


def test_coset_action_examples(s3):
    triv = s3.coset_action([s3.identity_index])
    assert len(triv.cosets) == 6  # regular action
    three_cycle = next(
        i for i in range(s3.order) if s3.element_order(i) == 3
    )
    act = s3.coset_action(s3.subgroup_closure([three_cycle]))
    assert len(act.cosets) == 2
    assert coset_permutation(s3, act, three_cycle) == (0, 1)  # 3-cycles act trivially
    assert act.cycle_count(left_row(s3, three_cycle)) == 2
    transposition = next(i for i in range(s3.order) if s3.element_order(i) == 2)
    assert coset_permutation(s3, act, transposition) == (1, 0)  # transpositions swap
    assert act.cycle_count(left_row(s3, transposition)) == 1
    whole = s3.coset_action(range(s3.order))
    assert len(whole.cosets) == 1


def test_coset_action_rejects_non_subgroup(s3):
    transpositions = [i for i in range(s3.order) if s3.element_order(i) == 2]
    with pytest.raises(NotASubgroup):
        s3.coset_action([s3.identity_index] + transpositions[:2])


def test_coset_action_homomorphism(s4):
    f4 = weyl_group("F", 4).group
    cases = [
        (s4, s4.subgroup_closure([s4.generator_indices[0]])),
        (f4, f4.cyclic_subgroup_classes()[-1].subgroup_elements),  # order 12
    ]
    for G, H in cases:
        act = G.coset_action(H)
        step = max(1, G.order // 20)
        xs = list(range(0, G.order, step)) + G.generator_indices
        ys = list(range(1, G.order, step + 2)) + G.generator_indices
        for x in xs:
            for y in ys:
                via_mul = coset_permutation(G, act, G.mul(x, y))
                ax, ay = coset_permutation(G, act, x), coset_permutation(G, act, y)
                assert via_mul == tuple(ax[c] for c in ay)


def cyclic_by_mul(G, x):
    """The cyclic subgroup <x>, from the powers of x by G.mul."""
    powers = {G.identity_index}
    y = x
    while y not in powers:
        powers.add(y)
        y = G.mul(y, x)
    return frozenset(powers)


def test_cycle_count_row_matches_mul(s4):
    """The orbit count read off an element's left-multiplication row equals
    the cycle count of the coset permutation built with G.mul, for every
    element and every cyclic subgroup of S4 and W(B3)."""
    for G in (s4, weyl_group("B", 3).group):
        rows = [left_row(G, x) for x in range(G.order)]
        for H in {cyclic_by_mul(G, x) for x in range(G.order)}:
            act = G.coset_action(H)
            for x in range(G.order):
                assert act.cycle_count(rows[x]) == cycle_count_of(coset_permutation(G, act, x))


# -- left-multiplication rows from the Schreier tree ------------------------------


def _row_by_mul(G, x):
    return [G.mul(x, y) for y in range(G.order)]


def test_left_row_matches_mul(s4):
    """``left_row(x)`` is the G.mul row of x for every x of S4 and W(B3),
    and for 20 seeded x of every fleet group of order <= 5000."""
    for G in (s4, weyl_group("B", 3).group):
        for x in range(G.order):
            assert G.left_row(x) == _row_by_mul(G, x), x
    rng = random.Random(5)
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        if G.order > 5000:
            continue
        for x in rng.sample(range(G.order), min(20, G.order)):
            assert G.left_row(x) == _row_by_mul(G, x), (letter, rank, x)


def _right_row_by_mul(G, h):
    return tuple(G.mul(y, h) for y in range(G.order))


def test_right_row_matches_mul(s4):
    """``right_row(h)``, read through the inverse row and the left row of
    h^-1, is the G.mul row y -> y*h for every h of S4 and W(B3), and for
    20 seeded h of every fleet group of order <= 5000; the inverse row is
    ``inv`` element by element."""
    for G in (s4, weyl_group("B", 3).group):
        assert G._inverse_row() == [G.inv(x) for x in range(G.order)]
        for h in range(G.order):
            assert G.right_row(h) == _right_row_by_mul(G, h), h
    rng = random.Random(15)
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        if G.order > 5000:
            continue
        for h in rng.sample(range(G.order), min(20, G.order)):
            assert G.right_row(h) == _right_row_by_mul(G, h), (letter, rank, h)


def test_right_row_composes_nothing_once_the_tree_is_built(monkeypatch):
    """With the tree built, the inverse row and every right row are list
    lookups only: a kernel whose compose raises does not stop
    ``right_row`` on fresh copies of S4 and W(D4)."""

    def refuse(b, a):
        raise AssertionError("right_row composed")

    for H in (group_from_generators(parse_generators(["(0 1)", "(0 1 2 3)"])),
              PermGroup(weyl_group("D", 4).group.generators)):
        expected = [_right_row_by_mul(H, h) for h in range(H.order)]
        H.left_row(0)  # builds the tree
        assert H._right_rows == {} and H._inverses is None
        monkeypatch.setattr(H, "_kernel", H._kernel._replace(compose=refuse))
        assert [H.right_row(h) for h in range(H.order)] == expected


def test_left_row_on_tuple_store_trivial_group_and_redundant_generators(trivial):
    """The tree rows match G.mul in the tuple store (the 257-cycle), on the
    order-1 group, whose tree has no edge, and on S4 generated by a set
    that repeats a generator and contains the identity."""
    cycle = group_from_generators(parse_generators([f"({' '.join(map(str, range(257)))})"]))
    assert type(cycle._images[0]) is tuple
    for x in random.Random(6).sample(range(cycle.order), 20):
        assert cycle.left_row(x) == _row_by_mul(cycle, x), x
    assert trivial.order == 1
    assert trivial.left_row(0) == [0] and trivial._tree == []
    s4 = group_from_generators(parse_generators(["(0 1)", "(0 1 2 3)", "(0 1)", "()"]))
    assert s4.order == 24
    gens = s4.generator_indices
    assert gens[0] == gens[2] and gens[3] == s4.identity_index
    for x in range(s4.order):
        assert s4.left_row(x) == _row_by_mul(s4, x), x
    assert len(s4._tree) == s4.order - 1


def test_schreier_tree_is_built_lazily_and_once(monkeypatch):
    """A fresh W(F4) has no tree; the first row builds it with one
    composition per element for each distinct generator, and later rows
    and a verified tuple reuse that same tree."""
    G = PermGroup(weyl_group("F", 4).group.generators)
    assert G._tree is None
    calls = 0
    compose = G._kernel.compose

    def counted(b, a):
        nonlocal calls
        calls += 1
        return compose(b, a)

    monkeypatch.setattr(G, "_kernel", G._kernel._replace(compose=counted))
    G.left_row(7)
    tree = G._tree
    assert len(tree) == G.order - 1
    assert calls == len(set(G.generator_indices)) * G.order
    G.left_row(8)
    assert verify_tuple(sample_tuple(G, 1, 2, random.Random(4))).ok
    assert G._tree is tree


def test_left_row_composes_nothing_once_the_tree_is_built(monkeypatch, s4):
    """With the tree built, every row is list lookups only: a kernel whose
    compose raises does not stop ``left_row``."""

    def refuse(b, a):
        raise AssertionError("left_row composed")

    for H in (s4, weyl_group("D", 4).group):
        expected = [_row_by_mul(H, x) for x in range(H.order)]
        H.left_row(0)  # builds the tree, if no earlier call has
        monkeypatch.setattr(H, "_kernel", H._kernel._replace(compose=refuse))
        assert [H.left_row(x) for x in range(H.order)] == expected


def _truncated_tree_s4():
    """A copy of a fresh S4 whose tree is grown from its first generator,
    (0 1), alone, so it reaches 2 of the 24 elements."""
    G = group_from_generators(parse_generators(["(0 1)", "(0 1 2 3)"]))
    H = copy.copy(G)
    H.generator_indices = G.generator_indices[:1]
    return H


def test_schreier_tree_that_misses_an_element_raises():
    with pytest.raises(AssertionError, match="reaches 2 of 24 elements"):
        _truncated_tree_s4().left_row(0)


def test_schreier_tree_check_survives_python_O():
    """The tree's reach check is an explicit raise, so it holds under -O."""
    snippet = textwrap.dedent(
        """
        import sys
        from test_permgroup import _truncated_tree_s4

        print(sys.flags.optimize)
        try:
            _truncated_tree_s4().left_row(0)
        except AssertionError as exc:
            print(exc)
        """
    )
    paths = [str(Path(prymdim.permgroup.__file__).resolve().parents[1]),
             str(Path(__file__).parent)]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\nthe Schreier tree reaches 2 of 24 elements\n"


def test_subgroup_closure_matches_mul_bfs(s4):
    """The early-stopping closure equals a plain G.mul closure for every
    pair of S4 elements, generating pairs and others alike, in the byte
    store and in the tuple store (S4 re-embedded at degree 300)."""
    s4_tuples = group_from_generators(parse_generators(["(0 1)", "(0 1 2 3)"], degree=300))
    assert type(s4_tuples._images[0]) is tuple
    for G in (s4, s4_tuples):
        generating = 0
        for x in range(G.order):
            for y in range(G.order):
                span = G.subgroup_closure([x, y])
                assert span == closure_by_mul(G, [x, y]), (x, y)
                generating += len(span) == G.order
        assert 0 < generating < G.order ** 2


@functools.lru_cache(maxsize=None)
def _seed_sets():
    """(group, seed sets, their G.mul closures) for every distinct fleet
    group of order <= 5000 and for S4 re-embedded at degree 300 (the tuple
    store), 200 seeded sets of 1-4 seeds each, and for W(A7), 20 sets. The
    last entries are the {Coxeter element, s_(r-2)} pairs of W(F4) and
    W(D4), which span subgroups of index 2 and 4, so ``weyl_group`` closes
    both from their simple reflections instead."""
    s4_tuples = group_from_generators(parse_generators(["(0 1)", "(0 1 2 3)"], degree=300))
    groups = {id(G): G for G in (weyl_group(*t).group for t in WEYL_FLEET)
              if G.order <= 5000 or G.order == 40320}
    rng = random.Random(0)
    out = []
    for G in (*groups.values(), s4_tuples):
        n = 20 if G.order > 5000 else 200
        sets = [[rng.randrange(G.order) for _ in range(rng.randint(1, 4))] for _ in range(n)]
        out.append((G, sets, [closure_by_mul(G, seeds) for seeds in sets]))
    for letter, rank in (("F", 4), ("D", 4)):
        G = weyl_group(letter, rank).group
        simple = weyl._simple_reflections(weyl._realization(letter, rank))
        pair = [G.index_of(weyl._coxeter_element(simple)), G.index_of(simple[-2])]
        out.append((G, [pair], [closure_by_mul(G, pair)]))
    return out


def test_subgroup_closure_matches_mul_bfs_on_seed_sets(trivial, z2, s4):
    """The coset-by-coset closure, which returns G once its span passes
    |G|/2, equals a plain G.mul closure on the seed sets of
    ``_seed_sets`` (every fleet group of order <= 5000, W(A7) and S4 in
    the tuple store), on empty, identity and repeated seeds, on the
    trivial group and Z2 (limits 1 and 2), and at index 2: two 3-cycles of
    S4 close to A4, not S4. ``generates`` answers true exactly when that
    plain closure is G, on every one of those seed sets, the Coxeter pairs
    of W(F4) (index 2) and W(D4) (index 4) included, and so does
    ``generates_group`` on the seeds' permutations and |G|."""

    def generates_by_mul(G, seeds):
        return len(closure_by_mul(G, seeds)) == G.order

    for G, sets, closures in _seed_sets():
        generating = 0
        for seeds, closure in zip(sets, closures):
            span = G.subgroup_closure(seeds)
            assert span == closure, seeds
            assert G.generates(seeds) == (len(closure) == G.order), seeds
            perms = [G.elements[s] for s in seeds]
            assert generates_group(perms, G.order) == G.generates(seeds), seeds
            generating += len(span) == G.order
        if len(sets) == 1:  # a Coxeter pair
            assert generating == 0
            assert G.order // len(closures[0]) == {1152: 2, 192: 4}[G.order]
            continue
        assert 0 < generating < len(sets)
        x, y = sets[0][0], sets[1][0]
        assert G.subgroup_closure([]) == G.subgroup_closure([0]) == {0}
        assert G.subgroup_closure([0, x, x]) == closure_by_mul(G, [x])
        assert G.subgroup_closure([y, x, y, 0, x]) == closure_by_mul(G, [x, y])
        for seeds in ([], [0], [0, x, x], [y, x, y, 0, x]):
            assert G.generates(seeds) == generates_by_mul(G, seeds), seeds
    for G in (trivial, z2):
        assert G.subgroup_closure([]) == G.subgroup_closure([0]) == {0}
        assert G.subgroup_closure(range(G.order)) == frozenset(range(G.order))
        for seeds in ([], [0], range(G.order)):
            assert G.generates(seeds) == generates_by_mul(G, seeds), seeds
    assert z2.subgroup_closure([1, 1]) == {0, 1}
    assert z2.generates([1, 1]) and trivial.generates([]) and not z2.generates([0])
    three_cycles = [s4.index_of(Permutation.from_cycles(c, degree=4))
                    for c in ("(0 1 2)", "(1 2 3)")]
    a4 = s4.subgroup_closure(three_cycles)
    assert not s4.generates(three_cycles)
    even = {x for x in range(s4.order)
            if sum(len(c) - 1 for c in s4.elements[x].cycles()) % 2 == 0}
    assert len(a4) == s4.order // 2 and a4 == even


def test_generates_group_refuses_mixed_degrees():
    """``generates_group`` keys every permutation in one store, so
    permutations of two degrees are refused before any chain is grown."""
    with pytest.raises(DegreeMismatch):
        generates_group([Permutation.from_cycles("(0 1)"),
                         Permutation.from_cycles("(0 1 2)")], 6)
    assert generates_group([Permutation.from_cycles("(0 1)", degree=3),
                            Permutation.from_cycles("(0 1 2)")], 6)
    assert not generates_group([Permutation.from_cycles("(0 1 2)")], 6)


def test_chain_run_to_completion_gives_the_span_order():
    """Given twice |G| as the order of a group holding the seeds, the
    Schreier-Sims chain never passes half of it, so it runs to completion,
    and the product of its basic orbit lengths is the order of the span,
    exactly, on every seed set of ``_seed_sets``."""
    for G, sets, closures in _seed_sets():
        images = G._images
        for seeds, closure in zip(sets, closures):
            order = prymdim.permgroup._chain_order(
                images[0], [images[s] for s in seeds], G._kernel, 2 * G.order)
            assert order == len(closure), seeds


@pytest.mark.parametrize("label", [("F", 4), ("D", 5)])
def test_generation_test_costs_under_one_composition_per_element(monkeypatch, label):
    """``subgroup_closure`` of a generating set of 4 seeds costs fewer
    than |G| compositions: each new generator's span is a union of cosets
    of the previous one, and the closure stops at the coset that would
    take it past |G|/2. A breadth-first closure makes about 4 per
    element."""
    G = weyl_group(*label).group
    calls = 0
    compose = G._kernel.compose

    def counted(b, a):
        nonlocal calls
        calls += 1
        return compose(b, a)

    monkeypatch.setattr(G, "_kernel", G._kernel._replace(compose=counted))
    rng = random.Random(1)
    checked = 0
    while checked < 10:
        seeds = rng.sample(range(G.order), 4)
        calls = 0
        if len(G.subgroup_closure(seeds)) == G.order:
            assert calls < G.order, (seeds, calls)
            checked += 1


@pytest.mark.parametrize("label", [("A", 7), ("D", 5)])
def test_generation_test_costs_under_a_thousand_compositions(monkeypatch, label):
    """``generates`` on a generating set of 4 seeds costs fewer than 1,000
    compositions through the group's kernel: the Schreier-Sims chain stops
    once its orbit product passes |G|/2, and a level holds at most the
    degree's points. A closure pays at least |G|/2 (20,160 on W(A7))."""
    G = weyl_group(*label).group
    calls = 0
    compose = G._kernel.compose

    def counted(b, a):
        nonlocal calls
        calls += 1
        return compose(b, a)

    rng = random.Random(1)
    sets = [rng.sample(range(G.order), 4) for _ in range(12)]
    sets = [seeds for seeds in sets if len(G.subgroup_closure(seeds)) == G.order]
    assert len(sets) >= 8
    monkeypatch.setattr(G, "_kernel", G._kernel._replace(compose=counted))
    for seeds in sets:
        calls = 0
        assert G.generates(seeds)
        assert 0 < calls < 1000, (seeds, calls)


def _forged_order_z5():
    """Z5 from the 5-cycle, with its order forged down to 2: the first
    level of a chain of the 5-cycle (index 1) has an orbit of 5 points."""
    G = group_from_generators(parse_generators(["(0 1 2 3 4)"]))
    G.order = 2
    return G


def test_orbit_product_past_the_group_order_raises():
    with pytest.raises(AssertionError, match="orbit product 5 is past the group order 2"):
        _forged_order_z5().generates([1])


def test_orbit_product_check_survives_python_O():
    """The chain's order check is an explicit raise, so it holds under -O."""
    snippet = textwrap.dedent(
        """
        import sys
        from test_permgroup import _forged_order_z5

        print(sys.flags.optimize)
        try:
            _forged_order_z5().generates([1])
        except AssertionError as exc:
            print(exc)
        """
    )
    paths = [str(Path(prymdim.permgroup.__file__).resolve().parents[1]),
             str(Path(__file__).parent)]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\norbit product 5 is past the group order 2\n"


def test_subgroup_test_stops_at_one_more_than_the_set(monkeypatch):
    """{1, (0 1), (0 1 2 3 4 5 6 7)} in S8 contains the identity and has
    an order dividing 8!, so only a closure can reject it: closed with
    limit |set| + 1, the span gives up at 4 elements, well under 100
    compositions. Closing generator by generator to the span of all
    three, S8, took 26,797."""
    s8 = group_from_generators(parse_generators(["(0 1)", "(0 1 2 3 4 5 6 7)"]))
    elems = frozenset(s8.index_of(Permutation.from_cycles(c, degree=8))
                      for c in ("()", "(0 1)", "(0 1 2 3 4 5 6 7)"))
    calls = 0
    compose = s8._kernel.compose

    def counted(b, a):
        nonlocal calls
        calls += 1
        return compose(b, a)

    monkeypatch.setattr(s8, "_kernel", s8._kernel._replace(compose=counted))
    assert len(elems) == 3
    assert not s8.is_subgroup(elems)
    assert 0 < calls < 100


def test_is_subgroup_matches_mul_closure(s4):
    """``is_subgroup`` agrees with "the G.mul closure of the set is the set"
    on 30 seeded subgroups each of S4 and W(B3), in the byte store and
    re-embedded at degree 300 (the tuple store), and on each of them with
    one element swapped for one outside it."""
    b3 = weyl_group("B", 3).group
    groups = [s4, b3]
    groups += [group_from_generators([g.extend(300) for g in G.generators]) for G in groups]
    assert [type(G._images[0]) for G in groups] == [bytes, bytes, tuple, tuple]
    rng = random.Random(3)
    for G in groups:
        verdicts = Counter()
        for _ in range(30):
            H = G.subgroup_closure(rng.sample(range(G.order), rng.randint(1, 2)))
            cases = [H]
            if len(H) < G.order:
                out = rng.choice([x for x in range(G.order) if x not in H])
                cases.append(H - {rng.choice(sorted(H))} | {out})
            for elems in cases:
                expected = closure_by_mul(G, elems) == elems
                assert G.is_subgroup(elems) == expected, sorted(elems)
                verdicts[expected] += 1
        assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("bad", [-1, 6])
def test_element_index_out_of_range(s3, bad):
    """An element index outside 0..|G|-1 raises IndexError, a negative one
    too: it does not count from the end of the element table (on S3, -1
    used to close to {0, 5}, the span of the last element, and
    ``mul(-1, 0)`` and ``inv(-1)`` gave 5, while 6 failed in element
    arithmetic with a bare list or tuple IndexError)."""
    K = s3.cyclic_subgroup_classes()[1]
    calls = [
        lambda: s3.subgroup_closure([bad]),
        lambda: s3.subgroup_closure([1, bad]),
        lambda: s3.generates([bad]),
        lambda: s3.generates([1, 5, bad]),
        lambda: s3.is_subgroup(frozenset({0, bad})),
        lambda: s3.is_subgroup(frozenset({0, 1, 2, 3, 4, bad})),
        lambda: s3.coset_action([0, bad]),
        lambda: s3.double_coset_count(K, [0, bad]),
        lambda: s3.double_coset_count(bad, K),
        lambda: s3.double_coset_count(K, bad),
        lambda: s3.mul(bad, 0),
        lambda: s3.mul(0, bad),
        lambda: s3.inv(bad),
        lambda: s3.left_row(bad),
        lambda: s3.class_of(bad),
        lambda: s3.element_order(bad),
    ]
    for call in calls:
        with pytest.raises(IndexError, match=f"element index {bad} is not in 0..5"):
            call()


def test_double_coset_examples(s3):
    cyclic = s3.cyclic_subgroup_classes()
    H2, H3 = cyclic[1], cyclic[2]
    assert s3.double_coset_count(H2, H2) == 2
    assert s3.double_coset_count(cyclic[0], H3) == s3.order // H3.subgroup_order
    assert s3.double_coset_count(H3, range(s3.order)) == 1


def test_double_coset_argument_kinds(s4):
    """An element index stands for the cyclic subgroup it generates; the
    whole group as a set gives one double coset; a set that is not a
    subgroup is rejected."""
    cyclic = s4.cyclic_subgroup_classes()
    rows = [left_row(s4, x) for x in range(s4.order)]
    for x in range(s4.order):
        on_x = s4.coset_action(s4.subgroup_closure([x]))
        for K in cyclic:
            on_k = s4.coset_action(K.subgroup_elements)
            assert s4.double_coset_count(x, K) == on_k.cycle_count(rows[x])
            assert s4.double_coset_count(K, x) == on_x.cycle_count(rows[K.generator])
        assert s4.double_coset_count(x, range(s4.order)) == 1
    involutions = [i for i in range(s4.order) if s4.element_order(i) == 2]
    with pytest.raises(NotASubgroup):  # two distinct involutions never close up
        s4.double_coset_count(cyclic[1], [s4.identity_index] + involutions[:2])


def double_cosets_by_partition(G, a_elems, b_elems):
    """Independent oracle: partition G into AxB sets and count them."""
    assigned: set[int] = set()
    count = 0
    for x in range(G.order):  # x is the least unassigned element
        if x in assigned:
            continue
        dc = {G.mul(a, G.mul(x, b)) for a in a_elems for b in b_elems}
        assert not dc & assigned
        assigned |= dc
        count += 1
    return count


def test_double_coset_symmetry():
    for letter, rank in SMALL_WEYL:
        G = weyl_group(letter, rank).group
        cyclic = G.cyclic_subgroup_classes()
        for A in cyclic:
            for B in cyclic:
                assert G.double_coset_count(A, B) == G.double_coset_count(B, A)


def test_double_coset_routes_fleet_under_5000():
    """Burnside's class count, the orbits of <a> on the left cosets G/B,
    the orbits of B = <b> on the right cosets <a>\\G and the direct
    partition of G into AxB sets agree, for every pair of cyclic classes
    in every fleet group of order <= 5000; and the cycles of b's right
    row label the left cosets G/B exactly as ``coset_action`` does."""
    from conftest import WEYL_FLEET

    seen: set[int] = set()
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        if G.order > 5000 or id(G) in seen:  # B and C share the group instance
            continue
        seen.add(id(G))
        cyclic = G.cyclic_subgroup_classes()
        rows = [left_row(G, A.generator) for A in cyclic]
        # the right cosets of <a> as the oracle labels them, from a's row
        right = [BranchTuple(G, 0, (), (A.generator,)).right_cosets(A.generator)
                 for A in cyclic]
        for B in cyclic:
            act = G.coset_action(B.subgroup_elements)
            b_row = G.right_row(B.generator)
            assert CosetAction.of_cycles(b_row) == act, (letter, rank, B.generator)
            for A, row, a_right in zip(cyclic, rows, right):
                burnside_route = G.double_coset_count(A, B)
                orbit_route = act.cycle_count(row)
                dual_route = a_right.cycle_count(b_row)
                partition_route = double_cosets_by_partition(
                    G, A.subgroup_elements, B.subgroup_elements
                )
                assert (burnside_route == orbit_route == dual_route
                        == partition_route), (letter, rank)


def test_trivial_double_coset_is_index():
    for letter, rank in [("A", 3), ("B", 2), ("G", 2)]:
        G = weyl_group(letter, rank).group
        cyclic = G.cyclic_subgroup_classes()
        for H in cyclic:
            assert G.double_coset_count(cyclic[0], H) == G.order // H.subgroup_order


# -- the element store ------------------------------------------------------------


_BOUNDARY_GROUPS = {
    "S4": ["(0 1)", "(0 1 2 3)"],
    "B3": ["(0 1)(3 4)", "(1 2)(4 5)", "(2 5)"],
    "Q8": ["(0 1 2 3)(4 5 6 7)", "(0 4 2 6)(1 7 3 5)"],
}


@pytest.mark.parametrize("label", sorted(_BOUNDARY_GROUPS))
def test_byte_and_tuple_stores_agree(label):
    """The same group at its own degree (bytes) and re-embedded at degree
    300 (tuples) has the same class data and table, and its arithmetic
    agrees under the element-index map."""
    from prymdim.chartable import character_table

    small = group_from_generators(parse_generators(_BOUNDARY_GROUPS[label]))
    large = group_from_generators(parse_generators(_BOUNDARY_GROUPS[label], degree=300))
    assert small.degree <= 256 < large.degree == 300
    assert small.order == large.order
    to_large = [large.index_of(p.extend(300)) for p in small.elements]
    assert sorted(to_large) == list(range(large.order))
    for x in range(small.order):
        assert to_large[small.inv(x)] == large.inv(to_large[x])
        assert small.element_order(x) == large.element_order(to_large[x])
        for y in range(small.order):
            assert to_large[small.mul(x, y)] == large.mul(to_large[x], to_large[y])
    for a, b in zip(small.conjugacy_classes(), large.conjugacy_classes(), strict=True):
        assert (a.size, a.element_order) == (b.size, b.element_order)
        assert sorted(to_large[x] for x in a.members) == list(b.members)
    assert [K.member_class_profile for K in small.cyclic_subgroup_classes()] == [
        K.member_class_profile for K in large.cyclic_subgroup_classes()
    ]
    assert character_table(small) == character_table(large)


@pytest.mark.parametrize("degree", [256, 257])
def test_cycle_at_the_byte_boundary(degree):
    """A full cycle of degree 256 (the largest byte store, with no padding)
    and of degree 257 (the smallest tuple store) builds and classifies."""
    G = group_from_generators(parse_generators([f"({' '.join(map(str, range(degree)))})"]))
    assert type(G._images[0]) is (bytes if degree == 256 else tuple)
    assert G.order == len(G.conjugacy_classes()) == degree
    gen = G.generator_indices[0]
    assert G.element_order(gen) == degree
    assert G.mul(gen, G.inv(gen)) == G.identity_index
    y = G.identity_index
    for _ in range(degree - 1):
        y = G.mul(y, gen)
    assert y == G.inv(gen)
    assert G.is_rational_group() is False


def test_elements_view(s4):
    """G.elements is a read-only view: len, indexing and iteration build
    Permutations whose images are tuples of ints, in element-index order."""
    elems = s4.elements
    assert len(elems) == s4.order == 24
    assert all(type(p.images) is tuple and type(p.images[0]) is int for p in elems)
    assert [s4.index_of(p) for p in elems] == list(range(24))
    assert elems[5] == list(elems)[5] and elems[-1] == list(elems)[23]
    assert elems[0] in elems and Permutation.identity(4) in s4


def test_permutation_of_another_degree_is_not_an_element(s4):
    for p in (Permutation.identity(3), Permutation.identity(5),
              Permutation.from_cycles("(0 299)", degree=300)):
        assert p not in s4
        with pytest.raises(KeyError):
            s4.index_of(p)
    wide = group_from_generators(parse_generators(["(0 1)"], degree=300))
    assert Permutation.from_cycles("(0 1)") not in wide
    with pytest.raises(KeyError):
        wide.index_of(Permutation.from_cycles("(0 1)"))


def test_permgroup_imports_only_errors_from_the_package():
    """permgroup sits at the bottom of the package: of its own modules it
    imports ``.errors`` and nothing else, so no per-group result computed
    above it (a table, an inverse) can be stored on a group."""
    tree = ast.parse(Path(prymdim.permgroup.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = "." * node.level + (node.module or "")
            if node.level or name.startswith("prymdim"):
                package.add(name)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.startswith("prymdim"))
    assert package == {".errors"}
