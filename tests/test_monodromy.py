import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import prymdim
from prymdim import monodromy
from prymdim.errors import (
    NegativeGenus,
    NotASubgroup,
    OddRamificationDegree,
    SamplingExhausted,
)
from prymdim.monodromy import (
    SAMPLE_ATTEMPTS,
    BranchTuple,
    oracle_genus,
    sample_tuple,
    spec_from_tuple,
    verify_tuple,
)
from prymdim.permgroup import CosetAction, PermGroup
from prymdim.rhprym import genus_total, validate
from prymdim.weyl import weyl_group

from conftest import WEYL_FLEET, closure_by_mul, left_row


def test_sample_z2_forced(z2):
    t = sample_tuple(z2, 0, 4, random.Random(1))
    x = next(i for i in range(z2.order) if i != z2.identity_index)
    assert t.branch_elements == (x, x, x, x)
    assert t.is_valid()


def test_sample_exhaustion(z2, trivial, s3):
    for G, b in ((z2, 1), (trivial, 2), (s3, 1)):
        with pytest.raises(SamplingExhausted, match=f"in {SAMPLE_ATTEMPTS} attempts"):
            sample_tuple(G, 0, b, random.Random(0))


def test_trivial_group_empty_tuple(trivial):
    t = sample_tuple(trivial, 0, 0, random.Random(0))
    assert t.branch_elements == () and t.handles == ()
    assert t.is_valid()
    assert oracle_genus(t, [0]) == 0


def test_oracle_genus_z2(z2):
    t = sample_tuple(z2, 0, 4, random.Random(2))
    assert oracle_genus(t, [z2.identity_index]) == 1  # double cover of P^1, 4 pts
    assert oracle_genus(t, range(z2.order)) == 0  # X/G = Y


def test_oracle_genus_rejects_non_surfaces(z2, s3):
    # explicit raises, so these hold under python -O as well
    transposition = next(i for i in range(s3.order) if s3.element_order(i) == 2)
    odd = BranchTuple(s3, 0, (), (transposition,))
    with pytest.raises(OddRamificationDegree):
        oracle_genus(odd, [s3.identity_index])  # ram = 6 - 3 cycles = 3
    with pytest.raises(NegativeGenus):
        oracle_genus(BranchTuple(z2, 0, (), ()), [z2.identity_index])  # 1 + 2(0 - 1)


def explicit_s3_tuple(s3):
    """Search for a genus-0 tuple with four transposition-type and one
    3-cycle-type branch elements; product closure checked by enumeration."""
    transpositions = [i for i in range(s3.order) if s3.element_order(i) == 2]
    three_cycles = [i for i in range(s3.order) if s3.element_order(i) == 3]
    for combo in itertools.product(transpositions, repeat=4):
        for c in three_cycles:
            elems = combo + (c,)
            acc = s3.identity_index
            for g in elems:
                acc = s3.mul(acc, g)
            if acc != s3.identity_index:
                continue
            t = BranchTuple(s3, 0, (), elems)
            if t.is_valid():
                return t
    raise AssertionError("no tuple found")


def test_oracle_matches_formula_on_explicit_tuple(s3):
    t = explicit_s3_tuple(s3)
    spec = spec_from_tuple(t)
    assert spec.ramification.counts == {1: 4, 2: 1}
    assert genus_total(spec) == 3
    assert oracle_genus(t, [s3.identity_index]) == 3
    assert verify_tuple(t).ok


def test_spec_from_tuple_tallies(s4):
    t = sample_tuple(s4, 1, 3, random.Random(11))
    spec = spec_from_tuple(t)
    assert spec.base_genus == 1
    assert sum(spec.ramification.counts.values()) == 3


def test_unbranched_tuple(z2, s3):
    # genus-1 unbranched covers force an abelian image, so use Z/2 there
    t = sample_tuple(z2, 1, 0, random.Random(4))
    assert t.branch_elements == ()
    spec = spec_from_tuple(t)
    assert spec.ramification.counts == {}
    assert verify_tuple(t).ok
    # nonabelian groups need genus >= 2 for an unbranched cover
    t = sample_tuple(s3, 2, 0, random.Random(4))
    assert spec_from_tuple(t).ramification.counts == {}
    assert verify_tuple(t).ok
    with pytest.raises(SamplingExhausted):
        sample_tuple(s3, 1, 0, random.Random(4))


@pytest.mark.parametrize("genus", [1.9, "1", True, -1])
def test_sample_tuple_rejects_bad_base_genus(s4, genus):
    with pytest.raises(ValueError, match="base genus"):
        sample_tuple(s4, genus, 3, random.Random(8))


@pytest.mark.parametrize("count", [-1, 2.0, True])
def test_sample_tuple_rejects_bad_branch_count(s4, count):
    """A negative count used to force one branch element anyway."""
    with pytest.raises(ValueError, match="branch count"):
        sample_tuple(s4, 1, count, random.Random(8))


def test_verify_tuple_builds_each_row_once(monkeypatch, z2, s4):
    """verify_tuple builds one full left-multiplication row per distinct
    branch element and reuses it for every quotient and every later call.
    The count is patched on the class, so the shared fixture groups keep
    no instance attribute once it is undone."""
    left_row = PermGroup.left_row
    for G, t in ((z2, sample_tuple(z2, 0, 4, random.Random(1))),
                 (s4, sample_tuple(s4, 1, 3, random.Random(8)))):
        full: list[int] = []

        def counting(self, x, G=G, full=full):
            if self is G:
                full.append(x)
            return left_row(self, x)

        monkeypatch.setattr(PermGroup, "left_row", counting)
        assert verify_tuple(t).ok
        assert verify_tuple(t).ok
        assert sorted(full) == sorted(set(t.branch_elements))
        monkeypatch.undo()
        assert "left_row" not in vars(G)
    assert PermGroup.left_row is left_row


def test_verify_tuple_asks_oracle_genus_once_per_class(monkeypatch, s4):
    """One oracle_genus call per cyclic class, each with that class's
    subgroup and generator."""
    calls = []
    genus = monodromy.oracle_genus

    def counting(t, subgroup, generator=None):
        calls.append((tuple(subgroup), generator))
        return genus(t, subgroup, generator)

    monkeypatch.setattr(monodromy, "oracle_genus", counting)
    G = weyl_group("F", 4).group
    for H in (s4, G):
        calls.clear()
        assert verify_tuple(sample_tuple(H, 1, 2, random.Random(3))).ok
        assert calls == [(K.subgroup_elements, K.generator)
                         for K in H.cyclic_subgroup_classes()]


def _walked(G, t):
    """The pairs (branch element g, generator h of a cyclic class K) whose
    count oracle_genus walks, gcd(ord(g), |K|) > 1, and of those the ones
    it walks on the right cosets of g, 1 < |K| < ord(g)."""
    walked = {(g, K.generator, K.subgroup_order) for g, d in t.orders.items()
              for K in G.cyclic_subgroup_classes() if math.gcd(d, K.subgroup_order) > 1}
    return walked, {(g, h) for g, h, m in walked if 1 < m < t.orders[g]}


def test_right_rows_are_built_lazily_and_once():
    """On a fresh W(F4) no right row exists at construction or after
    sampling. verify_tuple builds one right row for each cyclic class it
    asks oracle_genus about, since the generator check reads the
    identity's cycle in it; it labels the right cosets of exactly the
    branch elements g that walk right (1 < |K| < ord(g), gcd(ord(g), |K|)
    > 1 for some class K), and the left cosets, the cycles of a right
    row, of exactly the classes some g walks on the left. A second call
    builds no row and labels nothing. The second tuple's branch elements
    have order 3, so the rule excludes the order-2 classes and no right
    walk is left."""
    for genus, count, seed, needed in ((0, 4, 12, True), (1, 2, 90, False)):
        G = PermGroup(weyl_group("F", 4).group.generators)
        assert G._right_rows == {}  # none at construction
        t = sample_tuple(G, genus, count, random.Random(seed))
        assert G._right_rows == {} and G._cyclic_cosets == {}  # none from sampling
        walked, right = _walked(G, t)
        assert bool(right) is needed
        if not needed:
            assert set(t.orders.values()) == {3}
        assert verify_tuple(t).ok
        built = dict(G._right_rows)
        assert set(built) == {K.generator for K in G.cyclic_subgroup_classes()}
        labelled = dict(t._right_cosets)
        assert set(labelled) == {g for g, _ in right}
        left = dict(G._cyclic_cosets)
        assert left and set(left) == {h for g, h, _ in walked if (g, h) not in right}
        assert verify_tuple(t).ok
        for cache, before in ((G._right_rows, built), (t._right_cosets, labelled),
                              (G._cyclic_cosets, left)):
            assert cache.keys() == before.keys()
            assert all(cache[k] is v for k, v in before.items())


def test_warm_verify_tuple_walks_once_per_pair_with_a_common_factor(monkeypatch):
    """A warm verify_tuple on W(F4) walks a coset space (one
    CosetAction.cycle_count call) exactly once per distinct branch element
    g and cyclic class K with gcd(ord(g), |K|) > 1, and reads every other
    count off |G|/(ord(g) |K|)."""
    G = weyl_group("F", 4).group
    cycle_count = CosetAction.cycle_count
    for seed in range(4):
        t = sample_tuple(G, 0, 4, random.Random(seed))
        assert verify_tuple(t).ok  # rows, coset actions and right cosets built
        walked, _ = _walked(G, t)
        free = len(t.orders) * len(G.cyclic_subgroup_classes()) - len(walked)
        assert walked and free
        calls = []

        def counting(self, row):
            calls.append(len(self.cosets))
            return cycle_count(self, row)

        monkeypatch.setattr(CosetAction, "cycle_count", counting)
        assert verify_tuple(t).ok
        monkeypatch.undo()
        assert len(calls) == len(walked), seed
    assert CosetAction.cycle_count is cycle_count


def test_free_counts_match_both_walks_on_fleet_tuples():
    """On sampled tuples of every fleet group of order <= 5000, each pair
    (g, K) with gcd(ord(g), |K|) = 1 has |G|/(ord(g) |K|) orbits on both
    sides: <g> on the left cosets of K, and <h> on the right cosets of g,
    h the generator of K."""
    rng = random.Random(43)
    seen: set[int] = set()
    pairs = 0
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        if G.order > 5000 or id(G) in seen:  # B and C share the group instance
            continue
        seen.add(id(G))
        for g, b in ((0, 3), (1, 2)):
            try:
                t = sample_tuple(G, g, b, rng)
            except SamplingExhausted:
                continue
            for K in G.cyclic_subgroup_classes():
                m = K.subgroup_order
                for x, d in t.orders.items():
                    if math.gcd(d, m) != 1:
                        continue
                    free = G.order // (d * m)
                    assert G.coset_action(K.subgroup_elements).cycle_count(t.rows[x]) == free
                    assert t.right_cosets(x).cycle_count(G.right_row(K.generator)) == free
                    pairs += 1
    assert pairs


def test_both_sides_agree_on_fleet_tuples():
    """On sampled tuples of every fleet group of order <= 5000, the genus
    from the free-action rule and the smaller side of each count (given
    the generator, so read off rows alone) equals the genus from the left
    cosets that ``coset_action`` closes and labels (no generator), a
    route that shares no labelling with it; some counts were free, and
    both sides were walked."""
    rng = random.Random(41)
    sides: set[str] = set()
    seen: set[int] = set()
    for letter, rank in WEYL_FLEET:
        G = weyl_group(letter, rank).group
        if G.order > 5000 or id(G) in seen:  # B and C share the group instance
            continue
        seen.add(id(G))
        for g, b in ((0, 3), (0, 4), (1, 2), (2, 1)):
            try:
                t = sample_tuple(G, g, b, rng)
            except SamplingExhausted:
                continue
            assert t.orders == {x: G.element_order(x) for x in set(t.branch_elements)}
            for K in G.cyclic_subgroup_classes():
                assert (oracle_genus(t, K.subgroup_elements, K.generator)
                        == oracle_genus(t, K.subgroup_elements)), (letter, rank, K.generator)
                m = K.subgroup_order
                sides.update("free" if math.gcd(d, m) == 1 else "right" if d > m else "left"
                             for d in t.orders.values())
    assert sides == {"free", "left", "right"}


def _guard_cases(G):
    """(subgroup, generator) pairs oracle_genus must refuse on S4: the
    generator outside the subgroup, of order 2 in the cyclic subgroup of
    order 4, and the right size and order but a set that is no subgroup."""
    K = next(K for K in G.cyclic_subgroup_classes() if K.subgroup_order == 4)
    h, H = K.generator, K.subgroup_elements
    outside = next(x for x in range(G.order) if x not in H)
    square = G.mul(h, h)
    return [(H, outside), (H, square), ((0, h, square, outside), h)]


def test_oracle_genus_refuses_a_wrong_generator(s4):
    t = sample_tuple(s4, 1, 2, random.Random(6))
    for H, h in _guard_cases(s4):
        with pytest.raises(NotASubgroup, match=f"element {h} does not generate"):
            oracle_genus(t, H, h)


def test_oracle_genus_refuses_an_index_outside_the_group(s4):
    """With a generator, a subgroup holding an index outside 0..|G|-1,
    negative ones included, is refused like any other wrong set."""
    t = sample_tuple(s4, 1, 2, random.Random(6))
    K = next(K for K in s4.cyclic_subgroup_classes() if K.subgroup_order == 2)
    for bad in (-1, s4.order):
        for H in ((*K.subgroup_elements, bad), (0, bad)):
            with pytest.raises(NotASubgroup, match=f"element {K.generator} does not generate"):
                oracle_genus(t, H, K.generator)


def test_oracle_genus_guard_survives_python_O():
    """The generator guard is an explicit raise, so it holds under -O."""
    snippet = textwrap.dedent(
        """
        import random, sys
        from test_monodromy import _guard_cases
        from prymdim.errors import NotASubgroup
        from prymdim.monodromy import oracle_genus, sample_tuple
        from prymdim.permgroup import group_from_generators, parse_generators

        G = group_from_generators(parse_generators(["(0 1)", "(0 1 2 3)"]))
        t = sample_tuple(G, 1, 2, random.Random(6))
        print(sys.flags.optimize)
        for H, h in _guard_cases(G):
            try:
                oracle_genus(t, H, h)
            except NotASubgroup:
                print("NotASubgroup")
        """
    )
    paths = [str(Path(prymdim.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] + ["NotASubgroup"] * 3


def test_sample_tuple_closes_no_span(monkeypatch):
    """The generation test and the oracle's generator route enumerate no
    subgroup: with the closure loop ``permgroup._close``, and
    ``coset_action``, ``is_subgroup`` and ``_span``, refusing every
    call, the sampler still draws tuples of W(F4) that satisfy the
    relation and generate G by a plain G.mul closure, and each passes
    verify_tuple, whose oracle checks every cyclic class on rows alone.
    The group is built afresh, so no earlier call has filled its caches."""
    G = PermGroup(weyl_group("F", 4).group.generators)

    def refuse(*args):
        raise AssertionError("a span was closed or a subgroup tested")

    monkeypatch.setattr("prymdim.permgroup._close", refuse)
    for name in ("coset_action", "is_subgroup", "_span"):
        monkeypatch.setattr(PermGroup, name, refuse)
    rng = random.Random(3)
    for g, b in ((0, 3), (1, 2), (2, 2)):
        t = sample_tuple(G, g, b, rng)
        assert t.relation_product() == G.identity_index
        seeds = [x for ab in t.handles for x in ab] + list(t.branch_elements)
        assert len(closure_by_mul(G, seeds)) == G.order
        assert verify_tuple(t).ok


def test_oracle_is_independent_of_the_classification(monkeypatch):
    """The oracle reads no class data. W(F4), W(D5) and W(A5), built
    afresh from the classified groups' generators, are never classified:
    their ``conjugacy_classes`` refuses every call. There ``sample_tuple``
    draws tuples, ``BranchTuple.is_valid`` accepts them, and
    ``oracle_genus`` over every cyclic class, each read from the
    classified group, gives the formula genera that ``verify_tuple``
    compares on that group."""

    def refuse(*args):
        raise AssertionError("conjugacy_classes was called")

    rng = random.Random(7)
    for letter, rank in (("F", 4), ("D", 5), ("A", 5)):
        W = weyl_group(letter, rank)
        G = PermGroup(W.group.generators)
        monkeypatch.setattr(G, "conjugacy_classes", refuse)
        for g, b in ((0, 3), (0, 4), (1, 2), (1, 1), (2, 1)):
            t = sample_tuple(G, g, b, rng)
            assert t.is_valid()
            oracle = tuple(oracle_genus(t, K.subgroup_elements, K.generator)
                           for K in W.group.cyclic_subgroup_classes())
            classified = BranchTuple(W.group, g, t.handles, t.branch_elements)
            assert oracle == verify_tuple(classified).formula, (letter, rank, g, b)
        assert "_class_of" not in vars(G)  # no classification pass ran


def test_oracle_without_a_generator_walks_coset_action_only(monkeypatch, s4):
    """Without a generator, oracle_genus walks the left cosets that
    ``coset_action`` labels, once per call, and labels no cycles of a
    row (``CosetAction.of_cycles`` refuses every call); its genera equal
    those of the generator route, taken first."""
    t = sample_tuple(s4, 1, 3, random.Random(9))
    cyclic = s4.cyclic_subgroup_classes()
    expected = [oracle_genus(t, K.subgroup_elements, K.generator) for K in cyclic]

    def refuse(*args):
        raise AssertionError("of_cycles was called")

    calls = []
    coset_action = PermGroup.coset_action

    def counting(self, subgroup):
        calls.append(frozenset(subgroup))
        return coset_action(self, subgroup)

    monkeypatch.setattr(CosetAction, "of_cycles", refuse)
    monkeypatch.setattr(PermGroup, "coset_action", counting)
    fresh = BranchTuple(s4, t.base_genus, t.handles, t.branch_elements)  # no cached cosets
    assert [oracle_genus(fresh, K.subgroup_elements) for K in cyclic] == expected
    assert calls == [frozenset(K.subgroup_elements) for K in cyclic]


def test_sample_tuple_needs_no_subgroup_closure(monkeypatch, s4):
    """The sampler asks ``PermGroup.generates`` whether a tuple generates G
    and never builds the span's index set: with ``subgroup_closure``
    refusing every call, it still returns tuples that satisfy the
    relation, have no identity branch element, generate G by a plain
    G.mul closure and verify against the formula."""

    def refuse(self, seeds):
        raise AssertionError("subgroup_closure was called")

    monkeypatch.setattr(PermGroup, "subgroup_closure", refuse)
    rng = random.Random(5)
    for G in (s4, weyl_group("B", 3).group, weyl_group("G", 2).group):
        for g, b in ((0, 3), (0, 4), (1, 2), (2, 1)):
            t = sample_tuple(G, g, b, rng)
            assert t.is_valid()
            assert t.relation_product() == G.identity_index
            assert G.identity_index not in t.branch_elements
            seeds = [x for ab in t.handles for x in ab] + list(t.branch_elements)
            assert len(closure_by_mul(G, seeds)) == G.order
            assert verify_tuple(t).ok


def test_orbit_count_equals_double_coset(s4):
    rng = random.Random(21)
    cyclic = s4.cyclic_subgroup_classes()
    for _ in range(20):
        g = rng.choice((0, 1))
        t = sample_tuple(s4, g, rng.randint(3 if g == 0 else 2, 5), rng)
        for x in t.branch_elements:
            row = left_row(s4, x)
            for K in cyclic:
                act = s4.coset_action(K.subgroup_elements)
                assert act.cycle_count(row) == s4.double_coset_count(x, K)


def test_euler_parity(s3, s4):
    rng = random.Random(31)
    for G in (s3, s4):
        cyclic = G.cyclic_subgroup_classes()
        for _ in range(25):
            g = rng.choice((0, 1))
            t = sample_tuple(G, g, rng.randint(3 if g == 0 else 2, 6), rng)
            rows = [left_row(G, x) for x in t.branch_elements]
            for K in cyclic:
                act = G.coset_action(K.subgroup_elements)
                n = len(act.cosets)
                ram = sum(n - act.cycle_count(row) for row in rows)
                assert (n * (2 - 2 * t.base_genus) - ram) % 2 == 0


def test_sampled_tuples_verify(s3):
    rng = random.Random(17)
    checked = 0
    for _ in range(120):
        g = rng.choice((0, 1))
        b = rng.randint(1 if g else 2, 6)
        try:
            t = sample_tuple(s3, g, b, rng)
        except SamplingExhausted:
            continue
        v = verify_tuple(t)
        assert v.ok, (t, v)
        assert validate(spec_from_tuple(t)).diagnostics == ()
        checked += 1
    assert checked >= 100


def test_w_g2_tuples_verify():
    G = weyl_group("G", 2).group
    rng = random.Random(23)
    for _ in range(60):
        g = rng.choice((0, 1))
        b = rng.randint(1 if g else 2, 6)
        try:
            t = sample_tuple(G, g, b, rng)
        except SamplingExhausted:
            continue
        assert verify_tuple(t).ok
