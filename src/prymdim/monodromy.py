"""Brute-force cover oracle from branch tuples.

A branch tuple is a combinatorial witness that a cover exists: group
elements (a_1, b_1, .., a_g, b_g; g_1, .., g_b) satisfying the surface
relation prod [a_i, b_i] * prod g_i = e and generating the whole group.
The genus of the cover, and of every intermediate quotient, is then pure
orbit counting on coset spaces - no character theory involved - which
makes it an independent check of the Riemann-Hurwitz pipeline.

The count over a branch point with monodromy g on X/H is the number of
double cosets #(<g>\\G/H), which can be taken from either side: as the
orbits of <g> on the |G|/|H| left cosets xH, or as the orbits of H on
the |G|/ord(g) right cosets <g>y. Given a generator h of H,
``oracle_genus`` first reads the count off Lagrange's theorem where it
can: the stabilizer of xH in <g> is <g> meet xHx^-1, whose order divides
both d = ord(g) and m = |H|, so for gcd(d, m) = 1 (the trivial H
included) <g> acts freely and the count is |G|/(d m), with no walk. It
walks only for gcd(d, m) > 1: the right cosets when d > m, under h's
right-multiplication row (y -> y*h, ``PermGroup.right_row``), and the
left cosets otherwise. The rule reads only d and m, no class data, so
the oracle stays independent of the formula route. Each distinct branch
element's left-multiplication row (``PermGroup.left_row``) is built once
per tuple, by |G| list lookups along the group's Schreier tree with no
composition, and read by every left walk, and, the first time some class
needs it, labelled into the right cosets of <g>, its cycles. The tree
is built once per group; right rows are built per group, once per
generator asked for, and only when a right walk needs one: for the
classes with 1 < m < d and gcd(d, m) > 1 for some branch element.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import NegativeGenus, NotASubgroup, OddRamificationDegree, SamplingExhausted
from .permgroup import CosetAction, PermGroup, _Record
from .rhprym import CoverSpec, RamificationSpec, genus_quotient

# rejection draws per sample_tuple call before it raises SamplingExhausted
SAMPLE_ATTEMPTS = 500


class BranchTuple(_Record):
    """Handles and branch elements realizing a cover of a genus-g base.
    Not slotted: the cached ``rows``, ``orders`` and right cosets live in
    the instance ``__dict__``."""

    _fields = ("group", "base_genus", "handles", "branch_elements")

    def __init__(self, group: PermGroup, base_genus: int,
                 handles: tuple[tuple[int, int], ...], branch_elements: tuple[int, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "base_genus", base_genus)
        object.__setattr__(self, "handles", handles)
        object.__setattr__(self, "branch_elements", branch_elements)

    @cached_property
    def rows(self) -> dict[int, list[int]]:
        """Left-multiplication row of each distinct branch element g:
        ``rows[g][y]`` is the index of g*y, from ``PermGroup.left_row``
        (list lookups along the group's Schreier tree)."""
        G = self.group
        return {g: G.left_row(g) for g in set(self.branch_elements)}

    @cached_property
    def orders(self) -> dict[int, int]:
        """Order of each distinct branch element g, read off the identity's
        cycle 0 -> g -> g*g -> ... in its row."""
        orders = {}
        for g, row in self.rows.items():
            n, y = 1, row[0]
            while y:  # the identity is index 0
                n, y = n + 1, row[y]
            orders[g] = n
        return orders

    @cached_property
    def _right_cosets(self) -> dict[int, CosetAction]:
        return {}

    def right_cosets(self, g: int) -> CosetAction:
        """The right cosets <g>y of the branch element g, on which <h> acts
        through h's right row ``PermGroup.right_row(h)``. They are the
        cycles of g's row, so one walk of it labels them; labelled on first
        use and cached, once per distinct branch element."""
        act = self._right_cosets.get(g)
        if act is None:
            row = self.rows[g]
            coset_of = [-1] * len(row)
            reps: list[int] = []
            for y in range(len(row)):
                if coset_of[y] < 0:
                    c = len(reps)
                    reps.append(y)
                    coset_of[y], z = c, row[y]
                    while z != y:  # the cycle of g's row through y closes at y
                        coset_of[z] = c
                        z = row[z]
            act = self._right_cosets[g] = CosetAction(tuple(reps), tuple(coset_of))
        return act

    def relation_product(self) -> int:
        G = self.group
        acc = G.identity_index
        for a, b in self.handles:
            acc = G.mul(acc, G.mul(G.mul(a, b), G.mul(G.inv(a), G.inv(b))))
        for g in self.branch_elements:
            acc = G.mul(acc, g)
        return acc

    def is_valid(self) -> bool:
        """Whether the tuple defines a connected G-cover: the relation
        product is the identity, no branch element is the identity, and
        the handles and branch elements generate G (``PermGroup.generates``,
        a Schreier-Sims chain of their point images, which reads no class
        data and enumerates no subgroup)."""
        G = self.group
        if self.relation_product() != G.identity_index:
            return False
        if any(g == G.identity_index for g in self.branch_elements):
            return False
        seeds = [x for ab in self.handles for x in ab] + list(self.branch_elements)
        return G.generates(seeds)


def sample_tuple(
    G: PermGroup, base_genus: int, branch_count: int, rng: random.Random
) -> BranchTuple:
    """Rejection-sample a valid branch tuple in at most SAMPLE_ATTEMPTS draws.

    Handles and all but the last branch element are uniform; the last
    branch element is forced by the relation and the draw is rejected if
    it is the identity or the tuple fails to generate the group. A
    ``base_genus`` or ``branch_count`` that is not a nonnegative int raises
    ValueError before any draw.
    """
    for name, n in (("base genus", base_genus), ("branch count", branch_count)):
        if type(n) is not int or n < 0:
            raise ValueError(f"{name} {n!r} is not a nonnegative int")
    order = G.order
    for _ in range(SAMPLE_ATTEMPTS):
        handles = tuple(
            (rng.randrange(order), rng.randrange(order)) for _ in range(base_genus)
        )
        if order == 1 and branch_count > 1:
            break  # no non-identity element to draw
        branch = [rng.randrange(1, order) for _ in range(branch_count - 1)]
        acc = BranchTuple(G, base_genus, handles, tuple(branch)).relation_product()
        if branch_count:
            last = G.inv(acc)
            if last == G.identity_index:
                continue
            branch.append(last)
        elif acc != G.identity_index:
            continue
        t = BranchTuple(G, base_genus, handles, tuple(branch))
        if t.is_valid():
            return t
    raise SamplingExhausted(
        f"no valid tuple for g={base_genus}, b={branch_count} in {SAMPLE_ATTEMPTS} attempts"
    )


def oracle_genus(t: BranchTuple, subgroup: Iterable[int], generator: int | None = None) -> int:
    """Genus of X/H by counting the orbits of each local monodromy g on G/H.

    Over a branch point with monodromy g, the fiber of X/H -> Y has one
    point per cycle of g on the cosets, ramified with index the cycle
    length; Riemann-Hurwitz then gives the genus directly. With a
    ``generator`` h of H, the count #(<g>\\G/H) is |G|/(ord(g) |H|) with
    no walk when gcd(ord(g), |H|) = 1, since <g> then acts freely, and
    otherwise is walked on the smaller side: for ord(g) > |H| the orbits
    of <h> on the right cosets <g>y (see the module docstring). Without
    a generator every count is a walk of the left cosets. A generator
    whose powers are not exactly ``subgroup`` raises NotASubgroup, as
    does a ``subgroup`` that is not one. Raises OddRamificationDegree or
    NegativeGenus when the tuple defines no surface.
    """
    G = t.group
    H = frozenset(subgroup)
    m = len(H)
    orbits: dict[int, int] = {}  # by distinct branch element
    if generator is not None:
        if G.powers(generator) != H:
            raise NotASubgroup(f"element {generator} does not generate the {m} given elements")
        for g, d in t.orders.items():
            if math.gcd(d, m) == 1:  # <g> acts freely: orbits of d cosets
                orbits[g] = G.order // (d * m)
            elif d > m:  # fewer right cosets <g>y than left cosets xH
                orbits[g] = t.right_cosets(g).cycle_count(G.right_row(generator))
    if generator is None or len(orbits) < len(t.rows):
        act = G.coset_action(H)
        for g, row in t.rows.items():
            if g not in orbits:
                orbits[g] = act.cycle_count(row)
    n = G.order // m
    ram = sum(n - orbits[g] for g in t.branch_elements)
    if ram % 2:
        raise OddRamificationDegree(f"oracle ramification degree {ram} is odd")
    g_h = 1 + n * (t.base_genus - 1) + ram // 2
    if g_h < 0:
        raise NegativeGenus(f"oracle genus {g_h} is negative")
    return g_h


def spec_from_tuple(t: BranchTuple) -> CoverSpec:
    """Tally branch elements into per-cyclic-class counts."""
    G = t.group
    counts: dict[int, int] = {}
    for g in t.branch_elements:
        k = G.cyclic_class_of_element(g)
        counts[k] = counts.get(k, 0) + 1
    return CoverSpec(G, t.base_genus, RamificationSpec(counts))


class TupleVerification(NamedTuple):
    """Per-quotient comparison of oracle genus and formula genus."""

    oracle: tuple[int, ...]
    formula: tuple[int, ...]
    mismatches: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_tuple(t: BranchTuple) -> TupleVerification:
    """Compare the orbit-counting genus with the character-free formula
    genus for X itself and every quotient X/H_i; report any mismatches."""
    G = t.group
    spec = spec_from_tuple(t)
    cyclic = G.cyclic_subgroup_classes()
    oracle = []
    formula = []
    for i, K in enumerate(cyclic):
        oracle.append(oracle_genus(t, K.subgroup_elements, K.generator))
        formula.append(genus_quotient(spec, i))
    mism = tuple(i for i, (a, b) in enumerate(zip(oracle, formula)) if a != b)
    return TupleVerification(tuple(oracle), tuple(formula), mism)
