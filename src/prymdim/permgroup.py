"""Fully enumerated permutation groups.

Every group is realized concretely: elements are permutations of
``{0..n-1}``, the whole group is closed breadth-first from its
generators, and an element is identified by its index into the table of
image tuples sorted lexicographically (so index 0 is the identity).
Conjugacy classes are found by direct counting in one classification
pass, which also walks the powers rep^t of each class representative
once and stores them on the class. Element orders, the rationality test
and the cyclic-subgroup classes read those stored powers. Coset actions
are computed by direct counting.
Double cosets are counted from class data alone, by Burnside's lemma,

    #(A\\G/B) = |G|/(|A||B|) * sum_c pA[c] pB[c] / |c|,

where pA[c] is the number of elements of A in class c. Every quantity is
exact and reproducible across runs.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    CapExceeded,
    DegreeMismatch,
    NotASubgroup,
    NotRationalGroup,
    ParseError,
)

DEFAULT_CAP = 200_000
# largest permutation degree the parsers accept; the Weyl fleet needs 48
MAX_DEGREE = 1000

_CYCLES_RE = re.compile(r"\s*(?:\([^()]*\)\s*)+")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}, stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ParseError(f"not a bijection on 0..{n - 1}: {self.images!r}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_images(cls, images: Iterable[int]) -> "Permutation":
        return cls(tuple(int(x) for x in images))

    @classmethod
    def from_cycles(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse cycle notation like ``(0 1)(2 3)``; ``()`` is the identity."""
        _check_degree(degree, repr(text))
        s = text.strip()
        if s in ("", "()"):
            return cls.identity(degree if degree else 1)
        if not _CYCLES_RE.fullmatch(s):
            raise ParseError(f"bad cycle notation: {text!r}")
        mapping: dict[int, int] = {}
        top = -1
        for body in _CYCLE_RE.findall(s):
            try:
                pts = [int(tok) for tok in body.replace(",", " ").split()]
            except ValueError as exc:
                raise ParseError(f"bad point in {text!r}") from exc
            if not pts:
                continue
            if any(p < 0 for p in pts):
                raise ParseError(f"negative point in {text!r}")
            _check_degree(max(pts) + 1, repr(text))
            for a, b in zip(pts, pts[1:] + pts[:1]):
                if a in mapping:
                    raise ParseError(f"point {a} repeated in {text!r}")
                mapping[a] = b
            top = max(top, max(pts))
        n = max(top + 1, degree or 0)
        return cls(tuple(mapping.get(i, i) for i in range(n)))

    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: apply ``other`` first, then ``self``."""
        if len(self.images) != len(other.images):
            raise DegreeMismatch("cannot compose permutations of different degree")
        return Permutation(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def extend(self, degree: int) -> "Permutation":
        """Re-embed into a larger point set, fixing the new points."""
        if degree < len(self.images):
            raise DegreeMismatch("cannot shrink a permutation")
        return Permutation(self.images + tuple(range(len(self.images), degree)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen: set[int] = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                cyc.append(j)
                j = self.images[j]
            seen.update(cyc)
            out.append(tuple(cyc))
        return out

    def cycle_str(self) -> str:
        """Canonical cycle notation; the identity prints as ``()``."""
        parts = ["(" + " ".join(map(str, c)) + ")" for c in self.cycles()]
        return "".join(parts) or "()"

    def __str__(self) -> str:
        return self.cycle_str()


def _check_degree(degree: int | None, where: str) -> None:
    """Reject a degree below 1, or past MAX_DEGREE before any tuple of that
    length is built."""
    if degree is None:
        return
    if degree < 1:
        raise ParseError(f"degree {degree} of {where} must be at least 1")
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} of {where} is past the degree limit {MAX_DEGREE}")


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse either cycle notation or a one-line image array."""
    s = text.strip()
    if s.startswith("(") or s == "()":
        return Permutation.from_cycles(s, degree)
    _check_degree(degree, repr(text))
    s = s.strip("[]")
    toks = s.replace(",", " ").split()
    if not toks:
        raise ParseError(f"empty permutation text: {text!r}")
    _check_degree(len(toks), repr(text))
    try:
        images = [int(t) for t in toks]
    except ValueError as exc:
        raise ParseError(f"bad image array: {text!r}") from exc
    if degree is not None and len(images) < degree:
        images.extend(range(len(images), degree))
    return Permutation.from_images(images)


def parse_generators(texts: Sequence[str], degree: int | None = None) -> list[Permutation]:
    """Parse generator strings and lift them all to one common degree."""
    _check_degree(degree, "the generators")
    raw = [parse_permutation(t) for t in texts]
    n = max([degree or 1] + [p.degree() for p in raw])
    return [p.extend(n) for p in raw]


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class: its least member is the representative.

    ``powers[t]`` is the element index of representative^t for
    t = 0 .. ord - 1, so ``powers[0]`` is the identity and the element
    order is ``len(powers)``.
    """

    representative: int
    members: tuple[int, ...]
    size: int
    powers: tuple[int, ...]

    @property
    def element_order(self) -> int:
        return len(self.powers)


@dataclass(frozen=True)
class CyclicClass:
    """A conjugacy class of cyclic subgroups, with a chosen generator.

    ``member_class_profile`` maps conjugacy-class index -> how many
    elements of the subgroup lie in that class; it is what the
    fixed-subspace dimension computation consumes. Profiles built by
    ``PermGroup.cyclic_subgroup_classes`` count phi(d) elements of each
    order d dividing ``subgroup_order`` and none of any other order, so
    one identity and ``subgroup_order`` elements in total.
    """

    generator: int
    subgroup_order: int
    subgroup_elements: tuple[int, ...]
    member_class_profile: Mapping[int, int]


@dataclass(frozen=True)
class CosetAction:
    """Left action of a group on the cosets of a subgroup.

    ``cosets`` holds the least element index of each coset, in discovery
    order; ``coset_of[x]`` is the coset index of element ``x``. Actions
    of arbitrary elements are derived on demand via ``element_action``.
    Orbit counts on cosets are the monodromy oracle's route to quotient
    genera; the dimension pipeline counts double cosets from class data
    instead (``PermGroup.double_coset_matrix``), so the two stay
    independent.
    """

    group: "PermGroup"
    subgroup: tuple[int, ...]
    cosets: tuple[int, ...]
    coset_of: tuple[int, ...]

    def element_action(self, x: int) -> tuple[int, ...]:
        """The permutation of coset indices induced by element ``x``."""
        G = self.group
        cof = self.coset_of
        return tuple(cof[G.mul(x, r)] for r in self.cosets)

    def cycle_count(self, x: int) -> int:
        """Number of orbits of the cyclic group <x> on the cosets."""
        act = self.element_action(x)
        seen = [False] * len(act)
        n = 0
        for c in range(len(act)):
            if seen[c]:
                continue
            n += 1
            j = c
            while not seen[j]:
                seen[j] = True
                j = act[j]
        return n


class PermGroup:
    """A finite permutation group, fully enumerated from its generators.

    Derived data (the classification pass behind conjugacy classes,
    rationality and cyclic classes; coset actions; the double-coset
    matrix) is computed lazily and cached; the group itself is immutable
    after construction.
    """

    def __init__(
        self,
        generators: Sequence[Permutation],
        degree: int | None = None,
        cap: int = DEFAULT_CAP,
    ):
        gens = list(generators)
        if degree is None:
            degree = gens[0].degree() if gens else 1
        if degree < 1:
            raise ValueError("degree must be positive")
        if cap < 1:
            raise ValueError("cap must be positive")
        for g in gens:
            if g.degree() != degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree()} != group degree {degree}"
                )

        ident = tuple(range(degree))
        seen = {ident}
        frontier = [ident]
        gimgs = [g.images for g in gens]
        while frontier:
            nxt = []
            for a in frontier:
                get = a.__getitem__
                for g in gimgs:
                    c = tuple(map(get, g))
                    if c not in seen:
                        if len(seen) >= cap:
                            raise CapExceeded(f"group order exceeds cap {cap}")
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt

        imgs = sorted(seen)
        self.degree = degree
        self.generators = gens
        self.elements = [Permutation(t) for t in imgs]
        self.order = len(imgs)
        self._images = imgs
        self._index = {t: i for i, t in enumerate(imgs)}
        self.identity_index = self._index[ident]
        if self.identity_index != 0:
            raise AssertionError("identity must be the lexicographically least element")
        inv = []
        for t in imgs:
            it = [0] * degree
            for i, v in enumerate(t):
                it[v] = i
            inv.append(self._index[tuple(it)])
        self._inverse = inv
        self.generator_indices = [self._index[g.images] for g in gens]
        # set by conjugacy_classes() together with _class_of, _rational, _cyclic
        self._classes: tuple[ConjugacyClass, ...] | None = None
        self._coset_actions: dict[frozenset[int], CosetAction] = {}
        self._dc_matrix: tuple[tuple[int, ...], ...] | None = None
        self.cache: dict = {}  # cross-module memo slot (character table etc.)

    # -- element arithmetic -------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        """Index of element i composed with element j (j applied first)."""
        return self._index[tuple(map(self._images[i].__getitem__, self._images[j]))]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def conjugate(self, x: int, g: int) -> int:
        """Index of g x g^-1."""
        return self.mul(self.mul(g, x), self._inverse[g])

    def power(self, x: int, k: int) -> int:
        y = self.identity_index
        for _ in range(k % self.element_order(x)):
            y = self.mul(y, x)
        return y

    def element_order(self, x: int) -> int:
        return self.conjugacy_classes()[self.class_of(x)].element_order

    def index_of(self, p: Permutation) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise KeyError(f"{p.cycle_str()} is not an element of this group") from None

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self._index

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_str() for g in self.generators) or "-"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=[{gens}])"

    # -- subgroups ----------------------------------------------------------

    def subgroup_closure(self, seeds: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by the given element indices."""
        seeds = sorted(set(seeds) | {self.identity_index})
        found = set(seeds)
        frontier = list(seeds)
        while frontier:
            nxt = []
            for a in frontier:
                for s in seeds:
                    c = self.mul(a, s)
                    if c not in found:
                        found.add(c)
                        nxt.append(c)
            frontier = nxt
        return frozenset(found)

    def is_subgroup(self, elems: frozenset[int]) -> bool:
        """Exact test: close a generating set chosen greedily from ``elems``,
        giving up as soon as the span leaves ``elems``. Each added generator
        at least doubles the span, so there are at most log2 |elems| closures."""
        if self.identity_index not in elems or self.order % len(elems):
            return False
        if len(elems) == self.order:
            return True
        gens: list[int] = []
        span = frozenset([self.identity_index])
        for x in sorted(elems):
            if x not in span:
                gens.append(x)
                span = self.subgroup_closure(gens)
                if not span <= elems:
                    return False
        return span == elems

    # -- conjugacy classes, rationality and cyclic-subgroup classes -----------

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """Conjugacy classes, identity first, then by (element order, size, least member).

        One classification pass: it finds the classes, walks the powers of
        each representative once, and from those powers derives the
        rationality flag and, for a rational group, the cyclic classes.
        """
        if self._classes is None:
            tmp = [-1] * self.order
            raw: list[tuple[list[int], list[int]]] = []
            gens = self.generator_indices
            one = self.identity_index
            for x in range(self.order):
                if tmp[x] >= 0:
                    continue
                cid = len(raw)
                tmp[x] = cid
                members = [x]
                queue = [x]
                while queue:
                    y = queue.pop()
                    for g in gens:
                        z = self.conjugate(y, g)
                        if tmp[z] < 0:
                            tmp[z] = cid
                            members.append(z)
                            queue.append(z)
                powers, y = [one], x
                while y != one:
                    powers.append(y)
                    y = self.mul(y, x)
                raw.append((sorted(members), powers))
            raw.sort(key=lambda mp: (len(mp[1]), len(mp[0]), mp[0][0]))
            classes = tuple(
                ConjugacyClass(
                    representative=m[0], members=tuple(m), size=len(m), powers=tuple(p)
                )
                for m, p in raw
            )
            class_of = [-1] * self.order
            for ci, cl in enumerate(classes):
                for x in cl.members:
                    class_of[x] = ci
            # rational: x ~ x^t for every t prime to ord(x)
            rational = all(
                class_of[y] == ci
                for ci, cl in enumerate(classes)
                for t, y in enumerate(cl.powers)
                if math.gcd(t, cl.element_order) == 1
            )
            self._class_of = class_of
            self._rational = rational
            self._cyclic = tuple(
                CyclicClass(
                    generator=cl.representative,
                    subgroup_order=cl.element_order,
                    subgroup_elements=tuple(sorted(cl.powers)),
                    member_class_profile=dict(Counter(class_of[y] for y in cl.powers)),
                )
                for cl in classes
            ) if rational else ()
            self._classes = classes
        return self._classes

    def class_of(self, x: int) -> int:
        self.conjugacy_classes()
        return self._class_of[x]

    def is_rational_group(self) -> bool:
        """Power-map test: every x is conjugate to x^k for all k coprime to ord(x).

        Equivalent to all irreducible characters taking rational values.
        """
        self.conjugacy_classes()
        return self._rational

    def cyclic_subgroup_classes(self) -> tuple[CyclicClass, ...]:
        """One cyclic class per conjugacy class, in conjugacy-class order.

        For rational-character groups the conjugacy classes of cyclic
        subgroups biject with conjugacy classes of elements: the class of
        x maps to the class of <x>. Cyclic class k is generated by the
        representative of conjugacy class k, so the classes are ordered by
        subgroup order with ties broken by class index, and the trivial
        subgroup is first.
        """
        if self._classes is None:
            self.conjugacy_classes()
        if not self._rational:
            raise NotRationalGroup(
                "cyclic classes biject with element classes only for "
                "rational-character groups"
            )
        return self._cyclic

    def cyclic_class_of_element(self, x: int) -> int:
        """Index of the cyclic class generated by (the class of) x: its class index."""
        self.cyclic_subgroup_classes()
        return self._class_of[x]

    # -- coset actions and double cosets --------------------------------------

    def coset_action(self, subgroup: Iterable[int]) -> CosetAction:
        """Action on left cosets xH; raises NotASubgroup for non-closed sets."""
        H = subgroup if isinstance(subgroup, frozenset) else frozenset(subgroup)
        cached = self._coset_actions.get(H)
        if cached is not None:
            return cached
        if not self.is_subgroup(H):
            raise NotASubgroup(f"{len(H)} elements do not form a subgroup")
        hs = sorted(H)
        coset_of = [-1] * self.order
        reps: list[int] = []
        for x in range(self.order):
            if coset_of[x] >= 0:
                continue
            c = len(reps)
            reps.append(x)
            for h in hs:
                y = self.mul(x, h)
                if coset_of[y] >= 0:
                    raise NotASubgroup("coset overlap: element set is not closed")
                coset_of[y] = c
        act = CosetAction(self, tuple(hs), tuple(reps), tuple(coset_of))
        self._coset_actions[H] = act
        return act

    def _profile(self, x) -> tuple[Mapping[int, int], int]:
        """(class profile, order) of a CyclicClass, of the cyclic subgroup
        generated by an element index, or of a set of element indices;
        raises NotASubgroup for a set that is not a subgroup."""
        if isinstance(x, CyclicClass):
            return x.member_class_profile, x.subgroup_order
        if isinstance(x, int):
            K = self.cyclic_subgroup_classes()[self.cyclic_class_of_element(x)]
            return K.member_class_profile, K.subgroup_order
        elems = x if isinstance(x, frozenset) else frozenset(x)
        if not self.is_subgroup(elems):
            raise NotASubgroup(f"{len(elems)} elements do not form a subgroup")
        return Counter(self.class_of(y) for y in elems), len(elems)

    def _burnside_count(self, pa: Mapping[int, int], na: int,
                        pb: Mapping[int, int], nb: int) -> int:
        """#(A\\G/B) from the class profiles and orders of A and B.

        Burnside's lemma for A x B acting on G by g -> a g b^-1: the pair
        (a, b) fixes |C_G(a)| = |G|/|class(a)| elements when a ~ b and
        none otherwise.
        """
        classes = self.conjugacy_classes()
        fixed = sum(
            in_a * pb[c] * (self.order // classes[c].size)
            for c, in_a in pa.items()
            if c in pb
        )
        count, rem = divmod(fixed, na * nb)
        if rem:
            raise NotASubgroup(
                f"class profiles of orders {na} and {nb} give {fixed}/{na * nb} "
                "double cosets; they are not the profiles of subgroups"
            )
        return count

    def double_coset_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Entry [k][i] is #(H_k\\G/H_i) over the cyclic classes, in
        ``cyclic_subgroup_classes`` order; built once per group."""
        if self._dc_matrix is None:
            prof = [(K.member_class_profile, K.subgroup_order)
                    for K in self.cyclic_subgroup_classes()]
            self._dc_matrix = tuple(
                tuple(self._burnside_count(*a, *b) for b in prof) for a in prof
            )
        return self._dc_matrix

    def double_coset_count(self, a, b) -> int:
        """#(A\\G/B) for subgroups A and B, by Burnside's class formula

            #(A\\G/B) = |G|/(|A||B|) * sum_c pA[c] pB[c] / |c|,

        which reads only class sizes and the class profiles pA, pB (see
        the module docstring). Each of ``a`` and ``b`` may be a
        CyclicClass, an element index (standing for the cyclic subgroup
        it generates, whose profile is that of its cyclic class) or an
        iterable of element indices, which must form a subgroup.
        """
        return self._burnside_count(*self._profile(a), *self._profile(b))


def group_from_generators(
    gens: Sequence[Permutation],
    cap: int = DEFAULT_CAP,
    degree: int | None = None,
) -> PermGroup:
    """Breadth-first closure of the generators into a PermGroup."""
    return PermGroup(gens, degree=degree, cap=cap)
