"""Fully enumerated permutation groups.

Every group is realized concretely: elements are permutations of
``{0..n-1}``, the whole group is closed breadth-first from its
generators, and an element is identified by its index into the table of
image sequences sorted lexicographically (so index 0 is the identity).

For degree n <= 256 each element's images are stored as ``bytes``, and
every composition is one ``bytes.translate`` call: with ``a`` padded
once to a 256-byte table, ``b.translate(a + tail)`` is a*b (b applied
first). Inverses are ``bytes.maketrans(t, identity)[:n]``. Sorted
``bytes`` of equal length are in the same order as the tuples of their
values, so element indices do not depend on the store. Above degree 256
the images stay tuples of ints, composed by ``map``; only the kernel
returned by ``_kernel`` tells the two stores apart. ``PermGroup.elements``
is a view that builds a ``Permutation`` only for the index it is asked
for, so no per-element object is kept.

Conjugacy classes are found by direct counting in one classification
pass; element orders come from each representative's cycle type, and
the rationality test and the cyclic-subgroup classes share one walk of
the powers rep^t per class, so no power list is stored. Coset actions
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
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    CapExceeded,
    DegreeMismatch,
    NotASubgroup,
    NotRationalGroup,
    ParseError,
)

if TYPE_CHECKING:
    from .chartable import CharacterTable
    from .exactla import Inverse

DEFAULT_CAP = 200_000
# largest permutation degree the parsers accept; the Weyl fleet needs 48
MAX_DEGREE = 1000
# largest degree whose images fit in bytes and compose by bytes.translate
BYTE_DEGREE = 256

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
    """Parse generator strings and lift them all to one common degree; with
    no strings, a declared degree gives the identity on that many points."""
    _check_degree(degree, "the generators")
    raw = [parse_permutation(t) for t in texts]
    if not raw and degree is not None:
        return [Permutation.identity(degree)]
    n = max([degree or 1] + [p.degree() for p in raw])
    return [p.extend(n) for p in raw]


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class: its least member is the representative, and
    ``element_order`` is the lcm of the representative's cycle lengths."""

    representative: int
    members: tuple[int, ...]
    size: int
    element_order: int


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
    cosets: tuple[int, ...]
    coset_of: tuple[int, ...]

    def element_action(self, x: int) -> tuple[int, ...]:
        """The permutation of coset indices induced by element ``x``."""
        return tuple(map(self.coset_of.__getitem__, self.group.products(x, self.cosets)))

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


class _Kernel(NamedTuple):
    """Composition of the stored image sequences of one degree.

    ``key`` turns a sequence of images into the stored form;
    ``compose(b, pad(a))`` is the stored form of a*b (b applied first), so
    an element padded once composes with many; ``invert`` gives the
    stored form of the inverse.
    """

    key: Callable
    pad: Callable
    compose: Callable
    invert: Callable


def _kernel(degree: int) -> _Kernel:
    """``bytes`` and ``bytes.translate`` up to BYTE_DEGREE, tuples above it."""
    if degree <= BYTE_DEGREE:
        tail = bytes(range(degree, BYTE_DEGREE))
        ident = bytes(range(degree))
        return _Kernel(
            key=bytes,
            pad=lambda a: a + tail,
            compose=bytes.translate,
            invert=lambda t: bytes.maketrans(t, ident)[:degree],
        )
    return _Kernel(
        key=tuple,
        pad=lambda a: a,
        compose=lambda b, a: tuple(map(a.__getitem__, b)),
        invert=lambda t: tuple(sorted(range(degree), key=t.__getitem__)),
    )


class _ElementView(Sequence):
    """The elements of a group in index order, each Permutation built when read."""

    def __init__(self, images: Sequence[bytes | tuple[int, ...]]):
        self._images = images

    def __len__(self) -> int:
        return len(self._images)

    def __getitem__(self, i: int) -> Permutation:
        return Permutation(tuple(self._images[i]))


class PermGroup:
    """A finite permutation group, fully enumerated from its generators.

    Derived data (the classification pass behind conjugacy classes,
    rationality and cyclic classes; coset actions; the double-coset
    matrix) is computed lazily and cached; the group itself is immutable
    after construction.
    """

    def __init__(self, generators: Sequence[Permutation], cap: int = DEFAULT_CAP):
        """The degree is that of the generators, or 1 when there are none."""
        gens = list(generators)
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

        self._kernel = key, pad, compose, invert = _kernel(degree)
        ident = key(range(degree))
        seen = {ident}
        frontier = [ident]
        gpads = [pad(key(g.images)) for g in gens]
        while frontier:
            nxt = []
            for a in frontier:
                for gp in gpads:
                    c = compose(a, gp)
                    if c not in seen:
                        if len(seen) >= cap:
                            raise CapExceeded(f"group order exceeds cap {cap}")
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt

        imgs = sorted(seen)
        self.degree = degree
        self.generators = gens
        self.elements: Sequence[Permutation] = _ElementView(imgs)
        self.order = len(imgs)
        self._images = imgs
        self._index = index = {t: i for i, t in enumerate(imgs)}
        self.identity_index = index[ident]
        if self.identity_index != 0:
            raise AssertionError("identity must be the lexicographically least element")
        self._inverse = [index[invert(t)] for t in imgs]
        self.generator_indices = [index[key(g.images)] for g in gens]
        # set by conjugacy_classes() together with _class_of, _rational, _cyclic
        self._classes: tuple[ConjugacyClass, ...] | None = None
        self._coset_actions: dict[frozenset[int], CosetAction] = {}
        self._dc_matrix: tuple[tuple[int, ...], ...] | None = None
        # filled by chartable.character_table and chartable.fixed_dim_matrix
        self.table: CharacterTable | None = None
        self.fixed_dims: Inverse | None = None

    # -- element arithmetic -------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        """Index of element i composed with element j (j applied first)."""
        k = self._kernel
        return self._index[k.compose(self._images[j], k.pad(self._images[i]))]

    def products(self, x: int, ys: Iterable[int]) -> list[int]:
        """Indices of x*y for each y in ``ys``, padding x once."""
        index, images, compose = self._index, self._images, self._kernel.compose
        xp = self._kernel.pad(images[x])
        return [index[compose(images[y], xp)] for y in ys]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def element_order(self, x: int) -> int:
        return self._classified()[self._class_of[x]].element_order

    def index_of(self, p: Permutation) -> int:
        if p in self:
            return self._index[self._kernel.key(p.images)]
        raise KeyError(f"{p.cycle_str()} is not an element of this group")

    def __contains__(self, p: Permutation) -> bool:
        return len(p.images) == self.degree and self._kernel.key(p.images) in self._index

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
                for c in self.products(a, seeds):
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

        One classification pass: it finds the classes, reads each element
        order off the representative's cycle type, and walks the powers of
        each representative once for the rationality flag (stopping at the
        first failing class) and, for a rational group, the cyclic classes.
        """
        if self._classes is None:
            tmp = [-1] * self.order
            raw: list[tuple[int, int, int, list[int]]] = []
            index, images = self._index, self._images
            _, pad, compose, _ = self._kernel
            # g y g^-1 sends point i to g[y[g^-1[i]]]: compose(compose(g^-1, pad(y)), pad(g))
            conj = [(images[self._inverse[g]], pad(images[g])) for g in self.generator_indices]
            one = self.identity_index
            for x in range(self.order):
                if tmp[x] >= 0:
                    continue
                cid = len(raw)
                tmp[x] = cid
                members = [x]
                queue = [x]
                while queue:
                    y = pad(images[queue.pop()])
                    for ginv, gp in conj:
                        z = index[compose(compose(ginv, y), gp)]
                        if tmp[z] < 0:
                            tmp[z] = cid
                            members.append(z)
                            queue.append(z)
                members.sort()
                # x is the least member: every smaller index is already classified
                order = math.lcm(*map(len, self.elements[x].cycles()))
                raw.append((order, len(members), x, members))
            raw.sort()
            classes = tuple(
                ConjugacyClass(representative=x, members=tuple(m), size=n, element_order=o)
                for o, n, x, m in raw
            )
            class_of = [-1] * self.order
            for ci, cl in enumerate(classes):
                for x in cl.members:
                    class_of[x] = ci
            # rational: x ~ x^t for every t prime to ord(x)
            walks: list[list[int]] = []
            for ci, cl in enumerate(classes):
                powers, y = [one], cl.representative
                while y != one:
                    powers.append(y)
                    y = self.mul(y, cl.representative)
                if any(class_of[y] != ci for t, y in enumerate(powers)
                       if math.gcd(t, cl.element_order) == 1):
                    break
                walks.append(powers)
            self._class_of = tuple(class_of)
            self._rational = rational = len(walks) == len(classes)
            self._cyclic = tuple(
                CyclicClass(
                    generator=cl.representative,
                    subgroup_order=cl.element_order,
                    subgroup_elements=tuple(sorted(powers)),
                    member_class_profile=dict(Counter(class_of[y] for y in powers)),
                )
                for cl, powers in zip(classes, walks)
            ) if rational else ()
            self._classes = classes
        return self._classes

    def class_of(self, x: int) -> int:
        return self.class_indices()[x]

    def class_indices(self) -> tuple[int, ...]:
        """Conjugacy-class index of every element, by element index; read it
        once where a loop looks up many classes."""
        self._classified()
        return self._class_of

    def _classified(self) -> tuple[ConjugacyClass, ...]:
        """The classes, classifying on first use only, so that calls of
        conjugacy_classes count classification passes, not lookups."""
        return self._classes if self._classes is not None else self.conjugacy_classes()

    def is_rational_group(self) -> bool:
        """Power-map test: every x is conjugate to x^k for all k coprime to ord(x).

        Equivalent to all irreducible characters taking rational values.
        """
        self._classified()
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
        self._classified()
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
        coset_of = [-1] * self.order
        reps: list[int] = []
        for x in range(self.order):
            if coset_of[x] >= 0:
                continue
            c = len(reps)
            reps.append(x)
            for y in self.products(x, H):
                coset_of[y] = c
        act = CosetAction(self, tuple(reps), tuple(coset_of))
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
        return Counter(map(self.class_indices().__getitem__, elems)), len(elems)

    def _burnside_count(self, pa: Mapping[int, int], na: int,
                        pb: Mapping[int, int], nb: int) -> int:
        """#(A\\G/B) from the class profiles and orders of A and B.

        Burnside's lemma for A x B acting on G by g -> a g b^-1: the pair
        (a, b) fixes |C_G(a)| = |G|/|class(a)| elements when a ~ b and
        none otherwise.
        """
        classes = self._classified()
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


def group_from_generators(gens: Sequence[Permutation], cap: int = DEFAULT_CAP) -> PermGroup:
    """Breadth-first closure of the generators into a PermGroup."""
    return PermGroup(gens, cap=cap)
