"""Fully enumerated permutation groups.

Every group is realized concretely: elements are permutations of
``{0..n-1}``, the whole group is closed from its generators, and an
element is identified by its index into the table of image sequences
sorted lexicographically (so index 0 is the identity). One loop,
``_close``, does every closure: it builds the span of each new
generator as a union of cosets of the span before it (Dimino's
algorithm), and it stops before the coset that would bring the span to
a size limit. There are three limits: cap + 1 for a group (so an order
equal to the cap passes); |G|//2 + 1 for the span of some elements,
since a subgroup of more than |G|/2 elements is G; and |S| + 1 for the
test whether a set S of elements is a subgroup, since the span of S
contains S and so equals it exactly when it stops short of |S| + 1.
Those questions reach ``_close`` through ``PermGroup._span``, which
raises IndexError for an element index outside 0..|G|-1 before it reads
any image; a span's images are mapped to indices only once it is
complete, and only when the caller needs them. The test whether some
elements generate G enumerates no span: ``_chain_order`` grows a
stabilizer chain of them by deterministic Schreier-Sims, reading point
images only, until the product of its basic orbit lengths, a lower
bound on the order of their span, passes |G|/2, or until the chain is
complete and the product is that order. ``generates_group`` asks the
same of permutations and a known group order, with no group built.

For degree n <= 256 each element's images are stored as ``bytes``, and
every composition is one ``bytes.translate`` call: with ``a`` padded
once to a 256-byte table, ``b.translate(a + tail)`` is a*b (b applied
first). Inverses are ``bytes.maketrans(t, identity)[:n]``, computed on
demand by ``PermGroup.inv``; no inverse table is kept. Sorted
``bytes`` of equal length are in the same order as the tuples of their
values, so element indices do not depend on the store. Above degree 256
the images stay tuples of ints, composed by ``map``; only the kernel
returned by ``_kernel`` tells the two stores apart. ``PermGroup.elements``
is a view that builds a ``Permutation`` only for the index it is asked
for, so no per-element object is kept.

Conjugacy classes are found by direct counting in one classification
pass; element orders come from each representative's cycle type, and
the rationality test and the cyclic-subgroup classes share one walk of
the powers rep^t per class, so no power list is stored. A coset action
stores only the coset of each element; an element acts on it through a
row of element indices, so counting orbits is list indexing with no
composition. The monodromy oracle counts #(<g>\\G/H) for a cyclic H =
<h> with no walk when gcd(ord(g), |H|) = 1, as |G|/(ord(g) |H|), since
<g> then acts freely (Lagrange), and otherwise walks the smaller side.
Both sides are labelled one way, ``CosetAction.of_cycles``, as the
cycles of a row: the left cosets xH are the cycles of h's
right-multiplication row (``right_row``, row[y] the index of y*h), on
which <g> acts through its left-multiplication row (``left_row``, row[y]
the index of g*y), and the right cosets <g>y are the cycles of g's left
row, on which H acts through h's right row. One right row per
generator, built on first use, also gives H itself, the identity's
cycle, so that route closes no span and tests no subgroup;
``coset_action`` closes and labels the left cosets of any subgroup. A
left row takes no composition: it is read off a breadth-first Schreier
tree of G, built once per group from the right rows of the generators,
since x*(y*s) = (x*y)*s along each tree edge y -> y*s. Nor does a right
row: y*h = (h^-1 * y^-1)^-1 is read through the left row of h^-1 and the
inverse row, built once per group along the same tree.
Double cosets are counted from class data alone, by Burnside's lemma,

    #(A\\G/B) = |G|/(|A||B|) * sum_c pA[c] pB[c] / |c|,

where pA[c] is the number of elements of A in class c. Every quantity is
exact and reproducible across runs.

``mul``, ``inv``, ``class_of``, ``element_order``, ``left_row``,
``right_row`` and ``generates`` check an element index by the same rule
as ``_span``.
The records here are ``typing.NamedTuple``s (copy one with ``_replace``,
not ``dataclasses.replace``), except ``Permutation``, which validates its
images on the ``_Record`` base.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import repeat
from typing import NamedTuple

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
# largest degree whose images fit in bytes and compose by bytes.translate
BYTE_DEGREE = 256

_CYCLES_RE = re.compile(r"\s*(?:\([^()]*\)\s*)+")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class _Record:
    """Base of the records that are not NamedTuples, because they validate
    their fields or cache more than their fields: ``__init__`` checks the
    fields and sets each name of ``_fields`` once, with
    ``object.__setattr__``. A record compares, hashes and prints field by
    field, like a frozen dataclass, and any later assignment or deletion
    raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Permutation(_Record):
    """A bijection of {0..n-1}, stored as its tuple of images."""

    __slots__ = _fields = ("images",)

    def __init__(self, images: tuple[int, ...]):
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ParseError(f"not a bijection on 0..{n - 1}: {images!r}")
        object.__setattr__(self, "images", images)

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

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: apply ``other`` first, then ``self``."""
        if len(self.images) != len(other.images):
            raise DegreeMismatch("cannot compose permutations of different degree")
        return Permutation(tuple(map(self.images.__getitem__, other.images)))

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


def parse_permutation(text: str) -> Permutation:
    """Parse either cycle notation or a one-line image array."""
    s = text.strip()
    if s.startswith("("):
        return Permutation.from_cycles(s)
    toks = s.strip("[]").replace(",", " ").split()
    if not toks:
        raise ParseError(f"empty permutation text: {text!r}")
    _check_degree(len(toks), repr(text))
    try:
        images = [int(t) for t in toks]
    except ValueError as exc:
        raise ParseError(f"bad image array: {text!r}") from exc
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


class ConjugacyClass(NamedTuple):
    """A conjugacy class: its least member is the representative, and
    ``element_order`` is the lcm of the representative's cycle lengths."""

    representative: int
    members: tuple[int, ...]
    size: int
    element_order: int


class CyclicClass(NamedTuple):
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


class CosetAction(NamedTuple):
    """Action of a group element on a partition of G into cosets.

    ``cosets`` holds the least element index of each coset, in increasing
    order; ``coset_of[x]`` is the coset index of element ``x``. An element
    acts through a row of element indices that maps cosets to cosets: it
    sends coset j to ``coset_of[row[cosets[j]]]``. The monodromy oracle
    walks both sides of a double-coset count #(<g>\\G/H) with it, and
    labels both coset spaces of a cyclic group the same way
    (``of_cycles``), as the cycles of a row:
    - the left cosets x<h> are the cycles of h's right-multiplication
      row, ``row[y]`` the index of y*h (``PermGroup.right_row``), and g
      acts on them through its left-multiplication row, ``row[y]`` the
      index of g*y (``PermGroup.left_row``, read off the group's
      Schreier tree);
    - the right cosets <g>y are the cycles of g's left row, and h acts on
      them through its right row.
    ``PermGroup.coset_action`` labels the left cosets of any subgroup,
    closed from its elements. Both counts are element arithmetic; the
    dimension pipeline counts double cosets from class data instead
    (``PermGroup.double_coset_matrix``), so the two stay independent.
    """

    cosets: tuple[int, ...]
    coset_of: tuple[int, ...]

    @classmethod
    def of_cycles(cls, row: Sequence[int]) -> "CosetAction":
        """The cycles of a row of element indices (a permutation of
        0..|G|-1), numbered by least member: one pass, since the first
        unlabelled index is the least member of its cycle."""
        coset_of = [-1] * len(row)
        reps: list[int] = []
        for y in range(len(row)):
            if coset_of[y] < 0:
                c = len(reps)
                reps.append(y)
                coset_of[y], z = c, row[y]
                while z != y:  # the cycle through y closes at y
                    coset_of[z] = c
                    z = row[z]
        return cls(tuple(reps), tuple(coset_of))

    def cycle_count(self, row: Sequence[int]) -> int:
        """Number of orbits on the cosets of the cyclic group generated by
        the element whose row is ``row``."""
        cosets, coset_of = self.cosets, self.coset_of
        seen = [False] * len(cosets)
        n = 0
        for c in range(len(cosets)):
            if seen[c]:
                continue
            n += 1
            j = coset_of[row[cosets[c]]]
            while j != c:  # the orbit is a cycle closing at c; the loop is past c
                seen[j] = True
                j = coset_of[row[cosets[j]]]
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


def _close(ident, gens: Sequence, pad: Callable, compose: Callable, limit: int) -> list | None:
    """Stored images of the subgroup generated by the stored images
    ``gens``, closed coset by coset (Dimino's algorithm; Butler, LNCS 559,
    ch. 6).

    Each generator g not yet in the span K grows it to <K, g>, a union of
    left cosets x*K. The representatives x = s*r come from
    left-multiplying each representative r found so far, starting from
    the identity, by every generator s so far; a new coset x*K costs
    |K| - 1 compositions with x padded once, as x*1 = x. Returns None
    instead of adding a coset that would bring the span to ``limit``
    elements: cap + 1 for a group, |G|//2 + 1 for a span, and |S| + 1
    for the subgroup test of a set S.
    """
    span, seen, pads = [ident], {ident}, []
    for g in gens:
        if g in seen:
            continue
        pads.append(pad(g))
        rest = span[1:]  # K without the identity, span[0]
        reps = [ident]
        for r in reps:
            for sp in pads:
                x = compose(r, sp)
                if x not in seen:
                    if len(span) + 1 + len(rest) >= limit:
                        return None
                    coset = [x, *map(compose, rest, repeat(pad(x)))]
                    span += coset
                    seen.update(coset)
                    reps.append(x)
    return span


def _chain_order(ident, gens: Sequence, kernel: _Kernel, order: int) -> int:
    """Product of the basic orbit lengths of a stabilizer chain of the
    stored images ``gens``, grown by deterministic Schreier-Sims (Seress,
    *Permutation Group Algorithms*, 4.2) until it passes ``order // 2``.

    ``order`` is the order of a group that contains ``gens``. Level l of
    the chain has a base point b_l moved by its first generator, its
    strong generators (all of them fix b_0..b_{l-1}), the orbit of b_l
    under them with a transversal u and the padded inverses of u, and a
    count per generator of the orbit points whose Schreier generator has
    been tested: the orbit only grows at its end, so the tested pairs of
    (orbit point, generator) are those counts' prefixes. The product is a
    lower bound on |<gens>| at every step, so once it passes
    ``order // 2``, <gens> is the whole group (Lagrange) and the product
    is returned at once. Otherwise the chain is run to completion and the
    product is exactly |<gens>|; so it is for an ``order`` of at least
    2|<gens>|. A first phase sifts, for k = 1..12, the product of g_0,
    g_1, ..., g_k applied in turn, the distinct generators other than the
    identity taken cyclically, to fill the lower levels before the
    Schreier generators are tested; it draws on no random source. A
    product past ``order`` raises AssertionError. Only point images
    ``g[i]`` are read, and every product goes through ``kernel``.
    """
    _, pad, compose, invert = kernel
    half = order // 2
    # per level: base point, generators, padded generators, transversal,
    # padded inverses of the transversal, orbit, tested counts
    bases, strong, pads, trans, invs, orbits, tested = [], [], [], [], [], [], []
    size = 1

    def grow(l: int, h) -> None:
        """Add h to the strong generators of level l (a new level when l is
        one past the last) and close that level's orbit under them."""
        nonlocal size
        if l == len(bases):
            b = next(i for i, x in enumerate(h) if x != i)
            bases.append(b)
            strong.append([])
            pads.append([])
            trans.append({b: ident})
            invs.append({b: pad(ident)})
            orbits.append([b])
            tested.append([])
        gs, ps, u, ui, orbit = strong[l], pads[l], trans[l], invs[l], orbits[l]
        hp = pad(h)
        gs.append(h)
        ps.append(hp)
        tested[l].append(0)
        old = len(orbit)
        k = 0
        while k < len(orbit):  # h on the old points, every generator on new ones
            d = orbit[k]
            for s, sp in zip(gs, ps) if k >= old else ((h, hp),):
                c = s[d]
                if c not in u:
                    u[c] = x = compose(u[d], sp)
                    ui[c] = pad(invert(x))
                    orbit.append(c)
            k += 1
        if len(orbit) > old:
            size = size // old * len(orbit)
            if size > order:
                raise AssertionError(f"orbit product {size} is past the group order {order}")

    def sift(h, l: int):
        """(residue, level it stopped at) of h sifted from level l down."""
        while l < len(bases):
            b = bases[l]
            c = h[b]
            if c != b:
                x = invs[l].get(c)
                if x is None:
                    break
                h = compose(h, x)
            l += 1
        return h, l

    for g in gens:
        if g != ident and not (bases and g in strong[0]):
            grow(0, g)
    if not bases or size > half:
        return size
    w, ps0 = strong[0][0], pads[0]
    for k in range(1, 13):
        w = compose(w, ps0[k % len(ps0)])
        h, j = sift(w, 0)  # j >= 1: orbit 0 is closed under every product
        if h != ident:
            for l in range(1, j + 1):
                grow(l, h)
            if size > half:
                return size
    i = len(bases) - 1
    while i >= 0:
        gs, ps, u, ui, orbit, done = strong[i], pads[i], trans[i], invs[i], orbits[i], tested[i]
        found = None
        for si, sp in enumerate(ps):
            s = gs[si]
            while found is None and done[si] < len(orbit):
                d = orbit[done[si]]
                done[si] += 1
                c = s[d]
                t = compose(u[d], sp)  # s*u_d, which sends b_i to c
                if t != u[c]:
                    h, j = sift(compose(t, ui[c]), i + 1)
                    if h != ident:
                        found = h, j
        if found is None:
            i -= 1
            continue
        h, j = found
        for l in range(i + 1, j + 1):
            grow(l, h)
        if size > half:
            return size
        i = j
    return size


def generates_group(gens: Sequence[Permutation], order: int) -> bool:
    """Whether permutations of one degree that lie in a group of order
    ``order`` generate all of it, with no group built: the Schreier-Sims
    chain of ``PermGroup.generates`` (``_chain_order``) on their point
    images passes ``order // 2``. Raises DegreeMismatch for mixed
    degrees."""
    degree = gens[0].degree() if gens else 1
    if any(g.degree() != degree for g in gens):
        raise DegreeMismatch("cannot test generation by permutations of different degree")
    kernel = _kernel(degree)
    images = [kernel.key(g.images) for g in gens]
    return _chain_order(kernel.key(range(degree)), images, kernel, order) > order // 2


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

        self._kernel = key, pad, compose, _ = _kernel(degree)
        ident = key(range(degree))
        span = _close(ident, [key(g.images) for g in gens], pad, compose, cap + 1)
        if span is None:
            raise CapExceeded(f"group order exceeds cap {cap}")

        imgs = sorted(span)
        self.degree = degree
        self.generators = gens
        self.elements: Sequence[Permutation] = _ElementView(imgs)
        self.order = len(imgs)
        self._images = imgs
        self._index = index = {t: i for i, t in enumerate(imgs)}
        self.identity_index = index[ident]
        if self.identity_index != 0:
            raise AssertionError("identity must be the lexicographically least element")
        self.generator_indices = [index[key(g.images)] for g in gens]
        # set by conjugacy_classes() together with _class_of, _rational, _cyclic
        self._classes: tuple[ConjugacyClass, ...] | None = None
        self._coset_actions: dict[frozenset[int], CosetAction] = {}
        # the monodromy oracle's per-generator caches, filled on first use
        self._right_rows: dict[int, tuple[int, ...]] = {}
        self._cyclic_cosets: dict[int, CosetAction] = {}
        self._tree: list[tuple[int, int, list[int]]] | None = None
        self._inverses: list[int] | None = None
        self._dc_matrix: tuple[tuple[int, ...], ...] | None = None

    # -- element arithmetic -------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        """Index of element i composed with element j (j applied first)."""
        k, images = self._kernel, self._images
        a = images[self._checked(i)]
        return self._index[k.compose(images[self._checked(j)], k.pad(a))]

    def left_row(self, x: int) -> list[int]:
        """Left-multiplication row of element x, ``row[y]`` the index of
        x*y, with no composition: row[0] = x, and x*(y*s) = (x*y)*s along
        each edge (y, y*s, r) of the Schreier tree, r the right row of the
        generator s. The monodromy oracle walks these rows on G/H and
        labels the right cosets <g>y by them."""
        return self._left_row(self._checked(x))

    def _left_row(self, x: int) -> list[int]:
        """``left_row`` of an index already checked, for the rows the group
        reads for itself."""
        row = [0] * self.order
        row[0] = x
        for y, z, r in self._schreier_tree():
            row[z] = r[row[y]]
        return row

    def _inverse_row(self) -> list[int]:
        """``row[y]`` the index of y^-1, with no composition: built on
        first use, once per group, along the Schreier tree, since
        (y*s)^-1 = s^-1 * y^-1 on each edge (y, y*s, r), read off the left
        row of s^-1; s is r[0], the identity's image."""
        if self._inverses is None:
            inverses = [0] * self.order
            lefts: dict[int, list[int]] = {}
            for y, z, r in self._schreier_tree():
                left = lefts.get(r[0])
                if left is None:
                    left = lefts[r[0]] = self._left_row(self.inv(r[0]))
                inverses[z] = left[inverses[y]]
            self._inverses = inverses
        return self._inverses

    def _schreier_tree(self) -> list[tuple[int, int, list[int]]]:
        """Breadth-first spanning tree of G from the identity, grown by
        right multiplication by each distinct generator (Seress,
        *Permutation Group Algorithms*, 4.1): one edge (y, z, r) with z =
        y*s and r the right row of s for every element but the identity.
        Built on first use, once per group; the generators' right rows are
        built by composition and kept in the tree only. A tree that misses
        an element raises AssertionError."""
        if self._tree is None:
            index, images = self._index, self._images
            _, pad, compose, _ = self._kernel
            one = self.identity_index
            rights = [[index[compose(images[s], pad(y))] for y in images]
                      for s in sorted(set(self.generator_indices))]
            seen = [False] * self.order
            seen[one] = True
            reached, tree = [one], []
            for y in reached:
                for r in rights:
                    z = r[y]
                    if not seen[z]:
                        seen[z] = True
                        reached.append(z)
                        tree.append((y, z, r))
            if len(reached) != self.order:
                raise AssertionError(
                    f"the Schreier tree reaches {len(reached)} of {self.order} elements"
                )
            self._tree = tree
        return self._tree

    def inv(self, i: int) -> int:
        """Index of the inverse of element i, computed on demand."""
        return self._index[self._kernel.invert(self._images[self._checked(i)])]

    def element_order(self, x: int) -> int:
        classes = self._classified()
        return classes[self._class_of[self._checked(x)]].element_order

    def index_of(self, p: Permutation) -> int:
        if p in self:
            return self._index[self._kernel.key(p.images)]
        raise KeyError(f"{p.cycle_str()} is not an element of this group")

    def __contains__(self, p: Permutation) -> bool:
        return len(p.images) == self.degree and self._kernel.key(p.images) in self._index

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_str() for g in self.generators) or "-"
        return f"PermGroup(degree={self.degree}, order={self.order}, gens=[{gens}])"

    # -- subgroups ----------------------------------------------------------

    def _checked(self, x: int) -> int:
        """x, once it is known to be an element index: IndexError for any
        value outside 0..|G|-1, negative ones included."""
        if not 0 <= x < self.order:
            raise IndexError(f"element index {x} is not in 0..{self.order - 1}")
        return x

    def _span(self, seeds: Iterable[int], limit: int) -> list | None:
        """``_close`` of the elements with indices ``seeds`` under ``limit``:
        the stored images of their span, or None where it gives up. Raises
        IndexError for an index outside 0..|G|-1, negative ones included,
        before it reads any image."""
        seeds = [self._checked(s) for s in seeds]
        images = self._images
        _, pad, compose, _ = self._kernel
        return _close(images[0], [images[s] for s in seeds], pad, compose, limit)

    def subgroup_closure(self, seeds: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by the given element indices, closed with limit
        |G|//2 + 1; the images found are mapped to indices once, at the end.
        A span of more than |G|/2 elements is G (Lagrange), so the closure
        stops there and G is returned without closing the rest."""
        span = self._span(seeds, self.order // 2 + 1)
        if span is None:
            return frozenset(range(self.order))
        return frozenset(map(self._index.__getitem__, span))

    def generates(self, seeds: Iterable[int]) -> bool:
        """Whether the given element indices generate G: a Schreier-Sims
        chain of the seeds (``_chain_order``), stopped once the product of
        its basic orbit lengths, a lower bound on the order of their span,
        passes |G|/2. It reads point images only: no element is enumerated
        and no class data is read. Raises IndexError for an index outside
        0..|G|-1 before any composition."""
        images = self._images
        seeds = [images[self._checked(s)] for s in seeds]
        return _chain_order(images[0], seeds, self._kernel, self.order) > self.order // 2

    def is_subgroup(self, elems: frozenset[int]) -> bool:
        """Exact test. A set without the identity, or whose size does not
        divide |G|, is no subgroup; a set holding every index is G; any other
        set is closed with its own elements as generators and limit
        |elems| + 1. The span contains ``elems``, so it equals ``elems``
        exactly when the closure does not give up."""
        if self.identity_index not in elems or self.order % len(elems):
            return False
        return (elems.issuperset(range(self.order))
                or self._span(elems, len(elems) + 1) is not None)

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
            _, pad, compose, invert = self._kernel
            # g y g^-1 sends point i to g[y[g^-1[i]]]: compose(compose(g^-1, pad(y)), pad(g))
            conj = [(invert(images[g]), pad(images[g])) for g in self.generator_indices]
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
        return self.class_indices()[self._checked(x)]

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
        """Index of the cyclic class generated by (the class of) x: its class
        index. Raises IndexError for x outside 0..|G|-1."""
        self.cyclic_subgroup_classes()
        return self._class_of[self._checked(x)]

    # -- coset actions and double cosets --------------------------------------

    def coset_action(self, subgroup: Iterable[int]) -> CosetAction:
        """Action on left cosets xH; raises NotASubgroup for non-closed sets."""
        H = frozenset(subgroup)
        cached = self._coset_actions.get(H)
        if cached is not None:
            return cached
        if not self.is_subgroup(H):
            raise NotASubgroup(f"{len(H)} elements do not form a subgroup")
        index, images = self._index, self._images
        _, pad, compose, _ = self._kernel
        h_images = [images[h] for h in H]
        coset_of = [-1] * self.order
        reps: list[int] = []
        for x in range(self.order):
            if coset_of[x] >= 0:
                continue
            c = len(reps)
            reps.append(x)
            xp = pad(images[x])
            for h in h_images:
                coset_of[index[compose(h, xp)]] = c
        act = CosetAction(tuple(reps), tuple(coset_of))
        self._coset_actions[H] = act
        return act

    def right_row(self, h: int) -> tuple[int, ...]:
        """Right-multiplication row of element h, ``row[y]`` the index of
        y*h; built on first use and cached. The monodromy oracle asks for
        the generator h of each cyclic class H it counts on: the
        identity's cycle 0 -> h -> h*h -> ... is H, the row's cycles are
        the left cosets xH (``cyclic_cosets``), and h acts through it on
        the right cosets <g>y of a branch element g. It takes no
        composition: y*h = (h^-1 * y^-1)^-1, so with inv the inverse row
        and L the left row of h^-1, both read off the Schreier tree,
        row[y] = inv[L[inv[y]]]."""
        cached = self._right_rows.get(h)
        if cached is None:
            inv = self._inverse_row()
            left = self._left_row(inv[self._checked(h)])
            cached = self._right_rows[h] = tuple(map(inv.__getitem__, map(left.__getitem__, inv)))
        return cached

    def cyclic_cosets(self, h: int) -> CosetAction:
        """The left cosets x<h> of the cyclic subgroup generated by h: the
        cycles of h's right row (``CosetAction.of_cycles``), labelled on
        first use and cached per h. They equal ``coset_action`` of <h>
        field by field, with no closure and no subgroup test."""
        cached = self._cyclic_cosets.get(h)
        if cached is None:
            cached = self._cyclic_cosets[h] = CosetAction.of_cycles(self.right_row(h))
        return cached

    def _profile(self, x) -> tuple[Mapping[int, int], int]:
        """(class profile, order) of a CyclicClass, of the cyclic subgroup
        generated by an element index, or of a set of element indices;
        raises NotASubgroup for a set that is not a subgroup."""
        if isinstance(x, int):
            x = self.cyclic_subgroup_classes()[self.cyclic_class_of_element(x)]
        if isinstance(x, CyclicClass):
            return x.member_class_profile, x.subgroup_order
        elems = frozenset(x)
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
    """Closure of the generators, coset by coset, into a PermGroup."""
    return PermGroup(gens, cap=cap)
