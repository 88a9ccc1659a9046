"""Weyl groups as permutation groups, with integrable-system presets.

Each supported type is data: one ``_realization`` entry gives the
integer point vectors W permutes, its simple roots, and the Cartan axis
points a_i with a divisor c and an offset t. A_n permutes the n+1 unit
vectors; B_n, C_n and D_n permute the 2n vectors +-e_i (point i is
+e_{i+1}, point n+i is -e_{i+1}), and their simple roots differ only in
the last one, e_n, 2e_n or e_{n-1}+e_n; G_2 and F_4 permute their 12
and 48 roots (F_4 roots doubled to keep coordinates integral). One
function reads off every simple reflection by reflecting each point, and
one formula gives the trace on the Cartan: sum_i (w a_i)_i / c - t.
Each group is closed from two generators, the Coxeter element and the
simple reflection s_{r-2}, where they generate it (every supported type
but D4 and F4), else from the simple reflections; the classes and every
element index do not depend on that choice.

Each group carries the data the branched-cover presets need: the
reflection representation (located in the character table by its trace),
the cyclic class of a Coxeter element, and the long/short reflection
classes. Every reflection is conjugate to a simple one (Humphreys,
Reflection Groups and Coxeter Groups, 1.14), so the reflection classes
are the classes of the simple reflections, and which one is long is read
off the simple-root norms.

The only other per-type table is the invariant degrees d_1..d_r; the
rest of the metadata follows from them (Humphreys, 3.9 and 3.18):
|W| = prod d_i, the number of reflections is sum (d_i - 1), the Coxeter
number is max d_i and dim g = sum (2 d_i - 1). The first three are
checked against the constructed group.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache, reduce
from typing import NamedTuple

from .chartable import character_table
from .errors import OutOfRegime, UnsupportedType
from .permgroup import PermGroup, Permutation
from .rhprym import CoverSpec, RamificationSpec

SUPPORTED = {
    "A": range(1, 8),
    "B": range(2, 6),
    "C": range(2, 6),
    "D": range(4, 6),
    "G": (2,),
    "F": (4,),
}

_INVARIANT_DEGREES = {
    "A": lambda n: tuple(range(2, n + 2)),
    "B": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "C": lambda n: tuple(range(2, 2 * n + 1, 2)),
    "D": lambda n: tuple(sorted(tuple(range(2, 2 * n - 1, 2)) + (n,))),
    "G": lambda n: (2, 6),
    "F": lambda n: (2, 6, 8, 12),
}


class WeylGroup(NamedTuple):
    """A Weyl group with the metadata the cover presets consume."""

    letter: str
    rank: int
    group: PermGroup
    lie_dim: int
    reflection_rep: int
    long_reflection_class: int
    short_reflection_class: int
    coxeter_class: int
    invariant_degrees: tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.letter}{self.rank}"


# -- each type as data ---------------------------------------------------------


class _Realization(NamedTuple):
    """Point vectors W permutes (point k is points[k]), its simple roots,
    and the Cartan axis points a_i, with trace(w) = sum_i (w a_i)_i / c - t."""

    points: list[tuple[int, ...]]
    simple_roots: list[tuple[int, ...]]
    axes: list[tuple[int, ...]]
    c: int
    t: int


def _vec(dim: int, entries: dict[int, int]) -> tuple[int, ...]:
    return tuple(entries.get(j, 0) for j in range(dim))


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _reflect(v, alpha) -> tuple[int, ...]:
    num = 2 * _dot(v, alpha)
    den = _dot(alpha, alpha)
    if num % den:
        raise AssertionError("Cartan integer of a root pair is not an integer")
    q = num // den
    return tuple(x - q * a for x, a in zip(v, alpha))


def _realization(letter: str, rank: int) -> _Realization:
    """Points, simple roots and Cartan axes of a supported type."""
    n = rank
    if letter == "A":  # e_1..e_{n+1}; the Cartan is their span minus the trivial line
        points = [_vec(n + 1, {i: 1}) for i in range(n + 1)]
        simple = [_vec(n + 1, {i: 1, i + 1: -1}) for i in range(n)]
        return _Realization(points, simple, points, 1, 1)
    if letter in ("B", "C", "D"):
        points = [_vec(n, {i: s}) for s in (1, -1) for i in range(n)]
        last = {"B": {n - 1: 1}, "C": {n - 1: 2}, "D": {n - 2: 1, n - 1: 1}}[letter]
        simple = [_vec(n, {i: 1, i + 1: -1}) for i in range(n - 1)] + [_vec(n, last)]
        return _Realization(points, simple, points[:n], 1, 0)
    if letter == "G":  # in the plane x + y + z = 0; a_i = 3 e_i - (1, 1, 1)
        points = sorted(
            {p for v in ((1, -1, 0), (2, -1, -1), (-2, 1, 1)) for p in itertools.permutations(v)}
        )
        axes = [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        return _Realization(points, [(1, -1, 0), (-1, 2, -1)], axes, 3, 0)
    # F: doubled coordinates, so a_i = 2 e_i
    points = sorted(
        [v for v in itertools.product((-2, 0, 2), repeat=4) if _dot(v, v) in (4, 8)]
        + list(itertools.product((1, -1), repeat=4))
    )
    simple = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    return _Realization(points, simple, [_vec(4, {i: 2}) for i in range(4)], 2, 0)


def _simple_reflections(real: _Realization) -> list[Permutation]:
    """Each simple reflection, as the permutation it makes of the points."""
    index_of = {v: k for k, v in enumerate(real.points)}
    return [
        Permutation(tuple(index_of[_reflect(p, alpha)] for p in real.points))
        for alpha in real.simple_roots
    ]


# -- construction ---------------------------------------------------------------


def _coxeter_element(simple: list[Permutation]) -> Permutation:
    """s_0 s_1 ... s_{r-1}, the product of the simple reflections."""
    return reduce(operator.mul, simple)


@lru_cache(maxsize=None)
def _closure(simple: tuple[Permutation, ...], order: int) -> PermGroup:
    """W closed from {Coxeter element, s_{r-2}} when that pair generates it
    (from the Coxeter element alone in rank 1), else from the simple
    reflections.

    The classification pass costs one composition per element and
    generator, so two generators beat r of them; the closure, coset by
    coset, costs about one composition per element plus one per coset
    representative and generator. The pair lies in W, so
    it generates W exactly when its closure has order |W| = prod d_i; it
    does for A1-A7, B2-B5 = C2-C5, D5 and G2, not for D4 or F4.

    Cached on the simple reflections, so B_n and C_n, which have the same
    ones, share one group.
    """
    cox = _coxeter_element(simple)
    G = PermGroup([cox] if len(simple) == 1 else [cox, simple[-2]])
    return G if G.order == order else PermGroup(simple)


def _supported(letter: str, rank: int) -> str:
    """The upper-case letter of a supported type, given a str and an int."""
    if type(letter) is str and type(rank) is int:
        letter = letter.upper()
        if rank in SUPPORTED.get(letter, ()):
            return letter
    raise UnsupportedType(f"unsupported Weyl type {letter}{rank}")


def weyl_order(letter: str, rank: int) -> int:
    """|W| = prod d_i of a supported type, known before the group is built."""
    return math.prod(_INVARIANT_DEGREES[_supported(letter, rank)](rank))


def weyl_group(letter: str, rank: int) -> WeylGroup:
    """Construct a supported Weyl group with verified invariants, once per
    type: the letter is normalised before the cache."""
    return _weyl_group(_supported(letter, rank), rank)


@lru_cache(maxsize=None)
def _weyl_group(letter: str, rank: int) -> WeylGroup:
    real = _realization(letter, rank)
    G = _closure(tuple(_simple_reflections(real)), weyl_order(letter, rank))
    return _weyl_data(letter, rank, G, real)


def _weyl_data(letter: str, rank: int, G: PermGroup, real: _Realization) -> WeylGroup:
    """Check G, generated by any set, against the invariant degrees and
    locate the preset metadata in it; ``real`` gives the simple
    reflections, the Cartan trace and the root lengths."""
    degrees = _INVARIANT_DEGREES[letter](rank)
    if G.order != math.prod(degrees):
        raise AssertionError("group order != product of the invariant degrees")
    if not G.is_rational_group():
        raise AssertionError("Weyl groups have rational characters")

    index_of = {v: k for k, v in enumerate(real.points)}
    axes = [index_of[a] for a in real.axes]

    def trace(x: int) -> int:
        images = G.elements[x].images
        t = sum(real.points[images[k]][i] for i, k in enumerate(axes))
        if t % real.c:
            raise AssertionError(f"trace {t}/{real.c} on the Cartan is not an integer")
        return t // real.c - real.t

    classes = G.conjugacy_classes()
    class_traces = [trace(cl.representative) for cl in classes]
    table = character_table(G)
    matches = [
        j for j, row in enumerate(table.table) if list(row) == class_traces
    ]
    if len(matches) != 1:
        raise AssertionError("reflection representation not found in the table")

    # every reflection is conjugate to a simple one; class k generates cyclic class k
    simple = _simple_reflections(real)
    norm_of: dict[int, int] = {}
    for s, alpha in zip(simple, real.simple_roots):
        norm = _dot(alpha, alpha)
        if norm_of.setdefault(G.class_of(G.index_of(s)), norm) != norm:
            raise AssertionError("simple roots of one reflection class differ in norm")
    if any(class_traces[ci] != rank - 2 for ci in norm_of):
        raise AssertionError("a reflection class has trace != rank - 2 on the Cartan")
    if sum(classes[ci].size for ci in norm_of) != sum(d - 1 for d in degrees):
        raise AssertionError("reflection count != sum of (degree - 1)")

    cox = G.index_of(_coxeter_element(simple))
    if G.element_order(cox) != max(degrees):
        raise AssertionError("Coxeter order != largest invariant degree")

    return WeylGroup(
        letter=letter,
        rank=rank,
        group=G,
        lie_dim=sum(2 * d - 1 for d in degrees),
        reflection_rep=matches[0],
        long_reflection_class=max(norm_of, key=norm_of.__getitem__),
        short_reflection_class=min(norm_of, key=norm_of.__getitem__),
        coxeter_class=G.cyclic_class_of_element(cox),
        invariant_degrees=degrees,
    )


def parse_weyl_label(label: str) -> tuple[str, int]:
    """Parse labels like ``A3`` or ``g2`` into (letter, rank)."""
    s = label.strip().upper()
    if len(s) < 2 or s[0] not in SUPPORTED or not s[1:].isdecimal():
        raise UnsupportedType(f"bad Weyl label {label!r}")
    return s[0], int(s[1:])


# -- presets --------------------------------------------------------------------


def _reflection_counts(W: WeylGroup, total: int, split: str) -> dict[int, int]:
    """Place ``total`` reflection branch points; zero counts are dropped by
    RamificationSpec."""
    if split not in ("long", "short", "even"):
        raise ValueError(f"unknown reflection split {split!r}")
    long_k, short_k = W.long_reflection_class, W.short_reflection_class
    if long_k == short_k or split == "long":
        return {long_k: total}
    if split == "short":
        return {short_k: total}
    hi = (total + 1) // 2
    return {long_k: hi, short_k: total - hi}


def toda_preset(W: WeylGroup, split: str = "long") -> CoverSpec:
    """Cameral cover of P^1 for the periodic lattice system: 2r reflection
    branch points plus two points with Coxeter inertia (z = 0 and infinity)."""
    counts = dict(_reflection_counts(W, 2 * W.rank, split))
    counts[W.coxeter_class] = counts.get(W.coxeter_class, 0) + 2
    return CoverSpec(W.group, 0, RamificationSpec(counts))


def hitchin_preset(W: WeylGroup, genus: int, split: str = "long") -> CoverSpec:
    """Generic cameral cover for the cotangent integrable system on a base
    of genus >= 2: (dim g - r)(2g - 2) simple reflection branch points,
    the untwisted ``markman_preset``."""
    if genus < 2:
        raise OutOfRegime("base genus must be at least 2")
    return markman_preset(W, genus, 0, split)


def markman_preset(W: WeylGroup, genus: int, deg_d: int, split: str = "long") -> CoverSpec:
    """Twisted variant: the canonical bundle is twisted by an effective
    divisor D, giving (dim g - r)(2g - 2 + deg D) reflection branch points."""
    if genus < 0:
        raise OutOfRegime("base genus must be nonnegative")
    if deg_d < 0:
        raise OutOfRegime("deg D must be nonnegative")
    if 2 * genus - 2 + deg_d <= 0:
        raise OutOfRegime("2g - 2 + deg D must be positive")
    total = (W.lie_dim - W.rank) * (2 * genus - 2 + deg_d)
    return CoverSpec(W.group, genus, RamificationSpec(_reflection_counts(W, total, split)))


def expected_base_dim(W: WeylGroup, genus: int, deg_d: int = 0) -> int:
    """Dimension of the base of the (possibly twisted) integrable system,
    counted independently through the invariant-polynomial degrees:
    sum_i h^0((K(D))^{d_i}) - r deg D, by Riemann-Roch, since every line
    bundle degree d_i (2g - 2 + deg D) exceeds 2g - 2 once 2g - 2 + deg D
    > 0 (each d_i >= 2). At deg D = 0 this is the untwisted
    sum_i (2 d_i - 1)(g - 1). deg D < 0 is refused with OutOfRegime, as
    in ``markman_preset``, and so is g < 2 when deg D = 0.
    """
    if deg_d < 0:
        raise OutOfRegime("deg D must be nonnegative")
    if deg_d == 0 and genus < 2:
        raise OutOfRegime("untwisted count needs base genus >= 2")
    if genus < 0 or 2 * genus - 2 + deg_d <= 0:
        raise OutOfRegime("2g - 2 + deg D must be positive")
    h0 = sum(d * (2 * genus - 2 + deg_d) - (genus - 1) for d in W.invariant_degrees)
    return h0 - W.rank * deg_d
