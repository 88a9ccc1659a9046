"""Weyl groups as permutation groups, with integrable-system presets.

Realizations: A_n permutes n+1 points; B_n/C_n are signed permutations
of n coordinates encoded on 2n points (point i is +e_{i+1}, point n+i is
-e_{i+1}); D_n is the even-sign subgroup on the same points; G_2 and F_4
permute their 12 and 48 roots (F_4 roots doubled to keep coordinates
integral). Each group is closed from two generators, the Coxeter element
and the simple reflection s_{r-2}, where they generate it (every
supported type but D4 and F4), else from the simple reflections; the
classes and every element index do not depend on that choice.

Each group carries the data the branched-cover presets need: the
reflection representation (located in the character table by its trace),
the set of reflections, a Coxeter element, and the long/short reflection
classes for the non-simply-laced types.

The only per-type table is the invariant degrees d_1..d_r; the rest of
the metadata follows from them (Humphreys, Reflection Groups and Coxeter
Groups, 3.9 and 3.18): |W| = prod d_i, the number of reflections is
sum (d_i - 1), the Coxeter number is max d_i and dim g = sum (2 d_i - 1).
The first three are checked against the constructed group.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

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


@dataclass
class WeylGroup:
    """A Weyl group with the metadata the cover presets consume."""

    letter: str
    rank: int
    group: PermGroup
    lie_dim: int
    reflections: tuple[int, ...]
    coxeter: int
    reflection_rep: int
    long_reflection_class: int
    short_reflection_class: int
    coxeter_class: int
    invariant_degrees: tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.letter}{self.rank}"


# -- generators per type -------------------------------------------------------


def _transposition(n: int, i: int, j: int) -> Permutation:
    imgs = list(range(n))
    imgs[i], imgs[j] = imgs[j], imgs[i]
    return Permutation(tuple(imgs))


def _signed_gens(n: int) -> list[Permutation]:
    deg = 2 * n
    gens = []
    for i in range(n - 1):
        imgs = list(range(deg))
        imgs[i], imgs[i + 1] = imgs[i + 1], imgs[i]
        imgs[n + i], imgs[n + i + 1] = imgs[n + i + 1], imgs[n + i]
        gens.append(Permutation(tuple(imgs)))
    imgs = list(range(deg))
    imgs[n - 1], imgs[2 * n - 1] = imgs[2 * n - 1], imgs[n - 1]
    gens.append(Permutation(tuple(imgs)))
    return gens


def _even_signed_gens(n: int) -> list[Permutation]:
    deg = 2 * n
    gens = _signed_gens(n)[:-1]
    imgs = list(range(deg))
    # reflection in e_{n-1} + e_n: e_{n-1} <-> -e_n
    imgs[n - 2], imgs[2 * n - 1] = imgs[2 * n - 1], imgs[n - 2]
    imgs[n - 1], imgs[2 * n - 2] = imgs[2 * n - 2], imgs[n - 1]
    gens.append(Permutation(tuple(imgs)))
    return gens


def _g2_roots() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    short = [
        (1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1), (0, 1, -1), (0, -1, 1),
    ]
    long = [
        (2, -1, -1), (-2, 1, 1), (-1, 2, -1), (1, -2, 1), (-1, -1, 2), (1, 1, -2),
    ]
    simple = [(1, -1, 0), (-1, 2, -1)]
    return sorted(short + long), simple


def _f4_roots() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    roots: list[tuple[int, ...]] = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((2, -2), repeat=2):
            v = [0, 0, 0, 0]
            v[i], v[j] = si, sj
            roots.append(tuple(v))
    for i in range(4):
        for s in (2, -2):
            v = [0, 0, 0, 0]
            v[i] = s
            roots.append(tuple(v))
    roots.extend(itertools.product((1, -1), repeat=4))
    simple = [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)]
    return sorted(roots), simple


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _reflect(v, alpha) -> tuple[int, ...]:
    num = 2 * _dot(v, alpha)
    den = _dot(alpha, alpha)
    if num % den:
        raise AssertionError("Cartan integer of a root pair is not an integer")
    q = num // den
    return tuple(x - q * a for x, a in zip(v, alpha))


def _root_perm(roots, index_of, alpha) -> Permutation:
    return Permutation(tuple(index_of[_reflect(r, alpha)] for r in roots))


# -- reflection-representation traces ------------------------------------------


def _trace_on_cartan(letter: str, rank: int, roots):
    """Return a function mapping an image tuple to its trace on the Cartan."""
    if letter == "A":
        def trace(images):
            return sum(1 for i, v in enumerate(images) if v == i) - 1
        return trace
    if letter in ("B", "C", "D"):
        n = rank
        def trace(images):
            t = 0
            for i in range(n):
                if images[i] == i:
                    t += 1
                elif images[i] == n + i:
                    t -= 1
            return t
        return trace

    # G2/F4: trace(w) = sum_i <w a_i, e_i> / c over roots a_i = c * (projection
    # of the axis e_i onto the span of the roots)
    if letter == "G":  # a_i = 3 e_i - (1, 1, 1)
        c, axes = 3, [(2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
    else:  # doubled coordinates: a_i = 2 e_i
        c, axes = 2, [tuple(2 * (i == j) for j in range(4)) for i in range(4)]
    index_of = {v: i for i, v in enumerate(roots)}
    axis_idx = [index_of[a] for a in axes]

    def trace(images):
        t = sum(roots[images[k]][i] for i, k in enumerate(axis_idx))
        if t % c:
            raise AssertionError(f"trace {t}/{c} on the Cartan is not an integer")
        return t // c

    return trace


# -- construction ---------------------------------------------------------------


def _coxeter_element(simple: list[Permutation]) -> Permutation:
    """s_0 s_1 ... s_{r-1}, the product of the simple reflections."""
    return reduce(operator.mul, simple)


@lru_cache(maxsize=None)
def _closure(simple: tuple[Permutation, ...], order: int) -> PermGroup:
    """W closed from {Coxeter element, s_{r-2}} when that pair generates it
    (from the Coxeter element alone in rank 1), else from the simple
    reflections.

    Closure and classification cost one composition per element and
    generator, so two generators beat r of them. The pair lies in W, so
    it generates W exactly when its closure has order |W| = prod d_i; it
    does for A1-A7, B2-B5 = C2-C5, D5 and G2, not for D4 or F4.

    Cached on the simple reflections, so B_n and C_n, which have the same
    ones, share one group.
    """
    cox = _coxeter_element(simple)
    G = PermGroup([cox] if len(simple) == 1 else [cox, simple[-2]])
    return G if G.order == order else PermGroup(simple)


def _supported(letter: str, rank: int) -> str:
    letter = letter.upper()
    if letter not in SUPPORTED or rank not in SUPPORTED[letter]:
        raise UnsupportedType(f"unsupported Weyl type {letter}{rank}")
    return letter


def weyl_order(letter: str, rank: int) -> int:
    """|W| = prod d_i of a supported type, known before the group is built."""
    return math.prod(_INVARIANT_DEGREES[_supported(letter, rank)](rank))


def _simple_reflections(letter: str, rank: int) -> tuple[list[Permutation], list | None]:
    """The simple reflections of a supported type, with the sorted root
    list they permute for G and F (None for A, B, C and D)."""
    if letter == "A":
        return [_transposition(rank + 1, i, i + 1) for i in range(rank)], None
    if letter in ("B", "C"):
        return _signed_gens(rank), None
    if letter == "D":
        return _even_signed_gens(rank), None
    roots, simple_roots = _g2_roots() if letter == "G" else _f4_roots()
    index_of = {v: i for i, v in enumerate(roots)}
    return [_root_perm(roots, index_of, a) for a in simple_roots], roots


@lru_cache(maxsize=None)
def weyl_group(letter: str, rank: int) -> WeylGroup:
    """Construct a supported Weyl group with verified invariants."""
    letter = _supported(letter, rank)
    simple, roots = _simple_reflections(letter, rank)
    G = _closure(tuple(simple), weyl_order(letter, rank))
    return _weyl_data(letter, rank, G, simple, roots)


def _weyl_data(letter: str, rank: int, G: PermGroup, simple: list[Permutation],
               roots: list | None) -> WeylGroup:
    """Check G, generated by any set, against the invariant degrees and
    locate the preset metadata in it; ``simple`` gives the Coxeter element."""
    degrees = _INVARIANT_DEGREES[letter](rank)
    if G.order != math.prod(degrees):
        raise AssertionError("group order != product of the invariant degrees")
    if not G.is_rational_group():
        raise AssertionError("Weyl groups have rational characters")

    trace = _trace_on_cartan(letter, rank, roots)
    classes = G.conjugacy_classes()
    class_traces = [trace(G.elements[cl.representative].images) for cl in classes]

    table = character_table(G)
    matches = [
        j for j, row in enumerate(table.table) if list(row) == class_traces
    ]
    if len(matches) != 1:
        raise AssertionError("reflection representation not found in the table")
    reflection_rep = matches[0]

    refl_class_idx = [
        ci
        for ci, cl in enumerate(classes)
        if cl.element_order == 2 and class_traces[ci] == rank - 2
    ]
    reflections = tuple(
        sorted(x for ci in refl_class_idx for x in classes[ci].members)
    )
    if len(reflections) != sum(d - 1 for d in degrees):
        raise AssertionError("reflection count != sum of (degree - 1)")

    cox = G.index_of(_coxeter_element(simple))
    if G.element_order(cox) != max(degrees):
        raise AssertionError("Coxeter order != largest invariant degree")

    # cyclic class k is generated by the representative of conjugacy class k
    if len(refl_class_idx) == 1:
        long_cls = short_cls = refl_class_idx[0]
    else:
        if len(refl_class_idx) != 2:
            raise AssertionError("unexpected number of reflection classes")
        a, b = refl_class_idx
        ga = G.elements[classes[a].representative].images
        gb = G.elements[classes[b].representative].images
        if letter in ("B", "C"):
            moved_a = sum(1 for i, v in enumerate(ga) if v != i)
            flips = a if moved_a == 2 else b
            swaps = b if moved_a == 2 else a
            # B: sign flip is the short root e_i; C: it is the long root 2e_i
            long_cls, short_cls = (swaps, flips) if letter == "B" else (flips, swaps)
        else:
            def root_norm(images):
                idx = next(
                    i for i, r in enumerate(roots)
                    if roots[images[i]] == tuple(-x for x in r)
                )
                return _dot(roots[idx], roots[idx])
            long_cls, short_cls = (a, b) if root_norm(ga) > root_norm(gb) else (b, a)

    return WeylGroup(
        letter=letter,
        rank=rank,
        group=G,
        lie_dim=sum(2 * d - 1 for d in degrees),
        reflections=reflections,
        coxeter=cox,
        reflection_rep=reflection_rep,
        long_reflection_class=long_cls,
        short_reflection_class=short_cls,
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
    if total == 0:
        return {}
    if W.long_reflection_class == W.short_reflection_class or split == "long":
        return {W.long_reflection_class: total}
    if split == "short":
        return {W.short_reflection_class: total}
    if split == "even":
        hi = (total + 1) // 2
        counts = {W.long_reflection_class: hi}
        if total - hi:
            counts[W.short_reflection_class] = total - hi
        return counts
    raise ValueError(f"unknown reflection split {split!r}")


def toda_preset(W: WeylGroup, split: str = "long") -> CoverSpec:
    """Cameral cover of P^1 for the periodic lattice system: 2r reflection
    branch points plus two points with Coxeter inertia (z = 0 and infinity)."""
    counts = dict(_reflection_counts(W, 2 * W.rank, split))
    counts[W.coxeter_class] = counts.get(W.coxeter_class, 0) + 2
    return CoverSpec(W.group, 0, RamificationSpec(counts))


def hitchin_preset(W: WeylGroup, genus: int, split: str = "long") -> CoverSpec:
    """Generic cameral cover for the cotangent integrable system on a base
    of genus >= 2: (dim g - r)(2g - 2) simple reflection branch points."""
    if genus < 2:
        raise OutOfRegime("base genus must be at least 2")
    total = (W.lie_dim - W.rank) * (2 * genus - 2)
    return CoverSpec(W.group, genus, RamificationSpec(_reflection_counts(W, total, split)))


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
    counted independently through the invariant-polynomial degrees.

    Untwisted: sum_i h^0(K^{d_i}) = sum_i (2 d_i - 1)(g - 1) for g >= 2.
    Twisted by deg D > 0: sum_i h^0((K(D))^{d_i}) - r deg D, valid while
    every line-bundle degree d_i (2g - 2 + deg D) exceeds 2g - 2.
    """
    r = W.rank
    ds = W.invariant_degrees
    if deg_d == 0:
        if genus < 2:
            raise OutOfRegime("untwisted count needs base genus >= 2")
        return sum((2 * d - 1) * (genus - 1) for d in ds)
    if genus < 0 or 2 * genus - 2 + deg_d <= 0:
        raise OutOfRegime("2g - 2 + deg D must be positive")
    if any(d * (2 * genus - 2 + deg_d) <= 2 * genus - 2 for d in ds):
        raise OutOfRegime("line-bundle degrees too small for Riemann-Roch count")
    h0 = sum(d * (2 * genus - 2 + deg_d) - (genus - 1) for d in ds)
    return h0 - r * deg_d
