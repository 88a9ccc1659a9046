"""Prym dimensions of tame Galois covers with rational-character group.

Branch data is a count R_k of branch points per nontrivial cyclic class
(conjugacy class of cyclic inertia subgroups). Riemann-Hurwitz gives the
genus of every quotient curve X/H_i,

    g_i = 1 + [G:H_i](g-1) + sum_k ([G:H_i] - #(H_k\\G/H_i)) R_k / 2,

and ``_riemann_hurwitz`` computes it for ``genus_quotient`` and
``genus_total``: the total space is X/H_0 for the trivial class
H_0 = {1}, where #(H_k\\G/H_0) = |G|/|H_k| turns the sum into deg(R)/2.
Inversion maps H_k g H_i onto H_i g^-1 H_k, so the double-coset matrix
is symmetric and its row i holds every #(H_k\\G/H_i). The ramification
degrees of all quotients thus come from one vector, [G:H_i] R - w_i with
R = sum_k R_k and w the R_k-weighted sum of the rows k of that matrix
over the spec's branch classes; ``_genus_fault`` names a parity or sign
failure for ``validate`` and the one-quantity functions alike. The
quotient genera determine the isotypic dimensions dim V_j through the
invertible fixed-subspace dimension matrix. The same dimensions also
come out of the closed form

    dim V_j = (dim rho_j)(g-1) + sum_k (dim rho_j - dim rho_j^{H_k}) R_k / 2

for nontrivial irreps (dim V_1 = g for the trivial one), which
``prym_dim_formula`` sums for the one irrep asked. ``validate`` forms
it doubled for every irrep at once: with w the R_k-weighted sum of the
fixed-dim rows k, 2 dim V_j = (dim rho_j)(2g - 2 + R) - w_j.

All arithmetic is in integers. ``validate`` forms its vectors on packed
rows, in ``exactla``'s lane format (see its module docstring): each row
it weights by R_k, every double-coset row and every fixed-dim row, and
the index and degree vectors are packed once per group with one lane per
cyclic class or irrep, and kept with the group. A vector is then a
handful of big-int operations for any n: the weighted sums are one
multiply-add per branch class, every parity is one AND with the lane
ones, and each vector is read back once. No lane of any of these vectors
exceeds (2g + 2R + 4)|G| in absolute value, so the rows are packed at
``exactla.lane_width`` of twice that bound, a bit to spare: 64 bits
until the bound reaches 2^62, which unbounded counts and genera allow,
and each wider width packed on first use.

The fixed-dim matrix A is certified once per group by its nonzero
determinant, so A x = g has exactly one solution. ``validate`` hands
its doubled closed form to ``exactla.solve`` as the candidate over
d = 2: one exact packed product A (2x) == 2 g accepts it as the solve's
answer, half-integral or not, so both routes agree, their dimensions
halved once, and the solve's NonIntegerSolution text comes from the
same fractions. Only a failed
check takes an elimination, whose dimensions or NonIntegerSolution text
are then reported beside the closed form's. ``isotypic_dims_solve``,
the reference route, takes every genus from ``genus_quotient``, row by
row with no packing, and always eliminates: one Bareiss pass over
[A | g] gives the numerators over d = det A. An index outside 0..n-1,
negative ones included, raises IndexError.
"""

from __future__ import annotations

import random
import weakref
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from . import exactla
from .chartable import CharacterTable, character_table, fixed_dim_matrix
from .errors import (
    NegativeGenus,
    NonIntegerDimension,
    NonIntegerSolution,
    NotRationalGroup,
    OddRamificationDegree,
)
from .permgroup import PermGroup, _Record

# Diagnostics that say the branch data belongs to no cover. The others
# (MethodDisagreement, DimensionSum, TrivialDimension) are identities that
# hold for any branch data, so reporting one of them is a fault of the program.
BRANCH_DATA_DIAGNOSTICS = (
    "OddRamificationDegree",
    "NegativeGenus",
    "NonIntegerSolution",
    "NonIntegerDimension",
    "NegativeDimension",
)

# sample_cover_specs draws base genera and per-class branch counts up to these.
SAMPLE_MAX_GENUS = 5
SAMPLE_MAX_COUNT = 10

# each group's packed rows by width, dropped with their group
_packed: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class RamificationSpec(_Record):
    """Branch-point counts keyed by nontrivial cyclic-class index; zero
    counts are dropped."""

    __slots__ = _fields = ("counts",)

    def __init__(self, counts: Mapping[int, int]):
        for k, v in counts.items():
            if type(k) is not int or type(v) is not int:
                raise ValueError(f"ramification key {k!r} and count {v!r} must both be int")
            if v < 0:
                raise ValueError("branch-point counts must be nonnegative")
        object.__setattr__(self, "counts", {k: v for k, v in counts.items() if v})

    def count(self, k: int) -> int:
        return self.counts.get(k, 0)


class CoverSpec(_Record):
    """Base genus plus branch data over a fixed rational-character group."""

    __slots__ = _fields = ("group", "base_genus", "ramification")

    def __init__(self, group: PermGroup, base_genus: int, ramification: RamificationSpec):
        if type(base_genus) is not int or base_genus < 0:
            raise ValueError(f"base genus {base_genus!r} is not a nonnegative int")
        if not group.is_rational_group():
            raise NotRationalGroup("cover group must have rational characters")
        n = len(group.cyclic_subgroup_classes())
        for k in ramification.counts:
            if not 1 <= k < n:
                raise ValueError(f"ramification key {k} is not a nontrivial cyclic class")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "base_genus", base_genus)
        object.__setattr__(self, "ramification", ramification)


class DimensionReport(NamedTuple):
    """Genera, per-irrep Prym dimensions, and validation diagnostics."""

    g_total: int | None
    quotient_genera: tuple
    dims: tuple[int, ...] | None
    dims_closed_form: tuple[int, ...] | None
    method_agreement: bool
    diagnostics: tuple[str, ...]


def _genus_fault(
    i: int | None, ram: int, genus: int
) -> OddRamificationDegree | NegativeGenus | None:
    """What is wrong with the genus of X/H_i from its ramification degree
    ram, or None; i is None for the total space X = X/H_0, which only
    changes the names in the parity and sign texts."""
    if ram % 2:
        name = "total" if i is None else f"quotient H{i + 1}"
        return OddRamificationDegree(f"{name} ramification degree {ram} is odd")
    if genus < 0:
        name = "total-space" if i is None else f"quotient H{i + 1}"
        return NegativeGenus(f"{name} genus {genus} is negative")
    return None


def _riemann_hurwitz(spec: CoverSpec, i: int | None, index: int, ram: int) -> int:
    """Genus of X/H_i, H_i of the given index, from its ramification degree
    ram; i is None for the total space. Raises the fault it has."""
    g_h = 1 + index * (spec.base_genus - 1) + ram // 2
    fault = _genus_fault(i, ram, g_h)
    if fault is not None:
        raise fault
    return g_h


def _ramification(spec: CoverSpec, index: int, dc: Sequence[int]) -> int:
    """Ramification degree of X -> X/H for H of the given index, dc[k]
    being #(H_k\\G/H): one term per branch class."""
    return sum((index - dc[k]) * r for k, r in spec.ramification.counts.items())


class _Lanes(NamedTuple):
    """A group's rows that ``validate`` weights by R_k, packed at one width:
    ``cosets[k]`` row k of the double-coset matrix (lane i #(H_k\\G/H_i)),
    ``fixed[k]`` row k of the fixed-dim matrix (lane j dim rho_j^{H_k}),
    ``index`` the indices [G:H_i] and ``degrees`` the irrep degrees."""

    kernel: exactla.LaneKernel
    cosets: tuple[int, ...]
    fixed: tuple[int, ...]
    index: int
    degrees: int


def _lanes(
    spec: CoverSpec, table: CharacterTable, fdm: exactla.Nonsingular
) -> tuple[_Lanes, int]:
    """The spec's group's packed rows at the width its lanes need, with
    R = sum_k R_k.

    Every lane of every vector formed from them is at most
    (2g + 2R + 4)|G| in absolute value, since each index, double-coset
    count, degree and fixed dimension is at most |G|; the lanes are wide
    enough for twice that bound. ``table`` and ``fdm`` are the group's;
    the rows are packed on the first spec that needs their width and kept
    with the group."""
    G = spec.group
    points = sum(spec.ramification.counts.values())
    width = exactla.lane_width(2 * (2 * spec.base_genus + 2 * points + 4) * G.order)
    packed = _packed.setdefault(G, {})
    if width not in packed:
        packed[width] = _pack_lanes(G, table, fdm, width)
    return packed[width], points


def _pack_lanes(G: PermGroup, table: CharacterTable, fdm: exactla.Nonsingular,
                width: int) -> _Lanes:
    cyclic = G.cyclic_subgroup_classes()
    kernel = exactla.lanes(len(cyclic), width)
    return _Lanes(
        kernel,
        cosets=tuple(map(kernel.pack, G.double_coset_matrix())),
        fixed=tuple(map(kernel.pack, fdm.rows)),
        index=kernel.pack([G.order // K.subgroup_order for K in cyclic]),
        degrees=kernel.pack(table.degrees),
    )


def _weighted(rows: Sequence[int], counts: Mapping[int, int]) -> int:
    """sum_k R_k rows[k] over the branch classes k, R_k = counts[k]."""
    return sum(map(mul, counts.values(), map(rows.__getitem__, counts)))


def genus_total(spec: CoverSpec) -> int:
    """Genus of the total space X = X/H_0, H_0 the trivial subgroup."""
    G = spec.group
    ram = _ramification(spec, G.order, G.double_coset_matrix()[0])
    return _riemann_hurwitz(spec, None, G.order, ram)


def genus_quotient(spec: CoverSpec, i: int) -> int:
    """Genus of the quotient X/H_i for the i-th cyclic class."""
    G = spec.group
    cyclic = G.cyclic_subgroup_classes()
    if not 0 <= i < len(cyclic):
        raise IndexError(f"cyclic class index {i} is not in 0..{len(cyclic) - 1}")
    index = G.order // cyclic[i].subgroup_order
    ram = _ramification(spec, index, G.double_coset_matrix()[i])
    return _riemann_hurwitz(spec, i, index, ram)


def _exact(y: Sequence[int], d: int) -> tuple[int, ...] | None:
    """y / d as integers, or None when d does not divide every y_i."""
    if any(v % d for v in y):
        return None
    return tuple(v // d for v in y)


def _non_integer(y: Sequence[int], d: int) -> NonIntegerSolution:
    from fractions import Fraction  # only for the diagnostic text

    return NonIntegerSolution(
        f"isotypic dimensions are not integers: {[Fraction(v, d) for v in y]}")


def isotypic_dims_solve(spec: CoverSpec) -> tuple[int, ...]:
    """Isotypic dimensions from the linear system over all quotient genera,
    each from ``genus_quotient``; raises the first quotient's fault."""
    n = len(spec.group.cyclic_subgroup_classes())
    genera = [genus_quotient(spec, i) for i in range(n)]
    y, d = exactla.solve(fixed_dim_matrix(spec.group), genera)
    dims = _exact(y, d)
    if dims is None:
        raise _non_integer(y, d)
    return dims


def _closed_form_doubled(
    spec: CoverSpec, table: CharacterTable, fdm: exactla.Nonsingular
) -> list[int]:
    """2 dim V_j by the closed form for every irrep j at once: with R =
    sum_k R_k and w the R_k-weighted sum of the fixed-dim rows k,

        2 deg_j (g - 1) + sum_k (deg_j - rows[k][j]) R_k = deg_j (2g - 2 + R) - w_j,

    formed on the packed rows and read back once, and 2g for the trivial
    irrep."""
    lanes, points = _lanes(spec, table, fdm)
    g = spec.base_genus
    twice = lanes.kernel.read(
        (2 * g - 2 + points) * lanes.degrees - _weighted(lanes.fixed, spec.ramification.counts)
    )
    twice[0] = 2 * g
    return twice


def _odd_dimension(twice: int) -> NonIntegerDimension:
    return NonIntegerDimension(f"closed-form dimension {twice}/2 is not an integer")


def _halve(twice: int) -> int:
    if twice % 2:
        raise _odd_dimension(twice)
    return twice // 2


def prym_dim_formula(spec: CoverSpec, j: int) -> int:
    """Closed-form dimension of the j-th isotypic piece (= g for the trivial
    irrep, j = 0)."""
    G = spec.group
    table = character_table(G)
    if not 0 <= j < table.n:
        raise IndexError(f"irrep index {j} is not in 0..{table.n - 1}")
    g = spec.base_genus
    if j == 0:
        return g
    deg = table.degrees[j]
    rows = fixed_dim_matrix(G).rows
    twice = 2 * deg * (g - 1)
    for k, r in spec.ramification.counts.items():
        twice += (deg - rows[k][j]) * r
    return _halve(twice)


def _diagnostic(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def validate(spec: CoverSpec) -> DimensionReport:
    """Run the whole pipeline, collecting failures as diagnostics.

    Parity and nonnegativity violations mean the branch data corresponds
    to no actual cover; they are reported rather than raised so callers
    can show all of them at once.
    """
    G = spec.group
    table = character_table(G)
    fdm = fixed_dim_matrix(G)
    diags: list[str] = []

    # the ramification degree of X/H_i is [G:H_i] R - w_i, w the
    # R_k-weighted sum of the rows k of the symmetric double-coset matrix;
    # no lane of it is negative, so one AND with the lane ones leaves each
    # lane's parity, and taking the parities off halves every lane
    # exactly: the genus 1 + [G:H_i](g - 1) + floor(ram_i / 2) of every
    # quotient is read back at once
    lanes, points = _lanes(spec, table, fdm)
    kernel = lanes.kernel
    ram = points * lanes.index - _weighted(lanes.cosets, spec.ramification.counts)
    odd = ram & kernel.ones
    genera = kernel.read(kernel.ones + (spec.base_genus - 1) * lanes.index + ((ram - odd) >> 1))
    g_total = genera[0]
    bad = []
    if odd or min(genera) < 0:
        rams = kernel.read(ram)
        bad = [i for i, (r, g_h) in enumerate(zip(rams, genera)) if r % 2 or g_h < 0]
        # no cover has this branch data; the total space X = X/H_0 has the
        # degree and genus of H_0's quotient, under its own names, first
        if bad[0] == 0:
            diags.append(_diagnostic(_genus_fault(None, rams[0], g_total)))
            g_total = None
        for i in bad:
            diags.append(_diagnostic(_genus_fault(i, rams[i], genera[i])))
            genera[i] = None
    twice = _closed_form_doubled(spec, table, fdm)
    closed = _exact(twice, 2)
    dims: tuple[int, ...] | None = None
    if not bad:
        # the doubled closed form is the solve's candidate: only a failed
        # check A (2x) == 2 genera pays for an elimination, and only its
        # numerators need dividing, an accepted candidate's halves being
        # the closed form's
        y, d = exactla.solve(fdm, genera, (twice, 2))
        dims = closed if d == 2 and y == twice else _exact(y, d)
        if dims is None:
            diags.append(_diagnostic(_non_integer(y, d)))
    if closed is None:
        diags.append(_diagnostic(_odd_dimension(next(v for v in twice if v % 2))))

    agreement = dims is not None and closed is not None and dims == closed
    if dims is not None and closed is not None and dims != closed:
        diags.append(f"MethodDisagreement: solver {dims} != closed form {closed}")

    final = dims if dims is not None else closed
    if final is not None:
        if min(final) < 0:
            diags.append(f"NegativeDimension: {final}")
        if final[0] != spec.base_genus:
            diags.append(
                "TrivialDimension: trivial isotypic dimension "
                f"{final[0]} != base genus {spec.base_genus}"
            )
        if g_total is not None:
            weighted = sum(map(mul, table.degrees, final))
            if weighted != g_total:
                diags.append(
                    f"DimensionSum: sum(deg_j * dim V_j) = {weighted} != g_X = {g_total}"
                )

    return DimensionReport(
        g_total=g_total,
        quotient_genera=tuple(genera),
        dims=dims,
        dims_closed_form=closed,
        method_agreement=agreement,
        diagnostics=tuple(diags),
    )


def sample_cover_specs(
    G: PermGroup, count: int, rng: random.Random
) -> list[tuple[CoverSpec, DimensionReport]]:
    """Deterministically sample cover specs whose branch data is realizable,
    each with the ``validate`` report that admitted it.

    A spec is rejected only for a diagnostic in ``BRANCH_DATA_DIAGNOSTICS``,
    so a spec on which the two routes disagree is kept, with its report,
    for the caller to catch. Half the attempts round all branch counts
    down to even numbers (always parity-clean for positive base genus),
    the rest stay raw so odd counts that happen to satisfy all parity
    constraints appear too.
    """
    cyclic = G.cyclic_subgroup_classes()
    nontrivial = range(1, len(cyclic))
    out: list[tuple[CoverSpec, DimensionReport]] = []
    while len(out) < count:
        g = rng.randint(0, SAMPLE_MAX_GENUS)
        counts = {}
        for k in nontrivial:
            if rng.random() < 0.5:
                continue
            c = rng.randint(0, SAMPLE_MAX_COUNT)
            if c:
                counts[k] = c
        if rng.random() < 0.5:
            counts = {k: c - (c % 2) for k, c in counts.items() if c >= 2}
        spec = CoverSpec(G, g, RamificationSpec(counts))
        report = validate(spec)
        if not any(d.split(":", 1)[0] in BRANCH_DATA_DIAGNOSTICS for d in report.diagnostics):
            out.append((spec, report))
    return out
