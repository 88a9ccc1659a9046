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
``prym_dim_formula`` sums for the one irrep asked. With w the
R_k-weighted sum of the fixed-dim rows k it reads
2 dim V_j = (dim rho_j)(2g - 2) + R dim rho_j - w_j for every
nontrivial irrep, and the trivial one, whose w is R, takes 2 more.

All arithmetic is in integers. ``validate`` forms both routes' inputs
as one vector on packed rows, in ``exactla``'s lane format (see its
module docstring). Each branch class k is one row of 2n lanes, packed
once per group and kept with it: double-coset row k in lanes 0..n-1
beside fixed-dim row k in lanes n..2n-1; beside them the indices
[G:H_i] next to the irrep degrees, and a base of 1 in every genus lane
and in lane n, the trivial irrep's. The one R_k-weighted sum
v = R (indices, degrees) - sum_k R_k rows[k], one multiply-add per
branch class for any n, holds every ramification degree beside every
R dim rho_j - w_j. No lane of v is negative, so one AND with the lane
ones finds every odd lane of both routes, and one read of
base + (g - 1)(indices, degrees) + (v - odd)/2, the halving one shift,
gives every quotient genus beside every closed-form dimension. No lane
of any vector formed this way exceeds (2g + 2R + 4)|G| in absolute
value, so the rows are packed at ``exactla.lane_width`` of twice that
bound, a bit to spare: 64 bits until the bound reaches 2^62, which
unbounded counts and genera allow, and each wider width packed on first
use.

The fixed-dim matrix A is certified once per group by its nonzero
determinant, so A x = g has exactly one solution. On the first spec of
a group ``_lanes`` also certifies three identities of the group, each
as a candidate that ``exactla.solve`` must return as its answer:
(I1) A deg = idx, since sum_j dim rho_j^H deg_j = [G:H]; (I2)
A A[k] = D[k] for every cyclic class k, D the double-coset matrix, by
Mackey's <1_{H_i}^G, 1_{H_k}^G> = #(H_i\\G/H_k); and (I3) A e_0 = 1.
With them, A times the doubled closed form
(2g - 2 + R) deg - sum_k R_k A[k] + 2 e_0 is
2 + 2(g - 1) idx + R idx - sum_k R_k D[k], twice the quotient genera,
whenever every ramification degree is even: the paper's proof, run once
per group instead of once per spec. So ``validate`` reports the closed
form's dimensions as the solution with no solve, and a closed form with
an odd lane, doubled back as twice the read plus the odd bit, gives the
NonIntegerSolution text over d = 2. The same identities give the
trivial dimension g (lane n of v is R - sum_k R_k A[k][0] = 0 by I3) and
sum_j deg_j dim V_j = g_X, row 0 of A being the degrees (I1-I3), so
``validate`` checks neither per spec. A failed identity raises
AssertionError, also under ``python -O``. ``isotypic_dims_solve``, the
reference route, takes every genus from ``genus_quotient``, row by row
with no packing, and always eliminates: one Bareiss pass over [A | g]
gives the numerators over d = det A; ``verify`` compares it with
``validate`` on sampled specs. An index outside 0..n-1, negative ones
included, raises IndexError.
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
    Singular,
)
from .permgroup import PermGroup, _Record

# Diagnostics that say the branch data belongs to no cover, the only ones
# validate reports: the group certificate proves the identities that
# would make any other.
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

# each certified group's packed rows by width, dropped with their group
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
    """A group's rows that ``validate`` weights by R_k, packed at one width
    as 2n lanes, the genus half 0..n-1 beside the closed-form half
    n..2n-1: ``rows[k]`` row k of the double-coset matrix (lane i
    #(H_k\\G/H_i)) beside row k of the fixed-dim matrix (lane n + j
    dim rho_j^{H_k}), ``weights`` the indices [G:H_i] beside the irrep
    degrees, and ``base`` 1 in every genus lane and in lane n, the
    trivial irrep's."""

    kernel: exactla.LaneKernel
    rows: tuple[int, ...]
    weights: int
    base: int


def _lanes(spec: CoverSpec) -> tuple[_Lanes, int]:
    """The spec's group's packed rows at the width its lanes need, with
    R = sum_k R_k.

    Every lane of every vector formed from them is at most
    (2g + 2R + 4)|G| in absolute value, since each index, double-coset
    count, degree and fixed dimension is at most |G|; the lanes are wide
    enough for twice that bound. The group is certified on its first
    spec, and the rows are packed on the first spec that needs their
    width and kept with the group; only then are the character table and
    the fixed-dim matrix looked up."""
    G = spec.group
    points = sum(spec.ramification.counts.values())
    width = exactla.lane_width(2 * (2 * spec.base_genus + 2 * points + 4) * G.order)
    packed = _packed.get(G)
    lanes = None if packed is None else packed.get(width)
    if lanes is None:
        table, fdm = character_table(G), fixed_dim_matrix(G)
        if packed is None:
            _certify(fdm, G.double_coset_matrix(), _indices(G), table.degrees)
            packed = _packed[G] = {}
        lanes = packed[width] = _pack_lanes(G, table, fdm, width)
    return lanes, points


def _indices(G: PermGroup) -> list[int]:
    return [G.order // K.subgroup_order for K in G.cyclic_subgroup_classes()]


def _certify(fdm: exactla.Nonsingular, double_cosets: Sequence[Sequence[int]],
             indices: Sequence[int], degrees: Sequence[int]) -> None:
    """Certify the identities that make the closed form solve A x = genera
    for every spec of a group (module docstring): I1 A deg = idx, I2
    A A[k] = D[k] for every cyclic class k and I3 A e_0 = 1, each an
    ``exactla.solve`` whose answer must be its candidate. Raises
    AssertionError naming the first that fails; rows that are singular,
    whose elimination after a failed candidate raises Singular, fail it
    too."""
    n = len(fdm.rows)
    checks = [("I1: A deg != idx", degrees, indices)]
    checks += ((f"I2: A A[{k}] != D[{k}]", row, dc)
               for k, (row, dc) in enumerate(zip(fdm.rows, double_cosets)))
    checks.append(("I3: A e_0 != 1", [1] + [0] * (n - 1), [1] * n))
    for name, x, b in checks:
        try:
            ok = exactla.solve(fdm, b, (x, 1)) == (list(x), 1)
        except Singular:
            ok = False
        if not ok:
            raise AssertionError(f"group certificate failed: {name}")


def _pack_lanes(G: PermGroup, table: CharacterTable, fdm: exactla.Nonsingular,
                width: int) -> _Lanes:
    n = len(fdm.rows)
    kernel = exactla.lanes(2 * n, width)
    return _Lanes(
        kernel,
        rows=tuple(map(kernel.pack, map(tuple.__add__, G.double_coset_matrix(), fdm.rows))),
        weights=kernel.pack(_indices(G) + list(table.degrees)),
        base=kernel.pack([1] * (n + 1) + [0] * (n - 1)),
    )


def _vector(spec: CoverSpec, lanes: _Lanes, points: int) -> int:
    """v = R weights - sum_k R_k rows[k] over the spec's branch classes k,
    packed, R = ``points``: lane i is the ramification degree
    [G:H_i] R - w_i of X/H_i and lane n + j is R deg_j - w_j, so that
    2 dim V_j = deg_j (2g - 2) + v_{n+j} by the closed form for every
    nontrivial irrep j. No lane is negative."""
    counts = spec.ramification.counts
    weighted = sum(map(mul, counts.values(), map(lanes.rows.__getitem__, counts)))
    return points * lanes.weights - weighted


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
    diags: list[str] = []

    # v holds every ramification degree [G:H_i] R - w_i beside every
    # R deg_j - w_j, none negative, so one AND with the lane ones leaves
    # each lane's parity and taking the parities off halves every lane
    # exactly: one read gives each quotient's genus
    # 1 + [G:H_i](g - 1) + floor(ram_i / 2) beside each closed-form
    # dim V_j = deg_j (g - 1) + floor(v_{n+j} / 2), plus 1 for the trivial
    # irrep, whose v is 0
    lanes, points = _lanes(spec)
    kernel = lanes.kernel
    v = _vector(spec, lanes, points)
    odd = v & kernel.ones
    values = kernel.read(lanes.base + (spec.base_genus - 1) * lanes.weights + ((v - odd) >> 1))
    n = len(lanes.rows)
    genera, closed = values[:n], tuple(values[n:])
    g_total = genera[0]
    bad = []
    twice = None
    if odd or min(genera) < 0:
        v_lanes = kernel.read(v)
        bad = [i for i, (r, g_h) in enumerate(zip(v_lanes, genera)) if r % 2 or g_h < 0]
        if bad:
            # no cover has this branch data; the total space X = X/H_0 has
            # the degree and genus of H_0's quotient, under its own names,
            # first
            if bad[0] == 0:
                diags.append(_diagnostic(_genus_fault(None, v_lanes[0], g_total)))
                g_total = None
            for i in bad:
                diags.append(_diagnostic(_genus_fault(i, v_lanes[i], genera[i])))
                genera[i] = None
        if any(r % 2 for r in v_lanes[n:]):
            # a half-integral closed form, doubled back for its texts
            twice = [2 * h + r % 2 for h, r in zip(closed, v_lanes[n:])]
            closed = None
    # with every ramification degree even the group's certificate makes the
    # closed form, or (twice, 2), the solution of A x = genera
    dims = None if bad else closed
    if twice is not None:
        if not bad:
            diags.append(_diagnostic(_non_integer(twice, 2)))
        diags.append(_diagnostic(_odd_dimension(next(t for t in twice if t % 2))))

    # the certificate also gives closed[0] = g (I3) and, with g_total not
    # None, sum_j deg_j closed_j = g_total (I1-I3)
    if closed is not None and min(closed) < 0:
        diags.append(f"NegativeDimension: {closed}")

    return DimensionReport(
        g_total=g_total,
        quotient_genera=tuple(genera),
        dims=dims,
        dims_closed_form=closed,
        method_agreement=dims is not None,
        diagnostics=tuple(diags),
    )


def sample_cover_specs(
    G: PermGroup, count: int, rng: random.Random
) -> list[tuple[CoverSpec, DimensionReport]]:
    """Deterministically sample cover specs whose branch data is realizable,
    each with the ``validate`` report that admitted it.

    A spec is rejected only for a diagnostic in ``BRANCH_DATA_DIAGNOSTICS``,
    so a spec whose report shows a fault of the program is kept, with its
    report, for the caller to catch. Half the attempts round all branch counts
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
