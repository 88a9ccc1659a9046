"""Prym dimensions of tame Galois covers with rational-character group.

Branch data is a count R_k of branch points per nontrivial cyclic class
(conjugacy class of cyclic inertia subgroups). Riemann-Hurwitz gives the
genus of the total space and of every intermediate quotient curve,

    g_X = 1 + |G|(g-1) + deg(R)/2,
    g_H = 1 + [G:H](g-1) + sum_k ([G:H] - #(H_k\\G/H)) R_k / 2,

and the quotient genera determine the isotypic dimensions dim V_j
through the invertible fixed-subspace dimension matrix. The same
dimensions also come out of the closed form

    dim V_j = (dim rho_j)(g-1) + sum_k (dim rho_j - dim rho_j^{H_k}) R_k / 2

for nontrivial irreps (dim V_1 = g for the trivial one); both routes are
computed and compared. All arithmetic is in integers. The fixed-dim
matrix is inverted once per group, into its adjugate and determinant, so
each spec's solve is one integer matrix-vector product checked by
A y = det b: numerators over one common denominator. The closed form is
summed doubled, so each route's integrality is one divisibility test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import exactla
from .chartable import FixedDimMatrix, character_table, fixed_dim_matrix
from .errors import (
    NegativeGenus,
    NonIntegerDimension,
    NonIntegerSolution,
    NotRationalGroup,
    OddRamificationDegree,
)
from .permgroup import PermGroup

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


@dataclass(frozen=True)
class RamificationSpec:
    """Branch-point counts keyed by nontrivial cyclic-class index."""

    counts: Mapping[int, int]

    def __post_init__(self):
        clean = {int(k): int(v) for k, v in self.counts.items() if int(v) != 0}
        if any(v < 0 for v in clean.values()):
            raise ValueError("branch-point counts must be nonnegative")
        object.__setattr__(self, "counts", clean)

    def count(self, k: int) -> int:
        return self.counts.get(k, 0)


@dataclass(frozen=True)
class CoverSpec:
    """Base genus plus branch data over a fixed rational-character group."""

    group: PermGroup
    base_genus: int
    ramification: RamificationSpec

    def __post_init__(self):
        if self.base_genus < 0:
            raise ValueError("base genus must be nonnegative")
        if not self.group.is_rational_group():
            raise NotRationalGroup("cover group must have rational characters")
        n = len(self.group.cyclic_subgroup_classes())
        for k in self.ramification.counts:
            if not 1 <= k < n:
                raise ValueError(f"ramification key {k} is not a nontrivial cyclic class")


@dataclass(frozen=True)
class DimensionReport:
    """Genera, per-irrep Prym dimensions, and validation diagnostics."""

    g_total: int | None
    quotient_genera: tuple
    dims: tuple[int, ...] | None
    dims_closed_form: tuple[int, ...] | None
    method_agreement: bool
    diagnostics: tuple[str, ...]


def ramification_degree_total(spec: CoverSpec) -> int:
    """deg(R) = sum_k (|G| - |G|/|H_k|) R_k on the total space."""
    G = spec.group
    cyclic = G.cyclic_subgroup_classes()
    return sum(
        (G.order - G.order // cyclic[k].subgroup_order) * r
        for k, r in spec.ramification.counts.items()
    )


def genus_total(spec: CoverSpec) -> int:
    """Genus of the total space X."""
    deg_r = ramification_degree_total(spec)
    if deg_r % 2:
        raise OddRamificationDegree(f"total ramification degree {deg_r} is odd")
    g_x = 1 + spec.group.order * (spec.base_genus - 1) + deg_r // 2
    if g_x < 0:
        raise NegativeGenus(f"total-space genus {g_x} is negative")
    return g_x


def genus_quotient(spec: CoverSpec, i: int) -> int:
    """Genus of the quotient X/H_i for the i-th cyclic class."""
    G = spec.group
    cyclic = G.cyclic_subgroup_classes()
    index = G.order // cyclic[i].subgroup_order
    dcm = G.double_coset_matrix()
    ram = sum((index - dcm[k][i]) * r for k, r in spec.ramification.counts.items())
    if ram % 2:
        raise OddRamificationDegree(
            f"quotient H{i + 1} ramification degree {ram} is odd"
        )
    g_h = 1 + index * (spec.base_genus - 1) + ram // 2
    if g_h < 0:
        raise NegativeGenus(f"quotient H{i + 1} genus {g_h} is negative")
    return g_h


def _solve_from_genera(fdm: FixedDimMatrix, genera: Sequence[int]) -> tuple[int, ...]:
    y, d = exactla.solve(fdm.inverse, genera)
    if any(v % d for v in y):
        x = [Fraction(v, d) for v in y]
        raise NonIntegerSolution(f"isotypic dimensions are not integers: {x}")
    return tuple(v // d for v in y)


def isotypic_dims_solve(spec: CoverSpec) -> tuple[int, ...]:
    """Isotypic dimensions from the linear system over all quotient genera."""
    G = spec.group
    fdm = fixed_dim_matrix(G)
    genera = [genus_quotient(spec, i) for i in range(fdm.n)]
    return _solve_from_genera(fdm, genera)


def prym_dim_formula(spec: CoverSpec, j: int) -> int:
    """Closed-form dimension of the j-th isotypic piece (= g for trivial j)."""
    G = spec.group
    table = character_table(G)
    fdm = fixed_dim_matrix(G)
    if j == table.trivial_index:
        return spec.base_genus
    deg = table.degrees[j]
    twice = 2 * deg * (spec.base_genus - 1) + sum(
        (deg - fdm.entries[k][j]) * r for k, r in spec.ramification.counts.items()
    )
    if twice % 2:
        raise NonIntegerDimension(f"closed-form dimension {twice}/2 is not an integer")
    return twice // 2


def validate(spec: CoverSpec) -> DimensionReport:
    """Run the whole pipeline, collecting failures as diagnostics.

    Parity and nonnegativity violations mean the branch data corresponds
    to no actual cover; they are reported rather than raised so callers
    can show all of them at once.
    """
    G = spec.group
    table = character_table(G)
    fdm = fixed_dim_matrix(G)
    n = fdm.n
    diags: list[str] = []

    g_total: int | None = None
    try:
        g_total = genus_total(spec)
    except (OddRamificationDegree, NegativeGenus) as exc:
        diags.append(f"{type(exc).__name__}: {exc}")

    genera: list[int | None] = []
    for i in range(n):
        try:
            genera.append(genus_quotient(spec, i))
        except (OddRamificationDegree, NegativeGenus) as exc:
            genera.append(None)
            diags.append(f"{type(exc).__name__}: {exc}")

    dims: tuple[int, ...] | None = None
    if g_total is not None and all(g is not None for g in genera):
        try:
            dims = _solve_from_genera(fdm, [g for g in genera if g is not None])
        except NonIntegerSolution as exc:
            diags.append(f"NonIntegerSolution: {exc}")

    closed: tuple[int, ...] | None = None
    try:
        closed = tuple(prym_dim_formula(spec, j) for j in range(n))
    except NonIntegerDimension as exc:
        diags.append(f"NonIntegerDimension: {exc}")

    agreement = dims is not None and closed is not None and dims == closed
    if dims is not None and closed is not None and dims != closed:
        diags.append(f"MethodDisagreement: solver {dims} != closed form {closed}")

    final = dims if dims is not None else closed
    if final is not None:
        if any(v < 0 for v in final):
            diags.append(f"NegativeDimension: {final}")
        if final[table.trivial_index] != spec.base_genus:
            diags.append(
                "TrivialDimension: trivial isotypic dimension "
                f"{final[table.trivial_index]} != base genus {spec.base_genus}"
            )
        if g_total is not None:
            weighted = sum(d * v for d, v in zip(table.degrees, final))
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


def sample_cover_specs(G: PermGroup, count: int, rng: random.Random) -> list[CoverSpec]:
    """Deterministically sample cover specs whose branch data is realizable.

    A spec is rejected only for a diagnostic in ``BRANCH_DATA_DIAGNOSTICS``,
    so a spec on which the two routes disagree is kept for the caller to
    catch. Half the attempts round all branch counts down to even numbers
    (always parity-clean for positive base genus), the rest stay raw so
    odd counts that happen to satisfy all parity constraints appear too.
    """
    cyclic = G.cyclic_subgroup_classes()
    nontrivial = range(1, len(cyclic))
    out: list[CoverSpec] = []
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
        diags = validate(spec).diagnostics
        if not any(d.split(":", 1)[0] in BRANCH_DATA_DIAGNOSTICS for d in diags):
            out.append(spec)
    return out
