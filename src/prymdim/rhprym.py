"""Prym dimensions of tame Galois covers with rational-character group.

Branch data is a count R_k of branch points per nontrivial cyclic class
(conjugacy class of cyclic inertia subgroups). Riemann-Hurwitz gives the
genus of every quotient curve X/H_i,

    g_i = 1 + [G:H_i](g-1) + sum_k ([G:H_i] - #(H_k\\G/H_i)) R_k / 2,

and one function computes it: the total space is X/H_0 for the trivial
class H_0 = {1}, where #(H_k\\G/H_0) = |G|/|H_k| turns the sum into
deg(R)/2. Inversion maps H_k g H_i onto H_i g^-1 H_k, so the double-coset
matrix is symmetric and its row i holds every #(H_k\\G/H_i). The
ramification sums of all quotients thus come from one vector, the R_k-weighted
sum of the rows k of that matrix over the spec's branch classes, formed
once per spec. The quotient genera determine the isotypic dimensions
dim V_j through the invertible fixed-subspace dimension matrix. The same
dimensions also come out of the closed form

    dim V_j = (dim rho_j)(g-1) + sum_k (dim rho_j - dim rho_j^{H_k}) R_k / 2

for nontrivial irreps (dim V_1 = g for the trivial one). All arithmetic
is in integers. The fixed-dim matrix A is inverted once per group, so
A x = g has exactly one solution. ``validate`` sums the closed form x
first, doubled, irrep by irrep, so its integrality is one divisibility
test per entry, and hands an integral x to ``exactla.solve`` as its
candidate: one exact product A x == g accepts it as the solve's answer,
and both routes agree. Only a failed check (or a half-integral closed
form) takes the adjugate product, whose dimensions or NonIntegerSolution
text are then reported beside the closed form's. That product, which
``isotypic_dims_solve`` always takes, is one small-integer matrix-vector
product in the adjugate with its content divided out, checked by
A y' = (det / content) b and scaled back to numerators over the one
common denominator det. An index outside 0..n-1, negative ones
included, raises IndexError.
"""

from __future__ import annotations

import random
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


def _riemann_hurwitz(spec: CoverSpec, i: int | None, index: int, ram: int) -> int:
    """Genus of X/H_i, H_i of the given index, from its ramification degree
    ram; i is None for the total space X = X/H_0, which only changes the
    names in the parity and sign diagnostics."""
    if ram % 2:
        name = "total" if i is None else f"quotient H{i + 1}"
        raise OddRamificationDegree(f"{name} ramification degree {ram} is odd")
    g_h = 1 + index * (spec.base_genus - 1) + ram // 2
    if g_h < 0:
        name = "total-space" if i is None else f"quotient H{i + 1}"
        raise NegativeGenus(f"{name} genus {g_h} is negative")
    return g_h


def _ramification(spec: CoverSpec, index: int, dc: Sequence[int]) -> int:
    """Ramification degree of X -> X/H for H of the given index, dc[k]
    being #(H_k\\G/H): one term per branch class."""
    return sum((index - dc[k]) * r for k, r in spec.ramification.counts.items())


def _ramifications(spec: CoverSpec) -> list[tuple[int, int]]:
    """(index, ramification degree) of every quotient X/H_i.

    The degree is [G:H_i] R - w_i with R = sum_k R_k and w the R_k-weighted
    sum of the rows k of the symmetric double-coset matrix, summed once for
    all i over the spec's branch classes.
    """
    G = spec.group
    dcm = G.double_coset_matrix()
    counts = spec.ramification.counts
    points = sum(counts.values())
    weighted = [0] * len(dcm)
    for k, r in counts.items():
        weighted = [w + r * v for w, v in zip(weighted, dcm[k])]
    indices = [G.order // K.subgroup_order for K in G.cyclic_subgroup_classes()]
    return [(index, index * points - w) for index, w in zip(indices, weighted)]


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


def _solve_from_genera(
    fdm: exactla.Inverse, genera: Sequence[int], candidate: Sequence[int] | None = None
) -> tuple[int, ...]:
    y, d = exactla.solve(fdm, genera, candidate)
    if any(v % d for v in y):
        from fractions import Fraction  # only for the diagnostic text

        x = [Fraction(v, d) for v in y]
        raise NonIntegerSolution(f"isotypic dimensions are not integers: {x}")
    return tuple(v // d for v in y)


def isotypic_dims_solve(spec: CoverSpec) -> tuple[int, ...]:
    """Isotypic dimensions from the linear system over all quotient genera."""
    rams = _ramifications(spec)
    genera = [_riemann_hurwitz(spec, i, *ram) for i, ram in enumerate(rams)]
    return _solve_from_genera(fixed_dim_matrix(spec.group), genera)


def _closed_form_doubled(
    spec: CoverSpec, table: CharacterTable, fdm: exactla.Inverse, j: int
) -> int:
    """2 dim V_j by the closed form for the one irrep j."""
    g = spec.base_genus
    if j == 0:
        return 2 * g
    deg = table.degrees[j]
    rows = fdm.rows
    twice = 2 * deg * (g - 1)
    for k, r in spec.ramification.counts.items():  # a loop: no generator per irrep
        twice += (deg - rows[k][j]) * r
    return twice


def _halve(twice: int) -> int:
    if twice % 2:
        raise NonIntegerDimension(f"closed-form dimension {twice}/2 is not an integer")
    return twice // 2


def prym_dim_formula(spec: CoverSpec, j: int) -> int:
    """Closed-form dimension of the j-th isotypic piece (= g for the trivial
    irrep, j = 0)."""
    G = spec.group
    table = character_table(G)
    if not 0 <= j < table.n:
        raise IndexError(f"irrep index {j} is not in 0..{table.n - 1}")
    return _halve(_closed_form_doubled(spec, table, fixed_dim_matrix(G), j))


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

    def attempt(fn, *args):
        try:
            return fn(*args)
        except (
            OddRamificationDegree, NegativeGenus, NonIntegerSolution, NonIntegerDimension
        ) as exc:
            diags.append(f"{type(exc).__name__}: {exc}")
            return None

    rams = _ramifications(spec)
    # the total space is the quotient by H_0: same index and degree, own names
    g_total = attempt(_riemann_hurwitz, spec, None, *rams[0])
    genera = [attempt(_riemann_hurwitz, spec, i, *ram) for i, ram in enumerate(rams)]
    twice = [_closed_form_doubled(spec, table, fdm, j) for j in range(table.n)]
    dims: tuple[int, ...] | None = None
    if g_total is not None and None not in genera:
        # an integral closed form is the solve's candidate: only a failed
        # check A x == genera pays for the adjugate product
        x = None if any(v % 2 for v in twice) else [v // 2 for v in twice]
        dims = attempt(_solve_from_genera, fdm, genera, x)
    closed = attempt(tuple, map(_halve, twice))

    agreement = dims is not None and closed is not None and dims == closed
    if dims is not None and closed is not None and dims != closed:
        diags.append(f"MethodDisagreement: solver {dims} != closed form {closed}")

    final = dims if dims is not None else closed
    if final is not None:
        if any(v < 0 for v in final):
            diags.append(f"NegativeDimension: {final}")
        if final[0] != spec.base_genus:
            diags.append(
                "TrivialDimension: trivial isotypic dimension "
                f"{final[0]} != base genus {spec.base_genus}"
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
