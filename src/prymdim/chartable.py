"""Exact integer character tables of rational-character groups.

The table is computed by the Dixon-Schneider method: only the class
matrices the split uses are built, each from its own class's members,
and they are simultaneously diagonalized over a prime field GF(p), where
p is the smallest prime with p > 2*sqrt(|G|) that does not divide |G|.
For a rational-character group every class-matrix eigenvalue is an
integer, so it lies in GF(p), and distinct central characters stay
distinct mod p because p does not divide |G|. Every character value is
an integer with |chi(g)| <= chi(1) < sqrt(|G|) < p/2, so the degree is
the small square root of its residue and each value c mod p lifts to the
symmetric residue in (-p/2, p/2). ``character_table`` refuses a
non-rational group up front with NotRationalGroup; the split alone would
fail to split or fail orthogonality on it and raise LiftFailure.

Each splitting step restricts a class matrix M to an eigenspace V found
so far: on the full space the restriction is M itself, and on a smaller
space it is read off W = M V, which must lie in V (the invariance
check). The class matrices are sparse, so W is formed over M's nonzero
entries only, listed column by column once per consumed matrix. If M is
one scalar on V, W = lam V certifies invariance and V stays whole with
no further work. Otherwise one Hessenberg reduction H = T^-1 A T of the
restriction A serves the step: the roots of its characteristic
polynomial are the eigenvalues, and each eigenspace is T times the null
space of H - lam I, which elimination over a Hessenberg matrix finds in
O(d^2). The roots are sought outward from 0 and the scan stops at the
last one, so it seldom tries all of GF(p). Every basis is in reduced
row echelon form (``_rref``), so a combination of it equals its
coefficients at the pivot coordinates by construction: the invariance
check and the re-expansion of each new eigenvector work on the free
coordinates only.

A table is returned only after exact row orthogonality has been
verified; for a square table that implies column orthogonality, so
everything downstream inherits its correctness. Row 0 is always the
trivial character. ``fixed_dim_matrix`` returns the invariant-dimension
matrix as the ``exactla.Nonsingular`` that ``exactla.solve`` takes.

The table and the fixed-dim matrix are computed once per group and
cached here, keyed weakly on the group, so a cached entry never keeps
its group alive. A table holds only the characters and their degrees; class sizes
and element orders are read from ``G.conjugacy_classes()``.
"""

from __future__ import annotations

import math
import weakref
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import exactla
from .errors import (
    CapExceeded,
    LiftFailure,
    NonIntegerFixedDim,
    NotRationalGroup,
    Singular,
)
from .permgroup import ConjugacyClass, CyclicClass, PermGroup

MAX_CLASSES = 40

# the per-group results, dropped with their group
_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_fixed_dims: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class CharacterTable(NamedTuple):
    """Integer-valued irreducible characters, rows = irreps, columns = classes.

    Rows are ordered trivial character first (row 0), then by degree
    ascending with a deterministic tie-break; columns follow the group's
    conjugacy class order (identity first).
    """

    table: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.table)


# -- GF(p) helpers ------------------------------------------------------------


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _dixon_prime(group_order: int) -> int:
    """Smallest prime p > 2*sqrt(|G|) that does not divide |G|."""
    p = math.isqrt(4 * group_order) + 1
    while group_order % p == 0 or not _is_prime(p):
        p += 1
    return p


def _hessenberg_mod(
    A: list[list[int]], p: int
) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
    """Upper Hessenberg H = T^-1 A T over GF(p), with T as its operations.

    Each recorded (a, b, f) is one column operation of T: the swap of
    coordinates a and b when f == 0, else adding f times coordinate b to
    coordinate a. ``_apply_t`` maps a vector through T, so a null vector
    of H - lam I becomes one of A - lam I.
    """
    n = len(A)
    H = [[v % p for v in row] for row in A]
    ops: list[tuple[int, int, int]] = []
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            ops.append((piv, j + 1, 0))
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for Hr in H:
                Hr[piv], Hr[j + 1] = Hr[j + 1], Hr[piv]
        Hj = H[j + 1]
        inv = pow(Hj[j], p - 2, p)
        fs = [H[i][j] * inv % p for i in range(j + 2, n)]
        if not any(fs):
            continue
        for i, f in enumerate(fs, j + 2):  # rows i -= f * row j+1 ...
            if f:
                ops.append((i, j + 1, f))
                H[i] = [(a - f * b) % p for a, b in zip(H[i], Hj)]
        for Hr in H:  # ... then column j+1 += f * column i, for every i at once
            Hr[j + 1] = (Hr[j + 1] + sum(map(mul, fs, Hr[j + 2 :]))) % p
    return H, ops


def _apply_t(ops: list[tuple[int, int, int]], v: list[int], p: int) -> list[int]:
    """T v for the T of ``_hessenberg_mod``, one O(1) update per operation."""
    for a, b, f in reversed(ops):
        if f:
            v[a] = (v[a] + f * v[b]) % p
        else:
            v[a], v[b] = v[b], v[a]
    return v


def _charpoly_mod(H: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial of an upper Hessenberg H over GF(p),
    coefficients low-to-high."""
    n = len(H)
    polys: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        a = H[k - 1][k - 1] % p
        prev = polys[k - 1]
        pk = [(-a * c) % p for c in prev] + [0]
        for d, c in enumerate(prev):  # + x * prev
            pk[d + 1] = (pk[d + 1] + c) % p
        sub = 1
        for i in range(k - 1, 0, -1):  # subdiagonal products walking up
            sub = sub * H[i][i - 1] % p
            coef = H[i - 1][k - 1] * sub % p
            if coef:
                pi = polys[i - 1]
                for d, c in enumerate(pi):
                    pk[d] = (pk[d] - coef * c) % p
        polys.append(pk)
    return polys[n]


def _outward(p: int) -> Iterator[int]:
    """Every residue of GF(p) once, outward from 0: 0, 1, -1, 2, -2, ..."""
    yield 0
    for k in range(1, p // 2 + 1):
        yield k
        if p - k != k:
            yield p - k


def _poly_roots_mod(poly: list[int], p: int) -> list[int]:
    """The distinct roots in GF(p) of a monic poly (coefficients
    low-to-high), ascending.

    Candidates come from ``_outward``. Each root is divided out by
    synthetic division and tried again, so a repeated root leaves with all
    its multiplicity, and the scan stops once the quotient is a constant:
    every root has then been found. A class-matrix eigenvalue is an
    integer of absolute value at most the class size, so the scan usually
    stops long before it has tried all p residues.
    """
    q = [c % p for c in poly]
    roots: set[int] = set()
    candidates = _outward(p)
    x = next(candidates)
    while len(q) > 1:
        acc, quot = 0, []
        for c in reversed(q):  # Horner: quot is the quotient high-to-low, then the remainder
            acc = (acc * x + c) % p
            quot.append(acc)
        if acc == 0:
            roots.add(x)
            q = quot[-2::-1]
            continue
        x = next(candidates, None)
        if x is None:
            break
    return sorted(roots)


def _rref(rows: list[list[int]], p: int) -> tuple[list[int], list[list[int]]]:
    """Reduced row echelon form over GF(p): (pivot columns, nonzero rows).

    Each returned row has a 1 in its pivot column and every other row a 0
    there; rows are sorted by pivot column.
    """
    M = [[v % p for v in row] for row in rows]
    pivots: list[int] = []
    for c in range(len(M[0])):
        r = len(pivots)
        if r == len(M):  # every row holds a pivot: no column after c can
            break
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], p - 2, p)
        Mr = M[r] = [v * inv % p for v in M[r]]
        for i, Mi in enumerate(M):
            f = Mi[c]
            if f and i != r:
                M[i] = [(a - f * b) % p for a, b in zip(Mi, Mr)]
        pivots.append(c)
    return pivots, M[: len(pivots)]


def _hessenberg_null_space(H: list[list[int]], lam: int, p: int) -> list[list[int]]:
    """Basis of the null space of H - lam I over GF(p), H upper Hessenberg,
    one vector per free column.

    Below row c + 1 column c of H is zero, and row operations between rows
    that hold no earlier pivot keep it so. So forward elimination seeks
    column c's pivot only in rows r..c + 1, and back-substitution solves
    for the pivots: O(d^2) on a d x d matrix with one-dimensional
    eigenspaces, against O(d^3) for a full reduction.
    """
    d = len(H)
    M = [row[:] for row in H]
    for i, row in enumerate(M):
        row[i] = (row[i] - lam) % p
    pivots: list[int] = []
    for c in range(d):
        r, last = len(pivots), min(c + 2, d)
        piv = next((i for i in range(r, last) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], p - 2, p)
        Mr = M[r] = [v * inv % p for v in M[r]]
        for i in range(r + 1, last):
            f = M[i][c]
            if f:
                M[i] = [(a - f * b) % p for a, b in zip(M[i], Mr)]
        pivots.append(c)
    basis = []
    for free in sorted(set(range(d)) - set(pivots)):
        v = [0] * d
        v[free] = 1
        for k in range(len(pivots) - 1, -1, -1):  # v[pivot] is 0 until set here
            v[pivots[k]] = -sum(map(mul, M[k], v)) % p
        basis.append(v)
    return basis


def _class_matrices(
    G: PermGroup, classes: Sequence[ConjugacyClass]
) -> Iterator[list[list[int]]]:
    """Yield M_r[s][t] = #{x in C_r : x^-1 rep_t in C_s} for r = 1, 2, ..., n - 1."""
    reps = [cl.representative for cl in classes]
    class_of = G.class_indices()
    for cl in classes[1:]:
        M = [[0] * len(reps) for _ in reps]
        for x in cl.members:
            xi = G.inv(x)
            for t, rep in enumerate(reps):
                M[class_of[G.mul(xi, rep)]][t] += 1
        yield M


def _columns(M: list[list[int]]) -> list[list[tuple[int, int]]]:
    """The nonzero entries (s, M[s][t]) of each column t of a square M."""
    return [[(s, v) for s, v in enumerate(col) if v] for col in zip(*M)]


def _image(cols: list[list[tuple[int, int]]], basis: list[list[int]], p: int) -> list[list[int]]:
    """M b mod p for each b in basis, M given by its ``_columns``: each
    nonzero b[t] is scattered over the nonzero entries of column t only."""
    W = []
    for bv in basis:
        w = [0] * len(bv)
        for t, b in enumerate(bv):
            if b:
                for s, v in cols[t]:
                    w[s] += b * v
        W.append([v % p for v in w])
    return W


def _central_characters(n: int, mats: Iterable[list[list[int]]], p: int) -> list[list[int]]:
    """Common eigenvectors of the class matrices M_1, M_2, ... drawn from ``mats``
    until the split is complete, normalized at the identity class."""
    spaces: list[tuple[list[int], list[list[int]]]] = [
        (list(range(n)), [[1 if r == i else 0 for r in range(n)] for i in range(n)])
    ]
    for M in mats:
        cols = _columns(M)
        nxt: list[tuple[list[int], list[list[int]]]] = []
        for pivots, basis in spaces:
            d = len(basis)
            if d == 1:
                nxt.append((pivots, basis))
                continue
            if d == n:  # the full space: its basis is the identity, A is M
                A = [[v % p for v in row] for row in M]
            else:
                W = _image(cols, basis, p)
                lam = W[0][pivots[0]]
                if all(Wj == [lam * v % p for v in bv] for Wj, bv in zip(W, basis)):
                    nxt.append((pivots, basis))  # M = lam on the space: invariant, no split
                    continue
                A = [[W[j][pr] for j in range(d)] for pr in pivots]
                is_pivot = set(pivots)  # sum_i a_i b_i is a_k at the k-th pivot already
                free = [c for c in range(n) if c not in is_pivot]
                free_cols = [[bv[c] for bv in basis] for c in free]
                for Wj, a in zip(W, zip(*A)):  # invariance check: a is column j of A
                    if [sum(map(mul, a, col)) % p for col in free_cols] != [Wj[c] for c in free]:
                        raise LiftFailure("class-matrix eigenspace is not invariant")
            H, ops = _hessenberg_mod(A, p)
            roots = _poly_roots_mod(_charpoly_mod(H, p), p)
            if len(roots) <= 1:
                nxt.append((pivots, basis))
                continue
            total = 0
            for lam in roots:
                kernel = [_apply_t(ops, v, p) for v in _hessenberg_null_space(H, lam, p)]
                if d != n:  # sum_i c_i b_i: c_k at the k-th pivot, summed at the free ones
                    full = []
                    for c in kernel:
                        v = [0] * n
                        for pr, ck in zip(pivots, c):
                            v[pr] = ck
                        for fc, col in zip(free, free_cols):
                            v[fc] = sum(map(mul, c, col)) % p
                        full.append(v)
                    kernel = full
                piv2, bas2 = _rref(kernel, p)
                total += len(bas2)
                nxt.append((piv2, bas2))
            if total != d:
                raise LiftFailure("eigenspace dimensions do not add up")
        spaces = nxt
        if all(len(b) == 1 for _, b in spaces):
            break
    if any(len(b) != 1 for _, b in spaces) or len(spaces) != n:
        raise LiftFailure("class matrices did not split into one-dimensional spaces")
    omegas = []
    for _, basis in spaces:
        v = basis[0]
        if v[0] % p == 0:
            raise LiftFailure("eigenvector vanishes at the identity class")
        inv = pow(v[0], p - 2, p)
        omegas.append([a * inv % p for a in v])
    omegas.sort()
    return omegas


# -- the table ----------------------------------------------------------------


def character_table(G: PermGroup) -> CharacterTable:
    """Exact character table of a rational-character group.

    The result is cached per group. A group that fails the power-map
    rationality test raises NotRationalGroup before any class matrix is
    built.
    """
    table = _tables.get(G)
    if table is None:
        if not G.is_rational_group():
            raise NotRationalGroup("character table needs rational characters")
        table = _tables[G] = _dixon_schneider(G)
    return table


def _dixon_schneider(G: PermGroup) -> CharacterTable:
    """The table by the Dixon-Schneider split, with no rationality
    pre-check: a non-rational group raises LiftFailure."""
    classes = G.conjugacy_classes()
    n = len(classes)
    if n > MAX_CLASSES:
        raise CapExceeded(f"{n} conjugacy classes exceeds supported maximum {MAX_CLASSES}")

    p = _dixon_prime(G.order)

    sizes = [cl.size for cl in classes]
    omegas = _central_characters(n, _class_matrices(G, classes), p)

    class_of = G.class_indices()
    inv_class = [class_of[G.inv(cl.representative)] for cl in classes]
    size_inv = [pow(s, p - 2, p) for s in sizes]
    sqrt_table = {u * u % p: u for u in range(p // 2 + 1)}

    rows = []
    for omega in omegas:
        s = 0
        for r in range(n):
            s = (s + omega[r] * omega[inv_class[r]] % p * size_inv[r]) % p
        if s == 0:
            raise LiftFailure("degree normalization vanished")
        dsq = G.order % p * pow(s, p - 2, p) % p
        deg = sqrt_table.get(dsq)
        if deg is None or deg == 0:
            raise LiftFailure("degree is not a small square root mod p")
        chibar = [omega[r] * deg % p * size_inv[r] % p for r in range(n)]
        rows.append((deg, tuple(c - p if 2 * c > p else c for c in chibar)))

    rows.sort(key=lambda t: (t[0], tuple(-v for v in t[1])))
    table = tuple(r for _, r in rows)
    degrees = tuple(d for d, _ in rows)

    if table[0] != tuple([1] * n):
        raise LiftFailure("trivial character missing from the lifted table")
    _verify_orthogonality(G.order, sizes, table)

    return CharacterTable(table=table, degrees=degrees)


def _verify_orthogonality(order: int, sizes: Sequence[int], table) -> None:
    """Raise LiftFailure unless sum_i |C_i| chi_j(C_i) chi_j2(C_i) = |G| [j = j2].

    With T the square table and D = diag(|C_i|), the rows say
    T D T^t = |G| I, so T is invertible with T^-1 = D T^t / |G| and
    T^t T = |G| D^-1: column orthogonality follows, and its identity-class
    entry is sum_j deg_j^2 = |G| (Serre, Linear Representations of Finite
    Groups, 2.5).
    """
    for j, row in enumerate(table):
        w = list(map(mul, sizes, row))  # |C_i| chi_j(C_i), once per j
        for j2 in range(j, len(table)):
            if sum(map(mul, w, table[j2])) != (order if j == j2 else 0):
                raise LiftFailure("row orthogonality failed")


def _totient(n: int) -> int:
    phi = n
    for q in _prime_factors(n):
        phi -= phi // q
    return phi


def _check_cyclic_profile(classes: Sequence[ConjugacyClass], K: CyclicClass) -> None:
    """Raise NonIntegerFixedDim unless K's profile fits a cyclic group.

    A cyclic group of order m has phi(d) elements of order d for each
    d | m and none of any other order. It suffices to check that every
    order d present divides m with a tally of exactly phi(d), and that
    the counts total m: since sum_{d | m} phi(d) = m, no divisor can
    then be missing.
    """
    m = K.subgroup_order
    by_order: dict[int, int] = {}
    for ci, count in K.member_class_profile.items():
        if type(ci) is not int or not 0 <= ci < len(classes):
            raise NonIntegerFixedDim(f"class index {ci!r} outside 0..{len(classes) - 1}")
        if type(count) is not int or count < 0:
            raise NonIntegerFixedDim(
                f"class {ci} count {count!r} is not a non-negative integer"
            )
        d = classes[ci].element_order
        by_order[d] = by_order.get(d, 0) + count
    for d, count in by_order.items():
        if count and (m % d or count != _totient(d)):
            raise NonIntegerFixedDim(
                f"{count} elements of order {d} cannot lie in a cyclic group of order {m}"
            )
    total = sum(by_order.values())
    if total != m:
        raise NonIntegerFixedDim(
            f"class profile counts {total} elements, subgroup order is {m}"
        )


def _average_over(table: CharacterTable, irrep: int, K: CyclicClass) -> int:
    """Dimension of the K-invariant subspace of the irrep: the average of
    its character over K, from a class profile that _check_cyclic_profile
    has accepted."""
    total = sum(
        count * table.table[irrep][ci] for ci, count in K.member_class_profile.items()
    )
    if total % K.subgroup_order:
        raise NonIntegerFixedDim(
            f"character sum {total} not divisible by subgroup order {K.subgroup_order}"
        )
    val = total // K.subgroup_order
    if val < 0 or val > table.degrees[irrep]:
        raise NonIntegerFixedDim(f"invariant dimension {val} out of range")
    return val


def fixed_dim_matrix(G: PermGroup) -> exactla.Nonsingular:
    """Matrix of invariant dimensions, rows = cyclic classes, columns = irreps,
    read off ``character_table(G)``: ``rows[i][j]`` = dim of the
    H_i-invariant subspace of irrep j. Every cyclic class's profile is
    checked first; a profile that fails, or an average that is not an
    integer in [0, deg], raises NonIntegerFixedDim.

    The matrix is certified here, once per group, by its exact nonzero
    determinant, so ``exactla.solve`` can accept a candidate with one
    product; a singular matrix would contradict the rational-character
    assumption.
    """
    result = _fixed_dims.get(G)
    if result is not None:
        return result
    table = character_table(G)
    classes = G.conjugacy_classes()
    cyclic = G.cyclic_subgroup_classes()
    for K in cyclic:
        _check_cyclic_profile(classes, K)
    rows = tuple(
        tuple(_average_over(table, j, K) for j in range(table.n)) for K in cyclic
    )
    if rows[0] != table.degrees:
        raise AssertionError("trivial subgroup must fix every irrep")
    if any(row[0] != 1 for row in rows):
        raise AssertionError("trivial irrep must have a one-dimensional fixed space")
    try:
        result = exactla.nonsingular(rows)
    except Singular:
        raise Singular("fixed-subspace dimension matrix is singular") from None
    _fixed_dims[G] = result
    return result
