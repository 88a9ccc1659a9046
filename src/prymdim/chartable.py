"""Exact integer character tables of rational-character groups.

The table is computed by the Dixon-Schneider method: class-multiplication
structure constants are built by direct enumeration, and the class
matrices are simultaneously diagonalized over a prime field GF(p), where
p is the smallest prime with p > 2*sqrt(|G|) that does not divide |G|.
For a rational-character group every class-matrix eigenvalue is an
integer, so it lies in GF(p), and distinct central characters stay
distinct mod p because p does not divide |G|. Every character value is
an integer with |chi(g)| <= chi(1) < sqrt(|G|) < p/2, so the degree is
the small square root of its residue and each value c mod p lifts to the
symmetric residue in (-p/2, p/2). A non-rational group fails to split or
fails orthogonality and raises LiftFailure.

A table is returned only after exact row and column orthogonality have
been verified, so everything downstream inherits its correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import exactla
from .errors import (
    CapExceeded,
    LiftFailure,
    NonIntegerFixedDim,
    NotRationalGroup,
    Singular,
)
from .permgroup import CyclicClass, PermGroup

MAX_CLASSES = 40

_TABLE_KEY = "character_table"
_FDM_KEY = "fixed_dim_matrix"


@dataclass(frozen=True)
class CharacterTable:
    """Integer-valued irreducible characters, rows = irreps, columns = classes.

    Rows are ordered trivial character first, then by degree ascending
    with a deterministic tie-break; columns follow the group's conjugacy
    class order (identity first).
    """

    class_sizes: tuple[int, ...]
    class_orders: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    degrees: tuple[int, ...]
    trivial_index: int

    @property
    def n(self) -> int:
        return len(self.table)

    def value(self, irrep: int, class_index: int) -> int:
        return self.table[irrep][class_index]


@dataclass(frozen=True)
class FixedDimMatrix:
    """entries[i][j] = dimension of the H_i-invariant subspace of irrep j."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)


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


def _charpoly_mod(A: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial of A over GF(p), coefficients low-to-high."""
    n = len(A)
    H = [row[:] for row in A]
    for j in range(n - 2):  # similarity reduction to upper Hessenberg
        piv = next((i for i in range(j + 1, n) if H[i][j] % p), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for r in range(n):
                H[r][piv], H[r][j + 1] = H[r][j + 1], H[r][piv]
        inv = pow(H[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            f = H[i][j] * inv % p
            if not f:
                continue
            Hi, Hj = H[i], H[j + 1]
            for c in range(n):
                Hi[c] = (Hi[c] - f * Hj[c]) % p
            for r in range(n):
                H[r][j + 1] = (H[r][j + 1] + f * H[r][i]) % p
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


def _poly_roots_mod(poly: list[int], p: int) -> list[int]:
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _kernel_mod(A: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the null space of A over GF(p), as column vectors."""
    n = len(A)
    M = [row[:] for row in A]
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if M[i][c] % p), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [v * inv % p for v in M[r]]
        for i in range(n):
            if i != r and M[i][c] % p:
                f = M[i][c]
                M[i] = [(vi - f * vr) % p for vi, vr in zip(M[i], M[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for c in range(n):
        if c in pivot_cols:
            continue
        v = [0] * n
        v[c] = 1
        for rr, cc in pivots:
            v[cc] = (-M[rr][c]) % p
        basis.append(v)
    return basis


def _column_reduce(cols: list[list[int]], p: int) -> tuple[list[int], list[list[int]]]:
    """Reduce columns to a basis with unit pivot rows; returns (pivots, basis)."""
    pivots: list[int] = []
    basis: list[list[int]] = []
    for col in cols:
        v = col[:]
        for pr, bv in zip(pivots, basis):
            f = v[pr]
            if f:
                v = [(a - f * b) % p for a, b in zip(v, bv)]
        pr = next((i for i, a in enumerate(v) if a % p), None)
        if pr is None:
            continue
        inv = pow(v[pr], p - 2, p)
        v = [a * inv % p for a in v]
        for i, bv in enumerate(basis):
            f = bv[pr]
            if f:
                basis[i] = [(a - f * b) % p for a, b in zip(bv, v)]
        pivots.append(pr)
        basis.append(v)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [pivots[i] for i in order], [basis[i] for i in order]


def _central_characters(mats: list[list[list[int]]], p: int) -> list[list[int]]:
    """Common eigenvectors of the class matrices, normalized at the identity class."""
    n = len(mats)
    spaces: list[tuple[list[int], list[list[int]]]] = [
        (list(range(n)), [[1 if r == i else 0 for r in range(n)] for i in range(n)])
    ]
    for M in mats[1:]:  # mats[0] is the identity class matrix
        if all(len(b) == 1 for _, b in spaces):
            break
        nxt: list[tuple[list[int], list[list[int]]]] = []
        for pivots, basis in spaces:
            d = len(basis)
            if d == 1:
                nxt.append((pivots, basis))
                continue
            W = []
            for bv in basis:
                W.append([sum(M[s][t] * bv[t] for t in range(n)) % p for s in range(n)])
            A = [[W[j][pivots[i]] % p for j in range(d)] for i in range(d)]
            for j in range(d):  # invariance check
                recon = [
                    sum(A[i][j] * basis[i][r] for i in range(d)) % p for r in range(n)
                ]
                if recon != W[j]:
                    raise LiftFailure("class-matrix eigenspace is not invariant")
            roots = _poly_roots_mod(_charpoly_mod(A, p), p)
            if len(roots) <= 1:
                nxt.append((pivots, basis))
                continue
            total = 0
            for lam in sorted(roots):
                B = [[(A[i][j] - (lam if i == j else 0)) % p for j in range(d)] for i in range(d)]
                kbasis = _kernel_mod(B, p)
                if not kbasis:
                    continue
                newcols = [
                    [sum(c[i] * basis[i][r] for i in range(d)) % p for r in range(n)]
                    for c in kbasis
                ]
                piv2, bas2 = _column_reduce(newcols, p)
                total += len(bas2)
                nxt.append((piv2, bas2))
            if total != d:
                raise LiftFailure("eigenspace dimensions do not add up")
        spaces = nxt
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


def character_table(G: PermGroup, *, check_rationality: bool = True) -> CharacterTable:
    """Exact character table of a rational-character group.

    The result is cached on the group. ``check_rationality=False`` skips
    the power-map pre-check so that the lift-failure path is reachable;
    non-rational input then raises LiftFailure instead.
    """
    cached = G.cache.get(_TABLE_KEY)
    if cached is not None:
        return cached
    if check_rationality and not G.is_rational_group():
        raise NotRationalGroup("character table requires a rational-character group")
    classes = G.conjugacy_classes()
    n = len(classes)
    if n > MAX_CLASSES:
        raise CapExceeded(f"{n} conjugacy classes exceeds supported maximum {MAX_CLASSES}")

    p = _dixon_prime(G.order)

    reps = [cl.representative for cl in classes]
    sizes = [cl.size for cl in classes]
    mats = [[[0] * n for _ in range(n)] for _ in range(n)]
    for x in range(G.order):
        r = G.class_of(x)
        xi = G.inv(x)
        Mr = mats[r]
        for t in range(n):
            s = G.class_of(G.mul(xi, reps[t]))
            Mr[s][t] += 1

    omegas = _central_characters(mats, p)

    inv_class = [G.class_of(G.inv(rep)) for rep in reps]
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

    result = CharacterTable(
        class_sizes=tuple(sizes),
        # an element's order is the lcm of its cycle lengths
        class_orders=tuple(math.lcm(*map(len, G.elements[r].cycles())) for r in reps),
        table=table,
        degrees=degrees,
        trivial_index=0,
    )
    G.cache[_TABLE_KEY] = result
    return result


def _verify_orthogonality(order: int, sizes: Sequence[int], table) -> None:
    n = len(table)
    if sum(d * d for d in (row[0] for row in table)) != order:
        raise LiftFailure("sum of squared degrees does not equal the group order")
    for j in range(n):
        for j2 in range(j, n):
            s = sum(sizes[i] * table[j][i] * table[j2][i] for i in range(n))
            if s != (order if j == j2 else 0):
                raise LiftFailure("row orthogonality failed")
    for i in range(n):
        for i2 in range(i, n):
            s = sum(table[j][i] * table[j][i2] for j in range(n))
            want = order // sizes[i] if i == i2 else 0
            if s != want:
                raise LiftFailure("column orthogonality failed")


def _totient(n: int) -> int:
    phi = n
    for q in _prime_factors(n):
        phi -= phi // q
    return phi


def _check_cyclic_profile(table: CharacterTable, K: CyclicClass) -> None:
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
        if type(ci) is not int or not 0 <= ci < table.n:
            raise NonIntegerFixedDim(f"class index {ci!r} outside 0..{table.n - 1}")
        if type(count) is not int or count < 0:
            raise NonIntegerFixedDim(
                f"class {ci} count {count!r} is not a non-negative integer"
            )
        d = table.class_orders[ci]
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


def fixed_dim(table: CharacterTable, irrep: int, K: CyclicClass) -> int:
    """Dimension of the K-invariant subspace of the given irrep.

    Computed as the average of the character over the subgroup, using
    the cyclic class's conjugacy-class profile. The profile is checked
    first: every key must be a class index of the table, every count a
    non-negative integer, and the counts grouped by element order must
    be phi(d) for each d dividing the subgroup order and zero for every
    other order (so one identity and a total of the subgroup order).
    A profile that fails, a character sum not divisible by the subgroup
    order, or an average outside [0, deg] raises NonIntegerFixedDim.
    """
    _check_cyclic_profile(table, K)
    return _average_over(table, irrep, K)


def _average_over(table: CharacterTable, irrep: int, K: CyclicClass) -> int:
    """fixed_dim for a profile that _check_cyclic_profile has accepted."""
    total = sum(
        count * table.value(irrep, ci) for ci, count in K.member_class_profile.items()
    )
    if total % K.subgroup_order:
        raise NonIntegerFixedDim(
            f"character sum {total} not divisible by subgroup order {K.subgroup_order}"
        )
    val = total // K.subgroup_order
    if val < 0 or val > table.degrees[irrep]:
        raise NonIntegerFixedDim(f"invariant dimension {val} out of range")
    return val


def fixed_dim_matrix(G: PermGroup, table: CharacterTable | None = None) -> FixedDimMatrix:
    """Matrix of invariant dimensions, rows = cyclic classes, columns = irreps.

    Invertibility is certified by an exact determinant; a zero
    determinant would contradict the rational-character assumption.
    """
    cached = G.cache.get(_FDM_KEY)
    if cached is not None:
        return cached
    if table is None:
        table = character_table(G)
    cyclic = G.cyclic_subgroup_classes()
    for K in cyclic:
        _check_cyclic_profile(table, K)
    entries = tuple(
        tuple(_average_over(table, j, K) for j in range(table.n)) for K in cyclic
    )
    if entries[0] != table.degrees:
        raise AssertionError("trivial subgroup must fix every irrep")
    if any(row[table.trivial_index] != 1 for row in entries):
        raise AssertionError("trivial irrep must have a one-dimensional fixed space")
    if exactla.determinant(entries) == 0:
        raise Singular("fixed-subspace dimension matrix is singular")
    result = FixedDimMatrix(entries=entries)
    G.cache[_FDM_KEY] = result
    return result


def table_tsv(G: PermGroup, table: CharacterTable | None = None) -> str:
    """Character table as TSV: class representatives and sizes head the columns."""
    if table is None:
        table = character_table(G)
    classes = G.conjugacy_classes()
    lines = [
        "class\t" + "\t".join(G.elements[c.representative].cycle_str() for c in classes),
        "size\t" + "\t".join(str(c.size) for c in classes),
    ]
    for j, row in enumerate(table.table):
        lines.append(f"chi{j + 1}\t" + "\t".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
