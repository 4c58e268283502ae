"""Exact linear algebra over the rationals and integer lattices.

Small dense matrices only: the lattices in this package have rank at most a
dozen or so.  Everything is exact: products, sums and the bilinear form
keep integer inputs integer, and inverses and factorizations are computed
over `fractions.Fraction`, so results are deterministic.

The workhorse is :func:`enumerate_quadratic_ball`: given a positive definite
rational Gram matrix M and a rational cutoff C, it yields every integer
vector x with x^T M x <= C.  It walks an exact LDL^T factorization of M (the
classic lattice-point recursion), with per-coordinate interval endpoints
computed by integer square-root bounds, so no solution is ever missed and no
float ever appears.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from typing import Iterator, Sequence

from .rationals import floor_sqrt, floor_sqrt_plus

Matrix = list[list[Q]]
Vector = list[Q]


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dot(u: Sequence, v: Sequence):
    """Sum of products; integer inputs give an integer."""
    return sum(a * b for a, b in zip(u, v))


def bilinear(gram: Sequence[Sequence], x: Sequence, y: Sequence):
    """x^T gram y, skipping the zero entries of the (sparse) lattice Grams."""
    return sum(
        x[i] * g * y[j]
        for i, row in enumerate(gram)
        for j, g in enumerate(row)
        if g != 0
    )


def mat_vec(m: Sequence[Sequence], v: Sequence) -> list:
    return [dot(row, v) for row in m]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(row) for row in zip(*m)]


def mat_inverse(m: Sequence[Sequence[Q]]) -> Matrix:
    """Inverse by Gauss-Jordan elimination with exact pivoting."""
    n = len(m)
    work = [[Q(x) for x in row] + [Q(1) if i == j else Q(0) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def ldl_decomposition(m: Sequence[Sequence[Q]]) -> tuple[Matrix, Vector]:
    """Factor a symmetric positive definite M as L D L^T.

    L is unit lower triangular, D a vector of positive pivots.  Raises
    ValueError("matrix is not positive definite") on any nonpositive pivot.
    """
    n = len(m)
    lower = identity_matrix(n)
    diag: Vector = [Q(0)] * n
    for j in range(n):
        d = Q(m[j][j]) - sum((diag[k] * lower[j][k] ** 2 for k in range(j)), Q(0))
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag[j] = d
        for i in range(j + 1, n):
            off = Q(m[i][j]) - sum((diag[k] * lower[i][k] * lower[j][k] for k in range(j)), Q(0))
            lower[i][j] = off / d
    return lower, diag


def signature(m: Sequence[Sequence[Q]]) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix.

    Computed by symmetric row/column reduction (congruence preserves the
    signature).  A zero diagonal with a nonzero off-diagonal entry is
    repaired by adding the partner row and column, which puts a nonzero
    value on the diagonal without leaving the congruence class.
    """
    n = len(m)
    work = [[Q(x) for x in row] for row in m]
    pos = neg = zero = 0
    index = 0
    while index < n:
        if work[index][index] == 0:
            partner = next((j for j in range(index + 1, n) if work[index][j] != 0), None)
            if partner is None:
                zero += 1
                index += 1
                continue
            for j in range(n):
                work[index][j] += work[partner][j]
            for i in range(n):
                work[i][index] += work[i][partner]
        pivot = work[index][index]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(index + 1, n):
            if work[i][index] != 0:
                factor = work[i][index] / pivot
                for j in range(n):
                    work[i][j] -= factor * work[index][j]
                for j in range(n):
                    work[j][i] -= factor * work[j][index]
        index += 1
    return pos, neg, zero


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Basis of the integer solutions of rows * x = 0.

    Column reduction by unimodular moves: after processing the first r rows,
    a prefix of the working columns spans their common kernel.  The returned
    vectors form a Z-basis of the full kernel lattice (not merely a finite
    index sublattice), because every move is invertible over Z.
    """
    if not rows:
        raise ValueError("integer_kernel requires at least one row")
    width = len(rows[0])
    basis = identity_matrix(width)
    live = width
    for row in rows:
        values = [dot(row, col) for col in basis[:live]]
        # Euclidean reduction across the live columns.
        while True:
            nonzero = [j for j in range(live) if values[j] != 0]
            if len(nonzero) <= 1:
                break
            j_min = min(nonzero, key=lambda j: abs(values[j]))
            for j in nonzero:
                if j == j_min:
                    continue
                q = values[j] // values[j_min]
                values[j] -= q * values[j_min]
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[j_min])]
        nonzero = [j for j in range(live) if values[j] != 0]
        if nonzero:
            j = nonzero[0]
            basis[j], basis[live - 1] = basis[live - 1], basis[j]
            live -= 1
    return [list(col) for col in basis[:live]]


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def enumerate_quadratic_ball(gram: Sequence[Sequence[Q]], cutoff: Q) -> Iterator[tuple[int, ...]]:
    """Yield every integer x (including 0) with x^T gram x <= cutoff.

    Requires gram symmetric positive definite.  The recursion processes
    coordinates from the last to the first; with y = L^T x the form splits
    as sum(D_i * y_i^2), so at each level the admissible interval for x_i is
    |x_i + offset_i| <= sqrt(budget / D_i), resolved exactly by integer
    square-root bounds.  Deterministic ascending order at every level.
    """
    lower, diag = ldl_decomposition(gram)
    n = len(diag)

    def recurse(level: int, x: list[int], spent: Q) -> Iterator[tuple[int, ...]]:
        if level < 0:
            yield tuple(x)
            return
        offset = sum((lower[j][level] * x[j] for j in range(level + 1, n)), Q(0))
        budget = (cutoff - spent) / diag[level]
        if budget < 0:
            return
        low = -floor_sqrt_plus(budget, offset)
        high = floor_sqrt_plus(budget, -offset)
        for value in range(low, high + 1):
            x[level] = value
            term = diag[level] * (value + offset) ** 2
            if term <= cutoff - spent:
                yield from recurse(level - 1, x, spent + term)
        x[level] = 0

    if cutoff < 0:
        return
    yield from recurse(n - 1, [0] * n, Q(0))


def ball_coordinate_bounds(gram: Sequence[Sequence[Q]], cutoff: Q) -> list[int]:
    """Per-coordinate bounds of the ellipsoid x^T gram x <= cutoff.

    |x_i| never exceeds sqrt(cutoff * (gram^-1)_{ii}); used to refuse
    searches whose certified box exceeds a caller-imposed ceiling.
    """
    if cutoff < 0:
        return [0 for _ in gram]
    inverse = mat_inverse(gram)
    return [floor_sqrt(cutoff * inverse[i][i]) for i in range(len(gram))]
