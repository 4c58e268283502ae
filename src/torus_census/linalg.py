"""Exact linear algebra over the rationals and integer lattices.

Small dense matrices only: the lattices in this package have rank at most a
dozen or so.  Everything is exact: products, sums and the bilinear form
keep integer inputs integer, inverses are computed over
`fractions.Fraction`, and the LDL^T factorization is fraction-free: it
eliminates on ints and returns its factor as ints (a scale, the leading
minors and the eliminated columns), so results are deterministic.

The workhorse is :func:`enumerate_quadratic_ball`: given a positive definite
rational Gram matrix M and a rational cutoff C, it yields every integer
vector x with x^T M x <= C.  It factors M once and walks the classic
lattice-point enumeration (Fincke-Pohst) on Python ints, as one loop over
per-level arrays: each level has one fixed step, read off the integer
factor, so its interval endpoints and the budget left for the levels below
are integer operations, no solution is ever missed and no float or
Fraction appears inside the walk.  The walk can be sliced: optional bounds
on the last coordinate, the one walked first, clip the top level's
interval, so a caller that puts a linear functional in that coordinate
walks only its levels of interest (homology fixes the Chern number this
way).
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator, Sequence

Matrix = list[list[Q]]


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dot(u: Sequence, v: Sequence):
    """Sum of products; integer inputs give an integer."""
    return sum(map(mul, u, v))


def bilinear(gram: Sequence[Sequence], x: Sequence, y: Sequence):
    """x^T gram y, summed over the nonzero entries of x (lattice classes are sparse)."""
    return sum(a * dot(row, y) for a, row in zip(x, gram) if a)


def mat_vec(m: Sequence[Sequence], v: Sequence) -> list:
    return [dot(row, v) for row in m]


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


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


def ldl_decomposition(m: Sequence[Sequence[Q]]) -> tuple[int, list[int], list[list[int]]]:
    """Factor a symmetric positive definite M as L D L^T, fraction-free.

    Returns (scale, pivots, columns), all ints: scale s is the lcm of the
    denominators of M's lower triangle, pivots[k] is Delta_k, the leading
    (k+1)-minor of s M, and columns[k] holds the entries a_ik for i > k.
    Then L_ik = a_ik / Delta_k and D_k = Delta_k / (s Delta_{k-1}), with
    Delta_{-1} = 1.  Only the lower triangle of M is read.  Raises
    ValueError("matrix is not positive definite") on any nonpositive
    pivot.  The elimination is Bareiss's on s M: every working entry is
    an integer minor, and each division by the previous pivot is exact
    (Sylvester's identity).
    """
    n = len(m)
    scale = lcm(*(m[i][j].denominator for i in range(n) for j in range(i + 1)))
    work = [
        [m[i][j].numerator * (scale // m[i][j].denominator) for j in range(i + 1)]
        for i in range(n)
    ]
    pivots: list[int] = []
    columns: list[list[int]] = []
    previous = 1
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            raise ValueError("matrix is not positive definite")
        column = [work[i][k] for i in range(k + 1, n)]
        for i, a in enumerate(column, k + 1):
            row = work[i]
            for j, b in enumerate(column[: i - k], k + 1):
                row[j] = (pivot * row[j] - a * b) // previous
        pivots.append(pivot)
        columns.append(column)
        previous = pivot
    return scale, pivots, columns


def enumerate_quadratic_ball(
    gram: Sequence[Sequence[Q]], cutoff: Q, low: int | None = None, high: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every integer x (including 0) with x^T gram x <= cutoff.

    With low or high given, only the x with low <= x_last <= high: the
    last coordinate is walked first, so its interval is clipped before any
    level below it is visited.  With neither, the whole ball.

    Requires gram symmetric positive definite.  With gram = L D L^T the
    form is sum(D_i * (x_i + sum_{j>i} L_ji x_j)^2), walked from the last
    coordinate to the first, on the integer factor of ldl_decomposition.
    Level i has step q_i = Delta_i / g_i, g_i = gcd(Delta_i, a_ji for j > i),
    the lcm of the denominators of column i of L; its shift is the integer
    p_i = sum_{j>i} (a_ji / g_i) x_j = q_i sum_{j>i} L_ji x_j, and one
    common multiplier T, the lcm of the reduced denominators, turns the
    weights T D_i / q_i^2 and the budget T * cutoff into ints.  A
    remaining budget r admits exactly the x_i with
    |q_i x_i + p_i| <= isqrt(r // w_i), so every value of the interval is
    a point of the ball.  The last level has q = 1 and p = 0, and its
    interval is the one the bounds clip.

    The walk is one loop over per-level arrays: each level keeps its
    current value, the end of its interval, and its budget and shift.
    Level 0 yields its whole interval; an empty interval, or an exhausted
    one, moves back up to the next value of the nearest level above.
    Deterministic ascending order at every level.
    """
    scale, pivots, columns = ldl_decomposition(gram)
    if cutoff < 0:
        return
    n = len(pivots)
    if n == 0:
        yield ()
        return
    steps, shifts, numerators, denominators = [], [], [], []
    previous = 1
    for i, (pivot, column) in enumerate(zip(pivots, columns)):
        g = gcd(pivot, *column)
        q = pivot // g
        steps.append(q)
        # Zeros through level i: the shift is one dot product with all of x.
        shifts.append([0] * (i + 1) + [a // g for a in column])
        # D_i / q_i^2 = g / (scale * Delta_{i-1} * q), in lowest terms.
        den = scale * previous * q
        common = gcd(g, den)
        numerators.append(g // common)
        denominators.append(den // common)
        previous = pivot
    cutoff = Q(cutoff)
    multiplier = lcm(cutoff.denominator, *denominators)
    weights = [u * (multiplier // v) for u, v in zip(numerators, denominators)]
    top = n - 1
    x = [0] * n
    stops = [0] * n
    budgets = [0] * n
    offsets = [0] * n
    budgets[top] = cutoff.numerator * (multiplier // cutoff.denominator)
    level = top
    while True:
        q, w = steps[level], weights[level]
        p = sum(map(mul, shifts[level], x))
        m = isqrt(budgets[level] // w)
        start, stop = -((m + p) // q), (m - p) // q + 1
        if level == top:
            start = start if low is None else max(start, low)
            stop = stop if high is None else min(stop, high + 1)
        if level == 0:
            for value in range(start, stop):
                x[0] = value
                yield tuple(x)
        elif start < stop:
            x[level], stops[level], offsets[level] = start, stop, p
            t = q * start + p
            budgets[level - 1] = budgets[level] - w * t * t
            level -= 1
            continue
        # Back up to the nearest level above with a value left.
        level += 1
        while level < n:
            value = x[level] + 1
            if value < stops[level]:
                x[level] = value
                t = steps[level] * value + offsets[level]
                budgets[level - 1] = budgets[level] - weights[level] * t * t
                level -= 1
                break
            level += 1
        else:
            return
