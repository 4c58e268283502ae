"""Exact linear algebra over the rationals and integer lattices.

Small dense matrices only: the lattices in this package have rank at most a
dozen or so.  Everything is exact: products, sums and the bilinear form
keep integer inputs integer, inverses are computed over
`fractions.Fraction`, and the LDL^T factorization eliminates on ints and
returns Fractions, so results are deterministic.

The workhorse is :func:`enumerate_quadratic_ball`: given a positive definite
rational Gram matrix M and a rational cutoff C, it yields every integer
vector x with x^T M x <= C.  It factors M once as an exact LDL^T and walks
the classic lattice-point recursion (Fincke-Pohst) on Python ints: each
level has one fixed denominator, so its interval endpoints and the budget
left for the levels below are integer operations, no solution is ever
missed and no float or Fraction appears inside the walk.  The walk can be
sliced: optional bounds on the last coordinate, the one walked first, clip
the top level's interval, so a caller that puts a linear functional in that
coordinate walks only its levels of interest (homology fixes the Chern
number this way).
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import isqrt, lcm
from operator import mul
from typing import Iterator, Sequence

Matrix = list[list[Q]]
Vector = list[Q]


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


def ldl_decomposition(m: Sequence[Sequence[Q]]) -> tuple[Matrix, Vector]:
    """Factor a symmetric positive definite M as L D L^T.

    L is unit lower triangular, D a vector of positive pivots; only the
    lower triangle of M is read.  Raises ValueError("matrix is not
    positive definite") on any nonpositive pivot.  The elimination runs
    fraction-free (Bareiss) on s M, s the lcm of the denominators: every
    working entry is an integer minor, each division by the previous
    pivot is exact (Sylvester's identity), and pivot k is the leading
    minor Delta_k, so D_k = Delta_k / (s Delta_{k-1}) and L_ik is the
    column entry over the pivot.
    """
    n = len(m)
    scale = lcm(*(m[i][j].denominator for i in range(n) for j in range(i + 1)))
    work = [[int(m[i][j] * scale) for j in range(i + 1)] for i in range(n)]
    lower = identity_matrix(n)
    diag: Vector = [Q(0)] * n
    previous = 1
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            raise ValueError("matrix is not positive definite")
        diag[k] = Q(pivot, previous * scale)
        for i in range(k + 1, n):
            lower[i][k] = Q(work[i][k], pivot)
            for j in range(k + 1, i + 1):
                work[i][j] = (pivot * work[i][j] - work[i][k] * work[j][k]) // previous
        previous = pivot
    return lower, diag


def enumerate_quadratic_ball(
    gram: Sequence[Sequence[Q]], cutoff: Q, low: int | None = None, high: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every integer x (including 0) with x^T gram x <= cutoff.

    With low or high given, only the x with low <= x_last <= high: the
    last coordinate is walked first, so its interval is clipped before any
    level below it is visited.  With neither, the whole ball.

    Requires gram symmetric positive definite.  With gram = L D L^T the
    form is sum(D_i * (x_i + sum_{j>i} L_ji x_j)^2), walked from the last
    coordinate to the first.  Each level runs on ints: q_i, the lcm of the
    denominators below the diagonal in column i of L, turns the shift into
    the integer p_i = sum_{j>i} (q_i L_ji) x_j, and one common multiplier
    T turns the weights T D_i / q_i^2 and the budget T * cutoff into ints.
    A remaining budget r admits exactly the x_i with
    |q_i x_i + p_i| <= isqrt(r // w_i), so every value of the interval is
    a point of the ball.  Deterministic ascending order at every level.
    The last level has q = 1 and p = 0, and its interval is the one the
    bounds clip.
    """
    lower, diag = ldl_decomposition(gram)
    if cutoff < 0:
        return
    n = len(diag)
    if n == 0:
        yield ()
        return
    steps = [lcm(*(lower[j][i].denominator for j in range(i + 1, n))) for i in range(n)]
    shifts = [
        [(j, int(lower[j][i] * q)) for j in range(i + 1, n) if lower[j][i] != 0]
        for i, q in enumerate(steps)
    ]
    weights = [d / (q * q) for d, q in zip(diag, steps)]
    scale = lcm(Q(cutoff).denominator, *(w.denominator for w in weights))
    weights = [int(w * scale) for w in weights]
    x = [0] * n
    top = n - 1

    def recurse(level: int, budget: int) -> Iterator[tuple[int, ...]]:
        q, w = steps[level], weights[level]
        p = sum(c * x[j] for j, c in shifts[level])
        m = isqrt(budget // w)
        start, stop = -((m + p) // q), (m - p) // q + 1
        if level == top:
            start = start if low is None else max(start, low)
            stop = stop if high is None else min(stop, high + 1)
        values = range(start, stop)
        if level == 0:
            for value in values:
                x[0] = value
                yield tuple(x)
        else:
            for value in values:
                x[level] = value
                t = q * value + p
                yield from recurse(level - 1, budget - w * t * t)

    yield from recurse(top, int(scale * cutoff))
