"""Rational parsing, integer square roots, and the exact linear algebra."""

import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from test_homology import signature
from torus_census.errors import FormatError
from torus_census.homology import Basis, SymplecticData, _companion_form
from torus_census.linalg import (
    dot,
    enumerate_quadratic_ball,
    identity_matrix,
    ldl_decomposition,
    mat_inverse,
    mat_mul,
    mat_vec,
)
from torus_census.rationals import (
    ceil_rational,
    floor_sqrt,
    format_rational,
    parse_rational,
)


def transpose(m):
    return [list(row) for row in zip(*m)]


def test_parse_round_trip():
    for text in ["0", "1", "-3", "2/5", "-7/3", "22/7"]:
        value = parse_rational(text)
        assert format_rational(value) == text


def test_parse_normalizes():
    assert parse_rational("4/6") == Q(2, 3)
    assert format_rational(Q(4, 6)) == "2/3"
    assert format_rational(Q(-4, 6)) == "-2/3"


def test_parse_accepts_native_values():
    assert parse_rational(3) == Q(3)
    assert parse_rational(Q(1, 2)) == Q(1, 2)


@pytest.mark.parametrize("bad", ["", "1/0", "a", "1.5", "1 / 2", "--1", "1/-2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_floor_sqrt_small_values():
    expected = [1, 1, 1, 2, 2, 2, 2, 2, 3, 3]
    assert [floor_sqrt(n) for n in range(1, 11)] == expected


def test_floor_sqrt_matches_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(0, 10**12)
        r = floor_sqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)


def test_ceil_rational():
    assert ceil_rational(Q(5, 2)) == 3
    assert ceil_rational(Q(3)) == 3
    assert ceil_rational(Q(-1, 2)) == 0
    assert ceil_rational(Q(17, 6)) == 3


# ---------------------------------------------------------------------------
# Linear algebra


def _random_matrix(rng, n, span=6):
    return [
        [Q(rng.randrange(-span, span + 1), rng.randrange(1, 4)) for _ in range(n)]
        for _ in range(n)
    ]


def test_inverse_round_trip():
    rng = random.Random(11)
    found = 0
    while found < 25:
        m = _random_matrix(rng, 3)
        try:
            inv = mat_inverse(m)
        except ValueError:
            continue
        found += 1
        assert mat_mul(m, inv) == identity_matrix(3)
        assert mat_mul(inv, m) == identity_matrix(3)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        mat_inverse([[Q(1), Q(2)], [Q(2), Q(4)]])


def _fraction_ldl(m):
    """L unit lower triangular and D with m = L D L^T, by plain Gaussian
    elimination over the Fractions: the reference for the integer factor."""
    n = len(m)
    work = [[Q(v) for v in row] for row in m]
    lower = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    diag = []
    for k in range(n):
        if work[k][k] <= 0:
            raise ValueError("matrix is not positive definite")
        diag.append(work[k][k])
        for i in range(k + 1, n):
            lower[i][k] = work[i][k] / work[k][k]
            for j in range(k + 1, n):
                work[i][j] -= lower[i][k] * work[k][j]
    return lower, diag


def _determinant(m):
    """By the permutation expansion, sharing nothing with elimination."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _integer_factor_as_fractions(factor):
    """L and D from ldl_decomposition's (scale, pivots, columns)."""
    scale, pivots, columns = factor
    n = len(pivots)
    lower = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for k, column in enumerate(columns):
        assert len(column) == n - 1 - k
        for i, a in enumerate(column, k + 1):
            lower[i][k] = Q(a, pivots[k])
    diag = [Q(pivot, scale * before) for pivot, before in zip(pivots, [1] + pivots)]
    return lower, diag


def _assert_integer_factor(m):
    """The integer factor of m rebuilds m exactly, agrees with the Fraction
    reference, and its pivots are the leading minors of scale * m."""
    n = len(m)
    factor = ldl_decomposition(m)
    scale, pivots, columns = factor
    assert all(type(v) is int for v in [scale, *pivots, *itertools.chain(*columns)])
    assert scale == math.lcm(*(Q(m[i][j]).denominator for i in range(n) for j in range(i + 1)))
    lower, diag = _integer_factor_as_fractions(factor)
    d = [[diag[i] if i == j else Q(0) for j in range(n)] for i in range(n)]
    assert mat_mul(mat_mul(lower, d), transpose(lower)) == m
    assert (lower, diag) == _fraction_ldl(m)
    scaled = [[scale * v for v in row] for row in m]
    assert pivots == [_determinant([row[:k] for row in scaled[:k]]) for k in range(1, n + 1)]
    return factor


def test_ldl_reconstructs_symmetric_matrices():
    rng = random.Random(13)
    checked = 0
    for trial in range(60):
        n = 1 + trial % 6
        a = _random_matrix(rng, n)
        m = mat_mul(a, transpose(a))
        for i in range(n):
            m[i][i] += Q(rng.randrange(0, 3))
        if signature(m) != (n, 0, 0):
            continue
        _assert_integer_factor(m)
        checked += 1
    assert checked > 30
    assert ldl_decomposition([]) == (1, [], [])


def test_ldl_rejects_exactly_the_matrices_that_are_not_positive_definite():
    rng = random.Random(19)
    refused = 0
    for trial in range(200):
        n = 1 + trial % 5
        m = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                m[i][j] = m[j][i] = Q(rng.randrange(-3, 6), rng.randrange(1, 4))
        if signature(m) == (n, 0, 0):
            _, pivots, _ = _assert_integer_factor(m)
            assert all(pivot > 0 for pivot in pivots)
        else:
            refused += 1
            with pytest.raises(ValueError, match="not positive definite"):
                ldl_decomposition(m)
            with pytest.raises(ValueError, match="not positive definite"):
                _fraction_ldl(m)
    assert 20 < refused < 180


def _brute_ball(gram, cutoff, box):
    hits = set()
    n = len(gram)
    for coeffs in itertools.product(range(-box, box + 1), repeat=n):
        value = sum(
            gram[i][j] * coeffs[i] * coeffs[j] for i in range(n) for j in range(n)
        )
        if value <= cutoff:
            hits.add(coeffs)
    return hits


def _positive_definite(rng, n, span=2):
    """A random rational Gram matrix A A^T plus a positive diagonal."""
    a = _random_matrix(rng, n, span=span)
    gram = mat_mul(a, transpose(a))
    for i in range(n):
        gram[i][i] += Q(rng.randrange(1, 4), rng.randrange(1, 4))
    return gram


def test_quadratic_ball_matches_brute_force():
    rng = random.Random(17)
    cases = []
    for _ in range(10):
        a = _random_matrix(rng, 2, span=2)
        gram = mat_mul(a, transpose(a))
        gram[0][0] += 1
        gram[1][1] += 1
        cases.append((gram, Q(rng.randrange(1, 8))))
    for _ in range(6):
        cases.append((_positive_definite(rng, 3), Q(rng.randrange(1, 30), rng.randrange(2, 7))))
    for gram, cutoff in cases:
        inverse = mat_inverse(gram)
        box = max(floor_sqrt(cutoff * inverse[i][i]) for i in range(len(gram))) + 2
        expected = _brute_ball(gram, cutoff, box)
        got = set(enumerate_quadratic_ball(gram, cutoff))
        assert got == expected


def _form(gram, x):
    return sum(gram[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))


def _brute_in_walk_order(gram, cutoff, low=None, high=None):
    """Every point of the ball, low <= x_last <= high, in the walk's order:
    ascending in the last coordinate, then the one before it, down to the
    first.  The search box |x_i| <= sqrt(cutoff (gram^-1)_ii) is certified."""
    inverse = mat_inverse(gram)
    n = len(gram)
    bounds = [floor_sqrt(cutoff * inverse[i][i]) if cutoff >= 0 else -1 for i in range(n)]
    hits = []
    for backwards in itertools.product(*(range(-b, b + 1) for b in reversed(bounds))):
        x = backwards[::-1]
        if low is not None and x[-1] < low or high is not None and x[-1] > high:
            continue
        if _form(gram, x) <= cutoff:
            hits.append(x)
    return hits


def test_walk_on_one_by_one_grams():
    grams = ([[Q(3, 2)]], [[Q(5)]], [[Q(1, 7)]], [[2]])
    for gram in grams:
        for cutoff in (Q(0), Q(4), Q(6), Q(25, 3)):
            for low, high in ((None, None), (-1, None), (None, 0), (1, 1), (2, 1)):
                got = list(enumerate_quadratic_ball(gram, cutoff, low, high))
                assert got == _brute_in_walk_order(gram, cutoff, low, high)
    assert list(enumerate_quadratic_ball([[Q(3, 2)]], Q(6))) == [(-2,), (-1,), (0,), (1,), (2,)]
    # The empty form: its ball is the one point (), and empty below zero.
    assert list(enumerate_quadratic_ball([], Q(0))) == [()]
    assert list(enumerate_quadratic_ball([], Q(-1))) == []


def test_clip_that_empties_the_top_interval():
    rng = random.Random(37)
    for trial in range(30):
        n = 1 + trial % 4
        gram = _positive_definite(rng, n, span=rng.choice((2, 4)))
        cutoff = Q(rng.randrange(1, 30), rng.randrange(1, 4))
        top = max(abs(x[-1]) for x in enumerate_quadratic_ball(gram, cutoff))
        clips = [(top + 1, None), (None, -top - 1), (top + 1, top + 4), (-top - 4, -top - 1)]
        inside = rng.randrange(-top, top + 1)
        clips.append((inside, inside - 1))  # low above high
        for low, high in clips:
            assert list(enumerate_quadratic_ball(gram, cutoff, low, high)) == []
            assert _brute_in_walk_order(gram, cutoff, low, high) == []


def test_cutoff_on_a_point_value_includes_the_point():
    rng = random.Random(31)
    for trial in range(40):
        n = 1 + trial % 3
        gram = _positive_definite(rng, n)
        point = tuple(rng.randrange(-2, 3) for _ in range(n))
        cutoff = _form(gram, point)
        got = list(enumerate_quadratic_ball(gram, cutoff))
        assert point in got and tuple(-v for v in point) in got
        assert got == _brute_in_walk_order(gram, cutoff)
        below = list(enumerate_quadratic_ball(gram, cutoff - Q(1, 10**9)))
        assert point not in below
        assert below == [x for x in got if _form(gram, x) < cutoff]


def test_dead_ends_where_most_upper_values_leave_the_level_below_empty():
    # (7 x0 + x1)^2 + x1^2 / 400: level 0 has step 7, so only x1 near a
    # multiple of 7 leaves it a value.
    skewed = [[Q(49), Q(7)], [Q(7), 1 + Q(1, 400)]]
    # (7 x0 + x1 + 3 x2)^2 + (5 x1 + 2 x2)^2 + x2^2 / 100: steps 7 and 5.
    deeper = [[49, 7, 21], [7, 26, 13], [21, 13, 13 + Q(1, 100)]]
    for gram in (skewed, deeper):
        inverse = mat_inverse(gram)
        for cutoff in (Q(1, 2), Q(1), Q(2)):
            got = list(enumerate_quadratic_ball(gram, cutoff))
            assert got == _brute_in_walk_order(gram, cutoff)
            top = floor_sqrt(cutoff * inverse[-1][-1])
            assert 2 * len({x[-1] for x in got}) < 2 * top + 1


# The Fraction walk the integer walk replaced, kept as the order-exact
# reference: per-level interval ends from floor_sqrt_plus, and a per-value
# test of the remaining budget.


def _reference_floor_sqrt_plus(q, c):
    """Largest integer m with m <= sqrt(q) + c, for rational q >= 0."""

    def at_most_sqrt(t):
        return t <= 0 or t * t <= q

    m = floor_sqrt(q) + math.floor(c)
    while at_most_sqrt(Q(m + 1) - c):
        m += 1
    while not at_most_sqrt(Q(m) - c):
        m -= 1
    return m


def _reference_ball(gram, cutoff):
    lower, diag = _fraction_ldl(gram)
    n = len(diag)

    def recurse(level, x, spent):
        if level < 0:
            yield tuple(x)
            return
        offset = sum((lower[j][level] * x[j] for j in range(level + 1, n)), Q(0))
        budget = (cutoff - spent) / diag[level]
        if budget < 0:
            return
        low = -_reference_floor_sqrt_plus(budget, offset)
        high = _reference_floor_sqrt_plus(budget, -offset)
        for value in range(low, high + 1):
            x[level] = value
            term = diag[level] * (value + offset) ** 2
            if term <= cutoff - spent:
                yield from recurse(level - 1, x, spent + term)
        x[level] = 0

    if cutoff >= 0:
        yield from recurse(n - 1, [0] * n, Q(0))


def _assert_walk_matches_reference(gram, cutoff):
    got = list(enumerate_quadratic_ball(gram, cutoff))
    assert got == list(_reference_ball(gram, cutoff))
    # The certified box: |x_i| <= sqrt(cutoff (gram^-1)_ii) on the ball.
    inverse = mat_inverse(gram)
    box = [floor_sqrt(cutoff * inverse[i][i]) for i in range(len(gram))]
    assert all(abs(x) <= b for point in got for x, b in zip(point, box))
    return got


def test_quadratic_ball_matches_reference_walk_in_order():
    rng = random.Random(23)
    points = 0
    for trial in range(120):
        n = 1 + trial % 6
        gram = _positive_definite(rng, n, span=rng.choice((2, 4)))
        cutoff = rng.choice(
            (Q(0), Q(rng.randrange(1, 40), rng.randrange(2, 9)), Q(rng.randrange(8, 20)))
        )
        got = _assert_walk_matches_reference(gram, cutoff)
        assert got.count((0,) * n) == 1
        points += len(got)
    assert points > 2000


def test_bounded_last_coordinate_is_the_full_walk_filtered():
    rng = random.Random(29)
    sliced = 0
    for trial in range(120):
        n = 1 + trial % 5
        gram = _positive_definite(rng, n, span=rng.choice((2, 4)))
        cutoff = Q(rng.randrange(1, 60), rng.randrange(1, 5))
        full = list(enumerate_quadratic_ball(gram, cutoff))
        level = rng.randrange(-3, 4)
        bounds = [
            (level, level - 1),  # empty
            (level, level),  # one value
            (level, None),  # half-open above
            (None, level),  # half-open below
            (level - 1, level + 2),
            (None, None),
        ]
        for low, high in bounds:
            expected = [
                x for x in full
                if (low is None or x[-1] >= low) and (high is None or x[-1] <= high)
            ]
            assert list(enumerate_quadratic_ball(gram, cutoff, low, high)) == expected
            sliced += len(expected)
        assert list(enumerate_quadratic_ball(gram, Q(-1), level, level)) == []
    assert sliced > 3000


# Primes just below 2**31, as denominators of recipe areas.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)


def _near(value, prime):
    """The fraction with denominator prime closest to value from below."""
    return Q(math.floor(value * prime), prime)


def _companion(omega):
    return _companion_form(omega.basis.gram(), omega.integer_area[0], omega.basis.dual)


def _rational_companion(omega):
    """2 w w^T / s - G over the Fractions, the form the integer one scales."""
    gram, weight, square = omega.basis.gram(), omega.area_vector(), omega.volume_quantity()
    return [[2 * u * v / square - g for v, g in zip(weight, row)] for u, row in zip(weight, gram)]


def test_quadratic_ball_on_companion_forms_with_large_denominators():
    p = _PRIMES
    recipes = [
        SymplecticData(
            Basis("rational", 0, 3),
            (_near(Q(1, 3), p[0]), _near(Q(1, 4), p[1]), _near(Q(1, 5), p[2])),
            lam=_near(Q(1), p[3]),
        ),
        SymplecticData(
            Basis("rational", 0, 2), (_near(Q(2, 5), p[4]), _near(Q(1, 7), p[5])), lam=Q(1)
        ),
        SymplecticData(
            Basis("product_ruled", 0, 2),
            (_near(Q(1, 3), p[0]), _near(Q(1, 6), p[2])),
            mu=_near(Q(3, 2), p[1]),
        ),
        SymplecticData(
            Basis("product_ruled", 1, 1), (_near(Q(1, 2), p[3]),), mu=_near(Q(2), p[4])
        ),
        SymplecticData(
            Basis("twisted_ruled", 0, 2),
            (_near(Q(1, 4), p[5]), _near(Q(1, 5), p[0])),
            mu=_near(Q(1, 2), p[2]),
            fiber=_near(Q(3, 2), p[1]),
        ),
    ]
    for omega in recipes:
        form, scale, box = _companion(omega)
        rational = _rational_companion(omega)
        assert form == [[scale * v for v in row] for row in rational]
        inverse = mat_inverse(rational)
        assert box == [inverse[i][i] for i in range(len(form))]
        for cutoff in (Q(0), Q(1), Q(5, 3), 2 * omega.capacities[-1] ** 2 / omega.volume_quantity() + 1, Q(9)):
            got = _assert_walk_matches_reference(form, scale * cutoff)
            assert got == list(enumerate_quadratic_ball(rational, cutoff))


def test_quadratic_ball_requires_positive_definite():
    gram = [[Q(1), Q(0)], [Q(0), Q(-1)]]
    for cutoff in (Q(4), Q(-1)):
        with pytest.raises(ValueError, match="not positive definite"):
            list(enumerate_quadratic_ball(gram, cutoff))


def test_dot_and_mat_vec():
    assert dot([Q(1), Q(2)], [Q(3), Q(4)]) == Q(11)
    assert mat_vec([[Q(1), Q(2)], [Q(0), Q(1)]], [Q(5), Q(7)]) == [Q(19), Q(7)]
