"""Second homology of blown-up rational and ruled surfaces, exactly.

A basis is one of three shapes: the rational shape (line class L and
exceptional classes E1..Ek, intersection form diag(1, -1, .., -1)), or one
of the two ruled shapes (section class B, fiber class F, exceptional
classes E1..Ek, with B.F = 1 and B.B equal to 0 or -1).  All three have
Lorentzian signature (1, rank-1), which is what makes every enumeration
here finite: the area functional is dual to a timelike vector, so
"bounded area and bounded square" cuts out a compact region, and the
companion positive definite form built from it turns each search into an
exact lattice-point walk (see linalg.enumerate_quadratic_ball) on whole
numbers, in a coefficient box read off in closed form.  Every class sought
has a fixed Chern number (or a lower bound on it), so each walk runs in a
unimodular frame whose last coordinate is c.x / gcd(c), c the Chern
covector (_chern_slice): the walk fixes or bounds that coordinate before
it visits any other, and each point found is mapped back to the basis.

Symplectic shapes are recorded as SymplecticData: the base areas plus the
ordered blow-up capacities.  Everything downstream (candidate exceptional
classes, minimal classes, blow-down chains, capacity thresholds) is a pure
function of that data.  Each SymplecticData derives its facts once: the
area covector w, its integer form W = D w, the volume quantity and the
Chern pairing.  Areas run on that one integer covector: the area of a
class x is W.x / D, and every per-point filter of a walk compares ints.

A blow-down needs no walk.  A bare Ei is dropped, and F - Ei (or B - Ei
on a genus-0 product) changes the ruled shape in closed form.  Any other
class is read in a rational basis and brought to a bare Ej by Cremona
descent (_descended_blow_down), with no limit on the number of blow-ups;
the smaller stage comes out Cremona-reduced.  On a twisted positive-genus
base the section B is no sphere class, and the cone asks only positive
volume and fiber area, so a blow-down there can leave a section of area
zero or below (_free_section).  Every path ends in _finish_blow_down's
exactness checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    EnumerationError,
    FormatError,
    PreconditionError,
    UnsupportedBlowdownError,
)
from .linalg import (
    bilinear,
    dot,
    enumerate_quadratic_ball,
    identity_matrix,
    mat_inverse,  # not called here; bench/test_bench.py checks the tracer patches it
    mat_mul,
    mat_vec,
)
from .rationals import floor_sqrt, format_rational, parse_rational

RATIONAL = "rational"
PRODUCT_RULED = "product_ruled"
TWISTED_RULED = "twisted_ruled"
BASIS_KINDS = (RATIONAL, PRODUCT_RULED, TWISTED_RULED)

DEFAULT_SEARCH_CEILING = 512


# ---------------------------------------------------------------------------
# Bases and classes


@dataclass(frozen=True)
class Basis:
    """Ordered symbol list plus intersection form for one homology lattice."""

    kind: str
    genus: int = 0
    blowups: int = 0

    def __post_init__(self) -> None:
        if self.kind not in BASIS_KINDS:
            raise FormatError(f"unknown basis kind: {self.kind!r}")
        if not isinstance(self.genus, int) or self.genus < 0:
            raise FormatError(f"genus must be a nonnegative integer: {self.genus!r}")
        if not isinstance(self.blowups, int) or self.blowups < 0:
            raise FormatError(f"blow-up count must be a nonnegative integer: {self.blowups!r}")
        if self.kind == RATIONAL and self.genus != 0:
            raise FormatError("rational bases have genus 0")

    @property
    def base_rank(self) -> int:
        return 1 if self.kind == RATIONAL else 2

    @property
    def rank(self) -> int:
        return self.base_rank + self.blowups

    @property
    def symbols(self) -> tuple[str, ...]:
        head = ("L",) if self.kind == RATIONAL else ("B", "F")
        return head + tuple(f"E{i}" for i in range(1, self.blowups + 1))

    def gram(self) -> list[list[int]]:
        n = self.rank
        m = [[0] * n for _ in range(n)]
        if self.kind == RATIONAL:
            m[0][0] = 1
        else:
            m[0][0] = -1 if self.kind == TWISTED_RULED else 0
            m[0][1] = m[1][0] = 1
        for i in range(self.base_rank, n):
            m[i][i] = -1
        return m

    def chern_vector(self) -> list[int]:
        """Pairing of the first Chern class with each basis symbol."""
        if self.kind == RATIONAL:
            head = [3]
        elif self.kind == PRODUCT_RULED:
            head = [2 - 2 * self.genus, 2]
        else:
            head = [1 - 2 * self.genus, 2]
        return head + [1] * self.blowups

    def dual(self, covector: Sequence[Q]) -> list[Q]:
        """gram^-1 . covector: the class whose pairings are the covector.

        The rational and product Grams are their own inverses; the twisted
        head [[-1, 1], [1, 0]] has inverse [[0, 1], [1, 1]].
        """
        if self.kind == RATIONAL:
            head = [covector[0]]
        elif self.kind == PRODUCT_RULED:
            head = [covector[1], covector[0]]
        else:
            head = [covector[1], covector[0] + covector[1]]
        return head + [-c for c in covector[self.base_rank :]]


@dataclass(frozen=True)
class HomologyClass:
    basis: Basis
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != self.basis.rank:
            raise FormatError(
                f"class needs {self.basis.rank} coefficients, got {len(coeffs)}"
            )

    def __str__(self) -> str:
        parts: list[str] = []
        for symbol, c in zip(self.basis.symbols, self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            magnitude = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{sign} {magnitude}{symbol}")
        if not parts:
            return "0"
        head = parts[0].replace("+ ", "").replace("- ", "-")
        return " ".join([head] + parts[1:])


def _require_same_basis(a: HomologyClass, b: HomologyClass) -> None:
    if a.basis != b.basis:
        raise PreconditionError("basis mismatch")


def _invariant(holds: bool, what: str) -> None:
    """A broken invariant is a program fault; unlike assert, this survives -O."""
    if not holds:
        raise AssertionError(what)


def intersect(a: HomologyClass, b: HomologyClass) -> int:
    """Symmetric bilinear intersection pairing."""
    _require_same_basis(a, b)
    return bilinear(a.basis.gram(), a.coeffs, b.coeffs)


def chern(a: HomologyClass) -> int:
    """Pairing of the first Chern class with a class."""
    return dot(a.basis.chern_vector(), a.coeffs)


# ---------------------------------------------------------------------------
# Symplectic data


@dataclass(frozen=True)
class SymplecticData:
    """A blow-up shape: base areas plus ordered blow-up capacities.

    Rational bases carry lam (the area of L).  Ruled bases carry mu (the
    area of the section B) and fiber (the area of F, 1 unless a blow-down
    produced something else).  Base areas are positive, except the section
    area on a twisted positive-genus base (_free_section).  Capacities are
    the areas of E1..Ek and must be weakly decreasing and positive; the
    squared-volume quantity (the square of the dual of the area functional)
    must be positive, and the data must lie in the symplectic cone
    (require_in_cone).  Construction stores integer_area, (W, D) with the
    area covector W / D, W integral and D the least such, and the volume
    quantity.
    """

    basis: Basis
    capacities: tuple[Q, ...] = ()
    lam: Q | None = None
    mu: Q | None = None
    fiber: Q | None = None

    def __post_init__(self) -> None:
        caps = tuple(parse_rational(c) for c in self.capacities)
        object.__setattr__(self, "capacities", caps)
        for name in ("lam", "mu", "fiber"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, parse_rational(value))
        if self.basis.kind == RATIONAL:
            if self.lam is None or self.mu is not None or self.fiber is not None:
                raise PreconditionError("rational data needs lam and no mu/fiber")
            if self.lam <= 0:
                raise PreconditionError("base area must be positive")
        else:
            if self.mu is None or self.lam is not None:
                raise PreconditionError("ruled data needs mu and no lam")
            if self.fiber is None:
                object.__setattr__(self, "fiber", Q(1))
            if self.fiber <= 0 or (self.mu <= 0 and not _free_section(self.basis)):
                raise PreconditionError("base area must be positive")
        if len(caps) != self.basis.blowups:
            raise PreconditionError(
                f"expected {self.basis.blowups} capacities, got {len(caps)}"
            )
        if any(c <= 0 for c in caps):
            raise PreconditionError("capacities must be positive")
        if any(caps[i] < caps[i + 1] for i in range(len(caps) - 1)):
            raise PreconditionError("capacities must be weakly decreasing")
        whole, scale = _integral(self.area_vector())
        volume = Q(dot(whole, self.basis.dual(whole)), scale * scale)
        if volume <= 0:
            raise PreconditionError("recipe volume must be positive")
        area = self.lam if self.basis.kind == RATIONAL else self.mu
        require_in_cone(self.basis, area, self.fiber, caps)
        object.__setattr__(self, "integer_area", (whole, scale))
        object.__setattr__(self, "_volume_quantity", volume)

    def area_vector(self) -> list[Q]:
        """Covector w with area(x) = w . coeffs(x)."""
        head = (self.lam,) if self.basis.kind == RATIONAL else (self.mu, self.fiber)
        return list(head + self.capacities)

    def volume_quantity(self) -> Q:
        """Square of the dual of the area functional; twice the volume."""
        return self._volume_quantity

    def chern_pairing(self) -> Q:
        """Total area of the anticanonical class."""
        whole, scale = self.integer_area
        return Q(dot(whole, self.basis.dual(self.basis.chern_vector())), scale)


def _free_section(basis: Basis) -> bool:
    """A twisted positive-genus base, whose section B may have area <= 0.

    On an irrational ruled surface the cone asks only omega^2 > 0 and
    omega(F) > 0 (Li-Liu), and no sphere meets B.  With B.B = -1 the
    volume quantity 2 mu f + f^2 - sum c_i^2 > 0 leaves mu > -f/2.
    """
    return basis.kind == TWISTED_RULED and basis.genus > 0


def _integral(covector: Sequence[Q]) -> tuple[tuple[int, ...], int]:
    """(W, D) with covector = W / D, D the lcm of the denominators."""
    scale = lcm(*(v.denominator for v in covector))
    return tuple(v.numerator * (scale // v.denominator) for v in covector), scale


def cremona_reduced(lam: Q, caps: Sequence[Q]) -> tuple[Q, tuple[Q, ...]]:
    """The reduced form of the rational data (lam; caps), caps decreasing.

    The data is reduced when lam >= c1+c2+c3.  The Cremona move
    (lam; a, b, c, ...) -> (2 lam-a-b-c; lam-b-c, lam-a-c, lam-a-b, ...)
    names the same manifold (McDuff's uniqueness of blow-ups) and lowers
    lam by the excess a+b+c-lam, so repeating it with the capacities
    re-sorted ends in reduced form.  A capacity that drops to zero or
    below, or a pair with lam <= c1+c2, is a class of nonpositive area:
    the data lies outside the symplectic cone, which for these b+ = 1
    manifolds is cut out by positive volume and positive area on every
    exceptional class (Li-Liu).
    """
    line, points = _cremona_reduce((lam,), [(c,) for c in caps])
    return line[0], tuple(point[0] for point in points)


def _cremona_reduce(line: tuple, points: Sequence[tuple]) -> tuple[tuple, tuple[tuple, ...]]:
    """cremona_reduced on (area, *coordinates) tuples, for a line and its points.

    A Cremona move is the reflection in L - E1 - E2 - E3.  It adds that
    class, line - p1 - p2 - p3, to the line and to each of the first three
    points: on areas that is the move of cremona_reduced, and on the
    coordinates of a frame the same move of its basis.  Points are kept in
    decreasing order.
    """
    points = tuple(sorted(points, reverse=True))
    if len(points) == 2 and line[0] <= points[0][0] + points[1][0]:
        raise PreconditionError(
            "recipe outside the symplectic cone: L-E1-E2 has nonpositive area"
        )
    while len(points) >= 3 and line[0] < points[0][0] + points[1][0] + points[2][0]:
        root = tuple(u - a - b - c for u, a, b, c in zip(line, *points[:3]))
        moved = tuple(tuple(u + r for u, r in zip(point, root)) for point in points[:3])
        if min(point[0] for point in moved) <= 0:
            raise PreconditionError(
                "recipe outside the symplectic cone: Cremona reduction "
                "reaches a nonpositive capacity"
            )
        line = tuple(u + r for u, r in zip(line, root))
        points = tuple(sorted(moved + points[3:], reverse=True))
    return line, points


def require_in_cone(basis: Basis, area: Q, fiber: Q | None, caps: Sequence[Q]) -> None:
    """Refuse data outside the symplectic cone; area is lam or mu.

    Rational data is checked by Cremona reduction.  Genus-0 ruled data is
    checked through its rational presentation, which Cremona reduction
    accepts exactly inside the cone: product(mu, f; d, rest) =
    cp2(mu+f-d; mu-d, f-d, rest) and twisted(mu, f; c) = cp2(mu+f; mu, c).
    On a positive-genus base the exceptional classes are E_i and F-E_i, so
    every capacity must stay below the fiber area f.
    """
    if basis.kind == RATIONAL:
        cremona_reduced(area, caps)
        return
    if not caps:
        return
    if basis.genus > 0:
        if caps[0] >= fiber:
            raise PreconditionError(
                "recipe outside the symplectic cone: F-E1 has nonpositive area"
            )
        return
    if basis.kind == PRODUCT_RULED:
        lam, moved = area + fiber - caps[0], (area - caps[0], fiber - caps[0], *caps[1:])
    else:
        lam, moved = area + fiber, (area, *caps)
    if min(moved) <= 0:
        raise PreconditionError(
            "recipe outside the symplectic cone: some capacity reaches a "
            "section or fiber area"
        )
    cremona_reduced(lam, moved)


def area(a: HomologyClass, omega: SymplecticData) -> Q:
    """Symplectic area of a class."""
    if a.basis != omega.basis:
        raise PreconditionError("basis mismatch")
    whole, scale = omega.integer_area
    return Q(dot(whole, a.coeffs), scale)


# ---------------------------------------------------------------------------
# Certified enumeration


def _companion_form(
    gram: Sequence[Sequence[int]], whole: Sequence[int], dual: Callable[[Sequence], list]
) -> tuple[list[list[int]], int, list[Q]]:
    """Form A = 2 w w^T / s - G as (a A, a, diagonal of A^-1); dual(v) is G^-1 v.

    A is positive definite when s = w^T G^-1 w > 0, that is when w is dual
    to a timelike vector.  A does not change when w is scaled, so it is
    built on the integral multiple W = whole of w: with W^T G^-1 W = a/b in
    lowest terms, a A = 2b W W^T - a G.  Sherman-Morrison gives
    A^-1 = 2 d d^T / s - G^-1 with d = G^-1 W and s = a/b.
    """
    d = dual(whole)
    square = Q(dot(whole, d))
    a, b = square.numerator, square.denominator
    form = [[2 * b * u * v - a * g for v, g in zip(whole, row)] for u, row in zip(whole, gram)]
    units = identity_matrix(len(whole))
    return form, a, [2 * x * x / square - dual(units[i])[i] for i, x in enumerate(d)]


def _chern_slice(
    form: Sequence[Sequence[int]], chern_vec: Sequence[int]
) -> tuple[int, list[list[int]], list[tuple[int, list[int]]]]:
    """(g, V^T form V, moved rows of V) for a frame x = V y with y_last = (c/g).x.

    g = gcd(c) and V is unimodular.  Step j folds coordinate j of c/g into
    the last (which stays positive) by the determinant-1 column operation
    of extended Euclid, and the same operation on rows and columns carries
    the form along.  c of a basis with a blow-up ends in 1, so each fold
    is a shear and V is the identity with last row (-c_0, .., -c_{n-2}, 1),
    the inverse of the identity with its last row replaced by c.  A
    twisted base with no blow-up has c = (1 - 2 genus, 2), with no unit
    entry from genus 2 on.  The rows of V that differ from the identity's
    come with their index: x is y with those entries recomputed.
    """
    n = len(chern_vec)
    g = gcd(*chern_vec)
    v = [c // g for c in chern_vec]
    frame = identity_matrix(n)
    form = [list(row) for row in form]
    for j in range(n - 1):
        d = gcd(v[j], v[-1])
        a, b = v[j] // d, v[-1] // d
        s = pow(a, -1, b)  # s a + t b = 1
        t = (1 - s * a) // b
        for row in frame + form:
            row[j], row[-1] = b * row[j] - a * row[-1], s * row[j] + t * row[-1]
        pair = list(zip(form[j], form[-1]))
        form[j] = [b * u - a * w for u, w in pair]
        form[-1] = [s * u + t * w for u, w in pair]
        v[j], v[-1] = 0, d
    unit = identity_matrix(n)
    return g, form, [(i, row) for i, row in enumerate(frame) if row != unit[i]]


def _certified_ball(
    companion: tuple[list[list[int]], int, list[Q]],
    sliced: tuple[int, list[list[int]], list[tuple[int, list[int]]]],
    cutoff: Q,
    chern_low: int,
    chern_high: int | None,
    search_ceiling: int,
) -> Iterable[tuple[int, ...]]:
    """The points of x^T A x <= cutoff with chern_low <= c.x <= chern_high.

    The walk does not depend on scale: it runs on a A and a * cutoff, in
    the frame of _chern_slice, where c.x = g y_last bounds y_last by
    ceil(chern_low / g) and floor(chern_high / g); chern_high None is no
    upper bound.  It is refused when the box |x_i| <= sqrt(cutoff
    (A^-1)_ii) of the whole ball passes the search ceiling.
    """
    _, scale, box = companion
    if cutoff >= 0 and any(floor_sqrt(cutoff * v) > search_ceiling for v in box):
        raise EnumerationError("bound not certified")
    g, turned, moved = sliced
    high = None if chern_high is None else chern_high // g
    walk = enumerate_quadratic_ball(turned, cutoff * scale, -(-chern_low // g), high)

    def back(y: tuple[int, ...]) -> tuple[int, ...]:
        x = list(y)
        for i, row in moved:
            x[i] = dot(row, y)
        return tuple(x)

    return map(back, walk)


def _passes_positivity(basis: Basis, coeffs: Sequence[int]) -> bool:
    """Pairing constraint against the base positive class.

    Rational bases: pairing with L (the leading coefficient) nonnegative.
    Ruled genus 0: pairing with F (the section coefficient) nonnegative.
    Ruled genus >= 1: pairing with F exactly zero, since every sphere maps
    trivially to a positive-genus base.
    """
    return coeffs[0] >= 0 if basis.genus == 0 else coeffs[0] == 0


def enumerate_exceptional_candidates(
    omega: SymplecticData,
    area_bound: Q,
    search_ceiling: int = DEFAULT_SEARCH_CEILING,
) -> tuple[HomologyClass, ...]:
    """All classes with square -1, Chern number 1, and area in (0, bound].

    The search region is certified finite via the companion form of the
    area functional; if the certified coefficient box exceeds
    search_ceiling the call fails loudly instead of truncating.  The walk
    visits only the level c.x = 1 of the ball (none when gcd(c) > 1, as
    on a product or rational base with no blow-up), so no point is tested
    for its Chern number.
    """
    bound = parse_rational(area_bound)
    if bound <= 0:
        raise PreconditionError("area bound must be positive")
    basis = omega.basis
    gram = basis.gram()
    whole, scale = omega.integer_area
    # An area W.x / D is at most the bound exactly when the integer W.x is
    # at most floor(D * bound).
    top = bound.numerator * scale // bound.denominator
    cutoff = 2 * bound * bound / omega.volume_quantity() + 1
    companion = _companion_form(gram, whole, basis.dual)
    sliced = _chern_slice(companion[0], basis.chern_vector())
    found: list[HomologyClass] = []
    for coeffs in _certified_ball(companion, sliced, cutoff, 1, 1, search_ceiling):
        if not 0 < dot(whole, coeffs) <= top:
            continue
        if bilinear(gram, coeffs, coeffs) != -1:
            continue
        if not _passes_positivity(basis, coeffs):
            continue
        found.append(HomologyClass(basis, coeffs))
    return tuple(sorted(found, key=lambda cls: cls.coeffs))


class MinimalClassData(NamedTuple):
    epsilon: Q
    classes: tuple[HomologyClass, ...]


def minimal_exceptional_classes(omega: SymplecticData) -> MinimalClassData:
    """Smallest area among exceptional candidates and the classes attaining it."""
    if omega.basis.blowups < 1:
        raise PreconditionError("no exceptional divisor")
    return least_area_classes(omega, enumerate_exceptional_candidates(omega, omega.capacities[-1]))


def least_area_classes(
    omega: SymplecticData, candidates: Sequence[HomologyClass]
) -> MinimalClassData:
    """The minimal classes, from the candidates to a bound of at least the last capacity."""
    _invariant(bool(candidates), "the last exceptional class always qualifies")
    whole, scale = omega.integer_area
    areas = [dot(whole, c.coeffs) for c in candidates]
    least = min(areas)
    smallest = tuple(c for c, value in zip(candidates, areas) if value == least)
    return MinimalClassData(Q(least, scale), smallest)


# ---------------------------------------------------------------------------
# Blow-downs


def _is_unit_vector(coeffs: Sequence[int], index: int) -> bool:
    return all(c == (1 if i == index else 0) for i, c in enumerate(coeffs))


def _removal_frame(rank: int, drop: int) -> list[list[int]]:
    return [row for i, row in enumerate(identity_matrix(rank)) if i != drop]


def _not_exceptional(exc: HomologyClass, reason: str) -> PreconditionError:
    return PreconditionError(f"class is not exceptional ({reason}): {exc}")


def _blow_down_with_frame(
    omega: SymplecticData, exc: HomologyClass
) -> tuple[SymplecticData, list[list[int]]]:
    """Blow down and also return the new basis written in the old coordinates.

    The frame rows are the new basis vectors; transporting a class of the
    new lattice back to the old one is coefficient-weighted row summation.
    """
    basis = omega.basis
    if exc.basis != basis:
        raise PreconditionError("basis mismatch")
    if intersect(exc, exc) != -1:
        raise _not_exceptional(exc, "square is not -1")
    if chern(exc) != 1:
        raise _not_exceptional(exc, "Chern number is not 1")
    value = area(exc, omega)
    if value <= 0:
        raise _not_exceptional(exc, "area is not positive")

    coeffs = exc.coeffs
    base = basis.base_rank
    # A bare exceptional symbol: drop it.
    for i in range(base, basis.rank):
        if _is_unit_vector(coeffs, i):
            cap_index = i - base
            caps = omega.capacities[:cap_index] + omega.capacities[cap_index + 1 :]
            small = Basis(basis.kind, basis.genus, basis.blowups - 1)
            data = SymplecticData(
                small, caps, lam=omega.lam, mu=omega.mu,
                fiber=None if basis.kind == RATIONAL else omega.fiber,
            )
            return _finish_blow_down(omega, exc, data, _removal_frame(basis.rank, i))

    if basis.kind in (PRODUCT_RULED, TWISTED_RULED):
        result = _ruled_closed_form(omega, exc)
        if result is not None:
            return result
        if basis.genus >= 1:
            # Every genuine sphere class in a positive-genus ruled lattice is
            # one of the closed-form shapes; anything else has no blow-down.
            raise UnsupportedBlowdownError(f"unsupported blow-down class: {exc}")
    return _descended_blow_down(omega, exc)


def _ruled_closed_form(
    omega: SymplecticData, exc: HomologyClass
) -> tuple[SymplecticData, list[list[int]]] | None:
    """Blow down F - Ei, or B - Ei on a genus-0 product, without a search."""
    basis, coeffs = omega.basis, exc.coeffs
    hits = [i for i in range(2, len(coeffs)) if coeffs[i] != 0]
    if len(hits) != 1 or coeffs[hits[0]] != -1:
        return None
    index = hits[0]
    cap = omega.capacities[index - 2]
    # On a genus-0 product, B - Ei is F - Ei with B and F swapped: the
    # fibration swaps, and the old section B becomes the fiber.
    swap = coeffs[:2] == (1, 0) and basis.kind == PRODUCT_RULED and basis.genus == 0
    if coeffs[:2] != (0, 1) and not swap:
        return None
    section_head, fiber_head = ((0, 1), (1, 0)) if swap else ((1, 0), (0, 1))
    mu, fiber = (omega.fiber, omega.mu) if swap else (omega.mu, omega.fiber)
    if basis.kind == PRODUCT_RULED:
        # New section B - Ei has square -1: the twisted shape.
        kind, mu = TWISTED_RULED, mu - cap
    else:
        # New section B + F - Ei has square 0: the product shape.
        kind, mu, section_head = PRODUCT_RULED, mu + fiber - cap, (1, 1)
    small = Basis(kind, basis.genus, basis.blowups - 1)
    if mu <= 0 and not _free_section(small):
        raise UnsupportedBlowdownError(
            f"unsupported blow-down class: {exc} (section area would vanish)"
        )
    rank = basis.rank
    section = list(section_head) + [0] * (rank - 2)
    section[index] = -1
    frame = [section, list(fiber_head) + [0] * (rank - 2)]
    frame += _removal_frame(rank, index)[2:]
    caps = omega.capacities[: index - 2] + omega.capacities[index - 1 :]
    data = SymplecticData(small, caps, mu=mu, fiber=fiber)
    return _finish_blow_down(omega, exc, data, frame)


def _finish_blow_down(
    omega: SymplecticData,
    exc: HomologyClass,
    data: SymplecticData,
    frame: list[list[int]],
) -> tuple[SymplecticData, list[list[int]]]:
    """Shared exactness checks for every blow-down path."""
    value = area(exc, omega)
    _invariant(data.basis.rank == omega.basis.rank - 1, "blow-down drops one rank")
    _invariant(
        data.volume_quantity() == omega.volume_quantity() + value * value,
        "blow-down adds the squared area to the volume quantity",
    )
    _invariant(
        data.chern_pairing() == omega.chern_pairing() + value,
        "blow-down adds the area to the Chern pairing",
    )
    # The frame must be orthogonal to the class and transport areas exactly.
    gram = omega.basis.gram()
    _invariant(
        all(bilinear(gram, row, exc.coeffs) == 0 for row in frame),
        "blow-down frame is orthogonal to the class",
    )
    whole, scale = omega.integer_area
    _invariant(
        mat_vec(frame, whole) == [scale * v for v in data.area_vector()],
        "blow-down frame transports areas",
    )
    _invariant(
        [[bilinear(gram, u, v) for v in frame] for u in frame] == data.basis.gram(),
        "blow-down frame has the standard Gram",
    )
    return data, frame


# Rows that are not the identity in the charts of _rational_chart: for each
# genus-0 ruled kind, the images of B, F (and E1) in the rational basis,
# and the preimages of L, E1 (and E2).
_CHART_HEADS = {
    TWISTED_RULED: (((0, 1), (1, -1)), ((1, 1), (1, 0))),
    PRODUCT_RULED: (((1, -1, 0), (1, 0, -1), (1, -1, -1)), ((1, 1, -1), (0, 1, -1), (1, 0, -1))),
}


def _rational_chart(basis: Basis) -> tuple[list[list[int]], list[list[int]]]:
    """(images, preimages) of an isometry onto the rational lattice of the same rank.

    Row i of images is basis vector i in the rational basis; row j of
    preimages is rational basis vector j in this basis.  The ruled charts
    are the presentations require_in_cone checks: twisted B -> E1,
    F -> L - E1; product B -> L - E1, F -> L - E2, E1 -> L - E1 - E2; the
    other exceptional classes move one place up.
    """
    unit = identity_matrix(basis.rank)
    if basis.kind == RATIONAL:
        return unit, unit
    charts = []
    for head in _CHART_HEADS[basis.kind]:
        rows = [list(row) for row in unit]
        for i, row in enumerate(head):
            rows[i][: len(row)] = row
        charts.append(rows)
    return charts[0], charts[1]


def _reflect(v: list[int], root: list[int]) -> list[int]:
    """The reflection of a rational-basis vector in a root of square -2."""
    pairing = v[0] * root[0] - dot(v[1:], root[1:])
    return [a + pairing * r for a, r in zip(v, root)]


def _descended_blow_down(
    omega: SymplecticData, exc: HomologyClass
) -> tuple[SymplecticData, list[list[int]]]:
    """Blow down a class on a rational or genus-0 ruled basis in closed form.

    The class is read in a rational basis (through _rational_chart).  L -
    E1 - E2 on cp2#2 leaves the even complement <L - E2, L - E1>: S^2 x S^2,
    the section the one of larger area.  Any other class dL - sum m_i E_i
    descends to a unit E_j: the reflection in L - E_a - E_b - E_c at its
    three largest m_i lowers d by m_a + m_b + m_c - d > 0 (Nagata; Li-Li).
    The reflections, undone in reverse order, carry the standard frame of
    the complement of E_j back to a frame of the complement of the class,
    and _cremona_reduce puts that frame in reduced form.  A class that
    stops descending has no blow-down here.
    """
    images, preimages = _rational_chart(omega.basis)
    whole, scale = omega.integer_area
    weight = mat_vec(preimages, whole)
    x = mat_mul([exc.coeffs], images)[0]
    if x == [1, -1, -1]:
        section, fiber = sorted(([1, 0, -1], [1, -1, 0]), key=lambda row: -dot(weight, row))
        data = SymplecticData(
            Basis(PRODUCT_RULED, 0, 0), (),
            mu=Q(dot(weight, section), scale), fiber=Q(dot(weight, fiber), scale),
        )
        return _finish_blow_down(omega, exc, data, mat_mul([section, fiber], preimages))
    roots: list[list[int]] = []
    while x[0] != 0:
        # The coefficient of E_i is -m_i: the three most negative.
        top = sorted(range(1, len(x)), key=x.__getitem__)[:3]
        if len(top) < 3 or x[0] < 0 or x[0] + sum(x[i] for i in top) >= 0:
            raise UnsupportedBlowdownError(f"unsupported blow-down class: {exc}")
        root = [1] + [-1 if i in top else 0 for i in range(1, len(x))]
        x = _reflect(x, root)
        roots.append(root)
    # Square -1 and Chern number 1 with no L: x is a unit E_j.
    rows = [row for row, c in zip(identity_matrix(len(x)), x) if c == 0]
    for root in reversed(roots):
        rows = [_reflect(row, root) for row in rows]
    line, points = _cremona_reduce(
        (dot(weight, rows[0]), *rows[0]), [(dot(weight, row), *row) for row in rows[1:]]
    )
    data = SymplecticData(
        Basis(RATIONAL, 0, len(points)),
        tuple(Q(point[0], scale) for point in points),
        lam=Q(line[0], scale),
    )
    frame = mat_mul([line[1:]] + [point[1:] for point in points], preimages)
    return _finish_blow_down(omega, exc, data, frame)


# ---------------------------------------------------------------------------
# Minimal blow-down chains


@dataclass(frozen=True)
class ChainStep:
    stage: int
    chosen: HomologyClass
    area: Q
    original_coeffs: tuple[int, ...]


@dataclass(frozen=True)
class BlowdownChain:
    steps: tuple[ChainStep, ...]
    terminal: SymplecticData
    start: SymplecticData

    def __post_init__(self) -> None:
        gram = self.start.basis.gram()
        classes = [step.original_coeffs for step in self.steps]
        for i, x in enumerate(classes):
            _invariant(bilinear(gram, x, x) == -1, "chain classes have square -1")
            _invariant(
                all(bilinear(gram, x, y) == 0 for y in classes[i + 1 :]),
                "chain classes are pairwise orthogonal",
            )
        _invariant(
            all(a.area <= b.area for a, b in zip(self.steps, self.steps[1:])),
            "chain areas weakly increase",
        )
        _invariant(self.terminal.basis.blowups == 0, "a chain ends on a minimal model")


def minimal_blowdown_chains(omega: SymplecticData) -> tuple[BlowdownChain, ...]:
    """All maximal chains of minimal-area blow-downs, ties branching.

    Each stage blows down a class of least area until none is left, and
    each tie branches into its own chain.  Tie branches meet the same stage
    again, so each stage's minimal classes, and each class's blow-down once
    taken, are looked up in a table that lives for this call.  The chains
    come sorted by their classes in the recipe's basis; the first is canonical.
    """
    if omega.basis.blowups < 1:
        raise PreconditionError("recipe has no blow-ups")
    chains: list[BlowdownChain] = []
    stages: dict[SymplecticData, tuple[MinimalClassData, dict]] = {}

    def walk(data: SymplecticData, transport: list[list[int]], steps: list[ChainStep]) -> None:
        if data.basis.blowups == 0:
            chains.append(BlowdownChain(tuple(steps), data, omega))
            return
        if data not in stages:
            stages[data] = (minimal_exceptional_classes(data), {})
        (epsilon, classes), blown = stages[data]
        for choice in classes:
            original = tuple(mat_mul([choice.coeffs], transport)[0])
            if choice not in blown:
                blown[choice] = _blow_down_with_frame(data, choice)
            smaller, frame = blown[choice]
            step = ChainStep(len(steps) + 1, choice, epsilon, original)
            walk(smaller, mat_mul(frame, transport), steps + [step])

    walk(omega, identity_matrix(omega.basis.rank), [])
    chains.sort(key=lambda chain: tuple(s.original_coeffs for s in chain.steps))
    return tuple(chains)


def canonical_blowdown_chain(omega: SymplecticData) -> BlowdownChain:
    """The canonical chain of omega: the first of its minimal blow-down chains."""
    return minimal_blowdown_chains(omega)[0]


# ---------------------------------------------------------------------------
# Capacity threshold


class CapacityThreshold(NamedTuple):
    value: Q
    binding: tuple[HomologyClass, ...]


def min_capacity_threshold(omega: SymplecticData) -> CapacityThreshold:
    """Largest bound so that any smaller last capacity leaves Ek uniquely minimal.

    Competitors are classes A - s Ek with A free of Ek and s >= 0 that keep
    square >= -1, Chern number >= 1, positive area on the fixed part, and the
    base positivity constraint.  Such a class stays above the last
    exceptional class exactly while the last capacity is below
    area(A)/(s+1); the threshold is the minimum of those ratios and the
    binding competitors are reported alongside it.  For each s the walk
    visits only the levels c.x >= s + 1 of the fixed part's ball.
    """
    basis = omega.basis
    if basis.blowups < 1:
        raise PreconditionError("no exceptional divisor")
    small = Basis(basis.kind, basis.genus, basis.blowups - 1)
    gram = small.gram()
    # The fixed part is omega without Ek: its areas are omega's but the
    # last, and blowing Ek down adds c_k^2 to the volume quantity.
    whole, scale = omega.integer_area
    whole = whole[:-1]
    quantity = omega.volume_quantity() + omega.capacities[-1] ** 2

    seed = _threshold_seed(omega)
    if 2 * seed * seed >= quantity:
        raise EnumerationError("bound not certified")

    companion = _companion_form(gram, whole, small.dual)
    sliced = _chern_slice(companion[0], small.chern_vector())
    competitors: list[tuple[Q, tuple[int, ...]]] = []
    s = 0
    while True:
        cutoff = 2 * seed * seed * (s + 1) ** 2 / quantity - (s * s - 1)
        if cutoff < 0:
            break
        walk = _certified_ball(companion, sliced, cutoff, s + 1, None, DEFAULT_SEARCH_CEILING)
        for coeffs in walk:
            fixed_area = dot(whole, coeffs)
            if fixed_area <= 0:
                continue
            if bilinear(gram, coeffs, coeffs) - s * s < -1:
                continue
            full = coeffs + (-s,)
            if not _passes_positivity(basis, full):
                continue
            competitors.append((Q(fixed_area, scale * (s + 1)), full))
        s += 1
    _invariant(bool(competitors), "a section- or fiber-based competitor always exists")
    threshold = min(value for value, _ in competitors)
    binding = sorted({full for value, full in competitors if value == threshold})
    classes = tuple(HomologyClass(basis, full) for full in binding)
    return CapacityThreshold(threshold, classes)


def _threshold_seed(omega: SymplecticData) -> Q:
    """Cheap upper bound for the threshold from structural competitors."""
    values: list[Q] = []
    if omega.basis.blowups >= 2:
        values.append(omega.capacities[-2])
    if omega.basis.kind == RATIONAL:
        values.append(omega.lam / 2)
        if omega.basis.blowups >= 2:
            # L - E1 - Ek, the line through the largest and the last point.
            values.append((omega.lam - omega.capacities[0]) / 2)
    else:
        values.append(omega.fiber / 2)
        if omega.basis.genus == 0:
            values.append((omega.mu + (omega.fiber if omega.basis.kind == TWISTED_RULED else 0)) / 2)
    return min(values)


# ---------------------------------------------------------------------------
# Serialization


def basis_to_json(basis: Basis) -> dict:
    payload: dict = {"kind": basis.kind, "k": basis.blowups}
    if basis.kind != RATIONAL:
        payload["g"] = basis.genus
    return payload


def class_to_json(cls: HomologyClass) -> dict:
    return {
        "basis": basis_to_json(cls.basis),
        "coeffs": [str(c) for c in cls.coeffs],
    }


def symplectic_to_json(data: SymplecticData) -> dict:
    caps = [format_rational(c) for c in data.capacities]
    if data.basis.kind == RATIONAL:
        return {"lambda": format_rational(data.lam), "capacities": caps}
    return {
        "kind": data.basis.kind,
        "g": data.basis.genus,
        "mu": format_rational(data.mu),
        "fiber": format_rational(data.fiber),
        "capacities": caps,
    }
