"""Exact Delzant polygon calculus.

Polygons are counterclockwise tuples of rational points.  Every operation
is exact: edge data (primitive directions, outward normals, rational
lengths), the Delzant vertex test, self-intersection numbers read off the
normal fan, corner-chop blow-ups and triangle-glue blow-downs, the model
constructors (triangle and trapezoid), and a complete canonical form under
integral affine equivalence obtained by normalizing the edge basis at
every vertex in both traversal directions and taking the lexicographic
minimum of the resulting vertex lists.

Rational length means length measured against the primitive integer
direction of the edge; it equals the symplectic area of the invariant
sphere the edge represents, and the perimeter in this measure equals the
total anticanonical area.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction as Q
from math import gcd
from typing import Iterable, Sequence

from .errors import CapacityError, FormatError, PreconditionError
from .rationals import ceil_rational, format_rational, parse_rational

Point = tuple[Q, Q]


def _parse_point(value: Sequence) -> Point:
    if len(value) != 2:
        raise FormatError(f"points need two coordinates: {value!r}")
    return (parse_rational(value[0]), parse_rational(value[1]))


def _cross(a: Point, b: Point) -> Q:
    return a[0] * b[1] - a[1] * b[0]


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


@dataclass(frozen=True)
class RationalPolygon:
    """Strictly convex counterclockwise polygon with rational vertices."""

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        points = tuple(_parse_point(v) for v in self.vertices)
        object.__setattr__(self, "vertices", points)
        n = len(points)
        if n < 3:
            raise PreconditionError("polygon needs at least three vertices")
        if len(set(points)) != n:
            raise PreconditionError("polygon vertices must be distinct")
        for i in range(n):
            before = _sub(points[i], points[i - 1])
            after = _sub(points[(i + 1) % n], points[i])
            if _cross(before, after) <= 0:
                raise PreconditionError(
                    "polygon must be strictly convex and counterclockwise"
                )

    @property
    def edge_count(self) -> int:
        return len(self.vertices)

    # Polygons are immutable, so edge data and the Delzant test run once.

    @cached_property
    def _edges(self) -> tuple[EdgeData, ...]:
        n = self.edge_count
        out = []
        for i in range(n):
            vector = _sub(self.vertices[(i + 1) % n], self.vertices[i])
            direction, length = _primitive_direction(vector)
            normal = (direction[1], -direction[0])
            out.append(EdgeData(i, direction, normal, length))
        return tuple(out)

    @cached_property
    def _delzant_diagnostics(self) -> tuple[str, ...]:
        edge_list = self._edges
        diagnostics = []
        for i in range(self.edge_count):
            incoming = edge_list[i - 1].direction
            outgoing = edge_list[i].direction
            det = incoming[0] * outgoing[1] - incoming[1] * outgoing[0]
            if det != 1:
                diagnostics.append(
                    f"vertex {i} at ({format_rational(self.vertices[i][0])}, "
                    f"{format_rational(self.vertices[i][1])}): "
                    f"edge direction determinant {det}"
                )
        return tuple(diagnostics)


@dataclass(frozen=True)
class EdgeData:
    index: int
    direction: tuple[int, int]
    normal: tuple[int, int]
    rational_length: Q


@dataclass(frozen=True)
class UnimodularAffineMap:
    matrix: tuple[tuple[int, int], tuple[int, int]]
    translation: Point

    def __post_init__(self) -> None:
        (a, b), (c, d) = self.matrix
        if abs(a * d - b * c) != 1:
            raise PreconditionError("map matrix must have determinant +1 or -1")
        object.__setattr__(
            self,
            "translation",
            (parse_rational(self.translation[0]), parse_rational(self.translation[1])),
        )

    def apply(self, point: Point) -> Point:
        (a, b), (c, d) = self.matrix
        x, y = parse_rational(point[0]), parse_rational(point[1])
        return (a * x + b * y + self.translation[0], c * x + d * y + self.translation[1])

    def apply_polygon(self, polygon: RationalPolygon) -> RationalPolygon:
        (a, b), (c, d) = self.matrix
        points = [self.apply(v) for v in polygon.vertices]
        if a * d - b * c < 0:
            points.reverse()
        return RationalPolygon(tuple(points))


def _primitive_direction(vector: Point) -> tuple[tuple[int, int], Q]:
    """Primitive integer direction d and rational length t with vector = t d."""
    x, y = vector
    denom = 1
    for coord in (x, y):
        denom = denom * coord.denominator // gcd(denom, coord.denominator)
    ix, iy = int(x * denom), int(y * denom)
    g = gcd(abs(ix), abs(iy))
    if g == 0:
        raise PreconditionError("zero-length edge")
    direction = (ix // g, iy // g)
    length = Q(g, denom)
    return direction, length


def edges(polygon: RationalPolygon) -> tuple[EdgeData, ...]:
    """Counterclockwise edge data; edge i runs from vertex i to vertex i+1."""
    return polygon._edges


def is_delzant(polygon: RationalPolygon) -> tuple[bool, tuple[str, ...]]:
    """Whether each vertex's primitive edge directions form a lattice basis."""
    diagnostics = polygon._delzant_diagnostics
    return (not diagnostics, diagnostics)


def _require_delzant(polygon: RationalPolygon) -> None:
    ok, diagnostics = is_delzant(polygon)
    if not ok:
        raise PreconditionError(f"polygon is not Delzant: {diagnostics[0]}")


def self_intersection(polygon: RationalPolygon, index: int) -> int:
    """Self-intersection of the sphere represented by edge index."""
    _require_delzant(polygon)
    n = polygon.edge_count
    if not (0 <= index < n):
        raise PreconditionError(f"edge index out of range: {index}")
    edge_list = edges(polygon)
    after = edge_list[(index + 1) % n].normal
    before = edge_list[index - 1].normal
    return after[0] * before[1] - after[1] * before[0]


def intersection_matrix(polygon: RationalPolygon) -> list[list[int]]:
    """Pairwise intersections of the edge spheres: adjacency plus self terms."""
    _require_delzant(polygon)
    n = polygon.edge_count
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = self_intersection(polygon, i)
        matrix[i][(i + 1) % n] += 1
        matrix[i][(i - 1) % n] += 1
    return matrix


@dataclass(frozen=True)
class PolygonInvariants:
    edge_count: int
    b2: int
    euclidean_area: Q
    perimeter: Q
    edge_areas: tuple[Q, ...]


def invariants(polygon: RationalPolygon) -> PolygonInvariants:
    """Counts and exact areas: edge spheres, total volume, anticanonical area."""
    _require_delzant(polygon)
    n = polygon.edge_count
    doubled = sum(
        _cross(polygon.vertices[i], polygon.vertices[(i + 1) % n]) for i in range(n)
    )
    areas = tuple(e.rational_length for e in edges(polygon))
    return PolygonInvariants(
        edge_count=n,
        b2=n - 2,
        euclidean_area=doubled / 2,
        perimeter=sum(areas),
        edge_areas=areas,
    )


def _inverse_of_columns(u: tuple[int, int], v: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    det = u[0] * v[1] - u[1] * v[0]
    assert abs(det) == 1
    return ((v[1] * det, -v[0] * det), (-u[1] * det, u[0] * det))


def canonical_form(polygon: RationalPolygon) -> tuple[RationalPolygon, UnimodularAffineMap]:
    """Least representative of the integral affine equivalence class.

    For each vertex and each traversal direction, map the vertex to the
    origin and its two outgoing primitive edge directions to the standard
    basis; the smallest flattened vertex list among the 2N candidates is a
    complete invariant.  A candidate flattens to (0, 0, L, 0, ...) with L
    the rational length of the edge it starts along, so only the starts
    along a shortest edge are compared.
    """
    _require_delzant(polygon)
    n = polygon.edge_count
    edge_list = edges(polygon)
    shortest = min(e.rational_length for e in edge_list)
    best: tuple[tuple[Q, ...], tuple[Point, ...], UnimodularAffineMap] | None = None
    for i in range(n):
        outgoing = edge_list[i].direction
        backwards = tuple(-c for c in edge_list[i - 1].direction)
        for first, second, step, along in (
            (outgoing, backwards, 1, edge_list[i]),
            (backwards, outgoing, -1, edge_list[i - 1]),
        ):
            if along.rational_length != shortest:
                continue
            matrix = _inverse_of_columns(first, second)
            origin = polygon.vertices[i]
            seq = []
            for j in range(n):
                point = polygon.vertices[(i + step * j) % n]
                x, y = _sub(point, origin)
                seq.append(
                    (matrix[0][0] * x + matrix[0][1] * y, matrix[1][0] * x + matrix[1][1] * y)
                )
            flat = tuple(c for p in seq for c in p)
            if best is None or flat < best[0]:
                translation = (
                    -(matrix[0][0] * origin[0] + matrix[0][1] * origin[1]),
                    -(matrix[1][0] * origin[0] + matrix[1][1] * origin[1]),
                )
                best = (flat, tuple(seq), UnimodularAffineMap(matrix, translation))
    assert best is not None
    return RationalPolygon(best[1]), best[2]


def equivalent(p: RationalPolygon, q: RationalPolygon) -> bool:
    return canonical_form(p)[0].vertices == canonical_form(q)[0].vertices


def blow_up(polygon: RationalPolygon, vertex: int, delta: Q) -> RationalPolygon:
    """Chop the corner at a vertex, creating an edge of rational length delta."""
    _require_delzant(polygon)
    n = polygon.edge_count
    if not (0 <= vertex < n):
        raise PreconditionError(f"vertex index out of range: {vertex}")
    delta = parse_rational(delta)
    if delta <= 0:
        raise PreconditionError("blow-up capacity must be positive")
    edge_list = edges(polygon)
    incoming = edge_list[vertex - 1]
    outgoing = edge_list[vertex]
    for edge in (incoming, outgoing):
        if delta >= edge.rational_length:
            raise CapacityError(
                f"capacity too large: edge {edge.index} has rational length "
                f"{format_rational(edge.rational_length)}"
            )
    v = polygon.vertices[vertex]
    enter = (v[0] - delta * incoming.direction[0], v[1] - delta * incoming.direction[1])
    leave = (v[0] + delta * outgoing.direction[0], v[1] + delta * outgoing.direction[1])
    points = (
        polygon.vertices[:vertex] + (enter, leave) + polygon.vertices[vertex + 1 :]
    )
    result = RationalPolygon(points)
    _require_delzant(result)
    return result


def blow_down(polygon: RationalPolygon, index: int) -> RationalPolygon:
    """Remove a -1 edge and extend its neighbours to their crossing point."""
    value = self_intersection(polygon, index)
    if value != -1:
        raise PreconditionError(f"edge not exceptional: self-intersection {value}")
    n = polygon.edge_count
    edge_list = edges(polygon)
    before = edge_list[index - 1]
    after = edge_list[(index + 1) % n]
    start = polygon.vertices[index]
    tail = polygon.vertices[(index + 1) % n]
    # Solve start + t * before.direction = tail + u * after.direction.
    det = _cross(
        (Q(before.direction[0]), Q(before.direction[1])),
        (Q(after.direction[0]), Q(after.direction[1])),
    )
    assert det != 0, "a -1 edge always has crossing neighbours"
    rhs = _sub(tail, start)
    t = _cross(rhs, (Q(after.direction[0]), Q(after.direction[1]))) / det
    crossing = (start[0] + t * before.direction[0], start[1] + t * before.direction[1])
    points = []
    for j in range(n):
        if j == index:
            points.append(crossing)
        elif j == (index + 1) % n:
            continue
        else:
            points.append(polygon.vertices[j])
    result = RationalPolygon(tuple(points))
    _require_delzant(result)
    return result


def delzant_triangle(lam: Q) -> RationalPolygon:
    lam = parse_rational(lam)
    if lam <= 0:
        raise PreconditionError("triangle side length must be positive")
    return RationalPolygon(((Q(0), Q(0)), (lam, Q(0)), (Q(0), lam)))


def _trapezoid(a: Q, b: Q, m: int) -> RationalPolygon:
    """Trapezoid of width a, height b, slope m; no width/height ordering."""
    a, b = parse_rational(a), parse_rational(b)
    if not isinstance(m, int) or m < 0:
        raise PreconditionError("trapezoid slope must be a nonnegative integer")
    if a <= 0 or b <= 0:
        raise PreconditionError("trapezoid sides must be positive")
    if 2 * a <= m * b:
        raise PreconditionError("trapezoid slope too large: need a > m b / 2")
    half = Q(m) * b / 2
    return RationalPolygon(
        ((Q(0), Q(0)), (a + half, Q(0)), (a - half, b), (Q(0), b))
    )


def hirzebruch(a: Q, b: Q, m: int) -> RationalPolygon:
    """Model trapezoid for a sphere bundle over a sphere; needs a >= b."""
    a, b = parse_rational(a), parse_rational(b)
    if a < b:
        raise PreconditionError("trapezoid needs a >= b")
    return _trapezoid(a, b, m)


def enumerate_equivariant_blowups(polygon: RationalPolygon, delta: Q) -> tuple[RationalPolygon, ...]:
    """Canonical forms of all corner chops of the given capacity."""
    _require_delzant(polygon)
    delta = parse_rational(delta)
    results: dict[tuple, RationalPolygon] = {}
    for vertex in range(polygon.edge_count):
        try:
            chopped = blow_up(polygon, vertex, delta)
        except CapacityError:
            continue
        canonical = canonical_form(chopped)[0]
        results[canonical.vertices] = canonical
    return tuple(results[key] for key in sorted(results))


@dataclass(frozen=True)
class ModelIdentification:
    """A minimal model read off a polygon, with blow-down bookkeeping.

    kind "cp2" carries lam; the ruled kinds carry the trapezoid width a and
    height b (the width counts the section area: the even-slope family has
    section area a, the odd-slope family a - b/2).
    """

    kind: str
    a: Q
    b: Q | None
    blowdowns: int

    @property
    def section_area(self) -> Q:
        if self.kind == "cp2":
            raise PreconditionError("cp2 models have no section")
        return self.a if self.kind == "product_ruled" else self.a - self.b / 2

    @property
    def fiber_area(self) -> Q:
        if self.kind == "cp2":
            raise PreconditionError("cp2 models have no fiber")
        return self.b

    @property
    def line_area(self) -> Q:
        """Twisted models only: the area of the line class downstairs."""
        if self.kind != "twisted_ruled":
            raise PreconditionError("line area is a twisted-model quantity")
        return self.a + self.b / 2

    @property
    def exceptional_area(self) -> Q:
        if self.kind != "twisted_ruled":
            raise PreconditionError("exceptional area is a twisted-model quantity")
        return self.a - self.b / 2


def _read_model(polygon: RationalPolygon) -> ModelIdentification:
    n = polygon.edge_count
    edge_list = edges(polygon)
    if n == 3:
        lengths = {e.rational_length for e in edge_list}
        assert len(lengths) == 1, "a Delzant triangle has equal rational lengths"
        return ModelIdentification("cp2", lengths.pop(), None, 0)
    assert n == 4
    for i in range(4):
        j = (i + 2) % 4
        di, dj = edge_list[i].direction, edge_list[j].direction
        if di[0] == -dj[0] and di[1] == -dj[1]:
            low, high = sorted((edge_list[i].rational_length, edge_list[j].rational_length))
            normal = edge_list[i].normal
            offset = _sub(polygon.vertices[j], polygon.vertices[i])
            height = abs(normal[0] * offset[0] + normal[1] * offset[1])
            slope = (high - low) / height
            assert slope.denominator == 1
            m = int(slope)
            width = (high + low) / 2
            if m % 2 == 0:
                if m == 0:
                    width, height = max(width, height), min(width, height)
                return ModelIdentification("product_ruled", width, height, 0)
            return ModelIdentification("twisted_ruled", width, height, 0)
    raise AssertionError("a Delzant quadrilateral always has a parallel edge pair")


def classify_model(polygon: RationalPolygon) -> ModelIdentification:
    """Blow down -1 edges along every branch until a model polygon remains.

    Each blow-down removes one vertex, so every branch of an N-gon stops
    after the same number of steps, but distinct branches can stop at
    distinct trapezoids (blowing down one of two chops keeps the other).
    The returned reading is the least (kind, a, b) over all terminal
    models, which makes the identification deterministic.
    """
    _require_delzant(polygon)
    cache: dict[tuple, frozenset] = {}

    def walk(p: RationalPolygon) -> frozenset:
        canon = canonical_form(p)[0]
        if canon.vertices in cache:
            return cache[canon.vertices]
        if canon.edge_count <= 4:
            model = _read_model(canon)
            answer = frozenset({(model.kind, model.a, model.b)})
        else:
            readings: set = set()
            for index in range(canon.edge_count):
                if self_intersection(canon, index) == -1:
                    readings |= walk(blow_down(canon, index))
            if not readings:
                raise PreconditionError("no -1 edge and not a model polygon")
            answer = frozenset(readings)
        cache[canon.vertices] = answer
        return answer

    readings = walk(polygon)
    kind, a, b = min(readings, key=lambda item: (item[0], item[1], item[2] or Q(0)))
    steps = polygon.edge_count - (3 if kind == "cp2" else 4)
    return ModelIdentification(kind, a, b, steps)


def count_toric_actions_ruled(a: Q, b: Q, twisted: bool) -> int:
    """Number of trapezoid models of width a, height b, and fixed slope parity."""
    a, b = parse_rational(a), parse_rational(b)
    if not a >= b > 0:
        raise PreconditionError("counting needs a >= b > 0")
    ratio = a / b
    formula = ceil_rational(ratio - Q(1, 2)) if twisted else ceil_rational(ratio)
    start = 1 if twisted else 0
    direct = 0
    m = start
    while 2 * a > m * b:
        direct += 1
        m += 2
    assert direct == formula, "formula and trapezoid enumeration must agree"
    return formula


# ---------------------------------------------------------------------------
# Serialization


def polygon_to_json(polygon: RationalPolygon) -> dict:
    return {
        "vertices": [
            [format_rational(x), format_rational(y)] for x, y in polygon.vertices
        ]
    }


def polygon_from_json(payload: dict) -> RationalPolygon:
    if not isinstance(payload, dict) or "vertices" not in payload:
        raise FormatError("polygon object needs a 'vertices' field")
    rows = payload["vertices"]
    if not isinstance(rows, list):
        raise FormatError("polygon vertices must be a list")
    return RationalPolygon(tuple(_parse_point(row) for row in rows))
