"""Exact Delzant polygon calculus.

Polygons are counterclockwise tuples of rational points; coordinates are
`Fraction`s, or `int`s throughout when a census runs on whole numbers, and
an `int` input stays an `int`.  Every operation is exact: edge data
(primitive directions, outward normals, rational lengths), the Delzant
vertex test, self-intersection numbers read off the normal fan,
corner-chop blow-ups and triangle-glue blow-downs, the model
constructors (triangle and trapezoid), and a complete canonical form
under integral affine equivalence obtained by normalizing the edge basis
at every vertex in both traversal directions and taking the
lexicographic minimum of the resulting vertex lists.

The public `RationalPolygon` and `polygon_from_json` check every point,
distinctness and strict convexity.  `_polygon` skips those checks; it is
for vertices the package already knows to be valid: a census's
whole-number polygons divided back by their positive scale, the unimodular
image `_canonical` returns, and the results of `_chop` and `_blown_down`.
Public functions check that a polygon they are given is Delzant;
`blow_up`, `canonical_form`, `self_intersection` and `blow_down` are
checked wrappers over the unchecked cores `_chop` (None where delta
reaches an edge at the vertex), `_canonical`, `_self_intersection` and
`_blown_down`, which the census and `classify_model` call on polygons
they built themselves.  `invariants` has no unchecked twin: in the
package, only the front ends call it.

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
from typing import Sequence

from .errors import CapacityError, FormatError, PreconditionError
from .rationals import ceil_rational, format_rational, halve, parse_exact, parse_rational

Point = tuple[Q, Q]


def _parse_point(value: Sequence) -> Point:
    if len(value) != 2:
        raise FormatError(f"points need two coordinates: {value!r}")
    return (parse_exact(value[0]), parse_exact(value[1]))


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

    # Every chop, projection and canonical form reads the edge data, so it
    # is found once per polygon.

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


def _polygon(vertices: tuple[Point, ...]) -> RationalPolygon:
    """A polygon from vertices already known to be valid, skipping __post_init__.

    The vertices must be exact (ints or Fractions), distinct, strictly
    convex and counterclockwise, as RationalPolygon would check them; a
    validated polygon scaled by a positive number is.
    """
    polygon = object.__new__(RationalPolygon)
    vars(polygon)["vertices"] = vertices
    return polygon


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
            (parse_exact(self.translation[0]), parse_exact(self.translation[1])),
        )

    def apply(self, point: Point) -> Point:
        (a, b), (c, d) = self.matrix
        x, y = parse_exact(point[0]), parse_exact(point[1])
        return (a * x + b * y + self.translation[0], c * x + d * y + self.translation[1])


def _primitive_direction(vector: Point) -> tuple[tuple[int, int], Q]:
    """Primitive integer direction d and rational length t with vector = t d.

    The length is an int when both coordinates are.
    """
    x, y = vector
    if type(x) is int and type(y) is int:
        g = gcd(x, y)
        if g == 0:
            raise PreconditionError("zero-length edge")
        return (x // g, y // g), g
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
    edge_list = polygon._edges
    diagnostics = []
    for i, (x, y) in enumerate(polygon.vertices):
        incoming = edge_list[i - 1].direction
        outgoing = edge_list[i].direction
        det = incoming[0] * outgoing[1] - incoming[1] * outgoing[0]
        if det != 1:
            diagnostics.append(
                f"vertex {i} at ({format_rational(x)}, {format_rational(y)}): "
                f"edge direction determinant {det}"
            )
    return (not diagnostics, tuple(diagnostics))


def _require_delzant(polygon: RationalPolygon) -> None:
    ok, diagnostics = is_delzant(polygon)
    if not ok:
        raise PreconditionError(f"polygon is not Delzant: {diagnostics[0]}")


def self_intersection(polygon: RationalPolygon, index: int) -> int:
    """Self-intersection of the sphere represented by edge index."""
    _require_delzant(polygon)
    if not (0 <= index < polygon.edge_count):
        raise PreconditionError(f"edge index out of range: {index}")
    return _self_intersection(polygon, index)


def _self_intersection(polygon: RationalPolygon, index: int) -> int:
    """`self_intersection` of an edge of a Delzant polygon, not checked."""
    edge_list = edges(polygon)
    after = edge_list[(index + 1) % polygon.edge_count].normal
    before = edge_list[index - 1].normal
    return after[0] * before[1] - after[1] * before[0]


@dataclass(frozen=True)
class PolygonInvariants:
    edge_count: int
    b2: int
    euclidean_area: Q
    perimeter: Q
    edge_areas: tuple[Q, ...]
    self_intersections: tuple[int, ...]


def invariants(polygon: RationalPolygon) -> PolygonInvariants:
    """Counts, exact areas and self-intersections: edge spheres, total
    volume, anticanonical area."""
    _require_delzant(polygon)
    n = polygon.edge_count
    doubled = sum(
        _cross(polygon.vertices[i], polygon.vertices[(i + 1) % n]) for i in range(n)
    )
    areas = tuple(e.rational_length for e in edges(polygon))
    return PolygonInvariants(
        edge_count=n,
        b2=n - 2,
        euclidean_area=Q(doubled, 2),
        perimeter=sum(areas),
        edge_areas=areas,
        self_intersections=tuple(_self_intersection(polygon, i) for i in range(n)),
    )


def _inverse_of_columns(u: tuple[int, int], v: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    det = u[0] * v[1] - u[1] * v[0]
    if abs(det) != 1:
        raise AssertionError("edge directions at a Delzant vertex form a lattice basis")
    return ((v[1] * det, -v[0] * det), (-u[1] * det, u[0] * det))


def canonical_form(polygon: RationalPolygon) -> tuple[RationalPolygon, UnimodularAffineMap]:
    """Least representative of the integral affine equivalence class."""
    _require_delzant(polygon)
    canonical, matrix, origin = _canonical(polygon)
    translation = (
        -(matrix[0][0] * origin[0] + matrix[0][1] * origin[1]),
        -(matrix[1][0] * origin[0] + matrix[1][1] * origin[1]),
    )
    return canonical, UnimodularAffineMap(matrix, translation)


def _canonical(polygon: RationalPolygon) -> tuple[RationalPolygon, tuple, Point]:
    """`canonical_form` of a Delzant polygon, not checked, with the map's
    matrix and the vertex it sends to the origin in place of the map:
    only `canonical_form` builds the checked map.

    For each vertex and each traversal direction, map the vertex to the
    origin and its two outgoing primitive edge directions to the standard
    basis; the smallest vertex list among the 2N candidates (lists of
    pairs order as their flattenings do) is a complete invariant.  A
    candidate begins (0, 0), (L, 0), ... with L the rational length of
    the edge it starts along, so only the starts along a shortest edge count.
    """
    n = polygon.edge_count
    edge_list = edges(polygon)
    shortest = min(e.rational_length for e in edge_list)
    best: tuple[list[Point], tuple, Point] | None = None
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
            if best is None or seq < best[0]:
                best = (seq, matrix, origin)
    if best is None:
        raise AssertionError("some edge has the shortest rational length")
    points, matrix, origin = best
    return _polygon(tuple(points)), matrix, origin


def blow_up(polygon: RationalPolygon, vertex: int, delta: Q) -> RationalPolygon:
    """Chop the corner at a vertex, creating an edge of rational length delta."""
    _require_delzant(polygon)
    if not (0 <= vertex < polygon.edge_count):
        raise PreconditionError(f"vertex index out of range: {vertex}")
    delta = parse_exact(delta)
    if delta <= 0:
        raise PreconditionError("blow-up capacity must be positive")
    for edge in (edges(polygon)[vertex - 1], edges(polygon)[vertex]):
        if delta >= edge.rational_length:
            raise CapacityError(
                f"capacity too large: edge {edge.index} has rational length "
                f"{format_rational(edge.rational_length)}"
            )
    return _chop(polygon, vertex, delta)


def _chop(polygon: RationalPolygon, vertex: int, delta: Q | int) -> RationalPolygon | None:
    """`blow_up` with no check, or None where delta reaches an edge at the vertex.

    The cut runs along u + v for the edge directions u, v at the vertex, and
    det(u, u + v) = det(u + v, v) = det(u, v) = 1: the chop stays Delzant.
    """
    edge_list = edges(polygon)
    incoming = edge_list[vertex - 1]
    outgoing = edge_list[vertex]
    if delta >= incoming.rational_length or delta >= outgoing.rational_length:
        return None
    v = polygon.vertices[vertex]
    enter = (v[0] - delta * incoming.direction[0], v[1] - delta * incoming.direction[1])
    leave = (v[0] + delta * outgoing.direction[0], v[1] + delta * outgoing.direction[1])
    return _polygon(polygon.vertices[:vertex] + (enter, leave) + polygon.vertices[vertex + 1 :])


def blow_down(polygon: RationalPolygon, index: int) -> RationalPolygon:
    """Remove a -1 edge and extend its neighbours to their crossing point."""
    value = self_intersection(polygon, index)
    if value != -1:
        raise PreconditionError(f"edge not exceptional: self-intersection {value}")
    return _blown_down(polygon, index)


def _blown_down(polygon: RationalPolygon, index: int) -> RationalPolygon:
    """`blow_down` of a -1 edge of a Delzant polygon, not checked."""
    n = polygon.edge_count
    edge_list = edges(polygon)
    before = edge_list[index - 1]
    after = edge_list[(index + 1) % n]
    start = polygon.vertices[index]
    tail = polygon.vertices[(index + 1) % n]
    # Solve start + t * before.direction = tail + u * after.direction.  The
    # neighbours of a -1 edge form a lattice basis, so the solve needs no
    # division and an integer polygon stays integer; the -1 edge's direction
    # is the sum of theirs, so both grow and the result is Delzant.
    det = _cross(before.direction, after.direction)
    if det != 1:
        raise AssertionError("the neighbours of a -1 edge form a lattice basis")
    t = _cross(_sub(tail, start), after.direction)
    crossing = (start[0] + t * before.direction[0], start[1] + t * before.direction[1])
    points = []
    for j in range(n):
        if j == index:
            points.append(crossing)
        elif j == (index + 1) % n:
            continue
        else:
            points.append(polygon.vertices[j])
    return _polygon(tuple(points))


def delzant_triangle(lam: Q) -> RationalPolygon:
    lam = parse_exact(lam)
    if lam <= 0:
        raise PreconditionError("triangle side length must be positive")
    zero = lam - lam
    return RationalPolygon(((zero, zero), (lam, zero), (zero, lam)))


def _trapezoid(a: Q, b: Q, m: int) -> RationalPolygon:
    """Trapezoid of width a, height b, slope m; no width/height ordering."""
    a, b = parse_exact(a), parse_exact(b)
    if not isinstance(m, int) or m < 0:
        raise PreconditionError("trapezoid slope must be a nonnegative integer")
    if a <= 0 or b <= 0:
        raise PreconditionError("trapezoid sides must be positive")
    if 2 * a <= m * b:
        raise PreconditionError("trapezoid slope too large: need a > m b / 2")
    half = halve(m * b)
    zero = b - b
    return RationalPolygon(((zero, zero), (a + half, zero), (a - half, b), (zero, b)))


def hirzebruch(a: Q, b: Q, m: int) -> RationalPolygon:
    """Model trapezoid for a sphere bundle over a sphere; needs a >= b."""
    a, b = parse_exact(a), parse_exact(b)
    if a < b:
        raise PreconditionError("trapezoid needs a >= b")
    return _trapezoid(a, b, m)


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
    def line_area(self) -> Q:
        """Twisted models only: the area of the line class downstairs."""
        if self.kind != "twisted_ruled":
            raise PreconditionError("line area is a twisted-model quantity")
        return self.a + Q(self.b, 2)

    @property
    def exceptional_area(self) -> Q:
        if self.kind != "twisted_ruled":
            raise PreconditionError("exceptional area is a twisted-model quantity")
        return self.a - Q(self.b, 2)


def _read_model(polygon: RationalPolygon) -> ModelIdentification:
    n = polygon.edge_count
    edge_list = edges(polygon)
    if n == 3:
        lengths = {e.rational_length for e in edge_list}
        if len(lengths) != 1:
            raise AssertionError("a Delzant triangle has equal rational lengths")
        return ModelIdentification("cp2", lengths.pop(), None, 0)
    if n != 4:
        raise AssertionError(f"a model polygon has 3 or 4 edges, not {n}")
    for i in range(4):
        j = (i + 2) % 4
        di, dj = edge_list[i].direction, edge_list[j].direction
        if di[0] == -dj[0] and di[1] == -dj[1]:
            low, high = sorted((edge_list[i].rational_length, edge_list[j].rational_length))
            normal = edge_list[i].normal
            offset = _sub(polygon.vertices[j], polygon.vertices[i])
            height = abs(normal[0] * offset[0] + normal[1] * offset[1])
            slope = Q(high - low, height)
            if slope.denominator != 1:
                raise AssertionError("a Delzant trapezoid has an integer slope")
            m = int(slope)
            width = Q(high + low, 2)
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
        canon = _canonical(p)[0]
        if canon.vertices in cache:
            return cache[canon.vertices]
        if canon.edge_count <= 4:
            model = _read_model(canon)
            answer = frozenset({(model.kind, model.a, model.b)})
        else:
            readings: set = set()
            for index in range(canon.edge_count):
                if _self_intersection(canon, index) == -1:
                    readings |= walk(_blown_down(canon, index))
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
    """Number of trapezoid models of width a, height b, and fixed slope parity.

    The slopes m of that parity (odd when twisted) with m b < 2a, counted in
    closed form.  A twisted model may be narrower than it is high.
    """
    a, b = parse_rational(a), parse_rational(b)
    if not (a > 0 and b > 0) or (not twisted and a < b):
        raise PreconditionError("counting needs a, b > 0, and a >= b for product models")
    ratio = a / b
    return ceil_rational(ratio - Q(1, 2)) if twisted else ceil_rational(ratio)


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
    for row in rows:
        if not isinstance(row, list):
            raise FormatError(f"points need two coordinates: {row!r}")
    return RationalPolygon(tuple(_parse_point(row) for row in rows))
