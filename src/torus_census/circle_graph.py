"""Decorated graphs for Hamiltonian circle actions on 4-manifolds.

A graph records the fixed components of a circle action: isolated points
carry their pair of isotropy weights, fixed surfaces carry genus and
area, and every sphere with finite nontrivial isotropy Z_k appears as an
edge joining its two poles.  Moments are exact rationals (`Fraction`s, or
`int`s when a census runs on whole numbers) and sphere areas are
recovered from the moment gap, area = (mu_north - mu_south)/k.

The module validates the combinatorial axioms, projects Delzant polygons
to circle subactions, builds the base graphs of ruled surfaces, performs
equivariant blow-ups with the full case analysis, tests whether an
action extends to a toric one, and computes canonical forms under moment
translation and reflection.  A canonical form is a complete invariant:
the keys of the minimum and the maximum pick the reflection unless they
are equal, and where two vertex keys tie, `_refined` tells like vertices
apart by refining ranks along the edges, with no search and no refusal.

Graphs are validated where they enter.  Every public function validates
the graphs it is given, and `blow_up`, `can_blow_up`, `canonical_form`,
`extends_to_toric`, `graph_from_polygon` and `ruled_base_graph` are thin
checked wrappers over unchecked cores (`_blow_up`, `_feasible`, `_key`,
`_extends_to_toric`, `_projected`, `_ruled_base`) that parse and check
nothing.  The census calls the cores on graphs it built itself, which are
valid by construction (the argument is in the `census` docstring), so it
validates no graph.  `blow_up` and `graph_from_polygon` do not check the
graphs they return; the tests run `validate` on them as built.

Components are normalised (exact moment and area, weights in descending
order) by the public `FixedComponent`, `isolated` and `surface`; the
builders here, which already hold normalised values, fill each component
directly through `_component`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction as Q
from math import gcd
from typing import Iterable

from .errors import CapacityError, FormatError, PreconditionError
from .polygon import RationalPolygon, _require_delzant, edges as polygon_edges
from .rationals import format_rational, halve, is_int, parse_exact, parse_rational


@dataclass(frozen=True)
class FixedComponent:
    """One fixed component: an isolated point or a fixed surface."""

    id: int
    moment: Q
    weights: tuple[int, int] | None = None
    genus: int | None = None
    area: Q | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "moment", parse_exact(self.moment))
        if self.weights is not None:
            pair = tuple(sorted(self.weights, reverse=True))
            object.__setattr__(self, "weights", pair)
        if self.area is not None:
            object.__setattr__(self, "area", parse_exact(self.area))

    @property
    def is_surface(self) -> bool:
        return self.genus is not None


def isolated(id: int, moment: Q, weights: Iterable[int]) -> FixedComponent:
    return FixedComponent(id, moment, weights=tuple(weights))


def surface(id: int, moment: Q, genus: int, area: Q) -> FixedComponent:
    return FixedComponent(id, moment, genus=genus, area=area)


def _component(
    id: int,
    moment: Q | int,
    weights: tuple[int, int] | None = None,
    genus: int | None = None,
    area: Q | int | None = None,
) -> FixedComponent:
    """A component from values already normalised, skipping __post_init__.

    The moment and area must be ints or Fractions and the weights in
    descending order, as FixedComponent would leave them.
    """
    component = object.__new__(FixedComponent)
    vars(component).update(
        id=id, moment=moment, weights=weights, genus=genus, area=area
    )
    return component


def _descending(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a >= b else (b, a)


@dataclass(frozen=True)
class S1Graph:
    """Fixed components plus Z_k-sphere edges (north id, south id, k)."""

    vertices: tuple[FixedComponent, ...]
    edges: tuple[tuple[int, int, int], ...] = ()

    def component(self, vertex_id: int) -> FixedComponent:
        for vertex in self.vertices:
            if vertex.id == vertex_id:
                return vertex
        raise PreconditionError(f"unknown vertex: {vertex_id}")

    # Every blow-up site reads the extrema, so they are found once per graph.

    @cached_property
    def _extrema(self) -> tuple[FixedComponent, FixedComponent]:
        """A component of least moment and one of greatest, in one scan."""
        bottom = top = self.vertices[0]
        for v in self.vertices:
            if v.moment < bottom.moment:
                bottom = v
            elif v.moment > top.moment:
                top = v
        return bottom, top

    @property
    def min_moment(self) -> Q:
        return self._extrema[0].moment

    @property
    def max_moment(self) -> Q:
        return self._extrema[1].moment


def edge_area(graph: S1Graph, edge: tuple[int, int, int]) -> Q:
    north, south, k = edge
    return Q(graph.component(north).moment - graph.component(south).moment, k)


def validate(graph: S1Graph) -> tuple[bool, tuple[str, ...]]:
    """Check every graph axiom; returns (ok, diagnostics)."""
    problems = _diagnose(graph)
    return (not problems, problems)


def _diagnose(graph: S1Graph) -> tuple[str, ...]:
    if not graph.vertices:
        return ("graph has no fixed components",)
    ids = [v.id for v in graph.vertices]
    if len(set(ids)) != len(ids):
        return ("vertex ids must be distinct",)
    lo = graph.min_moment
    hi = graph.max_moment
    if lo == hi:
        return ("min moment equals max moment",)
    problems: list[str] = []
    by_id = {v.id: v for v in graph.vertices}
    for bound, name in ((lo, "min"), (hi, "max")):
        attained = [v for v in graph.vertices if v.moment == bound]
        if len(attained) != 1:
            problems.append(f"{name} moment attained by {len(attained)} components")

    incident: dict[int, list[tuple[int, int, int]]] = {v.id: [] for v in graph.vertices}
    for edge in graph.edges:
        north, south, k = edge
        if north not in by_id or south not in by_id:
            problems.append(f"edge {edge} references a missing vertex")
            continue
        if not isinstance(k, int) or k < 2:
            problems.append(f"edge {edge} needs integer isotropy k >= 2")
            continue
        if by_id[north].moment <= by_id[south].moment:
            problems.append(f"edge {edge} must increase moment from south to north")
        incident[north].append(edge)
        incident[south].append(edge)

    surfaces = [v for v in graph.vertices if v.is_surface]
    if len(surfaces) > 2:
        problems.append("at most two fixed surfaces are allowed")

    for vertex in graph.vertices:
        if vertex.is_surface == (vertex.weights is not None):
            problems.append(f"vertex {vertex.id}: needs either weights or surface data")
            continue
        if len(incident[vertex.id]) > 2:
            problems.append(f"vertex {vertex.id}: reached by more than two edges")
        if vertex.is_surface:
            if vertex.genus < 0:
                problems.append(f"vertex {vertex.id}: genus must be nonnegative")
            if vertex.area <= 0:
                problems.append(f"vertex {vertex.id}: surface area must be positive")
            if vertex.moment not in (lo, hi):
                problems.append(f"vertex {vertex.id}: fixed surfaces occur only at extrema")
            if incident[vertex.id]:
                problems.append(f"vertex {vertex.id}: fixed surfaces carry no edges")
            continue
        m, n = vertex.weights
        if m == 0 or n == 0:
            problems.append(f"vertex {vertex.id}: isotropy weights must be nonzero")
            continue
        if gcd(abs(m), abs(n)) != 1:
            problems.append(f"vertex {vertex.id}: weights {vertex.weights} are not coprime")
        if vertex.moment == lo and not (m > 0 and n > 0):
            problems.append(f"vertex {vertex.id}: minimum needs both weights positive")
        elif vertex.moment == hi and not (m < 0 and n < 0):
            problems.append(f"vertex {vertex.id}: maximum needs both weights negative")
        elif lo < vertex.moment < hi and not (m > 0 > n):
            problems.append(f"vertex {vertex.id}: interior point needs weights of both signs")
        # Pole weights of incident edges must occupy distinct weight slots,
        # and every weight of magnitude >= 2 must be matched by an edge.
        required = []
        for north, south, k in incident[vertex.id]:
            required.append(-k if north == vertex.id else k)
        slots = list(vertex.weights)
        for need in required:
            if need in slots:
                slots.remove(need)
            else:
                problems.append(f"vertex {vertex.id}: no weight slot for pole weight {need}")
        for left in slots:
            if abs(left) >= 2:
                problems.append(f"vertex {vertex.id}: weight {left} has no matching Z_k edge")
    return tuple(problems)


def _require_valid(graph: S1Graph) -> None:
    ok, problems = validate(graph)
    if not ok:
        raise PreconditionError(f"graph invalid: {problems[0]}")


# ---------------------------------------------------------------------------
# Constructors


def graph_from_polygon(polygon: RationalPolygon, xi: tuple[int, int]) -> S1Graph:
    """Project a toric action to the circle generated by a primitive vector.

    Polygon edges orthogonal to xi become fixed surfaces of genus 0 whose
    area is the rational length; the incident vertices are absorbed.  The
    remaining polygon vertices become isolated points whose weights are
    the pairings of the outgoing primitive directions with xi, and a
    polygon edge pairing to +-k with k >= 2 becomes a Z_k-sphere edge.
    """
    _require_delzant(polygon)
    if len(xi) != 2 or not all(isinstance(c, int) for c in xi):
        raise PreconditionError("projection direction must be an integer vector")
    if gcd(abs(xi[0]), abs(xi[1])) != 1:
        raise PreconditionError("projection direction must be a primitive integer vector")
    return _projected(polygon, xi)


def _projected(polygon: RationalPolygon, xi: tuple[int, int]) -> S1Graph:
    """`graph_from_polygon` of a Delzant polygon and a primitive integer xi,
    neither of them checked."""
    edge_list = polygon_edges(polygon)
    n = polygon.edge_count
    pairings = [e.direction[0] * xi[0] + e.direction[1] * xi[1] for e in edge_list]
    moments = [v[0] * xi[0] + v[1] * xi[1] for v in polygon.vertices]

    absorbed = set()
    for i in range(n):
        if pairings[i] == 0:
            absorbed.add(i)
            absorbed.add((i + 1) % n)

    components: list[FixedComponent] = []
    ids: dict[int, int] = {}
    for i in range(n):
        if i in absorbed:
            continue
        ids[i] = len(components)
        weights = _descending(pairings[i], -pairings[i - 1])
        components.append(_component(ids[i], moments[i], weights))
    for i in range(n):
        if pairings[i] == 0:
            area = edge_list[i].rational_length
            components.append(_component(len(components), moments[i], None, 0, area))

    links = []
    for i in range(n):
        k = abs(pairings[i])
        if k < 2:
            continue
        head, tail = (i + 1) % n, i
        if head not in ids or tail not in ids:
            raise AssertionError("Z_k edges never touch absorbed vertices")
        if moments[head] > moments[tail]:
            links.append((ids[head], ids[tail], k))
        else:
            links.append((ids[tail], ids[head], k))

    return S1Graph(tuple(components), tuple(links))


def ruled_base_graph(genus: int, degree: int, mu: Q, twisted: bool) -> S1Graph:
    """Base graph of a fiberwise circle action on a ruled surface.

    The fiber has area 1, so the two section surfaces sit at moments 0 and
    1; they differ by degree-many fibers, and the admissible degrees of
    each parity are exactly those keeping the bottom area positive.
    """
    mu = parse_exact(mu)
    if not isinstance(genus, int) or genus < 0:
        raise PreconditionError("genus must be a nonnegative integer")
    if not isinstance(degree, int) or degree < 0:
        raise PreconditionError("degree must be a nonnegative integer")
    if mu <= 0:
        raise PreconditionError("section area must be positive")
    if degree % 2 != (1 if twisted else 0):
        kind = "twisted" if twisted else "product"
        raise PreconditionError(f"{kind} ruling needs degree of matching parity")
    bottom = mu - halve(degree - 1 if twisted else degree)
    if bottom <= 0:
        raise PreconditionError(
            f"section area nonpositive: {format_rational(bottom)}"
        )
    return _ruled_base(genus, degree, bottom, 1)


def _ruled_base(genus: int, degree: int, bottom: Q | int, fiber: Q | int) -> S1Graph:
    """`ruled_base_graph` from its exact bottom section area, nothing checked."""
    return S1Graph(
        (
            _component(0, fiber - fiber, None, genus, bottom),
            _component(1, fiber, None, genus, bottom + degree * fiber),
        )
    )


# ---------------------------------------------------------------------------
# Blow-ups


# Refusal codes of `_feasible` and the messages `can_blow_up` gives them.
_REFUSALS = {
    "delta": "capacity must be positive",
    "surface_area": "fixed surface area {} must exceed delta",
    "span": "moment span {} must exceed delta",
    "sphere_area": "Z_{} sphere area {} must exceed delta",
    "interior": "interior blow-up needs min < mu - delta and mu + delta < max",
    "extremal": "extremal blow-up needs moment distance to vertex {} to exceed delta",
    "extremal_reach": "extremal blow-up needs moment distance to vertex {} to exceed {} delta",
}


def can_blow_up(graph: S1Graph, vertex_id: int, delta: Q) -> tuple[bool, str]:
    """Feasibility of an equivariant blow-up of capacity delta at a vertex."""
    _require_valid(graph)
    refusal = _feasible(graph, vertex_id, parse_exact(delta))
    return (True, "") if refusal is None else (False, _refusal_text(refusal))


def _refusal_text(refusal: tuple) -> str:
    code, *values = refusal
    if code == "sphere_area":
        k, gap = values
        values = [k, Q(gap, k)]
    return _REFUSALS[code].format(*map(format_rational, values))


def _feasible(graph: S1Graph, vertex_id: int, delta: Q | int) -> tuple | None:
    """None where a blow-up of capacity delta at the vertex is feasible, else
    the refusal: its code in `_REFUSALS` and the values its message names.

    Nothing is checked or parsed, and no text is built.
    """
    if delta <= 0:
        return ("delta",)
    vertex = graph.component(vertex_id)
    lo, hi = graph.min_moment, graph.max_moment

    if vertex.is_surface:
        if vertex.area <= delta:
            return ("surface_area", vertex.area)
        # The new (1,-1) point sits delta inside the surface's extremum.
        if hi - lo <= delta:
            return ("span", hi - lo)
        return None

    for north, south, k in graph.edges:
        if vertex_id in (north, south):
            gap = graph.component(north).moment - graph.component(south).moment
            if gap <= k * delta:
                return ("sphere_area", k, gap)
    if lo < vertex.moment < hi:
        if not (lo < vertex.moment - delta and vertex.moment + delta < hi):
            return ("interior",)
        return None
    # The new extremum lands min(|m|, |n|) delta inward.
    reach = min(map(abs, vertex.weights))
    for other in graph.vertices:
        if other.id != vertex_id and abs(other.moment - vertex.moment) <= reach * delta:
            if reach == 1:
                return ("extremal", other.id)
            return ("extremal_reach", other.id, reach)
    return None


def _fresh_ids(graph: S1Graph, count: int) -> list[int]:
    top = max(v.id for v in graph.vertices)
    return [top + 1 + i for i in range(count)]


def blow_up(graph: S1Graph, vertex_id: int, delta: Q) -> S1Graph:
    """Equivariant blow-up of capacity delta at a fixed component.

    The graph is validated and the site tested here: CapacityError where
    can_blow_up refuses it.  The result is not validated; the census calls
    `_blow_up` on graphs it built and trusts the result (see the `census`
    docstring), and the tests validate what both return.
    """
    delta = parse_exact(delta)
    _require_valid(graph)
    blown = _blow_up(graph, vertex_id, delta)
    if blown is None:
        reason = _refusal_text(_feasible(graph, vertex_id, delta))
        raise CapacityError(f"blow-up infeasible: {reason}")
    return blown


def _blow_up(graph: S1Graph, vertex_id: int, delta: Q | int) -> S1Graph | None:
    """`blow_up` with an exact delta and no check of the graph, or None
    where `_feasible` refuses the site."""
    if _feasible(graph, vertex_id, delta) is not None:
        return None
    vertex = graph.component(vertex_id)
    others = tuple(v for v in graph.vertices if v.id != vertex_id)

    if vertex.is_surface:
        # Proper transform keeps the surface with area reduced by delta;
        # the free exceptional sphere ends at a new interior point.
        inward = 1 if vertex.moment == graph.min_moment else -1
        new_id = _fresh_ids(graph, 1)[0]
        shrunk = _component(
            vertex.id, vertex.moment, None, vertex.genus, vertex.area - delta
        )
        point = _component(new_id, vertex.moment + inward * delta, (1, -1))
        return S1Graph(others + (shrunk, point), graph.edges)

    m, n = vertex.weights
    if m == n:
        # Extremal point with weights (1,1) or (-1,-1): the exceptional
        # sphere becomes a fixed surface of area delta.
        inward = 1 if m > 0 else -1
        replacement = _component(
            vertex.id, vertex.moment + inward * delta, None, 0, delta
        )
        return S1Graph(others + (replacement,), graph.edges)

    high_id, low_id = _fresh_ids(graph, 2)
    high = _component(high_id, vertex.moment + m * delta, _descending(m, n - m))
    low = _component(low_id, vertex.moment + n * delta, _descending(n, m - n))
    new_edges = []
    for north, south, k in graph.edges:
        if north == vertex_id:
            # The vertex was a north pole with weight -k; the edge keeps
            # that weight, so it reattaches where -k survives in the pair.
            target = high_id if m == -k else low_id
            new_edges.append((target, south, k))
        elif south == vertex_id:
            target = high_id if m == k else low_id
            new_edges.append((north, target, k))
        else:
            new_edges.append((north, south, k))
    if m - n >= 2:
        new_edges.append((high_id, low_id, m - n))
    return S1Graph(others + (high, low), tuple(new_edges))


# ---------------------------------------------------------------------------
# Maximality


def extends_to_toric(graph: S1Graph) -> bool:
    """Whether the circle action is a subaction of some toric action.

    Actions with only isolated fixed points always extend.  Otherwise
    every fixed surface must have genus 0 and no interior moment level
    may meet more than two nonfree orbits, counting interior fixed
    points at the level and Z_k-spheres whose open moment span crosses it.
    Only the levels of interior fixed points can fail (`_extends_to_toric`).
    """
    _require_valid(graph)
    return _extends_to_toric(graph)


def _extends_to_toric(graph: S1Graph) -> bool:
    """`extends_to_toric` with no check of the graph, counting only at the
    moments of interior points: only points lie strictly between the
    extrema, and surfaces carry no edge.  An interior point has one negative
    weight, so it is the north pole of at most one sphere (`_diagnose`'s
    slot rule): each sphere open over the gap below an interior moment m
    crosses m or ends at its own point at m, so the gap meets no more orbits
    than m does.  The gap below the maximum meets only the spheres that end
    there: at most two for a point, none for a surface."""
    if all(not v.is_surface for v in graph.vertices):
        return True
    if any(v.is_surface and v.genus > 0 for v in graph.vertices):
        return False
    lo, hi = graph.min_moment, graph.max_moment
    moment = {v.id: v.moment for v in graph.vertices}
    interior = [m for m in moment.values() if lo < m < hi]
    spans = [(moment[south], moment[north]) for north, south, _ in graph.edges]
    for level in set(interior):
        crossing = sum(1 for low, high in spans if low < level < high)
        if interior.count(level) + crossing > 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical forms


def _vertex_keys(graph: S1Graph, flip: bool) -> dict[int, tuple]:
    """Each vertex's key: moment above the minimum (below the maximum when
    flipped), then (1, genus, area) for a surface or (0, weights) for a
    point, a flipped pair (m, n) read as (-n, -m)."""
    if flip:
        top = graph.max_moment
        return {
            v.id: (top - v.moment, 1, v.genus, v.area)
            if v.genus is not None
            else (top - v.moment, 0, -v.weights[1], -v.weights[0])
            for v in graph.vertices
        }
    low = graph.min_moment
    return {
        v.id: (v.moment - low, 1, v.genus, v.area)
        if v.genus is not None
        else (v.moment - low, 0, *v.weights)
        for v in graph.vertices
    }


def _extremal_key(v: FixedComponent, flip: bool) -> tuple:
    """The `_vertex_keys` key of the minimum v (of the maximum v when
    flipped), whose moment offset is 0."""
    if v.genus is not None:
        return (0, 1, v.genus, v.area)
    m, n = v.weights
    return (0, 0, -n, -m) if flip else (0, 0, m, n)


def _serialize(graph: S1Graph, flip: bool) -> tuple:
    """The least (verts, links) of one reflection: the verts are the sorted
    `_vertex_keys`, and the links the sorted (later position, earlier
    position, k).  Where the keys are distinct, each vertex's position is
    its key's place among them; only where two keys tie does `_refined`
    order the vertices further."""
    keys = _vertex_keys(graph, flip)
    ordered = sorted(keys, key=keys.__getitem__)
    if any(keys[a] == keys[b] for a, b in zip(ordered, ordered[1:])):
        ordered = _refined(graph, keys)
    position = {vertex_id: i for i, vertex_id in enumerate(ordered)}
    verts = tuple(keys[i] for i in ordered)
    # Reflection swaps the poles of every edge.
    poles = ((s, n, k) if flip else (n, s, k) for n, s, k in graph.edges)
    links = tuple(sorted((position[a], position[b], k) for a, b, k in poles))
    return (verts, links)


def _refined(graph: S1Graph, keys: dict[int, tuple]) -> list[int]:
    """The vertex ids in the order of the least serialization, where some
    keys tie: by key, then by the sorted (k, pole, key at the other end) of
    their edges.  Ties left among vertices with edges are broken by ranks
    refined by the sorted (rank, k) at the earlier ends of each vertex's
    edges until stable, then by those at the later ends, until neither
    splits a class; then the least tied class's first vertex is ranked
    alone, and so on.  A rank is its class's first position, so the order
    is only split.  Sorted links read each vertex's edges toward earlier
    vertices in turn, and only the unique minimum and maximum, which have
    keys of their own, have two edges one way; so the least links order
    like vertices by their earlier ends, and where those tie all the way
    down, by their later ends, as swapping the chains below two like
    vertices changes only the links at their later ends.  Like vertices
    that neither end splits lie on monotone paths that match rank for rank
    and end alike, so an automorphism exchanges them.  Vertices with no
    edge are in no link."""
    local: dict[int, list] = {vertex_id: [] for vertex_id in keys}
    ends: dict[int, tuple] = {vertex_id: ([], []) for vertex_id in keys}
    for north, south, k in graph.edges:
        local[north].append((k, 1, keys[south]))
        local[south].append((k, 0, keys[north]))
        late, early = (north, south) if keys[south] < keys[north] else (south, north)
        ends[late][0].append((k, early))
        ends[early][1].append((k, late))
    label = {i: (keys[i], tuple(sorted(links))) for i, links in local.items()}
    ordered = sorted(keys, key=label.__getitem__)
    if not any(label[a][1] and label[a] == label[b] for a, b in zip(ordered, ordered[1:])):
        return ordered

    def ranks(signature: dict) -> dict:
        order = sorted(signature.values())
        return {i: bisect_left(order, s) for i, s in signature.items()}

    rank, side = ranks(label), 0
    while True:
        split = ranks({i: (r, sorted((rank[j], k) for k, j in ends[i][side])) for i, r in rank.items()})
        if split != rank:
            rank, side = split, 0
        elif not side:
            side = 1
        else:
            ranked = sorted((r, i) for i, r in rank.items() if any(ends[i]))
            tied = [p for p, q in zip(ranked, ranked[1:]) if p[0] == q[0]]
            if not tied:
                return sorted(ordered, key=rank.__getitem__)
            # The rest of the class moves one place up, still below the next.
            least, first = tied[0]
            rank, side = {i: r + (r == least and i != first) for i, r in rank.items()}, 0


def _key(graph: S1Graph) -> tuple:
    """`canonical_serialization` with no check of the graph: the least
    `_serialize` of the two reflections.

    A serialization's verts are its sorted key list.  The unique minimum
    is the one vertex whose plain key has moment offset 0, and the unique
    maximum the one whose mirrored key has, so their keys lead the two
    lists: where they differ they decide the reflection, and only the
    winning side is serialized.
    """
    bottom, top = graph._extrema
    plain, mirror = _extremal_key(bottom, False), _extremal_key(top, True)
    if plain != mirror:
        return _serialize(graph, mirror < plain)
    return min(_serialize(graph, False), _serialize(graph, True))


def canonical_serialization(graph: S1Graph) -> tuple:
    _require_valid(graph)
    return _key(graph)


def canonical_form(graph: S1Graph) -> S1Graph:
    """Least representative under moment translation and reflection."""
    _require_valid(graph)
    return _graph_from_key(_key(graph))


def _graph_from_key(key: tuple) -> S1Graph:
    """The graph a canonical serialization names, its vertex ids their
    positions."""
    verts, links = key
    return S1Graph(tuple(_key_component(i, v, None) for i, v in enumerate(verts)), links)


def _key_component(position: int, entry: tuple, value: dict | None) -> FixedComponent:
    """The component that a canonical key's entry (moment, tag, a, b) names
    at a position, each moment and area x read as value[x] if value is
    given.  A reflected pair (-n, -m) of a descending pair stays
    descending."""
    m, tag, a, b = entry
    if value is not None:
        m, b = value[m], value[b] if tag else b
    if tag:
        return _component(position, m, None, int(a), b)
    return _component(position, m, (int(a), int(b)))


# ---------------------------------------------------------------------------
# Serialization


def graph_to_json(graph: S1Graph) -> dict:
    vertices = []
    for vertex in graph.vertices:
        item: dict = {"id": vertex.id, "moment": format_rational(vertex.moment)}
        if vertex.is_surface:
            item["surface"] = {
                "genus": vertex.genus,
                "area": format_rational(vertex.area),
            }
        else:
            item["weights"] = list(vertex.weights)
        vertices.append(item)
    return {
        "vertices": vertices,
        "edges": [
            {"north": n, "south": s, "k": k} for n, s, k in graph.edges
        ],
    }


def graph_from_json(payload: dict) -> S1Graph:
    if not isinstance(payload, dict) or "vertices" not in payload:
        raise FormatError("graph object needs a 'vertices' field")
    if not isinstance(payload["vertices"], list) or not isinstance(payload.get("edges", []), list):
        raise FormatError("graph vertices and edges must be lists")
    components = []
    for item in payload["vertices"]:
        if not isinstance(item, dict) or "id" not in item or "moment" not in item:
            raise FormatError(f"graph vertex needs id and moment: {item!r}")
        if not is_int(item["id"]):
            raise FormatError("vertex id must be an integer")
        moment = parse_rational(item["moment"])
        if "surface" in item:
            data = item["surface"]
            if not isinstance(data, dict) or "genus" not in data or "area" not in data:
                raise FormatError("surface data needs genus and area")
            if not is_int(data["genus"]):
                raise FormatError("surface genus must be an integer")
            components.append(
                surface(item["id"], moment, data["genus"], parse_rational(data["area"]))
            )
        elif "weights" in item:
            pair = item["weights"]
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(is_int(w) for w in pair)
            ):
                raise FormatError("weights must be a pair of integers")
            components.append(isolated(item["id"], moment, tuple(pair)))
        else:
            raise FormatError("vertex needs either weights or surface data")
    links = []
    for item in payload.get("edges", []):
        if not isinstance(item, dict) or not {"north", "south", "k"} <= set(item):
            raise FormatError(f"graph edge needs north, south, k: {item!r}")
        if not all(is_int(item[f]) for f in ("north", "south", "k")):
            raise FormatError("edge fields must be integers")
        links.append((item["north"], item["south"], item["k"]))
    return S1Graph(tuple(components), tuple(links))
