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
the graphs it is given.  The unchecked cores (`_feasible`, `_blow_up`,
`_extends_to_toric`, `_key`, `_projected`, `_ruled_base`) parse and check
nothing and read and build tables: a table (verts, links) holds
verts[i] = (moment, 0, m, n) for a point of weights m >= n or
(moment, 1, genus, area) for a surface, and links (north, south, k) by
position.  A canonical key is a table.  `blow_up`, `can_blow_up`,
`canonical_serialization`, `canonical_form`, `extends_to_toric`,
`graph_from_polygon` and `ruled_base_graph` convert between `S1Graph` and
table once (`_table`, `_graph`), keeping ids, vertex order and refusal
text.  The census runs the cores on tables it built itself, which are
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
from fractions import Fraction as Q
from itertools import count
from math import gcd
from operator import eq
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

    @property
    def min_moment(self) -> Q:
        return min(v.moment for v in self.vertices)

    @property
    def max_moment(self) -> Q:
        return max(v.moment for v in self.vertices)


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
# Tables


def _table(graph: S1Graph) -> tuple:
    """The table of a valid graph, its positions the order of its vertices."""
    position = {v.id: i for i, v in enumerate(graph.vertices)}
    verts = tuple(
        (v.moment, 1, v.genus, v.area) if v.is_surface else (v.moment, 0, *v.weights)
        for v in graph.vertices
    )
    return verts, tuple((position[n], position[s], k) for n, s, k in graph.edges)


def _graph(table: tuple, ids: list[int] | None = None) -> S1Graph:
    """The graph a table names, each vertex id ids[position] (the position
    itself if no ids are given), in the order of the positions."""
    verts, links = table
    ids = ids or range(len(verts))
    return S1Graph(
        tuple(_key_component(ids[i], entry, None) for i, entry in enumerate(verts)),
        tuple((ids[north], ids[south], k) for north, south, k in links),
    )


def _key_component(id: int, entry: tuple, value: dict | None) -> FixedComponent:
    """The component that a table's entry (moment, tag, a, b) names with an
    id, each moment and area x read as value[x] if value is given.  A
    reflected pair (-n, -m) of a descending pair stays descending."""
    m, tag, a, b = entry
    if value is not None:
        m, b = value[m], value[b] if tag else b
    if tag:
        return _component(id, m, None, int(a), b)
    return _component(id, m, (int(a), int(b)))


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
    return _graph(_projected(polygon, xi))


def _projected(polygon: RationalPolygon, xi: tuple[int, int]) -> tuple:
    """The table of `graph_from_polygon` of a Delzant polygon and a
    primitive integer xi, neither of them checked: the points in polygon
    order, then the surfaces."""
    edge_list = polygon_edges(polygon)
    n = polygon.edge_count
    pairings = [e.direction[0] * xi[0] + e.direction[1] * xi[1] for e in edge_list]
    moments = [v[0] * xi[0] + v[1] * xi[1] for v in polygon.vertices]

    absorbed = set()
    for i in range(n):
        if pairings[i] == 0:
            absorbed.add(i)
            absorbed.add((i + 1) % n)

    verts: list[tuple] = []
    position: dict[int, int] = {}
    for i in range(n):
        if i in absorbed:
            continue
        position[i] = len(verts)
        verts.append((moments[i], 0, *_descending(pairings[i], -pairings[i - 1])))
    for i in range(n):
        if pairings[i] == 0:
            verts.append((moments[i], 1, 0, edge_list[i].rational_length))

    links = []
    for i in range(n):
        k = abs(pairings[i])
        if k < 2:
            continue
        head, tail = (i + 1) % n, i
        if head not in position or tail not in position:
            raise AssertionError("Z_k edges never touch absorbed vertices")
        if moments[head] > moments[tail]:
            links.append((position[head], position[tail], k))
        else:
            links.append((position[tail], position[head], k))

    return tuple(verts), tuple(links)


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
    return _graph(_ruled_base(genus, degree, bottom, 1))


def _ruled_base(genus: int, degree: int, bottom: Q | int, fiber: Q | int) -> tuple:
    """The table of `ruled_base_graph` from its exact bottom section area,
    nothing checked."""
    return ((fiber - fiber, 1, genus, bottom), (fiber, 1, genus, bottom + degree * fiber)), ()


# ---------------------------------------------------------------------------
# Blow-ups


# Refusal codes of `_site` and `_feasible` and the messages `can_blow_up` gives them.
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
    reason = _site(graph, vertex_id, parse_exact(delta))[2]
    return not reason, reason


def _site(graph: S1Graph, vertex_id: int, delta: Q | int) -> tuple:
    """The table of a valid graph, the vertex's position in it, and why
    `_feasible` refuses a blow-up of capacity delta there ("" where it does
    not).  A capacity that is not positive is refused before the vertex is
    looked up."""
    if delta <= 0:
        return None, None, _REFUSALS["delta"]
    table = _table(graph)
    graph.component(vertex_id)
    position = [v.id for v in graph.vertices].index(vertex_id)
    refusal = _feasible(table, position, delta)
    if refusal is None:
        return table, position, ""
    code, *values = refusal
    if code == "sphere_area":
        k, gap = values
        values = [k, Q(gap, k)]
    elif code.startswith("extremal"):
        values[0] = graph.vertices[values[0]].id
    return table, position, _REFUSALS[code].format(*map(format_rational, values))


def _feasible(table: tuple, i: int, delta: Q | int) -> tuple | None:
    """None where a blow-up of positive capacity delta at position i is
    feasible, else the refusal: its code in `_REFUSALS` and the values its
    message names, a vertex by its position.

    Nothing is checked or parsed, and no text is built.
    """
    verts, links = table
    moment, tag, a, b = verts[i]
    moments = [entry[0] for entry in verts]

    if tag:
        if b <= delta:
            return ("surface_area", b)
        # The new (1,-1) point sits delta inside the surface's extremum.
        span = max(moments) - min(moments)
        if span <= delta:
            return ("span", span)
        return None

    for north, south, k in links:
        if i == north or i == south:
            gap = moments[north] - moments[south]
            if gap <= k * delta:
                return ("sphere_area", k, gap)
    # Interior points, and only they, have weights of both signs.
    if a > 0 > b:
        if not (min(moments) < moment - delta and moment + delta < max(moments)):
            return ("interior",)
        return None
    # The new extremum lands min(|m|, |n|) delta inward.
    reach = min(abs(a), abs(b))
    for j, other in enumerate(moments):
        if j != i and abs(other - moment) <= reach * delta:
            if reach == 1:
                return ("extremal", j)
            return ("extremal_reach", j, reach)
    return None


def blow_up(graph: S1Graph, vertex_id: int, delta: Q) -> S1Graph:
    """Equivariant blow-up of capacity delta at a fixed component.

    The graph is validated and the site tested here: CapacityError where
    can_blow_up refuses it.  The untouched components keep their ids and
    order; the changed component follows them, and then the new one, each
    new point taking the next unused id.  The result is not validated; the
    census calls `_blow_up` on tables it built and trusts the result (see
    the `census` docstring), and the tests validate what both return.
    """
    delta = parse_exact(delta)
    _require_valid(graph)
    table, i, reason = _site(graph, vertex_id, delta)
    if reason:
        raise CapacityError(f"blow-up infeasible: {reason}")
    blown = _blow_up(table, i, delta)
    n = len(graph.vertices)
    ids = [v.id for v in graph.vertices]
    fresh = count(max(ids) + 1)
    # A point that splits leaves two new points; a surface or an extremal
    # (1, 1) point keeps its id.
    if graph.vertices[i].weights is not None and len(blown[0]) > n:
        ids[i] = next(fresh)
    ids += [next(fresh) for _ in blown[0][n:]]
    result = _graph(blown, ids)
    v = result.vertices
    return S1Graph(v[:i] + v[i + 1:n] + v[i:i + 1] + v[n:], result.edges)


def _blow_up(table: tuple, i: int, delta: Q | int) -> tuple | None:
    """`blow_up` of a table at position i, with an exact delta and nothing
    checked, or None where `_feasible` refuses the site.  The changed entry
    keeps position i and a new one is appended."""
    if _feasible(table, i, delta) is not None:
        return None
    verts, links = table
    moment, tag, a, b = verts[i]
    verts = list(verts)

    if tag:
        # Proper transform keeps the surface with area reduced by delta;
        # the free exceptional sphere ends at a new interior point.
        inward = 1 if moment == min(verts)[0] else -1
        verts[i] = (moment, 1, a, b - delta)
        verts.append((moment + inward * delta, 0, 1, -1))
        return verts, links

    if a == b:
        # Extremal point with weights (1,1) or (-1,-1): the exceptional
        # sphere becomes a fixed surface of area delta.
        inward = 1 if a > 0 else -1
        verts[i] = (moment + inward * delta, 1, 0, delta)
        return verts, links

    # The point of weights (m, n) = (a, b) splits: the high point of
    # weights (m, n - m) keeps position i and the low one, of weights
    # (n, m - n), is appended at position j.
    j = len(verts)
    verts[i] = (moment + a * delta, 0, *_descending(a, b - a))
    verts.append((moment + b * delta, 0, *_descending(b, a - b)))
    new_links = []
    for north, south, k in links:
        if north == i:
            # The vertex was a north pole with weight -k; the edge keeps
            # that weight, so it reattaches where -k survives in the pair.
            new_links.append((i if a == -k else j, south, k))
        elif south == i:
            new_links.append((north, i if a == k else j, k))
        else:
            new_links.append((north, south, k))
    if a - b >= 2:
        new_links.append((i, j, a - b))
    return verts, tuple(new_links)


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
    return _extends_to_toric(_table(graph))


def _extends_to_toric(table: tuple) -> bool:
    """`extends_to_toric` of a table with nothing checked, counting only at
    the moments of interior points: only points lie strictly between the
    extrema, and surfaces carry no edge.  An interior point has one negative
    weight, so it is the north pole of at most one sphere (`_diagnose`'s
    slot rule): each sphere open over the gap below an interior moment m
    crosses m or ends at its own point at m, so the gap meets no more orbits
    than m does.  The gap below the maximum meets only the spheres that end
    there: at most two for a point, none for a surface."""
    verts, links = table
    if not any(entry[1] for entry in verts):
        return True
    if any(tag and genus > 0 for _, tag, genus, _ in verts):
        return False
    moments = [entry[0] for entry in verts]
    lo, hi = min(moments), max(moments)
    interior = [m for m in moments if lo < m < hi]
    spans = [(moments[south], moments[north]) for north, south, _ in links]
    for level in set(interior):
        crossing = sum(1 for low, high in spans if low < level < high)
        if interior.count(level) + crossing > 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical forms


def _serialize(table: tuple, flip: bool) -> tuple:
    """The least (verts, links) of one reflection.  Each entry's key is its
    moment above the minimum (below the maximum when flipped), then
    (1, genus, area) for a surface or (0, weights) for a point, a flipped
    pair (m, n) read as (-n, -m); the verts are the sorted keys, and the
    links the sorted (later position, earlier position, k).  Where the keys
    are distinct, one sort of the positions by key places each entry; only
    where two keys tie does `_refined` order the positions further."""
    verts, links = table
    if flip:
        top = max(verts)[0]
        keys = [
            (top - m, 1, a, b) if tag else (top - m, 0, -b, -a) for m, tag, a, b in verts
        ]
    else:
        low = min(verts)[0]
        keys = [(m - low, tag, a, b) for m, tag, a, b in verts]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ordered = tuple(map(keys.__getitem__, order))
    if any(map(eq, ordered, ordered[1:])):
        order = _refined(links, keys)
        ordered = tuple(map(keys.__getitem__, order))
    # The inverse of order: each entry's place.
    position = sorted(range(len(order)), key=order.__getitem__)
    # Reflection swaps the poles of every link.
    if flip:
        return ordered, tuple(sorted((position[s], position[n], k) for n, s, k in links))
    return ordered, tuple(sorted((position[n], position[s], k) for n, s, k in links))


def _refined(links: tuple, keys: list) -> list[int]:
    """The positions in the order of the least serialization, where some
    keys tie: by key, then by the sorted (k, pole, key at the other end) of
    their links.  Ties left among entries with links are broken by ranks
    refined by the sorted (rank, k) at the earlier ends of each entry's
    links until stable, then by those at the later ends, until neither
    splits a class; then the least tied class's first position is ranked
    alone, and so on.  A rank is its class's first place, so the order is
    only split.  Sorted links read each vertex's edges toward earlier
    vertices in turn, and only the unique minimum and maximum, which have
    keys of their own, have two edges one way; so the least links order
    like vertices by their earlier ends, and where those tie all the way
    down, by their later ends, as swapping the chains below two like
    vertices changes only the links at their later ends.  Like vertices
    that neither end splits lie on monotone paths that match rank for rank
    and end alike, so an automorphism exchanges them.  Vertices with no
    edge are in no link."""
    local: list[list] = [[] for _ in keys]
    ends: list[tuple] = [([], []) for _ in keys]
    for north, south, k in links:
        local[north].append((k, 1, keys[south]))
        local[south].append((k, 0, keys[north]))
        late, early = (north, south) if keys[south] < keys[north] else (south, north)
        ends[late][0].append((k, early))
        ends[early][1].append((k, late))
    label = [(key, tuple(sorted(near))) for key, near in zip(keys, local)]
    ordered = sorted(range(len(keys)), key=label.__getitem__)
    if not any(label[a][1] and label[a] == label[b] for a, b in zip(ordered, ordered[1:])):
        return ordered

    def ranks(signature: list) -> list:
        order = sorted(signature)
        return [bisect_left(order, s) for s in signature]

    rank, side = ranks(label), 0
    while True:
        split = ranks([(r, sorted((rank[j], k) for k, j in ends[i][side])) for i, r in enumerate(rank)])
        if split != rank:
            rank, side = split, 0
        elif not side:
            side = 1
        else:
            ranked = sorted((r, i) for i, r in enumerate(rank) if any(ends[i]))
            tied = [p for p, q in zip(ranked, ranked[1:]) if p[0] == q[0]]
            if not tied:
                return sorted(ordered, key=rank.__getitem__)
            # The rest of the class moves one place up, still below the next.
            least, first = tied[0]
            rank, side = [r + (r == least and i != first) for i, r in enumerate(rank)], 0


def _key(table: tuple) -> tuple:
    """`canonical_serialization` of a table with nothing checked: the least
    `_serialize` of the two reflections, itself a table.

    A serialization's verts are its sorted keys.  The unique minimum is the
    one entry whose plain key has moment offset 0, and the unique maximum
    the one whose mirrored key has, so their keys lead the two lists: where
    they differ they decide the reflection, and only the winning side is
    serialized.
    """
    verts = table[0]
    bottom, top = min(verts), max(verts)
    plain = bottom[1:]
    mirror = top[1:] if top[1] else (0, -top[3], -top[2])
    if plain != mirror:
        return _serialize(table, mirror < plain)
    return min(_serialize(table, False), _serialize(table, True))


def canonical_serialization(graph: S1Graph) -> tuple:
    _require_valid(graph)
    return _key(_table(graph))


def canonical_form(graph: S1Graph) -> S1Graph:
    """Least representative under moment translation and reflection, its
    vertex ids the positions of its canonical serialization."""
    _require_valid(graph)
    return _graph(_key(_table(graph)))


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
