"""Decorated graphs for Hamiltonian circle actions on 4-manifolds.

A graph records the fixed components of a circle action: isolated points
carry their pair of isotropy weights, fixed surfaces carry genus and
area, and every sphere with finite nontrivial isotropy Z_k appears as an
edge joining its two poles.  Moments are exact rationals and sphere
areas are recovered from the moment gap, area = (mu_north - mu_south)/k.

The module validates the combinatorial axioms, projects Delzant polygons
to circle subactions, builds the base graphs of ruled surfaces, performs
equivariant blow-ups with the full case analysis, tests whether an
action extends to a toric one, and computes canonical forms under moment
translation and reflection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction as Q
from math import gcd
from typing import Iterable

from .errors import FormatError, PreconditionError
from .polygon import RationalPolygon, edges as polygon_edges, is_delzant
from .rationals import format_rational, parse_rational


@dataclass(frozen=True)
class FixedComponent:
    """One fixed component: an isolated point or a fixed surface."""

    id: int
    moment: Q
    weights: tuple[int, int] | None = None
    genus: int | None = None
    area: Q | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "moment", parse_rational(self.moment))
        if self.weights is not None:
            pair = tuple(sorted(self.weights, reverse=True))
            object.__setattr__(self, "weights", pair)
        if self.area is not None:
            object.__setattr__(self, "area", parse_rational(self.area))

    @property
    def is_surface(self) -> bool:
        return self.genus is not None


def isolated(id: int, moment: Q, weights: Iterable[int]) -> FixedComponent:
    return FixedComponent(id, moment, weights=tuple(weights))


def surface(id: int, moment: Q, genus: int, area: Q) -> FixedComponent:
    return FixedComponent(id, moment, genus=genus, area=area)


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

    # Graphs are immutable, so derived facts are computed once per instance.

    @cached_property
    def min_moment(self) -> Q:
        return min(v.moment for v in self.vertices)

    @cached_property
    def max_moment(self) -> Q:
        return max(v.moment for v in self.vertices)

    @cached_property
    def _diagnostics(self) -> tuple[str, ...]:
        return _diagnose(self)

    @cached_property
    def _canonical_serialization(self) -> tuple:
        return min(_serialize(self, False), _serialize(self, True))


def edge_area(graph: S1Graph, edge: tuple[int, int, int]) -> Q:
    north, south, k = edge
    return (graph.component(north).moment - graph.component(south).moment) / k


def validate(graph: S1Graph) -> tuple[bool, tuple[str, ...]]:
    """Check every graph axiom; returns (ok, diagnostics)."""
    problems = graph._diagnostics
    return (not problems, problems)


def _diagnose(graph: S1Graph) -> tuple[str, ...]:
    if not graph.vertices:
        return ("graph has no fixed components",)
    ids = [v.id for v in graph.vertices]
    if len(set(ids)) != len(ids):
        return ("vertex ids must be distinct",)
    problems: list[str] = []
    by_id = {v.id: v for v in graph.vertices}

    lo = graph.min_moment
    hi = graph.max_moment
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
        tag = f"vertex {vertex.id}"
        if vertex.is_surface == (vertex.weights is not None):
            problems.append(f"{tag}: needs either weights or surface data")
            continue
        if len(incident[vertex.id]) > 2:
            problems.append(f"{tag}: reached by more than two edges")
        if vertex.is_surface:
            if vertex.genus < 0:
                problems.append(f"{tag}: genus must be nonnegative")
            if vertex.area <= 0:
                problems.append(f"{tag}: surface area must be positive")
            if vertex.moment not in (lo, hi):
                problems.append(f"{tag}: fixed surfaces occur only at extrema")
            if incident[vertex.id]:
                problems.append(f"{tag}: fixed surfaces carry no edges")
            continue
        m, n = vertex.weights
        if m == 0 or n == 0:
            problems.append(f"{tag}: isotropy weights must be nonzero")
            continue
        if gcd(abs(m), abs(n)) != 1:
            problems.append(f"{tag}: weights {vertex.weights} are not coprime")
        if vertex.moment == lo and not (m > 0 and n > 0):
            problems.append(f"{tag}: minimum needs both weights positive")
        elif vertex.moment == hi and not (m < 0 and n < 0):
            problems.append(f"{tag}: maximum needs both weights negative")
        elif lo < vertex.moment < hi and not (m > 0 > n):
            problems.append(f"{tag}: interior point needs weights of both signs")
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
                problems.append(f"{tag}: no weight slot for pole weight {need}")
        for left in slots:
            if abs(left) >= 2:
                problems.append(f"{tag}: weight {left} has no matching Z_k edge")
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
    ok, diagnostics = is_delzant(polygon)
    if not ok:
        raise PreconditionError(f"polygon is not Delzant: {diagnostics[0]}")
    if len(xi) != 2 or not all(isinstance(c, int) for c in xi):
        raise PreconditionError("projection direction must be an integer vector")
    if gcd(abs(xi[0]), abs(xi[1])) != 1:
        raise PreconditionError("projection direction must be a primitive integer vector")

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
        weights = (pairings[i], -pairings[i - 1])
        components.append(isolated(ids[i], moments[i], weights))
    for i in range(n):
        if pairings[i] == 0:
            components.append(
                surface(len(components), moments[i], 0, edge_list[i].rational_length)
            )

    links = []
    for i in range(n):
        k = abs(pairings[i])
        if k < 2:
            continue
        head, tail = (i + 1) % n, i
        assert head in ids and tail in ids, "Z_k edges never touch absorbed vertices"
        if moments[head] > moments[tail]:
            links.append((ids[head], ids[tail], k))
        else:
            links.append((ids[tail], ids[head], k))

    graph = S1Graph(tuple(components), tuple(links))
    _require_valid(graph)
    return graph


def ruled_base_graph(genus: int, degree: int, mu: Q, twisted: bool) -> S1Graph:
    """Base graph of a fiberwise circle action on a ruled surface.

    The fiber has area 1, so the two section surfaces sit at moments 0
    and 1; they differ by degree-many fibers, and the admissible degrees
    of each parity are exactly those keeping the bottom area positive.
    """
    mu = parse_rational(mu)
    if not isinstance(genus, int) or genus < 0:
        raise PreconditionError("genus must be a nonnegative integer")
    if not isinstance(degree, int) or degree < 0:
        raise PreconditionError("degree must be a nonnegative integer")
    if mu <= 0:
        raise PreconditionError("section area parameter must be positive")
    if degree % 2 != (1 if twisted else 0):
        kind = "twisted" if twisted else "product"
        raise PreconditionError(f"{kind} ruling needs degree of matching parity")
    bottom = mu - Q(degree - 1, 2) if twisted else mu - Q(degree, 2)
    if bottom <= 0:
        raise PreconditionError(
            f"section area nonpositive: {format_rational(bottom)}"
        )
    return S1Graph(
        (
            surface(0, Q(0), genus, bottom),
            surface(1, Q(1), genus, bottom + degree),
        )
    )


# ---------------------------------------------------------------------------
# Blow-ups


def can_blow_up(graph: S1Graph, vertex_id: int, delta: Q) -> tuple[bool, str]:
    """Feasibility of an equivariant blow-up of capacity delta at a vertex."""
    _require_valid(graph)
    delta = parse_rational(delta)
    if delta <= 0:
        return (False, "capacity must be positive")
    vertex = graph.component(vertex_id)
    lo, hi = graph.min_moment, graph.max_moment

    if vertex.is_surface:
        if vertex.area <= delta:
            return (
                False,
                f"fixed surface area {format_rational(vertex.area)} must exceed delta",
            )
        # The new (1,-1) point sits delta inside the surface's extremum.
        if hi - lo <= delta:
            return (
                False,
                f"moment span {format_rational(hi - lo)} must exceed delta",
            )
        return (True, "")

    for edge in graph.edges:
        if vertex_id in (edge[0], edge[1]):
            area = edge_area(graph, edge)
            if area <= delta:
                return (
                    False,
                    f"Z_{edge[2]} sphere area {format_rational(area)} must exceed delta",
                )
    if lo < vertex.moment < hi:
        if not (lo < vertex.moment - delta and vertex.moment + delta < hi):
            return (
                False,
                "interior blow-up needs min < mu - delta and mu + delta < max",
            )
        return (True, "")
    for other in graph.vertices:
        if other.id != vertex_id and abs(other.moment - vertex.moment) <= delta:
            return (
                False,
                f"extremal blow-up needs moment distance to vertex {other.id} "
                "to exceed delta",
            )
    return (True, "")


def _fresh_ids(graph: S1Graph, count: int) -> list[int]:
    top = max(v.id for v in graph.vertices)
    return [top + 1 + i for i in range(count)]


def blow_up(graph: S1Graph, vertex_id: int, delta: Q) -> S1Graph:
    """Equivariant blow-up of capacity delta at a fixed component."""
    delta = parse_rational(delta)
    feasible, reason = can_blow_up(graph, vertex_id, delta)
    if not feasible:
        raise PreconditionError(f"blow-up infeasible: {reason}")
    vertex = graph.component(vertex_id)
    others = tuple(v for v in graph.vertices if v.id != vertex_id)

    if vertex.is_surface:
        # Proper transform keeps the surface with area reduced by delta;
        # the free exceptional sphere ends at a new interior point.
        inward = 1 if vertex.moment == graph.min_moment else -1
        new_id = _fresh_ids(graph, 1)[0]
        shrunk = surface(vertex.id, vertex.moment, vertex.genus, vertex.area - delta)
        point = isolated(new_id, vertex.moment + inward * delta, (1, -1))
        return _validated(S1Graph(others + (shrunk, point), graph.edges))

    m, n = vertex.weights
    if m == n:
        # Extremal point with weights (1,1) or (-1,-1): the exceptional
        # sphere becomes a fixed surface of area delta.
        inward = 1 if m > 0 else -1
        replacement = surface(vertex.id, vertex.moment + inward * delta, 0, delta)
        return _validated(S1Graph(others + (replacement,), graph.edges))

    high_id, low_id = _fresh_ids(graph, 2)
    high = isolated(high_id, vertex.moment + m * delta, (m, n - m))
    low = isolated(low_id, vertex.moment + n * delta, (n, m - n))
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
    return _validated(S1Graph(others + (high, low), tuple(new_edges)))


def _validated(graph: S1Graph) -> S1Graph:
    ok, problems = validate(graph)
    assert ok, f"blow-up produced an invalid graph: {problems[0]}"
    return graph


# ---------------------------------------------------------------------------
# Maximality


def extends_to_toric(graph: S1Graph) -> bool:
    """Whether the circle action is a subaction of some toric action.

    Actions with only isolated fixed points always extend.  Otherwise
    every fixed surface must have genus 0 and no interior moment level
    may meet more than two nonfree orbits, counting interior fixed
    points at the level and Z_k-spheres whose open moment span crosses it.
    """
    _require_valid(graph)
    if all(not v.is_surface for v in graph.vertices):
        return True
    if any(v.is_surface and v.genus > 0 for v in graph.vertices):
        return False
    lo, hi = graph.min_moment, graph.max_moment
    critical = sorted({v.moment for v in graph.vertices if lo < v.moment < hi})
    samples = list(critical)
    cuts = sorted({lo, hi, *critical})
    for left, right in zip(cuts, cuts[1:]):
        samples.append((left + right) / 2)
    for level in samples:
        points = sum(
             1 for v in graph.vertices if not v.is_surface and v.moment == level
        )
        spans = 0
        for north, south, _ in graph.edges:
            if graph.component(south).moment < level < graph.component(north).moment:
                spans += 1
        if points + spans > 2:
            return False
    return True


# ---------------------------------------------------------------------------
# Canonical forms


def _basic_key(vertex: FixedComponent, shift: Q, flip: bool, span: Q) -> tuple:
    moment = span - (vertex.moment - shift) if flip else vertex.moment - shift
    if vertex.is_surface:
        return (moment, 1, Q(vertex.genus), vertex.area)
    m, n = vertex.weights
    if flip:
        m, n = -n, -m
    return (moment, 0, Q(m), Q(n))


def _serialize(graph: S1Graph, flip: bool) -> tuple:
    shift = graph.min_moment
    span = graph.max_moment - graph.min_moment
    keys = {v.id: _basic_key(v, shift, flip, span) for v in graph.vertices}
    neighbour: dict[int, tuple] = {}
    for vertex in graph.vertices:
        local = []
        for north, south, k in graph.edges:
            if vertex.id == north:
                local.append((k, 1, keys[south]))
            elif vertex.id == south:
                local.append((k, 0, keys[north]))
        neighbour[vertex.id] = tuple(sorted(local))

    ordered = sorted(graph.vertices, key=lambda v: (keys[v.id], neighbour[v.id]))
    groups: list[list[int]] = []
    for index, vertex in enumerate(ordered):
        if index and (
            keys[vertex.id] == keys[ordered[index - 1].id]
            and neighbour[vertex.id] == neighbour[ordered[index - 1].id]
        ):
            groups[-1].append(index)
        else:
            groups.append([index])

    def serialization(order: list[FixedComponent]) -> tuple:
        position = {v.id: i for i, v in enumerate(order)}
        verts = tuple(keys[v.id] for v in order)
        if flip:
            links = tuple(
                sorted((position[s], position[n], k) for n, s, k in graph.edges)
            )
        else:
            links = tuple(
                sorted((position[n], position[s], k) for n, s, k in graph.edges)
            )
        return (verts, links)

    ambiguous = [g for g in groups if len(g) > 1]
    if not ambiguous or not graph.edges:
        return serialization(ordered)
    assert all(len(g) <= 4 for g in ambiguous), "unexpectedly large symmetry group"
    best = None
    for perms in itertools.product(
        *(itertools.permutations(group) for group in ambiguous)
    ):
        candidate = list(ordered)
        for group, perm in zip(ambiguous, perms):
            slots = [ordered[i] for i in group]
            for slot_index, source in zip(group, perm):
                candidate[slot_index] = ordered[source]
        serialized = serialization(candidate)
        if best is None or serialized < best:
            best = serialized
    return best


def canonical_serialization(graph: S1Graph) -> tuple:
    _require_valid(graph)
    return graph._canonical_serialization


def canonical_form(graph: S1Graph) -> S1Graph:
    """Least representative under moment translation and reflection."""
    verts, links = canonical_serialization(graph)
    components = []
    for index, key in enumerate(verts):
        moment, tag, a, b = key
        if tag == 1:
            components.append(surface(index, moment, int(a), b))
        else:
            components.append(isolated(index, moment, (int(a), int(b))))
    return S1Graph(tuple(components), tuple(links))


def equivalent(left: S1Graph, right: S1Graph) -> bool:
    return canonical_serialization(left) == canonical_serialization(right)


def enumerate_equivariant_blowups(graph: S1Graph, delta: Q) -> tuple[S1Graph, ...]:
    """Canonical forms of all feasible equivariant blow-ups of one capacity."""
    _require_valid(graph)
    delta = parse_rational(delta)
    results: dict[tuple, S1Graph] = {}
    for vertex in graph.vertices:
        feasible, _ = can_blow_up(graph, vertex.id, delta)
        if not feasible:
            continue
        blown = blow_up(graph, vertex.id, delta)
        key = canonical_serialization(blown)
        results[key] = canonical_form(blown)
    return tuple(results[key] for key in sorted(results))


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
    components = []
    for item in payload["vertices"]:
        if not isinstance(item, dict) or "id" not in item or "moment" not in item:
            raise FormatError(f"graph vertex needs id and moment: {item!r}")
        if not isinstance(item["id"], int):
            raise FormatError("vertex id must be an integer")
        moment = parse_rational(item["moment"])
        if "surface" in item:
            data = item["surface"]
            if not isinstance(data, dict) or "genus" not in data or "area" not in data:
                raise FormatError("surface data needs genus and area")
            if not isinstance(data["genus"], int):
                raise FormatError("surface genus must be an integer")
            components.append(
                surface(item["id"], moment, data["genus"], parse_rational(data["area"]))
            )
        elif "weights" in item:
            pair = item["weights"]
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(w, int) for w in pair)
            ):
                raise FormatError("weights must be a pair of integers")
            components.append(isolated(item["id"], moment, tuple(pair)))
        else:
            raise FormatError("vertex needs either weights or surface data")
    links = []
    for item in payload.get("edges", []):
        if not isinstance(item, dict) or not {"north", "south", "k"} <= set(item):
            raise FormatError(f"graph edge needs north, south, k: {item!r}")
        if not all(isinstance(item[f], int) for f in ("north", "south", "k")):
            raise FormatError("edge fields must be integers")
        links.append((item["north"], item["south"], item["k"]))
    return S1Graph(tuple(components), tuple(links))
