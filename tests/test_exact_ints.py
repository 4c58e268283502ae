"""Whole-number inputs: the polygon and graph layers keep ints exact.

A census scales each recipe to whole numbers, so every polygon and graph
function it reaches must give, on an int-literal copy, the same answer as
on the Fraction original, and never a float.
"""

from dataclasses import fields, is_dataclass
from fractions import Fraction as Q
from math import lcm

import pytest

from polygon_corpus import build_corpus
from torus_census import circle_graph as cg
from torus_census import polygon as pg
from torus_census.errors import CapacityError, PreconditionError


def has_float(value) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, (tuple, list, set, frozenset)):
        return any(has_float(item) for item in value)
    if is_dataclass(value):
        return any(has_float(getattr(value, f.name)) for f in fields(value))
    return False


def same(fraction_result, int_result):
    assert not has_float(int_result), int_result
    assert int_result == fraction_result


def outcome(call, *args):
    """A call's result, or the type of the precondition it refused."""
    try:
        return call(*args)
    except (CapacityError, PreconditionError) as exc:
        return type(exc)


def polygon_twins():
    """Each corpus polygon scaled to integral Fractions, and an int copy."""
    for polygon in build_corpus():
        scale = 2 * lcm(*(c.denominator for point in polygon.vertices for c in point))
        points = tuple((x * scale, y * scale) for x, y in polygon.vertices)
        as_ints = pg.RationalPolygon(tuple((int(x), int(y)) for x, y in points))
        assert all(type(c) is int for point in as_ints.vertices for c in point)
        yield pg.RationalPolygon(points), as_ints


def fraction_copy(graph):
    components = tuple(
        cg.FixedComponent(
            v.id, Q(v.moment), v.weights, v.genus, None if v.area is None else Q(v.area)
        )
        for v in graph.vertices
    )
    return cg.S1Graph(components, graph.edges)


def hand_built_graphs():
    """Int-literal graphs: a Z_2 sphere of area 3/2, surfaces with interior
    points, and a crowded level."""
    yield cg.S1Graph(
        (cg.isolated(0, 0, (1, 2)), cg.isolated(1, 3, (-2, -1))), ((1, 0, 2),)
    )
    yield cg.S1Graph(
        (
            cg.surface(0, 0, 0, 5),
            cg.isolated(1, 1, (1, -1)),
            cg.isolated(2, 3, (2, -1)),
            cg.isolated(3, 6, (1, -2)),
            cg.surface(4, 7, 0, 4),
        ),
        ((3, 2, 2),),
    )
    yield cg.S1Graph(
        (
            cg.surface(0, 0, 0, 9),
            cg.isolated(1, 2, (1, -1)),
            cg.isolated(2, 2, (1, -1)),
            cg.isolated(3, 2, (1, -1)),
            cg.surface(4, 5, 1, 6),
        )
    )


def test_edge_area_of_int_graph_is_exact():
    graph = next(hand_built_graphs())
    area = cg.edge_area(graph, graph.edges[0])
    assert not isinstance(area, float)
    assert area == Q(3, 2)


@pytest.mark.parametrize("index", range(len(build_corpus())))
def test_polygon_layer_agrees_on_int_copies(index):
    exact, whole = list(polygon_twins())[index]
    same(pg.invariants(exact), pg.invariants(whole))
    same(pg.edges(exact), pg.edges(whole))
    same(pg.canonical_form(exact), pg.canonical_form(whole))
    model = pg.classify_model(exact)
    same(model, pg.classify_model(whole))
    for vertex in range(exact.edge_count):
        for delta in (1, 3):
            same(
                outcome(pg.blow_up, exact, vertex, Q(delta)),
                outcome(pg.blow_up, whole, vertex, delta),
            )


def graph_twins():
    for graph in hand_built_graphs():
        yield fraction_copy(graph), graph
    for exact, whole in polygon_twins():
        for edge in pg.edges(exact):
            yield (
                cg.graph_from_polygon(exact, edge.normal),
                cg.graph_from_polygon(whole, edge.normal),
            )


def test_graph_layer_agrees_on_int_copies():
    for exact, whole in graph_twins():
        same(exact, whole)
        for edge in whole.edges:
            same(cg.edge_area(exact, edge), cg.edge_area(whole, edge))
        same(cg.extends_to_toric(exact), cg.extends_to_toric(whole))
        same(cg.canonical_form(exact), cg.canonical_form(whole))
        for vertex in whole.vertices:
            for delta in (1, 2):
                feasible = cg.can_blow_up(exact, vertex.id, Q(delta))
                same(feasible, cg.can_blow_up(whole, vertex.id, delta))
                if feasible[0]:
                    same(
                        cg.blow_up(exact, vertex.id, Q(delta)),
                        cg.blow_up(whole, vertex.id, delta),
                    )


def test_int_graphs_stay_int():
    # A census relies on ints staying ints through its whole fold.
    for _, whole in graph_twins():
        blown = [
            cg.blow_up(whole, v.id, 1)
            for v in whole.vertices
            if cg.can_blow_up(whole, v.id, 1)[0]
        ]
        for graph in [whole, cg.canonical_form(whole), *blown]:
            for v in graph.vertices:
                assert type(v.moment) is int
                assert v.area is None or type(v.area) is int
