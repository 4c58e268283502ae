"""The public circle-graph functions answer as they did before the unchecked
cores moved to tables.

`blow_up`, `can_blow_up`, `canonical_serialization`, `canonical_form` and
`extends_to_toric` turn a graph into a table and back at the boundary, so
they must keep the ids, the vertex and edge order and the refusal text that
the graph-based cores gave.  Each digest below is the sha256 of their
answers, one JSON line per call, as the graph-based cores gave them.  The
graphs are the hand-built ones of `test_circle_graph.py` and the maximal
circles of a few censuses, each as built and relabelled: new ids that are
not positions, shuffled vertices and shuffled edges.  Every vertex of every
graph is blown up at capacities of a ninth, a quarter and a half of the
graph's moment span and at 1/5, and each graph's first vertex at 0.
"""

import hashlib
import json
import random
from fractions import Fraction as Q

from test_circle_graph import (
    _BOTH_ENDS_DIFFER,
    SQUARE,
    WIDE_MINIMUM_NEAR_POINT,
    _edgeless_crowd_graph,
    _like_extrema_graphs,
    _three_chain_graph,
    _tied_graph,
)
from torus_census.census import ManifoldSpec, run_census
from torus_census.circle_graph import (
    S1Graph,
    blow_up,
    can_blow_up,
    canonical_form,
    canonical_serialization,
    extends_to_toric,
    graph_from_polygon,
    graph_to_json,
    isolated,
    ruled_base_graph,
    surface,
)
from torus_census.errors import CapacityError
from torus_census.polygon import hirzebruch

HAND_BUILT_DIGEST = "d6c440a6272f870ffc4561a981dc06f59a81057c887bfb433ddd9b75d9957874"
CENSUS_DIGEST = "6def26c8561d49dbc50d21ef9612b507dbe4db7f32e9d586e5f7df212c4f35cb"


def _relabelled(graph, rng):
    """The graph with ids drawn from 100-999, its vertices and edges shuffled."""
    ids = dict(zip((v.id for v in graph.vertices), rng.sample(range(100, 1000), len(graph.vertices))))
    vertices = [
        surface(ids[v.id], v.moment, v.genus, v.area)
        if v.is_surface
        else isolated(ids[v.id], v.moment, v.weights)
        for v in graph.vertices
    ]
    edges = [(ids[n], ids[s], k) for n, s, k in graph.edges]
    return S1Graph(tuple(rng.sample(vertices, len(vertices))), tuple(rng.sample(edges, len(edges))))


def _answers(graph):
    """One JSON-ready answer per public call on the graph and its blow-ups."""
    lines = [
        ["graph", graph_to_json(graph)],
        ["key", repr(canonical_serialization(graph))],
        ["form", graph_to_json(canonical_form(graph))],
        ["extends", extends_to_toric(graph)],
    ]
    span = graph.max_moment - graph.min_moment
    for index, vertex in enumerate(graph.vertices):
        deltas = [Q(span, 9), Q(span, 4), Q(span, 2), Q(1, 5)] + [Q(0)] * (index == 0)
        for delta in deltas:
            ok, reason = can_blow_up(graph, vertex.id, delta)
            lines.append(["can", vertex.id, str(delta), ok, reason])
            try:
                blown = blow_up(graph, vertex.id, delta)
            except CapacityError as refusal:
                lines.append(["refused", str(refusal)])
                continue
            lines.append(["blown", graph_to_json(blown)])
            lines.append(["key", repr(canonical_serialization(blown))])
            lines.append(["extends", extends_to_toric(blown)])
    return lines


def _digest(graphs):
    """The sha256 of the answers on each graph and a relabelled copy, and
    the number of answers."""
    rng = random.Random(32)
    digest, count = hashlib.sha256(), 0
    for graph in graphs:
        for image in (graph, _relabelled(graph, rng)):
            for line in _answers(image):
                digest.update(json.dumps(line).encode() + b"\n")
                count += 1
    return digest.hexdigest(), count


def _hand_built():
    rng = random.Random(83)
    return [
        *(_three_chain_graph(k) for k in range(4)),
        *_BOTH_ENDS_DIFFER,
        *(_tied_graph(rng) for _ in range(8)),
        _edgeless_crowd_graph(1),
        _edgeless_crowd_graph(2),
        *_like_extrema_graphs(),
        WIDE_MINIMUM_NEAR_POINT,
        graph_from_polygon(SQUARE, (0, 1)),
        graph_from_polygon(SQUARE, (1, 1)),
        graph_from_polygon(hirzebruch(Q(2), Q(1), 2), (1, 0)),
        graph_from_polygon(hirzebruch(Q(3), Q(1), 1), (1, 2)),
        ruled_base_graph(0, 0, Q(3, 2), False),
        ruled_base_graph(2, 1, Q(2), True),
    ]


def _census_graphs():
    specs = [
        ManifoldSpec("cp2", 0, Q(1), Q(1), (Q(2, 5),) * 4),
        ManifoldSpec("cp2", 0, Q(1), Q(1), (Q(1, 6), Q(2, 13), Q(1, 7), Q(2, 15), Q(1, 8))),
        ManifoldSpec("product_ruled", 0, Q(1), Q(1), (Q(1, 6),) * 5),
        ManifoldSpec("product_ruled", 1, Q(2), Q(1), (Q(1, 3), Q(1, 4), Q(1, 5))),
        ManifoldSpec("twisted_ruled", 2, Q(2), Q(1), (Q(1, 2), Q(1, 3))),
    ]
    return [graph for spec in specs for graph in run_census(spec).maximal_circles]


def test_public_graph_answers_on_hand_built_graphs_are_unchanged():
    assert _digest(_hand_built()) == (HAND_BUILT_DIGEST, 6364)


def test_public_graph_answers_on_census_graphs_are_unchanged():
    assert _digest(_census_graphs()) == (CENSUS_DIGEST, 9296)
