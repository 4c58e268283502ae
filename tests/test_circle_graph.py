"""Decorated circle-action graphs: validity, surgeries, canonical forms."""

import random
from fractions import Fraction as Q

import pytest

from polygon_corpus import build_chopped_corpus, build_corpus
from torus_census.circle_graph import (
    S1Graph,
    blow_up,
    can_blow_up,
    canonical_form,
    canonical_serialization,
    edge_area,
    enumerate_equivariant_blowups,
    equivalent,
    extends_to_toric,
    graph_from_json,
    graph_from_polygon,
    graph_to_json,
    isolated,
    ruled_base_graph,
    surface,
    validate,
)
from torus_census.errors import FormatError, PreconditionError
from torus_census.polygon import (
    RationalPolygon,
    UnimodularAffineMap,
    delzant_triangle,
    edges,
    hirzebruch,
)

SQUARE = RationalPolygon(((Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(0), Q(1))))


def assert_valid(graph):
    ok, diagnostics = validate(graph)
    assert ok, diagnostics


# ---------------------------------------------------------------------------
# Validation


def test_two_surface_product_graph_is_valid():
    assert_valid(graph_from_polygon(SQUARE, (0, 1)))


def test_surface_with_edge_is_invalid():
    graph = S1Graph(
        (
            surface(0, Q(0), 0, Q(1)),
            isolated(1, Q(1), (2, -2)),
        ),
        ((1, 0, 2),),
    )
    ok, diagnostics = validate(graph)
    assert not ok
    assert any("surface" in line for line in diagnostics)


def test_non_coprime_weights_are_invalid():
    graph = S1Graph(
        (
            isolated(0, Q(0), (2, 4)),
            isolated(1, Q(1), (-1, -1)),
        )
    )
    ok, diagnostics = validate(graph)
    assert not ok
    assert any("coprime" in line for line in diagnostics)


def test_duplicate_extremum_is_invalid():
    graph = S1Graph(
        (
            surface(0, Q(0), 0, Q(1)),
            surface(1, Q(0), 0, Q(1)),
        )
    )
    ok, _ = validate(graph)
    assert not ok


def test_pole_weight_needs_matching_edge():
    graph = S1Graph(
        (
            isolated(0, Q(0), (1, 3)),
            isolated(1, Q(1), (-1, -1)),
        )
    )
    ok, diagnostics = validate(graph)
    assert not ok
    assert any("no matching Z_k edge" in line for line in diagnostics)


def test_edge_moment_order_is_checked():
    graph = S1Graph(
        (
            isolated(0, Q(0), (1, 2)),
            isolated(1, Q(1), (-1, -2)),
        ),
        ((0, 1, 2),),
    )
    ok, _ = validate(graph)
    assert not ok


# ---------------------------------------------------------------------------
# Projection


def test_square_projects_to_two_surfaces():
    graph = graph_from_polygon(SQUARE, (0, 1))
    assert_valid(graph)
    surfaces = sorted(
        (v for v in graph.vertices if v.is_surface), key=lambda v: v.moment
    )
    assert [(v.moment, v.genus, v.area) for v in surfaces] == [
        (Q(0), 0, Q(1)),
        (Q(1), 0, Q(1)),
    ]
    assert graph.edges == ()


def test_square_diagonal_projection_is_four_points():
    graph = graph_from_polygon(SQUARE, (1, 1))
    assert_valid(graph)
    assert all(not v.is_surface for v in graph.vertices)
    assert sorted(v.moment for v in graph.vertices) == [Q(0), Q(1), Q(1), Q(2)]
    assert graph.edges == ()


def test_slanted_trapezoid_projection_has_z2_edge():
    # The slant of Hirzebruch(2,1,2) pairs -2 with (1,0) and becomes a Z_2
    # sphere; the vertical left edge is orthogonal and becomes a surface.
    graph = graph_from_polygon(hirzebruch(Q(2), Q(1), 2), (1, 0))
    assert_valid(graph)
    surfaces = [v for v in graph.vertices if v.is_surface]
    assert [(v.moment, v.area) for v in surfaces] == [(Q(0), Q(1))]
    assert sorted(v.moment for v in graph.vertices if not v.is_surface) == [
        Q(1),
        Q(3),
    ]
    assert len(graph.edges) == 1
    (edge,) = graph.edges
    assert edge[2] == 2
    assert edge_area(graph, edge) == Q(1)


def test_projection_rejects_imprimitive_direction():
    with pytest.raises(PreconditionError):
        graph_from_polygon(SQUARE, (0, 2))


def test_projection_equivariance_under_unimodular_maps():
    rng = random.Random(53)
    for polygon in build_corpus()[:8]:
        for edge in edges(polygon):
            xi = edge.normal
            base = canonical_form(graph_from_polygon(polygon, xi))
            for _ in range(5):
                a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
                matrix = ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (b, 1))
                shift = (Q(rng.randrange(-5, 6)), Q(rng.randrange(-5, 6)))
                gmap = UnimodularAffineMap(matrix, shift)
                image = gmap.apply_polygon(polygon)
                (p, q), (r, s) = matrix
                det = p * s - q * r
                transported = (
                    det * (s * xi[0] - r * xi[1]),
                    det * (-q * xi[0] + p * xi[1]),
                )
                other = canonical_form(graph_from_polygon(image, transported))
                assert equivalent(base, other)


def test_projections_always_extend_to_toric():
    for polygon in build_corpus():
        for edge in edges(polygon):
            graph = graph_from_polygon(polygon, edge.normal)
            assert_valid(graph)
            assert extends_to_toric(graph)


# ---------------------------------------------------------------------------
# Ruled base graphs


def test_ruled_base_graph_product_of_genus_two():
    graph = ruled_base_graph(2, 0, Q(5, 2), False)
    assert_valid(graph)
    areas = sorted(v.area for v in graph.vertices)
    assert areas == [Q(5, 2), Q(5, 2)]
    assert all(v.genus == 2 for v in graph.vertices)
    assert (graph.min_moment, graph.max_moment) == (Q(0), Q(1))


def test_ruled_base_graph_degree_shifts_section_areas():
    graph = ruled_base_graph(2, 2, Q(5, 2), False)
    areas = sorted(v.area for v in graph.vertices)
    assert areas == [Q(3, 2), Q(7, 2)]


def test_ruled_base_graph_admissibility_bound():
    with pytest.raises(PreconditionError) as excinfo:
        ruled_base_graph(2, 6, Q(5, 2), False)
    assert "section area nonpositive" in str(excinfo.value)
    for degree in (0, 2, 4):
        assert_valid(ruled_base_graph(2, degree, Q(5, 2), False))


def test_ruled_base_graph_parity_check():
    with pytest.raises(PreconditionError):
        ruled_base_graph(1, 1, Q(2), False)
    with pytest.raises(PreconditionError):
        ruled_base_graph(0, 2, Q(2), True)


def test_twisted_base_graph_odd_degrees():
    graph = ruled_base_graph(0, 1, Q(3, 2), True)
    areas = sorted(v.area for v in graph.vertices)
    assert areas == [Q(3, 2), Q(5, 2)]


# ---------------------------------------------------------------------------
# Blow-up feasibility


def test_surface_blow_up_needs_area_margin():
    # Bottom section of area 1/2 at moment 0, top of area 5/2 at moment 1.
    graph = ruled_base_graph(2, 2, Q(3, 2), False)
    bottom, top = (v.id for v in sorted(graph.vertices, key=lambda v: v.moment))
    ok, _ = can_blow_up(graph, bottom, Q(1, 3))
    assert ok
    ok, reason = can_blow_up(graph, bottom, Q(1, 2))
    assert not ok
    assert "surface area 1/2 must exceed delta" in reason
    # The area suffices, but the new (1,-1) point would reach the bottom.
    ok, reason = can_blow_up(graph, top, Q(1))
    assert not ok
    assert "moment span 1 must exceed delta" in reason


def test_interior_blow_up_needs_strict_margin():
    graph = S1Graph(
        (
            surface(0, Q(0), 0, Q(2)),
            surface(1, Q(3), 0, Q(2)),
            isolated(2, Q(1), (1, -1)),
        )
    )
    assert_valid(graph)
    ok, reason = can_blow_up(graph, 2, Q(1))
    assert not ok
    assert "interior blow-up" in reason
    ok, _ = can_blow_up(graph, 2, Q(1, 2))
    assert ok


def test_extremal_blow_up_needs_distance_to_other_fixed_points():
    half_square = UnimodularAffineMap(((1, 0), (0, 1)), (Q(0), Q(0)))
    scaled = RationalPolygon(
        tuple((x / 2, y / 2) for x, y in SQUARE.vertices)
    )
    graph = graph_from_polygon(scaled, (1, 1))
    top = max(graph.vertices, key=lambda v: v.moment)
    ok, _ = can_blow_up(graph, top.id, Q(1, 3))
    assert ok
    ok, reason = can_blow_up(graph, top.id, Q(1, 2))
    assert not ok
    assert "moment distance" in reason
    _ = half_square


def test_surface_blow_up_needs_moment_span():
    # Each surface has room in its area but not in the moment span.
    rectangle = hirzebruch(Q(1), Q(1, 2), 0)
    for graph, delta in (
        (graph_from_polygon(rectangle, (0, 1)), Q(3, 4)),
        (graph_from_polygon(rectangle, (0, -1)), Q(3, 4)),
        (ruled_base_graph(1, 0, Q(3), False), Q(3, 2)),
    ):
        for vertex in graph.vertices:
            ok, reason = can_blow_up(graph, vertex.id, delta)
            assert not ok
            assert "moment span" in reason
            with pytest.raises(PreconditionError):
                blow_up(graph, vertex.id, delta)


def _small_frontiers():
    """Graphs of small census frontiers: seeds and two stages of blow-ups."""
    seeds = [
        ruled_base_graph(0, 0, Q(1, 2), False),
        ruled_base_graph(1, 2, Q(3, 2), False),
        ruled_base_graph(2, 1, Q(1), True),
    ]
    for polygon in build_corpus()[:12]:
        seeds.extend(graph_from_polygon(polygon, e.normal) for e in edges(polygon))
    graphs = list(seeds)
    stage = seeds
    for delta in (Q(1, 5), Q(1, 7)):
        stage = [g for parent in stage for g in enumerate_equivariant_blowups(parent, delta)]
        graphs.extend(stage)
    return graphs


def test_can_blow_up_agrees_with_blow_up():
    rng = random.Random(71)
    graphs = _small_frontiers()
    for _ in range(3000):
        graph = rng.choice(graphs)
        vertex = rng.choice(graph.vertices)
        delta = Q(rng.randrange(1, 25), rng.randrange(1, 13))
        feasible, _ = can_blow_up(graph, vertex.id, delta)
        try:
            blown = blow_up(graph, vertex.id, delta)
        except PreconditionError:
            assert not feasible
        else:
            assert feasible
            assert_valid(blown)


def test_invalid_graph_stays_invalid():
    graph = S1Graph(
        (
            isolated(0, Q(0), (1, 1)),
            isolated(1, Q(0), (1, 1)),
            isolated(2, Q(1), (-1, -1)),
        )
    )
    first = validate(graph)
    assert not first[0]
    for _ in range(3):
        assert validate(graph) == first
        with pytest.raises(PreconditionError):
            can_blow_up(graph, 2, Q(1, 4))
        with pytest.raises(PreconditionError):
            canonical_serialization(graph)


def test_can_blow_up_rejects_unknown_vertex():
    graph = graph_from_polygon(SQUARE, (0, 1))
    with pytest.raises(PreconditionError):
        can_blow_up(graph, 99, Q(1, 4))


def test_can_blow_up_rejects_nonpositive_delta():
    graph = graph_from_polygon(SQUARE, (0, 1))
    ok, reason = can_blow_up(graph, graph.vertices[0].id, Q(0))
    assert not ok
    assert "positive" in reason


# ---------------------------------------------------------------------------
# Blow-up surgeries


def test_case_a_interior_point_splits_with_z2_edge():
    graph = S1Graph(
        (
            surface(0, Q(0), 0, Q(2)),
            surface(1, Q(2), 0, Q(2)),
            isolated(2, Q(1), (1, -1)),
        )
    )
    assert_valid(graph)
    blown = blow_up(graph, 2, Q(1, 4))
    assert_valid(blown)
    points = sorted(
        (v for v in blown.vertices if not v.is_surface), key=lambda v: v.moment
    )
    assert [(v.moment, v.weights) for v in points] == [
        (Q(3, 4), (2, -1)),
        (Q(5, 4), (1, -2)),
    ]
    assert len(blown.edges) == 1
    (edge,) = blown.edges
    assert edge[2] == 2
    assert edge_area(blown, edge) == Q(1, 4)


def test_case_b_extremal_point_becomes_surface():
    graph = graph_from_polygon(SQUARE, (1, 1))
    top = max(graph.vertices, key=lambda v: v.moment)
    assert top.weights == (-1, -1)
    blown = blow_up(graph, top.id, Q(1, 3))
    assert_valid(blown)
    new_surface = next(v for v in blown.vertices if v.is_surface)
    assert (new_surface.moment, new_surface.genus, new_surface.area) == (
        Q(5, 3),
        0,
        Q(1, 3),
    )


def test_case_c_surface_sheds_area_and_interior_point():
    graph = ruled_base_graph(1, 0, Q(2), False)
    bottom = min(graph.vertices, key=lambda v: v.moment)
    blown = blow_up(graph, bottom.id, Q(1, 3))
    assert_valid(blown)
    shrunk = blown.component(bottom.id)
    assert shrunk.area == Q(2) - Q(1, 3)
    new_point = next(v for v in blown.vertices if not v.is_surface)
    assert new_point.moment == Q(1, 3)
    assert new_point.weights == (1, -1)


def test_blow_up_rejects_infeasible_request():
    graph = graph_from_polygon(SQUARE, (0, 1))
    bottom = min(graph.vertices, key=lambda v: v.moment)
    with pytest.raises(PreconditionError) as excinfo:
        blow_up(graph, bottom.id, Q(2))
    assert "blow-up infeasible" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Extends-to-toric


def test_all_isolated_graphs_extend():
    graph = graph_from_polygon(SQUARE, (1, 1))
    assert extends_to_toric(graph)


def test_positive_genus_never_extends():
    assert not extends_to_toric(ruled_base_graph(2, 0, Q(5, 2), False))


def _three_chain_graph(edge_count):
    vertices = [surface(0, Q(0), 0, Q(1)), surface(1, Q(3), 0, Q(1))]
    graph_edges = []
    nid = 2
    for i in range(edge_count):
        vertices.append(isolated(nid, Q(1), (2, -1)))
        vertices.append(isolated(nid + 1, Q(2), (1, -2)))
        graph_edges.append((nid + 1, nid, 2))
        nid += 2
    return S1Graph(tuple(vertices), tuple(graph_edges))


def test_crowded_level_fails_to_extend():
    two = _three_chain_graph(2)
    assert_valid(two)
    assert extends_to_toric(two)
    three = _three_chain_graph(3)
    assert_valid(three)
    assert not extends_to_toric(three)


# ---------------------------------------------------------------------------
# Canonical forms


def _shift_component(v, shift):
    if v.is_surface:
        return surface(v.id, v.moment + shift, v.genus, v.area)
    return isolated(v.id, v.moment + shift, v.weights)


def _translate(graph, shift):
    vertices = tuple(_shift_component(v, shift) for v in graph.vertices)
    return S1Graph(vertices, graph.edges)


def _flip(graph):
    top = graph.max_moment
    vertices = []
    for v in graph.vertices:
        if v.is_surface:
            vertices.append(surface(v.id, top - v.moment, v.genus, v.area))
        else:
            vertices.append(
                isolated(v.id, top - v.moment, tuple(-w for w in v.weights))
            )
    flipped_edges = tuple((s, n, k) for (n, s, k) in graph.edges)
    return S1Graph(tuple(vertices), flipped_edges)


def test_canonical_form_invariant_under_translation_and_flip():
    rng = random.Random(59)
    samples = [
        graph_from_polygon(SQUARE, (0, 1)),
        graph_from_polygon(hirzebruch(Q(2), Q(1), 2), (1, 0)),
        ruled_base_graph(2, 2, Q(5, 2), False),
        _three_chain_graph(3),
    ]
    for graph in samples:
        base = canonical_serialization(graph)
        for _ in range(100):
            shift = Q(rng.randrange(-40, 40), rng.randrange(1, 7))
            image = _translate(graph, shift)
            if rng.random() < 0.5:
                image = _flip(image)
            assert canonical_serialization(image) == base


def test_canonical_form_idempotent():
    graph = ruled_base_graph(2, 2, Q(5, 2), False)
    once = canonical_form(graph)
    assert canonical_form(once) == once


def test_opposite_projections_are_equivalent():
    trapezoid = hirzebruch(Q(2), Q(1), 2)
    assert equivalent(
        graph_from_polygon(trapezoid, (1, 0)),
        graph_from_polygon(trapezoid, (-1, 0)),
    )


def test_opposite_projections_agree_on_chopped_corpus():
    for polygon in build_chopped_corpus():
        for edge in edges(polygon):
            xi = edge.normal
            opposite = (-xi[0], -xi[1])
            assert canonical_serialization(
                graph_from_polygon(polygon, xi)
            ) == canonical_serialization(graph_from_polygon(polygon, opposite))


# ---------------------------------------------------------------------------
# Blow-up enumeration


def test_enumerate_blowups_identifies_flip_symmetric_sites():
    graph = ruled_base_graph(2, 0, Q(5, 2), False)
    results = enumerate_equivariant_blowups(graph, Q(1, 2))
    assert len(results) == 1


def test_enumerate_blowups_distinguishes_unequal_surfaces():
    graph = ruled_base_graph(2, 2, Q(5, 2), False)
    results = enumerate_equivariant_blowups(graph, Q(1, 2))
    assert len(results) == 2


def test_enumerate_blowups_empty_when_infeasible():
    graph = graph_from_polygon(SQUARE, (0, 1))
    assert enumerate_equivariant_blowups(graph, Q(5)) == ()


# ---------------------------------------------------------------------------
# Serialization


def test_graph_json_round_trip():
    samples = [
        graph_from_polygon(SQUARE, (0, 1)),
        graph_from_polygon(hirzebruch(Q(2), Q(1), 2), (1, 0)),
        ruled_base_graph(2, 2, Q(5, 2), False),
        _three_chain_graph(2),
    ]
    for graph in samples:
        clone = graph_from_json(graph_to_json(graph))
        assert canonical_serialization(clone) == canonical_serialization(graph)


def test_graph_json_rejects_malformed():
    with pytest.raises(FormatError):
        graph_from_json({"vertices": "nope"})
    with pytest.raises(FormatError):
        graph_from_json({})


# ---------------------------------------------------------------------------
# Randomized surgery fuzz


def _feasible_moves(graph, deltas):
    moves = []
    for vertex in graph.vertices:
        for delta in deltas:
            ok, _ = can_blow_up(graph, vertex.id, delta)
            if ok:
                moves.append((vertex.id, delta))
    return moves


def _expected_areas_after(graph, blown, vertex_id, delta, expected):
    updated = {}
    new_ids = {v.id for v in blown.vertices} - {v.id for v in graph.vertices}
    for edge in blown.edges:
        north, south, k = edge
        if edge in expected:
            updated[edge] = expected[edge]
            continue
        if north in new_ids and south in new_ids:
            updated[edge] = delta
            continue
        # A reattached edge keeps its weight and other endpoint; the new
        # endpoint sits delta closer, so the proper transform loses delta.
        old_key = next(
            key
            for key in expected
            if key[2] == k
            and (
                (key[0] == vertex_id and key[1] in (north, south))
                or (key[1] == vertex_id and key[0] in (north, south))
            )
        )
        updated[edge] = expected[old_key] - delta
    return updated


def test_blow_up_fuzz_preserves_edge_area_bookkeeping():
    rng = random.Random(61)
    deltas = [Q(1, 4), Q(1, 8), Q(1, 16), Q(1, 32)]
    seeds = [
        ruled_base_graph(1, 0, Q(3), False),
        ruled_base_graph(0, 1, Q(5, 2), True),
        ruled_base_graph(2, 2, Q(7, 2), False),
        graph_from_polygon(delzant_triangle(Q(3)), (1, 0)),
        graph_from_polygon(hirzebruch(Q(3), Q(2), 2), (1, 0)),
        graph_from_polygon(hirzebruch(Q(10, 3), Q(1), 5), (1, 0)),
    ]
    steps = 0
    for seed in seeds:
        graph = seed
        expected = {edge: edge_area(graph, edge) for edge in graph.edges}
        for _ in range(50):
            moves = _feasible_moves(graph, deltas)
            if not moves:
                break
            vertex_id, delta = moves[rng.randrange(len(moves))]
            blown = blow_up(graph, vertex_id, delta)
            assert_valid(blown)
            expected = _expected_areas_after(
                graph, blown, vertex_id, delta, expected
            )
            for edge in blown.edges:
                assert edge_area(blown, edge) == expected[edge]
                assert expected[edge] > 0
            graph = blown
            steps += 1
    assert steps >= 200
