"""Decorated circle-action graphs: validity, surgeries, canonical forms."""

import os
import random
import subprocess
from math import gcd
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import torus_census
from dh_oracle import dh_problems
from key_oracle import least_serialization, searched_serialization, vertex_keys
from polygon_corpus import build_chopped_corpus, build_corpus, random_unimodular_image
from torus_census import circle_graph
from torus_census.census import ManifoldSpec, run_census
from torus_census.circle_graph import (
    FixedComponent,
    S1Graph,
    _key,
    _serialize,
    blow_up,
    can_blow_up,
    canonical_form,
    canonical_serialization,
    edge_area,
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
    delzant_triangle,
    edges,
    hirzebruch,
    invariants,
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


MIN_POINT = isolated(0, Q(0), (1, 1))

# One hand-built graph per diagnostic of `validate`, with the exact
# diagnostics tuple it must give, in order.
DIAGNOSTIC_CASES = {
    "no-components": (S1Graph(()), ("graph has no fixed components",)),
    "duplicate-ids": (
        S1Graph((MIN_POINT, isolated(0, Q(1), (-1, -1)))),
        ("vertex ids must be distinct",),
    ),
    "two-minima": (
        S1Graph((MIN_POINT, isolated(1, Q(0), (1, 1)), isolated(2, Q(1), (-1, -1)))),
        ("min moment attained by 2 components",),
    ),
    "two-maxima": (
        S1Graph((MIN_POINT, isolated(1, Q(1), (-1, -1)), isolated(2, Q(1), (-1, -1)))),
        ("max moment attained by 2 components",),
    ),
    "edge-to-missing-vertex": (
        S1Graph((MIN_POINT, isolated(1, Q(1), (-1, -1))), ((5, 0, 2),)),
        ("edge (5, 0, 2) references a missing vertex",),
    ),
    "edge-isotropy-below-two": (
        S1Graph((MIN_POINT, isolated(1, Q(1), (-1, -1))), ((1, 0, 1),)),
        ("edge (1, 0, 1) needs integer isotropy k >= 2",),
    ),
    "edge-not-increasing": (
        S1Graph(
            (
                MIN_POINT,
                isolated(1, Q(1), (2, -1)),
                isolated(2, Q(1), (1, -2)),
                isolated(3, Q(2), (-1, -1)),
            ),
            ((2, 1, 2),),
        ),
        ("edge (2, 1, 2) must increase moment from south to north",),
    ),
    "three-surfaces": (
        S1Graph(
            (
                surface(0, Q(0), 0, Q(1)),
                surface(1, Q(0), 0, Q(1)),
                surface(2, Q(1), 0, Q(1)),
            )
        ),
        ("min moment attained by 2 components", "at most two fixed surfaces are allowed"),
    ),
    "neither-weights-nor-surface": (
        S1Graph((MIN_POINT, FixedComponent(1, Q(1)))),
        ("vertex 1: needs either weights or surface data",),
    ),
    "three-edges": (
        S1Graph(
            (isolated(0, Q(0), (3, 2)), isolated(1, Q(6), (-3, -2))),
            ((1, 0, 3), (1, 0, 2), (1, 0, 5)),
        ),
        (
            "vertex 0: reached by more than two edges",
            "vertex 0: no weight slot for pole weight 5",
            "vertex 1: reached by more than two edges",
            "vertex 1: no weight slot for pole weight -5",
        ),
    ),
    "negative-genus": (
        S1Graph((surface(0, Q(0), -1, Q(1)), isolated(1, Q(1), (-1, -1)))),
        ("vertex 0: genus must be nonnegative",),
    ),
    "zero-area": (
        S1Graph((surface(0, Q(0), 0, Q(0)), isolated(1, Q(1), (-1, -1)))),
        ("vertex 0: surface area must be positive",),
    ),
    "interior-surface": (
        S1Graph((MIN_POINT, surface(1, Q(1), 0, Q(1)), isolated(2, Q(2), (-1, -1)))),
        ("vertex 1: fixed surfaces occur only at extrema",),
    ),
    "surface-with-edge": (
        S1Graph(
            (surface(0, Q(0), 0, Q(1)), isolated(1, Q(2), (-1, -2))), ((1, 0, 2),)
        ),
        ("vertex 0: fixed surfaces carry no edges",),
    ),
    "zero-weight": (
        S1Graph((MIN_POINT, isolated(1, Q(1), (0, -1)), isolated(2, Q(2), (-1, -1)))),
        ("vertex 1: isotropy weights must be nonzero",),
    ),
    "weights-not-coprime": (
        S1Graph((isolated(0, Q(0), (2, 4)), isolated(1, Q(1), (-1, -1)))),
        (
            "vertex 0: weights (4, 2) are not coprime",
            "vertex 0: weight 4 has no matching Z_k edge",
            "vertex 0: weight 2 has no matching Z_k edge",
        ),
    ),
    "minimum-signs": (
        S1Graph((isolated(0, Q(0), (1, -1)), isolated(1, Q(1), (-1, -1)))),
        ("vertex 0: minimum needs both weights positive",),
    ),
    "maximum-signs": (
        S1Graph((MIN_POINT, isolated(1, Q(1), (1, -1)))),
        ("vertex 1: maximum needs both weights negative",),
    ),
    "interior-signs": (
        S1Graph((MIN_POINT, isolated(1, Q(1), (1, 1)), isolated(2, Q(2), (-1, -1)))),
        ("vertex 1: interior point needs weights of both signs",),
    ),
    "no-slot-for-pole-weight": (
        S1Graph((MIN_POINT, isolated(1, Q(1), (-1, -2))), ((1, 0, 2),)),
        ("vertex 0: no weight slot for pole weight 2",),
    ),
    "weight-without-edge": (
        S1Graph((isolated(0, Q(0), (1, 3)), isolated(1, Q(1), (-1, -1)))),
        ("vertex 0: weight 3 has no matching Z_k edge",),
    ),
    # A moment map with one value is constant: no circle acts.
    "lone-surface": (S1Graph((surface(0, Q(0), 1, Q(2)),)), ("min moment equals max moment",)),
    "lone-point": (S1Graph((MIN_POINT,)), ("min moment equals max moment",)),
}


@pytest.mark.parametrize("case", sorted(DIAGNOSTIC_CASES))
def test_validate_reports_exact_diagnostics(case):
    graph, expected = DIAGNOSTIC_CASES[case]
    assert validate(graph) == (False, expected)


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
            base = canonical_serialization(graph_from_polygon(polygon, xi))
            for _ in range(5):
                image, gmap = random_unimodular_image(rng, polygon)
                (p, q), (r, s) = gmap.matrix
                det = p * s - q * r
                transported = (
                    det * (s * xi[0] - r * xi[1]),
                    det * (-q * xi[0] + p * xi[1]),
                )
                assert canonical_serialization(graph_from_polygon(image, transported)) == base


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


@pytest.mark.parametrize(
    "genus, degree, mu, message",
    [
        (-1, 0, Q(2), "genus must be a nonnegative integer"),
        (0, -2, Q(2), "degree must be a nonnegative integer"),
        (0, 0, Q(0), "section area must be positive"),
        (1, 0, Q(-1), "section area must be positive"),
    ],
)
def test_ruled_base_graph_refuses_bad_parameters(genus, degree, mu, message):
    with pytest.raises(PreconditionError) as excinfo:
        ruled_base_graph(genus, degree, mu, False)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("data", [{"area": "1"}, {"genus": 0}, {}, "sphere"])
def test_graph_json_surface_needs_genus_and_area(data):
    payload = {"vertices": [{"id": 0, "moment": "0", "surface": data}], "edges": []}
    with pytest.raises(FormatError) as excinfo:
        graph_from_json(payload)
    assert str(excinfo.value) == "surface data needs genus and area"


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


def _blowups(graph, delta):
    """Every feasible blow-up of one capacity, as `blow_up` builds it, in
    key order: the first per key at the canonical parent's vertex ids, as a
    census stage keys them."""
    parent = canonical_form(graph)
    stage = {}
    for vertex in parent.vertices:
        if can_blow_up(parent, vertex.id, delta)[0]:
            blown = blow_up(parent, vertex.id, delta)
            stage.setdefault(canonical_serialization(blown), blown)
    return [stage[key] for key in sorted(stage)]


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
        stage = [g for parent in stage for g in _blowups(parent, delta)]
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


def _graphs_as_built():
    """Every edge-normal projection of the chopped corpus, and every
    feasible blow-up of the small frontiers at 1/9, 1/4 and a seeded draw."""
    rng = random.Random(72)
    projections = [
        graph_from_polygon(polygon, edge.normal)
        for polygon in build_chopped_corpus()
        for edge in edges(polygon)
    ]
    blow_ups = []
    for graph in _small_frontiers():
        for vertex in graph.vertices:
            drawn = Q(rng.randrange(1, 25), rng.randrange(1, 13))
            for delta in (Q(1, 9), Q(1, 4), drawn):
                if can_blow_up(graph, vertex.id, delta)[0]:
                    blow_ups.append(blow_up(graph, vertex.id, delta))
    return projections, blow_ups


def test_blow_ups_and_projections_are_valid_as_built():
    # blow_up and graph_from_polygon do not validate what they return, and a
    # canonical form inherits its source's verdict: the census validates
    # each new graph once.  This test backs those construction checks.
    # Each graph is checked as built, before canonicalisation renumbers its
    # ids (which would hide a duplicate id), and its canonical form is
    # rebuilt from its tuples so that no cached verdict counts.
    projections, blow_ups = _graphs_as_built()
    assert len(projections) == 1284
    assert len(blow_ups) > 2500
    for graph in projections + blow_ups:
        assert_valid(S1Graph(graph.vertices, graph.edges))
        form = canonical_form(graph)
        assert_valid(S1Graph(form.vertices, form.edges))


def assert_normalised(graph):
    for built in graph.vertices:
        public = FixedComponent(
            built.id, built.moment, built.weights, built.genus, built.area
        )
        assert built == public
        assert (type(built.moment), type(built.area)) == (
            type(public.moment),
            type(public.area),
        )


def test_built_components_are_as_the_public_constructor_makes_them():
    # blow_up, canonical_form, graph_from_polygon, ruled_base_graph, the
    # census's integer-scaled `_ruled_base` and the census's unscaling fill
    # components in without FixedComponent's normalisation (exact moment and
    # area, weights in descending order).  Each component they build must
    # equal its normalised copy.  Seeded directions other than edge normals
    # give extremal points with two weights of magnitude >= 2, where a
    # blow-up's new pairs change order.
    projections, blow_ups = _graphs_as_built()
    rng = random.Random(74)
    for polygon in build_chopped_corpus():
        xi = (0, 0)
        while gcd(*xi) != 1:
            xi = (rng.randrange(-5, 6), rng.randrange(-5, 6))
        projected = graph_from_polygon(polygon, xi)
        projections.append(projected)
        delta = Q(1, rng.randrange(20, 60))
        for vertex in projected.vertices:
            if can_blow_up(projected, vertex.id, delta)[0]:
                blow_ups.append(blow_up(projected, vertex.id, delta))
    # Scaled to fiber 2, as the census scales it, mu = 7/2 leaves a bottom
    # section of area 7 less the degree rounded down to even.
    bases = [
        graph
        for genus in (0, 2)
        for degree in range(4)
        for graph in (
            ruled_base_graph(genus, degree, Q(7, 2), degree % 2 == 1),
            circle_graph._graph(circle_graph._ruled_base(genus, degree, 7 - degree + degree % 2, 2)),
        )
    ]
    built = projections + blow_ups + bases
    built += [canonical_form(graph) for graph in built]
    for spec in (
        ManifoldSpec("cp2", 0, Q(1), Q(1), (Q(2, 5),) * 4),
        ManifoldSpec("product_ruled", 0, Q(1), Q(1), (Q(2, 3), Q(1, 3))),
        ManifoldSpec("product_ruled", 1, Q(3), Q(1), (Q(1, 2), Q(1, 3), Q(1, 5))),
        ManifoldSpec("twisted_ruled", 3, Q(3, 2), Q(1), (Q(1, 3), Q(1, 4))),
    ):
        built += run_census(spec).maximal_circles
    assert len(built) > 8000
    for graph in built:
        assert_normalised(graph)


def test_invalid_graph_stays_invalid():
    graph = S1Graph(
        (
            isolated(0, Q(0), (1, 1)),
            isolated(1, Q(0), (1, 1)),
            isolated(2, Q(1), (-1, -1)),
        )
    )
    first = validate(graph)
    assert first == (False, ("min moment attained by 2 components",))
    # Every public function that takes a graph refuses it with the first
    # diagnostic, however often it is asked.
    calls = (
        lambda: can_blow_up(graph, 2, Q(1, 4)),
        lambda: blow_up(graph, 2, Q(1, 4)),
        lambda: canonical_serialization(graph),
        lambda: canonical_form(graph),
        lambda: extends_to_toric(graph),
    )
    for _ in range(3):
        assert validate(graph) == first
        for call in calls:
            with pytest.raises(PreconditionError) as excinfo:
                call()
            assert str(excinfo.value) == "graph invalid: min moment attained by 2 components"


INVALID_GRAPH_TO_CANONICALISE = """
from torus_census.circle_graph import S1Graph, canonical_form, isolated
from torus_census.errors import PreconditionError
# Two components attain the minimum moment.
graph = S1Graph((isolated(0, 0, (1, 1)), isolated(1, 0, (1, 1)), isolated(2, 1, (-1, -1))))
try:
    canonical_form(graph)
except PreconditionError:
    print(__debug__, "refused")
else:
    print(__debug__, "accepted")
"""


def test_validation_survives_optimize():
    # The public canonical_form validates the graph it is given.
    src = str(Path(torus_census.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", INVALID_GRAPH_TO_CANONICALISE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "refused"]


def test_can_blow_up_rejects_unknown_vertex():
    graph = graph_from_polygon(SQUARE, (0, 1))
    with pytest.raises(PreconditionError):
        can_blow_up(graph, 99, Q(1, 4))


def test_can_blow_up_rejects_nonpositive_delta():
    graph = graph_from_polygon(SQUARE, (0, 1))
    ok, reason = can_blow_up(graph, graph.vertices[0].id, Q(0))
    assert not ok
    assert "positive" in reason


# A minimum of weights (3, 2) with a (1, -1) point 3/2 above it.  It passes
# `validate` though it belongs to no manifold: it fails the DH check.
WIDE_MINIMUM_NEAR_POINT = S1Graph(
    (
        isolated(0, 0, (3, 2)),
        isolated(1, Q(3, 2), (1, -1)),
        isolated(2, 10, (-1, -3)),
        isolated(3, 5, (1, -2)),
    ),
    ((2, 0, 3), (3, 0, 2)),
)


def test_extremal_blow_up_keeps_the_new_extremum_alone():
    # The new minimum lands min(3, 2) delta = 2 delta above the old one, so
    # the point at 3/2 must lie more than 2 delta away: delta 1 and 3/4 are
    # refused, delta 1/2 is admitted and gives a valid graph.
    graph = WIDE_MINIMUM_NEAR_POINT
    assert validate(graph) == (True, ())
    assert dh_problems(graph, Q(0), 4)
    for delta in (Q(1), Q(3, 4)):
        assert can_blow_up(graph, 0, delta) == (
            False,
            "extremal blow-up needs moment distance to vertex 1 to exceed 2 delta",
        )
    assert can_blow_up(graph, 0, Q(1, 2)) == (True, "")
    assert_valid(blow_up(graph, 0, Q(1, 2)))


def _wide_extremum(graph, vertex):
    """min(|m|, |n|) of an extremal point, else None."""
    extremal = vertex.moment in (graph.min_moment, graph.max_moment)
    return min(map(abs, vertex.weights)) if extremal and not vertex.is_surface else None


def test_every_admitted_site_gives_a_graph_that_passes_the_dh_check():
    # Projections of the chopped corpus along every edge normal and three
    # seeded primitive directions that are not, which give extremal points
    # with both weights of magnitude >= 2.  Every site can_blow_up admits,
    # at two seeded capacities, gives a graph that passes `validate` and the
    # DH check of the blown-up manifold: volume less delta^2 / 2 and one
    # more fixed point.  Then a (1, -1) point is put in the slab an extremal
    # blow-up sweeps, or just past it: only the first is refused.
    rng = random.Random(75)
    admitted = wide = slabs = 0
    for polygon in build_chopped_corpus():
        volume, euler = invariants(polygon).euclidean_area, polygon.edge_count
        normals = [edge.normal for edge in edges(polygon)]
        directions = list(normals)
        while len(directions) < len(normals) + 3:
            xi = (rng.randrange(-5, 6), rng.randrange(-5, 6))
            if gcd(*xi) == 1 and xi not in normals:
                directions.append(xi)
        for xi in directions:
            graph = graph_from_polygon(polygon, xi)
            assert dh_problems(graph, volume, euler) == []
            for vertex in graph.vertices:
                reach = _wide_extremum(graph, vertex)
                for delta in (
                    Q(1, rng.randrange(2, 40)),
                    Q(rng.randrange(1, 9), rng.randrange(2, 13)),
                ):
                    if not can_blow_up(graph, vertex.id, delta)[0]:
                        continue
                    blown = blow_up(graph, vertex.id, delta)
                    assert_valid(blown)
                    assert dh_problems(blown, volume - delta * delta / 2, euler + 1) == []
                    admitted += 1
                    if reach is None or reach < 2:
                        continue
                    wide += 1
                    inward = 1 if vertex.moment == graph.min_moment else -1
                    for offset, feasible in ((Q(1, 2), False), (1, False), (Q(9, 8), True)):
                        moment = vertex.moment + inward * offset * reach * delta
                        crowded = S1Graph(
                            graph.vertices + (isolated(-1, moment, (1, -1)),), graph.edges
                        )
                        if validate(crowded)[0]:
                            slabs += 1
                            ok, reason = can_blow_up(crowded, vertex.id, delta)
                            assert ok == feasible, reason
                            if feasible:
                                assert_valid(blow_up(crowded, vertex.id, delta))
                            else:
                                assert reason == (
                                    "extremal blow-up needs moment distance to vertex -1"
                                    f" to exceed {reach} delta"
                                )
    assert admitted > 10000
    assert wide > 1000
    assert slabs > 1000


def test_each_refusal_keeps_its_exact_message():
    # One site per reason code of circle_graph._feasible; can_blow_up and
    # blow_up word each refusal exactly so.
    sections = ruled_base_graph(1, 0, Q(5, 2), False)
    points = S1Graph(
        (
            isolated(0, 0, (2, 1)),
            isolated(1, 3, (1, -2)),
            isolated(2, 5, (-1, -1)),
            isolated(3, 1, (1, -1)),
        ),
        ((1, 0, 2),),
    )
    assert validate(points) == (True, ())
    refusals = [
        (sections, 0, Q(0), "capacity must be positive"),
        (sections, 0, Q(5, 2), "fixed surface area 5/2 must exceed delta"),
        (sections, 1, Q(2), "moment span 1 must exceed delta"),
        (points, 0, Q(3, 2), "Z_2 sphere area 3/2 must exceed delta"),
        (points, 3, Q(1), "interior blow-up needs min < mu - delta and mu + delta < max"),
        (points, 2, Q(2), "extremal blow-up needs moment distance to vertex 1 to exceed delta"),
        (
            WIDE_MINIMUM_NEAR_POINT,
            0,
            Q(1),
            "extremal blow-up needs moment distance to vertex 1 to exceed 2 delta",
        ),
    ]
    for graph, vertex_id, delta, message in refusals:
        assert can_blow_up(graph, vertex_id, delta) == (False, message)
        with pytest.raises(PreconditionError) as excinfo:
            blow_up(graph, vertex_id, delta)
        assert str(excinfo.value) == f"blow-up infeasible: {message}"


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


def _extends_by_component_scan(graph):
    """extends_to_toric's rule, looking up each edge's end components at
    every sampled level."""
    if all(not v.is_surface for v in graph.vertices):
        return True
    if any(v.is_surface and v.genus > 0 for v in graph.vertices):
        return False
    lo, hi = graph.min_moment, graph.max_moment
    critical = sorted({v.moment for v in graph.vertices if lo < v.moment < hi})
    cuts = sorted({lo, hi, *critical})
    levels = critical + [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    for level in levels:
        points = sum(1 for v in graph.vertices if not v.is_surface and v.moment == level)
        crossing = sum(
            1
            for north, south, _ in graph.edges
            if graph.component(south).moment < level < graph.component(north).moment
        )
        if points + crossing > 2:
            return False
    return True


def test_extends_to_toric_matches_a_per_level_component_scan():
    graphs = _small_frontiers() + [_three_chain_graph(k) for k in range(4)]
    verdicts = [extends_to_toric(graph) for graph in graphs]
    assert verdicts == [_extends_by_component_scan(graph) for graph in graphs]
    assert True in verdicts and False in verdicts


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


def _edgeless_crowd_graph(pairs=1):
    """Surfaces at 0 and 10, five (1,-1) points at 1, and Z_2-linked pairs.

    The five points have equal keys and no edges, so any labelling of
    them gives one serialization."""
    vertices = [surface(0, Q(0), 0, Q(1)), surface(1, Q(10), 0, Q(1))]
    vertices += [isolated(2 + i, Q(1), (1, -1)) for i in range(5)]
    links = []
    for i in range(pairs):
        south, north = 7 + 2 * i, 8 + 2 * i
        vertices += [isolated(south, Q(3), (2, -1)), isolated(north, Q(5), (1, -2))]
        links.append((north, south, 2))
    return S1Graph(tuple(vertices), tuple(links))


def _relabelled(graph, relabel):
    vertices = []
    for v in graph.vertices:
        if v.is_surface:
            vertices.append(surface(relabel[v.id], v.moment, v.genus, v.area))
        else:
            vertices.append(isolated(relabel[v.id], v.moment, v.weights))
    links = tuple((relabel[n], relabel[s], k) for n, s, k in graph.edges)
    return S1Graph(tuple(reversed(vertices)), links)


def test_interchangeable_edgeless_vertices_canonicalise():
    graph = _edgeless_crowd_graph()
    assert_valid(graph)
    rng = random.Random(61)
    base = canonical_form(graph)
    assert_valid(base)
    for _ in range(20):
        ids = [v.id for v in graph.vertices]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        copy = _relabelled(graph, dict(zip(ids, shuffled)))
        assert canonical_form(copy) == base


def _coprime_ks(rng, length):
    ks = [rng.choice((2, 3, 4, 5, 7))]
    while len(ks) < length:
        k = rng.choice((2, 3, 4, 5, 7, 9))
        if gcd(k, ks[-1]) == 1:
            ks.append(k)
    return ks


def _tied_graph(rng):
    """A valid graph full of like vertices with edges.

    Fixed surfaces at 0 and 24, or the double-edge extremes (an isolated
    minimum (3, 2) at 0 and maximum (-2, -3) at 6 joined by Z_3 and Z_2
    edges); interior Z_k chains of weights (k_1, -1), (k_2, -k_1), ...,
    (1, -k_L), each repeated up to three times, some beside a chain that
    shares a prefix and then differs or a copy whose first and last
    moments move, so like vertices inside differ at both ends; and (1, -1)
    points with no edge."""
    double = rng.random() < 0.2
    top = 6 if double else 24
    if double:
        vertices = [isolated(0, Q(0), (3, 2)), isolated(1, Q(6), (-2, -3))]
        links = [(1, 0, 3), (1, 0, 2)]
    else:
        vertices = [
            surface(0, Q(0), rng.randrange(3), Q(rng.randrange(1, 5))),
            surface(1, Q(top), rng.randrange(3), Q(rng.randrange(1, 5))),
        ]
        links = []

    def add_chain(ks, moments):
        start = len(vertices)
        for i, moment in enumerate(moments):
            low = -1 if i == 0 else -ks[i - 1]
            high = 1 if i == len(ks) else ks[i]
            vertices.append(isolated(start + i, Q(moment), (high, low)))
        links.extend((start + i + 1, start + i, k) for i, k in enumerate(ks))

    for _ in range(rng.randrange(1, 4)):
        length = rng.randrange(1, 4 if double else 6)
        ks = _coprime_ks(rng, length)
        moments = sorted(rng.sample(range(1, top), length + 1))
        for _ in range(rng.randrange(1, 4)):
            add_chain(ks, moments)
        cut = rng.randrange(1, length + 1)
        if cut < length and moments[cut] + length - cut < top:
            tail = _coprime_ks(rng, length - cut + 1)[1:]
            if gcd(ks[cut - 1], tail[0]) == 1:
                later = sorted(rng.sample(range(moments[cut] + 1, top), length - cut))
                add_chain(ks[:cut] + tail, moments[: cut + 1] + later)
        if rng.random() < 0.5:
            first = rng.randrange(1, moments[1])
            last = rng.randrange(max(first, moments[-2]) + 1, top)
            add_chain(ks, [first, *moments[1:-1], last])
    for _ in range(rng.randrange(3)):
        vertices.append(isolated(len(vertices), Q(rng.choice((1, top - 1))), (1, -1)))
    return S1Graph(tuple(vertices), tuple(links))


def _moved(graph, rng):
    """A random relabelling and reordering, translation and (half the
    time) reflection."""
    ids = [v.id for v in graph.vertices]
    relabel = dict(zip(ids, rng.sample(ids, len(ids))))
    shift = Q(rng.randrange(-40, 40), rng.randrange(1, 7))
    image = _translate(_relabelled(graph, relabel), shift)
    image = S1Graph(tuple(rng.sample(image.vertices, len(ids))), image.edges)
    return _flip(image) if rng.random() < 0.5 else image


def _chain_pair_graph(ks, moments, other_moments):
    """Surfaces at 0 and 24 and two Z_k chains of weights (k_1, -1), ...,
    (1, -k_L), one at each list of moments."""
    vertices = [surface(0, Q(0), 0, Q(1)), surface(1, Q(24), 0, Q(2))]
    links = []
    for chain in (moments, other_moments):
        start = len(vertices)
        for i, moment in enumerate(chain):
            low = -1 if i == 0 else -ks[i - 1]
            high = 1 if i == len(ks) else ks[i]
            vertices.append(isolated(start + i, Q(moment), (high, low)))
        links.extend((start + i + 1, start + i, k) for i, k in enumerate(ks))
    return S1Graph(tuple(vertices), tuple(links))


# Like vertices whose chains differ at both ends.  In the first, the tied
# vertices at 4 have a Z_3 edge toward later vertices and a Z_5 edge toward
# earlier ones; in the second, the tied vertices at 5 differ two steps
# back and one step forward.  The least links follow the earlier ends.
_BOTH_ENDS_DIFFER = (
    _chain_pair_graph((2, 5, 3, 2), (1, 3, 4, 5, 7), (2, 3, 4, 5, 6)),
    _chain_pair_graph((2, 3, 2, 3, 2), (1, 3, 4, 5, 6, 8), (2, 3, 4, 5, 6, 7)),
)


def test_tie_breaking_matches_the_permutation_search():
    rng = random.Random(67)
    compared = tied = 0
    for graph in [*_BOTH_ENDS_DIFFER, *(_tied_graph(rng) for _ in range(250))]:
        assert_valid(graph)
        for flip in (False, True):
            keys = vertex_keys(graph, flip)
            searched = searched_serialization(graph, flip, keys)
            if searched is None:
                continue
            assert repr(_serialize(circle_graph._checked(graph), flip)) == repr(searched)
            compared += 1
            tied += searched_serialization(graph, flip, keys, budget=1) is None
    assert compared > 250
    assert tied > 200


def test_tie_breaking_is_invariant_under_relabelling_and_motion():
    rng = random.Random(71)
    for graph in [_tied_graph(rng) for _ in range(200)]:
        base = repr(canonical_serialization(graph))
        for _ in range(4):
            assert repr(canonical_serialization(_moved(graph, rng))) == base


def test_many_like_linked_pairs_canonicalise():
    # Eight like Z_2-linked pairs: a search would try 8!^2 orderings.
    rng = random.Random(73)
    for pairs in (5, 8):
        graph = _edgeless_crowd_graph(pairs)
        form = canonical_form(graph)
        assert_valid(form)
        assert len(form.edges) == pairs
        for _ in range(10):
            assert canonical_form(_moved(graph, rng)) == form


def _second_lowest(graph):
    return sorted(graph.vertices, key=lambda v: v.moment)[1].id


def _like_extrema_graphs():
    """Valid graphs whose minimum and maximum have the same key but whose
    reflections have different sorted keys: a rectangle projected along
    (1, 1), or a degree-0 ruled base with both sections blown up alike,
    with its lowest interior point blown up."""
    graphs = []
    for width, height in ((2, 1), (3, 1), (3, 2)):
        rectangle = RationalPolygon(((0, 0), (width, 0), (width, height), (0, height)))
        projected = graph_from_polygon(rectangle, (1, 1))
        for delta in (Q(1, 4), Q(1, 3)):
            graphs.append(blow_up(projected, _second_lowest(projected), delta))
    for genus in (0, 2):
        base = ruled_base_graph(genus, 0, Q(3, 2), False)
        sections = blow_up(blow_up(base, 0, Q(1, 3)), 1, Q(1, 3))
        graphs.append(blow_up(sections, _second_lowest(sections), Q(1, 5)))
    return graphs


def _counted(monkeypatch, *names):
    """Calls of each named `circle_graph` function, counted as they happen."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(circle_graph, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(circle_graph, name, counted)
    return calls


def test_serialization_shortcut_matches_both_reflections(monkeypatch):
    # _key serializes one reflection alone where the keys of the minimum
    # and the maximum differ, and _serialize orders by key alone where no
    # two keys tie; the oracle searches both reflections in full.  A
    # degree-0 ruled base graph is its own reflection.
    projections, blow_ups = _graphs_as_built()
    like_extrema = _like_extrema_graphs()
    graphs = projections + blow_ups + like_extrema + [ruled_base_graph(2, 0, Q(1), False)]
    calls = _counted(monkeypatch, "_serialize", "_refined")
    branches = {"extrema differ": 0, "keys differ": 0, "keys equal": 0}
    for graph in graphs:
        plain, mirror = (sorted(vertex_keys(graph, flip).values()) for flip in (False, True))
        if plain[0] != mirror[0]:
            branches["extrema differ"] += 1
        else:
            branches["keys differ" if plain != mirror else "keys equal"] += 1
        assert _key(circle_graph._checked(graph)) == least_serialization(graph)
    assert len(graphs) > 4000
    assert branches["extrema differ"] > 3000
    assert branches["keys differ"] > len(like_extrema)
    assert branches["keys equal"] > 40
    # Graphs with equal extremal keys are serialized in both reflections.
    both = branches["keys differ"] + branches["keys equal"]
    assert calls["_serialize"] == len(graphs) + both
    assert calls["_refined"] > 0
    assert calls["_serialize"] - calls["_refined"] > 3000


def test_edgeless_ties_and_like_extrema_match_the_search(monkeypatch):
    # Blowing the bottom section of a degree-0 ruled base up twice alike
    # leaves two (1, -1) points at one level, the only tied vertices, with
    # no edges; blowing both sections up alike gives the minimum and the
    # maximum equal keys, so both reflections are serialized.
    base = ruled_base_graph(0, 0, Q(3, 2), False)
    edgeless = blow_up(blow_up(base, 0, Q(1, 4)), 0, Q(1, 4))
    like = blow_up(blow_up(base, 0, Q(1, 3)), 1, Q(1, 3))
    calls = _counted(monkeypatch, "_serialize", "_refined")
    rng = random.Random(79)
    for graph, serialized, refined in ((edgeless, 1, 1), (like, 2, 0)):
        assert_valid(graph)
        key = least_serialization(graph)
        for _ in range(5):
            calls.update(_serialize=0, _refined=0)
            assert canonical_serialization(graph) == key
            assert calls == {"_serialize": serialized, "_refined": refined}
            graph = _moved(graph, rng)
    assert [v.moment for v in edgeless.vertices].count(Q(1, 4)) == 2
    plain, mirror = (vertex_keys(like, flip) for flip in (False, True))
    assert min(plain.values()) == min(mirror.values())


def test_opposite_projections_are_equivalent():
    trapezoid = hirzebruch(Q(2), Q(1), 2)
    assert canonical_serialization(
        graph_from_polygon(trapezoid, (1, 0))
    ) == canonical_serialization(graph_from_polygon(trapezoid, (-1, 0)))


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
    assert len(_blowups(graph, Q(1, 2))) == 1


def test_enumerate_blowups_distinguishes_unequal_surfaces():
    graph = ruled_base_graph(2, 2, Q(5, 2), False)
    assert len(_blowups(graph, Q(1, 2))) == 2


def test_enumerate_blowups_empty_when_infeasible():
    graph = graph_from_polygon(SQUARE, (0, 1))
    assert _blowups(graph, Q(5)) == []


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
