"""Delzant polygons: edges, chops, collapses, canonical forms, models."""

import random
from fractions import Fraction as Q

import pytest

from polygon_corpus import build_chopped_corpus, build_corpus
from torus_census.errors import CapacityError, PreconditionError
from torus_census.polygon import (
    RationalPolygon,
    UnimodularAffineMap,
    blow_down,
    blow_up,
    canonical_form,
    classify_model,
    count_toric_actions_ruled,
    delzant_triangle,
    edges,
    enumerate_equivariant_blowups,
    equivalent,
    hirzebruch,
    intersection_matrix,
    invariants,
    is_delzant,
    polygon_from_json,
    polygon_to_json,
    self_intersection,
)

SQUARE = RationalPolygon(((Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(0), Q(1))))


def test_polygon_requires_convex_ccw():
    with pytest.raises(PreconditionError):
        RationalPolygon(((Q(0), Q(0)), (Q(0), Q(1)), (Q(1), Q(0))))
    with pytest.raises(PreconditionError):
        RationalPolygon(((Q(0), Q(0)), (Q(1), Q(0))))
    with pytest.raises(PreconditionError):
        RationalPolygon(
            ((Q(0), Q(0)), (Q(1), Q(0)), (Q(2), Q(0)), (Q(0), Q(1)))
        )


def test_square_edge_data():
    edge_list = edges(SQUARE)
    assert [e.direction for e in edge_list] == [(1, 0), (0, 1), (-1, 0), (0, -1)]
    assert [e.normal for e in edge_list] == [(0, -1), (1, 0), (0, 1), (-1, 0)]
    assert [e.rational_length for e in edge_list] == [Q(1)] * 4
    assert [self_intersection(SQUARE, i) for i in range(4)] == [0, 0, 0, 0]


def test_non_delzant_corner_is_reported():
    polygon = RationalPolygon(((Q(0), Q(0)), (Q(2), Q(0)), (Q(0), Q(1))))
    ok, diagnostics = is_delzant(polygon)
    assert not ok
    assert diagnostics == ("vertex 2 at (0, 1): edge direction determinant 2",)


def test_delzant_triangle_shape():
    triangle = delzant_triangle(Q(2))
    assert triangle.vertices == ((Q(0), Q(0)), (Q(2), Q(0)), (Q(0), Q(2)))
    assert [e.rational_length for e in edges(triangle)] == [Q(2)] * 3
    assert [self_intersection(triangle, i) for i in range(3)] == [1, 1, 1]


def test_hirzebruch_vertices_and_slant():
    trapezoid = hirzebruch(Q(2), Q(1), 2)
    assert trapezoid.vertices == (
        (Q(0), Q(0)),
        (Q(3), Q(0)),
        (Q(1), Q(1)),
        (Q(0), Q(1)),
    )
    slant = edges(trapezoid)[1]
    assert slant.direction == (-2, 1)
    assert slant.rational_length == Q(1)
    assert [self_intersection(trapezoid, i) for i in range(4)] == [2, 0, -2, 0]


def test_hirzebruch_euclidean_area_is_width_times_height():
    for a, b, m in [(Q(2), Q(1), 0), (Q(2), Q(1), 2), (Q(5, 2), Q(1), 3)]:
        assert invariants(hirzebruch(a, b, m)).euclidean_area == a * b


def test_hirzebruch_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        hirzebruch(Q(1), Q(2), 0)
    with pytest.raises(PreconditionError):
        hirzebruch(Q(2), Q(1), -1)
    with pytest.raises(PreconditionError):
        hirzebruch(Q(2), Q(1), 5)


def test_intersection_matrix_row_sums():
    # Adjunction: every invariant sphere meets the anticanonical divisor in
    # 2 + its self-intersection points, so each row sums to diagonal + 2.
    for polygon in build_corpus():
        matrix = intersection_matrix(polygon)
        for i, row in enumerate(matrix):
            assert sum(row) == row[i] + 2


def test_blow_up_bookkeeping_on_corpus():
    for polygon in build_corpus():
        before = invariants(polygon)
        for vertex in range(polygon.edge_count):
            incident = [
                edges(polygon)[vertex % polygon.edge_count].rational_length,
                edges(polygon)[(vertex - 1) % polygon.edge_count].rational_length,
            ]
            delta = min(incident) / 2
            blown = blow_up(polygon, vertex, delta)
            after = invariants(blown)
            assert after.edge_count == before.edge_count + 1
            assert after.euclidean_area == before.euclidean_area - delta * delta / 2
            assert after.perimeter == before.perimeter - delta
            new_edge = next(
                e for e in edges(blown) if e.rational_length == delta
                and self_intersection(blown, e.index) == -1
            )
            assert new_edge is not None


def test_blow_up_chop_example():
    chopped = blow_up(delzant_triangle(Q(1)), 0, Q(1, 4))
    before, after = invariants(delzant_triangle(Q(1))), invariants(chopped)
    assert after.euclidean_area - before.euclidean_area == Q(-1, 32)
    assert after.perimeter - before.perimeter == Q(-1, 4)
    assert after.edge_count - before.edge_count == 1
    new_edge = edges(chopped)[0]
    assert new_edge.rational_length == Q(1, 4)
    assert self_intersection(chopped, 0) == -1


def test_blow_up_rejects_large_capacity():
    with pytest.raises(CapacityError) as excinfo:
        blow_up(SQUARE, 0, Q(1))
    assert "capacity too large" in str(excinfo.value)


def test_blow_down_round_trip():
    chopped = blow_up(delzant_triangle(Q(1)), 0, Q(1, 4))
    restored = blow_down(chopped, 0)
    assert equivalent(restored, delzant_triangle(Q(1)))


def test_blow_down_round_trip_on_corpus():
    rng = random.Random(41)
    for polygon in build_corpus():
        vertex = rng.randrange(polygon.edge_count)
        incident = [
            edges(polygon)[vertex].rational_length,
            edges(polygon)[(vertex - 1) % polygon.edge_count].rational_length,
        ]
        delta = min(incident) / 3
        blown = blow_up(polygon, vertex, delta)
        exceptional = next(
            e.index
            for e in edges(blown)
            if self_intersection(blown, e.index) == -1
            and e.rational_length == delta
        )
        assert equivalent(blow_down(blown, exceptional), polygon)


def test_blow_down_rejects_non_exceptional_edge():
    with pytest.raises(PreconditionError) as excinfo:
        blow_down(SQUARE, 0)
    assert "edge not exceptional" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Canonical forms


def _random_unimodular_map(rng):
    matrix = [[1, 0], [0, 1]]
    for _ in range(rng.randrange(1, 6)):
        kind = rng.randrange(3)
        if kind == 0:
            s = rng.randrange(-3, 4)
            matrix = [
                [matrix[0][0] + s * matrix[1][0], matrix[0][1] + s * matrix[1][1]],
                matrix[1],
            ]
        elif kind == 1:
            s = rng.randrange(-3, 4)
            matrix = [
                matrix[0],
                [matrix[1][0] + s * matrix[0][0], matrix[1][1] + s * matrix[0][1]],
            ]
        else:
            matrix = [matrix[1], matrix[0]]
    translation = (
        Q(rng.randrange(-8, 9), rng.randrange(1, 4)),
        Q(rng.randrange(-8, 9), rng.randrange(1, 4)),
    )
    return UnimodularAffineMap(
        (tuple(matrix[0]), tuple(matrix[1])), translation
    )


def test_canonical_form_invariant_under_unimodular_maps():
    rng = random.Random(43)
    for polygon in build_corpus():
        base, _ = canonical_form(polygon)
        for _ in range(100):
            image = _random_unimodular_map(rng).apply_polygon(polygon)
            again, _ = canonical_form(image)
            assert again.vertices == base.vertices


def test_canonical_form_idempotent():
    for polygon in build_corpus():
        once, _ = canonical_form(polygon)
        twice, _ = canonical_form(once)
        assert once.vertices == twice.vertices


def test_canonical_form_returns_witness_map():
    # The witness sends the input onto the canonical polygon; the vertex
    # tuple may start at a different corner of the same cycle.
    rng = random.Random(47)
    for polygon in build_corpus()[:6]:
        image = _random_unimodular_map(rng).apply_polygon(polygon)
        canonical, witness = canonical_form(image)
        mapped = witness.apply_polygon(image)
        assert set(mapped.vertices) == set(canonical.vertices)


def _reference_canonical_form(polygon):
    """Least flattened vertex list over all 2N starts, with no pruning."""
    n = polygon.edge_count
    directions = [e.direction for e in edges(polygon)]
    best = None
    for i in range(n):
        outgoing = directions[i]
        backwards = (-directions[i - 1][0], -directions[i - 1][1])
        for first, second, step in ((outgoing, backwards, 1), (backwards, outgoing, -1)):
            det = first[0] * second[1] - first[1] * second[0]
            matrix = (
                (second[1] * det, -second[0] * det),
                (-first[1] * det, first[0] * det),
            )
            ox, oy = polygon.vertices[i]
            seq = []
            for j in range(n):
                x, y = polygon.vertices[(i + step * j) % n]
                x, y = x - ox, y - oy
                seq.append(
                    (matrix[0][0] * x + matrix[0][1] * y, matrix[1][0] * x + matrix[1][1] * y)
                )
            flat = tuple(c for p in seq for c in p)
            if best is None or flat < best[0]:
                translation = (
                    -(matrix[0][0] * ox + matrix[0][1] * oy),
                    -(matrix[1][0] * ox + matrix[1][1] * oy),
                )
                best = (flat, tuple(seq), matrix, translation)
    return best[1], best[2], best[3]


def test_canonical_form_matches_full_search():
    rng = random.Random(67)
    for polygon in build_chopped_corpus():
        for subject in (polygon, _random_unimodular_map(rng).apply_polygon(polygon)):
            canonical, witness = canonical_form(subject)
            vertices, matrix, translation = _reference_canonical_form(subject)
            assert canonical.vertices == vertices
            assert witness.matrix == matrix
            assert witness.translation == translation


def test_equivalent_distinguishes_hirzebruch_parity():
    assert not equivalent(hirzebruch(Q(2), Q(1), 0), hirzebruch(Q(2), Q(1), 2))
    assert equivalent(
        hirzebruch(Q(2), Q(1), 2),
        UnimodularAffineMap(((0, -1), (-1, 0)), (Q(5), Q(7))).apply_polygon(
            hirzebruch(Q(2), Q(1), 2)
        ),
    )


# ---------------------------------------------------------------------------
# Equivariant blow-up enumeration


def test_enumerate_blowups_square():
    # All four corners of the square are equivalent, so one class remains.
    results = enumerate_equivariant_blowups(SQUARE, Q(1, 3))
    assert len(results) == 1


def test_enumerate_blowups_trapezoid():
    # Hirzebruch(2,1,2) has two corner classes at capacity 1/2.
    results = enumerate_equivariant_blowups(hirzebruch(Q(2), Q(1), 2), Q(1, 2))
    assert len(results) == 2


def test_enumerate_blowups_capacity_filter():
    results = enumerate_equivariant_blowups(SQUARE, Q(2))
    assert results == ()


# ---------------------------------------------------------------------------
# Model classification


def test_classify_cp2():
    model = classify_model(delzant_triangle(Q(7, 3)))
    assert model.kind == "cp2"
    assert model.a == Q(7, 3)
    assert model.b is None
    assert model.blowdowns == 0


def test_classify_product_trapezoid():
    model = classify_model(hirzebruch(Q(5, 2), Q(1), 0))
    assert (model.kind, model.a, model.b) == ("product_ruled", Q(5, 2), Q(1))
    assert model.section_area == Q(5, 2)
    assert model.fiber_area == Q(1)


def test_classify_twisted_trapezoid():
    model = classify_model(hirzebruch(Q(5, 2), Q(1), 3))
    assert (model.kind, model.a, model.b) == ("twisted_ruled", Q(5, 2), Q(1))
    assert model.line_area == Q(3)
    assert model.exceptional_area == Q(2)


def test_classify_single_chop():
    chopped = blow_up(SQUARE, 0, Q(1, 4))
    model = classify_model(chopped)
    assert model.kind == "product_ruled"
    assert (model.a, model.b) == (Q(1), Q(1))
    assert model.blowdowns == 1


def test_classify_chopped_triangle_reads_line_and_exceptional_area():
    chopped = blow_up(delzant_triangle(Q(1)), 0, Q(1, 4))
    model = classify_model(chopped)
    assert model.kind == "twisted_ruled"
    assert model.blowdowns == 0
    assert model.line_area == Q(1)
    assert model.exceptional_area == Q(1, 4)


def test_classify_slope_is_irrelevant():
    even = classify_model(hirzebruch(Q(3), Q(1), 0))
    shear = classify_model(hirzebruch(Q(3), Q(1), 4))
    assert (even.kind, even.a, even.b) == (shear.kind, shear.a, shear.b)


def test_classify_round_trips_hirzebruch_grid():
    for a_num in range(1, 7):
        for b_num in range(1, 4):
            a, b = Q(a_num), Q(b_num, 3)
            if a < b:
                continue
            for m in range(0, 6):
                if 2 * a <= m * b:
                    continue
                model = classify_model(hirzebruch(a, b, m))
                expected = "product_ruled" if m % 2 == 0 else "twisted_ruled"
                assert model.kind == expected
                assert (model.a, model.b) == (a, b)
                assert model.blowdowns == 0


def test_classify_two_chop_pentagon_takes_least_reading():
    # Chops of unequal capacity: one blow-down branch ends at a twisted
    # trapezoid, the other at a sphere product. The homology blow-down of
    # (1; 1/4, 1/8) along L - E1 - E2 has factor areas 3/4 and 7/8, which
    # is the lexicographically least reading.
    pentagon = blow_up(blow_up(delzant_triangle(Q(1)), 0, Q(1, 4)), 0, Q(1, 8))
    model = classify_model(pentagon)
    assert model.kind == "product_ruled"
    assert (model.a, model.b) == (Q(7, 8), Q(3, 4))
    assert model.blowdowns == 1


def test_classify_equal_chop_hexagon():
    # Every hexagon edge is a -1 sphere, so branches reach both readings of
    # the one-chop quadrilateral; the sphere-product reading sorts first.
    # Reduction stops at the first quadrilateral, hence two blow-downs.
    hexagon = build_corpus()[-1]
    model = classify_model(hexagon)
    assert model.kind == "product_ruled"
    assert (model.a, model.b) == (Q(2, 3), Q(2, 3))
    assert model.blowdowns == 2


# ---------------------------------------------------------------------------
# Ruled counting


def test_count_examples():
    assert count_toric_actions_ruled(Q(5, 2), Q(1), False) == 3
    assert count_toric_actions_ruled(Q(1), Q(1), True) == 1
    assert count_toric_actions_ruled(Q(2), Q(1), True) == 2


def test_count_matches_direct_enumeration():
    for a_num in range(1, 13):
        for b_num in range(1, 7):
            a, b = Q(a_num, 3), Q(b_num, 4)
            if a < b:
                continue
            for twisted in (False, True):
                start = 1 if twisted else 0
                direct = len(
                    [m for m in range(start, 200, 2) if 2 * a > m * b]
                )
                assert count_toric_actions_ruled(a, b, twisted) == direct


def test_count_requires_positive_sides():
    with pytest.raises(PreconditionError):
        count_toric_actions_ruled(Q(1), Q(2), False)


# ---------------------------------------------------------------------------
# Serialization


def test_polygon_json_round_trip():
    for polygon in build_corpus():
        assert polygon_from_json(polygon_to_json(polygon)) == polygon


def test_polygon_json_format():
    payload = polygon_to_json(SQUARE)
    assert payload == {
        "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
    }
