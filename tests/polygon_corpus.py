"""A fixed corpus of Delzant polygons for bookkeeping and canonical tests."""

from fractions import Fraction as Q

from torus_census.errors import CapacityError
from torus_census.polygon import (
    RationalPolygon,
    UnimodularAffineMap,
    blow_up,
    delzant_triangle,
    hirzebruch,
)


def build_corpus() -> list[RationalPolygon]:
    polygons = [
        delzant_triangle(Q(1)),
        delzant_triangle(Q(2)),
        delzant_triangle(Q(7, 3)),
        delzant_triangle(Q(1, 2)),
        hirzebruch(Q(1), Q(1), 0),
        hirzebruch(Q(2), Q(1), 0),
        hirzebruch(Q(2), Q(1), 2),
        hirzebruch(Q(5, 2), Q(1), 1),
        hirzebruch(Q(5, 2), Q(1), 3),
        hirzebruch(Q(3), Q(1), 4),
        hirzebruch(Q(2), Q(2), 1),
        hirzebruch(Q(3), Q(2), 2),
        hirzebruch(Q(10, 3), Q(1), 0),
        hirzebruch(Q(10, 3), Q(1), 5),
    ]
    chopped = [
        blow_up(delzant_triangle(Q(1)), 0, Q(1, 4)),
        blow_up(delzant_triangle(Q(1)), 1, Q(1, 3)),
        blow_up(blow_up(delzant_triangle(Q(1)), 0, Q(1, 3)), 2, Q(1, 3)),
        blow_up(hirzebruch(Q(1), Q(1), 0), 0, Q(1, 4)),
        blow_up(hirzebruch(Q(2), Q(1), 2), 1, Q(1, 2)),
        blow_up(blow_up(delzant_triangle(Q(1)), 0, Q(1, 4)), 0, Q(1, 8)),
    ]
    hexagon = delzant_triangle(Q(1))
    for corner in ((Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1))):
        hexagon = blow_up(hexagon, hexagon.vertices.index(corner), Q(1, 3))
    polygons.extend(chopped)
    polygons.append(hexagon)
    return polygons


CHOP_CAPACITIES = (Q(1, 8), Q(1, 5), Q(1, 3))


def build_chopped_corpus() -> list[RationalPolygon]:
    """The corpus plus every corner chop of it at three capacities."""
    polygons = build_corpus()
    chops = []
    for polygon in polygons:
        for vertex in range(polygon.edge_count):
            for delta in CHOP_CAPACITIES:
                try:
                    chops.append(blow_up(polygon, vertex, delta))
                except CapacityError:
                    continue
    return polygons + chops


def random_unimodular_image(rng, polygon):
    """The polygon's image under a random integral affine map, and the map.

    The matrix is a product of one to five shears and swaps; a swap reverses
    orientation, so the image's vertices are listed backwards to stay
    counter-clockwise.
    """
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
    affine = UnimodularAffineMap((tuple(matrix[0]), tuple(matrix[1])), translation)
    points = [affine.apply(v) for v in polygon.vertices]
    (a, b), (c, d) = affine.matrix
    if a * d - b * c < 0:
        points.reverse()
    return RationalPolygon(tuple(points)), affine
