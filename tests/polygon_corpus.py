"""A fixed corpus of Delzant polygons for bookkeeping and canonical tests."""

from fractions import Fraction as Q

from torus_census.errors import CapacityError
from torus_census.polygon import (
    RationalPolygon,
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
