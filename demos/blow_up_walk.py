#!/usr/bin/env python3
"""Chop corners off a Delzant triangle and account for every quantity.

Each corner chop of capacity delta removes a triangle of euclidean area
delta^2/2, shortens the anticanonical perimeter by delta, and adds one
edge of self-intersection -1 whose sphere has area delta.  The walk
blows up the unit triangle three times, identifies the resulting model
by exhaustive blow-down, and compares against the homology-level chain
of minimal blow-downs.
"""

from fractions import Fraction as Q

from torus_census import (
    Basis,
    SymplecticData,
    blow_up,
    classify_model,
    delzant_triangle,
    invariants,
    minimal_blowdown_chains,
    self_intersection,
)
from torus_census.rationals import format_rational
from torus_census.render import chains_table, polygon_table


def report(polygon, note: str) -> None:
    inv = invariants(polygon)
    selfs = [self_intersection(polygon, i) for i in range(inv.edge_count)]
    print(
        f"{note}: {inv.edge_count} edges, "
        f"area {format_rational(inv.euclidean_area)}, "
        f"perimeter {format_rational(inv.perimeter)}, "
        f"self-intersections {selfs}"
    )


def main() -> None:
    capacities = (Q(1, 3), Q(1, 4), Q(1, 5))
    polygon = delzant_triangle(Q(1))
    report(polygon, "start")

    for step, delta in enumerate(capacities, start=1):
        before = invariants(polygon)
        polygon = blow_up(polygon, 0, delta)
        after = invariants(polygon)
        assert after.euclidean_area == before.euclidean_area - delta * delta / 2
        assert after.perimeter == before.perimeter - delta
        assert self_intersection(polygon, 0) == -1
        report(polygon, f"after chop {step} of capacity {format_rational(delta)}")

    print()
    print(polygon_table(polygon))
    print()

    model = classify_model(polygon)
    print(
        f"exhaustive blow-down reaches a {model.kind} model "
        f"after {model.blowdowns} step(s): trapezoid "
        f"{format_rational(model.a)} by {format_rational(model.b)}"
    )
    print(
        "  (polygon classification stops at the first triangle or "
        "trapezoid; the homology chain below blows everything down)"
    )
    print()

    omega = SymplecticData(Basis("rational", 0, 3), capacities, lam=Q(1))
    chains = minimal_blowdown_chains(omega)
    print(
        "homology-level minimal blow-down chains for the same capacities "
        f"(found {len(chains)}):"
    )
    print(chains_table(chains))


if __name__ == "__main__":
    main()
