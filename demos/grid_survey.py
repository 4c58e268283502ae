#!/usr/bin/env python3
"""Survey the census over a grid of equal-capacity blow-ups of the plane.

For the projective plane of line area 1, blow up k times with equal
capacity delta and count the surviving maximal torus and circle
actions.  The cell k = 5, delta = 2/5 is not a manifold: the class
2L - E1 - ... - E5 has area 0, and the recipe is refused.  Two
closed-form tests ride along: the small-capacity toric test (k <= 3 and
delta < 1/3) and the circle-existence test ((k - 1) delta < 1).  The
survey prints the full table, then shows where each test tracks the
census and where it does not.
"""

from fractions import Fraction as Q

from torus_census import ManifoldSpec, feasibility_report, run_census
from torus_census.errors import PreconditionError
from torus_census.rationals import format_rational
from torus_census.render import feasibility_table

KS = (1, 2, 3, 4, 5)
DELTAS = (Q(1, 5), Q(1, 4), Q(3, 10), Q(1, 3), Q(2, 5))


def main() -> None:
    print("counts per cell (toric / maximal circles):\n")
    header = "k \\ delta " + "".join(
        f"{format_rational(d):>8}" for d in DELTAS
    )
    print(header)
    results = {}
    for k in KS:
        cells = []
        for delta in DELTAS:
            try:
                spec = ManifoldSpec("cp2", 0, Q(1), Q(1), (delta,) * k)
                counts = run_census(spec).counts
            except PreconditionError:
                cells.append("outside")
                continue
            results[k, delta] = counts
            cells.append(f"{counts.toric_count} / {counts.maximal_circle_count}")
        print(f"{k:<10}" + "".join(f"{cell:>8}" for cell in cells))

    print(f"\nclosed-form tests on the {len(results)} cells in the cone:\n")
    toric_misses, circle_misses, existence_misses = [], [], []
    for (k, delta), counts in sorted(results.items()):
        toric_formula = k <= 3 and delta < Q(1, 3)
        circle_formula = (k - 1) * delta < 1
        cell = f"({k}, {format_rational(delta)})"
        if toric_formula != (counts.toric_count > 0):
            toric_misses.append(cell)
        if circle_formula != (counts.maximal_circle_count > 0):
            circle_misses.append(cell)
        if circle_formula != (counts.total_maximal_tori > 0):
            existence_misses.append(cell)
    for name, misses in (
        ("toric test against the toric census", toric_misses),
        ("circle test against the maximal-circle census", circle_misses),
        ("circle test against existence of any action", existence_misses),
    ):
        print(f"  {name}: {len(results) - len(misses)}/{len(results)}")
        print(f"    misses at {', '.join(misses) or 'no cell'}")
    print(
        "\nthe toric misses all have delta >= 1/3, where the chopped "
        "triangle is still Delzant;\nthe circle misses are k <= 2, where "
        "every circle action extends to a toric one,\n(3, 1/3), where "
        "the would-be maximal action needs a fixed sphere of area 0,\n"
        "and (4, 2/5), where a maximal action exists although "
        "(k - 1) delta = 6/5.\n"
    )

    print("one cell in detail, k = 4 and delta = 1/4:\n")
    report = feasibility_report(
        ManifoldSpec("cp2", 0, Q(1), Q(1), (Q(1, 4),) * 4)
    )
    print(feasibility_table(report))


if __name__ == "__main__":
    main()
