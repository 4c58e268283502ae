"""Plain-text tables and SVG pictures for polygons, graphs, and censuses.

Every renderer is deterministic: fixed orderings, fixed number formats,
and no timestamps, so byte-identical output is reproducible for golden
tests and documentation builds.
"""

from __future__ import annotations

from fractions import Fraction as Q

from . import census as cs
from . import circle_graph as cg
from . import homology as hm
from . import polygon as pg
from .rationals import format_rational


def _rows_to_text(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _point(p: tuple[Q, Q]) -> str:
    return f"({format_rational(p[0])}, {format_rational(p[1])})"


def polygon_table(polygon: pg.RationalPolygon) -> str:
    inv = pg.invariants(polygon)
    lines = [
        f"Delzant polygon with {inv.edge_count} edges (b2 = {inv.b2})",
        f"euclidean area {format_rational(inv.euclidean_area)}, "
        f"anticanonical perimeter {format_rational(inv.perimeter)}",
    ]
    rows = []
    for edge, self_intersection in zip(pg.edges(polygon), inv.self_intersections):
        rows.append(
            [
                str(edge.index),
                _point(polygon.vertices[edge.index]),
                f"({edge.direction[0]}, {edge.direction[1]})",
                f"({edge.normal[0]}, {edge.normal[1]})",
                format_rational(edge.rational_length),
                str(self_intersection),
            ]
        )
    lines.extend(
        _rows_to_text(["edge", "vertex", "direction", "normal", "length", "self"], rows)
    )
    return "\n".join(lines)


def check_table(ok: bool, diagnostics: tuple[str, ...], label: str) -> str:
    lines = [f"{label}: {'yes' if ok else 'no'}"]
    for item in diagnostics:
        lines.append(f"  {item}")
    return "\n".join(lines)


def _component_line(vertex: cg.FixedComponent) -> str:
    if vertex.is_surface:
        return (
            f"[{vertex.id}] moment {format_rational(vertex.moment)}: "
            f"surface, genus {vertex.genus}, area {format_rational(vertex.area)}"
        )
    m, n = vertex.weights
    return (
        f"[{vertex.id}] moment {format_rational(vertex.moment)}: "
        f"isolated, weights ({m}, {n})"
    )


def graph_text(graph: cg.S1Graph) -> str:
    lines = [
        f"circle-action graph with {len(graph.vertices)} fixed components "
        f"and {len(graph.edges)} Z_k edges"
    ]
    order = sorted(graph.vertices, key=lambda v: (v.moment, v.id))
    for vertex in order:
        lines.append(f"  {_component_line(vertex)}")
    for north, south, k in sorted(graph.edges):
        area = cg.edge_area(graph, (north, south, k))
        lines.append(
            f"  Z_{k} sphere from [{south}] to [{north}], "
            f"area {format_rational(area)}"
        )
    return "\n".join(lines)


def graph_invariants_table(graph: cg.S1Graph) -> str:
    """The table of a graph.  The verdict of `cg.extends_to_toric` comes
    first and is the one check: PreconditionError for an invalid graph."""
    extends = cg.extends_to_toric(graph)
    lines = [graph_text(graph)]
    lines.append(f"moment span [{format_rational(graph.min_moment)}, "
                 f"{format_rational(graph.max_moment)}]")
    lines.append("extends to toric: " + ("yes" if extends else "no"))
    return "\n".join(lines)


def _spec_line(spec: cs.ManifoldSpec) -> str:
    if spec.base == cs.CP2:
        base = f"cp2 base with line area {format_rational(spec.base_area)}"
    else:
        kind = "product" if spec.base == cs.PRODUCT_RULED else "twisted"
        base = (
            f"{kind} ruled base, genus {spec.genus}, "
            f"section area {format_rational(spec.base_area)}, "
            f"fiber area {format_rational(spec.fiber)}"
        )
    caps = ", ".join(format_rational(c) for c in spec.capacities) or "none"
    return f"{base}; capacities: {caps}"


def _steps_line(steps: tuple[cs.BlowUpStep, ...], noun: str) -> str:
    """The steps as "delta at noun site", comma-separated."""
    return ", ".join(f"{format_rational(s.delta)} at {noun} {s.site}" for s in steps)


def _toric_provenance_line(provenance: cs.ToricProvenance) -> str:
    if not provenance.steps:
        return "base model, no chops"
    return f"chops: {_steps_line(provenance.steps, 'vertex')}"


def _circle_provenance_line(provenance: cs.CircleProvenance) -> str:
    if provenance.origin == "ruled_base":
        head = f"ruled base graph of degree {provenance.degree}"
    else:
        xi = provenance.xi
        head = f"projection at stage {provenance.stage} along ({xi[0]}, {xi[1]})"
    if provenance.steps:
        return f"{head}; blow-ups: {_steps_line(provenance.steps, 'component')}"
    return head


def census_table(result: cs.CensusResult) -> str:
    """The table of a census result.  Each toric entry is read through
    `pg.invariants`, so it is checked Delzant once."""
    lines = [f"census for {_spec_line(result.spec)}"]
    lines.append(
        f"counts: toric {result.counts.toric_count}, "
        f"maximal circles {result.counts.maximal_circle_count}, "
        f"total maximal tori {result.counts.total_maximal_tori}"
    )
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    if result.toric:
        lines.append("toric entries:")
        for index, (polygon, provenance) in enumerate(
            zip(result.toric, result.toric_provenance)
        ):
            inv = pg.invariants(polygon)
            lines.append(
                f"  [{index}] {inv.edge_count} edges, "
                f"area {format_rational(inv.euclidean_area)}, "
                f"perimeter {format_rational(inv.perimeter)}"
            )
            lines.append(f"      {_toric_provenance_line(provenance)}")
    else:
        lines.append("toric entries: none")
    if result.maximal_circles:
        lines.append("maximal circle entries:")
        for index, (graph, provenance) in enumerate(
            zip(result.maximal_circles, result.circle_provenance)
        ):
            lines.append(
                f"  [{index}] {len(graph.vertices)} components, "
                f"{len(graph.edges)} Z_k edges, moment span "
                f"{format_rational(graph.max_moment - graph.min_moment)}"
            )
            lines.append(f"      {_circle_provenance_line(provenance)}")
    else:
        lines.append("maximal circle entries: none")
    return "\n".join(lines)


def feasibility_table(report: cs.FeasibilityReport) -> str:
    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    lines = [
        f"feasibility for {report.blowups} equal capacities "
        f"{format_rational(report.delta)}",
        f"  toric formula (k <= 3 and delta < lambda/3): {yn(report.toric_formula)}",
        f"  toric census nonempty: {yn(report.toric_nonempty)} "
        f"(agreement: {yn(report.toric_agrees)})",
        f"  circle formula ((k-1) delta < lambda): {yn(report.circle_formula)}",
        f"  any circle action in census: {yn(report.any_circle_nonempty)} "
        f"(agreement: {yn(report.circle_agrees_existence)})",
        f"  maximal circle census nonempty: {yn(report.maximal_circle_nonempty)} "
        f"(agreement: {yn(report.circle_agrees_maximal)})",
    ]
    for warning in report.warnings:
        lines.append(f"  warning: {warning}")
    return "\n".join(lines)


def exceptional_table(
    omega: hm.SymplecticData,
    minimal: hm.MinimalClassData,
    bound: Q,
    candidates: tuple[hm.HomologyClass, ...],
) -> str:
    lines = [
        f"minimal exceptional area: {format_rational(minimal.epsilon)}",
        "minimal classes:",
    ]
    for cls in minimal.classes:
        lines.append(f"  {cls}")
    lines.append(f"candidates with area at most {format_rational(bound)}:")
    for cls in candidates:
        lines.append(f"  {cls}  (area {format_rational(hm.area(cls, omega))})")
    return "\n".join(lines)


def _terminal_line(terminal: hm.SymplecticData) -> str:
    basis = terminal.basis
    if basis.kind == hm.RATIONAL:
        return f"cp2 with line area {format_rational(terminal.lam)}"
    kind = "product" if basis.kind == hm.PRODUCT_RULED else "twisted"
    return (
        f"{kind} ruled surface, genus {basis.genus}, "
        f"section area {format_rational(terminal.mu)}, "
        f"fiber area {format_rational(terminal.fiber)}"
    )


def chain_lines(chain: hm.BlowdownChain) -> list[str]:
    lines = []
    for step in chain.steps:
        lines.append(
            f"  stage {step.stage}: blow down {step.chosen} "
            f"(area {format_rational(step.area)})"
        )
    lines.append(f"  terminal: {_terminal_line(chain.terminal)}")
    return lines


def chains_table(chains: tuple[hm.BlowdownChain, ...]) -> str:
    lines = [f"minimal blow-down chains: {len(chains)}"]
    for index, chain in enumerate(chains):
        lines.append(f"chain {index}:")
        lines.extend(chain_lines(chain))
    lines.append("canonical chain:")
    lines.extend(chain_lines(chains[0]))
    return "\n".join(lines)


def threshold_table(threshold: hm.CapacityThreshold) -> str:
    lines = [
        f"minimal blow-up capacity threshold: {format_rational(threshold.value)}",
        "binding classes:",
    ]
    for cls in threshold.binding:
        lines.append(f"  {cls}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def polygon_svg(polygon: pg.RationalPolygon) -> str:
    scale = 120.0
    pad = 30.0
    xs = [float(v[0]) for v in polygon.vertices]
    ys = [float(v[1]) for v in polygon.vertices]
    width = (max(xs) - min(xs)) * scale + 2 * pad
    height = (max(ys) - min(ys)) * scale + 2 * pad

    def place(v: tuple[Q, Q]) -> tuple[float, float]:
        x = (float(v[0]) - min(xs)) * scale + pad
        y = (max(ys) - float(v[1])) * scale + pad
        return x, y

    points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(place, polygon.vertices))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'  <polygon points="{points}" fill="#e8f0f8" '
        f'stroke="#234a6d" stroke-width="2"/>',
    ]
    for vertex in polygon.vertices:
        x, y = place(vertex)
        parts.append(
            f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#234a6d"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def graph_svg(graph: cg.S1Graph) -> str:
    scale = 140.0
    pad = 40.0
    lane = 110.0
    lo = float(graph.min_moment)
    hi = float(graph.max_moment)
    span = max(hi - lo, 1.0)
    order = sorted(graph.vertices, key=lambda v: (v.moment, v.id))
    lanes: dict[int, int] = {}
    used: dict[Q, int] = {}
    for vertex in order:
        slot = used.get(vertex.moment, 0)
        lanes[vertex.id] = slot
        used[vertex.moment] = slot + 1
    max_lane = max(lanes.values())
    width = 2 * pad + (max_lane + 1) * lane
    height = 2 * pad + span * scale

    def place(vertex: cg.FixedComponent) -> tuple[float, float]:
        x = pad + lanes[vertex.id] * lane + lane / 2
        y = pad + (hi - float(vertex.moment)) * scale
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]
    for north, south, k in sorted(graph.edges):
        x1, y1 = place(graph.component(north))
        x2, y2 = place(graph.component(south))
        parts.append(
            f'  <line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="#777777" stroke-width="2"/>'
        )
        parts.append(
            f'  <text x="{_fmt((x1 + x2) / 2 + 6)}" y="{_fmt((y1 + y2) / 2)}" '
            f'font-size="12">k={k}</text>'
        )
    for vertex in order:
        x, y = place(vertex)
        if vertex.is_surface:
            parts.append(
                f'  <line x1="{_fmt(x - 34)}" y1="{_fmt(y)}" x2="{_fmt(x + 34)}" '
                f'y2="{_fmt(y)}" stroke="#9c2d2d" stroke-width="5"/>'
            )
            label = f"g={vertex.genus}, a={format_rational(vertex.area)}"
        else:
            parts.append(
                f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="#234a6d"/>'
            )
            label = f"({vertex.weights[0]}, {vertex.weights[1]})"
        parts.append(
            f'  <text x="{_fmt(x + 10)}" y="{_fmt(y - 8)}" font-size="12">'
            f"{label}</text>"
        )
        parts.append(
            f'  <text x="{_fmt(x + 10)}" y="{_fmt(y + 16)}" font-size="11" '
            f'fill="#555555">mu={format_rational(vertex.moment)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
