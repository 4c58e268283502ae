"""Inductive census of torus and circle actions on blow-up recipes.

A recipe names a minimal base (a projective plane of given line area, or
a genus-g sphere bundle with fiber area 1) and a weakly decreasing list
of blow-up capacities.  A cp2 recipe is first brought to Cremona-reduced
form (line area at least the sum of the three largest capacities), which
names the same manifold; a recipe that reduction shows to lie outside
the symplectic cone is refused.  The toric census folds polygon corner
chops over the capacities starting from all model polygons of the base,
keeping canonical forms only.  The circle census grows a frontier of
decorated graphs in lock-step: at every stage it adds the circle
subactions with fixed surfaces of every current toric polygon, blows up
the previous frontier at every feasible component, and finally keeps the
graphs that do not extend to a toric action.  Both censuses are exact and
deterministic, and every entry carries a replayable provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import NamedTuple

from . import circle_graph as cg
from . import polygon as pg
from .errors import CapacityError, FormatError, PreconditionError
from .homology import Basis, SymplecticData
from .rationals import ceil_rational, format_rational, parse_rational

CP2 = "cp2"
PRODUCT_RULED = "product_ruled"
TWISTED_RULED = "twisted_ruled"
BASE_KINDS = (CP2, PRODUCT_RULED, TWISTED_RULED)


@dataclass(frozen=True)
class ManifoldSpec:
    """Blow-up recipe: base kind, base parameters, ordered capacities."""

    base: str
    genus: int = 0
    base_area: Q = Q(1)
    fiber: Q = Q(1)
    capacities: tuple[Q, ...] = ()

    def __post_init__(self) -> None:
        if self.base not in BASE_KINDS:
            raise PreconditionError(f"unknown base kind: {self.base}")
        if not isinstance(self.genus, int) or self.genus < 0:
            raise PreconditionError("genus must be a nonnegative integer")
        if self.base == CP2 and self.genus != 0:
            raise PreconditionError("a cp2 base has no genus parameter")
        area = parse_rational(self.base_area)
        fiber = parse_rational(self.fiber)
        caps = tuple(parse_rational(c) for c in self.capacities)
        object.__setattr__(self, "base_area", area)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "capacities", caps)
        if area <= 0:
            raise PreconditionError("base area must be positive")
        if self.base == CP2:
            if fiber != 1:
                raise PreconditionError("a cp2 base has no fiber parameter")
        elif fiber != 1:
            raise PreconditionError("ruled bases are normalized to fiber area 1")
        if any(c <= 0 for c in caps):
            raise PreconditionError("capacities must be positive")
        if any(a < b for a, b in zip(caps, caps[1:])):
            raise PreconditionError("capacities must be weakly decreasing")
        if self.volume <= 0:
            raise PreconditionError("recipe volume must be positive")

    @property
    def blowups(self) -> int:
        return len(self.capacities)

    @property
    def volume(self) -> Q:
        if self.base == CP2:
            base = self.base_area * self.base_area / 2
        elif self.base == PRODUCT_RULED:
            base = self.base_area * self.fiber
        else:
            # The twisted section squares to -1, so the dual of the area
            # functional picks up an extra half fiber-square.
            base = self.base_area * self.fiber + self.fiber * self.fiber / 2
        return base - sum((c * c for c in self.capacities), Q(0)) / 2

    @property
    def anticanonical_perimeter(self) -> Q:
        if self.base == CP2:
            base = 3 * self.base_area
        elif self.base == PRODUCT_RULED:
            base = 2 * self.base_area + (2 - 2 * self.genus) * self.fiber
        else:
            base = 2 * self.base_area + (3 - 2 * self.genus) * self.fiber
        return base - sum(self.capacities)

    @property
    def rational_base(self) -> bool:
        return self.base == CP2 or self.genus == 0


def spec_to_symplectic(spec: ManifoldSpec) -> SymplecticData:
    """The homology-level form of a recipe, for chains and enumeration."""
    if spec.base == CP2:
        basis = Basis("rational", 0, spec.blowups)
        return SymplecticData(basis, spec.capacities, lam=spec.base_area)
    basis = Basis(spec.base, spec.genus, spec.blowups)
    return SymplecticData(
        basis, spec.capacities, mu=spec.base_area, fiber=spec.fiber
    )


# ---------------------------------------------------------------------------
# Provenance


@dataclass(frozen=True)
class BlowUpStep:
    """One recorded blow-up: capacity and the site in the canonical parent."""

    delta: Q
    site: int


@dataclass(frozen=True)
class ToricProvenance:
    base: pg.RationalPolygon
    steps: tuple[BlowUpStep, ...]


@dataclass(frozen=True)
class CircleProvenance:
    """How a frontier graph was born and which blow-ups followed.

    origin is either ("ruled_base", degree) for irrational bases or
    ("projection", stage) with the stage's toric polygon and direction.
    """

    origin: str
    stage: int
    degree: int | None = None
    polygon: pg.RationalPolygon | None = None
    xi: tuple[int, int] | None = None
    steps: tuple[BlowUpStep, ...] = ()


def replay_toric(provenance: ToricProvenance) -> pg.RationalPolygon:
    current = provenance.base
    for step in provenance.steps:
        current = pg.canonical_form(pg.blow_up(current, step.site, step.delta))[0]
    return current


def replay_circle(spec: ManifoldSpec, provenance: CircleProvenance) -> cg.S1Graph:
    if provenance.origin == "ruled_base":
        seed = cg.ruled_base_graph(
            spec.genus,
            provenance.degree,
            spec.base_area,
            spec.base == TWISTED_RULED,
        )
    else:
        seed = cg.graph_from_polygon(provenance.polygon, provenance.xi)
    current = cg.canonical_form(seed)
    for step in provenance.steps:
        current = cg.canonical_form(cg.blow_up(current, step.site, step.delta))
    return current


# ---------------------------------------------------------------------------
# Results


class ConjugacyCounts(NamedTuple):
    toric_count: int
    maximal_circle_count: int
    total_maximal_tori: int


@dataclass(frozen=True)
class CensusResult:
    spec: ManifoldSpec
    toric: tuple[pg.RationalPolygon, ...]
    maximal_circles: tuple[cg.S1Graph, ...]
    counts: ConjugacyCounts
    toric_provenance: tuple[ToricProvenance, ...]
    circle_provenance: tuple[CircleProvenance, ...]
    warnings: tuple[str, ...]


def _regime_warnings(spec: ManifoldSpec) -> tuple[str, ...]:
    notes = []
    if not spec.rational_base:
        notes.append("no toric actions on a positive-genus base")
        return tuple(notes)
    if spec.base == CP2:
        small = all(3 * c <= spec.base_area for c in spec.capacities)
        if not small:
            if spec.blowups <= 8:
                notes.append(
                    "case-analysis regime: some capacity exceeds a third "
                    "of the line area"
                )
            else:
                notes.append(
                    "outside certified validity: more than eight blow-ups "
                    "with large capacities"
                )
    elif spec.blowups > 8:
        notes.append("outside certified validity: more than eight blow-ups")
    return tuple(notes)


# ---------------------------------------------------------------------------
# Base models


def base_toric_actions(spec: ManifoldSpec) -> tuple[pg.RationalPolygon, ...]:
    """Canonical model polygons of the base, before any blow-up."""
    if not spec.rational_base:
        return ()
    if spec.base == CP2:
        triangle = pg.delzant_triangle(spec.base_area)
        return (pg.canonical_form(triangle)[0],)
    if spec.base == PRODUCT_RULED:
        width = max(spec.base_area, spec.fiber)
        height = min(spec.base_area, spec.fiber)
        start = 0
    else:
        width = spec.base_area + spec.fiber / 2
        height = spec.fiber
        start = 1
    models = {}
    m = start
    while 2 * width > m * height:
        trapezoid = pg._trapezoid(width, height, m)
        canonical = pg.canonical_form(trapezoid)[0]
        models[canonical.vertices] = canonical
        m += 2
    return tuple(models[key] for key in sorted(models))


def ruled_base_count(spec: ManifoldSpec) -> int:
    """Closed-form count of base models: ceil of the width/height ratio."""
    if spec.base == CP2:
        return 1
    if spec.base == PRODUCT_RULED:
        ratio = max(spec.base_area, spec.fiber) / min(spec.base_area, spec.fiber)
        return ceil_rational(ratio)
    return ceil_rational(spec.base_area / spec.fiber)


# ---------------------------------------------------------------------------
# The census


def _toric_stages(
    spec: ManifoldSpec,
) -> list[dict[tuple, tuple[pg.RationalPolygon, ToricProvenance]]]:
    stage: dict[tuple, tuple[pg.RationalPolygon, ToricProvenance]] = {}
    for polygon in base_toric_actions(spec):
        stage[polygon.vertices] = (polygon, ToricProvenance(polygon, ()))
    stages = [stage]
    for delta in spec.capacities:
        previous, stage = stage, {}
        for key in sorted(previous):
            polygon, provenance = previous[key]
            for vertex in range(polygon.edge_count):
                try:
                    blown = pg.blow_up(polygon, vertex, delta)
                except CapacityError:
                    continue
                canonical = pg.canonical_form(blown)[0]
                if canonical.vertices in stage:
                    continue
                steps = provenance.steps + (BlowUpStep(delta, vertex),)
                stage[canonical.vertices] = (
                    canonical,
                    ToricProvenance(provenance.base, steps),
                )
        stages.append(stage)
    return stages


def _projection_seeds(
    stage_index: int,
    stage: dict[tuple, tuple[pg.RationalPolygon, ToricProvenance]],
    target: dict[tuple, tuple[cg.S1Graph, CircleProvenance]],
) -> None:
    for key in sorted(stage):
        polygon, _ = stage[key]
        for edge in pg.edges(polygon):
            # The graph of -xi is the mirror image: the same canonical key.
            xi = edge.normal
            graph = cg.graph_from_polygon(polygon, xi)
            serial = cg.canonical_serialization(graph)
            if serial in target:
                continue
            target[serial] = (
                cg.canonical_form(graph),
                CircleProvenance("projection", stage_index, None, polygon, xi),
            )


def _cremona_reduced(spec: ManifoldSpec) -> ManifoldSpec:
    """The reduced form of a cp2 recipe; other recipes come back as given.

    A cp2 recipe (lam; c1 >= c2 >= ...) is reduced when lam >= c1+c2+c3.
    The Cremona move (lam; a, b, c, ...) -> (2 lam-a-b-c; lam-b-c, lam-a-c,
    lam-a-b, ...) names the same manifold (McDuff's uniqueness of
    blow-ups) and lowers lam by the excess a+b+c-lam, so repeating it with
    the capacities re-sorted ends in reduced form.  A capacity that drops
    to zero or below, or a pair with lam <= c1+c2, is a class of
    nonpositive area: the recipe lies outside the symplectic cone.
    """
    if spec.base != CP2:
        return spec
    lam, caps = spec.base_area, spec.capacities
    if len(caps) == 2 and lam <= caps[0] + caps[1]:
        raise PreconditionError(
            "recipe outside the symplectic cone: L-E1-E2 has nonpositive area"
        )
    while len(caps) >= 3 and lam < caps[0] + caps[1] + caps[2]:
        a, b, c = caps[:3]
        moved = (lam - b - c, lam - a - c, lam - a - b)
        if min(moved) <= 0:
            raise PreconditionError(
                "recipe outside the symplectic cone: Cremona reduction "
                "reaches a nonpositive capacity"
            )
        lam = 2 * lam - a - b - c
        caps = tuple(sorted(moved + caps[3:], reverse=True))
    return ManifoldSpec(CP2, 0, lam, Q(1), caps)


def _require_ruled_in_cone(spec: ManifoldSpec) -> None:
    """Refuse a ruled recipe outside the symplectic cone (fiber area 1).

    A genus-0 recipe is checked through its cp2 presentation, which
    Cremona reduction accepts exactly inside the cone:
    product(mu; d, rest) = cp2(mu+1-d; mu-d, 1-d, rest) and
    twisted(mu; c) = cp2(mu+1; mu, c).  On a positive-genus base the
    exceptional classes are E_i and F-E_i, so every capacity must stay
    below the fiber area.
    """
    if spec.base == CP2 or not spec.capacities:
        return
    if spec.genus > 0:
        if spec.capacities[0] >= spec.fiber:
            raise PreconditionError(
                "recipe outside the symplectic cone: F-E1 has nonpositive area"
            )
        return
    mu, caps = spec.base_area, spec.capacities
    if spec.base == PRODUCT_RULED:
        lam, moved = mu + 1 - caps[0], (mu - caps[0], 1 - caps[0]) + caps[1:]
    else:
        lam, moved = mu + 1, (mu,) + caps
    if min(moved) <= 0:
        raise PreconditionError(
            "recipe outside the symplectic cone: some capacity reaches a "
            "section or fiber area"
        )
    _cremona_reduced(
        ManifoldSpec(CP2, 0, lam, Q(1), tuple(sorted(moved, reverse=True)))
    )


def run_census(spec: ManifoldSpec) -> CensusResult:
    """Full toric and maximal-circle census of a recipe, with provenance.

    A cp2 recipe is censused in its Cremona-reduced form, so the answer
    depends on the manifold rather than on how the recipe names it; the
    result still carries the recipe as given, and its warnings.
    """
    warnings = _regime_warnings(spec)
    _require_ruled_in_cone(spec)
    model = _cremona_reduced(spec)
    stages = _toric_stages(model)
    final_stage = stages[-1]

    frontier: dict[tuple, tuple[cg.S1Graph, CircleProvenance]] = {}
    if model.rational_base:
        _projection_seeds(0, stages[0], frontier)
    else:
        degree = 1 if model.base == TWISTED_RULED else 0
        while True:
            try:
                graph = cg.ruled_base_graph(
                    model.genus, degree, model.base_area, model.base == TWISTED_RULED
                )
            except PreconditionError:
                break
            serial = cg.canonical_serialization(graph)
            frontier[serial] = (
                cg.canonical_form(graph),
                CircleProvenance("ruled_base", 0, degree),
            )
            degree += 2

    for index, delta in enumerate(model.capacities, start=1):
        previous, frontier = frontier, {}
        for key in sorted(previous):
            graph, provenance = previous[key]
            for vertex in graph.vertices:
                feasible, _ = cg.can_blow_up(graph, vertex.id, delta)
                if not feasible:
                    continue
                blown = cg.blow_up(graph, vertex.id, delta)
                serial = cg.canonical_serialization(blown)
                if serial in frontier:
                    continue
                steps = provenance.steps + (BlowUpStep(delta, vertex.id),)
                frontier[serial] = (
                    cg.canonical_form(blown),
                    CircleProvenance(
                        provenance.origin,
                        provenance.stage,
                        provenance.degree,
                        provenance.polygon,
                        provenance.xi,
                        steps,
                    ),
                )
        _projection_seeds(index, stages[index], frontier)
        if not frontier and not stages[index]:
            break

    toric_entries = [final_stage[key] for key in sorted(final_stage)]
    circle_entries = [
        frontier[key]
        for key in sorted(frontier)
        if not cg.extends_to_toric(frontier[key][0])
    ]
    counts = ConjugacyCounts(
        len(toric_entries),
        len(circle_entries),
        len(toric_entries) + len(circle_entries),
    )
    return CensusResult(
        spec=spec,
        toric=tuple(entry[0] for entry in toric_entries),
        maximal_circles=tuple(entry[0] for entry in circle_entries),
        counts=counts,
        toric_provenance=tuple(entry[1] for entry in toric_entries),
        circle_provenance=tuple(entry[1] for entry in circle_entries),
        warnings=warnings,
    )


def toric_census(spec: ManifoldSpec) -> tuple[pg.RationalPolygon, ...]:
    return run_census(spec).toric


def circle_census(spec: ManifoldSpec) -> tuple[cg.S1Graph, ...]:
    return run_census(spec).maximal_circles


def count_conjugacy_classes(spec: ManifoldSpec) -> ConjugacyCounts:
    return run_census(spec).counts


# ---------------------------------------------------------------------------
# Feasibility report


@dataclass(frozen=True)
class FeasibilityReport:
    """Closed-form feasibility tests against census truth, equal capacities.

    The toric formula asks for at most three blow-ups of capacity below a
    third of the line area; the circle formula asks (k-1) delta < lambda.
    Neither is exact.  For k <= 3 equal capacities inside the cone the
    corner-chopped triangle is Delzant, so a toric action exists whatever
    the capacity.  On the unit plane the circle formula misses at k <= 2,
    where every circle action extends to a toric one, at (3, 1/3), and at
    (4, 2/5), where a maximal circle action exists although
    (k-1) delta = 6/5.  It is compared both with existence of any maximal
    torus (toric or circle) and with the maximal-circle census alone.
    """

    blowups: int
    delta: Q
    toric_formula: bool
    circle_formula: bool
    toric_nonempty: bool
    maximal_circle_nonempty: bool
    any_circle_nonempty: bool
    toric_agrees: bool
    circle_agrees_existence: bool
    circle_agrees_maximal: bool
    warnings: tuple[str, ...]


def feasibility_report(spec: ManifoldSpec) -> FeasibilityReport:
    if spec.base != CP2:
        raise PreconditionError("feasibility report needs a cp2 base")
    if spec.blowups == 0:
        raise PreconditionError("feasibility report needs at least one capacity")
    if len(set(spec.capacities)) != 1:
        raise PreconditionError("feasibility report needs equal capacities")
    delta = spec.capacities[0]
    k = spec.blowups
    lam = spec.base_area
    result = run_census(spec)
    toric_formula = k <= 3 and 3 * delta < lam
    circle_formula = (k - 1) * delta < lam
    toric_nonempty = bool(result.toric)
    maximal_nonempty = bool(result.maximal_circles)
    any_nonempty = toric_nonempty or maximal_nonempty
    return FeasibilityReport(
        blowups=k,
        delta=delta,
        toric_formula=toric_formula,
        circle_formula=circle_formula,
        toric_nonempty=toric_nonempty,
        maximal_circle_nonempty=maximal_nonempty,
        any_circle_nonempty=any_nonempty,
        toric_agrees=toric_formula == toric_nonempty,
        circle_agrees_existence=circle_formula == any_nonempty,
        circle_agrees_maximal=circle_formula == maximal_nonempty,
        warnings=result.warnings,
    )


# ---------------------------------------------------------------------------
# Serialization


def spec_to_json(spec: ManifoldSpec) -> dict:
    if spec.base == CP2:
        base = {"kind": CP2, "lambda": format_rational(spec.base_area)}
    else:
        base = {
            "kind": spec.base,
            "genus": spec.genus,
            "mu": format_rational(spec.base_area),
            "fiber": format_rational(spec.fiber),
        }
    return {
        "base": base,
        "capacities": [format_rational(c) for c in spec.capacities],
    }


def spec_from_json(payload: dict) -> ManifoldSpec:
    if not isinstance(payload, dict) or "base" not in payload:
        raise FormatError("recipe object needs a 'base' field")
    base = payload["base"]
    if not isinstance(base, dict) or "kind" not in base:
        raise FormatError("recipe base needs a 'kind' field")
    kind = base["kind"]
    if kind not in BASE_KINDS:
        raise FormatError(f"unknown base kind: {kind!r}")
    caps = payload.get("capacities", [])
    if not isinstance(caps, list):
        raise FormatError("capacities must be a list")
    capacities = tuple(parse_rational(c) for c in caps)
    if kind == CP2:
        if "lambda" not in base:
            raise FormatError("cp2 base needs a 'lambda' field")
        return ManifoldSpec(CP2, 0, parse_rational(base["lambda"]), Q(1), capacities)
    if "mu" not in base:
        raise FormatError("ruled base needs a 'mu' field")
    genus = base.get("genus", 0)
    if not isinstance(genus, int):
        raise FormatError("genus must be an integer")
    fiber = parse_rational(base.get("fiber", "1"))
    return ManifoldSpec(kind, genus, parse_rational(base["mu"]), fiber, capacities)
