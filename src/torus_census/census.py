"""Inductive census of torus and circle actions on blow-up recipes.

A recipe names a minimal base (a projective plane of given line area, or
a genus-g sphere bundle with fiber area 1) and a weakly decreasing list
of blow-up capacities, and carries its homology form, `SymplecticData`,
built when it is made, which alone checks capacities, volume and the
symplectic cone.  A cp2 recipe is then brought to Cremona-reduced form
(line area at least the sum of the three largest capacities), which
names the same manifold.  The toric census folds polygon corner
chops over the capacities starting from all model polygons of the base,
keeping canonical forms only.  The circle census grows a frontier of
decorated graphs in lock-step, and keeps only maximal circle actions:
those that do not extend to a toric action.  A projection of a polygon
is a subaction of its torus, so it extends: projections only seed later
blow-ups.  With at least one capacity, stage 0 projects every model
polygon along every edge normal (the circle subactions with fixed
surfaces).  Each later stage, of capacity delta, blows up the previous
frontier at every feasible component; every stage but the last then
projects each of the stage's toric polygons along its edges of rational
length delta only.  On a rational base the last stage refuses each
blow-up that `_extends_to_toric` accepts before it is keyed; on a
positive-genus base no graph extends, as a blow-up keeps the genus-g
fixed surfaces, and no verdict is asked.  Equal keys give equal
verdicts, so the frontier the last stage leaves is the answer, with the
provenance it had.  Both censuses are exact and deterministic, and every
entry carries a replayable provenance.  One routine, `_expand`, runs
every stage of both, and alone walks a stage: each stage maps a
canonical key, a polygon's canonical vertices or a graph table's `_key`,
to the first provenance found for it.  A circle stage walks its parents
as their keys, since a key is a table; a toric stage rebuilds its
parents one at a time, and projects each as it is rebuilt, before its
chops.  Public functions check their arguments; the census checks no
polygon and validates no graph.  It builds polygons through the
unchecked cores of `polygon` (`_chop`, `_canonical`, `_polygon`) and
tables through those of `circle_graph` (`_projected`, `_ruled_base`,
`_blow_up`), and asks `_extends_to_toric` at the last stage only; each
chop, projection and blow-up dies once keyed.  Provenance recorded at a
stage shares that stage's steps.  The model triangle and trapezoids
(integer slope) are Delzant, a chop of a Delzant polygon is Delzant, and
canonical vertices are a valid polygon's.  The tests run `validate` and a
Duistermaat-Heckman check on the graph of every table the census builds.

Each builder gives a table whose graph meets every axiom `cg._diagnose`
checks.
- `graph_from_polygon` of a Delzant polygon along an edge normal xi (a
  primitive integer vector).  The moment <v, xi> is linear on a convex
  polygon, so each extremum is one vertex or one edge orthogonal to xi,
  and at most two edges are orthogonal to xi: they become the fixed
  surfaces, of genus 0 and positive length, at the extrema, and absorb
  their ends.  At a Delzant vertex the outgoing primitive directions form
  a lattice basis, so their pairings with the primitive xi, the vertex's
  weights, are coprime, and they are both positive at the minimum, both
  negative at the maximum and of both signs elsewhere.  An edge orthogonal
  to xi pairs its neighbours to +-1, so a polygon edge that pairs to +-k
  with k >= 2 joins two points, and its Z_k edge runs from the lower to
  the higher and fills the weight slot that edge gives each end: every
  weight of magnitude at least 2 has its own edge and no point has more
  than two.
- `_ruled_base` at each degree whose bottom section area is positive:
  two genus-g surfaces at moments 0 and fiber > 0 of positive area, and
  no edges.
- `_blow_up` at a site `_feasible` admits.  A fixed surface keeps a
  positive area and gains a (1, -1) point delta inside, short of the other
  extremum as the span exceeds delta.  An extremal (1, 1) or (-1, -1)
  point, which has no edge, becomes a genus-0 surface of area delta,
  delta inward, and stays the one extremum as every other component is
  more than delta away.  A point of weights (m, n), m > n, splits into
  points of weights (m, n - m) at mu + m delta and (n, m - n) at
  mu + n delta, coprime as m and n are; each incident Z_k edge moves to
  the new point that keeps its pole weight, and a Z_{m-n} edge joins the
  two when m - n >= 2.  The far end of a Z_k edge lies more than k delta
  away, and an interior point more than delta from both extrema, so the
  edges keep their direction and an interior point's new points are
  interior, with weights of both signs.  At an extremum the new point
  with weights of one sign lies min(|m|, |n|) delta inward, and
  `_feasible` asks that every other component lie farther away than
  that, so it is the one new extremum; the other new point lies
  max(|m|, |n|) delta inward, short of the far end of its Z_k edge.
- `_key` of a table translates, reflects and reorders it, which keeps
  every axiom: a key is the table of a valid graph, so a stage blows up
  its keys themselves.

The projection rule loses nothing.  A stage polygon Q is the canonical
form of a chop of a previous-stage polygon P at a vertex v, and every
edge of Q but the new one, of length delta, is (under the canonical map)
an edge of P with the same normal xi.  Projecting along xi commutes with
the chop:
graph_from_polygon(Q, xi) is blow_up(graph_from_polygon(P, xi), c, delta)
for the component c that holds v.  An isolated point of weights (m, n)
splits into points of weights (m, n - m) and (n, m - n); an extremal
point of weights (1, 1) becomes a fixed surface of area delta; a vertex
on a fixed edge shrinks that surface by delta and adds a point of
weights (1, -1).  A feasible chop (delta below both edges at v) is a
feasible graph blow-up, and by induction from stage 0 the previous
frontier holds the key of every projection of P, so the blown-up
frontier already holds the key of every projection along an edge of
length other than delta.  The frontier keeps the first entry per key and
the blow-ups run before the projections, so skipping those edges changes
no entry and no provenance.  Edges of length delta that some other chop
left are still projected.  The frontiers before the last stage keep the
key of every graph, so the induction holds at every stage that projects.

Both censuses run on whole numbers: every area of the reduced recipe is
multiplied by D, twice the lcm of its denominators (the lcm is the scale
of its `integer_area`), so every polygon vertex, moment and graph area
is a Python int, and the results are divided by D back to Fractions.  A
positive scale commutes with the integral affine maps, translations and
reflections of the canonical forms and keeps every comparison, so the
answer is the same.  It also keeps a valid polygon or graph valid, so
the divided results are built without re-validation: polygons by
`pg._polygon`, graphs from their canonical keys.  One table per census
holds one Fraction per scaled int, and another one `FixedComponent` per
(position, key entry), built by `cg._key_component`: the returned graphs
share these frozen components.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import count
from typing import NamedTuple

from . import circle_graph as cg
from . import polygon as pg
from .errors import FormatError, PreconditionError
from .homology import PRODUCT_RULED, RATIONAL, TWISTED_RULED, Basis, SymplecticData
from .homology import cremona_reduced
from .rationals import format_rational, halve, is_int, parse_rational

CP2 = "cp2"
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
        if not is_int(self.genus) or self.genus < 0:
            raise PreconditionError("genus must be a nonnegative integer")
        if self.base == CP2 and self.genus != 0:
            raise PreconditionError("a cp2 base has no genus parameter")
        area = parse_rational(self.base_area)
        fiber = parse_rational(self.fiber)
        caps = tuple(parse_rational(c) for c in self.capacities)
        object.__setattr__(self, "base_area", area)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "capacities", caps)
        # The form lets a twisted positive-genus section have area <= 0.
        if area <= 0:
            raise PreconditionError("base area must be positive")
        if self.base == CP2:
            if fiber != 1:
                raise PreconditionError("a cp2 base has no fiber parameter")
            form = SymplecticData(Basis(RATIONAL, 0, len(caps)), caps, lam=area)
        elif fiber != 1:
            raise PreconditionError("ruled bases are normalized to fiber area 1")
        else:
            basis = Basis(self.base, self.genus, len(caps))
            form = SymplecticData(basis, caps, mu=area, fiber=fiber)
        # Not a field: equality, hashing and repr read the fields only.
        object.__setattr__(self, "_form", form)

    @property
    def blowups(self) -> int:
        return len(self.capacities)

    @property
    def rational_base(self) -> bool:
        return self.base == CP2 or self.genus == 0


def spec_to_symplectic(spec: ManifoldSpec) -> SymplecticData:
    """The recipe's homology form, for the census, chains and enumeration.

    It was built, and the recipe checked against the symplectic cone,
    when the recipe was made; every call returns that one form.
    """
    return spec._form


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
    return _model_polygons(spec.base, spec.base_area, spec.fiber)


def _model_polygons(
    base: str, area: Q | int, fiber: Q | int
) -> tuple[pg.RationalPolygon, ...]:
    """Canonical model polygons of a rational base, sorted by vertices: each
    slope m gives its own model, whose parallel edges square to m and -m."""
    if base == CP2:
        triangle = pg.delzant_triangle(area)
        return (pg._canonical(triangle)[0],)
    width, height, twisted = _ruled_model_box(base, area, fiber)
    models = []
    m = 1 if twisted else 0
    while 2 * width > m * height:
        models.append(pg._canonical(pg._trapezoid(width, height, m))[0])
        m += 2
    return tuple(sorted(models, key=lambda model: model.vertices))


def _ruled_model_box(
    base: str, area: Q | int, fiber: Q | int
) -> tuple[Q | int, Q | int, bool]:
    """Width, height and twist of the trapezoid models of a ruled base."""
    if base == PRODUCT_RULED:
        return max(area, fiber), min(area, fiber), False
    return area + halve(fiber), fiber, True


def ruled_base_count(spec: ManifoldSpec) -> int:
    """Closed-form count of base models (see polygon.count_toric_actions_ruled)."""
    if spec.base == CP2:
        return 1
    return pg.count_toric_actions_ruled(
        *_ruled_model_box(spec.base, spec.base_area, spec.fiber)
    )


# ---------------------------------------------------------------------------
# The census


def _expand(parents: dict, build, sites, blow, record) -> dict:
    """One induction step: blow every parent up at every site.

    parents, like every stage, maps canonical keys to provenance.  Each
    parent, in key order, is built by build(key) just before its sites are
    visited.  blow(parent, site) gives the child's key, or None for a
    refused site; record(provenance, site) gives the child's provenance
    from the parent's, and the first per key is kept in the new stage.
    """
    stage = {}
    for key in sorted(parents):
        parent = build(key)
        for site in sites(parent):
            child = blow(parent, site)
            if child is not None and child not in stage:
                stage[child] = record(parents[key], site)
    return stage


def _chop_all(parents: dict, delta, record, project) -> dict:
    """Every corner chop of capacity delta, by canonical vertices.  Each
    parent polygon is built once, and given to project(polygon) before it
    is chopped."""

    def build(vertices):
        polygon = pg._polygon(vertices)
        project(polygon)
        return polygon

    return _expand(
        parents,
        build,
        lambda polygon: range(polygon.edge_count),
        lambda polygon, i: (chop := pg._chop(polygon, i, delta)) and pg._canonical(chop)[0].vertices,
        record,
    )


def _blow_up_all(parents: dict, delta, record, maximal: bool = False) -> dict:
    """Every feasible equivariant blow-up of capacity delta, by key.

    A key is a table, so each parent is walked as its key, and its sites,
    and the provenance that records them, are the key's positions.  Each
    site asks `_feasible` once, and `_blow_up`, which refuses nothing, runs
    at the sites it admits; its table lives only until it is keyed.  With
    maximal set, a blow-up that extends to a toric action is refused
    before it is keyed, so only maximal circle actions are kept.
    """

    def blow(key, i):
        if cg._feasible(key, i, delta) is None:
            blown = cg._blow_up(key, i, delta)
            if not maximal or not cg._extends_to_toric(blown):
                return cg._key(blown)
        return None

    return _expand(parents, lambda key: key, lambda key: range(len(key[0])), blow, record)


def _step(recorded: Q):
    """The parent's provenance, one recorded blow-up longer.

    Every provenance recorded at a stage shares that stage's one
    `BlowUpStep` per site; a child is its parent's fields with the step
    appended, built without the frozen `__init__`.
    """
    steps = _Table(lambda site: BlowUpStep(recorded, site))

    def record(p, site):
        child = object.__new__(type(p))
        vars(child).update(vars(p), steps=p.steps + (steps[site],))
        return child

    return record


def _reduced_form(spec: ManifoldSpec) -> SymplecticData:
    """The recipe's homology form, Cremona-reduced on a cp2 base."""
    data = spec_to_symplectic(spec)
    if spec.base != CP2:
        return data
    lam, caps = cremona_reduced(data.lam, data.capacities)
    if (lam, caps) == (data.lam, data.capacities):
        return data
    return SymplecticData(data.basis, caps, lam=lam)


class _Table(dict):
    """One object per key: build(key), made on first use."""

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        self[key] = made = self.build(key)
        return made


def run_census(spec: ManifoldSpec) -> CensusResult:
    """Full toric and maximal-circle census of a recipe, with provenance.

    The census folds the recipe's SymplecticData (spec_to_symplectic, made
    and cone-checked with the recipe), Cremona-reduced on a cp2 base, so
    the answer depends on the manifold rather than on how the recipe names
    it; the result still carries the recipe as given, and its warnings.
    """
    warnings = _regime_warnings(spec)
    model = _reduced_form(spec)
    # The area covector is W / lcd.  Scaled by D = 2 lcd, every area of the
    # model, and half its fiber (a twisted model's half fiber), is an int;
    # a cp2 model has no fiber in its covector, and its fiber is 1.
    whole, lcd = model.integer_area
    scale, head = 2 * lcd, model.basis.base_rank
    area, fiber = 2 * whole[0], 2 * whole[1] if head == 2 else scale
    capacities = tuple((2 * w, c) for w, c in zip(whole[head:], model.capacities))
    seeds = _model_polygons(spec.base, area, fiber) if spec.rational_base else ()
    toric = {p.vertices: ToricProvenance(p, ()) for p in seeds}

    frontier: dict[tuple, CircleProvenance] = {}
    if not spec.rational_base:
        twisted = spec.base == TWISTED_RULED
        # Each admissible degree keeps the bottom section's area positive.
        for degree in count(1 if twisted else 0, 2):
            bottom = area - halve((degree - twisted) * fiber)
            if bottom <= 0:
                break
            key = cg._key(cg._ruled_base(spec.genus, degree, bottom, fiber))
            frontier[key] = CircleProvenance("ruled_base", 0, degree)

    def projector(stage: int, delta: int | None = None):
        # The graph of -xi is the mirror image: the same canonical key.
        # Past stage 0 only edges of length delta can give a new key.
        def project(polygon: pg.RationalPolygon) -> None:
            for edge in pg.edges(polygon):
                if delta is None or edge.rational_length == delta:
                    key = cg._key(cg._projected(polygon, edge.normal))
                    if key not in frontier:
                        frontier[key] = CircleProvenance(
                            "projection", stage, None, polygon, edge.normal
                        )

        return project

    # Projections extend, so they only seed later blow-ups; the last stage
    # keeps the blow-ups that do not extend (on a positive-genus base, all).
    # Stage i's polygons are projected as stage i + 1 chops them, after
    # stage i's blow-ups and before stage i + 1's.
    last, project = len(capacities), projector(0)
    for index, (delta, recorded) in enumerate(capacities, start=1):
        record = _step(recorded)
        toric = _chop_all(toric, delta, record, project)
        maximal = index == last and spec.rational_base
        frontier = _blow_up_all(frontier, delta, record, maximal)
        project = projector(index, delta)

    # One Fraction per scaled value, one component per (position, key entry)
    # and one polygon per vertex tuple, as toric entries and provenance
    # share polygons.
    value = _Table(lambda x: Q(x, scale))
    components = _Table(lambda item: cg._key_component(*item, value))
    unscaled = _Table(
        lambda vertices: pg._polygon(tuple((value[x], value[y]) for x, y in vertices))
    )

    def returned(key: tuple) -> cg.S1Graph:
        # Vertex ids are key positions: one component per (position, entry).
        verts, links = key
        return cg.S1Graph(tuple(components[item] for item in enumerate(verts)), links)

    toric_keys, circle_keys = sorted(toric), sorted(frontier)
    counts = ConjugacyCounts(len(toric), len(frontier), len(toric) + len(frontier))
    return CensusResult(
        spec=spec,
        toric=tuple(unscaled[key] for key in toric_keys),
        maximal_circles=tuple(returned(key) for key in circle_keys),
        counts=counts,
        toric_provenance=tuple(
            ToricProvenance(unscaled[p.base.vertices], p.steps)
            for p in (toric[key] for key in toric_keys)
        ),
        circle_provenance=tuple(
            p
            if p.polygon is None
            else CircleProvenance(
                p.origin, p.stage, p.degree, unscaled[p.polygon.vertices], p.xi, p.steps
            )
            for p in (frontier[key] for key in circle_keys)
        ),
        warnings=warnings,
    )


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
    name, area_key = ("cp2", "lambda") if kind == CP2 else ("ruled", "mu")
    if area_key not in base:
        raise FormatError(f"{name} base needs a '{area_key}' field")
    genus = base.get("genus", 0)
    if not is_int(genus):
        raise FormatError("genus must be an integer")
    fiber = parse_rational(base.get("fiber", "1"))
    return ManifoldSpec(kind, genus, parse_rational(base[area_key]), fiber, capacities)
