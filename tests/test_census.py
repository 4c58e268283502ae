"""Recipe validation, base models, census counts, feasibility, provenance.

Frozen count tables were produced by running the census engine once and
checking the small cells by hand against direct polygon and graph
enumeration; the tables here pin those runs exactly.
"""

import gc
import json
import random
import weakref
from dataclasses import fields
from fractions import Fraction as Q
from pathlib import Path

import pytest

from polygon_corpus import build_corpus
from test_bench_pins import workloads
from test_dh_oracle import GOLDEN, _fuzz_recipes, hook_census_builds
from torus_census import census
from torus_census import circle_graph as cg
from torus_census import homology as hm
from torus_census import polygon as pg
from torus_census.census import (
    BlowUpStep,
    CircleProvenance,
    ManifoldSpec,
    ToricProvenance,
    base_toric_actions,
    feasibility_report,
    replay_circle,
    replay_toric,
    ruled_base_count,
    run_census,
    spec_from_json,
    spec_to_json,
    spec_to_symplectic,
    _chop_all,
    _regime_warnings,
)
from torus_census.errors import CapacityError, FormatError, PreconditionError
from torus_census.homology import cremona_reduced


def plane(lam, *caps):
    return ManifoldSpec("cp2", 0, Q(lam), Q(1), tuple(Q(c) for c in caps))


def ruled(kind, genus, mu, *caps):
    return ManifoldSpec(kind, genus, Q(mu), Q(1), tuple(Q(c) for c in caps))


# ---------------------------------------------------------------------------
# Recipe validation


def test_spec_rejects_unknown_base():
    with pytest.raises(PreconditionError):
        ManifoldSpec("klein_bottle")


def test_spec_rejects_genus_on_plane():
    with pytest.raises(PreconditionError):
        ManifoldSpec("cp2", 1, Q(1))


def test_spec_rejects_negative_genus():
    with pytest.raises(PreconditionError):
        ManifoldSpec("product_ruled", -1, Q(1))


def test_spec_rejects_fiber_on_plane():
    with pytest.raises(PreconditionError):
        ManifoldSpec("cp2", 0, Q(1), Q(2))


def test_spec_rejects_unnormalized_fiber():
    with pytest.raises(PreconditionError):
        ManifoldSpec("product_ruled", 0, Q(2), Q(3))


def test_spec_rejects_nonpositive_area():
    with pytest.raises(PreconditionError):
        plane(0)


def test_spec_rejects_nonpositive_capacity():
    with pytest.raises(PreconditionError):
        plane(1, "1/3", 0)


def test_spec_rejects_increasing_capacities():
    with pytest.raises(PreconditionError):
        plane(1, "1/4", "1/3")


def test_spec_rejects_nonpositive_volume():
    # 1/2 - 7 * (2/5)^2 / 2 = -3/50.
    with pytest.raises(PreconditionError):
        plane(1, *["2/5"] * 7)


def test_spec_parses_string_fields():
    spec = ManifoldSpec("cp2", 0, "7/3", "1", ("1/3", "1/4"))
    assert spec.base_area == Q(7, 3)
    assert spec.capacities == (Q(1, 3), Q(1, 4))
    assert spec.blowups == 2


def test_spec_volume_and_perimeter():
    spec = plane(1, "1/3", "1/4", "1/5")
    volume = spec_to_symplectic(spec).volume_quantity() / 2
    assert volume == Q(1, 2) - (Q(1, 9) + Q(1, 16) + Q(1, 25)) / 2
    assert spec_to_symplectic(spec).chern_pairing() == 3 - Q(1, 3) - Q(1, 4) - Q(1, 5)
    spec = ruled("twisted_ruled", 1, "3/2")
    assert spec_to_symplectic(spec).volume_quantity() / 2 == Q(2)
    assert spec_to_symplectic(spec).chern_pairing() == 4
    assert not spec.rational_base
    assert ruled("product_ruled", 0, 2).rational_base


def _closed_form_volume(spec):
    """The volume by hand: lambda^2/2 on cp2, mu f on a product base and
    mu f + f^2/2 on a twisted one (its section squares to -1, so the dual
    of the area functional picks up a half fiber-square), less sum c^2/2."""
    mu, f = spec.base_area, spec.fiber
    if spec.base == "cp2":
        base = mu * mu / 2
    elif spec.base == "product_ruled":
        base = mu * f
    else:
        base = mu * f + f * f / 2
    return base - sum((c * c for c in spec.capacities), Q(0)) / 2


def test_spec_volume_matches_lattice_dual():
    # Half the volume quantity the homology layer reads off the Gram
    # inverse must give the hand-written closed form.
    specs = [
        plane(1, "1/3", "1/4"),
        plane("7/3"),
        ruled("product_ruled", 0, "5/2", "1/2"),
        ruled("product_ruled", 1, 1, "1/2"),
        ruled("product_ruled", 2, "5/2"),
        ruled("twisted_ruled", 0, "3/2", "1/2"),
        ruled("twisted_ruled", 1, "3/2"),
        ruled("twisted_ruled", 2, 3, "1/3", "1/4"),
    ]
    assert {spec.base for spec in specs} == set(census.BASE_KINDS)
    for spec in specs:
        volume = spec_to_symplectic(spec).volume_quantity() / 2
        assert volume == _closed_form_volume(spec), spec


def test_spec_to_symplectic_maps_bases():
    data = spec_to_symplectic(plane("7/3", "1/3"))
    assert data.basis.kind == "rational"
    assert data.lam == Q(7, 3)
    assert data.capacities == (Q(1, 3),)
    data = spec_to_symplectic(ruled("product_ruled", 2, "5/2", "1/2"))
    assert data.basis.kind == "product_ruled"
    assert data.basis.genus == 2
    assert data.mu == Q(5, 2)
    assert data.fiber == Q(1)


def test_spec_carries_one_form_outside_its_fields():
    # The form is built once, when the recipe is made; it is no field, so
    # equality, hashing and repr read the fields only.
    spec = plane("7/3", "1/3")
    assert spec_to_symplectic(spec) is spec_to_symplectic(spec)
    twin = plane("7/3", "1/3")
    assert spec_to_symplectic(twin) is not spec_to_symplectic(spec)
    assert twin == spec and hash(twin) == hash(spec)
    assert [f.name for f in fields(spec)] == [
        "base", "genus", "base_area", "fiber", "capacities"
    ]
    assert "SymplecticData" not in repr(spec)


# ---------------------------------------------------------------------------
# Base models before any blow-up


def test_plane_base_is_one_triangle():
    models = base_toric_actions(plane("7/3"))
    assert len(models) == 1
    assert pg.invariants(models[0]).euclidean_area == Q(49, 18)
    assert ruled_base_count(plane("7/3")) == 1


RULED_BASE_COUNTS = {
    Q(1): 1,
    Q(3, 2): 2,
    Q(2): 2,
    Q(5, 2): 3,
    Q(3): 3,
    Q(10, 3): 4,
}


def test_ruled_base_model_counts():
    for kind in ("product_ruled", "twisted_ruled"):
        for mu, expected in RULED_BASE_COUNTS.items():
            spec = ruled(kind, 0, mu)
            models = base_toric_actions(spec)
            assert len(models) == expected, (kind, mu)
            assert ruled_base_count(spec) == expected, (kind, mu)
    # A twisted base with mu < 1/2 has models narrower than they are high.
    narrow = ruled("twisted_ruled", 0, Q(1, 3))
    assert ruled_base_count(narrow) == len(base_toric_actions(narrow)) == 1


def test_ruled_base_models_are_canonical_and_distinct():
    for kind in ("product_ruled", "twisted_ruled"):
        spec = ruled(kind, 0, "10/3")
        models = base_toric_actions(spec)
        seen = set()
        for polygon in models:
            assert pg.canonical_form(polygon)[0].vertices == polygon.vertices
            assert polygon.vertices not in seen
            seen.add(polygon.vertices)
            assert polygon.edge_count == 4
            data = pg.invariants(polygon)
            volume = spec_to_symplectic(spec).volume_quantity() / 2
            assert data.euclidean_area == volume
            assert data.perimeter == spec_to_symplectic(spec).chern_pairing()


def test_positive_genus_has_no_toric_models():
    assert base_toric_actions(ruled("product_ruled", 1, 2)) == ()


# ---------------------------------------------------------------------------
# Frozen census counts


def test_plane_three_distinct_blowups():
    result = run_census(plane(1, "1/3", "1/4", "1/5"))
    assert result.counts == (8, 0, 8)
    assert result.warnings == ()


def test_twisted_genus_one_counts():
    result = run_census(ruled("twisted_ruled", 1, "3/2"))
    assert result.counts == (0, 2, 2)
    assert result.warnings == ("no toric actions on a positive-genus base",)


def test_product_genus_one_blowup_counts():
    result = run_census(ruled("product_ruled", 1, 1, "1/2"))
    assert result.counts == (0, 1, 1)


def test_product_genus_two_counts():
    result = run_census(ruled("product_ruled", 2, "5/2"))
    assert result.counts == (0, 3, 3)
    assert result.warnings == ("no toric actions on a positive-genus base",)


# Equal-capacity grid on the unit plane: rows are blow-up counts 1..5,
# columns are capacities 1/5, 1/4, 3/10, 1/3, 2/5.  None marks the cell
# (5, 2/5), which lies outside the symplectic cone: 2L - E1 - ... - E5
# has area 2 - 5 * 2/5 = 0.  The maximal-circle counts at (3, 2/5) and
# (4, 2/5) equal those of the S2 x S2 presentation of the same manifold.
GRID_DELTAS = (Q(1, 5), Q(1, 4), Q(3, 10), Q(1, 3), Q(2, 5))
GRID_TORIC = {
    1: (1, 1, 1, 1, 1),
    2: (1, 1, 1, 1, 1),
    3: (1, 1, 1, 1, 1),
    4: (0, 0, 0, 0, 0),
    5: (0, 0, 0, 0, None),
}
GRID_MAXIMAL = {
    1: (0, 0, 0, 0, 0),
    2: (0, 0, 0, 0, 0),
    3: (1, 1, 1, 0, 1),
    4: (2, 1, 1, 0, 1),
    5: (1, 0, 0, 0, None),
}


def grid_counts():
    table = {}
    for k in GRID_TORIC:
        for column, delta in enumerate(GRID_DELTAS):
            if GRID_TORIC[k][column] is not None:
                table[k, delta] = run_census(plane(1, *[delta] * k)).counts
    return table


def test_equal_capacity_grid():
    table = grid_counts()
    for k in GRID_TORIC:
        for column, delta in enumerate(GRID_DELTAS):
            if GRID_TORIC[k][column] is None:
                with pytest.raises(PreconditionError):
                    run_census(plane(1, *[delta] * k)).counts
                continue
            counts = table[k, delta]
            assert counts.toric_count == GRID_TORIC[k][column], (k, delta)
            assert counts.maximal_circle_count == GRID_MAXIMAL[k][column], (k, delta)
            total = counts.toric_count + counts.maximal_circle_count
            assert counts.total_maximal_tori == total


def test_grid_circle_existence_boundary():
    # Some circle action survives exactly when (k - 1) * delta < 1, on
    # every cell inside the cone but one: at (4, 2/5) a maximal circle
    # action exists although (k - 1) * delta = 6/5.
    table = grid_counts()
    assert len(table) == 24
    for (k, delta), counts in table.items():
        if (k, delta) == (4, Q(2, 5)):
            assert (k - 1) * delta == Q(6, 5)
            assert counts.maximal_circle_count > 0
            continue
        assert (counts.total_maximal_tori > 0) == ((k - 1) * delta < 1), (k, delta)


def _serials(result):
    return [cg.canonical_serialization(g) for g in result.maximal_circles]


def test_cremona_equivalent_recipes_agree():
    # (1; 2/5, 2/5, 2/5) and its Cremona transform (4/5; 1/5, 1/5, 1/5)
    # name one manifold; only the second is reduced.
    given = run_census(plane(1, "2/5", "2/5", "2/5"))
    transformed = run_census(plane("4/5", "1/5", "1/5", "1/5"))
    assert given.counts == transformed.counts == (1, 1, 2)
    assert [p.vertices for p in given.toric] == [
        p.vertices for p in transformed.toric
    ]
    assert _serials(given) == _serials(transformed)
    assert given.spec == plane(1, "2/5", "2/5", "2/5")


def _doubled_polygon(polygon):
    return pg.RationalPolygon(tuple((2 * x, 2 * y) for x, y in polygon.vertices))


def _doubled_graph(graph):
    components = tuple(
        cg.FixedComponent(
            v.id, 2 * v.moment, v.weights, v.genus, None if v.area is None else 2 * v.area
        )
        for v in graph.vertices
    )
    return cg.S1Graph(components, graph.edges)


# Distinct prime denominators near 2**31: the census scale exceeds 2**64.
BIG_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579)
WIDE_CAPS = tuple(
    sorted((Q(p // d, p) for p, d in zip(BIG_PRIMES, (3, 3, 4, 5))), reverse=True)
)


def test_census_is_scale_invariant():
    # Every polygon and graph of cp2(2 lam; 2c...) is twice one of cp2(lam; c...).
    for caps in (["2/5"] * 3, ["2/5"] * 4, ["1/3", "1/4", "1/5"], WIDE_CAPS):
        result = run_census(plane(1, *caps))
        doubled = run_census(plane(2, *(2 * Q(c) for c in caps)))
        assert result.counts == doubled.counts, caps
        assert doubled.toric == tuple(_doubled_polygon(p) for p in result.toric)
        assert doubled.maximal_circles == tuple(
            _doubled_graph(g) for g in result.maximal_circles
        )


def test_census_with_scale_beyond_64_bits():
    spec = plane(1, *WIDE_CAPS)
    assert 2 * BIG_PRIMES[0] * BIG_PRIMES[1] * BIG_PRIMES[2] > 2**64
    result = run_census(spec)
    assert result.counts == (25, 6, 31)
    for polygon, provenance in zip(result.toric, result.toric_provenance):
        assert all(type(c) is Q for point in polygon.vertices for c in point)
        assert replay_toric(provenance).vertices == polygon.vertices
    for graph, provenance in zip(result.maximal_circles, result.circle_provenance):
        assert all(type(v.moment) is Q for v in graph.vertices)
        assert all(type(step.delta) is Q for step in provenance.steps)
        replayed = replay_circle(spec, provenance)
        assert cg.canonical_serialization(replayed) == cg.canonical_serialization(graph)


def test_reduced_provenance_replays():
    for k in (3, 4):
        spec = plane(1, *["2/5"] * k)
        result = run_census(spec)
        assert result.counts.total_maximal_tori > 0
        for polygon, provenance in zip(result.toric, result.toric_provenance):
            assert replay_toric(provenance).vertices == polygon.vertices
        for graph, provenance in zip(result.maximal_circles, result.circle_provenance):
            replayed = replay_circle(spec, provenance)
            assert cg.canonical_serialization(
                replayed
            ) == cg.canonical_serialization(graph)


def test_recipes_outside_cone_are_rejected():
    # 2L - E1 - ... - E5 has area 0, and so has L - E1 - E2 below.
    for caps in (["2/5"] * 5, ["1/2", "1/2"]):
        with pytest.raises(PreconditionError):
            plane(1, *caps)


def test_ruled_recipes_outside_cone_are_rejected():
    for recipe in (
        ("product_ruled", 0, "1/2", "3/4"),  # S - E1 has area -1/4
        ("product_ruled", 0, "2", "1"),  # F - E1 has area 0
        ("twisted_ruled", 0, "1/2", "3/4", "3/4"),  # L - E1 - E2 has area 0
        ("product_ruled", 1, "3", "3/2"),  # F - E1 has area -1/2
        ("twisted_ruled", 2, "3", "1"),  # F - E1 has area 0
    ):
        with pytest.raises(PreconditionError, match="outside the symplectic cone"):
            ruled(*recipe)


def test_random_ruled_recipes_are_censused_or_refused():
    # Every ruled recipe either runs, with toric entries of the recipe's
    # volume, or is refused where it is made, by its volume or by the cone;
    # a genus-0 product recipe with one cap refused by the cone has
    # d >= min(mu, 1).
    rng = random.Random(73)
    outcomes = {"censused": 0, "outside the cone": 0}
    for _ in range(40):
        kind = rng.choice(("product_ruled", "twisted_ruled"))
        genus = rng.choice((0, 0, 1))
        mu = Q(rng.randrange(1, 9), rng.randrange(1, 4))
        caps = sorted(
            (Q(rng.randrange(1, 7), rng.randrange(2, 7)) for _ in range(rng.randrange(1, 3))),
            reverse=True,
        )
        try:
            spec = ruled(kind, genus, mu, *caps)
        except PreconditionError as error:
            if "outside the symplectic cone" not in str(error):
                assert str(error) == "recipe volume must be positive"
                continue
            outcomes["outside the cone"] += 1
            if kind == "product_ruled" and genus == 0 and len(caps) == 1:
                assert caps[0] >= min(mu, 1)
            continue
        outcomes["censused"] += 1
        volume = spec_to_symplectic(spec).volume_quantity() / 2
        for polygon in run_census(spec).toric:
            assert pg.invariants(polygon).euclidean_area == volume
    assert all(outcomes.values()), outcomes


# ---------------------------------------------------------------------------
# Census entry invariants


def test_toric_entries_carry_recipe_bookkeeping():
    spec = plane(1, "1/3", "1/4", "1/5")
    result = run_census(spec)
    for polygon in result.toric:
        data = pg.invariants(polygon)
        assert data.euclidean_area == spec_to_symplectic(spec).volume_quantity() / 2
        assert data.perimeter == spec_to_symplectic(spec).chern_pairing()
        assert polygon.edge_count == 3 + spec.blowups
        assert pg.canonical_form(polygon)[0].vertices == polygon.vertices


def test_circle_entries_are_canonical_and_not_toric():
    result = run_census(ruled("twisted_ruled", 1, "3/2", "1/4"))
    assert result.counts.maximal_circle_count == 4
    for graph in result.maximal_circles:
        assert not cg.extends_to_toric(graph)
        canonical = cg.canonical_form(graph)
        assert cg.canonical_serialization(canonical) == cg.canonical_serialization(
            graph
        )


def _result_graph_recipes():
    # The golden recipes, then seeded in-cone recipes over all three bases:
    # genus 0-2 on ruled bases, 0-4 capacities from a few small fractions.
    golden = json.loads((Path(__file__).parent / "census_golden.json").read_text())
    specs = [spec_from_json(row["spec"]) for row in golden]
    rng = random.Random(15)
    pool = [Q(1, q) for q in range(3, 9)] + [Q(2, 7), Q(3, 10)]
    while len(specs) < len(golden) + 30:
        caps = sorted((rng.choice(pool) for _ in range(rng.randint(0, 4))), reverse=True)
        kind = rng.choice(("cp2", "product_ruled", "twisted_ruled"))
        try:
            if kind == "cp2":
                spec = plane(rng.choice((1, Q(3, 2), 2)), *caps)
            else:
                spec = ruled(kind, rng.randint(0, 2), rng.choice((1, Q(3, 2), 2)), *caps)
            spec_to_symplectic(spec)
        except PreconditionError:
            continue
        specs.append(spec)
    return specs


def test_result_graphs_are_their_own_canonical_forms():
    # Returned graphs are built from their keys, not by canonical_form.
    seen = 0
    for spec in _result_graph_recipes():
        for graph in run_census(spec).maximal_circles:
            canonical = cg.canonical_form(graph)
            assert (canonical.vertices, canonical.edges) == (graph.vertices, graph.edges)
            seen += 1
    assert seen > 300


def test_counts_match_entry_lengths():
    for spec in (plane(1, "1/4", "1/4", "1/4"), ruled("product_ruled", 1, 2, "1/3")):
        result = run_census(spec)
        assert result.counts.toric_count == len(result.toric)
        assert result.counts.maximal_circle_count == len(result.maximal_circles)
        assert len(result.toric_provenance) == len(result.toric)
        assert len(result.circle_provenance) == len(result.maximal_circles)


def test_toric_provenance_replays():
    result = run_census(plane(1, "1/3", "1/4", "1/5"))
    for polygon, provenance in zip(result.toric, result.toric_provenance):
        assert len(provenance.steps) == 3
        assert replay_toric(provenance).vertices == polygon.vertices


def test_circle_provenance_replays():
    spec = ruled("twisted_ruled", 1, "3/2", "1/4")
    result = run_census(spec)
    for graph, provenance in zip(result.maximal_circles, result.circle_provenance):
        replayed = replay_circle(spec, provenance)
        assert cg.canonical_serialization(replayed) == cg.canonical_serialization(
            graph
        )


def test_projection_provenance_replays():
    spec = plane(1, "1/5", "1/5", "1/5", "1/5")
    result = run_census(spec)
    assert result.counts.maximal_circle_count == 2
    for graph, provenance in zip(result.maximal_circles, result.circle_provenance):
        assert provenance.origin == "projection"
        replayed = replay_circle(spec, provenance)
        assert cg.canonical_serialization(replayed) == cg.canonical_serialization(
            graph
        )


def test_census_is_deterministic():
    spec = plane(1, "1/5", "1/5", "1/5", "1/5")
    first = run_census(spec)
    second = run_census(spec)
    assert [p.vertices for p in first.toric] == [p.vertices for p in second.toric]
    assert [cg.canonical_serialization(g) for g in first.maximal_circles] == [
        cg.canonical_serialization(g) for g in second.maximal_circles
    ]


@pytest.mark.parametrize(
    "spec",
    [
        plane(1, "1/3", "1/4", "1/5"),
        ruled("product_ruled", 2, 2, "1/3", "1/4", "1/5"),
    ],
)
def test_census_diagnoses_nothing_and_keys_each_graph_once(monkeypatch, spec):
    # The census builds every graph table through the unchecked cores of
    # circle_graph and validates none.  It asks the toric verdict only of
    # the last stage's blow-ups on a rational base, and keys each table it
    # builds once, by cg._key, but for those that extend, which it drops.
    # It walks each parent as the key it is stored under, so no other
    # table is keyed.  It chops polygons through the cores of polygon and
    # checks none of them either.
    keyed, judged, diagnosed, checked = [], [], [], []

    def counted(module, name, calls):
        # Records the graph or polygon each call is given.
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    run = hook_census_builds(monkeypatch)
    extends = cg._extends_to_toric
    counted(cg, "_key", keyed)
    counted(cg, "_extends_to_toric", judged)
    counted(cg, "_diagnose", diagnosed)
    counted(pg, "is_delzant", checked)
    _, built = run(spec)
    assert diagnosed == []
    assert checked == []
    last = [t for _, stage, t in built if stage == spec.blowups and spec.rational_base]
    dropped = {id(t) for t in last if extends(t)}
    assert sorted(map(id, judged)) == sorted(map(id, last))
    assert bool(dropped) == spec.rational_base
    assert sorted(map(id, keyed)) == sorted(id(t) for _, _, t in built if id(t) not in dropped)


def test_feasible_is_asked_once_per_site_and_blow_up_refuses_nothing(monkeypatch):
    # `_feasible` alone decides a blow-up site and `_blow_up` refuses
    # nothing.  The public blow_up asks `_feasible` once, whether it blows
    # up or refuses.  The census calls `_blow_up` at exactly the sites
    # `_feasible` admits, once each; no `_blow_up` returns None.
    feasible, blow = cg._feasible, cg._blow_up
    verdicts, blown = [], []

    def asked(*args):
        verdicts.append(feasible(*args))
        return verdicts[-1]

    def blown_up(*args):
        assert feasible(*args) is None
        blown.append(blow(*args))
        return blown[-1]

    monkeypatch.setattr(cg, "_feasible", asked)
    monkeypatch.setattr(cg, "_blow_up", blown_up)
    graph = cg.graph_from_polygon(
        pg.RationalPolygon(((0, 0), (1, 0), (1, 1), (0, 1))), (1, 2)
    )
    bottom = min(graph.vertices, key=lambda v: v.moment).id
    cg.blow_up(graph, bottom, Q(1, 4))
    assert (len(verdicts), len(blown)) == (1, 1)
    with pytest.raises(CapacityError):
        cg.blow_up(graph, bottom, Q(2))
    assert (len(verdicts), len(blown)) == (2, 1)

    for spec in (plane(1, "1/3", "1/4", "1/5"), ruled("product_ruled", 1, 2, "1/3", "1/4", "1/5")):
        verdicts.clear()
        blown.clear()
        run_census(spec)
        admitted = verdicts.count(None)
        assert 0 < admitted < len(verdicts)
        assert len(blown) == admitted
        assert None not in blown


class _Tracked(list):
    """A table as a list, which, unlike a tuple, can be weakly referenced."""


def test_no_built_graph_outlives_its_stage(monkeypatch):
    # A stage stores keys, not polygons or graph tables.  When a stage's
    # blow-ups begin, every table built before them (the previous stage's
    # blow-ups, the projections and ruled seeds) is gone, and when a
    # stage's chops begin, every canonical polygon the earlier chops gave
    # is gone, freed by reference counting alone; once the census returns,
    # every table and chop it built is gone.  A stage walks its parents as
    # their keys: no graph is built from a key or any other table.
    built, stage, alive = [], [0], []
    chopped, chopping = [], [False]
    graphs = []
    blow_up_all, chop_all = census._blow_up_all, census._chop_all
    graph, canonical = cg._graph, pg._canonical

    def rebuilt(*args):
        graphs.append(args[0])
        return graph(*args)

    def staged(*args):
        stage[0] += 1
        alive.extend((spec, i) for ref, i in built if ref() is not None)
        return blow_up_all(*args)

    def chop_staged(*args):
        alive.extend((spec, "chop", i) for ref, i in chopped if ref() is not None)
        chopping[0] = True
        chops = chop_all(*args)
        chopping[0] = False
        return chops

    def canonical_recorded(polygon):
        result = canonical(polygon)
        if chopping[0]:
            chopped.append((weakref.ref(result[0]), stage[0]))
        return result

    monkeypatch.setattr(census, "_blow_up_all", staged)
    monkeypatch.setattr(census, "_chop_all", chop_staged)
    monkeypatch.setattr(cg, "_graph", rebuilt)
    monkeypatch.setattr(pg, "_canonical", canonical_recorded)
    for name in ("_blow_up", "_projected", "_ruled_base"):

        def recorded(*args, original=getattr(cg, name)):
            tracked = _Tracked(original(*args))
            built.append((weakref.ref(tracked), stage[0]))
            return tracked

        monkeypatch.setattr(cg, name, recorded)

    specs = [spec_from_json(row["spec"]) for row in GOLDEN]
    assert {spec.base for spec in specs} == set(census.BASE_KINDS)
    checked, polygons, stages = 0, 0, 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for spec in specs:
            built.clear()
            chopped.clear()
            stage[0] = 0
            run_census(spec)
            alive.extend((spec, "returned") for ref, _ in built if ref() is not None)
            alive.extend((spec, "chop") for ref, _ in chopped if ref() is not None)
            checked += len(built)
            polygons += len(chopped)
            stages += stage[0]
    finally:
        if enabled:
            gc.enable()
    assert alive == []
    assert graphs == []
    assert stages == sum(spec.blowups for spec in specs)
    assert checked > 900
    assert polygons > 150


@pytest.mark.parametrize(
    "spec",
    [
        plane(1, "1/3", "1/4", "1/5"),
        ruled("product_ruled", 2, 2, "1/3", "1/4", "1/5"),
        ruled("twisted_ruled", 1, "5/2", "1/3", "1/4"),
    ],
)
def test_census_formats_and_parses_nothing(monkeypatch, spec):
    # The ruled seed degrees are bounded by the bottom section area, not by
    # catching ruled_base_graph's refusal, whose text would be discarded;
    # a corner too close to an edge's end is refused with no text either.
    # Canonical polygons come without the checked map, which parses its
    # translation.
    calls = []
    for module, name in (
        (cg, "format_rational"),
        (cg, "parse_exact"),
        (census, "format_rational"),
        (pg, "format_rational"),
        (pg, "UnimodularAffineMap"),
    ):
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    result = run_census(spec)
    assert calls == []
    assert result.counts.total_maximal_tori > 0


@pytest.mark.parametrize(
    "spec, reductions, lam",
    [
        # The recipe was cone-checked when it was made, so the census runs
        # only cremona_reduced on a cp2 recipe and no reduction otherwise.
        # Already reduced: no second form.
        (plane(1, "1/3", "1/4"), 1, Q(1)),
        # Reduced to line area 4/5: the reduced form is built and checked.
        (plane(1, "2/5", "2/5", "2/5"), 2, Q(4, 5)),
        (ruled("product_ruled", 1, 1, "1/3"), 0, None),
        (ruled("product_ruled", 0, 1, "1/3"), 0, None),
    ],
)
def test_census_cremona_reductions_per_recipe(monkeypatch, spec, reductions, lam):
    calls = []
    reduce = hm._cremona_reduce

    def counted(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(hm, "_cremona_reduce", counted)
    model = census._reduced_form(spec)
    assert (len(calls), model.lam) == (reductions, lam)
    calls.clear()
    run_census(spec)
    assert len(calls) == reductions


def _reference_census(spec):
    """Toric and maximal-circle entries, projecting every edge of every stage.

    Public polygon and graph calls on Fractions: a reference for the
    census's rule of projecting later stages along new edges only.
    """
    if spec.base == "cp2":
        lam, caps = cremona_reduced(spec.base_area, spec.capacities)
        spec = ManifoldSpec("cp2", 0, lam, Q(1), caps)
    toric = {p.vertices: (p, ToricProvenance(p, ())) for p in base_toric_actions(spec)}
    frontier = {}

    def project(stage):
        for key in sorted(toric):
            polygon = toric[key][0]
            for edge in pg.edges(polygon):
                graph = cg.canonical_form(cg.graph_from_polygon(polygon, edge.normal))
                provenance = CircleProvenance("projection", stage, None, polygon, edge.normal)
                frontier.setdefault(cg.canonical_serialization(graph), (graph, provenance))

    def expand(parents, sites, blow, key, record):
        stage = {}
        for parent_key in sorted(parents):
            parent, provenance = parents[parent_key]
            for site in sites(parent):
                try:
                    child = blow(parent, site)
                except CapacityError:
                    continue
                stage.setdefault(key(child), (child, record(provenance, site)))
        return stage

    project(0)
    for index, delta in enumerate(spec.capacities, start=1):
        toric = expand(
            toric, lambda p: range(p.edge_count),
            lambda p, i: pg.canonical_form(pg.blow_up(p, i, delta))[0],
            lambda p: p.vertices,
            lambda p, i: ToricProvenance(p.base, p.steps + (BlowUpStep(delta, i),)),
        )
        frontier = expand(
            frontier, lambda g: [v.id for v in g.vertices],
            lambda g, i: cg.canonical_form(cg.blow_up(g, i, delta)),
            cg.canonical_serialization,
            lambda p, i: CircleProvenance(
                p.origin, p.stage, None, p.polygon, p.xi, p.steps + (BlowUpStep(delta, i),)
            ),
        )
        project(index)
    circles = [frontier[k] for k in sorted(frontier) if not cg.extends_to_toric(frontier[k][0])]
    return [toric[k] for k in sorted(toric)], circles


def _oracle_recipes():
    # Genus-0 recipes of every base with 1-4 capacities: drawn from the
    # unit fractions 1/2 ... 1/8, 2/5 and 3/8, often with an equal pair,
    # on line areas that leave some cp2 recipes unreduced; plus the
    # bench's band.  spec_to_symplectic refuses recipes outside the cone.
    fixed = [
        plane(1, "2/5", "2/5", "2/5"),
        plane(1, "1/3", "1/3", "1/3", "1/3"),
        plane(1, "1/2", "1/3", "1/4"),
        ruled("product_ruled", 0, 1, "1/2", "1/3", "1/3"),
        ruled("twisted_ruled", 0, "1/2", "3/8", "1/4", "1/4"),
        plane(1, "13/89", "11/83", "7/61", "5/53"),
    ]
    rng = random.Random(12)
    pool = [Q(1, q) for q in range(2, 9)] + [Q(2, 5), Q(3, 8)]
    drawn = []
    while len(drawn) < 24:
        caps = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        if len(caps) == 4 or rng.random() < 0.5:
            caps[-1] = caps[0]
        caps.sort(reverse=True)
        kind = rng.choice(("cp2", "cp2", "product_ruled", "twisted_ruled"))
        try:
            if kind == "cp2":
                spec = plane(rng.choice((1, Q(3, 4), Q(3, 2))), *caps)
            else:
                spec = ruled(kind, 0, rng.choice((1, Q(3, 4), Q(1, 2))), *caps)
            spec_to_symplectic(spec)
        except PreconditionError:
            continue
        drawn.append(spec)
    return fixed + drawn


def test_census_matches_the_reference_that_projects_every_edge():
    for spec in _oracle_recipes():
        result = run_census(spec)
        toric, circles = _reference_census(spec)
        assert result.toric == tuple(p for p, _ in toric), spec
        assert result.toric_provenance == tuple(p for _, p in toric), spec
        assert result.maximal_circles == tuple(g for g, _ in circles), spec
        assert result.circle_provenance == tuple(p for _, p in circles), spec
        assert result.counts == (len(toric), len(circles), len(toric) + len(circles))


def test_census_projects_later_stages_along_new_edges_only(monkeypatch):
    # Stage 0 projects every edge; a later stage k only edges of length
    # delta_k, here also the earlier chop's edges of the equal capacity 1/4.
    # The last stage projects none: a projection extends to its toric
    # action, so it only seeds later blow-ups.
    spec = ruled("product_ruled", 0, 1, "1/3", "1/4", "1/4")
    polygons = base_toric_actions(spec)
    expected = every_edge = sum(p.edge_count for p in polygons)
    for index, delta in enumerate(spec.capacities, start=1):
        parents = dict.fromkeys(p.vertices for p in polygons)
        chops = _chop_all(parents, delta, lambda *_: None, lambda polygon: None)
        polygons = [pg._polygon(key) for key in chops]
        lengths = [e.rational_length for p in polygons for e in pg.edges(p)]
        if index < spec.blowups:
            expected += lengths.count(delta)
        every_edge += len(lengths)
    projections = []
    project = cg._projected

    def counted_projection(polygon, xi):
        projections.append(xi)
        return project(polygon, xi)

    monkeypatch.setattr(cg, "_projected", counted_projection)
    run_census(spec)
    assert len(projections) == expected < every_edge


def test_every_projection_extends_to_a_toric_action():
    # The census projects only to seed blow-ups and keeps no projection:
    # the circle of a projection is a subaction of the polygon's torus.
    golden = [spec_from_json(row["spec"]) for row in GOLDEN]
    polygons = build_corpus() + [p for spec in golden for p in run_census(spec).toric]
    projections = [cg._projected(p, e.normal) for p in polygons for e in pg.edges(p)]
    assert len(projections) > 800
    assert all(cg._extends_to_toric(graph) for graph in projections)


def test_a_last_stage_blow_up_with_a_surface_extends_iff_it_is_a_projection(monkeypatch):
    # A circle action with a fixed surface extends to a toric action exactly
    # when it is the projection of one of the manifold's toric polygons along
    # an edge normal.  Where the toric census is complete, that is an oracle
    # for the verdict that shares neither Karshon's count nor a level scan.
    # The census keys graphs in its units, the recipe's scaled by D = 2 lcd.
    specs = [
        plane(1, "1/3", "1/4", "1/5"),
        plane(1, "1/6", "2/13", "1/7", "2/15"),
        ruled("product_ruled", 0, 1, "1/6", "2/13"),
        ruled("twisted_ruled", 0, 2, "1/2", "1/3"),
    ]
    specs += [
        spec_from_json(request["recipe"])
        for request in workloads.generate("rational_fold", 0)
    ]
    run = hook_census_builds(monkeypatch)
    verdicts = []
    for spec in specs:
        result, built = run(spec)
        scale = 2 * census._reduced_form(spec).integer_area[1]
        projections = set()
        for polygon in result.toric:
            scaled = pg._polygon(tuple((x * scale, y * scale) for x, y in polygon.vertices))
            projections |= {cg._key(cg._projected(scaled, e.normal)) for e in pg.edges(scaled)}
        for graph, stage, table in built:
            if stage == spec.blowups and any(v.is_surface for v in graph.vertices):
                verdicts.append(cg._extends_to_toric(table))
                assert verdicts[-1] == (cg._key(table) in projections)
    assert len(verdicts) > 900 and verdicts.count(False) > 10


def test_no_graph_a_positive_genus_census_builds_extends(monkeypatch):
    # A blow-up keeps the genus-g surfaces of a ruled base, so the census
    # asks no toric verdict on a positive-genus base.
    specs = [spec_from_json(row["spec"]) for row in GOLDEN]
    specs += _fuzz_recipes(0, 30) + _fuzz_recipes(1, 30)
    run = hook_census_builds(monkeypatch)
    built = [t for spec in specs if not spec.rational_base for _, _, t in run(spec)[1]]
    assert len(built) > 1200
    assert not any(cg._extends_to_toric(table) for table in built)


def test_a_recipe_with_no_blow_ups_keeps_only_ruled_bases():
    # Every model projection extends, so a rational base with no blow-ups
    # has no maximal circle; a positive-genus one keeps its ruled bases.
    for spec in (plane(1), plane(3), ruled("product_ruled", 0, 2), ruled("twisted_ruled", 0, 2)):
        result = run_census(spec)
        assert result.maximal_circles == result.circle_provenance == ()
        assert result.counts.toric_count == len(base_toric_actions(spec)) > 0
    for spec, degrees in (
        (ruled("product_ruled", 2, "5/2"), (0, 2, 4)),
        (ruled("twisted_ruled", 1, "3/2"), (1, 3)),
    ):
        result = run_census(spec)
        assert sorted(p.degree for p in result.circle_provenance) == list(degrees)
        for graph, provenance in zip(result.maximal_circles, result.circle_provenance):
            assert (provenance.origin, provenance.steps) == ("ruled_base", ())
            assert replay_circle(spec, provenance) == graph


# ---------------------------------------------------------------------------
# Regime warnings


def test_no_warning_for_small_capacities():
    assert _regime_warnings(plane(1, "1/4", "1/4")) == ()


def test_case_analysis_warning():
    assert _regime_warnings(plane(1, "2/5", "2/5")) == (
        "case-analysis regime: some capacity exceeds a third of the line area",
    )


def test_many_large_blowups_warning():
    spec = plane(3, "11/10", *["1/10"] * 8)
    assert _regime_warnings(spec) == (
        "outside certified validity: more than eight blow-ups with large capacities",
    )


def test_many_ruled_blowups_warning():
    spec = ruled("product_ruled", 0, 1, *["1/10"] * 9)
    assert _regime_warnings(spec) == (
        "outside certified validity: more than eight blow-ups",
    )


def test_positive_genus_warning_travels_through_census():
    result = run_census(ruled("product_ruled", 1, 1))
    assert result.warnings == ("no toric actions on a positive-genus base",)


# ---------------------------------------------------------------------------
# Feasibility reports


def test_feasibility_all_agree_inside_regime():
    report = feasibility_report(plane(1, "1/4", "1/4", "1/4"))
    assert report.blowups == 3
    assert report.delta == Q(1, 4)
    assert report.toric_formula and report.circle_formula
    assert report.toric_nonempty and report.maximal_circle_nonempty
    assert report.toric_agrees
    assert report.circle_agrees_existence and report.circle_agrees_maximal
    assert report.warnings == ()


def test_feasibility_four_blowups():
    report = feasibility_report(plane(1, *["1/4"] * 4))
    assert not report.toric_formula
    assert report.circle_formula
    assert not report.toric_nonempty
    assert report.maximal_circle_nonempty
    assert report.toric_agrees
    assert report.circle_agrees_existence and report.circle_agrees_maximal


def test_feasibility_outside_regime_disagrees():
    report = feasibility_report(plane(1, "2/5", "2/5"))
    assert not report.toric_formula
    assert report.circle_formula
    assert report.toric_nonempty
    assert not report.maximal_circle_nonempty
    assert report.any_circle_nonempty
    assert not report.toric_agrees
    assert report.circle_agrees_existence
    assert not report.circle_agrees_maximal
    assert report.warnings == (
        "case-analysis regime: some capacity exceeds a third of the line area",
    )


def test_feasibility_empty_cell():
    report = feasibility_report(plane(1, *["1/4"] * 5))
    assert not report.circle_formula
    assert not report.any_circle_nonempty
    assert report.toric_agrees
    assert report.circle_agrees_existence and report.circle_agrees_maximal


def test_feasibility_requires_plane_base():
    with pytest.raises(PreconditionError):
        feasibility_report(ruled("product_ruled", 0, 2, "1/2"))


def test_feasibility_requires_blowups():
    with pytest.raises(PreconditionError):
        feasibility_report(plane(1))


def test_feasibility_requires_equal_capacities():
    with pytest.raises(PreconditionError):
        feasibility_report(plane(1, "1/3", "1/4"))


# ---------------------------------------------------------------------------
# Recipe serialization


def test_plane_spec_json_round_trip():
    spec = plane("7/3", "1/3", "1/4")
    payload = spec_to_json(spec)
    assert payload == {
        "base": {"kind": "cp2", "lambda": "7/3"},
        "capacities": ["1/3", "1/4"],
    }
    assert spec_from_json(payload) == spec


def test_ruled_spec_json_round_trip():
    spec = ruled("twisted_ruled", 2, "5/2", "1/2")
    payload = spec_to_json(spec)
    assert payload == {
        "base": {"kind": "twisted_ruled", "genus": 2, "mu": "5/2", "fiber": "1"},
        "capacities": ["1/2"],
    }
    assert spec_from_json(payload) == spec


def test_spec_json_defaults():
    spec = spec_from_json({"base": {"kind": "product_ruled", "mu": "2"}})
    assert spec.genus == 0
    assert spec.fiber == Q(1)
    assert spec.capacities == ()


def test_spec_json_rejects_bad_payloads():
    for payload in (
        [],
        {},
        {"base": "cp2"},
        {"base": {}},
        {"base": {"kind": "moebius"}},
        {"base": {"kind": "cp2"}},
        {"base": {"kind": "cp2", "lambda": "1"}, "capacities": "1/2"},
        {"base": {"kind": "product_ruled"}},
        {"base": {"kind": "product_ruled", "mu": "2", "genus": "one"}},
    ):
        with pytest.raises(FormatError):
            spec_from_json(payload)
