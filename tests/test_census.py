"""Recipe validation, base models, census counts, feasibility, provenance.

Frozen count tables were produced by running the census engine once and
checking the small cells by hand against direct polygon and graph
enumeration; the tables here pin those runs exactly.
"""

import random
from fractions import Fraction as Q

import pytest

from torus_census import circle_graph as cg
from torus_census import polygon as pg
from torus_census.census import (
    ManifoldSpec,
    base_toric_actions,
    circle_census,
    count_conjugacy_classes,
    feasibility_report,
    replay_circle,
    replay_toric,
    ruled_base_count,
    run_census,
    spec_from_json,
    spec_to_json,
    spec_to_symplectic,
    toric_census,
    _regime_warnings,
)
from torus_census.errors import FormatError, PreconditionError


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
    assert spec.volume == Q(1, 2) - (Q(1, 9) + Q(1, 16) + Q(1, 25)) / 2
    assert spec.anticanonical_perimeter == 3 - Q(1, 3) - Q(1, 4) - Q(1, 5)
    spec = ruled("twisted_ruled", 1, "3/2")
    assert spec.volume == Q(2)
    assert spec.anticanonical_perimeter == 4
    assert not spec.rational_base
    assert ruled("product_ruled", 0, 2).rational_base


def test_spec_volume_matches_lattice_dual():
    # The homology layer computes twice the volume and the anticanonical
    # pairing from the Gram inverse; the recipe closed forms must agree.
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
    for spec in specs:
        data = spec_to_symplectic(spec)
        assert spec.volume == data.volume_quantity() / 2, spec
        assert spec.anticanonical_perimeter == data.chern_pairing(), spec


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
            assert data.euclidean_area == spec.volume
            assert data.perimeter == spec.anticanonical_perimeter


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


def test_convenience_wrappers_match_run_census():
    spec = plane(1, "1/4", "1/4")
    result = run_census(spec)
    assert toric_census(spec) == result.toric
    assert circle_census(spec) == result.maximal_circles
    assert count_conjugacy_classes(spec) == result.counts


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
                table[k, delta] = count_conjugacy_classes(plane(1, *[delta] * k))
    return table


def test_equal_capacity_grid():
    table = grid_counts()
    for k in GRID_TORIC:
        for column, delta in enumerate(GRID_DELTAS):
            if GRID_TORIC[k][column] is None:
                with pytest.raises(PreconditionError):
                    count_conjugacy_classes(plane(1, *[delta] * k))
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


def test_census_is_scale_invariant():
    for caps in (["2/5"] * 3, ["2/5"] * 4, ["1/3", "1/4", "1/5"]):
        doubled = [2 * Q(c) for c in caps]
        assert (
            run_census(plane(1, *caps)).counts
            == run_census(plane(2, *doubled)).counts
        ), caps


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
    for spec in (plane(1, *["2/5"] * 5), plane(1, "1/2", "1/2")):
        with pytest.raises(PreconditionError):
            run_census(spec)


def test_ruled_recipes_outside_cone_are_rejected():
    for spec in (
        ruled("product_ruled", 0, "1/2", "3/4"),  # S - E1 has area -1/4
        ruled("product_ruled", 0, "2", "1"),  # F - E1 has area 0
        ruled("twisted_ruled", 0, "1/2", "3/4", "3/4"),  # L - E1 - E2 has area 0
        ruled("product_ruled", 1, "3", "3/2"),  # F - E1 has area -1/2
        ruled("twisted_ruled", 2, "3", "1"),  # F - E1 has area 0
    ):
        with pytest.raises(PreconditionError, match="outside the symplectic cone"):
            run_census(spec)


def test_random_ruled_recipes_are_censused_or_refused():
    # Every ruled recipe either runs, with toric entries of the recipe's
    # volume, or is refused with PreconditionError; a refused genus-0
    # product recipe with one cap has d >= min(mu, 1).
    rng = random.Random(73)
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
        except PreconditionError:
            continue
        try:
            result = run_census(spec)
        except PreconditionError as error:
            assert "outside the symplectic cone" in str(error)
            if kind == "product_ruled" and genus == 0 and len(caps) == 1:
                assert caps[0] >= min(mu, 1)
        else:
            for polygon in result.toric:
                assert pg.invariants(polygon).euclidean_area == spec.volume


# ---------------------------------------------------------------------------
# Census entry invariants


def test_toric_entries_carry_recipe_bookkeeping():
    spec = plane(1, "1/3", "1/4", "1/5")
    result = run_census(spec)
    for polygon in result.toric:
        data = pg.invariants(polygon)
        assert data.euclidean_area == spec.volume
        assert data.perimeter == spec.anticanonical_perimeter
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
