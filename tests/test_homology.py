"""Intersection lattice, exceptional classes, blow-down chains, thresholds.

Frozen expected values come from independent brute-force scans (coefficient
boxes, re-run here) or from hand-checked lattice arithmetic recorded next to
each test.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest

import torus_census
from torus_census import homology
from torus_census.census import ManifoldSpec
from torus_census.errors import (
    EnumerationError,
    FormatError,
    PreconditionError,
    UnsupportedBlowdownError,
)
from torus_census.homology import (
    Basis,
    HomologyClass,
    SymplecticData,
    area,
    canonical_blowdown_chain,
    chern,
    cremona_reduced,
    enumerate_exceptional_candidates,
    intersect,
    min_capacity_threshold,
    minimal_blowdown_chains,
    minimal_exceptional_classes,
)
from torus_census.linalg import (
    bilinear,
    dot,
    enumerate_quadratic_ball,
    identity_matrix,
    mat_inverse,
    mat_mul,
    mat_vec,
)
from torus_census.rationals import floor_sqrt


def rational_data(lam, *caps):
    basis = Basis("rational", 0, len(caps))
    return SymplecticData(basis, tuple(Q(c) for c in caps), lam=Q(lam))


def cls(data, *coeffs):
    return HomologyClass(data.basis, tuple(coeffs))


# ---------------------------------------------------------------------------
# Pairings


def test_rational_gram_diagonal():
    data = rational_data(1, Q(1, 3), Q(1, 4))
    l = cls(data, 1, 0, 0)
    e1 = cls(data, 0, 1, 0)
    e2 = cls(data, 0, 0, 1)
    assert intersect(l, l) == 1
    assert intersect(e1, e1) == -1
    assert intersect(e2, e2) == -1
    assert intersect(l, e1) == 0
    assert intersect(e1, e2) == 0
    assert chern(l) == 3
    assert chern(e1) == 1


def test_product_ruled_pairings():
    basis = Basis("product_ruled", 1, 1)
    b = HomologyClass(basis, (1, 0, 0))
    f = HomologyClass(basis, (0, 1, 0))
    e = HomologyClass(basis, (0, 0, 1))
    assert intersect(b, b) == 0
    assert intersect(f, f) == 0
    assert intersect(b, f) == 1
    assert intersect(e, e) == -1
    assert chern(b) == 2 - 2 * 1
    assert chern(f) == 2
    assert chern(e) == 1


def test_twisted_ruled_pairings():
    basis = Basis("twisted_ruled", 2, 0)
    b = HomologyClass(basis, (1, 0))
    f = HomologyClass(basis, (0, 1))
    assert intersect(b, b) == -1
    assert intersect(f, f) == 0
    assert intersect(b, f) == 1
    assert chern(b) == 1 - 2 * 2
    assert chern(f) == 2


def _refusals(cases):
    """(build, error, message): build() raises exactly that error and message."""
    for build, error, message in cases:
        with pytest.raises(error) as caught:
            build()
        assert str(caught.value) == message


def test_basis_refuses_malformed_fields():
    _refusals([
        (lambda: Basis("elliptic"), FormatError, "unknown basis kind: 'elliptic'"),
        (lambda: Basis("product_ruled", -1), FormatError, "genus must be a nonnegative integer: -1"),
        (lambda: Basis("product_ruled", "1"), FormatError, "genus must be a nonnegative integer: '1'"),
        (
            lambda: Basis("rational", 0, -2), FormatError,
            "blow-up count must be a nonnegative integer: -2",
        ),
        (
            lambda: Basis("rational", 0, 1.0), FormatError,
            "blow-up count must be a nonnegative integer: 1.0",
        ),
        (lambda: Basis("rational", 1), FormatError, "rational bases have genus 0"),
    ])


def test_intersect_requires_same_basis():
    a = HomologyClass(Basis("rational", 0, 1), (1, 0))
    b = HomologyClass(Basis("rational", 0, 2), (1, 0, 0))
    with pytest.raises(PreconditionError):
        intersect(a, b)
    # A class is written in its basis's coefficients, and its area needs
    # the data of that basis.
    _refusals([
        (lambda: HomologyClass(Basis("rational", 0, 2), (1, 0)), FormatError,
         "class needs 3 coefficients, got 2"),
        (lambda: area(a, rational_data(1, Q(1, 3), Q(1, 4))), PreconditionError, "basis mismatch"),
    ])


def test_intersect_bilinear_and_symmetric():
    rng = random.Random(23)
    bases = [
        Basis("rational", 0, 3),
        Basis("product_ruled", 1, 2),
        Basis("twisted_ruled", 0, 2),
    ]
    for _ in range(1000):
        basis = rng.choice(bases)
        x, y, z = (
            HomologyClass(
                basis, tuple(rng.randrange(-5, 6) for _ in range(basis.rank))
            )
            for _ in range(3)
        )
        assert intersect(x, y) == intersect(y, x)
        s = HomologyClass(basis, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))
        assert intersect(s, z) == intersect(x, z) + intersect(y, z)


def signature(m):
    """Signature (positive, negative, zero) of a symmetric rational matrix.

    Computed by symmetric row/column reduction (congruence preserves the
    signature).  A zero diagonal with a nonzero off-diagonal entry b is
    repaired by adding or subtracting the partner row and column, which
    puts c +- 2b on the diagonal (c the partner's diagonal entry; one
    sign gives a nonzero value) without leaving the congruence class.
    """
    n = len(m)
    work = [[Q(x) for x in row] for row in m]
    pos = neg = zero = 0
    index = 0
    while index < n:
        if work[index][index] == 0:
            partner = next((j for j in range(index + 1, n) if work[index][j] != 0), None)
            if partner is None:
                zero += 1
                index += 1
                continue
            sign = 1 if work[partner][partner] + 2 * work[index][partner] != 0 else -1
            for j in range(n):
                work[index][j] += sign * work[partner][j]
            for i in range(n):
                work[i][index] += sign * work[i][partner]
        pivot = work[index][index]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for i in range(index + 1, n):
            if work[i][index] != 0:
                factor = work[i][index] / pivot
                for j in range(n):
                    work[i][j] -= factor * work[index][j]
                for j in range(n):
                    work[j][i] -= factor * work[j][index]
        index += 1
    return pos, neg, zero


def test_signature_of_blowup_form():
    gram = [
        [Q(1), Q(0), Q(0)],
        [Q(0), Q(-1), Q(0)],
        [Q(0), Q(0), Q(-1)],
    ]
    assert signature(gram) == (1, 2, 0)


def test_signature_of_hyperbolic_form():
    gram = [[Q(0), Q(1)], [Q(1), Q(0)]]
    assert signature(gram) == (1, 1, 0)


def test_signature_when_adding_the_partner_leaves_a_zero_pivot():
    # Adding row and column 2 to row and column 1 of [[0, 1], [1, -2]]
    # leaves 0 on the diagonal again; subtracting them gives 4.
    assert signature([[Q(0), Q(1)], [Q(1), Q(-2)]]) == (1, 1, 0)
    assert signature([[Q(0), Q(1), Q(0)], [Q(1), Q(-2), Q(0)], [Q(0), Q(0), Q(3)]]) == (2, 1, 0)


def test_signature_counts_zeros():
    gram = [[Q(1), Q(0)], [Q(0), Q(0)]]
    assert signature(gram) == (1, 0, 1)


def test_every_basis_gram_has_one_positive_eigenvalue():
    shapes = [
        Basis("rational", 0, 0),
        Basis("rational", 0, 4),
        Basis("product_ruled", 0, 2),
        Basis("product_ruled", 2, 0),
        Basis("twisted_ruled", 1, 3),
    ]
    for basis in shapes:
        gram = [[Q(x) for x in row] for row in basis.gram()]
        pos, neg, zero = signature(gram)
        assert (pos, neg, zero) == (1, basis.rank - 1, 0)


def test_area_and_dual():
    data = rational_data(1, Q(1, 3), Q(1, 4))
    assert area(cls(data, 1, 0, 0), data) == Q(1)
    assert area(cls(data, 0, 1, 0), data) == Q(1, 3)
    assert area(cls(data, 1, -1, -1), data) == Q(5, 12)
    assert data.basis.dual(data.area_vector()) == [Q(1), Q(-1, 3), Q(-1, 4)]


def test_dual_of_the_area_vector_pairs_to_the_area():
    # The dual of the area covector is the Poincare dual of the symplectic
    # class: its intersection with every class is that class's area.
    recipes = [
        rational_data(1, Q(1, 3), Q(1, 4)),
        SymplecticData(Basis("product_ruled", 0, 1), (Q(1, 3),), mu=Q(2), fiber=Q(3, 2)),
        SymplecticData(Basis("product_ruled", 2, 1), (Q(1, 5),), mu=Q(1)),
        SymplecticData(Basis("twisted_ruled", 0, 2), (Q(1, 4), Q(1, 5)), mu=Q(2)),
        SymplecticData(Basis("twisted_ruled", 1, 1), (Q(1, 3),), mu=Q(1, 2)),
    ]
    for data in recipes:
        gram = data.basis.gram()
        dual = data.basis.dual(data.area_vector())
        for coeffs in product(range(-2, 3), repeat=data.basis.rank):
            assert bilinear(gram, dual, coeffs) == area(HomologyClass(data.basis, coeffs), data)


@pytest.mark.parametrize("blowups", [0, 1, 4])
@pytest.mark.parametrize(
    "kind, genus", [("rational", 0), ("product_ruled", 0), ("product_ruled", 1), ("twisted_ruled", 2)]
)
def test_closed_form_dual_matches_gram_inverse(kind, genus, blowups):
    basis = Basis(kind, genus, blowups)
    caps = tuple(Q(1, 2 + i) for i in range(blowups))
    if kind == "rational":
        data = SymplecticData(basis, caps, lam=Q(3))
    else:
        data = SymplecticData(basis, caps, mu=Q(5, 2))
    inverse = mat_inverse(basis.gram())
    for vector in (data.area_vector(), basis.chern_vector()):
        assert basis.dual(vector) == mat_vec(inverse, vector)


# ---------------------------------------------------------------------------
# Exceptional candidates against an independent box scan


def brute_force_exceptional(data, bound, box=4):
    """Plain coefficient-box oracle: square -1, Chern 1, area in (0, bound]."""
    gram = data.basis.gram()
    chern_vec = data.basis.chern_vector()
    weight = data.area_vector()
    rank = data.basis.rank
    hits = set()
    for coeffs in product(range(-box, box + 1), repeat=rank):
        square = sum(
            gram[i][j] * coeffs[i] * coeffs[j]
            for i in range(rank)
            for j in range(rank)
        )
        if square != -1:
            continue
        if sum(t * c for t, c in zip(chern_vec, coeffs)) != 1:
            continue
        value = sum(w * c for w, c in zip(weight, coeffs))
        if 0 < value <= bound:
            hits.add(coeffs)
    return hits


EXPECTED_CANDIDATE_SIZES = {1: 1, 2: 3, 3: 6, 4: 10, 5: 16}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_candidates_match_box_scan(k):
    data = rational_data(1, *([Q(1, 10)] * k))
    got = enumerate_exceptional_candidates(data, Q(2))
    assert {c.coeffs for c in got} == brute_force_exceptional(data, Q(2))
    assert len(got) == EXPECTED_CANDIDATE_SIZES[k]


def test_candidates_satisfy_defining_equations():
    data = rational_data(1, Q(1, 3), Q(1, 4), Q(1, 5))
    for candidate in enumerate_exceptional_candidates(data, Q(1)):
        assert intersect(candidate, candidate) == -1
        assert chern(candidate) == 1
        assert area(candidate, data) > 0


def test_candidates_under_a_tighter_area_bound():
    # On (1; 1/5, 1/5, 1/5) the lines L - Ei - Ej have area 3/5 and the next
    # exceptional class, 2L - E1 - ... - E5, needs five points.
    # The bound is inclusive.
    data = rational_data(1, Q(1, 5), Q(1, 5), Q(1, 5))
    six = ["E1", "E2", "E3", "L - E1 - E2", "L - E1 - E3", "L - E2 - E3"]
    for bound in (Q(3, 4), Q(3, 5)):
        assert sorted(str(c) for c in enumerate_exceptional_candidates(data, bound)) == six
    for bound in (Q(59, 100), Q(1, 5)):
        assert sorted(str(c) for c in enumerate_exceptional_candidates(data, bound)) == six[:3]
    assert enumerate_exceptional_candidates(data, Q(19, 100)) == ()


def test_candidates_reject_a_nonpositive_bound():
    data = rational_data(1, Q(1, 10))
    for bound in (Q(0), Q(-1, 2)):
        with pytest.raises(PreconditionError):
            enumerate_exceptional_candidates(data, bound)


def test_candidates_on_positive_genus_base_pair_trivially_with_fiber():
    # Genus 1: E1 and the fiber through the blown-up point qualify; B + E1
    # solves the square and Chern equations but pairs 1 with the fiber, and
    # a sphere cannot map onto a positive-genus base.
    basis = Basis("product_ruled", 1, 1)
    data = SymplecticData(basis, (Q(1, 3),), mu=Q(2))
    candidates = enumerate_exceptional_candidates(data, Q(3))
    assert [c.coeffs for c in candidates] == [(0, 0, 1), (0, 1, -1)]
    assert (1, 0, 1) not in {c.coeffs for c in candidates}


def test_minimal_classes_distinct_capacities():
    data = rational_data(1, Q(1, 3), Q(1, 4), Q(1, 5))
    minimal = minimal_exceptional_classes(data)
    assert minimal.epsilon == Q(1, 5)
    assert [str(c) for c in minimal.classes] == ["E3"]


def test_minimal_classes_prefer_connecting_line():
    # On (1; 2/5, 2/5) the class L - E1 - E2 has area 1/5 < 2/5.
    data = rational_data(1, Q(2, 5), Q(2, 5))
    minimal = minimal_exceptional_classes(data)
    assert minimal.epsilon == Q(1, 5)
    assert [str(c) for c in minimal.classes] == ["L - E1 - E2"]


def test_minimal_classes_need_a_blowup():
    with pytest.raises(PreconditionError):
        minimal_exceptional_classes(rational_data(1))


def ruled_data(kind, genus, mu, *caps, fiber=1):
    basis = Basis(kind, genus, len(caps))
    return SymplecticData(basis, tuple(Q(c) for c in caps), mu=Q(mu), fiber=Q(fiber))


def test_data_outside_cone_is_refused():
    # Without the check, (1; 1/2, 1/2) answered epsilon 1/2 with two chains
    # although L - E1 - E2 has area 0, and product(1/2; 3/4) answered
    # epsilon 1/4 and threshold 1/4 although S - E1 has area -1/4.
    with pytest.raises(PreconditionError, match="outside the symplectic cone"):
        rational_data(1, Q(1, 2), Q(1, 2))
    with pytest.raises(PreconditionError, match="outside the symplectic cone"):
        ruled_data("product_ruled", 0, Q(1, 2), Q(3, 4))
    with pytest.raises(PreconditionError, match="outside the symplectic cone"):
        SymplecticData(Basis("rational", 0, 2), ("1/2", "1/2"), lam="1")


def test_cone_check_uses_the_fiber_area():
    # Each pair is one recipe at fiber area 1 (outside) and at a larger
    # fiber area (inside), where the blow-down chains run to the end.
    for kind, genus, mu, caps, fiber in (
        # F - E1 has area 1 - 3/2 < 0 at f = 1, and 1/2 at f = 2.
        ("product_ruled", 1, 3, ("3/2",), 2),
        # twisted(1/2; 3/4, 3/4) = cp2(3/2; 3/4, 3/4, 1/2), and Cremona
        # reduction reaches capacity 3/2 - 3/4 - 3/4 = 0; at f = 2 it is
        # cp2(5/2; 3/4, 3/4, 1/2), already reduced.
        ("twisted_ruled", 0, Q(1, 2), ("3/4", "3/4"), 2),
        # product(2; 1) has F - E1 of area 0 at f = 1 and 1/2 at f = 3/2.
        ("product_ruled", 0, 2, ("1",), Q(3, 2)),
    ):
        with pytest.raises(PreconditionError, match="outside the symplectic cone"):
            ruled_data(kind, genus, mu, *caps)
        data = ruled_data(kind, genus, mu, *caps, fiber=fiber)
        for chain in minimal_blowdown_chains(data):
            assert chain.terminal.basis.blowups == 0


# ---------------------------------------------------------------------------
# Blow-downs


def test_blow_down_last_exceptional_class():
    data = rational_data(1, Q(1, 3), Q(1, 4))
    down = homology._blow_down_with_frame(data, cls(data, 0, 0, 1))[0]
    assert down.basis.kind == "rational"
    assert down.basis.blowups == 1
    assert down.lam == Q(1)
    assert down.capacities == (Q(1, 3),)


def test_blow_down_connecting_line_changes_base_kind():
    # Collapsing L - E1 - E2 on (1; 2/5, 2/5) leaves the even hyperbolic
    # lattice spanned by L - E1 and L - E2: a sphere product with factor
    # areas 3/5 and 3/5.
    data = rational_data(1, Q(2, 5), Q(2, 5))
    down = homology._blow_down_with_frame(data, cls(data, 1, -1, -1))[0]
    assert down.basis.kind == "product_ruled"
    assert down.basis.blowups == 0
    assert (down.mu, down.fiber) == (Q(3, 5), Q(3, 5))


def test_blow_down_bookkeeping_deltas():
    data = rational_data(1, Q(2, 5), Q(2, 5))
    target = cls(data, 1, -1, -1)
    delta = area(target, data)
    down = homology._blow_down_with_frame(data, target)[0]
    assert down.basis.rank == data.basis.rank - 1
    assert down.volume_quantity() == data.volume_quantity() + delta * delta
    assert down.chern_pairing() == data.chern_pairing() + delta


def test_blow_down_rejects_non_exceptional():
    data = rational_data(1, Q(1, 3))
    with pytest.raises(PreconditionError):
        homology._blow_down_with_frame(data, cls(data, 1, 0))


def test_blow_down_fuzz_bookkeeping():
    rng = random.Random(31)
    for _ in range(40):
        k = rng.randrange(1, 5)
        caps = sorted(
            (Q(1, rng.randrange(4, 12)) for _ in range(k)), reverse=True
        )
        data = rational_data(1, *caps)
        candidates = enumerate_exceptional_candidates(data, Q(1))
        target = candidates[rng.randrange(len(candidates))]
        delta = area(target, data)
        down = homology._blow_down_with_frame(data, target)[0]
        assert down.basis.rank == data.basis.rank - 1
        assert down.volume_quantity() == data.volume_quantity() + delta * delta
        assert down.chern_pairing() == data.chern_pairing() + delta


def test_blow_down_twisted_section_gives_the_plane():
    # B on twisted(1/2) has the complement <B + F>: cp2 with line area 3/2.
    data = ruled_data("twisted_ruled", 0, Q(1, 2))
    down, frame = homology._blow_down_with_frame(data, cls(data, 1, 0))
    assert (down.basis.kind, down.basis.blowups, down.lam) == ("rational", 0, Q(3, 2))
    assert frame == [[1, 1]]


NON_DESCENDING_CLASS = """
from fractions import Fraction as Q
from torus_census.errors import UnsupportedBlowdownError
from torus_census.homology import Basis, HomologyClass, SymplecticData, _blow_down_with_frame
data = SymplecticData(Basis("rational", 0, 10), (Q(1, 5),) * 10, lam=Q(1))
try:
    _blow_down_with_frame(data, HomologyClass(data.basis, (3,) + (-1,) * 9 + (1,)))
except UnsupportedBlowdownError as exc:
    print(__debug__, "refused", exc)
"""


def test_blow_down_refuses_a_class_that_does_not_descend():
    # 3L - E1 - .. - E9 + E10 has square -1, Chern number 1 and area 7/5,
    # but its three largest multiplicities sum to its degree: no reflection
    # lowers it, and it is no embedded sphere.  The refusal is exit 2 in
    # the CLI, also under python -O.
    src = str(Path(torus_census.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        result = subprocess.run(
            [sys.executable, *flags, "-c", NON_DESCENDING_CLASS],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[:3] == [str(not flags), "refused", "unsupported"]


def test_ten_caps_blow_down_the_line_through_the_pair():
    # Blowing down L - E1 - E2 leaves nine blow-ups; the descent has no
    # limit on their number.  Each step is replayed through
    # _blow_down_with_frame, whose exactness checks run on every path, and
    # every rational stage is
    # Cremona-reduced.
    caps = [Q(12, 25), Q(12, 25), Q(1, 20), Q(1, 21), Q(1, 22), Q(1, 23)] + [Q(1, 24)] * 4
    data = rational_data(1, *caps)
    chains = minimal_blowdown_chains(data)
    assert len(chains) == 24
    for chain in chains:
        first = chain.steps[0]
        assert (first.original_coeffs, first.area) == ((1, -1, -1) + (0,) * 8, Q(1, 25))
        stage = data
        for step in chain.steps:
            stage = homology._blow_down_with_frame(stage, step.chosen)[0]
            if stage.basis.kind == "rational":
                assert cremona_reduced(stage.lam, stage.capacities) == (stage.lam, stage.capacities)
        assert stage == chain.terminal


def test_symplectic_data_refuses_malformed_areas():
    rational, ruled = Basis("rational", 0, 2), Basis("product_ruled", 0, 0)
    _refusals([
        (lambda: SymplecticData(rational, ("1/3", "1/4"), lam=1, mu=1), PreconditionError,
         "rational data needs lam and no mu/fiber"),
        (lambda: SymplecticData(rational, ("1/3", "1/4"), lam=0), PreconditionError,
         "base area must be positive"),
        (lambda: SymplecticData(rational, ("1/3", "1/4"), lam=-1), PreconditionError,
         "base area must be positive"),
        (lambda: SymplecticData(ruled, lam=1, mu=1), PreconditionError,
         "ruled data needs mu and no lam"),
        (lambda: SymplecticData(rational, ("1/3",), lam=1), PreconditionError,
         "expected 2 capacities, got 1"),
    ])


def test_genus_one_chain_ends_on_a_nonpositive_section():
    # After F - E1 .. F - E4, E6 and F - E5 the twisted genus-1 model has
    # section area 241/570 - 17/30 < 0; its volume quantity is positive and
    # no sphere meets the section, so the manifold is in the cone.
    caps = ("9/10", "13/15", "23/30", "27/38", "17/30", "5/13")
    data = ruled_data("product_ruled", 1, Q(5, 3), *caps)
    (chain,) = minimal_blowdown_chains(data)
    terminal = chain.terminal
    assert (terminal.basis.kind, terminal.basis.genus) == ("twisted_ruled", 1)
    assert (terminal.mu, terminal.fiber) == (Q(-41, 285), Q(1))
    # Only a blow-down reaches such a model: recipes keep a positive base
    # area, and a genus-0 section keeps a positive area.
    assert ruled_data("twisted_ruled", 1, Q(-1, 10)).volume_quantity() == Q(4, 5)
    with pytest.raises(PreconditionError, match="base area must be positive"):
        ManifoldSpec("twisted_ruled", 1, Q(-1, 10))
    with pytest.raises(PreconditionError, match="base area must be positive"):
        ruled_data("twisted_ruled", 0, Q(-1, 10))


# ---------------------------------------------------------------------------
# The certified box of the companion form


# Primes just below 2**31, as denominators of recipe areas.
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)


def _seeded_recipe(rng, kind, genus, k):
    """Capacities in (1/11, 1/6), each over a small or a near-2**31 prime."""
    caps = []
    for _ in range(k):
        q = rng.choice((13, 17, 19, 23) + _PRIMES)
        caps.append(Q(rng.randint(q // 11 + 1, q // 6), q))
    caps = tuple(sorted(caps, reverse=True))
    if kind == "rational":
        return SymplecticData(Basis(kind, 0, k), caps, lam=Q(1))
    mu = rng.choice((Q(1), Q(3, 2), Q(2)) if kind == "product_ruled" else (Q(1, 2), Q(1)))
    return SymplecticData(Basis(kind, genus, k), caps, mu=mu)


def _reference_companion(gram, weight):
    """A = 2 w w^T / s - G over the Fractions, with s = w^T G^-1 w from mat_inverse."""
    square = sum(w * d for w, d in zip(weight, mat_vec(mat_inverse(gram), weight)))
    return [[2 * u * v / square - g for v, g in zip(weight, row)] for u, row in zip(weight, gram)]


def _reference_box(gram, weight, cutoff):
    """The largest floor sqrt(cutoff (A^-1)_ii) over the coordinates."""
    inverse = mat_inverse(_reference_companion(gram, weight))
    return max(floor_sqrt(cutoff * inverse[i][i]) for i in range(len(gram)))


def test_closed_form_box_equals_the_inverse_of_every_companion(monkeypatch):
    calls = []
    original = homology._companion_form

    def recording(gram, weight, dual):
        result = original(gram, weight, dual)
        calls.append((sys._getframe(1).f_code.co_name, gram, weight, result))
        return result

    monkeypatch.setattr(homology, "_companion_form", recording)
    rng = random.Random(41)
    recipes = [rational_data(1, *([Q(2, 5)] * 4)), rational_data(1, Q(2, 5), Q(2, 5))]
    for kind, genus in (("rational", 0),) + tuple(
        (kind, genus) for kind in ("product_ruled", "twisted_ruled") for genus in (0, 1, 2)
    ):
        for k in range(1, 9):
            recipes.append(_seeded_recipe(rng, kind, genus, k))
    for data in recipes:
        minimal_exceptional_classes(data)
        min_capacity_threshold(data)
        if data.basis.rank <= 6:
            for exc in enumerate_exceptional_candidates(data, Q(2)):
                try:
                    homology._blow_down_with_frame(data, exc)
                except UnsupportedBlowdownError:
                    pass
    assert {name for name, *_ in calls} == {
        "enumerate_exceptional_candidates",
        "min_capacity_threshold",
    }
    for name, gram, weight, (form, scale, box) in calls:
        rational = _reference_companion(gram, weight)
        assert form == [[scale * v for v in row] for row in rational], name
        inverse = mat_inverse(rational)
        assert box == [inverse[i][i] for i in range(len(form))], name


def test_enumeration_error_fires_exactly_past_the_certified_box():
    rng = random.Random(43)
    for kind, genus, k in (
        ("rational", 0, 3), ("rational", 0, 6), ("product_ruled", 0, 4),
        ("product_ruled", 2, 2), ("twisted_ruled", 1, 5), ("twisted_ruled", 0, 3),
    ):
        data = _seeded_recipe(rng, kind, genus, k)
        gram, weight = data.basis.gram(), data.area_vector()
        bound = data.capacities[-1]
        box = _reference_box(gram, weight, 2 * bound * bound / data.volume_quantity() + 1)
        with pytest.raises(EnumerationError):
            enumerate_exceptional_candidates(data, bound, search_ceiling=box - 1)
        enumerate_exceptional_candidates(data, bound, search_ceiling=box)


# ---------------------------------------------------------------------------
# The integer area covector against a Fraction reference


def _reference_weight(data):
    """The area covector read off the recipe fields, as Fractions."""
    head = [data.lam] if data.basis.kind == "rational" else [data.mu, data.fiber]
    return head + list(data.capacities)


def _reference_pairing(x, y):
    return sum(a * b for a, b in zip(x, y))


def _reference_candidates(data, bound):
    """Exceptional candidates on the Fractions: the companion ball built from
    mat_inverse, each point filtered by the full intersection form, the
    Chern vector, the Fraction area and the base positivity constraint."""
    basis = data.basis
    gram, weight = basis.gram(), _reference_weight(data)
    square = _reference_pairing(weight, mat_vec(mat_inverse(gram), weight))
    chern_vec = basis.chern_vector()
    found = []
    for x in enumerate_quadratic_ball(
        _reference_companion(gram, weight), 2 * bound * bound / square + 1
    ):
        if _reference_pairing(x, mat_vec(gram, x)) != -1:
            continue
        if _reference_pairing(chern_vec, x) != 1:
            continue
        if not 0 < _reference_pairing(weight, x) <= bound:
            continue
        if x[0] < 0 or (basis.kind != "rational" and basis.genus > 0 and x[0] != 0):
            continue
        found.append(x)
    return sorted(found)


def test_integer_area_covector_matches_fraction_reference():
    rng = random.Random(47)
    for kind, genus in (("rational", 0),) + tuple(
        (kind, genus) for kind in ("product_ruled", "twisted_ruled") for genus in (0, 1, 2)
    ):
        for k in range(1, 9):
            data = _seeded_recipe(rng, kind, genus, k)
            basis = data.basis
            weight = _reference_weight(data)
            inverse = mat_inverse(basis.gram())
            assert data.area_vector() == weight
            assert data.volume_quantity() == _reference_pairing(weight, mat_vec(inverse, weight))
            assert data.chern_pairing() == _reference_pairing(
                weight, mat_vec(inverse, basis.chern_vector())
            )
            for _ in range(5):
                x = tuple(rng.randint(-3, 3) for _ in range(basis.rank))
                assert area(HomologyClass(basis, x), data) == _reference_pairing(weight, x)
            for bound in (data.capacities[-1], Q(1) if k > 4 else Q(3, 2)):
                got = enumerate_exceptional_candidates(data, bound)
                assert [c.coeffs for c in got] == _reference_candidates(data, bound)
            minimal = minimal_exceptional_classes(data)
            candidates = _reference_candidates(data, data.capacities[-1])
            epsilon = min(_reference_pairing(weight, x) for x in candidates)
            assert minimal.epsilon == epsilon
            assert [c.coeffs for c in minimal.classes] == [
                x for x in candidates if _reference_pairing(weight, x) == epsilon
            ]


@pytest.mark.parametrize(
    "kind, genus, mu, expected",
    [
        ("twisted_ruled", 0, Q(1, 2), [(1, 0)]),  # B: square -1, Chern 1
        ("twisted_ruled", 1, Q(1), []),  # c = (-1, 2)
        ("twisted_ruled", 2, Q(1, 2), []),  # c = (-3, 2): no unit entry
        ("twisted_ruled", 3, Q(-1, 4), []),  # c = (-5, 2), a free section
        ("product_ruled", 0, Q(1), []),  # c = (2, 2): not primitive
        ("product_ruled", 2, Q(3, 2), []),  # c = (-2, 2)
        ("rational", 0, None, []),  # c = (3)
    ],
)
def test_candidates_on_bases_with_no_blowups(kind, genus, mu, expected):
    basis = Basis(kind, genus, 0)
    if kind == "rational":
        data = SymplecticData(basis, lam=Q(1))
    else:
        data = SymplecticData(basis, mu=mu)
    for bound in (Q(1, 4), Q(1), Q(2)):
        got = [c.coeffs for c in enumerate_exceptional_candidates(data, bound)]
        assert got == _reference_candidates(data, bound)
        assert got == (expected if mu is None or bound >= mu else [])


def test_chern_sliced_walk_is_the_full_ball_filtered():
    # The walk in the frame of _chern_slice, mapped back, against the plain
    # ball filtered on c.x, over every basis kind with and without blow-ups.
    rng = random.Random(53)
    checked = 0
    for kind, genus in (("rational", 0),) + tuple(
        (kind, genus) for kind in ("product_ruled", "twisted_ruled") for genus in (0, 1, 2, 3)
    ):
        for k in range(4):
            data = _seeded_recipe(rng, kind, genus, k)
            basis = data.basis
            chern_vec = basis.chern_vector()
            companion = homology._companion_form(basis.gram(), data.integer_area[0], basis.dual)
            form, scale, _ = companion
            sliced = g, turned, moved = homology._chern_slice(form, chern_vec)
            frame = identity_matrix(basis.rank)
            for i, row in moved:
                frame[i] = row
            assert mat_mul([chern_vec], frame)[0] == [0] * (basis.rank - 1) + [g]
            assert all(v.denominator == 1 for row in mat_inverse(frame) for v in row)
            assert turned == mat_mul(mat_mul(list(zip(*frame)), form), frame)
            if k:
                # c ends in 1: the identity with last row (-c_0, .., -c_{n-2}, 1).
                assert moved == [(basis.rank - 1, [-c for c in chern_vec[:-1]] + [1])]
            cutoff = Q(rng.randrange(2, 12), rng.randrange(1, 3))
            full = list(enumerate_quadratic_ball(form, cutoff * scale))
            for low, high in ((1, 1), (0, None), (2, None), (-3, 3), (1, 0)):
                got = list(homology._certified_ball(companion, sliced, cutoff, low, high, 512))
                assert sorted(got) == sorted(
                    x for x in full
                    if low <= dot(chern_vec, x) and (high is None or dot(chern_vec, x) <= high)
                )
                checked += len(got)
    assert checked > 1000


# ---------------------------------------------------------------------------
# Minimal blow-down chains


def test_unique_chain_for_one_third_recipe():
    data = rational_data(1, Q(1, 3), Q(1, 4), Q(1, 5))
    chains = minimal_blowdown_chains(data)
    assert len(chains) == 1
    (chain,) = chains
    assert [str(s.chosen) for s in chain.steps] == ["E3", "E2", "E1"]
    assert [s.area for s in chain.steps] == [Q(1, 5), Q(1, 4), Q(1, 3)]
    assert chain.terminal.basis.kind == "rational"
    assert chain.terminal.basis.blowups == 0
    assert chain.terminal.lam == Q(1)


def test_equal_capacities_permute_ties():
    data = rational_data(1, Q(1, 10), Q(1, 10))
    chains = minimal_blowdown_chains(data)
    assert len(chains) == 2
    starts = {chain.steps[0].original_coeffs for chain in chains}
    assert starts == {(0, 1, 0), (0, 0, 1)}


def test_small_capacity_chains_follow_capacity_order():
    rng = random.Random(37)
    for _ in range(10):
        k = rng.randrange(1, 5)
        caps = sorted(
            {Q(1, rng.randrange(4, 16)) for _ in range(k)}, reverse=True
        )
        data = rational_data(1, *caps)
        chains = minimal_blowdown_chains(data)
        # Distinct capacities below lam/3: the unique chain peels the
        # smallest exceptional divisor at every stage.
        assert len(chains) == 1
        (chain,) = chains
        assert [s.area for s in chain.steps] == sorted(caps)
        assert chain.terminal.basis.blowups == 0


def test_large_capacity_chain_family():
    data = rational_data(1, Q(2, 5), Q(2, 5), Q(2, 5))
    chains = minimal_blowdown_chains(data)
    assert len(chains) == 6
    for chain in chains:
        assert chain.terminal.basis.kind == "rational"
        assert chain.terminal.basis.blowups == 0
        assert chain.terminal.lam == Q(4, 5)


def test_largest_family_count_and_canonical_branch():
    data = rational_data(1, Q(2, 5), Q(2, 5), Q(2, 5), Q(2, 5))
    chains = minimal_blowdown_chains(data)
    assert len(chains) == 48
    canonical = canonical_blowdown_chain(data)
    assert canonical == chains[0]
    # Classes in each stage's own basis; the third L - E1 - E2 is a class
    # of the two-point blow-up the second stage leaves.
    assert [str(s.chosen) for s in canonical.steps] == [
        "L - E1 - E2",
        "E3",
        "L - E1 - E2",
    ]
    assert [s.area for s in canonical.steps] == [Q(1, 5)] * 3
    terminal = canonical.terminal
    assert terminal.basis.kind == "product_ruled"
    assert (terminal.mu, terminal.fiber) == (Q(3, 5), Q(2, 5))


def test_pair_chain_terminates_in_sphere_product():
    data = rational_data(1, Q(2, 5), Q(2, 5))
    canonical = canonical_blowdown_chain(data)
    assert [str(s.chosen) for s in canonical.steps] == ["L - E1 - E2"]
    terminal = canonical.terminal
    assert terminal.basis.kind == "product_ruled"
    assert (terminal.mu, terminal.fiber) == (Q(3, 5), Q(3, 5))


CHAIN_WITH_REPEATED_STEP = """
from fractions import Fraction as Q
from torus_census.homology import (
    Basis, BlowdownChain, ChainStep, HomologyClass, SymplecticData,
)
start = SymplecticData(Basis("rational", 0, 2), (Q(1, 3), Q(1, 3)), lam=Q(1))
e1 = HomologyClass(start.basis, (0, 1, 0))
step = ChainStep(1, e1, Q(1, 3), e1.coeffs)
terminal = SymplecticData(Basis("rational", 0, 0), (), lam=Q(1))
try:
    BlowdownChain((step, step), terminal, start)
except AssertionError:
    print(__debug__, "refused")
else:
    print(__debug__, "accepted")
"""


def test_chain_checks_survive_optimize():
    # E1, E1 is not a pairwise orthogonal chain, also under python -O.
    src = str(Path(torus_census.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", CHAIN_WITH_REPEATED_STEP],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "refused"]


def test_chains_walk_each_stage_once(monkeypatch):
    # cp2(1; 2/5^4) branches into 48 chains through only four distinct
    # stages; without the per-call table the walk ran 55 times.
    calls = []
    original = homology.minimal_exceptional_classes

    def counted(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(homology, "minimal_exceptional_classes", counted)
    chains = minimal_blowdown_chains(rational_data(1, *([Q(2, 5)] * 4)))
    assert len(chains) == 48
    assert len(calls) == len(set(calls)) == 4


def test_chains_need_a_blowup():
    with pytest.raises(PreconditionError):
        minimal_blowdown_chains(rational_data(1))


# ---------------------------------------------------------------------------
# Capacity thresholds


def test_threshold_single_blowup():
    data = rational_data(1, Q(1, 5))
    threshold = min_capacity_threshold(data)
    assert threshold.value == Q(1, 2)
    assert [str(c) for c in threshold.binding] == ["L - E1"]


def test_threshold_with_fixed_first_capacity():
    data = rational_data(1, Q(1, 3), Q(1, 4))
    threshold = min_capacity_threshold(data)
    assert threshold.value == Q(1, 3)
    assert sorted(str(c) for c in threshold.binding) == ["E1", "L - E1 - E2"]


def test_threshold_seeds_on_the_line_through_the_largest_point():
    # The seed (lambda - c1)/2 of L - E1 - E2 certifies this reduced recipe;
    # its presentation product_ruled(3; 1/3) answers 1/2 too.
    threshold = min_capacity_threshold(rational_data(Q(11, 3), Q(8, 3), Q(2, 3)))
    assert threshold.value == Q(1, 2)
    assert [str(c) for c in threshold.binding] == ["L - E1 - E2"]
    ruled = SymplecticData(Basis("product_ruled", 0, 1), (Q(1, 3),), mu=Q(3))
    assert min_capacity_threshold(ruled).value == Q(1, 2)


def test_threshold_needs_a_blowup():
    with pytest.raises(PreconditionError):
        min_capacity_threshold(rational_data(1))


def test_threshold_is_sharp():
    # Below the threshold the last class is the unique minimum; at the
    # threshold something else ties.
    data = rational_data(1, Q(1, 3), Q(1, 4))
    threshold = min_capacity_threshold(data)
    below = rational_data(1, Q(1, 3), threshold.value - Q(1, 100))
    minimal = minimal_exceptional_classes(below)
    assert [c.coeffs for c in minimal.classes] == [(0, 0, 1)]
    at = rational_data(1, Q(1, 3), threshold.value)
    tied = minimal_exceptional_classes(at)
    assert len(tied.classes) > 1


def brute_force_threshold(data, box=3, most=3):
    """Plain coefficient-box scan of the threshold competitors A - s Ek.

    A runs over the box in the coefficients before Ek and 0 <= s <= most;
    a competitor keeps square >= -1, Chern number >= 1, positive area on
    the fixed part and the base positivity constraint, and costs
    area(A) / (s + 1).  Returns the least cost and the classes that reach it.
    """
    basis = data.basis
    gram, chern_vec, weight = basis.gram(), basis.chern_vector(), data.area_vector()
    rank = basis.rank
    costs = {}
    for head in product(range(-box, box + 1), repeat=rank - 1):
        fixed_area = sum(w * c for w, c in zip(weight, head))
        if fixed_area <= 0:
            continue
        for s in range(most + 1):
            x = head + (-s,)
            square = sum(gram[i][j] * x[i] * x[j] for i in range(rank) for j in range(rank))
            if square < -1 or sum(t * c for t, c in zip(chern_vec, x)) < 1:
                continue
            if x[0] < 0 or (basis.kind != "rational" and basis.genus > 0 and x[0] != 0):
                continue
            costs[x] = fixed_area / (s + 1)
    least = min(costs.values())
    return least, sorted(x for x, cost in costs.items() if cost == least)


@pytest.mark.parametrize(
    "data",
    [
        rational_data(1, Q(1, 5)),  # fixed part the plane: c = (3)
        rational_data(1, Q(2, 5)),
        rational_data(Q(3, 2), Q(1, 2)),
        rational_data(1, Q(1, 3), Q(1, 4)),
        rational_data(1, Q(1, 3), Q(1, 4), Q(1, 5)),
        rational_data(1, Q(2, 5), Q(1, 3), Q(1, 4)),
        SymplecticData(Basis("product_ruled", 0, 1), (Q(1, 3),), mu=Q(3)),  # c = (2, 2)
        SymplecticData(Basis("product_ruled", 0, 2), (Q(1, 3), Q(1, 4)), mu=Q(1)),
        SymplecticData(Basis("twisted_ruled", 0, 1), (Q(1, 4),), mu=Q(1, 2)),
        SymplecticData(Basis("twisted_ruled", 0, 2), (Q(1, 3), Q(1, 5)), mu=Q(1)),
        SymplecticData(Basis("product_ruled", 1, 1), (Q(1, 3),), mu=Q(2)),
        SymplecticData(Basis("twisted_ruled", 2, 1), (Q(1, 3),), mu=Q(1, 2)),  # c = (-3, 2)
        SymplecticData(Basis("twisted_ruled", 1, 2), (Q(1, 3), Q(1, 4)), mu=Q(1)),
    ],
)
def test_threshold_matches_box_scan(data):
    threshold = min_capacity_threshold(data)
    value, binding = brute_force_threshold(data)
    assert threshold.value == value
    assert [c.coeffs for c in threshold.binding] == binding
