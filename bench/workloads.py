"""Seeded request lists for the census benchmark.

Each workload is a fixed list of slots.  A slot fixes the shape that sets
a request's cost (verb, base kind, section area, number of capacities,
search bound); the seed only draws the capacity values and, where the cost
does not depend on it, the genus.  Different seeds therefore give different
recipes of about the same cost, so runs on different seeds are comparable.

Every recipe lies strictly inside the certified regime: every capacity is
at most 1/4 of the fiber or line area (so 3c < lambda on cp2), a genus-0
ruled base gets at most eight blow-ups, and no recipe comes near the
degenerate cases that end in a precondition error.

A request is a dict with the CLI ``argv`` the program receives, the
``verb``, the ``recipe`` document, and for ``exceptional`` the ``bound``.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


_PRIMES = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _band_caps(rng: random.Random, count: int, pairs: int = 0) -> list[str]:
    """``count`` capacities p/q in (1/11, 1/6), q a prime, weakly decreasing.

    The band is narrower than a factor of two, so every pair of capacities
    compares the same way with every third one and with the base areas; the
    answers then hardly depend on the draw, and neither does the cost.
    Prime denominators keep sums of capacities from coinciding.  The
    ``pairs`` largest values appear twice and all others once: a tie placed
    by the draw would change the number of blow-down chains from seed to
    seed.
    """
    caps: set[Fraction] = set()
    while len(caps) < count - pairs:
        q = rng.choice(_PRIMES)
        value = Fraction(rng.randint(q // 11 + 1, q // 6), q)
        if Fraction(1, 11) < value < Fraction(1, 6):
            caps.add(value)
    ordered = sorted(caps, reverse=True)
    return [str(c) for c in sorted(ordered + ordered[:pairs], reverse=True)]


def _cp2(caps: list[str]) -> dict:
    return {"base": {"kind": "cp2", "lambda": "1"}, "capacities": caps}


def _ruled(kind: str, genus: int, mu: str, caps: list[str]) -> dict:
    return {
        "base": {"kind": kind, "genus": genus, "mu": mu, "fiber": "1"},
        "capacities": caps,
    }


def _census(recipe: dict) -> dict:
    text = json.dumps(recipe, sort_keys=True)
    return {
        "verb": "census",
        "recipe": recipe,
        "argv": ["census", "--format", "json", "--spec", text],
    }


def _lattice(verb: str, recipe: dict, bound: str | None = None) -> dict:
    text = json.dumps(recipe, sort_keys=True)
    argv = [verb, "--format", "table", "--spec", text]
    request = {"verb": verb, "recipe": recipe, "argv": argv}
    if bound is not None:
        argv += ["--bound", bound]
        request["bound"] = bound
    return request


# rational_fold: a few large censuses on rational bases.  These are the only
# requests that run the polygon fold, and the projection of every polygon to
# circle graphs dominates them, so this workload carries any polygon or
# projection-seeding change.  Three to five capacities keep one pass at about
# six seconds: cp2 with five caps takes about 2.5 s, and one more cap
# multiplies that by four or more.  A twisted bundle is the plane blown up
# once, so its three caps are four blow-ups of the plane; with four caps it
# takes about 5 s.  Capacities come from a narrow band (see _band_caps),
# because across wider draws the counts, and the cost, vary by half.  The
# five slots differ in cost, so the median request is the twisted one.
def rational_fold(rng: random.Random) -> list[dict]:
    return [
        _census(_cp2(_band_caps(rng, 5))),
        _census(_cp2(_band_caps(rng, 4))),
        _census(_ruled("product_ruled", 0, "1", _band_caps(rng, 4))),
        _census(_ruled("product_ruled", 0, "1", _band_caps(rng, 3))),
        _census(_ruled("twisted_ruled", 0, "1/2", _band_caps(rng, 3))),
    ]


# genus_frontier: many small-to-medium censuses on positive-genus bases.
# They have no toric actions, so they never touch the polygon layer and are
# the bypass for polygon changes; all their work is circle-graph blow-up,
# validation and canonicalisation, and JSON output (the 6-cap recipe emits
# about 2 MB).  The many short requests expose any per-call cost, such as a
# pool start-up or a cache fill, that a change adds to gain on larger
# recipes.  Genus does not change the cost, so the seed draws it; the
# capacities come from the band of _band_caps, because unit fractions drawn
# from 1/4 .. 1/11 moved the counts, and the cost, by a tenth from seed to
# seed.  The slot list is odd, three 4-cap slots of about 0.12 s sit in
# the middle of the cost order and the three 5-cap slots have one shape, so
# that the median (seven and a half slots from the bottom) and the tail
# latency (about two and a half slots from the top) each fall inside a
# group of like requests rather than between two groups of different cost.
_FRONTIER_SLOTS = (
    # (kind, mu, number of capacities)
    ("product_ruled", "1", 3),
    ("product_ruled", "2", 3),
    ("twisted_ruled", "1", 3),
    ("twisted_ruled", "3/2", 3),
    ("twisted_ruled", "2", 3),
    ("product_ruled", "1", 4),
    ("product_ruled", "3/2", 4),
    ("product_ruled", "3/2", 4),
    ("product_ruled", "2", 4),
    ("twisted_ruled", "3/2", 4),
    ("twisted_ruled", "2", 4),
    ("product_ruled", "3/2", 5),
    ("product_ruled", "3/2", 5),
    ("product_ruled", "3/2", 5),
    ("product_ruled", "1", 6),
)


def genus_frontier(rng: random.Random) -> list[dict]:
    return [
        _census(_ruled(kind, rng.randint(1, 3), mu, _band_caps(rng, k)))
        for kind, mu, k in _FRONTIER_SLOTS
    ]


# lattice_walk: exceptional-class enumeration, blow-down chains and capacity
# thresholds, in table format.  It is the only workload for the homology,
# linalg and render layers and never runs a census.  Each recipe has at most
# two equal capacities: minimal_blowdown_chains returns every chain that
# branches at a tie, so its output grows with the factorial of the tie size
# (a chains request on eight equal caps of 1/3 does not finish within
# minutes).  The exceptional bound and the number of equal pairs are fixed
# per slot because the cost grows steeply with both: the ball walk on cp2
# with ten caps takes 0.5 s at bound 1 and 10 s at 3/2, and one equal pair
# doubles the chains.
_LATTICE_SLOTS = (
    # (base kind, mu, number of capacities, exceptional bound, equal pairs)
    ("cp2", None, 6, "3/2", 0),
    ("cp2", None, 7, "1", 1),
    ("cp2", None, 8, "1", 0),
    ("cp2", None, 10, "1", 1),
    ("product_ruled", "1", 5, "3/2", 1),
    ("twisted_ruled", "1/2", 6, "3/2", 0),
    ("product_ruled", "3/2", 7, "1", 1),
    ("twisted_ruled", "1", 8, "1", 0),
)


def lattice_walk(rng: random.Random) -> list[dict]:
    requests = []
    for kind, mu, k, bound, pairs in _LATTICE_SLOTS:
        caps = _band_caps(rng, k, pairs)
        recipe = _cp2(caps) if kind == "cp2" else _ruled(kind, 0, mu, caps)
        requests.append(_lattice("exceptional", recipe, bound))
        requests.append(_lattice("chains", recipe))
        requests.append(_lattice("threshold", recipe))
    return requests


WORKLOADS = {
    "rational_fold": rational_fold,
    "genus_frontier": genus_frontier,
    "lattice_walk": lattice_walk,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The request list of ``workload`` for ``seed``; equal seeds, equal lists."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
