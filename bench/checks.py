"""Answer checks for the census benchmark.

Every check is a structural oracle that holds for any seed:

- census: the counts equal the list lengths; a seeded sample of entries
  replays from its provenance to itself; toric entries are Delzant and
  canonical; graphs pass ``validate`` and no maximal circle extends to a
  toric action;
- exceptional, chains, threshold: every class printed as exceptional has
  square -1, Chern number 1 and its printed area, within the bound.  The
  intersection form, Chern numbers and areas are written out here from the
  recipe, not taken from the program.

``pins.json`` adds, for the pinned seeds, the summary (count triple or
size) and the sha256 of every request's output, so that a change that
alters an answer fails even where the oracles cannot see it.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"

# Entries replayed from provenance per census request, per kind.
REPLAY_SAMPLE = 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    if not PINS.is_file():
        return {}
    return json.loads(PINS.read_text(encoding="utf-8"))


def summary(request: dict, text: str):
    """A short readable answer: the count triple of a census, else a size.

    None for an answer that cannot be read.
    """
    try:
        return _summary(request, text)
    except (ValueError, KeyError, IndexError):
        return None


def _summary(request: dict, text: str):
    verb = request["verb"]
    if verb == "census":
        counts = json.loads(text)["counts"]
        return [counts["toric"], counts["maximal_circles"], counts["total_maximal_tori"]]
    if verb == "exceptional":
        return sum(1 for line in text.splitlines() if "(area " in line)
    if verb == "chains":
        return int(_field(text.splitlines()[0], "minimal blow-down chains:"))
    return _field(text.splitlines()[0], "minimal blow-up capacity threshold:")


def check(request: dict, text: str, sample_seed: str, pin: dict | None = None) -> list[str]:
    """Problems found in one answer; an empty list means it passed."""
    try:
        problems = _CHECKS[request["verb"]](request, text, sample_seed)
    except Exception as exc:  # a malformed answer is a failed answer
        return [f"unreadable answer: {exc!r}"]
    if pin is not None:
        if summary(request, text) != pin["summary"]:
            problems.append(f"summary {summary(request, text)} != pinned {pin['summary']}")
        if digest(text) != pin["sha256"]:
            problems.append("output differs from the pinned sha256")
    return problems


def _field(line: str, label: str) -> str:
    if not line.startswith(label):
        raise ValueError(f"expected {label!r}, got {line!r}")
    return line[len(label):].strip()


# ---------------------------------------------------------------------------
# census


def _check_census(request: dict, text: str, sample_seed: str) -> list[str]:
    # Imported here so that the checks use the package the benchmark loaded.
    from torus_census import census as cs
    from torus_census import circle_graph as cg
    from torus_census import polygon as pg

    doc = json.loads(text)
    problems = []
    counts = doc["counts"]
    toric, circles = doc["toric"], doc["maximal_circles"]
    if counts["toric"] != len(toric):
        problems.append(f"toric count {counts['toric']} != {len(toric)} entries")
    if counts["maximal_circles"] != len(circles):
        problems.append(
            f"circle count {counts['maximal_circles']} != {len(circles)} entries"
        )
    if counts["total_maximal_tori"] != len(toric) + len(circles):
        problems.append("total count is not toric plus circle entries")
    if len(doc["toric_provenance"]) != len(toric):
        problems.append("toric provenance does not match the toric entries")
    if len(doc["circle_provenance"]) != len(circles):
        problems.append("circle provenance does not match the circle entries")
    spec = cs.spec_from_json(doc["spec"])
    if spec != cs.spec_from_json(request["recipe"]):
        problems.append("answer is for another recipe")

    polygons = [pg.polygon_from_json(p) for p in toric]
    if len({p.vertices for p in polygons}) != len(polygons):
        problems.append("duplicate toric entries")
    for index, polygon in enumerate(polygons):
        if not pg.is_delzant(polygon)[0]:
            problems.append(f"toric entry {index} is not Delzant")
        elif pg.canonical_form(polygon)[0] != polygon:
            problems.append(f"toric entry {index} is not canonical")

    graphs = [cg.graph_from_json(g) for g in circles]
    if len({json.dumps(g, sort_keys=True) for g in circles}) != len(circles):
        problems.append("duplicate circle entries")
    for index, graph in enumerate(graphs):
        if not cg.validate(graph)[0]:
            problems.append(f"circle entry {index} fails validate")
        elif cg.extends_to_toric(graph):
            problems.append(f"circle entry {index} extends to a toric action")

    rng = random.Random(sample_seed)
    for index in rng.sample(range(len(polygons)), min(REPLAY_SAMPLE, len(polygons))):
        provenance = _toric_provenance(cs, pg, doc["toric_provenance"][index])
        if cs.replay_toric(provenance) != polygons[index]:
            problems.append(f"toric entry {index} does not replay")
    for index in rng.sample(range(len(graphs)), min(REPLAY_SAMPLE, len(graphs))):
        provenance = _circle_provenance(cs, pg, doc["circle_provenance"][index])
        if cs.replay_circle(spec, provenance) != graphs[index]:
            problems.append(f"circle entry {index} does not replay")
        if cg.canonical_form(graphs[index]) != graphs[index]:
            problems.append(f"circle entry {index} is not canonical")
    return problems


def _steps(cs, items: list[dict]) -> tuple:
    return tuple(cs.BlowUpStep(Fraction(s["delta"]), s["site"]) for s in items)


def _toric_provenance(cs, pg, item: dict):
    return cs.ToricProvenance(pg.polygon_from_json(item["base"]), _steps(cs, item["steps"]))


def _circle_provenance(cs, pg, item: dict):
    polygon = item.get("polygon")
    xi = item.get("xi")
    return cs.CircleProvenance(
        item["origin"],
        item["stage"],
        item.get("degree"),
        None if polygon is None else pg.polygon_from_json(polygon),
        None if xi is None else tuple(xi),
        _steps(cs, item["steps"]),
    )


# ---------------------------------------------------------------------------
# Lattice answers, checked against an intersection form written out here


class Lattice:
    """Intersection form, Chern numbers and areas of a recipe's basis."""

    def __init__(self, recipe: dict) -> None:
        base = recipe["base"]
        caps = [Fraction(c) for c in recipe["capacities"]]
        self.caps = caps
        if base["kind"] == "cp2":
            self.symbols = ["L"]
            self.gram = {("L", "L"): 1}
            self.chern = {"L": 3}
            self.areas = {"L": Fraction(base["lambda"])}
        else:
            genus = base["genus"]
            twisted = base["kind"] == "twisted_ruled"
            self.symbols = ["B", "F"]
            self.gram = {("B", "B"): -1 if twisted else 0, ("B", "F"): 1, ("F", "B"): 1}
            self.chern = {"B": (1 if twisted else 2) - 2 * genus, "F": 2}
            self.areas = {"B": Fraction(base["mu"]), "F": Fraction(base.get("fiber", "1"))}
        for i, cap in enumerate(caps, start=1):
            symbol = f"E{i}"
            self.symbols.append(symbol)
            self.gram[(symbol, symbol)] = -1
            self.chern[symbol] = 1
            self.areas[symbol] = cap

    def parse(self, text: str) -> dict[str, int]:
        """Coefficients of a class printed as, say, ``2L - E1 - 3E4``."""
        tokens = text.split()
        terms = [("+", tokens[0])] + list(zip(tokens[1::2], tokens[2::2]))
        if len(tokens) % 2 == 0 or any(sign not in "+-" for sign, _ in terms):
            raise ValueError(f"malformed class {text!r}")
        coeffs: dict[str, int] = {}
        for sign, term in terms:
            match = re.fullmatch(r"(-?)(\d*)([A-Z]\d*)", term)
            if match is None or match.group(3) not in self.symbols:
                raise ValueError(f"malformed class {text!r}")
            value = int(match.group(2) or 1) * (-1 if match.group(1) else 1)
            coeffs[match.group(3)] = value if sign == "+" else -value
        return coeffs

    def square(self, x: dict[str, int]) -> int:
        return sum(x[a] * x[b] * g for (a, b), g in self.gram.items() if a in x and b in x)

    def chern_number(self, x: dict[str, int]) -> int:
        return sum(c * self.chern[s] for s, c in x.items())

    def area(self, x: dict[str, int], last_cap: Fraction | None = None) -> Fraction:
        areas = dict(self.areas)
        if last_cap is not None:
            areas[f"E{len(self.caps)}"] = last_cap
        return sum((c * areas[s] for s, c in x.items()), Fraction(0))


def _exceptional_problems(lattice: Lattice, text: str, area: Fraction | None = None) -> list[str]:
    x = lattice.parse(text)
    problems = []
    if lattice.square(x) != -1:
        problems.append(f"{text}: square is not -1")
    if lattice.chern_number(x) != 1:
        problems.append(f"{text}: Chern number is not 1")
    if area is not None and lattice.area(x) != area:
        problems.append(f"{text}: printed area {area} is not {lattice.area(x)}")
    return problems


_CANDIDATE = re.compile(r"  (.+)  \(area (\S+)\)")


def _check_exceptional(request: dict, text: str, sample_seed: str) -> list[str]:
    lattice = Lattice(request["recipe"])
    lines = text.splitlines()
    epsilon = Fraction(_field(lines[0], "minimal exceptional area:"))
    _field(lines[1], "minimal classes:")
    split = next(i for i, line in enumerate(lines) if line.startswith("candidates"))
    bound = Fraction(_field(lines[split], "candidates with area at most").rstrip(":"))
    problems = []
    if bound != Fraction(request["bound"]):
        problems.append(f"bound {bound} is not the requested {request['bound']}")
    minimal = [line.strip() for line in lines[2:split]]
    if not minimal:
        problems.append("no minimal class")
    if not 0 < epsilon <= lattice.caps[-1]:
        problems.append(f"minimal area {epsilon} is not in (0, last capacity]")
    for cls in minimal:
        problems += _exceptional_problems(lattice, cls, epsilon)
    listed = []
    for line in lines[split + 1:]:
        match = _CANDIDATE.fullmatch(line)
        if match is None:
            raise ValueError(f"malformed candidate line {line!r}")
        cls, value = match.group(1), Fraction(match.group(2))
        problems += _exceptional_problems(lattice, cls, value)
        if not 0 < value <= bound:
            problems.append(f"{cls}: area {value} is not in (0, {bound}]")
        listed.append(cls)
    if len(set(listed)) != len(listed):
        problems.append("duplicate candidates")
    for i, cap in enumerate(lattice.caps, start=1):
        if cap <= bound and f"E{i}" not in listed:
            problems.append(f"E{i} is missing from the candidates")
    return problems


def _chain_blocks(lines: list[str]) -> list[list[str]]:
    blocks: list[list[str]] = []
    for line in lines:
        if line.startswith("chain ") or line == "canonical chain:":
            blocks.append([])
        elif blocks:
            blocks[-1].append(line)
        else:
            raise ValueError(f"line outside a chain: {line!r}")
    return blocks


_STAGE = re.compile(r"  stage (\d+): blow down (.+) \(area (\S+)\)")


def _check_chains(request: dict, text: str, sample_seed: str) -> list[str]:
    lattice = Lattice(request["recipe"])
    k = len(lattice.caps)
    lines = text.splitlines()
    count = int(_field(lines[0], "minimal blow-down chains:"))
    *chains, canonical = _chain_blocks(lines[1:])
    problems = []
    if count != len(chains) or count < 1:
        problems.append(f"chain count {count} != {len(chains)} chains listed")
    if canonical not in chains:
        problems.append("the canonical chain is not one of the chains")
    for index, block in enumerate(chains):
        stages = [_STAGE.fullmatch(line) for line in block[:-1]]
        if len(stages) != k or None in stages or not block[-1].startswith("  terminal: "):
            problems.append(f"chain {index} does not have {k} stages and a terminal")
            continue
        if [int(m.group(1)) for m in stages] != list(range(1, k + 1)):
            problems.append(f"chain {index} stages are not numbered 1..{k}")
        areas = [Fraction(m.group(3)) for m in stages]
        if areas != sorted(areas):
            problems.append(f"chain {index} areas decrease")
        # Stage 1 is written in the recipe's own basis.
        problems += _exceptional_problems(lattice, stages[0].group(2), areas[0])
    return problems


def _check_threshold(request: dict, text: str, sample_seed: str) -> list[str]:
    lattice = Lattice(request["recipe"])
    lines = text.splitlines()
    value = Fraction(_field(lines[0], "minimal blow-up capacity threshold:"))
    _field(lines[1], "binding classes:")
    binding = [line.strip() for line in lines[2:]]
    problems = []
    if value <= 0:
        problems.append(f"threshold {value} is not positive")
    if not binding:
        problems.append("no binding class")
    # A binding class A - sE_k meets E_k exactly when the last capacity is
    # the threshold, keeps square >= -1 and has Chern number >= 1.
    for cls in binding:
        x = lattice.parse(cls)
        if lattice.area(x, last_cap=value) != value:
            problems.append(f"{cls}: area at the threshold is not the threshold")
        if lattice.square(x) < -1 or lattice.chern_number(x) < 1:
            problems.append(f"{cls}: square below -1 or Chern number below 1")
    return problems


_CHECKS = {
    "census": _check_census,
    "exceptional": _check_exceptional,
    "chains": _check_chains,
    "threshold": _check_threshold,
}
