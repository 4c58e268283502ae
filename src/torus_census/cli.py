"""Command-line front end.

One executable with a verb per task: validity checks, canonical forms,
invariant tables, blow-ups and blow-downs, moment-map projections, the
census, feasibility reports, exceptional-class enumeration, blow-down
chains, and capacity thresholds.  Inputs are JSON documents given inline
or as file paths; output is a table, JSON, or SVG on standard output.

Exit codes: 0 success, 1 malformed input or options, 2 a well-formed
request whose preconditions fail (the diagnostic is printed verbatim).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

from . import census as cs
from . import circle_graph as cg
from . import homology as hm
from . import polygon as pg
from . import render
from .errors import FormatError, PreconditionError
from .rationals import format_rational, parse_rational

class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise FormatError(message)


def _load_document(source: str) -> dict:
    text = source
    if not source.lstrip().startswith("{"):
        path = Path(source)
        try:
            if not path.is_file():
                raise FormatError(f"no such file: {source}")
            text = path.read_text(encoding="utf-8")
        except OSError as exc:  # a name too long, a file we may not read
            raise FormatError(f"cannot read {source}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, as is a number past the
        # interpreter's digit limit; deep nesting is a RecursionError.
        raise FormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("top-level JSON value must be an object")
    return payload


def _parse_xi(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"direction must be two integers a,b, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"direction must be two integers a,b, got {text!r}") from exc


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _json_text(value: object, indent: str = "\n") -> str:
    """Byte for byte `json.dumps(value, indent=2, sort_keys=True)`.

    CPython's C encoder runs only without an indent, so `json.dumps` with
    one encodes in pure Python, a generator per nesting level.  Here
    strings go through the C string encoder and each container is one
    join; `bool`, `None` and anything else take `json.dumps`.  Dict keys
    must be strings, as in every payload this module writes.
    """
    if isinstance(value, str):
        return _json_string(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json_string(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
        return _joined(items, indent, "{}")
    if isinstance(value, (list, tuple)):
        return _joined([_json_text(item, inner) for item in value], indent)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _joined(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON container of items already written one level below indent."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


def _graph_text(graph: cg.S1Graph, indent: str = "\n", memo: dict | None = None) -> str:
    """`_json_text(cg.graph_to_json(graph), indent)`, one f-string per
    vertex and per edge.  Ids, genera, weights and k are ints, as
    `cg.graph_from_json` and the builders leave them.  memo maps the id of
    a component, kept alive while memo is in use, to its text at indent."""
    inner = indent + "  "
    at = inner + "  "
    field = at + "  "
    nested = field + "  "
    memo = {} if memo is None else memo
    vertices = []
    for v in graph.vertices:
        text = memo.get(id(v))
        if text is None:
            if v.is_surface:
                data = (
                    f'"surface": {{{nested}"area": "{format_rational(v.area)}",'
                    f'{nested}"genus": {v.genus}{field}}}'
                )
            else:
                m, n = v.weights
                data = f'"weights": [{nested}{m},{nested}{n}{field}]'
            memo[id(v)] = text = (
                f'{{{field}"id": {v.id},{field}"moment": "{format_rational(v.moment)}",'
                f"{field}{data}{at}}}"
            )
        vertices.append(text)
    edges = [
        f'{{{field}"k": {k},{field}"north": {n},{field}"south": {s}{at}}}'
        for n, s, k in graph.edges
    ]
    return (
        f'{{{inner}"edges": {_joined(edges, inner)},'
        f'{inner}"vertices": {_joined(vertices, inner)}{indent}}}'
    )


def _emit_json(payload: dict) -> None:
    _emit(_json_text(payload))


def _polygon_arg(args: argparse.Namespace) -> pg.RationalPolygon | None:
    if args.polygon is None:
        return None
    return pg.polygon_from_json(_load_document(args.polygon))


def _graph_arg(args: argparse.Namespace) -> cg.S1Graph | None:
    if args.graph is None:
        return None
    return cg.graph_from_json(_load_document(args.graph))


def _spec_arg(args: argparse.Namespace) -> cs.ManifoldSpec:
    if args.spec is None:
        raise FormatError("this verb needs --spec")
    return cs.spec_from_json(_load_document(args.spec))


def _one_subject(
    args: argparse.Namespace,
) -> pg.RationalPolygon | cg.S1Graph:
    polygon = _polygon_arg(args)
    graph = _graph_arg(args)
    if (polygon is None) == (graph is None):
        raise FormatError("give exactly one of --polygon or --graph")
    return polygon if polygon is not None else graph


def _emit_polygon(polygon: pg.RationalPolygon, fmt: str) -> None:
    if fmt == "json":
        _emit_json(pg.polygon_to_json(polygon))
    elif fmt == "svg":
        _emit(render.polygon_svg(polygon))
    else:
        _emit(render.polygon_table(polygon))


def _emit_graph(graph: cg.S1Graph, fmt: str) -> None:
    if fmt == "json":
        _emit(_graph_text(graph))
    elif fmt == "svg":
        _emit(render.graph_svg(graph))
    else:
        _emit(render.graph_text(graph))


# ---------------------------------------------------------------------------
# Verbs


def _run_check(args: argparse.Namespace) -> None:
    subject = _one_subject(args)
    if isinstance(subject, pg.RationalPolygon):
        ok, diagnostics = pg.is_delzant(subject)
        label = "delzant"
    else:
        ok, diagnostics = cg.validate(subject)
        label = "valid circle-action graph"
    if args.format == "json":
        _emit_json({"ok": ok, "diagnostics": list(diagnostics)})
    else:
        _emit(render.check_table(ok, diagnostics, label))


def _run_canon(args: argparse.Namespace) -> None:
    subject = _one_subject(args)
    if isinstance(subject, pg.RationalPolygon):
        canonical, _ = pg.canonical_form(subject)
        _emit_polygon(canonical, args.format)
    else:
        _emit_graph(cg.canonical_form(subject), args.format)


def _run_invariants(args: argparse.Namespace) -> None:
    subject = _one_subject(args)
    if isinstance(subject, pg.RationalPolygon):
        inv = pg.invariants(subject)
        if args.format == "json":
            _emit_json(
                {
                    "edge_count": inv.edge_count,
                    "b2": inv.b2,
                    "euclidean_area": format_rational(inv.euclidean_area),
                    "anticanonical_perimeter": format_rational(inv.perimeter),
                    "edge_areas": [format_rational(a) for a in inv.edge_areas],
                    "self_intersections": list(inv.self_intersections),
                }
            )
        else:
            _emit(render.polygon_table(subject))
    else:
        graph = subject
        if args.format == "json":
            # The verdict validates the graph, so it comes first.
            extends = cg.extends_to_toric(graph)
            _emit_json(
                {
                    "components": len(graph.vertices),
                    "edges": len(graph.edges),
                    "min_moment": format_rational(graph.min_moment),
                    "max_moment": format_rational(graph.max_moment),
                    "extends_to_toric": extends,
                }
            )
        else:
            _emit(render.graph_invariants_table(graph))


def _run_blowup(args: argparse.Namespace) -> None:
    if args.delta is None:
        raise FormatError("blowup needs --delta")
    delta = parse_rational(args.delta)
    subject = _one_subject(args)
    if args.vertex is None:
        raise FormatError("blowup needs --vertex")
    if isinstance(subject, pg.RationalPolygon):
        _emit_polygon(pg.blow_up(subject, args.vertex, delta), args.format)
    else:
        _emit_graph(cg.blow_up(subject, args.vertex, delta), args.format)


def _run_blowdown(args: argparse.Namespace) -> None:
    polygon = _polygon_arg(args)
    if polygon is None:
        raise FormatError("blowdown needs --polygon")
    if args.edge is None:
        raise FormatError("blowdown needs --edge")
    _emit_polygon(pg.blow_down(polygon, args.edge), args.format)


def _run_project(args: argparse.Namespace) -> None:
    polygon = _polygon_arg(args)
    if polygon is None:
        raise FormatError("project needs --polygon")
    if args.xi is None:
        raise FormatError("project needs --xi")
    _emit_graph(cg.graph_from_polygon(polygon, _parse_xi(args.xi)), args.format)


def _steps_text(steps: tuple[cs.BlowUpStep, ...], indent: str, memo: dict) -> str:
    """A provenance's steps as `_json_text` writes them, one f-string each.
    memo maps the id of a step, kept alive while memo is in use, to its
    text at indent."""
    at = indent + "  "
    field = at + "  "
    texts = []
    for s in steps:
        text = memo.get(id(s))
        if text is None:
            memo[id(s)] = text = (
                f'{{{field}"delta": "{format_rational(s.delta)}",'
                f'{field}"site": {s.site}{at}}}'
            )
        texts.append(text)
    return _joined(texts, indent)


def _census_text(result: cs.CensusResult) -> str:
    """The census JSON document, written record by record.

    Byte for byte `json.dumps(payload, indent=2, sort_keys=True)` of the
    census payload: graphs and provenance steps are written one f-string
    per record, the small fields (spec, counts, polygons, xi, warnings)
    by `_json_text`.  The returned graphs share their components, and
    the provenances their steps, so one memo of vertex text and one of
    step text, which live for this call while the result holds every
    component and step, write each component and each step once.
    """
    top, entry, field = "\n  ", "\n    ", "\n      "
    step_memo: dict[int, str] = {}
    toric_prov = [
        _joined(
            [
                f'"base": {_json_text(pg.polygon_to_json(p.base), field)}',
                f'"steps": {_steps_text(p.steps, field, step_memo)}',
            ],
            entry,
            "{}",
        )
        for p in result.toric_provenance
    ]
    circle_prov = []
    for p in result.circle_provenance:
        fields = [] if p.degree is None else [f'"degree": {p.degree}']
        fields.append(f'"origin": {_json_string(p.origin)}')
        if p.polygon is not None:
            polygon = pg.polygon_to_json(p.polygon)
            fields.append(f'"polygon": {_json_text(polygon, field)}')
        fields.append(f'"stage": {p.stage}')
        fields.append(f'"steps": {_steps_text(p.steps, field, step_memo)}')
        if p.xi is not None:
            fields.append(f'"xi": {_json_text(p.xi, field)}')
        circle_prov.append(_joined(fields, entry, "{}"))
    counts = {
        "toric": result.counts.toric_count,
        "maximal_circles": result.counts.maximal_circle_count,
        "total_maximal_tori": result.counts.total_maximal_tori,
    }
    memo: dict[int, str] = {}
    graphs = [_graph_text(g, entry, memo) for g in result.maximal_circles]
    polygons = [pg.polygon_to_json(p) for p in result.toric]
    return _joined(
        [
            f'"circle_provenance": {_joined(circle_prov, top)}',
            f'"counts": {_json_text(counts, top)}',
            f'"maximal_circles": {_joined(graphs, top)}',
            f'"spec": {_json_text(cs.spec_to_json(result.spec), top)}',
            f'"toric": {_json_text(polygons, top)}',
            f'"toric_provenance": {_joined(toric_prov, top)}',
            f'"warnings": {_json_text(result.warnings, top)}',
        ],
        "\n",
        "{}",
    )


def _run_census(args: argparse.Namespace) -> None:
    result = cs.run_census(_spec_arg(args))
    if args.format == "json":
        _emit(_census_text(result))
    else:
        _emit(render.census_table(result))


def _feasibility_spec(args: argparse.Namespace) -> cs.ManifoldSpec:
    if args.spec is not None:
        return _spec_arg(args)
    if args.k is None or args.delta is None:
        raise FormatError("feasibility needs --spec, or --k and --delta")
    delta = parse_rational(args.delta)
    lam = parse_rational(args.lam)
    if args.k < 0:
        raise FormatError("blow-up count must be nonnegative")
    return cs.ManifoldSpec(
        base=cs.CP2, base_area=lam, capacities=(delta,) * args.k
    )


def _run_feasibility(args: argparse.Namespace) -> None:
    report = cs.feasibility_report(_feasibility_spec(args))
    if args.format == "json":
        _emit_json(dict(asdict(report), delta=format_rational(report.delta)))
    else:
        _emit(render.feasibility_table(report))


def _run_exceptional(args: argparse.Namespace) -> None:
    omega = cs.spec_to_symplectic(_spec_arg(args))
    bound = None if args.bound is None else parse_rational(args.bound)
    minimal = None
    if bound is None or not omega.basis.blowups or bound < omega.capacities[-1]:
        minimal = hm.minimal_exceptional_classes(omega)
        bound = minimal.epsilon if bound is None else bound
    candidates = hm.enumerate_exceptional_candidates(
        omega, bound, search_ceiling=args.ceiling
    )
    if minimal is None:
        # A walk to at least the last capacity holds every minimal class.
        minimal = hm.least_area_classes(omega, candidates)
    if args.format == "json":
        _emit_json(
            {
                "epsilon": format_rational(minimal.epsilon),
                "minimal_classes": [hm.class_to_json(c) for c in minimal.classes],
                "bound": format_rational(bound),
                "candidates": [
                    {
                        "class": hm.class_to_json(c),
                        "area": format_rational(hm.area(c, omega)),
                    }
                    for c in candidates
                ],
            }
        )
    else:
        _emit(render.exceptional_table(omega, minimal, bound, candidates))


def _chain_json(chain: hm.BlowdownChain) -> dict:
    return {
        "steps": [
            {
                "stage": step.stage,
                "class": hm.class_to_json(step.chosen),
                "area": format_rational(step.area),
            }
            for step in chain.steps
        ],
        "terminal": hm.symplectic_to_json(chain.terminal),
    }


def _run_chains(args: argparse.Namespace) -> None:
    omega = cs.spec_to_symplectic(_spec_arg(args))
    chains = hm.minimal_blowdown_chains(omega)
    if args.format == "json":
        _emit_json(
            {
                "count": len(chains),
                "chains": [_chain_json(c) for c in chains],
                "canonical": _chain_json(chains[0]),
            }
        )
    else:
        _emit(render.chains_table(chains))


def _run_threshold(args: argparse.Namespace) -> None:
    omega = cs.spec_to_symplectic(_spec_arg(args))
    threshold = hm.min_capacity_threshold(omega)
    if args.format == "json":
        _emit_json(
            {
                "value": format_rational(threshold.value),
                "binding": [hm.class_to_json(c) for c in threshold.binding],
            }
        )
    else:
        _emit(render.threshold_table(threshold))


# The verbs whose output is a polygon or a graph.
_SVG_VERBS = {"canon", "blowup", "blowdown", "project"}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torus-census",
        description=(
            "Exact-arithmetic censuses of toric and circle actions on "
            "blow-ups of rational and ruled symplectic four-manifolds."
        ),
    )
    subparsers = parser.add_subparsers(dest="verb", metavar="verb")
    subparsers.required = True

    def add(verb: str, help_text: str, run) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(verb, help=help_text)
        sub.set_defaults(run=run)
        sub.add_argument(
            "--format",
            choices=("table", "json", "svg"),
            default="table",
            help="output format (svg only for polygon or graph output)",
        )
        return sub

    for verb, help_text, run in (
        ("check", "check whether a polygon is Delzant or a circle-action graph is valid", _run_check),
        ("canon", "canonical form of a polygon or circle-action graph", _run_canon),
        ("invariants", "invariants of a polygon or circle-action graph", _run_invariants),
    ):
        sub = add(verb, help_text, run)
        sub.add_argument("--polygon", help="polygon JSON, inline or a file path")
        sub.add_argument("--graph", help="graph JSON, inline or a file path")

    sub = add("blowup", "equivariant blow-up at a vertex or fixed component", _run_blowup)
    sub.add_argument("--polygon", help="polygon JSON, inline or a file path")
    sub.add_argument("--graph", help="graph JSON, inline or a file path")
    sub.add_argument("--vertex", type=int, help="vertex index or component id")
    sub.add_argument("--delta", help="blow-up capacity, a positive rational")

    sub = add("blowdown", "blow down an exceptional polygon edge", _run_blowdown)
    sub.add_argument("--polygon", help="polygon JSON, inline or a file path")
    sub.add_argument("--edge", type=int, help="index of the edge to collapse")

    sub = add("project", "project a polygon to a circle-action graph", _run_project)
    sub.add_argument("--polygon", help="polygon JSON, inline or a file path")
    sub.add_argument("--xi", help="primitive integer direction, as a,b")

    sub = add("census", "count maximal toric and circle actions for a recipe", _run_census)
    sub.add_argument("--spec", help="manifold recipe JSON, inline or a file path")

    sub = add("feasibility", "compare closed-form tests with the census", _run_feasibility)
    sub.add_argument("--spec", help="manifold recipe JSON, inline or a file path")
    sub.add_argument("--k", type=int, help="number of equal-capacity blow-ups")
    sub.add_argument("--delta", help="common blow-up capacity")
    sub.add_argument(
        "--lambda",
        dest="lam",
        default="1",
        help="line area of the unblown base (default 1)",
    )

    for verb, help_text, run in (
        ("exceptional", "enumerate exceptional homology classes by area", _run_exceptional),
        ("chains", "enumerate minimal blow-down chains to a model surface", _run_chains),
        ("threshold", "least capacity at which some exceptional area ties", _run_threshold),
    ):
        sub = add(verb, help_text, run)
        sub.add_argument("--spec", help="manifold recipe JSON, inline or a file path")
        if verb == "exceptional":
            sub.add_argument("--bound", help="area bound (default: minimal area)")
            sub.add_argument(
                "--ceiling",
                type=int,
                default=hm.DEFAULT_SEARCH_CEILING,
                help="safety cap on lattice search coefficients",
            )

    return parser


# Parsing leaves a parser as it was, so one parser serves every call.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.format == "svg" and args.verb not in _SVG_VERBS:
            raise FormatError(f"--format svg is not available for {args.verb}")
        args.run(args)
        sys.stdout.flush()
    except FormatError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (`| head`).  Python flushes stdout again
        # at exit, so point it at devnull to keep that flush quiet too; the
        # exit code is the one Python gives a broken pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
