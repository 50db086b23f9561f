"""Command-line front door.

Subcommands: ``analyze`` (structure + classification of a graph),
``reid`` (exact Reidemeister number of one automorphism), ``search``
(bounded spectrum search, JSON report), ``verify-tables`` (check the full
small-graph catalog against its closed forms), ``oracle`` (finite-quotient
orbit count vs the determinant formula).

Exit codes: 0 success / verified, 1 verification failure, 2 parse error or
out-of-range argument, 3 relation violation, 4 not an automorphism,
5 resource guard.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import CATALOG, lookup_catalog
from .graphs import Graph, GraphFormatError, connected_components, degree_filtration, graph_from_text, join_decompose
from .morphism import (
    NotAutomorphism,
    RelationViolation,
    endo_from_json,
    reidemeister_number,
)
from .nilgroup import Presentation, center_rank, gamma2_rank
from .oracle import FiniteQuotient, QuotientSizeError, count_twisted_classes
from .spectra import (
    SearchBudgetExceeded,
    SpectrumConsistencyError,
    compute_spectrum_report,
    detect_r_infinity,
    spectrum_by_decomposition,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_RELATION = 3
EXIT_NOT_AUT = 4
EXIT_RESOURCE = 5


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read())


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _dump(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1)


def cmd_analyze(args) -> int:
    try:
        g = _read_graph(args.graph)
    except (OSError, GraphFormatError, json.JSONDecodeError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    p = Presentation.of(g)
    jd = join_decompose(g)
    cd = connected_components(g)
    rule = detect_r_infinity(g)
    form = spectrum_by_decomposition(g)
    form = form.simplify() if form is not None else None
    entry = lookup_catalog(g)
    info = {
        "n": g.n,
        "edges": [list(e) for e in g.edge_list()],
        "nonedges": [list(e) for e in p.nonedges],
        "N": p.N,
        "center_rank": center_rank(p),
        "commutator_rank": gamma2_rank(p),
        "degree_filtration": [list(v) for v in degree_filtration(g)],
        "join": {
            "apex": list(jd.apex),
            "factors": [list(f) for f in jd.factors],
            "types": [list(t) for t in jd.types],
        },
        "components": {
            "isolated": list(cd.isolated),
            "components": [list(c) for c in cd.components],
            "types": [list(t) for t in cd.types],
        },
        "r_infinity_rule": rule,
        "spectrum": form.render() if form is not None else None,
        "catalog_class": entry.key if entry else None,
    }
    if args.output == "json":
        print(_dump(info))
        return EXIT_OK
    print(f"vertices: {g.n}")
    if entry is not None:
        print(f"catalog class: {entry.key} ({entry.description})")
    print(f"edges: {info['edges']}")
    print(f"nonedges (N={p.N}): {info['nonedges']}")
    print(f"center rank: {info['center_rank']}")
    print(f"commutator rank: {info['commutator_rank']}")
    for d, vs in enumerate(info["degree_filtration"], start=1):
        print(f"V_{d} = {vs}")
    print(f"join decomposition: apex {info['join']['apex']}, factors {info['join']['factors']}")
    print(
        f"components: isolated {info['components']['isolated']}, "
        f"components {info['components']['components']}"
    )
    print(f"R-infinity: {'yes (' + rule + ')' if rule else 'no rule applies'}")
    if form is not None:
        print(f"spectrum: {form.render()}")
    else:
        print("spectrum: not classified (search only)")
    return EXIT_OK


def _load_automorphism(args):
    """(graph, endomorphism, its Reidemeister number) from the ``graph`` and
    ``aut`` files of ``reid`` and ``oracle``, or the exit code after the
    error is reported."""
    try:
        g = _read_graph(args.graph)
        endo = endo_from_json(Presentation.of(g), _read_json(args.aut))
    except (OSError, GraphFormatError, json.JSONDecodeError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    except RelationViolation as exc:
        return _fail(EXIT_RELATION, f"{exc} (edge {exc.edge})")
    except ValueError as exc:
        return _fail(EXIT_PARSE, str(exc))
    try:
        return g, endo, reidemeister_number(endo)
    except NotAutomorphism as exc:
        return _fail(EXIT_NOT_AUT, str(exc))


def cmd_reid(args) -> int:
    loaded = _load_automorphism(args)
    if isinstance(loaded, int):
        return loaded
    result = loaded[2]
    if args.output == "json":
        print(_dump(result.to_json()))
    else:
        print(f"r1={result.r1} r2={result.r2} r={result.r}")
    return EXIT_OK


def cmd_search(args) -> int:
    try:
        g = _read_graph(args.graph)
    except (OSError, GraphFormatError, json.JSONDecodeError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    try:
        report = compute_spectrum_report(g, args.bound, node_budget=args.budget)
    except SearchBudgetExceeded as exc:
        return _fail(EXIT_RESOURCE, str(exc))
    except SpectrumConsistencyError as exc:
        return _fail(EXIT_VERIFY_FAIL, str(exc))
    if args.output == "json":
        print(_dump(report.to_json()))
    else:
        cls = report.classification
        if cls.kind == "closed_form":
            print(f"classification: closed form {cls.form.render()}")
        elif cls.kind == "r_infinity_rule":
            print(f"classification: R-infinity by rule {cls.rule}")
        else:
            print("classification: search only")
        print(f"bound: {report.bound}")
        print(f"observed: {list(report.observed)}")
        for v in report.observed:
            print(f"witness {v}: {[list(r) for r in report.witnesses[v]]}")
    return EXIT_OK


def cmd_verify_tables(args) -> int:
    rows = []
    failed = False
    selected = CATALOG
    if args.only:
        unknown = [k for k in args.only if k not in {e.key for e in CATALOG}]
        if unknown:
            return _fail(EXIT_PARSE, f"unknown catalog keys: {unknown}")
        selected = [e for e in CATALOG if e.key in set(args.only)]
    for entry in selected:
        bound = args.bound if args.bound is not None else entry.verify_bound
        problems = []
        try:
            report = compute_spectrum_report(entry.graph, bound)
        except SpectrumConsistencyError as exc:
            problems.append(str(exc))
            report = None
        if report is not None:
            outside = [v for v in report.observed if not entry.form.contains(v)]
            if outside:
                problems.append(f"values {outside} outside {entry.form.render()}")
            if entry.is_r_infinity and report.observed:
                problems.append(f"expected no finite values, found {list(report.observed)}")
            missing = [v for v in entry.expected_small if v not in report.observed]
            if missing:
                problems.append(f"expected witnesses for {missing}")
        status = "PASS" if not problems else "FAIL"
        if problems:
            failed = True
        rows.append(
            {
                "key": entry.key,
                "bound": bound,
                "observed": list(report.observed) if report else None,
                "spectrum": entry.form.render(),
                "status": status,
                "problems": problems,
            }
        )
        if args.output != "json":
            detail = f" ({'; '.join(problems)})" if problems else ""
            print(f"{status} {entry.key}: observed {rows[-1]['observed']} ⊆ {entry.form.render()}{detail}")
    if args.output == "json":
        print(_dump({"rows": rows, "classes": len(rows), "ok": not failed}))
    else:
        print(f"{'FAIL' if failed else 'PASS'}: {len(rows)} graph classes checked")
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_oracle(args) -> int:
    loaded = _load_automorphism(args)
    if isinstance(loaded, int):
        return loaded
    g, endo, result = loaded
    if result.r.is_infinite:
        if args.output == "json":
            print(_dump({"formula": "inf", "oracle": None, "ok": True}))
        else:
            print("formula=inf, oracle skipped")
        return EXIT_OK
    modulus = args.mod if args.mod is not None else 2 * result.r.value
    try:
        quotient = FiniteQuotient(Presentation.of(g), modulus)
    except QuotientSizeError as exc:
        return _fail(EXIT_RESOURCE, str(exc))
    count = count_twisted_classes(quotient, endo)
    ok = count == result.r.value
    if args.output == "json":
        print(_dump({"formula": result.r.value, "oracle": count, "modulus": modulus, "ok": ok}))
    else:
        print(f"oracle={count} formula={result.r.value} {'OK' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _int_at_least(lo: int):
    """argparse type: an integer >= lo; argparse reports a violation as an
    ``error:`` line with exit code 2."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilgraph",
        description="Reidemeister numbers and spectra of 2-step nilpotent groups of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("--output", choices=("text", "json"), default="text")

    sp = sub.add_parser("analyze", help="presentation, decompositions and classification")
    sp.add_argument("graph")
    add_output(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("reid", help="Reidemeister number of one automorphism")
    sp.add_argument("graph")
    sp.add_argument("aut")
    add_output(sp)
    sp.set_defaults(func=cmd_reid)

    sp = sub.add_parser("search", help="bounded automorphism search, spectrum report")
    sp.add_argument("graph")
    sp.add_argument("--bound", type=_int_at_least(1), default=None)
    sp.add_argument("--budget", type=_int_at_least(0), default=None, help="node budget for the search guard")
    add_output(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("verify-tables", help="check all 18 small-graph classes")
    sp.add_argument("--bound", type=_int_at_least(1), default=None, help="override the per-class bound")
    sp.add_argument(
        "--only", action="append", default=None, metavar="KEY", help="restrict to catalog keys"
    )
    add_output(sp)
    sp.set_defaults(func=cmd_verify_tables)

    sp = sub.add_parser("oracle", help="finite-quotient count vs determinant formula")
    sp.add_argument("graph")
    sp.add_argument("aut")
    sp.add_argument("--mod", type=_int_at_least(2), default=None)
    add_output(sp)
    sp.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
