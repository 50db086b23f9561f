"""Search workloads: exhaustive bounded searches over fixed graph classes.

An operation is one ``compute_spectrum_report(graph, bound)`` call.  The
searches of a workload are fixed; the seed only sets their order.  The
traced run adds two calls per search, each in its own span: the
classification on its own (``detect_r_infinity`` and
``spectrum_by_decomposition``) and a drain of ``_automorphism_columns``,
which is the enumeration on its own.  Evaluation is what the report spends
beyond those two.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import median
from time import perf_counter

from nilgraph.catalog import CATALOG
from nilgraph.exactlin import ExtNat, IntMatrix
from nilgraph.graphs import Graph, cycle_graph, path_graph
from nilgraph.morphism import endo_from_matrix, reidemeister_number
from nilgraph.nilgroup import Presentation
from nilgraph.spectra import (
    _automorphism_columns,
    compute_spectrum_report,
    detect_r_infinity,
    spectrum_by_decomposition,
)

from common import Record, Round, encode, encode_error, load_golden

SEARCHES: dict[str, tuple[tuple[str, int], ...]] = {
    "search-dense": (
        ("K3", 3),
        ("K3_plus_point", 1),
        ("star", 1),
        ("one_edge", 1),
        ("diamond", 1),
        ("P3_plus_point", 2),
        ("two_edges", 3),
    ),
    "search-walk": (
        ("C4", 2),
        ("C5", 1),
        ("C6", 1),
        ("C7", 1),
        ("P4", 3),
        ("P5", 1),
        ("P6", 1),
    ),
    "search-edgeless": (("N42", 1), ("N32", 2)),
}

# Operations that fail at the seed.  Their outcome is recorded and counted
# in error_rate, but not gated: which side is wrong is still open.
KNOWN_DEFECTS = {
    "two_edges-B3": "SpectrumConsistencyError: realizes 50, 200 and 242 outside TWO_EDGE_FAMILY",
}

CATALOG_BY_KEY = {e.key: e for e in CATALOG}
EXTRA_GRAPHS = {
    "C5": cycle_graph(5),
    "C6": cycle_graph(6),
    "C7": cycle_graph(7),
    "P5": path_graph(5),
    "P6": path_graph(6),
}


def search_id(key: str, bound: int) -> str:
    return f"{key}-B{bound}"


ALL_SEARCH_IDS = [search_id(k, b) for specs in SEARCHES.values() for k, b in specs]


def graph_of(key: str) -> Graph:
    entry = CATALOG_BY_KEY.get(key)
    return entry.graph if entry is not None else EXTRA_GRAPHS[key]


@dataclass(frozen=True)
class Search:
    id: str
    key: str
    graph: Graph
    bound: int


def run_search(s: Search) -> Record:
    t = perf_counter()
    try:
        raw, exc = compute_spectrum_report(s.graph, s.bound), None
    except Exception as e:  # recorded and compared with the golden outcome
        raw, exc = None, e
    return Record(s, perf_counter() - t, raw, exc)


def outcome(rec: Record) -> str:
    return encode_error(rec.exc) if rec.exc is not None else encode(rec.raw.to_json())


def verify_report(s: Search, report) -> list[str]:
    """Checks that do not rely on the golden text: catalog containment,
    ``expected_small`` at or above the verification bound, and each
    witness re-evaluated through ``reidemeister_number``."""
    problems = []
    entry = CATALOG_BY_KEY.get(s.key)
    if entry is not None:
        outside = [v for v in report.observed if not entry.form.contains(v)]
        if outside:
            problems.append(f"{s.id}: {outside} outside the catalog form")
        if s.bound >= entry.verify_bound:
            missing = sorted(set(entry.expected_small) - set(report.observed))
            if missing:
                problems.append(f"{s.id}: expected_small {missing} not realized")
    elif detect_r_infinity(s.graph) is not None and report.observed:
        problems.append(f"{s.id}: finite values on an infinite-only graph")
    p = Presentation.of(s.graph)
    for v, rows in report.witnesses.items():
        e = endo_from_matrix(p, IntMatrix.from_rows([list(r) for r in rows]))
        if reidemeister_number(e).r != ExtNat(v):
            problems.append(f"{s.id}: witness for {v} does not realize it")
    return problems


class SearchWorkload:
    def __init__(self, name: str, seed: int) -> None:
        self.golden = load_golden("searches.json")
        self.searches = [
            Search(search_id(k, b), k, graph_of(k), b) for k, b in SEARCHES[name]
        ]
        random.Random(seed).shuffle(self.searches)
        self.matrices: dict[str, int] = {}

    def run_round(self) -> Round:
        t0 = perf_counter()
        records = [run_search(s) for s in self.searches]
        return Round(perf_counter() - t0, records)

    def traced_round(self, tracer) -> Round:
        t0 = perf_counter()
        records = []
        for s in self.searches:
            tracer.op = s.id
            with tracer.span("bench.search"):
                with tracer.span("spectra.classify"):
                    with tracer.span("spectra.detect"):
                        detect_r_infinity(s.graph)
                    with tracer.span("spectra.decompose"):
                        form = spectrum_by_decomposition(s.graph)
                        if form is not None:
                            form.simplify()
                with tracer.span("spectra.report"):
                    records.append(run_search(s))
                with tracer.span("spectra.enumerate"):
                    p = Presentation.of(s.graph)
                    self.matrices[s.id] = sum(1 for _ in _automorphism_columns(p, s.bound))
        return Round(perf_counter() - t0, records)

    # Only the report calls are the operation itself.
    op_spans = ("spectra.report",)

    def check(self, records: list[Record]) -> tuple[int, int, list[str]]:
        """(mismatched, errors, notes): operations whose output differs from
        the golden reference or fails a check, operations that raised or
        mismatched, and what was found."""
        mismatched = errors = 0
        notes = []
        for rec in records:
            s = rec.op
            gold = self.golden[s.id]
            got = outcome(rec)
            if s.id in KNOWN_DEFECTS:
                errors += rec.exc is not None
                state = "as recorded" if got == gold["outcome"] else f"changed: {got[:200]}"
                notes.append(f"known defect {s.id} ({KNOWN_DEFECTS[s.id]}): {state}")
                continue
            problems = [] if got == gold["outcome"] else [f"{s.id}: report differs from golden"]
            if rec.exc is None:
                problems += verify_report(s, rec.raw)
            mismatched += bool(problems)
            errors += bool(problems) or rec.exc is not None
            notes += problems
        for sid, count in self.matrices.items():
            if count != self.golden[sid]["matrices"]:
                mismatched += 1
                notes.append(f"{sid}: enumerated {count} matrices, golden {self.golden[sid]['matrices']}")
        return mismatched, errors, sorted(set(notes))

    def end_to_end(self, rounds: list[Round]) -> dict:
        return {}

    def per_layer(self, tracer, rounds: list[Round]) -> dict:
        passes = len(rounds)
        classify = tracer.total("spectra.classify") / passes
        enumerate_ = tracer.total("spectra.enumerate") / passes
        evaluate = tracer.total("spectra.report") / passes - enumerate_ - classify
        matrices = sum(self.matrices.values())
        values = sum(len(r.raw.observed) for r in rounds[0].records if r.exc is None)
        out = {
            "spectra.classify_s": (classify, "s"),
            "spectra.enumerate_s": (enumerate_, "s"),
            "spectra.enumerate_ns_per_matrix": (enumerate_ / matrices * 1e9, "ns"),
            "spectra.evaluate_s": (evaluate, "s"),
            "spectra.evaluate_ns_per_matrix": (evaluate / matrices * 1e9, "ns"),
            "spectra.matrices": (matrices, "count"),
            "spectra.values": (values, "count"),
            "spectra.value_yield": (values / matrices, "ratio"),
        }
        for s in self.searches:
            times = [r.seconds for rnd in rounds for r in rnd.records if r.op.id == s.id]
            out[f"search_s.{s.id}"] = (median(times), "s")
            out[f"spectra.matrices.{s.id}"] = (self.matrices[s.id], "count")
        return out
