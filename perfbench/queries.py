"""The ``queries`` workload: single-shot calls a user makes, one at a time.

Four kinds of operation, interleaved in an order drawn from the seed:

- ``reid``: ``endo_from_matrix`` then ``reidemeister_number`` on a bounded
  automorphism of a 4-6 vertex graph;
- ``member``: ``form.contains(v)`` on a catalog or composite spectrum form;
- ``oracle``: ``count_twisted_classes`` at modulus m = 2R;
- ``classify``: ``detect_r_infinity`` then
  ``spectrum_by_decomposition(g).simplify()`` on a 5-8 vertex graph.

The instances come from a pool in ``golden/queries.json`` that holds every
answer.  The pool of each kind is split into groups of instances of similar
cost; a run draws one instance from each group, so every seed does about the
same amount of work while the instances differ.
"""

from __future__ import annotations

import random
from math import isqrt
from statistics import median
from time import perf_counter

from nilgraph.catalog import CATALOG
from nilgraph.exactlin import IntMatrix, det
from nilgraph.graphs import (
    Graph,
    connected_components,
    is_isomorphic,
    join_decompose,
    simplicial_join,
)
from nilgraph.morphism import endo_from_matrix, reidemeister_number
from nilgraph.nilgroup import Presentation, commutator
from nilgraph.oracle import FiniteQuotient, count_twisted_classes
from nilgraph.spectra import (
    AtomForm,
    PartialProductsForm,
    ProductForm,
    detect_r_infinity,
    spectrum_by_decomposition,
)

from common import Record, Round, encode, encode_error, load_golden, percentile

MEMBER_KINDS = (
    "OneEdgeFamily",
    "TwoEdgeFamily",
    "TwoSquares",
    "FourSquares",
    "ProductForm",
    "PartialProductsForm",
    "residue",
)

# Fails at the seed: the float cube root overflows.  Run once per round,
# counted in error_rate, outcome recorded but not gated.
KNOWN_DEFECT_MEMBER = ("TwoEdgeFamily", 10**400 + 1)
KNOWN_DEFECT_ID = "member:TwoEdgeFamily:10**400+1"

_CATALOG_GRAPHS = {e.key: e.graph for e in CATALOG}


def build_form(form_id: str):
    """A spectrum form from its pool id: an atom kind, or ``join:A+B+...``
    for the simplified decomposition form of a join of catalog graphs."""
    if form_id.startswith("join:"):
        parts = [_CATALOG_GRAPHS[k] for k in form_id[len("join:"):].split("+")]
        return spectrum_by_decomposition(simplicial_join(*parts)).simplify()
    return AtomForm(form_id)


def member_kind(form) -> str:
    if isinstance(form, (ProductForm, PartialProductsForm)):
        return type(form).__name__
    return form.kind if form.kind in MEMBER_KINDS else "residue"


def graph_from(spec) -> Graph:
    n, edges = spec
    return Graph.from_edges(n, edges)


def square(flat: list[int]) -> IntMatrix:
    n = isqrt(len(flat))
    return IntMatrix(n, n, tuple(flat))


class ReidOp:
    kind = "reid"

    def __init__(self, p: Presentation, m: IntMatrix, answer: str) -> None:
        self.p, self.m, self.answer = p, m, answer

    def run(self):
        return reidemeister_number(endo_from_matrix(self.p, self.m))

    def traced(self, tracer):
        p = self.p
        with tracer.span("morphism.endo"):
            e = endo_from_matrix(p, self.m)
        for i, j in p.graph.edge_list():
            with tracer.span("nilgroup.commutator"):
                commutator(p, e.images[i], e.images[j])
        with tracer.span("morphism.reid"):
            result = reidemeister_number(e)
        d1 = IntMatrix.identity(p.n) - e.vertex_matrix
        with tracer.span("exactlin.det1"):
            det(d1)
        d2 = IntMatrix.identity(p.N) - e.commutator_matrix
        with tracer.span("exactlin.det2"):
            det(d2)
        return result

    def encode(self, raw) -> str:
        return encode(raw.to_json())

    def verify(self, raw) -> str | None:
        return None


class MemberOp:
    kind = "member"

    def __init__(self, form, v: int, answer: str | None) -> None:
        self.form, self.v, self.answer = form, v, answer
        self.span_name = f"spectra.contains.{member_kind(form)}"

    def run(self):
        return self.form.contains(self.v)

    def traced(self, tracer):
        with tracer.span(self.span_name):
            return self.form.contains(self.v)

    def encode(self, raw) -> str:
        return encode(raw)

    def verify(self, raw) -> str | None:
        return None


class OracleOp:
    kind = "oracle"

    def __init__(self, q: FiniteQuotient, e, r: int, answer: str) -> None:
        self.q, self.e, self.r, self.answer = q, e, r, answer

    def run(self):
        return count_twisted_classes(self.q, self.e)

    def traced(self, tracer):
        with tracer.span("oracle.count"):
            return count_twisted_classes(self.q, self.e)

    def encode(self, raw) -> str:
        return encode(raw)

    def verify(self, raw) -> str | None:
        # at m = 2R the orbit count equals the determinant formula
        return None if raw == self.r else f"oracle count {raw} != R = {self.r}"


class ClassifyOp:
    kind = "classify"

    def __init__(self, g: Graph, relabelled: Graph, answer: str) -> None:
        self.g, self.relabelled, self.answer = g, relabelled, answer
        self.iso = True

    def run(self):
        rule = detect_r_infinity(self.g)
        form = spectrum_by_decomposition(self.g)
        return rule, form.simplify() if form is not None else None

    def traced(self, tracer):
        g = self.g
        with tracer.span("graphs.join_decompose"):
            join_decompose(g)
        with tracer.span("graphs.connected_components"):
            connected_components(g)
        with tracer.span("graphs.is_isomorphic"):
            self.iso = is_isomorphic(g, self.relabelled)
        with tracer.span("spectra.detect"):
            rule = detect_r_infinity(g)
        with tracer.span("spectra.decompose"):
            form = spectrum_by_decomposition(g)
            form = form.simplify() if form is not None else None
        return rule, form

    def encode(self, raw) -> str:
        rule, form = raw
        return encode({"rule": rule, "form": form.render() if form is not None else None})

    def verify(self, raw) -> str | None:
        return None if self.iso else "graph not isomorphic to its relabelling"


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges])


def draw_ops(pool: dict, seed: int) -> list:
    """One instance from each cost group of each kind, in a seeded order."""
    rng = random.Random(seed)
    graphs = [graph_from(spec) for spec in pool["graphs"]]
    presentations = [Presentation.of(g) for g in graphs]
    forms = {fid: build_form(fid) for fid in pool["forms"]}
    ops: list = []
    for group in pool["reid"]:
        gi, flat, answer = rng.choice(group)
        ops.append(ReidOp(presentations[gi], square(flat), answer))
    for kind in MEMBER_KINDS:
        for group in pool["member"][kind]:
            fid, v, answer = rng.choice(group)
            ops.append(MemberOp(forms[fid], v, answer))
    for group in pool["oracle"]:
        gi, flat, m, r, answer = rng.choice(group)
        p = presentations[gi]
        ops.append(OracleOp(FiniteQuotient(p, m), endo_from_matrix(p, square(flat)), r, answer))
    for group in pool["classify"]:
        gi, answer = rng.choice(group)
        ops.append(ClassifyOp(graphs[gi], relabel(graphs[gi], rng), answer))
    fid, v = KNOWN_DEFECT_MEMBER
    ops.append(MemberOp(forms[fid], v, None))  # no answer: checked as a known defect
    rng.shuffle(ops)
    return ops


class QueryWorkload:
    def __init__(self, seed: int) -> None:
        self.pool = load_golden("queries.json")
        self.ops = draw_ops(self.pool, seed)

    def run_round(self) -> Round:
        records = []
        t0 = perf_counter()
        for op in self.ops:
            t = perf_counter()
            try:
                raw, exc = op.run(), None
            except Exception as e:  # recorded and compared with the golden outcome
                raw, exc = None, e
            records.append(Record(op, perf_counter() - t, raw, exc))
        return Round(perf_counter() - t0, records)

    def traced_round(self, tracer) -> Round:
        records = []
        t0 = perf_counter()
        for index, op in enumerate(self.ops):
            tracer.op = index
            t = perf_counter()
            with tracer.span(f"bench.{op.kind}"):
                try:
                    raw, exc = op.traced(tracer), None
                except Exception as e:  # recorded and compared with the golden outcome
                    raw, exc = None, e
            records.append(Record(op, perf_counter() - t, raw, exc))
        return Round(perf_counter() - t0, records)

    # The calls an untraced operation makes; the rest of a traced round is
    # probe calls and span bookkeeping.
    op_spans = (
        "morphism.endo",
        "morphism.reid",
        "oracle.count",
        "spectra.detect",
        "spectra.decompose",
    ) + tuple(f"spectra.contains.{k}" for k in MEMBER_KINDS)

    def check(self, records: list[Record]) -> tuple[int, int, list[str]]:
        """(mismatched, errors, notes), as for the search workloads."""
        mismatched = errors = 0
        notes = []
        known = self.pool["known_defects"][KNOWN_DEFECT_ID]
        for rec in records:
            op = rec.op
            got = encode_error(rec.exc) if rec.exc is not None else op.encode(rec.raw)
            if op.answer is None:
                errors += rec.exc is not None
                state = "as recorded" if got == known else f"changed: {got[:200]}"
                notes.append(f"known defect {KNOWN_DEFECT_ID} (OverflowError from the float cube root): {state}")
                continue
            problem = None
            if got != op.answer:
                problem = f"{op.kind}: got {got[:120]}, golden {op.answer[:120]}"
            elif rec.exc is None:
                problem = op.verify(rec.raw)
            if problem:
                mismatched += 1
                notes.append(problem)
            errors += problem is not None or rec.exc is not None
        return mismatched, errors, sorted(set(notes))

    def end_to_end(self, rounds: list[Round]) -> dict:
        samples: dict[str, list[float]] = {"reid": [], "member": [], "oracle": [], "classify": []}
        for rnd in rounds:
            for rec in rnd.records:
                samples[rec.op.kind].append(rec.seconds)
        out = {}
        for kind, tail, scale, unit in (
            ("reid", 0.99, 1e6, "us"),
            ("member", 0.99, 1e6, "us"),
            ("oracle", 0.90, 1e3, "ms"),
            ("classify", 0.99, 1e6, "us"),
        ):
            p50, _ = percentile(samples[kind], 0.50)
            pt, beyond = percentile(samples[kind], tail)
            out[f"{kind}_p50_{unit}"] = (p50 * scale, unit)
            out[f"{kind}_p{round(tail * 100)}_{unit}"] = (pt * scale, unit)
            out[f"{kind}_samples"] = (len(samples[kind]), "count")
            out[f"{kind}_p{round(tail * 100)}_beyond"] = (beyond, "count")
        return out

    def per_layer(self, tracer, rounds: list[Round]) -> dict:
        out = {}
        for kind in MEMBER_KINDS:
            out[f"spectra.contains_us.{kind}"] = (tracer.median_us(f"spectra.contains.{kind}"), "us")
        counts = tracer.durations("oracle.count")
        elements = sum(op.q.size for op in self.ops if op.kind == "oracle") * len(rounds)
        out["oracle.count_ms"] = (median(counts) * 1e3, "ms")
        out["oracle.ns_per_element"] = (sum(counts) / elements * 1e9, "ns")
        return out
