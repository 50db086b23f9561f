"""Record the golden reference the benchmark checks every run against.

    python3 perfbench/make_golden.py

writes ``perfbench/golden/searches.json`` (the sorted-key report JSON, or
the exception, of every search, plus its enumerated matrix count) and
``perfbench/golden/queries.json`` (the query pool with every answer).  The
pool is drawn from the fixed seed ``POOL_SEED``; each entry is timed once
here only to sort the pool into groups of similar cost.

Run it only to record a new reference on purpose: the recorded outputs are
the fixed point that later changes must reproduce byte for byte.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations, permutations
from math import exp, log
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nilgraph.catalog import CATALOG  # noqa: E402
from nilgraph.exactlin import IntMatrix  # noqa: E402
from nilgraph.graphs import (  # noqa: E402
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    simplicial_join,
)
from nilgraph.morphism import (  # noqa: E402
    RelationViolation,
    companion_automorphism,
    eight_times_polynomial,
    endo_from_matrix,
    reidemeister_number,
    twice_odd_polynomial,
)
from nilgraph.nilgroup import Presentation  # noqa: E402
from nilgraph.oracle import FiniteQuotient  # noqa: E402
from nilgraph.spectra import _automorphism_columns, enumerate_automorphisms  # noqa: E402

from common import GOLDEN_DIR, encode, encode_error  # noqa: E402
from queries import (  # noqa: E402
    KNOWN_DEFECT_ID,
    KNOWN_DEFECT_MEMBER,
    MEMBER_KINDS,
    ClassifyOp,
    MemberOp,
    OracleOp,
    ReidOp,
    build_form,
    member_kind,
)
from searches import ALL_SEARCH_IDS, Search, graph_of, outcome, run_search  # noqa: E402

POOL_SEED = 20220207
GROUP = 3  # instances per cost group; a run draws one from each group
REID_GROUPS = 2000
MEMBER_GROUPS = {k: 286 for k in MEMBER_KINDS} | {"residue": 284}
ORACLE_GROUPS, ORACLE_GROUP = 100, 4
CLASSIFY_GROUPS = 1000
ORACLE_MAX_SIZE = 10**4

MEMBER_FORMS = {
    "OneEdgeFamily": ["OneEdgeFamily"],
    "TwoEdgeFamily": ["TwoEdgeFamily"],
    "TwoSquares": ["TwoSquares"],
    "FourSquares": ["FourSquares"],
    "residue": ["FullN0", "TwoN0", "FourN0", "OddUnion4N0", "TwoOddUnion8N0", "Z1"],
    "ProductForm": [
        "join:K2_plus_point+N32",
        "join:N22+N32",
        "join:P3+N32",
        "join:K1+K2_plus_point+N32",
        "join:N32+K2_plus_point+N22",
        "join:K1+one_edge",
    ],
    "PartialProductsForm": [
        "join:K2_plus_point+K2_plus_point",
        "join:N32+N32",
        "join:K2_plus_point+K2_plus_point+K2_plus_point",
        "join:N32+N32+N32",
        "join:one_edge+one_edge",
    ],
}
# Largest v drawn per form.  The O(v^2) families would take seconds per call
# near 3000, so they are drawn below the bound where one call stays near 0.1 s.
MEMBER_V_MAX = {
    "TwoEdgeFamily": 600,
    "OneEdgeFamily": 1200,
    "join:K1+one_edge": 1200,
    "join:one_edge+one_edge": 1200,
}
MEMBER_V_DEFAULT = 3000


class GraphTable:
    def __init__(self) -> None:
        self.specs: list = []
        self.index: dict = {}

    def add(self, g: Graph) -> int:
        key = (g.n, tuple(g.edge_list()))
        if key not in self.index:
            self.index[key] = len(self.specs)
            self.specs.append([g.n, [list(e) for e in key[1]]])
        return self.index[key]


def timed(fn) -> tuple[float, object]:
    t = perf_counter()
    value = fn()
    return perf_counter() - t, value


def cost_groups(entries: list[tuple[float, list]], size: int, count: int) -> list[list]:
    """Sort (cost, entry) pairs by cost and cut them into ``count`` groups."""
    entries = sorted(entries, key=lambda ce: ce[0])
    assert len(entries) >= size * count, (len(entries), size, count)
    return [[e for _, e in entries[i * size:(i + 1) * size]] for i in range(count)]


def cat(key: str) -> Graph:
    return next(e.graph for e in CATALOG if e.key == key)


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def golden_searches() -> dict:
    out = {}
    for sid in ALL_SEARCH_IDS:
        key, bound = sid.rsplit("-B", 1)
        s = Search(sid, key, graph_of(key), int(bound))
        rec = run_search(s)
        count = sum(1 for _ in _automorphism_columns(Presentation.of(s.graph), s.bound))
        out[sid] = {"outcome": outcome(rec), "matrices": count}
        print(f"search {sid}: {rec.seconds:.1f}s, {count} matrices", flush=True)
    return out


# ---------------------------------------------------------------------------
# query pool
# ---------------------------------------------------------------------------


def reid_graphs(rng: random.Random) -> list[Graph]:
    gs = [e.graph for e in CATALOG if e.graph.n == 4]
    gs += [
        cycle_graph(5),
        path_graph(5),
        Graph.from_edges(5, combinations(range(4), 2)),  # K4 plus a point
        Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)]),  # bull
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),  # house
        Graph.from_edges(5, [(i, j) for i in range(2) for j in range(2, 5)]),  # K_{2,3}
        Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # star
        simplicial_join(empty_graph(1), cycle_graph(4)),  # wheel
        cycle_graph(6),
        path_graph(6),
        Graph.from_edges(6, combinations(range(5), 2)),  # K5 plus a point
        Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)]),  # K_{3,3}
        disjoint_union(cycle_graph(3), cycle_graph(3)),
        disjoint_union(complete_graph(2), complete_graph(2), complete_graph(2)),
        simplicial_join(empty_graph(2), empty_graph(2), empty_graph(2)),  # octahedron
        disjoint_union(cat("K2_plus_point"), cat("K2_plus_point")),
    ]
    for n in (5, 5, 6, 6):
        gs.append(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4]))
    return gs


def automorphism_generators(g: Graph) -> list[list[list[int]]]:
    """Vertex matrices (rows) of signed graph automorphisms and of the
    transvections x_i -> x_i x_j^(+-1) that preserve the relations."""
    n = g.n
    p = Presentation.of(g)
    gens = []
    for perm in permutations(range(n)):
        if all(g.has_edge(perm[i], perm[j]) for i, j in g.edges):
            rows = [[1 if perm[c] == r else 0 for c in range(n)] for r in range(n)]
            gens.append(rows)
    for i in range(n):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][i] = -1
        gens.append(rows)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for s in (1, -1):
                rows = [[int(r == c) for c in range(n)] for r in range(n)]
                rows[j][i] = s
                try:
                    endo_from_matrix(p, IntMatrix.from_rows(rows))
                except RelationViolation:
                    continue
                gens.append(rows)
    return gens


def reid_pool(rng: random.Random, table: GraphTable) -> list:
    entries = []

    def add(g: Graph, m: IntMatrix) -> None:
        op = ReidOp(Presentation.of(g), m, None)
        cost = min(timed(op.run)[0] for _ in range(3))
        entries.append((cost, [table.add(g), list(m.entries), op.encode(op.run())]))

    for n in (4, 5, 6):
        g = Graph.from_edges(n, combinations(range(n - 1), 2))
        p = Presentation.of(g)
        for k in range(1, 21):
            for poly in (twice_odd_polynomial, eight_times_polynomial):
                add(g, companion_automorphism(p, poly(n, k)).vertex_matrix)
    graphs = reid_graphs(rng)
    gens = {id(g): [IntMatrix.from_rows(r) for r in automorphism_generators(g)] for g in graphs}
    while len(entries) < REID_GROUPS * GROUP:
        g = rng.choice(graphs)
        m = IntMatrix.identity(g.n)
        for _ in range(rng.randint(1, 10)):
            nxt = m * rng.choice(gens[id(g)])
            if max(abs(x) for x in nxt.entries) <= 4:
                m = nxt
        # Most walks keep an eigenvalue 1 (infinite R); keep only a fifth of
        # those, so finite values make up a fair share of the answers.
        if reidemeister_number(endo_from_matrix(Presentation.of(g), m)).r.is_infinite:
            if rng.random() < 0.8:
                continue
        add(g, m)
    return cost_groups(entries, GROUP, REID_GROUPS)


def member_pool(rng: random.Random, forms: dict) -> dict:
    pool = {}
    for kind in MEMBER_KINDS:
        entries = []
        for _ in range(MEMBER_GROUPS[kind] * GROUP):
            fid = rng.choice(MEMBER_FORMS[kind])
            vmax = MEMBER_V_MAX.get(fid, MEMBER_V_DEFAULT)
            v = min(vmax, int(exp(rng.uniform(0.0, log(vmax + 1)))))
            op = MemberOp(forms[fid], v, None)
            assert member_kind(op.form) == kind, (fid, kind)
            cost, raw = timed(op.run)
            entries.append((cost, [fid, v, op.encode(raw)]))
        pool[kind] = cost_groups(entries, GROUP, MEMBER_GROUPS[kind])
        print(f"member {kind}: {sum(c for c, _ in entries):.1f}s for the pool", flush=True)
    return pool


def oracle_pool(rng: random.Random, table: GraphTable) -> list:
    """Pairs with finite R on graphs of at most 3 vertices and on C4, at
    m = 2R with quotient size at most ORACLE_MAX_SIZE, sampled evenly over
    (graph, quotient size) classes."""
    classes: dict = {}
    for key, bound in (("K1", 2), ("K2", 2), ("N22", 2), ("K3", 2), ("P3", 2),
                       ("K2_plus_point", 2), ("N32", 1), ("C4", 1)):
        g = cat(key)
        p = Presentation.of(g)
        for e in enumerate_automorphisms(p, bound):
            r = reidemeister_number(e).r
            if r.is_infinite:
                continue
            size = (2 * r.value) ** (p.n + p.N)
            if size <= ORACLE_MAX_SIZE:
                classes.setdefault((key, size), []).append((g, e, r.value))
    keys = sorted(classes)
    entries = []
    while len(entries) < ORACLE_GROUPS * ORACLE_GROUP:
        g, e, r = rng.choice(classes[keys[len(entries) % len(keys)]])
        p = Presentation.of(g)
        op = OracleOp(FiniteQuotient(p, 2 * r), e, r, None)
        cost, count = timed(op.run)
        assert count == r, (g, e.vertex_matrix, r, count)
        entries.append((cost, [table.add(g), list(e.vertex_matrix.entries), 2 * r, r, op.encode(count)]))
    return cost_groups(entries, ORACLE_GROUP, ORACLE_GROUPS)


def classify_graphs(rng: random.Random) -> list[Graph]:
    structured = []
    for n in range(5, 9):
        structured += [cycle_graph(n), path_graph(n), complete_graph(n), empty_graph(n),
                       complement(cycle_graph(n)), simplicial_join(empty_graph(1), cycle_graph(n - 1)),
                       Graph.from_edges(n, combinations(range(n - 1), 2))]
        structured += [Graph.from_edges(n, [(i, j) for i in range(a) for j in range(a, n)])
                       for a in range(1, n // 2 + 1)]
        structured += [Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])]
    structured += [
        simplicial_join(empty_graph(2), empty_graph(2), empty_graph(2)),
        simplicial_join(empty_graph(2), empty_graph(2), empty_graph(2), empty_graph(2)),
        Graph.from_edges(8, [(i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)]),
    ]
    small = [e.graph for e in CATALOG if e.graph.n >= 1]
    while len(structured) < 160:
        a, b = rng.choice(small), rng.choice(small)
        if 5 <= a.n + b.n <= 8:
            structured.append(rng.choice((simplicial_join, disjoint_union))(a, b))
    out = []
    while len(out) < CLASSIFY_GROUPS * GROUP:
        if rng.random() < 0.5:
            g = rng.choice(structured)
        else:
            n = rng.randint(5, 8)
            q = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
            g = Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < q])
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges]))
    return out


def classify_pool(rng: random.Random, table: GraphTable) -> list:
    entries = []
    for g in classify_graphs(rng):
        op = ClassifyOp(g, g, None)
        cost, raw = timed(op.run)
        entries.append((cost, [table.add(g), op.encode(raw)]))
    return cost_groups(entries, GROUP, CLASSIFY_GROUPS)


def golden_queries() -> dict:
    rng = random.Random(POOL_SEED)
    table = GraphTable()
    forms = {fid: build_form(fid) for fids in MEMBER_FORMS.values() for fid in fids}
    pool = {"reid": reid_pool(rng, table)}
    print("reid pool done", flush=True)
    pool["member"] = member_pool(rng, forms)
    pool["oracle"] = oracle_pool(rng, table)
    print("oracle pool done", flush=True)
    pool["classify"] = classify_pool(rng, table)
    print("classify pool done", flush=True)
    fid, v = KNOWN_DEFECT_MEMBER
    try:
        known = encode(forms[fid].contains(v))
    except Exception as exc:
        known = encode_error(exc)
    pool["known_defects"] = {KNOWN_DEFECT_ID: known}
    pool["forms"] = sorted(forms)
    pool["graphs"] = table.specs
    pool["pool_seed"] = POOL_SEED
    return pool


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    queries = golden_queries()
    with open(GOLDEN_DIR / "queries.json", "w") as fh:
        json.dump(queries, fh, separators=(",", ":"), sort_keys=True)
    searches = golden_searches()
    with open(GOLDEN_DIR / "searches.json", "w") as fh:
        json.dump(searches, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
