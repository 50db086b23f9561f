"""The exact solve of the search's linear constraints: the column stream of
the bounded search against a recorded golden, the solve against a
brute-force scan of the box, the reused column systems and the packed
last-column filter against fresh solves, the budget of whole walks and of
one pool, and ``rank`` through the shared elimination.

Run ``python tests/test_search_solve.py`` to rewrite the golden file."""

import hashlib
import json
import random
from itertools import combinations, product
from operator import mul, neg
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from nilgraph.catalog import CATALOG
from nilgraph.exactlin import IntMatrix, det_flat, echelon, rank, smith_normal_form
from nilgraph.graphs import Graph, cycle_graph, path_graph
from nilgraph.nilgroup import Presentation
from nilgraph.spectra import (
    _automorphism_columns,
    _box_solutions,
    _Budget,
    _canonical,
    _Search,
    _SignedGroup,
)

STREAM_GOLDEN = Path(__file__).resolve().parent / "golden" / "automorphism_streams.json"


def _stream_cases():
    """(key, graph, bound, struct_prunes) of every recorded stream."""
    for e in CATALOG:
        if e.graph.n <= 3:
            for bound, prunes in product((1, 2), (True, False)):
                yield f"{e.key}-B{bound}-{'pruned' if prunes else 'unpruned'}", e.graph, bound, prunes
    cycles = {k: cycle_graph(k) for k in (4, 5, 6, 7)}
    paths = {k: path_graph(k) for k in (4, 5, 6)}
    for key, g, bound in (
        ("C4", cycles[4], 2),
        ("P4", paths[4], 3),
        ("C5", cycles[5], 1),
        ("C6", cycles[6], 1),
        ("C7", cycles[7], 1),
        ("P5", paths[5], 1),
        ("P6", paths[6], 1),
    ):
        yield f"{key}-B{bound}-pruned", g, bound, True


def _stream_digest(g, bound, prunes) -> dict:
    """Count and SHA-256 of the column stream, one ``repr`` line per tuple."""
    h = hashlib.sha256()
    count = 0
    for cols in _automorphism_columns(Presentation.of(g), bound, prunes):
        h.update(repr(cols).encode())
        h.update(b"\n")
        count += 1
    return {"count": count, "sha256": h.hexdigest()}


def test_automorphism_streams_match_the_recorded_streams():
    """The matrix stream of the search, in order, as recorded before the
    constraints were solved rather than filtered."""
    with open(STREAM_GOLDEN) as fh:
        golden = json.load(fh)
    cases = list(_stream_cases())
    assert sorted(golden) == sorted(key for key, *_ in cases)
    for key, g, bound, prunes in cases:
        assert _stream_digest(g, bound, prunes) == golden[key], key


@st.composite
def _systems(draw):
    """(n, bound, rows, relations, g): 1-3 edge-relation rows
    u[a] x[b] - u[b] x[a] on a sorted subset ``rows`` of range(n), and an
    optional determinant row g."""
    n = draw(st.integers(1, 5))
    rows = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    k = len(rows)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2))
        row = [0] * (k + 1)
        row[b] += draw(st.integers(-2, 2))
        row[a] -= draw(st.integers(-2, 2))
        relations.append(row)
    g = draw(st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=k, max_size=k)))
    return n, draw(st.integers(1, 2)), rows, relations, g


def _box(n, bound, rows):
    """Every length-n column supported on ``rows`` with entries in the box."""
    for values in product(range(-bound, bound + 1), repeat=len(rows)):
        vec = [0] * n
        for r, x in zip(rows, values):
            vec[r] = x
        yield tuple(vec)


@given(_systems())
def test_box_solutions_match_a_scan_of_the_box(case):
    """The echelon solve finds exactly the columns of the box that a scan
    finds."""
    n, bound, rows, relations, g = case

    def dot(row, x):
        # zip stops before the right-hand side of a system row
        return sum(c * x[r] for c, r in zip(row, rows))

    system = [row[:] for row in relations]
    if g is not None:
        system.append(g + [1])
    got = sorted(_box_solutions(system, rows, n, bound))
    want = [
        x
        for x in _box(n, bound, rows)
        if all(dot(row, x) == 0 for row in relations) and (g is None or dot(g, x) == 1)
    ]
    assert got == want


def _minors_vanish(nonedges, u, x) -> bool:
    """The filter the search applied before: the 2x2 minors of columns u
    and x on every non-edge vanish."""
    return all(u[a] * x[b] == u[b] * x[a] for a, b in nonedges)


@given(st.data())
def test_search_columns_match_the_minor_filter(data):
    """For a random graph and random placed columns, the candidates of a
    placed column are the pool filtered by the relation minors, and the
    solutions of the last column are the box filtered by the minors and by
    g.x = +-1, as the search found them before."""
    n = data.draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    graph = Graph.from_edges(n, edges)
    bound = data.draw(st.integers(1, 2))
    search = _Search(Presentation.of(graph), bound, data.draw(st.booleans()), _Budget(None))
    depth = data.draw(st.integers(1, n - 1))
    v = search.order[depth]
    rows = search.filtration_rows[v]
    entry = st.integers(-bound, bound)
    placed = [tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(depth)]
    neighbours = [placed[k] for k in range(depth) if graph.has_edge(search.order[k], v)]

    def related(x):
        return all(_minors_vanish(search.nonedges, u, x) for u in neighbours)

    box = list(_box(n, bound, rows))
    if depth < n - 1:
        system = search._relation_system(depth, rows, placed)
        got = search._pool(rows, system)
        assert got == [x for x in search._pool(rows) if related(x)]
        return
    full = (1 << n) - 1
    minors = [0] * (1 << n)
    for r in range(n):
        minors[full ^ (1 << r)] = data.draw(st.integers(-3, 3))
    g = [minors[full ^ (1 << r)] * (-1) ** (r + n - 1) for r in range(n)]
    want = [x for x in box if related(x) and sum(map(mul, g, x)) in (1, -1)]
    leaf = search._solve_last(v, rows, placed, minors)
    assert (leaf[2] if leaf else []) == want


def _fresh_pool(system, rows, n, bound):
    return _canonical(_box_solutions([list(row) for row in system], rows, n, bound))


@given(st.data())
def test_solved_systems_are_reused_per_rows(data):
    """A column system asked for again returns the pool a fresh solve
    gives, and the same relation rows on other allowed rows are solved on
    those rows, not read back from the first."""
    n = data.draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graph = Graph.from_edges(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    bound = data.draw(st.integers(1, 2))
    search = _Search(Presentation.of(graph), bound, True, _Budget(None))
    depth = data.draw(st.integers(1, n - 1))
    rows = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    entry = st.integers(-bound, bound)
    placed = [tuple(data.draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(depth)]
    system = search._relation_system(depth, rows, placed)
    want = _fresh_pool(system, rows, n, bound)
    assert search._pool(rows, system) == want
    assert search._pool(rows, system) == want  # asked again: read back
    others = [r for r in combinations(range(n), len(rows)) if r != rows]
    if others:
        other = data.draw(st.sampled_from(others))
        assert search._pool(other, system) == _fresh_pool(system, other, n, bound)
        assert search._pool(rows, system) == want


@given(st.data())
def test_packed_filter_matches_the_determinant_row(data):
    """The unconstrained last column filtered by one packed dot product is
    the solve of g.x = 1 on the box, with its negations, sorted; g holds
    real maximal minors of placed columns, half the time with every entry
    at +-bound, where |g.x| comes closest to the slot edge."""
    n = data.draw(st.integers(1, 5))
    bound = data.draw(st.integers(1, 3))
    if data.draw(st.booleans()):
        entry = st.sampled_from((-bound, bound))
    else:
        entry = st.integers(-bound, bound)
    placed = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n - 1)]
    rows = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    g = [
        (-1) ** (r + n - 1) * det_flat([c[i] for i in range(n) if i != r for c in placed], n - 1)
        for r in rows
    ]
    search = _Search(Presentation.of(Graph.from_edges(n, [])), bound, True, _Budget(None))
    solutions = _box_solutions([g + [1]], rows, n, bound)
    want = sorted(solutions + [tuple(map(neg, x)) for x in solutions])
    assert search._unit_solutions(rows, g) == want


CATALOG_BY_KEY = {e.key: e for e in CATALOG}
EXTRA_GRAPHS = {
    **{f"C{k}": cycle_graph(k) for k in (5, 6, 7)},
    **{f"P{k}": path_graph(k) for k in (5, 6)},
}

# Budget a whole walk charges (with the symmetry group, as the report walks;
# without it, as the matrix stream walks), for the searches of the benchmark.
WALK_BUDGETS = {
    ("K3", 3): (369599, 1535270),
    ("K3_plus_point", 1): (12203, 48956),
    ("star", 1): (13859, 68669),
    ("one_edge", 1): (10248, 19860),
    ("diamond", 1): (10248, 19860),
    ("P3_plus_point", 2): (69824, 164510),
    ("two_edges", 3): (8898, 28384),
    ("C4", 2): (461370, 2155600),
    ("C5", 1): (54497, 218582),
    ("C6", 1): (329404, 1221140),
    ("C7", 1): (1464720, 6246158),
    ("P4", 3): (290926, 535828),
    ("P5", 1): (26010, 37836),
    ("P6", 1): (111918, 149340),
    ("N42", 1): (172086, 2340360),
    ("N32", 2): (24929, 92150),
}


def test_walks_charge_the_recorded_budget():
    """The node budget a walk spends, read back from a budget too large to
    run out, is the recorded amount: reusing a solved column system must
    not change what a walk is charged."""
    for (key, bound), want in WALK_BUDGETS.items():
        g = CATALOG_BY_KEY[key].graph if key in CATALOG_BY_KEY else EXTRA_GRAPHS[key]
        got = []
        for group in (_SignedGroup(g), None):
            budget = _Budget(10**18)
            for _ in _Search(Presentation.of(g), bound, True, budget).leaves(group):
                pass
            got.append(10**18 - budget.left)
        assert tuple(got) == want, (key, bound)


def test_pool_size_formula_matches_the_pool():
    """The size the walk charges for a placed column before building its
    pool is the size of the pool, for every n <= 5, bound <= 4 and number
    of allowed rows."""
    for n in range(1, 6):
        for bound in range(1, 5):
            search = _Search(Presentation.of(Graph.from_edges(n, [])), bound, True, _Budget(None))
            for k in range(n + 1):
                rows = tuple(range(n - k, n))
                assert search._pool_sizes[k] == len(search._pool(rows)), (n, bound, k)


def _rank_reference(rows, ncols):
    """The elimination loop ``rank`` ran before it shared ``echelon``."""
    a = [list(r) for r in rows]
    nrows = len(a)
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        pval = prow[col]
        for i in range(r + 1, nrows):
            if a[i][col]:
                iv = a[i][col]
                a[i] = [x * pval - iv * y for x, y in zip(a[i], prow)]
        r += 1
        if r == nrows:
            break
    return r


def test_rank_through_echelon_is_unchanged():
    """``rank`` through the shared elimination agrees with the loop it
    replaced and with the Smith normal form; ``echelon`` leaves a row echelon
    form whose nonzero rows are its pivot rows."""
    rng = random.Random(4)
    cases = [[], [[]], [[0, 0, 0]], [[1, -1, 0]], [[1, 0], [0, 1]], [[0, 0], [0, 0]]]
    for _ in range(300):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(c)] for _ in range(r)])
    for rows in cases:
        m = IntMatrix.from_rows(rows)
        assert rank(m) == _rank_reference(rows, m.cols) == smith_normal_form(m).rank, rows
        a = [list(row) for row in rows]
        pivots = echelon(a, m.cols)
        assert pivots == sorted(set(pivots))
        for i, row in enumerate(a):
            lead = next((j for j, x in enumerate(row) if x), None)
            assert lead == (pivots[i] if i < len(pivots) else None), rows


if __name__ == "__main__":
    digests = {key: _stream_digest(g, b, pr) for key, g, b, pr in _stream_cases()}
    STREAM_GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
