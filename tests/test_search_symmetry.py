"""The symmetry reduction of the spectrum report: conjugation by a signed
graph automorphism keeps the matrix stream and R, the leader columns of
vertex 0 against their definition, and the pruned report against a report
built by brute force from the whole matrix stream."""

from itertools import permutations, product
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nilgraph.spectra as spectra
from nilgraph.catalog import CATALOG
from nilgraph.graphs import Graph, cycle_graph, empty_graph
from nilgraph.morphism import endo_from_matrix, reidemeister_number
from nilgraph.nilgroup import Presentation
from nilgraph.spectra import (
    _automorphism_columns,
    _Budget,
    _column_matrix,
    _leader_columns,
    _Search,
    compute_spectrum_report,
)

CATALOG_BY_KEY = {e.key: e for e in CATALOG}


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation pi (vertex i goes to pi[i]) that maps the
    edges onto the edges."""
    return [
        pi
        for pi in permutations(range(g.n))
        if all(g.has_edge(pi[a], pi[b]) for a, b in g.edges)
    ]


def _conjugate(cols, pi, signs):
    """Columns of psi X psi^-1 for psi = P_pi D_s: entry (i, j) of X goes
    to (pi[i], pi[j]) with the sign s_i s_j."""
    n = len(cols)
    out = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(n):
            out[pi[j]][pi[i]] = signs[i] * signs[j] * cols[j][i]
    return tuple(map(tuple, out))


def _r(p, cols):
    return reidemeister_number(endo_from_matrix(p, _column_matrix(cols)))


# ---------------------------------------------------------------------------
# Conjugation keeps the matrix stream and R
# ---------------------------------------------------------------------------

_STREAMS: dict = {}


def _code(col, bound: int) -> int:
    """Index of a column in the box, in base 2 bound + 1."""
    return sum((x + bound) * (2 * bound + 1) ** i for i, x in enumerate(col))


def _decode(code: int, n: int, bound: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        code, digit = divmod(code, 2 * bound + 1)
        out.append(digit - bound)
    return tuple(out)


def _stream_index(key: str):
    """(search, leaves) of a catalog graph at bound 1: the leaves map the
    canonical placed columns to the bit set of the solved columns (by
    ``_code``).  A column tuple is in the matrix stream exactly when its
    placed columns, up to sign, and its solved column are those of a leaf;
    a 10M-matrix stream indexes in about 40k leaves."""
    if key not in _STREAMS:
        g = CATALOG_BY_KEY[key].graph
        search = _Search(Presentation.of(g), 1, True, _Budget(None))
        leaves: dict = {}
        for _, placed, solutions in search.leaves():
            mask = leaves.get(placed, 0)
            for x in solutions:
                mask |= 1 << _code(x, 1)
            leaves[placed] = mask
        _STREAMS[key] = search, leaves, list(leaves)
    return _STREAMS[key]


def _in_stream(search, leaves, cols) -> bool:
    v = search.order[-1]
    placed = tuple(
        w if next(x for x in w if x) > 0 else tuple(-x for x in w)
        for w in (cols[u] for u in search.order[:-1])
    )
    return bool(leaves.get(placed, 0) >> _code(cols[v], 1) & 1)


@given(st.data())
def test_signed_conjugation_keeps_the_stream_and_r(data):
    """For a catalog graph at bound 1, a matrix X of its stream and a signed
    automorphism psi: psi X psi^-1 is in the stream, with the same r1, r2
    and R."""
    e = data.draw(st.sampled_from(CATALOG), label="graph")
    g, n = e.graph, e.graph.n
    search, leaves, placed_list = _stream_index(e.key)
    placed = data.draw(st.sampled_from(placed_list), label="leaf")
    mask = leaves[placed]
    solved = data.draw(st.sampled_from([i for i in range(mask.bit_length()) if mask >> i & 1]))
    cols: list = [None] * n
    for u, w in zip(search.order, placed):
        cols[u] = w if data.draw(st.booleans()) else tuple(-x for x in w)
    cols[search.order[-1]] = _decode(solved, n, 1)
    cols = tuple(cols)
    pi = data.draw(st.sampled_from(_automorphisms(g)), label="pi")
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n), label="signs")
    image = _conjugate(cols, pi, signs)
    assert _in_stream(search, leaves, cols)
    assert _in_stream(search, leaves, image), (cols, image)
    p = Presentation.of(g)
    assert _r(p, image).to_json() == _r(p, cols).to_json()


# ---------------------------------------------------------------------------
# The leader columns of vertex 0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bound", (1, 2))
@pytest.mark.parametrize("key", sorted(CATALOG_BY_KEY))
def test_leader_columns_match_their_definition(key, bound):
    """The leaders are the columns of the box at most each of their images
    under every signed automorphism fixing vertex 0."""
    g = CATALOG_BY_KEY[key].graph
    n = g.n
    stabilizer = [pi for pi in _automorphisms(g) if pi[0] == 0]
    want = set()
    for c in product(range(-bound, bound + 1), repeat=n):
        images = []
        for pi, signs in product(stabilizer, product((1, -1), repeat=n)):
            image = [0] * n
            for i in range(n):
                image[pi[i]] = signs[0] * signs[i] * c[i]
            images.append(tuple(image))
        if all(c <= image for image in images):
            want.add(c)
    assert _leader_columns(g, bound) == want


def test_leader_columns_of_a_large_graph_use_the_signs_only(monkeypatch):
    """With (n-1)! > 5040 the stabilizer is not searched: the leaders of
    ten vertices are the columns with no positive entry below row 0."""

    def refuse(*args):
        raise AssertionError("permutations enumerated")

    monkeypatch.setattr(spectra, "permutations", refuse)
    t0 = perf_counter()
    leaders = _leader_columns(empty_graph(10), 1)
    assert perf_counter() - t0 < 0.5
    assert len(leaders) == 3 * 2**9
    assert all(max(c[1:]) <= 0 for c in leaders)


# ---------------------------------------------------------------------------
# The pruned report against the whole stream
# ---------------------------------------------------------------------------


def _reference_report(g: Graph, bound: int) -> tuple[tuple[int, ...], dict]:
    """(observed, witnesses) from every matrix of the stream: each finite R
    with the lexicographically smallest column tuple that realizes it."""
    p = Presentation.of(g)
    best: dict[int, tuple] = {}
    for cols in _automorphism_columns(p, bound):
        value = _r(p, cols).r.value
        if value is not None and (value not in best or cols < best[value]):
            best[value] = cols
    witnesses = {
        value: tuple(tuple(c[i] for c in cols) for i in range(g.n)) for value, cols in best.items()
    }
    return tuple(sorted(best)), witnesses


# A 3-vertex graph whose isolated vertex 0 is the solved vertex of the
# search with the structural prunes on: nothing is pruned there.
ISOLATED_ZERO = Graph.from_edges(3, [(1, 2)])

REFERENCE_CASES = [
    pytest.param(CATALOG_BY_KEY[key].graph, bound, id=f"{key}-B{bound}")
    for key, bound in (
        ("N32", 1),
        ("K3", 2),
        ("P3", 2),
        ("K2_plus_point", 2),
        ("C4", 1),
        ("paw", 1),
    )
] + [
    pytest.param(cycle_graph(5), 1, id="C5-B1"),
    pytest.param(ISOLATED_ZERO, 2, id="isolated_zero-B2"),
]


@pytest.mark.parametrize("g, bound", REFERENCE_CASES)
def test_report_matches_the_whole_stream(g, bound):
    """The report, with and without the structural prunes, has the observed
    values and witnesses of a brute-force pass over the whole stream."""
    observed, witnesses = _reference_report(g, bound)
    for prunes in (True, False):
        rep = compute_spectrum_report(g, bound, struct_prunes=prunes)
        assert rep.observed == observed, prunes
        assert rep.witnesses == witnesses, prunes


def test_isolated_zero_is_the_solved_vertex():
    """The no-pruning case above is what it claims: vertex 0 is solved with
    the structural prunes on, and placed first without them."""
    p = Presentation.of(ISOLATED_ZERO)
    assert _Search(p, 2, True, _Budget(None)).order[-1] == 0
    assert _Search(p, 2, False, _Budget(None)).order[0] == 0
