"""The symmetry reduction of the spectrum report: conjugation by a signed
graph automorphism keeps the matrix stream and R, the leader columns of
vertex 0 against their definition, the sign patterns the search keeps
against every orbit leader, the leaves of the walk that cuts dead nodes
against a brute-force pass over every leaf, and the pruned report against
a report built by brute force from the whole matrix stream."""

import json
from hashlib import sha256
from itertools import combinations, islice, permutations, product
from random import Random
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nilgraph.spectra as spectra
from nilgraph.catalog import CATALOG
from nilgraph.cli import main
from nilgraph.graphs import Graph, complete_graph, cycle_graph, disjoint_union, empty_graph, isomorphisms
from nilgraph.morphism import endo_from_matrix, reidemeister_number
from nilgraph.nilgroup import Presentation
from nilgraph.spectra import (
    _automorphism_columns,
    _column_matrix,
    _Search,
    _sign_patterns,
    _SignedGroup,
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
# The graphs whose streams are indexed: the catalog and C5.
_INDEXED = {**{key: e.graph for key, e in CATALOG_BY_KEY.items()}, "C5": cycle_graph(5)}


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
    """(search, leaves) of a graph of ``_INDEXED`` at bound 1: the leaves
    map the canonical placed columns to the bit set of the solved columns (by
    ``_code``).  A column tuple is in the matrix stream exactly when its
    placed columns, up to sign, and its solved column are those of a leaf;
    a 10M-matrix stream indexes in about 40k leaves."""
    if key not in _STREAMS:
        g = _INDEXED[key]
        search = _Search(Presentation.of(g), 1, True, None)
        leaves: dict = {}
        bits: dict = {}  # per solved column, its bit; few distinct columns occur
        for _, placed, solutions, _ in search.leaves():
            mask = leaves.get(placed, 0)
            for x in solutions:
                if x not in bits:
                    bits[x] = 1 << _code(x, 1)
                mask |= bits[x]
            leaves[placed] = mask
        _STREAMS[key] = search, leaves, list(leaves)
    return _STREAMS[key]


def _canonical_placed(search, cols):
    """The placed columns of a column tuple, in placement order, each with
    its first nonzero entry positive, as a leaf holds them."""
    return tuple(
        w if next(x for x in w if x) > 0 else tuple(-x for x in w)
        for w in (cols[u] for u in search.order[:-1])
    )


def _in_stream(search, leaves, cols) -> bool:
    placed = _canonical_placed(search, cols)
    return bool(leaves.get(placed, 0) >> _code(cols[search.order[-1]], 1) & 1)


def _draw_stream_matrix(data):
    """(catalog entry, search, leaves, columns) of a matrix drawn from the
    stream of a catalog graph at bound 1."""
    e = data.draw(st.sampled_from(CATALOG), label="graph")
    n = e.graph.n
    search, leaves, placed_list = _stream_index(e.key)
    placed = data.draw(st.sampled_from(placed_list), label="leaf")
    mask = leaves[placed]
    solved = data.draw(st.sampled_from([i for i in range(mask.bit_length()) if mask >> i & 1]))
    cols: list = [None] * n
    for u, w in zip(search.order, placed):
        cols[u] = w if data.draw(st.booleans()) else tuple(-x for x in w)
    cols[search.order[-1]] = _decode(solved, n, 1)
    return e, search, leaves, tuple(cols)


@given(st.data())
def test_signed_conjugation_keeps_the_stream_and_r(data):
    """For a catalog graph at bound 1, a matrix X of its stream and a signed
    automorphism psi: psi X psi^-1 is in the stream, with the same r1, r2
    and R."""
    e, search, leaves, cols = _draw_stream_matrix(data)
    g, n = e.graph, e.graph.n
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


def _leader_columns(g: Graph, bound: int) -> set[tuple[int, ...]]:
    """The columns of the box that lead in position 0 (``_SignedGroup.leads``),
    drawn from those with c[i] <= 0 for every i >= 1, since the signs alone
    make any other column larger than an image."""
    leads = _SignedGroup(g).leads
    return set(filter(leads, product(range(-bound, bound + 1), *[range(-bound, 1)] * (g.n - 1))))


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


def _count_drawn(monkeypatch) -> list[int]:
    """Count, in the returned list, the automorphisms the group draws from
    the isomorphism search."""
    drawn = [0]

    def counting(g1, g2):
        for pi in isomorphisms(g1, g2):
            drawn[0] += 1
            yield pi

    monkeypatch.setattr(spectra, "isomorphisms", counting)
    return drawn


def test_leader_columns_of_a_large_graph_use_the_signs_only(monkeypatch):
    """N10 has 10! > 5040 automorphisms, so the group is the signs alone:
    its ten twins already give 10!, so no map is drawn, and the leaders of
    ten vertices are the columns with no positive entry below row 0."""
    drawn = _count_drawn(monkeypatch)
    t0 = perf_counter()
    leaders = _leader_columns(empty_graph(10), 1)
    assert perf_counter() - t0 < 0.5
    assert drawn == [0]
    assert len(leaders) == 3 * 2**9
    assert all(max(c[1:]) <= 0 for c in leaders)


# ---------------------------------------------------------------------------
# The sign patterns kept before the last column is solved
# ---------------------------------------------------------------------------


def _signed_automorphisms(g: Graph):
    """Every (pi, signs) of the group, the signs up to a common sign."""
    return [
        (pi, (1, *signs))
        for pi in _automorphisms(g)
        for signs in product((1, -1), repeat=g.n - 1)
    ]


def _is_leader(cols, signed) -> bool:
    return all(cols <= _conjugate(cols, pi, signs) for pi, signs in signed)


def _decided_smaller(cols, v, pi, signs) -> bool:
    """psi X psi^-1 compares below X on the columns before the first one
    that involves column v of X (column v itself, or the image of it)."""
    n = len(cols)
    for k in range(n):
        w = pi.index(k)
        if v in (k, w):
            return False
        image = [0] * n
        for i in range(n):
            image[pi[i]] = signs[w] * signs[i] * cols[w][i]
        if tuple(image) != cols[k]:
            return tuple(image) < cols[k]
    return False


def _check_leaf(search, group, signed, placed, solutions):
    """The leaf's kept sign patterns are exactly those that no image makes
    smaller before column v enters the comparison, and every matrix of a
    dropped pattern has a smaller image."""
    n, v = search.n, search.order[-1]
    kept = {tuple(cols) for cols in group.patterns(search.order, placed)}
    for cols in _sign_patterns(n, search.order[:-1], placed):
        dropped = any(_decided_smaller(cols, v, pi, signs) for pi, signs in signed)
        assert (tuple(cols) in kept) != dropped, (placed, cols)
        if dropped:
            for x in solutions:
                cols[v] = x
                assert not _is_leader(tuple(cols), signed), cols


@pytest.mark.parametrize("bound", (1, 2))
@pytest.mark.parametrize("key", sorted(k for k, e in CATALOG_BY_KEY.items() if e.graph.n <= 3))
def test_kept_matrices_hold_every_orbit_leader(key, bound):
    """On a small graph the leaves the search yields with the group, each
    solution with each kept sign pattern, hold the lexicographically
    smallest matrix of every orbit of the stream; each leaf keeps exactly
    the patterns the placed columns cannot rule out."""
    g = CATALOG_BY_KEY[key].graph
    p = Presentation.of(g)
    signed = _signed_automorphisms(g)
    leaders, seen = set(), set()
    for cols in _automorphism_columns(p, bound):
        if cols not in seen:
            orbit = {_conjugate(cols, pi, signs) for pi, signs in signed}
            seen |= orbit
            leaders.add(min(orbit))
    search = _Search(p, bound, True, None)
    group = _SignedGroup(g)
    kept = set()
    for v, placed, solutions, patterns in search.leaves(group):
        for cols in patterns:
            for x in solutions:
                cols[v] = x
                kept.add(tuple(cols))
    assert leaders <= kept <= seen
    for v, placed, solutions, _ in search.leaves():
        _check_leaf(search, group, signed, placed, solutions)


@pytest.mark.parametrize(
    "g",
    [pytest.param(e.graph, id=e.key) for e in CATALOG if e.graph.n == 4]
    + [pytest.param(cycle_graph(5), id="C5")],
)
def test_first_leaves_keep_every_orbit_leader(g):
    """The same on the first leaves of the four-vertex classes and C5 at
    bound 1: a dropped sign pattern holds no leader, a kept one is not
    ruled out by the placed columns."""
    search = _Search(Presentation.of(g), 1, True, None)
    group = _SignedGroup(g)
    signed = _signed_automorphisms(g)
    for v, placed, solutions, _ in islice(search.leaves(), 60):
        _check_leaf(search, group, signed, placed, solutions)


_KEPT: dict = {}


def _reference_kept(order, signed, leaves) -> dict:
    """The leaves (canonical placed columns -> solution mask, as
    ``_stream_index`` holds them) that keep a sign pattern under
    ``_decided_smaller``, each with its solution mask and kept patterns.
    The result depends only on the arguments, so a graph with the same walk
    and group as one checked before (K4 and N42) reads it back."""
    key = tuple(order), tuple(signed), tuple(leaves.items())
    if key not in _KEPT:
        n, v, others = len(order), order[-1], order[:-1]
        signed = list(signed)
        want = {}
        for placed, mask in leaves.items():
            kept = set()
            for cols in _sign_patterns(n, others, placed):
                for j, (pi, signs) in enumerate(signed):
                    if _decided_smaller(cols, v, pi, signs):
                        # Neighbouring patterns tend to fall to the same
                        # image: try it first on the next one.
                        signed.insert(0, signed.pop(j))
                        break
                else:
                    kept.add(tuple(cols))
            if kept:
                want[placed] = mask, kept
        _KEPT[key] = want
    return _KEPT[key]


@pytest.mark.parametrize("key", [k for k, e in CATALOG_BY_KEY.items() if e.graph.n == 4] + ["C5"])
def test_grouped_walk_yields_every_leaf_with_a_kept_pattern(key):
    """Every leaf of the four-vertex classes and C5 at bound 1: the walk
    with the group yields exactly the leaves of the walk without it that
    keep a sign pattern under the brute-force reference, with the same
    solutions and patterns.  So no leaf under a node that the walk cuts
    holds a kept pattern."""
    search, leaves, _ = _stream_index(key)
    g = _INDEXED[key]
    want = _reference_kept(search.order, _signed_automorphisms(g), leaves)
    got = {}
    for _, placed, solutions, patterns in search.leaves(_SignedGroup(g)):
        assert placed not in got, placed
        got[placed] = sum(1 << _code(x, 1) for x in solutions), {tuple(c) for c in patterns}
    assert got == want


_GROUPS: dict = {}


@given(st.data())
def test_orbit_minimum_of_a_stream_matrix_is_kept(data):
    """For a matrix X of the stream of a catalog graph at bound 1, the
    smallest psi X psi^-1 leads in column 0, and its sign pattern is kept
    at its leaf."""
    e, search, leaves, cols = _draw_stream_matrix(data)
    if e.key not in _GROUPS:
        _GROUPS[e.key] = _signed_automorphisms(e.graph), _SignedGroup(e.graph)
    signed, group = _GROUPS[e.key]
    least = min(_conjugate(cols, pi, signs) for pi, signs in signed)
    assert _in_stream(search, leaves, least)
    if search.order[-1] != 0:
        assert group.leads(least[0])
    own = _canonical_placed(search, least)
    pattern = [None if u == search.order[-1] else c for u, c in enumerate(least)]
    assert pattern in group.patterns(search.order, own)


def test_group_of_a_graph_over_the_cap_is_the_signs_alone(monkeypatch):
    """N8 has 8! > 5040 automorphisms, so the group is the signs alone
    (pi = id): its eight twins already give 8!, so no map is drawn, and a
    leaf of eight columns is tested at once."""
    drawn = _count_drawn(monkeypatch)
    g = empty_graph(8)
    assert spectra._automorphisms(g) == [tuple(range(8))]
    assert drawn == [0]
    group = _SignedGroup(g)
    placed = [tuple(1 if i == j else 0 for i in range(8)) for j in range(7)]
    t0 = perf_counter()
    kept = group.patterns(tuple(range(8)), placed)
    assert perf_counter() - t0 < 0.5
    # The identity matrix and its column sign changes: the signs alone map
    # e_0 ... e_6 to one another, so every pattern is its own leader.
    assert len(kept) == 2**7


def _star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


@pytest.mark.parametrize(
    "g, draws",
    [
        (empty_graph(8), 0),
        (complete_graph(8), 0),
        (_star(8), 0),
        # 7! = 5040 is at the cap, and so is the group.
        (_star(7), 5040),
        # Twin classes give (3!)^4 = 1,296 of its 31,104 automorphisms, and
        # its four isomorphic components a factor 4! more: all of them.
        (disjoint_union(*[complete_graph(3)] * 4), 0),
    ],
    ids=["N8", "K8", "star8", "star7", "four-triangles"],
)
def test_twin_classes_decide_a_large_group_without_drawing(monkeypatch, g, draws):
    """Twins (equal open or equal closed neighbourhoods) permute freely, and
    so do the m isomorphic components of each type, so when the product of
    |class|! over the twin classes and m! over the component types is over
    the cap, the group is the identity and no map is drawn.  Otherwise the
    maps are drawn as before, up to one over the cap.  Either way the
    identity stands for the group exactly when it has more elements than
    the cap."""
    drawn = _count_drawn(monkeypatch)
    group = spectra._automorphisms(g)
    assert drawn == [draws]
    over = len(list(islice(isomorphisms(g, g), spectra._GROUP_CAP + 1))) > spectra._GROUP_CAP
    assert (group == [tuple(range(g.n))]) == over
    assert over or len(group) == draws


def _all_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


def test_group_matches_the_brute_force():
    """Aut(g) from the backtracking search is every permutation that maps
    the edges onto the edges: on all 1,100 labelled graphs with at most 5
    vertices and on a seeded sample of 150 with 6."""
    small = [g for n in range(6) for g in _all_graphs(n)]
    assert len(small) == 1100
    sample = Random(20).sample(list(_all_graphs(6)), 150)
    for g in small + sample:
        assert spectra._automorphisms(g) == _automorphisms(g), g


# A random cubic graph on 20 vertices with the identity as its only
# automorphism.  All its vertices share one signature: placed by signature
# and label alone, rather than next to placed neighbours, the search took
# 3.7 s instead of 1.4 ms (2-vCPU Xeon).
CUBIC20 = Graph.from_edges(
    20,
    [
        tuple(map(int, e.split("-")))
        for e in (
            "0-11 0-13 0-14 1-4 1-16 1-19 2-5 2-7 2-13 3-8 3-11 3-14 4-12 4-16 5-9"
            " 5-19 6-7 6-17 6-18 7-13 8-10 8-15 9-11 9-19 10-14 10-18 12-17 12-18"
            " 15-16 15-17"
        ).split()
    ],
)


def test_group_of_a_regular_graph_is_found_fast(tmp_path):
    """The group of a 20-vertex cubic graph is found in under a second, so
    a search with a node budget of 10 stops on the budget (exit code 5)."""
    t0 = perf_counter()
    assert spectra._automorphisms(CUBIC20) == [tuple(range(20))]
    assert perf_counter() - t0 < 1.0
    path = tmp_path / "g.json"
    path.write_text(json.dumps(CUBIC20.to_json()))
    assert main(["search", str(path), "--budget", "10"]) == 5


def test_report_of_four_disjoint_edges():
    """n = 8 with |Aut| = 384: the report at bound 1 uses the whole group
    and gives its 49 values in about 3 s.  With the signs alone it took
    236 s (2-vCPU Xeon); the sorted-key report JSON is the same."""
    g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
    assert len(spectra._automorphisms(g)) == 384
    rep = compute_spectrum_report(g, 1)
    assert len(rep.observed) == 49
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert sha256(text.encode()).hexdigest() == (
        "c44693adf9d83b970fabc3320b629e6ea921e0e2013ffde1bd8248e4c24bd331"
    )


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
    """The report has the observed values and witnesses of a brute-force
    pass over the whole stream."""
    observed, witnesses = _reference_report(g, bound)
    rep = compute_spectrum_report(g, bound)
    assert rep.observed == observed
    assert rep.witnesses == witnesses


def test_isolated_zero_is_the_solved_vertex():
    """The no-pruning case above is what it claims: vertex 0 is solved with
    the structural prunes on, and placed first without them."""
    p = Presentation.of(ISOLATED_ZERO)
    assert _Search(p, 2, True, None).order[-1] == 0
    assert _Search(p, 2, False, None).order[0] == 0
