"""The per-leaf evaluation of the bounded search: the leaf stream against
the matrix stream, the leaf evaluator against ``reidemeister_number``, R
constant per diagonal-block key and per memo key over the matrix stream,
the generated key kernel, the recorded reports of the evaluation-heavy
searches and of six five-vertex classes, and the consistency guards of
the search."""

import ast
import gc
import io
import json
import re
import tokenize
import tracemalloc
from itertools import combinations, islice
from operator import itemgetter, mul
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import nilgraph.spectra as spectra
from nilgraph.catalog import CATALOG
from nilgraph.exactlin import IntMatrix, det_flat
from nilgraph.graphs import Graph, complete_graph, cycle_graph, empty_graph, path_graph
from nilgraph.morphism import endo_from_matrix, induced_commutator_matrix, reidemeister_number
from nilgraph.nilgroup import Presentation
from nilgraph.spectra import (
    Z1,
    SearchBudgetExceeded,
    SpectrumConsistencyError,
    _automorphism_columns,
    _column_matrix,
    _charpoly_kernel,
    _charpoly_width,
    _cofactor_kernel,
    _cofactor_terms,
    _degree_classes,
    _make_cofactors,
    _make_leaf_values,
    _Search,
    _sign_patterns,
    _SignedGroup,
    compute_spectrum_report,
)

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "searches.json"
CATALOG_GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog_reports.json"
FIVE_VERTEX_GOLDEN = Path(__file__).resolve().parent / "golden" / "five_vertex_reports.json"
CATALOG_BY_KEY = {e.key: e for e in CATALOG}
DENSE_SEARCHES = (
    ("K3", 3),
    ("K3_plus_point", 1),
    ("star", 1),
    ("one_edge", 1),
    ("diamond", 1),
    ("P3_plus_point", 2),
    ("two_edges", 3),
)


def _search(g: Graph, bound: int) -> _Search:
    return _Search(Presentation.of(g), bound, True, None)


def _leaf_matrices(leaf_values, leaf):
    """(column tuple, value) of every matrix of a leaf."""
    v, _, solutions, patterns = leaf
    for cols in patterns:
        for cvec, value in zip(solutions, leaf_values(cols, solutions)):
            cols[v] = cvec
            yield tuple(cols), value


class TestEmptyAndSingleVertex:
    def test_empty_graph(self):
        rep = compute_spectrum_report(Graph.from_edges(0, []), 1)
        assert rep.observed == (1,)
        assert rep.to_json()["witnesses"] == {"1": []}

    def test_single_vertex(self):
        rep = compute_spectrum_report(empty_graph(1), 2)
        assert rep.observed == (2,)
        assert rep.to_json()["witnesses"] == {"2": [[-1]]}
        leaves = list(_search(empty_graph(1), 2).leaves())
        assert leaves == [(0, (), ((-1,), (1,)), [[None]])]


LEAF_CASES = [pytest.param(e.graph, 1, 20, False, id=e.key) for e in CATALOG] + [
    # Every leaf of N32 at bound 2 and a five-vertex edgeless graph, which
    # no golden report covers, for the packed characteristic-polynomial key.
    pytest.param(empty_graph(3), 2, None, False, id="N32-B2-all"),
    pytest.param(empty_graph(5), 1, 20, False, id="N52"),
] + [
    # The kept sign patterns of the first leaves the report evaluates, with
    # the symmetry group: through the memo, where every class is whole and
    # so keyed by its characteristic polynomial, and on the complete graphs
    # K3 and K4 through the generated cofactor kernel.
    pytest.param(CATALOG_BY_KEY[key].graph, bound, 20, True, id=f"{key}-B{bound}-grouped")
    for key, bound in (
        ("N42", 1),
        ("N32", 2),
        ("one_edge", 1),
        ("star", 1),
        ("K3_plus_point", 1),
        ("P3_plus_point", 2),
        ("K3", 3),
        ("K4", 1),
    )
]


@pytest.mark.parametrize("g, bound, limit, grouped", LEAF_CASES)
def test_leaf_evaluator_matches_reidemeister_number(g, bound, limit, grouped):
    """The first leaves of every catalog class at bound 1 (and the cases
    above): the leaf's matrices are its slice of the matrix stream, and each
    value is the exact Reidemeister number, None where that is infinite.
    The grouped leaves hold only the kept patterns, so they are not a slice
    of the stream."""
    p = Presentation.of(g)
    search = _search(g, bound)
    leaf_values = _make_leaf_values(search)
    stream = _search(g, bound).run()
    checked = 0
    for leaf in islice(search.leaves(_SignedGroup(g) if grouped else None), limit):
        pairs = list(_leaf_matrices(leaf_values, leaf))
        if not grouped:
            # A leaf holds each solution with each sign pattern of n - 1 columns.
            batch = list(islice(stream, len(leaf[2]) << (g.n - 1)))
            assert sorted(cols for cols, _ in pairs) == sorted(batch)
        for cols, value in pairs:
            m = IntMatrix.from_rows([[cols[j][i] for j in range(g.n)] for i in range(g.n)])
            # ExtNat encodes infinity as None, as the evaluator does.
            assert reidemeister_number(endo_from_matrix(p, m)).r.value == value, cols
            checked += 1
    assert checked > 0
    if limit is None and not grouped:
        assert next(stream, None) is None


def _principal_sums(cols) -> list[int]:
    """e_1..e_n of the matrix with columns ``cols``: the sums of its
    principal k x k minors, each by det_flat."""
    n = len(cols)
    return [
        sum(det_flat([cols[c][r] for r in s for c in s], k) for s in combinations(range(n), k))
        for k in range(1, n + 1)
    ]


def test_edgeless_cofactors_only_for_patterns_with_a_miss(monkeypatch):
    """The report of N32 at bound 2 computes the cofactors of the solved
    column once for each kept pattern with a matrix whose characteristic
    polynomial no earlier pattern met, and for no other pattern."""
    g = empty_graph(3)
    calls = []
    make_cofactors = spectra._make_cofactors

    def counting(order):
        cofactors = make_cofactors(order)

        def counted(cols):
            calls.append(cols)
            return cofactors(cols)

        return counted

    monkeypatch.setattr(spectra, "_make_cofactors", counting)
    compute_spectrum_report(g, 2)
    seen, missed, kept = set(), 0, 0
    for v, _, solutions, patterns in _search(g, 2).leaves(_SignedGroup(g)):
        for cols in patterns:
            keys = set()
            for x in solutions:
                cols[v] = x
                keys.add(tuple(_principal_sums(cols)))
            missed += not keys <= seen
            kept += 1
            seen |= keys
    assert len(calls) == missed < kept


def test_last_columns_share_one_solve_per_key(monkeypatch):
    """The last columns of the P3_plus_point report at bound 2 that meet one
    (rows, system, +-g) receive one solutions object, and the pool is
    filtered once per distinct key: 274 last columns, one key."""
    graph = CATALOG_BY_KEY["P3_plus_point"].graph
    filtered = []
    received: dict[tuple, list] = {}
    packed_solutions, unit_solutions = spectra._packed_solutions, _Search._unit_solutions

    def counting(packed, g):
        filtered.append(g)
        return packed_solutions(packed, g)

    def recording(self, rows, system, g):
        solutions = unit_solutions(self, rows, system, g)
        sign = next((1 if c > 0 else -1 for c in g if c), 1)
        received.setdefault((rows, system, tuple(sign * c for c in g)), []).append(solutions)
        return solutions

    monkeypatch.setattr(spectra, "_packed_solutions", counting)
    monkeypatch.setattr(_Search, "_unit_solutions", recording)
    compute_spectrum_report(graph, 2)
    assert all(x is xs[0] for xs in received.values() for x in xs)
    assert len(filtered) == len(received) == 1
    assert sum(map(len, received.values())) == 274


def test_equivalent_systems_share_one_pool():
    """The report walk of C4 at bound 2 keys its pools by the canonical form
    of each relation system and the relation dimension, so the systems with
    one row space share one pool, and each (rows, system, dim) pool is built
    once: 33 distinct sets of relation rows, 2 packed last-column pools
    (every pool, the last columns' too, is built from the supports of its
    dimension), and 16 distinct last-column solves.  When
    only the last columns solved their pools from the box there were 2 box
    solves, and 19 when the placed columns' pools were solved from the box
    and then filtered; before the relation-dimension test cut the walk
    these were 81, 18 and 32 (and 756, 608 and 687 when every distinct set
    of relation rows had its own)."""
    g = cycle_graph(4)

    class BuiltOnce(dict):
        def __setitem__(self, key, pool):
            assert key not in self, key
            super().__setitem__(key, pool)

    search = _search(g, 2)
    search._pools = BuiltOnce()
    for _ in search.leaves(_SignedGroup(g)):
        pass
    assert len(search._packed) == 2 <= 19 < len(search._systems) == 33
    assert sum(len(packed[-1]) for packed in search._packed.values()) == 16


# Every catalog class with more than one degree class at bound 1,
# P3_plus_point at bound 2, and P3 beside K2, where no class is whole, with
# the step m of the keys checked: a prime that leaves a few thousand
# matrices of the stream.
P3_PLUS_K2 = Graph.from_edges(5, [(0, 3), (0, 4), (1, 2)])
BLOCK_CASES = [(e.key, 1) for e in CATALOG if len(set(e.graph.degrees())) > 1] + [
    ("P3_plus_point", 2),
    ("P3_plus_K2", 1),
]
BLOCK_KEY_STEPS = {
    ("K2_plus_point", 1): 1,
    ("P3", 1): 1,
    ("one_edge", 1): 41,
    ("P3_plus_point", 1): 13,
    ("K3_plus_point", 1): 127,
    ("star", 1): 127,
    ("P4", 1): 1,
    ("paw", 1): 13,
    ("diamond", 1): 41,
    ("P3_plus_point", 2): 101,
    ("P3_plus_K2", 1): 7,
}


@pytest.mark.parametrize("key, bound", BLOCK_CASES, ids=[f"{k}-B{b}" for k, b in BLOCK_CASES])
def test_r_is_constant_per_diagonal_block_key(key, bound):
    """Over the matrix stream, R depends only on the diagonal blocks of the
    degree filtration: each column on the rows of its own degree class.  It
    depends only on the memo key of ``_make_leaf_values`` too, from the
    generated kernel of the report's solved vertex: per degree class, the
    characteristic polynomial of its block when the class is whole, and the
    block's entries otherwise.
    R is computed here without the leaf evaluator, from det_flat of 1 - M1
    and of 1 - M2 (``induced_commutator_matrix``).  The stream is
    subsampled by block key: the distinct block keys are numbered in the
    order the stream meets them, and every matrix of each m-th key is
    checked, with the step m of ``BLOCK_KEY_STEPS``.  Only the first
    400,000 matrices are read: all of every stream but that of
    P3_plus_point at bound 2, whose first 400,000 of 1,300,000 matrices
    hold 321 of its 416 keys."""
    g = P3_PLUS_K2 if key == "P3_plus_K2" else CATALOG_BY_KEY[key].graph
    p = Presentation.of(g)
    n, N, degs, v = g.n, p.N, g.degrees(), _search(g, bound).order[-1]
    blocks = [itemgetter(*(r for r in range(n) if degs[r] == degs[u])) for u in range(n)]
    classes = _degree_classes(g)
    kernel = _charpoly_kernel(classes, v, _charpoly_width(max(len(rows) for rows, _ in classes), bound))
    rows = next(rows for rows, _ in classes if v in rows)
    step = BLOCK_KEY_STEPS[key, bound]
    eye = IntMatrix.identity(N)
    numbers: dict[tuple, int] = {}
    values: dict[tuple, int] = {}
    memo_values: dict[int, int] = {}
    for cols in islice(_automorphism_columns(p, bound), 400_000):
        blocks_key = tuple(block(col) for block, col in zip(blocks, cols))
        if numbers.setdefault(blocks_key, len(numbers)) % step:
            continue
        m1 = [(1 if r == c else 0) - cols[c][r] for r in range(n) for c in range(n)]
        m2 = eye - induced_commutator_matrix(p, _column_matrix(cols))
        value = det_flat(m1, n) * det_flat(list(m2.entries), N)
        assert values.setdefault(blocks_key, value) == value, (blocks_key, cols)
        base, coef = kernel(cols)
        memo_key = base + sum(c * cols[v][r] for c, r in zip(coef, rows))
        assert memo_values.setdefault(memo_key, value) == value, (memo_key, cols)
    assert len(values) > 1


@st.composite
def _bounded_matrices(draw):
    """(bound, columns, placement order) of an n x n matrix, n in 2..5, with
    entries in [-bound, bound], bound in 1..3; half the draws put +-bound in
    every entry."""
    n = draw(st.integers(2, 5))
    bound = draw(st.integers(1, 3))
    corner = draw(st.booleans())
    entry = st.sampled_from((-bound, bound)) if corner else st.integers(-bound, bound)
    cols = [tuple(draw(entry) for _ in range(n)) for _ in range(n)]
    return bound, cols, draw(st.permutations(range(n)))


def _det_one_minus(cofactors, cols, v) -> int:
    """cof[v] - cof . x, with x = cols[v]."""
    cof = cofactors(cols)
    return cof[v] - sum(map(mul, cols[v], cof))


@given(_bounded_matrices())
def test_cofactors_give_det_one_minus_m(drawn):
    """For each sign pattern of the placed columns, the cofactors of the
    solved column give det(1 - M) of the whole matrix; the transpose gives
    the same value."""
    bound, cols, order = drawn
    n, v = len(cols), order[-1]
    cofactors = _make_cofactors(order)
    for signed in _sign_patterns(n, order[:-1], [cols[u] for u in order[:-1]]):
        signed[v] = cols[v]
        value = _det_one_minus(cofactors, signed, v)
        assert value == det_flat([(r == c) - signed[c][r] for r in range(n) for c in range(n)], n)
        transpose = [tuple(c[i] for c in signed) for i in range(n)]
        assert _det_one_minus(cofactors, transpose, v) == value


@st.composite
def _kernel_matrices(draw):
    """(bound, columns, placement order, classes) of an n x n matrix, n in
    1..5, with entries in [-bound, bound], the bound small or up to 10^6,
    half the draws with +-bound in every entry; the classes partition the
    vertices, each as (ascending rows, whole), in a drawn order."""
    n = draw(st.integers(1, 5))
    bound = draw(st.one_of(st.integers(1, 3), st.integers(4, 10**6)))
    corner = draw(st.booleans())
    entry = st.sampled_from((-bound, bound)) if corner else st.integers(-bound, bound)
    cols = [tuple(draw(entry) for _ in range(n)) for _ in range(n)]
    labels = [draw(st.integers(0, n - 1)) for _ in range(n)]
    classes = [tuple(r for r in range(n) if labels[r] == c) for c in draw(st.permutations(range(n)))]
    classes = [(rows, draw(st.booleans())) for rows in classes if rows]
    return bound, cols, draw(st.permutations(range(n))), classes


# The names the generated kernel may hold besides matrix entries m<r>_<c>
# and minors d<r>_..._<c>.
KERNEL_NAMES = {"def", "kernel", "cols", "return"}


@given(_kernel_matrices())
def test_charpoly_kernel_gives_the_principal_minor_sums(drawn):
    """The key base + coef . x of the generated kernel holds, class by
    class, e_1..e_m of the class's diagonal block (the sums of its principal
    k x k minors, by det_flat) when the class is whole, and the block's
    entries, column by column, otherwise; each digit offset by half a digit,
    with its value below half a digit.  Its source holds only integer
    literals, operators and names built from vertex numbers."""
    bound, cols, order, classes = drawn
    v = order[-1]
    width = _charpoly_width(max(len(rows) for rows, _ in classes), bound)
    kernel = _charpoly_kernel(classes, v, width)
    placed = cols[:]
    placed[v] = None
    base, coef = kernel(placed)
    rows_v = next(rows for rows, _ in classes if v in rows)
    assert len(coef) == len(rows_v)
    key = base + sum(c * cols[v][r] for c, r in zip(coef, rows_v))
    want = []
    for rows, whole in classes:
        block = [tuple(cols[c][r] for r in rows) for c in rows]
        want += _principal_sums(block) if whole else [x for col in block for x in col]
    half = 1 << (width - 1)
    assert [(key >> (width * i)) % (2 * half) - half for i in range(len(want))] == want
    assert 0 <= key < 1 << (len(want) * width)
    assert all(abs(e) < half for e in want)
    _assert_kernel_tokens(kernel.source, KERNEL_NAMES, r"[md]\d+(_\d+)+")


def _assert_kernel_tokens(source: str, names, built: str) -> None:
    """Every token of a generated kernel's source is a name of ``names``,
    a name built from vertex numbers (matching ``built``), an integer
    literal or an operator."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            assert token.string in names or re.fullmatch(built, token.string), token
        elif token.type == tokenize.NUMBER:
            assert isinstance(ast.literal_eval(token.string), int), token
        else:
            assert token.type in (tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                                  tokenize.ENDMARKER), token


@st.composite
def _solved_matrices(draw):
    """(columns, placement order, solutions) of an n x n matrix, n in 1..5,
    with entries in [-bound, bound], the bound small or up to 10^6, half
    the draws with +-bound in every entry, and up to four more columns for
    the solved vertex, the last of the order."""
    n = draw(st.integers(1, 5))
    bound = draw(st.one_of(st.integers(1, 3), st.integers(4, 10**6)))
    corner = draw(st.booleans())
    entry = st.sampled_from((-bound, bound)) if corner else st.integers(-bound, bound)
    column = st.tuples(*[entry] * n)
    cols = draw(st.lists(column, min_size=n, max_size=n))
    return cols, draw(st.permutations(range(n))), draw(st.lists(column, max_size=4))


@given(_solved_matrices())
# 1 - M is zero off the solved column, so every cofactor is 0.
@example(([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [0, 1, 2], [(0, 0, -1), (2, 1, 3)]))
def test_cofactor_kernel_gives_det_one_minus_m(drawn):
    """The generated cofactor kernel of a search on Z^n gives, for each
    solution x, |det(1 - M)| by det_flat of the matrix whose solved column
    is x, or None where that is 0."""
    cols, order, solutions = drawn
    n, v = len(cols), order[-1]
    placed = cols[:]
    placed[v] = None
    solutions = [cols[v], *solutions]
    want = []
    for x in solutions:
        m = [x if c == v else cols[c] for c in range(n)]
        want.append(abs(det_flat([(r == c) - m[c][r] for r in range(n) for c in range(n)], n)) or None)
    assert _cofactor_kernel(n, v)(placed, solutions) == want


# The names the generated cofactor kernel may hold besides matrix entries
# m<r>_<c>, minors d<r>_..._<c> and solution entries x<r>.
COFACTOR_KERNEL_NAMES = {"def", "kernel", "cols", "solutions", "if", "not", "or", "return", "None", "len", "abs",
                         "for", "in"}


@pytest.mark.parametrize("n", range(1, 7))
def test_cofactor_kernel_source(n):
    """For every solved vertex, the cofactor kernel's source holds only
    integer literals, operators, names built from vertex numbers and the
    names of the code, and its minors hold the ``_cofactor_terms(n)``
    Laplace terms the search is charged before generating it."""
    for v in range(n):
        source = _cofactor_kernel(n, v).source
        _assert_kernel_tokens(source, COFACTOR_KERNEL_NAMES, r"[md]\d+(_\d+)+|x\d+")
        minors = [line for line in source.splitlines() if line.startswith("    d")]
        assert sum(line.count(" * ") for line in minors) == _cofactor_terms(n), (n, v)


def test_edgeless_keys_wider_than_eight_bytes():
    """N2 at bound 10^6 keys each matrix by 11 bytes.  A hand-built leaf of
    unimodular matrices with entries near 10^6, evaluated twice (the second
    time from the memo), gets the exact Reidemeister numbers."""
    g, bound = empty_graph(2), 10**6
    assert (2 * _charpoly_width(2, bound) + 7) // 8 == 11
    search = _search(g, bound)
    assert search.order == [0, 1]
    leaf_values = _make_leaf_values(search)
    a, c = 10**6, 10**6 - 1
    solutions = ((-999_999, -999_998), (-1, -1), (1, 1), (999_999, 999_998))
    leaf = 1, ((a, c),), solutions, [[(a, c), None], [(-a, -c), None]]
    p = Presentation.of(g)
    finite = set()
    for _ in range(2):
        for cols, value in _leaf_matrices(leaf_values, leaf):
            m = IntMatrix.from_rows([[cols[j][i] for j in range(2)] for i in range(2)])
            assert det_flat(list(m.entries), 2) in (1, -1)
            assert reidemeister_number(endo_from_matrix(p, m)).r.value == value, cols
            finite.add(value)
    assert finite == {None, 1_999_998, 3_999_996}


def test_dense_searches_match_the_recorded_reports(reports):
    """Report JSON of the evaluation-heavy searches, byte for byte as
    recorded; this pins the lexicographically smallest witnesses.  The
    session cache already holds those the acceptance tests search."""
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    for key, bound in DENSE_SEARCHES:
        g = CATALOG_BY_KEY[key].graph
        try:
            got = reports.get(g, bound).to_json()
        except SpectrumConsistencyError as e:
            got = {"error": type(e).__name__, "message": str(e)}
        assert json.dumps(got, sort_keys=True) == golden[f"{key}-B{bound}"]["outcome"], key


def test_catalog_reports_match_the_recorded_reports(reports):
    """Report JSON of all 18 catalog classes (bound 3 up to three vertices,
    the verification bound on four), byte for byte as recorded."""
    with open(CATALOG_GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(CATALOG_BY_KEY)
    for e in CATALOG:
        got = reports.get(e.graph, e.verify_bound).to_json()
        assert json.dumps(got, sort_keys=True) == golden[e.key], e.key


# Five-vertex classes at bound 1, where an isolated vertex puts the solved
# column in a class of its own.  The last three are homogeneous: each
# degree class is a clique or independent, and each pair of classes is
# complete or anticomplete, so every class is keyed by its characteristic
# polynomial.
FIVE_VERTEX = {
    "P3_plus_two_points": [(0, 1), (1, 2)],
    "diamond_plus_point": [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)],
    "star_plus_point": [(0, 1), (0, 2), (0, 3)],
    "K2_plus_three_points": [(0, 1)],
    "K3_plus_two_points": [(0, 1), (0, 2), (1, 2)],
    "K3_plus_K2": [(0, 1), (0, 2), (1, 2), (3, 4)],
}


def test_five_vertex_reports_match_the_recorded_reports(reports):
    """Report JSON of six five-vertex classes at bound 1, byte for byte as
    recorded."""
    with open(FIVE_VERTEX_GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(FIVE_VERTEX)
    for key, edges in FIVE_VERTEX.items():
        got = reports.get(Graph.from_edges(5, edges), 1).to_json()
        assert json.dumps(got, sort_keys=True) == golden[key], key


class TestBlockStructureGuard:
    @staticmethod
    def _check(g: Graph, cols):
        _search(g, 1).check_structure(cols)

    def test_degree_filtration(self):
        # column of the degree-2 middle vertex reaches the degree-1 row 0
        with pytest.raises(SpectrumConsistencyError, match="degree filtration"):
            self._check(path_graph(3), ((1, 0, 0), (1, 1, 0), (0, 0, 1)))

    def test_column_in_two_components(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(SpectrumConsistencyError, match="single component"):
            self._check(g, ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))

    def test_component_split(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(SpectrumConsistencyError, match="two different components"):
            self._check(g, ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)))

    def test_isolated_vertex_beside_two_components(self):
        """The column of an isolated vertex is not checked against the
        components, so it may reach both; the swap of the two edges passes,
        and a column split across them still raises."""
        g = Graph.from_edges(5, [(0, 1), (2, 3)])
        free = (1, 0, 1, 0, 1)
        self._check(g, ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), free))
        with pytest.raises(SpectrumConsistencyError, match="two different components"):
            self._check(g, ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0), free))

    def test_components_merged(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(SpectrumConsistencyError, match="not injective"):
            self._check(g, ((1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)))

    # Column v = 3 of the leaves below: the placed columns map each edge of
    # two_edges to itself, so the solutions must stay on rows 2 and 3.
    INSIDE = [(0, 0, -1, -1), (0, 0, 0, -1), (0, 0, 0, 1), (0, 0, 1, 1)]

    @staticmethod
    def _report_on_leaf(monkeypatch, solutions):
        """The report of two_edges on one leaf with the given solutions."""
        placed = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))

        def leaves(self, group=None):
            yield 3, placed, solutions, [[*placed, None]]

        monkeypatch.setattr(_Search, "leaves", leaves)
        return compute_spectrum_report(Graph.from_edges(4, [(0, 1), (2, 3)]), 1)

    def test_leaf_inside_one_component_passes(self, monkeypatch):
        assert self._report_on_leaf(monkeypatch, self.INSIDE).observed == ()

    @pytest.mark.parametrize("at", range(4))
    @pytest.mark.parametrize("outside", [(0, 1, 0, 0), (1, 0, 0, 1)])
    def test_leaf_with_one_solution_outside_raises(self, monkeypatch, at, outside):
        """The leaf is checked once, on the union of its solutions' supports:
        one solution that reaches into the other component fails it,
        wherever it stands."""
        solutions = self.INSIDE[:]
        solutions[at] = outside
        with pytest.raises(SpectrumConsistencyError):
            self._report_on_leaf(monkeypatch, solutions)

    def test_guard_fires_through_the_report(self, monkeypatch):
        """The walk of P3 builds its rows from the true degrees, so it still
        finds leaves; the report checks them against degrees with the middle
        vertex's degree moved to vertex 0."""
        init = _Search.__init__

        def wrong_degrees(self, *args):
            init(self, *args)
            self.degs = [2, 1, 1]

        monkeypatch.setattr(_Search, "__init__", wrong_degrees)
        with pytest.raises(SpectrumConsistencyError, match="degree filtration violated"):
            compute_spectrum_report(path_graph(3), 2)

    def test_automorphism_passes(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        self._check(g, ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)))


class TestReportGuards:
    @pytest.mark.parametrize("n", [13, 16])
    def test_budget_is_charged_before_the_first_pool(self, n):
        """The first column of n isolated vertices has a pool of (3^n - 1)/2
        columns; the budget runs out before it, the evaluator or the
        n 2^(n-1) Laplace terms of the walk are built."""
        tracemalloc.start()
        try:
            with pytest.raises(SearchBudgetExceeded):
                compute_spectrum_report(empty_graph(n), node_budget=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

    def test_last_column_memo_stays_small(self):
        """The last-column solves are memoized for the whole report, one
        entry per distinct (rows, system, +-g): K3 at bound 3 keeps 1,787
        of them over 3,693 last columns and peaks under 4 MB.  An entry holds only
        the shared sorted tuple of its solutions, whose columns are those of
        the pool and of the pool negated once per system, and the report
        derives only the union of their supports and the first solution of
        each restriction per entry, never per leaf."""
        tracemalloc.start()
        try:
            compute_spectrum_report(CATALOG_BY_KEY["K3"].graph, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_witnesses_share_equal_rows(self, reports):
        """A report holds one object per distinct witness row: the 156
        witnesses of N42 at bound 1 have 624 rows, far fewer distinct."""
        rep = reports.get(CATALOG_BY_KEY["N42"].graph, 1)
        rows = [row for m in rep.witnesses.values() for row in m]
        assert len(rows) == 624
        assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)

    def test_value_outside_closed_form(self, monkeypatch):
        # K2 realizes 1, 2, 3 at bound 1; claim the spectrum is {2, inf}
        monkeypatch.setattr(spectra, "spectrum_by_decomposition", lambda g: Z1)
        with pytest.raises(SpectrumConsistencyError, match="search realized 1, outside"):
            compute_spectrum_report(complete_graph(2), 1)

    def test_smallest_value_outside_closed_form(self, monkeypatch):
        """The check reads the values in sorted order, not in the order the
        search meets them (4 first): N22 realizes 2 and 4 at bound 2, the
        form leaves out both, and the message names 2."""

        class Without(spectra.SpectrumForm):
            def contains(self, v):
                return v not in (2, 4)

            def render(self):
                return "N0 - {2, 4}"

        monkeypatch.setattr(spectra, "spectrum_by_decomposition", lambda g: Without())
        with pytest.raises(SpectrumConsistencyError, match=r"search realized 2, outside N0 - \{2, 4\}$"):
            compute_spectrum_report(empty_graph(2), 2)

    def test_rule_with_finite_values(self, monkeypatch):
        monkeypatch.setattr(spectra, "detect_r_infinity", lambda g: "Fake")
        with pytest.raises(SpectrumConsistencyError, match=r"rule Fake fired but finite values \[2\]"):
            compute_spectrum_report(empty_graph(1), 1)

    def test_failed_report_keeps_no_search(self):
        """A report that fails its consistency check (``two_edges`` at bound
        3, a recorded defect) raises from no frame that holds the search or
        its solved column systems: a kept exception retains under 20 KB."""
        g = CATALOG_BY_KEY["two_edges"].graph

        def fail():
            with pytest.raises(SpectrumConsistencyError) as info:
                compute_spectrum_report(g, 3)
            return info.value

        fail()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [fail() for _ in range(3)]
            gc.collect()
            retained = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
        finally:
            tracemalloc.stop()
        tb = kept[0].__traceback__
        while tb is not None:
            assert not any(isinstance(x, _Search) for x in tb.tb_frame.f_locals.values())
            tb = tb.tb_next
        assert retained < 20_000
