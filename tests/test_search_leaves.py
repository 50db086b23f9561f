"""The per-leaf evaluation of the bounded search: the leaf stream against
the matrix stream, the leaf evaluator against ``reidemeister_number``, the
recorded reports of the evaluation-heavy searches, and the consistency
guards of the search."""

import gc
import json
import tracemalloc
from itertools import combinations, islice
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nilgraph.spectra as spectra
from nilgraph.catalog import CATALOG
from nilgraph.exactlin import IntMatrix, det_flat
from nilgraph.graphs import Graph, complete_graph, connected_components, empty_graph, path_graph
from nilgraph.morphism import endo_from_matrix, reidemeister_number
from nilgraph.nilgroup import Presentation
from nilgraph.spectra import (
    Z1,
    SearchBudgetExceeded,
    SpectrumConsistencyError,
    _Budget,
    _charpoly_width,
    _check_block_structure,
    _make_charpoly_keys,
    _make_leaf_values,
    _Search,
    _sign_patterns,
    _SignedGroup,
    compute_spectrum_report,
)

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "searches.json"
CATALOG_GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog_reports.json"
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
    return _Search(Presentation.of(g), bound, True, _Budget(None))


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
        assert leaves == [(0, (), [(-1,), (1,)], [[None]])]


LEAF_CASES = [pytest.param(e.graph, 1, 20, False, id=e.key) for e in CATALOG] + [
    # Every leaf of N32 at bound 2 and a five-vertex edgeless graph, which
    # no golden report covers, for the packed characteristic-polynomial key.
    pytest.param(empty_graph(3), 2, None, False, id="N32-B2-all"),
    pytest.param(empty_graph(5), 1, 20, False, id="N52"),
] + [
    # The kept sign patterns of the first leaves the report evaluates, with
    # the symmetry group: the keyed evaluator on N42 and N32, the other on
    # one_edge.
    pytest.param(CATALOG_BY_KEY[key].graph, bound, 20, True, id=f"{key}-B{bound}-grouped")
    for key, bound in (("N42", 1), ("N32", 2), ("one_edge", 1))
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


@st.composite
def _bounded_matrices(draw, n=None, bound=None):
    """(bound, columns, placement order) of an n x n matrix, n in 2..5, with
    entries in [-bound, bound], bound in 1..3; half the draws put +-bound in
    every entry."""
    n = draw(st.integers(2, 5)) if n is None else n
    bound = draw(st.integers(1, 3)) if bound is None else bound
    corner = draw(st.booleans())
    entry = st.sampled_from((-bound, bound)) if corner else st.integers(-bound, bound)
    cols = [tuple(draw(entry) for _ in range(n)) for _ in range(n)]
    return bound, cols, draw(st.permutations(range(n)))


def _principal_minor_sums(cols):
    n = len(cols)
    return [
        sum(det_flat([cols[c][r] for r in t for c in t], k) for t in combinations(range(n), k))
        for k in range(1, n + 1)
    ]


def _packed_keys(bound, cols, order):
    """(key, principal-minor sums) of every sign pattern of the placed
    columns of ``cols``, as the edgeless evaluator builds the keys."""
    n = len(cols)
    width = _charpoly_width(n, bound)
    v = order[-1]
    pattern_key = _make_charpoly_keys(order, width)
    out = []
    for signed in _sign_patterns(n, order[:-1], [cols[u] for u in order[:-1]]):
        base, coef = pattern_key(signed)
        assert signed[v] is None
        signed[v] = cols[v]
        out.append((base + sum(map(mul, cols[v], coef)), _principal_minor_sums(signed)))
    return width, out


@given(st.data())
def test_packed_charpoly_key_decodes_to_the_principal_minor_sums(data):
    """The key of each sign pattern holds E_1..E_n in digits of the width,
    offset by half a digit; so keys are equal exactly when the sums are."""
    bound, cols, order = data.draw(_bounded_matrices())
    n = len(cols)
    width, keyed = _packed_keys(bound, cols, order)
    assert len(keyed) == 1 << (n - 1)
    half, digit = 1 << (width - 1), (1 << width) - 1
    for key, sums in keyed:
        assert key >> (width * n) == 0
        assert [(key >> (width * k) & digit) - half for k in range(n)] == sums
    # The transpose has the same sums, and so the same key.
    transpose = [tuple(c[i] for c in cols) for i in range(n)]
    assert _packed_keys(bound, transpose, order)[1][0] == keyed[0]
    _, other, other_order = data.draw(_bounded_matrices(n, bound))
    (key_a, sums_a), (key_b, sums_b) = keyed[0], _packed_keys(bound, other, other_order)[1][0]
    assert (key_a == key_b) == (sums_a == sums_b)


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


class TestBlockStructureGuard:
    @staticmethod
    def _check(g: Graph, cols):
        dec = connected_components(g)
        comp_of = [None] * g.n
        for ci, comp in enumerate(dec.components):
            for v in comp:
                comp_of[v] = ci
        _check_block_structure(Presentation.of(g), cols, g.degrees(), comp_of, len(dec.components))

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
    def test_budget_is_charged_before_the_first_pool(self):
        """The first column of 13 isolated vertices has a pool of (3^13 - 1)/2
        columns; the budget runs out before it or the evaluator is built."""
        tracemalloc.start()
        try:
            with pytest.raises(SearchBudgetExceeded):
                compute_spectrum_report(empty_graph(13), node_budget=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

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
