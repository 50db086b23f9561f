import json
from itertools import product
from math import isqrt
from time import perf_counter

import pytest

from nilgraph.exactlin import INFINITY, ExtNat, IntMatrix, det
from nilgraph.graphs import Graph, complete_graph, cycle_graph, empty_graph, path_graph, simplicial_join
from nilgraph.morphism import endo_from_matrix, reidemeister_number
from nilgraph.nilgroup import Presentation
from nilgraph.spectra import (
    FOUR_N0,
    FOUR_SQUARES,
    FULL_N0,
    ODD_UNION_4N0,
    ONE_EDGE_FAMILY,
    R_INFINITY_ONLY,
    TWO_EDGE_FAMILY,
    TWO_N0,
    TWO_ODD_UNION_8N0,
    TWO_SQUARES,
    Z1,
    AtomForm,
    PartialProductsForm,
    ProductForm,
    SearchBudgetExceeded,
    _automorphism_columns,
    _divisors,
    _is_positive_cube,
    _one_edge_values,
    _pinched_cube_values,
    compute_spectrum_report,
    default_bound,
    detect_r_infinity,
    enumerate_automorphisms,
    spectrum_by_decomposition,
    spectrum_membership,
)

FIG2 = Graph.from_edges(4, [(0, 1), (1, 2)])


def observed_set(g, bound, **kw):
    return set(compute_spectrum_report(g, bound, **kw).observed)


class TestMembership:
    def test_two_squares(self):
        assert spectrum_membership(TWO_SQUARES, 2)
        assert not spectrum_membership(TWO_SQUARES, 4)
        # 2|k^2 - 4| members: 6 (k=1), 8 (k=0 and 2*2^2), 10 (k=3), 24 (k=4)
        for v in (6, 8, 10, 18, 24, 32, 42, 50):
            assert spectrum_membership(TWO_SQUARES, v)
        for v in (12, 14, 16, 20):
            assert not spectrum_membership(TWO_SQUARES, v)

    def test_odd_union(self):
        assert not spectrum_membership(ODD_UNION_4N0, 6)
        assert spectrum_membership(ODD_UNION_4N0, 7)
        assert spectrum_membership(ODD_UNION_4N0, 8)
        assert not spectrum_membership(ODD_UNION_4N0, 2)

    def test_two_odd_union(self):
        members = {2, 6, 8, 10, 14, 16, 18, 22, 24}
        for v in range(1, 25):
            assert spectrum_membership(TWO_ODD_UNION_8N0, v) == (v in members)

    def test_one_edge_family(self):
        # 4 = 2|2*(-1)*(2-1)^2|, 8 = 2|1*1*(1+1)^2|
        assert spectrum_membership(ONE_EDGE_FAMILY, 4)
        assert spectrum_membership(ONE_EDGE_FAMILY, 8)
        assert not spectrum_membership(ONE_EDGE_FAMILY, 2)
        assert not spectrum_membership(ONE_EDGE_FAMILY, 1)

    def test_two_edge_family(self):
        for v in (1, 8, 27, 2, 4, 6):
            assert spectrum_membership(TWO_EDGE_FAMILY, v)

    def test_two_edge_family_huge_values(self):
        # a true cube beyond float precision, and a value beyond float range
        assert TWO_EDGE_FAMILY.contains((10**17 + 3) ** 3)
        assert not TWO_EDGE_FAMILY.contains(10**400 + 1)

    def test_cube_test_is_exact(self):
        assert _is_positive_cube((10**17 + 3) ** 3)
        assert not _is_positive_cube((10**17 + 3) ** 3 + 1)
        assert not _is_positive_cube(10**400 + 1)
        assert _is_positive_cube(10**600)
        cubes = {k**3 for k in range(1, 13)}
        for v in range(-5, 2001):
            assert _is_positive_cube(v) == (v in cubes), v

    def test_one_edge_and_pinched_cube_against_enumeration(self):
        def one_edge(v):
            return any(
                abs(a * b * (a + b) ** 2) == v or abs(a * b * (a * a - b * b - 4 * b)) == v
                for a in range(-v, v + 1)
                for b in range(-v, v + 1)
                if a and b
            )

        for v in range(1, 121):
            assert _one_edge_values(v) == one_edge(v), v
        # A value v >= 1 has |a b| <= v, so the pairs with |a b| <= 600 list
        # every value up to 600.
        limit = 600
        values = set()
        for a in range(-limit, limit + 1):
            if a == 0:
                continue
            reach = limit // abs(a)
            for b in range(-reach, reach + 1):
                if b:
                    values.add(abs(a * b * (a + b) ** 2))
                    values.add(abs(a * b * (a * a - b * b - 4 * b)))
        for v in range(1, limit + 1):
            assert _one_edge_values(v) == (v in values), v
        for v in range(1, 2001):
            pinched = any(abs((a - 2) * (a + 2) ** 2) == v for a in range(-v - 2, v + 3))
            assert _pinched_cube_values(v) == pinched, v

    def test_two_edge_membership_of_a_large_even_value(self):
        # |a b (a+b)^2| at a = 3**5, b = -2 * 3**5; found among the 42
        # divisors of v, where a scan of |a|, |b| <= v would not end
        assert TWO_EDGE_FAMILY.contains(2 * 3**20)

    def test_divisors_match_trial_division(self):
        def trial(v):
            small = [d for d in range(1, isqrt(v) + 1) if v % d == 0]
            return small + [v // d for d in reversed(small) if d * d != v]

        for v in range(1, 2001):
            assert _divisors(v) == trial(v), v

    def test_membership_near_10_18_is_fast(self):
        # Two nine-digit primes, the square of one, and a one-edge value
        # |a b (a+b)^2| with five-digit a and b; trial division would run
        # to about 10^9.
        p, q = 999_999_937, 1_000_000_007
        t0 = perf_counter()
        assert _divisors(2 * p * q) == [1, 2, p, q, 2 * p, 2 * q, p * q, 2 * p * q]
        assert _divisors(p * p) == [1, p, p * p]
        a, b = 30_011, 20_011
        assert TWO_EDGE_FAMILY.contains(a * b * (a + b) ** 2)
        assert ONE_EDGE_FAMILY.contains(2 * a * b * (a + b) ** 2)
        ProductForm((TWO_SQUARES, ONE_EDGE_FAMILY)).contains(2 * p * q)
        ProductForm((TWO_SQUARES, ONE_EDGE_FAMILY)).contains(2 * (10**14 + 3))
        assert perf_counter() - t0 < 1

    def test_squares_scaled_by_four(self):
        for v in (4, 12, 16, 20, 36, 48):
            assert spectrum_membership(FOUR_SQUARES, v)
        for v in (2, 6, 8, 24, 28, 40):
            # 24 = 4*6: 6 is neither a nonzero square nor |k^2-4|; 8, 40 likewise
            assert not spectrum_membership(FOUR_SQUARES, v)

    def test_infinity_always_member(self):
        for form in (TWO_SQUARES, R_INFINITY_ONLY, FOUR_N0, Z1):
            assert spectrum_membership(form, INFINITY)
            assert spectrum_membership(form, ExtNat(None))

    def test_r_infinity_only(self):
        assert not any(spectrum_membership(R_INFINITY_ONLY, v) for v in range(1, 50))

    def test_zero_not_member(self):
        assert not spectrum_membership(FULL_N0, 0)


class TestFormAlgebra:
    def test_product_membership_matches_closed_form(self):
        prod = ProductForm((Z1, ODD_UNION_4N0))
        for v in range(1, 201):
            assert prod.contains(v) == TWO_ODD_UNION_8N0.contains(v)

    def test_partial_products_two_even(self):
        upp = PartialProductsForm(TWO_N0, 2)
        for v in range(1, 201):
            assert upp.contains(v) == TWO_N0.contains(v)

    def test_simplify_rules(self):
        assert ProductForm((Z1, TWO_N0)).simplify() == FOUR_N0
        assert ProductForm((Z1, ODD_UNION_4N0)).simplify() == TWO_ODD_UNION_8N0
        assert ProductForm((Z1, TWO_SQUARES)).simplify() == FOUR_SQUARES
        assert ProductForm((FULL_N0, TWO_N0)).simplify() == TWO_N0
        assert ProductForm((FULL_N0, FULL_N0)).simplify() == FULL_N0
        assert ProductForm((FULL_N0, ODD_UNION_4N0)).simplify() == FULL_N0
        assert PartialProductsForm(TWO_N0, 3).simplify() == TWO_N0
        assert ProductForm((Z1, R_INFINITY_ONLY)).simplify() == R_INFINITY_ONLY

    def test_renders(self):
        assert Z1.render() == "{2, inf}"
        assert TWO_ODD_UNION_8N0.render() == "2(2N0-1) ∪ 8N0 ∪ {inf}"

    def test_unknown_atom_raises(self):
        with pytest.raises(ValueError, match="'NoSuchFamily'"):
            AtomForm("NoSuchFamily")


class TestDetectRInfinity:
    def test_unique_max_degree(self):
        assert detect_r_infinity(FIG2) == "MaxDegreeOnce"

    def test_cycles(self):
        assert detect_r_infinity(cycle_graph(5)) == "CycleAtLeast5"
        assert detect_r_infinity(cycle_graph(6)) == "CycleAtLeast5"
        assert detect_r_infinity(cycle_graph(4)) is None

    def test_paths(self):
        assert detect_r_infinity(path_graph(4)) == "PathAtLeast4"
        assert detect_r_infinity(path_graph(5)) == "PathAtLeast4"
        assert detect_r_infinity(path_graph(3)) is None

    def test_join_factor_rule(self):
        g = simplicial_join(empty_graph(1), cycle_graph(5))
        assert detect_r_infinity(g) == "JoinFactorRInf"

    def test_none_for_small_nice_graphs(self):
        for g in (complete_graph(4), empty_graph(4), Graph.from_edges(4, [(0, 1)])):
            assert detect_r_infinity(g) is None


class TestSpectrumByDecomposition:
    def test_cycle4_structural(self):
        form = spectrum_by_decomposition(cycle_graph(4))
        assert form == PartialProductsForm(TWO_N0, 2)
        assert form.simplify() == TWO_N0

    def test_star(self):
        form = spectrum_by_decomposition(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert form == ProductForm((Z1, ODD_UNION_4N0))
        assert form.simplify() == TWO_ODD_UNION_8N0

    def test_complete_graphs(self):
        assert spectrum_by_decomposition(empty_graph(1)) == Z1
        assert spectrum_by_decomposition(complete_graph(5)) == FULL_N0

    def test_paw(self):
        form = spectrum_by_decomposition(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]))
        assert form.simplify() == FOUR_SQUARES

    def test_diamond(self):
        form = spectrum_by_decomposition(
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        )
        assert form.simplify() == TWO_N0

    def test_path3(self):
        assert spectrum_by_decomposition(path_graph(3)).simplify() == FOUR_N0

    def test_composite_forms(self):
        """Two joins whose spectra stay composite after ``simplify``: distinct
        factor types multiply, two isomorphic factors give the union of
        partial products."""
        k2_plus_point = Graph.from_edges(3, [(0, 1)])
        one_edge = Graph.from_edges(4, [(0, 1)])
        product_form = spectrum_by_decomposition(simplicial_join(k2_plus_point, one_edge)).simplify()
        assert product_form == ProductForm((TWO_SQUARES, ONE_EDGE_FAMILY))
        assert product_form.render() == (
            "(2N0^2 ∪ 2|N^2-4| ∪ {inf}) · ({2|nm(n+m)^2|, 2|nm(n^2-m^2-4m)| : n,m in Z} ∪ {inf})"
        )
        assert [v for v in range(1, 33) if product_form.contains(v)] == [8, 16, 24, 32]
        partial = spectrum_by_decomposition(simplicial_join(one_edge, one_edge)).simplify()
        assert partial == PartialProductsForm(ONE_EDGE_FAMILY, 2)
        assert partial.render() == "∪_(i=1..2) ({2|nm(n+m)^2|, 2|nm(n^2-m^2-4m)| : n,m in Z} ∪ {inf})^i"
        assert [v for v in range(1, 65) if partial.contains(v)] == [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 60, 64]

    def test_four_vertex_families(self):
        assert spectrum_by_decomposition(Graph.from_edges(4, [(0, 1)])) == ONE_EDGE_FAMILY
        assert spectrum_by_decomposition(Graph.from_edges(4, [(0, 1), (2, 3)])) == TWO_EDGE_FAMILY
        assert spectrum_by_decomposition(FIG2) == R_INFINITY_ONLY

    def test_unresolved_returns_none(self):
        # path on four plus an isolated vertex: no closed form in the catalog
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        assert spectrum_by_decomposition(g) is None


class TestEnumeration:
    def brute(self, g, bound):
        p = Presentation.of(g)
        n = g.n
        out = set()
        for flat in product(range(-bound, bound + 1), repeat=n * n):
            cols = tuple(tuple(flat[i * n + j] for i in range(n)) for j in range(n))
            rows = [[cols[j][i] for j in range(n)] for i in range(n)]
            if det(IntMatrix.from_rows(rows)) not in (1, -1):
                continue
            ok = True
            for a, b in g.edge_list():
                for x, y in p.nonedges:
                    if cols[a][x] * cols[b][y] != cols[a][y] * cols[b][x]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.add(cols)
        return out

    def test_k2_matches_exhaustive_filter(self):
        g = complete_graph(2)
        found = set(_automorphism_columns(Presentation.of(g), 1))
        ref = self.brute(g, 1)
        assert found == ref
        assert len(found) == 40

    def test_small_graphs_match_exhaustive_filter(self):
        for g in (empty_graph(2), path_graph(3), Graph.from_edges(3, [(0, 1)])):
            found = set(_automorphism_columns(Presentation.of(g), 1))
            assert found == self.brute(g, 1)

    def test_rank2_observed_values(self):
        # finite values need determinant -1 on the vertex part, so R = 2|trace|;
        # traces 1, 2, 3, 4 are realized at bound 3 ([[3,2],[2,1]] has trace 4)
        assert observed_set(empty_graph(2), 1) == {2}
        assert observed_set(empty_graph(2), 2) == {2, 4}
        assert observed_set(empty_graph(2), 3) == {2, 4, 6, 8}

    def test_path4_all_infinite(self):
        assert observed_set(path_graph(4), 1) == set()

    def test_deterministic(self):
        p = Presentation.of(path_graph(3))
        a = [e.vertex_matrix for e in enumerate_automorphisms(p, 2)]
        b = [e.vertex_matrix for e in enumerate_automorphisms(p, 2)]
        assert a == b

    def test_monotone_in_bound(self):
        for g in (empty_graph(2), path_graph(3), Graph.from_edges(3, [(0, 1)])):
            assert observed_set(g, 1) <= observed_set(g, 2)

    def test_bound_zero_raises(self):
        """The library rejects bound 0 itself; the CLI never passes it."""
        g = path_graph(3)
        with pytest.raises(ValueError, match="^bound must be >= 1$"):
            compute_spectrum_report(g, 0)
        with pytest.raises(ValueError, match="^bound must be >= 1$"):
            list(enumerate_automorphisms(Presentation.of(g), 0))

    def test_budget_guard(self):
        with pytest.raises(SearchBudgetExceeded):
            list(_automorphism_columns(Presentation.of(empty_graph(3)), 2, True, 50))

    def test_endos_are_valid(self):
        p = Presentation.of(cycle_graph(4))
        for e in enumerate_automorphisms(p, 1):
            assert e.vertex_matrix.rows == 4
            # re-validate through the checked constructor
            rebuilt = endo_from_matrix(p, e.vertex_matrix)
            assert rebuilt.commutator_matrix == e.commutator_matrix


class TestPruningIsLossless:
    """The structure theorems say every automorphism respects the degree
    filtration and permutes isomorphic components; the pruned search assumes
    that, the unpruned one does not.  Equal outputs machine-check the
    theorems on these instances."""

    CASES = [
        (empty_graph(2), 2),
        (complete_graph(2), 2),
        (empty_graph(3), 2),
        (Graph.from_edges(3, [(0, 1)]), 2),
        (path_graph(3), 2),
        (complete_graph(3), 2),
        (empty_graph(1), 3),
        (Graph.from_edges(4, [(0, 1)]), 1),
        (Graph.from_edges(4, [(0, 1), (2, 3)]), 1),
        (cycle_graph(4), 1),
        (FIG2, 1),
    ]

    def test_pruned_equals_unpruned(self):
        for g, bound in self.CASES:
            p = Presentation.of(g)
            pruned = set(_automorphism_columns(p, bound, True))
            unpruned = set(_automorphism_columns(p, bound, False))
            assert pruned == unpruned, (g.to_json(), bound)


class TestSpectrumReport:
    def test_path3(self):
        rep = compute_spectrum_report(path_graph(3), 2)
        assert rep.classification.kind == "closed_form"
        assert rep.classification.form == FOUR_N0
        assert 4 in rep.observed
        assert all(v % 4 == 0 for v in rep.observed)

    def test_two_edges_contained(self):
        rep = compute_spectrum_report(Graph.from_edges(4, [(0, 1), (2, 3)]), 1)
        assert all(spectrum_membership(TWO_EDGE_FAMILY, v) for v in rep.observed)

    def test_single_vertex(self):
        rep = compute_spectrum_report(empty_graph(1), 3)
        assert rep.observed == (2,)
        assert rep.classification.form == Z1

    def test_witnesses_recompute(self):
        rep = compute_spectrum_report(cycle_graph(4), 1)
        p = Presentation.of(cycle_graph(4))
        for value, rows in rep.witnesses.items():
            e = endo_from_matrix(p, IntMatrix.from_rows([list(r) for r in rows]))
            assert reidemeister_number(e).r == ExtNat(value)

    def test_r_infinity_classification(self):
        rep = compute_spectrum_report(cycle_graph(5), 1)
        assert rep.classification.kind == "r_infinity_rule"
        assert rep.classification.rule == "CycleAtLeast5"
        assert rep.observed == ()

    def test_search_only_classification(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        rep = compute_spectrum_report(g, 1)
        assert rep.classification.kind == "search_only"

    def test_json_roundtrip(self):
        rep = compute_spectrum_report(cycle_graph(4), 1)
        data = json.loads(json.dumps(rep.to_json()))
        assert data["observed"] == list(rep.observed)
        assert data["bound"] == 1
        p = Presentation.of(cycle_graph(4))
        for key, rows in data["witnesses"].items():
            e = endo_from_matrix(p, IntMatrix.from_rows(rows))
            assert reidemeister_number(e).r == ExtNat(int(key))


class TestDefaultBound:
    def test_values(self):
        assert default_bound(empty_graph(3)) == 3
        assert default_bound(cycle_graph(4)) == 2
        assert default_bound(path_graph(4)) == 2
        assert default_bound(Graph.from_edges(4, [(0, 1)])) == 1
        assert default_bound(empty_graph(4)) == 1
        assert default_bound(complete_graph(4)) == 1
        assert default_bound(cycle_graph(5)) == 1


class TestCatalogAgreement:
    def test_classification_matches_catalog_membership(self):
        """For every graph class on up to 4 vertices, the structural
        classification and the catalog form agree on all values up to 100.
        In particular the triangle-plus-point catalog row and the general
        complete-plus-point family give the same set."""
        from nilgraph.catalog import CATALOG

        for entry in CATALOG:
            rule = detect_r_infinity(entry.graph)
            if rule is not None:
                computed = R_INFINITY_ONLY
            else:
                computed = spectrum_by_decomposition(entry.graph)
                assert computed is not None, entry.key
                computed = computed.simplify()
            for v in range(1, 101):
                assert computed.contains(v) == entry.form.contains(v), (entry.key, v)

    def test_relabelled_lookup(self):
        from nilgraph.catalog import lookup_catalog

        relabelled = Graph.from_edges(4, [(1, 3), (0, 2)])
        entry = lookup_catalog(relabelled)
        assert entry is not None and entry.key == "two_edges"
        assert lookup_catalog(cycle_graph(5)) is None


class TestDecompositionSearchAgreement:
    def test_cycle4_small_members_realized(self, reports):
        rep = reports.get(cycle_graph(4), 2)
        assert {2, 4, 6} <= set(rep.observed)

    def test_star_small_members_realized(self, reports):
        rep = reports.get(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), 1)
        assert {2, 6, 8} <= set(rep.observed)
