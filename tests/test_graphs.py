import random
from itertools import combinations, permutations

import pytest

from nilgraph.graphs import (
    Graph,
    GraphFormatError,
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    degree_filtration,
    disjoint_union,
    empty_graph,
    graph_from_text,
    induced_subgraph,
    is_complete_plus_point,
    is_connected,
    is_isomorphic,
    isomorphisms,
    join_decompose,
    path_graph,
    simplicial_join,
)

FIG1 = Graph.from_edges(4, [(0, 1), (1, 2)])  # path on three plus isolated vertex
FIG5A = Graph.from_edges(4, [(0, 1)])
FIG5B = Graph.from_edges(4, [(0, 1), (2, 3)])


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


class TestDegrees:
    def test_path_middle(self):
        assert path_graph(3).degree(1) == 2

    def test_complete(self):
        assert all(complete_graph(4).degree(v) == 3 for v in range(4))

    def test_isolated_vertex(self):
        assert FIG1.degree(3) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            path_graph(3).degree(3)


class TestDegreeFiltration:
    def test_path_plus_point(self):
        assert degree_filtration(FIG1) == [(0, 1, 2), (1,), ()]

    def test_triangle(self):
        assert degree_filtration(complete_graph(3)) == [(0, 1, 2), (0, 1, 2)]

    def test_edgeless(self):
        assert degree_filtration(empty_graph(3)) == [(), ()]


def test_complete_plus_point_in_every_labelling():
    for n in range(6):
        for g in all_graphs(n):
            expected = n >= 3 and any(
                g.degree(v) == 0 and induced_subgraph(g, [u for u in range(n) if u != v]).is_complete
                for v in range(n)
            )
            assert is_complete_plus_point(g) == expected, g


class TestComplement:
    def test_cycle4_gives_disjoint_edges(self):
        assert sorted(complement(cycle_graph(4)).edges) == [(0, 2), (1, 3)]

    def test_complete_and_empty(self):
        assert complement(complete_graph(5)).is_edgeless
        assert complement(empty_graph(5)).is_complete

    def test_involution(self):
        for n in range(0, 6):
            for g in all_graphs(n) if n <= 4 else [empty_graph(n), cycle_graph(5)]:
                assert complement(complement(g)) == g


class TestComponents:
    def test_one_edge(self):
        d = connected_components(FIG5A)
        assert d.isolated == (2, 3)
        assert d.components == ((0, 1),)

    def test_two_edges_one_type(self):
        d = connected_components(FIG5B)
        assert d.isolated == ()
        assert d.components == ((0, 1), (2, 3))
        assert d.types == ((0, 1),)

    def test_complete(self):
        d = connected_components(complete_graph(4))
        assert d.isolated == () and len(d.components) == 1

    def test_component_subgraphs_connected(self):
        for g in all_graphs(5):
            d = connected_components(g)
            for comp in d.components:
                sub = induced_subgraph(g, comp)
                assert is_connected(sub) and all(x >= 1 for x in sub.degrees())
            assert sorted(sum(d.components, d.isolated)) == list(range(g.n))


class TestJoinDecompose:
    def test_cycle4(self):
        jd = join_decompose(cycle_graph(4))
        assert jd.apex == ()
        assert jd.factors == ((0, 2), (1, 3))
        assert jd.types == ((0, 1),)

    def test_star_single_factor(self):
        jd = join_decompose(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert jd.apex == (0,)
        assert jd.factors == ((1, 2, 3),)

    def test_complete(self):
        jd = join_decompose(complete_graph(4))
        assert jd.apex == (0, 1, 2, 3) and jd.factors == ()

    def test_rejoin_reconstructs_exactly(self):
        # exhaustive on all graphs with up to 6 vertices: re-adding every
        # cross-part edge (and the apex joined to everything) must give back
        # the original edge set verbatim
        for n in range(1, 7):
            for g in all_graphs(n):
                jd = join_decompose(g)
                parts = [jd.apex] + [list(f) for f in jd.factors]
                edges = {e for e in g.edges if any(set(e) <= set(p) for p in parts)}
                for a in range(len(parts)):
                    for b in range(a + 1, len(parts)):
                        for i in parts[a]:
                            for j in parts[b]:
                                edges.add((min(i, j), max(i, j)))
                assert edges == set(g.edges)

    def test_rejoin_up_to_isomorphism_small(self):
        for g in all_graphs(4):
            jd = join_decompose(g)
            parts = [induced_subgraph(g, jd.apex)] if jd.apex else []
            parts += [induced_subgraph(g, f) for f in jd.factors]
            rebuilt = simplicial_join(*parts) if parts else empty_graph(0)
            assert is_isomorphic(rebuilt, g)

    def test_factor_complements_connected(self):
        for g in all_graphs(5):
            jd = join_decompose(g)
            for f in jd.factors:
                assert is_connected(complement(induced_subgraph(g, f)))

    def test_duality_with_components_of_complement(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                jd = join_decompose(g)
                rest = [v for v in range(g.n) if v not in jd.apex]
                comp = complement(induced_subgraph(g, rest))
                dec = connected_components(comp)
                relabeled = tuple(
                    sorted(
                        tuple(sorted(rest[k] for k in c))
                        for c in dec.components + tuple((i,) for i in dec.isolated)
                    )
                )
                assert relabeled == jd.factors


class TestIsomorphism:
    def test_path_relabelled(self):
        assert is_isomorphic(path_graph(3), Graph.from_edges(3, [(0, 2), (1, 2)]))

    def test_cycle_vs_matching(self):
        assert not is_isomorphic(cycle_graph(4), FIG5B)

    def test_mirror(self):
        mirror = Graph.from_edges(4, [(2, 3), (1, 2)])
        assert is_isomorphic(FIG1, mirror)

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(11)
        graphs = list(all_graphs(5))
        for g in graphs:
            assert is_isomorphic(g, g)
        picked = rng.sample(graphs, 40)
        for g in picked:
            for h in rng.sample(graphs, 6):
                assert is_isomorphic(g, h) == is_isomorphic(h, g)
        # transitivity within an isomorphism class
        five_cycle = cycle_graph(5)
        cls = [g for g in rng.sample(graphs, 400) if is_isomorphic(g, five_cycle)]
        for a in cls:
            for b in cls:
                assert is_isomorphic(a, b)
        matching = [g for g in all_graphs(4) if is_isomorphic(g, FIG5B)]
        for a in matching:
            for b in matching:
                assert is_isomorphic(a, b)

    @staticmethod
    def _brute(g, h):
        """Every permutation pi with pi(g) = h, by trying all n! of them."""
        return [
            pi
            for pi in permutations(range(g.n))
            if len(g.edges) == len(h.edges) and all(h.has_edge(pi[a], pi[b]) for a, b in g.edges)
        ]

    def test_isomorphisms_of_every_pair_on_four_vertices(self):
        """isomorphisms(g, h) yields exactly the brute-force isomorphisms,
        each once: |Aut(g)| of them when g and h are isomorphic, else none."""
        graphs = list(all_graphs(4))
        for g in graphs:
            for h in graphs:
                found = list(isomorphisms(g, h))
                assert sorted(found) == self._brute(g, h), (g, h)

    def test_isomorphisms_onto_a_relabelling(self):
        """On a seeded sample with 5 and 6 vertices, a relabelling h of g
        receives |Aut(g)| distinct isomorphisms, and a graph with the same
        degrees that is not isomorphic receives none."""
        rng = random.Random(7)
        for n in (5, 6):
            graphs = list(all_graphs(n))
            for g in rng.sample(graphs, 60):
                perm = rng.sample(range(n), n)
                h = Graph.from_edges(n, [(perm[i], perm[j]) for i, j in g.edges])
                found = set(isomorphisms(g, h))
                assert len(found) == len(self._brute(g, g))
                assert found == set(self._brute(g, h))
        assert list(isomorphisms(cycle_graph(6), disjoint_union(cycle_graph(3), cycle_graph(3)))) == []


class TestInducedSubgraph:
    def test_complete_restriction(self):
        assert induced_subgraph(complete_graph(4), [0, 1, 3]).is_complete

    def test_fig1_restriction_is_path(self):
        assert is_isomorphic(induced_subgraph(FIG1, [0, 1, 2]), path_graph(3))

    def test_empty_selection(self):
        assert induced_subgraph(complete_graph(4), []).n == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), [0, 0])
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), [5])

    def test_order_preserving_relabel(self):
        sub = induced_subgraph(FIG1, [2, 1])
        assert sorted(sub.edges) == [(0, 1)]


class TestFormats:
    def test_json_roundtrip(self):
        import json

        g = FIG5B
        assert graph_from_text(json.dumps(g.to_json())) == g

    def test_line_format(self):
        g = graph_from_text("4\n0 1\n1 2\n")
        assert g == FIG1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": 3, "edges": [[0, 1], [1, 0]]}', r"^duplicate edge \[0, 1\]$"),
            ("3\n0 1\n1 0\n", r"^line 3: duplicate edge \[0, 1\]$"),
        ],
        ids=["json", "line"],
    )
    def test_duplicate_edge_rejected(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            graph_from_text(text)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            graph_from_text('{"n": 3, "edges": [[1, 1]]}')

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("2\n0 5\n")

    def test_bad_line_reports_position(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            graph_from_text("3\n0 1 2\n")

    def test_bad_json_reports_position(self):
        with pytest.raises(GraphFormatError, match="line"):
            graph_from_text('{"n": 3, "edges": [[0, 1]')
