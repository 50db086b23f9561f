import random

import pytest

from nilgraph.exactlin import INFINITY, ExtNat, IntMatrix, abs_inf, det
from nilgraph.graphs import Graph, complete_graph, cycle_graph, empty_graph
from nilgraph.morphism import endo_from_matrix, make_endo, reidemeister_number
from nilgraph.nilgroup import GroupElement, Presentation
from nilgraph.oracle import (
    FiniteQuotient,
    QuotientSizeError,
    abelian_class_count,
    count_twisted_classes,
)
from nilgraph.spectra import enumerate_automorphisms

N22 = Presentation.of(empty_graph(2))
K2 = Presentation.of(complete_graph(2))


class TestFiniteQuotient:
    def test_size(self):
        assert FiniteQuotient(N22, 5).size == 125

    def test_size_guard(self):
        with pytest.raises(QuotientSizeError):
            FiniteQuotient(Presentation.of(empty_graph(3)), 16)

    def test_modulus_checked(self):
        with pytest.raises(ValueError):
            FiniteQuotient(N22, 1)


class TestCountTwistedClasses:
    def test_rank2_moduli(self):
        # R = 2; the count stabilizes at multiples of 4 but drops to 1 at
        # m = 6 (both values frozen from two independent enumerations)
        e = endo_from_matrix(N22, IntMatrix.from_rows([[1, 1], [1, 0]]))
        assert reidemeister_number(e).r == ExtNat(2)
        for m, expect in ((4, 2), (8, 2), (12, 2), (6, 1)):
            assert count_twisted_classes(FiniteQuotient(N22, m), e) == expect

    def test_abelian_cokernel(self):
        e = endo_from_matrix(K2, IntMatrix.from_rows([[2, 1], [1, 1]]))
        assert reidemeister_number(e).r == ExtNat(1)
        assert count_twisted_classes(FiniteQuotient(K2, 2), e) == 1

    def test_identity_counts_conjugacy_classes(self):
        # twisted by the identity is ordinary conjugacy; an abelian quotient
        # of order m^2 has m^2 classes
        e = endo_from_matrix(K2, IntMatrix.identity(2))
        assert count_twisted_classes(FiniteQuotient(K2, 3), e) == 9

    def test_abelian_multiple_stability(self):
        # for abelian layers the count is exact at any positive multiple of R
        rng = random.Random(12)
        for _ in range(10):
            while True:
                rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
                m = IntMatrix.from_rows(rows)
                if det(m) in (1, -1):
                    e = endo_from_matrix(K2, m)
                    r = reidemeister_number(e).r
                    if not r.is_infinite and r.value <= 6:
                        break
            for mult in (1, 2, 3):
                q = FiniteQuotient(K2, mult * r.value) if mult * r.value >= 2 else None
                if q is not None:
                    assert count_twisted_classes(q, e) == r.value

    def test_commutator_parts_do_not_change_count(self):
        plain = endo_from_matrix(N22, IntMatrix.from_rows([[1, 1], [1, 0]]))
        twisted = make_endo(
            N22,
            [GroupElement((1, 1), (5,)), GroupElement((1, 0), (-3,))],
        )
        q = FiniteQuotient(N22, 4)
        assert count_twisted_classes(q, plain) == count_twisted_classes(q, twisted) == 2

    def test_group_level_agreement_sample(self):
        # a couple of genuinely 2-step instances against the formula
        g3 = Presentation.of(Graph.from_edges(3, [(0, 1)]))
        e = endo_from_matrix(g3, IntMatrix.from_rows([[0, 1, 0], [1, 1, 0], [0, 0, -1]]))
        r = reidemeister_number(e).r
        assert r == ExtNat(2)
        assert count_twisted_classes(FiniteQuotient(g3, 4), e) == 2
        assert count_twisted_classes(FiniteQuotient(g3, 8), e) == 2


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(4),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),
    ],
    ids=["C4", "two_edges", "paw"],
)
def test_four_vertex_oracle_agreement(g):
    """The first three automorphisms at bound 1 with finite R and a quotient
    of at most 10^6 elements at m = 2R: the orbit count equals R."""
    p = Presentation.of(g)
    pairs = []
    for e in enumerate_automorphisms(p, 1):
        r = reidemeister_number(e).r
        if not r.is_infinite and (2 * r.value) ** (p.n + p.N) <= 10**6:
            pairs.append((e, r.value))
            if len(pairs) == 3:
                break
    assert len(pairs) == 3
    for e, r in pairs:
        assert count_twisted_classes(FiniteQuotient(p, 2 * r), e) == r, e.vertex_matrix.to_rows()


class TestAbelianClassCount:
    def test_negative_identity(self):
        assert abelian_class_count(IntMatrix.from_rows([[-1, 0], [0, -1]])) == ExtNat(4)

    def test_identity_infinite(self):
        assert abelian_class_count(IntMatrix.identity(2)) == INFINITY

    def test_unimodular_difference(self):
        assert abelian_class_count(IntMatrix.from_rows([[1, 1], [1, 0]])) == ExtNat(1)

    def test_matches_determinant(self):
        rng = random.Random(13)
        eye = {n: IntMatrix.identity(n) for n in range(1, 5)}
        for _ in range(200):
            n = rng.randint(1, 4)
            m = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            assert abelian_class_count(m) == abs_inf(det(eye[n] - m))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            abelian_class_count(IntMatrix.zeros(2, 3))
