import random
from itertools import combinations

import pytest

from nilgraph.exactlin import INFINITY, ExtNat, IntMatrix, det
from nilgraph.graphs import Graph, empty_graph, path_graph
from nilgraph.morphism import (
    NotAutomorphism,
    RelationViolation,
    apply_endo,
    companion_automorphism,
    companion_matrix,
    eight_times_polynomial,
    endo_from_json,
    endo_from_matrix,
    evaluate_poly,
    has_eigenvalue_one,
    induced_commutator_matrix,
    is_automorphism,
    make_endo,
    reidemeister_number,
    twice_odd_polynomial,
)
from nilgraph.nilgroup import (
    GroupElement,
    Presentation,
    make_element,
    multiply,
)
from nilgraph.spectra import enumerate_automorphisms

N22 = Presentation.of(empty_graph(2))
P3 = Presentation.of(path_graph(3))
FIG5A = Presentation.of(Graph.from_edges(4, [(0, 1)]))


def gamma_presentation(n):
    """Complete graph on the first n-1 vertices plus an isolated last vertex."""
    return Presentation.of(Graph.from_edges(n, combinations(range(n - 1), 2)))


def random_gl2(rng, limit=3):
    while True:
        rows = [[rng.randint(-limit, limit) for _ in range(2)] for _ in range(2)]
        if rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0] in (1, -1):
            return IntMatrix.from_rows(rows)


class TestMakeEndo:
    def test_identity(self):
        e = endo_from_matrix(N22, IntMatrix.identity(2))
        assert e.vertex_matrix == IntMatrix.identity(2)
        assert e.commutator_matrix == IntMatrix.identity(1)

    def test_shear_induces_identity_on_commutators(self):
        images = [make_element(N22, (1, 1)), make_element(N22, (0, 1))]
        e = make_endo(N22, images)
        assert e.vertex_matrix == IntMatrix.from_rows([[1, 0], [1, 1]])
        assert e.commutator_matrix == IntMatrix.from_rows([[1]])

    def test_path_mirror_inverts_commutator(self):
        images = [
            make_element(P3, (0, 0, 1)),
            make_element(P3, (0, 1, 0)),
            make_element(P3, (1, 0, 0)),
        ]
        e = make_endo(P3, images)
        assert e.commutator_matrix == IntMatrix.from_rows([[-1]])

    def test_relation_violation_carries_edge(self):
        images = [
            make_element(P3, (1, 0, 0)),
            make_element(P3, (0, 0, 1)),
            make_element(P3, (0, 1, 0)),
        ]
        with pytest.raises(RelationViolation) as exc:
            make_endo(P3, images)
        assert exc.value.edge == (0, 1)

    def test_image_count_checked(self):
        with pytest.raises(ValueError):
            make_endo(N22, [make_element(N22, (1, 0))])


class TestInducedCommutatorMatrix:
    def test_identity(self):
        for p in (N22, P3, FIG5A):
            assert induced_commutator_matrix(p, IntMatrix.identity(p.n)) == IntMatrix.identity(p.N)

    def test_rank_two_case_is_determinant(self):
        rng = random.Random(1)
        for _ in range(50):
            a = random_gl2(rng)
            assert induced_commutator_matrix(N22, a) == IntMatrix.from_rows([[det(a)]])

    def test_block_diagonal_gives_kronecker_and_det(self):
        # one-edge graph, vertex matrix diag(A1, A0): the induced action is
        # A1 (x) A0 on the four cross non-edges and det(A0) on the isolated pair
        rng = random.Random(2)
        for _ in range(50):
            a1, a0 = random_gl2(rng), random_gl2(rng)
            rows = [
                [a1[0, 0], a1[0, 1], 0, 0],
                [a1[1, 0], a1[1, 1], 0, 0],
                [0, 0, a0[0, 0], a0[0, 1]],
                [0, 0, a0[1, 0], a0[1, 1]],
            ]
            m2 = induced_commutator_matrix(FIG5A, IntMatrix.from_rows(rows))
            assert FIG5A.nonedges == ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
            for r in range(4):
                for c in range(4):
                    assert m2[r, c] == a1[r // 2, c // 2] * a0[r % 2, c % 2]
            assert m2[4, 4] == det(a0)
            assert all(m2[r, 4] == 0 for r in range(4))
            assert all(m2[4, c] == 0 for c in range(4))

    def test_functorial_under_composition(self):
        rng = random.Random(3)
        graphs = [empty_graph(2), empty_graph(3), path_graph(3), Graph.from_edges(4, [(0, 1)])]
        pairs = 0
        pools = {}
        while pairs < 60:
            g = rng.choice(graphs)
            p = Presentation.of(g)
            key = id(g)
            if key not in pools:
                pools[key] = [e.vertex_matrix for e in enumerate_automorphisms(p, 1)][:200]
            a = rng.choice(pools[key])
            b = rng.choice(pools[key])
            lhs = induced_commutator_matrix(p, a * b)
            rhs = induced_commutator_matrix(p, a) * induced_commutator_matrix(p, b)
            assert lhs == rhs
            pairs += 1

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            induced_commutator_matrix(N22, IntMatrix.identity(3))


class TestIsAutomorphism:
    def test_identity(self):
        assert is_automorphism(endo_from_matrix(N22, IntMatrix.identity(2)))

    def test_unimodular(self):
        assert is_automorphism(endo_from_matrix(N22, IntMatrix.from_rows([[1, 1], [1, 0]])))

    def test_doubling_rejected(self):
        e = endo_from_matrix(N22, IntMatrix.from_rows([[2, 0], [0, 2]]))
        assert not is_automorphism(e)
        with pytest.raises(NotAutomorphism):
            reidemeister_number(e)


class TestReidemeisterNumber:
    def test_identity_infinite(self):
        r = reidemeister_number(endo_from_matrix(N22, IntMatrix.identity(2)))
        assert r.r1.is_infinite and r.r.is_infinite

    def test_rank_two_value(self):
        e = endo_from_matrix(N22, IntMatrix.from_rows([[1, 1], [1, 0]]))
        r = reidemeister_number(e)
        assert (r.r1, r.r2, r.r) == (ExtNat(1), ExtNat(2), ExtNat(2))

    def test_infinite_iff_eigenvalue_one(self):
        rng = random.Random(4)
        graphs = [empty_graph(2), path_graph(3), Graph.from_edges(3, [(0, 1)])]
        for g in graphs:
            p = Presentation.of(g)
            for e in enumerate_automorphisms(p, 1):
                r = reidemeister_number(e)
                expect = has_eigenvalue_one(e.vertex_matrix) or has_eigenvalue_one(
                    e.commutator_matrix
                )
                assert r.r.is_infinite == expect

    def test_commutator_parts_of_images_are_irrelevant(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_gl2(rng)
            plain = endo_from_matrix(N22, a)
            twisted_images = [
                GroupElement(plain.images[i].z, (rng.randint(-3, 3),)) for i in range(2)
            ]
            twisted = make_endo(N22, twisted_images)
            assert twisted.commutator_matrix == plain.commutator_matrix
            if is_automorphism(plain):
                assert reidemeister_number(twisted) == reidemeister_number(plain)


class TestHasEigenvalueOne:
    def test_cases(self):
        assert has_eigenvalue_one(IntMatrix.identity(3))
        assert not has_eigenvalue_one(IntMatrix.from_rows([[-1]]))
        assert has_eigenvalue_one(IntMatrix.from_rows([[0, 1], [1, 0]]))


class TestCompanion:
    def test_characteristic_polynomial(self):
        rng = random.Random(6)
        for _ in range(50):
            d = rng.randint(1, 5)
            coeffs = [rng.choice([-1, 1])] + [rng.randint(-4, 4) for _ in range(d - 1)] + [1]
            c = companion_matrix(coeffs)
            for x in (-2, -1, 0, 1, 2, 3):
                xm = IntMatrix(d, d, tuple(
                    (x if i == j else 0) for i in range(d) for j in range(d)
                ))
                assert det(xm - c) == evaluate_poly(coeffs, x)

    def test_golden_ratio_polynomial(self):
        p = gamma_presentation(3)
        e = companion_automorphism(p, (-1, -1, 1))  # x^2 - x - 1
        r = reidemeister_number(e)
        assert r.r == ExtNat(2)

    def test_reidemeister_number_formula(self):
        rng = random.Random(7)
        for n in (3, 4, 5):
            p = gamma_presentation(n)
            for _ in range(20):
                coeffs = [rng.choice([-1, 1])] + [
                    rng.randint(-3, 3) for _ in range(n - 2)
                ] + [1]
                e = companion_automorphism(p, coeffs)
                r = reidemeister_number(e)
                target = 2 * abs(evaluate_poly(coeffs, 1) * evaluate_poly(coeffs, -1))
                assert r.r == (ExtNat(target) if target else INFINITY)

    def test_named_families(self):
        p4 = gamma_presentation(4)
        assert reidemeister_number(companion_automorphism(p4, twice_odd_polynomial(4, 1))).r == ExtNat(2)
        assert reidemeister_number(companion_automorphism(p4, eight_times_polynomial(4, 1))).r == ExtNat(8)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            companion_automorphism(P3, (-1, 0, 1))
        # the right shape, but the isolated vertex is not the last one
        with pytest.raises(ValueError):
            companion_automorphism(Presentation.of(Graph.from_edges(3, [(1, 2)])), (-1, 0, 1))

    def test_non_unit_constant_rejected(self):
        p = gamma_presentation(3)
        with pytest.raises(ValueError):
            companion_automorphism(p, (2, 0, 1))


class TestApplyEndo:
    def test_homomorphism_property(self):
        rng = random.Random(8)
        graphs = [empty_graph(2), empty_graph(3), path_graph(3)]
        for g in graphs:
            p = Presentation.of(g)
            auts = list(enumerate_automorphisms(p, 1))
            for _ in range(60):
                e = rng.choice(auts)
                a = GroupElement(
                    tuple(rng.randint(-3, 3) for _ in range(p.n)),
                    tuple(rng.randint(-3, 3) for _ in range(p.N)),
                )
                b = GroupElement(
                    tuple(rng.randint(-3, 3) for _ in range(p.n)),
                    tuple(rng.randint(-3, 3) for _ in range(p.N)),
                )
                assert apply_endo(e, multiply(p, a, b)) == multiply(
                    p, apply_endo(e, a), apply_endo(e, b)
                )

    def test_generator_images(self):
        e = endo_from_matrix(N22, IntMatrix.from_rows([[1, 1], [1, 0]]))
        from nilgraph.nilgroup import x_generator, y_generator

        assert apply_endo(e, x_generator(N22, 0)) == e.images[0]
        # the commutator generator maps by the induced commutator matrix
        assert apply_endo(e, y_generator(N22, 0)) == GroupElement((0, 0), (-1,))


class TestEndoJson:
    def test_matrix_shorthand(self):
        e = endo_from_json(N22, {"matrix": [[1, 1], [1, 0]]})
        assert e.vertex_matrix == IntMatrix.from_rows([[1, 1], [1, 0]])

    def test_images_form(self):
        data = {"images": [{"z": [1, 1], "t": [0]}, {"z": [0, 1], "t": [2]}]}
        e = endo_from_json(N22, data)
        assert e.images[1].t == (2,)

    def test_bad_payload(self):
        with pytest.raises(ValueError):
            endo_from_json(N22, {"nope": 1})
