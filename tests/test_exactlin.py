import random

import pytest

from nilgraph.exactlin import (
    INFINITY,
    DimensionError,
    ExtNat,
    IntMatrix,
    abs_inf,
    det,
    kernel_rank,
    rank,
    smith_normal_form,
)


def mat(rows):
    return IntMatrix.from_rows(rows)


def det_by_expansion(rows):
    """Independent cofactor-expansion oracle for the determinant."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_by_expansion(minor)
    return total


class TestDet:
    def test_unimodular_2x2(self):
        assert det(mat([[2, 1], [1, 1]])) == 1

    def test_cofactor_example(self):
        # 2x2 cofactor by hand: 0*1 - (-1)(-1) = -1
        assert det(mat([[0, -1], [-1, 1]])) == -1

    def test_identity(self):
        assert det(IntMatrix.identity(3)) == 1

    def test_empty(self):
        assert det(IntMatrix.identity(0)) == 1

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            det(IntMatrix.zeros(2, 3))

    def test_matches_expansion_oracle(self):
        """Every size from the empty matrix through the closed forms (n <= 4)
        into the elimination, with pivots that force row swaps and with
        singular matrices of both kinds the elimination meets."""
        rng = random.Random(20240811)
        for n in range(8):
            for trial in range(60):
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                kind = trial % 5
                singular = False
                if n >= 1 and kind == 1:
                    # zero leading pivot: the first step swaps rows
                    rows[0][0] = 0
                elif n >= 2 and kind == 2:
                    # proportional leading 2x2 rows: the second pivot is zero
                    rows[1][:2] = [3 * rows[0][0], 3 * rows[0][1]]
                elif n >= 3 and kind == 3:
                    # dependent rows: singular, although every pivot may exist
                    rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
                    singular = True
                elif n >= 1 and kind == 4:
                    # zero first column: singular, no pivot to swap in
                    for r in rows:
                        r[0] = 0
                    singular = True
                expected = det_by_expansion(rows)
                assert det(mat(rows)) == expected, rows
                assert expected == 0 or not singular

    def test_large_entries_exact(self):
        big = 10**30
        m = mat([[big, 1], [1, big]])
        assert det(m) == big * big - 1


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form(mat([[2, 0], [0, 3]])).diagonal == (1, 6)

    def test_zero_matrix(self):
        s = smith_normal_form(IntMatrix.zeros(2, 2))
        assert s.diagonal == (0, 0) and s.rank == 0

    def test_unimodular(self):
        assert smith_normal_form(mat([[0, -1], [-1, 1]])).diagonal == (1, 1)

    def test_divisibility_chain_and_det(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            s = smith_normal_form(mat(rows))
            nz = [d for d in s.diagonal if d]
            assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
            assert all(d == 0 for d in s.diagonal[s.rank :])
            d = det(mat(rows))
            if d != 0:
                prod = 1
                for x in nz:
                    prod *= x
                assert s.rank == n and prod == abs(d)

    def test_rectangular(self):
        s = smith_normal_form(mat([[2, 4, 6]]))
        assert s.diagonal == (2,) and s.rank == 1


class TestKernelRank:
    def test_identity(self):
        assert kernel_rank(IntMatrix.identity(2)) == 0

    def test_zero(self):
        assert kernel_rank(IntMatrix.zeros(2, 3)) == 3

    def test_rank_one_row(self):
        assert kernel_rank(mat([[1, -1, 0]])) == 2

    def test_rank_nullity(self):
        rng = random.Random(99)
        for _ in range(200):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            m = mat(rows)
            assert kernel_rank(m) + rank(m) == c


class TestExtNat:
    def test_abs_inf(self):
        assert abs_inf(0) == INFINITY
        assert abs_inf(-7) == ExtNat(7)

    def test_multiplication_absorbs(self):
        assert (ExtNat(3) * ExtNat(4)).value == 12
        assert (INFINITY * ExtNat(5)).is_infinite
        assert (ExtNat(5) * INFINITY).is_infinite

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ExtNat(-1)

    def test_json(self):
        assert INFINITY.to_json() == "inf"
        assert ExtNat(4).to_json() == 4
        assert str(INFINITY) == "inf"


class TestIntMatrix:
    def test_entry_count_checked(self):
        with pytest.raises(DimensionError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_multiply(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert a * b == mat([[2, 1], [4, 3]])

    def test_column_row(self):
        a = mat([[1, 2], [3, 4]])
        assert a.column(0) == (1, 3)
        assert a.row(1) == (3, 4)
