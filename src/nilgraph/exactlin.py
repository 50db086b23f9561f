"""Exact integer linear algebra.

Everything here is carried out over arbitrary-precision Python integers;
no floating point is used anywhere.  This module supplies the arithmetic
substrate for the Reidemeister-number computations: determinants and
row echelon forms (fraction-free), Smith normal form and kernel ranks.
"""

from __future__ import annotations

from dataclasses import dataclass


class DimensionError(ValueError):
    """Raised when matrix dimensions do not match an operation's contract."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise TypeError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: list[list[int]] | tuple | list) -> "IntMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        return cls(len(rows), ncols, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = []
        orows = [other.row(k) for k in range(other.rows)]
        for i in range(self.rows):
            srow = self.row(i)
            for j in range(other.cols):
                out.append(sum(srow[k] * orows[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return IntMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("shape mismatch")
        return IntMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows)) + "]"


INFINITY_SYMBOL = "inf"


@dataclass(frozen=True)
class ExtNat:
    """A value in N0 ∪ {infinity}; ``value is None`` encodes infinity.

    This is the codomain of Reidemeister numbers: a count that may be
    infinite.  Multiplication is absorbing in the infinite element.
    """

    value: int | None

    def __post_init__(self) -> None:
        if self.value is not None and (not isinstance(self.value, int) or self.value < 0):
            raise ValueError("finite ExtNat must be a non-negative integer")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __mul__(self, other: "ExtNat") -> "ExtNat":
        if self.is_infinite or other.is_infinite:
            return INFINITY
        return ExtNat(self.value * other.value)

    def __str__(self) -> str:
        return INFINITY_SYMBOL if self.value is None else str(self.value)

    def to_json(self) -> int | str:
        return INFINITY_SYMBOL if self.value is None else self.value


INFINITY = ExtNat(None)


def abs_inf(x: int) -> ExtNat:
    """Absolute value that sends 0 to infinity (and is finite otherwise)."""
    return INFINITY if x == 0 else ExtNat(abs(x))


def det(m: IntMatrix) -> int:
    """Exact determinant; the determinant of the empty 0x0 matrix is 1."""
    if not m.is_square:
        raise DimensionError("determinant needs a square matrix")
    return det_flat(list(m.entries), m.rows)


def det_flat(a: list, n: int) -> int:
    """Determinant of an n x n matrix given as a flat row-major list, which
    is overwritten.  Closed forms up to 4x4, fraction-free (Bareiss)
    elimination beyond."""
    if n == 0:
        return 1
    if n == 1:
        return a[0]
    if n == 2:
        return a[0] * a[3] - a[1] * a[2]
    if n == 3:
        return (
            a[0] * (a[4] * a[8] - a[5] * a[7])
            - a[1] * (a[3] * a[8] - a[5] * a[6])
            + a[2] * (a[3] * a[7] - a[4] * a[6])
        )
    if n == 4:
        c23 = a[10] * a[15] - a[11] * a[14]
        c13 = a[9] * a[15] - a[11] * a[13]
        c12 = a[9] * a[14] - a[10] * a[13]
        c03 = a[8] * a[15] - a[11] * a[12]
        c02 = a[8] * a[14] - a[10] * a[12]
        c01 = a[8] * a[13] - a[9] * a[12]
        return (
            (a[0] * a[5] - a[1] * a[4]) * c23
            - (a[0] * a[6] - a[2] * a[4]) * c13
            + (a[0] * a[7] - a[3] * a[4]) * c12
            + (a[1] * a[6] - a[2] * a[5]) * c03
            - (a[1] * a[7] - a[3] * a[5]) * c02
            + (a[2] * a[7] - a[3] * a[6]) * c01
        )
    sign = 1
    prev = 1
    for k in range(n - 1):
        kk = k * n + k
        if a[kk] == 0:
            for r in range(k + 1, n):
                if a[r * n + k] != 0:
                    rb, kb = r * n, k * n
                    for j in range(k, n):
                        a[kb + j], a[rb + j] = a[rb + j], a[kb + j]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[kk]
        kb = k * n
        for i in range(k + 1, n):
            ib = i * n
            aik = a[ib + k]
            for j in range(k + 1, n):
                a[ib + j] = (a[ib + j] * akk - aik * a[kb + j]) // prev
        prev = akk
    return sign * a[n * n - 1]


def echelon(a: list[list[int]], ncols: int) -> list[int]:
    """Bring the rows of ``a`` (lists of ``ncols`` integers, overwritten) to
    row echelon form by fraction-free row operations: swaps, and replacing a
    row by ``row * pivot - entry * pivot_row``.  Returns the pivot column of
    each leading row, increasing; the rows after those are zero."""
    nrows = len(a)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        prow = a[r]
        pval = prow[col]
        for i in range(r + 1, nrows):
            iv = a[i][col]
            if iv:
                a[i] = [x * pval - iv * y for x, y in zip(a[i], prow)]
        pivots.append(col)
        r += 1
    return pivots


def rank(m: IntMatrix) -> int:
    """Rank of an integer matrix (over the rationals), computed exactly."""
    return len(echelon(m.to_rows(), m.cols))


def kernel_rank(m: IntMatrix) -> int:
    """Rank of the integer solution lattice {v : m v = 0} (= cols - rank)."""
    return m.cols - rank(m)


@dataclass(frozen=True)
class SmithForm:
    """Diagonal of the Smith normal form plus the rank.

    ``diagonal`` has length min(rows, cols); the nonzero entries come first
    and satisfy the divisibility chain d_i | d_{i+1}.
    """

    diagonal: tuple[int, ...]
    rank: int

    def cokernel_order(self) -> ExtNat:
        """Order of coker(m) for a square matrix m with this Smith form."""
        if any(d == 0 for d in self.diagonal):
            return INFINITY
        prod = 1
        for d in self.diagonal:
            prod *= d
        return ExtNat(prod)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form diagonal via elementary row/column operations.

    The pivot at each step is an entry of minimal nonzero absolute value;
    transform matrices are not tracked.
    """
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    k = min(nrows, ncols)
    diag: list[int] = []
    top = 0
    while top < k:
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[top], a[bi] = a[bi], a[top]
        for row in a:
            row[top], row[bj] = row[bj], row[top]
        # Reduce the pivot row and column; restart if a smaller remainder shows up.
        dirty = False
        p = a[top][top]
        for i in range(top + 1, nrows):
            q = a[i][top] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[top])]
            if a[i][top]:
                dirty = True
        for j in range(top + 1, ncols):
            q = a[top][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[top]
            if a[top][j]:
                dirty = True
        if dirty:
            continue
        # Pivot must divide every remaining entry, else fold the offender in.
        offender = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if a[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[top] = [x + y for x, y in zip(a[top], a[offender])]
            continue
        diag.append(abs(p))
        top += 1
    diag.extend([0] * (k - len(diag)))
    return SmithForm(tuple(diag), sum(1 for d in diag if d))
