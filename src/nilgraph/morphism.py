"""Endomorphisms of the graph group from generator images, the induced
matrices on the two lower-central factors, and exact Reidemeister numbers.

An endomorphism is determined by the images of the vertex generators; the
images of the commutator generators are forced by bilinearity.  Validity
means every adjacent pair keeps commuting images.  The Reidemeister number
of an automorphism is the product of the two layer counts
|det(1 - M_1)|_inf * |det(1 - M_2)|_inf, where M_1 acts on the vertex
lattice (the abelianization) and M_2 on the commutator lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import ExtNat, IntMatrix, abs_inf, det
from .graphs import is_complete_plus_point
from .nilgroup import (
    GroupElement,
    Presentation,
    commutator,
    identity_element,
    make_element,
    multiply,
    power,
)


class RelationViolation(ValueError):
    """The images of an adjacent pair of vertex generators do not commute."""

    def __init__(self, edge: tuple[int, int]):
        self.edge = edge
        super().__init__(f"images of adjacent vertices {edge} do not commute")


class NotAutomorphism(ValueError):
    """The endomorphism is not invertible (vertex matrix not unimodular)."""


@dataclass(frozen=True)
class Endo:
    """Endomorphism given by vertex-generator images.

    ``vertex_matrix`` (n x n) has the z-part of the image of generator i as
    its i-th column; ``commutator_matrix`` (N x N) is the induced action on
    the commutator generators and depends on ``vertex_matrix`` only.
    """

    presentation: Presentation
    images: tuple[GroupElement, ...]
    vertex_matrix: IntMatrix
    commutator_matrix: IntMatrix


@dataclass(frozen=True)
class ReidemeisterResult:
    """Layer-wise and total Reidemeister numbers (r = r1 * r2, infinity absorbing)."""

    r1: ExtNat
    r2: ExtNat
    r: ExtNat

    def to_json(self) -> dict:
        return {"r1": self.r1.to_json(), "r2": self.r2.to_json(), "r": self.r.to_json()}


def induced_commutator_matrix(p: Presentation, vertex_matrix: IntMatrix) -> IntMatrix:
    """Action on commutator generators: the (m, l) entry is the 2x2 minor of
    the vertex matrix on rows = m-th non-edge, columns = l-th non-edge."""
    if vertex_matrix.rows != p.n or vertex_matrix.cols != p.n:
        raise ValueError(f"vertex matrix must be {p.n}x{p.n}")
    columns = [vertex_matrix.column(c) for c in range(p.n)]
    entries = []
    for a, b in p.nonedges:
        for c, d in p.nonedges:
            cc, cd = columns[c], columns[d]
            entries.append(cd[b] * cc[a] - cd[a] * cc[b])
    return IntMatrix(p.N, p.N, tuple(entries))


def make_endo(p: Presentation, images) -> Endo:
    """Build an endomorphism from vertex-generator images, checking relations."""
    images = tuple(images)
    if len(images) != p.n:
        raise ValueError(f"expected {p.n} images, got {len(images)}")
    ident = identity_element(p)
    for i, j in p.graph.edge_list():
        if commutator(p, images[i], images[j]) != ident:
            raise RelationViolation((i, j))
    entries = tuple(images[j].z[i] for i in range(p.n) for j in range(p.n))
    vm = IntMatrix(p.n, p.n, entries)
    return Endo(p, images, vm, induced_commutator_matrix(p, vm))


def endo_from_matrix(p: Presentation, m: IntMatrix) -> Endo:
    """Endomorphism whose vertex images are the matrix columns (zero t-parts)."""
    images = [make_element(p, m.column(i)) for i in range(p.n)]
    return make_endo(p, images)


def endo_from_json(p: Presentation, data) -> Endo:
    from .nilgroup import element_from_json

    if isinstance(data, dict) and "matrix" in data:
        rows = data["matrix"]
        if not (
            isinstance(rows, list)
            and all(isinstance(row, list) and all(type(x) is int for x in row) for row in rows)
        ):
            raise ValueError("matrix must be a list of rows of integers")
        m = IntMatrix.from_rows(rows)
        if m.rows != p.n or m.cols != p.n:
            raise ValueError(f"matrix must be {p.n}x{p.n}")
        return endo_from_matrix(p, m)
    if isinstance(data, dict) and isinstance(data.get("images"), list):
        return make_endo(p, [element_from_json(p, img) for img in data["images"]])
    raise ValueError('automorphism JSON needs key "matrix" or "images"')


def is_automorphism(e: Endo) -> bool:
    """True iff the vertex matrix is unimodular (det +1 or -1); that is
    sufficient because a surjection of the abelianization forces the whole
    endomorphism to be invertible."""
    return det(e.vertex_matrix) in (1, -1)


def has_eigenvalue_one(m: IntMatrix) -> bool:
    return det(IntMatrix.identity(m.rows) - m) == 0


def reidemeister_number(e: Endo) -> ReidemeisterResult:
    """Exact Reidemeister number of an automorphism, layer by layer."""
    if not is_automorphism(e):
        raise NotAutomorphism("vertex matrix determinant is not +-1")
    p = e.presentation
    r1 = abs_inf(det(IntMatrix.identity(p.n) - e.vertex_matrix))
    r2 = abs_inf(det(IntMatrix.identity(p.N) - e.commutator_matrix))
    return ReidemeisterResult(r1, r2, r1 * r2)


def apply_endo(e: Endo, g: GroupElement) -> GroupElement:
    """Image of an arbitrary element, multiplying generator images in order."""
    p = e.presentation
    out = identity_element(p)
    for i, zi in enumerate(g.z):
        if zi:
            out = multiply(p, out, power(p, e.images[i], zi))
    if any(g.t):
        columns = [e.commutator_matrix.column(l) for l in range(p.N)]
        t = list(out.t)
        for l, tl in enumerate(g.t):
            if tl:
                col = columns[l]
                for m in range(p.N):
                    t[m] += tl * col[m]
        out = GroupElement(out.z, tuple(t))
    return out


def companion_matrix(coeffs: tuple[int, ...] | list[int]) -> IntMatrix:
    """Companion matrix of a monic integer polynomial.

    ``coeffs`` lists the coefficients from the constant term up, including
    the leading 1: (a_0, a_1, ..., a_{d-1}, 1).  The first row is
    (0, ..., 0, -a_0) and the lower-left block is the identity, so the
    characteristic polynomial equals the input polynomial.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) < 2 or coeffs[-1] != 1:
        raise ValueError("need a monic polynomial of degree >= 1 (leading coefficient 1)")
    d = len(coeffs) - 1
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -coeffs[i]
    return IntMatrix.from_rows(rows)


def evaluate_poly(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


def companion_automorphism(p: Presentation, coeffs) -> Endo:
    """Automorphism of the group of (complete graph on n-1 vertices) ⊔ (point)
    built from the companion matrix of a monic degree n-1 polynomial with
    constant term +-1: the complete block maps by the companion matrix and
    the isolated vertex inverts.

    Its Reidemeister number is 2 * |p(1) * p(-1)|_inf.
    """
    g = p.graph
    n = g.n
    if not (is_complete_plus_point(g) and g.degree(n - 1) == 0):
        raise ValueError(
            "presentation must be a complete graph on the first n-1 vertices "
            "plus an isolated last vertex"
        )
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) != n or coeffs[-1] != 1:
        raise ValueError(f"need a monic polynomial of degree {n - 1}")
    if coeffs[0] not in (1, -1):
        raise ValueError("constant term must be +1 or -1 (unimodular companion)")
    c = companion_matrix(coeffs)
    images = []
    for i in range(n - 1):
        z = tuple(c[k, i] for k in range(n - 1)) + (0,)
        images.append(make_element(p, z))
    images.append(make_element(p, (0,) * (n - 1) + (-1,)))
    return make_endo(p, images)


def twice_odd_polynomial(n: int, k: int) -> tuple[int, ...]:
    """Monic degree n-1 polynomial q with q(0)=1 and 2|q(1)q(-1)| = 2(2k-1).

    Used with :func:`companion_automorphism` to realize the value 2(2k-1)
    on the group of a complete-(n-1)-plus-point graph, n >= 4, k >= 1.
    """
    if n < 4 or k < 1:
        raise ValueError("need n >= 4 and k >= 1")
    d = n - 1
    coeffs = [0] * (d + 1)
    coeffs[0] = 1
    coeffs[d] = 1
    if n % 2 == 1:
        coeffs[1] = k - 1
        coeffs[2] = k - 2
    else:
        coeffs[1] = k - 2
        coeffs[2] = k - 1
    return tuple(coeffs)


def eight_times_polynomial(n: int, k: int) -> tuple[int, ...]:
    """Monic degree n-1 polynomial r with r(0)=1 and 2|r(1)r(-1)| = 8k.

    Companion of :func:`twice_odd_polynomial` covering the multiples of 8.
    """
    if n < 4 or k < 1:
        raise ValueError("need n >= 4 and k >= 1")
    d = n - 1
    coeffs = [0] * (d + 1)
    coeffs[0] = 1
    coeffs[d] = 1
    if n % 2 == 1:
        coeffs[1] = k - 1
        coeffs[2] = k - 1
    else:
        coeffs[1] = k - 2
        coeffs[2] = k
    return tuple(coeffs)
