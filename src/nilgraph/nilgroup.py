"""Exact arithmetic in the 2-step nilpotent group of a graph.

The group has one generator per vertex; two vertex generators commute
exactly when the vertices are adjacent, and every commutator of vertex
generators is central.  Elements are held in exponent normal form: the
vertex exponents z (length n) followed by the commutator-generator
exponents t (length N, one per non-edge).  The normal form is unique, so
elements are plain exponent vectors and no word rewriting is ever needed.

For the left factor (z, t) and right factor (v, s) the product is
(z + v, t + s + correction) where the correction on the non-edge (i, j)
is v_i * z_j.  Everything below is derived from that single rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactlin import IntMatrix, kernel_rank
from .graphs import Graph


@dataclass(frozen=True)
class Presentation:
    """Derived layout of the group of a graph: the ordered non-edge list.

    Non-edges are sorted lexicographically; commutator generator l is the
    commutator of the vertex generators j_l and i_l where (i_l, j_l) is
    the l-th non-edge.
    """

    graph: Graph
    nonedges: tuple[tuple[int, int], ...]
    n: int
    N: int

    @classmethod
    def of(cls, graph: Graph) -> "Presentation":
        nonedges = tuple(graph.nonedges())
        return cls(graph, nonedges, graph.n, len(nonedges))


@dataclass(frozen=True)
class GroupElement:
    """Element in exponent normal form: vertex exponents z, commutator exponents t."""

    z: tuple[int, ...]
    t: tuple[int, ...]

    def to_json(self) -> dict:
        return {"z": list(self.z), "t": list(self.t)}


def element_from_json(p: Presentation, data) -> GroupElement:
    if not isinstance(data, dict) or "z" not in data:
        raise ValueError('element JSON needs key "z"')
    z, t = data["z"], data.get("t", [0] * p.N)
    if not (isinstance(z, list) and isinstance(t, list) and all(type(x) is int for x in z + t)):
        raise ValueError("exponents must be lists of integers")
    return make_element(p, z, t)


def make_element(p: Presentation, z, t=None) -> GroupElement:
    z = tuple(z)
    t = (0,) * p.N if t is None else tuple(t)
    if len(z) != p.n or len(t) != p.N:
        raise ValueError(f"expected exponent vectors of lengths {p.n} and {p.N}")
    return GroupElement(z, t)


def identity_element(p: Presentation) -> GroupElement:
    return GroupElement((0,) * p.n, (0,) * p.N)


def x_generator(p: Presentation, i: int) -> GroupElement:
    return GroupElement(tuple(1 if k == i else 0 for k in range(p.n)), (0,) * p.N)


def y_generator(p: Presentation, l: int) -> GroupElement:
    return GroupElement((0,) * p.n, tuple(1 if k == l else 0 for k in range(p.N)))


def multiply(p: Presentation, a: GroupElement, b: GroupElement) -> GroupElement:
    """Product a*b; the correction term on non-edge (i, j) is b.z[i] * a.z[j]."""
    if len(a.z) != p.n or len(b.z) != p.n or len(a.t) != p.N or len(b.t) != p.N:
        raise ValueError("element does not conform to the presentation")
    z = tuple(x + y for x, y in zip(a.z, b.z))
    t = tuple(
        a.t[l] + b.t[l] + b.z[i] * a.z[j] for l, (i, j) in enumerate(p.nonedges)
    )
    return GroupElement(z, t)


def inverse(p: Presentation, a: GroupElement) -> GroupElement:
    z = tuple(-x for x in a.z)
    t = tuple(
        -a.t[l] + a.z[i] * a.z[j] for l, (i, j) in enumerate(p.nonedges)
    )
    return GroupElement(z, t)


def power(p: Presentation, a: GroupElement, k: int) -> GroupElement:
    """a**k for any integer k, by the closed form with binomial correction."""
    half = k * (k - 1) // 2
    z = tuple(k * x for x in a.z)
    t = tuple(
        k * a.t[l] + half * a.z[i] * a.z[j] for l, (i, j) in enumerate(p.nonedges)
    )
    return GroupElement(z, t)


def commutator(p: Presentation, a: GroupElement, b: GroupElement) -> GroupElement:
    """[a, b] = a^-1 b^-1 a b, central, so only the t-part is nonzero."""
    t = tuple(
        a.z[j] * b.z[i] - a.z[i] * b.z[j] for (i, j) in p.nonedges
    )
    return GroupElement((0,) * p.n, t)


def center_rank(p: Presentation) -> int:
    """Rank of the center: N plus the number of vertices adjacent to all others."""
    degs = p.graph.degrees()
    return p.N + sum(1 for d in degs if d == p.n - 1)


def gamma2_rank(p: Presentation) -> int:
    """Rank of the commutator subgroup (second lower-central term)."""
    return p.N


def centralizer_hirsch(p: Presentation, a: GroupElement) -> int:
    """Hirsch number of the centralizer of ``a``.

    An element with vertex exponents v commutes with ``a`` iff for every
    non-edge (i, j): v_i * a.z[j] - v_j * a.z[i] = 0.  The centralizer is
    the preimage of that solution lattice together with all central
    generators, so its Hirsch number is N plus the lattice rank.
    """
    if p.N == 0:
        return p.n
    entries = []
    for i, j in p.nonedges:
        row = [0] * p.n
        row[i] = a.z[j]
        row[j] = -a.z[i]
        entries.extend(row)
    constraint = IntMatrix(p.N, p.n, tuple(entries))
    return p.N + kernel_rank(constraint)
