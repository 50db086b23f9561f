"""Finite simple undirected graphs and the structural operations the
spectrum machinery keys on: degrees, degree filtrations, complements,
connected components, simplicial-join decomposition and isomorphism.

Vertices are 0-indexed 0..n-1 and carry a fixed canonical order; graph
equality is label-sensitive, isomorphism is the semantic comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations


class GraphFormatError(ValueError):
    """Raised for malformed graph descriptions (JSON or line format)."""


def _normalize_edge(i: int, j: int, n: int) -> tuple[int, int]:
    if i == j:
        raise GraphFormatError(f"self-loop at vertex {i}")
    if not (0 <= i < n and 0 <= j < n):
        raise GraphFormatError(f"edge ({i}, {j}) out of range for n={n}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphFormatError("negative vertex count")
        for i, j in self.edges:
            if not (0 <= i < j < self.n):
                raise GraphFormatError(f"bad edge ({i}, {j}) for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, frozenset(_normalize_edge(i, j, n) for i, j in edges))

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def degree(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range")
        return sum(1 for i, j in self.edges if v in (i, j))

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for i, j in self.edges:
            degs[i] += 1
            degs[j] += 1
        return degs

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2

    @property
    def is_edgeless(self) -> bool:
        return not self.edges

    def nonedges(self) -> list[tuple[int, int]]:
        """Non-adjacent pairs (i, j), i < j, in lexicographic order."""
        return [p for p in combinations(range(self.n), 2) if p not in self.edges]

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edge_list()]}


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    return Graph(g.n, frozenset(g.nonedges()))


def induced_subgraph(g: Graph, vs: list[int] | tuple[int, ...]) -> Graph:
    """Subgraph induced on ``vs``, relabelled 0..len(vs)-1 in the given order."""
    vs = list(vs)
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertices")
    if any(not (0 <= v < g.n) for v in vs):
        raise ValueError("vertex out of range")
    index = {v: k for k, v in enumerate(vs)}
    edges = [
        (index[i], index[j]) for i, j in g.edges if i in index and j in index
    ]
    return Graph.from_edges(len(vs), edges)


def disjoint_union(*graphs: Graph) -> Graph:
    n = 0
    edges = []
    for g in graphs:
        edges.extend((i + n, j + n) for i, j in g.edges)
        n += g.n
    return Graph.from_edges(n, edges)


def simplicial_join(*graphs: Graph) -> Graph:
    """Disjoint union plus all edges between the parts."""
    g = disjoint_union(*graphs)
    offsets = []
    n = 0
    for h in graphs:
        offsets.append((n, n + h.n))
        n += h.n
    cross = []
    for a in range(len(graphs)):
        for b in range(a + 1, len(graphs)):
            for i in range(*offsets[a]):
                for j in range(*offsets[b]):
                    cross.append((i, j))
    return Graph.from_edges(n, list(g.edges) + cross)


def degree_filtration(g: Graph) -> list[tuple[int, ...]]:
    """The nested vertex sets V_1 ⊇ V_2 ⊇ ... ⊇ V_{n-1}, V_d = {v : deg(v) >= d}."""
    degs = g.degrees()
    return [
        tuple(v for v in range(g.n) if degs[v] >= d) for d in range(1, g.n)
    ]


def _bfs_component(adj: list[list[int]], start: int, seen: list[bool]) -> list[int]:
    queue = [start]
    seen[start] = True
    comp = []
    while queue:
        v = queue.pop()
        comp.append(v)
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    return sorted(comp)


def _components_of(g: Graph, verts: list[int]) -> list[tuple[int, ...]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    vset = set(verts)
    for i, j in g.edges:
        if i in vset and j in vset:
            adj[i].append(j)
            adj[j].append(i)
    seen = [False] * g.n
    comps = []
    for v in verts:
        if not seen[v]:
            comps.append(tuple(_bfs_component(adj, v, seen)))
    return sorted(comps)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(_components_of(g, list(range(g.n)))) == 1


def is_complete_plus_point(g: Graph) -> bool:
    """Complete graph on n-1 >= 2 vertices plus one isolated vertex, in any
    labelling."""
    if g.n < 3:
        return False
    degs = sorted(g.degrees())
    return degs[0] == 0 and all(d == g.n - 2 for d in degs[1:])


def _type_partition(g: Graph, parts: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Group the given vertex sets into classes of isomorphic induced subgraphs."""
    subs = [induced_subgraph(g, p) for p in parts]
    classes: list[list[int]] = []
    for k, sub in enumerate(subs):
        for cls in classes:
            if is_isomorphic(sub, subs[cls[0]]):
                cls.append(k)
                break
        else:
            classes.append([k])
    return tuple(tuple(c) for c in classes)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Split of a graph into its degree-0 vertices and the connected
    components of the rest, with components grouped by isomorphism type."""

    isolated: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    types: tuple[tuple[int, ...], ...]


def connected_components(g: Graph) -> ComponentDecomposition:
    degs = g.degrees()
    isolated = tuple(v for v in range(g.n) if degs[v] == 0)
    rest = [v for v in range(g.n) if degs[v] > 0]
    comps = _components_of(g, rest)
    return ComponentDecomposition(isolated, tuple(comps), _type_partition(g, comps))


@dataclass(frozen=True)
class JoinDecomposition:
    """Split into the apex (vertices adjacent to all others) and the
    join-indecomposable factors of the rest, grouped by isomorphism type.

    The factors are the connected components of the complement of the
    induced subgraph on the non-apex vertices, so each factor's complement
    is connected.
    """

    apex: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]
    types: tuple[tuple[int, ...], ...]


def join_decompose(g: Graph) -> JoinDecomposition:
    degs = g.degrees()
    apex = tuple(v for v in range(g.n) if degs[v] == g.n - 1)
    rest = [v for v in range(g.n) if degs[v] < g.n - 1]
    comp_rest = complement(induced_subgraph(g, rest))
    factors = [
        tuple(rest[k] for k in comp) for comp in _components_of(comp_rest, list(range(len(rest))))
    ]
    factors = sorted(factors)
    return JoinDecomposition(apex, tuple(factors), _type_partition(g, factors))


def _structure(g: Graph) -> tuple[list[list[int]], list[tuple]]:
    """The neighbour list of each vertex, read once from the edges, and its
    signature: its degree and the sorted degrees of its neighbours."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return nbrs, [(len(a), tuple(sorted(len(nbrs[u]) for u in a))) for a in nbrs]


def isomorphisms(g1: Graph, g2: Graph):
    """Yield each isomorphism pi from g1 to g2 (vertex v goes to pi[v]) once,
    by backtracking (McKay and Piperno 2014).  A vertex maps only to one of
    its signature and adjacent to exactly the images of its placed
    neighbours, so one with a placed neighbour w tries only the neighbours
    of w's image, ascending.  The next vertex placed is the one with the
    most neighbours placed, ties broken by signature, then label."""
    n = g1.n
    if n != g2.n or len(g1.edges) != len(g2.edges):
        return
    nbrs1, sig1 = _structure(g1)
    nbrs2, sig2 = _structure(g2)
    if sorted(sig1) != sorted(sig2):
        return
    for a in nbrs2:
        a.sort()
    masks2 = [sum(1 << u for u in a) for a in nbrs2]
    of_sig: dict[tuple, list[int]] = {}
    for u in range(n):
        of_sig.setdefault(sig2[u], []).append(u)
    left = sorted(range(n), key=lambda v: (sig1[v], v))
    order, back, placed, done = [], [], [0] * n, [False] * n
    while left:
        v = max(left, key=placed.__getitem__)
        left.remove(v)
        back.append([w for w in nbrs1[v] if done[w]])
        order.append(v)
        done[v] = True
        for u in nbrs1[v]:
            placed[u] += 1
    if n == 0:
        yield ()
        return

    def candidates(k):
        """The images to try for order[k], ascending: the vertices of its
        signature, among the neighbours of the image of its first placed
        neighbour if it has one."""
        sig = sig1[order[k]]
        if not back[k]:
            return iter(of_sig[sig])
        return iter([u for u in nbrs2[pi[back[k][0]]] if sig2[u] == sig])

    # An explicit stack, not one Python frame per vertex: per depth k, the
    # candidates for order[k] not tried yet and the images its placed
    # neighbours need; ``used`` holds the images of the depths below k.
    pi = [0] * n
    used = 0
    stack = [(candidates(0), 0)]
    while stack:
        k = len(stack) - 1
        tries, want = stack[-1]
        for u in tries:
            if not used >> u & 1 and masks2[u] & used == want:
                break
        else:
            stack.pop()
            if k:
                used ^= 1 << pi[order[k - 1]]
            continue
        pi[order[k]] = u
        if k == n - 1:
            yield tuple(pi)
        else:
            used |= 1 << u
            stack.append((candidates(k + 1), sum(1 << pi[w] for w in back[k + 1])))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Whether g1 and g2 are isomorphic: ``isomorphisms`` yields one."""
    return next(isomorphisms(g1, g2), None) is not None


def graph_from_json(data) -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphFormatError('graph JSON needs keys "n" and "edges"')
    n = data["n"]
    if type(n) is not int or n < 0:
        raise GraphFormatError('"n" must be a non-negative integer')
    if not isinstance(data["edges"], list):
        raise GraphFormatError('"edges" must be a list')
    edges = []
    seen = set()
    for e in data["edges"]:
        if not (
            isinstance(e, (list, tuple)) and len(e) == 2 and all(type(x) is int for x in e)
        ):
            raise GraphFormatError(f"bad edge entry {e!r}")
        pair = _normalize_edge(e[0], e[1], n)
        if pair in seen:
            raise GraphFormatError(f"duplicate edge {list(pair)}")
        seen.add(pair)
        edges.append(pair)
    return Graph(n, frozenset(edges))


def graph_from_text(text: str) -> Graph:
    """Parse a graph from JSON or from the line format (first line n, then 'i j')."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            return graph_from_json(json.loads(stripped))
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    lines = [ln.strip() for ln in stripped.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty graph description")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise GraphFormatError(f"line 1: expected vertex count, got {lines[0]!r}") from exc
    edges = set()
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'i j', got {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: non-integer vertex in {ln!r}") from exc
        pair = _normalize_edge(i, j, n)
        if pair in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {list(pair)}")
        edges.add(pair)
    return Graph(n, frozenset(edges))
