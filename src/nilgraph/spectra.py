"""Reidemeister spectra: closed-form families with exact bounded membership,
decomposition-driven classification, rule-based detection of the
everything-is-infinite case, and a pruned exhaustive search over
automorphisms with bounded matrix entries.

Convention: 'positive integers' here means {1, 2, 3, ...}; every spectrum
implicitly contains infinity, so membership of the infinite element is
always true.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count, permutations, product, repeat
from math import factorial, gcd, isqrt
from operator import itemgetter, mul, neg

from .exactlin import ExtNat, IntMatrix, det_flat, echelon
from .graphs import (
    Graph,
    connected_components,
    induced_subgraph,
    is_complete_plus_point,
    is_connected,
    join_decompose,
)
from .morphism import endo_from_matrix, reidemeister_number
from .nilgroup import Presentation


class SearchBudgetExceeded(RuntimeError):
    """The pruned enumeration tree exceeded the configured node budget."""


class SpectrumConsistencyError(RuntimeError):
    """A search result contradicts a closed form or a structure theorem."""


# ---------------------------------------------------------------------------
# Closed-form spectrum families
# ---------------------------------------------------------------------------


def _is_square(w: int) -> bool:
    return w >= 0 and isqrt(w) ** 2 == w


def _icbrt(w: int) -> int:
    """Floor of the cube root of w >= 0, by integer Newton steps from above."""
    if w < 2:
        return w
    x = 1 << -(-w.bit_length() // 3)
    while True:
        y = (2 * x + w // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _is_positive_cube(w: int) -> bool:
    return w >= 1 and _icbrt(w) ** 3 == w


# Miller-Rabin with these bases decides primality for every v < 3.3 * 10^24
# (Sorenson and Webster 2015); above that it is a strong probable-prime test.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(v: int) -> bool:
    """Miller-Rabin for v with no prime factor below 1000."""
    d, s = v - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, v)
        if x in (1, v - 1):
            continue
        for _ in range(s - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def _split(v: int) -> int:
    """A proper divisor of the composite v, which has no prime factor below
    1000, by Pollard's rho."""
    for c in count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % v
            y = (y * y + c) % v
            y = (y * y + c) % v
            g = gcd(x - y, v)
        if g != v:
            return g


def _prime_factors(v: int) -> dict[int, int]:
    """{prime: exponent} of v >= 1: trial division below 1000, then
    Miller-Rabin and Pollard's rho on what is left."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= v and d < 1000:
        while v % d == 0:
            out[d] = out.get(d, 0) + 1
            v //= d
        d += 1
    stack = [v] if v > 1 else []
    while stack:
        w = stack.pop()
        # No prime below d divides w, so w < d^2 is prime.
        if w < d * d or _is_prime(w):
            out[w] = out.get(w, 0) + 1
        else:
            f = _split(w)
            stack += [f, w // f]
    return out


def _mobius(d: int) -> int:
    """The Moebius function of d >= 1."""
    exponents = _prime_factors(d).values()
    return 0 if max(exponents, default=1) > 1 else (-1) ** len(exponents)


def _divisors(v: int) -> list[int]:
    """The positive divisors of v >= 1, ascending."""
    divs = [1]
    for p, e in _prime_factors(v).items():
        divs += [d * p**k for k in range(1, e + 1) for d in divs]
    divs.sort()
    return divs


def _squares_family(w: int) -> bool:
    """w is a nonzero square or |k^2 - 4| for an integer k with k^2 != 4."""
    if w >= 1 and _is_square(w):
        return True
    return _is_square(w + 4) or w in (3, 4)


def _one_edge_values(v: int) -> bool:
    """v = |a b (a+b)^2| or |a b (a^2 - b^2 - 4b)| for nonzero integers a, b.

    For v >= 1 the last factor is nonzero, so a, b and a b all divide v:
    a runs over +-d for the divisors d of v and b over +-e for the divisors
    e of v / d.  Odd v never occurs: an odd product needs a and b odd, and
    then a + b and a^2 - b^2 - 4b are even.
    """
    if v % 2:
        return False
    divs = _divisors(v)
    for d in divs:
        w = v // d
        for e in divs:
            if e > w:
                break
            if w % e:
                continue
            for a in (d, -d):
                for b in (e, -e):
                    if abs(a * b * (a + b) ** 2) == v or abs(a * b * (a * a - b * b - 4 * b)) == v:
                        return True
    return False


def _pinched_cube_values(v: int) -> bool:
    """v = |(a-2)(a+2)^2| for an integer a.  For |a| >= 2 the value lies
    between (|a|-2)^3 and (|a|+2)^3, so |a| is within 2 of the cube root."""
    k = _icbrt(v)
    candidates = set(range(-2, 3)) | {s * (k + d) for s in (1, -1) for d in range(-2, 3)}
    return any(abs((a - 2) * (a + 2) ** 2) == v for a in candidates)


_ATOMS: dict[str, tuple] = {
    # kind: (membership on finite v >= 1, rendered description)
    "FullN0": (lambda v: True, "N0 ∪ {inf}"),
    "TwoN0": (lambda v: v % 2 == 0, "2N0 ∪ {inf}"),
    "FourN0": (lambda v: v % 4 == 0, "4N0 ∪ {inf}"),
    "OddUnion4N0": (lambda v: v % 2 == 1 or v % 4 == 0, "(2N0-1) ∪ 4N0 ∪ {inf}"),
    "TwoOddUnion8N0": (lambda v: v % 4 == 2 or v % 8 == 0, "2(2N0-1) ∪ 8N0 ∪ {inf}"),
    "Z1": (lambda v: v == 2, "{2, inf}"),
    "TwoSquares": (
        lambda v: v % 2 == 0 and _squares_family(v // 2),
        "2N0^2 ∪ 2|N^2-4| ∪ {inf}",
    ),
    "FourSquares": (
        lambda v: v % 4 == 0 and _squares_family(v // 4),
        "4N0^2 ∪ 4|N^2-4| ∪ {inf}",
    ),
    "OneEdgeFamily": (
        lambda v: v % 2 == 0 and _one_edge_values(v // 2),
        "{2|nm(n+m)^2|, 2|nm(n^2-m^2-4m)| : n,m in Z} ∪ {inf}",
    ),
    "TwoEdgeFamily": (
        lambda v: _is_positive_cube(v) or _one_edge_values(v) or _pinched_cube_values(v),
        "N0^3 ∪ {|nm(n+m)^2|, |nm(n^2-m^2-4m)|, |(n-2)(n+2)^2| : n,m in Z} ∪ {inf}",
    ),
    "RInfinityOnly": (lambda v: False, "{inf}"),
}


class SpectrumForm:
    """Symbolic spectrum: a set of positive integers together with infinity."""

    def contains(self, v: int) -> bool:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def simplify(self) -> "SpectrumForm":
        return self

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class AtomForm(SpectrumForm):
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in _ATOMS:
            raise ValueError(f"unknown spectrum family {self.kind!r}")

    def contains(self, v: int) -> bool:
        return v >= 1 and _ATOMS[self.kind][0](v)

    def render(self) -> str:
        return _ATOMS[self.kind][1]


FULL_N0 = AtomForm("FullN0")
TWO_N0 = AtomForm("TwoN0")
FOUR_N0 = AtomForm("FourN0")
ODD_UNION_4N0 = AtomForm("OddUnion4N0")
TWO_ODD_UNION_8N0 = AtomForm("TwoOddUnion8N0")
Z1 = AtomForm("Z1")
TWO_SQUARES = AtomForm("TwoSquares")
FOUR_SQUARES = AtomForm("FourSquares")
ONE_EDGE_FAMILY = AtomForm("OneEdgeFamily")
TWO_EDGE_FAMILY = AtomForm("TwoEdgeFamily")
R_INFINITY_ONLY = AtomForm("RInfinityOnly")


@dataclass(frozen=True)
class ProductForm(SpectrumForm):
    """Product set of spectra: {m * n : m in M, n in N}, infinity absorbing."""

    factors: tuple[SpectrumForm, ...]

    def contains(self, v: int) -> bool:
        return v >= 1 and _product_contains(self.factors, v)

    def render(self) -> str:
        return " · ".join(f"({f.render()})" for f in self.factors)

    def simplify(self) -> SpectrumForm:
        flat: list[SpectrumForm] = []
        for f in self.factors:
            s = f.simplify()
            if isinstance(s, ProductForm):
                flat.extend(s.factors)
            else:
                flat.append(s)
        if any(f == R_INFINITY_ONLY for f in flat):
            return R_INFINITY_ONLY
        changed = True
        while changed:
            changed = False
            for i in range(len(flat)):
                for j in range(len(flat)):
                    if i == j:
                        continue
                    merged = _product_rewrite(flat[i], flat[j])
                    if merged is not None:
                        lo, hi = min(i, j), max(i, j)
                        del flat[hi]
                        del flat[lo]
                        flat.insert(lo, merged)
                        changed = True
                        break
                if changed:
                    break
        if not flat:
            return FULL_N0  # unreachable for nonempty graphs
        if len(flat) == 1:
            return flat[0]
        return ProductForm(tuple(flat))


def _product_rewrite(a: SpectrumForm, b: SpectrumForm) -> SpectrumForm | None:
    """Exact rewrite of a 2-factor product, or None.  Only set identities
    that hold on the nose are used: {2}*2N0 = 4N0, {2}*((2N0-1) ∪ 4N0) =
    2(2N0-1) ∪ 8N0, {2}*squares-family doubles it, and N0*X collapses when
    1 ∈ X or X is 2N0/4N0."""
    if a == Z1 and b == TWO_N0:
        return FOUR_N0
    if a == Z1 and b == ODD_UNION_4N0:
        return TWO_ODD_UNION_8N0
    if a == Z1 and b == TWO_SQUARES:
        return FOUR_SQUARES
    if a == FULL_N0:
        if isinstance(b, AtomForm) and b.contains(1):
            return FULL_N0
        if b in (TWO_N0, FOUR_N0):
            return b
        if b == FULL_N0:
            return FULL_N0
    return None


@dataclass(frozen=True)
class PartialProductsForm(SpectrumForm):
    """Union over i = 1..k of the i-fold product sets of ``base`` with itself.

    This is the spectrum of a direct product of k copies of a group whose
    spectrum is ``base``, when the factors may additionally be permuted.
    """

    base: SpectrumForm
    k: int

    def contains(self, v: int) -> bool:
        if v < 1:
            return False
        return any(_product_contains((self.base,) * i, v) for i in range(1, self.k + 1))

    def render(self) -> str:
        return f"∪_(i=1..{self.k}) ({self.base.render()})^i"

    def simplify(self) -> SpectrumForm:
        base = self.base.simplify()
        if self.k == 1 or base in (TWO_N0, FULL_N0, R_INFINITY_ONLY):
            # products of evens stay even and contain 2N0; similarly for N0.
            return base
        return PartialProductsForm(base, self.k)


def _product_contains(forms: tuple[SpectrumForm, ...], v: int) -> bool:
    if not forms:
        return v == 1
    if len(forms) == 1:
        return forms[0].contains(v)
    head, rest = forms[0], forms[1:]
    return any(head.contains(d) and _product_contains(rest, v // d) for d in _divisors(v))


def spectrum_membership(form: SpectrumForm, v) -> bool:
    """Exact membership of ``v`` (an int or ExtNat); infinity always belongs."""
    if isinstance(v, ExtNat):
        if v.is_infinite:
            return True
        v = v.value
    return form.contains(v)


# ---------------------------------------------------------------------------
# Rule-based detection of the everything-is-infinite case
# ---------------------------------------------------------------------------


def _is_cycle(g: Graph) -> bool:
    return g.n >= 3 and all(d == 2 for d in g.degrees()) and is_connected(g)


def _is_path(g: Graph) -> bool:
    if g.n < 2 or len(g.edges) != g.n - 1 or not is_connected(g):
        return False
    degs = sorted(g.degrees())
    return degs[:2] == [1, 1] and all(d == 2 for d in degs[2:])


def detect_r_infinity(g: Graph) -> str | None:
    """First applicable rule forcing every automorphism to have infinitely
    many twisted classes, or None.

    Rules: a unique vertex of maximal degree n-2; a simplicial-join factor
    that is itself flagged; a cycle on >= 5 vertices; a path on >= 4.
    """
    degs = g.degrees()
    if g.n >= 2:
        md = max(degs)
        if md == g.n - 2 and degs.count(md) == 1:
            return "MaxDegreeOnce"
    jd = join_decompose(g)
    if jd.apex or len(jd.factors) > 1:
        for f in jd.factors:
            if detect_r_infinity(induced_subgraph(g, f)) is not None:
                return "JoinFactorRInf"
    if _is_cycle(g) and g.n >= 5:
        return "CycleAtLeast5"
    if _is_path(g) and g.n >= 4:
        return "PathAtLeast4"
    return None


# ---------------------------------------------------------------------------
# Decomposition-driven classification
# ---------------------------------------------------------------------------


def _base_spectrum(h: Graph) -> SpectrumForm | None:
    """Spectrum of a join-indecomposable graph, when a closed form is known."""
    n = h.n
    if n == 1:
        return Z1
    if h.is_edgeless:
        if n == 2:
            return TWO_N0
        if n == 3:
            return ODD_UNION_4N0
        return FULL_N0
    if is_complete_plus_point(h):
        return TWO_SQUARES if n == 3 else TWO_ODD_UNION_8N0
    if n == 4 and len(h.edges) == 1:
        return ONE_EDGE_FAMILY
    if n == 4 and len(h.edges) == 2 and all(d == 1 for d in h.degrees()):
        return TWO_EDGE_FAMILY
    if detect_r_infinity(h) is not None:
        return R_INFINITY_ONLY
    return None


def spectrum_by_decomposition(g: Graph) -> SpectrumForm | None:
    """Closed-form spectrum assembled recursively from the graph structure:
    peel the vertices adjacent to everything (they contribute the spectrum
    of a free abelian group), split the rest along the simplicial join, and
    combine the factor spectra by type (isomorphic factors contribute a
    union of partial products, distinct types multiply)."""
    if g.n == 0:
        return None
    if g.is_complete:
        return Z1 if g.n == 1 else FULL_N0
    jd = join_decompose(g)
    forms: list[SpectrumForm] = []
    r = len(jd.apex)
    if r == 1:
        forms.append(Z1)
    elif r >= 2:
        forms.append(FULL_N0)
    for type_indices in jd.types:
        rep = induced_subgraph(g, jd.factors[type_indices[0]])
        base = _base_spectrum(rep)
        if base is None:
            return None
        k = len(type_indices)
        forms.append(base if k == 1 else PartialProductsForm(base, k))
    if len(forms) == 1:
        return forms[0]
    return ProductForm(tuple(forms))


# ---------------------------------------------------------------------------
# Bounded automorphism enumeration
# ---------------------------------------------------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, limit: int | None):
        self.left = limit

    def spend(self, amount: int) -> None:
        if self.left is not None:
            self.left -= amount
            if self.left < 0:
                raise SearchBudgetExceeded("search node budget exhausted")


def _sign_patterns(n: int, others, placed):
    """Per sign pattern of the placed columns, in ``product`` order (a 1
    negates): the n columns with placed[i] at others[i], None elsewhere."""
    oriented = [(w, tuple(-x for x in w)) for w in placed]
    for signs in product((0, 1), repeat=len(placed)):
        cols: list = [None] * n
        for u, o, s in zip(others, oriented, signs):
            cols[u] = o[s]
        yield cols


def _charpoly_width(n: int, bound: int) -> int:
    """Digit width of the packed characteristic-polynomial key: with entries
    in [-bound, bound], |E_k| <= C(n, k) k! bound^k <= n! bound^n < 2^(width-1)."""
    return (factorial(n) * bound**n).bit_length() + 1


def _make_charpoly_keys(order, width: int):
    """Packed characteristic-polynomial keys for the leaves of a search with
    the given placement order: sum_k (E_k + 2^(width-1)) 2^(width (k-1)) over
    the principal-minor sums E_1..E_n, exact and injective.  A principal
    minor on T + {v} is linear in column v (Laplace along it), so for one
    sign pattern of the placed columns the key is one dot product with
    column v."""
    n = len(order)
    v, others = order[-1], order[:-1]
    offset = sum(1 << (width * k + width - 1) for k in range(n))
    # Per subset T of the placed vertices, per row r of T + {v}: the sign
    # and digit of the cofactor of entry (r, v) in det(M_{T + v}) and the
    # cells (column, row) of its minor.  The cofactor of (v, v) is det(M_T),
    # which also goes one digit lower.
    subsets = []
    for k in range(n):
        for t in combinations(sorted(others), k):
            tv = sorted(t + (v,))
            sign = (-1) ** tv.index(v) << (width * k)
            cofactors = [
                (r, (-1) ** j * sign, [(u, rr) for rr in tv if rr != r for u in t])
                for j, r in enumerate(tv)
            ]
            subsets.append((k, cofactors))

    def pattern_key(cols):
        """(base, coef) of one sign pattern: cols holds the placed columns
        with their signs (cols[v] is unread), and the key of the matrix
        whose column v is x is base + coef . x."""
        coef = [0] * n
        for k, cofactors in subsets:
            for r, sg, cells in cofactors:
                coef[r] += sg * det_flat([cols[u][rr] for u, rr in cells], k)
        return offset + (coef[v] >> width), coef

    return pattern_key


def _make_leaf_values(search: _Search):
    """Specialized evaluator for the leaves of ``search`` (see
    ``_Search.leaves``), called once per kept sign pattern as
    ``leaf_values(cols, solutions)``: cols holds the placed columns with
    the pattern's signs (cols[v] is unread), and values[j] is the finite
    Reidemeister number of the matrix whose column v is solutions[j], or
    None when it is infinite.  Within one pattern only the column of the
    solved vertex v varies.

    Edgeless graphs: both determinant layers depend only on the
    characteristic polynomial (the commutator action is the full second
    compound), so a matrix costs one packed key (``_make_charpoly_keys``)
    and one lookup in this evaluator's memo; a miss runs ``reidemeister_number``.

    Other graphs: det(1 - M1) is affine in column v, so it is one dot
    product with the cofactors of column v of 1 - M1.  Of 1 - M2 only the
    columns of the non-edges at v move; the others are filled once.
    """
    p, order, v = search.p, search.order, search.order[-1]
    n, N = p.n, p.N
    if p.graph.is_edgeless:
        pattern_key = _make_charpoly_keys(order, _charpoly_width(n, search.bound))
        memo: dict[int, int | None] = {}
        miss = object()

        def charpoly_values(cols, solutions):
            # The sorted solutions are closed under negation, so the j-th
            # from the end is minus the j-th, and its key is 2 base - key.
            base, coef = pattern_key(cols)
            keys = [base + sum(map(mul, x, coef)) for x in solutions[: len(solutions) // 2]]
            keys += [2 * base - key for key in reversed(keys)]
            values = list(map(memo.get, keys, repeat(miss)))
            if miss in values:
                for key, x in zip(keys, solutions):
                    if key not in memo:
                        m = _column_matrix(cols[:v] + [x] + cols[v + 1 :])
                        memo[key] = reidemeister_number(endo_from_matrix(p, m)).r.value
                values = [memo[key] for key in keys]
            return values

        return charpoly_values
    nonedges = p.nonedges
    others = order[:-1]
    # Cofactor r of column v: its sign and the cells of its minor, row-major.
    minors = [
        ((-1) ** (r + v), [(c, rr) for rr in range(n) if rr != r for c in range(n) if c != v])
        for r in range(n)
    ]
    eye = [1 if r == c else 0 for r in range(N) for c in range(N)]
    # Cells (row-major index of row (a, b), a, b) of one column of 1 - M2.
    rows_cells = [(m * N, a, b) for m, (a, b) in enumerate(nonedges)]
    fixed = [(l, c, d) for l, (c, d) in enumerate(nonedges) if v not in (c, d)]
    # Moving column l = (c, d) holds w[a] x[b] - w[b] x[a] in row (a, b),
    # where x is column v and w is column d (if c = v) or minus column c.
    moving = [
        (d if c == v else c, c == v, [(i + l, a, b) for i, a, b in rows_cells])
        for l, (c, d) in enumerate(nonedges)
        if v in (c, d)
    ]

    def leaf_values(cols, solutions):
        acols: list = [None] * n
        for u in others:
            acols[u] = col = [-x for x in cols[u]]
            col[u] += 1
        cof = [sg * det_flat([acols[c][r] for c, r in cells], n - 1) for sg, cells in minors]
        if not any(cof):
            # det(1 - M1) vanishes whatever column v is.
            return [None] * len(solutions)
        cof_v = cof[v]
        d1s = [cof_v - sum(map(mul, x, cof)) for x in solutions]
        if not N:
            return [abs(d1) or None for d1 in d1s]
        base = eye[:]
        for l, c, d in fixed:
            cc, cd = cols[c], cols[d]
            for i, a, b in rows_cells:
                base[i + l] += cd[a] * cc[b] - cd[b] * cc[a]
        movers = [
            (cols[u] if plus else tuple(-x for x in cols[u]), cells)
            for u, plus, cells in moving
        ]
        values = []
        for x, d1 in zip(solutions, d1s):
            if d1 == 0:
                values.append(None)
                continue
            m2 = base[:]
            for w, cells in movers:
                for i, a, b in cells:
                    m2[i] += w[a] * x[b] - w[b] * x[a]
            d2 = det_flat(m2, N)
            values.append(abs(d1 * d2) if d2 else None)
        return values

    return leaf_values


def _canonical(vectors) -> list[tuple[int, ...]]:
    """The nonzero primitive vectors among ``vectors`` whose first nonzero
    entry is positive, sorted."""
    out = [x for x in vectors if gcd(*x) == 1 and next(c for c in x if c) > 0]
    out.sort()
    return out


# Aut(graph) is searched among all n! vertex permutations only up to this
# many; above it the group of signs (pi = id) is used alone.
_PERMUTATION_CAP = 5040


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """The vertex permutations pi (vertex i goes to pi[i]) that map the
    edges onto the edges, or only the identity when n! exceeds the cap."""
    if factorial(g.n) > _PERMUTATION_CAP:
        return [tuple(range(g.n))]
    return [
        pi
        for pi in permutations(range(g.n))
        if all(g.has_edge(pi[a], pi[b]) for a, b in g.edges)
    ]


class _SignedGroup:
    """The signed automorphisms psi = P_pi D_s of a graph (pi in Aut(graph),
    see ``_automorphisms``; s a sign vector, up to a common sign) acting on
    the matrices X of a search by conjugation.  Entry (i, j) of X goes to
    (pi(i), pi(j)) with the sign s_i s_j, so column k of psi X psi^-1 is
    column w = pi^-1(k) of X with s_w s_i X[i][w] moved to row pi(i).  A
    matrix is compared with its images column by column in vertex order,
    as the report compares witnesses, and is a *leader* when no image is
    smaller.

    One comparison covers one pi and every sign vector at once.  It walks
    the entries in order and keeps the sign classes s_i = par[i] s_root[i]
    that the ties so far force.  An entry whose sign s_w s_i is still free
    takes -|e| or |e|: some image is smaller if -|e| is below X's entry, no
    image ties beyond it if -|e| is above, and a tie forces the sign.

    Column 0 decides most of the group: per source vertex u and column c,
    a table holds the smallest column-0 image of c over the pi with
    pi(u) = 0 and all signs (row 0 holds c[u], row pi(i) at best -|c[i]|)
    and the pi that reach it.  Only those pi are compared on further
    columns.  The tables are keyed by (u, c), not by group element, and
    live as long as this object.
    """

    def __init__(self, g: Graph):
        n = self.n = g.n
        # Inverse permutations q = pi^-1, grouped by the source q[0] of column 0.
        inverses = [tuple(sorted(range(n), key=pi.__getitem__)) for pi in _automorphisms(g)]
        self._to_zero = [[q for q in inverses if q[0] == u] for u in range(n)]
        self._tables: dict[tuple, tuple] = {}

    def _lowest(self, u: int, c: tuple[int, ...]) -> tuple:
        """(low, tied): the smallest column-0 image of column c of source u,
        and the q = pi^-1 with q[0] = u that reach it."""
        hit = self._tables.get((u, c))
        if hit is None:
            mags = [-abs(x) for x in c]
            mags[u] = c[u]
            images = [(tuple(mags[i] for i in q), q) for q in self._to_zero[u]]
            low = min(images)[0]
            hit = self._tables[(u, c)] = low, [q for image, q in images if image == low]
        return hit

    def leads(self, c: tuple[int, ...]) -> bool:
        """Column c in position 0 is at most each of its images under the
        psi with pi(0) = 0."""
        return self._lowest(0, c)[0] == c

    def _smaller(self, cols, q, root, par) -> bool:
        """Some image under q = pi^-1, with signs in the classes root, par,
        is smaller than the matrix with columns ``cols``, decided on columns
        1, 2, ... before one that is None enters the comparison."""
        n = self.n
        copied = False
        for k in range(1, n):
            w = q[k]
            src, dst = cols[w], cols[k]
            if src is None or dst is None:
                return False
            rw, pw = root[w], par[w]
            for r in range(n):
                i = q[r]
                e, x = src[i], dst[r]
                if not e:
                    y = 0
                elif root[i] == rw:
                    y = pw * par[i] * e
                else:
                    y = -abs(e)
                    if y == x:
                        # A tie forces s_w s_i = -sign(e): merge the class of
                        # i into that of w.
                        if not copied:
                            root, par, copied = root[:], par[:], True
                        ri, f = root[i], (pw if e < 0 else -pw) * par[i]
                        for j in range(n):
                            if root[j] == ri:
                                root[j] = rw
                                par[j] *= f
                        continue
                if y != x:
                    return y < x
        return False

    def patterns(self, order, placed) -> list[list]:
        """The sign patterns of a leaf's placed columns (in placement order
        ``order``, the solved vertex last) that no image makes smaller
        before the solved column enters the comparison, each as its n
        columns with None at the solved vertex."""
        n, others = self.n, order[:-1]
        if 0 not in others:
            # Column 0 is the solved column: no comparison is decided.
            return list(_sign_patterns(n, others, placed))
        out = []
        signed = [(u, c, tuple(map(neg, c))) for u, c in zip(others, placed)]
        for x0 in signed[others.index(0)][1:]:
            if not self.leads(x0):
                continue
            # Per placed column u, the signs whose column-0 images are not
            # below x0.  A tie leaves the pi that reach it to further
            # columns, with the sign classes it forces: s_i = -sign(c[i]) s_u.
            choices = []
            for u, *pair in signed:
                options = []
                for col in pair:
                    if not self._to_zero[u]:
                        options.append((col, None))
                        continue
                    low, tied = self._lowest(u, col)
                    if low < x0 or u == 0 and col != x0:
                        continue
                    tie = None
                    if low == x0:
                        root = [u if x else i for i, x in enumerate(col)]
                        par = [-1 if x > 0 else 1 for x in col]
                        root[u], par[u] = u, 1
                        tie = tied, root, par
                    options.append((col, tie))
                if not options:
                    break
                choices.append(options)
            if len(choices) < len(signed):
                continue
            for combo in product(*choices):
                cols: list = [None] * n
                ties = []
                for u, (col, tie) in zip(others, combo):
                    cols[u] = col
                    if tie is not None:
                        ties.append(tie)
                if not any(
                    self._smaller(cols, q, root, par) for tied, root, par in ties for q in tied
                ):
                    out.append(cols)
        return out


def _leader_columns(g: Graph, bound: int) -> set[tuple[int, ...]]:
    """The leader columns of vertex 0 in the box (``_SignedGroup.leads``):
    at most each of their images under the signed automorphisms with
    pi(0) = 0, hence c[i] <= 0 for every i >= 1 (the signs alone) and
    c <= c o pi for every pi in Stab_Aut(0).  These are the columns the
    search keeps, up to sign, for vertex 0."""
    group = _SignedGroup(g)
    columns = product(range(-bound, bound + 1), *[range(-bound, 1)] * (g.n - 1))
    return {c for c in columns if group.leads(c)}


def _box_solutions(system, rows, n: int, bound: int) -> list[tuple[int, ...]]:
    """Every length-n column x supported on ``rows`` with entries in
    [-bound, bound] that solves ``system``, whose rows (overwritten) hold
    coefficients on ``rows`` followed by the right-hand side.  The system is
    brought to echelon form; only its free coordinates are enumerated, and
    each pivot coordinate follows by exact division, bottom row first."""
    k = len(rows)
    pivots = echelon(system, k + 1)
    if pivots and pivots[-1] == k:
        return []  # the rows combine to 0 = nonzero
    # A candidate is the tuple of its free coordinates, a 0 that the rows
    # off ``rows`` read, then the pivot coordinates as solved.  Column k of
    # the system (the right-hand side) lines up with that 0.
    order = [j for j in range(k + 1) if j not in pivots]
    nfree = len(order) - 1
    steps = []
    for i in reversed(range(len(pivots))):
        row = system[i]
        steps.append((row[pivots[i]], row[k], [row[j] for j in order]))
        order.append(pivots[i])
    take = [nfree] * n
    for i, j in enumerate(order):
        if j < k:
            take[rows[j]] = i
    # itemgetter of one index returns the item, not a 1-tuple.
    pick = itemgetter(*take) if n > 1 else lambda vals: (vals[take[0]],)
    span = range(-bound, bound + 1)
    out = []
    for vals in product(*[span] * nfree, (0,)):
        for d, rhs, coeffs in steps:
            q, rem = divmod(rhs - sum(map(mul, coeffs, vals)), d)
            if rem or not -bound <= q <= bound:
                break
            vals += (q,)
        else:
            out.append(pick(vals))
    return out


class _Search:
    """Column-by-column enumeration of relation-preserving unimodular
    matrices with bounded entries.

    Columns are placed in a static order (most constrained first).  The
    edge relations tie a new column x to each placed neighbour column u by
    u[a] x[b] = u[b] x[a] for every non-edge (a, b), which is linear in x;
    so the candidates for a column are the solutions of that integer system
    in the box (see ``_box_solutions``).  The walk meets few distinct
    systems many times, so each (allowed rows, system) pair is solved once
    per search and its pool reused (``_pool``); the pool of the box is the
    entry of the empty system.  The last column adds the determinant row
    g.x = +-1 (``_solve_last``).  Column signs are canonicalized during the walk
    and expanded at the leaves, which is lossless because every constraint
    in play is invariant under negating a column.  Partial column sets are
    pruned by the gcd of their maximal minors (a prefix of a unimodular
    matrix has coprime maximal minors), each a Laplace expansion along the
    new column over terms built once.  The node budget is charged the size
    of the unconstrained pool per placed column on k rows, before any pool
    is built, and 2 (2B+1)^(k-1) per last column on k rows, whatever the
    solve enumerates and whether it was solved before.
    ``_make_leaf_values`` evaluates leaves.

    Symmetry: let psi = P_pi D_s be a signed permutation with pi in
    Aut(graph).  Conjugation X -> psi X psi^-1 maps the search set onto
    itself (it keeps the box, the determinant, relation preservation, the
    degree filtration and the components) and keeps both factors of R,
    since psi preserves the edge lattice.  So the lexicographically smallest
    matrix with a given value (columns compared in vertex order) is the
    smallest of its orbit, a *leader* (``_SignedGroup``).  ``leaves`` with
    the group drops what cannot hold a leader: the columns of vertex 0 that
    lead in neither sign, during the walk, and at each leaf, before the last
    column is solved, every sign pattern that some image already makes
    smaller on the placed columns.  ``run`` streams every matrix.
    """

    def __init__(self, p: Presentation, bound: int, struct_prunes: bool, budget: _Budget):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        g = p.graph
        self.p = p
        self.n = g.n
        self.bound = bound
        self.nonedges = p.nonedges
        self.budget = budget
        self.degs = degs = g.degrees()
        n = self.n

        self.filtration_rows = [
            tuple(r for r in range(n) if degs[r] >= degs[v]) if struct_prunes else tuple(range(n))
            for v in range(n)
        ]

        # The report checks the components even where the search ignores them.
        dec = connected_components(g)
        self.comp_of: list[int | None] = [None] * n
        for ci, comp in enumerate(dec.components):
            for v in comp:
                self.comp_of[v] = ci
        self.comp_rows = [tuple(c) for c in dec.components]
        # Per component: the components isomorphic to it, ascending.
        self.iso_targets = {ci: cls for cls in dec.types for ci in cls}
        self.use_components = struct_prunes and len(self.comp_rows) > 1

        # Per (allowed rows, relation system): the canonical candidates; per
        # allowed rows: the unconstrained candidates packed for g.x (see
        # ``_unit_solutions``).
        self._pools: dict[tuple, list[tuple[int, ...]]] = {}
        self._packed: dict[tuple[int, ...], tuple] = {}
        # Per number of rows k: the size of the unconstrained pool on k rows,
        # the nonzero primitive vectors of the box up to sign (Moebius
        # inversion over the gcd d of the entries), charged before any pool
        # is built.
        self._pool_sizes = [
            sum(_mobius(d) * ((2 * (bound // d) + 1) ** k - 1) for d in range(1, bound + 1)) // 2
            for k in range(n + 1)
        ]
        # Laplace expansion along the new column of each minor of k placed
        # columns: per row mask, the terms (row r, mask without r, sign).
        self._laplace: list[list] = [[] for _ in range(n)]
        for k in range(n):
            for rows in combinations(range(n), k):
                mask = sum(1 << r for r in rows)
                terms = [(r, mask ^ 1 << r, (-1) ** (i + k - 1)) for i, r in enumerate(rows)]
                self._laplace[k].append((mask, terms))

        # Static placement order: fewest allowed rows first, so the relation
        # constraints bite early (the unconstrained pool grows with the
        # number of rows alone); the last placed column is solved.
        self.order = sorted(range(n), key=lambda v: (len(self.filtration_rows[v]), v))
        # For each depth, the depths of the neighbours placed before it.
        self.neighbor_depths = [
            [k for k in range(depth) if g.has_edge(self.order[k], v)]
            for depth, v in enumerate(self.order)
        ]

    def _pool(self, rows: tuple[int, ...], system: frozenset = frozenset()) -> list[tuple]:
        """Canonical candidate columns on ``rows`` under the relation
        ``system`` (see ``_relation_system``; none by default), solved once
        per search and reused whenever the same system comes back."""
        key = rows, system
        pool = self._pools.get(key)
        if pool is None:
            solved = _box_solutions([list(row) for row in system], rows, self.n, self.bound)
            pool = self._pools[key] = _canonical(solved)
        return pool

    def _unit_solutions(self, rows: tuple[int, ...], g: list[int]) -> list[tuple[int, ...]]:
        """The sorted columns x on ``rows`` of the box with g.x = +-1, with
        no relation constraint: the unconstrained pool filtered by one packed
        dot product.  Candidate j fills slot j of each packed coordinate, a
        byte-aligned slot wide enough for |g.x| <= n! bound^n; shifted by half
        a slot, g.x = +-1 are two byte strings found at slot offsets.  A
        solution is primitive, so it or its negation is in the pool, and
        every negated candidate sorts below every candidate."""
        packed = self._packed.get(rows)
        if packed is None:
            pool = self._pool(rows)
            size = (_charpoly_width(self.n, self.bound) + 7) // 8
            half = 1 << (8 * size - 1)
            offset = int.from_bytes(half.to_bytes(size, "little") * len(pool), "little")
            coords = []
            for r in rows:
                digits = b"".join([(x[r] + half).to_bytes(size, "little") for x in pool])
                coords.append(int.from_bytes(digits, "little") - offset)
            targets = [(half + d).to_bytes(size, "little") for d in (-1, 1)]
            packed = self._packed[rows] = pool, size, offset, coords, targets
        pool, size, offset, coords, targets = packed
        data = sum(map(mul, g, coords), offset).to_bytes(size * len(pool), "little")
        hits = []
        for target in targets:
            i = data.find(target)
            while i >= 0:
                if i % size:
                    i = data.find(target, i + 1)
                else:
                    hits.append(i // size)
                    i = data.find(target, i + size)
        hits.sort()
        return [tuple(map(neg, pool[j])) for j in reversed(hits)] + [pool[j] for j in hits]

    def _column_options(self, v: int, target, used_targets):
        """Yield (component_choice, rows_allowed) branches for column v."""
        base_rows = self.filtration_rows[v]
        ci = self.comp_of[v] if self.use_components else None
        if ci is None:
            yield None, base_rows
            return
        assigned = target[ci]
        if assigned is not None:
            rows = tuple(r for r in base_rows if r in self.comp_rows[assigned])
            yield None, rows
            return
        for cj in self.iso_targets[ci]:
            if cj in used_targets:
                continue
            rows = tuple(r for r in base_rows if r in self.comp_rows[cj])
            yield (ci, cj), rows

    def run(self):
        """Yield every completed column tuple: leaf by leaf, each solution
        for column v with each sign pattern of the placed columns."""
        if self.n == 0:
            yield ()
            return
        for v, placed, solutions, patterns in self.leaves():
            for cvec in solutions:
                for cols in patterns:
                    cols[v] = cvec
                    yield tuple(cols)

    def leaves(self, group: _SignedGroup | None = None):
        """Yield one (v, placed, solutions, patterns) per search leaf: v is
        the solved vertex, placed the other columns in placement order with
        canonical signs, solutions the sorted choices for column v, closed
        under negation, and patterns the sign patterns of the placed
        columns, each as n columns with None at v (see ``_sign_patterns``).
        The leaf's matrices are every solution combined with every pattern.

        Without ``group`` patterns holds every sign pattern.  With it, the
        leaves hold every leader of the stream (see ``_SignedGroup``).  A
        placed column of vertex 0 is kept only if it or its negation leads
        (``_SignedGroup.leads``).  Before the last column is solved, the
        leaf's sign patterns are compared with their images as far as the
        placed columns decide (``_SignedGroup.patterns``), and patterns
        holds those left; a leaf with no pattern left is not solved, and
        its budget is not charged."""
        n = self.n
        if n == 0:
            return
        placed: list[tuple[int, ...]] = []
        # minors[k][mask] = det of the placed columns on the rows in mask.
        minor_stack: list[list[int]] = [[0] * (1 << n)]
        minor_stack[0][0] = 1
        target: list[int | None] = [None] * len(self.comp_rows)
        used: set[int] = set()
        yield from self._place(0, placed, minor_stack, target, used, group)

    def _extend_minors(self, minors_prev: list[int], col: tuple[int, ...], k: int):
        """Minors of k placed columns from those of k-1, plus their gcd."""
        table = [0] * (1 << self.n)
        g = 0
        for mask, terms in self._laplace[k]:
            acc = 0
            for r, rest, sign in terms:
                c = col[r]
                if c:
                    acc += sign * c * minors_prev[rest]
            table[mask] = acc
            g = gcd(g, acc)
        return table, g

    def _place(self, depth: int, placed, minor_stack, target, used, group):
        n = self.n
        v = self.order[depth]
        last = depth == n - 1
        for choice, rows in self._column_options(v, target, used):
            if choice is not None:
                target[choice[0]] = choice[1]
                used.add(choice[1])
            if last:
                leaf = self._solve_last(v, rows, placed, minor_stack[-1], group)
                if leaf is not None:
                    yield leaf
            else:
                self.budget.spend(self._pool_sizes[len(rows)])
                pool = self._pool(rows, self._relation_system(depth, rows, placed))
                if v == 0 and group is not None:
                    pool = [
                        vec
                        for vec in pool
                        if group.leads(vec) or group.leads(tuple(map(neg, vec)))
                    ]
                for vec in pool:
                    table, g = self._extend_minors(minor_stack[-1], vec, depth + 1)
                    if g != 1:
                        continue
                    placed.append(vec)
                    minor_stack.append(table)
                    yield from self._place(depth + 1, placed, minor_stack, target, used, group)
                    minor_stack.pop()
                    placed.pop()
            if choice is not None:
                target[choice[0]] = None
                used.discard(choice[1])

    def _solve_last(self, v: int, rows, placed, minors_top, group=None) -> tuple | None:
        """Solve sum_r g_r c_r = +-1 for the final column over the allowed box,
        together with its relation constraints; returns the leaf (see
        ``leaves``), or None without solutions or sign patterns.  Without
        relation rows the pool of the box is filtered by one packed dot
        product (``_unit_solutions``).  With them the system and the g row
        are solved afresh: g changes from leaf to leaf, so such a system
        rarely repeats and is not kept."""
        n = self.n
        full = (1 << n) - 1
        g = [minors_top[full ^ (1 << r)] * (-1) ** (r + n - 1) for r in rows]
        if not any(g):
            return None
        if group is not None:
            patterns = group.patterns(self.order, placed)
            if not patterns:
                return None
        self.budget.spend(2 * (2 * self.bound + 1) ** (len(rows) - 1))
        system = self._relation_system(n - 1, rows, placed)
        if system:
            system = [list(row) for row in system]
            system.append(g + [1])
            # The solutions for -1 are the negated solutions for +1.
            solutions = _box_solutions(system, rows, n, self.bound)
            solutions += [tuple(map(neg, c)) for c in solutions]
            solutions.sort()
        else:
            solutions = self._unit_solutions(rows, g)
        if not solutions:
            return None
        if group is None:
            patterns = list(_sign_patterns(n, self.order, placed))
        return v, tuple(placed), solutions, patterns

    def _relation_system(self, depth: int, rows, placed) -> frozenset:
        """The edge-relation constraints on the column placed at ``depth``:
        u[a] x[b] - u[b] x[a] = 0 for each placed neighbour column u and
        each non-edge (a, b), as the set of distinct nonzero rows (tuples)
        of coefficients on ``rows`` followed by the right-hand side 0."""
        depths = self.neighbor_depths[depth]
        if not depths:
            return frozenset()
        slot = {r: j for j, r in enumerate(rows)}
        pairs = [(slot.get(a), slot.get(b), a, b) for a, b in self.nonedges]
        distinct = set()
        for k in depths:
            u = placed[k]
            for ja, jb, a, b in pairs:
                row = [0] * (len(rows) + 1)
                if jb is not None:
                    row[jb] = u[a]
                if ja is not None:
                    row[ja] = -u[b]
                if any(row):
                    distinct.add(tuple(row))
        return frozenset(distinct)


def _automorphism_columns(
    p: Presentation, bound: int, struct_prunes: bool = True, node_budget: int | None = None
):
    """Stream of column tuples (original vertex order) of every
    relation-preserving matrix with entries in [-bound, bound] and
    determinant +1 or -1."""
    return _Search(p, bound, struct_prunes, _Budget(node_budget)).run()


def _column_matrix(cols) -> IntMatrix:
    """The square matrix whose columns are ``cols``."""
    n = len(cols)
    return IntMatrix(n, n, tuple(c[i] for i in range(n) for c in cols))


def enumerate_automorphisms(
    p: Presentation, bound: int, *, struct_prunes: bool = True, node_budget: int | None = None
):
    """Yield every automorphism whose vertex matrix has entries in
    [-bound, bound], as endomorphisms with zero commutator parts in the
    generator images.  Deterministic order."""
    for cols in _automorphism_columns(p, bound, struct_prunes, node_budget):
        yield endo_from_matrix(p, _column_matrix(cols))


# ---------------------------------------------------------------------------
# Spectrum reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    kind: str  # "closed_form" | "r_infinity_rule" | "search_only"
    form: SpectrumForm | None = None
    rule: str | None = None

    def to_json(self) -> dict:
        if self.kind == "closed_form":
            return {"kind": self.kind, "form": self.form.render()}
        if self.kind == "r_infinity_rule":
            return {"kind": self.kind, "rule": self.rule}
        return {"kind": self.kind}


@dataclass(frozen=True)
class SpectrumReport:
    graph: Graph
    classification: Classification
    observed: tuple[int, ...]
    bound: int
    witnesses: dict  # finite value -> vertex matrix rows (tuple of tuples)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "classification": self.classification.to_json(),
            "observed": list(self.observed),
            "bound": self.bound,
            "witnesses": {str(v): [list(r) for r in m] for v, m in sorted(self.witnesses.items())},
        }


def default_bound(g: Graph) -> int:
    """Search bound heuristic: 3 for up to 3 vertices; 2 for 4-vertex graphs
    whose relation pruning keeps the tree small (some edge, some non-edge,
    and neither isolated vertices nor a vertex joined to everything, since
    those carry unconstrained blocks that blow up the enumeration); 1
    otherwise."""
    if g.n <= 3:
        return 3
    if g.n == 4:
        degs = g.degrees()
        if 0 < len(g.edges) and min(degs) >= 1 and max(degs) <= g.n - 2:
            return 2
    return 1


def _check_block_structure(p: Presentation, cols, degs, comp_of, n_comps) -> None:
    """Check that the columns respect the degree filtration and, with
    several components, that each component maps into one component,
    injectively.  Only the supports of the columns are read."""
    n = p.n
    for c in range(n):
        dc = degs[c]
        col = cols[c]
        for r in range(n):
            if col[r] != 0 and degs[r] < dc:
                raise SpectrumConsistencyError(
                    f"degree filtration violated at entry ({r}, {c})"
                )
    if n_comps > 1:
        seen: dict[int, int] = {}
        for c in range(n):
            ci = comp_of[c]
            if ci is None:
                continue
            tgt = {comp_of[r] for r in range(n) if cols[c][r] != 0}
            if len(tgt) != 1 or None in tgt:
                raise SpectrumConsistencyError(
                    f"column {c} is not supported in a single component"
                )
            ti = tgt.pop()
            if seen.setdefault(ci, ti) != ti:
                raise SpectrumConsistencyError(
                    f"component {ci} maps to two different components"
                )
        if len(set(seen.values())) != len(seen):
            raise SpectrumConsistencyError("component assignment is not injective")


def _observe(p: Presentation, bound: int, struct_prunes: bool, node_budget: int | None) -> dict:
    """Walk the bounded search of ``compute_spectrum_report`` and evaluate
    its leaves: each finite value observed, with the lexicographically
    smallest column tuple that realizes it.  The block structure is checked
    once per leaf (``_check_block_structure``), and the evaluator is built
    at the first leaf, so a search that runs out of budget before it does
    not build one.  The search and its solved column systems live only in
    this call, so an error the report raises afterwards does not keep them
    alive."""
    n = p.n
    search = _Search(p, bound, struct_prunes, _Budget(node_budget))
    if n == 0:
        # The trivial group: its one automorphism has one twisted class.
        return {1: ()}
    degs, comp_of, n_comps = search.degs, search.comp_of, len(search.comp_rows)
    check_structure = n_comps > 1 or len(set(degs)) > 1
    # Witness ties are broken by the lexicographically smallest column tuple.
    observed: dict[int, tuple] = {}
    leaf_values = None
    for v, _, solutions, patterns in search.leaves(_SignedGroup(p.graph)):
        if leaf_values is None:
            leaf_values = _make_leaf_values(search)
        if check_structure:
            # Signs never change a support and no solution is zero, so the
            # union of the solutions' supports as column v passes exactly
            # when every matrix of the leaf does.
            cols = patterns[0]
            cols[v] = [any(x[r] for x in solutions) for r in range(n)]
            _check_block_structure(p, cols, degs, comp_of, n_comps)
        for cols in patterns:
            values = leaf_values(cols, solutions)
            # Within one sign pattern the smallest solution gives the
            # smallest column tuple; the reversed pairs keep it.
            firsts = dict(zip(reversed(values), reversed(solutions)))
            firsts.pop(None, None)
            for value, cvec in firsts.items():
                cols[v] = cvec
                key = tuple(cols)
                best = observed.get(value)
                if best is None or key < best:
                    observed[value] = key
    return observed


def compute_spectrum_report(
    g: Graph,
    bound: int | None = None,
    *,
    struct_prunes: bool = True,
    node_budget: int | None = None,
) -> SpectrumReport:
    """Classify the graph's spectrum and search for realized finite values.

    Every observed value carries the lexicographically smallest witness
    matrix, re-verified against the closed form when one is known; a
    violation raises :class:`SpectrumConsistencyError`.

    Conjugating by a signed automorphism P_pi D_s (pi in Aut(graph)) keeps
    R, and the smallest matrix with a given value is the smallest of its
    orbit.  So a leaf's sign pattern is evaluated only if no such image is
    smaller on the columns that do not involve the solved vertex, compared
    in vertex order against the whole group (``_SignedGroup``), and a leaf
    with no such pattern is not solved.  That leaves the observed values
    and the witnesses unchanged.  Each kept pattern is evaluated on its
    own, against all of the leaf's solutions (``_make_leaf_values``).  The
    comparisons that reach the solved column are not carried on per
    solution, and when vertex 0 is the solved vertex nothing is pruned.
    Aut(graph) is searched only while n! <= 5040; above that only the
    signs are used.
    """
    if bound is None:
        bound = default_bound(g)
    p = Presentation.of(g)
    n = p.n
    observed = _observe(p, bound, struct_prunes, node_budget)
    rule = detect_r_infinity(g)
    if rule is not None:
        classification = Classification("r_infinity_rule", rule=rule)
    else:
        form = spectrum_by_decomposition(g)
        if form is not None:
            classification = Classification("closed_form", form=form.simplify())
        else:
            classification = Classification("search_only")

    if classification.kind == "closed_form":
        for value in sorted(observed):
            if not classification.form.contains(value):
                raise SpectrumConsistencyError(
                    f"search realized {value}, outside {classification.form.render()}"
                )
    if classification.kind == "r_infinity_rule" and observed:
        raise SpectrumConsistencyError(
            f"rule {classification.rule} fired but finite values {sorted(observed)} were realized"
        )
    witnesses = {
        v: tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        for v, cols in observed.items()
    }
    return SpectrumReport(
        graph=g,
        classification=classification,
        observed=tuple(sorted(witnesses)),
        bound=bound,
        witnesses=witnesses,
    )
