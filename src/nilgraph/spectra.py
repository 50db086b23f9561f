"""Reidemeister spectra: closed-form families with exact bounded membership,
decomposition-driven classification, rule-based detection of the
everything-is-infinite case, and a pruned exhaustive search over
automorphisms with bounded matrix entries.

Convention: 'positive integers' here means {1, 2, 3, ...}; every spectrum
implicitly contains infinity, so membership of the infinite element is
always true.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, count, islice, product
from math import comb, factorial, gcd, isqrt, prod
from operator import itemgetter, mul, neg

from .exactlin import ExtNat, IntMatrix, det_flat, echelon
from .graphs import (
    Graph,
    connected_components,
    induced_subgraph,
    is_complete_plus_point,
    is_connected,
    isomorphisms,
    join_decompose,
)
from .morphism import endo_from_matrix
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


def _sign_patterns(n: int, others, placed):
    """Per sign pattern of the placed columns, in ``product`` order (a 1
    negates): the n columns with placed[i] at others[i], None elsewhere."""
    oriented = [(w, tuple(-x for x in w)) for w in placed]
    for signs in product((0, 1), repeat=len(placed)):
        cols: list = [None] * n
        for u, o, s in zip(others, oriented, signs):
            cols[u] = o[s]
        yield cols


def _state_patterns(state, n: int, order, placed) -> list[list]:
    """The sign patterns of the placed columns (in placement order
    ``order``) that a group state keeps: the signed columns of its branches
    (``_SignedGroup.extend``) when it is a list, otherwise all of
    ``_sign_patterns``, since before column 0 is placed no comparison is
    decided, and state None means no group."""
    if isinstance(state, list):
        return [cols[:] for _, cols, _ in state]
    return list(_sign_patterns(n, order, placed))


def _det_width(n: int, bound: int) -> int:
    """Digit width that holds any n x n determinant with entries in
    [-bound, bound]: |det| <= n! bound^n < 2^(width-1)."""
    return (factorial(n) * bound**n).bit_length() + 1


def _make_cofactors(order):
    """Cofactors of the solved column of a search with the given placement
    order, called as ``cofactors(cols)``: cols holds the placed columns of a
    matrix M (cols[v] is unread, v = order[-1]), and the result holds the
    signed cofactors cof of column v of 1 - M, so that the matrix whose
    column v is x has det(1 - M) = cof[v] - cof . x."""
    n, v = len(order), order[-1]
    # Per row r: the sign of cofactor (r, v) and the cells (column, row,
    # on the diagonal) of its minor, row-major.
    minors = [
        ((-1) ** (r + v), [(c, rr, c == rr) for rr in range(n) if rr != r for c in range(n) if c != v])
        for r in range(n)
    ]

    def cofactors(cols):
        return [sign * det_flat([d - cols[c][rr] for c, rr, d in cells], n - 1) for sign, cells in minors]

    return cofactors


def _charpoly_width(n: int, bound: int) -> int:
    """Digit width that holds e_1..e_n (``_charpoly_kernel``) of any n x n
    matrix with entries in [-bound, bound], offset by half a digit:
    |e_k| <= C(n, k) k! bound^k < 2^(width - 2)."""
    return max(comb(n, k) * factorial(k) * bound**k for k in range(n + 1)).bit_length() + 2


def _degree_classes(g: Graph) -> list[tuple[tuple[int, ...], bool]]:
    """The degree classes of g in degree order, as (rows, whole): whole when
    every two of its vertices are adjacent or none are, and so, for each
    other class, are every vertex of it and every vertex of the other."""
    degs = g.degrees()
    classes = [tuple(r for r in range(g.n) if degs[r] == d) for d in sorted(set(degs))]
    return [(c, all(len({g.has_edge(a, b) for a in c for b in o if a != b}) < 2 for o in classes)) for c in classes]


def _kernel_emitter(n: int, v: int):
    """(lines, minor) of a kernel generated for the placed columns of an
    n x n matrix whose solved column is v: lines starts with the code that
    unpacks cols[c] into the local variables m<r>_<c>, for each c != v, and
    minor(rows, cols) is the name of the minor on ``rows`` and ``cols`` of
    the matrix those variables hold (an entry for one row, 1 for none).
    Each minor is expanded along the last column of its column set; its
    line, after those of its sub-minors, is appended to lines at the first
    call, so each sub-minor is computed once."""
    lines = [f"    {''.join(f'm{r}_{c}, ' for r in range(n))}= cols[{c}]\n" for c in range(n) if c != v]
    names: dict[tuple, str] = {}

    def minor(rows, cols) -> str:
        if len(rows) < 2:
            return f"m{rows[0]}_{cols[0]}" if rows else "1"
        name = names.get((rows, cols))
        if name is None:
            c, m = cols[-1], len(rows)
            terms = [
                ((i + m) % 2 == 1, f"m{r}_{c} * {minor(rows[:i] + rows[i + 1 :], cols[:-1])}")
                for i, r in enumerate(rows)
            ]
            name = names[rows, cols] = "d" + "_".join(map(str, rows + cols))
            lines.append(f"    {name} = {_signed_sum(terms)}\n")
        return name

    return lines, minor


def _compiled(source: str):
    """The function ``kernel`` that ``source`` defines, compiled by
    ``exec``, with the source kept as ``kernel.source``."""
    namespace: dict = {}
    exec(source, namespace)
    kernel = namespace["kernel"]
    kernel.source = source
    return kernel


def _cofactor_terms(n: int) -> int:
    """The Laplace terms ``_cofactor_kernel`` emits for an n x n matrix:
    k for each k x k minor, 2 <= k < n, on the first k placed columns and
    any k rows."""
    return sum(comb(n, k) * k for k in range(2, n))


def _cofactor_kernel(n: int, v: int):
    """The leaf evaluator of a search without non-edges (the group is Z^n,
    and R = |det(1 - M)|) whose solved vertex is v, called as
    ``kernel(cols, solutions)`` on the placed columns of a matrix M (cols[v]
    is unread): per solution x, |det(1 - M)| of the matrix whose column v
    is x, or None where it is 0.

    The kernel holds the entries of M - 1, as det(1 - M) = +-det(M - 1),
    and expands det(M - 1) along column v: with D_r the minor of M - 1 off
    row r and column v, it is sum_r (-1)^(r+v) D_r x[r] - D_v, so the value
    is |D_v - sum_r (-1)^(r+v) D_r x[r]|.  When every D_r is 0, so is every
    value.  The minors are straight-line code with the sub-minors shared
    (``_kernel_emitter``), ``_cofactor_terms(n)`` terms in all; the source,
    kept as ``kernel.source``, holds only integer literals and names built
    from vertex numbers, besides the names of the code."""
    lines, minor = _kernel_emitter(n, v)
    lines += [f"    m{c}_{c} -= 1\n" for c in range(n) if c != v]
    placed = tuple(c for c in range(n) if c != v)
    minors = [minor(tuple(r for r in range(n) if r != skip), placed) for skip in range(n)]
    value = _signed_sum([(True, minors[v])] + [((r + v) % 2 == 1, f"{d} * x{r}") for r, d in enumerate(minors)])
    return _compiled(
        f"def kernel(cols, solutions):\n{''.join(lines)}"
        f"    if not ({' or '.join(minors)}):\n"
        f"        return [None] * len(solutions)\n"
        f"    return [abs({value}) or None for {''.join(f'x{r}, ' for r in range(n))}in solutions]\n"
    )


def _charpoly_kernel(classes, v: int, width: int):
    """The key kernel of a search whose solved vertex is v, for the degree
    classes (rows, whole) of ``_degree_classes``, called as ``kernel(cols)``
    on the placed columns of a matrix M (cols[v] is unread).  It returns
    (base, coef) such that the matrix whose column v is x has the key
    base + coef . x, coef over the rows of v's class.  Each ``width``-bit
    digit holds a value plus 2^(width - 1): class by class, e_1..e_m of the
    diagonal block A (M on the class) of a whole class of m rows, e_k the
    sum of the principal k x k minors, so det(t - A) = sum_k (-1)^k e_k
    t^(m-k); and the entries of A, column by column, of any other class.

    Each digit is affine in x.  A principal minor on rows S without v is a
    constant, and one with v is, expanded along column v, the sum over r
    in S of +-x[r] times the minor of M on rows S - r and columns S - v.
    Every such minor of placed columns is emitted as straight-line code
    over local variables, sub-minors shared (``_kernel_emitter``), and
    compiled by ``exec``; its source, kept as ``kernel.source``, holds only
    integer literals and names built from vertex numbers."""
    n = sum(len(rows) for rows, _ in classes)
    lines, minor = _kernel_emitter(n, v)

    # Per digit: the (positive, expression) terms of each x[r] and of r = None.
    digits: list[dict] = []
    for rows, whole in classes:
        if not whole:
            digits += [{r: [(True, "1")]} if c == v else {None: [(True, f"m{r}_{c}")]} for c in rows for r in rows]
            continue
        for k in range(1, len(rows) + 1):
            terms: dict = {}
            for s in combinations(rows, k):
                if v not in s:
                    terms.setdefault(None, []).append((True, minor(s, s)))
                    continue
                j = s.index(v)
                for i, r in enumerate(s):
                    terms.setdefault(r, []).append(((i + j) % 2 == 0, minor(s[:i] + s[i + 1 :], s[:j] + s[j + 1 :])))
            digits.append(terms)

    def packed(r) -> str:
        return " + ".join(f"(({_signed_sum(t[r])}) << {width * i})" for i, t in enumerate(digits) if r in t) or "0"

    coef = ", ".join(packed(r) for rows, _ in classes if v in rows for r in rows)
    offset = sum(1 << (width * i + width - 1) for i in range(len(digits)))
    return _compiled(f"def kernel(cols):\n{''.join(lines)}    return {hex(offset)} + {packed(None)}, ({coef},)\n")


def _signed_sum(terms) -> str:
    """The expression a - b + c ... of (positive, expression) terms."""
    return " ".join(f"{'+' if positive else '-'} {e}" for positive, e in terms).lstrip("+ ")


def _make_leaf_values(search: _Search):
    """Specialized evaluator for the leaves of ``search`` (see
    ``_Search.leaves``), called once per kept sign pattern as
    ``leaf_values(cols, solutions)``: cols holds the placed columns with
    the pattern's signs (cols[v] is unread), and values[j] is the finite
    Reidemeister number of the matrix whose column v is solutions[j], or
    None when it is infinite.  Within one pattern only the column of the
    solved vertex v varies.

    Without non-edges (N = 0, a complete graph) the group is Z^n and R is
    |det(1 - M1)|.  The search then generates one straight-line kernel at
    its first leaf (``_cofactor_kernel``), charged its
    ``_cofactor_terms(n)`` Laplace terms before it is generated, and each
    pattern is charged n^3 + n per solution, as a direct evaluation is,
    before the kernel evaluates it.  Compiling costs milliseconds, more
    than the few patterns of a search with non-edges would save, so every
    other search is evaluated as follows.

    det(1 - M1) is affine in column v, so it is one dot product d1 with the
    cofactors of column v of 1 - M1 (``_make_cofactors``).  Of 1 - M2 only
    the columns of the non-edges at v move; the others are filled once.

    A memo for the whole search sits on top.  It keys each matrix by bytes
    that fix R and are affine in column v, and only the patterns with a key
    it misses are evaluated directly, on those keys' solutions.  The matrix
    keeps the degree filtration (``_observe`` checks each leaf with
    ``_Search.check_structure``), so M1 is block triangular over the degree
    classes, with diagonal blocks A_d.  The edge lattice is spanned by
    coordinate vectors, so 1 - M2 is block triangular over the graded
    pieces: Lambda^2 A_d modulo the edges inside class d, and A_d (x) A_e
    modulo the edges between classes d and e.  R is the product of
    |det(1 - A_d)| and of |det(1 - P)| over the pieces P, whatever the
    off-diagonal entries.  A class is whole (``_degree_classes``) when each
    piece it meets is all of its space or zero.  A whole piece has the
    eigenvalues l_i l_j (i < j) or l_i m_j, from those l of A_d and m of
    A_e, so det(1 - Lambda^2 A_d) and det(1 - A_d (x) A_e) depend only on
    the characteristic polynomials; a zero piece contributes 1.  So a whole
    class enters R only through charpoly(A_d), fixed by e_1..e_|d|, and any
    other class through the entries of A_d.  The key holds these digits,
    class by class in degree order (``_charpoly_kernel``); the solutions
    are packed once per object, so a pattern's keys are the byte slices of
    one big-integer product.  An edgeless graph is one whole class.  There
    is no memo when one class that is not whole holds every vertex: the key
    would be M1 itself.
    """
    p, order, v = search.p, search.order, search.order[-1]
    n, N = p.n, p.N
    if not N:
        search._charge(_cofactor_terms(n))
        kernel = _cofactor_kernel(n, v)

        def complete_values(cols, solutions):
            search._charge(n**3 + len(solutions) * n)
            return kernel(cols, solutions)

        return complete_values
    cofactors = _make_cofactors(order)
    eye = [1 if r == c else 0 for r in range(N) for c in range(N)]
    # Cells (row-major index of row (a, b), a, b) of one column of 1 - M2.
    rows_cells = [(m * N, a, b) for m, (a, b) in enumerate(p.nonedges)]
    fixed = [(l, c, d) for l, (c, d) in enumerate(p.nonedges) if v not in (c, d)]
    # Moving column l = (c, d) holds w[a] x[b] - w[b] x[a] in row (a, b),
    # where x is column v and w is column d (if c = v) or minus column c.
    moving = [
        (d if c == v else c, c == v, [(i + l, a, b) for i, a, b in rows_cells])
        for l, (c, d) in enumerate(p.nonedges)
        if v in (c, d)
    ]

    def direct_values(cols, solutions):
        """The values of ``leaf_values`` without a memo.  The budget is
        charged before any determinant: n^3 for the cofactors, and per
        solution n for d1 plus N^3 for d2."""
        search._charge(n**3 + len(solutions) * (n + N**3))
        cof = cofactors(cols)
        if not any(cof):
            # det(1 - M1) vanishes whatever column v is.
            return [None] * len(solutions)
        d1s = [cof[v] - sum(map(mul, x, cof)) for x in solutions]
        base = eye[:]
        for l, c, d in fixed:
            cc, cd = cols[c], cols[d]
            for i, a, b in rows_cells:
                base[i + l] += cd[a] * cc[b] - cd[b] * cc[a]
        movers = [(cols[u] if plus else tuple(map(neg, cols[u])), cells) for u, plus, cells in moving]
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

    classes = _degree_classes(p.graph)
    if classes == [(tuple(range(n)), False)]:
        return direct_values
    # The kernel is charged before it is generated: per whole class of m
    # rows the Laplace terms of its minors, as in the walk, else m^2 entries.
    sizes = [(len(rows), whole) for rows, whole in classes]
    search._charge(sum(sum(comb(m - 1, k) * comb(m, k) * k for k in range(1, m)) if w else m * m for m, w in sizes))
    width, bound = _charpoly_width(max(m for m, _ in sizes), search.bound), search.bound
    kernel = _charpoly_kernel(classes, v, width)
    rows = next(rows for rows, _ in classes if v in rows)
    size = (sum(m if w else m * m for m, w in sizes) * width + 7) // 8
    # Per solutions object: the object, which keeps its id from being reused,
    # its rows of v's class packed in size-byte slots (``_pack``), the
    # integer with 1 in every slot and the slot starts.
    packs: dict[int, tuple] = {}

    def leaf_keys(cols, solutions):
        hit = packs.get(id(solutions))
        if hit is None:
            ones, packed = _pack(solutions, rows, size, bound)
            hit = packs[id(solutions)] = solutions, packed, ones, range(0, size * len(solutions), size)
        _, packed, ones, starts = hit
        base, coef = kernel(cols)
        # Slot j holds the key of solutions[j], which lies in [0, 2^(8 size)).
        data = sum(map(mul, coef, packed), base * ones).to_bytes(size * len(solutions), "little")
        return [data[i : i + size] for i in starts]

    memo: dict[bytes, int | None] = {}

    def leaf_values(cols, solutions):
        keys = leaf_keys(cols, solutions)
        try:
            return list(map(memo.__getitem__, keys))
        except KeyError:
            missing = {key: x for key, x in zip(keys, solutions) if key not in memo}
            memo.update(zip(missing, direct_values(cols, list(missing.values()))))
            return list(map(memo.__getitem__, keys))

    return leaf_values


def _picker(indices):
    """The getter x -> (x[indices[0]], x[indices[1]], ...), a tuple even for
    one index (``itemgetter`` of one index returns the item itself)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda x: (x[i],)
    return itemgetter(*indices)


# A larger Aut(graph) is replaced by the identity: the signs are used alone.
_GROUP_CAP = 5040


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """The automorphisms pi of g (vertex i goes to pi[i]), sorted, or only the
    identity when there are more than the cap.  Either way a group.

    Twins, vertices with one open or one closed neighbourhood, permute
    freely.  No vertex has an open and a closed twin at once (a closed twin
    z of u is a neighbour of every open twin of u, so that twin is in the
    closed neighbourhood of z, that of u), so the twin permutations form a
    group T of order the product of |class|! over the twin classes.  The m
    isomorphic components of one type (more than one vertex each) permute
    too, along isomorphisms fixed once from the first of them: a group W
    of order the product of m!.  Twins in a component of more than one
    vertex share a neighbour or an edge, so T keeps every such component
    in place, and only the identity of W does.  So T and W meet only in
    the identity, the maps t w are distinct, and |Aut| >= |T| |W|.
    The identity is returned at once when that product is over the cap."""
    closed = [{u} for u in range(g.n)]
    for a, b in g.edges:
        closed[a].add(b)
        closed[b].add(a)
    closed_twins = Counter(map(frozenset, closed))
    open_twins = Counter(frozenset(s - {u}) for u, s in enumerate(closed))
    types = map(len, connected_components(g).types)
    if prod(map(factorial, chain(closed_twins.values(), open_twins.values(), types))) > _GROUP_CAP:
        return [tuple(range(g.n))]
    group = sorted(islice(isomorphisms(g, g), _GROUP_CAP + 1))
    return group if len(group) <= _GROUP_CAP else [tuple(range(g.n))]


class _SignedGroup:
    """The signed automorphisms psi = P_pi D_s of a graph (pi in Aut(graph),
    or pi = id if |Aut| > 5040; s a sign vector, up to a common sign) acting
    on the matrices X of a search by conjugation.  Entry (i, j) of X goes to
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
    columns.  There is one table per source vertex u, keyed by the column
    alone, not by group element, and the tables live as long as this
    object.

    A comparison reads the columns in vertex order and stops at the first
    one not placed yet, so one decided on the placed columns of a search
    node is decided the same way at every node below it.  The walk runs
    the test at every node and carries what survives down the tree
    (``extend``), the stabilizer chain of lex-leader pruning (McKay 1998).
    """

    def __init__(self, g: Graph):
        n = self.n = g.n
        # q = pi^-1 (a group holds each inverse), by the source q[0] of column 0.
        # Each q comes with the getter of its image, x -> (x[q[0]], x[q[1]], ...).
        group = _automorphisms(g)
        self._to_zero = [[(_picker(q), q) for q in group if q[0] == u] for u in range(n)]
        self._tables: list[dict[tuple, tuple]] = [{} for _ in range(n)]

    def _lowest(self, u: int, c: tuple[int, ...]) -> tuple:
        """(low, tied): the smallest column-0 image of column c of source u,
        and the q = pi^-1 with q[0] = u that reach it, kept in the table of
        source u under the key c."""
        table = self._tables[u]
        hit = table.get(c)
        if hit is None:
            mags = [-abs(x) for x in c]
            mags[u] = c[u]
            images = [(image(mags), q) for image, q in self._to_zero[u]]
            low = min(images)[0]
            hit = table[c] = low, [q for image, q in images if image == low]
        return hit

    def leads(self, c: tuple[int, ...]) -> bool:
        """Column c in position 0 is at most each of its images under the
        psi with pi(0) = 0."""
        return self._lowest(0, c)[0] == c

    def _smaller(self, cols, q, root, par, start: int) -> bool | tuple:
        """Whether some image under q = pi^-1, with signs in the classes
        root, par, is smaller than the matrix with columns ``cols``, compared
        on columns start, start + 1, ...: True or False once decided, and
        otherwise the pending comparison (q, root, par, k) that resumes at
        the first column k whose comparison reads a column that is None,
        with the classes merged by the ties before k.  A decision never
        changes when further columns are placed, nor do the columns before
        k compare otherwise."""
        n = self.n
        copied = False
        for k in range(start, n):
            w = q[k]
            src, dst = cols[w], cols[k]
            if src is None or dst is None:
                return q, root, par, k
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

    def extend(self, state, u: int, c: tuple[int, ...]):
        """The state of a search node one column deeper: ``state`` (() at
        the root) with column c of vertex u placed, in both signs.

        Until column 0 is placed the state is the tuple of placed (u, c),
        since no comparison can start.  From then on it is the list of
        surviving branches (x0, cols, pending): x0 the sign of column 0 (a
        column that leads, ``leads``), cols the n signed columns so far
        (None where not placed), and pending the comparisons
        (q, root, par, k) that ``_smaller`` has not decided yet, each to
        resume at column k.  Placing a column settles its column-0 images
        by table lookups (``_lowest``): an image below x0 drops the branch,
        and a tie adds its pi to pending from column 1, with the sign
        classes it forces (s_i = -sign(col[i]) s_u).  Then every pending
        comparison whose columns k and q[k] are both placed resumes: a
        decided "smaller" drops the branch, and an undecided one is kept
        for a later column.  A comparison that still waits on column k or
        on column q[k] is kept as it is, since it would stop there again.
        An empty list means that no sign pattern of the placed columns can
        hold a leader, so neither can any matrix below the node."""
        if isinstance(state, tuple):
            state += ((u, c),)
            if u != 0:
                return state
            steps = state
            state = [(x0, [None] * self.n, []) for x0 in (c, tuple(map(neg, c))) if self.leads(x0)]
        else:
            steps = ((u, c),)
        smaller = self._smaller
        for u, c in steps:
            signs = c, tuple(map(neg, c))
            to_zero = self._to_zero[u]
            grown = []
            for x0, cols, pending in state:
                for col in signs:
                    checks = pending
                    if to_zero:
                        if u == 0 and col != x0:
                            continue
                        low, tied = self._lowest(u, col)
                        if low < x0:
                            continue
                        if low == x0:
                            root = [u if x else i for i, x in enumerate(col)]
                            par = [-1 if x > 0 else 1 for x in col]
                            root[u], par[u] = u, 1
                            checks = pending + [(q, root, par, 1) for q in tied]
                    signed = cols[:]
                    signed[u] = col
                    left = []
                    for check in checks:
                        q, _, _, k = check
                        if signed[k] is None or signed[q[k]] is None:
                            left.append(check)
                            continue
                        decided = smaller(signed, *check)
                        if decided is True:
                            break
                        if decided:
                            left.append(decided)
                    else:
                        grown.append((x0, signed, left))
            state = grown
        return state

    def patterns(self, order, placed) -> list[list]:
        """The sign patterns of a leaf's placed columns (in placement order
        ``order``, the solved vertex last) that no image makes smaller
        before the solved column enters the comparison, each as its n
        columns with None at the solved vertex: ``extend`` folded over the
        placed columns."""
        state = ()
        for u, c in zip(order, placed):
            state = self.extend(state, u, c)
        return _state_patterns(state, self.n, order, placed)


def _canonical_system(system) -> tuple[tuple[int, ...], ...]:
    """The canonical form of a homogeneous integer ``system`` (rows of one
    length): its reduced row echelon form over Q, each row scaled to be
    primitive with a positive pivot, as a tuple of rows by pivot.  Systems
    with the same row space over Q, and so with the same solutions, and
    only those, have the same form."""
    a = [list(row) for row in system]
    if not a:
        return ()
    pivots = echelon(a, len(a[0]))
    del a[len(pivots) :]
    # Bottom row first: scale it, then clear its pivot from the rows above.
    # That keeps their pivots, and their zeros at the pivots of the rows
    # below, where this row is zero too.
    for i in reversed(range(len(pivots))):
        row, p = a[i], pivots[i]
        d = gcd(*row)
        row = a[i] = [x // d for x in row] if row[p] > 0 else [-x // d for x in row]
        for j in range(i):
            e = a[j][p]
            if e:
                a[j] = [x * row[p] - e * y for x, y in zip(a[j], row)]
    return tuple(map(tuple, a))


def _pack(vectors, rows, size: int, shift: int) -> tuple[int, list[int]]:
    """The entries of ``vectors`` packed into big integers, one per row r
    of ``rows``: the size-byte slot j holds x[r] of x = vectors[j], so the
    integer is the sum of x[r] 256^(size j) over j.  Returned with the
    integer that holds 1 in every slot.  Each entry plus ``shift`` must
    fit a slot; it is packed so, and the shift taken off after."""
    ones = int.from_bytes((1).to_bytes(size, "little") * len(vectors), "little")
    packed = []
    for r in rows:
        digits = b"".join([(x[r] + shift).to_bytes(size, "little") for x in vectors])
        packed.append(int.from_bytes(digits, "little") - shift * ones)
    return ones, packed


def _packed_solutions(packed, g) -> tuple:
    """The solutions of g.x = +-1 in a packed last-column pool (see
    ``_Search._unit_solutions``), sorted: one packed dot product.
    Candidate j fills slot j of each packed coordinate, a byte-aligned slot
    wide enough for |g.x| <= n! bound^n; shifted by half a slot, g.x = +-1
    are two byte strings found at slot offsets.  A solution is primitive
    and the system is homogeneous, so the solution or its negation is in
    the pool, and every negated candidate sorts below every candidate."""
    pool, negated, size, offset, coords, targets, _ = packed
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
    return tuple([negated[j] for j in reversed(hits)] + [pool[j] for j in hits])


class _Search:
    """Column-by-column enumeration of relation-preserving unimodular
    matrices with bounded entries.

    Columns are placed in a static order (most constrained first).  The
    edge relations tie a new column x to each placed neighbour column u by
    u[a] x[b] = u[b] x[a] for every non-edge (a, b), which is linear in x;
    so the candidates for a column are the solutions of that integer system
    in the box.  Systems with one row space have one set of solutions, and
    the walk meets few row spaces many times, so each system is brought to
    a canonical form (``_relation_system``) and each pool is built once per
    search, by (allowed rows, form, relation dimension), and reused
    (``_pool``).  Every column's pool, the last one's too, holds only the
    candidates of its relation dimension (see the centralizer dimension
    below), built from the supports of that dimension and filtered by the
    system; the unpruned reference builds its pools from every support.
    The last column's pool is then filtered by the determinant
    condition g.x = +-1 (``_solve_last``), and that solve too is kept per
    search, by (rows, form, +-g), so the leaves that meet one key share one
    tuple of solutions (``_unit_solutions``).
    Column signs are canonicalized during the walk and expanded at the
    leaves, which is lossless because every constraint in play is
    invariant under negating a column.  Partial column sets are
    pruned by the gcd of their maximal minors (a prefix of a unimodular
    matrix has coprime maximal minors).  The C(n, k) minors of k columns
    are a list indexed by the rank of their row set in ``combinations``
    order, each a Laplace expansion along the new column over terms built
    when the walk first reaches that depth (``_extend_minors``).
    The node budget (None for none) is charged through ``_charge``: the size
    of the unconstrained pool per placed column on k rows, before any pool
    or term is built (counted from one count per support size, only under a
    finite budget, see ``_charge_pool``), and 2 (2B+1)^(k-1) per last column
    on k rows, whatever the solve enumerates and whether it was solved
    before.  So a last column that is the first to ask for the support pool
    of its rows and dimension builds it uncharged: over every graph on at
    most 5 vertices at B <= 2, the largest such pool holds 1,425 candidates,
    against a leaf charge of 1,250.  It is counted first, and raises when
    the count exceeds the units left (``_unit_solutions``).  The minors are
    charged too: C(n, k) per candidate for k placed columns, and C(n, k) k
    before the expansion terms for k columns are built.
    ``_make_leaf_values`` evaluates leaves, and ``check_structure`` checks
    that they keep the degree filtration and the components.

    With ``struct_prunes`` False the walk ignores the degree filtration,
    the components and the centralizer dimension: the unpruned reference
    that the tests compare the pruned stream with.

    Centralizer dimension (a structural prune, with the degree filtration
    and the components): the relation space L(c) = {x : c[a] x[b] =
    c[b] x[a] for every non-edge (a, b)} of column v of a matrix M of the
    search set has dimension deg(v) + 1, that of L(e_v), the span of v and
    its neighbours (the centralizer of v, abelianized).  Proof: L(M c) =
    M L(c), since Lambda^2 M is unimodular and maps the edge lattice into
    itself, hence onto itself.  The dimension depends only on the support
    of c (``_support_dim``), so the pool of each column holds only the
    primitive vectors whose support has that dimension
    (``_support_pool``).  This cuts only subtrees without leaves and
    candidates that solve no leaf; the stream is unchanged.

    Symmetry: let psi = P_pi D_s be a signed permutation with pi in
    Aut(graph).  Conjugation X -> psi X psi^-1 maps the search set onto
    itself (it keeps the box, the determinant, relation preservation, the
    degree filtration and the components) and keeps both factors of R,
    since psi preserves the edge lattice.  So the lexicographically smallest
    matrix with a given value (columns compared in vertex order) is the
    smallest of its orbit, a *leader* (``_SignedGroup``).  ``leaves`` with
    the group drops what cannot hold a leader.  Each node carries the sign
    patterns of its placed columns that no image makes smaller on them
    (``_SignedGroup.extend``), and a node with none left is cut with its
    subtree, which is neither walked nor charged.  ``run`` streams every
    matrix.

    The walk (``_place``) passes its state down the recursion as values:
    each child gets the placed columns as a tuple, the minors table of
    its columns and the component assignment as a tuple, so no node
    changes what its parent or a sibling holds.
    """

    def __init__(self, p: Presentation, bound: int, struct_prunes: bool, node_budget: int | None):
        if bound < 1:
            raise ValueError("bound must be >= 1")
        g = p.graph
        self.p = p
        self.n = g.n
        self.bound = bound
        self.nonedges = p.nonedges
        # The budget units left, or None without a budget.
        self.left = node_budget
        self.degs = degs = g.degrees()
        n = self.n

        # Built per distinct degree, not per vertex: one pass over the rows
        # for a graph whose vertices share one degree.
        rows_of = {d: tuple(r for r in range(n) if degs[r] >= d or not struct_prunes) for d in set(degs)}
        self.filtration_rows = [rows_of[d] for d in degs]

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

        # Per (allowed rows, placed column): its relation rows; per set of
        # relation rows: the canonical form of its system, which keys the
        # pools, so equivalent systems share one (see ``_relation_system``).
        self._relations: dict[tuple, frozenset] = {}
        self._systems: dict[frozenset, tuple] = {}
        # Per (allowed rows, relation system, relation dimension or None): the
        # canonical candidates (of that dimension); per (allowed rows,
        # relation system) of a last column: its pool negated and packed for
        # g.x, with the solutions per +-g (see ``_unit_solutions``).
        self._pools: dict[tuple, list[tuple[int, ...]]] = {}
        self._packed: dict[tuple, tuple] = {}
        # Per support size s: its primitive vectors up to sign
        # (``_support_count``), from which every pool size is counted.
        self._counts: dict[int, int] = {}
        # Per number k of placed columns: the Laplace expansion along the new
        # column of each k x k minor, filed by the minor of the other k - 1
        # rows: per rank of a (k-1)-set of rows, the terms (row r added,
        # rank of the k rows, sign), ranks in ``combinations`` order; built
        # when the walk first places k columns.
        self._laplace: dict[int, list] = {}
        # Per vertex v: the dimension deg(v) + 1 of the relation space of
        # every column of v in the search set (see ``_Search``), or
        # None without the structural prunes; per support bitmask: the
        # dimension of its columns' relation space (``_support_dim``).
        self.relation_dims = [d + 1 if struct_prunes else None for d in degs]
        self._adjacent = [0] * n
        for a, b in g.edges:
            self._adjacent[a] |= 1 << b
            self._adjacent[b] |= 1 << a
        self._dims: dict[int, int] = {}

        # Static placement order: fewest allowed rows first, so the relation
        # constraints bite early (the unconstrained pool grows with the
        # number of rows alone); the last placed column is solved.
        self.order = sorted(range(n), key=lambda v: (len(self.filtration_rows[v]), v))
        # For each depth, the depths of the neighbours placed before it;
        # none without non-edges, since those give no relation rows.
        depth_of = {v: depth for depth, v in enumerate(self.order)}
        self.neighbor_depths = [[] for _ in range(n)]
        if self.nonedges:
            for a, b in g.edges:
                da, db = depth_of[a], depth_of[b]
                self.neighbor_depths[max(da, db)].append(min(da, db))
            for depths in self.neighbor_depths:
                depths.sort()

    def _charge(self, amount: int) -> None:
        """Spend ``amount`` budget units; raise once the budget is overdrawn."""
        if self.left is not None:
            self.left -= amount
            if self.left < 0:
                raise SearchBudgetExceeded("search node budget exhausted")

    def _support_count(self, s: int) -> int:
        """The primitive vectors with support exactly s given rows and
        entries in +-1..+-B, up to sign, memoized per s.  A support of one
        row holds only +-1.  Otherwise each of the (2b)^s vectors with
        entries in +-1..+-b is d times a primitive one with entries in
        +-1..+-floor(b/d), d its gcd, so their count P(b) up to sign is
        (2b)^s / 2 - sum over d >= 2 of P(floor(b/d)).  Every floor(b/d)
        is some floor(B/m), so P is computed on those values, ascending,
        and each sum is taken once per distinct quotient: O(B^(3/4)) steps."""
        count = self._counts.get(s)
        if count is None:
            count = 1
            if s > 1:
                b, values, m = self.bound, [], 1
                while m <= b:
                    values.append(b // m)
                    m = b // values[-1] + 1
                counts: dict[int, int] = {}
                for v in reversed(values):
                    p, d = (2 * v) ** s // 2, 2
                    while d <= v:
                        q = v // d
                        top = v // q
                        p -= (top - d + 1) * counts[q]
                        d = top + 1
                    counts[v] = p
                count = counts[b]
            self._counts[s] = count
        return count

    def _support_floor(self, s: int) -> int:
        """A lower bound of ``_support_count(s)`` in O(1) steps, exact for
        s = 1.  Of the (2B)^s / 2 vectors up to sign, those with gcd d >= 2
        number at most (2B/d)^s / 2, so the primitive ones number at least
        2^(s-1) B^s (2 - zeta(s)), and zeta(s) - 1 <= 2^-s + 2^(1-s)/(s-1):
        at least B^s (2^(s-1) - 1/2 - 1/(s-1)), rounded down."""
        if s == 1:
            return 1
        return self.bound**s * ((s - 1) * ((1 << s) - 1) - 2) // (2 * (s - 1))

    def _pool_size(self, k: int, count=None) -> int:
        """The size of the unconstrained pool on k rows: C(k, s) supports
        of each size s, each holding ``_support_count(s)`` vectors, or a
        lower bound of it from a lower bound ``count`` of that count."""
        count = count or self._support_count
        return sum(comb(k, s) * count(s) for s in range(1, k + 1))

    def _charge_pool(self, k: int) -> None:
        """Charge the size of the unconstrained pool on k rows, computed
        only under a finite budget.  Its lower bound from
        ``_support_floor`` is compared with the units left first: a larger
        bound is charged instead, and raises at the node where the size
        would have raised, before any support size is counted."""
        if self.left is not None:
            low = self._pool_size(k, self._support_floor)
            self._charge(low if low > self.left else self._pool_size(k))

    def check_structure(self, cols) -> None:
        """Check that the columns respect the degree filtration and, with
        several components, that each component maps into one component,
        injectively.  Only the supports of the columns are read."""
        n, degs, comp_of = self.n, self.degs, self.comp_of
        for c in range(n):
            dc = degs[c]
            col = cols[c]
            for r in range(n):
                if col[r] != 0 and degs[r] < dc:
                    raise SpectrumConsistencyError(f"degree filtration violated at entry ({r}, {c})")
        if len(self.comp_rows) > 1:
            seen: dict[int, int] = {}
            for c in range(n):
                ci = comp_of[c]
                if ci is None:
                    continue
                tgt = {comp_of[r] for r in range(n) if cols[c][r] != 0}
                if len(tgt) != 1 or None in tgt:
                    raise SpectrumConsistencyError(f"column {c} is not supported in a single component")
                ti = tgt.pop()
                if seen.setdefault(ci, ti) != ti:
                    raise SpectrumConsistencyError(f"component {ci} maps to two different components")
            if len(set(seen.values())) != len(seen):
                raise SpectrumConsistencyError("component assignment is not injective")

    def _pool(self, rows: tuple[int, ...], system, dim: int | None = None) -> list[tuple]:
        """Canonical candidate columns on ``rows`` under the relation
        ``system`` (rows of coefficients on ``rows``; the walk passes the
        canonical form of ``_relation_system``), built once per (rows,
        system, dim) and reused whenever the same key comes back.

        The pool of the empty system is built from the supports whose
        relation space has dimension ``dim``, or from every support
        without ``dim``, for the unpruned reference (``_support_pool``).
        The pool of any other system is that one filtered by the system's
        rows.  A last column can be the first to build a pool (see
        ``_Search``)."""
        key = rows, system, dim
        pool = self._pools.get(key)
        if pool is None:
            if system:
                pick = _picker(rows)
                pool = [
                    x
                    for x in self._pool(rows, (), dim)
                    if not any(sum(map(mul, row, pick(x))) for row in system)
                ]
            else:
                pool = self._support_pool(rows, dim)
            self._pools[key] = pool
        return pool

    def _support_pool(self, rows: tuple[int, ...], dim: int | None) -> list[tuple]:
        """The canonical columns on ``rows`` of the box whose relation space
        has dimension ``dim`` (any dimension for None), sorted: the nonzero
        primitive ones whose first nonzero entry is positive.  The dimension
        depends only on the support (``_support_dim``), so each support S
        of that dimension gives every primitive vector with support exactly
        S: entries in +-1..+-B on S, the first one positive."""
        n, bound = self.n, self.bound
        positive = range(1, bound + 1)
        signed = [*range(-bound, 0), *positive]
        out = []
        for support in self._supports(rows, dim):
            # A candidate is a 0 for the rows off S, then the entries on S.
            take = [0] * n
            for i, r in enumerate(r for r in range(n) if support >> r & 1):
                take[r] = i + 1
            pick = _picker(take)
            spans = [signed] * (support.bit_count() - 1)
            out += [pick(vals) for vals in product((0,), positive, *spans) if gcd(*vals) == 1]
        out.sort()
        return out

    def _supports(self, rows: tuple[int, ...], dim: int | None):
        """Yield the supports within ``rows`` (nonempty row bitmasks) whose
        columns' relation space has dimension ``dim`` (``_support_dim``),
        or every one for None."""
        full = support = sum(1 << r for r in rows)
        while support:
            if dim is None or self._support_dim(support) == dim:
                yield support
            support = (support - 1) & full

    def _support_pool_size(self, rows: tuple[int, ...], dim: int, count=None) -> int:
        """The size of ``_support_pool(rows, dim)``, without building it:
        ``_support_count(|S|)`` per support S of that dimension, or a lower
        bound of it from a lower bound ``count`` of that count."""
        count = count or self._support_count
        return sum(count(support.bit_count()) for support in self._supports(rows, dim))

    def _support_dim(self, support: int) -> int:
        """The dimension of the relation space of the columns whose support
        is the nonempty row bitmask ``support``, memoized per support.  A
        non-edge from a row b off S to a row a of S forces x[b] = 0, and a
        non-edge inside S ties x[a] / c[a] to x[b] / c[b]; so the dimension
        is the number of rows off S adjacent to every row of S, plus the
        number of components of the complement graph on S."""
        dim = self._dims.get(support)
        if dim is None:
            adjacent = self._adjacent
            dim = sum(1 for b in range(self.n) if not support >> b & 1 and adjacent[b] & support == support)
            left = support
            while left:
                # Grow the component of the lowest row left through non-edges.
                component = frontier = left & -left
                while frontier:
                    a = (frontier & -frontier).bit_length() - 1
                    frontier &= frontier - 1
                    new = support & ~adjacent[a] & ~component
                    component |= new
                    frontier |= new
                left &= ~component
                dim += 1
            self._dims[support] = dim
        return dim

    def _unit_solutions(self, rows: tuple[int, ...], system, g: list[int]) -> tuple:
        """The sorted columns x on ``rows`` of the box that solve the
        relation ``system`` and g.x = +-1, solved once per search and shared
        by every last column that asks again.  The candidates are the pool
        of the rows, the system and the solved vertex's relation dimension
        (``_pool``), which every column of that vertex in the search set
        has, so no solution is lost.  The last column can be the first to
        build the support pool of its rows and dimension.  It is charged for
        its solve, not for that pool (see ``_Search``), but in a pruned
        search under a finite budget the pool is first counted
        (``_support_pool_size``, from one count per support size, after
        its lower bound from ``_support_floor``), and a bound or a count
        above the units left raises before it is built.  The pool is
        packed once (``_pack``, see ``_packed_solutions``), and the
        solutions of each +-g are kept with the packing: g.x = +-1 does not
        change under g -> -g, so g is keyed with its first nonzero entry
        positive."""
        key, dim = (rows, system), self.relation_dims[self.order[-1]]
        packed = self._packed.get(key)
        if packed is None:
            fresh = dim is not None and self.left is not None and (rows, (), dim) not in self._pools
            if fresh and any(
                self._support_pool_size(rows, dim, count) > self.left
                for count in (self._support_floor, self._support_count)
            ):
                raise SearchBudgetExceeded("search node budget exhausted")
            pool = self._pool(rows, system, dim)
            size = (_det_width(self.n, self.bound) + 7) // 8
            half = 1 << (8 * size - 1)
            ones, coords = _pack(pool, rows, size, half)
            targets = [(half + d).to_bytes(size, "little") for d in (-1, 1)]
            negated = [tuple(map(neg, x)) for x in pool]
            packed = self._packed[key] = pool, negated, size, half * ones, coords, targets, {}
        solved = packed[-1]
        for c in g:
            if c:
                if c < 0:
                    g = [-c for c in g]
                break
        g = tuple(g)
        solutions = solved.get(g)
        if solutions is None:
            solutions = solved[g] = _packed_solutions(packed, g)
        return solutions

    def _column_options(self, v: int, targets):
        """Yield (targets, rows) per branch for column v: the component
        assignment below the branch (``targets[ci]`` is the component that
        component ci maps onto, or None) and the rows column v may use."""
        rows = self.filtration_rows[v]
        ci = self.comp_of[v] if self.use_components else None
        if ci is None:
            yield targets, rows
        elif targets[ci] is not None:
            yield targets, tuple(r for r in rows if r in self.comp_rows[targets[ci]])
        else:
            for cj in self.iso_targets[ci]:
                if cj not in targets:
                    below = targets[:ci] + (cj,) + targets[ci + 1 :]
                    yield below, tuple(r for r in rows if r in self.comp_rows[cj])

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
        leaves hold every leader of the stream (see ``_SignedGroup``).  The
        walk carries a group state down the tree (``_SignedGroup.extend``):
        the sign patterns of the placed columns that no image makes smaller
        as far as those columns decide, with the comparisons still open.  A
        placed column whose state has no pattern left is skipped with its
        subtree, unwalked and uncharged, so every leaf keeps a pattern, and
        patterns holds those of its node.  When v = 0 no comparison starts,
        and every pattern is kept.  The walk starts at the root
        (``_place``): no placed column (the empty minor is 1), no
        component assigned, and the group state () or None."""
        if self.n:
            state = None if group is None else ()
            yield from self._place(0, (), [1], (None,) * len(self.comp_rows), group, state)

    def _extend_minors(self, nonzero_prev, col: tuple[int, ...], k: int):
        """The C(n, k) minors of k placed columns, indexed by the rank of
        their row set in ``combinations`` order, plus their gcd, from the
        nonzero minors of the first k-1 as (rank, minor) pairs.  Expanded
        along the new column, a minor is a sum over its rows r of col[r]
        times a minor of the k-1 columns on the other rows, so only the
        terms of a nonzero minor and a nonzero row of col are added.  The
        C(n, k) k terms are built at the first call for k, after the
        budget is charged for them."""
        laplace = self._laplace.get(k)
        if laplace is None:
            self._charge(comb(self.n, k) * k)
            below = {rows: i for i, rows in enumerate(combinations(range(self.n), k - 1))}
            laplace = self._laplace[k] = [[] for _ in below]
            for dst, rows in enumerate(combinations(range(self.n), k)):
                for i, r in enumerate(rows):
                    laplace[below[rows[:i] + rows[i + 1 :]]].append((r, dst, (-1) ** (i + k - 1)))
        table = [0] * comb(self.n, k)
        for src, minor in nonzero_prev:
            for r, dst, sign in laplace[src]:
                c = col[r]
                if c:
                    table[dst] += sign * c * minor
        return table, gcd(*table)

    def _place(self, depth: int, placed, minors, targets, group, state):
        """Yield the leaves below a node at ``depth``: ``placed`` holds the
        columns of ``order[:depth]``, ``minors`` their C(n, depth) maximal
        minors (see ``_extend_minors``), ``targets`` the component
        assignment (``_column_options``) and ``state`` the group state of
        the node (None without ``group``)."""
        n = self.n
        v = self.order[depth]
        for below_targets, rows in self._column_options(v, targets):
            if depth == n - 1:
                leaf = self._solve_last(v, rows, placed, minors, state)
                if leaf is not None:
                    yield leaf
                continue
            self._charge_pool(len(rows))
            system = self._relation_system(depth, rows, placed)
            pool = self._pool(rows, system, self.relation_dims[v])
            self._charge(len(pool) * comb(n, depth + 1))
            nonzero = [(i, m) for i, m in enumerate(minors) if m]
            for vec in pool:
                table, g = self._extend_minors(nonzero, vec, depth + 1)
                if g != 1:
                    continue
                below = state
                if group is not None:
                    below = group.extend(state, v, vec)
                    if not below:
                        continue  # no leader below this node
                yield from self._place(depth + 1, placed + (vec,), table, below_targets, group, below)

    def _solve_last(self, v: int, rows, placed, minors, state=None) -> tuple | None:
        """Solve sum_r g_r c_r = +-1 for the final column over the allowed
        box, together with its relation constraints; returns the leaf (see
        ``leaves``), or None without solutions.  The pool the placed
        columns draw from (``_pool``), which this column can be the first
        to build, is filtered by one packed dot product
        (``_unit_solutions``).  The sign patterns are those the group state
        of the leaf's node keeps (``_state_patterns``)."""
        n = self.n
        # The rows without r have rank n - 1 - r among the (n-1)-sets.
        g = [minors[n - 1 - r] * (-1) ** (r + n - 1) for r in rows]
        if not any(g):
            return None
        self._charge(2 * (2 * self.bound + 1) ** (len(rows) - 1))
        solutions = self._unit_solutions(rows, self._relation_system(n - 1, rows, placed), g)
        if not solutions:
            return None
        return v, placed, solutions, _state_patterns(state, n, self.order, placed)

    def _relation_system(self, depth: int, rows, placed) -> tuple:
        """The edge-relation constraints on the column placed at ``depth``,
        the last one included: u[a] x[b] - u[b] x[a] = 0 for each placed
        neighbour column u and each non-edge (a, b), on the coefficients of
        ``rows``, in canonical form (``_canonical_system``).  Systems with
        one row space have one form, so they share one pool, one packing
        and one memo of last-column solves.  The rows of each neighbour
        column come from ``_relation_rows``, and each distinct union of
        them is mapped to its form once per search."""
        depths = self.neighbor_depths[depth]
        if not depths:
            return ()
        distinct = frozenset().union(*[self._relation_rows(rows, placed[k]) for k in depths])
        system = self._systems.get(distinct)
        if system is None:
            system = self._systems[distinct] = _canonical_system(distinct)
        return system

    def _relation_rows(self, rows, u: tuple[int, ...]) -> frozenset:
        """The nonzero rows u[a] x[b] - u[b] x[a] of placed column u, one
        per non-edge (a, b) that meets ``rows``, as coefficients on
        ``rows``, each primitive with its first nonzero entry positive
        (which keeps its solutions), built once per search."""
        key = rows, u
        hit = self._relations.get(key)
        if hit is None:
            slot = {r: j for j, r in enumerate(rows)}
            found = set()
            for a, b in self.nonedges:
                ja, jb = slot.get(a), slot.get(b)
                x = 0 if jb is None else u[a]
                y = 0 if ja is None else u[b]
                if x or y:
                    row = [0] * len(rows)
                    if jb is not None:
                        row[jb] = x
                    if ja is not None:
                        row[ja] = -y
                    d = gcd(x, y)
                    if next(c for c in row if c) < 0:
                        d = -d
                    found.add(tuple([c // d for c in row]))
            hit = self._relations[key] = frozenset(found)
        return hit


def _automorphism_columns(
    p: Presentation, bound: int, struct_prunes: bool = True, node_budget: int | None = None
):
    """Stream of column tuples (original vertex order) of every
    relation-preserving matrix with entries in [-bound, bound] and
    determinant +1 or -1."""
    return _Search(p, bound, struct_prunes, node_budget).run()


def _column_matrix(cols) -> IntMatrix:
    """The square matrix whose columns are ``cols``."""
    n = len(cols)
    return IntMatrix(n, n, tuple(c[i] for i in range(n) for c in cols))


def enumerate_automorphisms(p: Presentation, bound: int, *, node_budget: int | None = None):
    """Yield every automorphism whose vertex matrix has entries in
    [-bound, bound], as endomorphisms with zero commutator parts in the
    generator images.  Deterministic order."""
    for cols in _automorphism_columns(p, bound, True, node_budget):
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


def _observe(p: Presentation, bound: int, node_budget: int | None) -> dict:
    """Walk the bounded search of ``compute_spectrum_report`` and evaluate
    its leaves: each finite value observed, with the lexicographically
    smallest column tuple that realizes it.  The block structure is checked
    once per leaf (``_Search.check_structure``), and the evaluator is built
    at the first leaf, so a search that runs out of budget before it does
    not build one.  The search, its solved column systems, its memoized
    last-column solves and the evaluator's memo live only in this call, so
    an error the report raises afterwards does not keep them alive.

    With more than one degree class, R depends only on the diagonal blocks
    of M1 (``_make_leaf_values``, whose memo key may be coarser), so within
    a leaf the solutions that agree on the rows of the solved vertex's
    class have one value under every sign pattern.  Only the first of each
    such group can be a witness, so the leaf is evaluated on those alone.
    The leaves that share a solve (``_Search._unit_solutions``) share one
    solutions object, so the support union and these first solutions are
    derived once per object, not once per leaf."""
    n = p.n
    search = _Search(p, bound, True, node_budget)
    if n == 0:
        # The trivial group: its one automorphism has one twisted class.
        return {1: ()}
    degs = search.degs
    structured = len(search.comp_rows) > 1 or len(set(degs)) > 1
    rows = [r for r in range(n) if degs[r] == degs[search.order[-1]]]
    restrict = itemgetter(*rows) if len(rows) < n else None
    # Witness ties are broken by the lexicographically smallest column tuple.
    observed: dict[int, tuple] = {}
    # Per solutions object (the search shares one per distinct solve): the
    # object, which keeps its id from being reused, the union of its
    # supports and the first solution of each restriction.  A restriction
    # needs a second degree class, so the structure is checked then too.
    derived: dict[int, tuple] = {}
    leaf_values = None
    for v, _, solutions, patterns in search.leaves(_SignedGroup(p.graph)):
        if leaf_values is None:
            leaf_values = _make_leaf_values(search)
        if structured:
            hit = derived.get(id(solutions))
            if hit is None:
                # Signs never change a support and no solution is zero, so
                # the union of the solutions' supports as column v passes
                # exactly when every matrix of the leaf does.
                support = [any(x[r] for x in solutions) for r in range(n)]
                firsts = solutions
                if restrict is not None:
                    firsts = dict(zip(map(restrict, reversed(solutions)), reversed(solutions)))
                    firsts = sorted(firsts.values())
                hit = derived[id(solutions)] = solutions, support, firsts
            _, support, solutions = hit
            cols = patterns[0]
            cols[v] = support
            search.check_structure(cols)
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
    g: Graph, bound: int | None = None, *, node_budget: int | None = None
) -> SpectrumReport:
    """Classify the graph's spectrum and search for realized finite values.

    Every observed value carries the lexicographically smallest witness
    matrix, re-verified against the closed form when one is known; a
    violation raises :class:`SpectrumConsistencyError`.

    The search cuts every placed column of vertex v whose relation space
    {x : c[a] x[b] = c[b] x[a] for every non-edge (a, b)} does not have
    dimension deg(v) + 1.  That prune loses nothing: every matrix M of the
    search set maps the relation space of e_v (v and its neighbours) onto
    that of column v, since Lambda^2 M is unimodular and maps the edge
    lattice into itself, hence onto itself.  So the cut subtrees hold no
    leaf (``_Search``).

    Conjugating by a signed automorphism P_pi D_s (pi in Aut(graph)) keeps
    R, and the smallest matrix with a given value is the smallest of its
    orbit.  So a leaf's sign pattern is evaluated only if no such image is
    smaller on the columns that do not involve the solved vertex, compared
    in vertex order against the whole group (``_SignedGroup``).  The test
    runs at every node of the search, on its placed columns, and a node
    with no pattern left is cut with its subtree.  That leaves the observed
    values and the witnesses unchanged.  Each kept pattern is evaluated
    against the leaf's solutions, through one memo per report keyed, per
    degree class, by the characteristic polynomial of its diagonal block
    or by the block's entries; on a complete graph, where R is
    |det(1 - M)|, by one kernel per report generated for the cofactors of
    the solved column (``_make_leaf_values``).  With more than one
    degree class only the smallest solution of each restriction to the rows
    of the solved vertex's class is evaluated (``_observe``).  The last
    column is solved once per (rows, system, +-g) of the report
    (``_Search._unit_solutions``), and the leaves that meet one key share
    its solutions.  The comparisons that reach the solved column are not
    carried on per solution, and when vertex 0 is the solved vertex
    nothing is pruned.
    Only the signs are used when Aut(graph) has over 5040 elements.
    """
    if bound is None:
        bound = default_bound(g)
    observed = _observe(Presentation.of(g), bound, node_budget)
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
    # Equal witness rows share one tuple: a caller may keep many reports.
    rows: dict[tuple, tuple] = {}
    witnesses = {v: tuple(rows.setdefault(row, row) for row in zip(*cols)) for v, cols in observed.items()}
    return SpectrumReport(
        graph=g,
        classification=classification,
        observed=tuple(sorted(witnesses)),
        bound=bound,
        witnesses=witnesses,
    )
