"""Degree polynomials of vertices and graphs.

The degree polynomial of a vertex v has, as coefficient of x^i, the number
of neighbors of v whose degree is i; the degree polynomial of a graph
counts its vertices by degree.  Collecting the vertex polynomials of a
graph without isolated vertices, non-increasingly, gives its degree
polynomial sequence -- a strictly finer invariant than the degree sequence.

This module also provides the closed forms for the standard families and
for the five graph operations (join, Cartesian, tensor and lexicographic
products, complement), each computable from factor data alone, plus a
cross-checker that compares the closed form against direct construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from . import graphs
from .errors import (
    InconsistentInputsError,
    IsolatedVertexError,
    PolyParseError,
    ZeroEntryError,
)
from .graphs import OpKind, SimpleGraph
from .poly import (
    DegreePoly,
    coeff_sum,
    parse_poly,
    reflect_exponents,
    shift_exponents,
    sort_polys_desc,
    tensor_product,
)


def degree_polynomial(g: SimpleGraph, v) -> DegreePoly:
    """Degree polynomial of a vertex: coefficient of x^i counts neighbors
    of degree i.  The zero polynomial for an isolated vertex."""
    idx = g.vertex_index(v)
    counts: dict[int, int] = {}
    for w in g.adj[idx]:
        d = g.degree(w)
        counts[d] = counts.get(d, 0) + 1
    return DegreePoly._from_counts(counts)


def vertex_polynomial_pairs(g: SimpleGraph) -> list[tuple[tuple[int, int], ...]]:
    """Every vertex's degree polynomial as its stored pairs, in index order:
    its neighbours' (degree, count) pairs, highest degree first, with the
    degrees read once; an isolated vertex gives ``()``.  (On CPython 3.11
    this loop beats ``Counter(map(degrees.__getitem__, row))``.)"""
    degrees = g.degrees()
    pairs = []
    for row in g.adj:
        counts: dict[int, int] = {}
        for w in row:
            d = degrees[w]
            counts[d] = counts.get(d, 0) + 1
        pairs.append(tuple(sorted(counts.items(), reverse=True)))
    return pairs


def vertex_polynomials(g: SimpleGraph) -> tuple[DegreePoly, ...]:
    """Every vertex's degree polynomial, in index order: the same values as
    ``degree_polynomial(g, v)`` for each v.  A vertex's coefficients sum to
    its degree, so each is built unchecked from its pairs."""
    trusted = DegreePoly._from_pairs
    return tuple(map(trusted, vertex_polynomial_pairs(g), map(len, g.adj)))


def graph_degree_polynomial(g: SimpleGraph) -> DegreePoly:
    """Degree polynomial of a graph: coefficient of x^i counts vertices of
    degree i (isolated vertices land on the constant term)."""
    return DegreePoly._from_counts(Counter(g.degrees()))


@dataclass(frozen=True)
class PolySequence:
    """Multiset of nonzero polynomials in canonical non-increasing order.

    Equality is presentation equality; since the presentation is a
    deterministic function of the multiset, equal multisets compare equal.
    """

    entries: tuple[DegreePoly, ...]

    @classmethod
    def from_polys(cls, polys: Iterable[DegreePoly]) -> "PolySequence":
        polys = list(polys)
        for p in polys:
            if p.is_zero:
                raise ZeroEntryError("polynomial sequences cannot contain zero entries")
        return cls(tuple(sort_polys_desc(polys)))

    @classmethod
    def from_pairs(cls, data: Iterable[Iterable[Iterable[int]]]) -> "PolySequence":
        """Decode the structured form: one ``[[exp, coeff], ...]`` list per entry."""
        return cls.from_polys(DegreePoly.from_pairs(entry) for entry in data)

    @classmethod
    def parse(cls, text: str) -> "PolySequence":
        """Parse entries separated by newlines or commas; ``#`` comments."""
        return cls.from_polys(parse_entries(text))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        return ", ".join(str(p) for p in self.entries)

    def multiset(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Order-insensitive key: the entries' ``to_pairs()``, sorted.  The
        realization check in ``realize`` and the grouping in ``classify_all``
        compare a graph's vertex polynomials, in this form, against it; an
        isolated vertex's ``()`` never equals an entry's pairs."""
        return tuple(sorted([p._pairs for p in self.entries]))

    def to_pairs(self) -> list[list[list[int]]]:
        """Structured encoding: one pair list per entry, in presentation order."""
        return [p.to_pairs() for p in self.entries]


def parse_entries(text: str) -> list[DegreePoly]:
    """The entries of a text sequence in input order, unsorted: separated
    by newlines or commas, ``#`` starting a comment."""
    polys = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        for part in line.split(","):
            if not part or part.isspace():
                continue
            try:
                polys.append(parse_poly(part))
            except PolyParseError as exc:
                raise type(exc)(
                    f"line {line_no}: {exc.args[0].rsplit(' (at position', 1)[0]}",
                    exc.position,
                ) from None
    if not polys:
        raise ZeroEntryError("no polynomials in sequence input")
    return polys


def degree_polynomial_sequence(g: SimpleGraph) -> PolySequence:
    """All vertex degree polynomials, presented non-increasingly.

    Rejects graphs with isolated vertices: their zero polynomials have no
    place in the ordering (the graph polynomial still reports them).
    """
    isolated = g.isolated_vertices()
    if isolated:
        raise IsolatedVertexError(g.labels[v] for v in isolated)
    return PolySequence.from_polys(vertex_polynomials(g))


def closed_form_sequence(kind: str, *params: int) -> PolySequence:
    """Degree polynomial sequence of a standard family, without building
    the graph.

    complete(n >= 2): n copies of (n-1)x^(n-1).
    path(n): (x, x) for n=2; (2x, x^2, x^2) for n=3; for n >= 4 two copies
    of x+x^2, two of x^2 and n-4 copies of 2x^2.
    cycle(n >= 3): n copies of 2x^2.
    complete_bipartite(r >= s >= 1): s copies of r*x^s and r copies of s*x^r.
    An order above ``graphs.FAMILY_MAX_N`` raises TooLargeError, as the
    builders do.
    """
    graphs.check_family(kind, *params)
    mono = DegreePoly.monomial
    if kind == "complete":
        (n,) = params
        if n == 1:
            raise IsolatedVertexError(["v0"])
        return PolySequence.from_polys([mono(n - 1, n - 1)] * n)
    if kind == "path":
        (n,) = params
        if n == 2:
            return PolySequence.from_polys([mono(1), mono(1)])
        if n == 3:
            return PolySequence.from_polys([mono(1, 2), mono(2), mono(2)])
        mixed = DegreePoly({1: 1, 2: 1})
        polys = [mono(2, 2)] * (n - 4) + [mixed, mixed, mono(2), mono(2)]
        return PolySequence.from_polys(polys)
    if kind == "cycle":
        (n,) = params
        return PolySequence.from_polys([mono(2, 2)] * n)
    r, s = params  # complete_bipartite
    return PolySequence.from_polys([mono(s, r)] * s + [mono(r, s)] * r)


def regularity_from_sequence(seq: PolySequence) -> Optional[int]:
    """The r such that every entry is r*x^r, or None."""
    r = None
    for p in seq:
        pairs = tuple(p)
        if len(pairs) != 1:
            return None
        exponent, coefficient = pairs[0]
        if exponent != coefficient:
            return None
        if r is None:
            r = exponent
        elif r != exponent:
            return None
    return r


# -- closed forms under the five operations -----------------------------------


def _expect_sum(poly: DegreePoly, expected: int, what: str) -> None:
    if coeff_sum(poly) != expected:
        raise InconsistentInputsError(
            f"{what}: coefficient sum {coeff_sum(poly)} != {expected}"
        )


def _expect_int(value, what: str) -> None:
    """Exponents are exact integers: an order or degree that passes
    ``_expect_sum`` as a float (``2.0 == 2``) still raises TypeError."""
    if not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")


def join_formula(
    vertex_poly: DegreePoly, other_graph_poly: DegreePoly, n_own: int, n_other: int
) -> DegreePoly:
    """Vertex polynomial in a join: x^n_other * dp(u) + x^n_own * dp(H),
    where u lives in the factor of order n_own and H is the other factor.
    H may be empty (n_other = 0, dp(H) = 0): then the result is dp(u)."""
    if n_own < 1:
        raise InconsistentInputsError(
            "the vertex's own join factor must have at least one vertex"
        )
    _expect_sum(other_graph_poly, n_other, "other factor's graph polynomial")
    return (
        shift_exponents(vertex_poly, n_other) + shift_exponents(other_graph_poly, n_own)
    )


def cartesian_formula(
    poly_u: DegreePoly, poly_v: DegreePoly, deg_u: int, deg_v: int
) -> DegreePoly:
    """Vertex polynomial in a Cartesian product:
    x^deg(u) * dp(v) + x^deg(v) * dp(u)."""
    _expect_sum(poly_u, deg_u, "first vertex polynomial")
    _expect_sum(poly_v, deg_v, "second vertex polynomial")
    _expect_int(deg_u, "first degree")
    _expect_int(deg_v, "second degree")
    out = {e + deg_u: c for e, c in poly_v._pairs}
    for e, c in poly_u._pairs:
        e += deg_v
        out[e] = out.get(e, 0) + c
    return DegreePoly._from_counts(out)


def tensor_formula(poly_u: DegreePoly, poly_v: DegreePoly) -> DegreePoly:
    """Vertex polynomial in a tensor product: the polynomial tensor product."""
    return tensor_product(poly_u, poly_v)


def lexicographic_formula(
    poly_u: DegreePoly,
    poly_v: DegreePoly,
    second_graph_poly: DegreePoly,
    deg_u: int,
    n_second: int,
) -> DegreePoly:
    """Vertex polynomial in a lexicographic product G[H]:
    (dp(u) with exponents scaled by |H|) * dp(H) + x^(deg(u)*|H|) * dp(v)."""
    if n_second < 1:
        raise InconsistentInputsError("second factor must have at least one vertex")
    _expect_sum(poly_u, deg_u, "first-factor vertex polynomial")
    _expect_sum(second_graph_poly, n_second, "second factor's graph polynomial")
    _expect_int(n_second, "second factor's order")
    _expect_int(deg_u, "first-factor degree")
    out: dict[int, int] = {}
    h_pairs = second_graph_poly._pairs
    for eu, cu in poly_u._pairs:
        eu *= n_second
        for eh, ch in h_pairs:
            e = eu + eh
            out[e] = out.get(e, 0) + cu * ch
    shift = deg_u * n_second
    for e, c in poly_v._pairs:
        e += shift
        out[e] = out.get(e, 0) + c
    return DegreePoly._from_counts(out)


def complement_formula(
    graph_poly: DegreePoly, vertex_poly: DegreePoly, deg_u: int, n: int
) -> DegreePoly:
    """Vertex polynomial in the complement: subtract the vertex's own
    contribution from the graph polynomial and reflect exponents at n-1."""
    if n < 1:
        raise InconsistentInputsError("graph order must be at least 1")
    _expect_sum(graph_poly, n, "graph polynomial")
    _expect_sum(vertex_poly, deg_u, "vertex polynomial")
    difference = graph_poly - vertex_poly - DegreePoly.monomial(deg_u)
    return reflect_exponents(difference, n - 1)


# -- cross-checking the closed forms against direct construction ----------------


@dataclass(frozen=True)
class VertexCheck:
    label: str
    direct: DegreePoly
    via_formula: DegreePoly

    @property
    def match(self) -> bool:
        return self.direct == self.via_formula


@dataclass(frozen=True)
class OperationCheck:
    op: OpKind
    result: SimpleGraph
    checks: tuple[VertexCheck, ...]

    @property
    def vertices_checked(self) -> int:
        return len(self.checks)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @cached_property
    def mismatches(self) -> tuple[VertexCheck, ...]:
        """The checks that disagree, found once: ``ok``, ``to_dict()`` and
        the CLI all read them."""
        return tuple(c for c in self.checks if not c.match)

    def to_dict(self) -> dict:
        return {
            "op": self.op.value,
            "vertices_checked": self.vertices_checked,
            "ok": self.ok,
            "mismatches": [
                {
                    "vertex": c.label,
                    "direct": c.direct.to_pairs(),
                    "via_formula": c.via_formula.to_pairs(),
                }
                for c in self.mismatches
            ],
        }


def verify_operation(
    op, g: SimpleGraph, h: Optional[SimpleGraph] = None
) -> OperationCheck:
    """Build the operation result, then recompute every vertex's degree
    polynomial twice: directly on the result, and via the closed form from
    factor data only.  The two must agree vertex by vertex."""
    op = OpKind(op)
    result = graphs.apply_operation(op, g, h)
    gp, gd, dp_g = vertex_polynomials(g), g.degrees(), graph_degree_polynomial(g)
    if op is OpKind.COMPLEMENT:
        expected = [complement_formula(dp_g, p, d, g.n) for p, d in zip(gp, gd)]
    elif op is OpKind.JOIN:
        # G's side, then H's side with the factor roles swapped.
        dp_h = graph_degree_polynomial(h)
        expected = [join_formula(p, dp_h, g.n, h.n) for p in gp]
        expected += [join_formula(p, dp_g, h.n, g.n) for p in vertex_polynomials(h)]
    else:
        hp, hd, dp_h = vertex_polynomials(h), h.degrees(), graph_degree_polynomial(h)
        formula = {
            OpKind.CARTESIAN: lambda u, a: cartesian_formula(gp[u], hp[a], gd[u], hd[a]),
            OpKind.TENSOR: lambda u, a: tensor_formula(gp[u], hp[a]),
            OpKind.LEXICOGRAPHIC: lambda u, a: lexicographic_formula(
                gp[u], hp[a], dp_h, gd[u], h.n
            ),
        }[op]
        expected = graphs.product_map(g, h, formula)
    direct = vertex_polynomials(result)
    checks = tuple(
        VertexCheck(result.labels[v], direct[v], expected[v])
        for v in range(result.n)
    )
    return OperationCheck(op, result, checks)


# -- per-graph report -----------------------------------------------------------


@dataclass(frozen=True)
class DpReport:
    """Everything the CLI prints for one graph."""

    graph: SimpleGraph
    vertex_polys: tuple[DegreePoly, ...]
    graph_poly: DegreePoly
    sequence: Optional[PolySequence]
    regular_r: Optional[int]
    sums_match_degrees: bool

    def to_dict(self) -> dict:
        return {
            "n": self.graph.n,
            "edge_count": self.graph.edge_count,
            "vertices": [
                {
                    "label": self.graph.labels[v],
                    "degree": self.graph.degree(v),
                    "dp": self.vertex_polys[v].to_pairs(),
                }
                for v in range(self.graph.n)
            ],
            "graph_dp": self.graph_poly.to_pairs(),
            "sequence": self.sequence.to_pairs() if self.sequence else None,
            "regular_r": self.regular_r,
            "sums_match_degrees": self.sums_match_degrees,
        }


def dp_report(g: SimpleGraph) -> DpReport:
    vertex_polys = vertex_polynomials(g)
    sums_ok = all(
        coeff_sum(p) == d for p, d in zip(vertex_polys, g.degrees())
    )
    sequence = None
    regular_r = None
    if not g.isolated_vertices():
        sequence = PolySequence.from_polys(vertex_polys)
        regular_r = regularity_from_sequence(sequence)
    return DpReport(
        graph=g,
        vertex_polys=vertex_polys,
        graph_poly=graph_degree_polynomial(g),
        sequence=sequence,
        regular_r=regular_r,
        sums_match_degrees=sums_ok,
    )
