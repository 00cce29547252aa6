"""Simple undirected graphs: construction, families, the five operations,
and exact canonical labeling for isomorphism checks.

Graphs are immutable after construction (frozen dataclass with frozenset
adjacency rows), so every operation is a pure function returning a new
graph.  The four products share one vertex layout, row-major: vertex
(u, a) of a product of G and H has index u*|H| + a.  It is written down in
this module only, by ``_product`` and by ``product_map``, which also gives
``dp.verify_operation`` its vertex order.  A join lists G's vertices, then
H's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    BadParamsError,
    BadVertexError,
    EdgeListFormatError,
    EmptyInputError,
    SelfLoopError,
    TooLargeError,
)

CANONICAL_FORM_MAX_N = 16


@dataclass(frozen=True)
class SimpleGraph:
    """Finite simple undirected graph over vertex indices 0..n-1."""

    n: int
    labels: tuple[str, ...]
    adj: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.labels) != self.n or len(self.adj) != self.n:
            raise ValueError("inconsistent graph fields")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> "SimpleGraph":
        """Build a graph; duplicate edges collapse silently, self-loops raise."""
        if labels is None:
            labels = tuple(f"v{i}" for i in range(n))
        else:
            labels = tuple(labels)
        rows: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise BadVertexError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {labels[u]}")
            rows[u].add(v)
            rows[v].add(u)
        return cls(n, labels, tuple(frozenset(r) for r in rows))

    # -- queries -------------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.adj)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (i, j) with i < j, sorted lexicographically."""
        return tuple(
            (u, v) for u, row in enumerate(self.adj) for v in sorted(row) if v > u
        )

    @property
    def edge_count(self) -> int:
        return sum(len(r) for r in self.adj) // 2

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.adj[v])

    def vertex_index(self, ref) -> int:
        """Resolve an int index or a label string to a vertex index."""
        if isinstance(ref, int):
            if 0 <= ref < self.n:
                return ref
            raise BadVertexError(f"no vertex {ref} in a graph of order {self.n}")
        try:
            return self.labels.index(ref)
        except ValueError:
            raise BadVertexError(f"no vertex labeled {ref!r}") from None

    def relabel(self, perm: Sequence[int]) -> "SimpleGraph":
        """Return an isomorphic copy where old vertex v becomes perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation")
        labels = [""] * self.n
        for old, new in enumerate(perm):
            labels[new] = self.labels[old]
        edges = [(perm[u], perm[v]) for u, v in self.edges()]
        return SimpleGraph.from_edges(self.n, edges, labels)

    def to_dict(self) -> dict:
        """Structured encoding: order, labels and the sorted edge list."""
        return {
            "n": self.n,
            "labels": list(self.labels),
            "edges": [
                [u, v] for u, row in enumerate(self.adj) for v in sorted(row) if v > u
            ],
        }


# -- edge-list text format -----------------------------------------------------


@dataclass(frozen=True)
class EdgeListResult:
    """Parsed edge list: the graph plus any collapsed duplicate edges."""

    graph: SimpleGraph
    duplicate_edges: tuple[tuple[int, int], ...]

    @property
    def had_duplicates(self) -> bool:
        return bool(self.duplicate_edges)


def from_edge_list(text: str) -> EdgeListResult:
    """Parse lines of ``u v`` token pairs into a graph.

    Vertices are created in first-appearance order; a single-token line
    declares an isolated vertex; ``#`` starts a comment.  The adjacency rows
    are built in the same pass over the lines: an edge already in its row
    is a duplicate, reported as ``(min, max)`` in order of appearance.
    """
    index: dict[str, int] = {}  # label -> vertex, in first-appearance order
    rows: list[set[int]] = []  # grows as vertices first appear
    duplicates: list[tuple[int, int]] = []
    comments = "#" in text
    for line_no, line in enumerate(text.splitlines(), start=1):
        if comments:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if len(tokens) == 2:
            a, b = tokens
            u = index.get(a)
            if u is None:
                u = index[a] = len(rows)
                rows.append(set())
            v = index.get(b)
            if v is None:
                v = index[b] = len(rows)
                rows.append(set())
            if u == v:
                raise SelfLoopError(f"line {line_no}: self-loop at vertex {a!r}")
            row = rows[u]
            if v in row:
                duplicates.append((u, v) if u < v else (v, u))
            else:
                row.add(v)
                rows[v].add(u)
        elif len(tokens) == 1:
            if tokens[0] not in index:
                index[tokens[0]] = len(rows)
                rows.append(set())
        elif tokens:
            raise EdgeListFormatError(
                f"line {line_no}: expected 1 or 2 tokens, got {line.strip()!r}"
            )
    if not rows:
        raise EmptyInputError("edge list describes no vertices")
    graph = SimpleGraph(len(rows), tuple(index), tuple(map(frozenset, rows)))
    return EdgeListResult(graph, tuple(duplicates))


# -- families --------------------------------------------------------------------


def empty_graph(n: int, labels: Optional[Sequence[str]] = None) -> SimpleGraph:
    if n < 0:
        raise BadParamsError(f"empty graph needs n >= 0, got {n}")
    return SimpleGraph.from_edges(n, (), labels)


def complete_graph(n: int) -> SimpleGraph:
    check_family("complete", n)
    return SimpleGraph.from_edges(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> SimpleGraph:
    check_family("path", n)
    return SimpleGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> SimpleGraph:
    check_family("cycle", n)
    return SimpleGraph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_bipartite_graph(r: int, s: int) -> SimpleGraph:
    check_family("complete_bipartite", r, s)
    edges = ((i, r + j) for i in range(r) for j in range(s))
    return SimpleGraph.from_edges(r + s, edges)


@dataclass(frozen=True)
class _Family:
    arity: int
    valid: Callable[..., bool]
    requirement: str
    build: Callable[..., SimpleGraph]


# The one table of standard families: the builders, ``family``, the CLI's
# choices and ``dp.closed_form_sequence`` all check parameters through it.
_FAMILIES = {
    "complete": _Family(
        1, lambda n: n >= 1, "complete graph needs n >= 1", complete_graph
    ),
    "path": _Family(1, lambda n: n >= 2, "path needs n >= 2", path_graph),
    "cycle": _Family(1, lambda n: n >= 3, "cycle needs n >= 3", cycle_graph),
    "complete_bipartite": _Family(
        2,
        lambda r, s: r >= s >= 1,
        "complete bipartite needs r >= s >= 1",
        complete_bipartite_graph,
    ),
}
FAMILY_KINDS = tuple(_FAMILIES)
# Order bound of every family (r + s vertices for complete_bipartite), so
# that no accepted call runs unbounded: the slowest it admits, ``degpoly
# family complete 1800`` (1.6 M edges), takes about 2 s on a 2-core host
# with CPython 3.11.
FAMILY_MAX_N = 1800


def _family_spec(kind: str, params: tuple[int, ...]) -> _Family:
    spec = _FAMILIES.get(kind)
    if spec is None:
        raise BadParamsError(f"unknown family {kind!r}; known: {', '.join(FAMILY_KINDS)}")
    if len(params) != spec.arity:
        raise BadParamsError(
            f"family {kind!r} takes {spec.arity} parameter(s), got {len(params)}"
        )
    return spec


def check_family(kind: str, *params: int) -> None:
    """Raise BadParamsError unless ``kind`` names a standard family and
    ``params`` meet its arity and bounds, and TooLargeError if the graph
    would have more than ``FAMILY_MAX_N`` vertices."""
    spec = _family_spec(kind, params)
    if not spec.valid(*params):
        got = params[0] if spec.arity == 1 else params
        raise BadParamsError(f"{spec.requirement}, got {got}")
    order = sum(params)
    if order > FAMILY_MAX_N:
        raise TooLargeError(
            f"family graphs limited to n <= {FAMILY_MAX_N}, got {order}"
        )


def family(kind: str, *params: int) -> SimpleGraph:
    """Dispatch to a standard family by name; the builder checks bounds."""
    return _family_spec(kind, params).build(*params)


# -- the five operations ----------------------------------------------------------


# Bound on the order plus the edge count of an operation result.  Vertices
# cost most: the slowest result it admits, ``op cartesian --verify`` of two
# edgeless 316-vertex graphs, takes about 1.5 s on a 2-core host.
OP_MAX_SIZE = 100_000


class OpKind(str, Enum):
    JOIN = "join"
    CARTESIAN = "cartesian"
    TENSOR = "tensor"
    LEXICOGRAPHIC = "lexicographic"
    COMPLEMENT = "complement"


def complement(g: SimpleGraph) -> SimpleGraph:
    everyone = frozenset(range(g.n))
    adj = tuple(everyone - row - {u} for u, row in enumerate(g.adj))
    return SimpleGraph(g.n, g.labels, adj)


def join(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """Disjoint union plus every edge between the two sides.  G's vertices
    come first, then H's vertex a as n_G + a; its label gets primes added
    until neither G nor an H vertex placed before it uses the label."""
    n1, n2 = g.n, h.n
    g_side, h_side = frozenset(range(n1)), frozenset(range(n1, n1 + n2))
    taken = set(g.labels)
    h_labels = []
    for label in h.labels:
        while label in taken:
            label += "'"
        taken.add(label)
        h_labels.append(label)
    labels = g.labels + tuple(h_labels)
    adj = tuple(row | h_side for row in g.adj)
    adj += tuple(frozenset(n1 + b for b in row) | g_side for row in h.adj)
    return SimpleGraph(n1 + n2, labels, adj)


def product_map(g: SimpleGraph, h: SimpleGraph, fn: Callable[[int, int], object]) -> list:
    """``fn(u, a)`` for every vertex (u, a) of a product of g and h, in the
    product's index order: (u, a) is vertex u*|H| + a."""
    return [fn(u, a) for u in range(g.n) for a in range(h.n)]


def _product(g: SimpleGraph, h: SimpleGraph, neighbourhood: Callable) -> SimpleGraph:
    """The product of g and h in which N(u, a) is the union of S x T over
    the pairs (S, T) of factor vertex sets that ``neighbourhood(u, a)``
    returns.  Vertex (u, a) is labeled ``(label_u,label_a)``."""
    n2 = h.n
    labels = product_map(g, h, lambda u, a: f"({g.labels[u]},{h.labels[a]})")
    adj = product_map(g, h, lambda u, a: frozenset(
        v * n2 + b for s, t in neighbourhood(u, a) for v in s for b in t
    ))
    return SimpleGraph(g.n * n2, tuple(labels), tuple(adj))


def cartesian_product(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """N(u, a) = {u} x N_H(a) | N_G(u) x {a}."""
    return _product(g, h, lambda u, a: (((u,), h.adj[a]), (g.adj[u], (a,))))


def tensor_product(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """N(u, a) = N_G(u) x N_H(a)."""
    return _product(g, h, lambda u, a: ((g.adj[u], h.adj[a]),))


def lexicographic_product(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """N(u, a) = {u} x N_H(a) | N_G(u) x V(H)."""
    everyone = range(h.n)
    return _product(g, h, lambda u, a: (((u,), h.adj[a]), (g.adj[u], everyone)))


def apply_operation(op, g: SimpleGraph, h: Optional[SimpleGraph] = None) -> SimpleGraph:
    """The result of ``op``; TooLargeError if its order plus its edge count,
    worked out from the factors before building, exceeds ``OP_MAX_SIZE``."""
    op = OpKind(op)
    if op is OpKind.COMPLEMENT and h is not None:
        raise BadParamsError("complement takes a single graph")
    if op is not OpKind.COMPLEMENT and h is None:
        raise BadParamsError(f"{op.value} takes two graphs")
    n1, m1 = g.n, g.edge_count
    n2, m2 = (0, 0) if h is None else (h.n, h.edge_count)
    build, n, m = {
        OpKind.COMPLEMENT: (complement, n1, n1 * (n1 - 1) // 2 - m1),
        OpKind.JOIN: (join, n1 + n2, m1 + m2 + n1 * n2),
        OpKind.CARTESIAN: (cartesian_product, n1 * n2, n1 * m2 + n2 * m1),
        OpKind.TENSOR: (tensor_product, n1 * n2, 2 * m1 * m2),
        OpKind.LEXICOGRAPHIC: (lexicographic_product, n1 * n2, n1 * m2 + m1 * n2 * n2),
    }[op]
    if n + m > OP_MAX_SIZE:
        raise TooLargeError(
            f"operation results limited to n + m <= {OP_MAX_SIZE}, got {n + m}"
        )
    return build(g) if h is None else build(g, h)


# -- canonical labeling ------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Permutation-invariant encoding; equal forms iff isomorphic graphs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def graph(self) -> SimpleGraph:
        """The graph on vertices 0..n-1 with exactly these edges."""
        return SimpleGraph.from_edges(self.n, self.edges)

    def to_dict(self) -> dict:
        """Structured encoding: order and the canonical edge list."""
        return {"n": self.n, "edges": [list(e) for e in self.edges]}


def _refine(
    adj_masks: list[int],
    cells: list[list[int]],
    splitters: Optional[list[list[int]]] = None,
) -> list[list[int]]:
    """Refine an ordered partition to equitability.

    Vertices are split by their neighbor counts into the ``splitters``
    (every cell by default; [v] and rest for a child node); sub-cells are
    ordered by signature, so the cell order depends only on the graph
    structure.  Later rounds count only against the pieces of the cells the
    round before split: any other cell gives equal counts to all members of
    a cell, so it would not change the buckets or their order (McKay &
    Piperno, J. Symb. Comput. 2014, section 4).
    """
    if splitters is None:
        splitters = cells
    while splitters:
        masks = [sum(1 << v for v in cell) for cell in splitters]
        new_cells: list[list[int]] = []
        splitters = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                row = adj_masks[v]
                sig = tuple((row & m).bit_count() for m in masks)
                buckets.setdefault(sig, []).append(v)
            pieces = [sorted(buckets[sig]) for sig in sorted(buckets)]
            new_cells += pieces
            if len(pieces) > 1:
                splitters += pieces
        cells = new_cells
    return cells


def _cells_homogeneous(adj_masks: list[int], cells: list[list[int]]) -> bool:
    """True when every cell pair is fully joined or fully disjoint.

    For an equitable partition this means any cell-respecting bijection is
    an automorphism, so no individualization branching is needed.
    """
    cell_masks = [sum(1 << v for v in cell) for cell in cells]
    for i, cell in enumerate(cells):
        v0 = cell[0]
        for j, mask in enumerate(cell_masks):
            count = (adj_masks[v0] & mask).bit_count()
            full = len(cells[j]) - (1 if i == j else 0)
            if count not in (0, full):
                return False
    return True


def _encode(n: int, adj_masks: list[int], order: list[int]) -> tuple[tuple[int, int], ...]:
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    relabeled = []
    for u in range(n):
        mask = adj_masks[u]
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if v > u:
                a, b = pos[u], pos[v]
                relabeled.append((a, b) if a < b else (b, a))
    return tuple(sorted(relabeled))


def _twin_automorphisms(n: int, adj_masks: list[int]) -> list[list[int]]:
    """Transpositions of consecutive members of every twin class.

    Open twins share ``adj_masks``; closed twins share it once their own bit
    is added.  Swapping two twins is an automorphism, and the transpositions
    of consecutive members generate every permutation of the class, also
    after its first members have been individualized."""
    autos = []
    for own in (0, 1):  # 1 adds each vertex's own bit: closed twins
        classes: dict[int, list[int]] = {}
        for v in range(n):
            classes.setdefault(adj_masks[v] | own << v, []).append(v)
        for members in classes.values():
            for a, b in zip(members, members[1:]):
                gamma = list(range(n))
                gamma[a], gamma[b] = b, a
                autos.append(gamma)
    return autos


def canonical_encoding(n: int, adj_masks: list[int]) -> tuple[tuple[int, int], ...]:
    """Canonical edge encoding from adjacency bitmasks.

    Degree partition refinement plus individualization backtracking; the
    minimum edge encoding over all leaves (discrete or homogeneous
    partitions) is taken, which is labeling-invariant.

    The tree is pruned by automorphisms: the twin swaps, plus every
    gamma = best_order o order^-1 met at a leaf whose encoding equals the
    best so far.  At a node whose individualized vertices are P, a child v
    is skipped when it shares an orbit with a child already tried, under the
    automorphisms found so far that fix every vertex of P.  Such an
    automorphism maps the two child subtrees onto each other: refinement,
    the target cell and the order of sub-cells depend only on structure, so
    it maps every node's cells (as sets) to the matching node's cells, and
    at a leaf the encoding depends only on those sets, since a homogeneous
    cell's internal order does not change it.  The skipped subtree thus
    holds the same leaf encodings as one already searched, and the minimum
    is unchanged.  Until an automorphism is known no orbits are kept."""
    if n == 0:
        return ()
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(adj_masks[v].bit_count(), []).append(v)
    initial = [sorted(by_degree[d]) for d in sorted(by_degree)]

    best: Optional[tuple] = None
    best_order: list[int] = []
    autos: list[list[int]] = []  # seeded with the twin swaps at the first branching

    def descend(
        cells: list[list[int]], fixed: list[int], splitters: Optional[list]
    ) -> None:
        nonlocal best, best_order, autos
        cells = _refine(adj_masks, cells, splitters)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None or _cells_homogeneous(adj_masks, cells):
            order = [v for cell in cells for v in cell]
            enc = _encode(n, adj_masks, order)
            if best is None or enc < best:
                best, best_order = enc, order
            elif enc == best:
                gamma = [0] * n
                for v, w in zip(order, best_order):
                    gamma[v] = w
                autos.append(gamma)
            return
        if not fixed:
            autos = _twin_automorphisms(n, adj_masks)
        cell = cells[target]
        orbit: list[int] = []  # orbit representative of each vertex
        used = 0  # automorphisms already merged into ``orbit``
        tried: list[int] = []
        for v in cell:
            if used < len(autos):
                if not orbit:
                    orbit = list(range(n))
                for gamma in autos[used:]:
                    if all(gamma[p] == p for p in fixed):
                        for x, y in enumerate(gamma):
                            a, b = orbit[x], orbit[y]
                            if a != b:
                                orbit = [a if o == b else o for o in orbit]
                used = len(autos)
            if orbit and any(orbit[v] == orbit[t] for t in tried):
                continue
            split = [[v], [w for w in cell if w != v]]
            descend(cells[:target] + split + cells[target + 1 :], fixed + [v], split)
            tried.append(v)

    descend(initial, [], None)
    assert best is not None
    return best


def canonical_form(g: SimpleGraph) -> CanonicalForm:
    """Exact canonical form: equal results iff the graphs are isomorphic."""
    if g.n > CANONICAL_FORM_MAX_N:
        raise TooLargeError(
            f"canonical form limited to n <= {CANONICAL_FORM_MAX_N}, got {g.n}"
        )
    adj_masks = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    return CanonicalForm(g.n, canonical_encoding(g.n, adj_masks))


# -- DOT emission --------------------------------------------------------------------


def emit_dot(g: SimpleGraph) -> str:
    """Undirected DOT text: one edge per line, isolated vertices as bare
    nodes, everything in vertex index order."""

    def quote(label: str) -> str:
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph {"]
    for v in g.isolated_vertices():
        lines.append(f"  {quote(g.labels[v])};")
    for u, v in g.edges():
        lines.append(f"  {quote(g.labels[u])} -- {quote(g.labels[v])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
