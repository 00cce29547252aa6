"""Simple undirected graphs: construction, families, the five operations,
and exact canonical labeling for isomorphism checks.

Graphs are immutable after construction (frozen dataclass with frozenset
adjacency rows), so every operation is a pure function returning a new
graph.  The four products share one vertex layout, row-major: vertex
(u, a) of a product of G and H has index u*|H| + a, the order of
``product_map``, which also gives ``dp.verify_operation`` its vertex
order.  A join lists G's vertices, then H's.  Each product row is a union
of per-factor pieces, built with C-level set operations instead of a loop
over vertex pairs: ``copies[u][a]``, H's row a shifted into copy u, is
built once, and so is the block N_G(u) x V(H) of each u.  A Cartesian row
is {u} x N_H(a) beside N_G(u) x {a}; a tensor row is the union of
``copies[v][a]`` over v in N_G(u); a lexicographic row is ``copies[u][a]``
with u's block.

Canonical labeling (``canonical_encoding``) refines the degree partition,
individualizes a vertex of the first non-singleton cell and recurses.  On
an equitable partition a cell is homogeneous toward every cell exactly when
its members are twins (equal open or closed neighbourhoods), so a node is a
leaf once every cell lies in one twin class; children are pruned by orbits
that start from the twin classes and grow by the automorphisms the leaves
show.  Each leaf is one int, its certificate: one bit per vertex pair,
pairs in lexicographic order with (0, 1) as the most significant, set for
an edge.  The largest certificate wins, and ``canonical_form`` decodes it
once into the edge list.  Refinement counts neighbours only in the cells
that can split another: the pieces of the cells the round before split,
less the last piece of each, whose count is a per-cell constant minus the
others.
"""

from __future__ import annotations

import bisect
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
        for v, row in enumerate(rows):  # in place, so each set is freed as it freezes
            rows[v] = frozenset(row)
        return cls(n, labels, tuple(rows))

    # -- queries -------------------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.adj)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (i, j) with i < j, sorted lexicographically: each
        sorted row's tail past its own index."""
        edges: list[tuple[int, int]] = []
        for u, row in enumerate(map(sorted, self.adj)):
            edges += zip(itertools.repeat(u), row[bisect.bisect(row, u) :])
        return tuple(edges)

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
        """Structured encoding: order, labels and the sorted edge tuple."""
        return {"n": self.n, "labels": list(self.labels), "edges": self.edges()}


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
    for v, row in enumerate(rows):  # in place, so each set is freed as it freezes
        rows[v] = frozenset(row)
    graph = SimpleGraph(len(rows), tuple(index), tuple(rows))
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
# edgeless 316-vertex graphs, takes about 0.6 s on a 2-core host with
# CPython 3.11, start-up included.
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


def _product_graph(g: SimpleGraph, h: SimpleGraph, adj: Iterable[frozenset[int]]) -> SimpleGraph:
    """The product of g and h with these rows, in ``product_map`` order;
    vertex (u, a) is labeled ``(label_u,label_a)``."""
    labels = tuple(f"({x},{y})" for x in g.labels for y in h.labels)
    return SimpleGraph(g.n * h.n, labels, tuple(adj))


def _copies(g: SimpleGraph, h: SimpleGraph) -> list[list[frozenset[int]]]:
    """``copies[u][a]`` = {u} x N_H(a): H's row a shifted into copy u."""
    return [[frozenset(map((u * h.n).__add__, row)) for row in h.adj] for u in range(g.n)]


def cartesian_product(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """N(u, a) = {u} x N_H(a) | N_G(u) x {a}."""
    n2 = h.n
    return _product_graph(g, h, (
        frozenset([u * n2 + b for b in row_h] + [v * n2 + a for v in row_g])
        for u, row_g in enumerate(g.adj)
        for a, row_h in enumerate(h.adj)
    ))


def tensor_product(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """N(u, a) = N_G(u) x N_H(a): the union of the copies of H's row a over
    u's neighbours."""
    copies = _copies(g, h)
    empty = frozenset()
    return _product_graph(g, h, (
        empty.union(*[copies[v][a] for v in row_g])
        for row_g in g.adj
        for a in range(h.n)
    ))


def lexicographic_product(g: SimpleGraph, h: SimpleGraph) -> SimpleGraph:
    """N(u, a) = {u} x N_H(a) | N_G(u) x V(H): u's copy of H's row a with
    the whole copies of H at u's neighbours."""
    n2 = h.n
    copies = _copies(g, h)
    empty = frozenset()
    rows = []
    for copy, row_g in zip(copies, g.adj):
        block = empty.union(*[range(v * n2, v * n2 + n2) for v in row_g])
        rows += [row | block for row in copy]
    return _product_graph(g, h, rows)


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

    @classmethod
    def from_certificate(cls, n: int, cert: int) -> "CanonicalForm":
        """Decode a ``canonical_encoding`` certificate."""
        return cls(n, _decode(n, cert))

    def graph(self) -> SimpleGraph:
        """The graph on vertices 0..n-1 with exactly these edges."""
        return SimpleGraph.from_edges(self.n, self.edges)

    def to_dict(self) -> dict:
        """Structured encoding: order and the canonical edge tuple."""
        return {"n": self.n, "edges": self.edges}


def _refine(
    adj_masks: list[int],
    cells: list[list[int]],
    masks: list[int],
    splitters: list[int],
) -> tuple[list[list[int]], list[int]]:
    """Refine an ordered partition to equitability.

    ``masks`` holds each cell's vertex bitmask and ``splitters`` the masks
    to count against first; returns the refined cells and their masks.
    Each round splits every cell by its members' neighbor counts into the
    splitters, read as one int whose base-(n+1) digits are the counts, and
    orders the sub-cells by that key, so the cell order depends only on the
    graph structure.  A round counts only against the pieces of the cells
    the round before split: any other cell gives equal counts to all
    members of a cell, so it would not change the buckets or their order
    (McKay & Piperno, J. Symb. Comput. 2014, section 4).  Nor is the last
    piece of a split cell counted: every cell has equal counts into the
    whole of the split cell, so a member's count into the last piece is a
    per-cell constant minus its counts into the pieces before it, whose
    digits come just before it in the key.  The caller applies the same
    rule to the first round: it passes every degree cell but the last at
    the root, and only {v} at a child node."""
    base = len(adj_masks) + 1
    while splitters:
        new_cells: list[list[int]] = []
        new_masks: list[int] = []
        next_splitters: list[int] = []
        for cell, mask in zip(cells, masks):
            if len(cell) == 1:
                new_cells.append(cell)
                new_masks.append(mask)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                row = adj_masks[v]
                key = 0
                for s in splitters:
                    key = key * base + (row & s).bit_count()
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [v]
                else:
                    bucket.append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
                new_masks.append(mask)
                continue
            pieces = [buckets[key] for key in sorted(buckets)]
            last = mask
            for piece in pieces[:-1]:
                piece_mask = sum(1 << v for v in piece)
                last ^= piece_mask
                new_masks.append(piece_mask)
                next_splitters.append(piece_mask)
            new_masks.append(last)
            new_cells += pieces
        cells, masks, splitters = new_cells, new_masks, next_splitters
    return cells, masks


def _certificate(adj_masks: list[int], order: list[int]) -> int:
    """The graph relabeled by ``order`` (new vertex i is old ``order[i]``)
    as one int: a bit per vertex pair, pairs in lexicographic order with
    (0, 1) as the most significant bit, set when the pair is an edge."""
    cert = 0
    for i, v in enumerate(order):
        row = adj_masks[v]
        for w in order[i + 1 :]:
            cert = cert << 1 | row >> w & 1
    return cert


def _decode(n: int, cert: int) -> tuple[tuple[int, int], ...]:
    """The sorted edge tuple of a certificate of order n.  Vertex a's pairs
    (a, a+1), ..., (a, n-1) are one run of n-1-a bits, in which the pair
    (a, b) has bit n-1-b; set bits are read from the highest down."""
    edges = []
    shift = n * (n - 1) // 2
    for a in range(n - 1):
        shift -= n - 1 - a
        row = cert >> shift & ((1 << (n - 1 - a)) - 1)
        while row:
            top = row.bit_length()
            edges.append((a, n - top))
            row ^= 1 << (top - 1)
    return tuple(edges)


def _twin_representatives(n: int, adj_masks: list[int]) -> list[int]:
    """The first vertex of each vertex's twin class.  Open twins share
    ``adj_masks``, closed twins share it once their own bit is added.  A
    vertex first in its open class takes the first of its closed class, as
    no vertex has both kinds: an open twin u and a closed twin w of v would
    put u in N(w), so in N(v) = N(u)."""
    opened: dict[int, int] = {}
    closed: dict[int, int] = {}
    twins = []
    for v in range(n):
        mask = adj_masks[v]
        u = opened.setdefault(mask, v)
        twins.append(u if u != v else closed.setdefault(mask | 1 << v, v))
    return twins


def canonical_encoding(n: int, adj_masks: list[int]) -> int:
    """Canonical certificate from adjacency bitmasks.

    Degree partition refinement plus individualization backtracking; the
    largest ``_certificate`` over all leaves is taken, which is
    labeling-invariant.  All leaves of one graph have the same number of
    edges, so the largest certificate is the one whose sorted edge tuple
    (``_decode``) is smallest.

    Twin classes (``_twin_representatives``) serve twice.  On an equitable
    partition a cell is fully joined or fully disjoint to every cell, itself
    included, exactly when its members are pairwise twins; a node whose
    cells lie in twin classes is a leaf, as any cell-respecting bijection is
    then an automorphism.  And twins not yet individualized share an orbit
    of the prefix's pointwise stabilizer, so each branching node starts its
    orbits from the twin classes and merges the automorphisms
    gamma = best_order o order^-1 of the leaves that tied the best and fix
    every individualized vertex.  A child sharing an orbit with one already
    tried is skipped: the automorphism maps the two subtrees onto each
    other, since refinement, the target cell and the order of sub-cells
    depend only on structure, so the skipped one holds the same leaf
    certificates."""
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(adj_masks[v].bit_count(), []).append(v)
    initial = [by_degree[d] for d in sorted(by_degree)]
    initial_masks = [sum(1 << v for v in cell) for cell in initial]
    twins: list[int] = []  # computed at the first non-discrete refinement

    best = -1
    best_order: list[int] = []
    autos: list[list[int]] = []

    def descend(
        cells: list[list[int]], masks: list[int], fixed: list[int], splitters: list[int]
    ) -> None:
        nonlocal best, best_order, twins
        cells, masks = _refine(adj_masks, cells, masks, splitters)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is not None and not twins:
            twins = _twin_representatives(n, adj_masks)
        if target is None or all(twins[v] == twins[c[0]] for c in cells for v in c):
            order = [v for cell in cells for v in cell]
            cert = _certificate(adj_masks, order)
            if cert > best:
                best, best_order = cert, order
            elif cert == best:
                gamma = [0] * n
                for v, w in zip(order, best_order):
                    gamma[v] = w
                autos.append(gamma)
            return
        cell, mask = cells[target], masks[target]
        # Orbit representative of each vertex; an individualized twin keeps its
        # class's label, harmless as it is no child and every merged gamma fixes it.
        orbit = twins[:]
        used = 0  # automorphisms already merged into ``orbit``
        tried: list[int] = []
        for v in cell:
            for gamma in autos[used:]:
                if all(gamma[p] == p for p in fixed):
                    for x, y in enumerate(gamma):
                        a, b = orbit[x], orbit[y]
                        if a != b:
                            orbit = [a if o == b else o for o in orbit]
            used = len(autos)
            if any(orbit[v] == orbit[t] for t in tried):
                continue
            bit = 1 << v
            descend(
                cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1 :],
                masks[:target] + [bit, mask ^ bit] + masks[target + 1 :],
                fixed + [v],
                [bit],
            )
            tried.append(v)

    try:
        descend(initial, initial_masks, [], initial_masks[:-1])
    finally:
        del descend  # it refers to itself through its closure cell
    return best


def canonical_form(g: SimpleGraph) -> CanonicalForm:
    """Exact canonical form: equal results iff the graphs are isomorphic."""
    if g.n > CANONICAL_FORM_MAX_N:
        raise TooLargeError(
            f"canonical form limited to n <= {CANONICAL_FORM_MAX_N}, got {g.n}"
        )
    adj_masks = [sum(1 << w for w in row) for row in g.adj]
    return CanonicalForm.from_certificate(g.n, canonical_encoding(g.n, adj_masks))


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
