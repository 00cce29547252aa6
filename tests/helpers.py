"""Shared test utilities: independent brute-force oracles and graph builders.

Everything here is deliberately dumb and slow: these are the reference
paths that the library's faster implementations are checked against.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from typing import Optional

from degpoly import DegreePoly, PolySequence, SimpleGraph, canonical_form
from degpoly.errors import (
    EdgeListFormatError,
    EmptyInputError,
    SelfLoopError,
    ZeroOperandError,
)
from degpoly.graphs import (
    EdgeListResult,
    OpKind,
    _cells_homogeneous,
    _encode,
)
from degpoly.poly import presentation_key
from degpoly.realizability import (
    RealizabilityReport,
    _twin_prefix_rows,
    degree_projection,
    iter_labeled_graphs,
    necessary_conditions,
)


def mask_graph(n: int, mask: int) -> SimpleGraph:
    """Graph on n vertices from an upper-triangular edge bitmask."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    return SimpleGraph.from_edges(n, edges)


def all_graphs(n: int):
    """Every labeled graph on n vertices (2^(n choose 2) of them)."""
    for mask in range(1 << (n * (n - 1) // 2)):
        yield mask_graph(n, mask)


def brute_min_mask(n: int, mask: int) -> int:
    """Isomorphism-class key by trying every permutation: the minimum
    edge bitmask over all relabelings.  Independent of canonical_form."""
    pairs = list(itertools.combinations(range(n), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    best = None
    for perm in itertools.permutations(range(n)):
        m = 0
        for u, v in edges:
            a, b = perm[u], perm[v]
            m |= 1 << idx[(a, b) if a < b else (b, a)]
        if best is None or m < best:
            best = m
    return best


def oracle_refine(adj_masks: list[int], cells: list[list[int]]) -> list[list[int]]:
    """``graphs._refine`` counting against every cell in every round: each
    round rebuilds every cell mask and splits every cell by its members'
    neighbor counts into all of them, until a round splits nothing."""
    while True:
        cell_masks = [sum(1 << v for v in cell) for cell in cells]
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                sig = tuple((adj_masks[v] & m).bit_count() for m in cell_masks)
                buckets.setdefault(sig, []).append(v)
            if len(buckets) > 1:
                changed = True
            for sig in sorted(buckets):
                new_cells.append(sorted(buckets[sig]))
        if not changed:
            return new_cells
        cells = new_cells


def degree_partition(adj_masks: list[int]) -> list[list[int]]:
    """The vertices grouped by degree, cells in ascending degree order."""
    by_degree: dict[int, list[int]] = {}
    for v, mask in enumerate(adj_masks):
        by_degree.setdefault(mask.bit_count(), []).append(v)
    return [by_degree[d] for d in sorted(by_degree)]


def oracle_canonical_encoding(n: int, adj_masks: list[int]) -> tuple[tuple[int, int], ...]:
    """``graphs.canonical_encoding`` without automorphism pruning: the
    minimum ``_encode`` over every leaf of the individualization tree."""
    if n == 0:
        return ()
    best: list[Optional[tuple]] = [None]

    def descend(cells: list[list[int]]) -> None:
        cells = oracle_refine(adj_masks, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None or _cells_homogeneous(adj_masks, cells):
            enc = _encode(n, adj_masks, [v for cell in cells for v in cell])
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        cell = cells[target]
        for v in cell:
            rest = [w for w in cell if w != v]
            descend(cells[:target] + [[v], rest] + cells[target + 1 :])

    descend(degree_partition(adj_masks))
    assert best[0] is not None
    return best[0]


def extends_to_automorphism(g: SimpleGraph, partial: dict[int, int]) -> bool:
    """Whether some automorphism of g maps u to partial[u] for every key u:
    plain backtracking over the other vertices in breadth-first order from
    the keys, each mapped to a vertex of equal degree whose adjacency to the
    vertices mapped so far agrees."""
    mapping = dict(partial)
    images = set(mapping.values())
    if len(images) < len(mapping):
        return False
    if any(
        (v in g.adj[u]) != (mapping[v] in g.adj[mapping[u]])
        for u, v in itertools.combinations(mapping, 2)
    ) or any(g.degree(u) != g.degree(w) for u, w in mapping.items()):
        return False
    dist = dict.fromkeys(mapping, 0)
    queue = list(mapping)
    for u in queue:
        for w in g.adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    rest = sorted(
        (u for u in range(g.n) if u not in mapping), key=lambda u: dist.get(u, g.n)
    )

    def extend(i: int) -> bool:
        if i == len(rest):
            return True
        u = rest[i]
        for w in range(g.n):
            if w in images or g.degree(w) != g.degree(u):
                continue
            if all((v in g.adj[u]) == (mapping[v] in g.adj[w]) for v in mapping):
                mapping[u] = w
                images.add(w)
                if extend(i + 1):
                    return True
                del mapping[u]
                images.discard(w)
        return False

    return extend(0)


def naive_vertex_poly(g: SimpleGraph, v: int) -> DegreePoly:
    """Vertex degree polynomial straight from the definition."""
    return DegreePoly(Counter(len(g.adj[w]) for w in g.adj[v]))


def paw_graph() -> SimpleGraph:
    """Triangle a, b, c with a pendant vertex d hanging off c."""
    return SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], "abcd")


def degree_multiset(g: SimpleGraph) -> tuple[int, ...]:
    return tuple(sorted(g.degrees(), reverse=True))


def vertex_zero_units(seq: PolySequence) -> int:
    """How many work units ``realize`` splits the search of ``seq`` into:
    vertex 0's twin-prefix rows, grouped by degree."""
    d = degree_projection(seq)
    return sum(1 for _ in _twin_prefix_rows(range(1, len(d)), d[1:], d[0]))


def dp_multiset(n: int, edges) -> tuple:
    """Degree-polynomial multiset of a labeled graph straight from its
    edges, in the form of ``PolySequence.multiset``."""
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    counts = [Counter() for _ in range(n)]
    for u, v in edges:
        counts[u][degree[v]] += 1
        counts[v][degree[u]] += 1
    return tuple(sorted(tuple(sorted(c.items(), reverse=True)) for c in counts))


def oracle_compare_polys(f: DegreePoly, g: DegreePoly) -> int:
    """The comparison cascade straight from its definition, with sets and
    sorts: coefficient sum, then the shared exponents from the highest
    down, then every exponent from the highest down."""
    if f.is_zero or g.is_zero:
        raise ZeroOperandError("comparison is undefined for the zero polynomial")
    if f == g:
        return 0
    sf, sg = sum(c for _, c in f), sum(c for _, c in g)
    if sf != sg:
        return -1 if sf < sg else 1
    shared = sorted(set(f.support()) & set(g.support()), reverse=True)
    for exponent in shared:
        a, b = f.coefficient(exponent), g.coefficient(exponent)
        if a != b:
            return -1 if a < b else 1
    for exponent in sorted(set(f.support()) | set(g.support()), reverse=True):
        a, b = f.coefficient(exponent), g.coefficient(exponent)
        if a != b:
            return -1 if a < b else 1
    raise AssertionError("distinct polynomials with identical terms")


def model_terms(items) -> dict[int, int]:
    """A plain exponent -> coefficient dict model of ``DegreePoly``: equal
    exponents accumulate and zero coefficients are dropped."""
    out: dict[int, int] = {}
    for e, c in items:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def model_sub(a: dict[int, int], b: dict[int, int]) -> Optional[dict[int, int]]:
    """``a - b`` in the dict model, or None if a coefficient goes negative."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    if any(c < 0 for c in out.values()):
        return None
    return model_terms(out.items())


def model_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    return model_terms((ea + eb, ca * cb) for ea, ca in a.items() for eb, cb in b.items())


def assert_checked_form(f: DegreePoly) -> None:
    """``f`` is stored exactly as the checking constructor stores its terms:
    descending exact-integer pairs, no zero coefficient, the stored total
    equal to the coefficient sum."""
    checked = DegreePoly(dict(f.terms()))
    assert f._pairs == checked._pairs
    assert f._total == checked._total
    assert all(type(e) is int and type(c) is int for e, c in f._pairs)


def oracle_erdos_gallai(d) -> bool:
    """Erdos-Gallai on a non-increasing sequence straight from the
    inequalities, summing each right side afresh (quadratic time)."""
    n = len(d)
    if sum(d) % 2:
        return False
    prefix = 0
    for j in range(1, n + 1):
        prefix += d[j - 1]
        if prefix > j * (j - 1) + sum(min(j, d[k]) for k in range(j, n)):
            return False
    return True


def oracle_sort_polys_desc(polys) -> list[DegreePoly]:
    """The presentation rule straight from its definition: arrange by
    ``presentation_key`` descending, then insert each polynomial before the
    first element it is >= to, scanning the whole list every time."""
    pending = sorted(polys, key=presentation_key, reverse=True)
    out: list[DegreePoly] = []
    for p in pending:
        for i, q in enumerate(out):
            if oracle_compare_polys(p, q) >= 0:
                out.insert(i, p)
                break
        else:
            out.append(p)
    return out


def oracle_from_edge_list(text: str) -> EdgeListResult:
    """The edge-list parser in three passes: collect the edge set, sort it,
    then build the graph through ``SimpleGraph.from_edges``."""
    index: dict[str, int] = {}
    labels: list[str] = []
    edges: set[tuple[int, int]] = set()
    duplicates: list[tuple[int, int]] = []

    def vertex(token: str) -> int:
        if token not in index:
            index[token] = len(labels)
            labels.append(token)
        return index[token]

    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1:
            vertex(tokens[0])
            continue
        if len(tokens) != 2:
            raise EdgeListFormatError(
                f"line {line_no}: expected 1 or 2 tokens, got {line!r}"
            )
        u, v = vertex(tokens[0]), vertex(tokens[1])
        if u == v:
            raise SelfLoopError(f"line {line_no}: self-loop at vertex {tokens[0]!r}")
        key = (min(u, v), max(u, v))
        if key in edges:
            duplicates.append(key)
        else:
            edges.add(key)
    if not labels:
        raise EmptyInputError("edge list describes no vertices")
    graph = SimpleGraph.from_edges(len(labels), sorted(edges), labels)
    return EdgeListResult(graph, tuple(duplicates))


def oracle_streaming_from_edge_list(text: str) -> EdgeListResult:
    """The edge-list parser in one pass with a comment split on every line,
    rows in a ``defaultdict`` and labels placed by ``setdefault``: the
    reference for ``from_edge_list``'s leaner pass, down to its errors."""
    index: dict[str, int] = {}
    rows: defaultdict[int, set[int]] = defaultdict(set)
    duplicates: list[tuple[int, int]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        tokens = line.split()
        if len(tokens) == 2:
            u = index.setdefault(tokens[0], len(index))
            v = index.setdefault(tokens[1], len(index))
            if u == v:
                raise SelfLoopError(
                    f"line {line_no}: self-loop at vertex {tokens[0]!r}"
                )
            row = rows[u]
            if v in row:
                duplicates.append((u, v) if u < v else (v, u))
            else:
                row.add(v)
                rows[v].add(u)
        elif len(tokens) == 1:
            index.setdefault(tokens[0], len(index))
        elif tokens:
            raise EdgeListFormatError(
                f"line {line_no}: expected 1 or 2 tokens, got {line.strip()!r}"
            )
    if not index:
        raise EmptyInputError("edge list describes no vertices")
    n = len(index)
    adj = tuple(frozenset(rows.get(v, ())) for v in range(n))
    graph = SimpleGraph(n, tuple(index), adj)
    return EdgeListResult(graph, tuple(duplicates))


def oracle_apply_operation(op, g: SimpleGraph, h: SimpleGraph = None) -> SimpleGraph:
    """The five operations from their edge lists: every result edge listed
    as a tuple, then the graph built through ``SimpleGraph.from_edges``.
    Product vertex (u, v) gets index u*|H| + v; a join lists G's vertices,
    then H's, priming an H label until neither G nor an earlier H vertex
    has it."""
    op = OpKind(op)
    if op is OpKind.COMPLEMENT:
        edges = (
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if v not in g.adj[u]
        )
        return SimpleGraph.from_edges(g.n, edges, g.labels)
    n1, n2 = g.n, h.n
    if op is OpKind.JOIN:
        labels = list(g.labels)
        for lbl in h.labels:
            while lbl in labels:
                lbl = f"{lbl}'"
            labels.append(lbl)
        edges = list(g.edges())
        edges += [(n1 + u, n1 + v) for u, v in h.edges()]
        edges += [(u, n1 + v) for u in range(n1) for v in range(n2)]
        return SimpleGraph.from_edges(n1 + n2, edges, labels)
    h_edges = h.edges()
    edges = []
    if op is OpKind.CARTESIAN:
        for u in range(g.n):
            for a, b in h_edges:
                edges.append((u * n2 + a, u * n2 + b))
        for u, v in g.edges():
            for a in range(n2):
                edges.append((u * n2 + a, v * n2 + a))
    elif op is OpKind.TENSOR:
        for u, v in g.edges():
            for a, b in h_edges:
                edges.append((u * n2 + a, v * n2 + b))
                edges.append((u * n2 + b, v * n2 + a))
    else:  # lexicographic
        for u in range(g.n):
            for a, b in h_edges:
                edges.append((u * n2 + a, u * n2 + b))
        for u, v in g.edges():
            for a in range(n2):
                for b in range(n2):
                    edges.append((u * n2 + a, v * n2 + b))
    labels = [f"({a},{b})" for a in g.labels for b in h.labels]
    return SimpleGraph.from_edges(g.n * n2, edges, labels)


def labeled_graph_count(degrees) -> int:
    """How many labeled graphs have the degree multiset ``degrees``."""
    return sum(1 for _ in iter_labeled_graphs(degrees))


def labeled_graph_exists(degrees) -> bool:
    """Brute-force existence: does any labeled graph realize ``degrees``?"""
    return next(iter_labeled_graphs(degrees), None) is not None


def oracle_realize(
    seq: PolySequence, want_all_witnesses: bool = True
) -> RealizabilityReport:
    """``realize`` the slow way, for a sequence that passes the necessary
    conditions: every labeled graph on every arrangement of the projected
    degree multiset, kept when its finished degree-polynomial multiset
    equals the target's.  Witnesses are canonical forms: every class sorted
    by canonical edges, or the first class met."""
    conditions = necessary_conditions(seq)
    if not conditions.all_pass:
        raise ValueError(f"{seq} fails condition {conditions.first_failure()}")
    n = len(seq)
    forms = []
    for edges in iter_labeled_graphs(conditions.projection):
        if dp_multiset(n, edges) != seq.multiset():
            continue
        form = canonical_form(SimpleGraph.from_edges(n, edges))
        if form not in forms:
            forms.append(form)
        if not want_all_witnesses:
            break
    if want_all_witnesses:
        forms.sort(key=lambda f: f.edges)
    if forms:
        reason = f"{len(forms)} non-isomorphic realization(s) found"
    else:
        reason = "exhaustive search found no realization"
    return RealizabilityReport(
        seq, conditions, True, want_all_witnesses or not forms,
        tuple(forms), bool(forms), reason,
    )
