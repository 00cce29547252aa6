"""Shared test utilities: independent brute-force oracles and graph builders.

Everything here is deliberately dumb and slow: these are the reference
paths that the library's faster implementations are checked against.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from typing import Optional

from degpoly import DegreePoly, PolySequence, SimpleGraph, canonical_form
from degpoly.dp import _expect_sum
from degpoly.errors import (
    EdgeListFormatError,
    EmptyInputError,
    InconsistentInputsError,
    NegativeValueError,
    PolyParseError,
    SelfLoopError,
    ZeroOperandError,
)
from degpoly.graphs import EdgeListResult, OpKind
from degpoly.poly import presentation_key, scale_exponents, shift_exponents
from degpoly.realizability import (
    RealizabilityReport,
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


def oracle_edges(g: SimpleGraph) -> tuple[tuple[int, int], ...]:
    """Every edge (u, v) with u < v, sorted: each sorted row filtered by
    v > u, one comparison per neighbour."""
    return tuple((u, v) for u, row in enumerate(g.adj) for v in sorted(row) if v > u)


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


def cells_homogeneous(adj_masks: list[int], cells: list[list[int]]) -> bool:
    """Whether every member of every cell is adjacent to all or to none of
    the other members of each cell, counted vertex by vertex."""
    for cell in cells:
        for v in cell:
            for other in cells:
                count = sum(1 for w in other if w != v and adj_masks[v] >> w & 1)
                if count not in (0, len(other) - (v in other)):
                    return False
    return True


def oracle_twin_representatives(adj_masks: list[int]) -> list[int]:
    """Each vertex's smallest twin, itself included, found pair by pair:
    u and v are twins when their open or their closed neighbourhoods, as
    vertex sets, are equal."""
    n = len(adj_masks)
    rows = [{w for w in range(n) if adj_masks[v] >> w & 1} for v in range(n)]

    def twins(u: int, v: int) -> bool:
        return rows[u] == rows[v] or rows[u] | {u} == rows[v] | {v}

    return [min(u for u in range(n) if twins(u, v)) for v in range(n)]


def encode_edges(n: int, adj_masks: list[int], order: list[int]) -> tuple[tuple[int, int], ...]:
    """The graph relabeled by ``order`` (new vertex i is old ``order[i]``)
    as its sorted edge tuple."""
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    relabeled = []
    for u in range(n):
        for v in range(u + 1, n):
            if adj_masks[u] >> v & 1:
                a, b = pos[u], pos[v]
                relabeled.append((a, b) if a < b else (b, a))
    return tuple(sorted(relabeled))


def oracle_canonical_encoding(n: int, adj_masks: list[int]) -> tuple[tuple[int, int], ...]:
    """``graphs.canonical_encoding`` without automorphism pruning and on
    edge tuples: the minimum ``encode_edges`` over every leaf of the
    individualization tree."""
    if n == 0:
        return ()
    best: list[Optional[tuple]] = [None]

    def descend(cells: list[list[int]]) -> None:
        cells = oracle_refine(adj_masks, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None or cells_homogeneous(adj_masks, cells):
            enc = encode_edges(n, adj_masks, [v for cell in cells for v in cell])
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


def oracle_cartesian_formula(
    poly_u: DegreePoly, poly_v: DegreePoly, deg_u: int, deg_v: int
) -> DegreePoly:
    """x^deg(u) * dp(v) + x^deg(v) * dp(u), composed from the exponent
    transforms, with the argument checks of each step."""
    _expect_sum(poly_u, deg_u, "first vertex polynomial")
    _expect_sum(poly_v, deg_v, "second vertex polynomial")
    return shift_exponents(poly_v, deg_u) + shift_exponents(poly_u, deg_v)


def oracle_lexicographic_formula(
    poly_u: DegreePoly,
    poly_v: DegreePoly,
    second_graph_poly: DegreePoly,
    deg_u: int,
    n_second: int,
) -> DegreePoly:
    """(dp(u) with exponents scaled by |H|) * dp(H) + x^(deg(u)*|H|) * dp(v),
    composed from the exponent transforms, with the argument checks of each
    step."""
    if n_second < 1:
        raise InconsistentInputsError("second factor must have at least one vertex")
    _expect_sum(poly_u, deg_u, "first-factor vertex polynomial")
    _expect_sum(second_graph_poly, n_second, "second factor's graph polynomial")
    scaled = scale_exponents(poly_u, n_second)
    return scaled * second_graph_poly + shift_exponents(poly_v, deg_u * n_second)


def paw_graph() -> SimpleGraph:
    """Triangle a, b, c with a pendant vertex d hanging off c."""
    return SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)], "abcd")


def degree_multiset(g: SimpleGraph) -> tuple[int, ...]:
    return tuple(sorted(g.degrees(), reverse=True))


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


def oracle_parse_poly(text: str) -> DegreePoly:
    """``parse_poly`` as a character scanner: one position at a time, each
    error raised where the scan stands."""
    i, n = 0, len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_int(i: int) -> tuple[int, int]:
        start = i
        while i < n and "0" <= text[i] <= "9":
            i += 1
        if i == start:
            raise PolyParseError("expected a number", start)
        try:
            return int(text[start:i]), i
        except ValueError:  # past the interpreter's integer-string digit limit
            raise PolyParseError(
                f"number of {i - start} digits is too long", start
            ) from None

    terms: list[tuple[int, int]] = []
    i = skip_ws(i)
    if i == n:
        raise PolyParseError("empty polynomial", i)
    while True:
        i = skip_ws(i)
        if i < n and text[i] in "-−":
            raise NegativeValueError("negative values are not allowed", i)
        coefficient = 1
        has_coeff = i < n and "0" <= text[i] <= "9"
        if has_coeff:
            coefficient, i = read_int(i)
        i = skip_ws(i)
        if i < n and text[i] == "x":
            i += 1
            exponent = 1
            i = skip_ws(i)
            if i < n and text[i] == "^":
                i = skip_ws(i + 1)
                if i < n and text[i] in "-−":
                    raise NegativeValueError("negative values are not allowed", i)
                exponent, i = read_int(i)
        elif has_coeff:
            exponent = 0
        else:
            raise PolyParseError("expected a term", i)
        terms.append((exponent, coefficient))
        i = skip_ws(i)
        if i == n:
            break
        if text[i] != "+":
            raise PolyParseError(f"unexpected character {text[i]!r}", i)
        i += 1
    return DegreePoly(terms)


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


def bipartite_degree_pairs(p: int, q: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (left degrees, right degrees) pair, each sorted non-increasingly,
    of some bipartite graph with p left and q right vertices: all 2^(pq)
    edge sets, one bit per (left, right) pair."""
    pairs = set()
    for mask in range(1 << (p * q)):
        rows = [mask >> (x * q) & ((1 << q) - 1) for x in range(p)]
        left = sorted((row.bit_count() for row in rows), reverse=True)
        right = sorted((sum(row >> y & 1 for row in rows) for y in range(q)), reverse=True)
        pairs.add((tuple(left), tuple(right)))
    return pairs


def condition_passing_sequences(n: int) -> list[PolySequence]:
    """Every sequence of order n that passes conditions (a)-(c) and whose
    projection is graphical.  Condition (b) caps the coefficient of x^i at
    the number of other entries with coefficient sum i, so each entry is a
    bounded composition of its sum over the projection's degrees."""
    out = []
    for d in itertools.combinations_with_replacement(range(n - 1, 0, -1), n):
        if not oracle_erdos_gallai(d):
            continue
        count = Counter(d)
        per_class = []
        for s, m in sorted(count.items(), reverse=True):
            caps = [(i, count[i] - (i == s)) for i in sorted(count)]
            polys = [
                DegreePoly({i: c for (i, _), c in zip(caps, coeffs) if c})
                for coeffs in itertools.product(*(range(min(c, s) + 1) for _, c in caps))
                if sum(coeffs) == s
            ]
            per_class.append(itertools.combinations_with_replacement(polys, m))
        for choice in itertools.product(*per_class):
            report = necessary_conditions([p for group in choice for p in group])
            if report.all_pass:
                out.append(report.sequence)
    return out


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


def oracle_realize(seq: PolySequence) -> RealizabilityReport:
    """``realize --all`` the slow way, for a sequence that passes the
    necessary conditions: every labeled graph on every arrangement of the
    projected degree multiset, kept when its finished degree-polynomial
    multiset equals the target's.  Witnesses are canonical forms, every
    class sorted by canonical edges."""
    conditions = necessary_conditions(seq)
    if not conditions.all_pass:
        raise ValueError(f"{seq} fails condition {conditions.first_failure()}")
    n = len(seq)
    forms = set()
    for edges in iter_labeled_graphs(conditions.projection):
        if dp_multiset(n, edges) == seq.multiset():
            forms.add(canonical_form(SimpleGraph.from_edges(n, edges)))
    forms = sorted(forms, key=lambda f: f.edges)
    if forms:
        reason = f"{len(forms)} non-isomorphic realization(s) found"
    else:
        reason = "exhaustive search found no realization"
    return RealizabilityReport(
        seq, conditions, True, True, tuple(forms), bool(forms), reason
    )
