"""Graph construction, the five operations, canonical labeling, DOT."""

import itertools
import random
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from degpoly import (
    DegreePoly,
    OpKind,
    PolySequence,
    SimpleGraph,
    apply_operation,
    canonical_form,
    cartesian_product,
    closed_form_sequence,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    emit_dot,
    empty_graph,
    family,
    from_edge_list,
    join,
    lexicographic_product,
    path_graph,
    realize,
    tensor_product_graph,
)
from degpoly import graphs as graphs_mod
from degpoly.errors import (
    BadParamsError,
    BadVertexError,
    DegpolyError,
    EmptyInputError,
    SelfLoopError,
    TooLargeError,
)
from degpoly.graphs import FAMILY_MAX_N
from helpers import (
    all_graphs,
    brute_min_mask,
    cells_homogeneous,
    degree_multiset,
    degree_partition,
    extends_to_automorphism,
    mask_graph,
    oracle_apply_operation,
    oracle_edges,
    oracle_canonical_encoding,
    oracle_from_edge_list,
    oracle_refine,
    oracle_streaming_from_edge_list,
    oracle_twin_representatives,
    paw_graph,
)


@st.composite
def graphs_st(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return mask_graph(n, mask)


# Products of two small graphs keep cells of several vertices two levels
# down, where most random graphs are already discrete.
products_st = st.builds(
    apply_operation,
    st.sampled_from(["cartesian", "tensor", "lexicographic"]),
    graphs_st(min_n=2, max_n=4),
    graphs_st(min_n=2, max_n=3),
)


@st.composite
def sparse_graphs_st(draw, max_n=40):
    """Graphs of order 0 to max_n with up to 2n random edges, so that many
    vertices are isolated or have neighbours on one side of their index."""
    n = draw(st.integers(0, max_n))
    ends = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    return SimpleGraph.from_edges(n, [(u, v) for u, v in pairs if u != v])


class TestEdges:
    """``edges()`` and the structured edge list against the one-comparison-
    per-neighbour oracle."""

    def test_every_graph_up_to_order_five(self):
        for n in range(6):
            for g in all_graphs(n):
                expected = oracle_edges(g)
                assert g.edges() == expected
                assert g.to_dict()["edges"] == expected

    @given(sparse_graphs_st())
    # Vertex 4's neighbours all lie below it and 0-2's above; 3 and 5 are isolated.
    @example(SimpleGraph.from_edges(6, [(0, 4), (1, 4), (2, 4)]))
    @example(SimpleGraph.from_edges(5, [(0, 3), (0, 4), (3, 4)]))
    def test_random_graphs_up_to_order_forty(self, g):
        expected = oracle_edges(g)
        assert g.edges() == expected
        assert g.to_dict()["edges"] == expected


class TestEdgeList:
    def test_example_graph(self):
        result = from_edge_list("a b\na c\nb c\nc d")
        g = result.graph
        assert g.labels == ("a", "b", "c", "d")
        assert g.edges() == ((0, 1), (0, 2), (1, 2), (2, 3))
        assert not result.had_duplicates

    def test_duplicate_edge_flagged(self):
        result = from_edge_list("u v\nu v")
        assert result.graph.edges() == ((0, 1),)
        assert result.duplicate_edges == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError, match="line 1"):
            from_edge_list("x x")

    def test_malformed_line_cites_location(self):
        from degpoly.errors import EdgeListFormatError

        with pytest.raises(EdgeListFormatError, match="line 2"):
            from_edge_list("a b\na b c\n")

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            from_edge_list("# only a comment\n\n")

    def test_isolated_vertices_and_comments(self):
        g = from_edge_list("a b # an edge\nc\n# whole-line comment\n").graph
        assert g.n == 3
        assert g.degree(2) == 0

    @staticmethod
    def _random_line(rng: random.Random, bad: float) -> str:
        """One edge-list line: mostly edges, with single tokens, comments,
        blank lines and padding; malformed lines and self-loops with
        probability ``bad``."""
        labels = ["a", "b", "c", "d", "e", "f", "g7", "x_1"]

        def token() -> str:
            return rng.choice(labels)

        roll = rng.random()
        if roll < bad / 2:
            u = token()
            return f"{u} {u}"
        if roll < bad:
            tokens = " ".join(token() for _ in range(rng.choice([3, 4])))
            return rng.choice(["", " "]) + tokens + rng.choice(["", "\t", " # x"])
        kind = rng.choice(["edge"] * 6 + ["single", "comment", "blank", "inline"])
        if kind == "edge":
            u, v = rng.sample(labels, 2)
            indent, gap = rng.choice(["", " ", "\t"]), rng.choice([" ", "  ", "\t"])
            return indent + u + gap + v
        if kind == "single":
            return token() + rng.choice(["", " "])
        if kind == "comment":
            return rng.choice(["# a comment", "#", "   # a b"])
        if kind == "blank":
            return rng.choice(["", "   "])
        u, v = rng.sample(["a", "b", "c", "d"], 2)
        return f"{u} {v} # trailing {token()}"

    @pytest.mark.parametrize("bad", [0.0, 0.05])
    def test_equals_oracle_on_random_texts(self, bad):
        # Duplicates arise in both orientations: labels come from a small
        # pool and each edge line draws its two ends in random order.
        rng = random.Random(11)
        raised = 0
        for _ in range(1500):
            text = "\n".join(
                self._random_line(rng, bad) for _ in range(rng.randint(0, 30))
            )
            try:
                want = oracle_from_edge_list(text)
            except DegpolyError as exc:
                raised += 1
                with pytest.raises(type(exc)) as info:
                    from_edge_list(text)
                assert type(info.value) is type(exc)
                assert str(info.value) == str(exc)
                continue
            got = from_edge_list(text)
            assert got.graph.labels == want.graph.labels
            assert got.graph.adj == want.graph.adj
            assert got.duplicate_edges == want.duplicate_edges
        assert raised > (100 if bad else 0)

    edge_list_lines = st.builds(
        lambda indent, tokens, gap, comment: indent + gap.join(tokens) + comment,
        st.sampled_from(["", " ", "\t"]),
        st.lists(st.sampled_from(["a", "b", "c", "d", "v1", "x'", "p#q"]), max_size=3),
        st.sampled_from([" ", "  ", "\t"]),
        st.sampled_from(["", "", "#", " # note", "\t#a b c"]),
    )

    @given(st.lists(edge_list_lines, max_size=25), st.sampled_from(["\n", "\r\n"]))
    @example(["a b", "b a", "a", "c"], "\n")
    @example(["a a"], "\n")
    @example(["a b c # x"], "\n")
    @example(["# only", "  "], "\n")
    def test_equals_streaming_oracle(self, lines, newline):
        text = newline.join(lines)
        try:
            want = oracle_streaming_from_edge_list(text)
        except DegpolyError as exc:
            with pytest.raises(type(exc)) as info:
                from_edge_list(text)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
            return
        assert from_edge_list(text) == want

    def test_duplicates_in_both_orientations(self):
        text = "a b\nb c\nb a\nc b\na b\n"
        result = from_edge_list(text)
        assert result.duplicate_edges == ((0, 1), (1, 2), (0, 1))
        assert result == oracle_from_edge_list(text)

    def test_vertex_lookup(self):
        g = paw_graph()
        assert g.vertex_index("c") == 2
        with pytest.raises(BadVertexError):
            g.vertex_index("z")
        with pytest.raises(BadVertexError):
            g.vertex_index(9)


class TestFromEdges:
    def test_vertex_out_of_range(self):
        with pytest.raises(BadVertexError, match=r"edge \(0, 3\) outside 0..2"):
            SimpleGraph.from_edges(3, [(0, 1), (0, 3)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError, match="self-loop at vertex b"):
            SimpleGraph.from_edges(3, [(0, 1), (1, 1)], "abc")

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="inconsistent graph fields"):
            SimpleGraph(2, ("a",), (frozenset(), frozenset()))
        with pytest.raises(ValueError, match="inconsistent graph fields"):
            SimpleGraph.from_edges(3, [(0, 1)], "ab")

    def test_rows_freeze_in_place(self):
        # Each row's set is freed as its frozenset is made, so the peak stays
        # near what the graph keeps; holding every set while freezing doubled it.
        tracemalloc.start()
        try:
            g = complete_graph(1000)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count == 499_500
        assert peak < 1.1 * kept


class TestFamilies:
    def test_cycle(self):
        g = cycle_graph(5)
        assert (g.n, g.edge_count) == (5, 5)
        assert set(g.degrees()) == {2}

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(3, 2)
        assert (g.n, g.edge_count) == (5, 6)
        assert degree_multiset(g) == (3, 3, 2, 2, 2)

    def test_bounds(self):
        with pytest.raises(BadParamsError):
            cycle_graph(2)
        with pytest.raises(BadParamsError):
            path_graph(1)
        with pytest.raises(BadParamsError):
            complete_graph(0)
        with pytest.raises(BadParamsError):
            complete_bipartite_graph(2, 3)
        with pytest.raises(BadParamsError, match="n >= 0, got -1"):
            empty_graph(-1)

    def test_order_bound(self):
        assert cycle_graph(FAMILY_MAX_N).n == FAMILY_MAX_N
        assert closed_form_sequence("complete", FAMILY_MAX_N)
        for kind, params in [
            ("cycle", (FAMILY_MAX_N + 1,)),
            ("complete", (10**5,)),
            ("complete_bipartite", (FAMILY_MAX_N - 1, 2)),
        ]:
            with pytest.raises(TooLargeError):
                family(kind, *params)
            with pytest.raises(TooLargeError):
                closed_form_sequence(kind, *params)

    def test_family_dispatch(self):
        assert family("cycle", 5).edges() == cycle_graph(5).edges()
        assert family("complete_bipartite", 3, 2).n == 5
        with pytest.raises(BadParamsError):
            family("torus", 3)
        with pytest.raises(BadParamsError):
            family("cycle", 3, 4)

    @given(graphs_st())
    def test_handshake(self, g):
        assert sum(g.degrees()) == 2 * g.edge_count


class TestComplement:
    def test_fixtures(self):
        assert complement(complete_graph(4)).edge_count == 0
        c5 = cycle_graph(5)
        assert canonical_form(complement(c5)) == canonical_form(c5)
        comp = complement(paw_graph())
        assert comp.edges() == ((0, 3), (1, 3))

    @given(graphs_st())
    def test_involution_and_edge_split(self, g):
        gc = complement(g)
        assert complement(gc).edges() == g.edges()
        assert g.edge_count + gc.edge_count == g.n * (g.n - 1) // 2


class TestJoin:
    def test_fixtures(self):
        assert canonical_form(join(complete_graph(1), complete_graph(1))) == canonical_form(complete_graph(2))
        k32 = join(empty_graph(3), empty_graph(2))
        assert canonical_form(k32) == canonical_form(complete_bipartite_graph(3, 2))
        wheel = join(complete_graph(1), cycle_graph(4))
        assert degree_multiset(wheel) == (4, 3, 3, 3, 3)

    @given(graphs_st(max_n=5), graphs_st(max_n=5))
    def test_size_and_degrees(self, g, h):
        j = join(g, h)
        assert j.n == g.n + h.n
        assert j.edge_count == g.edge_count + h.edge_count + g.n * h.n
        for u in range(g.n):
            assert j.degree(u) == g.degree(u) + h.n
        for v in range(h.n):
            assert j.degree(g.n + v) == h.degree(v) + g.n

    @given(graphs_st(max_n=4), graphs_st(max_n=4))
    def test_commutative_up_to_isomorphism(self, g, h):
        assert canonical_form(join(g, h)) == canonical_form(join(h, g))

    def test_label_collision_disambiguated(self):
        j = join(complete_graph(2), complete_graph(2))
        assert len(set(j.labels)) == j.n

    def test_primed_label_collision_disambiguated(self):
        g = from_edge_list("a b").graph
        h = from_edge_list("a a'").graph
        j = join(g, h)
        assert j.labels == ("a", "b", "a'", "a''")
        assert j == oracle_apply_operation(OpKind.JOIN, g, h)

    @given(
        st.lists(st.sampled_from(["a", "a'", "a''", "b"]), min_size=1, max_size=4, unique=True),
        st.lists(st.sampled_from(["a", "a'", "a''", "b"]), min_size=1, max_size=4, unique=True),
    )
    def test_labels_always_distinct(self, g_labels, h_labels):
        j = join(empty_graph(len(g_labels), g_labels), empty_graph(len(h_labels), h_labels))
        assert len(set(j.labels)) == j.n
        assert j.labels[: len(g_labels)] == tuple(g_labels)


class TestProducts:
    def test_cartesian_fixtures(self):
        k2 = complete_graph(2)
        assert canonical_form(cartesian_product(k2, k2)) == canonical_form(cycle_graph(4))
        ladder = cartesian_product(path_graph(3), k2)
        assert degree_multiset(ladder) == (3, 3, 2, 2, 2, 2)
        h = cycle_graph(5)
        assert canonical_form(cartesian_product(complete_graph(1), h)) == canonical_form(h)

    def test_tensor_fixtures(self):
        k2 = complete_graph(2)
        t = tensor_product_graph(k2, k2)
        assert (t.n, t.edge_count) == (4, 2)
        assert set(t.degrees()) == {1}
        assert degree_multiset(tensor_product_graph(path_graph(3), k2)) == (2, 2, 1, 1, 1, 1)
        assert tensor_product_graph(complete_graph(1), cycle_graph(4)).edge_count == 0

    def test_lexicographic_fixtures(self):
        k2 = complete_graph(2)
        assert canonical_form(lexicographic_product(k2, k2)) == canonical_form(complete_graph(4))
        assert canonical_form(lexicographic_product(k2, empty_graph(2))) == canonical_form(cycle_graph(4))
        h = path_graph(4)
        assert canonical_form(lexicographic_product(complete_graph(1), h)) == canonical_form(h)

    @given(graphs_st(max_n=5), graphs_st(max_n=5))
    def test_degree_formulas(self, g, h):
        n2 = h.n
        cart = cartesian_product(g, h)
        tens = tensor_product_graph(g, h)
        lex = lexicographic_product(g, h)
        for u in range(g.n):
            for v in range(h.n):
                idx = u * n2 + v
                assert cart.degree(idx) == g.degree(u) + h.degree(v)
                assert tens.degree(idx) == g.degree(u) * h.degree(v)
                assert lex.degree(idx) == g.degree(u) * n2 + h.degree(v)

    def test_product_vertex_labels(self):
        p = cartesian_product(complete_graph(2), complete_graph(2))
        assert p.labels == ("(v0,v0)", "(v0,v1)", "(v1,v0)", "(v1,v1)")

    def test_apply_operation_dispatch(self):
        g, h = complete_graph(2), complete_graph(2)
        assert apply_operation("join", g, h).n == 4
        assert apply_operation(OpKind.COMPLEMENT, g).edge_count == 0
        with pytest.raises(BadParamsError):
            apply_operation("complement", g, h)
        with pytest.raises(BadParamsError):
            apply_operation("join", g)


@st.composite
def labeled_graphs_st(draw, max_n=5):
    """Graphs of order 0 to max_n with labels from a small shared alphabet,
    so that two draws often share labels; random masks leave vertices
    isolated."""
    n = draw(st.integers(0, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    labels = draw(st.lists(st.sampled_from("abcdefg"), min_size=n, max_size=n, unique=True))
    g = mask_graph(n, mask)
    return SimpleGraph(n, tuple(labels), g.adj)


class TestOperationsAgainstOracle:
    @pytest.mark.parametrize("kind", [k.value for k in OpKind])
    @given(g=labeled_graphs_st(), h=labeled_graphs_st())
    @example(g=empty_graph(0), h=paw_graph())
    @example(g=paw_graph(), h=empty_graph(0))
    @example(g=complete_graph(1), h=paw_graph())
    @example(g=paw_graph(), h=empty_graph(1, ["c"]))
    @example(g=paw_graph(), h=paw_graph())
    @example(g=from_edge_list("a b\nb c\nz").graph, h=paw_graph())  # isolated vertex in G
    @example(g=paw_graph(), h=from_edge_list("x y\nw").graph)  # isolated vertex in H
    @example(g=cycle_graph(4), h=complete_graph(1))  # single-vertex H
    @example(g=empty_graph(3, "xyz"), h=paw_graph())  # edgeless G
    def test_equals_edge_list_builders(self, kind, g, h):
        second = None if kind == "complement" else h
        got = apply_operation(kind, g, second)
        want = oracle_apply_operation(kind, g, second)
        assert (got.n, got.labels, got.adj) == (want.n, want.labels, want.adj)
        for v, row in enumerate(got.adj):
            assert v not in row
            assert all(v in got.adj[w] for w in row)

    @pytest.mark.parametrize("kind", [k.value for k in OpKind])
    @given(g=labeled_graphs_st(), h=labeled_graphs_st())
    def test_size_bound_is_the_result_size(self, kind, g, h):
        second = None if kind == "complement" else h
        want = oracle_apply_operation(kind, g, second)
        size = want.n + want.edge_count
        with mock.patch.object(graphs_mod, "OP_MAX_SIZE", size):
            apply_operation(kind, g, second)
        with mock.patch.object(graphs_mod, "OP_MAX_SIZE", size - 1):
            with pytest.raises(TooLargeError, match=f"got {size}$"):
                apply_operation(kind, g, second)


def copies(k: int, h: SimpleGraph) -> SimpleGraph:
    """k disjoint copies of h."""
    return SimpleGraph.from_edges(
        k * h.n, [(i * h.n + u, i * h.n + v) for i in range(k) for u, v in h.edges()]
    )


def cayley_z4_z4(steps) -> SimpleGraph:
    """Cayley graph of Z4 x Z4, vertex (a, b) as 4a + b, on the steps and
    their inverses."""
    edges = [
        (4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4)
        for a in range(4) for b in range(4) for da, db in steps
    ]
    return SimpleGraph.from_edges(16, edges)


def clebsch_graph() -> SimpleGraph:
    """The folded 5-cube: 4-bit words, adjacent when they differ in one bit
    or in all four."""
    return SimpleGraph.from_edges(
        16, [(x, x ^ s) for x in range(16) for s in (1, 2, 4, 8, 15)]
    )


def both_twin_kinds() -> SimpleGraph:
    """Triangle 0-1-2 with pendants 3 and 4 on vertex 2, beside the 4-cycle
    5-6-7-8: 0 and 1 are closed twins; 3 and 4, 5 and 7, 6 and 8 are open
    twins."""
    return SimpleGraph.from_edges(
        9, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (5, 6), (6, 7), (7, 8), (8, 5)]
    )


def search_nodes(g: SimpleGraph) -> list[tuple[list[int], list[list[int]], list[int]]]:
    """The nodes ``canonical_form(g)`` visits, in visiting order, as
    (individualized prefix, refined cells, children searched).  A child's
    cells are its parent's with the first non-singleton cell split into
    [v] and the rest, which is how each call to ``_refine`` is placed."""
    nodes = []
    stack = []
    real = graphs_mod._refine

    def recording(adj_masks, cells, masks, splitters):
        refined, refined_masks = real(adj_masks, cells, masks, splitters)
        while stack:
            parent = stack[-1]
            target = next((i for i, c in enumerate(parent[1]) if len(c) > 1), None)
            if target is not None and len(cells) == len(parent[1]) + 1:
                v, cell = cells[target][0], parent[1][target]
                split = [[v], [w for w in cell if w != v]]
                if cells == parent[1][:target] + split + parent[1][target + 1 :]:
                    parent[2].append(v)
                    break
            stack.pop()
        prefix = stack[-1][0] + [stack[-1][2][-1]] if stack else []
        stack.append((prefix, refined, []))
        nodes.append(stack[-1])
        return refined, refined_masks

    with mock.patch.object(graphs_mod, "_refine", recording):
        canonical_form(g)
    return nodes


def unsearched_stabilizer_orbit(g: SimpleGraph):
    """The pruning rule's condition: at a node with prefix P, a child is
    skipped only for an automorphism fixing P, so every orbit of P's
    pointwise stabilizer in the target cell keeps a searched child.  Returns
    (prefix, vertex) for a vertex whose orbit has none, else None."""
    for prefix, cells, children in search_nodes(g):
        if not children:
            continue
        fixed = {p: p for p in prefix}
        for v in next(c for c in cells if len(c) > 1):
            if not any(extends_to_automorphism(g, {**fixed, c: v}) for c in children):
                return prefix, v
    return None


def encodings(g: SimpleGraph) -> tuple:
    """The edges of ``canonical_encoding``'s certificate, and the oracle's."""
    masks = [sum(1 << w for w in g.adj[v]) for v in range(g.n)]
    cert = graphs_mod.canonical_encoding(g.n, masks)
    return graphs_mod._decode(g.n, cert), oracle_canonical_encoding(g.n, masks)


# Order-16 graphs with large automorphism groups, the slowest inside the
# canonical-form bound for the unpruned search; Shrikhande is K4 x K4's
# cospectral mate.
SYMMETRIC_16 = {
    "8K2": copies(8, complete_graph(2)),
    "co-8K2": complement(copies(8, complete_graph(2))),
    "5K3": copies(5, complete_graph(3)),
    "4C4": copies(4, cycle_graph(4)),
    "K4xK4": cartesian_product(complete_graph(4), complete_graph(4)),
    "Shrikhande": cayley_z4_z4([(1, 0), (0, 1), (1, 1)]),
    "Clebsch": clebsch_graph(),
}
# A labeling of the Shrikhande graph under which pruning with automorphisms
# that move the prefix would skip an orbit of the prefix's stabilizer: the
# stabilizer of a vertex splits its nine non-neighbours, which refinement
# keeps in one cell.
SHRIKHANDE_LABELING = [10, 14, 5, 1, 9, 2, 3, 11, 13, 7, 8, 4, 0, 6, 15, 12]


class TestRefine:
    """``_refine`` counts only against the cells that can split another,
    and gives the ordered partitions of counting against every cell."""

    @staticmethod
    def masks(g: SimpleGraph) -> list[int]:
        return [sum(1 << w for w in g.adj[v]) for v in range(g.n)]

    @staticmethod
    def refine(adj_masks, cells, splitters) -> list[list[int]]:
        """``_refine`` on cells given as vertex lists, checking the cell
        masks it returns against the cells."""
        def mask(cell):
            return sum(1 << v for v in cell)

        refined, refined_masks = graphs_mod._refine(
            adj_masks, cells, list(map(mask, cells)), list(map(mask, splitters))
        )
        assert refined_masks == list(map(mask, refined))
        return refined

    @staticmethod
    def individualized(data, adj_masks, depth):
        """A node ``depth`` individualizations below the root of the search
        tree, as (cells, splitters) before refinement, its ancestors refined
        by ``oracle_refine``; None if a partition on the way is discrete."""
        cells = degree_partition(adj_masks)
        splitters = cells[:-1]
        for _ in range(depth):
            cells = oracle_refine(adj_masks, cells)
            targets = [i for i, c in enumerate(cells) if len(c) > 1]
            if not targets:
                return None
            i = data.draw(st.sampled_from(targets))
            v = data.draw(st.sampled_from(cells[i]))
            cells = cells[:i] + [[v], [w for w in cells[i] if w != v]] + cells[i + 1 :]
            splitters = [[v]]
        return cells, splitters

    def test_equals_oracle_on_degree_partitions(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                masks = self.masks(g)
                cells = degree_partition(masks)
                assert self.refine(masks, cells, cells[:-1]) == oracle_refine(masks, cells)

    @given(st.data())
    def test_equals_oracle_after_individualizing(self, data):
        g = data.draw(graphs_st(min_n=2, max_n=12))
        masks = self.masks(g)
        node = self.individualized(data, masks, 1)
        if node is not None:
            child, splitters = node
            assert self.refine(masks, child, splitters) == oracle_refine(masks, child)

    @given(st.data())
    def test_equals_oracle_after_individualizing_twice(self, data):
        g = data.draw(st.one_of(graphs_st(min_n=3, max_n=12), products_st))
        masks = self.masks(g)
        node = self.individualized(data, masks, 2)
        if node is not None:
            grandchild, splitters = node
            want = oracle_refine(masks, grandchild)
            assert self.refine(masks, grandchild, splitters) == want


def refined_nodes(adj_masks, cells, depth):
    """Every node of the unpruned search tree down to ``depth``
    individualizations below ``cells``, refined by ``oracle_refine``."""
    cells = oracle_refine(adj_masks, cells)
    yield cells
    target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
    if depth and target is not None:
        cell = cells[target]
        for v in cell:
            child = cells[:target] + [[v], [w for w in cell if w != v]] + cells[target + 1 :]
            yield from refined_nodes(adj_masks, child, depth - 1)


def within_twin_classes(adj_masks, cells) -> bool:
    """``canonical_encoding``'s leaf test: every cell lies in one twin class."""
    twins = graphs_mod._twin_representatives(len(adj_masks), adj_masks)
    return all(twins[v] == twins[c[0]] for c in cells for v in c)


class TestTwinClasses:
    """On an equitable partition, every cell is homogeneous toward every
    cell exactly when each cell lies in one twin class."""

    def test_representatives_equal_pairwise_oracle_exhaustive(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                masks = TestRefine.masks(g)
                got = graphs_mod._twin_representatives(n, masks)
                assert got == oracle_twin_representatives(masks), g.edges()

    @given(st.one_of(graphs_st(max_n=12), products_st))
    @example(both_twin_kinds())
    def test_representatives_equal_pairwise_oracle(self, g):
        masks = TestRefine.masks(g)
        assert graphs_mod._twin_representatives(g.n, masks) == oracle_twin_representatives(masks)

    def test_homogeneous_iff_within_twin_classes_exhaustive(self):
        # Both tests are labeling-invariant, and so is the set of nodes up to
        # relabeling, so one labeling per isomorphism class covers every graph
        # (OEIS A000088 counts the classes).
        seen = set()
        for n in range(1, 7):
            for g in all_graphs(n):
                masks = TestRefine.masks(g)
                cert = graphs_mod.canonical_encoding(n, masks)
                if (n, cert) in seen:
                    continue
                seen.add((n, cert))
                for cells in refined_nodes(masks, degree_partition(masks), 2):
                    assert cells_homogeneous(masks, cells) == within_twin_classes(masks, cells)
        assert len(seen) == 1 + 2 + 4 + 11 + 34 + 156

    @given(st.data())
    def test_homogeneous_iff_within_twin_classes(self, data):
        g = data.draw(st.one_of(graphs_st(max_n=12), products_st))
        masks = TestRefine.masks(g)
        node = TestRefine.individualized(data, masks, data.draw(st.integers(0, 2)))
        if node is not None:
            cells = oracle_refine(masks, node[0])
            assert cells_homogeneous(masks, cells) == within_twin_classes(masks, cells)


@st.composite
def equal_size_edge_sets(draw, max_n=16):
    """Two sorted edge tuples on the same n with the same number of edges."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return n, (), ()
    m = draw(st.integers(0, len(pairs)))
    edge_set = st.lists(st.sampled_from(pairs), min_size=m, max_size=m, unique=True)
    return n, tuple(sorted(draw(edge_set))), tuple(sorted(draw(edge_set)))


def certificate(n: int, edges) -> int:
    """``_certificate`` of the graph with these edges, in its own labeling."""
    g = SimpleGraph.from_edges(n, edges)
    masks = [sum(1 << w for w in row) for row in g.adj]
    return graphs_mod._certificate(masks, list(range(n)))


class TestTwinsComputedLazily:
    """``canonical_encoding`` builds the twin classes only when a refinement
    leaves a non-singleton cell, the only place it reads them."""

    # The degree partition of this order-6 graph refines to singletons.
    DISCRETE = ((0, 2), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3))

    def calls(self, monkeypatch, g) -> int:
        made = []
        real = graphs_mod._twin_representatives

        def counting(n, adj_masks):
            made.append(n)
            return real(n, adj_masks)

        monkeypatch.setattr(graphs_mod, "_twin_representatives", counting)
        canonical_form(g)
        return len(made)

    def test_discrete_refinement_skips_them(self, monkeypatch):
        g = SimpleGraph.from_edges(6, self.DISCRETE)
        masks = TestRefine.masks(g)
        assert all(len(c) == 1 for c in oracle_refine(masks, degree_partition(masks)))
        assert self.calls(monkeypatch, g) == 0

    @pytest.mark.parametrize("g", [paw_graph(), cycle_graph(6), both_twin_kinds()])
    def test_once_otherwise(self, monkeypatch, g):
        assert self.calls(monkeypatch, g) == 1


class TestCertificate:
    """A leaf certificate orders edge sets of one size as their sorted edge
    tuples in reverse, so the largest certificate is the smallest tuple."""

    @given(equal_size_edge_sets())
    @example((4, ((0, 1), (2, 3)), ((0, 2), (1, 3))))
    @example((16, ((14, 15),), ((0, 1),)))
    def test_order_reverses_edge_tuple_order(self, case):
        n, a, b = case
        ca, cb = certificate(n, a), certificate(n, b)
        assert (ca > cb) == (a < b)
        assert (ca == cb) == (a == b)

    @given(equal_size_edge_sets())
    def test_decodes_to_its_edges(self, case):
        n, a, _ = case
        assert graphs_mod._decode(n, certificate(n, a)) == a

    def test_relabeled_by_the_leaf_order(self):
        # New vertex i is old order[i]: the path 0-1-2-3 read in the order
        # 1, 3, 0, 2 has edges (0, 2), (0, 3), (1, 3).
        g = path_graph(4)
        masks = [sum(1 << w for w in row) for row in g.adj]
        cert = graphs_mod._certificate(masks, [1, 3, 0, 2])
        assert graphs_mod._decode(4, cert) == ((0, 2), (0, 3), (1, 3))


class TestCanonicalForm:
    def test_triangle_all_labelings(self):
        tri = complete_graph(3)
        forms = {
            canonical_form(tri.relabel(list(perm)))
            for perm in itertools.permutations(range(3))
        }
        assert len(forms) == 1

    def test_same_sequence_non_isomorphic_pair(self):
        # Two triangles joined by an edge vs a 6-cycle with a long chord:
        # identical degree-polynomial sequences, different graphs.
        g1 = SimpleGraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        g2 = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        assert canonical_form(g1) != canonical_form(g2)

    def test_cycle_reversal(self):
        c6 = cycle_graph(6)
        reversed_c6 = c6.relabel(list(reversed(range(6))))
        assert canonical_form(reversed_c6) == canonical_form(c6)

    def test_exhaustive_against_permutation_oracle(self):
        for n in range(1, 5):
            by_brute = {}
            by_canon = {}
            for mask in range(1 << (n * (n - 1) // 2)):
                by_brute.setdefault(brute_min_mask(n, mask), set()).add(mask)
                by_canon.setdefault(canonical_form(mask_graph(n, mask)), set()).add(mask)
            assert sorted(map(sorted, by_brute.values())) == sorted(
                map(sorted, by_canon.values())
            )

    def test_sampled_against_permutation_oracle_n5(self):
        rng = random.Random(5)
        masks = [rng.getrandbits(10) for _ in range(120)]
        brute = {m: brute_min_mask(5, m) for m in masks}
        canon = {m: canonical_form(mask_graph(5, m)) for m in masks}
        for a, b in itertools.combinations(masks, 2):
            assert (brute[a] == brute[b]) == (canon[a] == canon[b])

    def test_sampled_against_permutation_oracle_n6_n7(self):
        rng = random.Random(99)
        for n in (6, 7):
            masks = [rng.getrandbits(n * (n - 1) // 2) for _ in range(60)]
            brute = {m: brute_min_mask(n, m) for m in masks}
            canon = {m: canonical_form(mask_graph(n, m)) for m in masks}
            for a, b in itertools.combinations(masks, 2):
                assert (brute[a] == brute[b]) == (canon[a] == canon[b])

    def test_invariant_under_100_random_relabelings(self):
        rng = random.Random(17)
        for _ in range(8):
            n = rng.randint(2, 8)
            g = mask_graph(n, rng.getrandbits(n * (n - 1) // 2))
            base = canonical_form(g)
            for _ in range(100):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == base

    def test_regular_cospectral_style_pairs(self):
        c6 = cycle_graph(6)
        two_triangles = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_form(c6) != canonical_form(two_triangles)
        prism = cartesian_product(complete_graph(3), complete_graph(2))
        k33 = complete_bipartite_graph(3, 3)
        assert canonical_form(prism) != canonical_form(k33)

    def test_size_bound(self):
        with pytest.raises(TooLargeError):
            canonical_form(empty_graph(20))
        assert canonical_form(empty_graph(16)).n == 16

    def test_pruned_equals_unpruned_exhaustive(self):
        for n in range(6):
            for mask in range(1 << (n * (n - 1) // 2)):
                pruned, unpruned = encodings(mask_graph(n, mask))
                assert pruned == unpruned, (n, mask)

    @given(graphs_st(max_n=10))
    @example(copies(5, complete_graph(2)))
    @example(copies(3, complete_graph(3)))
    @example(cycle_graph(10))
    @example(complement(cycle_graph(10)))
    @example(complete_bipartite_graph(4, 3))
    @example(cartesian_product(complete_graph(3), complete_graph(2)))
    @example(both_twin_kinds())
    @example(join(complete_graph(2), empty_graph(3)))
    # a 4-regular graph on which a leaf encoding above the best, taken for
    # an automorphism, prunes the subtree that holds the minimum
    @example(SimpleGraph.from_edges(8, [
        (0, 2), (0, 4), (0, 5), (0, 7), (1, 3), (1, 4), (1, 5), (1, 6),
        (2, 3), (2, 5), (2, 6), (3, 5), (3, 7), (4, 6), (4, 7), (6, 7),
    ]))
    def test_pruned_equals_unpruned(self, g):
        pruned, unpruned = encodings(g)
        assert pruned == unpruned

    @pytest.mark.parametrize("name", SYMMETRIC_16)
    def test_order_16_within_a_second(self, name):
        g = SYMMETRIC_16[name]
        start = time.perf_counter()
        form = canonical_form(g)
        assert time.perf_counter() - start < 1.0
        perm = list(range(g.n))
        random.Random(name).shuffle(perm)
        assert canonical_form(g.relabel(perm)) == form

    def test_search_nodes_on_6k2(self):
        # Without automorphism pruning this search has 29,893 nodes.
        assert len(search_nodes(copies(6, complete_graph(2)))) <= 41

    def test_every_stabilizer_orbit_is_searched_exhaustive(self):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                assert unsearched_stabilizer_orbit(mask_graph(n, mask)) is None, (n, mask)

    @pytest.mark.parametrize("name", [*SYMMETRIC_16, "Shrikhande relabeled"])
    def test_every_stabilizer_orbit_is_searched(self, name):
        if name in SYMMETRIC_16:
            g = SYMMETRIC_16[name]
        else:
            g = SYMMETRIC_16["Shrikhande"].relabel(SHRIKHANDE_LABELING)
        assert unsearched_stabilizer_orbit(g) is None


def search_work(run) -> tuple[int, int]:
    """The ``_refine`` calls and the leaves (``_certificate`` calls) of the
    canonical-labeling searches that ``run()`` makes."""
    counts = [0, 0]

    def counting(i, real):
        def wrapper(*args):
            counts[i] += 1
            return real(*args)
        return wrapper

    with mock.patch.object(graphs_mod, "_refine", counting(0, graphs_mod._refine)):
        with mock.patch.object(
            graphs_mod, "_certificate", counting(1, graphs_mod._certificate)
        ):
            run()
    return counts[0], counts[1]


class TestSearchWork:
    """Upper bounds on the canonical-labeling search tree, so that a change
    to pruning shows its tree size here and not only in timings."""

    def test_symmetric_order_16(self):
        refines, leaves = search_work(
            lambda: [canonical_form(g) for g in SYMMETRIC_16.values()]
        )
        assert refines <= 427 and leaves <= 186

    def test_regular_sequences_realized(self):
        # n x r*x^r, the sequences of perfbench's realize-symmetric workload,
        # each searched for every class.
        cases = ((7, 2), (7, 4), (6, 1), (6, 2), (6, 3), (6, 4))
        seqs = [PolySequence.from_polys([DegreePoly({r: r})] * n) for n, r in cases]
        refines, leaves = search_work(lambda: [realize(s) for s in seqs])
        assert refines <= 103 and leaves <= 59


class TestRelabel:
    def test_roundtrip(self):
        g = paw_graph()
        perm = [2, 0, 3, 1]
        inverse = [perm.index(i) for i in range(4)]
        assert g.relabel(perm).relabel(inverse).edges() == g.edges()

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            paw_graph().relabel([0, 0, 1, 2])


class TestDot:
    def test_k2(self):
        text = emit_dot(complete_graph(2))
        assert text == 'graph {\n  "v0" -- "v1";\n}\n'

    def test_single_isolated_vertex(self):
        assert emit_dot(empty_graph(1)) == 'graph {\n  "v0";\n}\n'

    def test_example_graph_lines(self):
        text = emit_dot(paw_graph())
        edge_lines = [l for l in text.splitlines() if "--" in l]
        assert len(edge_lines) == 4
        for name in "abcd":
            assert f'"{name}"' in text

    def test_quoting(self):
        g = SimpleGraph.from_edges(2, [(0, 1)], ['a"b', "c"])
        assert '"a\\"b" -- "c";' in emit_dot(g)
