"""Degree polynomials, sequences, family closed forms, operation formulas."""

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degpoly import (
    DegreePoly,
    OpKind,
    PolySequence,
    cartesian_formula,
    closed_form_sequence,
    coeff_stats,
    coeff_sum,
    complement_formula,
    complete_graph,
    cycle_graph,
    degree_polynomial,
    degree_polynomial_sequence,
    dp_report,
    empty_graph,
    family,
    graph_degree_polynomial,
    join_formula,
    lexicographic_formula,
    parse_poly,
    path_graph,
    regularity_from_sequence,
    tensor_formula,
    verify_operation,
    vertex_polynomials,
)
from degpoly.errors import (
    BadParamsError,
    BadVertexError,
    InconsistentInputsError,
    IsolatedVertexError,
    ZeroEntryError,
)
from helpers import (
    assert_checked_form,
    mask_graph,
    naive_vertex_poly,
    oracle_cartesian_formula,
    oracle_lexicographic_formula,
    paw_graph,
)

P = parse_poly
Z = DegreePoly.zero()


@st.composite
def graphs_st(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return mask_graph(n, mask)


class TestVertexPolynomial:
    def test_worked_example(self):
        g = paw_graph()
        assert degree_polynomial(g, "a") == P("x^2+x^3")
        assert degree_polynomial(g, "b") == P("x^2+x^3")
        assert degree_polynomial(g, "c") == P("2x^2+x")
        assert degree_polynomial(g, "d") == P("x^3")

    def test_isolated_vertex_is_zero(self):
        g = empty_graph(3)
        assert all(degree_polynomial(g, v).is_zero for v in range(3))

    def test_bad_vertex(self):
        with pytest.raises(BadVertexError):
            degree_polynomial(paw_graph(), 7)

    @given(graphs_st())
    def test_matches_definition_and_degree(self, g):
        for v in range(g.n):
            p = degree_polynomial(g, v)
            assert p == naive_vertex_poly(g, v)
            assert coeff_sum(p) == g.degree(v)

    @given(graphs_st(min_n=0, max_n=8))
    def test_whole_graph_equals_per_vertex(self, g):
        want = tuple(degree_polynomial(g, v) for v in range(g.n))
        assert vertex_polynomials(g) == want

    @given(graphs_st(min_n=0, max_n=8))
    def test_counted_polynomials_in_checked_form(self, g):
        for p in vertex_polynomials(g):
            assert_checked_form(p)
        for v in range(g.n):
            assert_checked_form(degree_polynomial(g, v))
        assert_checked_form(graph_degree_polynomial(g))

    @given(graphs_st())
    def test_no_constant_term_without_isolated_vertices(self, g):
        if g.isolated_vertices():
            return
        for v in range(g.n):
            assert degree_polynomial(g, v).coefficient(0) == 0


class TestGraphPolynomial:
    def test_fixtures(self):
        assert graph_degree_polynomial(paw_graph()) == P("x+2x^2+x^3")
        assert graph_degree_polynomial(complete_graph(4)) == P("4x^3")
        assert graph_degree_polynomial(empty_graph(2)) == P("2")

    @given(graphs_st())
    def test_counts_vertices_and_edges(self, g):
        gp = graph_degree_polynomial(g)
        stats = coeff_stats(gp)
        assert stats.total == g.n
        assert stats.first_moment == 2 * g.edge_count
        if g.n and max(g.degrees()) > 0:
            assert gp.degree == max(g.degrees())

    @given(graphs_st())
    def test_vertex_sum_identity(self, g):
        # Summing the vertex polynomials weights each degree count by the
        # degree itself: coefficient of x^i is i * (number of degree-i vertices).
        total = Z
        for v in range(g.n):
            total = total + degree_polynomial(g, v)
        gp = graph_degree_polynomial(g)
        expected = DegreePoly({e: e * c for e, c in gp if e > 0})
        assert total == expected


class TestSequence:
    def test_worked_example(self):
        seq = degree_polynomial_sequence(paw_graph())
        assert [str(p) for p in seq] == ["2x^2+x", "x^3+x^2", "x^3+x^2", "x^3"]

    def test_cycle(self):
        seq = degree_polynomial_sequence(cycle_graph(5))
        assert list(seq) == [P("2x^2")] * 5

    def test_isolated_vertex_rejected_with_labels(self):
        with pytest.raises(IsolatedVertexError) as exc:
            degree_polynomial_sequence(empty_graph(1))
        assert exc.value.vertices == ("v0",)

    def test_parse_and_str(self):
        seq = PolySequence.parse("x^2+x^3, 2x^2+x\nx^3")
        assert str(seq) == "2x^2+x, x^3+x^2, x^3"
        with pytest.raises(ZeroEntryError):
            PolySequence.parse("x, 0")
        with pytest.raises(ZeroEntryError):
            PolySequence.parse("   ")

    def test_parse_errors_name_the_line(self):
        from degpoly.errors import PolyParseError

        with pytest.raises(PolyParseError, match="line 3"):
            PolySequence.parse("x\nx^2\n2x^?\n")

    def test_from_pairs(self):
        seq = PolySequence.from_pairs([[[2, 2], [1, 1]], [[3, 1]]])
        assert str(seq) == "2x^2+x, x^3"

    def test_many_equal_entries_within_a_second(self):
        # Presentation used to be quadratic in the entries: 3.4 s here.
        t0 = time.perf_counter()
        seq = PolySequence.from_polys([P("2x^2")] * 100_000)
        elapsed = time.perf_counter() - t0
        assert len(seq) == 100_000
        assert elapsed < 1.0, f"{elapsed:.3f}s"

    def test_multiset_ignores_presentation(self):
        a = PolySequence.from_polys([P("x"), P("2x")])
        b = PolySequence.from_polys([P("2x"), P("x")])
        assert a == b
        assert a.multiset() == b.multiset()


class TestClosedForms:
    def test_paper_fixtures(self):
        assert [str(p) for p in closed_form_sequence("path", 4)] == [
            "x^2+x",
            "x^2+x",
            "x^2",
            "x^2",
        ]
        assert list(closed_form_sequence("complete", 4)) == [P("3x^3")] * 4
        assert [str(p) for p in closed_form_sequence("complete_bipartite", 3, 2)] == [
            "3x^2",
            "3x^2",
            "2x^3",
            "2x^3",
            "2x^3",
        ]

    def test_small_paths(self):
        assert list(closed_form_sequence("path", 2)) == [P("x")] * 2
        assert [str(p) for p in closed_form_sequence("path", 3)] == ["2x", "x^2", "x^2"]

    def test_matches_direct_computation(self):
        cases = (
            [("complete", (n,)) for n in range(2, 13)]
            + [("path", (n,)) for n in range(2, 13)]
            + [("cycle", (n,)) for n in range(3, 13)]
            + [("complete_bipartite", (r, s)) for r in range(1, 9) for s in range(1, r + 1)]
        )
        for kind, params in cases:
            direct = degree_polynomial_sequence(family(kind, *params))
            assert closed_form_sequence(kind, *params) == direct, (kind, params)

    def test_trivial_complete_graph_has_no_sequence(self):
        with pytest.raises(IsolatedVertexError):
            closed_form_sequence("complete", 1)

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            closed_form_sequence("cycle", 2)
        with pytest.raises(BadParamsError):
            closed_form_sequence("complete_bipartite", 2, 3)
        with pytest.raises(BadParamsError):
            closed_form_sequence("torus", 2)


class TestRegularity:
    def test_fixtures(self):
        assert regularity_from_sequence(PolySequence.from_polys([P("2x^2")] * 5)) == 2
        ex = degree_polynomial_sequence(paw_graph())
        assert regularity_from_sequence(ex) is None
        mixed = PolySequence.from_polys([P("2x^2")] * 3 + [P("2x")])
        assert regularity_from_sequence(mixed) is None

    def test_coefficient_must_equal_exponent(self):
        assert regularity_from_sequence(PolySequence.from_polys([P("3x^2")] * 2)) is None

    @given(graphs_st())
    def test_both_directions(self, g):
        if g.isolated_vertices():
            return
        seq = degree_polynomial_sequence(g)
        degrees = set(g.degrees())
        r = regularity_from_sequence(seq)
        if len(degrees) == 1:
            assert r == degrees.pop()
        else:
            assert r is None


class TestFormulas:
    def test_join(self):
        assert join_formula(Z, P("1"), 1, 1) == P("x")
        assert join_formula(Z, P("4x^2"), 1, 4) == P("4x^3")
        # a cycle vertex joined with a single vertex, via the swapped call
        assert join_formula(P("2x^2"), P("1"), 4, 1) == P("2x^3+x^4")
        with pytest.raises(InconsistentInputsError):
            join_formula(Z, P("4x^2"), 1, 5)
        # an order-0 other factor leaves dp(u) as it is; an order-0 own one
        # has no vertex u
        assert join_formula(P("2x^2"), Z, 3, 0) == P("2x^2")
        with pytest.raises(InconsistentInputsError):
            join_formula(Z, P("2x^2"), 0, 3)
        for g, h in ((empty_graph(0), complete_graph(3)), (complete_graph(3), empty_graph(0))):
            chk = verify_operation("join", g, h)
            assert chk.ok and chk.vertices_checked == 3

    def test_cartesian(self):
        assert cartesian_formula(P("x"), P("x"), 1, 1) == P("2x^2")
        assert cartesian_formula(P("2x"), P("x"), 2, 1) == P("x^3+2x^2")
        assert cartesian_formula(Z, Z, 0, 0).is_zero
        with pytest.raises(InconsistentInputsError):
            cartesian_formula(P("x"), P("x"), 2, 1)

    def test_tensor(self):
        assert tensor_formula(P("x"), P("x")) == P("x")
        assert tensor_formula(P("2x"), P("x")) == P("2x")
        assert tensor_formula(Z, P("x^5")).is_zero

    def test_lexicographic(self):
        assert lexicographic_formula(P("x"), P("x"), P("2x"), 1, 2) == P("3x^3")
        assert lexicographic_formula(P("x"), Z, P("2"), 1, 2) == P("2x^2")
        assert lexicographic_formula(Z, Z, P("2x"), 0, 2).is_zero
        with pytest.raises(InconsistentInputsError):
            lexicographic_formula(P("x"), P("x"), P("2x"), 2, 2)
        with pytest.raises(InconsistentInputsError, match="at least one vertex"):
            lexicographic_formula(P("x"), Z, Z, 1, n_second=0)

    def test_complement(self):
        assert complement_formula(P("x+2x^2+x^3"), P("x^3"), 1, 4) == P("2x")
        assert complement_formula(P("5x^2"), P("2x^2"), 2, 5) == P("2x^2")
        assert complement_formula(P("4x^3"), P("3x^3"), 3, 4).is_zero
        with pytest.raises(InconsistentInputsError):
            complement_formula(P("5x^2"), P("2x^2"), 2, 4)
        with pytest.raises(InconsistentInputsError, match="at least 1"):
            complement_formula(Z, Z, 0, n=0)


small_polys = st.dictionaries(st.integers(0, 8), st.integers(1, 4), max_size=4).map(DegreePoly)


def order_of(p: DegreePoly):
    """The order or degree argument a formula expects for ``p``, that value
    as a float, or any small integer (negative and zero included)."""
    total = coeff_sum(p)
    return st.sampled_from([total, float(total)]) | st.integers(-2, 12)


def outcome(formula, *args):
    """The polynomial ``formula`` returns, or the type of what it raises."""
    try:
        return formula(*args)
    except (TypeError, ValueError, InconsistentInputsError) as exc:
        return type(exc)


class TestFusedFormulas:
    """The Cartesian and lexicographic formulas accumulate into one dict;
    they equal the composition of exponent transforms they replaced, and
    raise the same error types on the same arguments."""

    @given(st.data())
    def test_cartesian_equals_composition(self, data):
        pu, pv = data.draw(small_polys), data.draw(small_polys)
        args = (pu, pv, data.draw(order_of(pu)), data.draw(order_of(pv)))
        got = outcome(cartesian_formula, *args)
        assert got == outcome(oracle_cartesian_formula, *args)
        if isinstance(got, DegreePoly):
            assert_checked_form(got)

    @given(st.data())
    def test_lexicographic_equals_composition(self, data):
        pu, pv, ph = data.draw(small_polys), data.draw(small_polys), data.draw(small_polys)
        args = (pu, pv, ph, data.draw(order_of(pu)), data.draw(order_of(ph)))
        got = outcome(lexicographic_formula, *args)
        assert got == outcome(oracle_lexicographic_formula, *args)
        if isinstance(got, DegreePoly):
            assert_checked_form(got)

    def test_argument_errors(self):
        with pytest.raises(TypeError):
            cartesian_formula(P("x"), P("2x"), 1.0, 2)
        with pytest.raises(TypeError):
            cartesian_formula(P("x"), P("2x"), 1, 2.0)
        with pytest.raises(InconsistentInputsError):
            cartesian_formula(P("x"), P("2x"), 1, 3)
        with pytest.raises(TypeError):
            lexicographic_formula(P("x"), P("x"), P("2x"), 1, 2.0)
        with pytest.raises(TypeError):
            lexicographic_formula(P("x"), P("x"), P("2x"), 1.0, 2)
        with pytest.raises(InconsistentInputsError):
            lexicographic_formula(P("x"), P("x"), P("2x"), 1, 3)
        with pytest.raises(InconsistentInputsError, match="at least one vertex"):
            lexicographic_formula(P("x"), P("x"), Z, 1, -1)


class TestVerifyOperation:
    def test_fixtures(self):
        chk = verify_operation("join", path_graph(3), cycle_graph(4))
        assert chk.ok and chk.vertices_checked == 7
        chk = verify_operation("complement", paw_graph())
        assert chk.ok and chk.vertices_checked == 4
        k2 = complete_graph(2)
        chk = verify_operation("tensor", k2, k2)
        assert chk.ok and chk.vertices_checked == 4

    def test_named_pairs_all_ops(self):
        zoo = [
            complete_graph(1),
            complete_graph(2),
            path_graph(3),
            cycle_graph(4),
            complete_graph(4),
            empty_graph(2),
        ]
        for op in (OpKind.JOIN, OpKind.CARTESIAN, OpKind.TENSOR, OpKind.LEXICOGRAPHIC):
            for g in zoo:
                for h in zoo:
                    chk = verify_operation(op, g, h)
                    assert chk.ok, (op, g.edges(), h.edges())
        for g in zoo:
            assert verify_operation(OpKind.COMPLEMENT, g).ok

    def test_random_pairs_all_ops(self):
        rng = random.Random(23)
        for _ in range(40):
            g = mask_graph(rng.randint(1, 6), rng.getrandbits(15))
            h = mask_graph(rng.randint(1, 6), rng.getrandbits(15))
            op = rng.choice(list(OpKind))
            if op is OpKind.COMPLEMENT:
                chk = verify_operation(op, g)
            else:
                chk = verify_operation(op, g, h)
            assert chk.ok

    def test_report_shape(self):
        chk = verify_operation("cartesian", complete_graph(2), complete_graph(2))
        d = chk.to_dict()
        assert d["ok"] and d["vertices_checked"] == 4 and d["mismatches"] == []


class TestDpReport:
    def test_sequence_present_without_isolated(self):
        rep = dp_report(cycle_graph(4))
        assert rep.regular_r == 2
        assert rep.sums_match_degrees
        assert rep.to_dict()["sequence"] is not None

    def test_sequence_equals_degree_polynomial_sequence(self):
        rng = random.Random(7)
        for _ in range(200):
            g = mask_graph(7, rng.getrandbits(21))
            rep = dp_report(g)
            if g.isolated_vertices():
                assert rep.sequence is None
            else:
                assert rep.sequence.entries == degree_polynomial_sequence(g).entries

    def test_isolated_vertices_drop_sequence(self):
        rep = dp_report(empty_graph(2))
        assert rep.sequence is None
        d = rep.to_dict()
        assert d["graph_dp"] == ((0, 2),)
        assert d["sequence"] is None
