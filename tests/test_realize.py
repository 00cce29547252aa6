"""Realizability: projections, classical tests, enumeration, search."""

import hashlib
import itertools
import json
import multiprocessing
import os
import time
from collections import Counter
from contextlib import closing

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from degpoly import (
    DegreePoly,
    PolySequence,
    SimpleGraph,
    basic_facts,
    canonical_form,
    classify_all,
    degree_polynomial_sequence,
    degree_projection,
    erdos_gallai,
    havel_hakimi,
    iter_labeled_graphs,
    necessary_conditions,
    parse_poly,
    realize,
)
from degpoly import realizability
from degpoly.graphs import canonical_encoding
from degpoly.errors import (
    BadParamsError,
    NotSortedError,
    TooLargeError,
    WitnessVerificationError,
    ZeroEntryError,
)
from helpers import (
    all_graphs,
    degree_multiset,
    labeled_graph_count,
    labeled_graph_exists,
    mask_graph,
    oracle_erdos_gallai,
    oracle_realize,
    paw_graph,
    vertex_zero_units,
)

P = parse_poly

S1 = PolySequence.parse("2x, x^2, x, x, x")
S2 = PolySequence.parse("2x, x^2, x^2, x, x, x")
S3 = PolySequence.parse("2x^2, x, x, x, x")
S4 = PolySequence.parse("2x^2, 2x, 2x, x, x")  # passes (a)(b)(c) yet unrealizable
SEQ_TWO_REALIZATIONS = PolySequence.parse("2x^2+x^3, 2x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3")
# Order 11, five vertex-0 units; its --all search takes seconds (1,932
# classes), while its first witness lies in the second unit.
SEQ_MANY_UNITS = PolySequence.parse(
    "3x^4+x^3, 3x^4+x^3, 3x^4+x^3, 3x^4+x^3, 2x^4+2x^3, 2x^4+2x^3,"
    " 2x^4+2x^3, 3x^4, 3x^4, 2x^4+x^3, 2x^4+x^3"
)


class TestProjection:
    def test_fixtures(self):
        assert degree_projection(S1) == (2, 1, 1, 1, 1)
        assert degree_projection([P("2x^2")] * 5) == (2, 2, 2, 2, 2)
        assert degree_projection(SEQ_TWO_REALIZATIONS) == (3, 3, 2, 2, 2, 2)
        for seq in (S1, S4, SEQ_TWO_REALIZATIONS):
            assert degree_projection(seq) == degree_projection(list(seq.entries))

    def test_zero_entry(self):
        with pytest.raises(ZeroEntryError):
            degree_projection([P("x"), DegreePoly.zero()])


class TestBasicFacts:
    def test_degree_exceeds_order(self):
        facts = basic_facts((3, 1))
        assert not facts.max_degree_ok
        assert facts.even_sum

    def test_odd_sum(self):
        facts = basic_facts((1, 1, 1))
        assert not facts.even_sum
        assert facts.max_degree_ok and facts.has_repeat

    def test_all_pass(self):
        assert basic_facts((2, 1, 1, 1, 1)).all_hold

    def test_vacuous_when_zero_present(self):
        facts = basic_facts((2, 1, 1, 0))
        assert facts.total_within_bounds and facts.has_repeat


class TestErdosGallai:
    def test_fixtures(self):
        assert erdos_gallai((3, 3, 2, 2, 2, 2))
        assert erdos_gallai((2, 1, 1, 1, 1))
        assert not erdos_gallai((1, 1, 1))

    def test_single_entry(self):
        assert erdos_gallai((0,))
        assert not erdos_gallai((2,))

    def test_not_sorted(self):
        with pytest.raises(NotSortedError):
            erdos_gallai((1, 2))

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="nonnegative"):
            erdos_gallai((1, 1, -1))

    @example([59] * 60)
    @example([1] * 60)
    @settings(max_examples=400)
    @given(st.integers(0, 60).flatmap(lambda n: st.lists(st.integers(0, n), min_size=n, max_size=n)))
    def test_equals_oracle(self, d):
        d = sorted(d, reverse=True)
        assert erdos_gallai(d) == oracle_erdos_gallai(d)


class TestHavelHakimi:
    def test_triangle(self):
        ok, g = havel_hakimi((2, 2, 2))
        assert ok and g.edge_count == 3 and set(g.degrees()) == {2}

    def test_unrealizable(self):
        ok, g = havel_hakimi((3, 1, 1))
        assert not ok and g is None

    def test_witness_degrees(self):
        ok, g = havel_hakimi((2, 1, 1, 1, 1))
        assert ok
        assert degree_multiset(g) == (2, 1, 1, 1, 1)

    def test_not_sorted(self):
        with pytest.raises(NotSortedError):
            havel_hakimi((1, 2))


class TestEnumeration:
    def test_fixture_counts(self):
        assert labeled_graph_count((2, 2, 2)) == 1
        assert labeled_graph_count((1, 1)) == 1
        assert labeled_graph_count((2, 1, 1)) == 3

    def test_against_exhaustive_bitmask_oracle(self):
        # Independent oracle: scan all 2^(n choose 2) graphs and bucket them
        # by degree multiset; the enumerator must reproduce every bucket.
        for n in range(1, 5):
            expected = Counter()
            for g in all_graphs(n):
                expected[degree_multiset(g)] += 1
            for d, want in sorted(expected.items()):
                got = list(iter_labeled_graphs(d))
                assert len(got) == want, (d, want, len(got))
                assert len(set(got)) == len(got)  # visited exactly once

    def test_graph_degrees_match_request(self):
        for edges in iter_labeled_graphs((3, 2, 2, 2, 1)):
            degs = [0] * 5
            for u, v in edges:
                degs[u] += 1
                degs[v] += 1
            assert tuple(sorted(degs, reverse=True)) == (3, 2, 2, 2, 1)

    def test_bound_and_sortedness(self):
        with pytest.raises(TooLargeError):
            labeled_graph_count((1,) * 10)
        with pytest.raises(NotSortedError):
            labeled_graph_count((1, 2, 1))

    def test_three_oracles_agree_small(self):
        # Erdos-Gallai, Havel-Hakimi and brute-force existence, pairwise,
        # over every non-increasing sequence with n <= 5 and entries <= 4.
        for n in range(1, 6):
            for d in itertools.combinations_with_replacement(range(4, -1, -1), n):
                eg = erdos_gallai(d)
                hh, witness = havel_hakimi(d)
                bf = labeled_graph_exists(d)
                assert eg == hh == bf, d
                if hh:
                    assert degree_multiset(witness) == d


class TestTwinPrefixRows:
    def test_prefix_of_every_group_in_combination_order(self):
        rows = list(realizability._twin_prefix_rows((1, 2, 3, 4), "aaba", 2))
        assert rows == [(1, 2), (1, 3)]
        assert list(realizability._twin_prefix_rows((1, 2), "ab", 1)) == [(1,), (2,)]

    def test_same_classes_and_first_leaf_as_full_search(self):
        # Every degree multiset up to order 6: the twin rule reaches the same
        # isomorphism classes as the full search, and the same first graph.
        for n in range(1, 7):
            for d in realizability._graphical_positive_multisets(n):
                assert reached(d, twins=True) == reached(d, twins=False), d

    def test_canonical_form_calls_on_a_regular_sequence(self, monkeypatch):
        # Every leaf is labeled once, by its certificate; the twin rule keeps
        # 8 x 2x^2 to a leaf or two per class.
        calls = []
        real = realizability.canonical_encoding

        def counted(n, masks):
            calls.append(n)
            return real(n, masks)

        monkeypatch.setattr(realizability, "canonical_encoding", counted)
        rep = realize(PolySequence.from_polys([P("2x^2")] * 8))
        assert rep.nonisomorphic_count == 3
        assert len(calls) == 4


def reached(d, twins):
    """The first graph ``_iter_adj`` yields and the canonical encodings of
    all it yields."""
    first, codes = None, set()
    for adj in realizability._iter_adj(d, twins=twins):
        if first is None:
            first = realizability._adj_edges(adj)
        codes.add(canonical_encoding(len(d), [sum(1 << w for w in row) for row in adj]))
    return first, codes


class TestNecessaryConditions:
    def test_verdict_s1(self):
        rep = necessary_conditions(S1)
        assert rep.cond_a_pass and rep.cond_b_pass and not rep.cond_c_pass
        assert rep.first_failure() == "(c)"
        assert rep.projection_graphical  # the integer projection IS graphical

    def test_verdict_s2(self):
        rep = necessary_conditions(S2)
        assert not rep.cond_a_pass and rep.cond_b_pass and rep.cond_c_pass
        assert rep.first_failure() == "(a)"

    def test_verdict_s3(self):
        rep = necessary_conditions(S3)
        assert rep.cond_a_pass and not rep.cond_b_pass and rep.cond_c_pass
        assert rep.first_failure() == "(b)"
        assert rep.cond_b_violation == (0, 2, 2)

    def test_verdict_s4_all_pass(self):
        rep = necessary_conditions(S4)
        assert rep.all_pass

    def test_unsorted_input_flagged(self):
        rep = necessary_conditions([P("x"), P("2x")])
        assert not rep.input_was_sorted
        assert necessary_conditions([P("2x"), P("x")]).input_was_sorted
        for seq in (S1, S2, S3, S4):
            as_list = necessary_conditions(list(seq.entries))
            assert necessary_conditions(seq).to_dict() == as_list.to_dict()

    def test_zero_entry(self):
        with pytest.raises(ZeroEntryError):
            necessary_conditions([DegreePoly.zero()])

    def test_constant_terms_always_violate_support_condition(self):
        # A constant term claims a neighbor of degree 0, but every entry of
        # a sequence has coefficient sum >= 1, so (b) must fail.
        rep = necessary_conditions(PolySequence.parse("x+1, x, x, x"))
        assert not rep.cond_b_pass
        assert rep.cond_b_violation is not None
        _, exponent, _ = rep.cond_b_violation
        assert exponent == 0

    def test_sound_on_all_small_graphs(self):
        # Every graph without isolated vertices satisfies (a), (b), (c).
        for n in range(2, 6):
            for g in all_graphs(n):
                if g.isolated_vertices():
                    continue
                rep = necessary_conditions(degree_polynomial_sequence(g))
                assert rep.all_pass, g.edges()


class TestRealize:
    def test_conditions_gate_cites_failure(self):
        rep = realize(S1)
        assert rep.realizable is False and not rep.searched
        assert "(c)" in rep.reason

    def test_insufficiency_witness(self):
        rep = realize(S4)
        assert rep.conditions.all_pass
        assert rep.searched and rep.exhaustive
        assert rep.nonisomorphic_count == 0
        assert rep.realizable is False

    def test_non_uniqueness(self):
        rep = realize(SEQ_TWO_REALIZATIONS)
        assert rep.exhaustive
        assert rep.nonisomorphic_count >= 2
        for w in rep.witnesses:
            assert degree_polynomial_sequence(w.graph()).multiset() == SEQ_TWO_REALIZATIONS.multiset()

    def test_uniqueness_of_pentagon(self):
        rep = realize(PolySequence.from_polys([P("2x^2")] * 5))
        assert rep.exhaustive and rep.nonisomorphic_count == 1
        w = rep.witnesses[0].graph()
        assert (w.n, w.edge_count) == (5, 5) and set(w.degrees()) == {2}

    def test_beyond_bound_is_inconclusive(self):
        rep = realize(PolySequence.from_polys([P("2x^2")] * 5), max_n=4)
        assert not rep.searched and rep.realizable is None

    def test_search_bound_stops_at_the_canonical_form_bound(self):
        rep = realize([P("2x^2")] * 17, max_n=17, want_all_witnesses=False)
        assert not rep.searched and rep.realizable is None
        assert rep.reason == "order 17 exceeds the search bound 16"

    def test_early_stop(self):
        rep = realize(PolySequence.from_polys([P("x"), P("x")]), want_all_witnesses=False)
        assert rep.nonisomorphic_count == 1
        assert not rep.exhaustive

    def test_deterministic_reports(self):
        a = json.dumps(realize(SEQ_TWO_REALIZATIONS).to_dict())
        b = json.dumps(realize(SEQ_TWO_REALIZATIONS).to_dict())
        assert a == b

    def test_workers_do_not_change_bytes(self):
        for want_all in (True, False):
            one = realize(SEQ_TWO_REALIZATIONS, want_all_witnesses=want_all, workers=1)
            four = realize(SEQ_TWO_REALIZATIONS, want_all_witnesses=want_all, workers=4)
            assert json.dumps(one.to_dict()) == json.dumps(four.to_dict())

    @pytest.mark.parametrize(
        "entry, n, classes", [("3x^3", 8, 6), ("4x^4", 9, 16), ("3x^3", 10, 21)]
    )
    def test_witnesses_past_order_six(self, entry, n, classes):
        # Past the pinned n <= 6 reports: each class is decoded from its
        # certificate once, so check the decoding and the order here.
        seq = PolySequence.from_polys([P(entry)] * n)
        rep = realize(seq, max_n=12)
        assert rep.nonisomorphic_count == classes
        edge_lists = [w.edges for w in rep.witnesses]
        assert all(a < b for a, b in zip(edge_lists, edge_lists[1:]))
        assert all(canonical_form(w.graph()) == w for w in rep.witnesses)
        assert realize(seq, max_n=12, workers=2).to_dict() == rep.to_dict()

    def test_early_stop_with_pool_is_prompt(self):
        # A regular sequence has a single vertex-0 unit, which leaves the
        # pool nothing to abandon; this one has several.
        seq = SEQ_MANY_UNITS
        assert vertex_zero_units(seq) >= 2
        t0 = time.perf_counter()
        pooled = realize(seq, max_n=11, want_all_witnesses=False, workers=4)
        assert time.perf_counter() - t0 < 2.0
        serial = realize(seq, max_n=11, want_all_witnesses=False, workers=1)
        assert json.dumps(pooled.to_dict()) == json.dumps(serial.to_dict())
        assert pooled.nonisomorphic_count == 1 and not pooled.exhaustive

    def test_pool_size_is_capped_at_the_cpu_count(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        pooled = realize(SEQ_TWO_REALIZATIONS, workers=10**6)
        assert started == [os.cpu_count() or 1]
        serial = realize(SEQ_TWO_REALIZATIONS, workers=1)
        assert json.dumps(pooled.to_dict()) == json.dumps(serial.to_dict())

    def test_pool_stops_without_draining_the_payloads(self):
        pulled = []

        def payloads():
            for _ in range(100_000):
                pulled.append(None)
                yield 0.2

        t0 = time.perf_counter()
        with closing(realizability._ordered_map(time.sleep, payloads(), 2)) as results:
            assert next(results) is None
        # Waiting for the calls still running, or for all 100,000 sleeps,
        # would take far longer.
        assert time.perf_counter() - t0 < 2.0
        assert len(pulled) < 100_000

    def test_workers_below_one_rejected(self):
        with pytest.raises(BadParamsError):
            realize(S4, workers=0)
        with pytest.raises(BadParamsError):
            classify_all(3, workers=-1)

    def test_failed_witness_recheck_raises_typed_error(self, monkeypatch):
        # Unrealizable (a degree-2 neighbour of the degree-3 vertex would see
        # a degree-3 neighbour), yet it passes the conditions.  A vertex key
        # that calls every neighbour degree 2 lets graphs with its projection
        # through the search; the re-check must catch them.
        seq = PolySequence.parse("3x^2, 2x^2, 2x^2, 2x^2, x^2")
        assert realize(seq).realizable is False
        monkeypatch.setattr(
            realizability, "_vertex_key", lambda degvec, nbrs: ((2, len(nbrs)),)
        )
        with pytest.raises(WitnessVerificationError):
            realize(seq)


@pytest.fixture(scope="module")
def realizable_up_to_six():
    return [e.sequence for n in range(1, 7) for e in classify_all(n)]


def _report_bytes(report):
    return json.dumps(report.to_dict(), separators=(",", ":"))


# sha256 of ``_report_bytes`` of ``realize`` on every realizable sequence
# with n <= 6, all witnesses then the first, in ``classify_all`` order: 302
# reports.  Pinned while canonical forms came from sorted edge tuples; a
# change to canonical labeling that moves any witness changes it, which
# ``TestOracle`` would not see, since its oracle labels through
# ``canonical_form`` too.
REPORTS_UP_TO_SIX_SHA256 = "29e7e9bd501abe5ca2d6722b1a6b5f3ea49b4a20481d267f2bd61c2522d802fe"


def _near_misses(sequences):
    """Sequences one coefficient away from a realizable one: a unit moved
    between two exponents of one entry, so the projection is unchanged.
    Only those that pass the necessary conditions and are not themselves
    in ``sequences`` are kept."""
    known = {s.multiset() for s in sequences}
    out = {}
    for seq in sequences:
        n = len(seq)
        for i, p in enumerate(seq.entries):
            for src, _ in p:
                for dst in range(1, n):
                    if dst == src:
                        continue
                    moved = p - DegreePoly({src: 1}) + DegreePoly({dst: 1})
                    entries = seq.entries[:i] + (moved,) + seq.entries[i + 1 :]
                    near = PolySequence.from_polys(entries)
                    key = near.multiset()
                    if key not in known and necessary_conditions(near).all_pass:
                        out[key] = near
    return [out[key] for key in sorted(out)]


class TestOracle:
    """The pruned search on the sorted assignment against the old search
    (every assignment, finished graphs filtered by their whole key)."""

    def test_every_realizable_sequence_up_to_order_six(self, realizable_up_to_six):
        assert len(realizable_up_to_six) == 151
        for seq in realizable_up_to_six:
            for want_all in (True, False):
                got = realize(seq, want_all_witnesses=want_all)
                assert got.realizable is True
                want = oracle_realize(seq, want_all)
                assert _report_bytes(got) == _report_bytes(want), (seq, want_all)

    def test_reports_up_to_order_six_are_pinned(self, realizable_up_to_six):
        digest = hashlib.sha256()
        for seq in realizable_up_to_six:
            for want_all in (True, False):
                report = realize(seq, want_all_witnesses=want_all)
                digest.update(_report_bytes(report).encode())
        assert digest.hexdigest() == REPORTS_UP_TO_SIX_SHA256

    def test_unrealizable_sequences_passing_the_conditions(self, realizable_up_to_six):
        near = _near_misses(realizable_up_to_six)
        # Every order-6 near miss costs the oracle about 0.1 s; a fixed tenth
        # of them keeps the test short.
        small = [s for s in near if len(s) < 6]
        sequences = small + [s for s in near if len(s) == 6][::10] + [S4]
        assert len(sequences) == 51
        for seq in sequences:
            for want_all in (True, False):
                got = realize(seq, want_all_witnesses=want_all)
                assert got.realizable is False and got.exhaustive
                want = oracle_realize(seq, want_all)
                assert _report_bytes(got) == _report_bytes(want), (seq, want_all)


@st.composite
def graphs_without_isolated_vertices(draw):
    n = draw(st.integers(2, 7))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = mask_graph(n, mask)
    assume(not g.isolated_vertices())
    return g


# x^3+2x^2, x^3+2x^2, 2x^2, x^3+x^2 (four times): two classes, which the
# search meets in an order that is not sorted by canonical edges.
@example(
    SimpleGraph.from_edges(
        7, [(0, 4), (0, 6), (1, 4), (1, 5), (2, 3), (2, 6), (3, 5), (5, 6)]
    )
)
@given(graphs_without_isolated_vertices())
def test_realize_round_trip(g):
    rep = realize(degree_polynomial_sequence(g))
    assert rep.realizable is True
    assert canonical_form(g) in rep.witnesses
    edge_lists = [w.edges for w in rep.witnesses]
    assert all(a < b for a, b in zip(edge_lists, edge_lists[1:]))


class TestClassifyAll:
    def test_order_two(self):
        out = classify_all(2)
        assert len(out) == 1
        assert str(out[0].sequence) == "x, x"
        assert out[0].isomorphism_classes == 1

    def test_order_three(self):
        out = classify_all(3)
        assert [str(e.sequence) for e in out] == ["2x, x^2, x^2", "2x^2, 2x^2, 2x^2"]
        assert [e.isomorphism_classes for e in out] == [1, 1]

    def test_counts_against_bitmask_oracle(self):
        # Total classes must match brute-force dedup of all graphs without
        # isolated vertices (min-bitmask over permutations as the key).
        from helpers import brute_min_mask

        for n in range(2, 6):
            expected = set()
            E = n * (n - 1) // 2
            for mask in range(1 << E):
                from helpers import mask_graph

                if mask_graph(n, mask).isolated_vertices():
                    continue
                expected.add(brute_min_mask(n, mask))
            got = classify_all(n)
            assert sum(e.isomorphism_classes for e in got) == len(expected)

    def test_class_totals_match_oeis_a002494(self):
        # A002494: graphs on n unlabeled vertices with no isolated vertex.
        # Covers n = 6 to 8, beyond the reach of the bitmask oracle.
        totals = [
            sum(e.isomorphism_classes for e in classify_all(n)) for n in range(1, 9)
        ]
        assert totals == [0, 1, 2, 7, 23, 122, 888, 11302]

    def test_shared_sequence_has_two_classes_at_order_six(self):
        out = classify_all(6)
        matches = [e for e in out if e.sequence == SEQ_TWO_REALIZATIONS]
        assert len(matches) == 1
        assert matches[0].isomorphism_classes >= 2

    def test_bound(self):
        with pytest.raises(TooLargeError):
            classify_all(9)

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_rejected(self, n):
        with pytest.raises(BadParamsError):
            classify_all(n)

    def test_workers_match(self):
        a = [e.to_dict() for e in classify_all(4, workers=1)]
        b = [e.to_dict() for e in classify_all(4, workers=3)]
        assert a == b


class TestRemarkProjection:
    def test_witnesses_imply_graphical_projection(self):
        for seq in (SEQ_TWO_REALIZATIONS, PolySequence.from_polys([P("2x^2")] * 5)):
            rep = realize(seq)
            if rep.witnesses:
                assert erdos_gallai(degree_projection(seq))

    def test_paw_sequence_realizes_itself(self):
        seq = degree_polynomial_sequence(paw_graph())
        rep = realize(seq)
        assert rep.realizable is True
        assert rep.nonisomorphic_count == 1
