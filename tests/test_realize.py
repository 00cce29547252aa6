"""Realizability: projections, classical tests, enumeration, search."""

import hashlib
import itertools
import json
import multiprocessing
import os
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from degpoly import (
    DegreePoly,
    PolySequence,
    SimpleGraph,
    basic_facts,
    canonical_form,
    cartesian_formula,
    classify_all,
    coeff_sum,
    degree_polynomial_sequence,
    degree_projection,
    erdos_gallai,
    gale_ryser,
    havel_hakimi,
    iter_labeled_graphs,
    necessary_conditions,
    parse_poly,
    realize,
)
from degpoly import realizability
from degpoly.errors import (
    BadParamsError,
    NotSortedError,
    TooLargeError,
    WitnessVerificationError,
    ZeroEntryError,
)
from helpers import (
    all_graphs,
    bipartite_degree_pairs,
    condition_passing_sequences,
    degree_multiset,
    labeled_graph_count,
    labeled_graph_exists,
    mask_graph,
    oracle_erdos_gallai,
    oracle_realize,
    paw_graph,
)

P = parse_poly

S1 = PolySequence.parse("2x, x^2, x, x, x")
S2 = PolySequence.parse("2x, x^2, x^2, x, x, x")
S3 = PolySequence.parse("2x^2, x, x, x, x")
S4 = PolySequence.parse("2x^2, 2x, 2x, x, x")  # passes (a)(b)(c) yet unrealizable
SEQ_TWO_REALIZATIONS = PolySequence.parse("2x^2+x^3, 2x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3")
# Order 11, past the default search bound; its --all search takes seconds
# (1,932 classes), while its first witness needs no search.
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


class TestGaleRyser:
    def test_fixtures(self):
        assert gale_ryser((2, 1), (1, 1, 1))
        assert gale_ryser((1, 2), (1, 1, 1))  # either side in any order
        assert not gale_ryser((2, 2), (3, 1))

    def test_sum_mismatch(self):
        assert not gale_ryser((1, 1), (1,))
        assert not gale_ryser((2, 1), (1, 1))

    def test_demand_larger_than_the_other_side(self):
        # The sums agree, but one vertex needs more partners than exist.
        assert not gale_ryser((3,), (2, 1))
        assert not gale_ryser((2, 1), (3,))
        assert gale_ryser((3,), (1, 1, 1))

    def test_empty_sides(self):
        assert gale_ryser((), ())
        assert gale_ryser((), (0, 0))
        assert gale_ryser((0,), ())
        assert not gale_ryser((1,), ())
        assert not gale_ryser((), (1,))

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gale_ryser((1, -1), (0,))

    def test_equals_bipartite_oracle(self):
        # Every pair of demand lists with sides of at most 4 vertices and
        # demands up to 5, so some exceed the other side.
        for p, q in itertools.product(range(5), repeat=2):
            realizable = bipartite_degree_pairs(p, q)
            for left in itertools.combinations_with_replacement(range(5, -1, -1), p):
                for right in itertools.combinations_with_replacement(range(5, -1, -1), q):
                    assert gale_ryser(left, right) == ((left, right) in realizable)
                    assert gale_ryser(left[::-1], right[::-1]) == gale_ryser(left, right)


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


def _assert_simple_with_degrees(edges, degrees):
    assert all(u != v for u, v in edges)
    assert len(set(map(frozenset, edges))) == len(edges)
    got = Counter(v for edge in edges for v in edge)
    assert [got[v] for v in range(len(degrees))] == list(degrees)


class TestBuildersDecide:
    """The piece pass trusts each builder to fail exactly when its degrees
    have no realization, and otherwise to realize them exactly."""

    def test_havel_hakimi_edges_against_erdos_gallai(self):
        # Every list of length <= 6 with entries <= 6, in every order, and
        # the length-7 multisets.
        lists = itertools.chain(
            itertools.chain.from_iterable(
                itertools.product(range(7), repeat=n) for n in range(7)
            ),
            itertools.combinations_with_replacement(range(7), 7),
        )
        checked = 0
        for d in lists:
            edges = realizability._havel_hakimi_edges(d)
            assert (edges is None) == (not erdos_gallai(sorted(d, reverse=True))), d
            if edges is not None:
                _assert_simple_with_degrees(edges, d)
            checked += 1
        assert checked == 138973

    def test_ryser_edges_against_gale_ryser(self):
        # Sides of at most 4 vertices and demands up to 5, the
        # ``TestGaleRyser`` domain, with the right side in every order, since
        # ties go to the lower index there.  The builder sorts the left side
        # by demand, so its order only relabels the edges.
        lefts = [
            d
            for n in range(5)
            for d in itertools.combinations_with_replacement(range(5, -1, -1), n)
        ]
        rights = [d for n in range(5) for d in itertools.product(range(6), repeat=n)]
        for a, b in itertools.product(lefts, rights):
            right = range(len(a), len(a) + len(b))
            edges = realizability._ryser_edges(range(len(a)), a, right, b)
            assert (edges is None) == (not gale_ryser(a, b)), (a, b)
            if edges is not None:
                _assert_simple_with_degrees(edges, a + b)
        assert len(lefts) * len(rights) == 326550


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
                one_colour = ([0] * n, [d])
                assert reached(*one_colour, twins=True) == reached(*one_colour, twins=False), d

    def test_same_classes_and_first_leaf_per_entry(self, realizable_up_to_six):
        # The same with each vertex's entry fixed, demands by degree class:
        # every realizable sequence up to order 6.
        for seq in realizable_up_to_six:
            demands = realizability._entry_demands(seq.entries)[1:]
            with_twins = reached(*demands, twins=True)
            assert with_twins == reached(*demands, twins=False), seq
            assert len(with_twins[1]) == realize(seq).nonisomorphic_count, seq

    def test_canonical_form_calls_on_a_regular_sequence(self, monkeypatch):
        # Every leaf is labeled once, by its certificate; the twin rule keeps
        # 8 x 2x^2 to a leaf or two per class.
        rep, calls = realize_counting_leaves(monkeypatch, [P("2x^2")] * 8)
        assert rep.nonisomorphic_count == 3
        assert calls == 4

    def test_canonical_form_calls_on_many_entries(self, monkeypatch):
        # Fixing each vertex's entry meets each class about 9 times on
        # SEQ_MANY_UNITS (17,100 leaves for 1,932 classes); searching by
        # degree and charging finished rows to the sequence met 54,000.
        rep, calls = realize_counting_leaves(monkeypatch, SEQ_MANY_UNITS, max_n=11)
        assert rep.nonisomorphic_count == 1932
        assert calls <= 17100


@pytest.fixture
def serial_pool(monkeypatch):
    """``multiprocessing.Pool`` replaced by a map in this process; returns
    the live list of each started pool's process count."""
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
    return started


def spy_on_units(monkeypatch):
    """Record the part ``(i, k)`` of each search unit ``realize`` runs and
    how many classes it found; returns the live list."""
    units = []
    real = realizability._realize_task

    def recorded(payload):
        found = real(payload)
        units.append((payload[2:], len(found)))
        return found

    monkeypatch.setattr(realizability, "_realize_task", recorded)
    return units


def realize_counting_leaves(monkeypatch, seq, **kwargs):
    """``realize(seq, **kwargs)`` and how many leaves it labeled."""
    calls = []
    real = realizability.canonical_encoding

    def counted(n, masks):
        calls.append(n)
        return real(n, masks)

    monkeypatch.setattr(realizability, "canonical_encoding", counted)
    return realize(seq, **kwargs), len(calls)


def reached(colour, need, twins):
    """The first graph ``_iter_adj`` yields and the canonical encodings of
    all it yields."""
    first, codes = None, set()
    for adj in realizability._iter_adj(colour, need, twins=twins):
        if first is None:
            first = realizability._adj_edges(adj)
        codes.add(realizability._leaf_certificate(adj))
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
        # The degree-2 entries want 2, 0 and 0 neighbours of degree 2, which
        # no graph on those three vertices gives: a proof, so no search.
        for want_all in (True, False):
            rep = realize(S4, want_all_witnesses=want_all)
            assert rep.conditions.all_pass
            assert not rep.searched and rep.exhaustive
            assert rep.nonisomorphic_count == 0
            assert rep.realizable is False
            assert rep.reason == "degree class 2 fails Erdos-Gallai"

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

    def test_beyond_bound_gives_a_verdict(self):
        # Past --max-n, --all reports the verdict and the first witness.
        seq = PolySequence.from_polys([P("2x^2")] * 5)
        rep = realize(seq, max_n=4)
        assert rep.realizable is True and rep.searched and not rep.exhaustive
        assert rep.witnesses == realize(seq, want_all_witnesses=False).witnesses
        assert rep.reason == (
            "1 non-isomorphic realization(s) found; order 5 exceeds the search bound 4"
        )

    def test_search_bound_stops_at_the_canonical_form_bound(self):
        # Past order 16 there is a verdict but no witness to report.
        rep = realize([P("2x^2")] * 17, max_n=17, want_all_witnesses=False)
        assert rep.realizable is True and not rep.searched and not rep.witnesses
        assert rep.reason == "realizable; order 17 exceeds the witness bound 16"
        rep = realize([P("2x^2")] * 17, max_n=17)
        assert rep.realizable is True and not rep.exhaustive and not rep.witnesses
        assert rep.reason == "realizable; order 17 exceeds the search bound 16"

    def test_first_witness_needs_no_search_bound(self):
        # Order 11 is past the default --max-n, which bounds only --all.
        rep = realize(SEQ_MANY_UNITS, want_all_witnesses=False)
        assert rep.realizable is True and rep.searched and not rep.exhaustive
        assert rep.nonisomorphic_count == 1
        regenerated = degree_polynomial_sequence(rep.witnesses[0].graph())
        assert regenerated.multiset() == SEQ_MANY_UNITS.multiset()

    def test_first_witness_is_not_exhaustive(self):
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

    def test_pool_size_is_capped_at_the_cpu_count(self, monkeypatch, serial_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        pooled = realize(SEQ_TWO_REALIZATIONS, workers=10**6)
        assert serial_pool == [3]
        serial = realize(SEQ_TWO_REALIZATIONS, workers=1)
        assert json.dumps(pooled.to_dict()) == json.dumps(serial.to_dict())

    def test_one_worker_searches_in_one_unit(self, monkeypatch):
        # The whole search in one call, without asking for the CPU count;
        # the first witness needs no search.
        def no_cpu_count():
            raise AssertionError("one worker asked for the CPU count")

        monkeypatch.setattr(os, "cpu_count", no_cpu_count)
        units = spy_on_units(monkeypatch)
        for seq in (SEQ_TWO_REALIZATIONS, [P("4x^4")] * 7):
            units.clear()
            realize(seq)
            assert [part for part, _ in units] == [(0, 1)], seq
        units.clear()
        realize([P("4x^4")] * 7, want_all_witnesses=False)
        assert units == []

    def test_a_regular_sequence_splits_by_leaf_stride(self, monkeypatch, serial_pool):
        # A regular sequence has a single row for vertex 0, yet each part
        # of the stride finds a class (order 7 has 6 leaves; order 6 has one).
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        units = spy_on_units(monkeypatch)
        pooled = realize([P("4x^4")] * 7, workers=2)
        assert serial_pool == [2]
        assert [part for part, _ in units] == [(0, 2), (1, 2)]
        assert all(found for _, found in units)
        serial = realize([P("4x^4")] * 7, workers=1)
        assert json.dumps(pooled.to_dict()) == json.dumps(serial.to_dict())

    def test_stride_parts_partition_the_leaves(self, monkeypatch, realizable_up_to_six):
        # Every leaf certificate the serial search labels, each exactly as
        # often, in k parts together.
        labeled = []
        real = realizability._leaf_certificate

        def recorded(adj):
            labeled.append(real(adj))
            return labeled[-1]

        monkeypatch.setattr(realizability, "_leaf_certificate", recorded)
        for seq in realizable_up_to_six:
            _, colour, need = realizability._entry_demands(seq.entries)
            for k in (1, 2, 3):
                labeled.clear()
                for i in range(k):
                    realizability._realize_task((colour, need, i, k))
                if k == 1:
                    serial = Counter(labeled)
                assert Counter(labeled) == serial, (seq, k)

    def test_workers_below_one_rejected(self):
        with pytest.raises(BadParamsError):
            realize(S4, workers=0)
        with pytest.raises(BadParamsError):
            classify_all(3, workers=-1)

    def test_failed_witness_recheck_raises_typed_error(self, monkeypatch):
        # A search unit with one colour, each vertex's degree as its demand,
        # lets through every graph with the projection (3, 3, 2, 2, 2, 2),
        # and the re-check must catch them.
        def degree_search(payload):
            colour, need, i, k = payload
            degrees = [sum(col) for col in zip(*need)]
            adjs = realizability._iter_adj([0] * len(colour), [degrees], twins=True)
            part = itertools.islice(adjs, i, None, k)
            return {realizability._leaf_certificate(adj) for adj in part}

        monkeypatch.setattr(realizability, "_realize_task", degree_search)
        assert realize(SEQ_TWO_REALIZATIONS, want_all_witnesses=False).realizable
        with pytest.raises(WitnessVerificationError):
            realize(SEQ_TWO_REALIZATIONS)

    def test_search_finding_nothing_raises_typed_error(self, monkeypatch):
        # The pass proved the sequence realizable, so an empty --all search
        # is a fault, not a verdict.
        monkeypatch.setattr(realizability, "_realize_task", lambda payload: set())
        with pytest.raises(WitnessVerificationError, match="found no realization"):
            realize(SEQ_TWO_REALIZATIONS)

    @pytest.mark.parametrize("n", [5, 17])
    def test_failed_construction_raises_typed_error(self, monkeypatch, n):
        # A Havel-Hakimi that builds no edges; the constructed graph is
        # re-checked at every order, also past 16 where it is not reported.
        monkeypatch.setattr(realizability, "_havel_hakimi_edges", lambda d: [])
        for want_all in (True, False):
            with pytest.raises(WitnessVerificationError):
                realize([P("2x^2")] * n, want_all_witnesses=want_all)


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
    """``realize`` against the old search (every assignment, finished graphs
    filtered by their whole key)."""

    def test_every_realizable_sequence_up_to_order_six(self, realizable_up_to_six):
        assert len(realizable_up_to_six) == 151
        for seq in realizable_up_to_six:
            want = oracle_realize(seq)
            got = realize(seq)
            assert _report_bytes(got) == _report_bytes(want), seq
            first = realize(seq, want_all_witnesses=False)
            assert first.realizable is True and first.searched and not first.exhaustive
            assert first.nonisomorphic_count == 1
            assert first.witnesses[0] in want.witnesses, seq

    def test_class_counts_equal_classify_all_up_to_order_seven(self):
        # The per-entry search against the degree-only one, per sequence.
        checked = 0
        for n in range(1, 8):
            for entry in classify_all(n):
                rep = realize(entry.sequence)
                assert rep.nonisomorphic_count == entry.isomorphism_classes, entry
                checked += 1
        assert checked == 951

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
            assert oracle_realize(seq).realizable is False, seq
            for want_all in (True, False):
                got = realize(seq, want_all_witnesses=want_all)
                assert got.realizable is False and got.exhaustive and not got.searched


def _search_classes(seq):
    """The certificates the ``--all`` search meets on ``seq``, run whatever
    the verdict, as one part."""
    _, colour, need = realizability._entry_demands(seq.entries)
    return realizability._realize_task((colour, need, 0, 1))


def piece_pass(entries):
    """The degree-class decision on ``entries``, from their demand table."""
    return realizability._piece_pass(entries, *realizability._entry_demands(entries))


@pytest.fixture(scope="module")
def condition_passing_up_to_six():
    return {n: condition_passing_sequences(n) for n in range(1, 7)}


class TestPiecePass:
    """The degree-class decision against the search and ``classify_all``."""

    def test_agrees_with_classify_all_up_to_order_six(self, condition_passing_up_to_six):
        # Every sequence that passes the paper's conditions, both ways: the
        # pass builds a verified graph for each realizable sequence and for
        # no other.
        for n, sequences in condition_passing_up_to_six.items():
            decided = set()
            for seq in sequences:
                failed, graph = piece_pass(seq.entries)
                if failed is None:
                    assert degree_polynomial_sequence(graph).multiset() == seq.multiset()
                    decided.add(seq.multiset())
            assert decided == {e.sequence.multiset() for e in classify_all(n)}, n
        counts = [len(s) for s in condition_passing_up_to_six.values()]
        assert counts == [0, 1, 3, 17, 293, 11473]

    def test_agrees_with_the_search_up_to_order_five(self, condition_passing_up_to_six):
        sequences = [s for n in range(1, 6) for s in condition_passing_up_to_six[n]]
        assert len(sequences) == 314
        for seq in sequences:
            failed, _ = piece_pass(seq.entries)
            assert (failed is None) == bool(_search_classes(seq)), seq
            assert (failed is None) == oracle_realize(seq).realizable, seq

    def test_agrees_with_the_search_on_near_misses(self, realizable_up_to_six):
        near = _near_misses(realizable_up_to_six)
        for seq in near + realizable_up_to_six:
            failed, _ = piece_pass(seq.entries)
            assert (failed is None) == bool(_search_classes(seq)), seq

    def test_first_failing_piece(self):
        assert piece_pass(S4.entries) == ((2, 2), None)
        # 2x wants two degree-1 neighbours; no degree-1 entry names x^2.
        seq = PolySequence.parse("2x, x, x")
        assert piece_pass(seq.entries) == ((2, 1), None)
        # x^3 names degree 3, which no vertex has.
        assert piece_pass([P("x^3"), P("x")]) == ((3, 1), None)

    def test_order_two_hundred_in_well_under_a_second(self):
        rng = random.Random(20)
        n = 200
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.05]
        g = SimpleGraph.from_edges(n, edges)
        assert not g.isolated_vertices()
        seq = degree_polynomial_sequence(g)
        t0 = time.perf_counter()
        rep = realize(seq, want_all_witnesses=False)
        assert time.perf_counter() - t0 < 0.5
        assert rep.realizable is True and not rep.witnesses


@st.composite
def graphs_up_to_sixteen(draw):
    """A graph with 2-16 vertices; each isolated vertex is joined to the
    next vertex, so none is left."""
    n = draw(st.integers(2, 16))
    pairs = list(itertools.combinations(range(n), 2))
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, bit in zip(pairs, bits) if bit]
    degree = Counter(v for pair in edges for v in pair)
    edges += [(v, (v + 1) % n) for v in range(n) if not degree[v]]
    return SimpleGraph.from_edges(n, edges)


@settings(max_examples=150, deadline=None)
@given(graphs_up_to_sixteen())
def test_piece_pass_realizes_every_graph_sequence(g):
    seq = degree_polynomial_sequence(g)
    failed, graph = piece_pass(seq.entries)
    assert failed is None
    assert degree_polynomial_sequence(graph).multiset() == seq.multiset()
    rep = realize(seq, want_all_witnesses=False)
    assert rep.realizable is True and rep.nonisomorphic_count == 1
    witness = degree_polynomial_sequence(rep.witnesses[0].graph())
    assert witness.multiset() == seq.multiset()


def test_cartesian_product_does_not_reflect_realizability():
    # Neither factor sequence is realizable (both fail condition (c)), yet
    # the 25 entries the Cartesian closed form gives over S x T are.
    s = PolySequence.parse("2x, x^2, x^2, x, x^2")
    t = PolySequence.parse("4x^3, x^4+2x^3, x^4+2x^3, 3x^3, x^4+2x^3")
    for factor in (s, t):
        rep = realize(factor)
        assert rep.realizable is False and "(c)" in rep.reason
    product = [
        cartesian_formula(p, q, coeff_sum(p), coeff_sum(q))
        for p in s.entries
        for q in t.entries
    ]
    assert len(product) == 25
    rep = realize(product)
    assert rep.conditions.all_pass and rep.realizable is True
    failed, graph = piece_pass(rep.sequence.entries)
    assert failed is None
    assert degree_polynomial_sequence(graph).multiset() == rep.sequence.multiset()


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
