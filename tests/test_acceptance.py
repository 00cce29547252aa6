"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Stated time budgets are asserted, not just reported.
"""

import itertools
import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from degpoly import (
    OpKind,
    PolySequence,
    SimpleGraph,
    basic_facts,
    closed_form_sequence,
    coeff_stats,
    compare_polys,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degree_polynomial,
    degree_polynomial_sequence,
    empty_graph,
    erdos_gallai,
    family,
    graph_degree_polynomial,
    havel_hakimi,
    necessary_conditions,
    parse_poly,
    path_graph,
    realize,
    regularity_from_sequence,
    verify_operation,
)
from degpoly import realizability
from degpoly.realizability import _adj_edges, _graphical_positive_multisets, _iter_adj
from helpers import (
    degree_multiset,
    dp_multiset,
    labeled_graph_exists,
    mask_graph,
    paw_graph,
)

P = parse_poly


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({desc}): FAIL ({time.perf_counter() - t0:.3f}s)")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {num}: {elapsed:.3f}s over {budget}s budget"
    print(f"\nACCEPTANCE {num} ({desc}): PASS ({elapsed:.3f}s)")


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked 4-vertex example"):
        def compute_and_check():
            g = paw_graph()
            assert degree_polynomial(g, "a") == P("x^2+x^3")
            assert degree_polynomial(g, "b") == P("x^2+x^3")
            assert degree_polynomial(g, "c") == P("2x^2+x")
            assert degree_polynomial(g, "d") == P("x^3")

        compute_and_check()  # warm-up; correctness asserted here too
        timings = []
        for _ in range(20):
            t0 = time.perf_counter()
            compute_and_check()
            timings.append(time.perf_counter() - t0)
        best = min(timings)
        assert best < 1e-3, f"dp computation took {best * 1e3:.3f} ms"


def test_criterion_2_order_fixtures():
    with criterion(2, "polynomial order fixtures"):
        assert compare_polys(P("2x^4+12x^3"), P("3x^5+x^2")) > 0
        assert compare_polys(P("2x^4+12x^2"), P("2x^5+12x^2")) < 0
        assert compare_polys(P("2x^4+12x^2"), P("x^5+13x^2")) < 0
        assert compare_polys(P("2x^4+12x^2"), P("2x^4+11x^2+x")) > 0


def test_criterion_3_family_closed_forms():
    with criterion(3, "family closed forms", budget=1.0):
        cases = (
            [("complete", (n,)) for n in range(2, 13)]
            + [("cycle", (n,)) for n in range(3, 13)]
            + [("path", (n,)) for n in range(2, 13)]
            + [
                ("complete_bipartite", (r, s))
                for r in range(1, 9)
                for s in range(1, r + 1)
            ]
        )
        for kind, params in cases:
            direct = degree_polynomial_sequence(family(kind, *params))
            assert closed_form_sequence(kind, *params) == direct, (kind, params)


def test_criterion_4_theorem_suite():
    with criterion(4, "operation theorems", budget=30.0):
        zoo = [
            complete_graph(1),
            complete_graph(2),
            path_graph(3),
            path_graph(4),
            cycle_graph(4),
            cycle_graph(5),
            complete_graph(4),
            complete_bipartite_graph(3, 2),
            empty_graph(1),
            empty_graph(2),
        ]
        binary_ops = (OpKind.JOIN, OpKind.CARTESIAN, OpKind.TENSOR, OpKind.LEXICOGRAPHIC)
        mismatched = 0
        for op in binary_ops:
            for g in zoo:
                for h in zoo:
                    mismatched += len(verify_operation(op, g, h).mismatches)
        for g in zoo:
            mismatched += len(verify_operation(OpKind.COMPLEMENT, g).mismatches)

        rng = random.Random(2024)

        def random_graph():
            n = rng.randint(1, 6)
            return mask_graph(n, rng.getrandbits(n * (n - 1) // 2))

        for op in binary_ops:
            for _ in range(200):
                mismatched += len(verify_operation(op, random_graph(), random_graph()).mismatches)
        for _ in range(200):
            mismatched += len(verify_operation(OpKind.COMPLEMENT, random_graph()).mismatches)
        assert mismatched == 0


def test_criterion_5_condition_verdicts():
    with criterion(5, "necessary-condition verdicts"):
        s1 = necessary_conditions(PolySequence.parse("2x, x^2, x, x, x"))
        assert (s1.cond_a_pass, s1.cond_b_pass, s1.cond_c_pass) == (True, True, False)
        s2 = necessary_conditions(PolySequence.parse("2x, x^2, x^2, x, x, x"))
        assert (s2.cond_a_pass, s2.cond_b_pass, s2.cond_c_pass) == (False, True, True)
        s3 = necessary_conditions(PolySequence.parse("2x^2, x, x, x, x"))
        assert (s3.cond_a_pass, s3.cond_b_pass, s3.cond_c_pass) == (True, False, True)
        # the sc-projection of s1 is graphical even though s1 is not realizable
        assert s1.projection == (2, 1, 1, 1, 1)
        assert erdos_gallai(s1.projection)


def test_criterion_6_insufficiency_witness():
    with criterion(6, "conditions insufficient", budget=5.0):
        seq = PolySequence.parse("2x^2, 2x, 2x, x, x")
        report = realize(seq)
        assert report.conditions.cond_a_pass
        assert report.conditions.cond_b_pass
        assert report.conditions.cond_c_pass
        assert erdos_gallai(report.conditions.projection)
        # The degree-class pass proves it: no search runs.
        assert not report.searched and report.exhaustive
        assert report.nonisomorphic_count == 0
        assert report.realizable is False
        assert report.reason == "degree class 2 fails Erdos-Gallai"


def test_criterion_7_non_uniqueness():
    with criterion(7, "non-unique realization", budget=60.0):
        seq = PolySequence.parse(
            "2x^2+x^3, 2x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3"
        )
        report = realize(seq)
        assert report.exhaustive
        assert report.nonisomorphic_count >= 2
        for w in report.witnesses:
            regenerated = degree_polynomial_sequence(w.graph())
            assert regenerated.multiset() == seq.multiset()


def test_criterion_8_uniqueness_sanity():
    with criterion(8, "pentagon uniqueness", budget=5.0):
        seq = PolySequence.from_polys([P("2x^2")] * 5)
        report = realize(seq)
        assert report.exhaustive
        assert report.nonisomorphic_count == 1
        g = report.witnesses[0].graph()
        assert (g.n, g.edge_count) == (5, 5)
        assert set(g.degrees()) == {2}  # connected 2-regular on 5 vertices: the 5-cycle


def test_criterion_9_oracle_agreement():
    with criterion(9, "three-way oracle agreement", budget=300.0):
        disagreements = 0
        for n in range(1, 8):
            for d in itertools.combinations_with_replacement(range(6, -1, -1), n):
                eg = erdos_gallai(d)
                assert not eg or basic_facts(d).all_hold, d
                hh, witness = havel_hakimi(d)
                bf = labeled_graph_exists(d)
                if not (eg == hh == bf):
                    disagreements += 1
                elif hh:
                    assert degree_multiset(witness) == d
        assert disagreements == 0


@pytest.fixture(scope="module")
def isolated_free_sweep():
    """One pass over the graphs without isolated vertices, n <= 7, on the
    non-increasing assignment of each degree multiset.  Every graph can be
    relabeled so its degrees are non-increasing, so every degree-polynomial
    sequence of order at most 7 shows up; the count of 951 is asserted so
    that a lost sequence fails the fixture.

    Checks that depend only on the degree-polynomial sequence are performed
    once per distinct sequence (two graphs with equal sequences share their
    degree multiset, order and size, so any such check has equal outcomes).
    """
    t0 = time.perf_counter()
    records = {}
    for n in range(1, 8):
        for degs in _graphical_positive_multisets(n):
            for adj in _iter_adj([0] * n, [degs]):
                edges = _adj_edges(adj)
                key = dp_multiset(n, edges)
                if key not in records:
                    graph = SimpleGraph.from_edges(n, edges)
                    records[key] = (n, len(edges), graph, degs)
    assert len(records) == 951
    return time.perf_counter() - t0, records


def test_criterion_10_soundness_sweep(isolated_free_sweep):
    sweep_elapsed, records = isolated_free_sweep
    t0 = time.perf_counter()
    with criterion(10, f"soundness sweep over {len(records)} sequences"):
        for key, (n, m, graph, _degs) in records.items():
            seq = degree_polynomial_sequence(graph)
            assert seq.multiset() == key
            assert necessary_conditions(seq).all_pass, graph.edges()
            stats = coeff_stats(graph_degree_polynomial(graph))
            assert stats.total == n
            assert stats.first_moment == 2 * m
    assert sweep_elapsed + (time.perf_counter() - t0) < 300.0


def test_criterion_11_regularity_characterization(isolated_free_sweep):
    _, records = isolated_free_sweep
    with criterion(11, "regularity in both directions"):
        for key, (_n, _m, graph, degs) in records.items():
            seq = degree_polynomial_sequence(graph)
            r = regularity_from_sequence(seq)
            if len(set(degs)) == 1:
                assert r == degs[0]
            else:
                assert r is None


def test_criterion_12_worker_determinism(monkeypatch):
    with criterion(12, "byte-identical reports across workers"):
        sequences = [
            PolySequence.parse("2x^2, 2x, 2x, x, x"),
            PolySequence.parse("2x^2+x^3, 2x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3, x^2+x^3"),
            PolySequence.from_polys([P("2x^2")] * 5),
            PolySequence.parse("2x^2, 2x^2, 2x^2, x^2+x, x^2+x, x^2, x^2"),
        ]
        # The pool must have more than one part to merge, on any host.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert realizability._processes(4) == 4
        for seq, want_all in itertools.product(sequences, (True, False)):
            reports = [
                realize(seq, want_all_witnesses=want_all, workers=workers).to_dict()
                for workers in (1, 4)
            ]
            one, four = (json.dumps(r, separators=(",", ":")) for r in reports)
            assert one == four
