"""Realizability of polynomial sequences as degree-polynomial sequences.

A sequence of nonzero polynomials is realizable when some simple graph
without isolated vertices has exactly that degree-polynomial sequence.
This module layers three kinds of evidence:

* necessary conditions on the sequence itself (parity of the coefficient
  sums, support counts, parity of the even-exponent sums split by class);
* classical graphical-sequence tests (Erdos-Gallai, Havel-Hakimi) on the
  integer projection obtained by summing each entry's coefficients;
* an exhaustive, exact search over the labeled graphs with the projected
  degree multiset, deduplicated up to isomorphism by canonical certificate.

The search needs isomorphism classes only, and every graph can be
relabeled so that its degrees are non-increasing, so it visits the single
non-increasing degree assignment.  Within it, it backtracks over each
vertex's partner choices in ascending order; as soon as a vertex's
neighbourhood is complete its degree polynomial is fixed, and the branch
dies unless that polynomial is still owed to the target multiset.  Partners
with the same degree and the same neighbours so far are interchangeable,
so only rows taking a prefix of each such group are tried (twin-prefix
rows, ``_twin_prefix_rows``): every class and the first graph met stay the
same, and a regular sequence's search meets each class a few times instead
of once per labeling.  Work can be partitioned across processes by vertex
0's twin-prefix rows (``realize`` passes each one to ``_iter_adj`` as
``first_row``).  A leaf is kept as its canonical certificate, one int
(``_leaf_certificate``, shared with ``classify_all``), and each class is
decoded once.  Witnesses come sorted by canonical edges, so merging units
in payload order decides only which class a first-witness search reports;
reports are byte-identical for any worker count.  ``iter_labeled_graphs``
counts labeled graphs and so still visits every assignment and every row.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .dp import PolySequence, degree_polynomial_sequence
from .errors import (
    BadParamsError,
    NotSortedError,
    TooLargeError,
    WitnessVerificationError,
    ZeroEntryError,
)
from .graphs import (
    CANONICAL_FORM_MAX_N,
    CanonicalForm,
    SimpleGraph,
    canonical_encoding,
    canonical_form,  # unused; perfbench/tracing.py wraps this name
)
from .poly import DegreePoly, coeff_stats, coeff_sum

DEFAULT_SEARCH_MAX_N = 9
CLASSIFY_MAX_N = 8


# -- integer degree sequences ----------------------------------------------------


def _require_sorted(d: Sequence[int]) -> None:
    if any(d[i] < d[i + 1] for i in range(len(d) - 1)):
        raise NotSortedError(f"degree sequence must be non-increasing: {tuple(d)}")
    if d and d[-1] < 0:
        raise ValueError("degrees must be nonnegative")


def degree_projection(seq: Iterable[DegreePoly]) -> tuple[int, ...]:
    """Coefficient sum of each entry, re-sorted non-increasingly."""
    sums = []
    for p in seq:
        if p.is_zero:
            raise ZeroEntryError("projection is undefined for zero entries")
        sums.append(coeff_sum(p))
    return tuple(sorted(sums, reverse=True))


@dataclass(frozen=True)
class BasicFacts:
    """Elementary sanity checks on an integer degree sequence."""

    even_sum: bool
    max_degree_ok: bool
    total_within_bounds: bool
    has_repeat: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.even_sum
            and self.max_degree_ok
            and self.total_within_bounds
            and self.has_repeat
        )

    def to_dict(self) -> dict:
        return {
            "even_sum": self.even_sum,
            "max_degree_ok": self.max_degree_ok,
            "total_within_bounds": self.total_within_bounds,
            "has_repeat": self.has_repeat,
        }


def basic_facts(d: Sequence[int]) -> BasicFacts:
    """The four elementary facts: even total; every degree at most n-1;
    for all-positive sequences the total lies between 2*floor((n+1)/2) and
    n(n-1); and (pigeonhole) some two entries coincide.  The last two apply
    only to all-positive sequences and hold vacuously otherwise."""
    n = len(d)
    total = sum(d)
    even_sum = total % 2 == 0
    max_ok = all(0 <= x <= n - 1 for x in d)
    all_positive = n > 0 and all(x > 0 for x in d)
    if all_positive:
        in_range = 2 * ((n + 1) // 2) <= total <= n * (n - 1)
        has_repeat = len(set(d)) < n
    else:
        in_range = True
        has_repeat = True
    return BasicFacts(even_sum, max_ok, in_range, has_repeat)


def erdos_gallai(d: Sequence[int]) -> bool:
    """Exact graphicality test: even sum plus the prefix inequalities
    sum(d[:j]) - j(j-1) <= sum(min(j, d[k]) for k >= j) for j = 1..n.

    The j = n inequality is included so single-entry sequences like (2,)
    are rejected; it is implied by the others whenever some d_i <= n-1.

    Linear time: the entries >= j are a prefix d[:big] of the sorted
    sequence, so past index j each of them adds j to the right side and the
    rest add their suffix sum.
    """
    _require_sorted(d)
    n = len(d)
    if sum(d) % 2:
        return False
    suffix = list(itertools.accumulate(reversed(d), initial=0))[::-1]
    prefix = 0
    big = n
    for j in range(1, n + 1):
        prefix += d[j - 1]
        while big and d[big - 1] < j:
            big -= 1
        split = max(j, big)
        if prefix > j * (j - 1) + j * (split - j) + suffix[split]:
            return False
    return True


def havel_hakimi(d: Sequence[int]) -> tuple[bool, Optional[SimpleGraph]]:
    """Classical reduction; on success also returns one realizing graph
    whose degree multiset equals ``d``."""
    _require_sorted(d)
    n = len(d)
    if sum(d) % 2:
        return False, None
    work = [(deg, i) for i, deg in enumerate(d)]
    edges: list[tuple[int, int]] = []
    while work:
        work.sort(key=lambda t: (-t[0], t[1]))
        deg, i = work[0]
        if deg == 0:
            break
        rest = work[1:]
        if deg > len(rest):
            return False, None
        if rest[deg - 1][0] == 0:
            return False, None
        work = [(dg - 1, j) for dg, j in rest[:deg]] + rest[deg:]
        edges.extend((min(i, j), max(i, j)) for _, j in rest[:deg])
    return True, SimpleGraph.from_edges(n, edges)


# -- exhaustive labeled-graph enumeration ------------------------------------------


def _distinct_assignments(d_desc: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct arrangements of the degree multiset, descending lex order."""
    values = sorted(set(d_desc), reverse=True)
    counts = {v: 0 for v in values}
    for x in d_desc:
        counts[x] += 1
    n = len(d_desc)
    cur: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(cur) == n:
            yield tuple(cur)
            return
        for v in values:
            if counts[v]:
                counts[v] -= 1
                cur.append(v)
                yield from rec()
                cur.pop()
                counts[v] += 1

    return rec()


def _twin_prefix_rows(
    cands: Sequence[int], keys: Sequence, k: int
) -> Iterable[tuple[int, ...]]:
    """The k-combinations of ``cands`` that take a prefix of every group of
    candidates with equal key, in ascending combination order: a member is
    taken only if the group's previous member is."""
    prev: dict[int, int] = {}
    last: dict = {}
    for v, key in zip(cands, keys):
        if key in last:
            prev[v] = last[key]
        last[key] = v
    combos = itertools.combinations(cands, k)
    return (c for c in combos if all(prev[v] in c for v in c if v in prev))


def _iter_adj(
    degvec: Sequence[int],
    first_row: Optional[tuple[int, ...]] = None,
    target: Optional[Mapping[tuple, int]] = None,
    twins: bool = False,
) -> Iterator[list[list[int]]]:
    """Backtrack over each vertex's partner choices; yields a live adjacency
    (list of neighbor lists) that the consumer must not keep or mutate.

    Vertex u's partners among u+1..n-1 are chosen in ascending combinations;
    branches die as soon as any vertex's remaining degree exceeds the edges
    still available to it.  ``first_row``, one of vertex 0's combinations,
    replaces all of them; this is how ``realize`` splits the search.
    ``target`` counts the vertex keys (see ``_vertex_key``) a graph must
    have: once u's row is chosen its neighbourhood is complete, and the
    branch dies unless u's key is still owed, so every yielded graph has
    exactly that multiset of keys.

    ``twins`` keeps one row per set of interchangeable partners: u's
    candidates are grouped by degree and neighbours so far, and only rows
    taking a prefix of every group are tried (``_twin_prefix_rows``).  The
    search then reaches every isomorphism class, not every labeled graph.
    It is sound because swapping two members of a group is an automorphism
    of the partial graph that preserves ``degvec`` and so every vertex key;
    a pruned row is such a swap of a kept row, so it reaches only classes
    the kept row reaches too.  The first graph yielded is unchanged: the
    kept row takes the smallest members of each group, so it is
    lexicographically smaller than every row in its orbit, and the first
    row with a completion is always kept.
    """
    n = len(degvec)
    if sum(degvec) % 2:
        return
    if any(x < 0 or x > n - 1 for x in degvec):
        return
    residual = list(degvec)
    adj: list[list[int]] = [[] for _ in range(n)]
    owed = None if target is None else dict(target)

    def rec(u: int) -> Iterator[list[list[int]]]:
        if u == n:
            yield adj
            return
        k = residual[u]
        if k == 0:
            combos: Iterable[tuple[int, ...]] = ((),)
        elif u == 0 and first_row is not None:
            combos = (first_row,)
        else:
            cands = [v for v in range(u + 1, n) if residual[v] > 0]
            if twins:
                keys = [(degvec[v], tuple(adj[v])) for v in cands]
                combos = _twin_prefix_rows(cands, keys, k)
            else:
                combos = itertools.combinations(cands, k)
        cap = n - u - 2
        row = adj[u]
        for combo in combos:
            for v in combo:
                residual[v] -= 1
                row.append(v)
                adj[v].append(u)
            if k == 0 or all(residual[v] <= cap for v in range(u + 1, n)):
                # u's row is final here: charge its key if there is a target.
                if owed is None:
                    yield from rec(u + 1)
                else:
                    key = _vertex_key(degvec, row)
                    left = owed.get(key, 0)
                    if left:
                        owed[key] = left - 1
                        yield from rec(u + 1)
                        owed[key] = left
            for v in combo:
                residual[v] += 1
                adj[v].pop()
            del row[len(row) - k :]

    try:
        yield from rec(0)
    finally:
        del rec  # it refers to itself through its closure cell, even if stopped early


def _leaf_certificate(adj: Sequence[Sequence[int]]) -> int:
    """Canonical certificate of a graph ``_iter_adj`` yields."""
    return canonical_encoding(len(adj), [sum(1 << w for w in row) for row in adj])


def _vertex_key(
    degvec: Sequence[int], neighbors: Iterable[int]
) -> tuple[tuple[int, int], ...]:
    """Degree polynomial of a vertex with these neighbors, as its
    descending (exponent, coefficient) pairs: ``tuple(DegreePoly)``."""
    counts: dict[int, int] = {}
    for w in neighbors:
        dw = degvec[w]
        counts[dw] = counts.get(dw, 0) + 1
    return tuple(sorted(counts.items(), reverse=True))


def _adj_edges(adj: Sequence[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    return tuple(
        (u, v) for u in range(len(adj)) for v in adj[u] if v > u
    )


def iter_labeled_graphs(
    degrees: Sequence[int],
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every labeled simple graph whose degree multiset equals ``degrees``
    (non-increasing), exactly once, as sorted edge tuples."""
    _require_sorted(degrees)
    if len(degrees) > DEFAULT_SEARCH_MAX_N:
        raise TooLargeError(
            f"exhaustive enumeration limited to n <= {DEFAULT_SEARCH_MAX_N},"
            f" got {len(degrees)}"
        )
    for assignment in _distinct_assignments(degrees):
        for adj in _iter_adj(assignment):
            yield _adj_edges(adj)


def _graphical_positive_multisets(n: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing all-positive graphical degree multisets of length n,
    in descending lexicographic order."""
    degrees = range(n - 1, 0, -1)
    return filter(erdos_gallai, itertools.combinations_with_replacement(degrees, n))


# -- necessary conditions ------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the sequence-level necessary conditions plus the integer
    projection checks, for ``sequence`` (the checked entries, presented)."""

    sequence: PolySequence
    cond_a_pass: bool
    degree_total: int
    cond_b_pass: bool
    cond_b_violation: Optional[tuple[int, int, int]]  # (entry index, exponent, coeff)
    cond_c_pass: bool
    odd_class_even_exponent_sum: int
    even_class_even_exponent_sum: int
    projection: tuple[int, ...]
    projection_graphical: bool
    facts: BasicFacts
    input_was_sorted: bool

    @property
    def all_pass(self) -> bool:
        # The basic facts are not a separate term: Erdos-Gallai on the
        # projection, whose entries are all positive, implies all four.
        return (
            self.cond_a_pass
            and self.cond_b_pass
            and self.cond_c_pass
            and self.projection_graphical
        )

    def first_failure(self) -> Optional[str]:
        if not self.cond_a_pass:
            return "(a)"
        if not self.cond_b_pass:
            return "(b)"
        if not self.cond_c_pass:
            return "(c)"
        if not self.projection_graphical:
            return "projection"
        return None

    def to_dict(self) -> dict:
        return {
            "cond_a": {"pass": self.cond_a_pass, "degree_total": self.degree_total},
            "cond_b": {
                "pass": self.cond_b_pass,
                "violation": list(self.cond_b_violation)
                if self.cond_b_violation
                else None,
            },
            "cond_c": {
                "pass": self.cond_c_pass,
                "odd_class_even_exponent_sum": self.odd_class_even_exponent_sum,
                "even_class_even_exponent_sum": self.even_class_even_exponent_sum,
            },
            "projection": list(self.projection),
            "projection_graphical": self.projection_graphical,
            "basic_facts": self.facts.to_dict(),
            "input_was_sorted": self.input_was_sorted,
            "all_pass": self.all_pass,
        }


def necessary_conditions(seq: Iterable[DegreePoly]) -> ConditionReport:
    """Check the three sequence-level necessary conditions.

    (a) the coefficient sums add to an even total;
    (b) every term k*x^i of an entry needs at least k OTHER entries whose
        coefficient sum is i (a vertex's neighbors are vertices other than
        itself, so the entry's own occurrence never counts);
    (c) within the entries of odd coefficient sum, and likewise within
        those of even coefficient sum, the even-exponent coefficient sums
        add to an even number.

    The integer projection is additionally tested for graphicality.
    """
    raw = tuple(seq)
    seq = PolySequence.from_polys(raw)
    input_was_sorted = raw == seq.entries
    entries = seq.entries
    if not entries:
        raise ZeroEntryError("cannot check an empty sequence")

    sums = [coeff_sum(p) for p in entries]
    total = sum(sums)
    cond_a = total % 2 == 0

    count_by_sum: dict[int, int] = {}
    for s in sums:
        count_by_sum[s] = count_by_sum.get(s, 0) + 1
    cond_b_violation = None
    for j, p in enumerate(entries):
        for exponent, coefficient in p:
            others = count_by_sum.get(exponent, 0)
            if sums[j] == exponent:
                others -= 1
            if others < coefficient:
                cond_b_violation = (j, exponent, coefficient)
                break
        if cond_b_violation:
            break

    odd_class = sum(
        coeff_stats(p).even_total for p, s in zip(entries, sums) if s % 2 == 1
    )
    even_class = sum(
        coeff_stats(p).even_total for p, s in zip(entries, sums) if s % 2 == 0
    )
    cond_c = odd_class % 2 == 0 and even_class % 2 == 0

    projection = tuple(sorted(sums, reverse=True))
    return ConditionReport(
        sequence=seq,
        cond_a_pass=cond_a,
        degree_total=total,
        cond_b_pass=cond_b_violation is None,
        cond_b_violation=cond_b_violation,
        cond_c_pass=cond_c,
        odd_class_even_exponent_sum=odd_class,
        even_class_even_exponent_sum=even_class,
        projection=projection,
        projection_graphical=erdos_gallai(projection),
        facts=basic_facts(projection),
        input_was_sorted=input_was_sorted,
    )


# -- exhaustive realizability search --------------------------------------------------


@dataclass(frozen=True)
class RealizabilityReport:
    sequence: PolySequence
    conditions: ConditionReport
    searched: bool
    exhaustive: bool
    witnesses: tuple[CanonicalForm, ...]
    realizable: Optional[bool]
    reason: str

    @property
    def n(self) -> int:
        return len(self.sequence)

    @property
    def nonisomorphic_count(self) -> int:
        return len(self.witnesses)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "sequence": self.sequence.to_pairs(),
            "conditions": self.conditions.to_dict(),
            "searched": self.searched,
            "exhaustive": self.exhaustive,
            "nonisomorphic_count": self.nonisomorphic_count,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "realizable": self.realizable,
            "reason": self.reason,
        }


def _ordered_map(fn: Callable, payloads: Iterable, workers: int) -> Iterator:
    """``fn`` over ``payloads``, results in payload order.

    One worker is the built-in ``map``.  More run the calls in a process
    pool, which reads payloads only as fast as its task pipe drains;
    closing the iterator early terminates the pool, so calls still running
    are abandoned instead of waited for.
    """
    if workers == 1:
        yield from map(fn, payloads)
        return
    from multiprocessing import Pool

    # More processes than CPUs only add start-up cost and memory; results
    # are identical for any count.
    with Pool(min(workers, os.cpu_count() or 1)) as pool:
        yield from pool.imap(fn, payloads)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise BadParamsError(f"workers must be at least 1, got {workers}")


def _realize_task(payload) -> set[int]:
    """The distinct leaf certificates of one unit's matches; only the
    first if not ``want_all``."""
    d_desc, first_row, target, want_all = payload
    certs: set[int] = set()
    for adj in _iter_adj(d_desc, first_row, target, twins=True):
        certs.add(_leaf_certificate(adj))
        if not want_all:
            break
    return certs


def realize(
    seq: Iterable[DegreePoly],
    *,
    max_n: int = DEFAULT_SEARCH_MAX_N,
    want_all_witnesses: bool = True,
    workers: int = 1,
) -> RealizabilityReport:
    """Decide realizability of a polynomial sequence.

    Pipeline: necessary conditions, on the entries in the order given (so
    the report says whether they came presented); if any fails the
    sequence is unrealizable with the failing condition cited.  Otherwise
    the labeled graphs on the non-increasing projected degree assignment
    whose vertex polynomials are owed by the sequence are enumerated, each
    vertex checked as soon as its neighbourhood is final; they are
    deduplicated by canonical certificate, each class decoded once (all
    witnesses sorted by canonical edges, or the first one met), and the
    report states whether the search was exhaustive.  Sequences longer
    than ``max_n``, or than the canonical-form bound ``CANONICAL_FORM_MAX_N``
    that witnesses need, are not searched: the report then stays honestly
    inconclusive instead of sampling.
    """
    _check_workers(workers)
    conditions = necessary_conditions(seq)
    seq = conditions.sequence
    n = len(seq)

    def report(searched, exhaustive, witnesses, realizable, reason):
        return RealizabilityReport(
            sequence=seq,
            conditions=conditions,
            searched=searched,
            exhaustive=exhaustive,
            witnesses=tuple(witnesses),
            realizable=realizable,
            reason=reason,
        )

    if not conditions.all_pass:
        failed = conditions.first_failure()
        what = (
            "projection is not graphical"
            if failed == "projection"
            else f"necessary condition {failed} fails"
        )
        return report(False, False, (), False, what)

    bound = min(max_n, CANONICAL_FORM_MAX_N)
    if n > bound:
        return report(
            False, False, (), None, f"order {n} exceeds the search bound {bound}"
        )

    # Work units are vertex 0's twin-prefix rows, in the order the search
    # visits them; every projected degree is at least 1, so any vertex can
    # be a partner, and with no edges yet a partner's key is its degree.
    target = Counter(map(tuple, seq.entries))
    d_desc = conditions.projection
    payloads = (
        (d_desc, row, target, want_all_witnesses)
        for row in _twin_prefix_rows(range(1, n), d_desc[1:], d_desc[0])
    )

    with closing(_ordered_map(_realize_task, payloads, workers)) as results:
        certs = itertools.chain.from_iterable(results)
        if not want_all_witnesses:
            certs = itertools.islice(certs, 1)
        forms = [CanonicalForm.from_certificate(n, c) for c in set(certs)]
    forms.sort(key=lambda f: f.edges)  # not by certificate: its bit layout is private
    exhaustive = want_all_witnesses or not forms

    # Witness fidelity: re-derive each witness's sequence through the
    # public path and insist it matches the target.
    for w in forms:
        regenerated = degree_polynomial_sequence(w.graph())
        if regenerated.multiset() != seq.multiset():
            raise WitnessVerificationError(
                f"witness {list(w.edges)} has sequence {regenerated}, not {seq}"
            )

    if forms:
        reason = f"{len(forms)} non-isomorphic realization(s) found"
    else:
        reason = "exhaustive search found no realization"
    return report(True, exhaustive, forms, bool(forms), reason)


# -- classification of all sequences at a fixed order ----------------------------------


@dataclass(frozen=True)
class ClassifiedSequence:
    sequence: PolySequence
    isomorphism_classes: int

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence.to_pairs(),
            "isomorphism_classes": self.isomorphism_classes,
        }


def _classify_task(d: tuple[int, ...]) -> dict[tuple, set[int]]:
    """Canonical certificates of the graphs with degree multiset ``d``,
    grouped by degree-polynomial key (the sorted vertex keys)."""
    groups: dict[tuple, set[int]] = {}
    for adj in _iter_adj(d, twins=True):
        key = tuple(sorted(_vertex_key(d, row) for row in adj))
        groups.setdefault(key, set()).add(_leaf_certificate(adj))
    return groups


def classify_all(n: int, *, workers: int = 1) -> tuple[ClassifiedSequence, ...]:
    """Group every isomorphism class of graphs on n vertices (no isolated
    vertices) by degree-polynomial sequence; returns each distinct sequence
    with its number of classes, sorted by sequence encoding."""
    _check_workers(workers)
    if n < 1:
        raise BadParamsError(f"classification needs n >= 1, got {n}")
    if n > CLASSIFY_MAX_N:
        raise TooLargeError(
            f"classification limited to n <= {CLASSIFY_MAX_N}, got {n}"
        )
    multisets = _graphical_positive_multisets(n)
    groups: dict[tuple, set[int]] = {}
    for partial in _ordered_map(_classify_task, multisets, workers):
        for key, certs in partial.items():
            groups.setdefault(key, set()).update(certs)
    return tuple(
        ClassifiedSequence(PolySequence.from_pairs(key), len(groups[key]))
        for key in sorted(groups)
    )
