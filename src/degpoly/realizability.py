"""Realizability of polynomial sequences as degree-polynomial sequences.

A sequence of nonzero polynomials is realizable when some simple graph
without isolated vertices has exactly that degree-polynomial sequence.
``realize`` settles it in up to three steps:

* the paper's necessary conditions on the sequence itself (parity of the
  coefficient sums, support counts, parity of the even-exponent sums split
  by class), with Erdos-Gallai on the integer projection obtained by
  summing each entry's coefficients;
* an exact decision by degree class (``_piece_pass``, one pass over the
  entries' terms): once each vertex carries an entry, the edges split into
  independent pieces, a simple graph within each class and a bipartite
  graph between two, and the greedy that builds a piece (Havel-Hakimi,
  Ryser's) decides it.  The union is re-checked, and its canonical form
  is the first witness;
* for every witness (``--all``), an exhaustive search over the labeled
  graphs in which vertex v carries ``seq.entries[v]``, deduplicated up to
  isomorphism by canonical certificate.

Every realization can be relabeled so that vertex v carries
``seq.entries[v]``, so the search fixes each entry up front: v's colour is
its degree class, and it needs coef(p_v, j) partners of class j
(``_entry_demands``, a dense table built only for this search).  Each
vertex in turn takes exactly the partners it still needs, so every leaf
has the sequence by construction.  Rows take a prefix of each group of
interchangeable partners (``_iter_adj``), so a regular sequence meets each
class a few times instead of once per labeling.  With p processes,
``realize`` runs p parts, part i labeling every p-th leaf from the i-th:
each part walks the whole tree, but labeling, most of the cost, is shared
out on any sequence; one worker runs the search whole.  A leaf is kept as
its canonical certificate, one int (``_leaf_certificate``), and each class
is decoded once, sorted by canonical edges and re-checked by
``_sequence_key`` against ``seq.multiset()``, so reports are
byte-identical for any worker count.  ``classify_all`` runs the same task,
``_realize_task``, whole once per degree multiset, with one colour and the
degrees as demands, and groups the decoded classes by the same key;
``iter_labeled_graphs`` walks that tree without the twin pruning.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .dp import PolySequence, vertex_polynomials
# Unused here; the benchmark's tracer wraps degree_polynomial_sequence.
from .dp import degree_polynomial_sequence
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
    canonical_form,
)
from .poly import DegreePoly, coeff_sum

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


def gale_ryser(left: Sequence[int], right: Sequence[int]) -> bool:
    """Exact bipartite test: some simple bipartite graph gives the two sides
    these degrees (each in any order) exactly when the sums agree and, with
    ``left`` non-increasing, sum(left[:k]) <= sum(min(b, k) for b in right)
    for k = 1..len(left).

    O(n log n): ``right`` is sorted once, and as k grows its entries below
    k are a growing prefix, each adding itself and every other adding k.
    """
    if min(left, default=0) < 0 or min(right, default=0) < 0:
        raise ValueError("degrees must be nonnegative")
    if sum(left) != sum(right):
        return False
    b = sorted(right)
    below = below_sum = prefix = 0
    for k, x in enumerate(sorted(left, reverse=True), 1):
        while below < len(b) and b[below] < k:
            below_sum += b[below]
            below += 1
        prefix += x
        if prefix > below_sum + k * (len(b) - below):
            return False
    return True


def havel_hakimi(d: Sequence[int]) -> tuple[bool, Optional[SimpleGraph]]:
    """Classical reduction; on success also returns one realizing graph
    whose degree multiset equals ``d``."""
    _require_sorted(d)
    edges = _havel_hakimi_edges(d)
    if edges is None:
        return False, None
    return True, SimpleGraph.from_edges(len(d), edges)


def _havel_hakimi_edges(d: Sequence[int]) -> Optional[list[tuple[int, int]]]:
    """The edges Havel-Hakimi builds on vertices 0..n-1 of degrees ``d``,
    in any order, or None if ``d`` is not graphical."""
    n = len(d)
    work = sorted(i - n * deg for i, deg in enumerate(d) if deg)
    edges: list[tuple[int, int]] = []
    while work and work[0] < 0:
        deg, i = divmod(work.pop(0), n)
        partners = _take(work, -deg, n)
        if partners is None:
            return None
        edges += [(min(i, j), max(i, j)) for j in partners]
    return edges


def _take(work: list[int], k: int, n: int) -> Optional[list[int]]:
    """The builders' partner step.  ``work`` holds sorted keys index -
    n * residual (index < n): largest residual first, ties by lower index.
    The first k lose a unit and are re-sorted in place (two runs, merged
    in linear time); returns their indices, or None if fewer than k have any."""
    if k > len(work) or (k and work[k - 1] >= 0):
        return None
    taken = work[:k]
    work[:k] = [x + n for x in taken]
    work.sort()
    return [x % n for x in taken]


# -- exhaustive labeled-graph enumeration ------------------------------------------


def _distinct_assignments(d_desc: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct arrangements of the degree multiset, descending lex order."""
    counts = Counter(d_desc)
    values = sorted(counts, reverse=True)
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
    if not prev:
        return combos
    return (c for c in combos if all(prev[v] in c for v in c if v in prev))


def _iter_adj(
    colour: Sequence[int], need: Sequence[Sequence[int]], twins: bool = False
) -> Iterator[list[list[int]]]:
    """Backtrack over each vertex's row; yields a live adjacency (list of
    neighbor lists) that the consumer must not keep or mutate.

    Each colour's vertices are consecutive, and vertex v still needs
    ``need[c][v]`` partners of colour c.  Vertex u's row takes that many of
    each colour c among the later colour-c vertices that still need u's
    colour: a product over colours of ascending combinations.  A branch
    dies once a later vertex needs more partners of u's colour than there
    are later vertices of it, less itself.  The leaves come in one fixed
    order, so a stride over them splits the search (``_realize_task``).

    ``twins`` groups candidates by start demands and neighbours so far (the
    same groups as by demands now) and takes a prefix of each group
    (``_twin_prefix_rows``).  Swapping two members of a group is an
    automorphism of the partial graph that keeps every colour and demand,
    and a pruned row is such a swap of a kept row, colour by colour, so
    every class is still reached.  A kept row is the lexicographically
    smallest of its orbit, so the first graph yielded is unchanged.
    """
    n = len(colour)
    if sum(map(sum, need)) % 2:
        return
    need = [list(col) for col in need]
    start, end = [n] * len(need), [0] * len(need)
    for v, c in enumerate(colour):
        start[c], end[c] = min(start[c], v), v + 1
    kind = list(zip(*need))  # each vertex's start demands
    adj: list[list[int]] = [[] for _ in range(n)]

    def rec(u: int) -> Iterator[list[list[int]]]:
        if u == n:
            yield adj
            return
        wants, last = need[colour[u]], end[colour[u]]
        parts = []
        for c, col in enumerate(need):
            if col[u]:
                cands = [w for w in range(max(u + 1, start[c]), end[c]) if wants[w]]
                if twins:
                    keys = [(kind[w], tuple(adj[w])) for w in cands]
                    parts.append(_twin_prefix_rows(cands, keys, col[u]))
                else:
                    parts.append(itertools.combinations(cands, col[u]))
        if not parts:
            combos: Iterable[tuple[int, ...]] = ((),)
        elif len(parts) == 1:
            combos = parts[0]
        else:
            combos = (sum(row, ()) for row in itertools.product(*parts))
        cap = last - u - 2
        row = adj[u]
        for combo in combos:
            for v in combo:
                wants[v] -= 1
                row.append(v)
                adj[v].append(u)
            if not combo or (
                (u + 1 == last or max(wants[u + 1 : last]) <= cap)
                and (last == n or max(wants[last:]) <= cap + 1)
            ):
                yield from rec(u + 1)
            for v in combo:
                wants[v] += 1
                adj[v].pop()
            del row[len(row) - len(combo) :]

    try:
        yield from rec(0)
    finally:
        del rec  # it refers to itself through its closure cell, even if stopped early


def _leaf_certificate(adj: Sequence[Sequence[int]]) -> int:
    """Canonical certificate of a graph ``_iter_adj`` yields."""
    return canonical_encoding(len(adj), [sum(1 << w for w in row) for row in adj])


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
    one_colour = [0] * len(degrees)
    for assignment in _distinct_assignments(degrees):
        for adj in _iter_adj(one_colour, [assignment]):
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

    count_by_sum = Counter(sums)
    cond_b_violation = None
    for j, p in enumerate(entries):
        for exponent, coefficient in p:
            others = count_by_sum[exponent]
            if sums[j] == exponent:
                others -= 1
            if others < coefficient:
                cond_b_violation = (j, exponent, coefficient)
                break
        if cond_b_violation:
            break

    class_sums = [0, 0]  # even-exponent coefficient sums: even class, odd class
    for p, s in zip(entries, sums):
        for exponent, coefficient in p:
            if not exponent % 2:
                class_sums[s % 2] += coefficient
    even_class, odd_class = class_sums
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


# -- decision by degree class ----------------------------------------------------------


def _entry_demands(
    entries: Sequence[DegreePoly],
) -> tuple[list[int], list[list[int]]]:
    """The ``--all`` search's demand table, vertex v carrying ``entries[v]``:
    a colour per degree that is a class or is named, in descending order;
    v's colour, its class; and v's coef(p_v, c's degree) in ``need[c][v]``.
    Presented entries make each class consecutive, as ``_iter_adj`` needs."""
    sums = [coeff_sum(p) for p in entries]
    degrees = sorted({e for p in entries for e, _ in p}.union(sums), reverse=True)
    index = {s: c for c, s in enumerate(degrees)}
    need = [[0] * len(entries) for _ in degrees]
    for v, p in enumerate(entries):
        for e, k in p:
            need[index[e]][v] = k
    return [index[s] for s in sums], need


def _piece_pass(
    entries: Sequence[DegreePoly],
) -> tuple[Optional[tuple[int, int]], Optional[SimpleGraph]]:
    """Decide ``entries`` by degree class, vertex v carrying ``entries[v]``.

    Class i is the vertices whose entry has coefficient sum i.  Piece (i, i)
    is a simple graph on class i in which v has degree coef(p_v, i); piece
    (i, j), i > j, is a bipartite graph with degrees coef(p_v, j) on class i
    and coef(p_w, i) on class j.  Each term k*x^e of v's entry, of sum s,
    puts v and k on v's side of piece (max(s, e), min(s, e)), so a side
    holds the vertices that name the other class, ascending, and their
    demands.  A piece's builder (Havel-Hakimi, Ryser's greedy) fails
    exactly when it has no realization.  Over the pieces, by descending i
    and then j, returns the first that fails and no graph, or no piece
    and the union of the pieces.
    """
    # Per piece: left vertices, their demands, right vertices, theirs.
    pieces = defaultdict(lambda: ([], [], [], []))
    for v, p in enumerate(entries):
        s = coeff_sum(p)
        for e, k in p:
            key, side = ((s, e), 0) if s >= e else ((e, s), 2)
            sides = pieces[key]
            sides[side].append(v)
            sides[side + 1].append(k)
    edges = []
    for key in sorted(pieces, reverse=True):
        left, a, right, b = pieces[key]
        if key[0] == key[1]:
            piece = _havel_hakimi_edges(a)
            piece = piece and [(left[x], left[y]) for x, y in piece]
        else:
            piece = _ryser_edges(left, a, right, b)
        if piece is None:
            return key, None
        edges += piece
    return None, SimpleGraph.from_edges(len(entries), edges)


def _ryser_edges(
    left: Sequence[int], a: Sequence[int], right: Sequence[int], b: Sequence[int]
) -> Optional[list[tuple[int, int]]]:
    """Ryser's greedy, left vertices by decreasing demand (ties by index);
    None, exactly when the degrees fail Gale-Ryser, if partners with demand
    run out or right-side demand is left."""
    n = len(b)
    work = sorted(y - n * deg for y, deg in enumerate(b) if deg)
    edges = []
    for x in sorted(range(len(left)), key=a.__getitem__, reverse=True):
        if not a[x]:
            break
        partners = _take(work, a[x], n)
        if partners is None:
            return None
        edges += [(left[x], right[y]) for y in partners]
    return None if work and work[0] < 0 else edges


# -- realizability: the decision, then every witness --------------------------------


@dataclass(frozen=True)
class RealizabilityReport:
    sequence: PolySequence
    conditions: ConditionReport
    exhaustive: bool
    witnesses: tuple[CanonicalForm, ...]
    realizable: bool
    reason: str

    @property
    def n(self) -> int:
        return len(self.sequence)

    @property
    def nonisomorphic_count(self) -> int:
        return len(self.witnesses)

    @property
    def searched(self) -> bool:
        return bool(self.witnesses)

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


def _processes(workers: int) -> int:
    """How many processes to run with: ``workers``, capped at the CPU count,
    since more only add start-up cost and memory; results are identical for
    any count.  One worker never asks for the CPU count."""
    if workers < 1:
        raise BadParamsError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        return 1
    return min(workers, os.cpu_count() or 1)


def _ordered_map(fn: Callable, payloads: Iterable, processes: int) -> Iterator:
    """``fn`` over ``payloads``, results in payload order.

    One process is the built-in ``map``.  More run the calls in a process
    pool, which reads payloads only as fast as its task pipe drains.
    """
    if processes == 1:
        yield from map(fn, payloads)
        return
    from multiprocessing import Pool

    with Pool(processes) as pool:
        yield from pool.imap(fn, payloads)


def _realize_task(payload) -> set[int]:
    """The distinct leaf certificates of one part of the search: ``payload``
    is ``(colour, need, i, k)``, and the part is every k-th leaf from the
    i-th, so the k parts i = 0..k-1 together meet every leaf once.
    ``realize`` splits one sequence's search into p parts; ``classify_all``
    sends one whole search, i = 0 and k = 1, per degree multiset."""
    colour, need, i, k = payload
    leaves = itertools.islice(_iter_adj(colour, need, twins=True), i, None, k)
    return {_leaf_certificate(adj) for adj in leaves}


def _sequence_key(graph: SimpleGraph) -> tuple:
    """``graph``'s vertex polynomials as a multiset, in the form of
    ``PolySequence.multiset()``; an isolated vertex adds ``()``, which no
    entry's pairs equal."""
    return tuple(sorted(p.to_pairs() for p in vertex_polynomials(graph)))


def _verify(graph: SimpleGraph, seq: PolySequence, want: tuple) -> None:
    """Insist that ``graph`` realizes ``seq``: its ``_sequence_key`` equals
    ``want``, ``seq.multiset()`` computed once per ``realize`` call."""
    if _sequence_key(graph) != want:
        raise WitnessVerificationError(f"witness {list(graph.edges())} fails {seq}")


def realize(
    seq: Iterable[DegreePoly],
    *,
    max_n: int = DEFAULT_SEARCH_MAX_N,
    want_all_witnesses: bool = True,
    workers: int = 1,
) -> RealizabilityReport:
    """Decide realizability of a polynomial sequence, at any order.

    The necessary conditions run first, on the entries in the order given
    (so the report says whether they came presented); if one fails, the
    sequence is unrealizable with the failing condition cited.  Otherwise
    the degree-class pass decides: it names the first piece that has no
    realization, or builds a graph, which is re-checked against the
    sequence.  The first witness is that graph's canonical form, reported
    up to ``CANONICAL_FORM_MAX_N``.  With ``want_all_witnesses`` and at
    most ``min(max_n, CANONICAL_FORM_MAX_N)`` entries, the labeled graphs
    in which vertex v has entry v are searched instead, each class decoded
    once, sorted by canonical edges and re-checked; the report is then
    exhaustive.  ``workers`` splits only that search: with p processes
    (``workers``, at most one per CPU), part i labels every p-th leaf from
    the i-th.  One worker runs it whole, in the calling process.
    """
    processes = _processes(workers)
    conditions = necessary_conditions(seq)
    seq = conditions.sequence
    n = len(seq)

    def report(exhaustive, witnesses, realizable, reason):
        return RealizabilityReport(
            sequence=seq,
            conditions=conditions,
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
        return report(False, (), False, what)

    failed_piece, graph = _piece_pass(seq.entries)
    if failed_piece is not None:
        i, j = failed_piece
        what = (
            f"degree class {i} fails Erdos-Gallai"
            if i == j
            else f"degree classes {i} and {j} fail Gale-Ryser"
        )
        return report(True, (), False, what)
    want = seq.multiset()
    _verify(graph, seq, want)

    bound = min(max_n, CANONICAL_FORM_MAX_N)
    exhaustive = want_all_witnesses and n <= bound
    if exhaustive:
        colour, need = _entry_demands(seq.entries)
        payloads = [(colour, need, i, processes) for i in range(processes)]
        results = _ordered_map(_realize_task, payloads, processes)
        certs = set(itertools.chain.from_iterable(results))
        forms = [CanonicalForm.from_certificate(n, c) for c in certs]
        forms.sort(key=lambda f: f.edges)  # not by certificate: its bit layout is private
        if not forms:
            raise WitnessVerificationError(f"the search found no realization of {seq}")
        for w in forms:
            _verify(w.graph(), seq, want)
    elif n <= CANONICAL_FORM_MAX_N:
        forms = [canonical_form(graph)]
    else:
        forms = []

    reason = f"{len(forms)} non-isomorphic realization(s) found" if forms else "realizable"
    if want_all_witnesses and not exhaustive:
        reason += f"; order {n} exceeds the search bound {bound}"
    elif not forms:
        reason += f"; order {n} exceeds the witness bound {CANONICAL_FORM_MAX_N}"
    return report(exhaustive, forms, True, reason)


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


def classify_all(n: int, *, workers: int = 1) -> tuple[ClassifiedSequence, ...]:
    """Group every isomorphism class of graphs on n vertices (no isolated
    vertices) by degree-polynomial sequence; returns each distinct sequence
    with its number of classes, sorted by sequence encoding.

    Each graphical all-positive degree multiset is one ``_realize_task``
    search, with one colour and the degrees as demands.  Each class it
    finds is decoded once and keyed by ``_sequence_key``, in the calling
    process."""
    processes = _processes(workers)
    if n < 1:
        raise BadParamsError(f"classification needs n >= 1, got {n}")
    if n > CLASSIFY_MAX_N:
        raise TooLargeError(
            f"classification limited to n <= {CLASSIFY_MAX_N}, got {n}"
        )
    payloads = (([0] * n, [d], 0, 1) for d in _graphical_positive_multisets(n))
    counts = Counter(
        _sequence_key(CanonicalForm.from_certificate(n, cert).graph())
        for certs in _ordered_map(_realize_task, payloads, processes)
        for cert in certs
    )
    return tuple(
        ClassifiedSequence(PolySequence.from_pairs(key), counts[key])
        for key in sorted(counts)
    )
