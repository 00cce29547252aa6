"""Exact sparse polynomials with nonnegative integer coefficients.

A polynomial is stored as its (exponent, coefficient) pairs in descending
exponent order with no zero coefficients kept (the zero polynomial has no
pairs), so equality is plain pair-tuple equality, and all arithmetic is
exact integer arithmetic.  The coefficient sum is stored beside the pairs,
since the presentation order reads it first on every comparison.

The module also carries the comparison used to present degree-polynomial
sequences non-increasingly, the tensor product (which multiplies exponents
instead of adding them), and the three exponent transforms (scaling,
reflection and shift) needed by the graph-operation formulas.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Union

from .errors import (
    DegreeBoundError,
    NegativeCoefficientError,
    NegativeValueError,
    PolyParseError,
    ZeroOperandError,
)

TermsLike = Union[Mapping[int, int], Iterable[tuple[int, int]], None]


class DegreePoly:
    """Sparse univariate polynomial over the nonnegative integers.

    Instances are immutable value objects: hashable, comparable for
    equality by their terms, and safe to share between workers.
    """

    __slots__ = ("_pairs", "_total")

    def __init__(self, terms: TermsLike = None):
        acc: dict[int, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for exponent, coefficient in items:
                if type(exponent) is not int or type(coefficient) is not int:
                    raise TypeError("exponents and coefficients must be exact integers")
                if exponent < 0:
                    raise ValueError(f"negative exponent {exponent}")
                if coefficient < 0:
                    raise ValueError(f"negative coefficient {coefficient}")
                if coefficient == 0:
                    continue
                acc[exponent] = acc.get(exponent, 0) + coefficient
        # Descending-exponent pairs: canonical identity used for eq/hash.
        self._pairs = tuple(sorted(acc.items(), reverse=True))
        self._total = sum(acc.values())

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_counts(cls, acc: Mapping[int, int]) -> "DegreePoly":
        """Unchecked construction from exact nonnegative integer counts per
        exponent, as computed by the package; zero counts are dropped.
        Empty counts, as for every isolated vertex, give one shared zero."""
        if not acc:
            return _ZERO
        self = object.__new__(cls)
        items = acc.items()
        if 0 in acc.values():
            items = [(e, c) for e, c in items if c]
        self._pairs = tuple(sorted(items, reverse=True))
        self._total = sum(acc.values())
        return self

    @classmethod
    def zero(cls) -> "DegreePoly":
        return cls()

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "DegreePoly":
        return cls({exponent: coefficient})

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "DegreePoly":
        """Decode the structured ``[[exponent, coefficient], ...]`` form."""
        return cls((e, c) for e, c in pairs)

    @classmethod
    def parse(cls, text: str) -> "DegreePoly":
        return parse_poly(text)

    # -- views ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._pairs

    @property
    def degree(self) -> int:
        if not self._pairs:
            raise ValueError("the zero polynomial has no degree")
        return self._pairs[0][0]

    def coefficient(self, exponent: int) -> int:
        for e, c in self._pairs:
            if e == exponent:
                return c
        return 0

    def support(self) -> tuple[int, ...]:
        """Exponents with nonzero coefficient, descending."""
        return tuple(e for e, _ in self._pairs)

    def terms(self) -> dict[int, int]:
        return dict(self._pairs)

    def to_pairs(self) -> tuple[tuple[int, int], ...]:
        """Structured encoding: the stored (exponent, coefficient) pairs,
        descending, which JSON writes as ``[[exponent, coefficient], ...]``."""
        return self._pairs

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DegreePoly):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "DegreePoly") -> "DegreePoly":
        if not isinstance(other, DegreePoly):
            return NotImplemented
        out = dict(self._pairs)
        for e, c in other._pairs:
            out[e] = out.get(e, 0) + c
        return DegreePoly._from_counts(out)

    def __sub__(self, other: "DegreePoly") -> "DegreePoly":
        if not isinstance(other, DegreePoly):
            return NotImplemented
        out = dict(self._pairs)
        for e, c in other._pairs:
            new = out.get(e, 0) - c
            if new < 0:
                raise NegativeCoefficientError(
                    f"subtraction drops coefficient of x^{e} below zero"
                )
            out[e] = new
        return DegreePoly._from_counts(out)

    def __mul__(self, other: "DegreePoly") -> "DegreePoly":
        if not isinstance(other, DegreePoly):
            return NotImplemented
        out: dict[int, int] = {}
        for ea, ca in self._pairs:
            for eb, cb in other._pairs:
                e = ea + eb
                out[e] = out.get(e, 0) + ca * cb
        return DegreePoly._from_counts(out)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"DegreePoly.parse({format_poly(self)!r})"


_ZERO = DegreePoly()


@dataclass(frozen=True)
class CoeffStats:
    """Coefficient sums of a polynomial.

    ``total`` is the sum of all coefficients, ``even_total``/``odd_total``
    split it by exponent parity (exponent 0 counts as even), and
    ``first_moment`` is the exponent-weighted sum -- equivalently the sum of
    the coefficients of the derivative.
    """

    total: int
    even_total: int
    odd_total: int
    first_moment: int


def coeff_stats(poly: DegreePoly) -> CoeffStats:
    total = even_total = odd_total = first_moment = 0
    for exponent, coefficient in poly:
        total += coefficient
        if exponent % 2 == 0:
            even_total += coefficient
        else:
            odd_total += coefficient
        first_moment += exponent * coefficient
    return CoeffStats(total, even_total, odd_total, first_moment)


def coeff_sum(poly: DegreePoly) -> int:
    """Sum of all coefficients (0 for the zero polynomial)."""
    return poly._total


# -- the sequence-presentation order ------------------------------------------

LESS, EQUAL, GREATER = -1, 0, 1


def compare_polys(f: DegreePoly, g: DegreePoly) -> int:
    """Compare two nonzero polynomials; returns -1, 0 or 1.

    The cascade: the larger coefficient sum wins; on a tie, coefficients are
    compared along the exponents where both polynomials are nonzero, from the
    highest such exponent down.  If that exhausts without deciding, the full
    coefficient vectors are compared from the highest exponent at which they
    differ (a documented extension: the shared-support cascade alone cannot
    separate e.g. 2x^3 from x^2+x).  Past equal shared coefficients, that
    first difference is the highest exponent present in only one of the two,
    and the polynomial that has it is the larger.

    Both stages run as one merge walk over the two descending term lists:
    the first unequal coefficient at a shared exponent decides at once, and
    the first exponent met in only one polynomial decides if none does.
    """
    fp, gp = f._pairs, g._pairs
    if not fp or not gp:
        raise ZeroOperandError("comparison is undefined for the zero polynomial")
    sf, sg = f._total, g._total
    if sf != sg:
        return LESS if sf < sg else GREATER
    nf, ng = len(fp), len(gp)
    i = j = 0
    only = EQUAL  # decision of the first exponent present in one polynomial
    while i < nf and j < ng:
        ef, cf = fp[i]
        eg, cg = gp[j]
        if ef == eg:
            if cf != cg:
                return LESS if cf < cg else GREATER
            i += 1
            j += 1
        elif ef > eg:
            if not only:
                only = GREATER
            i += 1
        else:
            if not only:
                only = LESS
            j += 1
    # Equal sums: if the walk left terms in one polynomial unread, it also
    # met an exponent present in only that one, so ``only`` is set.
    return only


def presentation_key(poly: DegreePoly) -> tuple:
    """A transitive total-order key consistent with the comparison fallback.

    Sorting by this key descending gives the canonical starting arrangement
    for :func:`sort_polys_desc`; it orders by coefficient sum, then by the
    coefficient vector read from the highest exponent down.
    """
    return (poly._total, poly._pairs)


def sort_polys_desc(polys: Iterable[DegreePoly]) -> list[DegreePoly]:
    """Arrange nonzero polynomials so every adjacent pair is non-increasing.

    The pairwise comparison is not transitive in general (see the tests for
    an explicit 3-cycle), so a plain sort is not well defined.  The rule:
    arrange the polynomials by the transitive :func:`presentation_key`,
    descending, then place them one by one before the first element they
    are >= to (at the end if there is none).  The result is a deterministic
    function of the input multiset in which every adjacent pair satisfies
    ``compare_polys(seq[i], seq[i+1]) >= 0``.  A zero entry raises
    :class:`ZeroOperandError`.

    Two facts let the rule run without scanning the whole list:

    * Coefficient-sum groups never interleave.  The key starts with the
      coefficient sum, so each new polynomial has a sum no larger than any
      already placed, and it compares LESS to every placed one with a larger
      sum; it therefore lands inside the trailing run of its own sum.  The
      rule is the same rule applied to each sum group alone, the groups
      concatenated by descending sum.
    * Equal entries form one contiguous run.  The key determines the
      polynomial, so copies arrive together; a second copy passes what the
      first passed and stops at it (EQUAL counts as >=), and later entries
      compare every copy alike, so they never split the run.  Each distinct
      value is placed once and then repeated.

    Cost: O(n + k log k + sum of k_s^2) comparisons and moves for n entries,
    k of them distinct and k_s of those with coefficient sum s; only many
    distinct entries of one sum are quadratic.
    """
    counts: dict[DegreePoly, int] = {}
    for p in polys:
        counts[p] = counts.get(p, 0) + 1
    out: list[DegreePoly] = []
    group: list[DegreePoly] = []
    group_sum = None
    for (total, _), p in sorted(
        ((presentation_key(p), p) for p in counts), reverse=True
    ):
        if total != group_sum:
            if not total:
                raise ZeroOperandError("cannot present the zero polynomial")
            out.extend(group)
            group, group_sum = [], total
        for i, q in enumerate(group):
            if compare_polys(p, q) >= 0:
                group.insert(i, p)
                break
        else:
            group.append(p)
    out.extend(group)
    return [p for p in out for _ in range(counts[p])]


# -- transforms ----------------------------------------------------------------


def tensor_product(f: DegreePoly, g: DegreePoly) -> DegreePoly:
    """Tensor product: coefficient of x^t sums a_i*b_j over exponent pairs
    with i*j = t.  Zero times anything is zero."""
    if f.is_zero or g.is_zero:
        return DegreePoly.zero()
    out: dict[int, int] = {}
    for ei, ci in f:
        for ej, cj in g:
            e = ei * ej
            out[e] = out.get(e, 0) + ci * cj
    return DegreePoly._from_counts(out)


def scale_exponents(f: DegreePoly, n: int) -> DegreePoly:
    """Map every exponent i to i*n, keeping coefficients."""
    if n < 1:
        raise ValueError(f"scale factor must be positive, got {n}")
    if not isinstance(n, int):
        raise TypeError(f"scale factor must be an integer, got {n!r}")
    return DegreePoly._from_counts({e * n: c for e, c in f})


def shift_exponents(f: DegreePoly, k: int) -> DegreePoly:
    """Map every exponent i to i+k, keeping coefficients: x^k * f.  The
    order of the pairs is kept, so they are stored without a sort."""
    if k < 0:
        raise ValueError(f"shift must be nonnegative, got {k}")
    if not isinstance(k, int):
        raise TypeError(f"shift must be an integer, got {k!r}")
    out = object.__new__(DegreePoly)
    out._pairs = tuple([(e + k, c) for e, c in f._pairs])
    out._total = f._total
    return out


def reflect_exponents(f: DegreePoly, n: int) -> DegreePoly:
    """Map every exponent i to n-i, keeping coefficients; needs deg(f) <= n."""
    if n < 0:
        raise ValueError(f"reflection bound must be nonnegative, got {n}")
    if not isinstance(n, int):
        raise TypeError(f"reflection bound must be an integer, got {n!r}")
    if f.is_zero:
        return DegreePoly.zero()
    if f.degree > n:
        raise DegreeBoundError(
            f"cannot reflect at {n}: polynomial has degree {f.degree}"
        )
    return DegreePoly._from_counts({n - e: c for e, c in f})


# -- text format ----------------------------------------------------------------


def format_poly(poly: DegreePoly) -> str:
    """Render with descending exponents: ``x^3+2x^2``, ``2x``, ``3``, ``0``."""
    if poly.is_zero:
        return "0"
    parts = []
    for exponent, coefficient in poly:
        if exponent == 0:
            parts.append(str(coefficient))
            continue
        coeff_txt = "" if coefficient == 1 else str(coefficient)
        var_txt = "x" if exponent == 1 else f"x^{exponent}"
        parts.append(coeff_txt + var_txt)
    return "+".join(parts)


# One term of the text syntax, read within a "+"-separated part: ASCII
# digits, then "x" with an optional caret and exponent digits, whitespace
# around each token.  Every piece is optional, so the pattern always
# matches; which groups are empty and where it stops place any error.
_TERM = re.compile(r"\s*([0-9]*)\s*(x\s*(?:\^\s*([0-9]*))?)?\s*")


def _number(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's integer-string digit limit
        raise PolyParseError(
            f"number of {len(digits)} digits is too long", position
        ) from None


def _missing(text: str, position: int, what: str) -> PolyParseError:
    """The error for a term or exponent absent at ``position``: a sign
    there is a negative value."""
    if text[position : position + 1] in ("-", "−"):
        return NegativeValueError("negative values are not allowed", position)
    return PolyParseError(f"expected {what}", position)


def parse_poly(text: str) -> DegreePoly:
    """Parse the text syntax: terms like ``2x^2``, ``x``, ``7`` joined by
    ``+``; numbers are ASCII digits; whitespace is ignored; ``0`` is the
    zero polynomial.  An error carries the position a left-to-right scan
    stops at."""
    if not text or text.isspace():
        raise PolyParseError("empty polynomial", len(text))
    counts: dict[int, int] = {}
    start = 0
    for part in text.split("+"):
        end = start + len(part)
        m = _TERM.match(text, start, end)
        digits, x, exponent_digits = m.groups()
        coefficient = _number(digits, m.start(1)) if digits else 1
        if x is None:
            if not digits:
                raise _missing(text, m.start(1), "a term")
            exponent = 0
        elif exponent_digits is None:
            exponent = 1
        elif exponent_digits:
            exponent = _number(exponent_digits, m.start(3))
        else:
            raise _missing(text, m.start(3), "a number")
        if m.end() < end:
            raise PolyParseError(f"unexpected character {text[m.end()]!r}", m.end())
        counts[exponent] = counts.get(exponent, 0) + coefficient
        start = end + 1
    return DegreePoly._from_counts(counts)
