"""Polynomial core: statistics, ordering, transforms, text format."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degpoly import (
    CoeffStats,
    DegreePoly,
    coeff_stats,
    coeff_sum,
    compare_polys,
    format_poly,
    parse_poly,
    reflect_exponents,
    scale_exponents,
    sort_polys_desc,
    tensor_product,
)
from degpoly.errors import (
    DegreeBoundError,
    NegativeCoefficientError,
    NegativeValueError,
    PolyParseError,
    ZeroOperandError,
)
from degpoly.poly import presentation_key
from helpers import (
    assert_checked_form,
    model_mul,
    model_sub,
    model_terms,
    oracle_compare_polys,
    oracle_sort_polys_desc,
)

P = parse_poly

nonzero_polys = st.dictionaries(
    st.integers(0, 6), st.integers(1, 4), min_size=1, max_size=5
).map(DegreePoly)
polys = st.one_of(st.just(DegreePoly.zero()), nonzero_polys)


def bounded_set(max_exp=4, max_coeff=3):
    """All nonzero polynomials with exponents <= max_exp, coeffs <= max_coeff."""
    out = []
    for coeffs in itertools.product(range(max_coeff + 1), repeat=max_exp + 1):
        if any(coeffs):
            out.append(DegreePoly({e: c for e, c in enumerate(coeffs) if c}))
    return out


class TestConstruction:
    def test_zero_is_empty_map(self):
        assert DegreePoly.zero().terms() == {}
        assert DegreePoly({2: 0}).is_zero
        assert not DegreePoly.zero()

    def test_duplicate_exponents_accumulate(self):
        assert DegreePoly([(2, 1), (2, 2)]) == P("3x^2")

    def test_rejects_negatives_and_floats(self):
        with pytest.raises(ValueError):
            DegreePoly({2: -1})
        with pytest.raises(ValueError):
            DegreePoly({-1: 2})
        with pytest.raises(TypeError):
            DegreePoly({2: 1.5})
        with pytest.raises(TypeError):
            DegreePoly({True: 1})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DegreePoly({2: True}),
            lambda: DegreePoly({2.0: 1}),
            lambda: DegreePoly([(1, 2.0)]),
            lambda: DegreePoly.monomial(1, False),
            lambda: DegreePoly.monomial(1.0),
            lambda: DegreePoly.from_pairs([[3, 1.5]]),
            lambda: DegreePoly.from_pairs([[True, 1]]),
        ],
    )
    def test_public_constructors_reject_non_integers(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DegreePoly.monomial(2, -1),
            lambda: DegreePoly.monomial(-2),
            lambda: DegreePoly.from_pairs([[1, 1], [0, -3]]),
            lambda: DegreePoly([(-1, 0)]),
        ],
    )
    def test_public_constructors_reject_negatives(self, build):
        with pytest.raises(ValueError):
            build()

    def test_equality_is_term_map_equality(self):
        assert P("2x^2+x") == DegreePoly({1: 1, 2: 2})
        assert P("2x^2+x") != P("2x^2")
        assert hash(P("x^3")) == hash(DegreePoly({3: 1}))

    def test_degree(self):
        assert P("2x^4+x").degree == 4
        assert P("7").degree == 0
        with pytest.raises(ValueError):
            DegreePoly.zero().degree

    def test_pairs_roundtrip(self):
        f = P("x^3+2x^2")
        assert f.to_pairs() == [[3, 1], [2, 2]]
        assert DegreePoly.from_pairs(f.to_pairs()) == f


class TestCoeffStats:
    def test_paper_order_example_sum(self):
        assert coeff_sum(P("2x^4+12x^3")) == 14

    def test_zero_polynomial(self):
        assert coeff_stats(DegreePoly.zero()) == CoeffStats(0, 0, 0, 0)

    def test_example_graph_polynomial(self):
        # dp of the worked 4-vertex graph, sums done by hand.
        assert coeff_stats(P("x+2x^2+x^3")) == CoeffStats(4, 2, 2, 8)

    def test_constant_counts_as_even(self):
        s = coeff_stats(P("3+x"))
        assert (s.even_total, s.odd_total, s.first_moment) == (3, 1, 1)

    @given(nonzero_polys)
    def test_total_splits_by_parity(self, f):
        s = coeff_stats(f)
        assert s.total == s.even_total + s.odd_total

    @given(nonzero_polys)
    def test_first_moment_zero_iff_constant(self, f):
        assert (coeff_stats(f).first_moment == 0) == (f.degree == 0)


class TestCompare:
    def test_worked_comparisons(self):
        assert compare_polys(P("2x^4+12x^3"), P("3x^5+x^2")) > 0
        assert compare_polys(P("2x^4+12x^2"), P("2x^5+12x^2")) < 0
        assert compare_polys(P("2x^4+12x^2"), P("x^5+13x^2")) < 0
        assert compare_polys(P("2x^4+12x^2"), P("2x^4+11x^2+x")) > 0

    def test_equal(self):
        assert compare_polys(P("2x^4+12x^2"), P("2x^4+12x^2")) == 0

    def test_zero_operand_rejected(self):
        with pytest.raises(ZeroOperandError):
            compare_polys(DegreePoly.zero(), P("x"))
        with pytest.raises(ZeroOperandError):
            compare_polys(P("x"), DegreePoly.zero())

    def test_disjoint_support_falls_back_to_coefficient_vectors(self):
        # Equal sums, no shared exponent: decided at the highest differing one.
        assert compare_polys(P("2x^3"), P("x^2+x")) > 0

    def test_antisymmetry_and_totality_exhaustive(self):
        population = bounded_set()
        for f, g in itertools.combinations(population, 2):
            c = compare_polys(f, g)
            assert c != 0
            assert compare_polys(g, f) == -c

    def test_cascade_order_is_not_transitive(self):
        # The shared-support cascade admits 3-cycles; this witness documents
        # why sequence presentation cannot rely on a plain comparison sort.
        x, y, z = P("3x^4+x^2"), P("2x^4+2x"), P("x^3+2x^2+x")
        assert compare_polys(x, y) > 0
        assert compare_polys(y, z) > 0
        assert compare_polys(z, x) > 0

    def test_equals_oracle_exhaustive(self):
        # Every ordered pair of a small pool plus the intransitive 3-cycle:
        # the merge walk must give the set-based cascade's answer, and
        # swapping the operands must negate it.
        cycle = [P("3x^4+x^2"), P("2x^4+2x"), P("x^3+2x^2+x")]
        population = bounded_set(max_exp=4, max_coeff=2) + cycle
        for f in population:
            for g in population:
                c = compare_polys(f, g)
                assert c == oracle_compare_polys(f, g), (str(f), str(g))
                assert compare_polys(g, f) == -c

    @given(nonzero_polys, nonzero_polys)
    def test_equals_oracle(self, f, g):
        c = compare_polys(f, g)
        assert c == oracle_compare_polys(f, g)
        assert compare_polys(g, f) == -c

    @pytest.mark.xfail(
        strict=True,
        reason="the pairwise comparison is provably intransitive; "
        "~0.06% of ordered triples over this set form cycles",
    )
    def test_transitivity_over_random_triples(self):
        population = bounded_set()
        rng = random.Random(0)
        for _ in range(100_000):
            f, g, h = (rng.choice(population) for _ in range(3))
            if compare_polys(f, g) >= 0 and compare_polys(g, h) >= 0:
                assert compare_polys(f, h) >= 0, (str(f), str(g), str(h))

    @given(nonzero_polys, nonzero_polys)
    def test_consistent_with_presentation_key_on_shared_support(self, f, g):
        # Where the decision comes from the coefficient-sum stage, the
        # transitive presentation key must agree.
        if coeff_sum(f) != coeff_sum(g):
            same = compare_polys(f, g) > 0
            assert (presentation_key(f) > presentation_key(g)) == same


class TestSortDesc:
    def test_adjacent_pairs_non_increasing(self):
        rng = random.Random(3)
        population = bounded_set()
        for _ in range(200):
            sample = [rng.choice(population) for _ in range(rng.randint(1, 8))]
            out = sort_polys_desc(sample)
            assert sorted(map(str, out)) == sorted(map(str, sample))
            for a, b in zip(out, out[1:]):
                assert compare_polys(a, b) >= 0

    def test_intransitive_cycle_still_gets_valid_presentation(self):
        cycle = [P("3x^4+x^2"), P("2x^4+2x"), P("x^3+2x^2+x")]
        out = sort_polys_desc(cycle)
        for a, b in zip(out, out[1:]):
            assert compare_polys(a, b) >= 0

    def test_canonical_under_input_order(self):
        rng = random.Random(11)
        population = bounded_set()
        for _ in range(100):
            sample = [rng.choice(population) for _ in range(6)]
            base = sort_polys_desc(sample)
            shuffled = sample[:]
            rng.shuffle(shuffled)
            assert sort_polys_desc(shuffled) == base

    def test_equals_oracle_on_random_multisets_with_repeats(self):
        rng = random.Random(5)
        population = bounded_set()
        multi_group = 0
        for _ in range(2_000):
            pool = rng.sample(population, rng.randint(1, 6))
            sample = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
            assert sort_polys_desc(sample) == oracle_sort_polys_desc(sample)
            multi_group += len({coeff_sum(p) for p in sample}) >= 3
        assert multi_group > 500

    def test_equals_oracle_on_every_ordering_of_doubled_cycle(self):
        cycle = [P("3x^4+x^2"), P("2x^4+2x"), P("x^3+2x^2+x")] * 2
        want = oracle_sort_polys_desc(cycle)
        for order in itertools.permutations(cycle):
            assert sort_polys_desc(order) == want

    @given(st.lists(nonzero_polys, min_size=1, max_size=12))
    def test_equals_oracle(self, sample):
        assert sort_polys_desc(sample) == oracle_sort_polys_desc(sample)

    def test_rejects_zero_entries(self):
        for sample in ([P("x"), DegreePoly.zero()], [DegreePoly.zero()]):
            with pytest.raises(ZeroOperandError):
                sort_polys_desc(sample)


class TestArithmetic:
    def test_add_mul_fixtures(self):
        assert P("x^2") + P("x^2") == P("2x^2")
        assert P("x^4") * P("2") == P("2x^4")
        assert P("x^2") * P("2x") == P("2x^3")

    @given(nonzero_polys)
    def test_identities(self, f):
        assert f + DegreePoly.zero() == f
        assert f * P("1") == f

    def test_subtraction_underflow(self):
        assert P("3x^2+x") - P("x^2") == P("2x^2+x")
        with pytest.raises(NegativeCoefficientError):
            P("x^2") - P("2x^2")


class TestDictModel:
    term_lists = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), max_size=6)

    @given(term_lists, term_lists)
    def test_agrees_with_dict_model(self, a, b):
        f, g = DegreePoly(a), DegreePoly(b)
        ma, mb = model_terms(a), model_terms(b)
        assert f.terms() == ma
        assert [f.coefficient(e) for e in range(8)] == [ma.get(e, 0) for e in range(8)]
        assert coeff_sum(f) == sum(ma.values())
        assert (f + g).terms() == model_terms([*a, *b])
        assert (f * g).terms() == model_mul(ma, mb)
        diff = model_sub(ma, mb)
        if diff is None:
            with pytest.raises(NegativeCoefficientError):
                f - g
        else:
            assert (f - g).terms() == diff
        assert (f == g) == (ma == mb)
        same = DegreePoly(reversed(a))
        assert same == f and hash(same) == hash(f)


class TestTrustedConstruction:
    """Results built without the per-term checks are stored exactly as the
    public constructor would store them: descending, no zero coefficients,
    the stored total equal to the coefficient sum."""

    @given(polys, polys)
    def test_arithmetic(self, f, g):
        assert_checked_form(f + g)
        assert_checked_form(f * g)
        assert_checked_form(tensor_product(f, g))
        assert_checked_form((f + g) - g)

    @given(polys)
    def test_difference_drops_zero_coefficients(self, f):
        assert_checked_form(f - f)
        assert (f - f).is_zero

    @given(polys, st.integers(1, 5), st.integers(0, 4))
    def test_exponent_transforms(self, f, factor, slack):
        assert_checked_form(scale_exponents(f, factor))
        bound = (f.degree if f else 0) + slack
        assert_checked_form(reflect_exponents(f, bound))

    def test_transforms_reject_non_integer_factors(self):
        with pytest.raises(TypeError):
            scale_exponents(P("x"), 2.0)
        with pytest.raises(TypeError):
            reflect_exponents(P("x"), 3.0)


class TestTensor:
    def test_fixtures(self):
        assert tensor_product(P("2x"), P("x")) == P("2x")
        assert tensor_product(P("x^2+x^4"), P("x^6+x^3")) == P("x^24+2x^12+x^6")
        assert tensor_product(DegreePoly.zero(), P("x^3")).is_zero
        assert tensor_product(P("x^3"), DegreePoly.zero()).is_zero

    @given(polys, polys)
    def test_commutative(self, f, g):
        assert tensor_product(f, g) == tensor_product(g, f)

    @given(polys, polys)
    def test_coefficient_sum_multiplicative(self, f, g):
        assert coeff_sum(tensor_product(f, g)) == coeff_sum(f) * coeff_sum(g)


class TestExponentTransforms:
    def test_scale_fixtures(self):
        assert scale_exponents(P("x"), 2) == P("x^2")
        assert scale_exponents(P("2x^2+x"), 3) == P("2x^6+x^3")
        assert scale_exponents(DegreePoly.zero(), 5).is_zero

    @given(nonzero_polys)
    def test_scale_by_one_is_identity(self, f):
        assert scale_exponents(f, 1) == f

    def test_scale_requires_positive(self):
        with pytest.raises(ValueError):
            scale_exponents(P("x"), 0)

    def test_reflect_fixtures(self):
        assert reflect_exponents(P("2x^2"), 4) == P("2x^2")
        assert reflect_exponents(P("2x^2"), 3) == P("2x")
        assert reflect_exponents(P("x^3+x"), 3) == P("1+x^2")
        assert reflect_exponents(DegreePoly.zero(), 0).is_zero

    def test_reflect_bound(self):
        with pytest.raises(DegreeBoundError):
            reflect_exponents(P("x^4"), 3)

    @given(nonzero_polys, st.integers(0, 4))
    def test_reflect_involution(self, f, slack):
        n = f.degree + slack
        assert reflect_exponents(reflect_exponents(f, n), n) == f


class TestTextFormat:
    def test_parse_fixtures(self):
        assert P("2x^2+x") == DegreePoly({2: 2, 1: 1})
        assert P("0").is_zero
        assert P("  2 x ^ 2 + x ") == DegreePoly({2: 2, 1: 1})
        assert P("1") == DegreePoly({0: 1})
        assert P("x^0") == DegreePoly({0: 1})

    def test_format_fixtures(self):
        assert format_poly(DegreePoly({3: 1, 2: 2})) == "x^3+2x^2"
        assert format_poly(DegreePoly.zero()) == "0"
        assert format_poly(P("x")) == "x"
        assert format_poly(P("5")) == "5"

    def test_errors_carry_positions(self):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("2x^2+*")
        assert exc.value.position == 5
        with pytest.raises(NegativeValueError):
            parse_poly("-x")
        with pytest.raises(NegativeValueError):
            parse_poly("x^-2")
        with pytest.raises(PolyParseError):
            parse_poly("")
        with pytest.raises(PolyParseError):
            parse_poly("x+")
        # Numbers are ASCII digits only: a superscript or Arabic-Indic
        # digit is no number.
        for text, position in (("x^²", 2), ("²x", 0), ("٣x", 0)):
            with pytest.raises(PolyParseError) as exc:
                parse_poly(text)
            assert exc.value.position == position

    @given(nonzero_polys)
    def test_roundtrip(self, f):
        assert parse_poly(format_poly(f)) == f
