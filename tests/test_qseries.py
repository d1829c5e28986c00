"""Ring-level tests: exact Laurent arithmetic and marker series."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur import qseries
from qschur.qseries import (
    LaurentPoly,
    MarkerSeries,
    NotDivisible,
    Truncation,
    ONE,
    ZERO,
    qpow,
)

from oracles import (
    merged_truncation,
    model_negated,
    model_of,
    model_product,
    model_sum,
    series_model,
)


def lp(*pairs):
    return LaurentPoly(pairs)


# --------------------------------------------------------------------------
# term-dict oracle: the plain schoolbook ring the packed one must match


def _mul_dicts(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _add_dicts(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _terms(p: LaurentPoly) -> dict:
    return dict(p.terms())


small_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-8, 8), st.integers(-50, 50), max_size=6))

big_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-60, 60), st.integers(-10**24, 10**24), max_size=80))

# coefficients just under the digit limits 2^31, 2^63, 2^95 and 2^127,
# many of them
edge_coefficients = st.sampled_from(
    [s * (2**31 - d) for s in (1, -1) for d in (1, 2**20)]
    + [s * (2**63 - d) for s in (1, -1) for d in (1, 2**40)]
    + [s * (2**95 - 1) for s in (1, -1)]
    + [s * (2**127 - 1) for s in (1, -1)] + [1, -1])
edge_polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-20, 20), edge_coefficients, max_size=41))

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4)).filter(lambda x: x != 0)


class TestLaurentPoly:
    def test_difference_of_squares(self):
        assert (ONE - qpow(1)) * (ONE + qpow(1)) == ONE - qpow(2)

    def test_zero_annihilates(self):
        assert (ONE + qpow(3, 7)) * ZERO == ZERO

    def test_negative_exponent_product(self):
        # (1 - q^-1)(1 - q) = 2 - q - q^-1; both sides at q=2 equal -1/2
        product = (ONE - qpow(-1)) * (ONE - qpow(1))
        assert product == lp((0, 2), (1, -1), (-1, -1))
        assert product.evaluate(2) == Fraction(-1, 2)

    def test_exact_division(self):
        assert (ONE - qpow(2)).divide_exact(ONE - qpow(1)) == ONE + qpow(1)
        assert (ONE - qpow(-1)).divide_exact(ONE - qpow(1)) == qpow(-1, -1)

    def test_division_failure(self):
        with pytest.raises(NotDivisible):
            (ONE + qpow(1)).divide_exact(ONE - qpow(1))
        with pytest.raises(ZeroDivisionError):
            ONE.divide_exact(ZERO)

    def test_zero_is_empty_mapping(self):
        assert not lp((3, 5), (3, -5))
        assert lp() == ZERO == 0

    def test_int_coercion(self):
        assert ONE + 1 == lp((0, 2))
        assert 3 * qpow(2) == lp((2, 3))
        assert qpow(0) == 1

    def test_power(self):
        assert (ONE + qpow(1)) * (ONE + qpow(1)) == lp((0, 1), (1, 2), (2, 1))

    def test_shift_and_dilate(self):
        p = lp((0, 1), (2, -3))
        assert p.shifted(-1) == lp((-1, 1), (1, -3))
        assert p.dilated(3) == lp((0, 1), (6, -3))
        with pytest.raises(ValueError):
            p.dilated(0)

    def test_truncated(self):
        p = lp((-2, 1), (0, 1), (5, 1))
        assert p.truncated(4) == lp((-2, 1), (0, 1))

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys)
    def test_division_round_trip(self, a, b):
        if not b:
            return
        assert (a * b).divide_exact(b) == a

    @given(small_polys, small_polys, rationals)
    def test_evaluation_homomorphism(self, a, b, q0):
        assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)
        assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)

    @given(big_polys, big_polys)
    @settings(max_examples=60)
    def test_packed_multiplication_matches_schoolbook(self, a, b):
        assert _terms(a * b) == _mul_dicts(_terms(a), _terms(b))


class TestPackedRing:
    """The packed ring against the term-dict oracle, on coefficients up to
    10^24 (digits wider than 64 bits), coefficients just under the digit
    limits, and small ones."""

    @given(edge_polys, st.one_of(edge_polys, big_polys))
    @settings(max_examples=60)
    def test_products_at_the_digit_limit(self, a, b):
        assert _terms(a * b) == _mul_dicts(_terms(a), _terms(b))
        assert _terms(a + b) == _add_dicts(_terms(a), _terms(b))
        assert _terms(a * a * b) == _mul_dicts(_mul_dicts(_terms(a), _terms(a)), _terms(b))

    @given(st.one_of(big_polys, small_polys, edge_polys),
           st.one_of(big_polys, small_polys, edge_polys),
           st.integers(-10**30, 10**30))
    @settings(max_examples=80)
    def test_sum_difference_and_scalar(self, a, b, k):
        ta, tb = _terms(a), _terms(b)
        assert _terms(a + b) == _add_dicts(ta, tb)
        assert _terms(a - b) == _add_dicts(ta, {e: -c for e, c in tb.items()})
        assert _terms(-a) == {e: -c for e, c in ta.items()}
        assert _terms(a * k) == {e: c * k for e, c in ta.items() if c * k}
        assert _terms(a + k) == _add_dicts(ta, {0: k} if k else {})

    @given(big_polys, st.integers(-70, 70), st.integers(-70, 70), st.integers(1, 4))
    def test_shift_truncate_dilate(self, a, k, cap, power):
        ta = _terms(a)
        assert _terms(a.shifted(k)) == {e + k: c for e, c in ta.items()}
        assert _terms(a.truncated(cap)) == {e: c for e, c in ta.items() if e <= cap}
        assert _terms(a.dilated(power)) == {e * power: c for e, c in ta.items()}

    @given(big_polys, st.integers(-70, 70))
    def test_inspection(self, a, e):
        ta = _terms(a)
        assert len(a) == len(ta)
        assert a.coeff(e) == ta.get(e, 0)
        assert a.min_exp == (min(ta) if ta else None)
        assert a.max_exp == (max(ta) if ta else None)
        assert LaurentPoly.parse(str(a)) == a

    @given(big_polys, big_polys)
    @settings(max_examples=60)
    def test_division_round_trip_wide(self, a, b):
        if not b:
            return
        assert (a * b).divide_exact(b) == a

    def test_division_with_cancelling_dividend(self):
        # the dividend c - c q^2 fits 64-bit digits, but the packed quotient
        # cannot be proven at that width; the quotient is still exact
        c = 2**62
        dividend = lp((0, c), (2, -c))  # a difference would bound it by 2c
        assert dividend._width == 64
        quotient = dividend.divide_exact(ONE + qpow(1))
        assert quotient == qpow(0, c) - qpow(1, c)
        with pytest.raises(NotDivisible):
            (dividend + 1).divide_exact(ONE + qpow(1))

    def test_division_with_cancelling_dividend_at_32_bits(self):
        # the same at the narrowest width: c - c q^2 fits 32-bit digits, the
        # packed quotient c - c q cannot be proven there (2c = 2^31)
        c = 2**30
        dividend = lp((0, c), (2, -c))
        assert dividend._width == 32
        quotient = dividend.divide_exact(ONE + qpow(1))
        assert _terms(quotient) == {0: c, 1: -c}
        with pytest.raises(NotDivisible):
            (dividend + 1).divide_exact(ONE + qpow(1))
        # 2 + q packs to 2 + 2^32, whose half 1 + 2^31 has the digits
        # (1 - 2^31) + q: an exact packed quotient the proof must reject
        with pytest.raises(NotDivisible):
            lp((0, 2), (1, 1)).divide_exact(LaurentPoly.const(2))

    def test_products_widen_through_32_64_and_96_bits(self):
        # each product's bound passes the next digit limit, so the chain
        # steps through every width from the narrowest
        a = lp((0, 2**20), (1, -(2**20 - 1)), (3, 7))
        b = lp((-1, 2**31 - 1), (2, -(2**31 - 2**20)))
        chain, expected = [a], [_terms(a)]
        for factor in (a, a, b):
            chain.append(chain[-1] * factor)
            expected.append(_mul_dicts(expected[-1], _terms(factor)))
        assert [p._width for p in chain] == [32, 64, 96, 128]
        assert [_terms(p) for p in chain] == expected
        assert _terms(b * b) == _mul_dicts(_terms(b), _terms(b))

    @given(st.one_of(small_polys, edge_polys), st.one_of(small_polys, edge_polys),
           small_polys)
    @settings(max_examples=150)
    def test_not_divisible_matches_oracle(self, a, b, r):
        if not b:
            return
        for product in (a * b, a * b + r):
            # re-packed from its terms at the narrowest width its
            # coefficients allow, so that the proof at the operands' width
            # can fail and the division must widen to decide
            num = LaurentPoly(dict(product.terms()))
            expected = _divide_dicts(_terms(num), _terms(b))
            if expected is None:
                with pytest.raises(NotDivisible):
                    num.divide_exact(b)
            else:
                assert _terms(num.divide_exact(b)) == expected

    @given(big_polys, st.integers(-10, 10))
    def test_equality_and_hash_across_widths(self, a, k):
        huge = qpow(k, 10**30) + qpow(k + 3, -1)
        detour = (a * huge + a) - a * huge
        assert detour == a and a == detour
        assert hash(detour) == hash(a)
        if a:
            assert detour._width > a._width  # the detour really was wider

    @given(st.integers(-10**40, 10**40))
    def test_constants_hash_like_ints(self, c):
        assert hash(LaurentPoly.const(c)) == hash(c)
        assert hash(LaurentPoly.const(c) * qpow(0)) == hash(c)
        assert LaurentPoly.const(c) == c

    def test_repeated_doubling_widens(self):
        p, n = qpow(-3, 2**62) + qpow(5, -(2**62)), 2**62
        for _ in range(200):
            p, n = p + p, n * 2
        assert _terms(p) == {-3: n, 5: -n}
        assert _terms(p * p) == {-6: n * n, 2: -2 * n * n, 10: n * n}


def _state(p: LaurentPoly) -> tuple:
    """The packed state of a value: equal states are the same bits."""
    return p._lo, p._v, p._width, p._bound


class TestWidenedForm:
    """A value keeps its last widened form, read through _at."""

    @given(st.one_of(small_polys, big_polys, edge_polys))
    @settings(max_examples=60)
    def test_the_kept_form_is_the_widened_one(self, a):
        state, text, digest = _state(a), str(a), hash(a)
        for width in (64, 96, 128, 256):
            if width < a._width:
                continue
            want = qseries._widened(a._v, a._width, width) if width > a._width else a._v
            assert a._at(width) == want
            assert a._at(width) == want  # read again, from the kept form
        assert (_state(a), str(a), hash(a)) == (state, text, digest)

    def test_a_repeat_read_does_not_widen_again(self, monkeypatch):
        calls = []
        widened = qseries._widened

        def counted(*args):
            calls.append(args[1:])
            return widened(*args)

        monkeypatch.setattr(qseries, "_widened", counted)
        a = lp((0, 3), (2, -5), (7, 1))
        for width in (64, 64, 96, 96, 96, 128, 128):
            a._at(width)
        assert calls == [(32, 64), (32, 96), (32, 128)]
        assert a._at(32) == a._v and len(calls) == 3  # its own width is no widening
        # a product and a sum at 64 bits read the kept form of each operand
        wide = lp((0, 2**40), (1, 1))
        a._at(64)
        calls.clear()
        for _ in range(3):
            a * wide
            a + wide
        assert calls == []

    @given(st.one_of(small_polys, edge_polys), st.one_of(big_polys, edge_polys),
           st.sampled_from((64, 96, 128)))
    @settings(max_examples=80)
    def test_arithmetic_on_kept_forms_matches_the_oracle(self, a, b, width):
        # operands that already keep a wider form, as table entries do
        for p in (a, b):
            if p._width <= width:
                p._at(width)
        ta, tb = _terms(a), _terms(b)
        for _ in range(2):
            assert _terms(a * b) == _mul_dicts(ta, tb)
            assert _terms(a + b) == _add_dicts(ta, tb)
            assert _terms(b - a) == _add_dicts(tb, {e: -c for e, c in ta.items()})
            assert (a == b) == (ta == tb)


def _one_at_a_time(terms) -> LaurentPoly:
    total = ZERO
    for a, b, e in terms:
        total = total + (a * b).shifted(e)
    return total


nonzero_polys = st.one_of(small_polys, big_polys, edge_polys).filter(bool)


class TestSumOfProducts:
    """One packed sum of q^e a b against the products added one at a time
    to ZERO: the same value, in the same packed state."""

    @given(st.lists(st.tuples(nonzero_polys, nonzero_polys, st.integers(-30, 30)),
                    max_size=5))
    @settings(max_examples=120)
    def test_equals_the_one_at_a_time_sum(self, terms):
        got = LaurentPoly.sum_of_products(terms)
        assert _state(got) == _state(_one_at_a_time(terms))
        want: dict = {}
        for a, b, e in terms:
            want = _add_dicts(want, {x + e: c for x, c in _mul_dicts(_terms(a), _terms(b)).items()})
        assert _terms(got) == want

    def test_a_sum_that_cancels_part_way(self):
        # the first two terms cancel, so adding one at a time restarts from
        # ZERO with the last term's narrow bound and width
        wide, small = lp((0, 2**40), (3, -7)), lp((1, 2), (2, 1))
        terms = [(wide, wide, 0), (-wide, wide, 0), (small, small, 5)]
        got = LaurentPoly.sum_of_products(terms)
        assert _state(got) == _state(_one_at_a_time(terms)) == _state((small * small).shifted(5))
        assert got._width == 32
        # cancelling at the last term leaves zero
        assert _state(LaurentPoly.sum_of_products(terms[:2])) == _state(ZERO)

    def test_an_operand_wider_than_its_bound_sets_the_width(self):
        # the ring builds each value at the narrowest width for its bound,
        # but the packed sum must not rely on it
        small = lp((0, 3), (1, -2))
        wide = LaurentPoly._packed(small._lo, qseries._widened(small._v, 32, 96), 96, small._bound)
        for terms in ([(small, wide, 0), (small, small, 1)], [(wide, small, 2)]):
            got = LaurentPoly.sum_of_products(terms)
            assert _state(got) == _state(_one_at_a_time(terms))
            assert got._width == 96

    def test_low_digits_that_cancel_are_dropped(self):
        a = lp((0, 1), (1, 1))
        terms = [(a, a, 0), (ONE, lp((0, -1), (1, -2)), 0), (ONE, qpow(4), 0)]
        got = LaurentPoly.sum_of_products(terms)
        assert _state(got) == _state(_one_at_a_time(terms))
        assert _terms(got) == {2: 1, 4: 1} and got._lo == 2


def _sum_dict(terms) -> dict:
    """The term-dict oracle of the sum of q^e a b over ``terms``."""
    want: dict = {}
    for a, b, e in terms:
        want = _add_dicts(want, {x + e: c for x, c in _mul_dicts(_terms(a), _terms(b)).items()})
    return want


def _wider(p: LaurentPoly, width: int) -> LaurentPoly:
    """``p`` re-packed at ``width``, with its own bound."""
    return LaurentPoly._packed(p._lo, qseries._widened(p._v, p._width, width), width, p._bound)


term_lists = st.lists(st.tuples(nonzero_polys, nonzero_polys, st.integers(-30, 30)), max_size=5)


class TestSumEquals:
    """The one-difference equality of a sum of q^e a b and a value,
    against the term-dict oracle."""

    @given(term_lists, st.one_of(small_polys, big_polys, edge_polys), st.data())
    @settings(max_examples=150)
    def test_matches_the_term_dict_oracle(self, terms, other, data):
        # a term and its negation cancel part of the sum
        if terms and data.draw(st.booleans()):
            a, b, e = data.draw(st.sampled_from(terms))
            terms = terms + [(-a, b, e)]
        want = _sum_dict(terms)
        exact = LaurentPoly(want)
        bump = data.draw(st.sampled_from(sorted(want) or [0])) + data.draw(st.integers(-2, 2))
        for value in (exact, -exact, exact + other, exact + qpow(bump), exact + qpow(bump, -1),
                      other, ZERO):
            assert LaurentPoly.sum_equals(terms, value) == (_terms(value) == want)
        for width in (64, 96, 128, 256):
            if exact and width > exact._width:
                assert LaurentPoly.sum_equals(terms, _wider(exact, width))

    @pytest.mark.parametrize("limit", [2**31, 2**63, 2**127])
    def test_coefficients_just_under_the_digit_limits(self, limit):
        # negative top digits, and a sum whose terms cancel at the top
        c = limit - 1
        a, b = lp((0, c), (2, -c)), lp((0, -c), (1, 1))
        terms = [(a, b, 0), (a, a, 1), (-a, a, 1), (b, b, -3)]
        want = a * b + (b * b).shifted(-3)
        assert LaurentPoly.sum_equals(terms, want)
        assert LaurentPoly.sum_equals(terms, _wider(want, want._width + 64))
        for off in (qpow(0), qpow(3, -1), qpow(-6), qpow(4, c)):
            assert not LaurentPoly.sum_equals(terms, want + off)
        assert _terms(want) == _sum_dict(terms)

    def test_the_empty_sum(self):
        assert LaurentPoly.sum_equals([], ZERO)
        for value in (ONE, qpow(5, -2), lp((-3, 2**100))):
            assert not LaurentPoly.sum_equals([], value)

    def test_a_right_side_wider_than_every_term(self):
        small = lp((0, 3), (1, -2))
        terms = [(small, small, 0), (small, ONE, 4)]
        want = small * small + small.shifted(4)
        assert want._width == 32
        for width in (64, 96, 128):
            assert LaurentPoly.sum_equals(terms, _wider(want, width))
        wide = want + qpow(2, 2**100)
        assert not LaurentPoly.sum_equals(terms, wide)
        assert LaurentPoly.sum_equals(terms + [(qpow(2, 2**50), qpow(0, 2**50), 0)], wide)

    def test_a_carry_the_operand_widths_do_not_hold(self):
        # 2^16 * 2^16 is the constant 2^32, which q is too at q = 2^32: a
        # width from the operands alone (32 bits) would call them equal
        half = LaurentPoly.const(2**16)
        assert half._width == qpow(1)._width == 32
        assert not LaurentPoly.sum_equals([(half, half, 0)], qpow(1))
        assert LaurentPoly.sum_equals([(half, half, 0)], LaurentPoly.const(2**32))


def _top_index(p: LaurentPoly) -> int:
    """The index of the top digit, decoded (0 for zero)."""
    return max(len(qseries._digits(p._v, p._width)) - 1, 0)


class TestTopDigit:
    """Each value stores the index of its top digit, _top."""

    @given(st.one_of(small_polys, big_polys, edge_polys),
           st.one_of(small_polys, big_polys, edge_polys),
           st.integers(-10**30, 10**30), st.integers(-70, 70))
    @settings(max_examples=100)
    def test_every_value_the_ring_builds(self, a, b, k, cap):
        values = [a, b, a * b, a * a * b, a + b, a - b, -a, a * k, a + k,
                  a.shifted(k % 50), a.truncated(cap), a.dilated(2),
                  LaurentPoly.sum_of_products([(a, b, 3), (b, b, -1)] if a and b else [])]
        for p in values:
            assert p._top == _top_index(p)
            for width in (32, 64, 96, 128):
                if width > p._width:
                    assert _wider(p, width)._top == _top_index(_wider(p, width))

    def test_every_width_from_32_to_128_bits(self):
        a = lp((0, 2**20), (1, -(2**20 - 1)), (3, 7))
        b = lp((-1, 2**31 - 1), (2, -(2**31 - 2**20)))
        chain = [a, a * a, a * a * a, a * a * a * b]
        assert [p._width for p in chain] == [32, 64, 96, 128]
        for p in chain:
            assert p._top == _top_index(p) > 0
            assert (-p)._top == p._top

    def test_every_constructor(self):
        values = [ZERO, ONE, LaurentPoly.const(-(2**40)), LaurentPoly.const(2**31 - 1),
                  LaurentPoly({-2: 1, 5: -(2**63 - 1)}), LaurentPoly([(3, 2**127 - 1)]),
                  LaurentPoly({0: 4, 1: 1, 2: -4}) - LaurentPoly({0: 4, 2: -4}),
                  LaurentPoly._raw({0: 1, 7: -2**90}), LaurentPoly._raw({})]
        p = lp((-1, 5), (2, -(2**62)), (6, 1))
        values += [-p, p.shifted(9), p.truncated(2), p.truncated(5), p.truncated(-1),
                   qseries._stripped(0, p._v << (p._width * 2), p._width, p._bound),
                   qseries._stripped(0, 0, 32, 0)]
        for v in values:
            assert v._top == _top_index(v), v
        assert p.truncated(5)._top == 3  # the digits below the cut end at q^2


def _divide_dicts(a: dict, b: dict):
    """Schoolbook Laurent long division on term dicts, with both operands
    moved to lowest exponent 0: the quotient, or None."""
    if not a:
        return {}
    alo, blo = min(a), min(b)
    num = {e - alo: c for e, c in a.items()}
    den = {e - blo: c for e, c in b.items()}
    quo, top = {}, max(den)
    while num:
        high = max(num)
        if high < top:
            return None
        c, r = divmod(num[high], den[top])
        if r:
            return None
        quo[high - top + alo - blo] = c
        num = _add_dicts(num, {e + high - top: -c * cd for e, cd in den.items()})
    return quo


class TestCanonicalText:
    def test_rendering(self):
        assert str(ZERO) == "0"
        assert str(lp((-1, -1), (0, 2), (3, 1))) == "-q^-1 + 2 + q^3"
        assert str(lp((1, 1))) == "q"
        assert str(lp((2, -7))) == "-7*q^2"

    @given(small_polys)
    def test_parse_round_trip(self, p):
        assert LaurentPoly.parse(str(p)) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            LaurentPoly.parse("q + spam")


class TestMarkerSeries:
    def test_coeff_lookup(self):
        one = MarkerSeries.one(2)
        assert one.coeff((0, 0)) == ONE
        assert one.coeff((1, 0)) == ZERO
        s = MarkerSeries(2, {(0, 0): ONE, (1, 0): qpow(1), (0, 1): qpow(1)})
        assert s.coeff((1, 0)) == qpow(1)

    def test_mul_and_add(self):
        a = MarkerSeries(2, {(1, 0): qpow(1)})
        b = MarkerSeries(2, {(0, 1): qpow(2)})
        assert (a * b).coeff((1, 1)) == qpow(3)
        assert (a + a).coeff((1, 0)) == qpow(1, 2)

    def test_scalar_mul(self):
        a = MarkerSeries(2, {(1, 0): ONE})
        assert (a * qpow(2)).coeff((1, 0)) == qpow(2)
        assert (3 * a).coeff((1, 0)) == LaurentPoly.const(3)

    def test_arity_mixing_rejected(self):
        with pytest.raises(ValueError):
            MarkerSeries.one(2) * MarkerSeries.one(3)

    def test_truncation_drops_terms(self):
        t = Truncation((1, 1), 4)
        s = MarkerSeries(2, {(2, 0): ONE, (1, 0): qpow(5), (0, 1): qpow(3)}, t)
        assert s.coeff((2, 0)) == ZERO
        assert s.coeff((1, 0)) == ZERO
        assert s.coeff((0, 1)) == qpow(3)

    def test_with_truncation_rejects_caps_of_another_arity(self):
        s = MarkerSeries(2, {(0, 0): ONE, (3, 0): qpow(1), (0, 3): qpow(2)})
        for caps in ((1,), (1, 1, 1)):
            with pytest.raises(ValueError):
                s.with_truncation(Truncation(caps, None))

    def test_truncation_merge_takes_minimum(self):
        a = MarkerSeries(2, {(1, 1): qpow(6)}, Truncation((2, 2), 10))
        b = MarkerSeries(2, {(0, 0): ONE}, Truncation((3, 1), 8))
        merged = (a * b).truncation
        assert merged == Truncation((2, 1), 8)
        c = MarkerSeries(2, {(0, 0): ONE})  # no caps
        assert (a * c).truncation == Truncation((2, 2), 10)

    def test_product_respects_caps(self):
        t = Truncation((1, 1), 5)
        x = MarkerSeries(2, {(1, 0): qpow(3), (0, 0): ONE}, t)
        sq = x * x
        assert sq.coeff((2, 0)) == ZERO
        assert sq.coeff((1, 0)) == qpow(3, 2)

    def test_dilation_example(self):
        # A^1 B^0 q^1 under (power 3, shifts (-2, -1)) -> A q^1
        s = MarkerSeries(2, {(1, 0): qpow(1)})
        assert s.dilate(3, (-2, -1)) == MarkerSeries(2, {(1, 0): qpow(1)})
        # B q^1 -> B q^2
        s2 = MarkerSeries(2, {(0, 1): qpow(1)})
        assert s2.dilate(3, (-2, -1)) == MarkerSeries(2, {(0, 1): qpow(2)})

    def test_identity_dilation(self):
        s = MarkerSeries(2, {(1, 1): qpow(2), (0, 0): ONE})
        assert s.dilate(1, (0, 0)) == s

    def test_dilation_of_capped_series_rejected(self):
        s = MarkerSeries(2, {(0, 0): ONE}, Truncation(None, 5))
        with pytest.raises(ValueError):
            s.dilate(3, (-2, -1))

    @given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           st.integers(-5, 5), max_size=4),
           st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                           st.integers(-5, 5), max_size=4),
           st.integers(1, 3), st.integers(-2, 2), st.integers(-2, 2))
    def test_dilate_is_multiplicative(self, d1, d2, power, sa, sb):
        s = MarkerSeries(2, {k: LaurentPoly.const(v) for k, v in d1.items()})
        t = MarkerSeries(2, {k: LaurentPoly.const(v) for k, v in d2.items()})
        shifts = (sa, sb)
        assert (s * t).dilate(power, shifts) == s.dilate(power, shifts) * t.dilate(power, shifts)

    def test_json_round_trip_is_byte_identical(self):
        s = MarkerSeries(2, {(0, 0): ONE, (1, 1): qpow(3, 2), (2, 0): -qpow(1)},
                         Truncation((4, 4), 30))
        text = json.dumps(s.to_json_dict(), indent=2)
        again = MarkerSeries.from_json_dict(json.loads(text))
        assert again == s
        assert json.dumps(again.to_json_dict(), indent=2).encode() == text.encode()

    def test_str_matches_cli_examples(self):
        g1 = MarkerSeries(2, {(0, 0): ONE, (1, 0): qpow(1), (0, 1): qpow(1)})
        assert str(g1) == "1 + A*q + B*q"


# --------------------------------------------------------------------------
# marker series against the dict-of-dicts model in tests/oracles.py


def _truncations(arity):
    return st.none() | st.builds(
        Truncation,
        st.none() | st.tuples(*[st.integers(0, 3)] * arity),
        st.none() | st.integers(-2, 8))


def _term_dicts():
    return st.dictionaries(st.integers(-2, 6), st.integers(-3, 3), max_size=3)


def _draw_series(data, arity):
    """(pairs, truncation, series): the pairs may repeat a marker tuple,
    and some are followed by their negation, so that sums cancel."""
    pairs = data.draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * arity), _term_dicts()), max_size=5))
    cancel = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs += [(exps, {e: -c for e, c in terms.items()})
              for (exps, terms), flag in zip(pairs, cancel) if flag]
    trunc = data.draw(_truncations(arity))
    series = MarkerSeries(arity, [(exps, LaurentPoly(terms)) for exps, terms in pairs],
                          trunc)
    return pairs, trunc, series


class TestMarkerSeriesModel:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from((2, 3)))
    def test_constructor_keeps_what_the_model_keeps(self, data, arity):
        pairs, trunc, series = _draw_series(data, arity)
        assert model_of(series) == series_model(pairs, trunc)
        assert series.truncation == trunc

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from((2, 3)))
    def test_series_arithmetic(self, data, arity):
        _, tx, x = _draw_series(data, arity)
        _, ty, y = _draw_series(data, arity)
        mx, my, t = model_of(x), model_of(y), merged_truncation(tx, ty)
        for result, expected in ((x + y, model_sum(mx, my, t)),
                                 (x - y, model_sum(mx, model_negated(my), t)),
                                 (x * y, model_product(mx, my, t))):
            assert model_of(result) == expected
            assert result.truncation == t

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from((2, 3)), st.integers(-3, 3), _term_dicts())
    def test_scalar_arithmetic(self, data, arity, k, terms):
        _, t, x = _draw_series(data, arity)
        mx, origin = model_of(x), (0,) * arity
        for scalar, coeffs in ((k, {0: k}), (LaurentPoly(terms), terms)):
            ms = series_model([(origin, coeffs)], None)
            for result, expected in ((x * scalar, model_product(mx, ms, t)),
                                     (scalar * x, model_product(mx, ms, t)),
                                     (x + scalar, model_sum(mx, ms, t)),
                                     (scalar - x, model_sum(ms, model_negated(mx), t))):
                assert model_of(result) == expected
                assert result.truncation == t

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from((2, 3)))
    def test_with_truncation(self, data, arity):
        _, _, x = _draw_series(data, arity)
        t = data.draw(_truncations(arity))
        result = x.with_truncation(t)
        assert model_of(result) == series_model(list(model_of(x).items()), t)
        assert result.truncation == t

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from((2, 3)), st.integers(-3, 5))
    def test_shifted_is_the_product_with_a_monomial(self, data, arity, k):
        # a monomial X^exps q^k whose truncation leaves the series' own caps
        _, t, x = _draw_series(data, arity)
        exps = data.draw(st.tuples(*[st.integers(0, 2)] * arity))
        result = x.shifted(k, exps)
        assert model_of(result) == model_product(model_of(x), {exps: {k: 1}}, t)
        assert result.truncation == t
