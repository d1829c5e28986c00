"""Coefficient families: Pochhammer products, q-binomials, multinomials,
trinomials, and the triangular-number bookkeeping they all rely on."""

import itertools
from math import comb

import pytest

from qschur.coefficients import (
    poch_qpow,
    qbinom,
    qmultinomial3,
    qtrinomial,
    triangular,
)
from qschur.qseries import LaurentPoly, ONE, ZERO, qpow

from oracles import multinomial_literal


def box_partition_gf(parts_max: int, part_size_max: int) -> LaurentPoly:
    """Independent oracle: enumerate partitions with <= parts_max parts,
    each part <= part_size_max, and return sum q^{|partition|}."""
    def rec(remaining_rows, cap):
        yield 0
        if remaining_rows == 0:
            return
        for first in range(1, cap + 1):
            for rest in rec(remaining_rows - 1, first):
                yield first + rest
    counts = {}
    for total in rec(parts_max, part_size_max):
        counts[total] = counts.get(total, 0) + 1
    return LaurentPoly(counts)


class TestTriangular:
    @pytest.mark.parametrize("n,expected", [(0, 0), (3, 6), (-1, 0), (5, 15), (-4, 6)])
    def test_values(self, n, expected):
        assert triangular(n) == expected

    def test_addition_law(self):
        # T_{i+j-k} + T_k = T_i + T_j + (i-k)(j-k) on the whole cube
        for i, j, k in itertools.product(range(-10, 11), repeat=3):
            assert triangular(i + j - k) + triangular(k) == \
                triangular(i) + triangular(j) + (i - k) * (j - k)


class TestPochhammer:
    def test_empty_product(self):
        assert poch_qpow(1, 0) == ONE

    def test_small_product(self):
        assert poch_qpow(1, 2) == (ONE - qpow(1)) * (ONE - qpow(2))

    def test_vanishing_factor(self):
        assert poch_qpow(-1, 2) == ZERO

    def test_every_small_product_matches_its_factors(self):
        # the product is ZERO exactly when m <= 0 <= m + n - 1
        for m, n in itertools.product(range(-6, 4), range(0, 9)):
            literal = ONE
            for j in range(n):
                literal = literal * (ONE - qpow(m + j))
            assert poch_qpow(m, n) == literal, (m, n)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            poch_qpow(1, -1)


class TestQBinomial:
    @pytest.mark.parametrize("top,bottom,expected", [
        (2, 1, "1 + q"),
        (4, -1, "0"),
        (4, 2, "1 + q + 2*q^2 + q^3 + q^4"),
        (-1, 1, "-q^-1"),
        (0, 0, "1"),
        (-1, 0, "1"),
    ])
    def test_examples(self, top, bottom, expected):
        assert str(qbinom(top, bottom)) == expected

    def test_box_counting_oracle(self):
        for a in range(0, 6):
            for b in range(0, 6):
                assert qbinom(a + b, a) == box_partition_gf(a, b)

    def test_classical_invariants(self):
        for top in range(0, 9):
            for bottom in range(0, top + 1):
                poly = qbinom(top, bottom)
                coeffs = dict(poly.terms())
                degree = bottom * (top - bottom)
                assert poly.min_exp == 0 and poly.max_exp == (degree if degree else 0) \
                    or (degree == 0 and poly == ONE)
                assert all(c > 0 for c in coeffs.values())
                # palindromic
                assert all(coeffs.get(e, 0) == coeffs.get(degree - e, 0)
                           for e in range(degree + 1))
                # q = 1 specializes to the binomial coefficient
                assert poly.evaluate(1) == comb(top, bottom)

    def test_pascal_recurrences_on_extended_grid(self):
        for top in range(-6, 11):
            for bottom in range(-2, 11):
                direct = qbinom(top, bottom)
                assert direct == qbinom(top - 1, bottom) + \
                    qbinom(top - 1, bottom - 1).shifted(top - bottom)
                assert direct == qbinom(top - 1, bottom).shifted(bottom) + \
                    qbinom(top - 1, bottom - 1)

    def test_reflection_oracle(self):
        # [-n; k] = (-1)^k q^{-nk - k(k-1)/2} [n+k-1; k], checked against
        # the definitional computation
        for n in range(1, 8):
            for k in range(0, 8):
                sign = -1 if k % 2 else 1
                shift = -n * k - k * (k - 1) // 2
                assert qbinom(-n, k) == (sign * qbinom(n + k - 1, k)).shifted(shift)

    def test_multiply_back(self):
        for top in range(-6, 7):
            for bottom in range(0, 7):
                assert qbinom(top, bottom) * poch_qpow(1, bottom) == \
                    poch_qpow(top - bottom + 1, bottom)


class TestQMultinomial:
    @pytest.mark.parametrize("L,i,j,expected", [
        (2, 1, 1, "1 + q"),
        (3, 1, 1, "1 + 2*q + 2*q^2 + q^3"),
        (2, 1, 2, "0"),
        (0, 0, 0, "1"),
        (2, -1, 1, "0"),
    ])
    def test_examples(self, L, i, j, expected):
        assert str(qmultinomial3(L, i, j)) == expected

    def test_factorization_into_binomials(self):
        # the two-binomial product against the Pochhammer quotient, out-of-domain
        # tops and slots included
        for L in range(-3, 15):
            for i in range(-2, L + 3):
                for j in range(-2, L + 3):
                    assert qmultinomial3(L, i, j) == multinomial_literal(L, i, j), (L, i, j)

    def test_reads_no_division(self, monkeypatch):
        # with the q-binomial table warm, a cold multinomial divides nothing
        keys = [(L, i, j) for L in range(-1, 15)
                for i in range(-1, L + 2) for j in range(-1, L + 2)]
        expected = {key: multinomial_literal(*key) for key in keys}
        for top in range(0, 15):
            for bottom in range(0, top + 1):
                qbinom(top, bottom)
        qmultinomial3.cache_clear()

        def divides(*args):
            raise AssertionError("qmultinomial3 divided")

        monkeypatch.setattr(LaurentPoly, "divide_exact", divides)
        for key in keys:
            assert qmultinomial3(*key) == expected[key], key

    def test_symmetry(self):
        for L in range(0, 8):
            for i in range(0, L + 1):
                for j in range(0, L - i + 1):
                    assert qmultinomial3(L, i, j) == qmultinomial3(L, j, i)


class TestQTrinomial:
    def test_examples(self):
        assert qtrinomial(1, 0) == {0: ONE}
        assert qtrinomial(2, 0) == {0: ONE, 1: qpow(1) * (ONE + qpow(1))}
        assert qtrinomial(1, 2) == {}

    def test_definition_termwise(self):
        for L in range(0, 6):
            for tau in range(-L - 1, L + 2):
                value = qtrinomial(L, tau)
                assert all(value.values())
                for j in range(0, L + 3):
                    expected = qmultinomial3(L, j + tau, j).shifted(j * (j + tau))
                    assert value.get(j, ZERO) == expected
