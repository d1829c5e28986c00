"""Identity verifiers: frozen examples, invariants, and the sweep harness."""

import dataclasses
import inspect
import itertools

import pytest

from qschur.coefficients import qbinom, qmultinomial3, triangular
from qschur import identities
from qschur.identities import (
    IDENTITIES,
    InternalMismatch,
    build_GL,
    build_PL,
    build_RL,
    goellnitz_compositions,
    rhs_21,
    sweep,
    trinomial_rhs,
    verify,
)
from qschur.qseries import LaurentPoly, MarkerSeries, ONE, Truncation, ZERO, qpow

from oracles import (
    capped_product_literal,
    cell_61_literal,
    gl_by_enumeration,
    ksum_literal,
    lhs_63_literal,
    marker_product_literal,
    rhs_48_literal,
    rhs_63_literal,
)


class TestKeyIdentity:
    def test_basic_example(self):
        v = verify("eq21", 2, 2, 1, 1)
        assert v.holds and v.lhs == ONE + qpow(1)

    def test_zero_orders(self):
        for L in range(-2, 3):
            for M in range(-2, 3):
                v = verify("eq21", L, M, 0, 0)
                assert v.holds and v.lhs == ONE

    def test_negative_top_cell(self):
        v = verify("eq21", -1, 0, 0, 0)
        assert v.holds and v.lhs == ONE

    def test_empty_sum_matches_zero_right_side(self):
        # min(i, j) < 0 gives an empty sum; the right side vanishes too
        for L, M, i, j in ((3, 3, -1, 2), (3, 3, 2, -1), (0, -2, -3, 5)):
            v = verify("eq21", L, M, i, j)
            assert v.holds and v.lhs == ZERO and v.rhs == ZERO

    def test_mixed_sign_grid(self):
        for L, M, i, j in itertools.product(range(-3, 4), repeat=4):
            assert verify("eq21", L, M, i, j).lhs == rhs_21(L, M, i, j)

    def test_M_independence_of_the_reduced_identity(self):
        # for L, M >= i+j the left side divided by [M-j; i] does not
        # depend on M
        for L in range(0, 6):
            for i in range(0, 4):
                for j in range(0, 4):
                    if i + j > L:
                        continue
                    reduced = None
                    for M in range(i + j, i + j + 4):
                        quotient = verify("eq21", L, M, i, j).lhs.divide_exact(qbinom(M - j, i))
                        if reduced is None:
                            reduced = quotient
                        assert quotient == reduced


class TestDurfeeIdentity:
    def test_examples(self):
        assert verify("eq32", 2, 1, 1).holds
        assert verify("eq32", 2, 1, 1).lhs == ONE + qpow(1)
        assert verify("eq32", 3, 0, 3).holds  # L = j, i = 0 single term
        v = verify("eq32", 4, 2, 2)
        assert v.holds and v.lhs == qbinom(4, 2)

    def test_grid(self):
        for L in range(0, 9):
            for i in range(0, L + 1):
                for j in range(0, L - i + 1):
                    assert verify("eq32", L, i, j).holds

    def test_lhs_is_the_two_binomial_sum(self):
        # eq21 at M = i + j: [k; k] = 1 and [i; i-k] = [i; k] leave the
        # q-Chu-Vandermonde sum, on every cell of a signed window
        for L, i, j in itertools.product(range(-3, 14), range(-2, 8), range(-2, 8)):
            direct = ZERO
            for k in range(0, min(i, j) + 1):
                direct = direct + (qbinom(i, k) * qbinom(L - i, j - k)).shifted((i - k) * (j - k))
            lhs = verify("eq32", L, i, j).lhs
            assert lhs == direct and str(lhs) == str(direct), (L, i, j)


class TestTriangularForm:
    def test_example_is_scaled_eq21(self):
        v = verify("eq44", 2, 2, 1, 1)
        assert v.holds and v.lhs == (ONE + qpow(1)).shifted(2)

    def test_zero_orders(self):
        assert verify("eq44", 4, 7, 0, 0).lhs == ONE

    def test_oracle_cell(self):
        v = verify("eq44", 3, 4, 1, 2)
        assert v.holds

    def test_triangular_exponents_are_the_eq21_exponents_shifted(self):
        # T_{i+j-k} + T_k = T_i + T_j + (i-k)(j-k) for all integers, so
        # eq44's terms are eq21's shifted by T_i + T_j
        for i, j, k in itertools.product(range(-6, 13), repeat=3):
            assert (triangular(i + j - k) + triangular(k)
                    == triangular(i) + triangular(j) + (i - k) * (j - k)), (i, j, k)

    def test_scaling_relation_holds_on_grid(self):
        for L, M, i, j in itertools.product(range(0, 5), range(0, 5),
                                            range(0, 3), range(0, 3)):
            if min(L, M) < i + j:
                continue
            shift = triangular(i) + triangular(j)
            assert verify("eq44", L, M, i, j).lhs == verify("eq21", L, M, i, j).lhs.shifted(shift)


def _bits(poly):
    """The packed state of a LaurentPoly: equal states are the same bits."""
    return poly._lo, poly._v, poly._width, poly._bound


class TestKsumTable:
    """_ksum reads the factors of its terms from two rows, the L-free heads
    and the [L-i; j-k] binomials; the plain three-q-binomial term loop is
    the reference."""

    GRID = list(itertools.product(range(-4, 9), repeat=4))

    def test_equals_the_three_binomial_terms(self):
        for L, M, i, j in self.GRID:
            got = identities._ksum(L, M, i, j)
            assert _bits(got) == _bits(ksum_literal(L, M, i, j)), (L, M, i, j)

    def test_eq44_lhs_is_the_triangular_term_sum(self):
        # eq44's left side is the eq21 k-sum shifted by T_i + T_j; the
        # reference sums its terms with exponents T_{i+j-k} + T_k
        for L, M, i, j in self.GRID:
            got = identities._ksum(L, M, i, j).shifted(triangular(i) + triangular(j))
            want = ksum_literal(L, M, i, j, triangular_exponents=True)
            assert _bits(got) == _bits(want), (L, M, i, j)

    @pytest.mark.parametrize("triangular_exponents", [False, True])
    def test_cold_and_warm_reads_agree(self, triangular_exponents):
        # False reads the eq21 k-sum, True that sum shifted to eq44's left side
        def read(L, M, i, j):
            ksum = identities._ksum(L, M, i, j)
            return ksum.shifted(triangular(i) + triangular(j)) if triangular_exponents else ksum

        for L, M, i, j in self.GRID:
            identities._head_row.cache_clear()
            identities._binom_row.cache_clear()
            cold = read(L, M, i, j)
            warm = read(L, M, i, j)
            want = ksum_literal(L, M, i, j, triangular_exponents)
            assert _bits(cold) == _bits(warm) == _bits(want), (L, M, i, j)

    def test_every_signed_cell_has_the_literal_bits(self):
        # the rows start empty and are extended as the sweep order reads
        # them, on the whole signed grid [-5..10]^4
        identities._head_row.cache_clear()
        identities._binom_row.cache_clear()
        for L, M, i, j in itertools.product(range(-5, 11), repeat=4):
            got = identities._ksum(L, M, i, j)
            assert _bits(got) == _bits(ksum_literal(L, M, i, j)), (L, M, i, j)

    def test_wide_sums_keep_the_term_by_term_state(self):
        # the packed sum picks one width for all terms; the cells whose
        # term-by-term sum is stored at 64 bits pin that choice.  On the
        # signed grid [-5..10]^4 all 485 of them have L <= -1.
        window = range(-5, 11)
        wide = 0
        for L, M, i, j in itertools.product(range(-5, 0), window, window, window):
            want = ksum_literal(L, M, i, j)
            if want._width == 32:
                continue
            wide += 1
            assert _bits(identities._ksum(L, M, i, j)) == _bits(want), (L, M, i, j)
        assert wide == 485

    @pytest.mark.parametrize("cell", [(0, -5, 1, 1), (0, -5, 1, 10), (2, -3, 3, 3)])
    def test_a_sum_that_cancels_is_zero(self, cell):
        # several nonzero terms whose sum cancels to zero at the last one
        L, M, i, j = cell
        terms = [k for k in range(0, min(i, j) + 1)
                 if qbinom(M - i - j + k, k) and qbinom(M - j, i - k) and qbinom(L - i, j - k)]
        assert len(terms) >= 2
        assert _bits(identities._ksum(*cell)) == _bits(ksum_literal(*cell)) == _bits(ZERO)

    def test_the_rows_are_keyed_by_M_minus_j_i_and_by_L_minus_i_j(self):
        # L - i < 0 on this grid, so no [L-i; j-k] vanishes and every
        # term reads both rows.  Each (M - j) is reached by several
        # (M, j) pairs and each (L - i) by several (L, i) pairs, so a key
        # that also holds L, or holds M and j or L and i apart, outgrows
        # the bound.  A row holds the terms its cells read and no more.
        Ls, Ms, Is, Js = (-3, -2), range(-2, 4), range(-1, 4), range(-1, 4)
        heads, binoms = {}, {}
        for L, M, i, j in itertools.product(Ls, Ms, Is, Js):
            if min(i, j) >= 0:
                n = min(i, j) + 1
                heads[M - j, i] = max(heads.get((M - j, i), 0), n)
                binoms[L - i, j] = max(binoms.get((L - i, j), 0), n)
        identities._head_row.cache_clear()
        identities._binom_row.cache_clear()
        result = sweep("eq21", {"L": Ls, "M": Ms, "i": Is, "j": Js})
        assert result.holds and result.cells == 2 * 6 * 5 * 5
        assert identities._head_row.cache_info().currsize == len(heads)
        assert identities._binom_row.cache_info().currsize == len(binoms)
        assert {key: len(identities._head_row(*key)) for key in heads} == heads
        assert {key: len(identities._binom_row(*key)) for key in binoms} == binoms


class TestOnePassSides:
    """eq21, eq32, eq44, eq48, eq63 and eq63lm decide a cell on one packed
    difference of a sum's terms and the other side (_sum_sides), and
    return a holding cell's other side for both sides.  Their sides must
    be the term-by-term sum and the other side as values, and the verdict
    their compare, on cells that hold and on cells with a broken side."""

    SIGNED = dict.fromkeys("LMij", range(-5, 11))
    WIDE = dict(L=range(0, 26), M=range(0, 26), i=range(0, 13), j=range(0, 13))

    @staticmethod
    def _broken(L, M, i, j):
        # one cell in seven gets a bump, which is zero when M % 3 == 1
        rhs = rhs_21(L, M, i, j)
        return rhs + qpow(L - i, M % 3 - 1) if (L + 2 * M + 3 * i + j) % 7 == 0 else rhs

    @staticmethod
    def _sides_match_oracles(tag, ranges, oracle):
        # every valid cell's sides equal the oracle's as values, and the
        # sweep fails exactly the cells whose oracle sides differ
        spec = IDENTITIES[tag]
        cells = [cell for cell in itertools.product(*(ranges[p] for p in spec.range_params))
                 if spec.valid is None or spec.valid(*cell)]
        failing = []
        for cell in cells:
            want = oracle(*cell)
            assert spec.fn(*cell) == want, cell
            if want[0] != want[1]:
                failing.append(cell)
        assert len(cells) // 20 < len(failing) < len(cells)
        result = sweep(tag, ranges)
        assert result.cells == len(cells)
        assert [tuple(v.params.values()) for v in result.failures] == failing

    @pytest.mark.parametrize("grid", ["SIGNED", "WIDE"])
    def test_eq21_sides_and_verdicts(self, grid, monkeypatch):
        monkeypatch.setattr(identities, "rhs_21", self._broken)
        self._sides_match_oracles("eq21", getattr(self, grid),
                                  lambda *cell: (identities._ksum(*cell), self._broken(*cell)))

    def test_eq32_and_eq44_on_their_acceptance_grids(self):
        bump = qpow(2, -1)
        for L in range(0, 15):
            for i in range(0, L + 1):
                for j in range(0, L - i + 1):
                    ksum, rhs = identities._ksum(L, i + j, i, j), qbinom(L, j)
                    lhs_got, rhs_got = identities._sides_32(L, i, j)
                    assert lhs_got == ksum and rhs_got == rhs, (L, i, j)
                    assert verify("eq32", L, i, j).holds == (ksum == rhs)
                    terms = identities._ksum_terms(L, i + j, i, j)
                    lhs_got, rhs_got = identities._sum_sides(terms, rhs + bump)
                    assert lhs_got == ksum and rhs_got == rhs + bump != ksum, (L, i, j)
        for L, M in itertools.product(range(0, 11), repeat=2):
            for i in range(0, min(L, M) + 1):
                for j in range(0, min(L, M) - i + 1):
                    shift = triangular(i) + triangular(j)
                    ksum = identities._ksum(L, M, i, j).shifted(shift)
                    rhs = rhs_21(L, M, i, j).shifted(shift)
                    lhs_got, rhs_got = identities._sides_44(L, M, i, j)
                    assert lhs_got == ksum and rhs_got == rhs, (L, M, i, j)
                    assert verify("eq44", L, M, i, j).holds == (ksum == rhs)

    def test_a_holding_cell_compares_one_value_with_itself(self):
        for tag, cell in (("eq21", (2, 2, 1, 1)), ("eq32", (4, 2, 2)), ("eq44", (3, 4, 1, 2)),
                          ("eq48", (3, 4, 2, 2)), ("eq63", (3, 4, 1, 2, 1)),
                          ("eq63lm", (4, 1, 2, 1))):
            lhs, rhs = IDENTITIES[tag].fn(*cell)
            assert lhs is rhs and len(lhs) > 1 and verify(tag, *cell).holds, tag

    def test_eq48_sides_and_verdicts(self, monkeypatch):
        # the closed side is eq21's right side at M + j, broken there
        monkeypatch.setattr(identities, "rhs_21", self._broken)

        def oracle(L, M, i, j):
            return (self._broken(L, M + j, i, j).shifted(triangular(i) + triangular(j)),
                    rhs_48_literal(L, M, i, j))

        self._sides_match_oracles("eq48", dict.fromkeys("LMij", range(0, 9)), oracle)

    def test_eq63_sides_and_verdicts(self, monkeypatch):
        # the composition sum gets a bump on one cell in seven, zero when M % 3 == 1
        real = identities._lhs_63

        def bump(L, M, i, j, k):
            return qpow(L - i, M % 3 - 1) if (L + 2 * M + 3 * i + j + k) % 7 == 0 else ZERO

        monkeypatch.setattr(identities, "_lhs_63", lambda *cell: real(*cell) + bump(*cell))
        ranges = dict(L=range(-2, 7), M=range(-2, 7), i=range(0, 4), j=range(0, 4), k=range(0, 4))
        self._sides_match_oracles(
            "eq63", ranges,
            lambda *cell: (lhs_63_literal(*cell) + bump(*cell), rhs_63_literal(*cell)))

    def test_eq63lm_sides_and_verdicts(self, monkeypatch):
        # the tau-sum gets one more term on one cell in five, none when
        # (L + k) % 3 == 1
        real = identities._rhs_63_terms

        def bump(L, i, j, k):
            return qpow(L - i + j, (L + k) % 3 - 1) if (L + 2 * i + 3 * j + k) % 5 == 0 else ZERO

        def broken(L, M, i, j, k):
            extra = bump(L, i, j, k)
            return real(L, M, i, j, k) + ([(extra, ONE, 0)] if extra else [])

        def oracle(L, i, j, k):
            closed = (qbinom(L - k, i) * qbinom(L - i, j) * qbinom(L - j, k)).shifted(
                triangular(i) + triangular(j) + triangular(k))
            return rhs_63_literal(L, L, i, j, k) + bump(L, i, j, k), closed

        monkeypatch.setattr(identities, "_rhs_63_terms", broken)
        ranges = dict(L=range(0, 9), i=range(0, 5), j=range(0, 5), k=range(0, 5))
        self._sides_match_oracles("eq63lm", ranges, oracle)


class TestMultinomialKernel:
    def test_trivial(self):
        assert verify("eq48", 3, 3, 0, 0).lhs == ONE

    def test_small_cells(self):
        assert verify("eq48", 1, 1, 1, 1).holds
        assert verify("eq48", 2, 2, 1, 1).holds

    def test_grid(self):
        for M in range(0, 6):
            for L in range(0, 6):
                for i in range(0, M + 1):
                    for j in range(0, L + 1):
                        assert verify("eq48", L, M, i, j).holds


class TestProductExpansion:
    def test_one_by_one(self):
        v = verify("eq46", 1, 1)
        assert v.holds
        assert v.lhs == MarkerSeries(2, {(0, 0): ONE, (1, 0): qpow(1),
                                         (0, 1): qpow(1), (1, 1): qpow(2)})

    def test_coefficient_of_A2(self):
        v = verify("eq46", 1, 2)  # L = 1, M = 2
        assert v.lhs.coeff((2, 0)) == qpow(3)

    def test_trivial_coefficient(self):
        assert verify("eq46", 3, 2).lhs.coeff((0, 0)) == ONE


class TestGeneratingFunctions:
    def test_G0_G1(self):
        assert build_GL(0) == MarkerSeries.one(2)
        assert build_GL(1) == MarkerSeries(2, {(0, 0): ONE, (1, 0): qpow(1),
                                               (0, 1): qpow(1)})

    def test_G2_closed_form(self):
        expected = MarkerSeries(2, {
            (0, 0): ONE,
            (1, 0): qpow(1) + qpow(2),
            (0, 1): qpow(1) + qpow(2),
            (1, 1): qpow(2) + qpow(3),
            (2, 0): qpow(3),
            (0, 2): qpow(3),
        })
        assert build_GL(2) == expected

    def test_G2_single_coefficient(self):
        # the A^2 coefficient comes from the unique two-a-part partition
        assert build_GL(2).coeff((2, 0)) == qpow(3)

    def test_RL_examples(self):
        assert build_RL(0) == MarkerSeries.one(2)
        assert build_RL(1) == build_GL(1)
        assert build_RL(2).coeff((2, 0)) == qpow(3)

    def test_series_equality(self):
        for L in range(0, 7):
            assert verify("eq53", L).holds

    def test_marker_symmetry_of_RL(self):
        for L in range(0, 7):
            series = build_RL(L)
            for (i, j), poly in series.terms():
                assert series.coeff((j, i)) == poly


class TestTransferMatrixRoute:
    """The transfer-matrix count behind build_GL against the exhaustive
    enumeration and the k-sum formula."""

    @pytest.mark.parametrize("L", range(0, 9))
    def test_equals_the_enumeration(self, L):
        def coefficients(series):
            return [(exps, list(poly.terms())) for exps, poly in series.terms()]
        assert coefficients(identities._series_from_transfer(L)) == \
            coefficients(gl_by_enumeration(L))

    def test_equals_the_k_sum(self):
        for L in range(0, 25):
            assert identities._series_from_transfer(L) == \
                identities._series_from_sum(L), L

    def test_negative_L_is_rejected(self):
        with pytest.raises(ValueError):
            build_GL(-1)

    def test_a_disagreement_raises(self, monkeypatch):
        L = 5
        broken = identities._series_from_transfer(L) + MarkerSeries.term((1, 1), qpow(40))
        monkeypatch.setattr(identities, "_series_from_transfer", lambda _L: broken)
        build_GL.cache_clear()
        try:
            with pytest.raises(InternalMismatch):
                build_GL(L)
        finally:
            build_GL.cache_clear()


class TestBeyondTheAcceptanceGrid:
    """G_L identities past the acceptance grid's L <= 12."""

    @pytest.mark.parametrize("tag", ["eq53", "rec55", "rec512", "eq516"])
    def test_holds_for_L_13_to_20(self, tag):
        for L in range(13, 21):
            assert verify(tag, L).holds, L


class TestRecurrences:
    def test_rec55_small(self):
        assert verify("rec55", 2).holds
        assert all(verify("rec55", L).holds for L in range(2, 9))

    def test_rec58_hand_expansion(self):
        v = verify("rec58", 2, 1, 1)
        assert v.holds and v.lhs == ONE + qpow(1)

    def test_rec58_grid(self):
        for L in range(2, 8):
            for i in range(0, L + 1):
                for j in range(0, L + 1):
                    assert verify("rec58", L, i, j).holds

    def test_rec59_trivial(self):
        v = verify("rec59", 1, 0, 0)
        assert v.holds and v.lhs == ONE

    def test_rec59_grid(self):
        for L in range(1, 8):
            for i in range(0, L + 1):
                for j in range(0, L + 1):
                    assert verify("rec59", L, i, j).holds

    def test_convergents_initial_conditions(self):
        assert build_PL(0) == build_GL(0)
        assert build_PL(1) == build_GL(1)

    def test_convergents_equal_GL(self):
        for L in range(0, 7):
            assert verify("rec512", L).holds

    def test_dispatcher(self):
        lhs, rhs = IDENTITIES["rec55"].fn(3)
        assert lhs == rhs
        lhs, rhs = IDENTITIES["rec58"].fn(3, 1, 1)
        assert lhs == rhs
        with pytest.raises(KeyError):
            sweep("rec999", {"L": [3]})


class TestTrinomialRepresentation:
    def test_L1_closed_form(self):
        v = verify("eq516", 1)
        assert v.holds
        assert v.lhs == MarkerSeries(2, {(0, 0): ONE, (1, 0): qpow(1),
                                         (0, 1): qpow(2)})

    def test_L2_closed_form(self):
        v = verify("eq516", 2)
        assert v.holds
        expected = MarkerSeries(2, {
            (0, 0): ONE,
            (1, 0): qpow(1) + qpow(4),
            (0, 1): qpow(2) + qpow(5),
            (1, 1): qpow(3) + qpow(6),
            (2, 0): qpow(5),
            (0, 2): qpow(7),
        })
        assert v.lhs == expected == trinomial_rhs(2)

    def test_constant_coefficient(self):
        for L in range(1, 5):
            assert trinomial_rhs(L).coeff((0, 0)) == ONE

    def test_up_to_L4(self):
        assert verify("eq516", 3).holds and verify("eq516", 4).holds


class TestThreeColorIdentity:
    def test_compositions_partition_the_index_set(self):
        for i, j, k in itertools.product(range(0, 4), repeat=3):
            seen = set()
            for c in goellnitz_compositions(i, j, k):
                assert (c.alpha + c.delta + c.epsilon, c.beta + c.delta + c.phi,
                        c.gamma + c.epsilon + c.phi) == (i, j, k)
                assert min(c.alpha, c.beta, c.gamma, c.delta, c.epsilon, c.phi) >= 0
                assert c.s == c.alpha + c.beta + c.gamma + c.delta + c.epsilon + c.phi
                key = (c.alpha, c.beta, c.gamma, c.delta, c.epsilon, c.phi)
                assert key not in seen
                seen.add(key)

    def test_zero_orders(self):
        for L in range(0, 4):
            for M in range(0, 4):
                v = verify("eq63", L, M, 0, 0, 0)
                assert v.holds and v.lhs == ONE

    def test_k0_slice_reduces_to_the_multinomial_coefficients(self):
        for L in range(0, 5):
            for i in range(0, 3):
                for j in range(0, 3):
                    v = verify("eq63", L, L, i, j, 0)
                    expected = qmultinomial3(L, i, j).shifted(
                        triangular(i) + triangular(j))
                    assert v.holds and v.lhs == expected

    def test_i0_slice_matches_the_two_color_identity(self):
        # empirically the i = 0 slice IS the triangular-exponent identity
        # with its first order set to k
        for L in range(0, 5):
            for M in range(0, 6):
                for j in range(0, 3):
                    for k in range(0, 3):
                        v63 = verify("eq63", L, M, 0, j, k)
                        v44 = verify("eq44", L, M, k, j)
                        assert v63.lhs == v44.lhs and v63.rhs == v44.rhs

    def test_unequal_bounds_both_ways(self):
        for L, M in ((3, 5), (5, 3), (4, 6), (6, 4)):
            for i, j, k in itertools.product(range(0, 3), repeat=3):
                assert verify("eq63", L, M, i, j, k).holds

    def test_degenerate_orders_give_zero_on_both_sides(self):
        # negative orders empty both the composition set and the tau sum
        for i, j, k in ((-1, 2, 2), (2, -1, 2), (2, 2, -1), (-2, -2, -2)):
            v = verify("eq63", 3, 4, i, j, k)
            assert v.holds and v.lhs == ZERO and v.rhs == ZERO

    def test_lhs_is_the_literal_composition_sum(self):
        for L, M in ((3, 5), (5, 3), (4, 4), (0, 2), (-1, 3)):
            for i, j, k in itertools.product(range(-1, 4), repeat=3):
                assert verify("eq63", L, M, i, j, k).lhs == lhs_63_literal(L, M, i, j, k)

    def test_alternative_statistic_is_genuinely_different(self):
        # the rejected bookkeeping (delta twice, gamma omitted) must fail
        # somewhere, otherwise keeping it for falsification is pointless
        outcomes = [lhs_63_literal(L, L, i, j, 0, alt_s=True) == verify("eq63", L, L, i, j, 0).rhs
                    for L in range(2, 5) for i in range(0, 3) for j in range(0, 3)]
        assert not all(outcomes)

    def test_closed_form_examples(self):
        assert verify("eq63lm", 4, 0, 0, 0).lhs == ONE
        v = verify("eq63lm", 2, 1, 0, 0)
        assert v.holds and v.lhs == qpow(1) * qbinom(2, 1)
        assert verify("eq63lm", 3, 1, 1, 1).holds

    def test_closed_form_grid(self):
        for L in range(0, 6):
            for i, j, k in itertools.product(range(0, 4), repeat=3):
                assert verify("eq63lm", L, i, j, k).holds


class TestTruncated:
    def test_eq26_trivial(self):
        v = verify("eq26", 0, 0, 10)
        assert v.holds and v.lhs == ONE

    def test_eq26_cell(self):
        assert verify("eq26", 1, 1, 10).holds
        assert verify("eq26", 3, 2, 25).holds

    def test_eq11_small_caps(self):
        v = verify("eq11", 2, 2, 10)
        assert v.holds
        # the A^1 B^1 coefficient is (q + q^2 + ...)^2 = q^2 + 2q^3 + 3q^4 + ...
        assert v.rhs.coeff((1, 1)).coeff(2) == 1
        assert v.rhs.coeff((1, 1)).coeff(3) == 2
        assert v.rhs.coeff((1, 1)).coeff(4) == 3

    def test_eq11_reports_a_failing_eq26_cell_at_its_marker(self, monkeypatch):
        real = identities._sides_26

        def broken(i, j, qmax):
            lhs, rhs = real(i, j, qmax)
            return (lhs, rhs + qpow(6)) if (i, j) == (1, 2) else (lhs, rhs)

        # eq11's cells call the module's _sides_26, verify("eq26") the
        # registry's reference to it: patch both
        monkeypatch.setattr(identities, "_sides_26", broken)
        monkeypatch.setitem(IDENTITIES, "eq26",
                            dataclasses.replace(IDENTITIES["eq26"], fn=broken))
        cell = verify("eq26", 1, 2, 10)
        v = verify("eq11", 2, 2, 10)
        assert not cell.holds and not v.holds
        assert v.identity == "eq11"
        assert v.witness.marker == (1, 2)
        assert v.witness.q_exp == cell.witness.q_exp == 6
        assert (v.witness.lhs_coeff, v.witness.rhs_coeff) == \
            (cell.witness.lhs_coeff, cell.witness.rhs_coeff)

    def test_eq61_small_caps(self):
        assert verify("eq61", 2, 2, 2, 16).holds

    def test_eq61_reports_a_failing_cell_at_its_marker(self, monkeypatch):
        real = identities._cell_61

        def broken(i, j, k, q_cap):
            cell = real(i, j, k, q_cap)
            return cell + qpow(5) if (i, j, k) == (1, 0, 1) else cell

        monkeypatch.setattr(identities, "_cell_61", broken)
        v = verify("eq61", 1, 1, 1, 10)
        assert not v.holds
        assert v.identity == "eq61"
        assert v.witness.marker == (1, 0, 1)
        assert v.witness.q_exp == 5
        assert v.witness.lhs_coeff - v.witness.rhs_coeff == 1
        assert v.witness.rhs_coeff == real(1, 0, 1, 10).coeff(5)

    @pytest.mark.parametrize("check, marker", [
        (lambda: verify("eq11", 2, 2, 10), (1, 0)),
        (lambda: verify("eq61", 1, 1, 1, 10), (1, 0, 0)),
    ], ids=["eq11", "eq61"])
    def test_a_wrong_marker_product_fails_at_its_marker(self, check, marker, monkeypatch):
        # every cell holds, so only the comparison with the product can fail
        real = identities._marker_product

        def broken(tops, trunc=None):
            return real(tops, trunc) + MarkerSeries.term(marker, qpow(7))

        monkeypatch.setattr(identities, "_marker_product", broken)
        v = check()
        assert not v.holds
        assert v.witness.marker == marker
        assert v.witness.q_exp == 7
        assert v.witness.rhs_coeff - v.witness.lhs_coeff == 1

    def test_dispatcher(self):
        lhs, rhs = IDENTITIES["eq26"].fn(1, 2, 12)
        assert lhs == rhs
        lhs, rhs = IDENTITIES["eq11"].fn(2, 2, 8)
        assert lhs == rhs
        with pytest.raises(KeyError):
            sweep("eq99", {}, {"qmax": 5})


class TestProductsWithoutRepeats:
    """The three-color sides functions read each repeated product once: the
    marker product multiplies each marker's own factors first, eq26 and
    eq61 read products of 1/(q)_n from one table keyed by the part
    multiset, and eq63 reads its one-bound factor pairs from a table.
    Each is compared with the literal product it replaces."""

    @pytest.mark.parametrize("arity, tops", [(2, range(0, 7)), (3, (0, 1, 2, 4, 6))])
    def test_marker_product_is_the_factor_by_factor_product(self, arity, tops):
        for top in itertools.product(tops, repeat=arity):
            below = tuple(t // 2 for t in top)
            for trunc in (None, Truncation(below), Truncation(None, 9), Truncation(below, 7)):
                got, want = identities._marker_product(top, trunc), marker_product_literal(top, trunc)
                assert got == want and got.truncation == want.truncation, (top, trunc)

    @pytest.mark.parametrize("q_cap", [0, 1, 5, 40])
    def test_eq61_cells_are_the_literal_products(self, q_cap):
        for i, j, k in itertools.product(range(0, 5), repeat=3):
            assert identities._cell_61(i, j, k, q_cap) == cell_61_literal(i, j, k, q_cap)
            assert identities._inv_poch_product((i, j, k), q_cap, 5) == \
                capped_product_literal((i, j, k), q_cap, 5)

    @pytest.mark.parametrize("q_cap", [0, 1, 5, 40])
    def test_eq26_sides_are_the_literal_products(self, q_cap):
        for i, j in itertools.product(range(0, 5), repeat=2):
            lhs = ZERO
            for k in range(0, min(i, j) + 1):
                lhs = lhs + capped_product_literal(
                    (i - k, j - k, k), q_cap, triangular(i + j - k) + triangular(k))
            rhs = capped_product_literal((i, j), q_cap, triangular(i) + triangular(j))
            assert identities._sides_26(i, j, q_cap) == (lhs, rhs)

    def test_eq63_lhs_is_the_six_product_term_on_signed_tops(self):
        for L, M in itertools.product(range(-3, 9), repeat=2):
            for i, j, k in itertools.product(range(0, 4), repeat=3):
                assert identities._lhs_63(L, M, i, j, k) == lhs_63_literal(L, M, i, j, k), \
                    (L, M, i, j, k)


class TestSweep:
    def test_registry_covers_the_cli_vocabulary(self):
        assert set(IDENTITIES) == {
            "eq21", "eq32", "eq44", "eq46", "eq48", "eq53", "eq516", "eq63",
            "eq63lm", "rec55", "rec58", "rec59", "rec512", "eq26", "eq11", "eq61"}

    def test_full_grid_no_failures(self):
        result = sweep("eq21", {"L": range(-2, 3), "M": range(-2, 3),
                                "i": range(-2, 3), "j": range(-2, 3)})
        assert result.holds and result.cells == 625 and result.skipped == 0

    def test_skips_invalid_cells(self):
        result = sweep("eq32", {"L": range(0, 4), "i": range(0, 4), "j": range(0, 4)})
        assert result.holds
        assert result.cells + result.skipped == 64
        assert result.skipped > 0

    def test_skipping_respects_each_precondition(self):
        result = sweep("eq48", {"L": range(-1, 4), "M": range(-1, 4),
                                "i": range(-1, 4), "j": range(-1, 4)})
        assert result.holds
        evaluated = sum(1 for L in range(-1, 4) for M in range(-1, 4)
                        for i in range(-1, 4) for j in range(-1, 4)
                        if 0 <= i <= M and 0 <= j <= L)
        assert result.cells == evaluated

    def test_perturbed_harness_detects_the_break(self):
        result = sweep("eq21", {"L": [1, 2], "M": [1], "i": [0, 1], "j": [0]},
                       perturb=True)
        assert not result.holds
        assert len(result.failures) == result.cells
        for verdict in result.failures:
            assert verdict.witness.q_exp == 0
            assert verdict.witness.rhs_coeff - verdict.witness.lhs_coeff == 1

    # one tiny valid grid (ranges, caps) per registry entry
    TINY_GRIDS = {
        "eq21": ({"L": [1, 2], "M": [2], "i": [0, 1], "j": [1]}, None),
        "eq32": ({"L": [2, 3], "i": [0, 1], "j": [1]}, None),
        "eq44": ({"L": [2], "M": [2, 3], "i": [1], "j": [0, 1]}, None),
        "eq46": ({"L": [1, 2], "M": [2]}, None),
        "eq48": ({"L": [2], "M": [2], "i": [0, 1], "j": [1]}, None),
        "eq53": ({"L": [0, 2]}, None),
        "eq516": ({"L": [1, 2]}, None),
        "eq63": ({"L": [3], "M": [3], "i": [1], "j": [0, 1], "k": [1]}, None),
        "eq63lm": ({"L": [3], "i": [1], "j": [1], "k": [0, 1]}, None),
        "rec55": ({"L": [2, 3]}, None),
        "rec58": ({"L": [2, 3], "i": [1], "j": [0]}, None),
        "rec59": ({"L": [1, 2], "i": [1], "j": [0]}, None),
        "rec512": ({"L": [0, 2]}, None),
        "eq26": ({"i": [0, 1], "j": [1]}, {"qmax": 6}),
        "eq11": ({}, {"amax": 1, "bmax": 1, "qmax": 5}),
        "eq61": ({}, {"amax": 1, "bmax": 1, "cmax": 1, "qmax": 5}),
    }

    def test_tiny_grids_cover_the_registry(self):
        assert set(self.TINY_GRIDS) == set(IDENTITIES)

    @pytest.mark.parametrize("tag", sorted(TINY_GRIDS))
    def test_perturbation_fails_every_cell_at_the_constant_term(self, tag):
        ranges, caps = self.TINY_GRIDS[tag]
        assert sweep(tag, ranges, caps).holds
        result = sweep(tag, ranges, caps, perturb=True)
        assert result.cells > 0 and result.skipped == 0
        assert len(result.failures) == result.cells
        for verdict in result.failures:
            w = verdict.witness
            assert w.q_exp == 0
            assert w.rhs_coeff - w.lhs_coeff == 1
            if not isinstance(verdict.lhs, LaurentPoly):
                assert w.marker == (0,) * verdict.lhs.arity

    @pytest.mark.parametrize("tag", sorted(TINY_GRIDS))
    def test_perturbed_failures_are_the_public_verdicts_perturbed(self, tag):
        # the sweep builds its failing verdicts itself; each must be the
        # one verify gives, with the right side shifted by +1
        ranges, caps = self.TINY_GRIDS[tag]
        failures = sweep(tag, ranges, caps, perturb=True).failures
        assert failures
        for failure in failures:
            v = verify(tag, *failure.params.values())
            expected = identities._verdict(tag + "+perturbed", v.params, v.lhs, v.rhs + 1)
            assert failure.to_json_dict() == expected.to_json_dict()

    @pytest.mark.parametrize("offset", [-1, 0], ids=["below-support", "at-lowest"])
    @pytest.mark.parametrize("tag", sorted(TINY_GRIDS))
    def test_the_witness_is_the_first_of_two_perturbations(self, tag, offset, monkeypatch):
        # c1 q^e1 goes into the right side, then a second perturbation after
        # it: at a higher exponent of a polynomial, or at a later marker of
        # a series (there at a lower exponent, so only the marker order
        # makes it second)
        ranges, caps = self.TINY_GRIDS[tag]
        spec = IDENTITIES[tag]
        cell = tuple(ranges[p][-1] for p in spec.range_params)
        params = cell + tuple(caps[c] for c in spec.cap_params)
        lhs, rhs = spec.fn(*params)
        assert lhs == rhs
        c1 = 3
        if isinstance(rhs, LaurentPoly):
            marker, e1 = None, rhs.min_exp + offset
            bump = LaurentPoly({e1: c1, rhs.max_exp + 1: -5})
        else:
            assert len(rhs) >= 2
            (marker, first), *_, (last, _) = rhs.terms()
            e1 = first.min_exp + offset
            bump = MarkerSeries(rhs.arity, {marker: LaurentPoly({e1: c1, e1 + 2: 7}),
                                            last: LaurentPoly({e1 - 1: -5})})

        def perturbed(*args):
            l, r = spec.fn(*args)
            return l, r + bump

        monkeypatch.setitem(IDENTITIES, tag, dataclasses.replace(spec, fn=perturbed))
        w = verify(tag, *params).witness
        assert (w.marker, w.q_exp, w.rhs_coeff - w.lhs_coeff) == (marker, e1, c1)
        [failure] = sweep(tag, {p: [v] for p, v in zip(spec.range_params, cell)}, caps).failures
        assert failure.witness == w

    def test_a_broken_cell_is_the_one_failure_and_the_one_verdict(self, monkeypatch):
        real_rhs, real_verdict = identities.rhs_21, identities._verdict
        built = []

        def broken(L, M, i, j):
            rhs = real_rhs(L, M, i, j)
            return rhs + qpow(3) if (L, M, i, j) == (2, 2, 1, 1) else rhs

        def counted(identity, params, lhs, rhs):
            built.append(params)
            return real_verdict(identity, params, lhs, rhs)

        monkeypatch.setattr(identities, "rhs_21", broken)
        monkeypatch.setattr(identities, "_verdict", counted)
        ranges, _ = self.TINY_GRIDS["eq21"]
        result = sweep("eq21", ranges)
        # cells whose sides are equal build no Verdict
        assert built == [dict(L=2, M=2, i=1, j=1)]
        assert result.cells == 4
        assert result.failures == [verify("eq21", 2, 2, 1, 1)]
        assert result.failures[0].witness.q_exp == 3

    @pytest.mark.parametrize("tag", sorted(IDENTITIES))
    def test_positional_calls_match_the_registry(self, tag):
        # sweep calls fn and valid positionally: a parameter order that
        # differs from the registry's would swap L and M without an error
        spec = IDENTITIES[tag]
        assert tuple(inspect.signature(spec.fn).parameters) == \
            spec.range_params + spec.cap_params
        if spec.valid is not None:
            assert tuple(inspect.signature(spec.valid).parameters) == spec.range_params

    def test_witness_locates_first_differing_coefficient(self):
        lhs = LaurentPoly({-1: 2, 0: 1, 5: 3})
        rhs = LaurentPoly({-1: 2, 0: 1, 5: 4, 7: 1})
        from qschur.identities import _verdict
        v = _verdict("probe", {}, lhs, rhs)
        assert not v.holds
        assert v.witness.q_exp == 5
        assert (v.witness.lhs_coeff, v.witness.rhs_coeff) == (3, 4)

    def test_missing_range_is_an_error(self):
        with pytest.raises(ValueError):
            sweep("eq21", {"L": [1]})
        with pytest.raises(KeyError):
            sweep("bogus", {})
        with pytest.raises(KeyError):
            verify("bogus", 1)
        with pytest.raises(TypeError, match=r"eq21 takes 4 parameters \(L, M, i, j\), got 3"):
            verify("eq21", 1, 2, 3)

    def test_a_name_the_identity_does_not_take_is_an_error(self):
        # worded like the command line's error, which never reaches sweep
        for identity, ranges, caps, message in (
                ("eq26", {"i": [0], "j": [0]}, {"qmx": 3}, "eq26 does not take cap qmx"),
                ("eq21", {"L": [1], "M": [1], "i": [0], "j": [0], "k": [0]}, None,
                 "eq21 does not take range k"),
                ("eq21", {"L": [1], "M": [1], "i": [0], "j": [0]}, {"qmax": 5},
                 "eq21 does not take cap qmax"),
                ("eq11", {"qmax": [5]}, None, "eq11 does not take range qmax")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                sweep(identity, ranges, caps)
        assert sweep("eq26", {"i": [0], "j": [0]}, {"qmax": 3}).holds


def _side_pairs():
    """Both sides of eq21 cells on [-2..3]^4, of eq11, eq61 and eq516
    cells, each also perturbed at its constant and at a higher term."""
    signed = range(-2, 4)
    verdicts = [verify("eq21", L, M, i, j)
                for L, M, i, j in itertools.product(signed, repeat=4)]
    verdicts += [verify("eq11", 3, 3, 20), verify("eq11", 2, 4, 12), verify("eq61", 2, 2, 1, 12)]
    verdicts += [verify("eq516", L) for L in range(1, 5)]
    for v in verdicts:
        yield v.lhs, v.rhs
        yield v.lhs, v.rhs + 1
        yield v.lhs + qpow(3, -2), v.rhs


# two marker series whose coefficients differ only beyond the other's
# caps: they are unequal, yet their difference, taken at the smaller caps,
# is zero
_CAPPED = [
    (MarkerSeries(2, {(0, 0): 1, (2, 0): qpow(1)}, Truncation((3, 3), 10)),
     MarkerSeries(2, {(0, 0): 1}, Truncation((1, 3), 10))),
    (MarkerSeries(2, {(0, 1): ONE + qpow(12)}, Truncation((2, 2), 20)),
     MarkerSeries(2, {(0, 1): ONE}, Truncation((2, 2), 8))),
    (MarkerSeries(2, {(1, 1): qpow(2, 5)}, Truncation((2, 2), 20)),
     MarkerSeries(2, {(1, 1): qpow(2, 5)}, Truncation((1, 1), 4))),
    (MarkerSeries(2, {(1, 0): qpow(2, 5)}, Truncation((2, 2), 20)),
     MarkerSeries(2, {(1, 0): qpow(2, 4), (2, 2): ONE}, Truncation((2, 1), 9))),
]


class TestEqualityFirstVerdict:
    """_verdict subtracts the sides only when they are unequal; it must
    give the holds and witness of the difference on every pair."""

    @staticmethod
    def _agrees(lhs, rhs):
        v = identities._verdict("probe", {}, lhs, rhs)
        witness = identities._first_witness(lhs, rhs, lhs - rhs)
        assert v.witness == witness
        assert v.holds is (witness is None)
        return v

    def test_identity_cells_plain_and_perturbed(self):
        verdicts = [self._agrees(lhs, rhs) for lhs, rhs in _side_pairs()]
        assert sum(v.holds for v in verdicts) == len(verdicts) // 3

    def test_series_with_different_truncations(self):
        verdicts = [self._agrees(lhs, rhs) for lhs, rhs in _CAPPED]
        assert [lhs == rhs for lhs, rhs in _CAPPED] == [False, False, True, False]
        assert [v.holds for v in verdicts] == [True, True, True, False]
        assert verdicts[-1].witness.marker == (1, 0)
