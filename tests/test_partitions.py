"""Colored symbols, gap partitions, counting functions, Durfee splits."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschur.partitions import (
    COLORS,
    ColoredPartition,
    ColoredSymbol,
    NoValidStatistic,
    count_V,
    durfee_decompose,
    goellnitz_counts,
    is_type1,
    iter_schur_gap,
    iter_type1,
    nu_statistics,
    schur_counts,
)
from qschur.coefficients import qbinom
from qschur.qseries import LaurentPoly
from qschur.theorems import _s_census, check_theorem3

from oracles import _distinct_parts, _gap_needed, fitting_buckets, s_profile, schur_gap_literal, type1_upto

P = ColoredPartition.from_text


def type1(n, **caps):
    return [ColoredPartition(parts) for parts in iter_type1(n, **caps)]


SYMBOLS_TO_100 = [ColoredSymbol(c, w) for w in range(1, 101) for c in COLORS
                  if not (c == "ab" and w < 2)]


class TestSymbols:
    def test_ordering_matches_the_listing(self):
        listed = ["a1", "b1", "ab2", "a2", "b2", "ab3", "a3", "b3",
                  "ab4", "a4", "b4", "ab5"]
        symbols = [ColoredSymbol.parse(s) for s in listed]
        assert sorted(symbols, key=lambda s: s.rank) == symbols
        ranks = [s.rank for s in symbols]
        assert len(set(ranks)) == len(ranks)

    def test_ab1_rejected(self):
        with pytest.raises(ValueError):
            ColoredSymbol("ab", 1)
        with pytest.raises(ValueError):
            ColoredSymbol("a", 0)
        with pytest.raises(ValueError):
            ColoredSymbol("c", 2)

    @pytest.mark.parametrize("text,value", [("a1", 1), ("b2", 5), ("ab2", 3)])
    def test_dilation_examples(self, text, value):
        assert ColoredSymbol.parse(text).dilated == value

    def test_dilation_is_an_order_isomorphism(self):
        symbols = [ColoredSymbol(c, w) for w in range(1, 9) for c in COLORS
                   if not (c == "ab" and w < 2)]
        images = [s.dilated for s in symbols]
        assert len(set(images)) == len(images)
        by_rank = sorted(symbols, key=lambda s: s.rank)
        assert [s.dilated for s in by_rank] == sorted(images)
        assert all(s.dilated % 3 == {"a": 1, "b": 2, "ab": 0}[s.color]
                   for s in symbols)

    def test_undilate_inverts_the_dilation(self):
        for value in range(1, 301):
            assert ColoredSymbol.from_dilated(value).dilated == value

    def test_every_symbol_round_trips_through_its_value(self):
        for s in SYMBOLS_TO_100:
            assert ColoredSymbol.from_dilated(s.dilated) == s
            assert s.rank == s.dilated + 3

    def test_the_value_order_is_the_symbol_order(self):
        by_value = sorted(SYMBOLS_TO_100, key=lambda s: s.dilated)
        assert [s.dilated for s in by_value] == list(range(1, 300))  # b100 -> 299
        for smaller, larger in zip(by_value, by_value[1:]):
            assert smaller < larger and smaller <= larger
            assert larger > smaller and larger >= smaller
            assert not larger < smaller
        assert sorted(reversed(SYMBOLS_TO_100)) == by_value

    @pytest.mark.parametrize("value", [0, -1, -2, -3])
    def test_only_positive_values_are_symbols(self, value):
        with pytest.raises(ValueError):
            ColoredSymbol.from_dilated(value)

    def test_text_round_trip(self):
        p = P("ab12+ab10+b7+b6+a5+ab4+b2+a1")
        assert str(p) == "ab12+ab10+b7+b6+a5+ab4+b2+a1"
        assert P("a1+b2") == P("b2+a1")  # parser normalizes order
        assert str(P("∅")) == "∅"
        assert p.to_json()[0] == {"color": "ab", "weight": 12}


class TestGapCondition:
    def test_empty_is_type1(self):
        assert is_type1(ColoredPartition(()))

    @pytest.mark.parametrize("text,expected", [
        ("b2+a1", True),      # weak bound: gap 1 suffices under leading b
        ("a2+b1", False),     # a over b needs gap >= 2
        ("ab2+a1", False),    # leading ab needs gap >= 2
        ("ab3+a1", True),
        ("b5+a4+ab3", True),  # a over ab only needs gap 1
        ("b5+a4+b3", False),  # the a-over-b pair inside needs gap 2
        ("ab5+b4", False),
        ("b5+a4+ab2", True),
    ])
    def test_examples(self, text, expected):
        assert is_type1(P(text)) is expected

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.tuples(st.sampled_from(COLORS), st.integers(1, 12))
                   .filter(lambda cw: cw != ("ab", 1)), max_size=5))
    def test_agrees_with_the_colored_rule(self, pairs):
        # any strictly decreasing symbol sequence, gap partition or not
        parts = sorted((ColoredSymbol(c, w) for c, w in pairs), key=lambda s: -s.rank)
        literal = all(upper.weight - lower.weight >= _gap_needed(upper, lower.color)
                      for upper, lower in zip(parts, parts[1:]))
        assert is_type1(ColoredPartition(parts)) is literal

    def test_enumerate_weight_1(self):
        # parts <= b1 in the symbol order: a- and b-parts <= 1, no ab-part
        got = [{str(p) for p in type1(n, a_max=1, b_max=1, ab_max=1)}
               for n in range(0, 2)]
        assert got == [{"∅"}, {"a1", "b1"}]

    def test_enumerate_weight_3_bound_b2(self):
        # parts <= b2 in the symbol order: every color capped at weight 2
        got = [{str(p) for p in type1(n, a_max=2, b_max=2, ab_max=2)}
               for n in range(0, 4)]
        assert got == [{"∅"}, {"a1", "b1"}, {"ab2", "a2", "b2"},
                       {"a2+a1", "b2+a1", "b2+b1"}]

    def test_enumerate_weight_0(self):
        assert [str(p) for p in type1(0)] == ["∅"]

    def test_enumeration_is_duplicate_free_and_valid(self):
        seen = set()
        for n in range(0, 10):
            for parts in iter_type1(n):
                assert parts not in seen
                seen.add(parts)
                assert sum(p.weight for p in parts) == n
                assert is_type1(ColoredPartition(parts))

    def test_per_color_caps(self):
        for n in range(0, 9):
            for p in type1(n, a_max=3, b_max=2, ab_max=4):
                for s in p:
                    cap = {"a": 3, "b": 2, "ab": 4}[s.color]
                    assert s.weight <= cap

    def test_gap_condition_equals_dilated_schur_condition(self):
        # exhaustively for total weight <= 20: the colored gap condition
        # holds iff the dilated image has gaps >= 3, strict when the
        # larger part is a multiple of 3
        def schur_ok(values):
            return all(x - y >= 3 + (1 if x % 3 == 0 else 0)
                       for x, y in zip(values, values[1:]))
        checked = 0
        for p in (q for n in range(0, 21) for q in type1(n)):
            assert schur_ok(p.dilated())
            checked += 1
        assert checked > 1000
        # and conversely: colored partitions violating the gap condition
        # dilate to Schur-gap violations
        for text in ("a2+b1", "ab2+a1", "b3+ab3", "ab4+a3"):
            q = P(text)
            assert not is_type1(q)
            assert not schur_ok(q.dilated())


CAP = st.one_of(st.none(), st.integers(0, 8))


class TestEnumeratorOracle:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 14), a_max=CAP, b_max=CAP, ab_max=CAP)
    def test_exact_weight_matches_the_at_most_walk(self, n, a_max, b_max, ab_max):
        # the partitions of weight n in the reference walk, in its order
        caps = dict(a_max=a_max, b_max=b_max, ab_max=ab_max)
        expected = [parts for parts in type1_upto(n, **caps)
                    if sum(p.weight for p in parts) == n]
        assert list(iter_type1(n, **caps)) == expected

    @pytest.mark.parametrize("L", range(0, 7))
    def test_caps_at_L_are_the_largest_part_bound_b_L(self, L):
        # G_L's enumeration: caps a, b, ab <= L give the set below b_L
        largest = ColoredSymbol("b", L) if L else None
        expected = set(type1_upto(L * (L + 1) // 2, largest))
        got = {parts for n in range(0, L * (L + 1) // 2 + 1)
               for parts in iter_type1(n, a_max=L, b_max=L, ab_max=L)}
        assert got == expected


class TestNuStatistics:
    def test_equal_bounds(self):
        assert nu_statistics(P("b1"), 3, 3) == (0, 0)
        assert nu_statistics(P("ab3+a1"), 4, 4) == (0, 0)

    def test_examples(self):
        assert nu_statistics(P("b1"), 1, 3) == (0, 0)
        assert nu_statistics(P("a3"), 1, 3) == (1, 0)
        assert nu_statistics(P("b3"), 5, 2) == (0, 1)  # mirrored bound

    def test_no_valid_statistic(self):
        # a b-part above both bounds can never satisfy the scan
        with pytest.raises(NoValidStatistic):
            nu_statistics(P("b9"), 1, 3)
        # an a-part above the smaller bound fails the mirrored scan
        with pytest.raises(NoValidStatistic):
            nu_statistics(P("a3"), 5, 2)

    def test_statistic_exists_iff_some_bucket_fits_and_is_unique(self):
        # over all gap partitions with a,ab <= M and b <= L, the scan
        # succeeds exactly when some bucket l satisfies the bounded
        # profile, and then the bucket is unique and equals nu(L)
        for L, M in ((2, 5), (3, 4), (1, 6)):
            for p in (q for n in range(0, 13)
                      for q in type1(n, a_max=M, b_max=L, ab_max=M)):
                parts = p.parts
                fits = fitting_buckets(s_profile, parts, L, M)
                assert len(fits) <= 1
                try:
                    nu_l, nu_m = nu_statistics(p, L, M)
                except NoValidStatistic:
                    assert fits == []
                    continue
                assert nu_m == 0
                assert fits == [nu_l]


class TestCounts:
    def test_count_V_against_enumeration(self):
        # pairs (a-parts, b-parts) of distinct-part sets, counted literally;
        # the grid has M < j and L < 0, where both caps clamp at 0
        for n, L, M, i, j in itertools.product(range(13), range(-1, 6), range(-1, 7),
                                               range(5), range(5)):
            want = sum(1 for m in range(n + 1)
                       for w1 in _distinct_parts(m, max(M - j, 0)) if len(w1) == i
                       for w2 in _distinct_parts(n - m, max(L, 0)) if len(w2) == j)
            assert count_V(n, i, j, L, M) == want, (n, i, j, L, M)

    @pytest.mark.parametrize("args,expected", [
        ((3, 1, 1, 2, 2), 1),
        ((0, 0, 0, 7, 7), 1),
        ((3, 1, 1, 3, 4), 2),
    ])
    def test_count_V_examples(self, args, expected):
        assert count_V(*args) == expected

    @pytest.mark.parametrize("args,expected", [
        ((3, 0, 0, 1, 0, 3, 3), 1),   # the single ab-part of weight 3
        ((3, 1, 1, 0, 0, 3, 3), 1),   # b2+a1 only
        ((5, 0, 0, 0, 0, 3, 3), 0),   # no parts cannot carry weight
    ])
    def test_count_S_examples(self, args, expected):
        # S(n; r, s, t, l, L, M), read from the bucketed census
        n, r, s, t, l, L, M = args
        assert _s_census(L, M, n).get((r, s, t, l), 0) == expected

    def test_schur_counts(self):
        assert schur_counts(9) == (3, 3)
        assert schur_counts(0) == (1, 1)
        assert schur_counts(1) == (1, 1)

    def test_schur_sides_against_literal_enumeration(self):
        allowed = [x for x in range(1, 26) if x % 3 in (1, 2)]
        for n in range(0, 26):
            distinct = sum(
                1 for r in range(0, len(allowed) + 1)
                for combo in itertools.combinations(allowed, r)
                if sum(combo) == n)
            gap = sum(1 for _ in iter_schur_gap(n, n))
            assert schur_counts(n) == (distinct, gap)

    @pytest.mark.parametrize("n", range(0, 31))
    def test_schur_gap_stream_matches_the_literal_walk(self, n):
        for cap in sorted({n, 7, 13}):
            assert list(iter_schur_gap(n, cap)) == schur_gap_literal(n, cap)

    def test_goellnitz_counts(self):
        assert goellnitz_counts(10) == (2, 2)
        assert goellnitz_counts(0) == (1, 1)
        assert goellnitz_counts(2) == (1, 1)

    def test_goellnitz_distinct_side_literal(self):
        allowed = [x for x in range(1, 22) if x % 6 in (2, 4, 5)]
        for n in range(0, 22):
            literal = sum(
                1 for r in range(0, len(allowed) + 1)
                for combo in itertools.combinations(allowed, r)
                if sum(combo) == n)
            assert goellnitz_counts(n)[0] == literal

    @pytest.mark.parametrize("args", [
        (3, 1, 1, 2, 2),
        (0, 0, 0, 2, 2),
        (6, 1, 1, 2, 3),
        (12, 1, 1, 2, 3),
    ])
    def test_theorem3_counts_agree(self, args):
        report = check_theorem3(*args)
        assert report.lhs_count == report.rhs_count

    def test_theorem3_example_value(self):
        # pairs (x = 1 mod 3 <= 1, y = 2 mod 3 <= 5) with x + y = 3: only (1, 2)
        report = check_theorem3(3, 1, 1, 2, 2)
        assert (report.lhs_count, report.rhs_count) == (1, 1)


class TestDurfee:
    def test_examples(self):
        d = durfee_decompose([2, 1], 2, 2, 4)
        assert (d.k, d.rows, d.cols, d.below, d.right) == (1, 1, 1, (1,), (1,))
        d = durfee_decompose([1], 1, 1, 2)
        assert (d.k, d.rows, d.cols, d.below, d.right) == (0, 1, 1, (), ())
        d = durfee_decompose([], 2, 1, 5)
        assert (d.k, d.rows, d.cols) == (1, 0, 1)
        assert d.below == () and d.right == ()

    def test_rejects_oversized_input(self):
        with pytest.raises(ValueError):
            durfee_decompose([5], 1, 1, 3)  # part exceeds L - j = 2

    def test_reassembly_identity_everywhere(self):
        def box_partitions(rows, cap):
            if rows == 0:
                yield ()
                return
            for first in range(0, cap + 1):
                for rest in box_partitions(rows - 1, min(first, cap)):
                    yield tuple(x for x in (first, *rest) if x)
        for L in range(0, 9):
            for j in range(0, L + 1):
                for i in range(0, L - j + 1):
                    for parts in set(box_partitions(j, L - j)):
                        d = durfee_decompose(list(parts), i, j, L)
                        assert d.reassemble() == parts

    def test_durfee_grouping_is_the_identity_kernel(self):
        # grouping box partitions by k reproduces the summand
        # q^{(i-k)(j-k)} [i; k] [L-i; j-k] of the Durfee identity
        from collections import defaultdict

        def box_partitions(rows, cap):
            if rows == 0:
                yield ()
                return
            for first in range(0, cap + 1):
                for rest in box_partitions(rows - 1, min(first, cap)):
                    yield tuple(x for x in (first, *rest) if x)

        for L, i, j in ((4, 2, 2), (5, 2, 3), (6, 3, 2), (6, 0, 3)):
            by_k = defaultdict(dict)
            for parts in set(box_partitions(j, L - j)):
                d = durfee_decompose(list(parts), i, j, L)
                cell = by_k[d.k]
                total = sum(parts)
                cell[total] = cell.get(total, 0) + 1
            for k in range(0, min(i, j) + 1):
                expected = (qbinom(i, k) * qbinom(L - i, j - k)).shifted(
                    (i - k) * (j - k))
                assert LaurentPoly(by_k.get(k, {})) == expected
