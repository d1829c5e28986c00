"""The column-subtraction correspondence: worked example, round trips,
weight conservation, bound certification, and the walk on dilated values
against the literal walk on symbols."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qschur.bijection as bijection
from qschur.bijection import (
    BoundViolation,
    InvalidInput,
    forward,
    forward_bounded,
    inverse,
)
from qschur.partitions import ColoredPartition, ColoredSymbol, color_counts, is_type1

from oracles import _distinct_parts, bijection_literal, bijection_literal_inverse, type1_upto

P = ColoredPartition.from_text
TRACE_FIELDS = ("pi1", "pi2", "pi4", "pi5", "pi4_star", "pi6", "c1", "c2", "c1r", "pi3")


def distinct_weight_sets(max_total):
    return st.lists(st.integers(1, max_total), unique=True, max_size=5).filter(
        lambda ws: sum(ws) <= max_total)


@pytest.fixture(scope="module")
def trace():
    return forward(P("a6+a5+a3+a2+a1"), P("b9+b8+b6+b4+b2+b1"))


class TestWorkedExample:
    """The fully tabulated example: (a6+a5+a3+a2+a1, b9+b8+b6+b4+b2+b1)."""

    def test_split(self, trace):
        assert str(trace.pi4) == "b4+b2+b1"
        assert str(trace.pi5) == "b9+b8+b6"

    def test_conjugate_with_circles(self, trace):
        # conjugate of (4, 2, 1) is (3, 2, 1, 1); rows 1, 2 and 4 end at
        # the bottom of their column
        assert trace.pi4_star == ((3, True), (2, True), (1, False), (1, True))

    def test_merged_partition(self, trace):
        assert str(trace.pi6) == "ab9+ab7+a4+ab3+a1"

    def test_columns(self, trace):
        assert "+".join(map(str, trace.c1)) == "b2+b2+b1+ab5+ab4+a2+ab2+a1"
        assert trace.c2 == (7, 6, 5, 4, 3, 2, 1, 0)
        assert "+".join(map(str, trace.c1r)) == "ab5+ab4+b2+b2+a2+ab2+b1+a1"

    def test_result(self, trace):
        assert str(trace.pi3) == "ab12+ab10+b7+b6+a5+ab4+b2+a1"

    def test_inverse_recovers_the_pair(self, trace):
        assert inverse(trace.pi3) == (trace.pi1, trace.pi2)

    def test_statistics_map(self, trace):
        # i = 5 a-parts and j = 6 b-parts map to (i-k, j-k, k) with k = 3
        assert color_counts(trace.pi3.dilated()) == (2, 3, 3)


class TestSmallCases:
    def test_empty(self):
        trace = forward(P("∅"), P("∅"))
        assert str(trace.pi3) == "∅"
        assert inverse(P("∅")) == (P("∅"), P("∅"))

    def test_single_pair(self):
        trace = forward(P("a1"), P("b2"))
        assert str(trace.pi4) == "∅"
        assert str(trace.pi5) == "b2"
        assert str(trace.pi6) == "a1"
        assert "+".join(map(str, trace.c1)) == "b1+a1"
        assert str(trace.pi3) == "b2+a1"
        assert inverse(P("b2+a1")) == (P("a1"), P("b2"))

    def test_rejects_bad_colors(self):
        with pytest.raises(InvalidInput):
            forward(P("b1"), P("b2"))
        with pytest.raises(InvalidInput):
            forward(P("a1"), P("a2"))

    def test_rejects_non_gap_input(self):
        with pytest.raises(InvalidInput):
            inverse(P("a2+b1"))


class TestInvariants:
    def test_weight_conservation_at_every_step(self):
        pairs = [("a3+a1", "b5+b2+b1"), ("a6+a5+a3+a2+a1", "b9+b8+b6+b4+b2+b1"),
                 ("∅", "b3+b1"), ("a4+a2", "∅")]
        for left, right in pairs:
            pi1, pi2 = P(left), P(right)
            t = forward(pi1, pi2)
            total = pi1.sigma + pi2.sigma
            assert t.pi4.sigma + t.pi5.sigma == pi2.sigma
            assert t.pi5.sigma + t.pi6.sigma == total
            assert sum(s.weight for s in t.c1) + sum(t.c2) == total
            assert sum(s.weight for s in t.c1r) + sum(t.c2) == total
            assert t.pi3.sigma == total

    def test_round_trip_exhaustive_weight_10(self):
        seen_pi3 = set()
        for total in range(0, 11):
            for n1 in range(0, total + 1):
                for w1 in _distinct_parts(n1, n1):
                    for w2 in _distinct_parts(total - n1, total - n1):
                        pi1 = ColoredPartition.colored("a", w1)
                        pi2 = ColoredPartition.colored("b", w2)
                        t = forward(pi1, pi2)
                        assert is_type1(t.pi3)
                        assert inverse(t.pi3) == (pi1, pi2)
                        # injectivity of the forward map
                        assert t.pi3 not in seen_pi3
                        seen_pi3.add(t.pi3)

    def test_inverse_builds_no_symbols(self, monkeypatch):
        # inverse runs on dilated values, and so do the partitions it returns
        pairs = [(P(left), P(right)) for left, right in (
            ("∅", "∅"), ("a3+a1", "b5+b2+b1"), ("a6+a5+a3+a2+a1", "b9+b8+b6+b4+b2+b1"))]
        images = [forward(pi1, pi2).pi3 for pi1, pi2 in pairs]

        def builds(cls, value):
            raise AssertionError(f"built the symbol of {value}")

        monkeypatch.setattr(ColoredSymbol, "from_dilated", classmethod(builds))
        for (pi1, pi2), pi3 in zip(pairs, images):
            assert inverse(pi3) == (pi1, pi2)

    @given(distinct_weight_sets(14), distinct_weight_sets(14))
    @settings(max_examples=150)
    def test_round_trip_random(self, w1, w2):
        pi1 = ColoredPartition.colored("a", w1)
        pi2 = ColoredPartition.colored("b", w2)
        assert inverse(forward(pi1, pi2).pi3) == (pi1, pi2)


class TestBounded:
    def test_spec_example(self):
        trace, cert = forward_bounded(P("a1"), P("b2"), L=2, M=3)
        assert str(trace.pi3) == "b2+a1"
        assert (cert.nu_l, cert.nu_m) == (0, 0)
        assert cert.b_bound == 2 and cert.a_bound == 3

    def test_worked_example_bounds(self):
        trace, cert = forward_bounded(
            P("a6+a5+a3+a2+a1"), P("b9+b8+b6+b4+b2+b1"), L=9, M=17)
        assert cert.nu_m == 0
        assert all(s.weight <= cert.b_bound
                   for s in trace.pi3.parts if s.color == "b")

    def test_empty_certified(self):
        _, cert = forward_bounded(P("∅"), P("∅"), L=0, M=0)
        assert (cert.nu_l, cert.nu_m) == (0, 0)

    def test_preconditions_enforced(self):
        with pytest.raises(InvalidInput, match=r"^pi1 parts must be <= M-j = 3$"):
            forward_bounded(P("a5"), P("∅"), L=3, M=3)
        with pytest.raises(InvalidInput, match=r"^pi2 parts must be <= L = 3$"):
            forward_bounded(P("a1"), P("b4"), L=3, M=3)
        with pytest.raises(InvalidInput, match=r"^need max\(L, M\) >= i\+j = 2$"):
            forward_bounded(P("a1"), P("b2"), L=1, M=1)

    def test_bound_profile_on_a_grid(self):
        for L in range(0, 5):
            for M in range(L, 6):
                for n in range(0, 9):
                    for m in range(0, n + 1):
                        for w2 in _distinct_parts(n - m, min(L, n - m)):
                            j = len(w2)
                            for w1 in _distinct_parts(m, min(max(M - j, 0), m)):
                                if len(w1) + j > L:
                                    continue
                                pi1 = ColoredPartition.colored("a", w1)
                                pi2 = ColoredPartition.colored("b", w2)
                                # must certify without BoundViolation
                                forward_bounded(pi1, pi2, L, M)

    @pytest.mark.parametrize("left, right, L, M, message", [
        ("a1", "a9", 3, 3, "pi2 must have only b-parts"),   # was: pi2 parts must be <= L
        ("b9", "b1", 3, 3, "pi1 must have only a-parts"),   # was: pi1 parts must be <= M-j
        ("ab5+a1", "b1", 1, 1, "pi1 must have only a-parts"),  # was: need max(L, M) >= i+j
    ])
    def test_colors_are_checked_before_the_bounds(self, left, right, L, M, message):
        with pytest.raises(InvalidInput, match=message):
            forward_bounded(P(left), P(right), L=L, M=M)

    # (pi1, pi2, L, M, added to (nu_l, nu_m), first failed bound named); the
    # messages are those of the symbol-level certification loop
    @pytest.mark.parametrize("left, right, L, M, bump, message", [
        ("a3", "∅", 1, 3, (0, 1), "a-part a3 exceeds certified bound 2"),
        ("a2", "b1", 1, 3, (0, 1), "ab-part ab3 exceeds certified bound 2"),
        ("a6+a5+a3+a2+a1", "b9+b8+b6+b4+b2+b1", 9, 17, (1, 0),
         "b-part b7 exceeds certified bound 6"),
        ("a3", "b5", 5, 4, (1, 1), "a-part a3 exceeds certified bound 2"),  # a before b
        ("a4+a1", "b5+b1", 5, 6, (1, 1), "b-part b4 exceeds certified bound 3"),  # b before ab
        ("a2+a1", "b3+b2", 4, 4, (1, 1), "a-part a4 exceeds certified bound 3"),
    ])
    def test_a_statistic_one_too_large_violates_a_bound(self, monkeypatch, left, right,
                                                         L, M, bump, message):
        true_nu = bijection.nu_statistics
        monkeypatch.setattr(bijection, "nu_statistics", lambda p, L, M: tuple(
            nu + extra for nu, extra in zip(true_nu(p, L, M), bump)))
        with pytest.raises(BoundViolation) as excinfo:
            forward_bounded(P(left), P(right), L=L, M=M)
        assert str(excinfo.value) == message

    def test_a_wrong_color_tally_fails_the_statistic_map(self, monkeypatch):
        monkeypatch.setattr(bijection, "color_counts", lambda values: (2, 0, 0))
        with pytest.raises(BoundViolation) as excinfo:
            forward_bounded(P("a1"), P("b2"), L=2, M=3)
        assert str(excinfo.value) == ("statistic map failed: expected (1, 1, 0) parts, "
                                      "got (2, 0, 0)")


class TestColoredComponents:
    @pytest.mark.parametrize("color, weights, message", [
        ("c", [1], "unknown color 'c'"),
        ("a", [3, 0], "weight must be a positive integer"),
        ("ab", [1], "the integer 1 occurs only in primary colors"),
        ("b", [2, 5, 2], "parts must be strictly decreasing in the symbol order"),
    ])
    def test_rejects_what_a_symbol_rejects(self, color, weights, message):
        with pytest.raises(ValueError) as excinfo:
            ColoredPartition.colored(color, weights)
        assert str(excinfo.value) == message

    def test_sorted_and_interned(self):
        pi1 = ColoredPartition.colored("a", [1, 4, 2])
        assert pi1 == P("a4+a2+a1")
        assert all(s is ColoredSymbol.from_dilated(s.dilated) for s in pi1)
        recovered = inverse(forward(pi1, ColoredPartition.colored("b", [3])).pi3)
        assert all(s is ColoredSymbol.from_dilated(s.dilated)
                   for part in recovered for s in part)


def _assert_matches_the_literal_walk(pi1, pi2):
    trace, literal = forward(pi1, pi2), bijection_literal(pi1, pi2)
    for name in TRACE_FIELDS:
        fast, slow = getattr(trace, name), getattr(literal, name)
        assert fast == slow, name
        if isinstance(fast, ColoredPartition):
            assert fast.parts == slow.parts and fast.dilated() == slow.dilated(), name
    recovered = inverse(trace.pi3)
    assert recovered == bijection_literal_inverse(literal.pi3) == (pi1, pi2)


class TestAgainstTheLiteralWalk:
    """forward and inverse on dilated values against the step-by-step walk
    on colored symbols (``oracles.bijection_literal``)."""

    def test_every_pair_of_weight_at_most_12(self):
        pairs = 0
        for total in range(0, 13):
            for n1 in range(0, total + 1):
                for w1 in _distinct_parts(n1, n1):
                    for w2 in _distinct_parts(total - n1, total - n1):
                        _assert_matches_the_literal_walk(
                            ColoredPartition.colored("a", w1),
                            ColoredPartition.colored("b", w2))
                        pairs += 1
        assert pairs == 598  # the coefficients of (-q; q)_oo^2 up to q^12

    def test_inverse_on_every_gap_partition_of_weight_at_most_12(self):
        gap_partitions = list(type1_upto(12))
        assert len(gap_partitions) == 598  # as many as the pairs above
        for parts in gap_partitions:
            pi3 = ColoredPartition(parts)
            assert inverse(pi3) == bijection_literal_inverse(pi3)

    @given(distinct_weight_sets(40), distinct_weight_sets(40))
    @settings(max_examples=200)
    def test_random_pairs(self, w1, w2):
        _assert_matches_the_literal_walk(ColoredPartition.colored("a", w1),
                                         ColoredPartition.colored("b", w2))
