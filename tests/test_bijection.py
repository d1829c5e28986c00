"""The column-subtraction correspondence: worked example, round trips,
weight conservation, bound certification, the trusted records and the
lazy trace fields, and the walk on dilated values against the literal
walk on symbols."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qschur.bijection as bijection
from qschur.bijection import (
    BijectionTrace,
    BoundCertificate,
    BoundViolation,
    InvalidInput,
    forward,
    forward_bounded,
    inverse,
)
from qschur.partitions import (
    ColoredPartition,
    ColoredSymbol,
    color_counts,
    is_type1,
    nu_statistics,
)

from oracles import _distinct_parts, bijection_literal, bijection_literal_inverse, type1_upto

P = ColoredPartition.from_text
TRACE_FIELDS = ("pi1", "pi2", "pi4", "pi5", "pi4_star", "pi6", "c1", "c2", "c1r", "pi3")
LAZY_FIELDS = ("pi4", "pi5", "pi6", "c1", "c1r")


def pairs_upto(max_total):
    """Every pair (distinct a-parts, distinct b-parts) of total weight <= max_total."""
    for total in range(0, max_total + 1):
        for n1 in range(0, total + 1):
            for w1 in _distinct_parts(n1, n1):
                for w2 in _distinct_parts(total - n1, total - n1):
                    yield ColoredPartition.colored("a", w1), ColoredPartition.colored("b", w2)


def distinct_symbol_partitions(max_total):
    """Every partition into distinct colored symbols of total weight <= max_total,
    gap condition or not, as decreasing dilated values."""
    def extend(budget, below):
        yield ()
        for d in range(min(below, 3 * budget - 1), 0, -1):  # weight d // 3 + 1 <= budget
            for rest in extend(budget - d // 3 - 1, d - 1):
                yield (d,) + rest
    return extend(max_total, 3 * max_total)


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

    # no gap partition reaches these guards; with the gap check waved through,
    # these inputs of least weight reach each one
    @pytest.mark.parametrize("text, message", [
        ("b1+a1", "outside the image of the correspondence"),  # pi5's b1 is not above i = 1
        ("ab2+a1", "outside the image of the correspondence"),  # pi1 would recover a0
        ("ab3+ab2", "recovered pi1 must have distinct parts"),  # pi1 would recover a1+a1
    ])
    def test_the_guards_after_the_gap_check(self, monkeypatch, text, message):
        monkeypatch.setattr(bijection, "is_type1", lambda partition: True)
        with pytest.raises(InvalidInput) as excinfo:
            inverse(P(text))
        assert type(excinfo.value) is InvalidInput
        assert str(excinfo.value) == message

    def test_a_weight_gain_fails_the_conservation_assert(self, monkeypatch):
        # one extra node in the conjugate of pi4 = b1 makes pi3 = ab3, a gap
        # partition of weight 3 from a pair of weight 2
        monkeypatch.setattr(bijection, "_conjugate_with_circles", lambda weights: ((2, True),))
        with pytest.raises(AssertionError):
            forward(P("a1"), P("b1"))


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
        for pi1, pi2 in pairs_upto(10):
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

    @pytest.mark.parametrize("left, right, L, M, message", [
        ("a1", "∅", -1, 1, "need L, M >= 0, got L = -1, M = 1"),
        ("∅", "b1", 1, -1, "need L, M >= 0, got L = 1, M = -1"),
        ("∅", "∅", -2, -3, "need L, M >= 0, got L = -2, M = -3"),
        ("b1", "∅", -1, 1, "pi1 must have only a-parts"),  # colors first
        ("∅", "a1", 1, -1, "pi2 must have only b-parts"),
    ])
    def test_rejects_negative_bounds(self, left, right, L, M, message):
        with pytest.raises(InvalidInput) as excinfo:
            forward_bounded(P(left), P(right), L=L, M=M)
        assert str(excinfo.value) == message

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
        ("a3", "∅", 5, 4, (0, 2), "a-part a3 exceeds certified bound 2"),  # b-bound 5 above
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


class TestTrustedRecords:
    """forward and forward_bounded build their records without __init__;
    each must be the record __init__ builds from the same fields."""

    @staticmethod
    def _assert_is_the_init_record(record, expected):
        assert type(record) is type(expected)
        assert record == expected and expected == record
        assert hash(record) == hash(expected)
        assert repr(record) == repr(expected)
        assert vars(record) == vars(expected)

    @staticmethod
    def _assert_frozen_and_replaceable(record, name, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
        replaced = dataclasses.replace(record, **{name: value})
        assert getattr(replaced, name) == value
        assert dataclasses.replace(replaced, **{name: getattr(record, name)}) == record

    def test_every_trace_of_weight_at_most_12(self):
        pairs = 0
        for pi1, pi2 in pairs_upto(12):
            trace = forward(pi1, pi2)
            self._assert_is_the_init_record(
                trace, BijectionTrace(*(getattr(trace, name) for name in TRACE_FIELDS)))
            pairs += 1
        assert pairs == 598
        self._assert_frozen_and_replaceable(trace, "pi3", P("∅"))

    def test_every_certificate_of_weight_at_most_12(self):
        for pi1, pi2 in pairs_upto(12):
            i, j = len(pi1), len(pi2)
            L = max([i + j, *(s.weight for s in pi2)])
            M = max([L, *(s.weight + j for s in pi1)]) + i % 3  # L < M for some pairs
            trace, cert = forward_bounded(pi1, pi2, L, M)
            nu_l, nu_m = nu_statistics(trace.pi3, L, M)
            a_count, b_count, k = color_counts(trace.pi3.dilated())
            self._assert_is_the_init_record(cert, BoundCertificate(
                L=L, M=M, nu_l=nu_l, nu_m=nu_m, a_count=a_count, b_count=b_count,
                ab_count=k, a_bound=M - nu_m, b_bound=L - nu_l, ab_bound=M - nu_m))
        self._assert_frozen_and_replaceable(cert, "nu_l", cert.nu_l + 1)


class TestLazyTrace:
    """forward leaves pi4, pi5, pi6, c1 and c1r unbuilt until one is read.
    Every trace of weight <= 12, from forward and from forward_bounded,
    each taken unread, must act as the record __init__ builds: the
    literal walk's."""

    @pytest.fixture(scope="class")
    def cases(self):
        # (the record __init__ builds, a call returning a new unread trace)
        out = []
        for pi1, pi2 in pairs_upto(12):
            expected = bijection_literal(pi1, pi2)
            bound = pi1.sigma + pi2.sigma + len(pi2)  # L = M = bound meets every precondition
            out.append((expected, lambda pi1=pi1, pi2=pi2: forward(pi1, pi2)))
            out.append((expected, lambda pi1=pi1, pi2=pi2, bound=bound:
                        forward_bounded(pi1, pi2, bound, bound)[0]))
        assert len(out) == 2 * 598
        return out

    def test_equality_hash_and_repr(self, cases):
        for expected, fresh in cases:
            assert type(fresh()) is BijectionTrace
            assert fresh() == expected and expected == fresh()
            assert hash(fresh()) == hash(expected)
            assert repr(fresh()) == repr(expected)

    def test_replace_copy_deepcopy_and_pickle(self, cases):
        empty = P("∅")
        for expected, fresh in cases:
            assert dataclasses.replace(fresh()) == expected
            replaced = dataclasses.replace(fresh(), pi3=empty)
            assert replaced == dataclasses.replace(expected, pi3=empty)
            for clone in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))):
                cloned = clone(fresh())
                assert type(cloned) is BijectionTrace and cloned == expected
                assert vars(cloned) == vars(expected)

    def test_an_unread_field_is_frozen(self, cases):
        for k, (expected, fresh) in enumerate(cases):
            trace, name = fresh(), LAZY_FIELDS[k % len(LAZY_FIELDS)]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(trace, name, getattr(expected, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(trace, name)
            assert trace == expected

    def test_one_read_builds_every_field_and_drops_the_private_key(self, cases):
        for k, (expected, fresh) in enumerate(cases):
            trace, name = fresh(), LAZY_FIELDS[k % len(LAZY_FIELDS)]
            assert getattr(trace, name) == getattr(expected, name)
            assert vars(trace) == vars(expected)

    def test_no_other_attribute_is_made_up(self, cases):
        for _, fresh in cases:
            trace = fresh()
            assert not hasattr(trace, "nope")
            assert trace.pi4 is trace.pi4  # built once
            assert not hasattr(trace, "nope")
        with pytest.raises(AttributeError, match="'BijectionTrace' object has no attribute 'nope'"):
            forward(P("a1"), P("b2")).nope


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
        for pi1, pi2 in pairs_upto(12):
            _assert_matches_the_literal_walk(pi1, pi2)
            pairs += 1
        assert pairs == 598  # the coefficients of (-q; q)_oo^2 up to q^12

    def test_inverse_on_every_gap_partition_of_weight_at_most_12(self):
        gap_partitions = list(type1_upto(12))
        assert len(gap_partitions) == 598  # as many as the pairs above
        for parts in gap_partitions:
            pi3 = ColoredPartition(parts)
            assert inverse(pi3) == bijection_literal_inverse(pi3)

    def test_inverse_on_every_distinct_symbol_partition_of_weight_at_most_10(self):
        # gap partitions or not: the same pair, or the same error and message
        outcomes = {}
        for values in distinct_symbol_partitions(10):
            pi3 = ColoredPartition(map(ColoredSymbol.from_dilated, values))
            try:
                expected = bijection_literal_inverse(pi3)
            except ValueError as error:  # InvalidInput is a ValueError
                with pytest.raises(type(error)) as excinfo:
                    inverse(pi3)
                assert type(excinfo.value) is type(error)
                assert str(excinfo.value) == str(error), str(pi3)
                outcomes[str(error)] = outcomes.get(str(error), 0) + 1
            else:
                assert inverse(pi3) == expected, str(pi3)
                outcomes["pair"] = outcomes.get("pair", 0) + 1
        # 294 gap partitions (the coefficients of (-q; q)_oo^2 up to q^10) of the
        # 761 partitions, the coefficients of (-q; q)_oo^3 / (1 + q) up to q^10
        assert outcomes == {"pair": 294, "input violates the gap condition": 467}

    @given(distinct_weight_sets(40), distinct_weight_sets(40))
    @settings(max_examples=200)
    def test_random_pairs(self, w1, w2):
        _assert_matches_the_literal_walk(ColoredPartition.colored("a", w1),
                                         ColoredPartition.colored("b", w2))
