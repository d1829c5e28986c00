"""Acceptance suite: one test per criterion, executed at the stated
parameter grids with zero tolerance (every comparison is exact).

Each test prints a single PASS/FAIL line; run with ``pytest -s`` to see
them as the suite executes.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from qschur.bijection import forward, forward_bounded, inverse
from qschur.coefficients import qbinom, qmultinomial3, triangular
from qschur.identities import sweep, verify
from qschur.partitions import (
    ColoredPartition,
    durfee_decompose,
    schur_counts,
    goellnitz_counts,
)
from qschur.qseries import MarkerSeries, ONE, qpow
from qschur.theorems import (
    check_goellnitz,
    check_schur,
    check_theorem1,
    check_theorem2,
    check_theorem3,
)

from oracles import lhs_63_literal

P = ColoredPartition.from_text


@contextmanager
def criterion(number: int, title: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {title} ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {title} ({time.time() - start:.1f}s)")


def box_partitions(rows, cap):
    if rows == 0:
        yield ()
        return
    for first in range(0, cap + 1):
        for rest in box_partitions(rows - 1, min(first, cap)):
            yield tuple(x for x in (first, *rest) if x)


def distinct_parts(n, cap):
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in distinct_parts(n - p, p - 1):
            yield (p,) + rest


def test_criterion_01_key_identity_full_signed_grid():
    with criterion(1, "key identity exact on [-5..10]^4 (65536 cells)"):
        grid = range(-5, 11)
        result = sweep("eq21", {"L": grid, "M": grid, "i": grid, "j": grid})
        assert result.cells == 16 ** 4 and result.skipped == 0
        assert result.holds, result.failures[0]


def test_criterion_02_durfee_identity_and_round_trip():
    with criterion(2, "Durfee identity to L=14 and decomposition round-trips to L=10"):
        for L in range(0, 15):
            for i in range(0, L + 1):
                for j in range(0, L - i + 1):
                    assert verify("eq32", L, i, j).holds, (L, i, j)
        for L in range(0, 11):
            for j in range(0, L + 1):
                boxes = set(box_partitions(j, L - j))
                for i in range(0, L - j + 1):
                    for parts in boxes:
                        d = durfee_decompose(list(parts), i, j, L)
                        assert d.reassemble() == parts
        # the box census itself matches the Gaussian polynomial
        for L in range(0, 11):
            for j in range(0, L + 1):
                counts = {}
                for parts in set(box_partitions(j, L - j)):
                    counts[sum(parts)] = counts.get(sum(parts), 0) + 1
                from qschur.qseries import LaurentPoly
                assert LaurentPoly(counts) == qbinom(L, j)


def test_criterion_03_triangular_form_kernel_and_product():
    with criterion(3, "triangular form to 10, multinomial kernel to 8, product expansion to 6"):
        for L in range(0, 11):
            for M in range(0, 11):
                for i in range(0, min(L, M) + 1):
                    for j in range(0, min(L, M) - i + 1):
                        v = verify("eq44", L, M, i, j)
                        assert v.holds, (L, M, i, j)
                        shift = triangular(i) + triangular(j)
                        assert v.rhs == verify("eq21", L, M, i, j).rhs.shifted(shift)
        for M in range(0, 9):
            for L in range(0, 9):
                for i in range(0, M + 1):
                    for j in range(0, L + 1):
                        assert verify("eq48", L, M, i, j).holds, (L, M, i, j)
        for L in range(0, 7):
            for M in range(0, 7):
                assert verify("eq46", L, M).holds, (L, M)


def test_criterion_04_series_recurrences_and_convergents():
    with criterion(4, "G_L = R_L to 8 (dual construction), recurrences to 12, convergents to 8"):
        for L in range(0, 9):
            assert verify("eq53", L).holds, L  # build_GL dual-checks internally
        for L in range(2, 13):
            assert verify("rec55", L).holds, L
        for L in range(1, 13):
            for i in range(0, L + 1):
                for j in range(0, L + 1):
                    if L >= 2:
                        assert verify("rec58", L, i, j).holds, (L, i, j)
                    assert verify("rec59", L, i, j).holds, (L, i, j)
        for L in range(0, 9):
            assert verify("rec512", L).holds, L


def test_criterion_05_trinomial_representation():
    with criterion(5, "trinomial representation exact for L <= 4, closed forms frozen"):
        for L in range(1, 5):
            assert verify("eq516", L).holds, L
        assert verify("eq516", 1).lhs == MarkerSeries(
            2, {(0, 0): ONE, (1, 0): qpow(1), (0, 1): qpow(2)})
        assert verify("eq516", 2).lhs == MarkerSeries(2, {
            (0, 0): ONE,
            (1, 0): qpow(1) + qpow(4),
            (0, 1): qpow(2) + qpow(5),
            (1, 1): qpow(3) + qpow(6),
            (2, 0): qpow(5),
            (0, 2): qpow(7),
        })


def test_criterion_06_three_color_identity():
    with criterion(6, "three-color identity on the mixed grid, slices, truncated limit"):
        failures = []
        for L in range(3, 8):
            for M in range(3, 8):
                for i in range(0, 4):
                    for j in range(0, 4):
                        for k in range(0, 4):
                            v = verify("eq63", L, M, i, j, k)
                            if not v.holds:
                                failures.append((v, lhs_63_literal(L, M, i, j, k,
                                                                   alt_s=True) == v.rhs))
        if failures:
            main, alternative_holds = failures[0]
            pytest.fail(
                "three-color identity FAILED with the part-count statistic "
                f"at {main.params}: witness {main.witness}; the alternative "
                f"statistic (delta twice, gamma omitted) gives holds="
                f"{alternative_holds} there")
        # k = 0 slice carries the multinomial coefficients
        for L in range(3, 8):
            for i in range(0, 4):
                for j in range(0, 4):
                    v = verify("eq63", L, L, i, j, 0)
                    assert v.lhs == qmultinomial3(L, i, j).shifted(
                        triangular(i) + triangular(j))
        # equal bounds match the cyclic closed form
        for L in range(3, 8):
            for i in range(0, 4):
                for j in range(0, 4):
                    for k in range(0, 4):
                        closed = verify("eq63lm", L, i, j, k)
                        assert closed.holds
                        assert verify("eq63", L, L, i, j, k).rhs == closed.lhs
        assert verify("eq61", 3, 3, 3, 40).holds


def test_criterion_07_bijection_round_trip_and_bounds():
    with criterion(7, "bijection: exhaustive round trip to weight 18, worked example, bound profile"):
        t = forward(P("a6+a5+a3+a2+a1"), P("b9+b8+b6+b4+b2+b1"))
        assert str(t.pi4) == "b4+b2+b1"
        assert str(t.pi5) == "b9+b8+b6"
        assert str(t.pi6) == "ab9+ab7+a4+ab3+a1"
        assert "+".join(map(str, t.c1)) == "b2+b2+b1+ab5+ab4+a2+ab2+a1"
        assert t.c2 == (7, 6, 5, 4, 3, 2, 1, 0)
        assert "+".join(map(str, t.c1r)) == "ab5+ab4+b2+b2+a2+ab2+b1+a1"
        assert str(t.pi3) == "ab12+ab10+b7+b6+a5+ab4+b2+a1"

        pairs = 0
        for total in range(0, 19):
            for n1 in range(0, total + 1):
                for w1 in distinct_parts(n1, n1):
                    for w2 in distinct_parts(total - n1, total - n1):
                        pi1 = ColoredPartition.colored("a", w1)
                        pi2 = ColoredPartition.colored("b", w2)
                        assert inverse(forward(pi1, pi2).pi3) == (pi1, pi2)
                        pairs += 1
        assert pairs > 3000

        certified = 0
        for L in range(0, 9):
            for M in range(L, 9):
                for n in range(0, 17):
                    for m in range(0, n + 1):
                        for w2 in distinct_parts(n - m, min(L, n - m)):
                            j = len(w2)
                            for w1 in distinct_parts(m, min(max(M - j, 0), m)):
                                if len(w1) + j > L:
                                    continue
                                pi1 = ColoredPartition.colored("a", w1)
                                pi2 = ColoredPartition.colored("b", w2)
                                forward_bounded(pi1, pi2, L, M)  # must certify
                                certified += 1
        assert certified > 10000


def test_criterion_08_theorem_counts():
    with criterion(8, "theorem counts: T1<=20, T2<=16, T3<=45, classical theorems<=60"):
        for n in range(0, 21):
            bound = 0
            while triangular(bound + 1) <= n:
                bound += 1
            for i in range(0, bound + 2):
                for j in range(0, bound + 2):
                    assert check_theorem1(n, i, j).holds, (n, i, j)
        for L in range(0, 9):
            for M in range(L, 9):
                for i in range(0, L + 1):
                    for j in range(0, L - i + 1):
                        for n in range(0, 17):
                            assert check_theorem2(n, i, j, L, M).holds, (n, i, j, L, M)
        for L in range(0, 6):
            for M in range(L, 6):
                for i in range(0, L + 1):
                    for j in range(0, L - i + 1):
                        for n in range(0, 46):
                            assert check_theorem3(n, i, j, L, M).holds, (n, i, j, L, M)
        assert all(r.holds for r in check_schur(60))
        assert all(r.holds for r in check_goellnitz(60))
        # frozen spot values
        assert schur_counts(9) == (3, 3)
        assert goellnitz_counts(10) == (2, 2)


def test_criterion_09_truncated_infinite_identities():
    with criterion(9, "truncated limits: termwise to (6,6) at q^50, products at caps (6,6) q^30"):
        for i in range(0, 7):
            for j in range(0, 7):
                assert verify("eq26", i, j, 50).holds, (i, j)
        assert verify("eq11", 6, 6, 30).holds


def test_criterion_10_harness_self_test():
    with criterion(10, "perturbed identity exits 1 with a q^0 witness"):
        proc = subprocess.run(
            [sys.executable, "-m", "qschur", "verify", "eq21",
             "--L", "0..2", "--M", "0..2", "--i", "0..1", "--j", "0..1",
             "--perturb", "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["holds"] is False
        first = payload["failures"][0]
        assert first["witness"]["q_exp"] == 0
        assert first["witness"]["rhs"] - first["witness"]["lhs"] == 1
        # and the unperturbed run is clean
        proc_ok = subprocess.run(
            [sys.executable, "-m", "qschur", "verify", "eq21",
             "--L", "0..2", "--M", "0..2", "--i", "0..1", "--j", "0..1"],
            capture_output=True, text=True)
        assert proc_ok.returncode == 0
