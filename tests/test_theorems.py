"""Theorem-level count equalities and their serializations."""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschur import theorems
from qschur.cli import main
from qschur.identities import InternalMismatch
from qschur.partitions import (
    ColoredPartition,
    NoValidStatistic,
    _transfer,
    _transfer_steps,
    _vector_gf,
    color_counts,
    gap_prefixes,
    gap_suffixes,
    iter_type1,
    iter_type1_dilated,
    nu_statistics,
)
from qschur.qseries import ONE, MarkerSeries, qpow
from qschur.theorems import (
    _Census,
    _g3_census,
    _s_census,
    _s_census_mirrored,
    _split,
    _type1_census,
    cell_counts,
    check_goellnitz,
    check_schur,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    count_reports,
    reports_to_csv,
)

from oracles import (
    fitting_buckets,
    g3_profile,
    p3_count,
    s_profile,
    s_profile_mirrored,
    schur_gap_literal,
    type1_upto,
    upper_sets_literal,
)


class TestTheorem1:
    def test_example(self):
        report = check_theorem1(3, 1, 1)
        assert report.holds and report.lhs_count == 2
        assert report.breakdown == {(1, 1, 0): 1, (0, 0, 1): 1}

    def test_trivial(self):
        assert check_theorem1(0, 0, 0).lhs_count == 1

    def test_oracle_cell(self):
        report = check_theorem1(5, 2, 1)
        assert report.holds

    def test_sweep(self):
        for n in range(0, 15):
            for i in range(0, 5):
                for j in range(0, 5):
                    assert check_theorem1(n, i, j).holds

    def test_marginalization(self):
        # summing V(n; i, j) over all (i, j) counts every vector partition
        def distinct_count(n):
            table = [1] + [0] * n
            for part in range(1, n + 1):
                for total in range(n, part - 1, -1):
                    table[total] += table[total - part]
            return table
        for n in range(0, 15):
            total = sum(check_theorem1(n, i, j).lhs_count
                        for i in range(0, n + 1) for j in range(0, n + 1)
                        if i * (i + 1) // 2 + j * (j + 1) // 2 <= n)
            q = distinct_count(n)
            expected = sum(q[m] * distinct_count(n - m)[n - m] for m in range(0, n + 1))
            assert total == expected


class TestTheorem2:
    def test_examples(self):
        assert check_theorem2(3, 1, 1, 2, 2).holds
        assert check_theorem2(0, 0, 0, 0, 0).lhs_count == 1
        assert check_theorem2(8, 1, 2, 3, 5).holds

    def test_grid(self):
        for L in range(0, 6):
            for M in range(L, 7):
                for i in range(0, 4):
                    for j in range(0, 4 - i):
                        if i + j > L:
                            continue
                        for n in range(0, 12):
                            assert check_theorem2(n, i, j, L, M).holds

    def test_buckets_only_at_the_partition_statistic(self):
        report = check_theorem2(7, 1, 1, 3, 5)
        assert report.holds
        assert all(len(key) == 4 for key in report.breakdown)

    def test_mirrored_regime(self):
        # L > M takes the statistic at the bound M
        for M in range(0, 6):
            for L in range(M + 1, 7):
                for i in range(0, 3):
                    for j in range(0, 3 - i):
                        if i + j > M:
                            continue
                        for n in range(0, 12):
                            assert check_theorem2(n, i, j, L, M).holds

    def test_regime_auto_dispatch(self):
        assert check_theorem2(5, 1, 1, 6, 3).holds  # L > M reads the mirrored census

    @pytest.mark.parametrize("L,M", [(1, 4), (4, 1), (1, 1)])
    def test_rejects_bounds_below_i_plus_j(self, L, M):
        with pytest.raises(ValueError, match="min\\(L, M\\) >= i\\+j"):
            check_theorem2(3, 1, 1, L, M)

    def test_reduces_to_theorem1_when_bounds_are_inactive(self):
        for n in range(0, 12):
            for i in range(0, 3):
                for j in range(0, 3):
                    big = n + i + j + 2
                    unbounded = check_theorem1(n, i, j)
                    bounded = check_theorem2(n, i, j, big, big + j)
                    assert bounded.lhs_count == unbounded.lhs_count
                    assert bounded.rhs_count == unbounded.rhs_count


class TestTheorem3:
    def test_examples(self):
        assert check_theorem3(3, 1, 1, 2, 2).holds
        assert check_theorem3(0, 0, 0, 1, 1).lhs_count == 1
        assert check_theorem3(12, 1, 1, 2, 3).holds

    def test_matches_theorem2_under_dilation(self):
        for L in range(0, 4):
            for M in range(L, 5):
                for i in range(0, 3):
                    for j in range(0, 3 - i):
                        if i + j > L:
                            continue
                        for n in range(0, 20):
                            assert check_theorem3(n, i, j, L, M).holds

    def test_weight_map(self):
        # P(n) can only be nonzero when n + 2i + j is divisible by 3
        builds = theorems._cell_census.cache_info().misses
        report = check_theorem3(4, 1, 1, 2, 2)  # 4 + 2 + 1 = 7, not divisible
        assert report.lhs_count == 0 and report.holds
        assert theorems._cell_census.cache_info().misses == builds  # no census read

    def test_lhs_is_the_residue_class_count(self):
        # the left side is read at the undilated weight (n+2i+j)/3; the
        # residue-class count on ordinary integers is the reference, 0
        # where 3 does not divide n+2i+j
        for L in range(0, 6):
            for M in range(L, 6):
                for i in range(0, L + 1):
                    for j in range(0, L - i + 1):
                        for n in range(0, 46):
                            assert (check_theorem3(n, i, j, L, M).lhs_count
                                    == p3_count(n, i, j, L, M)), (n, i, j, L, M)


N_MAX = 14
# weight -> every gap partition of that weight up to N_MAX, and every
# Schur-gap partition (weight = dilated weight) up to 2 N_MAX, with no
# bound applied; both come from the reference walks, not from the
# recursion the censuses use
GAP = {n: [] for n in range(0, N_MAX + 1)}
for _parts in type1_upto(N_MAX):
    GAP[sum(p.weight for p in _parts)].append(_parts)
SCHUR = {n: schur_gap_literal(n, n) for n in range(0, 2 * N_MAX + 1)}


def _colors(parts):
    return tuple(sum(1 for p in parts if p.color == c) for c in ("a", "b", "ab"))


def _residues(parts):
    return tuple(sum(1 for p in parts if p % 3 == r) for r in (1, 2, 0))


def _oracle_census(partitions, profile, counts, L, M):
    """The bucketed counts by definition: every partition, every bucket."""
    out = Counter()
    for parts in partitions:
        fits = fitting_buckets(profile, parts, L, M)
        assert len(fits) <= 1
        if fits:
            out[(*counts(parts), fits[0])] += 1
    return out


class TestCensusOracle:
    @settings(max_examples=200, deadline=None)
    @given(L=st.integers(0, 6), M=st.integers(0, 6), n_max=st.integers(0, N_MAX))
    # from dilated weight 19 on, T3 breakdowns hold keys whose order by t
    # and then l differs from the order by l and then t
    @example(L=5, M=6, n_max=N_MAX)
    def test_censuses_and_statistic_match_the_profile_oracle(self, L, M, n_max):
        for n in range(0, n_max + 1):
            if M >= L:
                census = _s_census(L, M, n)
                assert census == _oracle_census(GAP[n], s_profile, _colors, L, M)
                assert all(l <= r + s + t for r, s, t, l in census)
            if L >= M:
                census = _s_census_mirrored(L, M, n)
                assert census == _oracle_census(GAP[n], s_profile_mirrored, _colors, L, M)
                assert all(m <= r + s + t for r, s, t, m in census)
        # T3 reads T2's censuses through the dilation; the by-value walk of
        # the oracle, to dilated weight 2 n_max, is the independent reference
        if M >= L:
            for N in range(0, 2 * n_max + 1):
                dilated = _oracle_census(SCHUR[N], g3_profile, _residues, L, M)
                assert _g3_census(L, M, N) == dilated
                for i in range(0, L + 1):
                    for j in range(0, L - i + 1):
                        expected = sorted(
                            ((key, c) for key, c in dilated.items()
                             if key[0] + key[2] == i and key[1] + key[2] == j),
                            key=lambda item: (item[0][2], item[0][3]))
                        report = check_theorem3(N, i, j, L, M)
                        assert list(report.breakdown.items()) == expected
        # nu(L), nu(M) is the oracle's unique fitting bucket (0 at the
        # larger bound) on every gap partition within the caps
        for parts in (q for n in range(0, n_max + 1) for q in GAP[n]):
            if any(p.weight > (L if p.color == "b" else M) for p in parts):
                continue
            nu_l = fitting_buckets(s_profile, parts, L, M) if L < M else [0]
            nu_m = fitting_buckets(s_profile_mirrored, parts, L, M) if M < L else [0]
            partition = ColoredPartition(parts)
            if nu_l and nu_m:
                assert nu_statistics(partition, L, M) == (nu_l[0], nu_m[0])
            else:
                with pytest.raises(NoValidStatistic):
                    nu_statistics(partition, L, M)


def _counted(census, n):
    """bucket -> count at the weight n of a counted census: (r, s, t, l)
    for a bound pair's, (r, s, t) for T1's."""
    return {key if l is None else (*key, l): poly.coeff(n)
            for l, series in census.buckets for key, poly in series.terms()
            if poly.coeff(n)}


class TestCountedCensus:
    """The censuses counted by the split and by one transfer, against the
    enumerated ones (which TestCensusOracle holds to the profile oracle)."""

    @pytest.mark.parametrize("L", range(0, 7))
    def test_split_matches_the_enumeration(self, L):
        for M in range(0, 7):
            census = _Census(16, (L, M))
            for n in range(0, 17):
                expected = _s_census(L, M, n) if M >= L else _s_census_mirrored(L, M, n)
                assert _counted(census, n) == dict(expected), (L, M, n)

    @pytest.mark.parametrize("L", range(0, 6))
    def test_split_matches_the_enumeration_at_T3s_weights(self, L):
        # T3 on dilated weights N <= 45 reads the undilated weights up to
        # (45 + 2i + j)/3 <= 20 for 0 <= L <= M <= 5
        for M in range(L, 6):
            census = _Census(20, (L, M))
            for n in range(17, 21):
                assert _counted(census, n) == dict(_s_census(L, M, n)), (L, M, n)

    def test_type1_rows_match_the_enumeration(self):
        census = _Census(30)
        for n in range(0, 31):
            assert _counted(census, n) == dict(_type1_census(n)), n

    def test_gap_prefixes_are_the_capped_enumerations(self):
        for w, prefix in enumerate(gap_prefixes(5, 12)):
            for n in range(0, 13):
                expected = Counter(map(color_counts, iter_type1_dilated(n, w, w, w)))
                assert {key: poly.coeff(n) for key, poly in prefix.terms()
                        if poly.coeff(n)} == dict(expected), (w, n)

    def test_upper_sets_are_the_walk(self):
        # U_l, read from the suffixes with every D_w replaced by 1, against
        # the walk that lists each set, the buckets with l > X included
        # (the bound pair (L, M) = (X, Y) has unbounded colors a and ab, and
        # (Y, X) has b)
        beyond = 0
        for Y in range(0, 10):
            for X in range(0, Y + 1):
                for colors, bounds in ((("a", "ab"), (X, Y)), (("b",), (Y, X))):
                    for cut in (0, 7, 16, X * Y):
                        uppers = dict(_split(*bounds, cut, [MarkerSeries.one(3)] * (X + 1)))
                        assert uppers == upper_sets_literal(X, Y, colors, cut), (bounds, cut)
                        beyond += sum(l > X for l in uppers)
        assert beyond > 100

    def test_the_suffixes_of_every_color_end_at_the_last_prefix(self):
        for Y in range(0, 7):
            suffixes = list(gap_suffixes(Y, ("a", "b", "ab"), 20))
            assert len(suffixes) == Y + 1 and suffixes[0] == MarkerSeries.one(3)
            assert suffixes[-1] == list(gap_prefixes(Y, 20))[-1], Y

    def test_no_census_enumerates(self, monkeypatch):
        grids = {"T1": [(n, i, j) for n in range(0, 13) for i in range(0, 4) for j in range(0, 4)],
                 "T2": [(n, i, j, L, M) for L, M in ((3, 5), (5, 3), (4, 4), (2, 6), (6, 2))
                        for n in range(0, 15) for i in range(0, 3) for j in range(0, 3)
                        if i + j <= min(L, M)],
                 "T3": [(N, i, j, L, M) for L, M in ((2, 4), (3, 3), (3, 6))
                        for N in range(0, 31) for i in range(0, 3) for j in range(0, 3)
                        if i + j <= L]}
        expected = {theorem: list(cell_counts(theorem, cells)) for theorem, cells in grids.items()}

        def enumerates(*args, **kwargs):
            raise AssertionError("a census enumerated its partitions")

        for target in ("qschur.theorems.color_counts", "qschur.theorems.iter_type1_dilated",
                       "qschur.partitions._gap_walk"):
            monkeypatch.setattr(target, enumerates)
        for theorem, cells in grids.items():
            assert list(cell_counts(theorem, cells)) == expected[theorem], theorem

    @pytest.mark.parametrize("pairs", [
        [(L, M) for L in range(0, 13) for M in range(0, 13)], [(6, 16), (16, 6)]],
        ids=["L,M<=12", "wide"])
    def test_rows_cut_at_XY_are_whole_and_equal(self, pairs):
        # every partition a domain pair reads has at most X parts of weight
        # at most Y, and the left side has degree at most XY: so the rows
        # cut at q^{XY} are whole polynomials, and equal rows prove T2 at
        # (L, M, i, j) for every n (each bucket is also checked against its
        # eq44 term, which then drops nothing either)
        for L, M in pairs:
            census = _Census(L * M, (L, M))
            for i in range(0, min(L, M) + 1):
                for j in range(0, min(L, M) - i + 1):
                    lhs, rhs, _ = census.rows(i, j)
                    assert lhs == rhs, (L, M, i, j)
                    assert _vector_gf(i, j, L, M).max_exp <= L * M, (L, M, i, j)

    def test_transfer_steps_end_at_the_transfer(self):
        steps = list(_transfer_steps(9, ONE, lambda b: b - 2, lambda b, below: below.shifted(b)))
        assert len(steps) == 10 and steps[0] == ONE
        assert steps[-1] == _transfer(9, ONE, lambda b: b - 2, lambda b, below: below.shifted(b))

    def test_grid_reports_are_the_single_cell_reports(self):
        # out of order, bound pairs interleaved: each run of one pair is
        # built on its own
        cells = [(n, i, j, L, M) for L, M in ((3, 5), (4, 2), (3, 5), (2, 2))
                 for n in (9, 0, 4, 13) for i in range(0, 2) for j in range(0, 2)]
        assert count_reports("T2", cells) == [check_theorem2(*cell) for cell in cells]
        cells = [(n, i, j, L, M) for L, M in ((2, 4), (3, 3)) for n in (20, 7, 30)
                 for i in range(0, 2) for j in range(0, 2)]
        assert count_reports("T3", cells) == [check_theorem3(*cell) for cell in cells]
        cells = [(n, i, j) for n in (12, 3, 25) for i in range(0, 4) for j in range(0, 3)]
        reports = count_reports("T1", cells)
        assert reports == [check_theorem1(*cell) for cell in cells]
        # the right side is read from its own row, the breakdown from the buckets'
        assert all(r.rhs_count == sum(r.breakdown.values()) for r in reports)
        with pytest.raises(ValueError, match="unknown theorem 'T9'"):
            count_reports("T9", [(3,)])

    def test_every_cell_is_checked_before_any_is_counted(self, monkeypatch):
        monkeypatch.setattr(theorems, "_Census", None)  # building one would raise
        monkeypatch.setattr(theorems, "classical_rows", None)
        with pytest.raises(ValueError, match=r"needs M >= L >= i\+j"):
            next(cell_counts("T3", [(3, 0, 0, 2, 2), (3, 1, 1, 2, 1)]))
        with pytest.raises(ValueError, match="n must be nonnegative"):
            next(cell_counts("S", [(2,), (-1,)]))
        with pytest.raises(ValueError, match="unknown theorem 'T4'"):
            next(cell_counts("T4", [(3,)]))

    def test_a_wrong_eq44_term_raises(self, monkeypatch):
        true_term = theorems._eq44_term
        monkeypatch.setattr(theorems, "_eq44_term", lambda L, M, i, j, t: (
            true_term(L, M, i, j, t) + qpow(5) if t == 1 else true_term(L, M, i, j, t)))
        with pytest.raises(InternalMismatch, match="k = 1"):
            count_reports("T2", [(5, 1, 1, 3, 4)])
        count_reports("T2", [(5, 1, 0, 3, 4)])  # no t = 1 term is read

    def test_a_wrong_eq26_term_raises(self, monkeypatch):
        true_term = theorems._limit_term
        monkeypatch.setattr(theorems, "_limit_term", lambda r, s, t, n_max: (
            true_term(r, s, t, n_max) + qpow(n_max) if (r, s, t) == (0, 2, 1) else
            true_term(r, s, t, n_max)))
        with pytest.raises(InternalMismatch, match="k = 1"):
            count_reports("T1", [(8, 1, 3)])

    def test_count_T1_to_60_in_under_two_seconds(self, capsys):
        start = time.perf_counter()
        assert main(["count", "T1", "--n", "0..60"]) == 0
        elapsed = time.perf_counter() - start
        out, _ = capsys.readouterr()
        assert out.endswith(" checks, 0 failed\n")
        assert elapsed < 2.0


class TestClassicalTheorems:
    def test_schur_values(self):
        reports = check_schur(9)
        assert len(reports) == 10
        assert reports[9].lhs_count == 3 and reports[9].holds
        assert reports[0].lhs_count == 1

    def test_goellnitz_values(self):
        reports = check_goellnitz(10)
        assert reports[10].lhs_count == 2 and all(r.holds for r in reports)

    def test_the_checks_are_the_grid_reports(self):
        # out of order and repeated: each cell reads the rows of the largest n
        cells = [(7,), (0,), (12,), (7,)]
        for theorem, check in (("S", check_schur), ("G", check_goellnitz)):
            reports = count_reports(theorem, cells)
            assert reports == [check(12)[n] for (n,) in cells]
            assert [r.params for r in reports] == [{"n": n} for (n,) in cells]
            assert count_reports(theorem, []) == []
            with pytest.raises(ValueError, match="^n must be nonnegative$"):
                check(-1)

    def test_both_theorems_hold_to_400_in_under_a_second(self):
        start = time.perf_counter()
        schur, goellnitz = check_schur(400), check_goellnitz(400)
        elapsed = time.perf_counter() - start
        assert all(r.holds for r in schur + goellnitz)
        assert [len(schur), len(goellnitz)] == [401, 401]
        # frozen values at n = 400
        assert schur[400].lhs_count == 19507588976
        assert goellnitz[400].lhs_count == 271659146
        assert elapsed < 1.0

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak resident set from /proc")
    def test_both_theorems_hold_to_1500_in_bounded_memory(self):
        # a fresh interpreter, so the peak is this check's alone.  VmHWM,
        # not ru_maxrss: a child's ru_maxrss keeps the peak of the process
        # that spawned it, here the whole test session's
        script = ("import re\n"
                  "from qschur.theorems import check_goellnitz, check_schur\n"
                  "reports = check_schur(1500) + check_goellnitz(1500)\n"
                  "assert len(reports) == 3002 and all(r.holds for r in reports)\n"
                  "status = open('/proc/self/status').read()\n"
                  "print(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert int(proc.stdout) / 1024 < 48

    def test_a_decreasing_next_bound_raises(self):
        # b = 4 would read S[0] after S[0..1] were dropped at b = 3
        with pytest.raises(ValueError, match="decreases at 4"):
            _transfer(6, ONE, lambda b: b - 1 if b < 4 else 0,
                      lambda b, below: below.shifted(b))

    def test_schur_is_the_marginal_dilated_image(self):
        # total gap partitions of n equal colored gap partitions of the
        # preimage weight classes: sum over (i, j) of the S-side counts
        from qschur.partitions import schur_counts
        for n in range(0, 21):
            # a dilated weight of n needs a weight of at most n
            colored = sum(1 for w in range(0, n + 1) for parts in iter_type1(w)
                          if sum(p.dilated for p in parts) == n)
            assert colored == schur_counts(n)[1]


class TestSerialization:
    def test_json_dict(self):
        report = check_theorem1(3, 1, 1)
        data = report.to_json_dict()
        assert data["holds"] is True
        assert data["breakdown"] == {"1,1,0": 1, "0,0,1": 1}
        json.dumps(data)

    def test_csv(self):
        reports = [check_theorem1(3, 1, 1), check_theorem2(3, 1, 1, 2, 2)]
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "theorem,n,i,j,L,M,lhs,rhs,holds"
        assert lines[1].startswith("T1,3,1,1,,")
        assert lines[2].startswith("T2,3,1,1,2,2")
