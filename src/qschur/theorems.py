"""End-to-end count equalities binding the enumerators to the theorems.

Each check pairs a closed-form left side, the vector partitions counted
as one coefficient of a q-binomial product (``partitions.count_V``), with
the enumerated, bucketed gap-partition counts on the right, and reports
both totals plus the per-bucket breakdown.

The bucketed counts are built through cached censuses, one per bound
pair and exact weight n: a single enumeration of the gap partitions of n
classifies each by its color counts and its boundary statistic, and all
later lookups at that n are O(1).  The double-bounded census is the one
bounded census, and the dilated refinement is the double-bounded one read
through the dilation a_n -> 3n-2, b_n -> 3n-1, ab_n -> 3n-3: it takes a
gap partition of weight n with color counts (r, s, t) to a Schur-gap
partition of 3n-2r-s-3t, so every count of dilated weight N with r+t = i
and s+t = j sits at the one weight (N+2i+j)/3.  Every census buckets
through the shared scan ``partitions.scan_statistic``, which asserts the
statistic's uniqueness on each partition it classifies.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .partitions import (
    classical_rows,
    color_counts,
    count_V,
    iter_type1_dilated,
    scan_statistic,
)

__all__ = [
    "CountReport",
    "check_goellnitz",
    "check_schur",
    "check_theorem1",
    "check_theorem2",
    "check_theorem3",
    "reports_to_csv",
]


@dataclass(frozen=True)
class CountReport:
    theorem: str
    params: dict
    lhs_count: int
    rhs_count: int
    breakdown: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.lhs_count == self.rhs_count

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": dict(self.params),
            "lhs": self.lhs_count,
            "rhs": self.rhs_count,
            "holds": self.holds,
            "breakdown": {",".join(map(str, k)): v for k, v in self.breakdown.items()},
        }


def reports_to_csv(reports: list[CountReport]) -> str:
    """Render reports as CSV with one parameter column each."""
    param_names: list[str] = []
    for r in reports:
        for name in r.params:
            if name not in param_names:
                param_names.append(name)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem", *param_names, "lhs", "rhs", "holds"])
    for r in reports:
        writer.writerow([r.theorem,
                         *(r.params.get(p, "") for p in param_names),
                         r.lhs_count, r.rhs_count, r.holds])
    return buf.getvalue()


# --------------------------------------------------------------------------
# censuses


@lru_cache(maxsize=None)
def _vector_census(n: int) -> dict:
    """(i, j) -> number of pairs of i distinct a-parts and j distinct
    b-parts of total weight n: count_V with bounds no part can reach."""
    out: dict[tuple[int, int], int] = {}
    for i in range(0, n + 1):
        if i * (i + 1) // 2 > n:
            break
        for j in range(0, n + 1):
            if i * (i + 1) // 2 + j * (j + 1) // 2 > n:
                break
            total = count_V(n, i, j, n, n + j)
            if total:
                out[(i, j)] = total
    return out


@lru_cache(maxsize=None)
def _type1_census(n: int) -> Counter:
    """(r, s, t) -> number of gap partitions of n by color counts."""
    return Counter(map(color_counts, iter_type1_dilated(n)))


def _bucket_census(stream: Iterable[tuple[int, ...]],
                   X: int, Y: int, bounded_colors: tuple[str, ...]) -> Counter:
    """(r, s, t, l) -> number of the partitions in ``stream`` (tuples of
    dilated values) whose boundary statistic at (X, Y, bounded_colors) is
    l; partitions where no l fits are outside every bucket."""
    out: Counter = Counter()
    for parts in stream:
        l = scan_statistic(parts, X, Y, bounded_colors)
        if l is not None:
            out[(*color_counts(parts), l)] += 1
    return out


@lru_cache(maxsize=None)
def _s_census(L: int, M: int, n: int) -> Counter:
    """Bounded gap-partition counts of n for the regime M >= L: a,ab-parts
    <= M, b-parts <= L-l, bucket l the boundary statistic at the bound L."""
    stream = iter_type1_dilated(n, a_max=M, b_max=min(L, M), ab_max=M)
    return _bucket_census(stream, L, M, ("b",))


@lru_cache(maxsize=None)
def _s_census_mirrored(L: int, M: int, n: int) -> Counter:
    """The regime L >= M with the bounds' roles swapped: b-parts <= L,
    a,ab-parts <= M-m, bucket m the boundary statistic at the bound M."""
    stream = iter_type1_dilated(n, a_max=min(L, M), b_max=L, ab_max=min(L, M))
    return _bucket_census(stream, M, L, ("a", "ab"))


@lru_cache(maxsize=None)
def _g3_census(L: int, M: int, N: int) -> Counter:
    """Bounded Schur-gap counts of the dilated weight N: the _s_census
    buckets of every weight n whose dilated images weigh N.  A dilated
    value is at most three times its weight and at least the weight."""
    out: Counter = Counter()
    for n in range(-(-N // 3), N + 1):
        for (r, s, t, l), c in _s_census(L, M, n).items():
            if 3 * n - 2 * r - s - 3 * t == N:
                out[(r, s, t, l)] += c
    return out


# --------------------------------------------------------------------------
# theorem checks


def check_theorem1(n: int, i: int, j: int) -> CountReport:
    """Unbounded refinement: vector-partition count V(n; i, j) equals the
    gap-partition count summed over color splits r+t = i, s+t = j."""
    if min(n, i, j) < 0:
        raise ValueError("n, i, j must be nonnegative")
    lhs = _vector_census(n).get((i, j), 0)
    breakdown = {}
    rhs = 0
    census = _type1_census(n)
    for t in range(0, min(i, j) + 1):
        r, s = i - t, j - t
        c = census.get((r, s, t), 0)
        if c:
            breakdown[(r, s, t)] = c
            rhs += c
    return CountReport("T1", dict(n=n, i=i, j=j), lhs, rhs, breakdown)


def _buckets(census: Counter, i: int, j: int) -> dict:
    """The nonzero (r, s, t, l) buckets of ``census`` with r+t = i and
    s+t = j, by t and then l.  Since l parts lie in the statistic's
    interval, l <= r+s+t."""
    breakdown = {}
    for t in range(0, min(i, j) + 1):
        for l in range(0, i + j - t + 1):
            c = census.get((i - t, j - t, t, l), 0)
            if c:
                breakdown[(i - t, j - t, t, l)] = c
    return breakdown


def check_theorem2(n: int, i: int, j: int, L: int, M: int) -> CountReport:
    """Double-bounded refinement, for min(L, M) >= i+j.

    The right side sums the bucketed counts over r+t = i, s+t = j and the
    boundary statistic l: at the bound L when M >= L, and otherwise at the
    bound M, with the two bounds' roles swapped per the mirrored statement.
    """
    if min(n, i, j) < 0:
        raise ValueError("n, i, j must be nonnegative")
    if min(L, M) < i + j:
        raise ValueError("needs min(L, M) >= i+j")
    census = _s_census(L, M, n) if M >= L else _s_census_mirrored(L, M, n)
    breakdown = _buckets(census, i, j)
    return CountReport("T2", dict(n=n, i=i, j=j, L=L, M=M), count_V(n, i, j, L, M),
                       sum(breakdown.values()), breakdown)


def check_theorem3(n: int, i: int, j: int, L: int, M: int) -> CountReport:
    """Dilated double-bounded refinement, for M >= L >= i+j.

    The dilation takes the vector partitions of m = (n+2i+j)/3 to the
    partitions of n into i distinct parts = 1 mod 3, each <= 3(M-j)-2, and
    j distinct parts = 2 mod 3, each <= 3L-1, and the gap partitions of m
    with r+t = i, s+t = j to the Schur-gap partitions of n, so both sides
    are read at m; both are 0 when 3 does not divide n+2i+j.
    """
    if min(n, i, j) < 0:
        raise ValueError("n, i, j must be nonnegative")
    if not (M >= L >= i + j):
        raise ValueError("needs M >= L >= i+j")
    lhs, breakdown = 0, {}
    m, rest = divmod(n + 2 * i + j, 3)
    if not rest:
        lhs, breakdown = count_V(m, i, j, L, M), _buckets(_s_census(L, M, m), i, j)
    return CountReport("T3", dict(n=n, i=i, j=j, L=L, M=M), lhs,
                       sum(breakdown.values()), breakdown)


def _classical(theorem: str, n_max: int) -> list[CountReport]:
    """The distinct side then the gap side of ``theorem``, for every n <= n_max."""
    return [CountReport(theorem, dict(n=n), *row)
            for n, row in enumerate(classical_rows(theorem, n_max))]


def check_schur(n_max: int) -> list[CountReport]:
    """Classical two-residue theorem checked for every n <= n_max."""
    return _classical("S", n_max)


def check_goellnitz(n_max: int) -> list[CountReport]:
    """Three-residue difference theorem checked for every n <= n_max."""
    return _classical("G", n_max)
