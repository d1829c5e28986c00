"""End-to-end count equalities binding the enumerators to the theorems.

Each check pairs a closed-form left side with a counted census of gap
partitions on the right, and reports both totals plus the per-bucket
breakdown.  T1's left side is q^{T_i+T_j} / ((q)_i (q)_j), the pairs of
i distinct a-parts and j distinct b-parts; T2's and T3's is count_V's
product q^{T_i+T_j} [M-j; i] [L; j].

Censuses are counted, not enumerated.  Markers (A, B, C) count the a-,
b- and ab-parts, q the weight, and every series is cut at the largest
weight read.  D_w, the gap partitions whose parts all weigh at most w,
are prefixes of one transfer over dilated values
(``partitions.gap_prefixes``).  T1's census is D_{n_max}.

T2's census splits at the boundary statistic's empty weight.  The
statistic is taken at (X, Y, bounded colors) = (L, M, {b}) when M >= L
and (M, L, {a, ab}) when L > M; the census caps the bounded colors at X
and the others at Y.  A gap partition within the caps has statistic l
exactly when

  (i) its parts of weight >= X-l+2 are exactly l parts, all of unbounded
      colors;
 (ii) no part has weight X-l+1;
(iii) every other part weighs at most X-l.

Proof: the statistic asks for exactly l parts in [X-l+2, Y], none at
X-l+1 and the bounded colors at most X-l.  Under the caps no part
exceeds Y, and a bounded part of weight X-l+2 or more would break the
last condition, so (i)-(iii) follow; conversely (i)-(iii) give the three
conditions and the caps, since X-l <= X <= Y.  Weights on either side of
the empty weight X-l+1 differ by at least 2, so the dilated values
differ by at least 4, which meets every gap condition: the two sides are
independent.  So bucket l is the product U_l D_{X-l}, where U_l counts
the sets of exactly l parts of unbounded colors with weights in
[X-l+2, Y] and Schur's gaps (a short walk), and D_{X-l} is the empty
partition alone when X-l <= 0.

The split counts a partition once for each l that fits, so uniqueness
of the statistic is not asserted partition by partition; one cross-check
per census stands in its place, and a failure raises InternalMismatch,
as build_GL does.  For T2, on its domain min(L, M) >= i+j and in both
regimes, the buckets (i-t, j-t, t, l) summed over l equal eq44's k = t
term, q^{T_{i+j-t}+T_t} [M-i-j+t; t] [M-j; i-t] [L-i; j-t], up to the
cut; a partition counted under two statistics would exceed it.  For T1
the bucket (r, s, t) equals eq26's k = t term,
q^{T_{r+s+t}+T_t} / ((q)_r (q)_s (q)_t).  So each census bucket is one
term of the k-sum of the key identity.

The dilated refinement T3 is T2 read through the dilation a_n -> 3n-2,
b_n -> 3n-1, ab_n -> 3n-3: it takes a gap partition of weight n with
color counts (r, s, t) to a Schur-gap partition of 3n-2r-s-3t, so every
count of dilated weight N with r+t = i and s+t = j sits at the one
weight (N+2i+j)/3.

``cell_counts`` checks a grid of cells and yields each cell's two
sides: it builds each census once, up to the largest weight read (T1's
once, T2's and T3's once per run of cells with one bound pair, dropped
after the run), and decodes each pair's two sides once, into rows; the
right side is the sum of the pair's buckets.  S and G cells read
``classical_rows`` once.  A cell's breakdown is read from the buckets
only where a report is asked for: ``count_reports`` (behind
``check_schur`` and ``check_goellnitz``) and ``check_theorem1/2/3`` build
one ``CountReport`` per cell with it, while the ``count`` command writes its
text and CSV straight from the counts.  A single-cell check reads a
census cut at a power of two, of which the last few are kept.  The
enumerated censuses (``_type1_census``, ``_s_census``,
``_s_census_mirrored``, ``_g3_census``, ``_vector_census``) are the
reference the counted ones are tested against; no check reads them.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .coefficients import triangular
from .identities import InternalMismatch, _inv_poch_product, _rows
from .partitions import (
    _schur_next_bound,
    _vector_gf,
    classical_rows,
    color_counts,
    count_V,
    gap_prefixes,
    iter_type1_dilated,
    scan_statistic,
)
from .qseries import ZERO, LaurentPoly, MarkerSeries, Truncation

__all__ = [
    "THEOREMS",
    "CountReport",
    "cell_counts",
    "check_goellnitz",
    "check_schur",
    "check_theorem1",
    "check_theorem2",
    "check_theorem3",
    "count_reports",
    "counts_to_csv",
    "reports_to_csv",
]

# the parameters of each theorem's cells, in cell order
THEOREMS = {"S": ("n",), "T1": ("n", "i", "j"), "T2": ("n", "i", "j", "L", "M"),
            "T3": ("n", "i", "j", "L", "M"), "G": ("n",)}


@dataclass(frozen=True)
class CountReport:
    theorem: str
    params: dict
    lhs_count: int
    rhs_count: int
    breakdown: dict = field(default_factory=dict)

    @classmethod
    def from_count(cls, theorem: str, count: tuple) -> "CountReport":
        """The report of one item of ``cell_counts(theorem, ...)``, its
        breakdown each census bucket read at the cell's weight."""
        cell, lhs, rhs, m, buckets = count
        return cls(theorem, dict(zip(THEOREMS[theorem], cell)), lhs, rhs,
                   {key: c for key, poly in buckets if (c := poly.coeff(m))})

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


def counts_to_csv(param_names: Sequence[str], rows: Iterable[tuple]) -> str:
    """Render (theorem, parameter values, lhs, rhs) rows as CSV, one column
    per name in ``param_names``, then lhs, rhs and holds."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theorem", *param_names, "lhs", "rhs", "holds"])
    writer.writerows((theorem, *params, lhs, rhs, lhs == rhs)
                     for theorem, params, lhs, rhs in rows)
    return buf.getvalue()


def reports_to_csv(reports: list[CountReport]) -> str:
    """Render reports as CSV with one parameter column each."""
    names = list(dict.fromkeys(name for r in reports for name in r.params))
    return counts_to_csv(names, ((r.theorem, [r.params.get(p, "") for p in names],
                                  r.lhs_count, r.rhs_count) for r in reports))


# --------------------------------------------------------------------------
# counted censuses


def _row(poly: LaurentPoly) -> dict[int, int]:
    """The nonzero coefficients of ``poly`` by exponent, decoded once."""
    return dict(poly.terms())


def _upper_sets(X: int, Y: int, residues: tuple[int, ...], n_max: int) -> dict:
    """l -> U_l: the sets of exactly l parts whose dilated values have a
    residue mod 3 in ``residues`` and whose weights lie in [X-l+2, Y], with
    Schur's gaps, by q^weight and the (a, b, ab)-part markers, cut at
    q^n_max.  One walk down from the largest value of weight Y: a set whose
    least weight w and size l have w + l >= X+2 is in U_l, and adding a
    smaller part lowers w by at least 1 as it raises l by 1, so a set that
    fails has no extension that passes."""
    counts: Counter = Counter()

    def extend(bound: int, l: int, weight: int, values: tuple[int, ...]):
        counts[l, color_counts(values), weight] += 1
        for d in range(bound, 0, -1):
            w = d // 3 + 1
            if w + l + 1 < X + 2:
                break
            if d % 3 in residues and weight + w <= n_max:
                extend(_schur_next_bound(d), l + 1, weight + w, values + (d,))

    extend(3 * Y - 1, 0, 0, ())
    polys: dict = {}
    for (l, markers, weight), c in counts.items():
        polys.setdefault(l, {}).setdefault(markers, {})[weight] = c
    return {l: MarkerSeries(3, {m: LaurentPoly(p) for m, p in by_markers.items()},
                            Truncation(None, n_max))
            for l, by_markers in sorted(polys.items())}


def _split(L: int, M: int, n_max: int,
           prefixes: list[MarkerSeries]) -> list[tuple[int, MarkerSeries]]:
    """(l, U_l * D_{X-l}) for every l with U_l nonzero, in ascending l: the
    bucket l of the bound pair's census, by q^weight and the (a, b,
    ab)-part markers, cut at q^n_max.  ``prefixes`` holds D_0, ..., D_X,
    X = min(L, M)."""
    X, Y, residues = (L, M, (1, 0)) if M >= L else (M, L, (2,))
    return [(l, upper * prefixes[max(X - l, 0)])
            for l, upper in _upper_sets(X, Y, residues, n_max).items()]


def _eq44_term(L: int, M: int, i: int, j: int, t: int) -> LaurentPoly:
    """The k = t term of eq44's k-sum, q^{T_{i+j-t}+T_t} [M-i-j+t; t]
    [M-j; i-t] [L-i; j-t]: its factors from the k-sum's rows."""
    head, c = (row[t] for row in _rows(L, M, i, j))
    if not (head and c):
        return ZERO
    return (head * c).shifted(triangular(i + j - t) + triangular(t))


def _limit_term(r: int, s: int, t: int, n_max: int) -> LaurentPoly:
    """q^{T_{r+s+t}+T_t} / ((q)_r (q)_s (q)_t), cut at q^n_max: the k = t
    term of eq26's k-sum at i = r+t, j = s+t."""
    return _inv_poch_product((r, s, t), n_max, triangular(r + s + t) + triangular(t))


class _Census:
    """T1's census, every gap partition of weight <= n_max, or the buckets
    of the bound pair ``bounds`` = (L, M), cut at q^n_max.  A pair (i, j)
    is decoded into rows, and checked against its k-sum terms, on its
    first read."""

    def __init__(self, n_max: int, bounds: tuple[int, ...] = (),
                 prefixes: Optional[list[MarkerSeries]] = None):
        self.n_max, self.bounds, self._pairs = n_max, bounds, {}
        if not bounds:
            for census in gap_prefixes(n_max, n_max):
                pass
            self.buckets = [(None, census)]
        else:
            if prefixes is None:
                prefixes = list(gap_prefixes(min(bounds), n_max))
            self.buckets = _split(*bounds, n_max, prefixes)

    def rows(self, i: int, j: int) -> tuple[dict, dict, list]:
        """(left row, right row, [(bucket, series)]) of the pair (i, j),
        buckets by t and then l, each a series in q; a row maps a weight to
        its nonzero count, and the right row is the buckets' sum.  The
        buckets summed over l must equal the k = t term of eq26 (T1) or of
        eq44 (T2) up to q^n_max, else InternalMismatch.  The left side is
        q^{T_i+T_j} / ((q)_i (q)_j) for T1 and count_V's product for T2."""
        if (i, j) in self._pairs:
            return self._pairs[i, j]
        n_max, bounds, breakdown, rhs = self.n_max, self.bounds, [], ZERO
        for t in range(0, min(i, j) + 1):
            key, total = (i - t, j - t, t), ZERO
            for l, series in self.buckets:
                poly = series.coeff(key)
                if poly:
                    breakdown.append(((*key, l) if bounds else key, poly))
                    total = total + poly
            term = _eq44_term(*bounds, i, j, t) if bounds else _limit_term(*key, n_max)
            if total != term.truncated(n_max):
                raise InternalMismatch(
                    f"census and k-sum term k = {t} disagree at (i, j) = ({i}, {j}), "
                    f"bounds {bounds}, up to q^{n_max}")
            rhs = rhs + total
        lhs = (_vector_gf(i, j, *bounds).truncated(n_max) if bounds else
               _inv_poch_product((i, j), n_max, triangular(i) + triangular(j)))
        rows = self._pairs[i, j] = (_row(lhs), _row(rhs), breakdown)
        return rows


# --------------------------------------------------------------------------
# enumerated censuses: the reference the counted ones are tested against


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


def _weight(theorem: str, cell: tuple[int, ...]) -> Optional[int]:
    """The weight a cell's counts are read at, once the cell is in the
    theorem's domain: n, or for T3 the undilated weight (n+2i+j)/3, None
    when 3 does not divide n+2i+j."""
    if theorem in ("S", "G"):
        (n,) = cell
        if n < 0:
            raise ValueError("n must be nonnegative")
        return n
    if theorem == "T1":
        n, i, j = cell
    else:
        n, i, j, L, M = cell
    if min(n, i, j) < 0:
        raise ValueError("n, i, j must be nonnegative")
    if theorem == "T1":
        return n
    if theorem == "T2":
        if min(L, M) < i + j:
            raise ValueError("needs min(L, M) >= i+j")
        return n
    if not (M >= L >= i + j):
        raise ValueError("needs M >= L >= i+j")
    m, rest = divmod(n + 2 * i + j, 3)
    return None if rest else m


def _count(census: Optional[_Census], cell: tuple[int, ...], m: Optional[int]) -> tuple:
    """The count of ``cell`` read from ``census`` at the weight m (None:
    both sides are 0, and no census is read)."""
    if m is None:
        return cell, 0, 0, None, ()
    lhs, rhs, buckets = census.rows(cell[1], cell[2])
    return cell, lhs.get(m, 0), rhs.get(m, 0), m, buckets


def cell_counts(theorem: str, cells: Iterable[tuple[int, ...]]) -> Iterator[tuple]:
    """(cell, lhs, rhs, weight, buckets) for each cell of ``theorem``, in the
    cells' order: the cell, whose parameters ``THEOREMS[theorem]`` names,
    both sides of its count, and what its breakdown is read from, the
    weight read (None for a T3 cell whose sides are 0) and the pair's
    census buckets [(bucket, series)] (none for S and G).  Every cell is checked
    against the theorem's domain before any is counted.  S and G read
    ``classical_rows`` once, up to the largest n.  Each census is built
    once, up to the largest weight read: for T1 once for all cells, for T2
    and T3 once per run of cells with one bound pair, and dropped after the
    run; the gap prefixes D_w are built once for all cells."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}")
    reads = [(cell, _weight(theorem, cell)) for cell in map(tuple, cells)]
    n_max = max((m for _, m in reads if m is not None), default=0)
    if theorem in ("S", "G"):
        rows = classical_rows(theorem, n_max)
        for cell, n in reads:
            yield (cell, *rows[n], n, ())
        return
    prefixes = None if theorem == "T1" else list(gap_prefixes(
        max((min(cell[3:]) for cell, _ in reads), default=0), n_max))
    for bounds, run in itertools.groupby(reads, key=lambda read: read[0][3:]):
        run = list(run)
        census = _Census(max((m for _, m in run if m is not None), default=0), bounds, prefixes)
        for cell, m in run:
            yield _count(census, cell, m)


def count_reports(theorem: str, cells: Iterable[tuple[int, ...]]) -> list[CountReport]:
    """The reports of S or G ((n,) cells), T1 ((n, i, j) cells) or T2 or T3
    ((n, i, j, L, M) cells), in the cells' order, read from ``cell_counts``."""
    return [CountReport.from_count(theorem, count) for count in cell_counts(theorem, cells)]


@lru_cache(maxsize=8)
def _cell_census(n_max: int, bounds: tuple[int, ...]) -> _Census:
    """The census a single-cell check reads, the last few kept."""
    return _Census(n_max, bounds)


def _check_cell(theorem: str, cell: tuple[int, ...]) -> CountReport:
    """One cell's report.  Its census is cut at the least power of two at
    or above the weight read, so a loop over growing n builds O(log n)
    censuses per bound pair; a cell whose sides are 0 reads none."""
    m = _weight(theorem, cell)
    census = None if m is None else _cell_census(1 << (max(m, 1) - 1).bit_length(), cell[3:])
    return CountReport.from_count(theorem, _count(census, cell, m))


def check_theorem1(n: int, i: int, j: int) -> CountReport:
    """Unbounded refinement: vector-partition count V(n; i, j) equals the
    gap-partition count summed over color splits r+t = i, s+t = j."""
    return _check_cell("T1", (n, i, j))


def check_theorem2(n: int, i: int, j: int, L: int, M: int) -> CountReport:
    """Double-bounded refinement, for min(L, M) >= i+j.

    The right side sums the bucketed counts over r+t = i, s+t = j and the
    boundary statistic l: at the bound L when M >= L, and otherwise at the
    bound M, with the two bounds' roles swapped per the mirrored statement.
    """
    return _check_cell("T2", (n, i, j, L, M))


def check_theorem3(n: int, i: int, j: int, L: int, M: int) -> CountReport:
    """Dilated double-bounded refinement, for M >= L >= i+j.

    The dilation takes the vector partitions of m = (n+2i+j)/3 to the
    partitions of n into i distinct parts = 1 mod 3, each <= 3(M-j)-2, and
    j distinct parts = 2 mod 3, each <= 3L-1, and the gap partitions of m
    with r+t = i, s+t = j to the Schur-gap partitions of n, so both sides
    are read at m; both are 0 when 3 does not divide n+2i+j.
    """
    return _check_cell("T3", (n, i, j, L, M))


def check_schur(n_max: int) -> list[CountReport]:
    """Classical two-residue theorem checked for every n <= n_max."""
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    return count_reports("S", [(n,) for n in range(0, n_max + 1)])


def check_goellnitz(n_max: int) -> list[CountReport]:
    """Three-residue difference theorem checked for every n <= n_max."""
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    return count_reports("G", [(n,) for n in range(0, n_max + 1)])
