"""Colored integers, gap-condition partitions, counters and Durfee splits.

Integers occur in two primary colors a, b and one secondary color ab
(the integer 1 only in primary colors).  Each symbol is encoded by its
dilated value, a_n -> 3n-2, b_n -> 3n-1, ab_n -> 3n-3: a bijection onto
the positive integers whose natural order is the symbol order

    a1 < b1 < ab2 < a2 < b2 < ab3 < a3 < b3 < ...

The value d has color ("ab", "a", "b")[d % 3] and weight d // 3 + 1.  A
gap partition ("Type 1") is a decreasing sequence of symbols whose
consecutive weights differ by at least 1, and by at least 2 whenever the
larger part is colored ab, or the larger is colored a and the smaller b.
On dilated values this is Schur's gap condition, the one test used here
(``_schur_next_bound``): parts differ by at least 3, strictly when the
larger is a multiple of 3.  Gap partitions and Schur-gap partitions are
thus the same value sequences, graded by weight and by value; one
recursion enumerates both.  A ColoredPartition stores only its dilated
values, so symbols are built only at the API, text and JSON boundary.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from functools import lru_cache, total_ordering
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .coefficients import qbinom, triangular
from .qseries import ONE, LaurentPoly, MarkerSeries, Truncation

__all__ = [
    "COLORS",
    "ColoredPartition",
    "ColoredSymbol",
    "DurfeeDecomposition",
    "NoRectangle",
    "NoValidStatistic",
    "color_counts",
    "count_V",
    "durfee_decompose",
    "goellnitz_counts",
    "is_type1",
    "iter_type1",
    "iter_type1_dilated",
    "nu_statistics",
    "schur_counts",
]

COLORS = ("a", "b", "ab")
_COLOR_OF_RESIDUE = ("ab", "a", "b")  # the color of a dilated value d, by d % 3


class NoValidStatistic(ValueError):
    """No boundary statistic fits: the input is outside the theorem's class."""


class NoRectangle(ValueError):
    """No Durfee rectangle with the required row/column offset exists."""


@total_ordering
@dataclass(frozen=True, slots=True)
class ColoredSymbol:
    """The integer ``weight`` carrying one of the colors a, b, ab.

    ``dilated`` is the symbol's image as an ordinary integer, a_n -> 3n-2,
    b_n -> 3n-1, ab_n -> 3n-3, and symbols compare by ``rank``, the same
    value plus 3.
    """

    color: str
    weight: int
    dilated: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.color not in COLORS:
            raise ValueError(f"unknown color {self.color!r}")
        if self.weight < 1:
            raise ValueError("weight must be a positive integer")
        if self.color == "ab" and self.weight < 2:
            raise ValueError("the integer 1 occurs only in primary colors")
        residue = _COLOR_OF_RESIDUE.index(self.color)
        object.__setattr__(self, "dilated", 3 * self.weight - 3 + residue)

    @classmethod
    @lru_cache(maxsize=None)
    def from_dilated(cls, value: int) -> "ColoredSymbol":
        """The symbol whose dilated value is the positive integer ``value``."""
        return cls(_COLOR_OF_RESIDUE[value % 3], value // 3 + 1)

    @property
    def rank(self) -> int:
        """Position in the total symbol order: the dilated value plus 3."""
        return self.dilated + 3

    def __lt__(self, other: "ColoredSymbol") -> bool:
        return self.rank < other.rank

    def __str__(self) -> str:
        return f"{self.color}{self.weight}"

    _PARSE = re.compile(r"^(ab|a|b)(\d+)$")

    @classmethod
    def parse(cls, text: str) -> "ColoredSymbol":
        m = cls._PARSE.match(text.strip())
        if m is None:
            raise ValueError(f"cannot parse colored symbol {text!r}")
        return cls(m.group(1), int(m.group(2)))


class ColoredPartition:
    """A strictly decreasing (by rank) sequence of colored symbols, stored
    as its dilated values; ``parts`` builds the symbols on read.

    Besides gap partitions this also represents the distinct-part vector
    partition components (all-a or all-b).  The text form joins symbols
    with '+' in decreasing order, e.g. ``ab12+ab10+b7+b6+a5+ab4+b2+a1``;
    the empty partition renders as a lone '∅'.
    """

    __slots__ = ("_values",)

    def __init__(self, parts: Iterable[ColoredSymbol] = ()):
        values = tuple(sorted((s.dilated for s in parts), reverse=True))
        if len(set(values)) < len(values):
            raise ValueError("parts must be strictly decreasing in the symbol order")
        self._values = values

    # -- construction -------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "ColoredPartition":
        """Parse '+'-joined symbols in any order ('∅', '-', or '' is empty)."""
        body = text.strip()
        if body in ("", "-", "0", "∅", "empty"):
            return cls(())
        return cls(ColoredSymbol.parse(tok) for tok in body.split("+"))

    @classmethod
    def colored(cls, color: str, weights: Iterable[int]) -> "ColoredPartition":
        """All parts in one color; used for the vector-partition components."""
        if color not in COLORS:
            raise ValueError(f"unknown color {color!r}")
        residue = _COLOR_OF_RESIDUE.index(color)
        values = [3 * w - 3 + residue for w in weights]
        floor = 3 + residue if color == "ab" else residue  # the value of weight 2, or of 1
        if values and min(values) < floor:
            for d in values:
                if d < floor:  # the first weight a symbol rejects raises its error
                    ColoredSymbol(color, (d - residue) // 3 + 1)
        values.sort(reverse=True)
        if len(set(values)) < len(values):
            raise ValueError("parts must be strictly decreasing in the symbol order")
        return cls._of_values(values)

    @classmethod
    def _of_values(cls, values: Sequence[int]) -> "ColoredPartition":
        """Trusted: ``values`` strictly decrease."""
        self = cls.__new__(cls)
        self._values = tuple(values)
        return self

    @property
    def parts(self) -> tuple[ColoredSymbol, ...]:
        """The symbols, decreasing; interned, built on each read."""
        return tuple(map(ColoredSymbol.from_dilated, self._values))

    # -- statistics ----------------------------------------------------------

    @property
    def sigma(self) -> int:
        """Total weight: the sum of the part weights."""
        return sum(d // 3 + 1 for d in self._values)

    def dilated(self) -> tuple[int, ...]:
        """The ordinary-integer image of each part (decreasing)."""
        return self._values

    # -- plumbing -------------------------------------------------------------

    def __iter__(self) -> Iterator[ColoredSymbol]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        return isinstance(other, ColoredPartition) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __str__(self) -> str:
        return "+".join(map(str, self.parts)) if self._values else "∅"

    def __repr__(self) -> str:
        return f"ColoredPartition({self})"

    def to_json(self) -> list[dict]:
        return [{"color": p.color, "weight": p.weight} for p in self.parts]


def _schur_next_bound(d: int) -> int:
    """The largest dilated value allowed below the part d: Schur's gap of 3,
    strict when d is a multiple of 3."""
    return d - 3 - (1 if d % 3 == 0 else 0)


def is_type1(partition: ColoredPartition) -> bool:
    """Check the gap condition on every consecutive pair of parts."""
    values = partition.dilated()
    for upper, lower in zip(values, values[1:]):
        if lower > _schur_next_bound(upper):
            return False
    return True


def _gap_walk(n: int, caps: tuple[int, int, int],
              by_weight: bool) -> Iterator[tuple[int, ...]]:
    """Every decreasing sequence of dilated values with Schur's gaps whose
    grades sum to exactly n.  A value d is graded by its weight d // 3 + 1
    when ``by_weight``, else by d itself; values of residue r mod 3 are at
    most caps[r].  The stream is lexicographically decreasing."""
    def extend(budget: int, bound: int, prefix: tuple[int, ...]):
        if budget == 0:
            yield prefix
            return
        top = 3 * budget - 1 if by_weight else budget  # largest d of grade <= budget
        for d in range(min(bound, top), 0, -1):
            g = d // 3 + 1 if by_weight else d
            if g * (g + 1) // 2 < budget:
                return  # distinct grades <= g cannot fill the budget
            if d <= caps[d % 3]:
                yield from extend(budget - g, _schur_next_bound(d), prefix + (d,))

    yield from extend(n, max(caps), ())


def iter_type1_dilated(n: int,
                       a_max: Optional[int] = None,
                       b_max: Optional[int] = None,
                       ab_max: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Yield every gap partition of exactly n as its decreasing tuple of
    dilated values, in decreasing lexicographic order.

    The per-color arguments cap the weight of parts of that color.
    """
    # a weight cap w is the dilated cap 3(w-1) + r on the color's residue r
    caps = tuple(3 * (n if cap is None else cap) - 3 + r
                 for r, cap in enumerate((ab_max, a_max, b_max)))
    return _gap_walk(n, caps, by_weight=True)


def iter_type1(n: int,
               a_max: Optional[int] = None,
               b_max: Optional[int] = None,
               ab_max: Optional[int] = None) -> Iterator[tuple[ColoredSymbol, ...]]:
    """Yield every gap partition of exactly n.

    The per-color arguments cap the weight of parts of that color.  Parts
    come out in decreasing order and the stream is duplicate-free, ordered
    lexicographically by the rank sequence (largest first).
    """
    symbol_of = ColoredSymbol.from_dilated
    for values in iter_type1_dilated(n, a_max, b_max, ab_max):
        yield tuple(map(symbol_of, values))


def color_counts(parts: Iterable[int]) -> tuple[int, int, int]:
    """(r, s, t): the numbers of a-, b- and ab-parts among dilated values."""
    counts = [0, 0, 0]
    for d in parts:
        counts[d % 3] += 1
    return counts[1], counts[2], counts[0]


# --------------------------------------------------------------------------
# boundary statistics


def scan_statistic(parts: Sequence[int], X: int, Y: int,
                   bounded_colors: tuple[str, ...]) -> Optional[int]:
    """The boundary statistic of a partition given by its dilated values:
    the ell >= 0 such that exactly ell parts have weights in [X-ell+2, Y],
    no part has weight X-ell+1 and every part colored in
    ``bounded_colors`` has weight <= X-ell.

    Returns None when no ell fits and raises NoValidStatistic when more
    than one does.  nu_statistics and the enumerated reference censuses in
    ``qschur.theorems`` go through this one scan.
    """
    weights = [d // 3 + 1 for d in parts]
    top = len(weights)
    # the bounded colors cap ell at X minus their largest weight; with no
    # part of a bounded color there is no cap at all (in particular not X)
    for d, w in zip(parts, weights):
        if _COLOR_OF_RESIDUE[d % 3] in bounded_colors and X - w < top:
            top = X - w
    found = []
    inside = len([w for w in weights if X + 2 <= w <= Y])  # parts in [X-ell+2, Y]
    for ell in range(0, top + 1):
        edge = weights.count(X - ell + 1)
        if not edge and inside == ell:
            found.append(ell)
        if X - ell + 1 <= Y:
            inside += edge  # the interval for ell+1 starts at X-ell+1
    if len(found) > 1:
        raise NoValidStatistic(f"boundary statistic not unique: candidates {found}")
    return found[0] if found else None


def nu_statistics(partition: ColoredPartition, L: int, M: int) -> tuple[int, int]:
    """The pair (nu(L), nu(M)) of boundary statistics.

    nu(L) is 0 when L >= M; otherwise it is the unique ell with exactly
    ell parts in [L-ell+2, M], all b-parts <= L-ell and no part equal to
    L-ell+1.  nu(M) is symmetric with the roles of the bounds swapped and
    a,ab-parts in place of b-parts.  Raises NoValidStatistic when no (or
    no unique) ell fits, which flags an input outside the theorem's
    partition class.
    """
    values = partition.dilated()
    nu = []
    for X, Y, bounded_colors in ((L, M, ("b",)), (M, L, ("a", "ab"))):
        ell = 0 if X >= Y else scan_statistic(values, X, Y, bounded_colors)
        if ell is None:
            raise NoValidStatistic(
                f"no boundary statistic fits (bounds {X}, {Y}; partition {partition})")
        nu.append(ell)
    return nu[0], nu[1]


# --------------------------------------------------------------------------
# counting functions


@lru_cache(maxsize=None)
def _vector_gf(i: int, j: int, L: int, M: int) -> LaurentPoly:
    """q^{T_i+T_j} [max(M-j, 0); i] [max(L, 0); j]: i distinct parts <= M-j
    and j distinct parts <= L, each a staircase plus a box partition."""
    return (qbinom(max(M - j, 0), i) * qbinom(max(L, 0), j)).shifted(
        triangular(i) + triangular(j))


def count_V(n: int, i: int, j: int, L: int, M: int) -> int:
    """Vector partitions of n: i distinct a-parts <= M-j and j distinct
    b-parts <= L."""
    if n < 0 or i < 0 or j < 0:
        return 0
    return _vector_gf(i, j, L, M).coeff(n)


# -- ordinary-integer (dilated) enumerations --------------------------------


def iter_schur_gap(n: int, largest_cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of exactly n, parts <= largest_cap differing by >= 3 with
    strict inequality when the larger part is a multiple of 3, in
    decreasing lexicographic order: the gap partitions graded by their
    dilated values."""
    return _gap_walk(n, (largest_cap,) * 3, by_weight=False)


def _goellnitz_next_bound(p: int) -> int:
    return p - 6 - (1 if p % 6 in (0, 1, 3) else 0)


def _transfer_steps(top: int, one, next_bound: Callable[[int], int],
                    term: Callable) -> Iterator:
    """S[0], S[1], ..., S[top] by the transfer-matrix method (Stanley, EC1
    4.7): S[0] = one and S[b] = S[b-1] + term(b, S[max(next_bound(b), 0)]),
    where term is None when b may not occur.  Only S from the last bound
    read onward is kept, so next_bound must not decrease: a decrease raises
    ValueError."""
    kept, low = [one], 0  # S[low], ..., S[b-1]
    yield one
    for b in range(1, top + 1):
        read = max(next_bound(b), 0)
        if read < low:
            raise ValueError(f"next_bound decreases at {b}: {read} < {low}")
        del kept[:read - low]
        low, t = read, term(b, kept[0])
        kept.append(kept[-1] if t is None else kept[-1] + t)
        yield kept[-1]


def _transfer(top: int, one, next_bound: Callable[[int], int], term: Callable):
    """S[top] of _transfer_steps."""
    for last in _transfer_steps(top, one, next_bound, term):
        pass
    return last


def gap_series(L: int) -> MarkerSeries:
    """G_L, the gap partitions with parts <= b_L, by _transfer over dilated
    values d <= 3L-1 with the gap from _schur_next_bound: d adds q^(d//3+1)
    and one marker A per 'a', one B per 'b' in the name of its color."""
    def term(d: int, below: MarkerSeries) -> MarkerSeries:
        color = _COLOR_OF_RESIDUE[d % 3]
        return below.shifted(d // 3 + 1, (color.count("a"), color.count("b")))
    return _transfer(3 * L - 1, MarkerSeries.one(2), _schur_next_bound, term)


# the (a, b, ab)-part count of a dilated value d, by d % 3
_COLOR_MARKER = ((0, 0, 1), (1, 0, 0), (0, 1, 0))


def gap_prefixes(w_max: int, n_max: int) -> Iterator[MarkerSeries]:
    """D_0, D_1, ..., D_w_max: D_w counts the gap partitions whose parts
    all weigh at most w, with q^weight and markers (A, B, C) counting the
    a-, b- and ab-parts, cut at q^n_max.  One _transfer over dilated values
    d <= 3 w_max - 1, read at each d = 3w - 1, the largest value of weight w."""
    def term(d: int, below: MarkerSeries) -> MarkerSeries:
        return below.shifted(d // 3 + 1, _COLOR_MARKER[d % 3])
    steps = _transfer_steps(3 * w_max - 1, MarkerSeries.one(3, Truncation(None, n_max)),
                            _schur_next_bound, term)
    yield next(steps)
    yield from itertools.islice(steps, 1, None, 3)


# Each side of the two classical theorems as (modulus, residues, excluded,
# next_bound): a part p may occur when p % modulus is in residues and p is
# not in excluded, and the part below p is at most next_bound(p).  Per
# theorem: (distinct side, gap side).
_CLASSICAL_SIDES = {
    "S": ((3, (1, 2), (), lambda p: p - 1), (3, (0, 1, 2), (), _schur_next_bound)),
    "G": ((6, (2, 4, 5), (), lambda p: p - 1),
          (6, (0, 1, 2, 3, 4, 5), (1, 3), _goellnitz_next_bound)),
}


def classical_rows(theorem: str, n_max: int) -> list[tuple[int, ...]]:
    """(distinct side, gap side) of ``theorem`` for every n <= n_max, each
    side by _transfer: an allowed part b adds q^b, truncated at q^n_max.
    Each side is decoded once, into a dense row."""
    if n_max < 0:
        raise ValueError("n must be nonnegative")
    rows = []
    for modulus, residues, excluded, next_bound in _CLASSICAL_SIDES[theorem]:
        def term(b: int, below: LaurentPoly) -> Optional[LaurentPoly]:
            if b % modulus in residues and b not in excluded:
                return below.truncated(n_max - b).shifted(b)
        side = dict(_transfer(n_max, ONE, next_bound, term).terms())
        rows.append([side.get(n, 0) for n in range(0, n_max + 1)])
    return list(zip(*rows))


def schur_counts(n: int) -> tuple[int, int]:
    """Both sides of Schur's theorem at n: (distinct parts congruent to 1
    or 2 mod 3, gap partitions)."""
    return classical_rows("S", n)[n]


def goellnitz_counts(n: int) -> tuple[int, int]:
    """Both sides of the three-residue difference theorem at n: (distinct
    parts congruent to 2, 4 or 5 mod 6, gap-6 partitions avoiding 1 and 3
    with strict gaps at parts congruent to 0, 1, 3 mod 6)."""
    return classical_rows("G", n)[n]


# --------------------------------------------------------------------------
# Durfee rectangles


@dataclass(frozen=True)
class DurfeeDecomposition:
    """Split of an ordinary partition around its maximal inscribed
    rectangle with (rows, cols) = (j-k, i-k)."""

    k: int
    rows: int
    cols: int
    below: tuple[int, ...]
    right: tuple[int, ...]

    def reassemble(self) -> tuple[int, ...]:
        """Rebuild the original partition from the three pieces."""
        padded_right = list(self.right) + [0] * (self.rows - len(self.right))
        rows = [self.cols + r for r in padded_right]
        rows.extend(self.below)
        return tuple(p for p in rows if p)


def durfee_decompose(partition: Sequence[int], i: int, j: int, L: int) -> DurfeeDecomposition:
    """Decompose a partition with <= j parts, each <= L-j, around the
    maximal rectangle whose column count exceeds its row count by i-j.

    Picks the largest rectangle of shape (j-k) x (i-k) that fits in the
    Ferrers graph (smallest k), then splits off the partition below it
    (<= k parts, each <= i-k) and the partition to its right (<= j-k
    parts, each <= L-i-j+k).
    """
    parts = sorted((p for p in partition if p), reverse=True)
    if any(p < 0 for p in partition):
        raise ValueError("parts must be nonnegative")
    if len(parts) > j or any(p > L - j for p in parts):
        raise ValueError("partition does not fit the (j, L-j) box")
    padded = parts + [0] * (j - len(parts))
    for k in range(0, min(i, j) + 1):
        rows, cols = j - k, i - k
        if cols < 0:
            continue
        if rows == 0 or padded[rows - 1] >= cols:
            below = tuple(p for p in padded[rows:] if p)
            right = tuple(x for x in (p - cols for p in padded[:rows]) if x)
            result = DurfeeDecomposition(k, rows, cols, below, right)
            assert len(below) <= k and all(p <= cols for p in below)
            assert len(right) <= rows and all(p <= L - i - j + k for p in right)
            assert result.reassemble() == tuple(parts)
            return result
    raise NoRectangle(f"no rectangle with offset {i - j} fits")
