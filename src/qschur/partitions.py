"""Colored integers, gap-condition partitions, counters and Durfee splits.

Integers occur in two primary colors a, b and one secondary color ab
(the integer 1 only in primary colors).  Symbols are totally ordered by

    a1 < b1 < ab2 < a2 < b2 < ab3 < a3 < b3 < ...

which is realized by the rank a_n -> 3n+1, b_n -> 3n+2, ab_n -> 3n.  A
gap partition ("Type 1") is a decreasing sequence of symbols whose
consecutive weights differ by at least 1, and by at least 2 whenever the
larger part is colored ab, or the larger is colored a and the smaller b.
Dilating a_n -> 3n-2, b_n -> 3n-1, ab_n -> 3n-3 turns the symbol order
into the natural order on positive integers and the gap condition into
the classical Schur gap condition (difference >= 3, strict if the larger
part is a multiple of 3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "COLORS",
    "ColoredPartition",
    "ColoredSymbol",
    "DurfeeDecomposition",
    "NoRectangle",
    "NoValidStatistic",
    "color_counts",
    "count_V",
    "count_distinct_parts",
    "durfee_decompose",
    "goellnitz_counts",
    "is_type1",
    "iter_type1",
    "nu_statistics",
    "schur_counts",
]

COLORS = ("a", "b", "ab")


class NoValidStatistic(ValueError):
    """No boundary statistic fits: the input is outside the theorem's class."""


class NoRectangle(ValueError):
    """No Durfee rectangle with the required row/column offset exists."""


@dataclass(frozen=True, slots=True)
class ColoredSymbol:
    """The integer ``weight`` carrying one of the colors a, b, ab."""

    color: str
    weight: int

    def __post_init__(self):
        if self.color not in COLORS:
            raise ValueError(f"unknown color {self.color!r}")
        if self.weight < 1:
            raise ValueError("weight must be a positive integer")
        if self.color == "ab" and self.weight < 2:
            raise ValueError("the integer 1 occurs only in primary colors")

    @property
    def rank(self) -> int:
        """Position in the total symbol order (strictly increasing along it)."""
        n = self.weight
        return 3 * n + {"ab": 0, "a": 1, "b": 2}[self.color]

    @property
    def dilated(self) -> int:
        """Image as an ordinary integer: a_n -> 3n-2, b_n -> 3n-1, ab_n -> 3n-3."""
        n = self.weight
        return {"a": 3 * n - 2, "b": 3 * n - 1, "ab": 3 * n - 3}[self.color]

    def __lt__(self, other: "ColoredSymbol") -> bool:
        return self.rank < other.rank

    def __le__(self, other: "ColoredSymbol") -> bool:
        return self.rank <= other.rank

    def __gt__(self, other: "ColoredSymbol") -> bool:
        return self.rank > other.rank

    def __ge__(self, other: "ColoredSymbol") -> bool:
        return self.rank >= other.rank

    def __str__(self) -> str:
        return f"{self.color}{self.weight}"

    _PARSE = re.compile(r"^(ab|a|b)(\d+)$")

    @classmethod
    def parse(cls, text: str) -> "ColoredSymbol":
        m = cls._PARSE.match(text.strip())
        if m is None:
            raise ValueError(f"cannot parse colored symbol {text!r}")
        return cls(m.group(1), int(m.group(2)))


_SYMBOL_CACHE: dict[tuple[str, int], ColoredSymbol] = {}


def _sym(color: str, weight: int) -> ColoredSymbol:
    # interned instances; the enumerators create symbols in the millions
    key = (color, weight)
    cached = _SYMBOL_CACHE.get(key)
    if cached is None:
        cached = _SYMBOL_CACHE[key] = ColoredSymbol(color, weight)
    return cached


@lru_cache(maxsize=None)
def undilate(value: int) -> ColoredSymbol:
    """The symbol whose dilated image is the positive integer ``value``."""
    return ColoredSymbol(("ab", "a", "b")[value % 3], value // 3 + 1)


def symbol(text: str) -> ColoredSymbol:
    """Shorthand parser: symbol('ab12') == ColoredSymbol('ab', 12)."""
    return ColoredSymbol.parse(text)


class ColoredPartition:
    """A strictly decreasing (by rank) sequence of colored symbols.

    Besides gap partitions this also represents the distinct-part vector
    partition components (all-a or all-b).  The text form joins symbols
    with '+' in decreasing order, e.g. ``ab12+ab10+b7+b6+a5+ab4+b2+a1``;
    the empty partition renders as a lone '∅'.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[ColoredSymbol] = (), *, sort: bool = True):
        seq = list(parts)
        if sort:
            seq.sort(key=lambda s: s.rank, reverse=True)
        for prev, cur in zip(seq, seq[1:]):
            if prev.rank <= cur.rank:
                raise ValueError("parts must be strictly decreasing in the symbol order")
        self.parts = tuple(seq)

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
        return cls(ColoredSymbol(color, w) for w in weights)

    # -- statistics ----------------------------------------------------------

    @property
    def sigma(self) -> int:
        """Total weight: the sum of the part weights."""
        return sum(p.weight for p in self.parts)

    def dilated(self) -> tuple[int, ...]:
        """The ordinary-integer image of each part (decreasing)."""
        return tuple(p.dilated for p in self.parts)

    # -- plumbing -------------------------------------------------------------

    def __iter__(self) -> Iterator[ColoredSymbol]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, ColoredPartition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts) if self.parts else "∅"

    def __repr__(self) -> str:
        return f"ColoredPartition({self})"

    def to_json(self) -> list[dict]:
        return [{"color": p.color, "weight": p.weight} for p in self.parts]


def _gap_needed(upper: ColoredSymbol, lower_color: str) -> int:
    if upper.color == "ab" or (upper.color == "a" and lower_color == "b"):
        return 2
    return 1


def is_type1(partition: ColoredPartition) -> bool:
    """Check the gap condition on every consecutive pair of parts."""
    for upper, lower in zip(partition.parts, partition.parts[1:]):
        if upper.weight - lower.weight < _gap_needed(upper, lower.color):
            return False
    return True


def iter_type1(n: int,
               a_max: Optional[int] = None,
               b_max: Optional[int] = None,
               ab_max: Optional[int] = None) -> Iterator[tuple[ColoredSymbol, ...]]:
    """Yield every gap partition of exactly n.

    The per-color arguments cap the weight of parts of that color.  Parts
    come out in decreasing order and the stream is duplicate-free, ordered
    lexicographically by the rank sequence (largest first).
    """
    caps = {"a": a_max, "b": b_max, "ab": ab_max}

    def extend(prev: Optional[ColoredSymbol], budget: int):
        if budget == 0:
            yield ()
            return
        top = budget if prev is None else min(budget, prev.weight - 1)
        for w in range(top, 0, -1):
            if w * (w + 1) // 2 < budget:
                return  # distinct weights <= w cannot fill the budget
            for color in ("b", "a", "ab"):  # descending rank within a weight
                if color == "ab" and w < 2:
                    continue
                cap = caps[color]
                if cap is not None and w > cap:
                    continue
                if prev is not None and prev.weight - w < _gap_needed(prev, color):
                    continue
                s = _sym(color, w)
                for rest in extend(s, budget - w):
                    yield (s,) + rest

    yield from extend(None, n)


def color_counts(parts: Iterable[ColoredSymbol]) -> tuple[int, int, int]:
    """(r, s, t): the numbers of a-, b- and ab-parts."""
    colors = [p.color for p in parts]
    return colors.count("a"), colors.count("b"), colors.count("ab")


# --------------------------------------------------------------------------
# boundary statistics


def scan_statistic(parts: Sequence[ColoredSymbol], X: int, Y: int,
                   bounded_colors: tuple[str, ...]) -> Optional[int]:
    """The boundary statistic: the ell >= 0 such that exactly ell parts
    have weights in [X-ell+2, Y], no part has weight X-ell+1 and every
    part colored in ``bounded_colors`` has weight <= X-ell.

    Returns None when no ell fits and raises NoValidStatistic when more
    than one does.  nu_statistics and every bucketed census in
    ``qschur.theorems`` go through this one scan.
    """
    weights = [p.weight for p in parts]
    top = len(weights)
    # the bounded colors cap ell at X minus their largest weight; with no
    # part of a bounded color there is no cap at all (in particular not X)
    for p in parts:
        if p.color in bounded_colors and X - p.weight < top:
            top = X - p.weight
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
    nu = []
    for X, Y, bounded_colors in ((L, M, ("b",)), (M, L, ("a", "ab"))):
        ell = 0 if X >= Y else scan_statistic(partition.parts, X, Y, bounded_colors)
        if ell is None:
            raise NoValidStatistic(
                f"no boundary statistic fits (bounds {X}, {Y}; partition {partition})")
        nu.append(ell)
    return nu[0], nu[1]


# --------------------------------------------------------------------------
# counting functions


@lru_cache(maxsize=None)
def count_distinct_parts(n: int, k: int, cap: int) -> int:
    """Partitions of n into exactly k distinct parts, each in [1, cap]."""
    if k == 0:
        return 1 if n == 0 else 0
    if k < 0 or n < k * (k + 1) // 2 or cap < k:
        return 0
    # largest part p, remaining parts distinct and < p
    return sum(count_distinct_parts(n - p, k - 1, p - 1)
               for p in range(k, min(n, cap) + 1))


def count_V(n: int, i: int, j: int, L: int, M: int) -> int:
    """Vector partitions of n: i distinct a-parts <= M-j and j distinct
    b-parts <= L."""
    if n < 0 or i < 0 or j < 0:
        return 0
    return sum(count_distinct_parts(m, i, max(M - j, 0))
               * count_distinct_parts(n - m, j, max(L, 0))
               for m in range(0, n + 1))


# -- ordinary-integer (dilated) enumerations --------------------------------


def _schur_next_bound(p: int) -> int:
    return p - 3 - (1 if p % 3 == 0 else 0)


def iter_schur_gap(n: int, largest_cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of exactly n, parts differing by >= 3 with strict
    inequality when the larger part is a multiple of 3."""
    def rec(budget: int, bound: int):
        if budget == 0:
            yield ()
            return
        for p in range(min(budget, bound), 0, -1):
            for rest in rec(budget - p, min(budget - p, _schur_next_bound(p))):
                yield (p,) + rest
    yield from rec(n, largest_cap)


@lru_cache(maxsize=None)
def _count_schur_gap(n: int, bound: int) -> int:
    if n == 0:
        return 1
    if bound <= 0:
        return 0
    return sum(_count_schur_gap(n - p, min(n - p, _schur_next_bound(p)))
               for p in range(1, min(n, bound) + 1))


@lru_cache(maxsize=None)
def _count_distinct_residue(n: int, residues: tuple[int, ...], modulus: int,
                            bound: int) -> int:
    """Distinct parts <= bound, all congruent to one of ``residues``."""
    if n == 0:
        return 1
    if bound <= 0:
        return 0
    total = 0
    for p in range(1, min(n, bound) + 1):
        if p % modulus in residues:
            total += _count_distinct_residue(n - p, residues, modulus, p - 1)
    return total


def schur_counts(n: int) -> tuple[int, int]:
    """Both sides of Schur's theorem at n: (distinct parts congruent to 1
    or 2 mod 3, gap partitions)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (_count_distinct_residue(n, (1, 2), 3, n), _count_schur_gap(n, n))


def _goellnitz_next_bound(p: int) -> int:
    return p - 6 - (1 if p % 6 in (0, 1, 3) else 0)


@lru_cache(maxsize=None)
def _count_goellnitz_gap(n: int, bound: int) -> int:
    if n == 0:
        return 1
    if bound <= 1:
        return 0
    total = 0
    for p in range(2, min(n, bound) + 1):
        if p == 3:
            continue
        total += _count_goellnitz_gap(n - p, min(n - p, _goellnitz_next_bound(p)))
    return total


def goellnitz_counts(n: int) -> tuple[int, int]:
    """Both sides of the three-residue difference theorem at n: (distinct
    parts congruent to 2, 4 or 5 mod 6, gap-6 partitions avoiding 1 and 3
    with strict gaps at parts congruent to 0, 1, 3 mod 6)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return (_count_distinct_residue(n, (2, 4, 5), 6, n), _count_goellnitz_gap(n, n))


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
