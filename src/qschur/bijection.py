"""The column-subtraction correspondence between vector partitions and
gap partitions, with full intermediate traces.

Forward direction, for a pair (pi1, pi2) of distinct a-parts and distinct
b-parts with i = |pi1|:

  1. split pi2 into pi4 (parts <= i) and pi5 (the rest);
  2. conjugate the Ferrers graph of pi4, circling the bottom node of each
     column; add its rows to pi1 row-wise, rows ending in a circled node
     become ab-parts, the rest stay a-parts (this is pi6);
  3. stack pi5 over pi6 in one descending column;
  4. subtract the staircase ..., 2, 1, 0 from the column (bottom gets 0),
     giving colored column C1 and colorless column C2;
  5. stably sort C1 into decreasing symbol order (C1R);
  6. add C1R and C2 elementwise; the result pi3 satisfies the gap
     condition and weights are conserved at every step.

Each step is invertible; ``inverse`` reverses them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .partitions import (
    ColoredPartition,
    ColoredSymbol,
    color_counts,
    is_type1,
    nu_statistics,
)

__all__ = [
    "BijectionTrace",
    "BoundCertificate",
    "BoundViolation",
    "InvalidInput",
    "forward",
    "forward_bounded",
    "inverse",
]


class InvalidInput(ValueError):
    """Input outside the correspondence's domain."""


class BoundViolation(RuntimeError):
    """A certified bound failed: falsifies the bound-tracking argument."""


@dataclass(frozen=True)
class BijectionTrace:
    """Every intermediate of the forward correspondence.

    ``pi4_star`` records the conjugate graph of pi4 as (row length,
    ends-circled) pairs; the circled flags are semantic (they mark which
    rows of pi6 are ab-parts).
    """

    pi1: ColoredPartition
    pi2: ColoredPartition
    pi4: ColoredPartition
    pi5: ColoredPartition
    pi4_star: tuple[tuple[int, bool], ...]
    pi6: ColoredPartition
    c1: tuple[ColoredSymbol, ...]
    c2: tuple[int, ...]
    c1r: tuple[ColoredSymbol, ...]
    pi3: ColoredPartition


@dataclass(frozen=True)
class BoundCertificate:
    """Bound profile of pi3 certified by ``forward_bounded``.

    With boundary statistics (nu_l, nu_m) of pi3, the i-k a-parts are
    bounded by M - nu_m, the j-k b-parts by L - nu_l, and the k ab-parts
    by M - nu_m.
    """

    L: int
    M: int
    nu_l: int
    nu_m: int
    a_count: int
    b_count: int
    ab_count: int
    a_bound: int
    b_bound: int
    ab_bound: int


def _check_component(partition: ColoredPartition, color: str, name: str):
    weights = [p.weight for p in partition.parts]
    if any(p.color != color for p in partition.parts):
        raise InvalidInput(f"{name} must have only {color}-parts")
    if len(set(weights)) != len(weights):
        raise InvalidInput(f"{name} must have distinct parts")


def _conjugate_with_circles(weights: tuple[int, ...]) -> tuple[tuple[int, bool], ...]:
    """Conjugate Ferrers graph of a distinct-part partition; a row is
    flagged when its last node is the bottom of its column, i.e. when the
    row length c satisfies weights[c-1] == row index."""
    if not weights:
        return ()
    rows = []
    for r in range(1, weights[0] + 1):
        length = sum(1 for w in weights if w >= r)
        rows.append((length, weights[length - 1] == r))
    return tuple(rows)


def forward(pi1: ColoredPartition, pi2: ColoredPartition) -> BijectionTrace:
    """Run steps 1-6 on (pi1, pi2); raises InvalidInput on repeated
    weights or wrong colors."""
    _check_component(pi1, "a", "pi1")
    _check_component(pi2, "b", "pi2")
    i = len(pi1)

    # step 1: split pi2 at threshold i
    pi4 = ColoredPartition(p for p in pi2 if p.weight <= i)
    pi5 = ColoredPartition(p for p in pi2 if p.weight > i)

    # step 2: conjugate pi4 with circled column bottoms, add row-wise to pi1
    star = _conjugate_with_circles(tuple(p.weight for p in pi4))
    pi6_parts = []
    for r, a_part in enumerate(pi1.parts):
        extra, circled = star[r] if r < len(star) else (0, False)
        pi6_parts.append(ColoredSymbol("ab" if circled else "a", a_part.weight + extra))
    pi6 = ColoredPartition(pi6_parts, sort=False)

    # steps 3-4: stack pi5 over pi6, subtract the staircase
    column = list(pi5.parts) + list(pi6.parts)
    m = len(column)
    c2 = tuple(range(m - 1, -1, -1))
    c1 = tuple(ColoredSymbol(s.color, s.weight - d) for s, d in zip(column, c2))

    # step 5: stable decreasing reorder of C1
    c1r = tuple(sorted(c1, key=lambda s: -s.rank))

    # step 6: add back
    pi3 = ColoredPartition(
        (ColoredSymbol(s.color, s.weight + d) for s, d in zip(c1r, c2)), sort=False)

    trace = BijectionTrace(pi1, pi2, pi4, pi5, star, pi6, c1, c2, c1r, pi3)
    assert pi3.sigma == pi1.sigma + pi2.sigma
    assert is_type1(pi3)
    return trace


def inverse(pi3: ColoredPartition) -> tuple[ColoredPartition, ColoredPartition]:
    """Recover the unique (pi1, pi2) with forward(pi1, pi2).pi3 == pi3."""
    if not is_type1(pi3):
        raise InvalidInput("input violates the gap condition")
    m = len(pi3)

    # undo step 6: subtract the staircase
    c1r = [ColoredSymbol(s.color, s.weight - (m - 1 - r))
           for r, s in enumerate(pi3.parts)]

    # undo step 5: b-block first, then the a/ab block, each decreasing
    b_block = sorted((s for s in c1r if s.color == "b"), key=lambda s: -s.rank)
    rest = sorted((s for s in c1r if s.color != "b"), key=lambda s: -s.rank)
    c1 = b_block + rest

    # undo steps 4+3: add the staircase back and split the column
    column = [ColoredSymbol(s.color, s.weight + (m - 1 - r))
              for r, s in enumerate(c1)]
    pi5_parts, pi6_parts = column[:len(b_block)], column[len(b_block):]
    i = len(pi6_parts)
    if any(s.weight <= i for s in pi5_parts):
        raise InvalidInput("outside the image of the correspondence")

    # undo step 2: circled rows of pi6 are the parts of pi4
    circled_rows = [r + 1 for r, s in enumerate(pi6_parts) if s.color == "ab"]
    pi4_weights = sorted(circled_rows, reverse=True)
    pi1_parts = []
    for r, s in enumerate(pi6_parts, start=1):
        conj_r = sum(1 for w in pi4_weights if w >= r)
        w = s.weight - conj_r
        if w < 1:
            raise InvalidInput("outside the image of the correspondence")
        pi1_parts.append(ColoredSymbol("a", w))

    pi1 = ColoredPartition(pi1_parts, sort=False)
    pi2 = ColoredPartition([ColoredSymbol("b", w) for w in pi4_weights]
                           + list(pi5_parts))
    _check_component(pi1, "a", "recovered pi1")
    _check_component(pi2, "b", "recovered pi2")
    return pi1, pi2


def forward_bounded(pi1: ColoredPartition, pi2: ColoredPartition,
                    L: int, M: int) -> tuple[BijectionTrace, BoundCertificate]:
    """Forward run plus certification of the double-bounded profile.

    Requires pi1 parts <= M-j, pi2 parts <= L and max(L, M) >= i+j.  The
    certificate asserts that pi3 has i-k a-parts <= M-nu(M), j-k b-parts
    <= L-nu(L) and k ab-parts <= M-nu(M); any failure raises
    BoundViolation naming the first failed bound.
    """
    i, j = len(pi1), len(pi2)
    if max(L, M) < i + j:
        raise InvalidInput(f"need max(L, M) >= i+j = {i + j}")
    if any(p.weight > M - j for p in pi1):
        raise InvalidInput(f"pi1 parts must be <= M-j = {M - j}")
    if any(p.weight > L for p in pi2):
        raise InvalidInput(f"pi2 parts must be <= L = {L}")

    trace = forward(pi1, pi2)
    nu_l, nu_m = nu_statistics(trace.pi3, L, M)
    a_count, b_count, k = color_counts(trace.pi3.dilated())
    cert = BoundCertificate(
        L=L, M=M, nu_l=nu_l, nu_m=nu_m,
        a_count=a_count, b_count=b_count, ab_count=k,
        a_bound=M - nu_m, b_bound=L - nu_l, ab_bound=M - nu_m)

    if not (a_count == i - k and b_count == j - k):
        raise BoundViolation(
            f"statistic map failed: expected ({i - k}, {j - k}, {k}) parts, "
            f"got ({a_count}, {b_count}, {k})")
    for color, bound in (("a", cert.a_bound), ("b", cert.b_bound), ("ab", cert.ab_bound)):
        for p in trace.pi3.parts:
            if p.color == color and p.weight > bound:
                raise BoundViolation(f"{color}-part {p} exceeds certified bound {bound}")
    return trace, cert
