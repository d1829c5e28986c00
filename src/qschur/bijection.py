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

Each step is invertible; ``inverse`` reverses them exactly.  Both run on
dilated values, where the staircase entry k is 3k (the color stays) and
step 5 is a descending sort; symbols are built once, interned, at the end.

Each step and each check runs once: ``forward`` builds pi3's partition
once and runs the gap check on it, and ``inverse`` undoes steps 6 and 5
in one pass over pi3 and checks each recovered block once.

A round trip reads only pi3, so ``forward`` builds the trace's pi1, pi2,
pi4_star, c2 and pi3 and keeps the value lists of pi4, pi5, pi6, C1 and
C1R under one private key; the first read of any of those five fields
builds all five (``BijectionTrace.__getattr__``) and drops the key.
Equality, hash, repr and ``dataclasses.replace`` read every field by
name, so they see the built values and agree with the record
``__init__`` builds; after a read the instance's ``vars()`` are that
record's too.  Both asserts on pi3 run before the trace is returned.
``BoundCertificate`` is built through the trusted constructor
``_record``, which fills the instance's fields in one update instead of
one ``object.__setattr__`` per field; both records' public constructors
still work for tests, oracles and library use.
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


# the fields forward leaves unbuilt, in the order of their values under the
# trace's private key "_unbuilt"
_LAZY_FIELDS = ("pi4", "pi5", "pi6", "c1", "c1r")


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

    def __getattr__(self, name: str):
        # reached only for a name the instance lacks: a lazy field of a trace
        # from forward that has not been read yet, or no attribute at all
        state = self.__dict__
        unbuilt = state.get("_unbuilt")
        if unbuilt is None or name not in _LAZY_FIELDS:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}", name=name, obj=self)
        pi4, pi5, pi6, c1, c1r = unbuilt
        of_values, symbol_of = ColoredPartition._of_values, ColoredSymbol.from_dilated
        state.update(pi4=of_values(pi4), pi5=of_values(pi5), pi6=of_values(pi6),
                     c1=tuple(map(symbol_of, c1)), c1r=tuple(map(symbol_of, c1r)))
        state.pop("_unbuilt", None)  # a concurrent first read may have dropped it
        return state[name]


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


def _record(cls, *values):
    """Trusted: the frozen dataclass ``cls`` with ``values`` as its fields,
    in declaration order."""
    self = object.__new__(cls)
    self.__dict__.update(zip(cls.__match_args__, values))
    return self


def _conjugate_with_circles(weights: tuple[int, ...]) -> tuple[tuple[int, bool], ...]:
    """Conjugate Ferrers graph of a distinct-part partition; a row is
    flagged when its last node is the bottom of its column, i.e. when the
    row length c satisfies weights[c-1] == row index."""
    if not weights:
        return ()
    rows, length = [], len(weights)
    for r in range(1, weights[0] + 1):
        while weights[length - 1] < r:  # the weights decrease: one walk up
            length -= 1
        rows.append((length, weights[length - 1] == r))
    return tuple(rows)


def forward(pi1: ColoredPartition, pi2: ColoredPartition) -> BijectionTrace:
    """Run steps 1-6 on (pi1, pi2); raises InvalidInput on wrong colors
    (same-colored parts of a partition are distinct by construction)."""
    ones, twos = pi1._values, pi2._values
    for d in ones:
        if d % 3 != 1:
            raise InvalidInput("pi1 must have only a-parts")
    for d in twos:
        if d % 3 != 2:
            raise InvalidInput("pi2 must have only b-parts")

    # step 1: split pi2 at threshold i = |pi1| (weight <= i is value < 3i);
    # the values decrease, so pi4 is the run below 3i at the end
    cut, floor = len(twos), 3 * len(ones)
    while cut and twos[cut - 1] < floor:
        cut -= 1
    pi4, pi5 = twos[cut:], twos[:cut]

    # step 2: conjugate pi4 with circled column bottoms, add row-wise to pi1;
    # a circled row turns a_w into ab_w, one value lower
    star = _conjugate_with_circles(tuple([d // 3 + 1 for d in pi4]))
    pi6 = list(ones)
    for r, (extra, circled) in enumerate(star):
        pi6[r] += 3 * extra - circled

    # steps 3-4: stack pi5 over pi6, subtract the staircase
    column = [*pi5, *pi6]
    c2 = tuple(range(len(column) - 1, -1, -1))
    c1 = [d - 3 * k for d, k in zip(column, c2)]

    # step 5: stable decreasing reorder of C1 (equal values are equal symbols)
    c1r = sorted(c1, reverse=True)

    # step 6: add back
    pi3 = ColoredPartition._of_values([d + 3 * k for d, k in zip(c1r, c2)])

    # weight is conserved: a value d weighs d // 3 + 1
    assert (sum([d // 3 + 1 for d in pi3._values])
            == sum([d // 3 + 1 for d in ones]) + sum([d // 3 + 1 for d in twos]))
    assert is_type1(pi3)
    trace = object.__new__(BijectionTrace)
    trace.__dict__.update(pi1=pi1, pi2=pi2, pi4_star=star, c2=c2, pi3=pi3,
                          _unbuilt=(pi4, pi5, pi6, c1, c1r))
    return trace


def inverse(pi3: ColoredPartition) -> tuple[ColoredPartition, ColoredPartition]:
    """Recover the unique (pi1, pi2) with forward(pi1, pi2).pi3 == pi3."""
    if not is_type1(pi3):
        raise InvalidInput("input violates the gap condition")
    values = pi3._values
    m = len(values)

    # undo step 6, subtracting the staircase, and step 5 in one pass: the
    # b-block first, then the a/ab block, each decreasing (the staircase is
    # a multiple of 3, so each value keeps its color)
    b_block, rest = [], []
    for r, d in enumerate(values):
        d -= 3 * (m - 1 - r)
        (b_block if d % 3 == 2 else rest).append(d)
    b_block.sort(reverse=True)
    rest.sort(reverse=True)

    # undo steps 4+3: add the staircase back; the b-block is pi5, the rest pi6
    i = len(rest)
    pi5 = [d + 3 * (m - 1 - r) for r, d in enumerate(b_block)]
    pi6 = [d + 3 * (i - 1 - r) for r, d in enumerate(rest)]
    # pi5 decreases, so its last part is its least
    if pi5 and pi5[-1] < 3 * i:
        raise InvalidInput("outside the image of the correspondence")

    # undo step 2: circled (ab) rows of pi6 are the parts of pi4; with c circled
    # rows at or below it, a row's a_w or ab_w came from a_{w-c}: 3c lower, +1 for ab
    pi4 = [3 * r - 1 for r in range(i, 0, -1) if pi6[r - 1] % 3 == 0]
    ones, remaining = [], len(pi4)
    for d in pi6:
        circled = d % 3 == 0
        ones.append(d - 3 * remaining + circled)
        remaining -= circled
    # pi6 falls by at least 3 a row, and a row loses at most 3 more than the
    # row below it, so the recovered values never rise: the last is the least,
    # and a repeat is a run of equal values
    if ones and ones[-1] < 1:
        raise InvalidInput("outside the image of the correspondence")
    if len(set(ones)) < i:
        raise InvalidInput("recovered pi1 must have distinct parts")
    # pi5 parts exceed i >= pi4 parts and both decrease, so pi2's parts are distinct
    return ColoredPartition._of_values(ones), ColoredPartition._of_values(pi5 + pi4)


def forward_bounded(pi1: ColoredPartition, pi2: ColoredPartition,
                    L: int, M: int) -> tuple[BijectionTrace, BoundCertificate]:
    """Forward run plus certification of the double-bounded profile.

    Requires L, M >= 0, pi1 parts <= M-j, pi2 parts <= L and
    max(L, M) >= i+j.  The certificate asserts that pi3 has i-k a-parts
    <= M-nu(M), j-k b-parts <= L-nu(L) and k ab-parts <= M-nu(M); any
    failure raises BoundViolation naming the first failed bound.
    """
    trace = forward(pi1, pi2)  # checks the colors before the bounds
    if L < 0 or M < 0:
        raise InvalidInput(f"need L, M >= 0, got L = {L}, M = {M}")
    i, j = len(pi1._values), len(pi2._values)
    if max(L, M) < i + j:
        raise InvalidInput(f"need max(L, M) >= i+j = {i + j}")
    # the values decrease, so the first is the largest part
    if i and pi1._values[0] // 3 + 1 > M - j:
        raise InvalidInput(f"pi1 parts must be <= M-j = {M - j}")
    if j and pi2._values[0] // 3 + 1 > L:
        raise InvalidInput(f"pi2 parts must be <= L = {L}")

    values = trace.pi3._values
    nu_l, nu_m = nu_statistics(trace.pi3, L, M)
    a_count, b_count, k = color_counts(values)
    a_bound = ab_bound = M - nu_m
    b_bound = L - nu_l
    cert = _record(BoundCertificate, L, M, nu_l, nu_m, a_count, b_count, k,
                   a_bound, b_bound, ab_bound)

    if not (a_count == i - k and b_count == j - k):
        raise BoundViolation(
            f"statistic map failed: expected ({i - k}, {j - k}, {k}) parts, "
            f"got ({a_count}, {b_count}, {k})")
    by_residue = (ab_bound, a_bound, b_bound)
    for d in values:
        if d // 3 + 1 > by_residue[d % 3]:
            # name the first failed bound: a, then b, then ab
            for residue, bound in ((1, a_bound), (2, b_bound), (0, ab_bound)):
                for v in values:
                    if v % 3 == residue and v // 3 + 1 > bound:
                        p = ColoredSymbol.from_dilated(v)
                        raise BoundViolation(f"{p.color}-part {p} exceeds certified bound {bound}")
    return trace, cert
