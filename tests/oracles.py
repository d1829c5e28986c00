"""Reference enumerations and brute-force bound profiles.

``type1_upto`` walks symbols by weight and color under the colored gap
rule ``_gap_needed``; ``schur_gap_literal`` filters the distinct-part
partitions by Schur's difference rule.  Neither shares code with the
library's one recursion over dilated values, so the enumerator and census
tests read these in its place.  ``gl_by_enumeration`` builds G_L by
walking every gap partition with parts <= b_L, the reference for the
library's transfer-matrix count.  ``upper_sets_literal`` walks down the
dilated values and lists each upper set U_l of the T2 split one by one,
the reference for the library's U_l, read from a transfer's suffixes.
``series_model`` and its helpers keep a marker series as a dict of
dicts, {marker tuple: {q exponent: coefficient}}, and state the
keep-or-drop rule of ``MarkerSeries`` term by term, the reference for
its constructor and arithmetic.
``p3_count`` counts the residue-class partitions of the dilated
refinement's left side on ordinary integers, the reference for the
library's read of that side at the undilated weight.  ``ksum_literal``
forms each term of the eq21 k-sum from its three
q-binomials, with no table, the reference for the library's k-sum, which
reads the two L-free factors from a table.  ``multinomial_literal``
divides (q)_L by the three Pochhammer products of the slots, the
definition, and the reference for the library's multinomial, which is a
product of two q-binomials.  ``marker_product_literal`` multiplies the
(1 + X q^m) factors one at a time into the whole series, the reference
for the library's product, which multiplies each marker's factors first;
``capped_product_literal`` multiplies 1/(q)_n factors, each from its own
geometric series, and ``cell_61_literal`` forms each eq61 composition
term as the seven-factor product, the references for the library's
table of 1/(q)_n products keyed by part multiset.  ``lhs_63_literal``
sums the eq63 left side over the compositions under either the part-count
statistic or the rejected alternative one, the reference for the
library's left side and the record of the bookkeeping that fails;
``rhs_63_literal`` sums its tau-sum, and ``rhs_48_literal`` the eq48
k-sum with the multinomial written as two q-binomials, each term the
product of its q-binomials added to ZERO one at a time, the references
for the library's sums, which are decided and formed on packed integers.
``bijection_literal`` and ``bijection_literal_inverse`` walk the
column-subtraction correspondence on colored symbols, step by step, the
reference for the library's walk on dilated values.  Each profile filter
states one bucket's defining conditions literally, for one partition and
one candidate bucket at a time; the census tests compare the library's
scan-bucketed censuses against counts built from these.
``count_text_literal`` renders ``count``'s text report from report
objects, a line per report with its parameters joined from the report's
dict, the reference for the command's writer, which formats each cell's
counts with no report object.
"""

from collections import Counter
from functools import lru_cache

from qschur.bijection import BijectionTrace, InvalidInput
from qschur.coefficients import poch_qpow, qbinom, triangular
from qschur.identities import goellnitz_compositions
from qschur.partitions import ColoredPartition, ColoredSymbol, color_counts, iter_type1_dilated
from qschur.qseries import ONE, ZERO, LaurentPoly, MarkerSeries, Truncation, qpow


def _gap_needed(upper, lower_color) -> int:
    """The colored gap rule: the least weight difference between the part
    ``upper`` and a part of color ``lower_color`` below it."""
    if upper.color == "ab" or (upper.color == "a" and lower_color == "b"):
        return 2
    return 1


def type1_upto(max_weight, largest=None, a_max=None, b_max=None, ab_max=None):
    """Every gap partition with total weight <= max_weight, largest part
    <= ``largest`` in the symbol order and per-color weight caps, as
    decreasing part tuples ordered lexicographically by the rank sequence
    (largest first); a prefix comes before its extensions."""
    caps = {"a": a_max, "b": b_max, "ab": ab_max}

    def extend(prev, budget, rank_bound):
        yield ()
        top = budget if prev is None else min(budget, prev.weight - 1)
        for w in range(top, 0, -1):
            for color in ("b", "a", "ab"):  # descending rank within a weight
                if color == "ab" and w < 2:
                    continue
                if caps[color] is not None and w > caps[color]:
                    continue
                s = ColoredSymbol(color, w)
                if s.rank > rank_bound:
                    continue
                if prev is not None and prev.weight - w < _gap_needed(prev, color):
                    continue
                for rest in extend(s, budget - w, s.rank - 1):
                    yield (s,) + rest

    top_rank = largest.rank if largest is not None else 3 * max_weight + 2
    yield from extend(None, max_weight, top_rank)


def _distinct_parts(n, cap):
    """Every set of distinct parts <= cap summing to n, largest first."""
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in _distinct_parts(n - p, p - 1):
            yield (p,) + rest


def schur_gap_literal(n, cap):
    """The partitions of n into distinct parts <= cap whose consecutive
    parts differ by at least 3, and by more than 3 when the larger part is
    a multiple of 3, sorted in decreasing lexicographic order."""
    def schur_ok(parts):
        return all(x - y >= 3 and not (x % 3 == 0 and x - y == 3)
                   for x, y in zip(parts, parts[1:]))
    return sorted((parts for parts in _distinct_parts(n, cap) if schur_ok(parts)),
                  reverse=True)


def p3_count(n, i, j, L, M) -> int:
    """Partitions of n into i distinct parts = 1 mod 3, each <= 3(M-j)-2,
    and j distinct parts = 2 mod 3, each <= 3L-1."""
    return sum(_distinct_in_class(m, i, 1, 3 * (M - j) - 2)
               * _distinct_in_class(n - m, j, 2, 3 * L - 1)
               for m in range(0, n + 1))


@lru_cache(maxsize=None)
def _distinct_in_class(n, k, residue, cap) -> int:
    """Exactly k distinct parts = residue (mod 3), each <= cap, summing to n."""
    if k == 0:
        return 1 if n == 0 else 0
    return sum(_distinct_in_class(n - p, k - 1, residue, p - 1)
               for p in range(residue, min(cap, n) + 1, 3))


def _in_order(parts):
    """The partition of ``parts``, which must already be strictly decreasing."""
    partition = ColoredPartition(parts)
    if partition.parts != tuple(parts):
        raise ValueError("parts must be strictly decreasing in the symbol order")
    return partition


def _check_component(partition, color, name):
    weights = [p.weight for p in partition.parts]
    if any(p.color != color for p in partition.parts):
        raise InvalidInput(f"{name} must have only {color}-parts")
    if len(set(weights)) != len(weights):
        raise InvalidInput(f"{name} must have distinct parts")


def _conjugate_with_circles(weights):
    """Conjugate of a distinct-part partition; a row is flagged when its
    last node is the bottom of its column."""
    if not weights:
        return ()
    rows = []
    for r in range(1, weights[0] + 1):
        length = sum(1 for w in weights if w >= r)
        rows.append((length, weights[length - 1] == r))
    return tuple(rows)


def bijection_literal(pi1, pi2) -> BijectionTrace:
    """Steps 1-6 of the correspondence on colored symbols: split pi2 at
    i = |pi1|, add the circled conjugate of pi4 to pi1, stack pi5 over pi6,
    subtract the staircase weight by weight, stably reorder by rank and
    add the staircase back."""
    _check_component(pi1, "a", "pi1")
    _check_component(pi2, "b", "pi2")
    i = len(pi1)
    pi4 = ColoredPartition(p for p in pi2 if p.weight <= i)
    pi5 = ColoredPartition(p for p in pi2 if p.weight > i)
    star = _conjugate_with_circles(tuple(p.weight for p in pi4))
    pi6_parts = []
    for r, a_part in enumerate(pi1.parts):
        extra, circled = star[r] if r < len(star) else (0, False)
        pi6_parts.append(ColoredSymbol("ab" if circled else "a", a_part.weight + extra))
    pi6 = _in_order(pi6_parts)
    column = list(pi5.parts) + list(pi6.parts)
    m = len(column)
    c2 = tuple(range(m - 1, -1, -1))
    c1 = tuple(ColoredSymbol(s.color, s.weight - d) for s, d in zip(column, c2))
    c1r = tuple(sorted(c1, key=lambda s: -s.rank))
    pi3 = _in_order([ColoredSymbol(s.color, s.weight + d) for s, d in zip(c1r, c2)])
    return BijectionTrace(pi1, pi2, pi4, pi5, star, pi6, c1, c2, c1r, pi3)


def bijection_literal_inverse(pi3):
    """The inverse walk on colored symbols: subtract the staircase, put the
    b-parts first, add the staircase back, split off pi5 and read pi4 off
    the ab-rows of pi6."""
    if not all(lower.weight <= upper.weight - _gap_needed(upper, lower.color)
               for upper, lower in zip(pi3.parts, pi3.parts[1:])):
        raise InvalidInput("input violates the gap condition")
    m = len(pi3)
    c1r = [ColoredSymbol(s.color, s.weight - (m - 1 - r)) for r, s in enumerate(pi3.parts)]
    b_block = sorted((s for s in c1r if s.color == "b"), key=lambda s: -s.rank)
    rest = sorted((s for s in c1r if s.color != "b"), key=lambda s: -s.rank)
    column = [ColoredSymbol(s.color, s.weight + (m - 1 - r))
              for r, s in enumerate(b_block + rest)]
    pi5_parts, pi6_parts = column[:len(b_block)], column[len(b_block):]
    i = len(pi6_parts)
    if any(s.weight <= i for s in pi5_parts):
        raise InvalidInput("outside the image of the correspondence")
    pi4_weights = sorted((r + 1 for r, s in enumerate(pi6_parts) if s.color == "ab"),
                         reverse=True)
    pi1_parts = []
    for r, s in enumerate(pi6_parts, start=1):
        w = s.weight - sum(1 for x in pi4_weights if x >= r)
        if w < 1:
            raise InvalidInput("outside the image of the correspondence")
        pi1_parts.append(ColoredSymbol("a", w))
    pi1 = _in_order(pi1_parts)
    pi2 = ColoredPartition([ColoredSymbol("b", w) for w in pi4_weights] + list(pi5_parts))
    _check_component(pi1, "a", "recovered pi1")
    _check_component(pi2, "b", "recovered pi2")
    return pi1, pi2


def gl_by_enumeration(L) -> MarkerSeries:
    """G_L by direct enumeration of the gap partitions with parts <= b_L:
    A counts a- and ab-parts, B counts b- and ab-parts, q the weight."""
    acc = {}
    for sigma in range(0, triangular(L) + 1):
        for parts in iter_type1_dilated(sigma, a_max=L, b_max=L, ab_max=L):
            r, s, t = color_counts(parts)
            cell = acc.setdefault((r + t, s + t), {})
            cell[sigma] = cell.get(sigma, 0) + 1
    return MarkerSeries(2, {k: LaurentPoly(v) for k, v in acc.items()})


def s_profile(parts, l, L, M) -> bool:
    """Regime M >= L: a,ab-parts <= M, b-parts <= L-l, exactly l
    a,ab-parts >= L-l+2 and no part = L-l+1."""
    marked = 0
    for p in parts:
        if p.color == "b":
            if p.weight > L - l:
                return False
        else:
            if p.weight > M:
                return False
            if p.weight >= L - l + 2:
                marked += 1
        if p.weight == L - l + 1:
            return False
    return marked == l


def s_profile_mirrored(parts, m, L, M) -> bool:
    """Regime L >= M: a,ab-parts <= M-m, b-parts <= L, exactly m b-parts
    >= M-m+2 and no part = M-m+1."""
    marked = 0
    for p in parts:
        if p.color == "b":
            if p.weight > L:
                return False
            if p.weight >= M - m + 2:
                marked += 1
        else:
            if p.weight > M - m:
                return False
        if p.weight == M - m + 1:
            return False
    return marked == m


def g3_profile(parts, l, L, M) -> bool:
    """Dilated profile on ordinary integers: parts = 1 mod 3 <= 3M-2,
    parts = 2 mod 3 <= 3(L-l)-1, parts = 0 mod 3 <= 3M-3, exactly l parts
    in the 0, 1 mod 3 classes > 3(L-l)+2, no part equal to 3(L-l) or
    3(L-l)+1."""
    marked = 0
    for p in parts:
        r = p % 3
        if r == 2:
            if p > 3 * (L - l) - 1:
                return False
        else:
            if p > (3 * M - 2 if r == 1 else 3 * M - 3):
                return False
            if p > 3 * (L - l) + 2:
                marked += 1
        if p in (3 * (L - l), 3 * (L - l) + 1):
            return False
    return marked == l


def fitting_buckets(profile, parts, L, M) -> list[int]:
    """Every bucket whose profile the partition satisfies."""
    return [l for l in range(0, len(parts) + 1) if profile(parts, l, L, M)]


def upper_sets_literal(X, Y, colors, n_max) -> dict:
    """l -> U_l for every l with a set within the cut: the sets of exactly
    l parts colored in ``colors`` whose weights lie in [X-l+2, Y], with
    Schur's gaps, by q^weight and the (a, b, ab)-part markers, cut at
    q^n_max.  One walk down from the largest value of weight Y, listing
    each set: a set whose least weight w and size l have w + l >= X+2 is
    in U_l, and adding a smaller part lowers w by at least 1 as it raises
    l by 1, so a set that fails has no extension that passes.  The gap is
    written out here, not read from the library."""
    counts = Counter()
    residues = {("ab", "a", "b").index(color) for color in colors}

    def extend(bound, l, weight, values):
        counts[l, color_counts(values), weight] += 1
        for d in range(bound, 0, -1):
            w = d // 3 + 1
            if w + l + 1 < X + 2:
                break
            if d % 3 in residues and weight + w <= n_max:
                extend(d - 3 - (d % 3 == 0), l + 1, weight + w, values + (d,))

    extend(3 * Y - 1, 0, 0, ())
    polys = {}
    for (l, markers, weight), c in counts.items():
        polys.setdefault(l, {}).setdefault(markers, {})[weight] = c
    return {l: MarkerSeries(3, {m: LaurentPoly(p) for m, p in by_markers.items()},
                            Truncation(None, n_max))
            for l, by_markers in sorted(polys.items())}


def merged_truncation(a, b):
    """The caps of a series built from two series capped at ``a`` and
    ``b``: each cap is the smaller of the two, and an absent one (None)
    leaves the other."""
    if a is None or b is None:
        return a if b is None else b
    caps = [c for c in (a.marker_caps, b.marker_caps) if c is not None]
    q_caps = [c for c in (a.q_cap, b.q_cap) if c is not None]
    return Truncation(tuple(min(x) for x in zip(*caps)) if caps else None,
                      min(q_caps) if q_caps else None)


def series_model(pairs, trunc) -> dict:
    """The dict-of-dicts series of (marker tuple, {q exponent: coefficient})
    ``pairs`` under ``trunc``: a pair past a marker cap is dropped, and so
    is a term past q_cap; the rest are summed per tuple and exponent, and
    zero coefficients and tuples left empty are dropped."""
    caps = trunc.marker_caps if trunc is not None else None
    q_cap = trunc.q_cap if trunc is not None else None
    acc = {}
    for exps, terms in pairs:
        if caps is not None and any(e > cap for e, cap in zip(exps, caps)):
            continue
        cell = acc.setdefault(tuple(exps), {})
        for e, c in terms.items():
            if q_cap is None or e <= q_cap:
                cell[e] = cell.get(e, 0) + c
    out = {}
    for exps, cell in acc.items():
        kept = {e: c for e, c in cell.items() if c}
        if kept:
            out[exps] = kept
    return out


def model_of(series) -> dict:
    """The dict-of-dicts form of a MarkerSeries."""
    return {exps: dict(poly.terms()) for exps, poly in series.terms()}


def model_sum(x: dict, y: dict, trunc) -> dict:
    return series_model(list(x.items()) + list(y.items()), trunc)


def model_negated(x: dict) -> dict:
    return {exps: {e: -c for e, c in terms.items()} for exps, terms in x.items()}


def model_product(x: dict, y: dict, trunc) -> dict:
    """Term by term: every pair of terms gives one product term."""
    pairs = [(tuple(a + b for a, b in zip(ex, ey)), {ea + eb: ca * cb})
             for ex, tx in x.items() for ey, ty in y.items()
             for ea, ca in tx.items() for eb, cb in ty.items()]
    return series_model(pairs, trunc)


def multinomial_literal(L, i, j) -> LaurentPoly:
    """[L; i, j, L-i-j] = (q)_L / ((q)_i (q)_j (q)_{L-i-j}) by exact division;
    zero unless every slot is nonnegative."""
    k = L - i - j
    if i < 0 or j < 0 or k < 0:
        return ZERO
    return poch_qpow(1, L).divide_exact(poch_qpow(1, i) * poch_qpow(1, j) * poch_qpow(1, k))


def ksum_literal(L, M, i, j, triangular_exponents=False) -> LaurentPoly:
    """Sum over k of q^{e_k} [M-i-j+k; k] [M-j; i-k] [L-i; j-k], each term
    the product of its three q-binomials, skipped when one is zero;
    e_k = (i-k)(j-k), or T_{i+j-k} + T_k with ``triangular_exponents``."""
    total = ZERO
    for k in range(0, min(i, j) + 1):
        a, b, c = qbinom(M - i - j + k, k), qbinom(M - j, i - k), qbinom(L - i, j - k)
        if not (a and b and c):
            continue
        shift = (triangular(i + j - k) + triangular(k) if triangular_exponents
                 else (i - k) * (j - k))
        total = total + (a * b * c).shifted(shift)
    return total


def lhs_63_literal(L, M, i, j, k, alt_s=False) -> LaurentPoly:
    """The eq63 left side: over the compositions of (i, j, k), q^{T_s +
    T_delta + T_epsilon + T_{phi-1}} times the composition's q-binomials,
    where s is the number of parts, or, with ``alt_s``, the rejected
    statistic alpha + beta + 2 delta + epsilon + phi (delta counted twice,
    gamma omitted), under which the identity fails."""
    total = ZERO
    for c in goellnitz_compositions(i, j, k):
        s = c.alpha + c.beta + 2 * c.delta + c.epsilon + c.phi if alt_s else c.s
        shift = (triangular(s) + triangular(c.delta)
                 + triangular(c.epsilon) + triangular(c.phi - 1))
        first = (qbinom(L - s + c.alpha, c.alpha) * qbinom(M - s, c.phi)).shifted(c.phi)
        second = qbinom(L - s + c.alpha - 1, c.alpha - 1) * qbinom(M - s, c.phi - 1)
        total = total + (qbinom(L - s + c.beta, c.beta) * qbinom(M - s + c.gamma, c.gamma)
                         * qbinom(L - s, c.delta) * qbinom(M - s, c.epsilon)
                         * (first + second)).shifted(shift)
    return total


def rhs_63_literal(L, M, i, j, k) -> LaurentPoly:
    """The eq63 tau-sum: over tau, q^{tau(M+2) - T_tau + T_{i-tau} +
    T_{j-tau} + T_{k-tau}} [L-tau; tau] [L-2tau; i-tau] [L-i-tau; j-tau]
    [M-i-j; k-tau], each term the product of its four q-binomials."""
    total = ZERO
    for tau in range(0, min(i, j, k) + 1):
        shift = (tau * (M + 2) - triangular(tau) + triangular(i - tau)
                 + triangular(j - tau) + triangular(k - tau))
        total = total + (qbinom(L - tau, tau) * qbinom(L - 2 * tau, i - tau)
                         * qbinom(L - i - tau, j - tau) * qbinom(M - i - j, k - tau)).shifted(shift)
    return total


def rhs_48_literal(L, M, i, j) -> LaurentPoly:
    """The eq48 k-sum for 0 <= i <= M: over k, q^{T_{i+j-k} + T_k}
    [M; M-i, i-k, k] [L-i; j-k], the multinomial written as [M; i] [i; k],
    each term the product of its three q-binomials."""
    total = ZERO
    for k in range(0, min(i, j) + 1):
        total = total + (qbinom(M, i) * qbinom(i, k) * qbinom(L - i, j - k)).shifted(
            triangular(i + j - k) + triangular(k))
    return total


def marker_product_literal(tops, trunc=None) -> MarkerSeries:
    """prod over the markers X of prod_{m=1..top}(1 + X q^m), one factor
    at a time into the whole series, every factor capped at ``trunc``."""
    arity = len(tops)
    product = MarkerSeries.one(arity, trunc)
    for pos, top in enumerate(tops):
        unit = tuple(int(p == pos) for p in range(arity))
        for m in range(1, top + 1):
            product = product * MarkerSeries(arity, {(0,) * arity: ONE, unit: qpow(m)}, trunc)
    return product


def capped_product_literal(factors, q_cap, shift=0) -> LaurentPoly:
    """q^shift times the product of ``factors``, each an int n >= 0 for
    1/(q)_n or a LaurentPoly, truncated at q^q_cap after every factor;
    1/(q)_n is the product of the geometric series of 1/(1 - q^m), m <= n."""
    product = ONE.truncated(q_cap)
    for factor in factors:
        if isinstance(factor, int):
            for m in range(1, factor + 1):
                geom = LaurentPoly({t: 1 for t in range(0, q_cap + 1, m)})
                product = (product * geom).truncated(q_cap)
        else:
            product = (product * factor).truncated(q_cap)
    return product.shifted(shift).truncated(q_cap)


def cell_61_literal(i, j, k, q_cap) -> LaurentPoly:
    """The eq61 composition sum at (i, j, k), each term the product of its
    six 1/(q)_n factors and (1 - q^alpha + q^{alpha+phi}), truncated at
    q_cap."""
    total = ZERO
    for c in goellnitz_compositions(i, j, k):
        factors = [c.alpha, c.beta, c.gamma, c.delta, c.epsilon, c.phi,
                   ONE - qpow(c.alpha) + qpow(c.alpha + c.phi)]
        total = total + capped_product_literal(factors, q_cap, c.shift)
    return total


def count_text_literal(reports) -> str:
    """The text report of ``count`` for ``reports``: one line per report,
    then the summary line."""
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in r.params.items())
        status = "ok" if r.holds else "FAIL"
        lines.append(f"{r.theorem} {params}: {r.lhs_count} = {r.rhs_count} {status}")
    failures = [r for r in reports if not r.holds]
    lines.append(f"{len(reports)} checks, {len(failures)} failed")
    return "\n".join(lines)
