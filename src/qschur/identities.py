"""Exact verifiers for the bounded key identities and their consequences.

Each identity has one sides function, which computes both sides as exact
LaurentPoly or MarkerSeries values and returns them as a pair.  Identity
tags (eq21, eq32, ...) are the stable vocabulary shared with the command
line; IDENTITIES, the registry, maps each tag to its sides function and
parameter names, and is the one way in.  verify(tag, *params) checks one
cell and returns a Verdict carrying both sides and, when they differ, a
witness locating the first differing q-coefficient.  sweep checks a grid
of cells, compares the sides itself and builds a Verdict only for a
failing cell.  A side that is a finite sum of q-binomial products
(eq21, eq32, eq44, eq48, eq63, eq63lm) is decided against the other
side by _sum_sides, on one packed difference of its nonzero terms
(LaurentPoly.sum_equals): a holding cell returns that side for both,
so its sum is never formed and the compare is of one value with itself.

Each shape of computation has one route: every triple-q-binomial k-sum
(eq21, eq32, eq44, G_L) reads its terms through _ksum_terms, the
triangular-exponent ones (eq44, G_L) shifted by T_i + T_j, both
truncated marker identities (eq11, eq61) are _cellwise, every product of
(1 + X q^m) factors (eq46, eq11, eq61) is _marker_product, every
truncated product of 1/(q)_n factors (eq26, eq61) is _inv_poch_product,
and the G_L recurrence step shared by P_L and rec55 is _convergent_step.
A product whose inputs repeat is formed once: a k-sum cell reads two
rows once, the head row keyed (M-j, i), whose entry k is the product
[M-i-j+k; k] [M-j; i-k], so a term costs one ring product, and the
binomial row [L-i; j-k] keyed (L-i, j); _bound_pair the one-bound factor
pairs of an eq63 term; and _inv_poch_product's table one product per
multiset of parts.  _marker_product multiplies each marker's own factors
before crossing the markers.  The ring commutes and no truncated factor
has a negative q-exponent, so no reordering or cut at the q-cap changes
a byte.

The generating function G_L of gap partitions with parts bounded by b_L
is always built twice, over dilated values, with the gap from
_schur_next_bound (partitions.gap_series), and from the k-sum formula;
the two are asserted equal before either is used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence, Union

from .coefficients import qbinom, qmultinomial3, qtrinomial, triangular
from .partitions import gap_series
from .qseries import LaurentPoly, MarkerSeries, Truncation, ONE, ZERO, qpow

__all__ = [
    "GoellnitzComposition",
    "IDENTITIES",
    "InternalMismatch",
    "SweepResult",
    "Verdict",
    "Witness",
    "build_GL",
    "build_PL",
    "build_RL",
    "goellnitz_compositions",
    "rhs_21",
    "sweep",
    "trinomial_rhs",
    "verify",
]


class InternalMismatch(AssertionError):
    """Two constructions that must agree did not; falsifies an assumption."""


@dataclass(frozen=True)
class Witness:
    """First differing coefficient between the two sides."""

    q_exp: int
    lhs_coeff: int
    rhs_coeff: int
    marker: Optional[tuple[int, ...]] = None

    def to_json_dict(self) -> dict:
        out = {"q_exp": self.q_exp, "lhs": self.lhs_coeff, "rhs": self.rhs_coeff}
        if self.marker is not None:
            out["marker"] = list(self.marker)
        return out


Value = Union[LaurentPoly, MarkerSeries]
Sides = tuple[Value, Value]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one identity check."""

    identity: str
    params: dict
    holds: bool
    lhs: Value
    rhs: Value
    witness: Optional[Witness] = None

    def to_json_dict(self) -> dict:
        def render(v: Value):
            return str(v) if isinstance(v, LaurentPoly) else v.to_json_dict()
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "holds": self.holds,
            "lhs": render(self.lhs),
            "rhs": render(self.rhs),
            "witness": self.witness.to_json_dict() if self.witness else None,
        }


def _first_witness(lhs: Value, rhs: Value, diff: Value) -> Optional[Witness]:
    """The witness for ``diff = lhs - rhs``, or None when it is zero."""
    if not diff:
        return None
    if isinstance(diff, LaurentPoly):
        e = diff.min_exp
        return Witness(e, lhs.coeff(e), rhs.coeff(e))
    exps, poly = next(diff.terms())
    e = poly.min_exp
    return Witness(e, lhs.coeff(exps).coeff(e), rhs.coeff(exps).coeff(e), marker=exps)


def _verdict(identity: str, params: dict, lhs: Value, rhs: Value) -> Verdict:
    # equal sides have a zero difference, so only unequal ones subtract
    witness = None if lhs == rhs else _first_witness(lhs, rhs, lhs - rhs)
    return Verdict(identity, params, witness is None, lhs, rhs, witness)


# --------------------------------------------------------------------------
# the bounded key identity and its variants


# _ksum's rows, extended in place by _rows: heads [d-i+k; k] [d; i-k] by k,
# d = M - j, and binomials [e; j-k] by k, e = L - i; a zero entry is ZERO
_head_row = lru_cache(maxsize=None)(lambda d, i: [])
_binom_row = lru_cache(maxsize=None)(lambda e, j: [])


def _rows(L: int, M: int, i: int, j: int) -> tuple[list, list]:
    """_ksum's rows at (L, M, i, j), extended through k = min(i, j) term by
    term, head first: row by row raised large-degree's peak RSS by 0.4 MB."""
    n, d, e = min(i, j) + 1, M - j, L - i
    heads, binoms = _head_row(d, i), _binom_row(e, j)
    for k in range(min(len(heads), len(binoms)), n):
        if k == len(heads):
            a, b = qbinom(d - i + k, k), qbinom(d, i - k)
            heads.append(a * b if a and b else ZERO)  # nonzero factors: nonzero
        if k == len(binoms):
            binoms.append(qbinom(e, j - k) or ZERO)
    return heads, binoms


def _ksum_terms(L: int, M: int, i: int, j: int) -> list:
    """The nonzero terms (head, binomial, (i-k)(j-k)) of the k-sum at
    (L, M, i, j), in ascending k, from two rows read once per cell."""
    n = (i if i < j else j) + 1
    if n <= 0:
        return []
    heads, binoms = _head_row(M - j, i), _binom_row(L - i, j)
    if len(heads) < n or len(binoms) < n:
        heads, binoms = _rows(L, M, i, j)
    terms = []
    for k in range(n):
        h, c = heads[k], binoms[k]
        if h is not ZERO and c is not ZERO:
            terms.append((h, c, (i - k) * (j - k)))
    return terms


def _ksum(L: int, M: int, i: int, j: int) -> LaurentPoly:
    """Sum over k of q^{(i-k)(j-k)} [M-i-j+k; k] [M-j; i-k] [L-i; j-k]: the
    nonzero terms are summed on packed integers at one width
    (LaurentPoly.sum_of_products, the proof)."""
    return LaurentPoly.sum_of_products(_ksum_terms(L, M, i, j))


def _sum_sides(terms: list, value: LaurentPoly) -> Sides:
    """The sum of q^e a b over the (a, b, e) of ``terms``, a and b nonzero,
    and ``value``: (value, value) when they are equal, decided on one packed
    difference (LaurentPoly.sum_equals, the proof), so the sum is never
    formed, else (LaurentPoly.sum_of_products(terms), value)."""
    if LaurentPoly.sum_equals(terms, value):
        return value, value
    return LaurentPoly.sum_of_products(terms), value


def rhs_21(L: int, M: int, i: int, j: int) -> LaurentPoly:
    return qbinom(L, j) * qbinom(M - j, i)


def _sides_21(L: int, M: int, i: int, j: int) -> Sides:
    """The double-bounded key identity, for arbitrary integers (_sum_sides)."""
    return _sum_sides(_ksum_terms(L, M, i, j), rhs_21(L, M, i, j))


def _sides_32(L: int, i: int, j: int) -> Sides:
    """The M-free Durfee-rectangle identity (i, j >= 0, L >= i+j): eq21 at
    M = i + j, where [k; k] = 1 and [i; i-k] = [i; k] leave the sum
    sum_k q^{(i-k)(j-k)} [i; k] [L-i; j-k] = [L; j] (q-Chu-Vandermonde;
    Gasper-Rahman, Basic Hypergeometric Series, 1.5), by _sum_sides."""
    return _sum_sides(_ksum_terms(L, i + j, i, j), qbinom(L, j))


def _sides_44(L: int, M: int, i: int, j: int) -> Sides:
    """Triangular-exponent form of the key identity: the k-sum with
    exponents T_{i+j-k} + T_k against q^{T_i+T_j} [L; j] [M-j; i].  Since
    T_{i+j-k} + T_k = T_i + T_j + (i-k)(j-k) for every k, the left side's
    terms are the eq21 k-sum's shifted by T_i + T_j (_sum_sides)."""
    shift = triangular(i) + triangular(j)
    terms = [(h, c, e + shift) for h, c, e in _ksum_terms(L, M, i, j)]
    return _sum_sides(terms, rhs_21(L, M, i, j).shifted(shift))


def _sides_48(L: int, M: int, i: int, j: int) -> Sides:
    """Multinomial-kernel bounded identity (0 <= i <= M, 0 <= j <= L): its
    closed side q^{T_i+T_j} [M; i] [L; j] is eq21's right side at M + j."""
    terms = []
    for k in range(0, min(i, j) + 1):
        a, b = qmultinomial3(M, M - i, i - k), qbinom(L - i, j - k)
        if a and b:
            terms.append((a, b, triangular(i + j - k) + triangular(k)))
    rhs, lhs = _sum_sides(terms, rhs_21(L, M + j, i, j).shifted(triangular(i) + triangular(j)))
    return lhs, rhs


def _marker_product(tops: Sequence[int],
                    trunc: Optional[Truncation] = None) -> MarkerSeries:
    """The product over the markers X of prod_{m=1..top}(1 + X q^m), one
    top per marker, capped at ``trunc``: each marker's own factors are
    multiplied first, then the markers are crossed once."""
    arity = len(tops)
    product = MarkerSeries.one(arity, trunc)
    for pos, top in enumerate(tops):
        unit = tuple(int(p == pos) for p in range(arity))
        own = MarkerSeries.one(arity, trunc)
        for m in range(1, top + 1):
            own = own * MarkerSeries(arity, {(0,) * arity: ONE, unit: qpow(m)}, trunc)
        product = product * own
    return product


def _sides_46(L: int, M: int) -> Sides:
    """Finite two-marker product expansion.

    The product prod_{m<=M}(1+Aq^m) * prod_{m<=L}(1+Bq^m) must equal the
    double sum of A^i B^j q^{T_i+T_j} [M; i] [L; j]; both sides are exact
    polynomials, compared coefficientwise over all (i, j).
    """
    product = _marker_product((M, L))
    expansion = MarkerSeries(2, {
        (i, j): (qbinom(M, i) * qbinom(L, j)).shifted(triangular(i) + triangular(j))
        for i in range(0, max(M, 0) + 1) for j in range(0, max(L, 0) + 1)})
    return product, expansion


# --------------------------------------------------------------------------
# the L = M world: G_L, R_L, P_L, recurrences, trinomials


def _series_from_transfer(L: int) -> MarkerSeries:
    """G_L by the transfer-matrix count of its partitions, partitions.gap_series."""
    return gap_series(L)


def _series_from_sum(L: int) -> MarkerSeries:
    """G_L by the k-sum formula: sum over i, j of A^i B^j times
    sum_k q^{T_{i+j-k}+T_k} [L-i-j+k; k] [L-j; i-k] [L-i; j-k], the eq21
    k-sum at M = L shifted by T_i + T_j.  This is the series build_GL
    returns once the transfer-matrix count agrees with it."""
    return MarkerSeries(2, {(i, j): _ksum(L, L, i, j).shifted(triangular(i) + triangular(j))
                            for i in range(0, L + 1) for j in range(0, L - i + 1)})


@lru_cache(maxsize=None)
def build_GL(L: int) -> MarkerSeries:
    """The generating function of gap partitions with parts <= b_L, built
    over dilated values, with the gap from _schur_next_bound
    (partitions.gap_series), and by the k-sum formula; the two must agree
    exactly (InternalMismatch otherwise).  The k-sum series is returned."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    counted = _series_from_transfer(L)
    summed = _series_from_sum(L)
    if counted != summed:
        raise InternalMismatch(
            f"transfer-matrix and k-sum constructions of G_{L} disagree")
    return summed


@lru_cache(maxsize=None)
def build_RL(L: int) -> MarkerSeries:
    """The multinomial side: sum of A^i B^j q^{T_i+T_j} [L; i, j, L-i-j]."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return MarkerSeries(2, {(i, j): qmultinomial3(L, i, j).shifted(triangular(i) + triangular(j))
                            for i in range(0, L + 1) for j in range(0, L - i + 1)})


def _convergent_step(L: int, prev1: MarkerSeries, prev2: MarkerSeries) -> MarkerSeries:
    """(1 + (A+B)q^L) prev1 + AB(q^L - q^{2L-1}) prev2: the three-term
    step shared by the convergents P_L and the G_L recurrence."""
    lead = MarkerSeries(2, {(0, 0): ONE, (1, 0): qpow(L), (0, 1): qpow(L)})
    tail = MarkerSeries(2, {(1, 1): qpow(L) - qpow(2 * L - 1)})
    return lead * prev1 + tail * prev2


@lru_cache(maxsize=None)
def build_PL(L: int) -> MarkerSeries:
    """Numerator convergent of the continued fraction
    1 + (A+B)q + ABq^2(1-q) / (1 + (A+B)q^2 + ABq^3(1-q^2) / (...)),
    by its three-term recurrence from P_0 = 1 (the AB term of the step
    vanishes at L = 1, so P_1 = 1 + (A+B)q whatever stands for P_{-1})."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    if L == 0:
        return MarkerSeries.one(2)
    return _convergent_step(L, build_PL(L - 1), build_PL(max(L - 2, 0)))


def _sides_53(L: int) -> Sides:
    """G_L equals the multinomial series R_L."""
    return build_GL(L), build_RL(L)


def _sides_rec55(L: int) -> Sides:
    """Three-term recurrence for G_L (L >= 2)."""
    return build_GL(L), _convergent_step(L, build_GL(L - 1), build_GL(L - 2))


def _sides_rec512(L: int) -> Sides:
    """Numerator convergents equal G_L."""
    return build_PL(L), build_GL(L)


def _sides_rec58(L: int, i: int, j: int) -> Sides:
    """Symmetric second-order multinomial recurrence (L >= 2)."""
    lhs = qmultinomial3(L, i, j)
    rhs = (qmultinomial3(L - 1, i, j)
           + qmultinomial3(L - 1, i - 1, j).shifted(L - i)
           + qmultinomial3(L - 1, i, j - 1).shifted(L - j)
           + ((ONE - qpow(L - 1)) * qmultinomial3(L - 2, i - 1, j - 1)).shifted(L - i - j))
    return lhs, rhs


def _sides_rec59(L: int, i: int, j: int) -> Sides:
    """Standard first-order multinomial recurrence (L >= 1)."""
    lhs = qmultinomial3(L, i, j)
    rhs = (qmultinomial3(L - 1, i, j)
           + qmultinomial3(L - 1, i, j - 1).shifted(L - i - j)
           + qmultinomial3(L - 1, i - 1, j).shifted(L - i))
    return lhs, rhs


def trinomial_rhs(L: int) -> MarkerSeries:
    """The trinomial representation: sum over tau in [-L, L] of
    A^tau q^{tau(3tau-1)/2} times the base-q^3 trinomial at c = AB."""
    return MarkerSeries(2, [
        ((j + tau, j), entry.dilated(3).shifted(tau * (3 * tau - 1) // 2))
        for tau in range(-L, L + 1) for j, entry in qtrinomial(L, tau).items()])


def _sides_516(L: int) -> Sides:
    """Dilated G_L (q -> q^3, A -> Aq^-2, B -> Bq^-1) equals the
    two-parameter trinomial sum (L >= 1)."""
    return build_GL(L).dilate(3, (-2, -1)), trinomial_rhs(L)


# --------------------------------------------------------------------------
# three-color (Goellnitz) identities


@dataclass(frozen=True)
class GoellnitzComposition:
    """A composition (alpha..phi) of (i, j, k) with i = alpha+delta+epsilon,
    j = beta+delta+phi, k = gamma+epsilon+phi; s is the total number of
    parts alpha+beta+gamma+delta+epsilon+phi, and shift the exponent
    T_s + T_delta + T_epsilon + T_{phi-1} of its term in eq61 and eq63."""

    alpha: int
    beta: int
    gamma: int
    delta: int
    epsilon: int
    phi: int

    @property
    def s(self) -> int:
        return (self.alpha + self.beta + self.gamma
                + self.delta + self.epsilon + self.phi)

    @property
    def shift(self) -> int:
        return (triangular(self.s) + triangular(self.delta)
                + triangular(self.epsilon) + triangular(self.phi - 1))


def goellnitz_compositions(i: int, j: int, k: int) -> Iterator[GoellnitzComposition]:
    """All nonnegative compositions compatible with (i, j, k)."""
    for delta in range(0, min(i, j) + 1):
        for epsilon in range(0, min(i - delta, k) + 1):
            for phi in range(0, min(j - delta, k - epsilon) + 1):
                yield GoellnitzComposition(
                    alpha=i - delta - epsilon,
                    beta=j - delta - phi,
                    gamma=k - epsilon - phi,
                    delta=delta, epsilon=epsilon, phi=phi)


@lru_cache(maxsize=None)
def _bound_pair(top: int, x: int, y: int) -> LaurentPoly:
    """[top+x; x] [top; y], the factors of an eq63 term that read one bound."""
    a, b = qbinom(top + x, x), qbinom(top, y)
    return a * b if a and b else ZERO


def _lhs_63(L: int, M: int, i: int, j: int, k: int) -> LaurentPoly:
    """The composition sum, over the terms with a nonzero common and tail."""
    terms = []
    for c in goellnitz_compositions(i, j, k):
        s = c.s
        common = _bound_pair(L - s, c.beta, c.delta) * _bound_pair(M - s, c.gamma, c.epsilon)
        if not common:
            continue
        first = (qbinom(L - s + c.alpha, c.alpha) * qbinom(M - s, c.phi)).shifted(c.phi)
        second = qbinom(L - s + c.alpha - 1, c.alpha - 1) * qbinom(M - s, c.phi - 1)
        if tail := first + second:
            terms.append((common, tail, c.shift))
    return LaurentPoly.sum_of_products(terms)


def _rhs_63_terms(L: int, M: int, i: int, j: int, k: int) -> list:
    """The tau-sum's nonzero terms, each as two products of two q-binomials."""
    terms = []
    for tau in range(0, min(i, j, k) + 1):
        a = qbinom(L - tau, tau) * qbinom(L - 2 * tau, i - tau)
        b = qbinom(L - i - tau, j - tau) * qbinom(M - i - j, k - tau)
        if a and b:
            terms.append((a, b, tau * (M + 2) - triangular(tau) + triangular(i - tau)
                          + triangular(j - tau) + triangular(k - tau)))
    return terms


def _sides_63(L: int, M: int, i: int, j: int, k: int) -> Sides:
    """The double-bounded three-color key identity (i, j, k >= 0)."""
    rhs, lhs = _sum_sides(_rhs_63_terms(L, M, i, j, k), _lhs_63(L, M, i, j, k))
    return lhs, rhs


def _sides_63lm(L: int, i: int, j: int, k: int) -> Sides:
    """At L = M the tau-sum collapses to the cyclic closed form
    q^{T_i+T_j+T_k} [L-k; i] [L-i; j] [L-j; k]."""
    closed = (qbinom(L - k, i) * qbinom(L - i, j) * qbinom(L - j, k)).shifted(
        triangular(i) + triangular(j) + triangular(k))
    return _sum_sides(_rhs_63_terms(L, L, i, j, k), closed)


# --------------------------------------------------------------------------
# truncated infinite identities


def _capped_product(factors: Sequence[LaurentPoly], q_cap: int) -> LaurentPoly:
    """The product of ``factors``, truncated at q^q_cap after every factor
    so no intermediate product outgrows the cap."""
    product = ONE
    for factor in factors:
        product = (product * factor).truncated(q_cap)
    return product


@lru_cache(maxsize=None)
def inv_poch_trunc(n: int, q_cap: int) -> LaurentPoly:
    """1/(q)_n as a power series truncated at q^q_cap (n >= 0), obtained
    by multiplying the truncated geometric expansion of each factor."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ONE
    for k in range(1, n):  # the prefixes in ascending order: no deep recursion
        inv_poch_trunc(k, q_cap)
    geom = LaurentPoly({t: 1 for t in range(0, q_cap + 1, n)})
    return _capped_product((inv_poch_trunc(n - 1, q_cap), geom), q_cap)


@lru_cache(maxsize=None)
def _inv_poch_table(parts: tuple[int, ...], q_cap: int) -> LaurentPoly:
    """The product of 1/(q)_n over ``parts`` (sorted, nonzero), truncated
    at q^q_cap: one entry per multiset of parts."""
    return _capped_product([inv_poch_trunc(n, q_cap) for n in parts], q_cap)


def _inv_poch_product(parts: Sequence[int], q_cap: int, shift: int = 0) -> LaurentPoly:
    """q^shift / prod (q)_n over ``parts``, truncated at q^q_cap, from the
    table keyed by the sorted nonzero parts (1/(q)_0 = 1)."""
    product = _inv_poch_table(tuple(sorted(n for n in parts if n)), q_cap)
    return product.shifted(shift).truncated(q_cap)


def _sides_26(i: int, j: int, qmax: int) -> Sides:
    """Termwise limit identity at one (i, j): the k-sum of
    q^{T_{i+j-k}+T_k} / ((q)_{i-k} (q)_{j-k} (q)_k) equals
    q^{T_i+T_j} / ((q)_i (q)_j), both truncated at qmax."""
    lhs = ZERO
    for k in range(0, min(i, j) + 1):
        lhs = lhs + _inv_poch_product((i - k, j - k, k), qmax,
                                      triangular(i + j - k) + triangular(k))
    rhs = _inv_poch_product((i, j), qmax, triangular(i) + triangular(j))
    return lhs, rhs


def _cellwise(caps: Sequence[int], qmax: int,
              cell: Callable[..., tuple[LaurentPoly, LaurentPoly]]) -> Sides:
    """Both sides of a truncated marker identity checked cell by cell:
    ``cell(*marker)`` gives both sides of the coefficient of one marker
    tuple within ``caps``.  The first cell whose sides differ gives the
    sides, as one-term series at its marker; when every cell holds, they
    are the sum of the left sides and the product of (1 + X q^m) over the
    markers X, each marker's factors multiplied first (_marker_product)."""
    trunc = Truncation(tuple(caps), qmax)
    arity = len(caps)
    cells: dict[tuple[int, ...], LaurentPoly] = {}
    for marker in itertools.product(*(range(0, cap + 1) for cap in caps)):
        lhs, rhs = cell(*marker)
        if lhs != rhs:
            return (MarkerSeries(arity, {marker: lhs}, trunc),
                    MarkerSeries(arity, {marker: rhs}, trunc))
        cells[marker] = lhs
    return MarkerSeries(arity, cells, trunc), _marker_product((qmax,) * arity, trunc)


def _sides_11(amax: int, bmax: int, qmax: int) -> Sides:
    """Truncated two-marker key identity: each (i, j) cell is eq26 (the
    k-sum against the Pochhammer form), and the k-sum double series must
    equal the double product within the caps.  A failing eq26 cell is
    reported at its marker (i, j)."""
    return _cellwise((amax, bmax), qmax, lambda i, j: _sides_26(i, j, qmax))


def _cell_61(i: int, j: int, k: int, q_cap: int) -> LaurentPoly:
    """The composition sum with the (1 - q^alpha + q^{alpha+phi}) factor,
    truncated at q_cap: one table read per composition, and the last
    factor applied as two shifts and two additions."""
    total = ZERO
    for c in goellnitz_compositions(i, j, k):
        if c.shift > q_cap:
            continue
        p = _inv_poch_product((c.alpha, c.beta, c.gamma, c.delta, c.epsilon, c.phi), q_cap)
        total = total + (p - p.shifted(c.alpha) + p.shifted(c.alpha + c.phi)).shifted(
            c.shift).truncated(q_cap)
    return total


def _sides_61(amax: int, bmax: int, cmax: int, qmax: int) -> Sides:
    """Truncated three-marker key identity: for each (i, j, k) within the
    caps the composition sum must reduce to q^{T_i+T_j+T_k} / ((q)_i (q)_j
    (q)_k), and summed against the markers it must equal the triple
    product."""
    def cell(i: int, j: int, k: int) -> tuple[LaurentPoly, LaurentPoly]:
        return _cell_61(i, j, k, qmax), _inv_poch_product(
            (i, j, k), qmax, triangular(i) + triangular(j) + triangular(k))
    return _cellwise((amax, bmax, cmax), qmax, cell)


# --------------------------------------------------------------------------
# sweep harness


@dataclass(frozen=True)
class IdentitySpec:
    """Registry entry: how to drive one identity from its parameters.
    ``fn`` is the identity's sides function and ``valid`` its domain
    test.  verify and sweep both call ``fn`` positionally, with the range
    parameters then the caps, in the order named here; sweep calls
    ``valid`` positionally with the range parameters."""

    fn: Callable[..., Sides]
    range_params: tuple[str, ...]
    cap_params: tuple[str, ...] = ()
    valid: Optional[Callable[..., bool]] = None


IDENTITIES: dict[str, IdentitySpec] = {
    "eq21": IdentitySpec(_sides_21, ("L", "M", "i", "j")),
    "eq32": IdentitySpec(_sides_32, ("L", "i", "j"),
                         valid=lambda L, i, j: 0 <= i and 0 <= j and i + j <= L),
    "eq44": IdentitySpec(_sides_44, ("L", "M", "i", "j"),
                         valid=lambda L, M, i, j: 0 <= i + j <= min(L, M) and i >= 0 and j >= 0),
    "eq46": IdentitySpec(_sides_46, ("L", "M"), valid=lambda L, M: L >= 0 and M >= 0),
    "eq48": IdentitySpec(_sides_48, ("L", "M", "i", "j"),
                         valid=lambda L, M, i, j: 0 <= i <= M and 0 <= j <= L),
    "eq53": IdentitySpec(_sides_53, ("L",), valid=lambda L: L >= 0),
    "eq516": IdentitySpec(_sides_516, ("L",), valid=lambda L: L >= 1),
    "eq63": IdentitySpec(_sides_63, ("L", "M", "i", "j", "k"),
                         valid=lambda L, M, i, j, k: min(i, j, k) >= 0),
    "eq63lm": IdentitySpec(_sides_63lm, ("L", "i", "j", "k"),
                           valid=lambda L, i, j, k: min(L, i, j, k) >= 0),
    "rec55": IdentitySpec(_sides_rec55, ("L",), valid=lambda L: L >= 2),
    "rec58": IdentitySpec(_sides_rec58, ("L", "i", "j"), valid=lambda L, i, j: L >= 2),
    "rec59": IdentitySpec(_sides_rec59, ("L", "i", "j"), valid=lambda L, i, j: L >= 1),
    "rec512": IdentitySpec(_sides_rec512, ("L",), valid=lambda L: L >= 0),
    "eq26": IdentitySpec(_sides_26, ("i", "j"), cap_params=("qmax",),
                         valid=lambda i, j: i >= 0 and j >= 0),
    "eq11": IdentitySpec(_sides_11, (), cap_params=("amax", "bmax", "qmax")),
    "eq61": IdentitySpec(_sides_61, (), cap_params=("amax", "bmax", "cmax", "qmax")),
}

DEFAULT_CAPS = {"amax": 8, "bmax": 8, "cmax": 8, "qmax": 60}


def verify(identity: str, *params: int) -> Verdict:
    """Check one cell of an identity and return its Verdict.  ``params``
    are the identity's range parameters then its caps, in the registry's
    order, as in verify("eq21", L, M, i, j) or verify("eq11", amax, bmax,
    qmax).  The cell's domain is not checked and the caps have no
    defaults."""
    spec = IDENTITIES[identity]
    names = spec.range_params + spec.cap_params
    if len(params) != len(names):
        raise TypeError(f"{identity} takes {len(names)} parameters "
                        f"({', '.join(names)}), got {len(params)}")
    return _verdict(identity, dict(zip(names, params)), *spec.fn(*params))


@dataclass
class SweepResult:
    identity: str
    cells: int
    skipped: int
    failures: list[Verdict] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return not self.failures

    def summary(self) -> dict:
        return {"identity": self.identity, "cells": self.cells,
                "skipped": self.skipped, "holds": self.holds,
                "failures": len(self.failures)}


def sweep(identity: str, ranges: dict[str, Sequence[int]],
          caps: Optional[dict[str, int]] = None, *,
          perturb: bool = False) -> SweepResult:
    """Check one identity over the Cartesian grid of its parameter ranges.

    Returns the failures only (in deterministic grid order) plus counts.
    A cell is checked by comparing its sides; its Verdict is built only
    when they differ.  With ``perturb`` (the harness self-test) the right
    side of every cell is shifted by +1, which must fail every cell with
    a witness at the constant coefficient, under the tag
    ``identity+perturbed``.
    """
    spec = IDENTITIES[identity]
    caps = caps or {}
    for kind, given, takes in (("range", ranges, spec.range_params),
                               ("cap", caps, spec.cap_params)):
        for name in given:
            if name not in takes:
                raise ValueError(f"{identity} does not take {kind} {name}")
    missing = [p for p in spec.range_params if p not in ranges]
    if missing:
        raise ValueError(f"{identity} needs ranges for {', '.join(missing)}")
    cap_values = tuple(caps.get(cap, DEFAULT_CAPS[cap]) for cap in spec.cap_params)
    names = spec.range_params + spec.cap_params
    tag = identity + "+perturbed" if perturb else identity

    fn, valid = spec.fn, spec.valid
    grids = [list(ranges[p]) for p in spec.range_params]
    cells = skipped = 0
    failures = []
    for combo in itertools.product(*grids):
        if valid is not None and not valid(*combo):
            skipped += 1
            continue
        cells += 1
        lhs, rhs = fn(*combo, *cap_values)
        if perturb:
            rhs = rhs + 1
        if lhs != rhs:
            failures.append(_verdict(tag, dict(zip(names, combo + cap_values)), lhs, rhs))
    return SweepResult(identity, cells, skipped, failures)
