"""Coefficient families built on the exact Laurent ring.

Triangular numbers, q-Pochhammer products at monomial arguments, Gaussian
binomial coefficients extended to arbitrary integer top argument, order-3
q-multinomial coefficients, and generalized q-trinomial coefficients.

The extended q-binomial is computed directly from its defining ratio by
exact Laurent division (qbinom(t, b) = (q^{t-b+1})_b / (q)_b for b >= 0,
zero for b < 0); for negative top this yields a signed monomial times an
ordinary Gaussian polynomial, and the standard reflection formula is used
only as an independent test oracle, never in the computation.  It is the
only division here: every multinomial, and so every trinomial entry, is a
product of two q-binomials, [L; i, j, L-i-j] = [L; i] [L-i; j] (Andrews,
The Theory of Partitions, 1976, section 3.3).
"""

from __future__ import annotations

from functools import lru_cache

from .qseries import LaurentPoly, ONE, ZERO, qpow

__all__ = [
    "poch_qpow",
    "qbinom",
    "qmultinomial3",
    "qtrinomial",
    "triangular",
]


def triangular(n: int) -> int:
    """The n-th triangular number n(n+1)/2, for any integer n (T_{-1} = 0)."""
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def poch_qpow(m: int, n: int) -> LaurentPoly:
    """The finite product (q^m; q)_n = prod_{j=0}^{n-1} (1 - q^{m+j}).

    n must be nonnegative; the empty product is 1.  m may be negative, in
    which case factors carry negative exponents (and the product is zero
    whenever the factor (1 - q^0) appears, i.e. m <= 0 <= m + n - 1).
    """
    if n < 0:
        raise ValueError("poch_qpow needs n >= 0")
    if m <= 0 <= m + n - 1:
        return ZERO
    if n == 0:
        return ONE
    for k in range(1, n):  # the prefixes in ascending order: no deep recursion
        poch_qpow(m, k)
    return poch_qpow(m, n - 1) * (ONE - qpow(m + n - 1))


@lru_cache(maxsize=None)
def qbinom(top: int, bottom: int) -> LaurentPoly:
    """Gaussian binomial coefficient [top; bottom], any integer arguments.

    Zero when bottom < 0; otherwise the exact Laurent quotient
    (q^{top-bottom+1})_bottom / (q)_bottom.  For 0 <= bottom <= top this
    is the classical Gaussian polynomial counting partitions in a
    bottom x (top-bottom) box.
    """
    if bottom < 0:
        return ZERO
    num = poch_qpow(top - bottom + 1, bottom)
    if not num:
        return ZERO
    return num.divide_exact(poch_qpow(1, bottom))


@lru_cache(maxsize=None)
def qmultinomial3(L: int, i: int, j: int) -> LaurentPoly:
    """Order-3 q-multinomial (q)_L / ((q)_i (q)_j (q)_{L-i-j}), read as
    [L; i] [L-i; j].

    Zero unless i, j and L-i-j are all nonnegative.
    """
    if i < 0 or j < 0 or L - i - j < 0:
        return ZERO
    return qbinom(L, i) * qbinom(L - i, j)


def qtrinomial(L: int, tau: int) -> dict[int, LaurentPoly]:
    """Generalized q-trinomial: sum_j c^j q^{j(j+tau)} [L; j+tau, j, L-2j-tau],
    with the parameter c kept formal.

    Returns {j: coefficient of c^j}.  The sum runs over the j >= 0 for
    which the order-3 multinomial has nonnegative slots, where it is
    nonzero; outside that range the value is zero, an empty dict.
    """
    return {j: qmultinomial3(L, j + tau, j).shifted(j * (j + tau))
            for j in range(max(0, -tau), (L - tau) // 2 + 1)}
