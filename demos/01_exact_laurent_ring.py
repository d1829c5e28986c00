"""Tour of the exact arithmetic layer: Laurent polynomials and marker series.

Everything in this package is computed in Z[q, q^-1], exactly.  This
script walks through the basic ring operations, exact division, the
canonical text form, and the two-marker series with dilation.
"""

from fractions import Fraction

from qschur import LaurentPoly, MarkerSeries, NotDivisible, ONE, qpow

# A polynomial is stored packed, as its value at q = 2^B (one big integer
# whose digits are the coefficients).  Negative exponents are first-class
# citizens.
p = (ONE - qpow(-1)) * (ONE - qpow(1))
print("(1 - q^-1)(1 - q) =", p)                 # -q^-1 + 2 - q
print("value at q = 2:", p.evaluate(2))          # -1/2, exact rational
print("value at q = 1/3:", p.evaluate(Fraction(1, 3)))

# Division is exact-or-error; there is no rational fallback.
print("(1 - q^2) / (1 - q) =", (ONE - qpow(2)).divide_exact(ONE - qpow(1)))
try:
    (ONE + qpow(1)).divide_exact(ONE - qpow(1))
except NotDivisible as exc:
    print("(1 + q) / (1 - q) ->", type(exc).__name__)

# The canonical text form round-trips.
text = str(p)
assert LaurentPoly.parse(text) == p
print("parsed back from:", repr(text))

# Marker series attach Laurent coefficients to monomials in A, B (or C).
g1 = MarkerSeries(2, {(0, 0): ONE, (1, 0): qpow(1), (0, 1): qpow(1)})
print("\ntwo-marker series:", g1)

# Dilation q -> q^3 with per-marker shifts A -> Aq^-2, B -> Bq^-1 sends a
# term A^i B^j q^e to A^i B^j q^{3e - 2i - j}: the bookkeeping that turns
# colored-integer statements into ordinary partition statements.
print("dilated:", g1.dilate(3, (-2, -1)))        # 1 + A*q + B*q^2
