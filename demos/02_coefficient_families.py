"""The coefficient families: Gaussian binomials (including negative top
argument), order-3 multinomials, and generalized trinomials.
"""

from qschur import poch_qpow, qbinom, qmultinomial3, qtrinomial, triangular

# The Gaussian binomial [top; bottom] counts partitions inside a
# bottom x (top - bottom) box.
print("[4; 2] =", qbinom(4, 2))
print("value at q=1:", qbinom(4, 2).evaluate(1), "(the ordinary C(4,2))")

# The top argument may be any integer: [?; bottom] is defined through the
# Pochhammer ratio (q^{top-bottom+1})_bottom / (q)_bottom and produces a
# signed Laurent monomial times an ordinary Gaussian polynomial.
print("[-1; 1] =", qbinom(-1, 1))
print("[-3; 2] =", qbinom(-3, 2))
# ... and a negative bottom argument gives zero:
print("[4; -1] =", qbinom(4, -1))

# Multiplying back is always exact:
assert qbinom(-3, 2) * poch_qpow(1, 2) == poch_qpow(-4, 2)

# Both Pascal-style recurrences hold on the whole integer grid.
for top in range(-4, 6):
    for bottom in range(-2, 6):
        assert qbinom(top, bottom) == qbinom(top - 1, bottom) + \
            qbinom(top - 1, bottom - 1).shifted(top - bottom)
print("Pascal recurrences verified on a signed grid")

# Order-3 multinomials are products of two binomials, [L; i] [L-i; j];
# the q-binomial is the only coefficient computed by division.
print("\n[3; 1,1,1] =", qmultinomial3(3, 1, 1))
assert qmultinomial3(3, 1, 1) == qbinom(3, 1) * qbinom(2, 1)

# Generalized trinomials keep the parameter c formal: a dict from the
# c-exponent to its Laurent coefficient, zero entries dropped.
t = qtrinomial(2, 0)
print("trinomial (L=2, tau=0):", {j: str(p) for j, p in sorted(t.items())})

# Triangular numbers do the exponent bookkeeping everywhere; note the
# convention T(-1) = 0 that the boundary cases rely on.
print("\nT(n) for n = -2..5:", [triangular(n) for n in range(-2, 6)])
