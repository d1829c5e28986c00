"""Machine verification of the bounded identities: single cells, grids,
series forms, the trinomial representation, and the three-color identity.
"""

from qschur import (
    build_GL,
    build_PL,
    build_RL,
    sweep,
    trinomial_rhs,
    verify,
)

# One cell of the double-bounded key identity.  Both sides are exact
# Laurent polynomials; holds means bit-for-bit equality.
v = verify("eq21", 2, 2, 1, 1)
print("key identity at (2,2,1,1):", v.lhs, "=", v.rhs, "->", v.holds)

# The identity is valid for ARBITRARY integers, including negative bounds.
result = sweep("eq21", {"L": range(-4, 5), "M": range(-4, 5),
                        "i": range(-4, 5), "j": range(-4, 5)})
print("signed sweep:", result.summary())

# The bounded generating function of gap partitions, its multinomial
# form, and the continued-fraction convergents all coincide.
print("\nG_2 =", build_GL(2))
print("R_2 =", build_RL(2))
print("P_2 =", build_PL(2))
assert verify("eq53", 2).holds and verify("rec55", 4).holds

# Dilating G_L gives the two-parameter trinomial representation.
print("\ntrinomial form of G_2:", trinomial_rhs(2))

# The three-color double-bounded identity, with unequal bounds both ways,
# and its equal-bound closed form.
print("\nthree-color identity spot checks:")
for L, M, i, j, k in ((4, 6, 1, 1, 1), (6, 4, 2, 1, 1), (5, 5, 2, 2, 2)):
    print(f"  (L={L}, M={M}, i={i}, j={j}, k={k}):",
          verify("eq63", L, M, i, j, k).holds)
print("closed form at L=M=5, (2,2,2):", verify("eq63lm", 5, 2, 2, 2).holds)

# Truncated check of the infinite two-marker identity: double series
# against double product, within explicit caps.
print("\ntruncated product identity (caps 4,4, q^20):",
      verify("eq11", 4, 4, 20).holds)
