"""Colored integers, the gap condition, and the dilation to ordinary
integers with the classical difference conditions.
"""

from qschur import ColoredPartition, ColoredSymbol, is_type1, schur_counts
from qschur.partitions import iter_type1

P = ColoredPartition.from_text

# Integers come in colors a, b (all n >= 1) and ab (n >= 2), totally
# ordered a1 < b1 < ab2 < a2 < b2 < ab3 < ...
symbols = [ColoredSymbol.parse(s) for s in ("a1", "b1", "ab2", "a2", "b2", "ab3")]
print("ranks:", {str(s): s.rank for s in symbols})

# A gap partition needs consecutive weights to differ by >= 1, and by
# >= 2 when the larger part is colored ab, or a sits directly over b.
print("b2+a1 ok? ", is_type1(P("b2+a1")))    # gap 1 under b: fine
print("a2+b1 ok? ", is_type1(P("a2+b1")))    # a over b needs gap 2
print("ab2+a1 ok?", is_type1(P("ab2+a1")))   # ab on top needs gap 2

# Enumerate every gap partition of weight <= 3 with parts <= b2 (so
# every color capped at weight 2); iter_type1 takes an exact weight n.
for n in range(0, 4):
    for parts in iter_type1(n, a_max=2, b_max=2, ab_max=2):
        p = ColoredPartition(parts)
        print(" ", p, "-> dilated", p.dilated())

# The dilation a_n -> 3n-2, b_n -> 3n-1, ab_n -> 3n-3 maps the colored
# order to the natural order and the gap condition to: differences >= 3,
# strict when the larger part is a multiple of 3.
p = P("ab12+ab10+b7+b6+a5+ab4+b2+a1")
print("\ncolored:", p)
print("dilated:", p.dilated())

# Counting both sides of the classical two-residue theorem:
print("\nn  distinct{1,2 mod 3}  gap partitions")
for n in range(0, 13):
    d, g = schur_counts(n)
    assert d == g
    print(f"{n:>2} {d:>8} {g:>19}")
