"""The counting theorems end to end: unbounded, double-bounded, dilated,
and the two classical difference theorems.
"""

from qschur import (
    check_goellnitz,
    check_schur,
    check_theorem1,
    check_theorem2,
    check_theorem3,
)
from qschur.theorems import count_reports, reports_to_csv

# Vector partitions of n with (i, j) distinct a/b-parts match the gap
# partitions bucketed by color counts.
report = check_theorem1(8, 2, 1)
print("unbounded refinement at (n=8, i=2, j=1):",
      report.lhs_count, "=", report.rhs_count)
print("  per (r, s, t) bucket:", report.breakdown)

# The double-bounded version also tracks the boundary statistic bucket.
report = check_theorem2(9, 1, 2, 3, 5)
print("\ndouble-bounded at (n=9, i=1, j=2, L=3, M=5):",
      report.lhs_count, "=", report.rhs_count)
print("  per (r, s, t, l) bucket:", report.breakdown)

# The mirrored regime (first bound larger) swaps the statistic's role.
report = check_theorem2(9, 1, 1, 6, 3)
print("mirrored bounds (L=6, M=3):", report.lhs_count, "=", report.rhs_count)

# Dilated to ordinary integers: residue classes 1, 2 mod 3 with separate
# caps, against gap partitions with per-class caps.
report = check_theorem3(21, 1, 2, 3, 4)
print("\ndilated refinement at (n=21, i=1, j=2, L=3, M=4):",
      report.lhs_count, "=", report.rhs_count)

# A grid builds each census once, from one transfer: every T1 cell to n = 60.
cells = [(n, i, j) for n in range(0, 61) for i in range(0, 11) for j in range(0, 11)
         if i * (i + 1) // 2 + j * (j + 1) // 2 <= n]
assert all(r.holds for r in count_reports("T1", cells))
print(f"\nunbounded refinement verified on {len(cells)} cells up to n = 60")

# Classical theorems at desk scale, rendered as CSV.
schur = check_schur(12)
print("\n" + reports_to_csv(schur[8:13]))
assert all(r.holds for r in check_goellnitz(40))
print("three-residue difference theorem verified to n = 40")
