"""Brute-force bound profiles of the bucketed gap-partition counts.

Each filter states one bucket's defining conditions literally, for one
partition and one candidate bucket at a time; the census tests compare
the library's scan-bucketed censuses against counts built from these.
"""


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
