"""Seeded op lists for the benchmark's workloads.

An op is a plain dict that the child process can run and the parent can
check:

* ``{"kind": "cli", "argv": [...], "check": {...}}`` passes ``argv`` to
  ``qschur.cli.main`` in-process with stdout captured;
* ``{"kind": "api", "name": "bijection", "pairs": [...], "check": {...}}``
  runs a batch of public-library calls defined in ``child.py``.

Every op carries the expectation its output is checked against (see
``checks.py``).  Expectations are computed here from the op's own ranges,
never by asking the program.

The seed only permutes op order.  Window offsets and chunk sizes stay
fixed on purpose: moving the eq21 window by one step changes the cost of
the sweep by several per cent and its memory footprint with it, and the
benchmark's spread is measured across seeds.  Because every seed runs the
same set of ops, every op has a canonical stdout digest.
"""

from __future__ import annotations

import random

CANONICAL_SEED = 0


def _span(text: str) -> range:
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def _triangular(n: int) -> int:
    return n * (n + 1) // 2


# --------------------------------------------------------------------------
# expected sizes, from the same rules the CLI documents

# cell validity for the identities the workloads sweep (missing: always valid)
_VALID = {
    "eq48": lambda L, M, i, j: 0 <= i <= M and 0 <= j <= L,
    "eq63": lambda L, M, i, j, k: min(i, j, k) >= 0,
    "rec55": lambda L: L >= 2,
    "eq516": lambda L: L >= 1,
    "rec512": lambda L: L >= 0,
}
_AXES = {
    "eq21": ("L", "M", "i", "j"),
    "eq48": ("L", "M", "i", "j"),
    "eq63": ("L", "M", "i", "j", "k"),
    "rec55": ("L",),
    "eq516": ("L",),
    "rec512": ("L",),
}


def _grid_counts(identity: str, ranges: dict) -> tuple[int, int]:
    """(cells evaluated, cells skipped) for a sweep over ``ranges``."""
    cells = [{}]
    for axis in _AXES[identity]:
        cells = [dict(c, **{axis: v}) for c in cells for v in _span(ranges[axis])]
    valid = _VALID.get(identity)
    good = sum(1 for c in cells if valid is None or valid(**c))
    return good, len(cells) - good


def _count_checks(theorem: str, ranges: dict) -> int:
    """Number of reports ``qschur count`` prints for ``ranges``."""
    ns = _span(ranges["n"])
    if theorem in ("S", "G"):
        return max(ns) + 1
    if theorem == "T1":
        return sum(1 for n in ns for i in range(n + 1) for j in range(n + 1)
                   if _triangular(i) + _triangular(j) <= n)
    total = 0
    for L in _span(ranges["L"]):
        for M in _span(ranges["M"]):
            top = max(L, M)
            for i in range(top + 1):
                for j in range(top + 1):
                    if theorem == "T2" and i + j <= min(L, M):
                        total += len(ns)
                    elif theorem == "T3" and M >= L >= i + j:
                        total += len(ns)
    return total


def _flags(ranges: dict) -> list[str]:
    argv = []
    for name, value in ranges.items():
        argv += [f"--{name}", str(value)]
    return argv


def verify_op(identity: str, ranges: dict, caps: dict | None = None) -> dict:
    if caps:
        cells, skipped = 1, 0
    else:
        cells, skipped = _grid_counts(identity, ranges)
    return {"kind": "cli",
            "argv": ["verify", identity, *_flags(ranges), *_flags(caps or {})],
            "check": {"type": "verify", "cells": cells, "skipped": skipped}}


def perturbed_op(ranges: dict) -> dict:
    cells, _ = _grid_counts("eq21", ranges)
    return {"kind": "cli",
            "argv": ["verify", "eq21", *_flags(ranges), "--perturb", "--format", "json"],
            "check": {"type": "perturbed", "cells": cells}}


def count_op(theorem: str, ranges: dict) -> dict:
    return {"kind": "cli", "argv": ["count", theorem, *_flags(ranges)],
            "check": {"type": "count", "checks": _count_checks(theorem, ranges)}}


def gf_op(L: int) -> dict:
    return {"kind": "cli", "argv": ["gf", "GL", "--L", str(L), "--format", "json"],
            "check": {"type": "gf_total", "L": L}}


def _distinct_parts(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for p in range(min(n, cap), 0, -1):
        for rest in _distinct_parts(n - p, p - 1):
            yield (p,) + rest


def bijection_pairs(L: int, M_max: int = 8, n_max: int = 16) -> list:
    """The bounded round-trip grid at one L: pairs of distinct a-parts
    <= M-j and distinct b-parts <= L with i+j <= L, for M in L..M_max."""
    pairs = []
    for M in range(L, M_max + 1):
        for n in range(n_max + 1):
            for m in range(n + 1):
                for w2 in _distinct_parts(n - m, min(L, n - m)):
                    j = len(w2)
                    for w1 in _distinct_parts(m, min(max(M - j, 0), m)):
                        if len(w1) + j <= L:
                            pairs.append([L, M, list(w1), list(w2)])
    return pairs


def bijection_op(L: int) -> dict:
    pairs = bijection_pairs(L)
    return {"kind": "api", "name": "bijection", "label": f"L={L}", "pairs": pairs,
            "check": {"type": "round_trip", "pairs": len(pairs)}}


# --------------------------------------------------------------------------
# workloads


def signed_grid() -> tuple[list, list]:
    """eq21 over [-5..10]^4, one invocation per L."""
    window = "-5..10"
    ops = [verify_op("eq21", {"L": str(L), "M": window, "i": window, "j": window})
           for L in _span(window)]
    return ops, []


def large_degree() -> tuple[list, list]:
    """Large products, cold multinomial tables, a fully failing sweep."""
    ops = []
    for L in (24, 25):
        ops.append(verify_op("eq21", {"L": str(L), "M": "24..25", "i": "0..12", "j": "0..12"}))
    for L in (16, 17, 18):
        ops.append(verify_op("eq48", {"L": str(L), "M": "16..18", "i": "0..16", "j": "0..16"}))
    for L in (10, 11, 12):
        ops.append(verify_op("eq63", {"L": str(L), "M": "10..12", "i": "0..4",
                                      "j": "0..4", "k": "0..4"}))
    ops.append(verify_op("eq61", {}, {"amax": 4, "bmax": 4, "cmax": 4, "qmax": 40}))
    # the perturbed sweep sets the peak RSS, so it always runs last
    pinned = [perturbed_op({"L": "0..12", "M": "0..12", "i": "0..6", "j": "0..6"})]
    return ops, pinned


def partition_census() -> tuple[list, list]:
    """Gap-partition enumeration, theorem censuses and the bijection."""
    ops = [gf_op(12),
           verify_op("rec55", {"L": "2..12"}),
           verify_op("eq516", {"L": "1..12"}),
           verify_op("rec512", {"L": "0..12"})]
    ops += [count_op("T2", {"n": "0..16", "L": str(L), "M": "0..8"}) for L in range(9)]
    ops += [count_op("T3", {"n": "0..45", "L": str(L), "M": "0..5"}) for L in range(6)]
    ops += [count_op("T1", {"n": "0..20"}),
            count_op("S", {"n": "0..60"}),
            count_op("G", {"n": "0..60"})]
    ops += [bijection_op(L) for L in range(9)]
    return ops, []


WORKLOADS = {
    "signed-grid": signed_grid,
    "large-degree": large_degree,
    "partition-census": partition_census,
}


def op_key(op: dict) -> str:
    """Stable identity of an op, used to look up its canonical digest."""
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    return f"api:{op['name']}:{op['label']}"


def build(workload: str, seed: int) -> list[dict]:
    """The op list of ``workload`` for ``seed``: the canonical seed keeps
    the listed order, any other seed shuffles the unpinned ops."""
    ops, pinned = WORKLOADS[workload]()
    if seed != CANONICAL_SEED:
        random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops + pinned
