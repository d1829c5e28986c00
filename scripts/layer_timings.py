"""In-process timings of the partition, bijection, identity, ring and
marker-series layers: both enumerators, the gap test, the T1/T2/T3
census builds, the T2 left sides, the per-cell reads and text lines of
the T2 counts, the classical S and G counts, the one-color components,
the forward correspondence alone and the bounded bijection round trips,
the truncated and Durfee-rectangle identity checks, the three-color eq61
and eq63 checks and the warm eq48 sides of the large-degree workload,
warm eq21 cells, called directly and through the sweep harness, the cold
eq21 k-sums of the signed grid's widest slice, cold multinomial and
trinomial tables, the G_L / P_L series with the checks built on them,
and the canonical text of the failing sides of a perturbed eq21 sweep.

Run from a checkout, importing that checkout's sources:

    PYTHONPATH=src python scripts/layer_timings.py [--repeat 7]

Prints one JSON object: for each layer the median, minimum and maximum
over ``--repeat`` runs, in seconds, and the median scaled to the
benchmark's reference core speed.  The scaling is the benchmark's own: a
fixed probe (``_probe`` in perfbench/child.py, loaded from there) runs
before the first run and after every run, and each run's time is
multiplied by ``PROBE_REF_S`` over the median of the probes on either
side of it, so two checkouts timed minutes apart on a shared host can be
compared.  Every table is cleared before each run, so every build is
cold: the tables are every ``lru_cache`` at the top level of
``qschur.coefficients``, ``identities``, ``partitions`` and
``theorems``, found by introspection, so checkouts with different tables
are cleared alike.
A layer listed in ``WARM`` then runs its warm-up untimed, so that only
its ring arithmetic is timed.  The inputs some layers read (parsed
partitions, the bijection grid, the failing sides) are built once by
``main``, untimed, and not at import; the bijection grid is
perfbench/workloads.py's ``bijection_pairs``, loaded from there like the
probe.  The census layers time the counted censuses (``theorems._Census``,
``partitions.gap_prefixes``) and the left sides as the ``count`` command
builds them, and ``count_render_s`` the per-cell work left once they are
built: each cell's domain check, its read of the census rows and its
text line; a checkout without those names is timed with its own copy
of this script.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import itertools
import json
import platform
import statistics
import time
from pathlib import Path

from qschur import cli, coefficients, identities, partitions, theorems
from qschur.bijection import forward, forward_bounded, inverse
from qschur.partitions import ColoredPartition, is_type1, iter_schur_gap, iter_type1

# the tables cleared before every run (a table imported by another module
# is listed once)
CACHES = list(dict.fromkeys(obj for module in (coefficients, identities, partitions, theorems)
                            for obj in vars(module).values() if hasattr(obj, "cache_clear")))


def _perfbench(name: str):
    """The benchmark's module perfbench/<name>.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _iter_type1():
    for n in range(0, 27):
        for _ in iter_type1(n):
            pass
    for L, M in ((2, 6), (4, 8), (6, 6)):
        for n in range(0, 25):
            for _ in iter_type1(n, a_max=M, b_max=L, ab_max=M):
                pass


def _iter_schur_gap():
    for n in range(0, 60):
        for _ in iter_schur_gap(n, n):
            pass


@functools.cache
def _partitions():
    # parsed from text, so that neither side reuses symbols its enumerator interned
    return [ColoredPartition.from_text(str(ColoredPartition(parts)))
            for n in range(0, 21) for parts in iter_type1(n)]


def _is_type1():
    partitions = _partitions()
    for _ in range(5):
        for p in partitions:
            is_type1(p)


def _census_T1():
    # what `count T1 --n 0..20` builds: the census from one transfer, then
    # each pair's rows (left side, buckets, eq26 cross-check)
    census = theorems._Census(20)
    for i in range(0, 6):
        for j in range(0, 6):
            if i * (i + 1) // 2 + j * (j + 1) // 2 <= 20:
                census.rows(i, j)


def _census_T2():
    # what perfbench's partition-census T2 ops build: for each bound pair
    # L, M <= 8 the split to n <= 16, then each pair's rows (left side,
    # buckets, eq44 cross-check), the gap prefixes once per L
    for L in range(0, 9):
        prefixes = list(partitions.gap_prefixes(L, 16))
        for M in range(0, 9):
            census = theorems._Census(16, (L, M), prefixes)
            top = min(L, M)
            for i in range(0, top + 1):
                for j in range(0, top - i + 1):
                    census.rows(i, j)


def _census_T3():
    # what the partition-census T3 ops, 0 <= L <= M <= 5 and dilated weight
    # N <= 45, build: the split to the undilated weight (45+2i+j)/3 <= 20
    # and the rows of each pair i+j <= L
    for L in range(0, 6):
        prefixes = list(partitions.gap_prefixes(L, 20))
        for M in range(L, 6):
            census = theorems._Census(20, (L, M), prefixes)
            for i in range(0, L + 1):
                for j in range(0, L - i + 1):
                    census.rows(i, j)


@functools.cache
def _t2_censuses():
    # the censuses of perfbench's partition-census T2 ops, every pair's rows
    # decoded: per op (one L, M <= 8), each bound pair's census and its cells
    # (n, i, j, L, M) in the command's order, n <= 16
    ops = []
    for L in range(0, 9):
        prefixes = list(partitions.gap_prefixes(L, 16))
        op = []
        for M in range(0, 9):
            census = theorems._Census(16, (L, M), prefixes)
            cells = [(n, i, j, L, M) for i in range(0, max(L, M) + 1)
                     for j in range(0, max(L, M) + 1) if i + j <= min(L, M)
                     for n in range(0, 17)]
            for _, i, j, _, _ in cells:
                census.rows(i, j)
            op.append((census, cells))
        ops.append(op)
    return ops


def _count_render():
    # each op's text as the count command writes it: every cell checked
    # against the domain, its counts read from the census, then the lines
    for op in _t2_censuses():
        counts = [theorems._count(census, cell, theorems._weight("T2", cell))
                  for census, cells in op for cell in cells]
        cli._count_text("T2", counts)


def _count_V():
    # the left sides of perfbench's partition-census T2 ops: one count_V
    # product per (i, j, L, M), decoded once
    for L in range(0, 9):
        for M in range(0, 9):
            top = min(L, M)
            for i in range(0, top + 1):
                for j in range(0, top - i + 1):
                    theorems._row(partitions._vector_gf(i, j, L, M).truncated(16))


def _classical():
    theorems.check_schur(60)
    theorems.check_goellnitz(60)


@functools.cache
def _grid():
    # the bounded grid of partition-census's bijection round trips: distinct
    # a-parts <= M-j and distinct b-parts <= L with i+j <= L, for
    # 0 <= L <= M <= 8 and weight <= 16
    bijection_pairs = _perfbench("workloads").bijection_pairs
    return [pair for L in range(0, 9) for pair in bijection_pairs(L)]


@functools.cache
def _components():
    return [(ColoredPartition.colored("a", w1), ColoredPartition.colored("b", w2), L, M)
            for L, M, w1, w2 in _grid()]


def _colored():
    for _, _, w1, w2 in _grid():
        ColoredPartition.colored("a", w1)
        ColoredPartition.colored("b", w2)


def _forward():
    for pi1, pi2, _, _ in _components():
        forward(pi1, pi2)


def _bijection():
    for pi1, pi2, L, M in _components():
        trace, _ = forward_bounded(pi1, pi2, L, M)
        assert inverse(trace.pi3) == (pi1, pi2)


def _identities():
    identities.verify("eq11", 4, 4, 30)
    identities.verify("eq61", 3, 3, 3, 30)
    for L in range(0, 13):
        for i in range(0, L + 1):
            for j in range(0, L - i + 1):
                identities.verify("eq32", L, i, j)


def _goellnitz():
    # large-degree's three-color ops: eq61 at caps (4, 4, 4) and q^40, and
    # eq63 on L, M in 10..12 and i, j, k in 0..4
    identities.verify("eq61", 4, 4, 4, 40)
    for L, M in itertools.product(range(10, 13), repeat=2):
        for i, j, k in itertools.product(range(0, 5), repeat=3):
            identities._sides_63(L, M, i, j, k)


def _kernel_48():
    # both sides of large-degree's eq48 ops: L, M in 16..18, i, j in 0..16
    for L, M in itertools.product(range(16, 19), repeat=2):
        for i, j in itertools.product(range(0, 17), repeat=2):
            identities._sides_48(L, M, i, j)


# one L-slice of the signed grid [-5..10]^4, the one with the largest L
SIGNED = range(-5, 11)


def _ring():
    for M in SIGNED:
        for i in SIGNED:
            for j in SIGNED:
                identities.verify("eq21", 10, M, i, j)


def _sweep():
    assert identities.sweep("eq21", {"L": [10], "M": SIGNED, "i": SIGNED, "j": SIGNED}).holds


def _ksum_wide():
    # the L = -5 slice of the signed grid, where the most k-sums need
    # 64-bit digits
    for M in SIGNED:
        for i in SIGNED:
            for j in SIGNED:
                identities._ksum(-5, M, i, j)


@functools.cache
def _sides():
    # both sides of every failing cell of the perturbed eq21 sweep on
    # L, M in 0..12 and i, j in 0..6
    return [side for verdict in identities.sweep(
        "eq21", {"L": range(0, 13), "M": range(0, 13), "i": range(0, 7), "j": range(0, 7)},
        perturb=True).failures for side in (verdict.lhs, verdict.rhs)]


def _render():
    for side in _sides():
        str(side)


def _multinomial():
    # [M; M-i, i-k, k], the keys of large-degree's eq48 ops (M in 16..18,
    # 0 <= k <= i <= 16), then every trinomial of L <= 12
    for M in range(16, 19):
        for i in range(0, 17):
            for k in range(0, i + 1):
                coefficients.qmultinomial3(M, M - i, i - k)
    for L in range(0, 13):
        for tau in range(-L, L + 1):
            coefficients.qtrinomial(L, tau)


def _series():
    for L in range(0, 13):
        identities.build_GL(L)
        identities.build_PL(L)
    for L in range(1, 13):
        identities.verify("eq516", L)
    for L in range(0, 9):
        for M in range(0, 9):
            identities.verify("eq46", L, M)


LAYERS = {
    "iter_type1_s": (_iter_type1, "every gap partition of n for n <= 26, plus the caps "
                                  "(a, b, ab) = (M, L, M) for (L, M) in (2, 6), (4, 8), "
                                  "(6, 6) and n <= 24, drained"),
    "iter_schur_gap_s": (_iter_schur_gap, "iter_schur_gap(n, n) for n < 60, drained"),
    "is_type1_s": (_is_type1, "is_type1 on each gap partition of weight <= 20, "
                              "parsed from text beforehand, five passes"),
    "census_T1_build_s": (_census_T1, "theorems._Census(20), then rows(i, j) for every "
                                      "T_i + T_j <= 20 (count T1 --n 0..20), cold"),
    "census_T2_build_s": (_census_T2, "theorems._Census(16, (L, M)) for L, M <= 8, then "
                                      "rows(i, j) for i + j <= min(L, M), gap prefixes "
                                      "once per L (the partition-census T2 ops), cold"),
    "census_T3_build_s": (_census_T3, "theorems._Census(20, (L, M)) for 0 <= L <= M <= 5, "
                                      "then rows(i, j) for i + j <= L (the weights "
                                      "(N+2i+j)/3 of dilated weight N <= 45), cold"),
    "count_V_s": (_count_V, "count_V's product q^{T_i+T_j} [M-j; i] [L; j] decoded once for "
                            "L, M <= 8 and i + j <= min(L, M) (the left sides of the "
                            "partition-census T2 ops), cold"),
    "count_render_s": (_count_render, "the text of the partition-census T2 ops (L, M <= 8, "
                                      "n <= 16), each cell's counts read from a census "
                                      "built and decoded beforehand"),
    "classical_s": (_classical, "check_schur(60) then check_goellnitz(60), cold"),
    "colored_s": (_colored, "ColoredPartition.colored for both components of each "
                            "pair of the bijection_s grid"),
    "forward_s": (_forward, "forward alone on the pairs of the bijection_s grid, built "
                            "beforehand"),
    "bijection_s": (_bijection, "forward_bounded then inverse, compared with the input, "
                                "on the pairs of the bounded grid L <= M <= 8, "
                                "weight <= 16, built beforehand"),
    "identities_s": (_identities, "verify('eq11', 4, 4, 30), verify('eq61', 3, 3, 3, 30) "
                                  "and verify('eq32', L, i, j) on every 0 <= i, j with "
                                  "i + j <= L <= 12, cold"),
    "goellnitz_s": (_goellnitz, "verify('eq61', 4, 4, 4, 40), then both sides of eq63 "
                                "for L, M in 10..12 and i, j, k in 0..4 (large-degree's "
                                "three-color ops), cold"),
    "kernel_48_s": (_kernel_48, "both sides of eq48 for L, M in 16..18 and i, j in 0..16 "
                                "(large-degree's eq48 ops), multinomial and q-binomial "
                                "tables warmed by one untimed pass"),
    "ring_s": (_ring, "verify('eq21', 10, M, i, j) for M, i, j in -5..10, q-binomial "
                      "tables and the k-sum row tables, warmed by one untimed pass"),
    "sweep_s": (_sweep, "identities.sweep('eq21') over the ring_s slice, L = 10 and "
                        "M, i, j in -5..10, with the same tables warmed by one untimed "
                        "pass"),
    "ksum_wide_s": (_ksum_wide, "identities._ksum(-5, M, i, j) for M, i, j in -5..10, the "
                                "slice of the signed grid with the most 64-bit k-sums, "
                                "cold"),
    "multinomial_s": (_multinomial, "qmultinomial3(M, M - i, i - k) for M in 16..18 and "
                                    "0 <= k <= i <= 16 (the keys of large-degree's eq48 "
                                    "ops), then qtrinomial(L, tau) for L <= 12 and "
                                    "|tau| <= L, cold"),
    "series_s": (_series, "build_GL(L) and build_PL(L) for L <= 12, cold, then "
                          "verify('eq516', L) for 1 <= L <= 12 and verify('eq46', L, M) for "
                          "L, M <= 8"),
    "render_s": (_render, "str() of both sides of the failing cells of the perturbed "
                          "eq21 sweep on L, M in 0..12, i, j in 0..6, built beforehand"),
}

WARM = {"kernel_48_s": _kernel_48, "ring_s": _ring, "sweep_s": _ring}

# the inputs some layers read, built once by main before any timing
INPUTS = (_partitions, _grid, _components, _sides, _t2_censuses)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    child = _perfbench("child")
    probe, probe_ref_s = child._probe, child.PROBE_REF_S
    out = {"python": platform.python_version(), "repeat": args.repeat,
           "probe_ref_s": probe_ref_s, "layers": {}}
    for build in INPUTS:
        build()
    for name, (fn, what) in LAYERS.items():
        times, probes = [], [probe()]
        for _ in range(args.repeat):
            for cache in CACHES:
                cache.cache_clear()
            if name in WARM:
                WARM[name]()
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
            probes.append(probe())
        scaled = [t * probe_ref_s / statistics.median(pre + post)
                  for t, pre, post in zip(times, probes, probes[1:])]
        out["layers"][name] = {"what": what,
                               "median_s": round(statistics.median(times), 5),
                               "min_s": round(min(times), 5),
                               "max_s": round(max(times), 5),
                               "scaled_median_s": round(statistics.median(scaled), 5)}
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
