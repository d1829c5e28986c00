"""Command-line front end: verification sweeps, theorem counts, bijection
traces and generating-function dumps.

Exit codes, stable across subcommands: 0 when everything holds, 1 when a
counterexample was found (the first witness is printed), 2 on usage or
parse errors.  Every usage error, whether the parser or a command finds
it, prints one ``error: ...`` line on stderr and ``main`` returns 2; only
``--help`` exits through argparse.  Each flag's value is checked where the
flag is declared, so a bad value is rejected while parsing; each command's
``usage`` function makes the checks the parser cannot declare.  Both run
before ``--out`` is opened, so a usage error leaves an existing file as is.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from functools import lru_cache
from typing import Optional, Sequence, TextIO

from .bijection import BijectionTrace, InvalidInput, forward, inverse
from .identities import (
    IDENTITIES,
    Verdict,
    build_GL,
    build_PL,
    build_RL,
    sweep,
    trinomial_rhs,
)
from .partitions import ColoredPartition
from .qseries import Truncation
from .theorems import THEOREMS, CountReport, cell_counts, counts_to_csv

_RANGE_RE = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")

# the flags of 'count': every parameter of a theorem's cells
_COUNT_FLAGS = tuple(dict.fromkeys(name for names in THEOREMS.values() for name in names))
GF_KINDS = {"GL": build_GL, "RL": build_RL, "PL": build_PL, "trinomialRHS": trinomial_rhs}
# the parameter flags of 'verify': every range parameter of the registry,
# of which each identity takes a subset
_RANGE_NAMES = tuple(dict.fromkeys(
    name for spec in IDENTITIES.values() for name in spec.range_params))
_CAP_NAMES = ("qmax", "amax", "bmax", "cmax")
_PARAM_NAMES = _RANGE_NAMES + _CAP_NAMES + ("n",)  # 'count' takes --n


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a rejection as a UsageError, so
    main prints it like every other usage error."""

    def error(self, message):
        raise UsageError(message)


def _parse_range(text: str) -> list[int]:
    m = _RANGE_RE.match(text.strip())
    if m is None:
        raise argparse.ArgumentTypeError(f"bad range {text!r} (expected 'n' or 'a..b')")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) is not None else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _nonnegative_range(text: str) -> list[int]:
    values = _parse_range(text)
    if values[0] < 0:
        raise argparse.ArgumentTypeError(f"range {text!r} must be nonnegative")
    return values


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} must be nonnegative")
    return value


def _flags(args, what: str, takes: Sequence[str], needs: Sequence[str]):
    """Reject a parameter flag that ``what`` does not take, then a flag in
    ``needs`` that is missing."""
    for name in _PARAM_NAMES:
        if getattr(args, name, None) is not None and name not in takes:
            raise UsageError(f"{what} does not take --{name}")
    for name in needs:
        if getattr(args, name) is None:
            raise UsageError(f"{what} needs --{name}")


def _open_out(path: str) -> TextIO:
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}")


def _emit(text: str, out: Optional[TextIO]):
    """Print ``text``, or write the same bytes to the ``--out`` file that
    main opened."""
    if not out:
        print(text)
        return
    try:
        out.write(text + "\n")
        out.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {out.name}: {exc.strerror}")


def _witness_line(v: Verdict) -> str:
    w = v.witness
    where = f"q^{w.q_exp}"
    if w.marker is not None:
        names = "ABC"
        marker = "*".join(f"{names[p]}^{e}" for p, e in enumerate(w.marker))
        where = f"{marker} {where}"
    params = " ".join(f"{k}={val}" for k, val in v.params.items())
    return (f"FAIL {v.identity} [{params}]: first differing coefficient at "
            f"{where}: lhs {w.lhs_coeff}, rhs {w.rhs_coeff}")


def _verify_usage(args):
    if args.identity not in IDENTITIES:
        raise UsageError(f"unknown identity {args.identity!r}; "
                         f"choose from {', '.join(sorted(IDENTITIES))}")
    spec = IDENTITIES[args.identity]
    _flags(args, f"identity {args.identity}", spec.range_params + spec.cap_params,
           spec.range_params)
    grid = itertools.product(*(getattr(args, name) for name in spec.range_params))
    if spec.valid is not None and not any(spec.valid(*cell) for cell in grid):
        raise UsageError(f"identity {args.identity}: no cell of the grid is in its domain")


def cmd_verify(args) -> int:
    spec = IDENTITIES[args.identity]
    ranges = {name: getattr(args, name) for name in spec.range_params}
    caps = {name: getattr(args, name) for name in spec.cap_params
            if getattr(args, name) is not None}
    result = sweep(args.identity, ranges, caps, perturb=args.perturb)

    if args.format == "json":
        payload = {"summary": result.summary(),
                   "failures": [v.to_json_dict() for v in result.failures]}
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"identity {args.identity}: {result.cells} cells evaluated, "
                 f"{result.skipped} skipped, "
                 f"{'all hold' if result.holds else f'{len(result.failures)} FAILED'}"]
        if result.failures:
            lines.append(_witness_line(result.failures[0]))
        _emit("\n".join(lines), args.out)
    return 0 if result.holds else 1


def _count_cells(args):
    """The cells, (n,), (n, i, j) or (n, i, j, L, M), of a count request in
    report order: every cell of the flags' grid in the theorem's domain."""
    if args.theorem in ("S", "G"):
        return ((n,) for n in args.n)
    if args.theorem == "T1":
        top = max(args.n)
        every = range(0, (math.isqrt(8 * top + 1) - 1) // 2 + 1)  # b with T_b <= top
        return ((n, i, j) for n in args.n
                for i in args.i or every for j in args.j or every
                if i * (i + 1) // 2 + j * (j + 1) // 2 <= n)
    t2 = args.theorem == "T2"
    return ((n, i, j, L, M) for L in args.L for M in args.M
            for i in args.i or range(0, max(L, M) + 1)
            for j in args.j or range(0, max(L, M) + 1)
            if (i + j <= min(L, M) if t2 else M >= L >= i + j) for n in args.n)


def _count_usage(args):
    _flags(args, f"count {args.theorem}", THEOREMS[args.theorem],
           ("L", "M") if args.theorem in ("T2", "T3") else ())
    if next(_count_cells(args), None) is None:
        raise UsageError(f"count {args.theorem}: no cell of the grid is in its domain")


def _count_text(theorem: str, counts: list) -> str:
    """A line per cell, its parameters, both sides and ok or FAIL, then the
    summary line."""
    line = " ".join([theorem, *(f"{name}={{}}" for name in THEOREMS[theorem])])
    line += ": {} = {} {}"
    lines = [line.format(*cell, lhs, rhs, "ok" if lhs == rhs else "FAIL")
             for cell, lhs, rhs, _, _ in counts]
    failed = sum(lhs != rhs for _, lhs, rhs, _, _ in counts)
    lines.append(f"{len(counts)} checks, {failed} failed")
    return "\n".join(lines)


def cmd_count(args) -> int:
    # every count is made before any output, so a raise leaves --out empty
    theorem, counts = args.theorem, list(cell_counts(args.theorem, _count_cells(args)))
    if args.format == "json":
        _emit(json.dumps([CountReport.from_count(theorem, count).to_json_dict()
                          for count in counts], indent=2), args.out)
    elif args.format == "csv":
        rows = ((theorem, cell, lhs, rhs) for cell, lhs, rhs, _, _ in counts)
        _emit(counts_to_csv(THEOREMS[theorem], rows), args.out)
    else:
        _emit(_count_text(theorem, counts), args.out)
    return 1 if any(lhs != rhs for _, lhs, rhs, _, _ in counts) else 0


def _trace_table(trace: BijectionTrace) -> str:
    rows = max(len(trace.c1), 1)
    col3 = [str(s) for s in list(trace.pi5.parts) + list(trace.pi6.parts)]
    col4 = [f"{s} | {d}" for s, d in zip(trace.c1, trace.c2)]
    col5 = [f"{s} | {d}" for s, d in zip(trace.c1r, trace.c2)]
    col6 = [str(s) for s in trace.pi3.parts]
    headers = ["step 3 (pi5/pi6)", "step 4 (C1 | C2)", "step 5 (C1R | C2)", "step 6 (pi3)"]
    cols = [col3, col4, col5, col6]
    widths = [max(len(h), *(len(x) for x in c)) if c else len(h)
              for h, c in zip(headers, cols)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for r in range(rows):
        cells = [(c[r] if r < len(c) else "").ljust(w) for c, w in zip(cols, widths)]
        lines.append("  ".join(cells).rstrip())
    if not trace.c1:
        lines.append("(empty)")
    return "\n".join(lines)


def _trace_json(trace: BijectionTrace) -> dict:
    return {
        "pi1": trace.pi1.to_json(),
        "pi2": trace.pi2.to_json(),
        "pi4": trace.pi4.to_json(),
        "pi5": trace.pi5.to_json(),
        "pi4_star": [{"row": r, "circled": c} for r, c in trace.pi4_star],
        "pi6": trace.pi6.to_json(),
        "c1": [{"color": s.color, "weight": s.weight} for s in trace.c1],
        "c2": list(trace.c2),
        "c1r": [{"color": s.color, "weight": s.weight} for s in trace.c1r],
        "pi3": trace.pi3.to_json(),
    }


def _bijection_usage(args):
    """Parse the input into ``args.partitions``: pi1 and pi2 forward, pi3
    inverse."""
    if args.direction == "forward" and "/" not in args.input:
        raise UsageError("forward input must be 'pi1 / pi2'")
    texts = args.input.split("/", 1) if args.direction == "forward" else [args.input]
    try:
        args.partitions = [ColoredPartition.from_text(text) for text in texts]
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_bijection(args) -> int:
    try:
        if args.direction == "forward":
            trace = forward(*args.partitions)
            if args.format == "json":
                _emit(json.dumps(_trace_json(trace), indent=2), args.out)
            else:
                _emit(_trace_table(trace) + f"\npi3 = {trace.pi3}", args.out)
            return 0
        pi1, pi2 = inverse(*args.partitions)
        if args.format == "json":
            _emit(json.dumps({"pi1": pi1.to_json(), "pi2": pi2.to_json()}, indent=2),
                  args.out)
        else:
            _emit(f"pi1 = {pi1}\npi2 = {pi2}", args.out)
        return 0
    except InvalidInput as exc:
        print(f"not in the correspondence's domain: {exc}", file=sys.stderr)
        return 1


def _gf_usage(args):
    if args.kind == "trinomialRHS" and args.L < 1:
        raise UsageError("trinomialRHS needs --L >= 1")


def cmd_gf(args) -> int:
    series = GF_KINDS[args.kind](args.L)
    caps = (args.amax, args.bmax)
    marker_caps = None
    if caps != (None, None):
        # a missing cap leaves its marker uncapped: cap it at the series'
        # own largest exponent there
        tops = [max((exps[p] for exps, _ in series.terms()), default=0)
                for p in (0, 1)]
        marker_caps = tuple(top if cap is None else cap for cap, top in zip(caps, tops))
    if marker_caps is not None or args.qmax is not None:
        series = series.with_truncation(Truncation(marker_caps, args.qmax))
    if args.format == "json":
        _emit(json.dumps(series.to_json_dict(), indent=2), args.out)
    else:
        _emit(str(series), args.out)
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and each command's function reads the module's
    names when it runs."""
    parser = _Parser(
        prog="qschur",
        description="exact checks for bounded Schur-type partition identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="sweep one identity over a parameter grid")
    p_verify.add_argument("identity")
    for name in _RANGE_NAMES:
        p_verify.add_argument(f"--{name}", type=_parse_range,
                              help="integer or inclusive range a..b")
    for name in _CAP_NAMES:
        p_verify.add_argument(f"--{name}", type=_nonnegative_int, help="truncation cap")
    p_verify.add_argument("--perturb", action="store_true",
                          help="self-test: perturb the right side by +1")
    p_verify.set_defaults(fn=cmd_verify, usage=_verify_usage)

    p_count = sub.add_parser("count", help="check a theorem's count equality")
    p_count.add_argument("theorem", choices=THEOREMS)
    for name in _COUNT_FLAGS:
        p_count.add_argument(f"--{name}", type=_nonnegative_range, required=name == "n",
                             help="nonnegative integer or inclusive range a..b")
    p_count.set_defaults(fn=cmd_count, usage=_count_usage)

    p_bij = sub.add_parser("bijection", help="trace the correspondence")
    p_bij.add_argument("direction", choices=("forward", "inverse"))
    p_bij.add_argument("input", help="forward: 'pi1 / pi2'; inverse: a partition")
    p_bij.set_defaults(fn=cmd_bijection, usage=_bijection_usage)

    p_gf = sub.add_parser("gf", help="dump a generating function")
    p_gf.add_argument("kind", choices=GF_KINDS)
    p_gf.add_argument("--L", type=_nonnegative_int, required=True)
    for name in ("qmax", "amax", "bmax"):
        p_gf.add_argument(f"--{name}", type=_nonnegative_int)
    p_gf.set_defaults(fn=cmd_gf, usage=_gf_usage)

    for p in (p_verify, p_count, p_bij, p_gf):
        formats = ("text", "json", "csv") if p is p_count else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write the report to this path")
    return parser


def _join_negative_ranges(argv: Sequence[str]) -> list[str]:
    """Fold '--L -3..6' into '--L=-3..6' so argparse does not mistake a
    negative range for an option string."""
    out: list[str] = []
    skip = False
    for pos, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[pos + 1] if pos + 1 < len(argv) else None
        if token[2:] in _PARAM_NAMES and token.startswith("--") and nxt is not None \
                and nxt.startswith("-") and _RANGE_RE.match(nxt):
            out.append(f"{token}={nxt}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_join_negative_ranges(list(argv)))
        args.usage(args)
        # --out is opened, and truncated, before the command computes, so
        # an unwritable path fails at once; a command that raises after
        # that leaves the file empty.  The command writes to the handle.
        if not args.out:
            return args.fn(args)
        with _open_out(args.out) as args.out:
            return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
