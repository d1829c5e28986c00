"""Command-line front end: verification sweeps, theorem counts, bijection
traces and generating-function dumps.

Exit codes, stable across subcommands: 0 when everything holds, 1 when a
counterexample was found (the first witness is printed), 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
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
from .theorems import (
    CountReport,
    check_goellnitz,
    check_schur,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    reports_to_csv,
)

_RANGE_RE = re.compile(r"^(-?\d+)(?:\.\.(-?\d+))?$")

# the flags of 'count', and the ones each theorem takes
_COUNT_FLAGS = ("n", "i", "j", "L", "M")
THEOREMS = {"S": ("n",), "T1": ("n", "i", "j"), "T2": _COUNT_FLAGS, "T3": _COUNT_FLAGS,
            "G": ("n",)}
GF_KINDS = ("GL", "RL", "PL", "trinomialRHS")
# the parameter flags of 'verify': every range parameter of the registry,
# of which each identity takes a subset
_RANGE_NAMES = tuple(dict.fromkeys(
    name for spec in IDENTITIES.values() for name in spec.range_params))
_CAP_NAMES = ("qmax", "amax", "bmax", "cmax")


class UsageError(Exception):
    pass


def _parse_range(text: str) -> list[int]:
    m = _RANGE_RE.match(text.strip())
    if m is None:
        raise UsageError(f"bad range {text!r} (expected 'n' or 'a..b')")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) is not None else lo
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _open_out(path: str) -> TextIO:
    try:
        return open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}")


def _emit(text: str, out: Optional[TextIO]):
    """Print ``text``, or write it to the ``--out`` file that main opened."""
    if not out:
        print(text)
        return
    try:
        out.write(text if text.endswith("\n") else text + "\n")
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


def _reject_csv(args):
    if args.format == "csv":
        raise UsageError("--format csv is only available for 'count'")


def cmd_verify(args) -> int:
    _reject_csv(args)
    if args.identity not in IDENTITIES:
        raise UsageError(f"unknown identity {args.identity!r}; "
                         f"choose from {', '.join(sorted(IDENTITIES))}")
    spec = IDENTITIES[args.identity]
    for name in _RANGE_NAMES + _CAP_NAMES:
        if getattr(args, name) is not None \
                and name not in spec.range_params + spec.cap_params:
            raise UsageError(f"identity {args.identity} does not take --{name}")
    ranges = {}
    for name in spec.range_params:
        value = getattr(args, name)
        if value is None:
            raise UsageError(f"identity {args.identity} needs --{name}")
        ranges[name] = _parse_range(value)
    caps = {name: getattr(args, name) for name in spec.cap_params
            if getattr(args, name) is not None}
    for name, value in caps.items():
        if value < 0:
            raise UsageError(f"--{name} must be nonnegative")
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


def _count_reports(args) -> list[CountReport]:
    theorem = args.theorem
    n_range = _parse_range(args.n) if args.n else None
    if theorem in ("S", "G"):
        if n_range is None:
            raise UsageError(f"count {theorem} needs --n")
        if min(n_range) < 0:
            raise UsageError("--n must be nonnegative")
        reports = check_schur(max(n_range)) if theorem == "S" \
            else check_goellnitz(max(n_range))
        return [r for r in reports if r.params["n"] >= n_range[0]]
    if n_range is None or min(n_range) < 0:
        raise UsageError(f"count {theorem} needs a nonnegative --n range")

    def axis(name, default):
        value = getattr(args, name)
        if not value:
            return default
        values = _parse_range(value)
        if values[0] < 0:
            raise UsageError(f"--{name} must be nonnegative")
        return values

    reports = []
    if theorem == "T1":
        top = max(n_range)
        bound = (math.isqrt(8 * top + 1) - 1) // 2  # the largest b with T_b <= top
        for n in n_range:
            for i in axis("i", range(0, bound + 1)):
                for j in axis("j", range(0, bound + 1)):
                    if i * (i + 1) // 2 + j * (j + 1) // 2 <= n:
                        reports.append(check_theorem1(n, i, j))
        return reports

    L_range = axis("L", None)
    M_range = axis("M", None)
    if L_range is None or M_range is None:
        raise UsageError(f"count {theorem} needs --L and --M")
    if theorem == "T2":
        check, in_domain = check_theorem2, lambda L, M, ij: ij <= min(L, M)
    else:
        check, in_domain = check_theorem3, lambda L, M, ij: M >= L >= ij
    for L in L_range:
        for M in M_range:
            for i in axis("i", range(0, max(L, M) + 1)):
                for j in axis("j", range(0, max(L, M) + 1)):
                    if in_domain(L, M, i + j):
                        reports.extend(check(n, i, j, L, M) for n in n_range)
    return reports


def cmd_count(args) -> int:
    if args.theorem not in THEOREMS:
        raise UsageError(f"unknown theorem {args.theorem!r}; "
                         f"choose from {', '.join(THEOREMS)}")
    for name in _COUNT_FLAGS:
        if getattr(args, name) is not None and name not in THEOREMS[args.theorem]:
            raise UsageError(f"count {args.theorem} does not take --{name}")
    reports = _count_reports(args)
    failures = [r for r in reports if not r.holds]
    if args.format == "json":
        _emit(json.dumps([r.to_json_dict() for r in reports], indent=2), args.out)
    elif args.format == "csv":
        _emit(reports_to_csv(reports), args.out)
    else:
        lines = []
        for r in reports:
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            status = "ok" if r.holds else "FAIL"
            lines.append(f"{r.theorem} {params}: {r.lhs_count} = {r.rhs_count} {status}")
        lines.append(f"{len(reports)} checks, {len(failures)} failed")
        _emit("\n".join(lines), args.out)
    return 0 if not failures else 1


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


def cmd_bijection(args) -> int:
    _reject_csv(args)
    try:
        if args.direction == "forward":
            if "/" not in args.input:
                raise UsageError("forward input must be 'pi1 / pi2'")
            left, right = args.input.split("/", 1)
            pi1 = ColoredPartition.from_text(left)
            pi2 = ColoredPartition.from_text(right)
            trace = forward(pi1, pi2)
            if args.format == "json":
                _emit(json.dumps(_trace_json(trace), indent=2), args.out)
            else:
                _emit(_trace_table(trace) + f"\npi3 = {trace.pi3}", args.out)
            return 0
        pi3 = ColoredPartition.from_text(args.input)
        pi1, pi2 = inverse(pi3)
        if args.format == "json":
            _emit(json.dumps({"pi1": pi1.to_json(), "pi2": pi2.to_json()}, indent=2),
                  args.out)
        else:
            _emit(f"pi1 = {pi1}\npi2 = {pi2}", args.out)
        return 0
    except InvalidInput as exc:
        print(f"not in the correspondence's domain: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        raise UsageError(str(exc))


def cmd_gf(args) -> int:
    _reject_csv(args)
    if args.kind not in GF_KINDS:
        raise UsageError(f"unknown kind {args.kind!r}; choose from {', '.join(GF_KINDS)}")
    if args.L is None or not re.fullmatch(r"\d+", args.L.strip()):
        raise UsageError("gf needs --L >= 0")
    L = int(args.L)
    if args.kind == "trinomialRHS" and L < 1:
        raise UsageError("trinomialRHS needs --L >= 1")
    for name in ("qmax", "amax", "bmax"):
        if getattr(args, name) is not None and getattr(args, name) < 0:
            raise UsageError(f"--{name} must be nonnegative")
    builder = {"GL": build_GL, "RL": build_RL, "PL": build_PL,
               "trinomialRHS": trinomial_rhs}[args.kind]
    series = builder(L)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschur",
        description="exact checks for bounded Schur-type partition identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="sweep one identity over a parameter grid")
    p_verify.add_argument("identity")
    for name in _RANGE_NAMES:
        p_verify.add_argument(f"--{name}", help="integer or inclusive range a..b")
    for name in _CAP_NAMES:
        p_verify.add_argument(f"--{name}", type=int, help="truncation cap")
    p_verify.add_argument("--perturb", action="store_true",
                          help="self-test: perturb the right side by +1")
    p_verify.set_defaults(fn=cmd_verify)

    p_count = sub.add_parser("count", help="check a theorem's count equality")
    p_count.add_argument("theorem")
    for name in _COUNT_FLAGS:
        p_count.add_argument(f"--{name}", help="integer or inclusive range a..b")
    p_count.set_defaults(fn=cmd_count)

    p_bij = sub.add_parser("bijection", help="trace the correspondence")
    p_bij.add_argument("direction", choices=("forward", "inverse"))
    p_bij.add_argument("input", help="forward: 'pi1 / pi2'; inverse: a partition")
    p_bij.set_defaults(fn=cmd_bijection)

    p_gf = sub.add_parser("gf", help="dump a generating function")
    p_gf.add_argument("kind")
    p_gf.add_argument("--L")
    for name in ("qmax", "amax", "bmax"):
        p_gf.add_argument(f"--{name}", type=int)
    p_gf.set_defaults(fn=cmd_gf)

    for p in (p_verify, p_count, p_bij, p_gf):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write the report to this path")
    return parser


_RANGE_FLAGS = {f"--{name}" for name in _RANGE_NAMES + ("n",)}  # 'count' takes --n


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
        if token in _RANGE_FLAGS and nxt is not None \
                and nxt.startswith("-") and _RANGE_RE.match(nxt):
            out.append(f"{token}={nxt}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_ranges(list(argv)))
    try:
        # --out is opened, and truncated, before the command computes, so
        # an unwritable path fails at once; a command that fails after
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
