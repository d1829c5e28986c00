"""Output checks: an op fails on a wrong exit code, an escaped exception,
a report that does not say what the generator expects, or a stdout that
differs from its canonical digest.

JSON reports are read here with the standard library and a small reader
for the canonical polynomial text; no qschur code is used to check qschur.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional

from workloads import op_key

DIGESTS = Path(__file__).with_name("digests.json")

_TERM = re.compile(r"(^-?|\s[+-]\s)(\S+)")


def poly_terms(text: str) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of a polynomial in canonical text,
    such as ``1 + 2*q - q^3 + 5*q^-2``."""
    text = text.strip()
    if text == "0":
        return []
    terms = []
    for sign, body in _TERM.findall(text):
        coeff_text, star, qpart = body.rpartition("*")
        if not star:
            coeff_text, qpart = (body, "") if "q" not in body else ("", body)
        coeff = int(coeff_text) if coeff_text else 1
        if qpart == "":
            exp = 0
        elif qpart == "q":
            exp = 1
        elif qpart.startswith("q^"):
            exp = int(qpart[2:])
        else:
            raise ValueError(f"bad term {body!r} in {text!r}")
        terms.append((exp, -coeff if "-" in sign else coeff))
    return terms


def _verify(expect: dict, op: dict, result: dict) -> Optional[str]:
    if result["code"] != 0:
        return f"exit code {result['code']}, expected 0"
    line = (f"identity {op['argv'][1]}: {expect['cells']} cells evaluated, "
            f"{expect['skipped']} skipped, all hold")
    if result["stdout"].strip() != line:
        return f"report {result['stdout'].strip()[:200]!r}, expected {line!r}"
    return None


def _perturbed(expect: dict, op: dict, result: dict) -> Optional[str]:
    if result["code"] != 1:
        return f"exit code {result['code']}, expected 1"
    report = json.loads(result["stdout"])
    cells = expect["cells"]
    summary = report["summary"]
    if (summary["cells"], summary["failures"], len(report["failures"])) != (cells,) * 3:
        return f"summary {summary}, expected {cells} cells, all failing"
    for failure in report["failures"]:
        w = failure["witness"]
        if (failure["identity"] != "eq21+perturbed" or failure["holds"]
                or w["q_exp"] != 0 or w["rhs"] - w["lhs"] != 1):
            return f"bad perturbed witness {failure['params']}: {w}"
    return None


def _count(expect: dict, op: dict, result: dict) -> Optional[str]:
    if result["code"] != 0:
        return f"exit code {result['code']}, expected 0"
    lines = result["stdout"].strip().splitlines()
    last = f"{expect['checks']} checks, 0 failed"
    if not lines or lines[-1] != last or len(lines) != expect["checks"] + 1:
        return f"report ends {lines[-1:]!r}, expected {last!r}"
    if not all(line.endswith(" ok") for line in lines[:-1]):
        return "a check line does not end in 'ok'"
    return None


def _gf_total(expect: dict, op: dict, result: dict) -> Optional[str]:
    """At q = A = B = 1, G_L = R_L = (1 + 1 + 1)^L."""
    if result["code"] != 0:
        return f"exit code {result['code']}, expected 0"
    data = json.loads(result["stdout"])
    coeffs = [c for term in data["terms"] for _, c in poly_terms(term["c"])]
    if any(c < 0 for c in coeffs):
        return "negative coefficient in a gap-partition count"
    if sum(coeffs) != 3 ** expect["L"]:
        return f"coefficients sum to {sum(coeffs)}, expected 3^{expect['L']}"
    return None


def _round_trip(expect: dict, op: dict, result: dict) -> Optional[str]:
    n = expect["pairs"]
    if result["code"] != 0 or result.get("round_trips") != n:
        return f"{result.get('round_trips')} of {n} pairs round-trip"
    return None


CHECKS = {"verify": _verify, "perturbed": _perturbed, "count": _count,
          "gf_total": _gf_total, "round_trip": _round_trip}


def load_digests(workload: str) -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def save_digests(workload: str, ops: list, results: list) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload] = {op_key(op): r["sha256"] for op, r in zip(ops, results)}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def check_op(op: dict, result: dict, digests: dict) -> Optional[str]:
    """None when the op's output is right, else the reason it failed."""
    if result["error"] is not None:
        return f"exception {result['error']}"
    try:
        reason = CHECKS[op["check"]["type"]](op["check"], op, result)
    except (ValueError, KeyError, TypeError) as exc:  # malformed report
        reason = f"unreadable report: {type(exc).__name__}: {exc}"
    if reason is None and digests.get(op_key(op), result["sha256"]) != result["sha256"]:
        reason = "stdout differs from its canonical digest"
    return reason
