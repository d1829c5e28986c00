"""Benchmark for qschur: time to verdict, set-up time and memory per
workload, and per-layer numbers from a separately traced run.

Run from the repository root:

    python3 perfbench/run.py --workload signed-grid --seed 1 --seconds 25 --trace 0

Each pass spawns a fresh Python child (``child.py``) that imports qschur
from ``src/``, reports ready and runs the workload's ops in order, one at
a time, with no threads: a closed loop with one client.  The child's
environment drops QSCHUR_THREADS and fixes PYTHONHASHSEED.  Passes repeat
until ``--seconds`` have gone by; import-only children sample set-up time
in between.  Every op's output is checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics as medians over the passes;
``wall_s`` is scaled to a reference core speed by a probe (see child.py).
``--trace 1`` runs one untraced pass and two traced passes, requires the
traced passes to repeat every count exactly and to print the same bytes
as the untraced one, and reports the per-layer metrics.  Raw data goes
to ``.perfbench/``: per-op durations of every untraced pass, and the op
spans, per-op cache deltas and cell durations of the first traced pass.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (ops) and ``metrics``.  ``--record-digests`` runs the
canonical seed once and stores each op's stdout digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import workloads
from checks import check_op, load_digests, save_digests

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
MIN_PASSES = 3
SETUP_SAMPLES = 2      # import-only children before each pass, besides the pass child
RUN_LIMIT_S = 170.0    # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# children


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QSCHUR_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def _spawn(env: dict, spec: Path | None, timeout: float) -> tuple[dict, dict | None]:
    """Run one child; returns its set-up sample and, given a spec, its pass."""
    argv = [sys.executable, str(CHILD)] + ([str(spec)] if spec else [])
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child did not finish within {timeout:.0f} s")
    except BaseException:  # interrupted: leave no child behind
        proc.kill()
        proc.wait()
        raise
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < (2 if spec else 1):
        raise BenchError(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    ready = json.loads(lines[0])
    sample = {"setup_s": ready["ready"] - spawned,
              "interpreter_s": ready["import_start"] - spawned,
              "import_s": ready["ready"] - ready["import_start"]}
    return sample, (json.loads(lines[-1]) if spec else None)


class Session:
    """One benchmark run: the op list, the child settings and the clock."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.ops = workloads.build(workload, seed)
        self.env = _child_env(root)
        self.work = root / ".perfbench"
        self.work.mkdir(exist_ok=True)
        self.started = time.monotonic()
        self.setup: list[dict] = []
        self.specs: list[Path] = []

    def spec(self, trace: bool, trace_out: Path | None = None) -> Path:
        path = self.work / f"ops-{os.getpid()}-{len(self.specs)}.json"
        path.write_text(json.dumps({"ops": self.ops, "trace": trace,
                                    "trace_out": str(trace_out) if trace_out else None}))
        self.specs.append(path)
        return path

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def sample_setup(self, count: int) -> None:
        for _ in range(count):
            self.setup.append(_spawn(self.env, None, self.remaining())[0])

    def run_pass(self, spec: Path) -> dict:
        sample, result = _spawn(self.env, spec, self.remaining())
        self.setup.append(sample)
        return result

    def close(self) -> None:
        for path in self.specs:
            path.unlink(missing_ok=True)


# --------------------------------------------------------------------------
# checking


def check_passes(session: Session, passes: list[dict]) -> tuple[int, int]:
    """(ops attempted, ops failed) over all passes; failures go to stderr."""
    digests = load_digests(session.workload)
    attempted = failed = 0
    for result in passes:
        for op, outcome in zip(session.ops, result["ops"]):
            attempted += 1
            reason = check_op(op, outcome, digests)
            if reason is not None:
                failed += 1
                print(f"FAILED {workloads.op_key(op)}: {reason}", file=sys.stderr)
                if outcome["stderr"]:
                    print(outcome["stderr"].rstrip(), file=sys.stderr)
    return attempted, failed


def _counts(result: dict) -> dict:
    """Everything in a traced pass that must repeat exactly."""
    trace = result["trace"]
    return {"stats": {k: v[:2] for k, v in trace["stats"].items()},
            "caches": trace["caches"], "cells": trace["cells"]["count"],
            "bytes": [op["bytes"] for op in result["ops"]]}


def trace_soundness(untraced: dict, traced: list[dict]) -> list[str]:
    problems = []
    digests = [op["sha256"] for op in untraced["ops"]]
    for n, result in enumerate(traced, 1):
        if [op["sha256"] for op in result["ops"]] != digests:
            problems.append(f"traced pass {n} printed other bytes than the untraced pass")
    if _counts(traced[0]) != _counts(traced[1]):
        problems.append("two traced passes gave different counts")
    return problems


# --------------------------------------------------------------------------
# metrics


def end_to_end(session: Session, passes: list[dict]) -> dict:
    return {"wall_s": median(p["wall_s"] for p in passes),
            "setup_s": median(s["setup_s"] for s in session.setup),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in passes)}


def per_layer(session: Session, untraced: dict, traced: list[dict]) -> dict:
    """Counts from the first traced pass (both repeat exactly); times are
    medians over the traced passes."""
    trace = traced[0]["trace"]
    stats, caches = trace["stats"], trace["caches"]

    def count(name: str, field: int = 0) -> int:
        return stats.get(name, [0, 0])[field]

    def self_s(name: str) -> float:
        return median(r["trace"]["stats"].get(name, [0, 0, 0.0, 0.0])[3] for r in traced)

    def cell(key: str) -> float:
        return median(r["trace"]["cells"][key] for r in traced)

    def ratio(*labels: str) -> float:
        """Cache hits over calls; 0 when there were no calls."""
        hits = sum(caches.get(l, [0, 0])[0] for l in labels)
        calls = hits + sum(caches.get(l, [0, 0])[1] for l in labels)
        return hits / calls if calls else 0.0

    census = [l for l in caches if l.startswith("theorems.census.")]
    cli_bytes = sum(op["bytes"] for op, spec in zip(traced[0]["ops"], session.ops)
                    if spec["kind"] == "cli")
    traced_raw = median(r["wall_raw_s"] for r in traced)
    covered = median(sum(v[3] for v in r["trace"]["stats"].values()) for r in traced)
    return {
        "qseries.poly_mul.calls": (count("qseries.poly_mul"), "count"),
        "qseries.poly_mul.term_pairs": (count("qseries.poly_mul", 1), "count"),
        "qseries.poly_mul.self_s": (self_s("qseries.poly_mul"), "s"),
        "qseries.poly_add.calls": (count("qseries.poly_add"), "count"),
        "qseries.poly_add.self_s": (self_s("qseries.poly_add"), "s"),
        "qseries.divide_exact.calls": (count("qseries.divide_exact"), "count"),
        "qseries.divide_exact.self_s": (self_s("qseries.divide_exact"), "s"),
        "qseries.series_mul.calls": (count("qseries.series_mul"), "count"),
        "qseries.series_mul.self_s": (self_s("qseries.series_mul"), "s"),
        "coefficients.qbinom.calls": (count("coefficients.qbinom"), "count"),
        "coefficients.qbinom.hit_ratio": (ratio("coefficients.qbinom"), "ratio"),
        "coefficients.qbinom.self_s": (self_s("coefficients.qbinom"), "s"),
        "coefficients.poch_qpow.hit_ratio": (ratio("coefficients.poch_qpow"), "ratio"),
        "coefficients.poch_qpow.self_s": (self_s("coefficients.poch_qpow"), "s"),
        "coefficients.qmultinomial3.calls": (count("coefficients.qmultinomial3"), "count"),
        "coefficients.qmultinomial3.hit_ratio": (ratio("coefficients.qmultinomial3"), "ratio"),
        "coefficients.qmultinomial3.self_s": (self_s("coefficients.qmultinomial3"), "s"),
        "partitions.iter_type1.calls": (count("partitions.iter_type1"), "count"),
        "partitions.iter_type1.yielded": (count("partitions.iter_type1", 1), "count"),
        "partitions.iter_type1.self_s": (self_s("partitions.iter_type1"), "s"),
        "partitions.iter_schur_gap.calls": (count("partitions.iter_schur_gap"), "count"),
        "partitions.iter_schur_gap.yielded": (count("partitions.iter_schur_gap", 1), "count"),
        "partitions.iter_schur_gap.self_s": (self_s("partitions.iter_schur_gap"), "s"),
        "partitions.count_V.calls": (count("partitions.count_V"), "count"),
        "partitions.count_V.self_s": (self_s("partitions.count_V"), "s"),
        "theorems.check.calls": (count("theorems.check"), "count"),
        "theorems.check.self_s": (self_s("theorems.check"), "s"),
        "theorems.census.builds": (sum(caches[l][1] for l in census), "count"),
        "theorems.census.hit_ratio": (ratio(*census), "ratio"),
        "bijection.round_trips": (sum(op.get("round_trips", 0) for op in traced[0]["ops"]),
                                  "count"),
        "bijection.forward_bounded.self_s": (self_s("bijection.forward_bounded"), "s"),
        "bijection.inverse.self_s": (self_s("bijection.inverse"), "s"),
        "identities.cells": (trace["cells"]["count"], "count"),
        "identities.cell.self_s": (self_s("identities.cell"), "s"),
        "identities.cell.p50_us": (cell("p50_us"), "us"),
        "identities.cell.p99_us": (cell("p99_us"), "us"),
        "identities.build_GL.calls": (count("identities.build_GL"), "count"),
        "identities.build_GL.self_s": (self_s("identities.build_GL"), "s"),
        "identities.sweep.self_s": (self_s("identities.sweep"), "s"),
        "identities.failures": (count("identities.sweep", 1), "count"),
        "cli.main.calls": (count("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (cli_bytes, "B"),
        "setup.interpreter_s": (median(s["interpreter_s"] for s in session.setup), "s"),
        "setup.import_s": (median(s["import_s"] for s in session.setup), "s"),
        "trace.overhead_s": (median(r["wall_s"] for r in traced) - untraced["wall_s"], "s"),
        "trace.self_coverage": (covered / traced_raw if traced_raw else 0.0, "ratio"),
    }


# --------------------------------------------------------------------------
# environment


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout, read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def environment(root: Path, workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qschur").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "platform": platform.platform(),
            "git_commit": _git_commit(root), "source_sha256": digest.hexdigest()[:16]}


# --------------------------------------------------------------------------
# main


def measure(session: Session, seconds: float) -> tuple[list[dict], dict]:
    """At least MIN_PASSES untraced passes, more until ``seconds`` have
    gone by, with set-up samples taken between them."""
    spec = session.spec(trace=False)
    passes = []
    begun = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - begun < seconds:
        session.sample_setup(SETUP_SAMPLES)
        last = time.monotonic()
        passes.append(session.run_pass(spec))
        if session.remaining() < 1.5 * (time.monotonic() - last):
            break
    dump = session.work / f"run-{session.workload}-seed{session.seed}.json"
    dump.write_text(json.dumps({
        "setup": session.setup,
        "passes": [{"wall_s": p["wall_s"], "wall_raw_s": p["wall_raw_s"],
                    "peak_rss_mb": p["peak_rss_mb"],
                    "op_raw_s": [op["raw_s"] for op in p["ops"]],
                    "op_scaled_s": [op["scaled_s"] for op in p["ops"]]} for p in passes]}))
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(session, passes).items()}
    return passes, metrics


def measure_traced(session: Session) -> tuple[list[dict], dict, list[str]]:
    raw = session.work / f"trace-{session.workload}-seed{session.seed}.json"
    passes = []
    for spec in (session.spec(trace=False), session.spec(trace=True, trace_out=raw),
                 session.spec(trace=True)):
        session.sample_setup(SETUP_SAMPLES)
        passes.append(session.run_pass(spec))
    untraced, *traced = passes
    problems = trace_soundness(untraced, traced)
    if traced[0]["trace"]["missing"]:
        problems.append(f"not traced: {', '.join(traced[0]['trace']['missing'])}")
    return passes, per_layer(session, untraced, traced), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.CANONICAL_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the canonical seed's stdout digests and exit")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    root = Path.cwd()
    if not (root / "src" / "qschur" / "__init__.py").is_file():
        print("error: run from the repository root; src/qschur not found", file=sys.stderr)
        return 2

    session = Session(root, args.workload, args.seed)
    try:
        _spawn(session.env, None, session.remaining())  # warm-up: bytecode cache
        if args.record_digests:
            if args.seed != workloads.CANONICAL_SEED:
                print("error: digests are recorded for the canonical seed", file=sys.stderr)
                return 2
            result = session.run_pass(session.spec(trace=False))
            save_digests(args.workload, session.ops, result["ops"])
            return 0
        if args.trace:
            passes, metrics, problems = measure_traced(session)
        else:
            passes, metrics = measure(session, args.seconds)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()

    attempted, failed = check_passes(session, passes)
    for problem in problems:
        print(f"FAILED trace soundness: {problem}", file=sys.stderr)

    for key, value in environment(root, args.workload, args.seed).items():
        print(f"env {key} {value}")
    print(f"passes {len(passes)}, ops per pass {len(session.ops)}, "
          f"set-up samples {len(session.setup)}")
    print(f"wall_raw_s {median(p['wall_raw_s'] for p in passes):.6g} s "
          f"(time to verdict as timed, before scaling to the reference speed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
