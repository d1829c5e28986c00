"""One benchmark client: import qschur, report ready, run one pass of ops.

Run as ``python3 perfbench/child.py [SPEC]`` from the repository root with
``src`` on PYTHONPATH.  Without SPEC the child exits once it is ready,
which is how set-up time is sampled.  SPEC is a JSON file holding
``{"ops": [...], "trace": bool, "trace_out": path-or-null}``.

The child writes two JSON lines to stdout: the ready line (clock readings
around the import) and, after the last op, the pass result.  Clocks are
``time.monotonic``, which is system-wide, so the parent can subtract its
own readings from them.  Ops see a captured stdout; nothing they print
reaches the real one.

A short probe runs before the first op and after every op.  On a shared
host the core's speed drifts by up to half over minutes, and CPU time drifts
with it, so each op's time is also reported scaled to the reference
speed: multiplied by PROBE_REF_S over the median probe time next to it.
"""

import sys
import time

STARTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

# probe time at the typical speed of the reference host (a shared 2-core
# Intel Xeon at 2.1 GHz, Python 3.11): the median of 393 probes taken
# between ops; wall_s reads as the time to verdict at that speed
PROBE_REF_S = 0.0040


def _probe() -> list:
    """Three timings of a fixed dict-and-int loop, the kind of work the
    program's inner loops do."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[i & 511] = table.get(i & 511, 0) + i * 3
        times.append(time.perf_counter() - start)
    return times


def _send(payload: dict):
    sys.__stdout__.write(json.dumps(payload) + "\n")
    sys.__stdout__.flush()


def _api_bijection(op: dict) -> tuple[int, dict]:
    """forward_bounded then inverse on every pair; prints the tally."""
    from qschur import ColoredPartition, forward_bounded, inverse
    good = 0
    for L, M, w1, w2 in op["pairs"]:
        pi1 = ColoredPartition.colored("a", w1)
        pi2 = ColoredPartition.colored("b", w2)
        trace, _ = forward_bounded(pi1, pi2, L, M)
        if inverse(trace.pi3) == (pi1, pi2):
            good += 1
    print(f"bijection {op['label']}: {good} of {len(op['pairs'])} pairs round-trip")
    return (0 if good == len(op["pairs"]) else 1), {"round_trips": good}


API = {"bijection": _api_bijection}


def _run_op(op: dict, cli_main) -> dict:
    out, err = io.StringIO(), io.StringIO()
    extra: dict = {}
    error = None
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["kind"] == "cli":
                code = cli_main(op["argv"])
            else:
                code, extra = API[op["name"]](op)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception fails the op, not the pass
        code, error = None, f"{type(exc).__name__}: {exc}"
    end = time.monotonic()
    text = out.getvalue()
    data = text.encode()
    return {"start": start, "end": end, "code": code, "error": error,
            "stdout": text, "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
            "stderr": err.getvalue()[-2000:], **extra}


def main() -> int:
    import_start = time.monotonic()
    import qschur
    import qschur.cli
    ready = time.monotonic()
    _send({"started": STARTED, "import_start": import_start, "ready": ready,
           "module": qschur.__file__})
    if len(sys.argv) < 2:
        return 0
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    results, probes = [], [_probe()]
    for op in spec["ops"]:
        before = tracer.cache_snapshot() if tracer else None
        result = _run_op(op, lambda argv: qschur.cli.main(argv))
        if tracer:
            tracer.record_op(op, result, before)
        results.append(result)
        probes.append(_probe())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    for result, pre, post in zip(results, probes, probes[1:]):
        pace = statistics.median(pre + post) / PROBE_REF_S
        result["raw_s"] = result["end"] - result["start"]
        result["scaled_s"] = result["raw_s"] / pace
    payload = {"ops": results, "peak_rss_mb": peak_kb / 1024.0,
               "wall_raw_s": sum(r["raw_s"] for r in results),
               "wall_s": sum(r["scaled_s"] for r in results)}
    if tracer:
        payload["trace"] = tracer.summary()
        if spec.get("trace_out"):
            with open(spec["trace_out"], "w") as handle:
                json.dump(tracer.raw(), handle)
    _send(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
