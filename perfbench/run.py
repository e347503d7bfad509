"""Run one kjdt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  Each pass of the workload runs in a
fresh interpreter (``perfbench/workloads.py``), one after another, so the
load is one single-threaded process.

With ``--trace 0`` passes repeat until ``--seconds`` would be exceeded
(at least three), and the end-to-end metrics are medians over passes.
With ``--trace 1`` the run makes one untraced pass and one traced pass
and reports the per-layer metrics; layer times come from the traced
pass only, everything else from the untraced one.

Every time reported is scaled to a reference speed.  Between passes this
process times a fixed piece of interpreter work that shares no code with
the library; a pass's times are multiplied by REFERENCE_S over the mean
of the two timings around it.  On a machine whose speed drifts, this
removes the drift that the library and the reference work share.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds every figure of the run, raw and scaled, per pass.  A run whose
pass process fails exits with code 1 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ring", "census", "words", "verify")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# Duration of reference_work() that defines the reference speed: about
# its median on the 2-CPU machine the benchmark was written on.
REFERENCE_S = 0.1

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Measured on the untraced pass of a traced run; 0 where a workload has
# no such figure (per-op latency on census and verify, verdicts outside
# words).
RUN_METRICS = [
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("op_tail_percentile", "pct"),
    ("op_samples", "count"),
    ("fail_ratio", "ratio"),
    ("inconclusive_ratio", "ratio"),
]
TRACE_METRICS = [("trace.overhead_ratio", "ratio"), ("trace.unattributed_s", "s")]


class PassFailed(RuntimeError):
    pass


def reference_work(repeats=5):
    """Time fixed interpreter work that shares no code with the library.

    A breadth-first search over tuples of bitmasks: the mix of tuple
    building, set membership and bit operations that dominates the
    library's own time.  Returns the median of ``repeats`` timings, in
    seconds, so that one burst of load does not set the scale.
    """
    timings = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        start = (0, 0, 0, 0)
        seen = {start}
        frontier = [start]
        while frontier and len(seen) < 16384:
            new = []
            for state in frontier:
                for k in range(4):
                    for bit in (1, 2, 4, 8, 16, 32, 64, 128):
                        nxt = state[:k] + (state[k] ^ bit,) + state[k + 1:]
                        if nxt not in seen:
                            seen.add(nxt)
                            new.append(nxt)
            frontier = new
        timings.append(time.perf_counter() - t0)
    return statistics.median(timings)


def run_pass(workload, seed, traced):
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    # Hash seeds fixed so that set iteration order, and so the work done,
    # repeats from pass to pass.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def scaled_passes(workload, seed, schedule):
    """Run passes as ``schedule`` asks, each scaled by the reference timings around it.

    ``schedule(passes, elapsed)`` returns whether to trace the next pass,
    or None to stop.
    """
    passes = []
    before = reference_work()
    start = time.monotonic()
    while (traced := schedule(passes, time.monotonic() - start)) is not None:
        p = run_pass(workload, seed, traced)
        after = reference_work()
        p["reference_s"] = (before, after)
        p["scale"] = scale = 2 * REFERENCE_S / (before + after)
        p["raw_setup_s"], p["raw_wall_s"] = p["setup_s"], p["wall_s"]
        p["setup_s"] *= scale
        p["wall_s"] *= scale
        if p["latency"]:
            p["latency"]["op_p50_ms"] *= scale
            p["latency"]["op_tail_ms"] *= scale
        if traced:
            p["unattributed_s"] *= scale
            for name, (value, unit) in p["layers"].items():
                if unit == "s":
                    p["layers"][name] = (value * scale, unit)
        passes.append(p)
        before = after
    return passes


def per_op(passes, key):
    values = [p["latency"][key] for p in passes if p["latency"]]
    return statistics.median(values) if values else None


def summarize(passes):
    """Every end-to-end figure of a run: medians over its passes."""
    ops = sum(p["ops"] for p in passes)
    verdicts = sum(p["verdicts"] for p in passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "throughput_ops_s": statistics.median(p["ops"] / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "op_p50_ms": per_op(passes, "op_p50_ms"),
        "op_tail_ms": per_op(passes, "op_tail_ms"),
        "op_tail_percentile": per_op(passes, "tail_percentile"),
        "op_samples": per_op(passes, "samples"),
        "fail_ratio": sum(p["failed"] for p in passes) / ops,
        "inconclusive_ratio": (
            sum(p["inconclusive"] for p in passes) / verdicts if verdicts else None
        ),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kjdt" / "__init__.py").is_file():
        print(f"perfbench: no kjdt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def untraced_until_time_is_up(passes, elapsed):
        n = len(passes)
        if n >= MIN_PASSES and elapsed * (1 + 1 / n) > args.seconds:
            return None
        return False

    def one_plain_then_one_traced(passes, elapsed):
        return (False, True, None)[len(passes)]

    schedule = one_plain_then_one_traced if args.trace else untraced_until_time_is_up
    try:
        passes = scaled_passes(args.workload, args.seed, schedule)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        plain, traced = passes
        summary = summarize([plain])
        figures = {name: summary[name] or 0 for name, _ in RUN_METRICS}
        figures["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        figures["trace.unattributed_s"] = traced["unattributed_s"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["layers"].items()}
        metrics.update(
            {name: {"value": figures[name], "unit": unit} for name, unit in RUN_METRICS + TRACE_METRICS}
        )
    else:
        summary = summarize(passes)
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}

    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "summary": summary, "passes": passes}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
