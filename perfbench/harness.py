"""The closed-loop runs behind ``run.py``: timing, checking and reporting.

One process runs one workload, one solver call at a time, on one thread.

Untraced, it simulates a fixed set of recordings from the seed (set-up is
timed on each), solves the first once untimed to warm up, then solves each
once timed, and repeats them while time is left.  solve_s is the median over
a recording's passes, then over the recordings.  The work of one
recording swings by a quarter or more with its random texture (the line
search backtracks more or less), so a workload whose cost depends on that
covers several recordings rather than repeating one.

Traced, it sets up the seed's own recording under the tracer, solves it once
untraced and once traced, and reports the per-layer table.

Every pass is checked; a pass that raises or fails a check counts as failed
and is never timed as a success.  Lines above the last are a table for
people; the last line is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

import tracing
import workloads

# no pass starts past this point, so a run ends inside 180 s even on a host
# running at a third of its usual speed
RUN_DEADLINE_S = 90.0

# end-to-end metric -> (unit, better).  BENCHMARK.json gates the ones in
# GATED.  The rest are printed only: events_per_s is the fixed event count
# over solve_s, so it says nothing solve_s does not; motion_err and objective
# swing with the recording (fan_coin's coin is lost on some seeds);
# failed_frac is 0 on a passing run and the JSON line's failed and attempted
# carry it.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy": ("ratio", "higher"),
    "motion_err": ("ratio", "lower"),
    "objective": ("sharpness", "higher"),
    "failed_frac": ("ratio", "lower"),
}
GATED = ("setup_s", "solve_s", "peak_rss_mb", "accuracy")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="evseg benchmark")
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale",
        choices=list(workloads.SCALES),
        default="full",
        help="input size; mini is the smoke-test scene",
    )
    return ap.parse_args(argv)


def _run_pass(call, rec, tracer=None):
    """One timed pass, then its checks.  Returns (seconds, outcome, problems);
    seconds and outcome are None when the solver call raised."""
    with tracer.root("solve") if tracer else nullcontext():
        t0 = time.perf_counter()
        try:
            solved = call()
        except Exception:
            traceback.print_exc()
            return None, None, ["solver call raised"]
        seconds = time.perf_counter() - t0
    with tracer.root("score") if tracer else nullcontext():
        outcome = workloads.score(solved, rec)
    return seconds, outcome, list(outcome.problems)


def run_untraced(wl, seed, seconds, scale):
    """Set up the workload's recordings, warm up on the first, then solve them
    in turn until each was timed once and the next pass would end past
    ``seconds``.  Every run of a seed solves the same recordings, however fast
    the host; extra time only adds repeats.  Figures are medians over the
    passes of each recording, then over the recordings that passed."""
    setup_times, recs = [], []
    for sub_seed in workloads.recording_seeds(seed, wl.setups):
        t0 = time.perf_counter()
        rec = workloads.make_inputs(wl.scene, sub_seed, scale)
        setup_times.append(time.perf_counter() - t0)
        if len(recs) < wl.recordings:
            recs.append(rec)
    calls = [wl.prepare(rec) for rec in recs]

    times = [[] for _ in recs]
    faults = [[] for _ in recs]  # minor page faults of each timed pass
    firsts = [None] * len(recs)
    broken = [False] * len(recs)  # a recording that failed is not solved again
    problems = []

    def solve(i):
        """One checked pass over recording i; its seconds, or None if it failed."""
        dt, outcome, bad = _run_pass(calls[i], recs[i])
        if outcome and firsts[i] and outcome.digest != firsts[i].digest:
            bad.append("a repeated pass gave different outputs")
        if bad:
            broken[i] = True
            problems.extend(f"recording {i}: {p}" for p in bad)
            return None
        firsts[i] = firsts[i] or outcome
        return dt

    # the first pass is checked but not timed: during it glibc's malloc is
    # still moving its mmap threshold, and its page faults (2.0 to 3.5
    # million on a stream recording) vary with the recording; later passes
    # fault a steadier amount
    solve(0)
    attempted = 1
    t_loop = time.perf_counter()
    for n, i in enumerate(itertools.cycle(range(len(recs)))):
        elapsed = time.perf_counter() - t_loop
        if all(broken) or elapsed > RUN_DEADLINE_S:
            break
        if broken[i]:
            continue
        if n >= len(recs) and elapsed + times[i][-1] > seconds:
            break
        attempted += 1
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        dt = solve(i)
        if dt is not None:
            times[i].append(dt)
            faults[i].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    failed = sum(broken)

    good = [i for i in range(len(recs)) if not broken[i] and times[i]]
    per_rec = [statistics.median(times[i]) for i in good]
    outs = [firsts[i] for i in good]
    values = {
        "setup_s": statistics.median(setup_times),
        "solve_s": statistics.median(per_rec) if good else None,
        "events_per_s": statistics.median(recs[i].packet.n / t for i, t in zip(good, per_rec))
        if good
        else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": min(o.accuracy for o in outs) if good else None,
        "motion_err": max(o.motion_err for o in outs) if good else None,
        "objective": statistics.median(o.objective for o in outs) if good else None,
        "failed_frac": failed / attempted,
    }
    notes = {
        "recordings": len(recs),
        "events each": " ".join(str(rec.packet.n) for rec in recs),
        "setup_s each": " ".join(f"{t:.4f}" for t in setup_times),
        "solve_s each": " | ".join(" ".join(f"{x:.4f}" for x in t) for t in times),
        "minor faults each": " | ".join(" ".join(str(x) for x in f) for f in faults),
    }
    return values, attempted, failed, problems, notes


def run_traced(wl, seed, scale):
    """Trace the run's first recording: the one simulated from ``seed``."""
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.root("setup"):
        rec = workloads.make_inputs(wl.scene, seed, scale)
    tracer.sensor = rec.packet.geometry
    call = wl.prepare(rec)

    before = resource.getrusage(resource.RUSAGE_SELF)
    base_s, base, bad_base = _run_pass(call, rec)
    after = resource.getrusage(resource.RUSAGE_SELF)
    with tracer.installed():
        traced_s, traced, bad_traced = _run_pass(call, rec, tracer)
    if base and traced and traced.digest != base.digest:
        bad_traced.append("the traced pass gave different outputs from the untraced one")

    values = tracing.layer_metrics(tracer)
    values["process.minor_faults"] = after.ru_minflt - before.ru_minflt
    values["process.sys_s"] = after.ru_stime - before.ru_stime
    values["trace.overhead_frac"] = traced_s / base_s - 1.0 if base_s and traced_s else None
    ref = traced or base
    values["result.accuracy"] = ref.accuracy if ref else None
    values["result.motion_err"] = ref.motion_err if ref else None
    values["result.objective"] = ref.objective if ref else None
    for name in tracer.missing:
        print(f"trace: expected binding not found: {name}", file=sys.stderr)
    notes = {
        "events": rec.packet.n,
        "untraced solve_s": base_s,
        "traced solve_s": traced_s,
        "missing bindings": " ".join(tracer.missing) or "none",
    }
    failed = int(bool(bad_base)) + int(bool(bad_traced))
    return values, 2, failed, bad_base + bad_traced, notes


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, (int, str)):
        return str(v)
    return f"{v:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    print(f"workload {wl.name}  seed {args.seed}  scale {args.scale}  trace {args.trace}")
    print(f"why: {wl.why}")
    if args.trace:
        values, attempted, failed, problems, notes = run_traced(wl, args.seed, scale)
        table = {k: (unit, link) for k, (unit, _, link) in tracing.PER_LAYER.items()}
        reported = list(tracing.PER_LAYER)
    else:
        values, attempted, failed, problems, notes = run_untraced(
            wl, args.seed, args.seconds, scale
        )
        table = {k: (unit, f"better {b}") for k, (unit, b) in END_TO_END.items()}
        reported = list(GATED)
    for k, v in notes.items():
        print(f"  {k}: {_fmt(v)}")
    for k, (unit, link) in table.items():
        print(f"{k:<40} {_fmt(values.get(k)):>14} {unit:<12} {link}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    metrics = {k: {"value": values.get(k), "unit": table[k][0]} for k in reported}
    correct = not problems and failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if all(m["value"] is not None for m in metrics.values()) else 1
