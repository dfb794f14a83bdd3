"""Command-line front end.

Subcommands cover the full loop: simulate a labeled scene, segment an event
file, score a segmentation against ground truth, benchmark throughput,
compare the three clustering back-ends, and sweep accuracy against relative
displacement.

Exit codes: 0 on success, 1 on usage errors, 2 on bad input data.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .events import (
    EmptyPacketError,
    ImageGeometry,
    OutOfBoundsError,
    count_windows,
    validate_packet,
)
from .evio import (
    MissingGeometryError,
    ParseError,
    RunConfig,
    read_associations_csv,
    read_config_file,
    read_events_text,
    read_ground_truth,
    write_associations_csv,
    write_cluster_pgms,
    write_events_text,
    write_ground_truth,
    write_params_csv,
    write_segmentation_ppm,
)
from .metrics import (
    accuracy_vs_displacement,
    compare_methods,
    per_event_accuracy,
    spans_for_displacements,
    throughput_benchmark,
)
from .simulate import (
    SceneConfigError,
    SimConfig,
    preset_fan_and_coin,
    preset_two_pebbles,
    simulate,
)
from .solver import DegenerateInitError, segment, segment_stream
from .variants import segment_fuzzy, segment_mixture

_DATA_ERRORS = (
    ParseError,
    MissingGeometryError,
    OutOfBoundsError,
    EmptyPacketError,
    SceneConfigError,
    DegenerateInitError,
    FileNotFoundError,
    ValueError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise _UsageError(message)


def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",") if v.strip()]


def _int_list(text: str) -> list:
    return [int(v) for v in text.split(",") if v.strip()]


def _build_parser() -> _Parser:
    parser = _Parser(prog="evseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a labeled synthetic recording")
    sim.add_argument("--preset", choices=["two_pebbles", "fan_coin"], default="two_pebbles")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--delta-v", type=float, default=60.0)
    sim.add_argument("--base-v", type=float, default=50.0)
    sim.add_argument("--omega", type=float, default=10.0)
    sim.add_argument("--vx", type=float, default=70.0)
    sim.add_argument("--vy", type=float, default=0.0)
    sim.add_argument("--duration", type=float, default=0.1)
    sim.add_argument("--width", type=int, default=240)
    sim.add_argument("--height", type=int, default=180)
    sim.add_argument("--threshold", type=float, default=0.2)
    sim.add_argument("--noise-rate", type=float, default=0.0)
    sim.add_argument("--jitter", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=7)

    seg = sub.add_parser("segment", help="cluster an event file by motion")
    seg.add_argument("--events", required=True)
    seg.add_argument("--out", required=True, help="output directory")
    seg.add_argument("--config", help="key=value settings file")
    seg.add_argument("--j", type=int, help="number of clusters")
    seg.add_argument("--model", help="warp model, or comma list per cluster")
    seg.add_argument("--method", choices=["layered", "mixture", "fuzzy"])
    seg.add_argument("--window", type=int, help="events per window (0: whole file)")
    seg.add_argument("--stride", type=int, help="window stride in events")
    seg.add_argument("--sigma", type=float)
    seg.add_argument("--mu", type=float, help="ascent step scale")
    seg.add_argument("--max-iters", type=int)
    seg.add_argument("--width", type=int, help="sensor width if the file has no header")
    seg.add_argument("--height", type=int, help="sensor height if the file has no header")
    seg.add_argument("--cluster-images", action="store_true",
                     help="also write one PGM per live cluster")

    ev = sub.add_parser("eval", help="score associations against ground truth")
    ev.add_argument("--assoc", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", help="write the report as CSV here")

    bench = sub.add_parser("bench", help="fixed-budget throughput benchmark")
    bench.add_argument("--events", required=True)
    bench.add_argument("--j", type=_int_list, default=[2, 5, 10, 20, 50])
    bench.add_argument("--iters", type=int, default=10)
    bench.add_argument("--repeats", type=int, default=5)
    bench.add_argument("--width", type=int)
    bench.add_argument("--height", type=int)
    bench.add_argument("--out", help="write points as CSV here")

    cmp_p = sub.add_parser("compare", help="run all three methods from one start")
    cmp_p.add_argument("--events", required=True)
    cmp_p.add_argument("--truth")
    cmp_p.add_argument("--j", type=int, default=2)
    cmp_p.add_argument("--model", default="flow2")
    cmp_p.add_argument("--iters", type=int, default=40)
    cmp_p.add_argument("--width", type=int)
    cmp_p.add_argument("--height", type=int)
    cmp_p.add_argument("--out", help="write per-iteration traces as CSV here")

    curve = sub.add_parser("curve", help="accuracy vs relative displacement sweep")
    curve.add_argument("--delta-v", type=_float_list, default=[30.0, 60.0, 120.0])
    curve.add_argument("--base-v", type=float, default=50.0)
    curve.add_argument("--displacements", type=_float_list, default=[2.0, 4.0, 6.0, 8.0])
    curve.add_argument("--seed", type=int, default=7)
    curve.add_argument("--out", help="write points as CSV here")

    return parser


def _geometry_override(args) -> ImageGeometry | None:
    """The sensor size ``--width`` and ``--height`` give, which wins over the
    events file's header; None when neither is given.  One without the
    other, or a size below one pixel, is a usage error."""
    if args.width is None and args.height is None:
        return None
    if args.width is None or args.height is None or min(args.width, args.height) < 1:
        raise _UsageError("--width and --height must be given together, each at least 1")
    return ImageGeometry(args.width, args.height)


def _load_packet(args):
    """Read and leniently validate the events file, saying on stderr how many
    rows validation dropped.  The rows it keeps must be in time order:
    validation would sort them, and every per-event output, in time order,
    would then no longer pair with the file's rows (or its truth file's)."""
    packet, _ = read_events_text(args.events, _geometry_override(args))
    kept = np.flatnonzero(np.isfinite(packet.t) & packet.geometry.contains(packet.x, packet.y))
    back = np.diff(packet.t[kept]) < 0.0
    if back.any():
        row = int(np.argmax(back))
        raise ValueError(
            f"event times must not decrease: row {kept[row + 1]} is earlier "
            f"than row {kept[row]} (rows counted from 0)"
        )
    valid = validate_packet(packet, strict=False)
    if valid.n < packet.n:
        print(
            f"dropped {packet.n - valid.n} of {packet.n} events "
            "(off the sensor or non-finite time)",
            file=sys.stderr,
        )
    return valid


def _write_table(lines: list, out: str | None) -> str:
    """The CSV text of ``lines``, also written to ``out`` when given."""
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    return text


def _cmd_simulate(args) -> int:
    geometry = ImageGeometry(args.width, args.height)
    # settings are checked before anything is written
    cfg = SimConfig(
        contrast_threshold=args.threshold,
        duration=args.duration,
        timestamp_jitter=args.jitter,
        noise_rate=args.noise_rate,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.preset == "two_pebbles":
        scene = preset_two_pebbles(args.delta_v, args.base_v, geometry, cfg)
    else:
        scene = preset_fan_and_coin(args.omega, (args.vx, args.vy), geometry, cfg)
    recording = simulate(scene, geometry, cfg)
    write_events_text(out / "events.txt", recording.packet)
    write_ground_truth(out / "truth.txt", recording.labels, recording.truth)
    print(f"wrote {recording.packet.n} events to {out / 'events.txt'}")
    return 0


def _merge_run_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = read_config_file(args.config, cfg)
    overrides = {
        "n_clusters": args.j,
        "models": args.model,
        "method": args.method,
        "window_events": args.window,
        "stride_events": args.stride,
        "sigma": args.sigma,
        "step_mu": args.mu,
        "max_iters": args.max_iters,
    }
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_segment(args) -> int:
    run = _merge_run_config(args)
    solvers = {
        "layered": segment,
        "mixture": segment_mixture,
        "fuzzy": partial(segment_fuzzy, b=run.fuzziness),
    }
    if run.method not in solvers:
        raise ValueError(f"unknown method {run.method!r}: use layered, mixture or fuzzy")
    solve = solvers[run.method]
    packet = _load_packet(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    solver_cfg = run.solver_config()

    # a whole file, or a window longer than the file, is one window
    size = min(run.window_events or packet.n, packet.n)
    stride = run.stride_events or None
    multi = count_windows(packet.n, size, stride) > 1
    pairs = segment_stream(
        packet, run.n_clusters, run.model_list(), solver_cfg,
        size, stride, run.t_ref_mode, solve,
    )
    solved = 0
    for idx, (window, result) in enumerate(pairs):
        if result is None:
            # segment_stream skips a window only when its greedy init raised
            # DegenerateInitError
            print(
                f"window {idx}: {window.n} events, skipped (no motion beats standing still)",
                file=sys.stderr,
            )
            continue
        solved += 1
        suffix = f"_{idx:03d}" if multi else ""
        write_associations_csv(out / f"assoc{suffix}.csv", result)
        write_params_csv(out / f"params{suffix}.csv", result)
        write_segmentation_ppm(out / f"segmentation{suffix}.ppm", window, result, solver_cfg)
        if args.cluster_images:
            write_cluster_pgms(out, window, result, solver_cfg)
        live = int(result.clusters.alive.sum())
        print(
            f"window {idx}: {window.n} events, {live}/{run.n_clusters} live clusters, "
            f"objective {result.objective_trace[-1]:.4g}, "
            f"{result.iterations} iterations, stopped {result.diagnostics['stop']}"
        )
    if not solved:
        print("error: every window was skipped", file=sys.stderr)
        return 2
    return 0


def _cmd_eval(args) -> int:
    associations, alive, _ = read_associations_csv(args.assoc)
    labels, _ = read_ground_truth(args.truth)
    report = per_event_accuracy(associations, labels, alive)
    lines = [
        "metric,value",
        f"accuracy,{report.accuracy!r}",
        f"events_scored,{report.n_scored}",
        f"degenerate,{int(report.degenerate)}",
    ]
    for j, lab in sorted(report.matching.items()):
        lines.append(f"cluster_{j + 1}_label,{lab}")
    print(_write_table(lines, args.out), end="")
    return 0


def _cmd_bench(args) -> int:
    packet = _load_packet(args)
    points = throughput_benchmark(
        packet, args.j, iterations=args.iters, repeats=args.repeats
    )
    lines = ["clusters,kev_per_s,seconds,events,iterations"]
    for pt in points:
        lines.append(
            f"{pt.n_clusters},{pt.kev_per_s!r},{pt.seconds!r},{pt.n_events},{pt.iterations}"
        )
    print(_write_table(lines, args.out), end="")
    return 0


def _cmd_compare(args) -> int:
    packet = _load_packet(args)
    labels = None
    if args.truth:
        labels, _ = read_ground_truth(args.truth)
    report = compare_methods(
        packet, args.j, args.model, labels=labels, iterations=args.iters
    )
    lines = ["method,iteration,objective,warp_builds"]
    for name in ("layered", "mixture", "fuzzy"):
        entry = report[name]
        trace = entry["objective_trace"]
        counts = entry["warp_counts"]
        for i, val in enumerate(trace):
            builds = counts[i - 1] if 0 < i <= len(counts) else 0
            lines.append(f"{name},{i},{val!r},{builds}")
    _write_table(lines, args.out)
    for name in ("layered", "mixture", "fuzzy"):
        entry = report[name]
        acc = f", accuracy {entry['accuracy']:.3f}" if "accuracy" in entry else ""
        print(f"{name}: final objective {entry['final_objective']:.4g}{acc}")
    return 0


def _cmd_curve(args) -> int:
    spans = spans_for_displacements(args.delta_v, args.displacements)
    points = accuracy_vs_displacement(
        [dv for dv in args.delta_v if dv != 0],
        args.base_v,
        spans,
        sim_config=SimConfig(seed=args.seed),
    )
    lines = ["delta_v,window_span,displacement_px,accuracy,events,degenerate"]
    for pt in points:
        lines.append(
            f"{pt.delta_v!r},{pt.window_span!r},{pt.displacement_px!r},"
            f"{pt.accuracy!r},{pt.n_events},{int(pt.degenerate)}"
        )
    print(_write_table(lines, args.out), end="")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "segment": _cmd_segment,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "compare": _cmd_compare,
    "curve": _cmd_curve,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
