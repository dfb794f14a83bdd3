"""The benchmark workloads: inputs made from a seed, the solver calls that are
timed, and the checks and quality scores applied to their outputs.

Every workload reads the recordings that its seed generates and nothing else.
Solver calls go through module attributes (``solver.segment``, not a name
imported here), so a traced run sees them through the wrappers that
``tracing`` installs.
"""
from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import evseg.metrics as metrics
import evseg.solver as solver
from evseg.events import EventPacket, ImageGeometry
from evseg.warps import WarpParams

# the package re-exports the function simulate under the module's own name
simulate = importlib.import_module("evseg.simulate")

ACCURACY_FLOOR = 0.90       # layered results with one cluster per object
ROW_SUM_TOL = 1e-9
MAX_OBJECTIVE_DROP = 0.01   # per iteration, as a share of the previous value


@dataclass(frozen=True)
class Scale:
    """Sensor size, recording length and event count of one input size.

    Two-pebbles recordings are cut to their first ``events`` events, so every
    seed poses a problem of the same size and only the texture varies; at a
    fixed length the count ranges over a sixth between seeds, and the solve
    cost with it.  The fan-and-coin preset draws a 145 px fan, so that scene
    keeps the full sensor and is shortened instead.
    """

    geometry: ImageGeometry
    duration: float
    events: int
    fan_duration: float


SCALES = {
    "full": Scale(ImageGeometry(240, 180), 0.13, 40000, 0.12),
    "mini": Scale(ImageGeometry(120, 90), 0.07, 4000, 0.03),
}


@dataclass
class Solved:
    """One solver call's result plus what scoring it needs."""

    name: str
    result: solver.SegmentationResult
    labels: np.ndarray
    layered: bool


@dataclass
class Outcome:
    """Checks and quality of one pass over a workload."""

    problems: list
    accuracy: float
    motion_err: float
    objective: float
    digest: str


@dataclass(frozen=True)
class Workload:
    """One workload: its scene, how many recordings a run solves, and how
    many it sets up (at least as many; the rest are only timed)."""

    name: str
    why: str
    scene: str
    recordings: int
    setups: int
    prepare: Callable  # recording -> zero-argument timed call


def recording_seeds(seed: int, count: int) -> list:
    """Simulator seeds of a run's recordings.  The first is ``seed`` itself,
    so seed 7 starts with the ROADMAP's baseline recording; the stride keeps
    runs with nearby seeds from sharing recordings."""
    return [seed + 1000 * i for i in range(count)]


def make_inputs(scene: str, seed: int, scale: Scale) -> simulate.LabeledEvents:
    """Simulate the workload's labelled recording; this is all of set-up."""
    if scene == "fan_coin":
        geometry = ImageGeometry(240, 180)
        config = simulate.SimConfig(duration=scale.fan_duration, seed=seed)
        objects = simulate.preset_fan_and_coin(10.0, (70.0, 0.0), geometry, config)
        return simulate.simulate(objects, geometry, config)
    geometry, duration = scale.geometry, scale.duration
    while True:
        config = simulate.SimConfig(duration=duration, seed=seed)
        objects = simulate.preset_two_pebbles(60.0, 50.0, geometry, config)
        rec = simulate.simulate(objects, geometry, config)
        if rec.packet.n >= scale.events:
            return _first_events(rec, scale.events)
        # a sparse texture: record for longer, still from the same seed
        duration *= 1.25


def _first_events(rec: simulate.LabeledEvents, n: int) -> simulate.LabeledEvents:
    p = rec.packet
    packet = EventPacket(
        x=p.x[:n], y=p.y[:n], t=p.t[:n], polarity=p.polarity[:n],
        geometry=p.geometry, t_ref=p.t_ref,
    )
    return simulate.LabeledEvents(packet, rec.labels[:n], rec.truth)


def _prepare_two_strip(rec):
    return lambda: [
        Solved("segment", solver.segment(rec.packet, 2, "flow2"), rec.labels, True)
    ]


def _prepare_fan_coin(rec):
    # a fixed budget: with early stopping the run length depends on whether
    # the coin's motion is recovered, which varies with the seed
    config = solver.SolverConfig(max_iters=10)

    def call():
        result = solver.segment(
            rec.packet, 2, ["rotation", "flow2"], config, early_stop=False
        )
        return [Solved("segment", result, rec.labels, True)]

    return call


def _prepare_many_clusters(rec):
    # the gate-07 protocol: the same random flow2 start on every recording,
    # no deaths, a fixed budget
    j = 20
    rng = np.random.default_rng(0)
    params = [WarpParams("flow2", rng.uniform(-60.0, 60.0, 2)) for _ in range(j)]
    init = (
        solver.ClusterSet(params, np.ones(j, dtype=bool)),
        np.full((rec.packet.n, j), 1.0 / j),
    )
    config = solver.SolverConfig(max_iters=10, collapse_frac=1e-12)

    def call():
        result = solver.segment(
            rec.packet, j, "flow2", config, init=init, early_stop=False
        )
        return [Solved("segment", result, rec.labels, True)]

    return call


def _prepare_three_methods(rec):
    def call():
        out = metrics.compare_methods(rec.packet, 2, "flow2", iterations=10)
        return [
            Solved(name, out[name]["result"], rec.labels, name == "layered")
            for name in ("layered", "mixture", "fuzzy")
        ]

    return call


def _prepare_stream(rec):
    # half-recording windows at quarter-recording strides: three windows (one
    # cold, two warm-started), 20,000 events each at stride 10,000 at full size
    size = rec.packet.n // 2
    stride = rec.packet.n // 4
    # a per-window budget just above the 34-39 iterations a window usually
    # needs: uncapped, a warm window can take 50 or more, and the cost then
    # differs by up to 1.8x from seed to seed
    config = solver.SolverConfig(max_iters=40)

    def call():
        pairs = solver.segment_stream(
            rec.packet, 2, "flow2", config, window_events=size, stride_events=stride
        )
        return [
            Solved(
                f"window{k}",
                result,
                rec.labels[k * stride : k * stride + window.n],
                True,
            )
            for k, (window, result) in enumerate(pairs)
        ]

    return call


# how many recordings a run solves: the line searches backtrack more or less
# with the texture, so one recording's work (image builds) varies by up to
# half between seeds even at a fixed iteration budget, and two_strip's early
# stop adds 22 to 37 iterations; three_methods therefore averages four
# recordings.  A stream run times repeats of one recording: its windows stop
# after 34 to 40 iterations, and over three recordings the allocator moved
# from run to run between 0.2 and 2.2 million page faults per pass, which
# spread solve_s wider than one recording's texture does
WORKLOADS = {
    w.name: w
    for w in (
        # runnable, but left out of BENCHMARK.json: its cost per recording
        # varies with the texture (coefficient of variation 0.2 at 40k events,
        # 0.35 at 20k), three recordings a run left a quartile spread of 0.28
        # over ten seeds, and the five or more needed do not fit beside the
        # other two; stream's cold window runs the same path
        Workload(
            "two_strip",
            "The paper's headline two-strip scene at J=2 with greedy init and "
            "early stop; bound by image splatting, the ROADMAP baseline.",
            "two_strip",
            3,
            3,
            _prepare_two_strip,
        ),
        # runnable, but left out of BENCHMARK.json: even at a fixed budget
        # its solve time ranges from 3.7 to 8.4 s between recordings, and a
        # run has room for only two of its 7-s set-ups, so it is too unsteady
        # across seeds for any bound the benchmark allows
        Workload(
            "fan_coin",
            "Rotating fan and translating coin with mixed models: trig-heavy "
            "rotation warps, and simulation dominates set-up.",
            "fan_coin",
            2,
            2,
            _prepare_fan_coin,
        ),
        # runnable, but left out of BENCHMARK.json: the benchmark's full set of
        # runs with this workload beside the other two takes longer than the
        # hour it is given, and the layers it runs are measured on those
        Workload(
            "many_clusters",
            "Gate-07 protocol at J=20 from a random start: per-cluster loop and "
            "J-fold builds dominate, greedy init never runs.",
            "two_strip",
            1,
            3,
            _prepare_many_clusters,
        ),
        Workload(
            "three_methods",
            "compare_methods runs layered, mixture and fuzzy from one greedy "
            "init: the only variants workload, read-heavy in sample_local.",
            "two_strip",
            4,
            4,
            _prepare_three_methods,
        ),
        Workload(
            "stream",
            "segment_stream over three 20k-event windows (1 cold, 2 warm-started): "
            "the only warm-start and sliding-window workload, blur-heavy small packets.",
            "two_strip",
            1,
            3,
            _prepare_stream,
        ),
    )
}


def _motion_error(estimate: WarpParams, truth: WarpParams) -> float:
    """Relative error of the recovered rate; a matched cluster of the wrong
    model counts as recovering nothing (error 1)."""
    if estimate.model != truth.model:
        return 1.0
    if truth.model == "rotation":
        return abs(estimate.theta[2] - truth.theta[2]) / abs(truth.theta[2])
    return float(
        np.linalg.norm(estimate.theta - truth.theta) / np.linalg.norm(truth.theta)
    )


def _check(s: Solved, n_objects: int, accuracy: float) -> list:
    r = s.result
    a = r.associations
    alive = r.clusters.alive
    problems = []
    row_err = float(np.abs(a.sum(axis=1) - 1.0).max()) if a.size else 0.0
    if not row_err <= ROW_SUM_TOL:
        problems.append(f"{s.name}: association rows off by {row_err:.3g}")
    if np.any(a[:, ~alive] != 0.0):
        problems.append(f"{s.name}: a dead cluster holds association mass")
    if s.layered:
        tr = np.asarray(r.objective_trace, dtype=np.float64)
        drops = (tr[:-1] - tr[1:]) > MAX_OBJECTIVE_DROP * np.abs(tr[:-1])
        if not np.all(np.isfinite(tr)) or drops.any():
            problems.append(f"{s.name}: objective fell by over 1% in an iteration")
        if r.clusters.n_clusters == n_objects and not accuracy >= ACCURACY_FLOOR:
            problems.append(f"{s.name}: accuracy {accuracy:.4f} below {ACCURACY_FLOOR}")
    return problems


def score(solved: list, rec: simulate.LabeledEvents) -> Outcome:
    """Check every result and score it against the simulator's truth.

    accuracy is the worst over results, motion_err the worst over matched
    clusters, objective the summed final sharpness of the layered results.
    The digest covers every output byte, so equal digests mean equal runs.
    """
    n_objects = len(rec.truth)
    problems, accs, errs = [], [], []
    objective = 0.0
    h = hashlib.sha256()
    for s in solved:
        r = s.result
        report = metrics.per_event_accuracy(r.associations, s.labels, r.clusters.alive)
        accs.append(report.accuracy)
        for j, lab in report.matching.items():
            errs.append(_motion_error(r.clusters.params[j], rec.truth[lab]))
        if s.layered:
            objective += float(r.objective_trace[-1])
        problems += _check(s, n_objects, report.accuracy)
        for arr in [r.associations, r.clusters.alive, r.objective_trace] + [
            p.theta for p in r.clusters.params
        ]:
            h.update(np.ascontiguousarray(arr).tobytes())
    if not solved:
        problems.append("no solver result")
    return Outcome(
        problems=problems,
        accuracy=min(accs, default=0.0),
        motion_err=max(errs, default=1.0),
        objective=objective,
        digest=h.hexdigest(),
    )
