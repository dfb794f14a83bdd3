"""Evaluation: labeled accuracy, displacement sweeps, detection, timing.

Cluster indices are arbitrary, so accuracy first matches clusters to ground
truth labels (an exact maximum-overlap assignment) and then scores hard
argmax assignments.  Noise events (label 0) never count.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as dc_replace
from typing import Iterable

import numpy as np

from .events import EventPacket, ImageGeometry
from .simulate import SimConfig, preset_two_pebbles, simulate
from .solver import (
    ClusterSet,
    DegenerateInitError,
    SegmentationResult,
    SolverConfig,
    build_count,
    initialize_greedy,
    segment,
)
from .variants import segment_fuzzy, segment_mixture
from .warps import WarpParams


class ShapeMismatchError(ValueError):
    """Raised when associations and labels disagree on the event count."""


@dataclass
class AccuracyReport:
    """Share of non-noise events whose hard assignment lands on the cluster
    matched to their true object."""

    accuracy: float
    matching: dict
    per_cluster_mass: np.ndarray
    n_scored: int
    degenerate: bool = False


@dataclass
class CurvePoint:
    """One accuracy measurement of the relative-displacement sweep."""

    delta_v: float
    window_span: float
    displacement_px: float
    accuracy: float
    n_events: int
    degenerate: bool = False


@dataclass
class BenchPoint:
    """Median fixed-iteration timing for one cluster count."""

    n_clusters: int
    kev_per_s: float
    seconds: float
    n_events: int
    iterations: int


def hard_assignments(associations: np.ndarray) -> np.ndarray:
    """Per-event argmax cluster; ties go to the lowest index."""
    return np.argmax(associations, axis=1)


def _max_assignment(gain: np.ndarray) -> np.ndarray:
    """Column picked for each row of ``gain`` (rows <= columns) so that the
    summed gain is largest, each column used at most once.

    Shortest augmenting paths with row and column potentials (the Hungarian
    method in its Jonker-Volgenant form), one row added per round.  Exact
    for integer gains.
    """
    n, m = gain.shape
    cost = -gain.astype(np.float64)
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    owner = np.zeros(m + 1, dtype=np.int64)  # row (1-based) holding column j; 0: free
    via = np.zeros(m + 1, dtype=np.int64)
    for row in range(1, n + 1):
        owner[0] = row
        col = 0
        slack = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while owner[col]:
            used[col] = True
            i = owner[col]
            reduced = cost[i - 1] - u[i] - v[1:]
            better = ~used[1:] & (reduced < slack[1:])
            slack[1:][better] = reduced[better]
            via[1:][better] = col
            free = np.flatnonzero(~used[1:]) + 1
            nxt = free[np.argmin(slack[free])]
            delta = slack[nxt]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            col = nxt
        while col:
            prev = via[col]
            owner[col] = owner[prev]
            col = prev
    picked = np.empty(n, dtype=np.int64)
    picked[owner[1:][owner[1:] > 0] - 1] = np.flatnonzero(owner[1:] > 0)
    return picked


def _match(overlap: np.ndarray) -> list:
    """(cluster, label) index pairs of an injective matching with the most
    overlap in total; only pairs with positive overlap are kept.  Among
    equally good matchings the one pairing the most labels wins."""
    # the pair-count tie-break is worth less than one overlapping event
    gain = overlap * (min(overlap.shape) + 1) + (overlap > 0)
    if overlap.shape[0] <= overlap.shape[1]:
        pairs = enumerate(_max_assignment(gain))
    else:
        pairs = ((j, li) for li, j in enumerate(_max_assignment(gain.T)))
    return sorted((int(j), int(li)) for j, li in pairs if overlap[j, li] > 0)


def per_event_accuracy(
    associations: np.ndarray,
    labels: np.ndarray,
    alive: np.ndarray | None = None,
) -> AccuracyReport:
    """Match clusters to true object labels and score hard assignments.

    Events labeled 0 (noise/background) are excluded.  The matching is
    injective and exact: it maximises the number of correctly assigned
    events, pairing only clusters and labels that overlap.  ``degenerate``
    flags a run where some present object ended up without any matched
    cluster.
    """
    labels = np.asarray(labels)
    if labels.shape[0] != associations.shape[0]:
        raise ShapeMismatchError(
            f"{associations.shape[0]} association rows vs {labels.shape[0]} labels"
        )
    n_clusters = associations.shape[1]
    if alive is None:
        alive = np.ones(n_clusters, dtype=bool)
    assigned = hard_assignments(associations)
    scored = labels > 0
    n_scored = int(scored.sum())
    mass = associations.sum(axis=0)
    present = np.unique(labels[scored])
    if n_scored == 0 or not present.size:
        return AccuracyReport(0.0, {}, mass, 0, degenerate=True)

    # one code per scored event on a live cluster: its row (the cluster's
    # index among the live ones) times the label count plus its label index
    live = np.flatnonzero(alive)
    row_of = np.full(n_clusters, -1, dtype=np.int64)
    row_of[live] = np.arange(live.size)
    rows = row_of[assigned[scored]]
    codes = rows * present.size + np.searchsorted(present, labels[scored])
    overlap = np.bincount(codes[rows >= 0], minlength=live.size * present.size)
    overlap = overlap.reshape(live.size, present.size)
    pairs = _match(overlap)
    correct = sum(int(overlap[j, li]) for j, li in pairs)
    return AccuracyReport(
        accuracy=correct / n_scored,
        matching={int(live[j]): int(present[li]) for j, li in pairs},
        per_cluster_mass=mass,
        n_scored=n_scored,
        degenerate=len(pairs) < len(present),
    )


def spans_for_displacements(
    delta_vs: Iterable[float], displacements_px: Iterable[float]
) -> dict:
    """Window durations that realise the given relative displacements at
    each relative velocity."""
    return {
        float(dv): [float(d) / abs(dv) for d in displacements_px]
        for dv in delta_vs
        if dv != 0
    }


def accuracy_vs_displacement(
    delta_vs: Iterable[float],
    base_v: float,
    window_spans,
    sim_config: SimConfig | None = None,
    geometry: ImageGeometry | None = None,
) -> list:
    """Accuracy of two-cluster segmentation on the two-strip scene, swept
    over relative velocity and window span.

    ``window_spans`` is either one list of spans applied to every velocity
    or a mapping from velocity to its spans.  Each point simulates its own
    recording of that duration; the x-coordinate of the resulting curve is
    relative displacement |delta_v| * span in pixels.  Points with zero
    relative displacement cannot be segmented by motion and come back
    flagged degenerate.
    """
    if sim_config is None:
        sim_config = SimConfig()
    points = []
    for dv in delta_vs:
        spans = window_spans[float(dv)] if isinstance(window_spans, dict) else window_spans
        for span in spans:
            cfg = dc_replace(sim_config, duration=float(span))
            scene = preset_two_pebbles(dv, base_v, geometry, cfg)
            recording = simulate(scene, geometry or ImageGeometry(240, 180), cfg)
            try:
                result = segment(recording.packet, 2, "flow2", SolverConfig())
            except DegenerateInitError:
                # too little displacement for even one motion hypothesis:
                # report the point instead of aborting the whole sweep
                accuracy, degenerate = 0.0, True
            else:
                report = per_event_accuracy(
                    result.associations, recording.labels, result.clusters.alive
                )
                accuracy, degenerate = report.accuracy, report.degenerate or dv == 0
            points.append(
                CurvePoint(
                    delta_v=float(dv),
                    window_span=float(span),
                    displacement_px=abs(dv) * float(span),
                    accuracy=accuracy,
                    n_events=recording.packet.n,
                    degenerate=degenerate,
                )
            )
    return points


def _rect_of(points_x: np.ndarray, points_y: np.ndarray) -> tuple:
    return (
        float(points_x.min()),
        float(points_y.min()),
        float(points_x.max()),
        float(points_y.max()),
    )


def _rect_area(r: tuple) -> float:
    return max(0.0, r[2] - r[0]) * max(0.0, r[3] - r[1])


def _rect_intersection(a: tuple, b: tuple) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    return max(0.0, w) * max(0.0, h)


def detection_success(
    result: SegmentationResult,
    packet: EventPacket,
    box: tuple,
) -> bool:
    """Whether some cluster detects the object marked by ``box``.

    ``box`` is (x0, y0, width, height).  For each live cluster the bounding
    rectangle of its confidently owned events (association above one half)
    is taken; the best-overlapping cluster succeeds iff the intersection
    covers at least half of ``box`` and more of the cluster's rectangle lies
    inside the box than outside.
    """
    bx = (box[0], box[1], box[0] + box[2], box[1] + box[3])
    box_area = _rect_area(bx)
    best_inter = -1.0
    best_rect = None
    for j in np.flatnonzero(result.clusters.alive):
        sel = result.associations[:, j] > 0.5
        if not sel.any():
            continue
        rect = _rect_of(packet.x[sel], packet.y[sel])
        inter = _rect_intersection(rect, bx)
        if inter > best_inter:
            best_inter = inter
            best_rect = rect
    if best_rect is None:
        return False
    inside = best_inter
    outside = _rect_area(best_rect) - inside
    return inside >= 0.5 * box_area and inside > outside


def throughput_benchmark(
    packet: EventPacket,
    j_values: Iterable[int],
    iterations: int = 10,
    repeats: int = 5,
) -> list:
    """Median wall-clock throughput of the layered solver at a fixed
    iteration budget, in kilo-events-times-iterations per second.

    Every cluster uses the flow2 model.  Initialisation is a fixed random
    draw (not the greedy search) and cluster death is disabled, so every run
    performs the same amount of work per iteration.
    """
    j_values = list(j_values)
    if min(j_values, default=1) < 1:
        raise ValueError(f"need at least one cluster, got {min(j_values)}")
    if repeats < 1:
        raise ValueError(f"need at least one repeat, got {repeats}")
    cfg = SolverConfig(max_iters=iterations, collapse_frac=1e-12)
    out = []
    for j in j_values:
        rng = np.random.default_rng(0)
        params = [
            WarpParams("flow2", rng.uniform(-60.0, 60.0, 2)) for _ in range(j)
        ]
        # the solve copies what it changes of its init, so every repeat
        # shares one
        init = (ClusterSet(params, np.ones(j, dtype=bool)), np.full((packet.n, j), 1.0 / j))
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            segment(packet, j, "flow2", cfg, init=init, early_stop=False)
            times.append(time.perf_counter() - t0)
        med = float(np.median(times))
        out.append(
            BenchPoint(
                n_clusters=int(j),
                kev_per_s=packet.n * iterations / med / 1000.0,
                seconds=med,
                n_events=packet.n,
                iterations=iterations,
            )
        )
    return out


def compare_methods(
    packet: EventPacket,
    n_clusters: int,
    models="flow2",
    labels: np.ndarray | None = None,
    iterations: int = 40,
) -> dict:
    """Run the layered solver and both variants from one shared greedy
    initialisation for a fixed iteration count.

    Returns per method: the result, the summed-sharpness trace on the common
    scale, cumulative warp counts per iteration, the final objective, and
    accuracy when labels are supplied.  Labels of another length than the
    packet raise :class:`ShapeMismatchError` before anything is solved.
    """
    if labels is not None and len(labels) != packet.n:
        raise ShapeMismatchError(f"{packet.n} events vs {len(labels)} labels")
    cfg = SolverConfig(max_iters=iterations)
    start = build_count()
    init = initialize_greedy(packet, n_clusters, models, cfg)
    runners = {
        "layered": segment,
        "mixture": segment_mixture,
        "fuzzy": segment_fuzzy,
    }
    out: dict = {"init_warp_cost": build_count() - start}
    for name, run in runners.items():
        # every run copies what it changes of the shared init
        result = run(packet, n_clusters, models, cfg, init=init, early_stop=False)
        entry = {
            "result": result,
            "objective_trace": result.objective_trace,
            "warp_counts": result.diagnostics["warp_counts"],
            "final_objective": float(result.objective_trace[-1]),
        }
        if "own_trace" in result.diagnostics:
            entry["own_trace"] = result.diagnostics["own_trace"]
        if labels is not None:
            entry["accuracy"] = per_event_accuracy(
                result.associations, labels, result.clusters.alive
            ).accuracy
        out[name] = entry
    return out
