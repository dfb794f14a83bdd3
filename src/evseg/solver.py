"""Layered joint estimation of cluster motions and soft event associations.

The model: a packet of events was produced by a small number of independently
moving layers.  Each cluster j owns a motion hypothesis theta_j and a column
of the association matrix; transporting its share of events to the reference
time and scoring per-pixel variance gives that cluster's sharpness.  The
solver alternates

  E  closed-form association update: each event splits itself among clusters
     in proportion to how much sharp mass each cluster's image shows at the
     event's warped position, and
  M  a curvature-scaled, backtracking finite-difference ascent step on each
     live cluster's motion parameters,

until the summed sharpness stops improving.  Clusters whose association mass
falls below a floor are marked dead and take no further part.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .events import EventPacket, ImageGeometry, sliding_windows, subsample_indices
from .iwe import Iwe, accumulate_weighted, sample_local, smooth, variance_contrast
from .warps import (
    MODEL_PARAM_COUNT,
    WarpParams,
    displacement_sensitivity,
    warp_packet,
    warp_points,
    zero_params,
)


class DegenerateInitError(RuntimeError):
    """Raised when no motion hypothesis scores better than standing still,
    even after random restarts: the packet carries no usable motion
    contrast."""


@dataclass
class SolverConfig:
    """Tunables shared by the layered solver and its variants.

    All values positive; ``rel_tol`` well below 1.
    """

    step_mu: float = 1.0            # scale on the curvature-normalised ascent step
    max_iters: int = 100
    rel_tol: float = 1e-4           # relative gain regarded as stagnation
    convergence_window: int = 3     # stagnant iterations before stopping
    sigma: float = 1.0              # blur applied before scoring / sampling, px
    epsilon_c: float = 1e-6         # association sampling floor
    collapse_frac: float = 0.02     # death threshold as a fraction of N/J
    fd_step: float = 1e-2           # finite-difference h, native parameter units
    step_clamp_px: float = 2.0      # max warped-position change per ascent step
    backtrack_max: int = 8
    seed: int = 0
    # greedy initialisation
    init_claim_prob: float = 0.9
    init_perturb_px: float = 1.5    # probe displacement for the claim test
    init_scan_px: float = 6.0       # coarse scan displacement resolution
    init_scan_events: int = 3000
    init_scan_downscale: int = 4
    init_v_bound: float = 300.0     # px/s
    init_omega_bound: float = 40.0  # rad/s
    init_s_bound: float = 2.0       # 1/s
    init_random_draws: int = 16
    init_ascend_iters: int = 12

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")
        for name in (
            "max_iters",
            "convergence_window",
            "epsilon_c",
            "collapse_frac",
            "fd_step",
            "step_clamp_px",
            "init_claim_prob",
            "init_perturb_px",
            "init_scan_px",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.step_mu < 0 or self.sigma < 0 or self.backtrack_max < 0:
            raise ValueError("step_mu, sigma and backtrack_max must be non-negative")


@dataclass
class ClusterSet:
    """Motion hypotheses plus liveness flags for J clusters."""

    params: list
    alive: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.params)

    @property
    def n_alive(self) -> int:
        return int(self.alive.sum())

    def copy(self) -> "ClusterSet":
        return ClusterSet(list(self.params), self.alive.copy())


@dataclass
class SegmentationResult:
    """Output of one solver run on one packet."""

    clusters: ClusterSet
    associations: np.ndarray        # (n_events, n_clusters), rows sum to 1
    objective_trace: np.ndarray     # summed sharpness, entry 0 = at init
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def _resolve_models(models, n_clusters: int) -> list:
    if isinstance(models, str):
        return [models] * n_clusters
    models = list(models)
    if len(models) == 1:
        return models * n_clusters
    if len(models) != n_clusters:
        raise ValueError(f"got {len(models)} models for {n_clusters} clusters")
    return models


class _Builds(threading.local):
    """One thread's count of full-sensor image builds."""

    def __init__(self) -> None:
        self.count = 0


_builds = _Builds()


def build_count() -> int:
    """Full-sensor images of warped events built so far in the calling
    thread.  The count never resets; a caller measures a span of work by the
    difference of two readings.  Each thread counts only its own builds."""
    return _builds.count


def cluster_image(
    packet: EventPacket,
    params: WarpParams,
    weights: np.ndarray,
    config: SolverConfig,
) -> tuple[Iwe, np.ndarray, np.ndarray]:
    """Warp the packet under one hypothesis, deposit the given weights and
    blur.  Returns the smoothed image plus the warped coordinates.

    Every full-sensor image of warped events is built here, so this is the
    one place that adds to :func:`build_count`."""
    wx, wy = warp_packet(packet, params)
    img = accumulate_weighted(wx, wy, weights, packet.geometry)
    _builds.count += 1
    return smooth(img, config.sigma), wx, wy


def cluster_contrast(
    packet: EventPacket,
    params: WarpParams,
    weights: np.ndarray,
    config: SolverConfig,
) -> float:
    img, _, _ = cluster_image(packet, params, weights, config)
    return variance_contrast(img)


def objective(
    packet: EventPacket,
    clusters: ClusterSet,
    associations: np.ndarray,
    config: SolverConfig,
) -> float:
    """Summed per-cluster sharpness at the current motions and associations."""
    total = 0.0
    for j, prm in enumerate(clusters.params):
        if not clusters.alive[j]:
            continue
        total += cluster_contrast(packet, prm, associations[:, j], config)
    return total


def update_associations(
    packet: EventPacket,
    clusters: ClusterSet,
    associations: np.ndarray,
    config: SolverConfig,
) -> np.ndarray:
    """Closed-form association refresh.

    Each live cluster's smoothed weighted image (built from the incoming
    associations) is sampled at that cluster's warped event positions; rows
    are floored and renormalised.  Events every cluster scores at or below
    the floor come out uniform over live clusters.  Dead columns stay zero.
    """
    n, n_clusters = associations.shape
    alive_idx = np.flatnonzero(clusters.alive)
    scores = np.empty((n, alive_idx.size))
    for col, j in enumerate(alive_idx):
        img, wx, wy = cluster_image(packet, clusters.params[j], associations[:, j], config)
        scores[:, col] = sample_local(img, wx, wy)
    scores = np.maximum(scores, config.epsilon_c)
    out = np.zeros_like(associations)
    out[:, alive_idx] = scores / scores.sum(axis=1, keepdims=True)
    return out


def _line_search_step(
    evaluate: Callable[[WarpParams], float],
    params: WarpParams,
    kappa: np.ndarray,
    config: SolverConfig,
    f_current: float | None = None,
) -> tuple[WarpParams, float, bool]:
    """One ascent step of ``evaluate`` from ``params``.

    Central differences give gradient and diagonal curvature; the step is
    the gradient over |curvature| (a one-dimensional Newton guess per
    parameter), clamped so no warped position moves more than
    ``step_clamp_px``, then backtracked until the value does not decrease.
    Returns (new params, new value, whether the value strictly improved).
    When it improved, the new params were the last ones passed to
    ``evaluate``, so a caller may keep what that call built.
    """
    p = params.param_count
    h = config.fd_step
    f0 = evaluate(params) if f_current is None else f_current
    grad = np.empty(p)
    curv = np.empty(p)
    for i in range(p):
        tp = params.theta.copy()
        tp[i] += h
        fp = evaluate(params.replace_theta(tp))
        tm = params.theta.copy()
        tm[i] -= h
        fm = evaluate(params.replace_theta(tm))
        grad[i] = (fp - fm) / (2.0 * h)
        curv[i] = (fp - 2.0 * f0 + fm) / (h * h)
    if not np.isfinite(grad).all() or not np.any(grad):
        return params, f0, False
    cmax = float(np.abs(curv).max())
    floor = max(1e-3 * cmax, 1e-12)
    direction = grad / np.maximum(np.abs(curv), floor)
    # clamp in pixel units so a step never jumps past the sharpness basin
    over = float(np.max(np.abs(direction) * kappa)) * config.step_mu / config.step_clamp_px
    if over > 1.0:
        direction = direction / over
    alpha = config.step_mu
    if alpha == 0.0:
        return params, f0, False
    for _ in range(config.backtrack_max + 1):
        cand = params.replace_theta(params.theta + alpha * direction)
        fc = evaluate(cand)
        if fc > f0:
            return cand, fc, True
        if fc == f0:
            return params, f0, False
        alpha *= 0.5
    return params, f0, False


def ascend_motion(
    packet: EventPacket,
    clusters: ClusterSet,
    associations: np.ndarray,
    config: SolverConfig,
) -> ClusterSet:
    """One line-searched ascent step per live cluster, associations fixed.

    With associations frozen the summed objective splits per cluster, so
    backtracking each cluster against its own sharpness keeps the total
    non-decreasing.  Dead clusters keep their parameters untouched.
    """
    new_params = list(clusters.params)
    for j, prm in enumerate(clusters.params):
        if not clusters.alive[j]:
            continue
        w = associations[:, j]
        if float(w.sum()) <= 0.0:
            continue
        kappa = displacement_sensitivity(packet, prm, config.fd_step)

        def evaluate(candidate: WarpParams, _w=w) -> float:
            return cluster_contrast(packet, candidate, _w, config)

        new_params[j], _, _ = _line_search_step(evaluate, prm, kappa, config)
    return ClusterSet(new_params, clusters.alive.copy())


def apply_collapse(
    clusters: ClusterSet, associations: np.ndarray, config: SolverConfig
) -> tuple[ClusterSet, np.ndarray]:
    """Kill clusters whose association mass dropped below
    ``collapse_frac * n_events / n_clusters`` and hand their rows' mass to
    the survivors.  The largest cluster is never killed, so at least one
    stays alive."""
    n, n_clusters = associations.shape
    mass = associations.sum(axis=0)
    threshold = config.collapse_frac * n / n_clusters
    alive = clusters.alive & (mass >= threshold)
    if not alive.any():
        alive = clusters.alive.copy()
        keep = int(np.argmax(np.where(clusters.alive, mass, -1.0)))
        alive[:] = False
        alive[keep] = True
    if np.array_equal(alive, clusters.alive):
        return clusters, associations
    out = associations.copy()
    out[:, ~alive] = 0.0
    rowsum = out.sum(axis=1, keepdims=True)
    dead_rows = rowsum[:, 0] <= 0.0
    np.divide(out, rowsum, out=out, where=rowsum > 0.0)
    if dead_rows.any():
        out[dead_rows] = 0.0
        out[np.ix_(dead_rows, np.flatnonzero(alive))] = 1.0 / alive.sum()
    return ClusterSet(list(clusters.params), alive), out


# ---------------------------------------------------------------------------
# greedy initialisation


def _coarse_eval_factory(
    packet: EventPacket, weights: np.ndarray, config: SolverConfig
):
    """Sharpness evaluator on a subsampled packet and a downscaled grid.

    Cheap enough to call hundreds of times during the initial scan; the
    downscale widens the basin so a coarse parameter grid cannot step over
    the optimum.
    """
    idx = subsample_indices(packet.n, config.init_scan_events)
    xs, ys, ts = packet.x[idx], packet.y[idx], packet.t[idx]
    ws = weights[idx]
    scale = float(max(1, config.init_scan_downscale))
    geom = ImageGeometry(
        max(2, int(np.ceil(packet.geometry.width / scale))),
        max(2, int(np.ceil(packet.geometry.height / scale))),
    )
    center = packet.geometry.center
    t_ref = packet.t_ref

    def evaluate(params: WarpParams) -> float:
        wx, wy = warp_points(xs, ys, ts, params, t_ref, center)
        img = accumulate_weighted(wx / scale, wy / scale, ws, geom)
        return variance_contrast(smooth(img, 0.75))

    return evaluate


def _scan_grids(packet: EventPacket, model: str, weights: np.ndarray, config: SolverConfig):
    """Candidate parameter vectors for the coarse scan of one model."""
    dt = np.abs(packet.t - packet.t_ref)
    dt_max = float(dt.max())
    if dt_max <= 0.0:
        return []
    step_v = config.init_scan_px / dt_max
    grids = []
    if model in ("flow2", "fourdof"):
        vals = np.arange(-config.init_v_bound, config.init_v_bound + 0.5 * step_v, step_v)
        pad = np.zeros(MODEL_PARAM_COUNT[model] - 2)
        for vx in vals:
            for vy in vals:
                grids.append(WarpParams(model, np.concatenate(([vx, vy], pad))))
    elif model == "rotation":
        wsum = float(weights.sum())
        if wsum <= 0.0:
            return []
        cx = float((weights * packet.x).sum() / wsum)
        cy = float((weights * packet.y).sum() / wsum)
        r2 = (packet.x - cx) ** 2 + (packet.y - cy) ** 2
        r_rms = float(np.sqrt((weights * r2).sum() / wsum))
        r_rms = max(r_rms, 2.0)
        step_w = config.init_scan_px / (dt_max * r_rms)
        vals = np.arange(
            -config.init_omega_bound, config.init_omega_bound + 0.5 * step_w, step_w
        )
        for om in vals:
            grids.append(WarpParams(model, np.array([cx, cy, om])))
    else:
        raise ValueError(f"unknown warp model {model!r}")
    return grids


def _random_params(model: str, geometry: ImageGeometry, config: SolverConfig, rng) -> WarpParams:
    if model == "flow2":
        th = rng.uniform(-config.init_v_bound, config.init_v_bound, 2)
    elif model == "rotation":
        th = np.array(
            [
                rng.uniform(0, geometry.width - 1),
                rng.uniform(0, geometry.height - 1),
                rng.uniform(-config.init_omega_bound, config.init_omega_bound),
            ]
        )
    else:
        th = np.array(
            [
                rng.uniform(-config.init_v_bound, config.init_v_bound),
                rng.uniform(-config.init_v_bound, config.init_v_bound),
                rng.uniform(-config.init_omega_bound, config.init_omega_bound),
                rng.uniform(-config.init_s_bound, config.init_s_bound),
            ]
        )
    return WarpParams(model, th)


def _ascend_single(
    packet: EventPacket,
    params: WarpParams,
    weights: np.ndarray,
    config: SolverConfig,
    iters: int,
) -> tuple[WarpParams, float]:
    def evaluate(candidate: WarpParams) -> float:
        return cluster_contrast(packet, candidate, weights, config)

    f = evaluate(params)
    for _ in range(iters):
        kappa = displacement_sensitivity(packet, params, config.fd_step)
        params, f_new, improved = _line_search_step(evaluate, params, kappa, config, f)
        if not improved or f_new <= f * (1.0 + config.rel_tol):
            f = f_new
            break
        f = f_new
    return params, f


def maximize_single_cluster(
    packet: EventPacket,
    model: str,
    weights: np.ndarray,
    config: SolverConfig,
    rng=None,
) -> WarpParams:
    """Best single-motion hypothesis for the given residual weights.

    A coarse parameter scan on a downscaled grid seeds a full-resolution
    ascent.  If nothing beats standing still, random restarts within the
    configured bounds are tried; if those fail too the packet is motion-free
    for this model and :class:`DegenerateInitError` is raised.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    base = zero_params(model)
    f_zero = cluster_contrast(packet, base, weights, config)

    coarse = _coarse_eval_factory(packet, weights, config)
    best, best_val = base, coarse(base)
    moving, moving_val = None, -np.inf
    for cand in _scan_grids(packet, model, weights, config):
        v = coarse(cand)
        if v > best_val:
            best, best_val = cand, v
        if v > moving_val and np.any(cand.theta):
            moving, moving_val = cand, v
    # zero motion is a lattice artefact maximum when event coordinates are
    # integral, so always ascend from the best moving candidate as well
    seeds = [best]
    if moving is not None and not np.any(best.theta):
        seeds.append(moving)
    params, f = base, -np.inf
    for seed_params in seeds:
        cand, fc = _ascend_single(packet, seed_params, weights, config, config.init_ascend_iters)
        if fc > f:
            params, f = cand, fc
    if f > f_zero * (1.0 + config.rel_tol):
        return params
    # scan found nothing: try random restarts before declaring degeneracy
    for _ in range(config.init_random_draws):
        cand = _random_params(model, packet.geometry, config, rng)
        cand, fc = _ascend_single(packet, cand, weights, config, 4)
        if fc > f:
            params, f = cand, fc
    if f > f_zero * (1.0 + config.rel_tol):
        return params
    raise DegenerateInitError(
        f"no {model} hypothesis beats zero motion (contrast {f_zero:.6g})"
    )


def _claim_mask(
    packet: EventPacket,
    params: WarpParams,
    weights: np.ndarray,
    config: SolverConfig,
) -> np.ndarray:
    """Events whose local sharpness strictly drops when the optimised motion
    is perturbed: these are the events the motion explains."""
    img, wx, wy = cluster_image(packet, params, weights, config)
    c_star = sample_local(img, wx, wy)
    kappa = displacement_sensitivity(packet, params, config.fd_step)
    acc = np.zeros(packet.n)
    n_probes = 0
    for i in range(params.param_count):
        for sign in (1.0, -1.0):
            th = params.theta.copy()
            th[i] += sign * config.init_perturb_px / kappa[i]
            pimg, pwx, pwy = cluster_image(packet, params.replace_theta(th), weights, config)
            acc += sample_local(pimg, pwx, pwy)
            n_probes += 1
    return (c_star - acc / n_probes) > 0.0


def initialize_greedy(
    packet: EventPacket,
    n_clusters: int,
    models="flow2",
    config: SolverConfig | None = None,
) -> tuple[ClusterSet, np.ndarray]:
    """Sequentially claim motions: optimise one cluster on the residual
    weights, hand events that sharpened under it a strong association, damp
    them out of the residual, repeat.  The last cluster absorbs whatever
    stayed unclaimed.  Clusters facing a near-empty residual keep zero
    motion and are left for collapse to clean up."""
    if config is None:
        config = SolverConfig()
    models = _resolve_models(models, n_clusters)
    rng = np.random.default_rng(config.seed)
    n = packet.n
    if n == 0:
        raise ValueError("cannot initialise on an empty packet")
    share = config.init_claim_prob
    low = (1.0 - share) / (n_clusters - 1) if n_clusters > 1 else 0.0

    associations = np.full((n, n_clusters), 1.0 / n_clusters)
    params_list = []
    residual = np.ones(n)
    claimed = np.zeros(n, dtype=bool)
    min_mass = config.collapse_frac * n / n_clusters
    for j in range(n_clusters):
        if float(residual.sum()) < min_mass:
            params_list.append(zero_params(models[j]))
            continue
        try:
            prm = maximize_single_cluster(packet, models[j], residual, config, rng)
        except DegenerateInitError:
            if j == 0:
                raise  # nothing in the packet moves: give up
            # a later cluster finding no motion in its residual just stays
            # at rest and will be collapsed away
            params_list.append(zero_params(models[j]))
            continue
        params_list.append(prm)
        if j < n_clusters - 1:
            newly = _claim_mask(packet, prm, residual, config) & ~claimed
            if newly.any():
                associations[newly] = low
                associations[newly, j] = share
                claimed |= newly
                residual = np.where(claimed, 0.0, 1.0)
        else:
            leftover = ~claimed
            if n_clusters > 1 and leftover.any():
                associations[leftover] = low
                associations[leftover, j] = share
    if n_clusters == 1:
        associations[:] = 1.0
    clusters = ClusterSet(params_list, np.ones(n_clusters, dtype=bool))
    return clusters, associations


# ---------------------------------------------------------------------------
# full solver


def segment(
    packet: EventPacket,
    n_clusters: int,
    models="flow2",
    config: SolverConfig | None = None,
    init: tuple[ClusterSet, np.ndarray] | None = None,
    early_stop: bool = True,
) -> SegmentationResult:
    """Run the alternating association/motion solver on one packet.

    ``init`` may carry a (clusters, associations) pair, e.g. from a previous
    window or a shared starting point for method comparison; otherwise the
    greedy initialiser runs.  With ``early_stop`` off the full iteration
    budget is spent, which benchmarking uses for fixed-cost runs.
    """
    return _alternate(
        packet, n_clusters, models, config, init, early_stop, "layered", _layered_step
    )


def _layered_step(packet, clusters, associations, config):
    """One layered alternation: association refresh, collapse, motion ascent.
    Summed sharpness is this back-end's own objective, so none is returned."""
    associations = update_associations(packet, clusters, associations, config)
    clusters, associations = apply_collapse(clusters, associations, config)
    clusters = ascend_motion(packet, clusters, associations, config)
    return clusters, associations, None


def _alternate(packet, n_clusters, models, config, init, early_stop, method, step):
    """The alternation every back-end shares.

    Starts from ``init`` or the greedy initialiser, then repeats
    ``step(packet, clusters, associations, config)``: one association
    refresh plus one motion update, returning the new clusters and
    associations and the back-end's own objective (None when summed
    sharpness is that objective).  The run stops once the own objective
    gained less than ``rel_tol`` in ``convergence_window`` iterations in a
    row.  Summed sharpness is traced for every back-end, so all of them
    compare on one scale.  ``warp_counts`` holds, per iteration, the image
    builds made since the call began, greedy initialisation included.
    """
    if config is None:
        config = SolverConfig()
    start = build_count()
    models = _resolve_models(models, n_clusters)
    if init is None:
        clusters, associations = initialize_greedy(packet, n_clusters, models, config)
        init_mode = "greedy"
    else:
        clusters, associations = init[0].copy(), init[1].copy()
        if clusters.n_clusters != n_clusters or associations.shape != (packet.n, n_clusters):
            raise ValueError("init shape does not match packet / cluster count")
        init_mode = "given"
    trace = [objective(packet, clusters, associations, config)]
    own_trace: list[float] = []
    warp_counts: list[int] = []
    stagnant = 0
    converged = False
    for _ in range(config.max_iters):
        clusters, associations, own = step(packet, clusters, associations, config)
        trace.append(objective(packet, clusters, associations, config))
        warp_counts.append(build_count() - start)
        if own is not None:
            own_trace.append(own)
        series = trace if own is None else own_trace
        if early_stop and len(series) >= 2:
            gain = (series[-1] - series[-2]) / max(abs(series[-2]), 1e-12)
            stagnant = stagnant + 1 if gain < config.rel_tol else 0
            if stagnant >= config.convergence_window:
                converged = True
                break
    diagnostics = {
        "method": method,
        "init": init_mode,
        "warp_counts": np.asarray(warp_counts, dtype=np.int64),
    }
    if own_trace:
        diagnostics["own_trace"] = np.asarray(own_trace)
    return SegmentationResult(
        clusters=clusters,
        associations=associations,
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
        diagnostics=diagnostics,
    )


def segment_stream(
    recording: EventPacket,
    n_clusters: int,
    models="flow2",
    config: SolverConfig | None = None,
    window_events: int = 20000,
    stride_events: int | None = None,
    t_ref_mode: str = "first",
    solve: Callable | None = None,
) -> Iterable[tuple[EventPacket, SegmentationResult | None]]:
    """Sliding-window segmentation of a long recording.

    Motion parameters carry over between windows (they describe constant
    rates, so yesterday's estimate is today's starting point), and events
    shared with the previous window keep their converged associations; only
    the newly arrived events start out uniform.  If the carried-over motions
    score worse than standing still the window falls back to a fresh greedy
    initialisation.  Yields (window, result) pairs.

    A window whose greedy initialisation raises :class:`DegenerateInitError`
    (nothing in it moves) yields ``(window, None)`` and costs only itself:
    the next window starts cold, since nothing carries over from a skipped
    window.

    ``solve`` is the per-window back-end, :func:`segment` by default; any
    function with its signature works, e.g. ``segment_mixture``.
    """
    if config is None:
        config = SolverConfig()
    if solve is None:
        # looked up per call, not bound as a default, so that a wrapper
        # rebound over ``segment`` (perfbench's tracer) sees every window
        solve = segment
    stride = stride_events if stride_events is not None else max(1, window_events // 2)
    overlap = max(0, window_events - stride)
    prev: SegmentationResult | None = None
    for window in sliding_windows(recording, window_events, stride_events, t_ref_mode):
        init = None
        if prev is not None:
            carried = ClusterSet(list(prev.clusters.params), np.ones(n_clusters, dtype=bool))
            assoc = np.full((window.n, n_clusters), 1.0 / n_clusters)
            if overlap > 0:
                # rows sum to 1 already; dead columns stay at zero and may
                # only be revived by the fresh uniform rows
                assoc[:overlap] = prev.associations[stride:]
            zeros = ClusterSet(
                [zero_params(p.model) for p in carried.params],
                np.ones(n_clusters, dtype=bool),
            )
            if objective(window, carried, assoc, config) >= objective(
                window, zeros, assoc, config
            ):
                init = (carried, assoc)
        try:
            prev = solve(window, n_clusters, models, config, init=init)
        except DegenerateInitError:
            prev = None
        yield window, prev
