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

Every back-end's M-step is one pass of :func:`_step_clusters`, the one
step loop: for each live cluster not yet settled it runs
:func:`_line_search_step`, which sizes its own step from the packet and
hands back what it built at the params it returns.  A back-end adds only
its per-cluster evaluator, and :func:`_line_search_step` lists each
one's search settings.  One settle rule, which :func:`_alternate` keeps
for the run, holds for all of them: a cluster whose line search finds no
gain keeps its motion and takes no further step.  A settled layered
cluster costs one image build per iteration, its sharpness at the new
associations.  Each iteration's ascent keeps every live cluster's image
at its final motion; the summed sharpness traced for the iteration and
the next association refresh both read those images rather than
rebuilding them.  The initial objective keeps its images the same way for
the first refresh.  An image build works in per-thread scratch (see
:func:`cluster_image`), so the kept images are copies, one buffer per
cluster for the whole solve.  From the initial objective on, each live
cluster's warp at its current motion is held (see :func:`_hold`): its
bilinear footprint keeps a footprint slot of its own (see :mod:`evseg.iwe`),
so every build and read at that motion reuses it without warping again,
and every other footprint shares the thread's one spare slot.

Every per-event table, shaped (n_events, n_clusters), is kept column-major
inside the solvers: a cluster's weights are one contiguous column for its
image build, and a sum over clusters is a column add rather than numpy's
slow short-row reduction.  Results hand the associations back C-contiguous.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .events import (
    EventPacket,
    ImageGeometry,
    sliding_windows,
    subsample_indices,
    window_stride,
)
from .iwe import (
    Iwe,
    accumulate_weighted,
    has_footprint,
    hold_footprints,
    sample_local,
    smooth,
    variance_contrast,
)
from .warps import (
    MODEL_PARAM_COUNT,
    WarpParams,
    displacement_sensitivity,
    warp_packet,
    warp_points,
    zero_params,
)


class DegenerateInitError(RuntimeError):
    """Raised when no ascent from greedy init's coarse scan scores better
    than standing still, or when no warp can move the events at all: the
    packet carries no usable motion contrast."""


# Fixed parts of the method, not user settings.  Tests that need a coarser
# solver patch them on the module, so every use reads them at call time.
CONVERGENCE_WINDOW = 3      # stagnant, or settled and unchanged, iterations before stopping
EPSILON_C = 1e-6            # association sampling floor
FD_STEP = 1e-2              # greedy init and fuzzy finite-difference h, native units
FD_STEP_PX = 0.25           # M-step finite-difference h, as max warped-position change
STEP_CLAMP_PX = 2.0         # largest reach of an ascent step
STEP_FLOOR_PX = 0.025       # M-step candidates that reach no further are not tried
BACKTRACK_MAX = 8
# greedy initialisation
INIT_CLAIM_PROB = 0.9
INIT_PERTURB_PX = 1.5       # probe displacement for the claim test
INIT_SCAN_PX = 6.0          # coarse scan displacement resolution
INIT_SCAN_EVENTS = 3000
INIT_SCAN_DOWNSCALE = 4
INIT_V_BOUND = 300.0        # px/s
INIT_OMEGA_BOUND = 40.0     # rad/s
INIT_ASCEND_ITERS = 12


@dataclass
class SolverConfig:
    """Settings shared by the layered solver and its variants; the fixed
    tunables are the upper-case constants above.

    ``max_iters`` and ``collapse_frac`` positive, ``rel_tol`` in (0, 1),
    ``step_mu`` and ``sigma`` non-negative; all of them finite.  The solve
    draws no random numbers: the same packet and settings give the same
    bytes.
    """

    step_mu: float = 1.0            # scale on the curvature-normalised ascent step
    max_iters: int = 100
    rel_tol: float = 1e-4           # relative gain regarded as stagnation
    sigma: float = 1.0              # blur applied before scoring / sampling, px
    collapse_frac: float = 0.02     # death threshold as a fraction of N/J

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError("rel_tol must lie in (0, 1)")
        if self.max_iters <= 0 or self.collapse_frac <= 0:
            raise ValueError("max_iters and collapse_frac must be positive")
        if self.step_mu < 0 or self.sigma < 0:
            raise ValueError("step_mu and sigma must be non-negative")
        if not np.isfinite([self.step_mu, self.sigma, self.collapse_frac]).all():
            raise ValueError("step_mu, sigma and collapse_frac must be finite")


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
    associations: np.ndarray        # (n_events, n_clusters), C-contiguous, rows sum to 1
    objective_trace: np.ndarray     # summed sharpness, entry 0 = at init
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def _resolve_models(models, n_clusters: int) -> list:
    if n_clusters < 1:
        raise ValueError(f"need at least one cluster, got {n_clusters}")
    if isinstance(models, str):
        return [models] * n_clusters
    models = list(models)
    if len(models) == 1:
        return models * n_clusters
    if len(models) != n_clusters:
        raise ValueError(f"got {len(models)} models for {n_clusters} clusters")
    return models


class _Builds(threading.local):
    """One thread's count of full-sensor image builds, and the buffers its
    builds warp the packet into (as long as the longest packet seen)."""

    def __init__(self) -> None:
        self.count = 0
        self.size = -1

    def positions(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n > self.size:
            self.xy = np.empty((2, n))
            self.size = n
        return self.xy[0, :n], self.xy[1, :n]


_builds = _Builds()


def build_count() -> int:
    """Full-sensor images of warped events built so far in the calling
    thread.  The count never resets; a caller measures a span of work by the
    difference of two readings.  Each thread counts only its own builds."""
    return _builds.count


def _footprint_key(packet: EventPacket, params: WarpParams) -> tuple:
    """The key that names the warp of ``packet`` under ``params`` in this
    thread's footprint slots (see :mod:`evseg.iwe`): the packet itself, which
    is immutable, and the motion's model and parameter bytes."""
    return packet, (params.model, params.theta.tobytes())


def _warped(packet: EventPacket, params: WarpParams):
    """The footprint key of ``params``'s warp of ``packet`` and this thread's
    position buffers, which hold the warped positions unless a slot already
    holds the key's footprint: then nothing is warped, and a deposit or read
    with the key reads no positions."""
    key = _footprint_key(packet, params)
    wx, wy = _builds.positions(packet.n)
    if not has_footprint(key):
        warp_packet(packet, params, out=(wx, wy))
    return key, wx, wy


def _hold(packet: EventPacket, clusters: ClusterSet) -> None:
    """Hold each live cluster's footprint at its current motion in this
    thread's slots, in place of the footprints held before, so that
    candidate builds do not push it out."""
    live = np.flatnonzero(clusters.alive)
    hold_footprints([_footprint_key(packet, clusters.params[j]) for j in live])


def cluster_image(
    packet: EventPacket,
    params: WarpParams,
    weights: np.ndarray,
    config: SolverConfig,
) -> Iwe:
    """Warp the packet under one hypothesis, deposit the given weights and
    blur.  Returns the smoothed image.

    The warp's footprint is kept in one of this thread's footprint slots,
    keyed by the packet and the motion (see :mod:`evseg.iwe`), so a build
    or read at a motion whose footprint a slot still holds warps nothing:
    one held at a live cluster's motion (see :func:`_hold`), or the spare,
    which keeps the last other footprint, so :func:`_sample_warped` right
    after a build reads at the warped events without warping again.

    The deposit and blur are :mod:`evseg.iwe`'s scratch results, the bytes
    of a fresh call without its copy.  The image lives in this thread's
    scratch and stays valid only until its next build, or its next deposit
    or blur of the sensor's shape (fresh ones included): a caller that
    keeps an image copies it.  With ``sigma`` 0 the image is a fresh copy
    of the deposit: the deposit grid is never handed out.

    Every full-sensor image of warped events is built here, so this is the
    one place that adds to :func:`build_count`."""
    key, wx, wy = _warped(packet, params)
    img = accumulate_weighted(wx, wy, weights, packet.geometry, scratch=True, key=key)
    _builds.count += 1
    img = smooth(img, config.sigma, scratch=True)
    if config.sigma == 0:
        img = Iwe(img.pixels.copy(), img.geometry)
    return img


def _sample_warped(img: Iwe, packet: EventPacket, params: WarpParams, out=None) -> np.ndarray:
    """``img`` read out at the events of ``packet`` warped by ``params``,
    with the footprint a slot holds for them if there is one."""
    key, wx, wy = _warped(packet, params)
    return sample_local(img, wx, wy, out=out, key=key)


def cluster_contrast(
    packet: EventPacket,
    params: WarpParams,
    weights: np.ndarray,
    config: SolverConfig,
) -> float:
    return variance_contrast(cluster_image(packet, params, weights, config))


def objective(
    packet: EventPacket,
    clusters: ClusterSet,
    associations: np.ndarray,
    config: SolverConfig,
    *,
    kept: dict | None = None,
) -> float:
    """Summed per-cluster sharpness at the current motions and associations.

    ``kept``, if given, receives each live cluster's ``(contrast, image)``
    as :func:`ascend_motion` keeps them."""
    total = 0.0
    for j, prm in enumerate(clusters.params):
        if not clusters.alive[j]:
            continue
        img = cluster_image(packet, prm, associations[:, j], config)
        contrast = variance_contrast(img)
        if kept is not None:
            _keep(kept, j, contrast, img)
        total += contrast
    return total


def _keep(kept: dict, j: int, contrast: float, img: Iwe) -> None:
    """Store ``(contrast, a copy of img)`` as cluster j's kept image, into the
    buffer j's previous image used if there is one."""
    old = kept.get(j)
    if old is None:
        kept[j] = (contrast, Iwe(img.pixels.copy(), img.geometry))
    else:
        if img is not old[1]:
            np.copyto(old[1].pixels, img.pixels)
        kept[j] = (contrast, old[1])


def update_associations(
    packet: EventPacket,
    clusters: ClusterSet,
    associations: np.ndarray,
    config: SolverConfig,
    *,
    images: dict | None = None,
) -> np.ndarray:
    """Closed-form association refresh.

    Each live cluster's smoothed weighted image (built from the incoming
    associations) is sampled at that cluster's warped event positions; rows
    are floored and renormalised.  Events every cluster scores at or below
    the floor come out uniform over live clusters.  Dead columns stay zero.

    ``images`` may map a cluster index to that image, already built at the
    cluster's params and incoming column; such a cluster is only read, with
    its footprint at those params, which is warped again only if no slot
    holds it.  They must be kept copies, not :func:`cluster_image` scratch
    views, which the builds of the other clusters overwrite.
    """
    n, n_clusters = associations.shape
    alive_idx = np.flatnonzero(clusters.alive)
    scores = np.empty((n, alive_idx.size), order="F")
    for col, j in enumerate(alive_idx):
        prm = clusters.params[j]
        if images is not None and j in images:
            img = images[j]
        else:
            img = cluster_image(packet, prm, associations[:, j], config)
        _sample_warped(img, packet, prm, out=scores[:, col])
    np.maximum(scores, EPSILON_C, out=scores)
    out = np.zeros_like(associations)
    out[:, alive_idx] = np.divide(scores, scores.sum(axis=1, keepdims=True), out=scores)
    return out


def _line_search_step(
    evaluate: Callable[[WarpParams], tuple[float, object]],
    params: WarpParams,
    packet: EventPacket,
    config: SolverConfig,
    f0: float,
    built0: object,
    h: float | None = None,
    floor_px: float | None = None,
) -> tuple[WarpParams, float, object, bool]:
    """One ascent step of ``evaluate`` from ``params``.

    ``evaluate`` returns a candidate's value and what it built to get it;
    ``f0`` and ``built0`` are those at ``params``.  The step is sized from
    ``packet``: kappa, :func:`displacement_sensitivity` at ``params``, is how
    far a unit change of each parameter can move a warped event.  Central
    differences at ``h`` give gradient and diagonal curvature; the step is
    the gradient over |curvature| (a one-dimensional Newton guess per
    parameter), then halved until the value does not decrease.  A
    candidate's reach is the largest over parameters of
    |alpha * direction_i| * kappa_i, how far that parameter's change alone
    can move a warped position; several parameters changed together can
    move some positions further.  The first candidate is clamped to a reach
    of ``STEP_CLAMP_PX``, and the search fails without building a candidate
    whose reach is at most ``floor_px``.  Returns (new params, their value,
    what was built at them, whether the value strictly improved).

    The layered and mixture M-steps take the defaults: ``h`` is
    ``FD_STEP_PX / kappa`` per parameter, a quarter pixel of motion that
    sees the sharpness basin of the default 1-px blur rather than the
    bilinear lattice, and ``floor_px`` is ``STEP_FLOOR_PX``.  The fuzzy
    M-step passes ``FD_STEP`` (native units, every parameter) under the
    default floor; greedy init passes ``FD_STEP`` and no floor.
    """
    kappa = displacement_sensitivity(packet, params)
    p = params.param_count
    h = np.broadcast_to(FD_STEP_PX / kappa if h is None else h, (p,))
    floor_px = STEP_FLOOR_PX if floor_px is None else floor_px
    grad = np.empty(p)
    curv = np.empty(p)
    for i in range(p):
        tp = params.theta.copy()
        tp[i] += h[i]
        fp, _ = evaluate(params.replace_theta(tp))
        tm = params.theta.copy()
        tm[i] -= h[i]
        fm, _ = evaluate(params.replace_theta(tm))
        grad[i] = (fp - fm) / (2.0 * h[i])
        curv[i] = (fp - 2.0 * f0 + fm) / (h[i] * h[i])
    if not np.isfinite(grad).all() or not np.any(grad):
        return params, f0, built0, False
    cmax = float(np.abs(curv).max())
    floor = max(1e-3 * cmax, 1e-12)
    direction = grad / np.maximum(np.abs(curv), floor)
    # largest warped-position change at alpha 1, in pixels
    reach = float(np.max(np.abs(direction) * kappa))
    # clamp in pixel units so a step never jumps past the sharpness basin
    over = reach * config.step_mu / STEP_CLAMP_PX
    if over > 1.0:
        direction = direction / over
        reach = reach / over
    alpha = config.step_mu
    if alpha == 0.0:
        return params, f0, built0, False
    for _ in range(BACKTRACK_MAX + 1):
        if alpha * reach <= floor_px:
            break
        cand = params.replace_theta(params.theta + alpha * direction)
        fc, built = evaluate(cand)
        if fc > f0:
            return cand, fc, built, True
        if fc == f0:
            break
        alpha *= 0.5
    return params, f0, built0, False


def _step_clusters(packet, clusters, settled, config, start, h=None):
    """The M-step loop every back-end shares: one :func:`_line_search_step`
    per live cluster not marked in ``settled``, in index order.

    ``start(j)`` returns cluster j's ``(evaluate, f0, built0)`` at its
    current motion.  The step's params go into ``clusters.params[j]``, a
    cluster whose search fails gets marked, and ``(j, value, built)`` at the
    returned params is yielded before the next cluster builds anything, so
    ``built`` may still be a scratch result.  Each live cluster's footprint
    at its current motion is held throughout (see :func:`_hold`)."""
    _hold(packet, clusters)
    for j in np.flatnonzero(clusters.alive & ~settled):
        evaluate, f0, built0 = start(j)
        clusters.params[j], value, built, improved = _line_search_step(
            evaluate, clusters.params[j], packet, config, f0, built0, h
        )
        settled[j] = not improved
        _hold(packet, clusters)
        yield j, value, built


def ascend_motion(
    packet: EventPacket,
    clusters: ClusterSet,
    associations: np.ndarray,
    config: SolverConfig,
    settled: np.ndarray,
    kept: dict | None = None,
) -> tuple[ClusterSet, dict]:
    """One line-searched ascent step per live cluster, associations fixed.

    With associations frozen the summed objective splits per cluster, so
    backtracking each cluster against its own sharpness keeps the total
    non-decreasing.  Dead clusters keep their parameters untouched.  Each
    step takes :func:`_line_search_step`'s default search.

    ``settled``, a boolean mask over clusters, carries the settle rule
    across calls: a marked cluster takes no step, and a cluster whose line
    search fails gets marked (see :func:`_step_clusters`).  Returns the new
    clusters and a dict that maps each live cluster to ``(contrast, image)``
    at its returned params and the given column.  Passing the previous
    call's dict as ``kept`` updates it in place and reuses its image
    buffers.
    """
    clusters = clusters.copy()
    kept = {} if kept is None else kept
    for j in [j for j in kept if not clusters.alive[j]]:
        del kept[j]

    def contrast(j: int, candidate: WarpParams) -> tuple[float, Iwe]:
        img = cluster_image(packet, candidate, associations[:, j], config)
        return variance_contrast(img), img

    # kept before any difference builds over the scratch image
    for j in np.flatnonzero(clusters.alive):
        _keep(kept, j, *contrast(j, clusters.params[j]))

    def start(j: int):
        return (lambda candidate: contrast(j, candidate)), *kept[j]

    for j, value, img in _step_clusters(packet, clusters, settled, config, start):
        # an accepted candidate was the last build, so it is still intact
        _keep(kept, j, value, img)
    return clusters, kept


def apply_collapse(
    clusters: ClusterSet, associations: np.ndarray, config: SolverConfig
) -> tuple[ClusterSet, np.ndarray]:
    """Kill clusters whose association mass dropped below
    ``collapse_frac * n_events / n_clusters`` and hand their rows' mass to
    the survivors.  The largest cluster is never killed, so at least one
    stays alive."""
    n, n_clusters = associations.shape
    mass = _column_sums(associations)
    threshold = config.collapse_frac * n / n_clusters
    alive = clusters.alive & (mass >= threshold)
    if not alive.any():
        alive = clusters.alive.copy()
        keep = int(np.argmax(np.where(clusters.alive, mass, -1.0)))
        alive[:] = False
        alive[keep] = True
    if np.array_equal(alive, clusters.alive):
        return clusters, associations
    out = _normalize_rows(np.where(alive, associations, 0.0), alive)
    return ClusterSet(list(clusters.params), alive), out


def _column_sums(table: np.ndarray) -> np.ndarray:
    """Each column's sum over events, added row after row as numpy sums a
    C-ordered table over its rows.  Summing a contiguous column would switch
    to pairwise summation and change the last bits; a running sum down each
    column keeps them without a C-ordered copy.  A single column is one
    contiguous run in either order, so numpy sums it pairwise."""
    n, n_clusters = table.shape
    if n == 0 or n_clusters == 1:
        return table.sum(axis=0)
    return np.cumsum(table, axis=0)[-1]


def _hard_labels(table: np.ndarray) -> np.ndarray:
    """Each row's argmax column, ties to the lowest index, as
    :func:`evseg.metrics.hard_assignments` gives it.  A running compare down
    the columns: ``np.argmax`` along the short rows of a (20000, 2) table
    takes about six times as long.  Each column's winners are selected by
    arithmetic, not by a masked store, which costs twice as much where the
    winner alternates from row to row."""
    labels = np.zeros(table.shape[0], dtype=np.intp)
    best = table[:, 0].copy()
    for j in range(1, table.shape[1]):
        column = table[:, j]
        above = column > best
        labels *= ~above
        labels += j * above
        np.maximum(best, column, out=best)
    return labels


def _normalize_rows(
    table: np.ndarray, alive: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Non-negative ``table`` with each row divided by its sum; rows summing
    to zero come out uniform over the live columns, and rows whose sum is
    not a number come out zero.  Written into ``out`` if given, which may be
    ``table`` itself, else into a fresh array."""
    rowsum = table.sum(axis=1, keepdims=True)
    positive = rowsum > 0.0
    if out is None:
        out = np.zeros_like(table)
    elif not positive.all():
        out[~positive[:, 0]] = 0.0
    np.divide(table, rowsum, out=out, where=positive)
    zero_rows = rowsum[:, 0] <= 0.0
    if zero_rows.any():
        alive_idx = np.flatnonzero(alive)
        out[np.ix_(zero_rows, alive_idx)] = 1.0 / alive_idx.size
    return out


# ---------------------------------------------------------------------------
# greedy initialisation


def _weighted_events(packet: EventPacket, weights: np.ndarray):
    """The events ``weights`` gives non-zero mass, as a packet on the same
    sensor and reference time, and their weights: the packet and weights
    themselves when no weight is zero.

    A build of them has the bytes of a build of the whole packet: a
    zero-weight event adds +0.0 to pixels that are never negative, and the
    deposit scatters the other events in their order."""
    keep = weights != 0.0
    if keep.all():
        return packet, weights
    sub = EventPacket(
        x=packet.x[keep],
        y=packet.y[keep],
        t=packet.t[keep],
        polarity=packet.polarity[keep],
        geometry=packet.geometry,
        t_ref=packet.t_ref,
    )
    return sub, weights[keep]


def _coarse_eval_factory(packet: EventPacket, weights: np.ndarray):
    """Sharpness evaluator on a subsampled packet and a downscaled grid.

    Cheap enough to call hundreds of times during the initial scan; the
    downscale widens the basin so a coarse parameter grid cannot step over
    the optimum.  The subsample is drawn from the whole packet, then keeps
    only the events ``weights`` gives non-zero mass (see
    :func:`_weighted_events`).
    """
    idx = subsample_indices(packet.n, INIT_SCAN_EVENTS)
    sample = EventPacket(
        packet.x[idx], packet.y[idx], packet.t[idx], packet.polarity[idx],
        packet.geometry, packet.t_ref,
    )
    sample, ws = _weighted_events(sample, weights[idx])
    xs, ys, ts = sample.x, sample.y, sample.t
    scale = float(INIT_SCAN_DOWNSCALE)
    geom = ImageGeometry(
        max(2, int(np.ceil(packet.geometry.width / scale))),
        max(2, int(np.ceil(packet.geometry.height / scale))),
    )
    center = packet.geometry.center
    t_ref = packet.t_ref

    def evaluate(params: WarpParams) -> float:
        # the image becomes a float at once, so it may stay in scratch
        wx, wy = warp_points(xs, ys, ts, params, t_ref, center)
        img = accumulate_weighted(wx / scale, wy / scale, ws, geom, scratch=True)
        return variance_contrast(smooth(img, 0.75, scratch=True))

    return evaluate


def _scan_grids(packet: EventPacket, model: str, weights: np.ndarray):
    """Candidate parameter vectors for the coarse scan of one model."""
    dt = np.abs(packet.t - packet.t_ref)
    dt_max = float(dt.max())
    if dt_max <= 0.0:
        return []
    step_v = INIT_SCAN_PX / dt_max
    grids = []
    if model in ("flow2", "fourdof"):
        vals = np.arange(-INIT_V_BOUND, INIT_V_BOUND + 0.5 * step_v, step_v)
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
        step_w = INIT_SCAN_PX / (dt_max * r_rms)
        vals = np.arange(
            -INIT_OMEGA_BOUND, INIT_OMEGA_BOUND + 0.5 * step_w, step_w
        )
        for om in vals:
            grids.append(WarpParams(model, np.array([cx, cy, om])))
    else:
        raise ValueError(f"unknown warp model {model!r}")
    return grids


def _ascend_single(
    packet: EventPacket,
    deposit: EventPacket,
    params: WarpParams,
    weights: np.ndarray,
    config: SolverConfig,
) -> tuple[WarpParams, float]:
    """Greedy init's full-resolution ascent of one motion: builds deposit
    ``weights`` on the events of ``deposit``, and the step sizes come from
    the whole ``packet``."""

    def evaluate(candidate: WarpParams) -> tuple[float, None]:
        return cluster_contrast(deposit, candidate, weights, config), None

    f, _ = evaluate(params)
    for _ in range(INIT_ASCEND_ITERS):
        # native-unit differences and no step floor, unlike the layered and
        # mixture M-steps: with theirs greedy init lands elsewhere, and on the
        # mini two-strip scene the solve that follows loses accuracy
        params, f_new, _, improved = _line_search_step(
            evaluate, params, packet, config, f, None, FD_STEP, 0.0
        )
        if not improved or f_new <= f * (1.0 + config.rel_tol):
            return params, f_new
        f = f_new
    return params, f


def maximize_single_cluster(
    packet: EventPacket,
    model: str,
    weights: np.ndarray,
    config: SolverConfig,
) -> WarpParams:
    """Best single-motion hypothesis for the given residual weights.

    A coarse parameter scan on a downscaled grid picks the starts of a
    full-resolution ascent: its best candidate, and its best moving one when
    zero motion wins the scan.  If no ascent beats standing still by
    ``rel_tol``, the residual is motion-free for this model and
    :class:`DegenerateInitError` is raised.  A packet with no scan grid
    raises at once, before any build: every event sits at the reference
    time, or (rotation) none carries weight, so every hypothesis builds the
    zero-motion image.

    Every build, coarse or full, deposits only the events with non-zero
    weight (see :func:`_weighted_events`), which gives the bytes of
    depositing them all.  Three inputs still read the whole packet, because
    their values depend on every event, weighted or not:
    :func:`displacement_sensitivity`, which sizes each ascent step from a
    stride of the packet's rows; :func:`_scan_grids`, whose velocity step
    reads the largest time offset of any event and whose rotation centre
    sums over every row (dropping the zero terms would regroup the pairwise
    sums); and the coarse scan's subsample, drawn from the whole packet and
    then filtered, so it keeps the rows it always had.
    """
    grids = _scan_grids(packet, model, weights)
    if not grids:
        raise DegenerateInitError(
            f"no {model} hypothesis beats zero motion: no warp moves these events"
        )
    base = zero_params(model)
    coarse = _coarse_eval_factory(packet, weights)
    best, best_val = base, coarse(base)
    moving, moving_val = None, -np.inf
    for cand in grids:
        v = coarse(cand)
        if v > best_val:
            best, best_val = cand, v
        if v > moving_val and np.any(cand.theta):
            moving, moving_val = cand, v
    # built after the scan, whose builds share the spare footprint slot, so
    # an ascent from zero motion finds its footprint there
    deposit, deposit_weights = _weighted_events(packet, weights)
    f_zero = cluster_contrast(deposit, base, deposit_weights, config)
    # zero motion is a lattice artefact maximum when event coordinates are
    # integral, so always ascend from the best moving candidate as well
    starts = [best]
    if moving is not None and not np.any(best.theta):
        starts.append(moving)
    params, f = base, -np.inf
    for start in starts:
        cand, fc = _ascend_single(packet, deposit, start, deposit_weights, config)
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
    is perturbed: these are the events the motion explains.

    Every event is sampled, weighted or not.  Each build deposits only the
    weighted events (see :func:`_weighted_events`); when no weight is zero
    they are the packet, and each image is read out with the footprint its
    build used."""
    deposit, deposit_weights = _weighted_events(packet, weights)

    def local_sharpness(prm: WarpParams, out: np.ndarray | None = None) -> np.ndarray:
        img = cluster_image(deposit, prm, deposit_weights, config)
        return _sample_warped(img, packet, prm, out)

    c_star = local_sharpness(params)
    kappa = displacement_sensitivity(packet, params)
    acc = np.zeros(packet.n)
    probe = np.empty(packet.n)
    n_probes = 0
    for i in range(params.param_count):
        for sign in (1.0, -1.0):
            th = params.theta.copy()
            th[i] += sign * INIT_PERTURB_PX / kappa[i]
            acc += local_sharpness(params.replace_theta(th), out=probe)
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
    n = packet.n
    if n == 0:
        raise ValueError("cannot initialise on an empty packet")
    share = INIT_CLAIM_PROB
    low = (1.0 - share) / (n_clusters - 1) if n_clusters > 1 else 0.0

    associations = np.full((n, n_clusters), 1.0 / n_clusters, order="F")
    params_list = []
    residual = np.ones(n)
    claimed = np.zeros(n, dtype=bool)
    min_mass = config.collapse_frac * n / n_clusters
    for j in range(n_clusters):
        if float(residual.sum()) < min_mass:
            params_list.append(zero_params(models[j]))
            continue
        try:
            prm = maximize_single_cluster(packet, models[j], residual, config)
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
    # cluster -> (contrast, image), from the initial objective and then from
    # the last ascent, each image in one buffer per cluster for the whole run
    kept: dict = {}

    def step(packet, clusters, associations, config, settled):
        """One layered alternation: association refresh, collapse, motion
        ascent.  Every image its refresh reads is one the initial objective
        or the previous ascent built; summed sharpness is its own
        objective."""
        associations = update_associations(
            packet, clusters, associations, config,
            images={j: img for j, (_, img) in kept.items()},
        )
        clusters, associations = apply_collapse(clusters, associations, config)
        clusters, _ = ascend_motion(packet, clusters, associations, config, settled, kept)
        total = sum(contrast for contrast, _ in kept.values())
        return clusters, associations, total, None

    return _alternate(
        packet, n_clusters, models, config, init, early_stop, "layered", step, kept
    )


def _settled_and_held(settled, alive, labels, previous, config) -> bool:
    """The settled stop rule's test for one iteration: every live cluster is
    settled, so no motion changes again; the hard labels equal the previous
    iteration's; and every live cluster holds at least the collapse floor of
    those labels, so associations that keep hardening toward them would not
    kill it later (see :func:`apply_collapse`)."""
    if not (settled | ~alive).all() or not np.array_equal(labels, previous):
        return False
    rows = np.bincount(labels, minlength=alive.size)
    return bool((rows[alive] >= config.collapse_frac * labels.size / alive.size).all())


def _alternate(packet, n_clusters, models, config, init, early_stop, method, step, kept=None):
    """The alternation every back-end shares.

    Starts from ``init`` or the greedy initialiser, then repeats
    ``step(packet, clusters, associations, config, settled)``: one
    association refresh plus one motion update, returning the new clusters
    and associations, their summed sharpness (what :func:`objective` gives)
    and the back-end's own objective (None when summed sharpness is that
    objective).  ``settled`` is the run's boolean settle mask: the step skips
    the ascent of a marked cluster and marks each cluster whose line search
    fails.

    With ``early_stop`` the run stops, converged, on the first of two rules
    to hold for ``CONVERGENCE_WINDOW`` iterations in a row: the own
    objective gained less than ``rel_tol`` (``"stagnant"``), or every live
    cluster is settled and the hard labels (see :func:`_hard_labels`) hold
    (``"settled"``, see :func:`_settled_and_held`; named first when both
    hold at once).  Once every live cluster is settled no motion changes
    again, so the iterations the second rule cuts only sharpen the soft
    associations.  Otherwise, or with no rule met, it spends ``max_iters``
    (``"budget"``).

    Summed sharpness is traced for every back-end, so all of them compare on
    one scale.  ``warp_counts`` holds, per iteration, the image builds made
    since the call began, greedy initialisation included; ``settled`` holds,
    per cluster, the iteration (counted from 1) it settled in, or -1;
    ``stop`` names the rule that ended the run.

    A given init table may have either memory layout: the run works on a
    column-major copy and returns its associations C-contiguous.  ``kept``,
    if given, receives the initial objective's images (see
    :func:`objective`) for the first step to read.  Each live cluster's
    footprint at its current motion is held from the initial objective on
    (see :func:`_hold`).
    """
    if config is None:
        config = SolverConfig()
    start = build_count()
    models = _resolve_models(models, n_clusters)
    if init is None:
        clusters, associations = initialize_greedy(packet, n_clusters, models, config)
        init_mode = "greedy"
    else:
        clusters, associations = init[0].copy(), np.array(init[1], order="F")
        if clusters.n_clusters != n_clusters or associations.shape != (packet.n, n_clusters):
            raise ValueError("init shape does not match packet / cluster count")
        init_mode = "given"
    _hold(packet, clusters)
    trace = [objective(packet, clusters, associations, config, kept=kept)]
    own_trace: list[float] = []
    warp_counts: list[int] = []
    settled = np.zeros(n_clusters, dtype=bool)
    settled_at = np.full(n_clusters, -1, dtype=np.int64)
    stagnant = held = 0
    labels = _hard_labels(associations) if early_stop else None
    stop = "budget"
    for iteration in range(1, config.max_iters + 1):
        clusters, associations, sharpness, own = step(
            packet, clusters, associations, config, settled
        )
        settled_at[settled & (settled_at < 0)] = iteration
        trace.append(sharpness)
        warp_counts.append(build_count() - start)
        if own is not None:
            own_trace.append(own)
        if not early_stop:
            continue
        series = trace if own is None else own_trace
        if len(series) >= 2:
            gain = (series[-1] - series[-2]) / max(abs(series[-2]), 1e-12)
            stagnant = stagnant + 1 if gain < config.rel_tol else 0
        previous, labels = labels, _hard_labels(associations)
        if _settled_and_held(settled, clusters.alive, labels, previous, config):
            held += 1
        else:
            held = 0
        if held >= CONVERGENCE_WINDOW:
            stop = "settled"
            break
        if stagnant >= CONVERGENCE_WINDOW:
            stop = "stagnant"
            break
    diagnostics = {
        "method": method,
        "init": init_mode,
        "warp_counts": np.asarray(warp_counts, dtype=np.int64),
        "settled": settled_at,
        "stop": stop,
    }
    if own_trace:
        diagnostics["own_trace"] = np.asarray(own_trace)
    return SegmentationResult(
        clusters=clusters,
        associations=np.ascontiguousarray(associations),
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=stop != "budget",
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
    stride = window_stride(window_events, stride_events)
    overlap = max(0, window_events - stride)
    prev: SegmentationResult | None = None
    for window in sliding_windows(recording, window_events, stride, t_ref_mode):
        init = None
        if prev is not None:
            carried = ClusterSet(list(prev.clusters.params), np.ones(n_clusters, dtype=bool))
            assoc = np.full((window.n, n_clusters), 1.0 / n_clusters, order="F")
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
