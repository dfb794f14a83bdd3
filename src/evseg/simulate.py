"""Threshold-based event camera simulator with known per-event labels.

A scene is a stack of textured, independently moving, opaque rectangles over
a uniform background.  Per pixel the composite log-intensity is tracked over
time; every time it drifts one contrast threshold away from the level at the
last emitted event, an event fires (a jump of k thresholds fires k events at
linearly interpolated instants).  Each event is tagged with the object that
produced it, which gives exact ground truth for clustering accuracy.

Object motion is expressed with the same parametric models the solvers
recover, so the recorded ground-truth parameters are directly comparable to
estimates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# numpy imports its random module on first use; importing it with this
# module keeps that import (10-20 ms) out of the first simulation
from numpy.random import default_rng

from .events import EventPacket, ImageGeometry, make_packet
from .iwe import Iwe, gaussian_kernel, sample_local
from .warps import WarpParams, warp_points


# the scene is rendered at max(MIN_SAMPLE_HZ, OVERSAMPLE * top speed) per second
MIN_SAMPLE_HZ = 1000.0
OVERSAMPLE = 10.0       # samples per pixel crossed at top speed


class SceneConfigError(ValueError):
    """Raised for unusable scene descriptions (zero-area objects,
    non-positive duration or threshold, out-of-frame placement)."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned placement rectangle; origin may be fractional."""

    x0: float
    y0: float
    width: int
    height: int


@dataclass(frozen=True)
class SceneObject:
    """A textured opaque rectangle moving under one parametric motion.

    ``pattern`` holds log-intensity offsets relative to the background and
    must match the region size; the object keeps a read-only float64 copy
    of it, taken at construction.  Higher ``depth_order`` draws in front.
    The whole rectangle occludes what is behind it, even where the pattern
    value is zero.

    What every frame would otherwise derive again is computed here once:
    ``texture``, the pattern as an image to sample, and ``extent``, the
    region's corner box at time 0 with a rotation's centre and reach (see
    :func:`_corner_extent`).
    """

    pattern: np.ndarray
    motion: WarpParams
    region: Rect
    depth_order: int = 0
    texture: Iwe = field(init=False, repr=False, compare=False)
    extent: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pattern = np.array(self.pattern, dtype=np.float64)
        r = self.region
        if pattern.shape != (r.height, r.width):
            raise SceneConfigError(
                f"pattern {pattern.shape} does not fill region {r.height}x{r.width}"
            )
        if r.width <= 0 or r.height <= 0:
            raise SceneConfigError("object region must have positive area")
        pattern.flags.writeable = False
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "texture", Iwe(pattern, ImageGeometry(r.width, r.height)))
        object.__setattr__(self, "extent", _corner_extent(r, self.motion))


@dataclass
class SimConfig:
    """Simulator settings; thresholds are in log-intensity units."""

    contrast_threshold: float = 0.2
    duration: float = 0.25
    timestamp_jitter: float = 0.0   # stddev of gaussian timestamp noise, s
    noise_rate: float = 0.0         # uniform noise events per pixel per second
    seed: int = 7

    def __post_init__(self) -> None:
        values = (self.contrast_threshold, self.duration, self.timestamp_jitter, self.noise_rate)
        if not np.isfinite(values).all():
            raise SceneConfigError(
                "contrast threshold, duration, jitter and noise rate must be finite"
            )
        if self.contrast_threshold <= 0:
            raise SceneConfigError("contrast threshold must be positive")
        if self.duration <= 0:
            raise SceneConfigError("duration must be positive")
        if self.timestamp_jitter < 0 or self.noise_rate < 0:
            raise SceneConfigError("jitter and noise rate must be non-negative")


@dataclass(frozen=True)
class LabeledEvents:
    """Simulated events plus their generating object index (0 = noise) and
    the per-label ground-truth motions."""

    packet: EventPacket
    labels: np.ndarray
    truth: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.packet.n


def _corner_reach(bounds: tuple, cx: float, cy: float) -> float:
    """The largest distance from (cx, cy) to a corner of the box ``bounds``
    (lowest and highest x, then y)."""
    lo_x, hi_x, lo_y, hi_y = bounds
    corners = np.array([[lo_x, lo_y], [hi_x, lo_y], [lo_x, hi_y], [hi_x, hi_y]])
    return float(np.sqrt(((corners - [cx, cy]) ** 2).sum(axis=1)).max())


def _corner_extent(r: Rect, motion: WarpParams):
    """The bounds of a region's four corners at time 0 (lowest and highest
    x, then y) and, for a rotation, its own centre and the largest corner
    distance from that centre (None for the other models)."""
    bounds = (r.x0, r.x0 + r.width - 1, r.y0, r.y0 + r.height - 1)
    if motion.model != "rotation":
        return bounds, None, None, None
    cx, cy = motion.theta[:2]
    return bounds, cx, cy, _corner_reach(bounds, cx, cy)


def _pivot(obj: SceneObject, geometry: ImageGeometry):
    """The centre the object's motion turns and scales about, and the
    largest corner distance from it at time 0: a rotation's own centre, and
    for fourdof the sensor centre, the pivot the solver's warp uses."""
    bounds, cx, cy, rad = obj.extent
    if obj.motion.model == "rotation":
        return cx, cy, rad
    cx, cy = geometry.center
    return cx, cy, _corner_reach(bounds, cx, cy)


def _forward_bound_box(obj: SceneObject, t: float, geometry: ImageGeometry):
    """Integer pixel box sure to contain the object at time t (clipped)."""
    lo_x, hi_x, lo_y, hi_y = obj.extent[0]
    th = obj.motion.theta
    if obj.motion.model == "flow2":
        # a rounded sum keeps the order of its terms, so shifting the
        # corners' bounds is shifting the corners and taking their bounds
        lo_x, hi_x = lo_x + t * th[0], hi_x + t * th[0]
        lo_y, hi_y = lo_y + t * th[1], hi_y + t * th[1]
    elif obj.motion.model == "rotation":
        cx, cy, rad = _pivot(obj, geometry)
        lo_x, hi_x = cx - rad, cx + rad
        lo_y, hi_y = cy - rad, cy + rad
    else:  # fourdof: pivot translates, radius grows at most exponentially
        cx, cy, rad = _pivot(obj, geometry)
        vx, vy, _, s = th
        rad *= float(np.exp(abs(s) * t))
        lo_x, hi_x = cx + t * vx - rad, cx + t * vx + rad
        lo_y, hi_y = cy + t * vy - rad, cy + t * vy + rad
    x0 = max(0, int(np.floor(lo_x)) - 2)
    x1 = min(geometry.width, int(np.ceil(hi_x)) + 3)
    y0 = max(0, int(np.floor(lo_y)) - 2)
    y1 = min(geometry.height, int(np.ceil(hi_y)) + 3)
    return x0, x1, y0, y1


def _speed_bound(obj: SceneObject, duration: float, geometry: ImageGeometry) -> float:
    th = obj.motion.theta
    if obj.motion.model == "flow2":
        return float(np.hypot(th[0], th[1]))
    rad = _pivot(obj, geometry)[2]
    if obj.motion.model == "rotation":
        return abs(th[2]) * rad
    vx, vy, omega, s = th
    rad *= float(np.exp(abs(s) * duration))
    return float(np.hypot(vx, vy)) + (abs(omega) + abs(s)) * rad


def render_scene(
    scene: list,
    geometry: ImageGeometry,
    t: float,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite log-intensity and per-pixel owner label (0 = background)
    at time t.  Objects are painted back to front by depth order.

    ``out``, a (level, owner) pair of float64 and int32 arrays of the
    sensor's shape, receives the frame and is returned; without it the
    frame comes back in fresh arrays."""
    shape = (geometry.height, geometry.width)
    if out is None:
        level, owner = np.zeros(shape), np.zeros(shape, dtype=np.int32)
    else:
        level, owner = out
        if (level.shape, level.dtype, owner.shape, owner.dtype) != (
            shape, np.float64, shape, np.int32
        ):
            raise ValueError("out must be a float64 and an int32 array of the sensor's shape")
        level.fill(0.0)
        owner.fill(0)
    order = sorted(range(len(scene)), key=lambda i: (scene[i].depth_order, i))
    for i in order:
        obj = scene[i]
        r = obj.region
        x0, x1, y0, y1 = _forward_bound_box(obj, t, geometry)
        if x1 <= x0 or y1 <= y0:
            continue
        # the box as a row of x and a column of y: a flow2 warp keeps them
        # apart, and every other model broadcasts them to the whole box
        wx, wy = warp_points(
            np.arange(x0, x1, dtype=np.float64)[None, :],
            np.arange(y0, y1, dtype=np.float64)[:, None],
            np.float64(t),
            obj.motion,
            0.0,
            geometry.center,
        )
        lx = wx - r.x0
        ly = wy - r.y0
        inside = ((lx >= -0.5) & (lx < r.width - 0.5)) & ((ly >= -0.5) & (ly < r.height - 0.5))
        if not inside.any():
            continue
        vals = sample_local(obj.texture, lx, ly)
        np.copyto(level[y0:y1, x0:x1], vals, where=inside)
        np.copyto(owner[y0:y1, x0:x1], i + 1, where=inside)
    return level, owner


def simulate(
    scene: list, geometry: ImageGeometry, config: SimConfig | None = None
) -> LabeledEvents:
    """Generate the labeled event stream a threshold camera would produce
    while watching ``scene`` for ``config.duration`` seconds.

    Deterministic for a fixed config seed.  Returned events are sorted by
    timestamp; labels are scene indices plus one, with 0 for noise events.
    """
    if config is None:
        config = SimConfig()
    if not scene:
        raise SceneConfigError("scene holds no objects")
    for obj in scene:
        r = obj.region
        if (
            r.x0 < 0
            or r.y0 < 0
            or r.x0 + r.width > geometry.width
            or r.y0 + r.height > geometry.height
        ):
            raise SceneConfigError("object region must start inside the sensor")
    c_thr = config.contrast_threshold
    rng = default_rng(config.seed)
    v_fast = max(_speed_bound(obj, config.duration, geometry) for obj in scene)
    rate = max(MIN_SAMPLE_HZ, OVERSAMPLE * v_fast)
    n_steps = int(np.ceil(config.duration * rate))
    times = np.minimum((np.arange(1, n_steps + 1) / rate), config.duration)

    # two frames in turn, the previous and the current one, and the diff and
    # threshold-count buffers, all reused for every frame
    shape = (geometry.height, geometry.width)
    frames = [(np.empty(shape), np.empty(shape, dtype=np.int32)) for _ in range(2)]
    diff = np.empty(shape)
    steps = np.empty(shape)     # whole thresholds crossed, as floats
    firing = np.empty(shape, dtype=bool)
    level_prev, owner_prev = render_scene(scene, geometry, 0.0, out=frames[0])
    ref = level_prev.copy()
    t_prev = 0.0
    # each frame's flat pixel rows, times, polarities and labels, after an
    # empty array of each dtype so that a recording without events joins too
    er, et, ep, el = ([np.empty(0, dtype=d)] for d in (np.intp, np.float64, np.int8, np.int32))
    for k, t_cur in enumerate(times):
        level_cur, owner_cur = render_scene(
            scene, geometry, float(t_cur), out=frames[(k + 1) % 2]
        )
        np.subtract(level_cur, ref, out=diff)
        np.floor(np.divide(np.abs(diff, out=steps), c_thr, out=steps), out=steps)
        # nonzero() scans a bool array several times faster than a float one
        act = np.flatnonzero(np.not_equal(steps, 0.0, out=firing))
        if act.size:
            counts = steps.ravel()[act].astype(np.int64)
            pol = np.sign(diff.ravel()[act])
            rows = np.repeat(act, counts)
            pols = np.repeat(pol, counts)
            # ordinal of each event within its pixel's burst, 1-based
            total = int(counts.sum())
            ordinal = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts) + 1
            levels = np.repeat(ref.ravel()[act], counts) + pols * ordinal * c_thr
            lp = np.repeat(level_prev.ravel()[act], counts)
            lc = np.repeat(level_cur.ravel()[act], counts)
            denom = lc - lp
            frac = np.ones(total)
            np.divide(levels - lp, denom, out=frac, where=denom != 0.0)
            frac = np.clip(frac, 0.0, 1.0)
            lab_cur = np.repeat(owner_cur.ravel()[act], counts)
            lab_prev = np.repeat(owner_prev.ravel()[act], counts)
            er.append(rows)
            et.append(t_prev + frac * (t_cur - t_prev))
            ep.append(pols.astype(np.int8))
            el.append(np.where(lab_cur > 0, lab_cur, lab_prev).astype(np.int32))
            ref.ravel()[act] += pol * counts * c_thr
        level_prev, owner_prev = level_cur, owner_cur
        t_prev = float(t_cur)

    rows = np.concatenate(er)
    x, y = (rows % geometry.width).astype(np.float64), (rows // geometry.width).astype(np.float64)
    t, p, lab = (np.concatenate(parts) for parts in (et, ep, el))

    if config.timestamp_jitter > 0 and t.size:
        t = np.clip(
            t + rng.normal(0.0, config.timestamp_jitter, t.size), 0.0, config.duration
        )

    if config.noise_rate > 0:
        n_noise = int(rng.poisson(config.noise_rate * geometry.n_pixels * config.duration))
        if n_noise:
            x = np.concatenate([x, rng.integers(0, geometry.width, n_noise).astype(np.float64)])
            y = np.concatenate([y, rng.integers(0, geometry.height, n_noise).astype(np.float64)])
            t = np.concatenate([t, rng.uniform(0.0, config.duration, n_noise)])
            p = np.concatenate([p, rng.choice(np.array([-1, 1], dtype=np.int8), n_noise)])
            lab = np.concatenate([lab, np.zeros(n_noise, dtype=np.int32)])

    order = np.argsort(t, kind="stable")
    packet = make_packet(x[order], y[order], t[order], p[order], geometry, t_ref=0.0)
    truth = {i + 1: obj.motion for i, obj in enumerate(scene)}
    return LabeledEvents(packet=packet, labels=lab[order], truth=truth)


# ---------------------------------------------------------------------------
# preset scenes


def _periodic_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of a 2-D float64 image that wraps at its edges: the
    bytes of ``scipy.ndimage.gaussian_filter(image, sigma, mode="wrap")``.

    It does scipy's arithmetic in scipy's order: the kernel truncated at
    radius int(4*sigma + 0.5), axis 0 then axis 1, and each output
    x[i]*w[0] plus (x[i-k] + x[i+k])*w[k] for k from the radius down to 1,
    with indices taken modulo the side, so a kernel longer than the side
    wraps more than once, as scipy's does."""
    r = int(4.0 * sigma + 0.5)
    w = gaussian_kernel(sigma, r)[r:]
    out = image
    for _ in range(2):
        # a pass blurs axis 0 of a C-contiguous copy with r periodic rows
        # added on each side, and hands its result on transposed: the
        # second pass blurs axis 1 and turns the image upright again
        n = out.shape[0]
        padded = out[np.arange(-r, n + r) % n]
        acc = padded[r : r + n] * w[0]
        pair = np.empty_like(acc)
        for k in range(r, 0, -1):
            np.add(padded[r - k : r - k + n], padded[r + k : r + k + n], out=pair)
            pair *= w[k]
            acc += pair
        out = acc.T
    return np.ascontiguousarray(out)


def _blob_pattern(width: int, height: int, rng, amplitude: float, feature_px: float) -> np.ndarray:
    """Binary pebble-like texture: thresholded smoothed noise."""
    noise = rng.standard_normal((height, width))
    smoothed = _periodic_blur(noise, feature_px / 2.0)
    return np.where(smoothed > 0.0, amplitude, 0.0)


def preset_two_pebbles(
    delta_v: float,
    base_v: float = 50.0,
    geometry: ImageGeometry | None = None,
    config: SimConfig | None = None,
) -> list:
    """Two pebble-textured strips translating horizontally at ``base_v`` and
    ``base_v + delta_v`` px/s.  Strip width leaves room for the travel the
    configured duration implies."""
    if geometry is None:
        geometry = ImageGeometry(240, 180)
    if config is None:
        config = SimConfig()
    rng = default_rng(config.seed)
    amplitude = 2.25 * config.contrast_threshold
    v_hi = max(abs(base_v), abs(base_v + delta_v))
    travel = int(np.ceil(v_hi * config.duration))
    margin = 8
    obj_w = geometry.width - travel - 2 * margin
    if obj_w < 32:
        raise SceneConfigError(
            f"sensor too small for {travel} px of travel at this duration"
        )
    obj_h = (geometry.height - 3 * margin) // 2
    pat_a = _blob_pattern(obj_w, obj_h, rng, amplitude, feature_px=7.0)
    pat_b = _blob_pattern(obj_w, obj_h, rng, amplitude, feature_px=7.0)
    x_start = margin if base_v >= 0 else geometry.width - margin - obj_w
    return [
        SceneObject(
            pattern=pat_a,
            motion=WarpParams("flow2", np.array([float(base_v), 0.0])),
            region=Rect(float(x_start), float(margin), obj_w, obj_h),
            depth_order=0,
        ),
        SceneObject(
            pattern=pat_b,
            motion=WarpParams("flow2", np.array([float(base_v + delta_v), 0.0])),
            region=Rect(float(x_start), float(2 * margin + obj_h), obj_w, obj_h),
            depth_order=0,
        ),
    ]


def _fan_pattern(side: int, amplitude: float, n_blades: int, radius: float) -> np.ndarray:
    c = (side - 1) / 2.0
    ys, xs = np.mgrid[0:side, 0:side]
    dx = xs - c
    dy = ys - c
    r = np.hypot(dx, dy)
    phi = np.arctan2(dy, dx)
    blades = np.sin(n_blades * phi) > 0.0
    return np.where((r < radius) & blades, amplitude, 0.0)


def _coin_pattern(side: int, amplitude: float, radius: float, rng) -> np.ndarray:
    c = (side - 1) / 2.0
    ys, xs = np.mgrid[0:side, 0:side]
    r = np.hypot(xs - c, ys - c)
    # blobby face inside a solid rim: plenty of edges so the coin's few
    # pixels still anchor a sharp translation estimate
    face = _blob_pattern(side, side, rng, amplitude, feature_px=5.0)
    pat = np.where(r < 0.8 * radius, face, amplitude)
    return np.where(r < radius, pat, 0.0)


def preset_fan_and_coin(
    omega: float = 10.0,
    v: tuple[float, float] = (70.0, 0.0),
    geometry: ImageGeometry | None = None,
    config: SimConfig | None = None,
) -> list:
    """A bladed fan spinning about a fixed centre, partly occluded by a
    textured coin translating in front of it."""
    if geometry is None:
        geometry = ImageGeometry(240, 180)
    if config is None:
        config = SimConfig()
    rng = default_rng(config.seed)
    amplitude = 2.25 * config.contrast_threshold
    fan_side = 145
    fan_origin = (16.0, 16.0)
    fan_center = (fan_origin[0] + (fan_side - 1) / 2.0, fan_origin[1] + (fan_side - 1) / 2.0)
    fan = SceneObject(
        pattern=_fan_pattern(fan_side, amplitude, n_blades=6, radius=70.0),
        motion=WarpParams("rotation", np.array([fan_center[0], fan_center[1], float(omega)])),
        region=Rect(fan_origin[0], fan_origin[1], fan_side, fan_side),
        depth_order=0,
    )
    coin_side = 56
    travel_x = v[0] * config.duration
    travel_y = v[1] * config.duration
    cx0 = 140.0 if travel_x >= 0 else 140.0 - travel_x
    cy0 = 62.0 if travel_y >= 0 else 62.0 - travel_y
    if cx0 + coin_side + max(0.0, travel_x) > geometry.width or cy0 + coin_side + max(
        0.0, travel_y
    ) > geometry.height:
        raise SceneConfigError("coin travel leaves the sensor at this duration")
    coin = SceneObject(
        pattern=_coin_pattern(coin_side, 1.3 * amplitude, 26.0, rng),
        motion=WarpParams("flow2", np.array([float(v[0]), float(v[1])])),
        region=Rect(cx0, cy0, coin_side, coin_side),
        depth_order=1,
    )
    return [fan, coin]
