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
from scipy import ndimage

from .events import EventPacket, ImageGeometry, make_packet
from .iwe import Iwe, sample_local
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
    must match the region size.  Higher ``depth_order`` draws in front.
    The whole rectangle occludes what is behind it, even where the pattern
    value is zero.
    """

    pattern: np.ndarray
    motion: WarpParams
    region: Rect
    depth_order: int = 0

    def __post_init__(self) -> None:
        if self.pattern.shape != (self.region.height, self.region.width):
            raise SceneConfigError(
                f"pattern {self.pattern.shape} does not fill region "
                f"{self.region.height}x{self.region.width}"
            )
        if self.region.width <= 0 or self.region.height <= 0:
            raise SceneConfigError("object region must have positive area")


@dataclass
class SimConfig:
    """Simulator settings; thresholds are in log-intensity units."""

    contrast_threshold: float = 0.2
    duration: float = 0.25
    timestamp_jitter: float = 0.0   # stddev of gaussian timestamp noise, s
    noise_rate: float = 0.0         # uniform noise events per pixel per second
    seed: int = 7

    def __post_init__(self) -> None:
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


def _corner_extent(obj: SceneObject):
    """The object's four region corners at time 0, the centre its motion
    turns or scales about (a rotation's own centre, otherwise the region's
    centre) and the largest corner distance from that centre."""
    r = obj.region
    corners = np.array(
        [
            [r.x0, r.y0],
            [r.x0 + r.width - 1, r.y0],
            [r.x0, r.y0 + r.height - 1],
            [r.x0 + r.width - 1, r.y0 + r.height - 1],
        ]
    )
    if obj.motion.model == "rotation":
        cx, cy = obj.motion.theta[:2]
    else:
        cx, cy = corners.mean(axis=0)
    rad = float(np.sqrt(((corners - [cx, cy]) ** 2).sum(axis=1)).max())
    return corners, cx, cy, rad


def _forward_bound_box(obj: SceneObject, t: float, geometry: ImageGeometry):
    """Integer pixel box sure to contain the object at time t (clipped)."""
    corners, cx, cy, rad = _corner_extent(obj)
    th = obj.motion.theta
    if obj.motion.model == "flow2":
        fx = corners[:, 0] + t * th[0]
        fy = corners[:, 1] + t * th[1]
        lo_x, hi_x = fx.min(), fx.max()
        lo_y, hi_y = fy.min(), fy.max()
    elif obj.motion.model == "rotation":
        lo_x, hi_x = cx - rad, cx + rad
        lo_y, hi_y = cy - rad, cy + rad
    else:  # fourdof: centre translates, radius grows at most exponentially
        vx, vy, _, s = th
        rad *= float(np.exp(abs(s) * t))
        lo_x, hi_x = cx + t * vx - rad, cx + t * vx + rad
        lo_y, hi_y = cy + t * vy - rad, cy + t * vy + rad
    x0 = max(0, int(np.floor(lo_x)) - 2)
    x1 = min(geometry.width, int(np.ceil(hi_x)) + 3)
    y0 = max(0, int(np.floor(lo_y)) - 2)
    y1 = min(geometry.height, int(np.ceil(hi_y)) + 3)
    return x0, x1, y0, y1


def _speed_bound(obj: SceneObject, duration: float) -> float:
    th = obj.motion.theta
    if obj.motion.model == "flow2":
        return float(np.hypot(th[0], th[1]))
    _, _, _, rad = _corner_extent(obj)
    if obj.motion.model == "rotation":
        return abs(th[2]) * rad
    vx, vy, omega, s = th
    rad *= float(np.exp(abs(s) * duration))
    return float(np.hypot(vx, vy)) + (abs(omega) + abs(s)) * rad


def render_scene(
    scene: list, geometry: ImageGeometry, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Composite log-intensity and per-pixel owner label (0 = background)
    at time t.  Objects are painted back to front by depth order."""
    level = np.zeros((geometry.height, geometry.width))
    owner = np.zeros((geometry.height, geometry.width), dtype=np.int32)
    order = sorted(range(len(scene)), key=lambda i: (scene[i].depth_order, i))
    for i in order:
        obj = scene[i]
        x0, x1, y0, y1 = _forward_bound_box(obj, t, geometry)
        if x1 <= x0 or y1 <= y0:
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        wx, wy = warp_points(
            xs.ravel().astype(np.float64),
            ys.ravel().astype(np.float64),
            np.float64(t),
            obj.motion,
            0.0,
        )
        lx = wx - obj.region.x0
        ly = wy - obj.region.y0
        footprint = (
            (lx >= -0.5)
            & (lx < obj.region.width - 0.5)
            & (ly >= -0.5)
            & (ly < obj.region.height - 0.5)
        )
        if not footprint.any():
            continue
        pat = Iwe(obj.pattern.astype(np.float64), ImageGeometry(obj.region.width, obj.region.height))
        vals = sample_local(pat, lx, ly)
        sub_l = level[y0:y1, x0:x1].ravel()
        sub_o = owner[y0:y1, x0:x1].ravel()
        sub_l[footprint] = vals[footprint]
        sub_o[footprint] = i + 1
        level[y0:y1, x0:x1] = sub_l.reshape(y1 - y0, x1 - x0)
        owner[y0:y1, x0:x1] = sub_o.reshape(y1 - y0, x1 - x0)
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
    rng = np.random.default_rng(config.seed)
    v_fast = max(_speed_bound(obj, config.duration) for obj in scene)
    rate = max(MIN_SAMPLE_HZ, OVERSAMPLE * v_fast)
    n_steps = int(np.ceil(config.duration * rate))
    times = np.minimum((np.arange(1, n_steps + 1) / rate), config.duration)

    level_prev, owner_prev = render_scene(scene, geometry, 0.0)
    ref = level_prev.copy()
    t_prev = 0.0
    w = geometry.width
    ex, ey, et, ep, el = [], [], [], [], []
    for t_cur in times:
        level_cur, owner_cur = render_scene(scene, geometry, float(t_cur))
        diff = level_cur - ref
        n_ev = np.floor(np.abs(diff) / c_thr).astype(np.int64)
        act = np.flatnonzero(n_ev.ravel())
        if act.size:
            counts = n_ev.ravel()[act]
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
            ex.append((rows % w).astype(np.float64))
            ey.append((rows // w).astype(np.float64))
            et.append(t_prev + frac * (t_cur - t_prev))
            ep.append(pols.astype(np.int8))
            el.append(np.where(lab_cur > 0, lab_cur, lab_prev).astype(np.int32))
            ref.ravel()[act] += pol * counts * c_thr
        level_prev, owner_prev = level_cur, owner_cur
        t_prev = float(t_cur)

    if ex:
        x = np.concatenate(ex)
        y = np.concatenate(ey)
        t = np.concatenate(et)
        p = np.concatenate(ep)
        lab = np.concatenate(el)
    else:
        x = np.empty(0)
        y = np.empty(0)
        t = np.empty(0)
        p = np.empty(0, dtype=np.int8)
        lab = np.empty(0, dtype=np.int32)

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


def _blob_pattern(width: int, height: int, rng, amplitude: float, feature_px: float) -> np.ndarray:
    """Binary pebble-like texture: thresholded smoothed noise."""
    noise = rng.standard_normal((height, width))
    smoothed = ndimage.gaussian_filter(noise, feature_px / 2.0, mode="wrap")
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
    rng = np.random.default_rng(config.seed)
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
    rng = np.random.default_rng(config.seed)
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
