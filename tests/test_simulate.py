"""Simulator tests: threshold counting against a dense-time reference
integrator, label bookkeeping, preset scene geometry, and reproducibility."""
import hashlib
import importlib

import numpy as np
import pytest

from evseg.events import ImageGeometry
from evseg.iwe import Iwe, sample_local
from evseg.simulate import (
    MIN_SAMPLE_HZ,
    OVERSAMPLE,
    LabeledEvents,
    Rect,
    SceneConfigError,
    SceneObject,
    SimConfig,
    preset_fan_and_coin,
    preset_two_pebbles,
    render_scene,
    simulate,
)
from evseg.warps import WarpParams, warp_points

C = 0.2  # default contrast threshold used throughout
# the module itself: the package binds the name simulate to the function
simulate_module = importlib.import_module("evseg.simulate")


def solid_object(amplitude, v=(40.0, 0.0), rect=Rect(2, 3, 16, 6)):
    pattern = np.full((rect.height, rect.width), amplitude)
    return SceneObject(pattern, WarpParams("flow2", np.array(v)), rect)


def _axis_weight(l, size):
    # bilinear response of a constant pattern along one axis: linear ramps
    # half a pixel wide at both footprint cuts, flat in between
    w = np.zeros_like(l)
    w = np.where((l >= -0.5) & (l < 0.0), l + 1.0, w)
    w = np.where((l >= 0.0) & (l <= size - 1.0), 1.0, w)
    w = np.where((l > size - 1.0) & (l < size - 0.5), size - l, w)
    return w


def dense_reference_counts(rect, v, amplitude, geometry, config, refine=10):
    """Per-pixel (positive, negative) event counts from a brute-force
    integrator sampled ``refine`` times finer than the simulator."""
    rate = max(MIN_SAMPLE_HZ, OVERSAMPLE * float(np.hypot(*v)))
    rate *= refine
    n_steps = int(np.ceil(config.duration * rate))
    times = np.minimum(np.arange(1, n_steps + 1) / rate, config.duration)
    qy, qx = np.mgrid[0 : geometry.height, 0 : geometry.width]
    qx = qx.astype(float).ravel()
    qy = qy.astype(float).ravel()

    def level(t):
        lx = qx - rect.x0 - v[0] * t
        ly = qy - rect.y0 - v[1] * t
        return amplitude * _axis_weight(lx, rect.width) * _axis_weight(ly, rect.height)

    ref = level(0.0)
    pos = np.zeros(qx.size, dtype=np.int64)
    neg = np.zeros(qx.size, dtype=np.int64)
    for t in times:
        d = level(t) - ref
        n = np.floor(np.abs(d) / config.contrast_threshold).astype(np.int64)
        pos[(d > 0) & (n > 0)] += n[(d > 0) & (n > 0)]
        neg[(d < 0) & (n > 0)] += n[(d < 0) & (n > 0)]
        ref += np.sign(d) * n * config.contrast_threshold
    shape = (geometry.height, geometry.width)
    return pos.reshape(shape), neg.reshape(shape)


def signed_counts(recording, geometry):
    pos = np.zeros((geometry.height, geometry.width), dtype=np.int64)
    neg = np.zeros_like(pos)
    pk = recording.packet
    xi = pk.x.astype(int)
    yi = pk.y.astype(int)
    up = pk.polarity > 0
    np.add.at(pos, (yi[up], xi[up]), 1)
    np.add.at(neg, (yi[~up], xi[~up]), 1)
    return pos, neg


def hist_image(x, y, geometry):
    img = np.zeros((geometry.height, geometry.width))
    np.add.at(img, (y.astype(int), x.astype(int)), 1.0)
    return img


def correlation_shift(a, b, expect_dx, expect_dy, radius=3):
    """Sub-pixel displacement of histogram b relative to a: integer-shift
    correlation search around the expected offset plus parabolic refinement."""
    base_dx, base_dy = int(round(expect_dx)), int(round(expect_dy))
    scores = np.zeros((2 * radius + 1, 2 * radius + 1))
    height, width = a.shape
    for iy, dy in enumerate(range(base_dy - radius, base_dy + radius + 1)):
        for ix, dx in enumerate(range(base_dx - radius, base_dx + radius + 1)):
            ax0, ax1 = max(0, -dx), min(width, width - dx)
            ay0, ay1 = max(0, -dy), min(height, height - dy)
            scores[iy, ix] = np.sum(
                a[ay0:ay1, ax0:ax1] * b[ay0 + dy : ay1 + dy, ax0 + dx : ax1 + dx]
            )
    iy, ix = np.unravel_index(np.argmax(scores), scores.shape)

    def parabola(s, i):
        if i == 0 or i == s.size - 1:
            return 0.0
        denom = s[i - 1] - 2.0 * s[i] + s[i + 1]
        return 0.0 if denom == 0.0 else 0.5 * (s[i - 1] - s[i + 1]) / denom

    return (
        base_dx - radius + ix + parabola(scores[iy, :], ix),
        base_dy - radius + iy + parabola(scores[:, ix], iy),
    )


class TestValidation:
    def test_empty_scene_rejected(self):
        with pytest.raises(SceneConfigError):
            simulate([], ImageGeometry(32, 32), SimConfig())

    def test_zero_area_object_rejected(self):
        with pytest.raises(SceneConfigError):
            SceneObject(
                np.zeros((6, 0)),
                WarpParams("flow2", np.zeros(2)),
                Rect(2, 2, 0, 6),
            )

    def test_pattern_region_mismatch_rejected(self):
        with pytest.raises(SceneConfigError):
            SceneObject(
                np.zeros((4, 4)),
                WarpParams("flow2", np.zeros(2)),
                Rect(2, 2, 6, 6),
            )

    def test_object_outside_sensor_rejected(self):
        geom = ImageGeometry(20, 20)
        with pytest.raises(SceneConfigError):
            simulate([solid_object(0.5, rect=Rect(10, 3, 16, 6))], geom, SimConfig())
        with pytest.raises(SceneConfigError):
            simulate([solid_object(0.5, rect=Rect(-1, 3, 16, 6))], geom, SimConfig())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"contrast_threshold": 0.0},
            {"contrast_threshold": -0.1},
            {"duration": 0.0},
            {"timestamp_jitter": -1e-3},
            {"noise_rate": -5.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(SceneConfigError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize(
        "name", ["contrast_threshold", "duration", "timestamp_jitter", "noise_rate"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_config_rejected(self, name, value):
        with pytest.raises(SceneConfigError, match="finite"):
            SimConfig(**{name: value})


class TestThresholdCounting:
    def test_static_scene_emits_nothing(self):
        geom = ImageGeometry(40, 12)
        rec = simulate([solid_object(0.9, v=(0.0, 0.0))], geom, SimConfig(duration=0.2))
        assert rec.packet.n == 0
        assert rec.labels.size == 0

    def test_step_of_three_thresholds_gives_exactly_three_events(self):
        # a 3C step sweeping over a pixel leaves exactly three same-sign
        # events there, at strictly increasing interpolated instants
        geom = ImageGeometry(40, 12)
        rec = simulate([solid_object(3 * C)], geom, SimConfig(duration=0.35, seed=1))
        pk = rec.packet
        m = (pk.x == 25.0) & (pk.y == 5.0)
        assert int(m.sum()) == 3
        assert (pk.polarity[m] == 1).all()
        assert (np.diff(pk.t[m]) > 0).all()

    @pytest.mark.parametrize("duration", [0.34, 0.35])
    def test_sweep_counts_match_dense_reference(self, duration):
        geom = ImageGeometry(40, 12)
        rect = Rect(2, 3, 16, 6)
        amp = 3.3 * C
        v = (40.0, 0.0)
        cfg = SimConfig(duration=duration, seed=1)
        rec = simulate([solid_object(amp, v=v, rect=rect)], geom, cfg)
        pos, neg = signed_counts(rec, geom)
        ref_pos, ref_neg = dense_reference_counts(rect, v, amp, geom, cfg)
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(neg, ref_neg)

    def test_sweep_count_formula_per_crossed_pixel(self):
        # every pixel fully crossed by the leading edge collects
        # floor(amplitude / C) positive events; same for the trailing edge
        # with negative events
        geom = ImageGeometry(40, 12)
        rect = Rect(2, 3, 16, 6)
        amp = 3.3 * C
        duration = 0.35
        rec = simulate(
            [solid_object(amp, rect=rect)], geom, SimConfig(duration=duration, seed=1)
        )
        pos, neg = signed_counts(rec, geom)
        per_pixel = int(np.floor(amp / C))
        entered_hi = int(np.floor(rect.x0 + rect.width - 1 + 40.0 * duration))
        first_new = rect.x0 + rect.width + 2  # first pixel not covered at t=0
        rows = slice(rect.y0 + 1, rect.y0 + rect.height - 1)
        entry_band = pos[rows, first_new : entered_hi + 1]
        assert (entry_band == per_pixel).all()
        exited_hi = int(np.ceil(rect.x0 - 0.5 + 40.0 * duration)) - 1
        exit_band = neg[rows, rect.x0 : exited_hi + 1]
        assert (exit_band == per_pixel).all()
        n_band = entry_band.size
        assert entry_band.sum() == n_band * per_pixel

    def test_polarity_flips_only_with_signal_direction(self):
        # full pass over a pixel: all positive events strictly precede all
        # negative ones
        geom = ImageGeometry(56, 12)
        rec = simulate(
            [solid_object(3.3 * C)], geom, SimConfig(duration=0.6, seed=1)
        )
        pk = rec.packet
        order = np.lexsort((pk.t, pk.x, pk.y))
        xs, ys, ps = pk.x[order], pk.y[order], pk.polarity[order]
        same_pixel = (np.diff(xs) == 0) & (np.diff(ys) == 0)
        assert (np.diff(ps.astype(int))[same_pixel] <= 0).all()

    def test_large_step_bursts_within_one_sample(self):
        # entry jump of 3.25C fires three events inside a single sampling
        # interval, with distinct interpolated timestamps
        geom = ImageGeometry(40, 12)
        cfg = SimConfig(duration=0.35, seed=1)
        rec = simulate([solid_object(6.5 * C)], geom, cfg)
        pk = rec.packet
        m = (pk.x == 25.0) & (pk.y == 5.0)
        t = pk.t[m]
        assert int(m.sum()) == 6
        assert (np.diff(t) > 0).all()
        assert (np.diff(t)[:2] < 1.0 / 1000.0).all()
        assert (pk.polarity[m][:3] == 1).all()

    def test_first_sample_interpolates_between_its_two_frames(self):
        # a bright edge crosses a threshold within the first sampling
        # interval, so that frame pair, like every later one, must place
        # the crossing between the two frames' instants
        geom = ImageGeometry(40, 12)
        rec = simulate([solid_object(40 * C)], geom, SimConfig(duration=0.01, seed=1))
        first = rec.packet.t[rec.packet.t <= 1.0 / MIN_SAMPLE_HZ]
        assert first.size > 0
        assert (first > 0.0).all() and (first < 1.0 / MIN_SAMPLE_HZ).all()

    def test_doubling_threshold_halves_counts(self):
        geom = ImageGeometry(40, 12)
        scene = [solid_object(4.2 * C)]
        rec1 = simulate(scene, geom, SimConfig(duration=0.34, seed=1))
        rec2 = simulate(
            scene, geom, SimConfig(contrast_threshold=2 * C, duration=0.34, seed=1)
        )
        pos1, neg1 = signed_counts(rec1, geom)
        pos2, neg2 = signed_counts(rec2, geom)
        assert np.abs((pos1 + neg1) - 2 * (pos2 + neg2)).max() <= 2
        ratio = rec1.packet.n / rec2.packet.n
        assert 1.8 <= ratio <= 2.2


class TestStreamProperties:
    def test_timestamps_sorted_and_bounded(self, mini_recording):
        t = mini_recording.packet.t
        assert (np.diff(t) >= 0).all()
        assert t.min() >= 0.0
        assert t.max() <= 0.07 + 1e-12

    def test_bit_reproducible_for_fixed_seed(self):
        geom = ImageGeometry(120, 90)
        cfg = SimConfig(duration=0.07, seed=5, noise_rate=20.0, timestamp_jitter=1e-4)
        scene = preset_two_pebbles(60.0, 40.0, geom, cfg)
        a = simulate(scene, geom, cfg)
        b = simulate(scene, geom, cfg)
        for field in ("x", "y", "t"):
            assert np.array_equal(getattr(a.packet, field), getattr(b.packet, field))
        assert np.array_equal(a.packet.polarity, b.packet.polarity)
        assert np.array_equal(a.labels, b.labels)

    def test_jitter_only_moves_timestamps(self):
        geom = ImageGeometry(40, 12)
        scene = [solid_object(3.3 * C)]
        clean = simulate(scene, geom, SimConfig(duration=0.35, seed=1))
        noisy = simulate(
            scene, geom, SimConfig(duration=0.35, seed=1, timestamp_jitter=2e-3)
        )
        assert noisy.packet.n == clean.packet.n

        def key(pk):
            order = np.lexsort((pk.polarity, pk.y, pk.x))
            return pk.x[order], pk.y[order], pk.polarity[order]

        for a, b in zip(key(clean.packet), key(noisy.packet)):
            assert np.array_equal(a, b)
        assert (np.diff(noisy.packet.t) >= 0).all()
        assert noisy.packet.t.min() >= 0.0
        assert noisy.packet.t.max() <= 0.35

    def test_noise_events_are_labeled_zero(self):
        geom = ImageGeometry(20, 10)
        cfg = SimConfig(duration=0.5, seed=3, noise_rate=50.0)
        rec = simulate([solid_object(0.9, v=(0.0, 0.0), rect=Rect(2, 2, 8, 6))], geom, cfg)
        assert rec.packet.n > 0
        assert (rec.labels == 0).all()
        expected = 50.0 * geom.n_pixels * 0.5
        assert abs(rec.packet.n - expected) < 5 * np.sqrt(expected)
        assert np.array_equal(rec.packet.x, rec.packet.x.astype(int))
        assert np.array_equal(rec.packet.y, rec.packet.y.astype(int))
        assert rec.packet.x.max() < geom.width
        assert rec.packet.y.max() < geom.height

    def test_len_matches_packet(self, mini_recording):
        assert len(mini_recording) == mini_recording.packet.n
        assert isinstance(mini_recording, LabeledEvents)


class TestOcclusion:
    def test_painter_depth_order(self):
        geom = ImageGeometry(16, 16)
        back = SceneObject(
            np.full((6, 6), 0.5), WarpParams("flow2", np.zeros(2)), Rect(2, 2, 6, 6), 0
        )
        front = SceneObject(
            np.full((6, 6), 0.9), WarpParams("flow2", np.zeros(2)), Rect(5, 5, 6, 6), 1
        )
        level, owner = render_scene([back, front], geom, 0.0)
        assert level[6, 6] == 0.9 and owner[6, 6] == 2
        assert level[3, 3] == 0.5 and owner[3, 3] == 1
        assert level[0, 0] == 0.0 and owner[0, 0] == 0

    def test_depth_tie_broken_by_index(self):
        geom = ImageGeometry(16, 16)
        a = SceneObject(
            np.full((6, 6), 0.5), WarpParams("flow2", np.zeros(2)), Rect(2, 2, 6, 6), 0
        )
        b = SceneObject(
            np.full((6, 6), 0.9), WarpParams("flow2", np.zeros(2)), Rect(5, 5, 6, 6), 0
        )
        _, owner = render_scene([a, b], geom, 0.0)
        assert owner[6, 6] == 2


class TestTwoPebbles:
    def test_truth_velocities_from_arguments(self, standard_recording):
        assert standard_recording.truth[1].model == "flow2"
        assert tuple(standard_recording.truth[1].theta) == (50.0, 0.0)
        assert tuple(standard_recording.truth[2].theta) == (110.0, 0.0)

    def test_zero_gap_gives_single_motion_scene(self):
        geom = ImageGeometry(120, 90)
        cfg = SimConfig(duration=0.07, seed=5)
        scene = preset_two_pebbles(0.0, 40.0, geom, cfg)
        assert len(scene) == 2
        assert np.array_equal(scene[0].motion.theta, scene[1].motion.theta)

    def test_event_displacement_tracks_truth(self, standard_recording):
        # displacement measured by correlating early-half and late-half
        # event histograms per label; plain per-bin centroids are too noisy
        # at this event count
        rec = standard_recording
        geom = rec.packet.geometry
        pk, labels = rec.packet, rec.labels
        duration = 0.12
        for label, motion in rec.truth.items():
            m = labels == label
            early = m & (pk.t < duration / 2)
            late = m & (pk.t >= duration / 2)
            ta, tb = pk.t[early].mean(), pk.t[late].mean()
            a = hist_image(pk.x[early], pk.y[early], geom)
            b = hist_image(pk.x[late], pk.y[late], geom)
            vx, vy = motion.theta
            dx, dy = correlation_shift(a, b, vx * (tb - ta), vy * (tb - ta))
            assert abs(dx / (tb - ta) - vx) * duration <= 0.2
            assert abs(dy / (tb - ta) - vy) * duration <= 0.2


class TestFanAndCoin:
    def test_static_coin_leaves_only_rotational_events(self):
        geom = ImageGeometry(240, 180)
        cfg = SimConfig(duration=0.05, seed=2)
        scene = preset_fan_and_coin(10.0, (0.0, 0.0), geom, cfg)
        rec = simulate(scene, geom, cfg)
        assert rec.packet.n > 0
        assert set(np.unique(rec.labels)) == {1}
        # nothing fires under the static occluding coin

        coin = scene[1].region
        inside = (
            (rec.packet.x >= coin.x0)
            & (rec.packet.x < coin.x0 + coin.width)
            & (rec.packet.y >= coin.y0)
            & (rec.packet.y < coin.y0 + coin.height)
        )
        assert not inside.any()

    def test_labels_partition_events(self, fan_coin_recording):
        labels = fan_coin_recording.labels
        assert labels.shape == (fan_coin_recording.packet.n,)
        assert set(np.unique(labels)) == {1, 2}

    def test_truth_records_both_models(self, fan_coin_recording):
        truth = fan_coin_recording.truth
        assert truth[1].model == "rotation"
        assert truth[1].theta[2] == 10.0
        assert truth[2].model == "flow2"
        assert tuple(truth[2].theta) == (70.0, 0.0)


def exit_scene():
    """A fourdof object that leaves a small sensor behind a flow2 object with
    a fractional origin."""
    rng = np.random.default_rng(2)
    back = SceneObject(
        np.where(rng.standard_normal((12, 14)) > 0, 0.45, 0.0),
        WarpParams("fourdof", np.array([450.0, 30.0, 1.5, 2.0])),
        Rect(30.0, 14.0, 14, 12),
    )
    front = SceneObject(
        np.where(rng.standard_normal((20, 16)) > 0, 0.6, 0.1),
        WarpParams("flow2", np.array([140.0, 15.0])),
        Rect(24.35, 10.6, 16, 20),
        depth_order=1,
    )
    return [back, front], ImageGeometry(64, 48)


def recording_digest(rec):
    h = hashlib.sha256()
    pk = rec.packet
    for a in (pk.x, pk.y, pk.t, pk.polarity, rec.labels):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestPinnedBytes:
    """Every event of these recordings keeps its bytes: a change to how the
    simulator renders or counts must leave its output exactly as it was."""

    def test_two_pebbles_with_noise_and_jitter(self):
        geom = ImageGeometry(120, 90)
        cfg = SimConfig(duration=0.05, seed=11, timestamp_jitter=2e-4, noise_rate=0.5)
        rec = simulate(preset_two_pebbles(60.0, 40.0, geom, cfg), geom, cfg)
        assert rec.packet.n == 3837
        assert recording_digest(rec) == (
            "95dc8fe79af7aa876f84b4ba39964ba6d3cf419312b7e2789e257655194e1162"
        )

    def test_fan_and_coin_with_noise(self):
        geom = ImageGeometry(240, 180)
        cfg = SimConfig(duration=0.015, seed=3, noise_rate=0.5)
        rec = simulate(preset_fan_and_coin(10.0, (70.0, 0.0), geom, cfg), geom, cfg)
        assert rec.packet.n == 9371
        assert recording_digest(rec) == (
            "8ddeb58855f8fd07d0dfc00079439e1d4e84e5f030b9a395714ec7cad1b160f0"
        )

    def test_fourdof_leaving_the_sensor_behind_a_flow2_object(self):
        scene, geom = exit_scene()
        rec = simulate(scene, geom, SimConfig(duration=0.1, seed=5))
        # retaken when fourdof objects began to turn about the sensor centre,
        # the solver's pivot, rather than about the sensor origin
        assert rec.packet.n == 5077
        assert recording_digest(rec) == (
            "91ca8163891f8dead4569ea07587f14a9cd4cf443b659bcc6d6dedbd63c9c206"
        )


def reference_render(scene, geometry, t):
    """The renderer as it was before objects kept their render constants:
    every frame derives each object's corners and pattern again, warps an
    mgrid of its whole box as flat positions and masks the result in."""
    level = np.zeros((geometry.height, geometry.width))
    owner = np.zeros((geometry.height, geometry.width), dtype=np.int32)
    order = sorted(range(len(scene)), key=lambda i: (scene[i].depth_order, i))
    for i in order:
        obj = scene[i]
        r, th = obj.region, obj.motion.theta
        corners = np.array(
            [
                [r.x0, r.y0],
                [r.x0 + r.width - 1, r.y0],
                [r.x0, r.y0 + r.height - 1],
                [r.x0 + r.width - 1, r.y0 + r.height - 1],
            ]
        )
        if obj.motion.model == "rotation":
            cx, cy = th[:2]
        else:
            # fourdof turns and scales about the sensor centre, as in the
            # solver's warp; flow2 reads no centre
            cx, cy = geometry.center
        rad = float(np.sqrt(((corners - [cx, cy]) ** 2).sum(axis=1)).max())
        if obj.motion.model == "flow2":
            fx = corners[:, 0] + t * th[0]
            fy = corners[:, 1] + t * th[1]
            lo_x, hi_x, lo_y, hi_y = fx.min(), fx.max(), fy.min(), fy.max()
        elif obj.motion.model == "rotation":
            lo_x, hi_x, lo_y, hi_y = cx - rad, cx + rad, cy - rad, cy + rad
        else:
            vx, vy, _, s = th
            rad *= float(np.exp(abs(s) * t))
            lo_x, hi_x = cx + t * vx - rad, cx + t * vx + rad
            lo_y, hi_y = cy + t * vy - rad, cy + t * vy + rad
        x0 = max(0, int(np.floor(lo_x)) - 2)
        x1 = min(geometry.width, int(np.ceil(hi_x)) + 3)
        y0 = max(0, int(np.floor(lo_y)) - 2)
        y1 = min(geometry.height, int(np.ceil(hi_y)) + 3)
        if x1 <= x0 or y1 <= y0:
            continue
        ys, xs = np.mgrid[y0:y1, x0:x1]
        wx, wy = warp_points(
            xs.ravel().astype(np.float64), ys.ravel().astype(np.float64),
            np.float64(t), obj.motion, 0.0, geometry.center,
        )
        lx = wx - r.x0
        ly = wy - r.y0
        inside = (lx >= -0.5) & (lx < r.width - 0.5) & (ly >= -0.5) & (ly < r.height - 0.5)
        if not inside.any():
            continue
        pat = Iwe(np.asarray(obj.pattern).astype(np.float64), ImageGeometry(r.width, r.height))
        vals = sample_local(pat, lx, ly)
        sub_l = level[y0:y1, x0:x1].ravel()
        sub_o = owner[y0:y1, x0:x1].ravel()
        sub_l[inside] = vals[inside]
        sub_o[inside] = i + 1
        level[y0:y1, x0:x1] = sub_l.reshape(y1 - y0, x1 - x0)
        owner[y0:y1, x0:x1] = sub_o.reshape(y1 - y0, x1 - x0)
    return level, owner


def textured(rng, height, width, low=0.1, high=0.7):
    return rng.uniform(low, high, (height, width))


def flow2_scene():
    """Two flow2 objects at one depth with fractional origins, one leaving
    the sensor to the left and one to the bottom right."""
    rng = np.random.default_rng(21)
    return [
        SceneObject(
            textured(rng, 9, 13), WarpParams("flow2", np.array([-180.0, 37.5])),
            Rect(6.3, 4.45, 13, 9),
        ),
        SceneObject(
            textured(rng, 11, 8), WarpParams("flow2", np.array([123.0, 211.0])),
            Rect(11.7, 8.2, 8, 11),
        ),
    ], ImageGeometry(40, 30)


def rotation_scene():
    """A spinning square whose box reaches past the sensor's corner, under
    a flow2 object that shares its depth."""
    rng = np.random.default_rng(22)
    return [
        SceneObject(
            textured(rng, 21, 21), WarpParams("rotation", np.array([9.0, 8.0, 17.0])),
            Rect(-1.0 + 0.5, 0.0, 21, 21),
        ),
        SceneObject(
            textured(rng, 6, 10), WarpParams("flow2", np.array([95.0, -20.0])),
            Rect(14.25, 12.6, 10, 6),
        ),
    ], ImageGeometry(36, 28)


def fourdof_scene():
    """exit_scene with a second fourdof object at the flow2 object's depth."""
    scene, geom = exit_scene()
    rng = np.random.default_rng(23)
    tie = SceneObject(
        textured(rng, 8, 9), WarpParams("fourdof", np.array([-60.0, -90.0, -3.0, -1.5])),
        Rect(40.6, 30.3, 9, 8), depth_order=1,
    )
    return scene + [tie], geom


SCENES = {"flow2": flow2_scene, "rotation": rotation_scene, "fourdof": fourdof_scene}


class TestRenderExactness:
    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_render_matches_the_per_frame_reference(self, name):
        scene, geom = SCENES[name]()
        for t in np.linspace(0.0, 0.1, 12):
            level, owner = render_scene(scene, geom, float(t))
            ref_level, ref_owner = reference_render(scene, geom, float(t))
            assert level.tobytes() == ref_level.tobytes()
            assert np.array_equal(owner, ref_owner)
        # every object shows at t = 0, and by the end the first one has
        # left the sensor, in part or in whole
        assert set(np.unique(render_scene(scene, geom, 0.0)[1])) == set(range(len(scene) + 1))
        first = scene[0].region
        assert render_scene(scene[:1], geom, 0.1)[1].sum() < first.width * first.height

    @pytest.mark.parametrize(
        "theta", [(0.0, 0.0, 3.0, 0.0), (40.0, -25.0, -4.0, 1.5)], ids=["spin", "spin-zoom-drift"]
    )
    def test_fourdof_object_is_drawn_whole_inside_its_box(self, monkeypatch, theta):
        # a box that misses part of the object leaves that part undrawn, so
        # the render must equal one that warps every sensor pixel
        geom = ImageGeometry(240, 180)
        pattern = textured(np.random.default_rng(24), 20, 20)
        obj = SceneObject(pattern, WarpParams("fourdof", np.array(theta)), Rect(150.0, 100.0, 20, 20))
        times = np.linspace(0.0, 0.1, 6)
        boxed = [render_scene([obj], geom, float(t)) for t in times]
        monkeypatch.setattr(
            simulate_module, "_forward_bound_box", lambda o, t, g: (0, g.width, 0, g.height)
        )
        for t, (level, owner) in zip(times, boxed):
            whole_level, whole_owner = render_scene([obj], geom, float(t))
            assert whole_owner.any()
            assert level.tobytes() == whole_level.tobytes()
            assert np.array_equal(owner, whole_owner)

    @pytest.mark.parametrize("name", sorted(SCENES))
    def test_frames_rendered_into_buffers_equal_fresh_frames(self, name):
        scene, geom = SCENES[name]()
        shape = (geom.height, geom.width)
        buffers = (np.full(shape, 9.5), np.full(shape, 7, dtype=np.int32))
        for t in np.linspace(0.0, 0.1, 10):
            level, owner = render_scene(scene, geom, float(t), out=buffers)
            assert level is buffers[0] and owner is buffers[1]
            fresh_level, fresh_owner = render_scene(scene, geom, float(t))
            assert level.tobytes() == fresh_level.tobytes()
            assert np.array_equal(owner, fresh_owner)

    @pytest.mark.parametrize(
        "out",
        [
            (np.zeros((28, 36)), np.zeros((28, 36), dtype=np.int64)),
            (np.zeros((28, 36), dtype=np.float32), np.zeros((28, 36), dtype=np.int32)),
            (np.zeros((36, 28)), np.zeros((36, 28), dtype=np.int32)),
        ],
    )
    def test_render_rejects_mismatched_buffers(self, out):
        scene, geom = rotation_scene()
        with pytest.raises(ValueError, match="out must be"):
            render_scene(scene, geom, 0.0, out=out)

    def test_object_keeps_its_own_copy_of_the_pattern(self):
        geom = ImageGeometry(24, 16)
        pattern = np.full((6, 8), 0.5)
        obj = SceneObject(pattern, WarpParams("flow2", np.array([30.0, 10.0])), Rect(3.5, 2.25, 8, 6))
        before = render_scene([obj], geom, 0.05)[0].copy()
        pattern[...] = -3.0
        assert render_scene([obj], geom, 0.05)[0].tobytes() == before.tobytes()
        assert obj.pattern.dtype == np.float64 and not obj.pattern.flags.writeable
        with pytest.raises(ValueError):
            obj.pattern[0, 0] = 1.0

    def test_integer_pattern_renders_as_its_float_copy(self):
        geom = ImageGeometry(24, 16)
        ints = np.arange(48).reshape(6, 8) % 3
        motion = WarpParams("rotation", np.array([9.0, 6.0, 4.0]))
        a = render_scene([SceneObject(ints, motion, Rect(5.0, 3.0, 8, 6))], geom, 0.07)
        b = render_scene([SceneObject(ints.astype(float), motion, Rect(5.0, 3.0, 8, 6))], geom, 0.07)
        assert a[0].tobytes() == b[0].tobytes()
