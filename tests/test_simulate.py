"""Simulator tests: threshold counting against a dense-time reference
integrator, label bookkeeping, preset scene geometry, and reproducibility."""
import numpy as np
import pytest

from evseg.events import ImageGeometry
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
from evseg.warps import WarpParams

C = 0.2  # default contrast threshold used throughout


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
