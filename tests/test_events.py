from dataclasses import replace

import numpy as np
import pytest

from evseg.events import (
    EmptyPacketError,
    ImageGeometry,
    OutOfBoundsError,
    count_windows,
    make_packet,
    sliding_windows,
    subsample_stride,
    validate_packet,
    with_t_ref,
)


GEOM = ImageGeometry(32, 24)


def simple_packet(n=10, seed=0, geometry=GEOM):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 1.0, n))
    return make_packet(
        rng.uniform(0, geometry.width - 1, n),
        rng.uniform(0, geometry.height - 1, n),
        t,
        rng.choice([-1, 1], n),
        geometry,
    )


def test_geometry_basics():
    g = ImageGeometry(640, 480)
    assert g.n_pixels == 640 * 480
    assert g.center == (319.5, 239.5)
    with pytest.raises(ValueError):
        ImageGeometry(0, 10)


def test_geometry_contains_boundary():
    ok = GEOM.contains(np.array([0.0, 31.0, 31.0001, -0.0001]), np.zeros(4))
    assert ok.tolist() == [True, True, False, False]


def test_make_packet_coerces_and_defaults_t_ref():
    p = make_packet([1, 2], [3, 4], [0.5, 0.7], [1, -1], GEOM)
    assert p.x.dtype == np.float64 and p.t.dtype == np.float64
    assert p.t_ref == 0.5
    assert len(p) == 2


def test_make_packet_rejects_ragged_input():
    with pytest.raises(ValueError):
        make_packet([1, 2], [3], [0.1, 0.2], [1, 1], GEOM)


@pytest.mark.parametrize("strict", [True, False])
def test_validate_rejects_decreasing_time(strict):
    # every per-event output pairs with the caller's rows by position, so
    # rows out of time order are rejected, not sorted; equal times are fine
    p = make_packet([1, 2, 3, 4], [1, 1, 1, 1], [0.1, 0.3, 0.3, 0.2], [1, 1, -1, 1], GEOM)
    with pytest.raises(ValueError) as err:
        validate_packet(p, strict=strict)
    assert str(err.value) == (
        "event times must not decrease: row 3 is earlier than row 2 (rows counted from 0)"
    )


def test_validate_lenient_numbers_the_callers_rows():
    # row 1 (off the sensor, and earlier than row 0) and row 2 (NaN time)
    # are dropped first; of the kept rows, row 4 is earlier than row 3
    p = make_packet(
        [1, 99, 2, 3, 4, 5], [1, 1, 1, 1, 1, 1],
        [0.1, 0.0, np.nan, 0.4, 0.2, 0.2], [1, 1, 1, 1, 1, 1], GEOM,
    )
    with pytest.raises(ValueError, match="row 4 is earlier than row 3 "):
        validate_packet(p, strict=False)


def test_take_slice_shares_memory_and_mask_copies():
    p = replace(simple_packet(20), t_ref=0.5)
    view = p.take(slice(4, 12, 2))
    copy = p.take(p.x > 10.0)
    for name in ("x", "y", "t", "polarity"):
        assert np.shares_memory(getattr(view, name), getattr(p, name))
        assert not np.shares_memory(getattr(copy, name), getattr(p, name))
    np.testing.assert_array_equal(view.t, p.t[4:12:2])
    np.testing.assert_array_equal(copy.x, p.x[p.x > 10.0])
    for sub in (view, copy):
        assert sub.geometry == GEOM and sub.t_ref == 0.5


def test_validate_is_idempotent():
    p = make_packet([1, 5], [3, 2], [0.2, 0.9], [1, -1], GEOM, t_ref=5.0)
    once = validate_packet(p)
    twice = validate_packet(once)
    np.testing.assert_array_equal(once.x, twice.x)
    np.testing.assert_array_equal(once.t, twice.t)
    assert once.t_ref == twice.t_ref


def test_validate_clamps_t_ref_into_span():
    p = make_packet([1, 2], [1, 2], [0.2, 0.6], [1, 1], GEOM, t_ref=9.0)
    assert validate_packet(p).t_ref == 0.6
    p = make_packet([1, 2], [1, 2], [0.2, 0.6], [1, 1], GEOM, t_ref=-1.0)
    assert validate_packet(p).t_ref == 0.2


def test_validate_strict_raises_with_indices():
    p = make_packet([1, 99, 2, -3], [1, 1, 1, 1], [0.1, 0.2, 0.3, 0.4], [1, 1, 1, 1], GEOM)
    with pytest.raises(OutOfBoundsError) as err:
        validate_packet(p, strict=True)
    assert err.value.indices.tolist() == [1, 3]


def test_validate_lenient_drops_out_of_bounds():
    p = make_packet([1, 99, 2], [1, 1, 1], [0.1, 0.2, 0.3], [1, 1, 1], GEOM)
    v = validate_packet(p, strict=False)
    assert v.n == 2
    assert v.x.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_non_finite_timestamps(bad):
    p = make_packet([1, 2, 3, 4], [1, 1, 1, 1], [0.1, bad, 0.3, 0.4], [1, 1, 1, 1], GEOM)
    with pytest.raises(ValueError, match="first bad row 1"):
        validate_packet(p, strict=True)
    # lenient mode drops the row together with out-of-sensor rows
    p = make_packet([1, 2, 99, 4], [1, 1, 1, 1], [0.1, bad, 0.3, 0.4], [1, 1, 1, 1], GEOM)
    v = validate_packet(p, strict=False)
    assert v.x.tolist() == [1.0, 4.0]
    assert v.t.tolist() == [0.1, 0.4]


def test_validate_lenient_nan_first_time_keeps_t_ref_finite():
    # make_packet takes t_ref from the first row, here a NaN
    p = make_packet([1, 2, 3], [1, 1, 1], [np.nan, 0.2, 0.3], [1, 1, 1], GEOM)
    assert np.isnan(p.t_ref)
    assert validate_packet(p, strict=False).t_ref == 0.2


def test_validate_rejects_bad_polarity():
    p = make_packet([1], [1], [0.1], [0], GEOM)
    with pytest.raises(ValueError):
        validate_packet(p)


def test_validate_empty_raises():
    p = make_packet([], [], [], [], GEOM)
    with pytest.raises(EmptyPacketError):
        validate_packet(p)


def test_with_t_ref_modes():
    p = make_packet([1, 1, 1], [1, 1, 1], [0.2, 0.5, 1.0], [1, 1, 1], GEOM)
    assert with_t_ref(p, "first").t_ref == 0.2
    assert with_t_ref(p, "midpoint").t_ref == pytest.approx(0.6)
    with pytest.raises(ValueError):
        with_t_ref(p, "last")


def test_windows_100_events_window_40_stride_20():
    p = simple_packet(100)
    wins = list(sliding_windows(p, 40, 20))
    starts = [float(w.t[0]) for w in wins]
    assert len(wins) == 4
    assert starts == [float(p.t[i]) for i in (0, 20, 40, 60)]
    assert all(w.n == 40 for w in wins)
    assert count_windows(100, 40, 20) == 4


def test_windows_default_stride_is_half():
    p = simple_packet(100)
    assert len(list(sliding_windows(p, 40))) == count_windows(100, 40)
    assert count_windows(100, 40) == count_windows(100, 40, 20)


def test_windows_exact_fit_and_too_small():
    p = simple_packet(40)
    assert len(list(sliding_windows(p, 40, 20))) == 1
    assert count_windows(40, 40, 20) == 1
    assert len(list(sliding_windows(p, 41, 20))) == 0
    assert count_windows(39, 40, 20) == 0


def test_windows_reject_bad_sizes():
    # count_windows refuses exactly what sliding_windows refuses
    p = simple_packet(100)
    for window, stride in [(0, None), (-4, 3), (5, 0), (10, -2)]:
        with pytest.raises(ValueError):
            list(sliding_windows(p, window, stride))
        with pytest.raises(ValueError):
            count_windows(100, window, stride)


def test_windows_apply_t_ref_mode():
    p = simple_packet(60)
    for w in sliding_windows(p, 20, 10, t_ref_mode="midpoint"):
        assert w.t_ref == pytest.approx(0.5 * float(w.t[0] + w.t[-1]))


def test_subsample_indices_stride():
    for n, max_points in [(0, 5), (4, 5), (9, 5), (10, 5), (19, 5), (44372, 512)]:
        idx = np.arange(n)[:: subsample_stride(n, max_points)]
        assert idx.tolist() == list(range(0, n, max(1, n // max_points)))
        if n < 2 * max_points:
            assert idx.size == n
        else:
            assert max_points <= idx.size < 2 * max_points
