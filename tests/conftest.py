"""Shared fixtures.

The simulated recordings are expensive relative to the assertions made on
them, so everything scene-like is session scoped and treated as read-only
by the tests.
"""

import threading

import numpy as np
import pytest
from hypothesis import settings

from evseg.events import ImageGeometry, make_packet
from evseg.simulate import SimConfig, preset_fan_and_coin, preset_two_pebbles, simulate
from evseg.solver import segment

# property tests draw the same examples on every run, and few enough of them
# that the suite's time stays flat
settings.register_profile("evseg", derandomize=True, max_examples=40, deadline=None, database=None)
settings.load_profile("evseg")


@pytest.fixture(scope="session")
def mini_recording():
    """Small two-strip scene: cheap enough for solver unit tests."""
    geometry = ImageGeometry(120, 90)
    config = SimConfig(duration=0.07, seed=5)
    scene = preset_two_pebbles(60.0, 40.0, geometry, config)
    return simulate(scene, geometry, config)


@pytest.fixture(scope="session")
def mini_result(mini_recording):
    return segment(mini_recording.packet, 2, "flow2")


@pytest.fixture(scope="session")
def standard_recording():
    """Two strips at 50 and 110 px/s on the full-size sensor."""
    geometry = ImageGeometry(240, 180)
    config = SimConfig(duration=0.12, seed=7)
    scene = preset_two_pebbles(60.0, 50.0, geometry, config)
    return simulate(scene, geometry, config)


@pytest.fixture(scope="session")
def balanced_recording():
    """Opposite equal-speed strips: equal event mass per motion, which is
    the regime where a dominant-motion shortcut would be punished."""
    geometry = ImageGeometry(200, 150)
    config = SimConfig(duration=0.08, seed=3)
    scene = preset_two_pebbles(100.0, -50.0, geometry, config)
    return simulate(scene, geometry, config)


@pytest.fixture(scope="session")
def fan_coin_recording():
    geometry = ImageGeometry(240, 180)
    config = SimConfig(duration=0.12, seed=7)
    scene = preset_fan_and_coin(10.0, (70.0, 0.0), geometry, config)
    return simulate(scene, geometry, config)


def build_drift_packet(velocities, n_sources=40, n_times=25, seed=11,
                       geometry=None, span=0.5):
    """Synthetic packet with exactly known structure, independent of the
    simulator: each cluster is a scatter of source points rigidly drifting
    at its velocity, sampled at random times.  Warping cluster k's events
    back with velocity k collapses them onto the sources.

    Returns (packet, labels); labels are 1-based like simulator output.
    """
    geometry = geometry or ImageGeometry(96, 72)
    rng = np.random.default_rng(seed)
    xs, ys, ts, ls = [], [], [], []
    for k, (vx, vy) in enumerate(velocities):
        # sources in the centre so +-20 px of travel stays in frame
        sx = rng.uniform(24.0, 60.0, n_sources)
        sy = rng.uniform(20.0, 50.0, n_sources)
        for _ in range(n_times):
            t = rng.uniform(0.0, span, n_sources)
            xs.append(sx + vx * t)
            ys.append(sy + vy * t)
            ts.append(t)
            ls.append(np.full(n_sources, k + 1))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    t = np.concatenate(ts)
    labels = np.concatenate(ls)
    order = np.argsort(t, kind="stable")
    pol = np.where(rng.random(t.size) < 0.5, -1, 1)
    packet = make_packet(x[order], y[order], t[order], pol[order],
                         geometry, t_ref=0.0)
    return packet, labels[order]


def motionless_prefix(packet, n=2000):
    """``packet`` after ``n`` copies of its first rows, all at its first
    timestamp: a window of them holds no motion at all."""
    return make_packet(
        np.concatenate([packet.x[:n], packet.x]),
        np.concatenate([packet.y[:n], packet.y]),
        np.concatenate([np.full(n, packet.t[0]), packet.t]),
        np.concatenate([packet.polarity[:n], packet.polarity]),
        packet.geometry,
    )


def in_fresh_thread(fn):
    """Run ``fn`` in a new thread, whose kernel scratch starts empty, and
    return what it returns or raise what it raises."""
    out = []

    def run():
        try:
            out.append((True, fn()))
        except BaseException as exc:
            out.append((False, exc))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(out) == 1
    returned, value = out[0]
    if not returned:
        raise value
    return value


@pytest.fixture
def drift_packet():
    return build_drift_packet
