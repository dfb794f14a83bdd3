import sys
import threading

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from evseg.events import ImageGeometry, count_windows, make_packet
from evseg.metrics import per_event_accuracy
from evseg.simulate import Rect, SceneObject, SimConfig, preset_two_pebbles, simulate
from evseg.solver import (
    ClusterSet,
    DegenerateInitError,
    SolverConfig,
    apply_collapse,
    ascend_motion,
    build_count,
    cluster_contrast,
    cluster_image,
    initialize_greedy,
    maximize_single_cluster,
    objective,
    segment,
    segment_stream,
    update_associations,
)
from evseg.variants import segment_fuzzy, segment_mixture
from evseg.warps import WarpParams, zero_params

from conftest import build_drift_packet, motionless_prefix


def contrast_oracle(packet, vx, vy, sigma=1.0):
    """Sharpness of a constant-velocity warp, built from scratch: plain
    np.add.at splatting and scipy blurring, no package accumulation code."""
    dt = packet.t - packet.t_ref
    wx = packet.x - dt * vx
    wy = packet.y - dt * vy
    w, h = packet.geometry.width, packet.geometry.height
    img = np.zeros((h, w))
    x0 = np.floor(wx).astype(int)
    y0 = np.floor(wy).astype(int)
    ax, ay = wx - x0, wy - y0
    for dx, dy, cw in (
        (0, 0, (1 - ax) * (1 - ay)),
        (1, 0, ax * (1 - ay)),
        (0, 1, (1 - ax) * ay),
        (1, 1, ax * ay),
    ):
        xc, yc = x0 + dx, y0 + dy
        ok = (xc >= 0) & (xc < w) & (yc >= 0) & (yc < h)
        np.add.at(img, (yc[ok], xc[ok]), cw[ok])
    if sigma > 0:
        img = gaussian_filter(img, sigma, mode="constant", radius=int(np.ceil(3 * sigma)))
    return float(img.var())


def grid_search_oracle(packet, bound=40.0, step=2.0):
    best, best_val = (0.0, 0.0), -1.0
    for vx in np.arange(-bound, bound + step / 2, step):
        for vy in np.arange(-bound, bound + step / 2, step):
            c = contrast_oracle(packet, vx, vy)
            if c > best_val:
                best, best_val = (vx, vy), c
    return np.array(best)


def single_strip_recording(vx=60.0, vy=0.0, seed=9):
    rng = np.random.default_rng(seed)
    geom = ImageGeometry(120, 90)
    pattern = np.kron((rng.random((10, 20)) < 0.5).astype(float), np.ones((4, 4))) * 0.45
    scene = [SceneObject(pattern, WarpParams("flow2", np.array([vx, vy])), Rect(10, 24, 80, 40))]
    return simulate(scene, geom, SimConfig(duration=0.1, seed=2))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=1.5)
    with pytest.raises(ValueError):
        SolverConfig(collapse_frac=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(sigma=-0.5)


def test_e_step_single_cluster_all_ones(drift_packet):
    pk, _ = drift_packet([(20.0, 0.0)], n_sources=20, n_times=10)
    clusters = ClusterSet([zero_params("flow2")], np.ones(1, dtype=bool))
    p = update_associations(pk, clusters, np.ones((pk.n, 1)), SolverConfig())
    np.testing.assert_array_equal(p, np.ones((pk.n, 1)))


def test_e_step_identical_clusters_split_evenly(drift_packet):
    pk, _ = drift_packet([(20.0, 0.0)], n_sources=20, n_times=10)
    prm = WarpParams("flow2", np.array([5.0, 1.0]))
    clusters = ClusterSet([prm, prm], np.ones(2, dtype=bool))
    p0 = np.full((pk.n, 2), 0.5)
    p = update_associations(pk, clusters, p0, SolverConfig())
    np.testing.assert_array_equal(p, p0)


def test_e_step_rows_sum_to_one(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=25, n_times=20)
    rng = np.random.default_rng(7)
    raw = rng.random((pk.n, 3))
    p0 = raw / raw.sum(axis=1, keepdims=True)
    clusters = ClusterSet(
        [WarpParams("flow2", rng.uniform(-30, 30, 2)) for _ in range(3)],
        np.ones(3, dtype=bool),
    )
    p = update_associations(pk, clusters, p0, SolverConfig())
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert (p >= 0).all()


def test_e_step_dead_column_stays_zero(drift_packet):
    pk, _ = drift_packet([(20.0, 0.0)], n_sources=20, n_times=10)
    clusters = ClusterSet(
        [zero_params("flow2"), zero_params("flow2")],
        np.array([True, False]),
    )
    p = update_associations(pk, clusters, np.full((pk.n, 2), 0.5), SolverConfig())
    assert (p[:, 1] == 0.0).all()
    np.testing.assert_allclose(p[:, 0], 1.0, atol=1e-12)


def test_e_step_pulls_events_to_their_motion(drift_packet):
    pk, labels = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=25, n_times=30)
    clusters = ClusterSet(
        [WarpParams("flow2", np.array([30.0, 0.0])), WarpParams("flow2", np.array([-24.0, 14.0]))],
        np.ones(2, dtype=bool),
    )
    p = np.full((pk.n, 2), 0.5)
    for _ in range(3):
        p = update_associations(pk, clusters, p, SolverConfig())
    own = np.where(labels == 1, p[:, 0], p[:, 1])
    assert own.mean() > 0.8


def test_e_step_all_out_of_frame_goes_uniform():
    geom = ImageGeometry(32, 32)
    pk = make_packet([16.0], [16.0], [1.0], [1], geom, t_ref=0.0)
    fast = WarpParams("flow2", np.array([1e5, 0.0]))
    clusters = ClusterSet([fast, fast], np.ones(2, dtype=bool))
    p = update_associations(pk, clusters, np.full((1, 2), 0.5), SolverConfig())
    np.testing.assert_allclose(p, [[0.5, 0.5]])


def test_ascend_zero_step_moves_nothing(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=20)
    clusters = ClusterSet([WarpParams("flow2", np.array([10.0, 5.0]))], np.ones(1, dtype=bool))
    out = ascend_motion(pk, clusters, np.ones((pk.n, 1)), SolverConfig(step_mu=0.0))
    np.testing.assert_array_equal(out.params[0].theta, [10.0, 5.0])


def test_ascend_improves_contrast(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=20)
    start = WarpParams("flow2", np.array([20.0, 6.0]))
    clusters = ClusterSet([start], np.ones(1, dtype=bool))
    w = np.ones((pk.n, 1))
    cfg = SolverConfig()
    before = cluster_contrast(pk, start, w[:, 0], cfg)
    stepped = ascend_motion(pk, clusters, w, cfg)
    after = cluster_contrast(pk, stepped.params[0], w[:, 0], cfg)
    assert after >= before
    for _ in range(20):
        clusters = ascend_motion(pk, clusters, w, cfg)
    final = clusters.params[0].theta
    assert np.linalg.norm(final - [30.0, 0.0]) < 3.0


def test_ascend_leaves_dead_clusters_alone(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=20)
    dead = WarpParams("flow2", np.array([50.0, 50.0]))
    clusters = ClusterSet(
        [WarpParams("flow2", np.array([20.0, 0.0])), dead],
        np.array([True, False]),
    )
    p = np.zeros((pk.n, 2))
    p[:, 0] = 1.0
    out = ascend_motion(pk, clusters, p, SolverConfig())
    assert out.params[1] is dead


def test_objective_invariant_under_relabeling(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=25, n_times=20)
    rng = np.random.default_rng(3)
    raw = rng.random((pk.n, 2))
    p = raw / raw.sum(axis=1, keepdims=True)
    a = WarpParams("flow2", np.array([28.0, 1.0]))
    b = WarpParams("flow2", np.array([-22.0, 12.0]))
    cfg = SolverConfig()
    f_ab = objective(pk, ClusterSet([a, b], np.ones(2, dtype=bool)), p, cfg)
    f_ba = objective(pk, ClusterSet([b, a], np.ones(2, dtype=bool)), p[:, ::-1], cfg)
    assert f_ab == f_ba


def test_collapse_kills_light_cluster_and_renormalises():
    n = 100
    p = np.zeros((n, 3))
    p[:, 0] = 0.5
    p[:, 1] = 0.5
    p[0] = [0.35, 0.35, 0.30]
    clusters = ClusterSet([zero_params("flow2")] * 3, np.ones(3, dtype=bool))
    out_c, out_p = apply_collapse(clusters, p, SolverConfig())
    # third cluster holds 0.3 of 100 events: below 0.02 * 100 / 3
    assert out_c.alive.tolist() == [True, True, False]
    assert (out_p[:, 2] == 0.0).all()
    np.testing.assert_allclose(out_p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out_p[0], [0.5, 0.5, 0.0])


def test_collapse_keeps_heaviest_cluster_as_last_resort():
    # unnormalised, everything below threshold: the heavier column survives
    p = np.full((100, 2), 1e-6)
    p[:, 1] *= 2
    clusters = ClusterSet([zero_params("flow2")] * 2, np.ones(2, dtype=bool))
    out_c, out_p = apply_collapse(clusters, p, SolverConfig())
    assert out_c.alive.tolist() == [False, True]
    np.testing.assert_allclose(out_p.sum(axis=1), 1.0, atol=1e-12)


def test_collapse_no_change_when_all_heavy():
    p = np.full((60, 2), 0.5)
    clusters = ClusterSet([zero_params("flow2")] * 2, np.ones(2, dtype=bool))
    out_c, out_p = apply_collapse(clusters, p, SolverConfig())
    assert out_c.alive.all()
    assert out_p is p


def test_single_cluster_maximization_matches_grid_search(drift_packet):
    pk, _ = drift_packet([(28.0, -12.0)], n_sources=40, n_times=50, seed=13)
    found = maximize_single_cluster(pk, "flow2", np.ones(pk.n), SolverConfig())
    best = grid_search_oracle(pk, bound=40.0, step=2.0)
    # ascent must land within one oracle grid cell of the global optimum
    assert np.linalg.norm(found.theta - best) <= 2.0 * np.sqrt(2.0)


def test_greedy_two_motions_within_30_percent(mini_recording):
    truth = {k: v.theta for k, v in mini_recording.truth.items()}
    clusters, p = initialize_greedy(mini_recording.packet, 2, "flow2")
    speeds = sorted(float(np.linalg.norm(c.theta)) for c in clusters.params)
    expect = sorted(float(np.linalg.norm(v)) for v in truth.values())
    for got, want in zip(speeds, expect):
        assert abs(got - want) / want < 0.30
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_greedy_single_object_starves_second_cluster():
    rec = single_strip_recording()
    clusters, p = initialize_greedy(rec.packet, 2, "flow2")
    # events the first cluster failed to claim fall through to the last
    # cluster's strong share; they must be under 10% of the packet
    unclaimed = float((p[:, 1] > 0.5).mean())
    assert unclaimed < 0.10


def test_greedy_raises_on_motionless_packet():
    geom = ImageGeometry(32, 32)
    rng = np.random.default_rng(0)
    n = 200
    pk = make_packet(
        rng.uniform(4, 28, n), rng.uniform(4, 28, n), np.full(n, 0.5),
        np.ones(n, dtype=int), geom, t_ref=0.5,
    )
    with pytest.raises(DegenerateInitError):
        initialize_greedy(pk, 1, "flow2")


def test_segment_single_cluster_velocity_within_5_percent():
    rec = single_strip_recording(vx=60.0)
    res = segment(rec.packet, 1, "flow2")
    assert res.clusters.n_alive == 1
    v = res.clusters.params[0].theta
    assert abs(v[0] - 60.0) / 60.0 < 0.05
    assert abs(v[1]) < 3.0
    assert (res.associations == 1.0).all()


def test_segment_recovers_two_motions(mini_recording, mini_result):
    report = per_event_accuracy(
        mini_result.associations, mini_recording.labels, mini_result.clusters.alive
    )
    assert report.accuracy > 0.95
    assert not report.degenerate


def test_segment_result_invariants(mini_result):
    p = mini_result.associations
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert (p >= 0.0).all()
    dead = ~mini_result.clusters.alive
    assert (p[:, dead] == 0.0).all()
    trace = mini_result.objective_trace
    assert trace.shape == (mini_result.iterations + 1,)
    assert mini_result.converged
    # per-iteration losses, if any, stay under 1%
    drops = np.diff(trace) / np.maximum(np.abs(trace[:-1]), 1e-12)
    assert drops.min() > -0.01
    counts = mini_result.diagnostics["warp_counts"]
    assert len(counts) == mini_result.iterations
    assert (np.diff(counts) > 0).all()


def test_build_count_counts_cluster_images(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=10, n_times=10)
    start = build_count()
    cluster_image(pk, WarpParams("flow2", np.array([30.0, 0.0])), np.ones(pk.n), SolverConfig())
    cluster_contrast(pk, zero_params("flow2"), np.ones(pk.n), SolverConfig())
    assert build_count() - start == 2


def test_build_counts_stay_per_thread():
    # two solves interleaved at a very short switch interval must each
    # count only their own builds
    geometry = ImageGeometry(60, 45)
    sim = SimConfig(duration=0.07, seed=5)
    packet = simulate(preset_two_pebbles(60.0, 40.0, geometry, sim), geometry, sim).packet
    cfg = SolverConfig(max_iters=4)
    serial = segment(packet, 2, "flow2", cfg).diagnostics["warp_counts"]
    counts = [None, None]

    def run(i):
        counts[i] = segment(packet, 2, "flow2", cfg).diagnostics["warp_counts"]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    finally:
        sys.setswitchinterval(interval)
    for c in counts:
        np.testing.assert_array_equal(c, serial)


def test_segment_is_deterministic(mini_recording, mini_result):
    again = segment(mini_recording.packet, 2, "flow2")
    np.testing.assert_array_equal(again.associations, mini_result.associations)
    np.testing.assert_array_equal(again.objective_trace, mini_result.objective_trace)
    for a, b in zip(again.clusters.params, mini_result.clusters.params):
        np.testing.assert_array_equal(a.theta, b.theta)


def test_segment_accepts_explicit_init(mini_recording, mini_result):
    init = initialize_greedy(mini_recording.packet, 2, "flow2")
    res = segment(mini_recording.packet, 2, "flow2", init=init)
    assert res.diagnostics["init"] == "given"
    np.testing.assert_array_equal(res.objective_trace, mini_result.objective_trace)


@pytest.mark.parametrize(
    "solve", [segment, segment_mixture, segment_fuzzy], ids=["layered", "mixture", "fuzzy"]
)
def test_segment_checks_init_shapes(mini_recording, solve):
    clusters = ClusterSet([zero_params("flow2")], np.ones(1, dtype=bool))
    bad = np.ones((5, 1))
    with pytest.raises(ValueError):
        solve(mini_recording.packet, 1, "flow2", init=(clusters, bad))
    # a three-cluster init for a two-cluster run
    three = ClusterSet([zero_params("flow2")] * 3, np.ones(3, dtype=bool))
    uniform = np.full((mini_recording.packet.n, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        solve(mini_recording.packet, 2, "flow2", init=(three, uniform))


def test_segment_model_list_mismatch(mini_recording):
    with pytest.raises(ValueError):
        segment(mini_recording.packet, 3, ["flow2", "rotation"])


def four_span_stream():
    """Four spans of the same two constant motions, fresh textures each."""
    parts = []
    for k in range(4):
        pk, lab = build_drift_packet(
            [(30.0, 0.0), (-24.0, 14.0)], n_sources=30, n_times=50, seed=20 + k
        )
        parts.append((pk.x, pk.y, pk.t + 0.5 * k, pk.polarity, lab))
    x = np.concatenate([s[0] for s in parts])
    y = np.concatenate([s[1] for s in parts])
    t = np.concatenate([s[2] for s in parts])
    p = np.concatenate([s[3] for s in parts])
    labels = np.concatenate([s[4] for s in parts])
    geom = ImageGeometry(96, 72)
    return make_packet(x, y, t, p, geom, t_ref=0.0), labels


def test_stream_warm_start_halves_iterations():
    # window 1 pays for initialisation: a deliberately coarse greedy
    # (little polish, small steps) makes that cost visible, and the carried
    # parameters spare every later window from repeating it
    stream, _ = four_span_stream()
    cfg = SolverConfig(step_clamp_px=0.5, init_ascend_iters=2)
    results = [
        r for _, r in segment_stream(stream, 2, "flow2", cfg, window_events=3000, stride_events=3000)
    ]
    assert len(results) == count_windows(stream.n, 3000, 3000) == 4
    assert results[0].diagnostics["init"] == "greedy"
    for r in results[1:]:
        assert r.diagnostics["init"] == "given"
        assert r.iterations <= results[0].iterations // 2


def test_stream_shorter_than_window_is_empty():
    pk, _ = build_drift_packet([(10.0, 0.0)], n_sources=10, n_times=10)
    assert list(segment_stream(pk, 2, "flow2", window_events=pk.n + 1)) == []


def test_stream_falls_back_on_abrupt_velocity_change():
    a, _ = build_drift_packet([(30.0, 0.0)], n_sources=30, n_times=60, seed=31)
    b, _ = build_drift_packet([(-30.0, 0.0)], n_sources=30, n_times=60, seed=32)
    geom = ImageGeometry(96, 72)
    stream = make_packet(
        np.concatenate([a.x, b.x]),
        np.concatenate([a.y, b.y]),
        np.concatenate([a.t, b.t + 0.6]),
        np.concatenate([a.polarity, b.polarity]),
        geom,
        t_ref=0.0,
    )
    n = a.n
    results = [
        r for _, r in segment_stream(stream, 1, "flow2", window_events=n, stride_events=n)
    ]
    assert len(results) == 2
    assert results[0].diagnostics["init"] == "greedy"
    # reversed motion: carried velocity scores worse than standing still
    assert results[1].diagnostics["init"] == "greedy"
    assert results[1].clusters.params[0].theta[0] < 0

    # the fallback window must match a cold-start run on the same packet
    second = [w for w, _ in segment_stream(stream, 1, "flow2", window_events=n, stride_events=n)][1]
    cold = segment(second, 1, "flow2")
    np.testing.assert_array_equal(results[1].clusters.params[0].theta, cold.clusters.params[0].theta)


def test_stream_skips_a_motionless_window(mini_recording):
    stream = motionless_prefix(mini_recording.packet)
    cfg = SolverConfig(max_iters=8)
    pairs = list(segment_stream(stream, 2, "flow2", cfg, window_events=2000, stride_events=2000))
    assert len(pairs) == 3
    assert pairs[0][1] is None
    # nothing carries over from a skipped window: the next one starts cold
    window, result = pairs[1]
    assert result.diagnostics["init"] == "greedy"
    cold = segment(window, 2, "flow2", cfg)
    np.testing.assert_array_equal(result.associations, cold.associations)
    np.testing.assert_array_equal(result.objective_trace, cold.objective_trace)
    assert pairs[2][1].diagnostics["init"] == "given"
