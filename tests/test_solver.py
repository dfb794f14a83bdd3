import sys
import threading

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import evseg.solver as solver
import evseg.variants as variants
from evseg.events import ImageGeometry, count_windows, make_packet
from evseg.iwe import accumulate_weighted, variance_contrast
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
from evseg.warps import WarpParams, warp_packet, zero_params

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


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["step_mu", "sigma", "collapse_frac"])
def test_config_rejects_non_finite_settings(name, value):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**{name: value})


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
    out, _ = ascend_motion(
        pk, clusters, np.ones((pk.n, 1)), SolverConfig(step_mu=0.0), np.zeros(1, dtype=bool)
    )
    np.testing.assert_array_equal(out.params[0].theta, [10.0, 5.0])


def test_ascend_improves_contrast(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=20)
    start = WarpParams("flow2", np.array([20.0, 6.0]))
    clusters = ClusterSet([start], np.ones(1, dtype=bool))
    w = np.ones((pk.n, 1))
    cfg = SolverConfig()
    before = cluster_contrast(pk, start, w[:, 0], cfg)
    stepped, _ = ascend_motion(pk, clusters, w, cfg, np.zeros(1, dtype=bool))
    after = cluster_contrast(pk, stepped.params[0], w[:, 0], cfg)
    assert after >= before
    for _ in range(20):
        clusters, _ = ascend_motion(pk, clusters, w, cfg, np.zeros(1, dtype=bool))
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
    out, _ = ascend_motion(pk, clusters, p, SolverConfig(), np.zeros(2, dtype=bool))
    assert out.params[1] is dead


def test_ascend_leaves_a_live_all_zero_column_where_it_is(drift_packet):
    # a column with no mass builds an empty image at every candidate, so
    # the search finds no gradient and the cluster settles where it stands
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=20)
    idle = WarpParams("flow2", np.array([50.0, 50.0]))
    clusters = ClusterSet([WarpParams("flow2", np.array([20.0, 0.0])), idle], np.ones(2, dtype=bool))
    p = np.zeros((pk.n, 2), order="F")
    p[:, 0] = 1.0
    settled = np.zeros(2, dtype=bool)
    out, kept = ascend_motion(pk, clusters, p, SolverConfig(), settled)
    assert out.params[1].theta.tobytes() == idle.theta.tobytes()
    assert settled[1] and kept[1][0] == 0.0


def record_line_searches(monkeypatch):
    """Patch the line search so each call appends ``(params, candidates)``:
    the params it starts from and every candidate it builds, the 2p
    differences first."""
    searches = []
    line_search = solver._line_search_step

    def recording(evaluate, params, *args, **kwargs):
        built = []

        def evaluate_and_record(candidate):
            built.append(candidate)
            return evaluate(candidate)

        searches.append((params, built))
        return line_search(evaluate_and_record, params, *args, **kwargs)

    monkeypatch.setattr(solver, "_line_search_step", recording)
    return searches


def largest_move(packet, params, candidate):
    """The farthest any event's warped position moves from params to
    candidate, in pixels."""
    x0, y0 = warp_packet(packet, params)
    x1, y1 = warp_packet(packet, candidate)
    return float(np.hypot(x1 - x0, y1 - y0).max())


@pytest.mark.parametrize(
    "params",
    [
        WarpParams("flow2", np.array([24.0, -6.0])),
        WarpParams("rotation", np.array([50.0, 34.0, 1.5])),
        WarpParams("fourdof", np.array([24.0, -6.0, 0.5, 0.3])),
    ],
    ids=lambda p: p.model,
)
@pytest.mark.parametrize("solve", [segment, segment_mixture], ids=["layered", "mixture"])
def test_m_step_differences_move_events_a_quarter_pixel(monkeypatch, drift_packet, params, solve):
    # under 512 events, so displacement_sensitivity sees every event.  The
    # warp is not linear in fourdof's zoom rate s: a difference h moves an
    # event by its linear estimate times (e^x - 1) / x or (1 - e^-x) / x,
    # x = h dt, so about x / 2 off it (0.6% here); the other parameters
    # move events within 1e-6 of their linear estimate
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=20, n_times=20)
    assert pk.n <= 512
    searches = record_line_searches(monkeypatch)
    init = (ClusterSet([params], np.ones(1, dtype=bool)), np.ones((pk.n, 1)))
    solve(pk, 1, params.model, SolverConfig(max_iters=1), init=init, early_stop=False)
    assert len(searches) == 1
    start, built = searches[0]
    assert start is params and len(built) >= 2 * params.param_count
    for candidate in built[: 2 * params.param_count]:
        moved = largest_move(pk, params, candidate)
        assert moved == pytest.approx(solver.FD_STEP_PX, rel=1e-2)


def test_one_patch_of_the_line_search_sees_every_back_end_and_greedy_init(
    monkeypatch, drift_packet
):
    # every M-step and greedy init's ascent call the line search solver
    # binds, so patching that one name records each of them
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=20, n_times=20)
    searches = record_line_searches(monkeypatch)
    init = (
        ClusterSet([WarpParams("flow2", np.array([26.0, 3.0]))], np.ones(1, dtype=bool)),
        np.ones((pk.n, 1)),
    )
    seen = []
    for solve in (segment, segment_mixture, segment_fuzzy):
        solve(pk, 1, "flow2", SolverConfig(max_iters=1), init=init, early_stop=False)
        seen.append(len(searches))
    initialize_greedy(pk, 1, "flow2")
    seen.append(len(searches))
    assert np.all(np.diff([0] + seen) >= 1), seen


def test_fuzzy_m_step_keeps_native_unit_differences(monkeypatch, drift_packet):
    # with pixel-unit differences both fuzzy clusters climb onto one motion
    # on the two-strip scene, so the fuzzy M-step differences every
    # parameter by FD_STEP in its own units, as greedy init does
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=20, n_times=20)
    params = WarpParams("fourdof", np.array([24.0, -6.0, 0.5, 0.3]))
    searches = record_line_searches(monkeypatch)
    init = (ClusterSet([params], np.ones(1, dtype=bool)), np.ones((pk.n, 1)))
    segment_fuzzy(pk, 1, "fourdof", SolverConfig(max_iters=1), init=init, early_stop=False)
    start, built = searches[0]
    assert start is params
    for i, candidate in enumerate(built[: 2 * params.param_count]):
        delta = np.zeros(params.param_count)
        delta[i // 2] = solver.FD_STEP if i % 2 == 0 else -solver.FD_STEP
        assert candidate.theta.tobytes() == (params.theta + delta).tobytes()


@pytest.mark.parametrize("solve", [segment, segment_fuzzy], ids=["layered", "fuzzy"])
def test_cluster_at_its_optimum_settles_without_candidates_below_the_floor(
    monkeypatch, drift_packet, solve
):
    # a run settles its cluster where a line search fails; restarted there,
    # one cluster (whose associations cannot change) fails the same search
    # in iteration 1, halving its step down to the floor and no further
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=20, n_times=20)
    start = ClusterSet([WarpParams("flow2", np.array([26.0, 3.0]))], np.ones(1, dtype=bool))
    first = solve(pk, 1, "flow2", init=(start, np.ones((pk.n, 1))))
    assert first.diagnostics["settled"][0] > 1
    searches = record_line_searches(monkeypatch)
    again = solve(pk, 1, "flow2", init=(first.clusters, first.associations))
    assert again.diagnostics["settled"].tolist() == [1]
    assert again.clusters.params[0].theta.tobytes() == first.clusters.params[0].theta.tobytes()
    params, built = searches[0]
    steps = [largest_move(pk, params, c) for c in built[2 * params.param_count :]]
    assert len(steps) <= solver.BACKTRACK_MAX
    assert all(step > solver.STEP_FLOOR_PX for step in steps)
    # the next halving would have moved no event by more than the floor.
    # The fuzzy search's first step there is already below it, so it builds
    # only its differences; without the floor the fuzzy run never settles
    assert min(steps, default=0.0) / 2 <= solver.STEP_FLOOR_PX
    assert (len(steps) > 0) == (solve is segment)


def test_ascend_keeps_each_image_and_skips_settled_clusters(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=20)
    cfg = SolverConfig()
    clusters = ClusterSet(
        [WarpParams("flow2", np.array([20.0, 0.0])) for _ in range(2)],
        np.ones(2, dtype=bool),
    )
    w = np.full((pk.n, 2), 0.5)
    settled = np.array([False, True])
    out, kept = ascend_motion(pk, clusters, w, cfg, settled)
    assert out.params[0].theta[0] > 20.0
    assert out.params[1] is clusters.params[1]
    np.testing.assert_array_equal(settled, [False, True])
    # each kept image is the one a fresh build gives at the returned params
    for j in range(2):
        contrast, img = kept[j]
        fresh = cluster_image(pk, out.params[j], w[:, j], cfg)
        np.testing.assert_array_equal(img.pixels, fresh.pixels)
        assert contrast == variance_contrast(fresh)


def test_kept_images_keep_their_bytes_across_later_builds(drift_packet):
    # a build's image is this thread's scratch, overwritten by its next
    # build; what the ascent keeps is a copy, one buffer per cluster that a
    # later ascent given the same dict fills again
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=20)
    cfg = SolverConfig()
    clusters = ClusterSet(
        [WarpParams("flow2", np.array([20.0, 0.0])) for _ in range(2)],
        np.ones(2, dtype=bool),
    )
    w = np.full((pk.n, 2), 0.5)
    settled = np.zeros(2, dtype=bool)
    out, kept = ascend_motion(pk, clusters, w, cfg, settled)
    saved = {j: img.pixels.tobytes() for j, (_, img) in kept.items()}
    first = cluster_image(pk, WarpParams("flow2", np.array([-40.0, 5.0])), w[:, 0], cfg)
    second = cluster_image(pk, WarpParams("flow2", np.array([55.0, 0.0])), w[:, 1], cfg)
    assert np.shares_memory(first.pixels, second.pixels)
    assert {j: img.pixels.tobytes() for j, (_, img) in kept.items()} == saved
    buffers = {j: img.pixels for j, (_, img) in kept.items()}
    _, again = ascend_motion(pk, out, w, cfg, settled, kept)
    assert again is kept
    assert all(again[j][1].pixels is buffers[j] for j in range(2))


def test_unblurred_build_is_no_scratch_view(drift_packet):
    # with sigma 0 the blur is the identity; the build must still hand back
    # an image that no later build overwrites
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=20)
    weights = np.ones(pk.n)
    params = WarpParams("flow2", np.array([30.0, 0.0]))
    img = cluster_image(pk, params, weights, SolverConfig(sigma=0.0))
    saved = img.pixels.tobytes()
    wx, wy = warp_packet(pk, params)
    np.testing.assert_array_equal(img.pixels, accumulate_weighted(wx, wy, weights, pk.geometry).pixels)
    for sigma in (0.0, 1.0):
        later = cluster_image(pk, zero_params("flow2"), weights, SolverConfig(sigma=sigma))
        assert not np.shares_memory(img.pixels, later.pixels)
    assert img.pixels.tobytes() == saved


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


@pytest.mark.parametrize("scan_events", [solver.INIT_SCAN_EVENTS, 500])
def test_greedy_init_keeps_its_output_when_builds_skip_zero_weights(
    monkeypatch, mini_recording, scan_events
):
    # at J = 3 the second cluster's search and claim mask face a residual
    # with zeros, the events the first cluster claimed; builds that deposit
    # only the weighted events must give the bytes of builds of every event.
    # The mini scene's 4,238 events all enter the coarse scan by default; at
    # 500 its subsample takes every 8th row, and dropping the zero-weight
    # rows must not draw other rows
    monkeypatch.setattr(solver, "INIT_SCAN_EVENTS", scan_events)
    pk = mini_recording.packet
    deposited = []
    accumulate = solver.accumulate_weighted

    def counting(wx, *args, **kwargs):
        deposited.append(np.size(wx))
        return accumulate(wx, *args, **kwargs)

    monkeypatch.setattr(solver, "accumulate_weighted", counting)
    clusters, assoc = initialize_greedy(pk, 3, "flow2")
    compact, deposited[:] = list(deposited), []
    monkeypatch.setattr(solver, "_weighted_events", lambda packet, weights: (packet, weights))
    every, every_assoc = initialize_greedy(pk, 3, "flow2")
    assert assoc.tobytes() == every_assoc.tobytes()
    assert [p.theta.tobytes() for p in clusters.params] == [
        p.theta.tobytes() for p in every.params
    ]
    assert len(compact) == len(deposited)
    assert sum(compact) < sum(deposited)


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


@pytest.mark.parametrize("model", ["flow2", "rotation", "fourdof"])
def test_single_timestamp_packet_is_skipped_cheaply(mini_recording, model):
    # no warp moves events that all sit at the reference time, so greedy
    # init gives up before building an image: such a window costs only itself
    pk = mini_recording.packet
    n = 2000
    still = make_packet(pk.x[:n], pk.y[:n], np.full(n, pk.t[0]), pk.polarity[:n], pk.geometry)
    before = build_count()
    with pytest.raises(DegenerateInitError):
        segment(still, 2, model, SolverConfig(max_iters=3))
    assert build_count() - before == 0


def test_static_packet_raises_within_a_few_builds():
    # 20k events that never move: the coarse scan's ascents are the whole
    # search, so giving up costs a few dozen builds, not hundreds
    pk, _ = build_drift_packet([(0.0, 0.0)], n_sources=400, n_times=50, seed=3,
                               geometry=ImageGeometry(240, 180))
    assert pk.n == 20000
    before = build_count()
    with pytest.raises(DegenerateInitError):
        initialize_greedy(pk, 2, "rotation")
    assert build_count() - before <= 64


def test_mini_two_strip_1005_second_cluster_not_misled():
    # the perfbench mini two_strip recording of seed 1005: the second
    # cluster's residual scores best near zero motion, and a spurious
    # contrast maximum away from it must not seed that cluster
    geometry = ImageGeometry(120, 90)
    config = SimConfig(duration=0.07, seed=1005)
    rec = simulate(preset_two_pebbles(60.0, 50.0, geometry, config), geometry, config)
    n = 4000
    assert rec.packet.n >= n
    pk = make_packet(rec.packet.x[:n], rec.packet.y[:n], rec.packet.t[:n],
                     rec.packet.polarity[:n], geometry, t_ref=rec.packet.t_ref)
    res = segment(pk, 2, "flow2")
    report = per_event_accuracy(res.associations, rec.labels[:n], res.clusters.alive)
    assert report.accuracy >= 0.99


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


@pytest.fixture(scope="module")
def dying_run(mini_recording):
    """Four clusters on the two-strip mini scene from a greedy start: two of
    them die."""
    init = initialize_greedy(mini_recording.packet, 4, "flow2")
    result = segment(mini_recording.packet, 4, "flow2", init=init)
    assert 0 < result.clusters.n_alive < 4
    return init, result


def test_trace_ends_at_the_objective_of_the_result(mini_recording, mini_result, dying_run):
    # the trace sums the contrasts the ascent kept; objective() rebuilds them
    for r in (mini_result, dying_run[1]):
        final = objective(mini_recording.packet, r.clusters, r.associations, SolverConfig())
        assert r.objective_trace[-1] == final


def replay_layered(packet, clusters, assoc, iterations):
    """A layered solve's phases run apart for ``iterations`` iterations,
    every image rebuilt.  Returns the final clusters, associations and
    settle mask, the summed-sharpness trace, and per iteration the number
    of clusters live in its ascent."""
    cfg = SolverConfig()
    settled = np.zeros(clusters.n_clusters, dtype=bool)
    trace = [objective(packet, clusters, assoc, cfg)]
    live = []
    for _ in range(iterations):
        assoc = update_associations(packet, clusters, assoc, cfg)
        clusters, assoc = apply_collapse(clusters, assoc, cfg)
        live.append(clusters.n_alive)
        clusters, _ = ascend_motion(packet, clusters, assoc, cfg, settled)
        trace.append(objective(packet, clusters, assoc, cfg))
    return clusters, assoc, settled, trace, live


def test_layered_step_equals_its_phases_run_apart(mini_recording, dying_run):
    # the same phases with every image rebuilt: reusing images changes no bit
    (clusters, assoc), result = dying_run
    clusters, assoc, settled, trace, _ = replay_layered(
        mini_recording.packet, clusters, assoc, result.iterations
    )
    np.testing.assert_array_equal(result.objective_trace, trace)
    np.testing.assert_array_equal(result.associations, assoc)
    np.testing.assert_array_equal(result.clusters.alive, clusters.alive)
    for a, b in zip(result.clusters.params, clusters.params):
        np.testing.assert_array_equal(a.theta, b.theta)
    np.testing.assert_array_equal(result.diagnostics["settled"] > 0, settled)


def test_layered_refreshes_build_no_image(monkeypatch, mini_recording):
    # the initial objective and then each ascent keep every live cluster's
    # image, so no association refresh of a layered solve builds one
    builds = []
    refresh = solver.update_associations

    def counted(*args, **kwargs):
        start = build_count()
        out = refresh(*args, **kwargs)
        builds.append(build_count() - start)
        return out

    monkeypatch.setattr(solver, "update_associations", counted)
    result = segment(mini_recording.packet, 3, "flow2", SolverConfig(max_iters=6))
    assert len(builds) == result.iterations and builds == [0] * result.iterations


def _record_warps(monkeypatch):
    """The motions of every warp a build or read makes from here on, in
    order: each goes through ``solver.warp_packet``."""
    warps = []
    warp = solver.warp_packet

    def counted(packet, params, *args, **kwargs):
        warps.append((params.model, params.theta.tobytes()))
        return warp(packet, params, *args, **kwargs)

    monkeypatch.setattr(solver, "warp_packet", counted)
    return warps


def _warps_per_call(monkeypatch, module, name, warps):
    """Wrap ``module.name`` to record how many warps each call makes."""
    per_call = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        start = len(warps)
        out = original(*args, **kwargs)
        per_call.append(len(warps) - start)
        return out

    monkeypatch.setattr(module, name, counted)
    return per_call


def _moving_start(drift_packet):
    """A drift packet of two motions and a given init near them, from which
    a solve takes steps that the line searches accept."""
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=15)
    clusters = ClusterSet(
        [WarpParams("flow2", np.array(t)) for t in ((26.0, 2.0), (-20.0, 11.0))],
        np.ones(2, dtype=bool),
    )
    return pk, (clusters, np.full((pk.n, 2), 0.5))


def _moved(result, init):
    """Whether every cluster of ``result`` ended away from its init motion."""
    pairs = zip(result.clusters.params, init[0].params)
    return all(not np.array_equal(p.theta, q.theta) for p, q in pairs)


def test_layered_solve_warps_no_current_motion_again(monkeypatch, drift_packet):
    # from the initial objective on, each live cluster's footprint at its
    # current motion is held: the association refreshes and each ascent's
    # first builds, all at current motions, warp nothing, and every motion
    # is warped once, the initial ones by the initial objective and the
    # others as line-search candidates
    pk, init = _moving_start(drift_packet)
    warps = _record_warps(monkeypatch)
    refreshes = _warps_per_call(monkeypatch, solver, "update_associations", warps)
    objectives = _warps_per_call(monkeypatch, solver, "objective", warps)
    firsts = []
    ascend, steps = solver.ascend_motion, solver._step_clusters

    def ascend_counted(*args, **kwargs):
        firsts.append(len(warps))
        return ascend(*args, **kwargs)

    def steps_counted(*args, **kwargs):
        # the step loop begins where the ascent's first builds end
        firsts[-1] = len(warps) - firsts[-1]
        return steps(*args, **kwargs)

    monkeypatch.setattr(solver, "ascend_motion", ascend_counted)
    monkeypatch.setattr(solver, "_step_clusters", steps_counted)
    result = segment(pk, 2, "flow2", SolverConfig(max_iters=8), init=init)
    assert objectives == [2]
    assert refreshes == [0] * result.iterations
    assert firsts == [0] * result.iterations
    assert len(warps) > 2 and len(set(warps)) == len(warps)
    assert _moved(result, init)


@pytest.mark.parametrize("solve", [segment_mixture, segment_fuzzy])
def test_variant_solve_warps_each_candidate_column_once(monkeypatch, drift_packet, solve):
    # a variant's first table reads the images the initial objective built
    # at the held current motions, and each summed-sharpness objective
    # builds at current motions too: none of them warps.  A candidate
    # column warps once, for its build, and its read, with the key of that
    # build, warps nothing
    pk, init = _moving_start(drift_packet)
    warps = _record_warps(monkeypatch)
    builds = _warps_per_call(monkeypatch, variants, "cluster_image", warps)
    reads = _warps_per_call(monkeypatch, variants, "_sample_warped", warps)
    objectives = _warps_per_call(monkeypatch, variants, "objective", warps)
    first_table = []
    table = variants._column_table

    def table_counted(*args, **kwargs):
        if not first_table:
            first_table.append(len(builds))
        return table(*args, **kwargs)

    monkeypatch.setattr(variants, "_column_table", table_counted)
    result = solve(pk, 2, "flow2", SolverConfig(max_iters=8), init=init)
    # the first table is the first two builds; every later build is a candidate
    assert first_table == [0] and builds[:2] == [0, 0]
    candidates = builds[2:]
    assert len(candidates) > 4 and candidates == [1] * len(candidates)
    assert reads == [0] * len(builds)
    assert objectives and objectives == [0] * len(objectives)
    assert _moved(result, init)


def test_settled_clusters_cost_one_build_each(mini_recording, mini_result, dying_run):
    # from the iteration the last live cluster settles in, each iteration
    # builds one image per cluster live in it, its sharpness at the new
    # associations; clusters may still die after that (dying_run's two
    # zero-motion clusters do), so the live count comes from a replay
    pk = mini_recording.packet
    for init, r in ((initialize_greedy(pk, 2, "flow2"), mini_result), dying_run):
        settled = r.diagnostics["settled"]
        assert settled.dtype == np.int64 and settled.shape == (r.clusters.n_clusters,)
        live = settled[r.clusters.alive]
        assert (live > 0).all()
        last = int(live.max())
        assert last < r.iterations
        clusters, _, _, trace, alive = replay_layered(pk, *init, r.iterations)
        np.testing.assert_array_equal(r.objective_trace, trace)
        np.testing.assert_array_equal(r.clusters.alive, clusters.alive)
        # steps[i] is the builds of iteration i + 2 (iterations count from 1)
        steps = np.diff(r.diagnostics["warp_counts"])
        np.testing.assert_array_equal(steps[last - 1 :], alive[last:])


def test_fixed_budget_spends_every_iteration_after_settling(mini_recording, mini_result):
    # restarted at a converged solve's motions and associations, every
    # cluster settles in iteration 1 and the hard labels hold from there;
    # only early_stop may end the run before its budget
    init = (mini_result.clusters, mini_result.associations)
    config = SolverConfig(max_iters=8)
    fixed = segment(mini_recording.packet, 2, "flow2", config, init=init, early_stop=False)
    assert (fixed.diagnostics["settled"] == 1).all()
    assert fixed.iterations == 8 and len(fixed.diagnostics["warp_counts"]) == 8
    assert fixed.diagnostics["stop"] == "budget" and not fixed.converged
    early = segment(mini_recording.packet, 2, "flow2", config, init=init)
    assert early.diagnostics["stop"] == "settled" and early.converged
    assert early.iterations == solver.CONVERGENCE_WINDOW
    for a, b in zip(early.clusters.params, fixed.clusters.params):
        assert a.theta.tobytes() == b.theta.tobytes()


@pytest.mark.parametrize(
    "solve", [segment, segment_mixture, segment_fuzzy], ids=["layered", "mixture", "fuzzy"]
)
def test_every_back_end_records_why_it_stopped(mini_recording, solve):
    init = initialize_greedy(mini_recording.packet, 2, "flow2")
    config = SolverConfig(max_iters=3)
    fixed = solve(mini_recording.packet, 2, "flow2", config, init=init, early_stop=False)
    assert fixed.diagnostics["stop"] == "budget" and not fixed.converged
    early = solve(mini_recording.packet, 2, "flow2", SolverConfig(), init=init)
    assert early.diagnostics["stop"] in ("settled", "stagnant")
    assert early.converged and early.iterations < SolverConfig().max_iters


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


@pytest.mark.parametrize("n_clusters", [0, -1])
@pytest.mark.parametrize(
    "solve", [segment, segment_mixture, segment_fuzzy, initialize_greedy],
    ids=["layered", "mixture", "fuzzy", "greedy"],
)
def test_fewer_than_one_cluster_rejected(mini_recording, solve, n_clusters):
    before = build_count()
    with pytest.raises(ValueError, match=f"at least one cluster, got {n_clusters}"):
        solve(mini_recording.packet, n_clusters, "flow2")
    assert build_count() == before


def result_bytes(result):
    """Every output array of a result (associations, liveness, traces,
    params and array diagnostics) as bytes in C order."""
    parts = [result.associations, result.clusters.alive, result.objective_trace]
    parts += [p.theta for p in result.clusters.params]
    parts += [v for v in result.diagnostics.values() if isinstance(v, np.ndarray)]
    return [np.ascontiguousarray(a).tobytes() for a in parts]


LAYOUTS = (np.ascontiguousarray, np.asfortranarray)


@pytest.mark.parametrize(
    "solve", [segment, segment_mixture, segment_fuzzy], ids=["layered", "mixture", "fuzzy"]
)
def test_init_table_layout_changes_no_output_byte(drift_packet, solve):
    packet, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=12)
    table = np.random.default_rng(5).random((packet.n, 3))
    table /= table.sum(axis=1, keepdims=True)
    starts = ((26.0, 2.0), (-20.0, 11.0), (0.0, 0.0))
    clusters = ClusterSet([WarpParams("flow2", np.array(v)) for v in starts], np.ones(3, dtype=bool))
    config = SolverConfig(max_iters=6)
    runs = [
        solve(packet, 3, "flow2", config, init=(clusters, layout(table)), early_stop=False)
        for layout in LAYOUTS
    ]
    for r in runs:
        assert r.associations.shape == (packet.n, 3)
        assert r.associations.flags.c_contiguous
    assert result_bytes(runs[0]) == result_bytes(runs[1])


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


def test_stream_warm_start_halves_iterations(monkeypatch):
    # window 1 pays for initialisation: a deliberately coarse greedy
    # (little polish, small steps) makes that cost visible, and the carried
    # parameters spare every later window from repeating it
    monkeypatch.setattr(solver, "STEP_CLAMP_PX", 0.5)
    monkeypatch.setattr(solver, "INIT_ASCEND_ITERS", 2)
    stream, _ = four_span_stream()
    results = [
        r for _, r in segment_stream(stream, 2, "flow2", window_events=3000, stride_events=3000)
    ]
    assert len(results) == count_windows(stream.n, 3000, 3000) == 4
    assert results[0].diagnostics["init"] == "greedy"
    for r in results[1:]:
        assert r.diagnostics["init"] == "given"
        assert r.iterations <= results[0].iterations // 2


def test_stream_warm_windows_ignore_init_table_layout():
    stream, _ = four_span_stream()
    config = SolverConfig(max_iters=6)
    inits = []

    def solve(window, n_clusters, models, config, init=None):
        inits.append(init)
        return segment(window, n_clusters, models, config, init=init)

    pairs = list(
        segment_stream(stream, 2, "flow2", config, window_events=4000, stride_events=2000,
                       solve=solve)
    )
    warm = [(w, r, init) for (w, r), init in zip(pairs, inits) if init is not None]
    assert len(warm) >= 2
    for window, result, (clusters, table) in warm:
        # the stream hands each warm window a column-major table
        assert table.flags.f_contiguous
        assert result.associations.shape == (window.n, 2)
        assert result.associations.flags.c_contiguous
        for layout in LAYOUTS:
            again = segment(window, 2, "flow2", config, init=(clusters, layout(table)))
            assert result_bytes(again) == result_bytes(result)


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
