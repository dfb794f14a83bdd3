"""Acceptance gate: ten end-to-end criteria, one test (one pass/fail line
under ``pytest -v``) per criterion.

These run the full pipeline at benchmark scale, so the module takes tens of
seconds (44 s on a shared 2-vCPU Xeon VM); the fine-grained unit suites
live next to each module's tests.
"""
import time

import numpy as np
import pytest

from conftest import build_drift_packet
from test_simulate import dense_reference_counts, signed_counts, solid_object

from evseg.cli import main
from evseg.events import ImageGeometry, make_packet
from evseg.iwe import Iwe, accumulate_weighted, sample_local
from evseg.metrics import (
    accuracy_vs_displacement,
    compare_methods,
    detection_success,
    per_event_accuracy,
    throughput_benchmark,
)
from evseg.simulate import SimConfig, preset_fan_and_coin, simulate
from evseg.solver import (
    ClusterSet,
    SegmentationResult,
    SolverConfig,
    segment,
    update_associations,
)
from evseg.variants import (
    _column_table,
    component_likelihood,
    fuzzy_affinity,
    fuzzy_e_step,
    mixture_e_step,
)
from evseg.warps import (
    WarpParams,
    numeric_warp_jacobian,
    warp_points,
    zero_params,
)

DISPLACEMENTS = (4.0, 8.0)
VELOCITIES = (30.0, 60.0, 120.0)


@pytest.fixture(scope="module")
def curve_points():
    """One timed accuracy point per (relative velocity, displacement)."""
    points = {}
    for dv in VELOCITIES:
        for disp in DISPLACEMENTS:
            start = time.perf_counter()
            pts = accuracy_vs_displacement(
                [dv], 50.0, [disp / dv], sim_config=SimConfig(seed=7)
            )
            elapsed = time.perf_counter() - start
            assert len(pts) == 1
            points[(dv, disp)] = (pts[0], elapsed)
    return points


@pytest.fixture(scope="module")
def baseline_j2(standard_recording):
    result = segment(standard_recording.packet, 2, "flow2")
    report = per_event_accuracy(
        result.associations, standard_recording.labels, result.clusters.alive
    )
    return result, report


@pytest.fixture(scope="module")
def fan_coin_result(fan_coin_recording):
    result = segment(fan_coin_recording.packet, 2, ["rotation", "flow2"])
    report = per_event_accuracy(
        result.associations, fan_coin_recording.labels, result.clusters.alive
    )
    return result, report


def test_01_accuracy_reaches_gates_at_4_and_8_px(curve_points):
    for (dv, disp), (pt, elapsed) in curve_points.items():
        floor = 0.85 if disp == 4.0 else 0.90
        assert pt.accuracy >= floor, (
            f"dv={dv}: accuracy {pt.accuracy:.3f} at {disp} px below {floor}"
        )
        assert not pt.degenerate
        assert elapsed < 60.0, f"dv={dv}, {disp} px took {elapsed:.1f}s"


def test_02_accuracy_independent_of_relative_velocity(curve_points):
    for disp in DISPLACEMENTS:
        slow = curve_points[(30.0, disp)][0].accuracy
        fast = curve_points[(120.0, disp)][0].accuracy
        assert abs(slow - fast) <= 0.05, (
            f"{disp} px: 30 px/s scored {slow:.3f}, 120 px/s scored {fast:.3f}"
        )


def test_03_extra_clusters_die_without_hurting_accuracy(
    standard_recording, baseline_j2
):
    result = segment(standard_recording.packet, 6, "flow2")
    assert int(result.clusters.alive.sum()) == 2
    report = per_event_accuracy(
        result.associations, standard_recording.labels, result.clusters.alive
    )
    assert abs(report.accuracy - baseline_j2[1].accuracy) <= 0.03


def test_04_wrong_model_clusters_die_on_translational_scene(
    standard_recording, baseline_j2
):
    models = ["flow2", "flow2", "rotation", "rotation"]
    result = segment(standard_recording.packet, 4, models)
    alive = result.clusters.alive
    assert not alive[2] and not alive[3], "rotation clusters survived"
    report = per_event_accuracy(
        result.associations, standard_recording.labels, alive
    )
    assert abs(report.accuracy - baseline_j2[1].accuracy) <= 0.03


def test_05_fan_and_coin_parameters_within_ten_percent(
    fan_coin_recording, fan_coin_result
):
    result, report = fan_coin_result
    truth = fan_coin_recording.truth
    # matching maps the rotation cluster to the fan and flow2 to the coin
    rotation_j = next(j for j, lab in report.matching.items() if lab == 1)
    flow_j = next(j for j, lab in report.matching.items() if lab == 2)
    assert result.clusters.params[rotation_j].model == "rotation"
    assert result.clusters.params[flow_j].model == "flow2"
    omega_true = truth[1].theta[2]
    omega_hat = result.clusters.params[rotation_j].theta[2]
    assert abs(omega_hat - omega_true) / abs(omega_true) <= 0.10
    v_true = truth[2].theta
    v_hat = result.clusters.params[flow_j].theta
    assert np.linalg.norm(v_hat - v_true) / np.linalg.norm(v_true) <= 0.10


def test_06_layered_wins_comparison_and_all_methods_stagnate(standard_recording):
    out = compare_methods(
        standard_recording.packet,
        2,
        "flow2",
        labels=standard_recording.labels,
        iterations=40,
    )
    layered = out["layered"]["final_objective"]
    assert layered >= out["mixture"]["final_objective"]
    assert layered >= out["fuzzy"]["final_objective"]
    for name in ("layered", "mixture", "fuzzy"):
        trace = np.asarray(out[name]["objective_trace"])
        tail = trace[30:]
        gains = np.diff(tail) / np.abs(tail[:-1])
        assert gains.max() < 0.01, f"{name} still gaining {gains.max():.4f}/iter"


def test_07_throughput_decreases_with_cluster_count(standard_recording):
    points = throughput_benchmark(
        standard_recording.packet, [2, 5, 10, 20, 50], iterations=10, repeats=5
    )
    rates = {p.n_clusters: p.kev_per_s for p in points}
    for p in points:  # absolute numbers are hardware-bound: report, not gate
        print(f"J={p.n_clusters}: {p.kev_per_s:.1f} kev/s ({p.seconds:.3f} s)")
    ordered = [rates[j] for j in (2, 5, 10, 20, 50)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    assert rates[2] / rates[20] >= 4.0


def test_08_wall_time_linear_in_events_times_clusters(standard_recording):
    pk = standard_recording.packet
    # wide lever arm in N*J keeps the fit robust to timing noise and to the
    # fixed per-pixel smoothing cost that does not scale with N
    sizes = (15000, pk.n)
    cluster_counts = (2, 6)
    work, seconds = [], []
    throughput_benchmark(pk, [2], iterations=1, repeats=1)  # warm-up
    for n in sizes:
        sub = make_packet(
            pk.x[:n], pk.y[:n], pk.t[:n], pk.polarity[:n], pk.geometry, t_ref=pk.t_ref
        )
        for j in cluster_counts:
            # several repetitions per cell, folded to their median time
            pt = throughput_benchmark(sub, [j], iterations=5, repeats=5)[0]
            work.append(n * j)
            seconds.append(pt.seconds)
    work = np.asarray(work, dtype=float)
    seconds = np.asarray(seconds)
    slope, intercept = np.polyfit(work, seconds, 1)
    predicted = slope * work + intercept
    residual = ((seconds - predicted) ** 2).sum()
    total = ((seconds - seconds.mean()) ** 2).sum()
    r_squared = 1.0 - residual / total
    # the bound is a fit over host timings: report what it saw, as gate 07 does
    cells = [(n, j) for n in sizes for j in cluster_counts]
    for (n, j), cell_s in zip(cells, seconds):
        print(f"N={n} J={j}: {cell_s:.3f} s")
    print(f"R^2 {r_squared:.4f}")
    assert slope > 0
    assert r_squared > 0.95, f"R^2 {r_squared:.4f}"


def test_09_property_bundle(tmp_path, baseline_j2):
    rng = np.random.default_rng(23)
    config = SolverConfig()

    # association rows sum to one after an E-step, for all three methods
    packet, _ = build_drift_packet(((30.0, 0.0), (-24.0, 14.0)))
    clusters = ClusterSet(
        [
            WarpParams("flow2", np.array([26.0, 2.0])),
            WarpParams("flow2", np.array([-20.0, 11.0])),
        ],
        np.ones(2, dtype=bool),
    )
    uniform = np.full((packet.n, 2), 0.5)
    layered_p = update_associations(packet, clusters, uniform, config)
    assert np.abs(layered_p.sum(axis=1) - 1.0).max() < 1e-9
    likelihoods = _column_table(component_likelihood, packet, clusters, config)
    mix, _ = mixture_e_step(likelihoods, np.array([0.5, 0.5]), clusters.alive)
    assert np.abs(mix.sum(axis=1) - 1.0).max() < 1e-9
    affinities = _column_table(fuzzy_affinity, packet, clusters, config)
    fuz = fuzzy_e_step(affinities, 2.0, clusters.alive)
    assert np.abs(fuz.sum(axis=1) - 1.0).max() < 1e-9

    # warping to the reference time moves nothing at the reference time
    x = rng.uniform(0, 90, 400)
    y = rng.uniform(0, 60, 400)
    t = np.full(400, 0.05)
    for model, theta in (
        ("flow2", np.array([40.0, -25.0])),
        ("rotation", np.array([45.0, 30.0, 8.0])),
        ("fourdof", np.array([30.0, -10.0, 5.0, 0.7])),
    ):
        wx, wy = warp_points(x, y, t, WarpParams(model, theta), 0.05, (45.0, 30.0))
        np.testing.assert_allclose(wx, x, atol=1e-12)
        np.testing.assert_allclose(wy, y, atol=1e-12)

    # splatting and sampling are adjoint
    geom = ImageGeometry(48, 36)
    wx = rng.uniform(-1.0, 48.0, 700)
    wy = rng.uniform(-1.0, 36.0, 700)
    weights = rng.random(700)
    field = rng.standard_normal((36, 48))
    splat = accumulate_weighted(wx, wy, weights, geom)
    lhs = float((splat.pixels * field).sum())
    rhs = float((weights * sample_local(Iwe(field, geom), wx, wy)).sum())
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    # the layered objective never drops more than 1% in an iteration
    trace = baseline_j2[0].objective_trace
    rel = np.diff(trace) / np.abs(trace[:-1])
    assert rel.min() > -0.01

    # finite-difference warp sensitivity matches the analytic value
    jac = numeric_warp_jacobian(
        12.0, 7.0, 0.13, WarpParams("flow2", np.array([33.0, -11.0])), 0.03
    )
    np.testing.assert_allclose(jac, [[-0.1, 0.0], [0.0, -0.1]], atol=1e-10)

    # simulator counts equal the 10x-finer dense integrator exactly
    geom_s = ImageGeometry(40, 12)
    cfg = SimConfig(duration=0.34, seed=1)
    obj = solid_object(0.66)
    rec = simulate([obj], geom_s, cfg)
    pos, neg = signed_counts(rec, geom_s)
    ref_pos, ref_neg = dense_reference_counts(
        obj.region, (40.0, 0.0), 0.66, geom_s, cfg
    )
    assert np.array_equal(pos, ref_pos) and np.array_equal(neg, ref_neg)

    # a fixed seed reproduces every artifact byte for byte
    outputs = []
    for name in ("one", "two"):
        sim_out = tmp_path / name / "sim"
        seg_out = tmp_path / name / "seg"
        assert main(
            [
                "simulate", "--out", str(sim_out),
                "--delta-v", "60", "--base-v", "40",
                "--width", "120", "--height", "90",
                "--duration", "0.07", "--seed", "5",
            ]
        ) == 0
        assert main(
            [
                "segment", "--events", str(sim_out / "events.txt"),
                "--out", str(seg_out), "--j", "2", "--max-iters", "12",
            ]
        ) == 0
        outputs.append(
            tuple(
                (sim_out / f).read_bytes() for f in ("events.txt", "truth.txt")
            )
            + tuple(
                (seg_out / f).read_bytes()
                for f in ("assoc.csv", "params.csv", "segmentation.ppm")
            )
        )
    assert outputs[0] == outputs[1]


def test_10_detection_criterion(fan_coin_recording, fan_coin_result):
    # criterion arithmetic on crafted clusters
    rng = np.random.default_rng(6)
    geom = ImageGeometry(200, 150)
    n = 300

    def crafted(x, y):
        packet = make_packet(x, y, np.linspace(0, 0.1, n), np.ones(n), geom)
        result = SegmentationResult(
            clusters=ClusterSet([zero_params("flow2")], np.array([True])),
            associations=np.full((n, 1), 0.9),
            objective_trace=np.zeros(1),
            iterations=0,
            converged=True,
        )
        return result, packet

    blob_x = rng.uniform(20, 40, n)
    blob_y = rng.uniform(50, 70, n)
    filled, packet = crafted(blob_x, blob_y)
    assert detection_success(filled, packet, (20.0, 50.0, 20.0, 20.0))
    assert not detection_success(filled, packet, (120.0, 20.0, 20.0, 20.0))
    # covering the box plus an equal area outside it fails the second
    # clause; exact corner coordinates keep the tie deterministic
    wide, packet = crafted(np.linspace(20.0, 60.0, n), np.linspace(50.0, 70.0, n))
    assert not detection_success(wide, packet, (20.0, 50.0, 20.0, 20.0))

    # occluding coin over the rotating fan is detected at its swept box
    result, _ = fan_coin_result
    cfg = SimConfig(duration=0.12, seed=7)
    scene = preset_fan_and_coin(
        10.0, (70.0, 0.0), fan_coin_recording.packet.geometry, cfg
    )
    coin = scene[1].region
    travel = 70.0 * 0.12
    box = (coin.x0, coin.y0, coin.width + travel, coin.height)
    assert detection_success(result, fan_coin_recording.packet, box)
