"""Evaluation tests: matched accuracy scoring, displacement sweep geometry,
detection boxes, and benchmark plumbing."""
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evseg

from evseg.events import ImageGeometry, make_packet
from evseg.metrics import (
    AccuracyReport,
    BenchPoint,
    CurvePoint,
    ShapeMismatchError,
    accuracy_vs_displacement,
    compare_methods,
    detection_success,
    hard_assignments,
    per_event_accuracy,
    spans_for_displacements,
    throughput_benchmark,
)
from evseg.simulate import SimConfig
from evseg.solver import ClusterSet, SegmentationResult, build_count
from evseg.warps import WarpParams, zero_params


def one_hot(assigned, n_clusters):
    out = np.zeros((len(assigned), n_clusters))
    out[np.arange(len(assigned)), assigned] = 1.0
    return out


def best_matching_accuracy(associations, labels):
    """Brute force over every injective cluster-to-label mapping."""
    assigned = hard_assignments(associations)
    scored = labels > 0
    present = sorted(int(v) for v in np.unique(labels[scored]))
    n_clusters = associations.shape[1]
    padded = present + [None] * n_clusters
    best = 0
    for perm in itertools.permutations(padded, n_clusters):
        correct = 0
        for j, lab in enumerate(perm):
            if lab is not None:
                correct += int(((assigned == j) & scored & (labels == lab)).sum())
        best = max(best, correct)
    return best / max(1, int(scored.sum()))


class TestAccuracy:
    def test_hard_assignments_argmax_with_low_index_ties(self):
        a = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
        assert hard_assignments(a).tolist() == [1, 0, 0]

    def test_perfect_segmentation_scores_one(self):
        labels = np.array([1] * 5 + [2] * 7)
        assoc = one_hot([0] * 5 + [1] * 7, 2)
        report = per_event_accuracy(assoc, labels)
        assert report.accuracy == 1.0
        assert report.matching == {0: 1, 1: 2}
        assert report.n_scored == 12
        assert not report.degenerate

    def test_cluster_order_does_not_matter(self):
        labels = np.array([1] * 5 + [2] * 7)
        assoc = one_hot([1] * 5 + [0] * 7, 2)
        report = per_event_accuracy(assoc, labels)
        assert report.accuracy == 1.0
        assert report.matching == {0: 2, 1: 1}

    def test_noise_events_are_not_scored(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assoc = one_hot([1, 0, 0, 0, 1, 1], 2)
        report = per_event_accuracy(assoc, labels)
        assert report.n_scored == 4
        assert report.accuracy == 1.0

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ShapeMismatchError):
            per_event_accuracy(np.ones((4, 2)) / 2, np.array([1, 1, 2]))

    def test_all_noise_is_degenerate(self):
        report = per_event_accuracy(np.ones((3, 2)) / 2, np.zeros(3))
        assert report.accuracy == 0.0
        assert report.n_scored == 0
        assert report.degenerate

    def test_exhaustive_matching_beats_greedy_pairing(self):
        # overlap matrix [[10, 9], [9, 0]]: pairing the single largest
        # overlap first caps the total at 10, the optimal pairing gets 18
        assigned = [0] * 10 + [0] * 9 + [1] * 9
        labels = np.array([1] * 10 + [2] * 9 + [1] * 9)
        report = per_event_accuracy(one_hot(assigned, 2), labels)
        assert report.accuracy == pytest.approx(18 / 28)
        assert report.matching == {0: 2, 1: 1}

    def test_exhaustive_matching_is_optimal_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(12, 40))
            labels = rng.integers(0, 4, n)
            assoc = rng.random((n, 3))
            assoc /= assoc.sum(axis=1, keepdims=True)
            if not (labels > 0).any():
                continue
            report = per_event_accuracy(assoc, labels)
            assert report.accuracy == pytest.approx(
                best_matching_accuracy(assoc, labels)
            )

    def test_unmatched_present_label_flags_degenerate(self):
        labels = np.array([1] * 8 + [2] * 3)
        assoc = one_hot([0] * 11, 2)
        report = per_event_accuracy(assoc, labels)
        assert report.degenerate
        assert report.accuracy == pytest.approx(8 / 11)

    def test_dead_clusters_cannot_claim_labels(self):
        labels = np.array([1] * 6)
        assoc = one_hot([1] * 6, 2)
        alive = np.array([True, False])
        report = per_event_accuracy(assoc, labels, alive)
        assert report.accuracy == 0.0
        assert report.degenerate

    def test_matching_is_exact_beyond_ten_clusters(self):
        # cluster 0 holds 10 events of object 1 and 9 of object 2, cluster 1
        # holds 9 of object 1, clusters 2-10 one object-2 event each: pairing
        # the largest overlap first scores 11/37, the optimum 18/37
        assigned = [0] * 19 + [1] * 9 + list(range(2, 11))
        labels = np.array([1] * 10 + [2] * 9 + [1] * 9 + [2] * 9)
        report = per_event_accuracy(one_hot(assigned, 11), labels)
        assert report.accuracy == pytest.approx(18 / 37)
        assert report.matching == {0: 2, 1: 1}
        assert not report.degenerate

    def test_ties_prefer_matching_more_labels(self):
        # overlap [[2, 1], [1, 0]]: {0: 1} and {0: 2, 1: 1} both score 2
        assigned = [0, 0, 0, 1]
        labels = np.array([1, 1, 2, 1])
        report = per_event_accuracy(one_hot(assigned, 2), labels)
        assert report.accuracy == pytest.approx(2 / 4)
        assert report.matching == {0: 2, 1: 1}
        assert not report.degenerate

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the matcher is written in numpy because importing scipy.optimize
        # adds about 22 MB of resident memory to every process
        src = str(Path(evseg.__file__).resolve().parent.parent)
        code = "import sys, evseg; sys.exit(int('scipy.optimize' in sys.modules))"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_greedy_path_handles_many_clusters(self):
        n_clusters = 12
        assigned = list(range(n_clusters)) * 3
        labels = np.array([j + 1 for j in assigned])
        report = per_event_accuracy(one_hot(assigned, n_clusters), labels)
        assert report.accuracy == 1.0
        assert len(report.matching) == n_clusters


class TestDisplacementSweep:
    def test_spans_realise_requested_displacements(self):
        spans = spans_for_displacements([30.0, 60.0, 0.0], [4.0, 8.0])
        assert set(spans) == {30.0, 60.0}
        assert spans[30.0] == [4.0 / 30.0, 8.0 / 30.0]
        assert spans[60.0] == [4.0 / 60.0, 8.0 / 60.0]

    def test_curve_point_fields(self):
        geom = ImageGeometry(120, 90)
        pts = accuracy_vs_displacement(
            [60.0],
            40.0,
            [0.07],
            sim_config=SimConfig(seed=5),
            geometry=geom,
        )
        assert len(pts) == 1
        pt = pts[0]
        assert isinstance(pt, CurvePoint)
        assert pt.delta_v == 60.0
        assert pt.window_span == 0.07
        assert pt.displacement_px == pytest.approx(4.2)
        assert pt.n_events > 0
        assert not pt.degenerate
        assert pt.accuracy > 0.9

    def test_zero_relative_velocity_is_degenerate(self):
        geom = ImageGeometry(120, 90)
        pts = accuracy_vs_displacement(
            [0.0],
            40.0,
            {0.0: [0.03]},
            sim_config=SimConfig(seed=5),
            geometry=geom,
        )
        assert len(pts) == 1
        assert pts[0].degenerate
        assert pts[0].displacement_px == 0.0


def blob_result(x, y, confident=True, alive=True):
    n = x.size
    geom = ImageGeometry(200, 150)
    packet = make_packet(x, y, np.linspace(0, 0.1, n), np.ones(n), geom)
    level = 0.9 if confident else 0.4
    assoc = np.full((n, 1), level)
    clusters = ClusterSet([zero_params("flow2")], np.array([alive]))
    result = SegmentationResult(
        clusters=clusters,
        associations=assoc,
        objective_trace=np.zeros(1),
        iterations=0,
        converged=True,
    )
    return result, packet


class TestDetection:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.x = rng.uniform(10, 20, 400)
        self.y = rng.uniform(30, 40, 400)

    def test_tight_box_detected(self):
        result, packet = blob_result(self.x, self.y)
        assert detection_success(result, packet, (10.0, 30.0, 10.0, 10.0))

    def test_box_mostly_uncovered_fails(self):
        result, packet = blob_result(self.x, self.y)
        assert not detection_success(result, packet, (10.0, 30.0, 80.0, 80.0))

    def test_cluster_sprawling_outside_box_fails(self):
        rng = np.random.default_rng(3)
        result, packet = blob_result(
            rng.uniform(0, 199, 800), rng.uniform(0, 149, 800)
        )
        assert not detection_success(result, packet, (10.0, 30.0, 10.0, 10.0))

    def test_no_confident_events_fails(self):
        result, packet = blob_result(self.x, self.y, confident=False)
        assert not detection_success(result, packet, (10.0, 30.0, 10.0, 10.0))

    def test_dead_cluster_ignored(self):
        result, packet = blob_result(self.x, self.y, alive=False)
        assert not detection_success(result, packet, (10.0, 30.0, 10.0, 10.0))


class TestBenchmarks:
    def test_throughput_point_bookkeeping(self, mini_recording):
        packet = mini_recording.packet
        points = throughput_benchmark(packet, [1, 2], iterations=2, repeats=1)
        assert [p.n_clusters for p in points] == [1, 2]
        for p in points:
            assert isinstance(p, BenchPoint)
            assert p.seconds > 0
            assert p.n_events == packet.n
            assert p.iterations == 2
            assert p.kev_per_s == pytest.approx(
                packet.n * 2 / p.seconds / 1000.0
            )

    @pytest.mark.parametrize("j_values", [[0], [2, -1]])
    def test_throughput_rejects_fewer_than_one_cluster(self, mini_recording, j_values):
        with pytest.raises(ValueError, match="at least one cluster"):
            throughput_benchmark(mini_recording.packet, j_values, iterations=1, repeats=1)

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_throughput_rejects_fewer_than_one_repeat(self, mini_recording, repeats):
        # a median of no timings would be NaN
        with pytest.raises(ValueError, match=f"at least one repeat, got {repeats}"):
            throughput_benchmark(mini_recording.packet, [1], iterations=1, repeats=repeats)

    def test_compare_methods_checks_label_count_before_solving(self, mini_recording):
        # labels of another length would fail the accuracy score only after
        # greedy init and all three solves
        start = build_count()
        with pytest.raises(ShapeMismatchError, match="events vs 100 labels"):
            compare_methods(
                mini_recording.packet, 2, "flow2",
                labels=mini_recording.labels[:100], iterations=2,
            )
        assert build_count() == start

    def test_compare_methods_structure(self, mini_recording):
        packet = mini_recording.packet
        out = compare_methods(
            packet, 2, "flow2", labels=mini_recording.labels, iterations=6
        )
        assert set(out) >= {"layered", "mixture", "fuzzy", "init_warp_cost"}
        assert out["init_warp_cost"] > 0
        for name in ("layered", "mixture", "fuzzy"):
            entry = out[name]
            trace = entry["objective_trace"]
            assert len(trace) == 7  # initial value plus one entry per iteration
            assert entry["final_objective"] == pytest.approx(float(trace[-1]))
            counts = entry["warp_counts"]
            assert (np.diff(counts) > 0).all()
            assert 0.0 <= entry["accuracy"] <= 1.0
            assert entry["result"].associations.shape == (packet.n, 2)
        # all three maximise the same sharpness scale from the same start
        assert out["layered"]["objective_trace"][0] == pytest.approx(
            out["mixture"]["objective_trace"][0]
        )
