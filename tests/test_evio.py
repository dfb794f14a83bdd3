"""I/O tests: text event files, ground truth, CSV outputs, image formats,
and run-configuration parsing."""
import numpy as np
import pytest

from evseg.events import ImageGeometry, make_packet
from evseg.evio import (
    MissingGeometryError,
    ParseError,
    RunConfig,
    cluster_palette,
    read_associations_csv,
    read_config_file,
    read_events_text,
    read_ground_truth,
    render_segmentation,
    write_associations_csv,
    write_cluster_pgms,
    write_events_text,
    write_ground_truth,
    write_params_csv,
    write_pgm,
    write_ppm,
    write_segmentation_ppm,
)
from evseg.iwe import Iwe
from evseg.solver import ClusterSet, SegmentationResult
from evseg.warps import WarpParams


def random_packet(n=40, seed=0):
    rng = np.random.default_rng(seed)
    geom = ImageGeometry(64, 48)
    t = np.sort(rng.uniform(0.0, 0.123456789, n))
    x = rng.uniform(0, 63.99, n)
    y = rng.uniform(0, 47.99, n)
    p = rng.choice([-1, 1], n)
    return make_packet(x, y, t, p, geom), geom


def tiny_result(n=6, dead_second=True):
    assoc = np.column_stack([np.full(n, 0.75), np.full(n, 0.25)])
    alive = np.array([True, not dead_second])
    clusters = ClusterSet(
        [
            WarpParams("flow2", np.array([12.5, -3.25])),
            WarpParams("rotation", np.array([32.0, 24.0, 1.5])),
        ],
        alive,
    )
    return SegmentationResult(
        clusters=clusters,
        associations=assoc,
        objective_trace=np.zeros(1),
        iterations=0,
        converged=True,
    )


class TestEventText:
    def test_round_trip_is_exact(self, tmp_path):
        packet, geom = random_packet()
        path = tmp_path / "events.txt"
        write_events_text(path, packet)
        back, back_geom = read_events_text(path)
        assert (back_geom.width, back_geom.height) == (geom.width, geom.height)
        assert np.array_equal(back.t, packet.t)
        assert np.array_equal(back.x, packet.x)
        assert np.array_equal(back.y, packet.y)
        assert np.array_equal(back.polarity, packet.polarity)

    def test_polarity_spellings(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text(
            "# width 8 height 8\n"
            "0.0 1 1 1\n0.1 2 2 +1\n0.2 3 3 0\n0.3 4 4 -1\n"
        )
        packet, _ = read_events_text(path)
        assert packet.polarity.tolist() == [1, 1, -1, -1]

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text(
            "# width 8 height 8\n\n# a remark\n0.0 1 1 1\n\n0.1 2 2 0\n"
        )
        packet, _ = read_events_text(path)
        assert packet.n == 2

    def test_field_count_error_carries_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# width 8 height 8\n0.0 1 1 1\n0.1 2 2\n")
        with pytest.raises(ParseError) as err:
            read_events_text(path)
        assert err.value.line_number == 3
        assert "line 3" in str(err.value)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# width 8 height 8\nzero 1 1 1\n")
        with pytest.raises(ParseError) as err:
            read_events_text(path)
        assert err.value.line_number == 2

    def test_bad_polarity_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# width 8 height 8\n0.0 1 1 2\n")
        with pytest.raises(ParseError):
            read_events_text(path)

    def test_bad_geometry_header_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# width eight height 8\n0.0 1 1 1\n")
        with pytest.raises(ParseError) as err:
            read_events_text(path)
        assert err.value.line_number == 1

    def test_missing_geometry_raises(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("0.0 1 1 1\n")
        with pytest.raises(MissingGeometryError):
            read_events_text(path)

    def test_caller_geometry_overrides_header(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# width 8 height 8\n0.0 1 1 1\n")
        _, geom = read_events_text(path, ImageGeometry(32, 16))
        assert (geom.width, geom.height) == (32, 16)


class TestGroundTruth:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "truth.txt"
        labels = np.array([0, 1, 1, 2, 2, 2], dtype=np.int32)
        truth = {
            1: WarpParams("flow2", np.array([50.0, 0.0])),
            2: WarpParams("rotation", np.array([88.0, 88.0, 10.0])),
        }
        write_ground_truth(path, labels, truth)
        back_labels, back_truth = read_ground_truth(path)
        assert np.array_equal(back_labels, labels)
        assert set(back_truth) == {1, 2}
        for label in truth:
            assert back_truth[label].model == truth[label].model
            assert np.array_equal(back_truth[label].theta, truth[label].theta)

    def test_negative_label_rejected(self, tmp_path):
        # labels are 0 for noise and objects from 1; a negative label would
        # be left out of the scored events without a word
        path = tmp_path / "truth.txt"
        path.write_text("1\n0\n-4\n")
        with pytest.raises(ParseError) as err:
            read_ground_truth(path)
        assert err.value.line_number == 3

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("1\ntwo\n")
        with pytest.raises(ParseError) as err:
            read_ground_truth(path)
        assert err.value.line_number == 2


class TestCsv:
    def test_associations_round_trip(self, tmp_path):
        path = tmp_path / "assoc.csv"
        result = tiny_result()
        write_associations_csv(path, result)
        assoc, alive, params = read_associations_csv(path)
        assert np.array_equal(assoc, result.associations)
        assert np.array_equal(alive, result.clusters.alive)
        assert [p.model for p in params] == ["flow2", "rotation"]
        for got, want in zip(params, result.clusters.params):
            assert np.array_equal(got.theta, want.theta)

    def test_empty_associations_rejected(self, tmp_path):
        path = tmp_path / "assoc.csv"
        path.write_text("# live 1\np_1\n")
        with pytest.raises(ParseError):
            read_associations_csv(path)

    def test_bad_association_row_rejected(self, tmp_path):
        path = tmp_path / "assoc.csv"
        path.write_text("# live 1\np_1\n0.5\nnope\n")
        with pytest.raises(ParseError) as err:
            read_associations_csv(path)
        assert err.value.line_number == 4

    @pytest.mark.parametrize("row", ["nan,0.5", "-3.0,4.0", "inf,0.0", "0.5,-0.0001"])
    def test_non_finite_or_negative_share_rejected(self, tmp_path, row):
        # such a share would be argmaxed or matched as if it were a count
        path = tmp_path / "assoc.csv"
        path.write_text(f"# live 1 2\np_1,p_2\n0.5,0.5\n{row}\n")
        with pytest.raises(ParseError) as err:
            read_associations_csv(path)
        assert err.value.line_number == 4

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# live 0\np_1,p_2\n0.5,0.5\n", 1),
            ("# live 1 5\np_1,p_2\n0.5,0.5\n", 1),
            ("p_1,p_2\n0.5,0.5\n# live x\n", 3),
            ("# live 1\np_1,p_2\n0.5,0.5\n1.0\n", 4),
            ("# live 1\np_1,p_2\n0.5,0.5\n0.2,0.3,0.5\n", 4),
            (
                "# live 1 2\n# cluster 1 flow2 alive 1 2\n# cluster 2 flow2 dead 1 2\n"
                "# cluster 3 flow2 alive 1 2\np_1,p_2\n0.5,0.5\n",
                5,
            ),
            ("# live 1 2\n# cluster 1 flow2 alive 1 2\np_1,p_2\n0.5,0.5\n", 3),
            (
                "# live 1 2\n# cluster 1 flow2 alive 1 2\n# cluster 3 flow2 alive 1 2\n"
                "p_1,p_2\n0.5,0.5\n",
                3,
            ),
            (
                "# live 1\n# cluster 1 flow2 alive 1 2\n# cluster 2 flow2 alive 1 2\n"
                "p_1,p_2\n0.5,0.5\n",
                3,
            ),
            (
                "# live 1 2\n# cluster 1 flow2 dead 1 2\n# cluster 2 flow2 alive 1 2\n"
                "p_1,p_2\n0.5,0.5\n",
                2,
            ),
            ("# live 1\n# cluster 1 flow2 asleep 1 2\np_1\n1.0\n", 2),
        ],
        ids=[
            "live-zero", "live-past-columns", "live-not-a-number", "short-row", "long-row",
            "more-cluster-headers-than-columns", "fewer-cluster-headers-than-columns",
            "cluster-out-of-sequence", "alive-cluster-not-live", "dead-cluster-live",
            "unknown-cluster-state",
        ],
    )
    def test_bad_live_index_or_ragged_row_rejected(self, tmp_path, text, line):
        # a live index outside the columns would mark another cluster live
        # (0 the last one) or fail with a bare IndexError, ragged rows
        # would fail inside numpy without a line number, and cluster headers
        # that disagree with the table would hand eval params and states
        # for clusters the table does not hold
        path = tmp_path / "assoc.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_associations_csv(path)
        assert err.value.line_number == line

    def test_params_table(self, tmp_path):
        path = tmp_path / "params.csv"
        result = tiny_result()
        write_params_csv(path, result)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["cluster", "model", "alive", "mass"]
        assert len(lines) == 3
        row1 = lines[1].split(",")
        assert row1[0] == "1" and row1[1] == "flow2" and row1[2] == "1"
        assert float(row1[3]) == pytest.approx(0.75 * 6)
        assert float(row1[4]) == 12.5 and float(row1[5]) == -3.25
        # flow2 has two parameters, remaining columns pad with nan
        assert np.isnan(float(row1[6])) and np.isnan(float(row1[7]))
        row2 = lines[2].split(",")
        assert row2[1] == "rotation" and row2[2] == "0"


class TestImages:
    def test_pgm_bytes(self, tmp_path):
        img = Iwe(np.array([[0.0, 2.0], [4.0, 1.0]]), ImageGeometry(2, 2))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        blob = path.read_bytes()
        header, data = blob[:11], blob[11:]
        assert header == b"P5\n2 2\n255\n"
        assert list(data) == [0, 128, 255, 64]

    def test_pgm_all_zero_image(self, tmp_path):
        img = Iwe(np.zeros((2, 3)), ImageGeometry(3, 2))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert path.read_bytes().endswith(bytes(6))

    def test_ppm_bytes(self, tmp_path):
        rgb = np.array([[[0.0, 0.5, 1.0], [1.0, 0.0, 0.0]]])
        path = tmp_path / "img.ppm"
        write_ppm(path, rgb)
        blob = path.read_bytes()
        assert blob[:11] == b"P6\n2 1\n255\n"
        assert list(blob[11:]) == [0, 128, 255, 255, 0, 0]

    def test_palette_distinct_saturated_hues(self):
        pal = cluster_palette(4)
        assert pal.shape == (4, 3)
        assert pal.min() >= 0.0 and pal.max() <= 1.0
        assert np.array_equal(pal[0], [1.0, 0.0, 0.0])
        assert len({tuple(row) for row in pal}) == 4

    def test_render_segmentation_single_cluster_is_pure_hue(self):
        rng = np.random.default_rng(4)
        geom = ImageGeometry(32, 24)
        n = 200
        packet = make_packet(
            rng.uniform(5, 25, n), rng.uniform(5, 18, n),
            np.sort(rng.uniform(0, 0.05, n)), np.ones(n), geom,
        )
        clusters = ClusterSet([WarpParams("flow2", np.zeros(2))], np.array([True]))
        result = SegmentationResult(
            clusters=clusters,
            associations=np.ones((n, 1)),
            objective_trace=np.zeros(1),
            iterations=0,
            converged=True,
        )
        rgb = render_segmentation(packet, result)
        assert rgb.shape == (24, 32, 3)
        assert rgb.min() >= 0.0 and rgb.max() <= 1.0
        assert rgb[:, :, 1].max() == 0.0 and rgb[:, :, 2].max() == 0.0
        assert rgb[:, :, 0].max() == 1.0

    def test_segmentation_and_cluster_images_written(self, tmp_path, mini_recording, mini_result):
        packet = mini_recording.packet
        write_segmentation_ppm(tmp_path / "seg.ppm", packet, mini_result)
        blob = (tmp_path / "seg.ppm").read_bytes()
        assert blob.startswith(b"P6\n120 90\n255\n")
        assert len(blob) == len(b"P6\n120 90\n255\n") + 120 * 90 * 3
        paths = write_cluster_pgms(tmp_path, packet, mini_result)
        live = int(mini_result.clusters.alive.sum())
        assert len(paths) == live
        for p in paths:
            assert p.exists()
            assert p.read_bytes().startswith(b"P5\n120 90\n255\n")


class TestRunConfig:
    def test_solver_config_mapping(self):
        run = RunConfig(sigma=2.0, step_mu=0.5, max_iters=17, rel_tol=1e-3,
                        collapse_frac=0.05)
        cfg = run.solver_config()
        assert cfg.sigma == 2.0
        assert cfg.step_mu == 0.5
        assert cfg.max_iters == 17
        assert cfg.rel_tol == 1e-3
        assert cfg.collapse_frac == 0.05

    def test_model_list_splits_on_commas(self):
        assert RunConfig(models="flow2, rotation ,fourdof").model_list() == [
            "flow2",
            "rotation",
            "fourdof",
        ]

    def test_config_file_applies_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# run settings\n"
            "method = mixture\n"
            "n_clusters = 4   # inline remark\n"
            "sigma = 2.5\n"
            "\n"
            "models = flow2,rotation\n"
        )
        cfg = read_config_file(path)
        assert cfg.method == "mixture"
        assert cfg.n_clusters == 4
        assert cfg.sigma == 2.5
        assert cfg.model_list() == ["flow2", "rotation"]
        assert cfg.max_iters == RunConfig().max_iters  # untouched default

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("method = layered\nwibble = 3\n")
        with pytest.raises(ParseError) as err:
            read_config_file(path)
        assert err.value.line_number == 2

    def test_untypeable_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_clusters = half\n")
        with pytest.raises(ParseError) as err:
            read_config_file(path)
        assert err.value.line_number == 1

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ParseError):
            read_config_file(path)

    def test_base_config_preserved(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sigma = 3.0\n")
        base = RunConfig(method="fuzzy", n_clusters=7)
        cfg = read_config_file(path, base)
        assert cfg.method == "fuzzy"
        assert cfg.n_clusters == 7
        assert cfg.sigma == 3.0
