"""End-to-end command line tests, run in process via main(argv)."""
import numpy as np
import pytest

from evseg.cli import main
from evseg.events import make_packet, validate_packet, with_t_ref
from evseg.evio import (
    read_associations_csv,
    read_events_text,
    write_associations_csv,
    write_events_text,
)
from evseg.solver import SolverConfig, segment, segment_stream
from evseg.variants import segment_mixture

from conftest import motionless_prefix


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One small labeled recording shared by the CLI tests."""
    out = tmp_path_factory.mktemp("sim")
    code = main(
        [
            "simulate",
            "--out", str(out),
            "--preset", "two_pebbles",
            "--delta-v", "60", "--base-v", "40",
            "--width", "120", "--height", "90",
            "--duration", "0.07", "--seed", "5",
        ]
    )
    assert code == 0
    return out


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["simulate"]) == 1

    def test_bad_flag_value_is_usage_error(self):
        assert main(["segment", "--events", "x", "--out", "y", "--j", "two"]) == 1

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("segment", ["--max-iters", "1"]),
            ("bench", ["--j", "2", "--iters", "1", "--repeats", "1"]),
            ("compare", ["--iters", "1"]),
        ],
        ids=["segment", "bench", "compare"],
    )
    @pytest.mark.parametrize(
        "size",
        [["--width", "64"], ["--height", "64"], ["--width", "0", "--height", "64"]],
        ids=["width-alone", "height-alone", "zero-width"],
    )
    def test_half_given_sensor_size_is_usage_error(
        self, sim_dir, tmp_path, capsys, command, extra, size
    ):
        # the file's header says 120x90; a size on the command line replaces
        # it only when both sides are given
        argv = [command, "--events", str(sim_dir / "events.txt"), *extra, *size]
        if command == "segment":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 1
        assert "--width and --height" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestDataErrors:
    def test_missing_events_file(self, tmp_path):
        code = main(
            ["segment", "--events", str(tmp_path / "no.txt"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_malformed_events_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("# width 8 height 8\n0.0 1 1 maybe\n")
        code = main(["segment", "--events", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_rows_are_dropped_with_a_count(self, sim_dir, tmp_path, capsys):
        header, *rows = (sim_dir / "events.txt").read_text().splitlines()
        # a NaN time in the first row, a row off the 120x90 sensor in the last
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join([header, "nan 10 10 1", *rows, "0.01 500 10 1"]) + "\n")
        line = f"dropped 2 of {len(rows) + 2} events (off the sensor or non-finite time)"
        outs = []
        for events, err in ((sim_dir / "events.txt", ""), (bad, line)):
            out = tmp_path / events.stem
            argv = ["segment", "--events", str(events), "--out", str(out), "--max-iters", "2"]
            assert main(argv) == 0
            assert capsys.readouterr().err.strip() == err
            outs.append(out)
        # the kept rows are solved exactly as the clean file's
        for name in ("assoc.csv", "params.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize(
        "command, extra",
        [("segment", ["--max-iters", "2"]), ("compare", ["--iters", "2"])],
    )
    def test_events_out_of_time_order_are_data_error(
        self, sim_dir, tmp_path, capsys, command, extra
    ):
        # validation sorts the events, so the outputs would pair in time
        # order with rows given in file order.  Rows validation drops (a NaN
        # time, a row off the sensor) do not count
        header, *rows = (sim_dir / "events.txt").read_text().splitlines()
        times = [float(row.split()[0]) for row in rows]
        k = next(i for i in range(10, len(rows)) if times[i] < times[i + 1])
        rows = ["nan 10 10 1", *rows[:k], "0.0 500 10 1", rows[k + 1], rows[k], *rows[k + 2 :]]
        events = tmp_path / "events.txt"
        events.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "out"
        argv = [command, "--events", str(events), *extra]
        if command == "segment":
            argv += ["--out", str(out)]
        else:
            argv += ["--truth", str(sim_dir / "truth.txt")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: event times must not decrease: row {k + 3} is earlier than row {k + 2}"
        )
        assert not out.exists()

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_bench_with_fewer_than_one_repeat_is_data_error(self, sim_dir, capsys, repeats):
        argv = ["bench", "--events", str(sim_dir / "events.txt"), "--iters", "1"]
        assert main(argv + ["--repeats", repeats]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: need at least one repeat, got {repeats}")
        assert "nan" not in captured.out

    @pytest.mark.parametrize("flag, value", [("--sigma", "inf"), ("--mu", "nan")])
    def test_non_finite_solver_setting_is_data_error(self, sim_dir, tmp_path, capsys, flag, value):
        argv = [
            "segment", "--events", str(sim_dir / "events.txt"), "--out", str(tmp_path),
            flag, value, "--max-iters", "2",
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "flag, value",
        [("--threshold", "nan"), ("--duration", "inf"), ("--jitter", "nan"), ("--noise-rate", "nan")],
    )
    def test_non_finite_simulator_setting_is_data_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sim"
        argv = [
            "simulate", "--out", str(out), "--preset", "two_pebbles",
            "--width", "120", "--height", "90", "--duration", "0.02", flag, value,
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("j", ["0", "-1"])
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("segment", ["--max-iters", "2"]),
            ("compare", ["--iters", "2"]),
            ("bench", ["--iters", "1", "--repeats", "1"]),
        ],
    )
    def test_fewer_than_one_cluster_is_data_error(
        self, sim_dir, tmp_path, capsys, command, extra, j
    ):
        argv = [command, "--events", str(sim_dir / "events.txt"), "--j", j, *extra]
        if command == "segment":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: need at least one cluster, got {j}")
        assert "Traceback" not in err

    def test_unknown_method_in_config_is_data_error(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = bogus\n")
        argv = [
            "segment", "--events", str(sim_dir / "events.txt"), "--out", str(tmp_path / "o"),
            "--config", str(cfg),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown method 'bogus'")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_eval_shape_mismatch(self, tmp_path):
        assoc = tmp_path / "assoc.csv"
        assoc.write_text("# live 1\np_1\n1.0\n1.0\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("1\n")
        code = main(
            ["eval", "--assoc", str(assoc), "--truth", str(truth)]
        )
        assert code == 2


    @pytest.mark.parametrize(
        "text",
        [
            "# live 0\np_1,p_2\n1.0,0.0\n",
            "# live 5\np_1,p_2\n1.0,0.0\n",
            "# live 1\np_1,p_2\n1.0,0.0\n1.0\n",
            "# live 1 2\n# cluster 1 flow2 alive 1 2\n# cluster 2 flow2 dead 1 2\n"
            "# cluster 3 flow2 alive 1 2\np_1,p_2\n1.0,0.0\n1.0,0.0\n",
            "# live 1\n# cluster 1 flow2 alive 1 2\n# cluster 2 flow2 alive 1 2\n"
            "p_1,p_2\n1.0,0.0\n1.0,0.0\n",
        ],
        ids=["live-zero", "live-past-columns", "ragged-row", "cluster-count", "cluster-state"],
    )
    def test_eval_rejects_bad_association_file(self, tmp_path, capsys, text):
        assoc = tmp_path / "assoc.csv"
        assoc.write_text(text)
        truth = tmp_path / "truth.txt"
        truth.write_text("1\n1\n")
        assert main(["eval", "--assoc", str(assoc), "--truth", str(truth)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "Traceback" not in err


    @pytest.mark.parametrize(
        "assoc_text, truth_text, line",
        [
            ("# live 1 2\np_1,p_2\n1.0,0.0\nnan,0.5\n", "1\n2\n", 4),
            ("# live 1 2\np_1,p_2\n1.0,0.0\n-3.0,4.0\n", "1\n2\n", 4),
            ("# live 1 2\np_1,p_2\n1.0,0.0\n0.0,1.0\n", "1\n-4\n", 2),
        ],
        ids=["nan-share", "negative-share", "negative-label"],
    )
    def test_eval_rejects_bad_values(self, tmp_path, capsys, assoc_text, truth_text, line):
        assoc = tmp_path / "assoc.csv"
        assoc.write_text(assoc_text)
        truth = tmp_path / "truth.txt"
        truth.write_text(truth_text)
        assert main(["eval", "--assoc", str(assoc), "--truth", str(truth)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line {line}") and "accuracy" not in captured.out


class TestPipeline:
    def test_simulate_writes_recording(self, sim_dir, capsys):
        packet, geom = read_events_text(sim_dir / "events.txt")
        assert packet.n > 1000
        assert (geom.width, geom.height) == (120, 90)
        assert (sim_dir / "truth.txt").exists()

    def test_segment_then_eval(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "seg"
        code = main(
            [
                "segment",
                "--events", str(sim_dir / "events.txt"),
                "--out", str(out),
                "--j", "2", "--model", "flow2", "--max-iters", "40",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "live clusters" in printed
        for name in ("assoc.csv", "params.csv", "segmentation.ppm"):
            assert (out / name).exists()

        report_path = tmp_path / "report.csv"
        code = main(
            [
                "eval",
                "--assoc", str(out / "assoc.csv"),
                "--truth", str(sim_dir / "truth.txt"),
                "--out", str(report_path),
            ]
        )
        assert code == 0
        rows = dict(
            line.split(",") for line in report_path.read_text().strip().splitlines()[1:]
        )
        assert float(rows["accuracy"]) >= 0.95
        assert int(rows["events_scored"]) > 1000
        assert rows["degenerate"] == "0"

    def test_segment_deterministic_outputs(self, sim_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                [
                    "segment",
                    "--events", str(sim_dir / "events.txt"),
                    "--out", str(out),
                    "--j", "2", "--max-iters", "12",
                ]
            )
            assert code == 0
            outs.append(out)
        for name in ("assoc.csv", "params.csv", "segmentation.ppm"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_whole_file_honours_t_ref_mode(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_ref_mode = midpoint\nmax_iters = 4\n")
        out = tmp_path / "mid"
        argv = ["segment", "--events", str(sim_dir / "events.txt"), "--out", str(out)]
        assert main(argv + ["--config", str(cfg)]) == 0
        packet = validate_packet(read_events_text(sim_dir / "events.txt")[0], strict=False)
        result = segment(with_t_ref(packet, "midpoint"), 2, "flow2", SolverConfig(max_iters=4))
        expected = tmp_path / "expected.csv"
        write_associations_csv(expected, result)
        assert (out / "assoc.csv").read_bytes() == expected.read_bytes()

    def test_whole_file_rejects_unknown_t_ref_mode(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_ref_mode = middle\n")
        argv = [
            "segment", "--events", str(sim_dir / "events.txt"), "--out", str(tmp_path / "o"),
            "--config", str(cfg), "--max-iters", "2",
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: unknown t_ref mode 'middle'\n"

    def test_motionless_whole_file_is_one_skipped_window(self, sim_dir, tmp_path, capsys):
        packet = validate_packet(read_events_text(sim_dir / "events.txt")[0])
        events = tmp_path / "still.txt"
        n = 2000
        write_events_text(
            events,
            make_packet(packet.x[:n], packet.y[:n], np.full(n, packet.t[0]),
                        packet.polarity[:n], packet.geometry),
        )
        assert main(["segment", "--events", str(events), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "window 0: 2000 events, skipped (no motion beats standing still)\n"
            "error: every window was skipped\n"
        )

    def test_windowed_segmentation_writes_per_window(self, sim_dir, tmp_path):
        out = tmp_path / "win"
        code = main(
            [
                "segment",
                "--events", str(sim_dir / "events.txt"),
                "--out", str(out),
                "--j", "2", "--window", "2000", "--stride", "2000",
                "--max-iters", "8",
            ]
        )
        assert code == 0
        assert (out / "assoc_000.csv").exists()
        assert (out / "assoc_001.csv").exists()
        assert not (out / "assoc_002.csv").exists()
        assoc, _, _ = read_associations_csv(out / "assoc_000.csv")
        assert assoc.shape == (2000, 2)

    @pytest.mark.parametrize(
        "method, stream_kwargs",
        [("layered", {}), ("mixture", {"solve": segment_mixture})],
        ids=["layered", "mixture"],
    )
    def test_windowed_segmentation_warm_starts(self, sim_dir, tmp_path, method, stream_kwargs):
        # the second window must be solved from the first one's result,
        # exactly as segment_stream does it
        out = tmp_path / "win"
        code = main(
            [
                "segment",
                "--events", str(sim_dir / "events.txt"),
                "--out", str(out),
                "--j", "2", "--method", method,
                "--window", "2000", "--stride", "2000", "--max-iters", "8",
            ]
        )
        assert code == 0
        packet = validate_packet(read_events_text(sim_dir / "events.txt")[0], strict=False)
        pairs = list(
            segment_stream(
                packet, 2, "flow2", SolverConfig(max_iters=8),
                window_events=2000, stride_events=2000, **stream_kwargs,
            )
        )
        assert pairs[1][1].diagnostics["init"] == "given"
        expected = tmp_path / "expected.csv"
        write_associations_csv(expected, pairs[1][1])
        assert (out / "assoc_001.csv").read_bytes() == expected.read_bytes()

    def test_windowed_segmentation_skips_a_motionless_window(self, sim_dir, tmp_path, capsys):
        packet = validate_packet(read_events_text(sim_dir / "events.txt")[0])
        events = tmp_path / "still_first.txt"
        write_events_text(events, motionless_prefix(packet))
        out = tmp_path / "win"
        code = main(
            [
                "segment",
                "--events", str(events),
                "--out", str(out),
                "--j", "2", "--window", "2000", "--stride", "2000", "--max-iters", "8",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "window 0: 2000 events, skipped (no motion beats standing still)\n"
        )
        assert "window 0" not in captured.out
        assert "window 1: 2000 events, 2/2 live clusters" in captured.out
        assert not (out / "assoc_000.csv").exists()
        assert (out / "assoc_001.csv").exists()
        assert (out / "assoc_002.csv").exists()

    def test_windowed_segmentation_fails_when_every_window_is_skipped(
        self, sim_dir, tmp_path, capsys
    ):
        packet = validate_packet(read_events_text(sim_dir / "events.txt")[0])
        events = tmp_path / "still.txt"
        n = 4000
        still = make_packet(
            packet.x[:n], packet.y[:n], np.full(n, packet.t[0]), packet.polarity[:n],
            packet.geometry,
        )
        write_events_text(events, still)
        code = main(
            [
                "segment",
                "--events", str(events),
                "--out", str(tmp_path / "win"),
                "--window", "2000", "--stride", "2000",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("skipped (") == 2
        assert err.splitlines()[-1] == "error: every window was skipped"

    @pytest.mark.parametrize("method", ["mixture", "fuzzy"])
    def test_variant_methods_run(self, sim_dir, tmp_path, method):
        out = tmp_path / method
        code = main(
            [
                "segment",
                "--events", str(sim_dir / "events.txt"),
                "--out", str(out),
                "--j", "2", "--method", method, "--max-iters", "5",
            ]
        )
        assert code == 0
        assert (out / "assoc.csv").exists()

    def test_cluster_images_flag(self, sim_dir, tmp_path):
        out = tmp_path / "imgs"
        code = main(
            [
                "segment",
                "--events", str(sim_dir / "events.txt"),
                "--out", str(out),
                "--j", "2", "--max-iters", "8", "--cluster-images",
            ]
        )
        assert code == 0
        pgms = sorted(p.name for p in out.glob("cluster_*.pgm"))
        assert pgms  # one per live cluster
        for p in out.glob("cluster_*.pgm"):
            assert p.read_bytes().startswith(b"P5\n120 90\n255\n")

    def test_config_file_drives_segment(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_clusters = 2\nmax_iters = 6\nmethod = layered\n")
        out = tmp_path / "cfg_out"
        code = main(
            [
                "segment",
                "--events", str(sim_dir / "events.txt"),
                "--out", str(out),
                "--config", str(cfg),
            ]
        )
        assert code == 0
        assoc, _, _ = read_associations_csv(out / "assoc.csv")
        assert assoc.shape[1] == 2

    def test_config_fuzziness_reaches_fuzzy(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fuzziness = 1.0\n")
        code = main(
            [
                "segment",
                "--events", str(sim_dir / "events.txt"),
                "--out", str(tmp_path / "out"),
                "--config", str(cfg), "--method", "fuzzy", "--max-iters", "2",
            ]
        )
        assert code == 2
        assert "fuzziness" in capsys.readouterr().err


class TestAnalysisCommands:
    def test_bench_writes_table(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--events", str(sim_dir / "events.txt"),
                "--j", "1,2", "--iters", "2", "--repeats", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "clusters,kev_per_s,seconds,events,iterations"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[1]) > 0

    def test_compare_writes_traces(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--events", str(sim_dir / "events.txt"),
                "--truth", str(sim_dir / "truth.txt"),
                "--j", "2", "--iters", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "layered: final objective" in printed
        assert "accuracy" in printed
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,iteration,objective,warp_builds"
        # three methods, each with the initial value plus five iterations
        assert len(lines) == 1 + 3 * 6

    def test_curve_writes_points(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "curve",
                "--delta-v", "120", "--displacements", "4",
                "--base-v", "50", "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "delta_v,window_span,displacement_px,accuracy,events,degenerate"
        )
        assert len(lines) == 2
        dv, span, disp, acc, n_ev, degen = lines[1].split(",")
        assert float(dv) == 120.0
        assert float(disp) == pytest.approx(4.0)
        assert float(acc) >= 0.85
        assert degen == "0"
