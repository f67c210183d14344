import json
import math

import pytest

from sinkhorn_nms import cli, verification
from sinkhorn_nms.cli import main


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def trial_must_not_run(*args, **kwargs):
    raise AssertionError("a check ran with an invalid argument")


@pytest.fixture
def scene(tmp_path):
    out = tmp_path / "scene.jsonl"
    code = run_cli("synth", "--regions", 3, "--per-region", 5, "--seed", 7,
                   "--jitter", 2.0, "--score-noise", 0.05, "--output", out)
    assert code == 0
    return out, out.with_suffix(out.suffix + ".gt.jsonl")


class TestSynth:
    def test_writes_files_with_expected_counts(self, scene):
        out, gt_path = scene
        lines = out.read_text().splitlines()
        assert len(lines) == 16  # header + 15 records
        assert json.loads(lines[0])["format"] == "proposals"
        gt_lines = gt_path.read_text().splitlines()
        assert len(gt_lines) == 4  # header + 3 regions

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli("synth", "--regions", 2, "--per-region", 3, "--seed", 11,
                           "--jitter", 1.5, "--output", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.jsonl.gt.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl.gt.jsonl").read_bytes()

    def test_zero_regions_usage_error(self, tmp_path):
        code = run_cli("synth", "--regions", 0, "--per-region", 1,
                       "--output", tmp_path / "x.jsonl")
        assert code == 2

    def test_unfittable_boxes_usage_error(self, tmp_path):
        code = run_cli("synth", "--regions", 1, "--per-region", 1,
                       "--jitter", 500, "--width", 100, "--height", 100,
                       "--output", tmp_path / "x.jsonl")
        assert code == 2


class TestRun:
    def test_success_and_report_shape(self, scene, tmp_path):
        out, gt_path = scene
        report_path = tmp_path / "report.json"
        code = run_cli("run", out, "--ground-truth", gt_path, "--k", 3,
                       "--output", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["format"] == "run-report"
        assert len(report["refined"]) == 3
        assert report["diagnostics"]["k"] == 3
        assert report["config"]["sinkhorn"]["tau"] == 0.1

    def test_byte_identical_reruns(self, scene, tmp_path):
        out, gt_path = scene
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for rp in (r1, r2):
            assert run_cli("run", out, "--ground-truth", gt_path, "--k", "adaptive",
                           "--seed", 3, "--output", rp) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_malformed_record_names_line(self, scene, tmp_path, capsys):
        out, _ = scene
        lines = out.read_text().splitlines()
        lines[4] = "{not json"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("run", bad, "--output", tmp_path / "r.json")
        assert code == 2
        assert "line 5" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["1e400", "1.5"])
    def test_unreadable_ground_truth_label_names_line(self, scene, tmp_path, capsys, label):
        out, _ = scene
        gt = tmp_path / "gt.jsonl"
        gt.write_text('{"format": "ground-truth", "version": 1}\n'
                      f'{{"box": [0, 0, 1, 1], "label": {label}}}\n')
        code = run_cli("run", out, "--ground-truth", gt, "--output", tmp_path / "r.json")
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_invalid_proposal_values_rejected(self, scene, tmp_path, capsys):
        out, _ = scene
        lines = out.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["score"] = 1.5
        lines[1] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("run", bad, "--output", tmp_path / "r.json")
        assert code == 2
        assert "score" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["NaN", "Infinity", "-Infinity", "0"])
    def test_bad_image_size_rejected_before_pipeline(
        self, scene, tmp_path, capsys, monkeypatch, size
    ):
        def pipeline_must_not_run(*args, **kwargs):
            raise AssertionError("pipeline ran on an image of unusable size")

        monkeypatch.setattr(cli, "dnms", pipeline_must_not_run)
        out, _ = scene
        lines = out.read_text().splitlines()
        lines[0] = lines[0].replace('"image_width":640.0', f'"image_width":{size}')
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli("run", bad, "--k", 3, "--output", tmp_path / "r.json")
        assert code == 2
        width = float(size)
        assert (
            f"invalid input: image size {width}x640.0 must be finite and positive"
            in capsys.readouterr().err
        )

    def test_zero_tau_usage_error(self, scene, tmp_path, capsys):
        out, _ = scene
        code = run_cli("run", out, "--tau", 0.0, "--output", tmp_path / "r.json")
        assert code == 2
        assert "tau must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--entropy-threshold", "nan", "tau_H"),
        ("--tau", "inf", "tau"),
        ("--tol", "nan", "tol"),
        ("--alpha", "nan", "alpha"),
    ])
    def test_non_finite_parameter_usage_error_before_pipeline(
        self, scene, tmp_path, capsys, monkeypatch, flag, value, field
    ):
        def pipeline_must_not_run(*args, **kwargs):
            raise AssertionError("pipeline ran with a non-finite parameter")

        monkeypatch.setattr(cli, "dnms", pipeline_must_not_run)
        out, _ = scene
        report_path = tmp_path / "r.json"
        code = run_cli("run", out, "--k", 3, flag, value, "--output", report_path)
        assert code == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not report_path.exists()

    def test_zero_k_usage_error(self, scene, tmp_path, capsys):
        out, _ = scene
        report_path = tmp_path / "r.json"
        assert run_cli("run", out, "--k", 0, "--output", report_path) == 2
        assert "k must be >= 1" in capsys.readouterr().err
        assert not report_path.exists()

    def test_non_integer_k_usage_error(self, scene, tmp_path, capsys):
        out, _ = scene
        report_path = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", out, "--k", "abc", "--output", report_path)
        assert exc.value.code == 2
        assert "expected an integer or 'adaptive'" in capsys.readouterr().err
        assert not report_path.exists()

    def test_entropy_unit_bits(self, scene, tmp_path):
        out, gt_path = scene
        r_bits = tmp_path / "bits.json"
        r_nats = tmp_path / "nats.json"
        assert run_cli("run", out, "--ground-truth", gt_path, "--k", 3,
                       "--entropy-threshold", 0.6, "--entropy-unit", "bits",
                       "--output", r_bits) == 0
        assert run_cli("run", out, "--ground-truth", gt_path, "--k", 3,
                       "--entropy-threshold", 0.6 * math.log(2.0),
                       "--output", r_nats) == 0
        bits = json.loads(r_bits.read_text())
        nats = json.loads(r_nats.read_text())
        assert bits["refined"] == nats["refined"]

    def test_overflow_of_cost_over_tau_numerical_error(self, scene, tmp_path, capsys):
        # alpha 1e300 at tau 1e-10 overflows -C / tau: no coupling, no report
        out, _ = scene
        report_path = tmp_path / "r.json"
        code = run_cli("run", out, "--tau", 1e-10, "--alpha", 1e300, "--k", 3,
                       "--output", report_path)
        assert code == 3
        assert "numerical error: C / tau overflows" in capsys.readouterr().err
        assert not report_path.exists()

    def test_features_past_the_kmeans_bound_usage_error(self, tmp_path, capsys):
        # the scene passes validate; its features square past the float range
        from sinkhorn_nms import ProposalArrays, ProposalSet, SynthConfig, synth_generate
        from sinkhorn_nms.formats import write_proposal_file

        pset, _ = synth_generate(SynthConfig(num_regions=3, proposals_per_region=4, seed=1))
        a = pset.proposals
        write_proposal_file(tmp_path / "big.jsonl", ProposalSet(
            ProposalArrays(a.ids, a.scores, a.boxes, a.features * 1e160),
            pset.image_width, pset.image_height, pset.feature_dim))
        code = run_cli("run", tmp_path / "big.jsonl", "--k", 3, "--output", tmp_path / "r.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "error: points too far apart" in err and "diagonal 1.89388e+160" in err

    def test_auto_mode_falls_back_to_log_on_underflow(self, tmp_path):
        # tau = 0.5 starts linear; alpha = 2000 underflows the linear kernel
        out = tmp_path / "s.jsonl"
        assert run_cli("synth", "--regions", 3, "--per-region", 5, "--jitter", 2,
                       "--score-noise", 0.5, "--seed", 3, "--output", out) == 0
        report_path = tmp_path / "r.json"
        assert run_cli("run", out, "--tau", 0.5, "--alpha", 2000, "--k", 3,
                       "--output", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["diagnostics"]["log_domain"] is True

    def test_missing_input_usage_error(self, tmp_path, capsys):
        code = run_cli("run", tmp_path / "nope.jsonl", "--output", tmp_path / "r.json")
        assert code == 2


class TestGradcheck:
    def test_defaults_pass(self, tmp_path, capsys):
        report_path = tmp_path / "grad.json"
        code = run_cli("gradcheck", "--trials", 5, "--output", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["unrolled"]["passed"] is True
        assert report["unrolled"]["max_error"] < 1e-4
        assert report["matching"]["passed"] is True
        assert report["jacobian_formula"]["passed"] is True
        assert report["jacobian_formula"]["sinkhorn_gap_reported"] >= 0.0

    def test_small_tau_uses_relaxed_threshold(self, tmp_path):
        report_path = tmp_path / "grad.json"
        code = run_cli("gradcheck", "--tau", 0.05, "--trials", 3,
                       "--output", report_path)
        report = json.loads(report_path.read_text())
        assert report["unrolled"]["threshold"] == 0.1
        assert code in (0, 1)  # report printed either way

    def test_absurd_step_fails_with_note(self, tmp_path, capsys):
        report_path = tmp_path / "grad.json"
        code = run_cli("gradcheck", "--fd-step", 10.0, "--trials", 3,
                       "--output", report_path)
        assert code == 1
        report = json.loads(report_path.read_text())
        assert "too large" in report["note"]

    def test_zero_trials_usage_error(self, tmp_path):
        assert run_cli("gradcheck", "--trials", 0) == 2

    @pytest.mark.parametrize("flag, value, field", [
        ("--fd-step", "0", "fd_step"),
        ("--fd-step", "nan", "fd_step"),
        ("--threshold", "nan", "threshold"),
        ("--threshold", "inf", "threshold"),
    ])
    def test_bad_step_or_threshold_usage_error_before_checks(
        self, tmp_path, capsys, monkeypatch, flag, value, field
    ):
        monkeypatch.setattr(verification, "random_matrix", trial_must_not_run)
        monkeypatch.setattr(verification, "central_difference", trial_must_not_run)
        report_path = tmp_path / "grad.json"
        code = run_cli("gradcheck", "--trials", 2, flag, value, "--output", report_path)
        assert code == 2
        word = "positive" if math.isfinite(float(value)) else "finite"
        assert f"{field} must be {word}" in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("flags, field", [
        (("--lambda-kl", "nan"), "lambda_kl must be finite"),
        (("--lambda-kl", "-1"), "lambda_kl must be nonnegative, got -1.0"),
        (("--m", "0", "--k", "-3"), "m_max must be >= 2"),
        (("--k", "1"), "k_max must be >= 2"),
    ])
    def test_bad_lambda_kl_or_size_usage_error_before_checks(
        self, tmp_path, capsys, monkeypatch, flags, field
    ):
        monkeypatch.setattr(verification, "random_matrix", trial_must_not_run)
        monkeypatch.setattr(verification, "central_difference", trial_must_not_run)
        report_path = tmp_path / "grad.json"
        code = run_cli("gradcheck", "--trials", 2, *flags, "--output", report_path)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not report_path.exists()

    def test_jacobian_section_follows_fd_step(self, tmp_path):
        reports = []
        for extra in ((), ("--fd-step", 10.0)):
            report_path = tmp_path / "grad.json"
            run_cli("gradcheck", "--trials", 3, *extra, "--output", report_path)
            reports.append(json.loads(report_path.read_text())["jacobian_formula"])
        default, large_step = reports
        assert large_step["softmax_max_error"] != default["softmax_max_error"]
        assert large_step["passed"] is False

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("gradcheck", "--trials", 4, "--seed", 5, "--output", out) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConvergence:
    def test_defaults_pass(self, tmp_path):
        report_path = tmp_path / "conv.json"
        code = run_cli("convergence", "--trials", 4, "--m-max", 7, "--k-max", 5,
                       "--output", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert all(r["passed"] for r in report["contraction"])
        assert all(r["passed"] for r in report["frank_wolfe"])

    def test_zero_trials_usage_error(self):
        assert run_cli("convergence", "--trials", 0) == 2

    @pytest.mark.parametrize("flags, field", [
        (("--m-max", "0", "--k-max", "0"), "m_max must be >= 2"),
        (("--k-max", "1"), "k_max must be >= 2"),
    ])
    def test_size_below_two_usage_error_before_checks(
        self, tmp_path, capsys, monkeypatch, flags, field
    ):
        monkeypatch.setattr(verification, "random_matrix", trial_must_not_run)
        report_path = tmp_path / "conv.json"
        code = run_cli("convergence", "--trials", 2, *flags, "--output", report_path)
        assert code == 2
        assert field in capsys.readouterr().err
        assert not report_path.exists()

    @pytest.mark.parametrize("taus", ["0.5,x", "0.5,,1", ""])
    def test_malformed_taus_usage_error(self, capsys, taus):
        with pytest.raises(SystemExit) as exc:
            run_cli("convergence", "--taus", taus)
        assert exc.value.code == 2
        assert "expected a comma-separated list of floats" in capsys.readouterr().err

    def test_deterministic_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("convergence", "--trials", 2, "--m-max", 5, "--k-max", 4,
                           "--seed", 9, "--output", out) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_report_includes_all_timings_at_default_scale(self, tmp_path):
        report_path = tmp_path / "bench.json"
        code = run_cli("bench", "--m", 256, "--k", 16, "--iters", 10, "--reps", 1,
                       "--output", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        timings = report["timings_ms"]
        assert set(timings) == {"dnms_ms", "greedy_nms_ms", "soft_nms_ms"}
        assert all(t >= 0.0 for t in timings.values())
        assert report["config"]["m"] == 256
        assert report["config"]["k"] == 16

    def test_single_proposal_table_well_formed(self, tmp_path):
        report_path = tmp_path / "bench1.json"
        code = run_cli("bench", "--m", 1, "--k", 1, "--reps", 1,
                       "--output", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["m"] == 1
        assert report["config"]["k"] == 1

    def test_repetition_count_echoed(self, tmp_path):
        for reps in (1, 11):
            report_path = tmp_path / f"bench{reps}.json"
            assert run_cli("bench", "--m", 16, "--k", 2, "--reps", reps,
                           "--output", report_path) == 0
            assert json.loads(report_path.read_text())["config"]["reps"] == reps

    def test_synthesized_scene_cut_to_m(self, tmp_path):
        # 8 regions of ceil(60 / 8) = 8 proposals: 64, of which the first 60 run
        report_path = tmp_path / "bench60.json"
        assert run_cli("bench", "--m", 60, "--k", 8, "--reps", 1, "--output", report_path) == 0
        config = json.loads(report_path.read_text())["config"]
        assert (config["m"], config["k"]) == (60, 8)

    def test_report_to_stdout_without_output(self, capsys):
        assert run_cli("bench", "--m", 4, "--k", 2, "--reps", 1) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "bench-report" and report["config"]["m"] == 4

    def test_zero_reps_usage_error(self, tmp_path):
        assert run_cli("bench", "--reps", 0) == 2

    def test_deterministic_outside_timings(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("bench", "--m", 16, "--k", 2, "--reps", 1, "--seed", 4,
                           "--output", out) == 0
        ra = json.loads(a.read_text())
        rb = json.loads(b.read_text())
        ra.pop("timings_ms")
        rb.pop("timings_ms")
        assert ra == rb


class TestReportSchema:
    """Key sets of the reports, so a new result field enters a report only on purpose."""

    def test_run_report_diagnostics_keys(self, scene, tmp_path):
        out, gt_path = scene
        report_path = tmp_path / "r.json"
        assert run_cli("run", out, "--ground-truth", gt_path, "--k", 3,
                       "--output", report_path) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {"format", "version", "config", "refined", "diagnostics"}
        assert report["version"] == 2
        assert set(report["diagnostics"]) == {
            "k", "kappa", "rate_bound", "marginal_violations", "sinkhorn_iterations",
            "converged", "observed_rate", "log_domain", "fw_iterations", "fw_objective",
        }
        for rec in report["refined"]:
            assert set(rec) == {"box", "score", "feature", "probability"}

    def test_run_report_source_weights_flag(self, scene, tmp_path):
        out, gt_path = scene
        paths = tmp_path / "default.json", tmp_path / "weights.json"
        for path, extra in zip(paths, ((), ("--source-weights",))):
            assert run_cli("run", out, "--ground-truth", gt_path, "--k", 3,
                           "--output", path, *extra) == 0
        default, weights = (json.loads(p.read_text()) for p in paths)
        for rec in weights["refined"]:
            assert set(rec) == {"box", "score", "feature", "probability", "source_weights"}
            assert len(rec["source_weights"]) == 15  # one per proposal
            del rec["source_weights"]
        # the flag is not a config field: only the rows differ
        assert default == weights

    def test_gradcheck_sections(self, tmp_path):
        out = tmp_path / "g.json"
        assert run_cli("gradcheck", "--trials", 2, "--output", out) == 0
        report = json.loads(out.read_text())
        assert set(report) == {
            "format", "version", "unrolled", "matching", "jacobian_formula",
            "fd_step", "tau", "m", "k", "iters", "seed", "lambda_kl", "note",
        }
        assert (report["m"], report["k"], report["iters"], report["seed"],
                report["lambda_kl"]) == (5, 4, 10, 0, 0.5)
        for section in ("unrolled", "matching"):
            assert set(report[section]) == {"max_error", "threshold", "passed", "trials"}
            assert report[section]["trials"] == 2
        assert set(report["jacobian_formula"]) == {
            "softmax_max_error", "threshold", "passed", "sinkhorn_gap_reported",
        }

    def test_convergence_rows(self, tmp_path):
        out = tmp_path / "c.json"
        assert run_cli("convergence", "--trials", 2, "--m-max", 5, "--k-max", 4,
                       "--output", out) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"format", "version", "contraction", "frank_wolfe", "passed"}
        assert report["contraction"] and report["frank_wolfe"]
        for row in report["contraction"]:
            assert set(row) == {"tau", "trial", "m", "k", "max_ratio", "rate_bound", "passed"}
        for row in report["frank_wolfe"]:
            # feasibility is folded into "passed" and not reported separately
            assert set(row) == {"trial", "k", "tau_H", "gap", "iterations", "passed"}


class TestUsage:
    def test_main_reuses_one_parser(self, scene, tmp_path, monkeypatch):
        def must_not_build():
            raise AssertionError("main built a parser of its own")

        monkeypatch.setattr(cli, "build_parser", must_not_build)
        out, gt_path = scene
        report_path = tmp_path / "report.json"
        assert run_cli("run", out, "--ground-truth", gt_path, "--k", 3, "--output", report_path) == 0
        assert report_path.exists()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
