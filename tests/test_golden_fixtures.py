"""Golden files pin the versioned wire formats and end-to-end determinism.

The fixtures were produced by the CLI (`synth` with regions=2, per-region=3,
jitter=1.5, score-noise=0.1, seed=2024; `run` with k=2, seed=5, defaults
otherwise, and once more with `--source-weights` for
`golden_report_source_weights.json`).  Regenerating them must reproduce the
committed bytes exactly;
any change to the formats or the numerics requires a deliberate fixture
bump and a version review.
"""

from pathlib import Path

from sinkhorn_nms.cli import main as cli_main
from sinkhorn_nms.formats import (
    read_ground_truth,
    read_proposal_file,
    write_ground_truth,
    write_proposal_file,
)

from conftest import read_run_report

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_SCENE = FIXTURES / "golden_scene.jsonl"
GOLDEN_GT = FIXTURES / "golden_scene.gt.jsonl"
GOLDEN_REPORT = FIXTURES / "golden_report.json"
GOLDEN_REPORT_SOURCE_WEIGHTS = FIXTURES / "golden_report_source_weights.json"


def test_golden_scene_regenerates_byte_identical(tmp_path):
    out = tmp_path / "scene.jsonl"
    gt_out = tmp_path / "scene.gt.jsonl"
    assert cli_main([
        "synth", "--regions", "2", "--per-region", "3", "--jitter", "1.5",
        "--score-noise", "0.1", "--seed", "2024",
        "--output", str(out), "--gt-output", str(gt_out),
    ]) == 0
    assert out.read_bytes() == GOLDEN_SCENE.read_bytes()
    assert gt_out.read_bytes() == GOLDEN_GT.read_bytes()


def _run_golden(out, *extra):
    assert cli_main([
        "run", str(GOLDEN_SCENE), "--ground-truth", str(GOLDEN_GT),
        "--k", "2", "--seed", "5", "--output", str(out), *extra,
    ]) == 0
    return out.read_bytes()


def test_golden_report_regenerates_byte_identical(tmp_path):
    assert _run_golden(tmp_path / "report.json") == GOLDEN_REPORT.read_bytes()


def test_golden_report_with_source_weights_regenerates_byte_identical(tmp_path):
    report = _run_golden(tmp_path / "report.json", "--source-weights")
    assert report == GOLDEN_REPORT_SOURCE_WEIGHTS.read_bytes()


def test_alternating_runs_in_one_process_reproduce_both_reports(tmp_path):
    # The parser is built once per process: a flag given to one run must not
    # carry over to the next.
    runs = [(("--source-weights",), GOLDEN_REPORT_SOURCE_WEIGHTS), ((), GOLDEN_REPORT)] * 2
    for extra, golden in runs:
        assert _run_golden(tmp_path / "report.json", *extra) == golden.read_bytes()


def test_golden_scene_parses_and_rewrites_losslessly(tmp_path):
    pset = read_proposal_file(GOLDEN_SCENE)
    assert len(pset) == 6
    assert pset.feature_dim == 8
    rewrite = tmp_path / "rewrite.jsonl"
    write_proposal_file(rewrite, pset)
    assert rewrite.read_bytes() == GOLDEN_SCENE.read_bytes()

    gt = read_ground_truth(GOLDEN_GT)
    assert len(gt.boxes) == 2
    gt_rewrite = tmp_path / "gt.jsonl"
    write_ground_truth(gt_rewrite, gt)
    assert gt_rewrite.read_bytes() == GOLDEN_GT.read_bytes()


def test_golden_report_contents():
    report = read_run_report(GOLDEN_REPORT)
    assert report["format"] == "run-report"
    assert report["version"] == 2
    assert len(report["refined"]) == 2
    diag = report["diagnostics"]
    assert diag["k"] == 2
    # converged in its first iteration, so there is no ratio to observe
    assert diag["converged"] is True and diag["sinkhorn_iterations"] == 1
    assert diag["observed_rate"] is None
    for rec in report["refined"]:
        assert 0.0 <= rec["probability"] <= 1.0
        assert "source_weights" not in rec


def test_golden_report_is_the_opt_in_report_without_the_rows():
    report = read_run_report(GOLDEN_REPORT)
    with_rows = read_run_report(GOLDEN_REPORT_SOURCE_WEIGHTS)
    for rec in with_rows["refined"]:
        assert len(rec["source_weights"]) == 6
        del rec["source_weights"]
    assert with_rows == report
