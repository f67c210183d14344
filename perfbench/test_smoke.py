"""Smoke test of the benchmark: every workload runs a few ops, traced and untraced.

    python -m pytest perfbench/test_smoke.py

It checks that every metric named in BENCHMARK.json is printed with its unit,
that no op fails, and the trace counts the benchmark documents for its seed.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_reports_every_metric_without_failures():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(summary) == sorted(f"{n}/trace{t}" for n in names for t in (0, 1))
    printed = {line.split()[0]: line.split()[2] for line in proc.stdout.splitlines() if len(line.split()) >= 3}
    for key, res in summary.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, key
        wanted = spec["per_layer"] if key.endswith("trace1") else spec["end_to_end"]
        assert sorted(res["metrics"]) == sorted(m["name"] for m in wanted), key
        for m in wanted:
            assert res["metrics"][m["name"]]["unit"] == m["unit"], (key, m["name"])
            assert printed[m["name"]] == m["unit"], (key, m["name"])
    assert printed["fail_frac"] == "frac"
    infer, cli, train = (
        {m: v["value"] for m, v in summary[f"{n}/trace1"]["metrics"].items()}
        for n in ("infer-256x16", "cli-2048-adaptive", "train-128x16")
    )
    assert infer["cost.kappa.calls"] == 2 and infer["baselines.greedy_nms.calls"] == 0
    assert infer["refine.lmo_entropy.calls"] == 2 and cli["refine.lmo_entropy.calls"] == 2
    assert cli["baselines.greedy_nms.calls"] == 1
    # Four matching-oracle solves per training op, each making hundreds of LAP calls.
    assert 100 <= train["hungarian.lap.calls"] / 4 < 1000
    assert train["sinkhorn.solve.log_domain_frac"] == 0.5
