"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import itertools
import json
import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sinkhorn_nms import (
    Marginals,
    PipelineConfig,
    RefineParams,
    SinkhornParams,
    SynthConfig,
    contraction_rate,
    dnms,
    entropy,
    frank_wolfe,
    grad_analytic,
    grad_matching_wrt_cost,
    grad_unrolled,
    greedy_nms,
    hungarian_solve,
    lmo_entropy,
    matching_loss,
    quality_scores,
    solve,
    synth_generate,
    verify_contraction,
)
from sinkhorn_nms.cli import main as cli_main
from sinkhorn_nms.geometry import box_array
from sinkhorn_nms.rng import SplitMix64
from sinkhorn_nms.verification import central_difference, normalized_error, random_matrix
from conftest import grad_in_mode, solve_in_mode


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_marginal_feasibility():
    with criterion(1, "marginal violations <= 1e-9 on 100 random instances, tau in {0.1, 0.5, 1}"):
        rng = SplitMix64(100)
        start = time.perf_counter()
        for trial in range(100):
            m = 2 + rng.randint(11)  # 2..12
            k = 2 + rng.randint(7)  # 2..8
            C = random_matrix(rng, m, k)
            marg = Marginals.uniform(m, k)
            for tau in (0.1, 0.5, 1.0):
                params = SinkhornParams(tau=tau, iters=100_000, tol=1e-9)
                S = solve(C, params, marg)
                if tau == 0.1:
                    assert S.log_domain
                assert S.converged
                assert np.abs(S.matrix.sum(axis=1) - marg.a).sum() <= 1e-9
                assert np.abs(S.matrix.sum(axis=0) - marg.b).sum() <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_2_linear_convergence():
    with criterion(2, "Hilbert ratios <= tanh(kappa/(4 tau)) + 1e-9, 20 instances per tau in {0.5, 1, 2}"):
        rng = SplitMix64(200)
        start = time.perf_counter()
        for tau in (0.5, 1.0, 2.0):
            for _ in range(20):
                m = 3 + rng.randint(8)  # 3..10
                k = 2 + rng.randint(5)  # 2..6
                C = random_matrix(rng, m, k)
                params = SinkhornParams(tau=tau, iters=5000, tol=1e-12)
                report = verify_contraction(C, params, Marginals.uniform(m, k))
                bound = contraction_rate(C, tau)
                assert report.rate_bound == bound
                if report.max_ratio is not None:
                    assert report.max_ratio <= bound + 1e-9
                assert report.passed
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_3_gradient_correctness():
    with criterion(3, "unrolled and matching gradients match central differences within 1e-4 on 50 instances"):
        rng = SplitMix64(300)
        start = time.perf_counter()
        taus = (0.5, 1.0, 2.0)
        iters_grid = (5, 10, 20)
        for trial in range(25):
            m = 2 + rng.randint(4)
            k = 2 + rng.randint(3)
            tau = taus[trial % 3]
            iters = iters_grid[(trial // 3) % 3]
            params = SinkhornParams(tau=tau, iters=iters, tol=1e-300)
            log_mode = bool(trial % 2)
            C = random_matrix(rng, m, k)
            U = random_matrix(rng, m, k, -1.0, 1.0)
            marg = Marginals.uniform(m, k)
            grad = grad_in_mode(C, params, marg, U, log_mode)
            fd = central_difference(
                lambda X: float((U * solve_in_mode(X, params, marg, log_mode).matrix).sum()),
                C,
                1e-5,
            )
            assert normalized_error(grad, fd) < 1e-4
        for trial in range(25):
            m = 2 + rng.randint(4)
            k = 2 + rng.randint(3)
            tau = taus[trial % 3]
            lam = 0.0 if trial % 2 == 0 else 0.5
            params = SinkhornParams(tau=tau, iters=10, tol=1e-300)
            C = random_matrix(rng, m, k)
            marg = Marginals.uniform(m, k)
            Pstar = hungarian_solve(C)
            grad = grad_matching_wrt_cost(C, params, marg, Pstar, lam)
            fd = central_difference(
                lambda X: matching_loss(X, solve(X, params, marg), Pstar, lam), C, 1e-5
            )
            assert normalized_error(grad, fd) < 1e-4
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s"


def test_criterion_4_closed_form_jacobian():
    with criterion(4, "closed-form Jacobian matches softmax-map differences within 1e-6; full-solver gap reported"):
        rng = SplitMix64(400)

        def global_softmax(values, tau):
            z = -values / tau
            z = z - z.max()
            e = np.exp(z)
            return e / e.sum()

        gaps = []
        for _ in range(20):
            m = 2 + rng.randint(3)
            k = 2 + rng.randint(2)
            tau = 1.0
            C = random_matrix(rng, m, k)
            U = random_matrix(rng, m, k, -1.0, 1.0)
            S = global_softmax(C, tau)
            grad = grad_analytic(S, tau, U)
            fd = central_difference(
                lambda X: float((U * global_softmax(X, tau)).sum()), C, 1e-5
            )
            assert normalized_error(grad, fd) < 1e-6
            params = SinkhornParams(tau=tau, iters=10, tol=1e-300)
            marg = Marginals.uniform(m, k)
            S_full = solve(C, params, marg)
            gaps.append(
                normalized_error(
                    grad_analytic(S_full, tau, U), grad_unrolled(C, params, marg, U)
                )
            )
        print(
            f"  closed-form vs unrolled gap under full scaling: "
            f"median {statistics.median(gaps):.3g}, max {max(gaps):.3g} (reported, not asserted)"
        )


def bruteforce_best_and_gap(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    costs = sorted(
        float(values[np.arange(n), perm].sum())
        for perm in itertools.permutations(range(n))
    )
    return costs[0], costs[1] - costs[0]


def test_criterion_5_discrete_limit_and_oracle():
    with criterion(5, "tau=0.01 column argmax equals the exact matching; oracle matches brute force up to 6x6"):
        rng = SplitMix64(500)
        checked = 0
        while checked < 20:
            n = 3 + rng.randint(6)  # 3..8
            C = random_matrix(rng, n, n)
            best, gap = bruteforce_best_and_gap(C)
            if gap < 0.05:  # require a unique optimum, clearly separated
                continue
            checked += 1
            assignment = hungarian_solve(C)
            assert assignment.total_cost == pytest.approx(best, abs=1e-9)
            S = solve(
                C, SinkhornParams(tau=0.01, iters=500, tol=1e-12), Marginals.uniform(n, n)
            )
            soft_pairs = {(int(S.matrix[:, k].argmax()), k) for k in range(n)}
            assert soft_pairs == set(assignment.pairs)

        for trial in range(200):
            m = 1 + rng.randint(6)
            k = 1 + rng.randint(6)
            values = random_matrix(rng, m, k, -5.0, 5.0)
            result = hungarian_solve(values)
            if m <= k:
                brute = min(
                    sum(values[i, cols[i]] for i in range(m))
                    for cols in itertools.permutations(range(k), m)
                )
            else:
                brute = min(
                    sum(values[rows[j], j] for j in range(k))
                    for rows in itertools.permutations(range(m), k)
                )
            assert result.total_cost == pytest.approx(brute, abs=1e-9)


def test_criterion_6_entropy_constrained_refinement():
    with criterion(6, "refinement returns feasible optima in <= 2 iterations on 100 random instances"):
        rng = SplitMix64(600)
        for _ in range(100):
            k = 2 + rng.randint(11)
            q = np.array([rng.uniform(0.0, 1.0) for _ in range(k)])
            tau_h = rng.uniform(0.0, math.log(k))
            params = RefineParams(tau_H=tau_h)
            result = frank_wolfe(q, params)
            assert entropy(result.p) >= tau_h - 1e-6
            assert abs(float(result.p.p.sum()) - 1.0) <= 1e-10
            assert result.iterations <= 2
            oracle = lmo_entropy(q, params)
            gap = abs(float(q @ oracle.p) - result.objective_trace[-1])
            assert gap <= 1e-6 * max(float(np.abs(q).max()), 1e-12)

        fixture = frank_wolfe(np.array([1.0, 0.0]), RefineParams(tau_H=0.5))
        assert fixture.p.p[0] == pytest.approx(0.800, abs=1e-3)
        assert fixture.p.p[1] == pytest.approx(0.200, abs=1e-3)


def test_criterion_7_pipeline_recovery():
    with criterion(7, "zero-jitter scenes recovered within 1e-4 and mean quality >= greedy on 20 seeds"):
        cfg = PipelineConfig(sinkhorn=SinkhornParams(tau=0.01, iters=500, tol=1e-12), k=3)
        for seed in range(20):
            pset, gt = synth_generate(
                SynthConfig(num_regions=3, proposals_per_region=5, jitter=0.0,
                            score_noise=0.0, seed=seed)
            )
            refined, diag = dnms(pset, gt, cfg)
            assert diag.k == 3
            gt_sorted = sorted((b.x1, b.y1, b.x2, b.y2) for b in gt.boxes)
            got_sorted = sorted(r.box.as_array().tolist() for r in refined)
            for want, got in zip(gt_sorted, got_sorted):
                assert np.allclose(want, got, atol=1e-4)
            dnms_quality = float(
                np.mean(quality_scores(box_array([r.box for r in refined]), gt.boxes))
            )
            kept = greedy_nms(pset, 0.5)
            greedy_quality = float(
                np.mean(quality_scores(kept.proposals.boxes, gt.boxes))
            )
            assert dnms_quality >= greedy_quality


def _normalize_bench(path):
    report = json.loads(path.read_text())
    report.pop("timings_ms", None)
    return report


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "every CLI subcommand is byte-identical across reruns (bench: outside measured timings)"):
        scene = tmp_path / "scene.jsonl"
        gt_path = tmp_path / "scene.jsonl.gt.jsonl"

        out_a = tmp_path / "synth_a.jsonl"
        out_b = tmp_path / "synth_b.jsonl"
        for out in (out_a, out_b):
            assert cli_main(["synth", "--regions", "3", "--per-region", "4",
                             "--jitter", "2.0", "--score-noise", "0.05",
                             "--seed", "11", "--output", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

        assert cli_main(["synth", "--regions", "3", "--per-region", "4",
                         "--jitter", "2.0", "--score-noise", "0.05",
                         "--seed", "11", "--output", str(scene)]) == 0

        run_a = tmp_path / "run_a.json"
        run_b = tmp_path / "run_b.json"
        for out in (run_a, run_b):
            assert cli_main(["run", str(scene), "--ground-truth", str(gt_path),
                             "--k", "3", "--seed", "2", "--output", str(out)]) == 0
        assert run_a.read_bytes() == run_b.read_bytes()

        grad_a = tmp_path / "grad_a.json"
        grad_b = tmp_path / "grad_b.json"
        for out in (grad_a, grad_b):
            assert cli_main(["gradcheck", "--trials", "3", "--seed", "5",
                             "--output", str(out)]) == 0
        assert grad_a.read_bytes() == grad_b.read_bytes()

        conv_a = tmp_path / "conv_a.json"
        conv_b = tmp_path / "conv_b.json"
        for out in (conv_a, conv_b):
            assert cli_main(["convergence", "--trials", "2", "--m-max", "5",
                             "--k-max", "4", "--seed", "7", "--output", str(out)]) == 0
        assert conv_a.read_bytes() == conv_b.read_bytes()

        bench_a = tmp_path / "bench_a.json"
        bench_b = tmp_path / "bench_b.json"
        for out in (bench_a, bench_b):
            assert cli_main(["bench", "--m", "16", "--k", "2", "--reps", "1",
                             "--seed", "3", "--output", str(out)]) == 0
        # wall-clock values are physical measurements; everything else must
        # agree byte for byte
        assert _normalize_bench(bench_a) == _normalize_bench(bench_b)
        assert json.dumps(_normalize_bench(bench_a), sort_keys=True) == \
            json.dumps(_normalize_bench(bench_b), sort_keys=True)


def test_criterion_9_desk_scale_performance():
    with criterion(9, "dnms on M=256, K=16, T=10 under 50 ms median; greedy under 5 ms median"):
        pset, gt = synth_generate(
            SynthConfig(num_regions=16, proposals_per_region=16, jitter=4.0,
                        score_noise=0.05, seed=42)
        )
        assert len(pset) == 256
        cfg = PipelineConfig(sinkhorn=SinkhornParams(tau=0.1, iters=10), k=16, seed=0)

        dnms(pset, gt, cfg)  # warm-up
        dnms_times = []
        for _ in range(5):
            start = time.perf_counter()
            dnms(pset, gt, cfg)
            dnms_times.append((time.perf_counter() - start) * 1e3)
        dnms_median = statistics.median(dnms_times)

        greedy_nms(pset, 0.5)  # warm-up
        greedy_times = []
        for _ in range(20):
            start = time.perf_counter()
            greedy_nms(pset, 0.5)
            greedy_times.append((time.perf_counter() - start) * 1e3)
        greedy_median = statistics.median(greedy_times)

        print(f"  dnms median {dnms_median:.2f} ms, greedy median {greedy_median:.3f} ms")
        assert dnms_median < 50.0
        assert greedy_median < 5.0
