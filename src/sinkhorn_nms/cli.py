"""Command-line interface.

Subcommands: ``synth`` (generate a scene), ``run`` (full pipeline on a
proposal file), ``gradcheck`` (derivatives vs finite differences),
``convergence`` (contraction and refinement guarantees), ``bench``
(median ``pipeline.compare`` timings against the baselines).

Exit codes: 0 success, 1 check failure, 2 usage or input error, 3 numerical
failure.  All reports are deterministic given flags and seed; wall-clock
measurements go to stderr (or, for bench, into explicitly non-deterministic
timing fields).
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import formats
from ._checks import check_int
from .cost import CostWeights
from .pipeline import PipelineConfig, compare, dnms
from .proposals import SynthConfig, synth_generate, validate
from .refine import RefineParams
from .sinkhorn import NumericalError, SinkhornParams
from .verification import (
    GradCheckReport,
    convergence_sweep,
    gradcheck_matching,
    gradcheck_unrolled,
    jacobian_formula_check,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _parse_k(text: str) -> int | None:
    if text == "adaptive":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer or 'adaptive'")
    return value


def _parse_taus(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of floats")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinkhorn-nms",
        description=(
            "Differentiable non-maximum suppression via entropic optimal "
            "transport, with verification harnesses for its convergence "
            "guarantees."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a deterministic synthetic scene")
    synth.set_defaults(func=_cmd_synth)
    synth.add_argument("--regions", type=int, required=True)
    synth.add_argument("--per-region", type=int, required=True)
    synth.add_argument("--jitter", type=float, default=0.0)
    synth.add_argument("--score-noise", type=float, default=0.0)
    synth.add_argument("--feature-dim", type=int, default=8)
    synth.add_argument("--width", type=float, default=640.0)
    synth.add_argument("--height", type=float, default=640.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--output", type=Path, required=True, help="proposal file path")
    synth.add_argument(
        "--gt-output",
        type=Path,
        default=None,
        help="ground-truth sidecar path (default: <output>.gt.jsonl)",
    )

    run = sub.add_parser("run", help="run the pipeline on a proposal file")
    run.set_defaults(func=_cmd_run)
    run.add_argument("input", type=Path)
    run.add_argument("--ground-truth", type=Path, default=None)
    run.add_argument("--output", type=Path, required=True)
    run.add_argument("--tau", type=float, default=0.1)
    run.add_argument("--iters", type=int, default=10)
    run.add_argument("--tol", type=float, default=1e-9)
    run.add_argument("--alpha", type=float, default=1.0)
    run.add_argument("--beta", type=float, default=1.0)
    run.add_argument("--gamma", type=float, default=1.0)
    run.add_argument(
        "--k",
        type=_parse_k,
        default=None,
        help=(
            "latent region count, or 'adaptive' to use the greedy-NMS "
            "survivor-count heuristic (default: adaptive)"
        ),
    )
    run.add_argument("--entropy-threshold", type=float, default=0.6)
    run.add_argument(
        "--entropy-unit",
        choices=("nats", "bits"),
        default="nats",
        help="unit of --entropy-threshold",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--source-weights",
        action="store_true",
        help="write each region's dense row of proposal weights into the report "
        "(M floats per region; at M = 2048 this doubles the run time)",
    )

    grad = sub.add_parser("gradcheck", help="derivatives vs central finite differences")
    grad.set_defaults(func=_cmd_gradcheck)
    grad.add_argument("--m", type=int, default=5)
    grad.add_argument("--k", type=int, default=4)
    grad.add_argument("--tau", type=float, default=1.0)
    grad.add_argument("--iters", type=int, default=10)
    grad.add_argument("--trials", type=int, default=25)
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--fd-step", type=float, default=1e-5)
    grad.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="normalized error bound (default: from the tau scaling table)",
    )
    grad.add_argument("--lambda-kl", type=float, default=0.5)
    grad.add_argument("--output", type=Path, default=None)

    conv = sub.add_parser("convergence", help="contraction and refinement checks")
    conv.set_defaults(func=_cmd_convergence)
    conv.add_argument("--taus", type=_parse_taus, default=(0.5, 1.0, 2.0))
    conv.add_argument("--trials", type=int, default=20)
    conv.add_argument("--m-max", type=int, default=10)
    conv.add_argument("--k-max", type=int, default=6)
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--output", type=Path, default=None)

    bench = sub.add_parser("bench", help="wall-clock comparison on synthetic scenes")
    bench.set_defaults(func=_cmd_bench)
    bench.add_argument("--m", type=int, default=256)
    bench.add_argument("--k", type=int, default=16)
    bench.add_argument("--iters", type=int, default=10)
    bench.add_argument("--tau", type=float, default=0.1)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--output", type=Path, default=None)
    return parser


def _emit(report: dict, output: Path | None) -> None:
    text = formats.dumps_canonical(report)
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        num_regions=args.regions,
        proposals_per_region=args.per_region,
        jitter=args.jitter,
        score_noise=args.score_noise,
        feature_dim=args.feature_dim,
        image_width=args.width,
        image_height=args.height,
        seed=args.seed,
    )
    pset, gt = synth_generate(cfg)
    formats.write_proposal_file(args.output, pset)
    gt_path = args.gt_output or args.output.with_suffix(args.output.suffix + ".gt.jsonl")
    formats.write_ground_truth(gt_path, gt)
    print(f"wrote {len(pset)} proposals to {args.output} and {len(gt.boxes)} regions to {gt_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_run(args) -> int:
    pset = formats.read_proposal_file(args.input)
    violations = validate(pset)
    if violations:
        for v in violations:
            print(f"invalid input: {v}", file=sys.stderr)
        return EXIT_USAGE
    gt = formats.read_ground_truth(args.ground_truth) if args.ground_truth else None
    tau_h = args.entropy_threshold * (math.log(2.0) if args.entropy_unit == "bits" else 1.0)
    cfg = PipelineConfig(
        sinkhorn=SinkhornParams(tau=args.tau, iters=args.iters, tol=args.tol),
        weights=CostWeights(alpha=args.alpha, beta=args.beta, gamma=args.gamma),
        refine=RefineParams(tau_H=tau_h),
        k=args.k,
        seed=args.seed,
    )
    start = time.perf_counter()
    refined, diag = dnms(pset, gt, cfg)
    elapsed = time.perf_counter() - start
    report = formats.run_report(cfg, refined, diag, source_weights=args.source_weights)
    formats.write_run_report(args.output, report)
    print(
        f"refined {len(pset)} proposals into {len(refined)} regions "
        f"in {elapsed * 1e3:.2f} ms; report: {args.output}",
        file=sys.stderr,
    )
    return EXIT_OK


def _gradcheck_section(check: GradCheckReport) -> dict:
    return {
        "max_error": check.max_error,
        "threshold": check.threshold,
        "passed": check.passed,
        "trials": len(check.trials),
    }


def _cmd_gradcheck(args) -> int:
    # All three checks run at the same sizes, temperature, iterations and step.
    shared = dict(m_max=args.m, k_max=args.k, tau=args.tau, iters=args.iters, fd_step=args.fd_step)
    common = dict(shared, trials=args.trials, threshold=args.threshold)
    matching = gradcheck_matching(seed=args.seed + 1, lambda_kl=args.lambda_kl, **common)
    unrolled = gradcheck_unrolled(seed=args.seed, **common)
    jacobian = jacobian_formula_check(trials=min(args.trials, 20), seed=args.seed + 2, **shared)
    report = {
        "format": "gradcheck-report",
        "version": formats.FORMAT_VERSION,
        "unrolled": _gradcheck_section(unrolled),
        "matching": _gradcheck_section(matching),
        "jacobian_formula": {
            "softmax_max_error": jacobian.softmax_max_error,
            "threshold": jacobian.threshold,
            "passed": jacobian.passed,
            "sinkhorn_gap_reported": jacobian.sinkhorn_gap,
        },
        "fd_step": args.fd_step,
        "tau": args.tau,
        "m": args.m,
        "k": args.k,
        "iters": args.iters,
        "seed": args.seed,
        "lambda_kl": args.lambda_kl,
        "note": unrolled.note,
    }
    _emit(report, args.output)
    print(
        f"unrolled max error {unrolled.max_error:.3e} (threshold {unrolled.threshold:g}); "
        f"matching max error {matching.max_error:.3e}; "
        f"closed-form softmax error {jacobian.softmax_max_error:.3e}; "
        f"closed-form gap vs unrolled {jacobian.sinkhorn_gap:.3e} (reported only)",
        file=sys.stderr,
    )
    if unrolled.note:
        print(f"note: {unrolled.note}", file=sys.stderr)
    ok = unrolled.passed and matching.passed and jacobian.passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_convergence(args) -> int:
    sweep = convergence_sweep(
        taus=args.taus,
        trials=args.trials,
        m_max=args.m_max,
        k_max=args.k_max,
        seed=args.seed,
    )
    report = {
        "format": "convergence-report",
        "version": formats.FORMAT_VERSION,
        "contraction": [asdict(r) for r in sweep.contraction],
        "frank_wolfe": [asdict(r) for r in sweep.frank_wolfe],
        "passed": sweep.passed,
    }
    _emit(report, args.output)
    n_con = sum(r.passed for r in sweep.contraction)
    n_fw = sum(r.passed for r in sweep.frank_wolfe)
    print(
        f"contraction: {n_con}/{len(sweep.contraction)} passed; "
        f"frank-wolfe: {n_fw}/{len(sweep.frank_wolfe)} passed",
        file=sys.stderr,
    )
    return EXIT_OK if sweep.passed else EXIT_CHECK_FAILED


def _cmd_bench(args) -> int:
    for name in ("m", "k", "reps"):
        check_int(name, getattr(args, name), 1)
    regions = min(args.k, args.m)
    per_region = max(1, -(-args.m // regions))
    cfg = SynthConfig(
        num_regions=regions,
        proposals_per_region=per_region,
        jitter=4.0,
        score_noise=0.05,
        seed=args.seed,
    )
    pset, gt = synth_generate(cfg)
    if len(pset) > args.m:
        pset = pset.take(np.arange(args.m))
    pipe_cfg = PipelineConfig(
        sinkhorn=SinkhornParams(tau=args.tau, iters=args.iters),
        k=min(args.k, len(pset)),
        seed=args.seed,
    )

    runs = [compare(pset, gt, pipe_cfg) for _ in range(args.reps)]
    timings = {
        f"{name}_ms": statistics.median(run[name].wall_clock_s * 1e3 for run in runs)
        for name in runs[0]
    }
    report = {
        "format": "bench-report",
        "version": formats.FORMAT_VERSION,
        "config": {
            "m": len(pset),
            "k": pipe_cfg.k,
            "iters": args.iters,
            "tau": args.tau,
            "reps": args.reps,
            "seed": args.seed,
        },
        # Physical measurements: these fields vary run to run by nature.
        "timings_ms": timings,
    }
    _emit(report, args.output)
    print(
        "median ms  dnms: {dnms_ms:.3f}  greedy: {greedy_nms_ms:.3f}  "
        "soft: {soft_nms_ms:.3f}".format(**timings),
        file=sys.stderr,
    )
    return EXIT_OK


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ProposalFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
