"""Thread-safety smoke tests: pure operations agree under concurrent callers."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from sinkhorn_nms import (
    Marginals,
    PipelineConfig,
    SinkhornParams,
    SynthConfig,
    dnms,
    solve,
    synth_generate,
)
from sinkhorn_nms.formats import dumps_canonical, run_report
from sinkhorn_nms.rng import SplitMix64
from sinkhorn_nms.verification import random_matrix


def test_concurrent_solves_match_serial():
    rng = SplitMix64(71)
    problems = []
    for _ in range(12):
        m, k = 3 + rng.randint(6), 2 + rng.randint(4)
        problems.append((random_matrix(rng, m, k), Marginals.uniform(m, k)))
    params = SinkhornParams(tau=0.5, iters=2000, tol=1e-11)
    serial = [solve(C, params, marg).matrix for C, marg in problems]
    with ThreadPoolExecutor(max_workers=6) as pool:
        threaded = list(pool.map(lambda p: solve(p[0], params, p[1]).matrix, problems))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_concurrent_pipeline_runs_match_serial():
    scenes = [
        synth_generate(SynthConfig(num_regions=3, proposals_per_region=4,
                                   jitter=3.0, score_noise=0.1, seed=seed))
        for seed in range(6)
    ]
    cfg = PipelineConfig(k=3, seed=1)

    def render(scene):
        pset, gt = scene
        refined, diag = dnms(pset, gt, cfg)
        return dumps_canonical(run_report(cfg, refined, diag, source_weights=True))

    serial = [render(s) for s in scenes]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(render, scenes))
    assert serial == threaded
