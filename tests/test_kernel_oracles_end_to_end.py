"""Whole run reports with the rewritten ``dnms`` kernels and with their oracles.

Each scene runs ``dnms`` twice: once as the library stands, and once with
every rewritten kernel patched back to the expression it replaced
(``kernel_oracles``, and for k-means the reference ``kmeans``, which takes
each member mean with its own ``mean`` and always makes the final pass).
The canonical report bytes must be identical.  The scenes are the
stage-grid sizes 256x16, 1024x32 and 2048x64 (synth seed 1, jitter 4, score
noise 0.05, K fixed to the region count, 16 feature dimensions at 2048x64)
and the adaptive-K 2048-proposal scene of 32 regions x 64.  Each report
carries the ``source_weights`` rows, with and without a ground truth: with
one, the refinement scores the boxes against it.
"""

from __future__ import annotations

import pytest

import kernel_oracles
from sinkhorn_nms import (
    PipelineConfig,
    SynthConfig,
    clustering,
    cost,
    formats,
    pipeline,
    sinkhorn,
    synth_generate,
)
from test_kmeans_reference import kmeans as reference_kmeans

SCENES = {
    "256x16": (16, 16, 8, 16),
    "1024x32": (32, 32, 8, 32),
    "2048x64": (64, 32, 16, 64),
    "2048-adaptive": (32, 64, 8, None),
}


def report_bytes(pset, gt, cfg) -> str:
    refined, diag = pipeline.dnms(pset, gt, cfg)
    return formats.dumps_canonical(formats.run_report(cfg, refined, diag, source_weights=True))


def patch_in_oracles(monkeypatch) -> dict[str, int]:
    """Patch every rewritten kernel back to its oracle; count the oracle calls."""
    calls: dict[str, int] = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    kappa = counted("kappa", kernel_oracles.kappa)
    for module in (cost, sinkhorn, pipeline):
        monkeypatch.setattr(module, "kappa", kappa)
    build_cost = counted("build_cost", kernel_oracles.build_cost)
    for module in (cost, pipeline):
        monkeypatch.setattr(module, "build_cost", build_cost)
    monkeypatch.setattr(clustering, "kmeans", counted("kmeans", reference_kmeans))
    monkeypatch.setattr(sinkhorn, "_lse", counted("lse", kernel_oracles.lse))
    monkeypatch.setattr(pipeline, "dnms", counted("dnms", kernel_oracles.dnms))
    return calls


@pytest.mark.parametrize("with_gt", [False, True], ids=["no-gt", "gt"])
@pytest.mark.parametrize("scene", SCENES)
def test_report_bytes_equal_with_the_oracles_patched_in(scene, with_gt, monkeypatch):
    regions, per_region, feature_dim, k = SCENES[scene]
    pset, gt = synth_generate(SynthConfig(
        num_regions=regions, proposals_per_region=per_region, jitter=4.0,
        score_noise=0.05, feature_dim=feature_dim, seed=1,
    ))
    gt = gt if with_gt else None
    cfg = PipelineConfig(k=k)
    library = report_bytes(pset, gt, cfg)
    calls = patch_in_oracles(monkeypatch)
    assert report_bytes(pset, gt, cfg) == library
    assert calls["dnms"] == calls["build_cost"] == calls["kmeans"] == 1
    assert calls["kappa"] == 2 and calls["lse"] == 2
