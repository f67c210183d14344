"""Parameter dataclasses reject non-finite values by field name.

NaN passes every ordering check (``nan < 0`` and ``nan <= 0`` are both
false), so without an explicit finiteness check a NaN entropy threshold or
tolerance would run the pipeline and return silently wrong results.  The
gradient-check harnesses likewise reject a finite-difference step that is
not finite and positive, and a non-finite pass threshold, before any trial.
"""

import math

import pytest

from sinkhorn_nms import PipelineConfig, SynthConfig, dnms, synth_generate, verification
from sinkhorn_nms.cost import CostWeights
from sinkhorn_nms.refine import RefineParams
from sinkhorn_nms.sinkhorn import SinkhornParams

FIELDS = [
    (SinkhornParams, "tau"),
    (SinkhornParams, "tol"),
    (RefineParams, "tau_H"),
    (RefineParams, "delta"),
    (RefineParams, "lambda_min"),
    (RefineParams, "lambda_max"),
    (RefineParams, "bisect_eps"),
    (CostWeights, "alpha"),
    (CostWeights, "beta"),
    (CostWeights, "gamma"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", FIELDS)
def test_non_finite_field_rejected(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        cls(**{name: value})


def test_nan_entropy_threshold_cannot_reach_the_pipeline():
    pset, _ = synth_generate(SynthConfig(num_regions=3, proposals_per_region=4, seed=1))
    with pytest.raises(ValueError, match="tau_H"):
        dnms(pset, None, PipelineConfig(k=3, refine=RefineParams(tau_H=float("nan"))))


@pytest.mark.parametrize("kwargs, name", [
    ({"fd_step": 0.0}, "fd_step"),
    ({"fd_step": -1e-5}, "fd_step"),
    ({"fd_step": math.nan}, "fd_step"),
    ({"fd_step": math.inf}, "fd_step"),
    ({"threshold": math.nan}, "threshold"),
    ({"threshold": math.inf}, "threshold"),
    ({"threshold": -math.inf}, "threshold"),
])
@pytest.mark.parametrize("check", [
    verification.gradcheck_unrolled,
    verification.gradcheck_matching,
    verification.jacobian_formula_check,
])
def test_gradient_check_rejects_bad_step_or_threshold(check, kwargs, name, monkeypatch):
    def trial_must_not_run(*args, **kwargs):
        raise AssertionError("a trial ran with an invalid argument")

    monkeypatch.setattr(verification, "random_matrix", trial_must_not_run)
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        check(trials=1, **kwargs)
