"""Parameter dataclasses reject non-finite values by field name.

NaN passes every ordering check (``nan < 0`` and ``nan <= 0`` are both
false), so without an explicit finiteness check a NaN entropy threshold or
tolerance would run the pipeline and return silently wrong results.  The
gradient-check harnesses likewise reject a finite-difference step that is
not finite and positive, a non-finite pass threshold, a KL weight that is not
finite and nonnegative, and a size bound below 2, before any trial; the
convergence sweeps reject a temperature that is not finite and positive
before the first trial at any temperature.  The functions called directly
with a temperature, the marginals and ``estimate_k`` check their arguments
the same way.  A simplex vector, the refinement scores and the coupling of
the KL divergence are rejected by name when an entry is not finite, since
``max(0.0, nan)`` would otherwise report a NaN gap or divergence as 0.0.
"""

import math

import numpy as np
import pytest

from sinkhorn_nms import (
    AdaptiveKParams,
    PipelineConfig,
    SimplexVector,
    SynthConfig,
    cli,
    dnms,
    duality_gap,
    estimate_k,
    frank_wolfe,
    hungarian_solve,
    kl_divergence,
    lmo_entropy,
    synth_generate,
    verification,
)
from sinkhorn_nms.cost import CostWeights
from sinkhorn_nms.losses import kl_grad_wrt_assignment
from sinkhorn_nms.refine import RefineParams
from sinkhorn_nms.sinkhorn import (
    Marginals,
    SinkhornParams,
    contraction_rate,
    grad_analytic,
)

FIELDS = [
    (SinkhornParams, "tau"),
    (SinkhornParams, "tol"),
    (RefineParams, "tau_H"),
    (CostWeights, "alpha"),
    (CostWeights, "beta"),
    (CostWeights, "gamma"),
    (AdaptiveKParams, "score_floor"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, name", FIELDS)
def test_non_finite_field_rejected(cls, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        cls(**{name: value})


@pytest.mark.parametrize("kwargs, message", [
    ({"k_max": 0}, r"^k_max must be >= 1, got 0"),
    ({"k_max": -5}, r"^k_max must be >= 1, got -5"),
    ({"iou_thresh": 0.0}, r"^iou_thresh must lie strictly between 0 and 1"),
    ({"iou_thresh": 1.0}, r"^iou_thresh must lie strictly between 0 and 1"),
    ({"iou_thresh": math.nan}, r"^iou_thresh must lie strictly between 0 and 1"),
    ({"iou_thresh": math.inf}, r"^iou_thresh must lie strictly between 0 and 1"),
])
def test_adaptive_k_params_rejected_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=message):
        AdaptiveKParams(**kwargs)


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


@pytest.fixture
def no_trials(monkeypatch):
    def trial_must_not_run(*args, **kwargs):
        raise AssertionError("a trial ran with an invalid argument")

    monkeypatch.setattr(verification, "random_matrix", trial_must_not_run)
    monkeypatch.setattr(verification.SplitMix64, "randint", trial_must_not_run)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_matching_check_rejects_bad_lambda_kl(value, no_trials):
    with pytest.raises(ValueError, match=r"^lambda_kl must be finite"):
        verification.gradcheck_matching(trials=1, lambda_kl=value)


@pytest.mark.parametrize("kwargs, name", [
    ({"m_max": 1}, "m_max"),
    ({"m_max": 0}, "m_max"),
    ({"k_max": 1}, "k_max"),
    ({"k_max": -3}, "k_max"),
])
@pytest.mark.parametrize("check", [
    verification.gradcheck_unrolled,
    verification.gradcheck_matching,
    verification.jacobian_formula_check,
    verification.contraction_sweep,
    verification.convergence_sweep,
])
def test_harness_rejects_sizes_below_two(check, kwargs, name, no_trials):
    # Instances are at least 2 x 2, so a smaller bound used to be clamped.
    with pytest.raises(ValueError, match=rf"^{name} must be >= 2"):
        check(trials=1, **kwargs)


@pytest.mark.parametrize("taus, message", [
    ((0.5, 1.0, -1.0), r"^tau must be positive, got -1.0"),
    ((0.5, 0.0), r"^tau must be positive, got 0.0"),
    ((0.5, math.nan), r"^tau must be finite, got nan"),
    ((math.inf, 0.5), r"^tau must be finite, got inf"),
])
@pytest.mark.parametrize("sweep", [verification.contraction_sweep, verification.convergence_sweep])
def test_sweep_rejects_bad_tau_before_any_trial(sweep, taus, message, no_trials):
    with pytest.raises(ValueError, match=message):
        sweep(taus=taus, trials=5)


def test_convergence_command_rejects_bad_tau_before_any_trial(no_trials, tmp_path, capsys):
    out = tmp_path / "c.json"
    argv = ["convergence", "--taus", "0.5,1.0,-1", "--trials", "5", "--output", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "tau must be positive, got -1.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("a, b, name", [
    ([0.5, math.nan], [1.0], "a"),
    ([1.0], [math.nan], "b"),
    ([0.5, math.inf], [1.0], "a"),
    ([1.0], [0.5, -math.inf], "b"),
])
def test_marginals_reject_non_finite_entries(a, b, name):
    with pytest.raises(ValueError, match=rf"^marginal {name} must be finite"):
        Marginals(np.array(a), np.array(b))


BAD_POSITIVE = [math.nan, math.inf, -math.inf, 0.0, -1.0]
UNIFORM = np.full((2, 2), 0.25)


@pytest.mark.parametrize("value", BAD_POSITIVE)
@pytest.mark.parametrize("call", [
    lambda tau: contraction_rate(np.array([[0.0, 1.0], [1.0, 0.0]]), tau),
    lambda tau: grad_analytic(UNIFORM, tau, np.ones((2, 2))),
])
def test_direct_calls_reject_bad_tau(call, value):
    with pytest.raises(ValueError, match=r"^tau must be finite and positive"):
        call(value)


SCENE, _ = synth_generate(SynthConfig(num_regions=4, proposals_per_region=4, seed=1))


@pytest.mark.parametrize("kwargs, message", [
    ({"score_floor": math.nan}, r"^score_floor must be finite, got nan"),
    ({"score_floor": -math.inf}, r"^score_floor must be finite, got -inf"),
    ({"k_max": 0}, r"^k_max must be >= 1, got 0"),
    ({"k_max": -5}, r"^k_max must be >= 1, got -5"),
    ({"iou_thresh": math.nan}, r"^iou_thresh must lie strictly between 0 and 1"),
    ({"iou_thresh": 1.0}, r"^iou_thresh must lie strictly between 0 and 1"),
])
def test_estimate_k_applies_the_adaptive_k_rules(kwargs, message):
    with pytest.raises(ValueError, match=message):
        AdaptiveKParams(**kwargs)
    with pytest.raises(ValueError, match=message):
        estimate_k(SCENE, **kwargs)


@pytest.mark.parametrize("p", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]])
def test_simplex_vector_rejects_non_finite_entries(p):
    with pytest.raises(ValueError, match=r"^simplex vector entries must be finite"):
        SimplexVector(np.array(p))


@pytest.mark.parametrize("q", [[math.nan, 1.0], [math.inf, 1.0], [0.5, -math.inf]])
@pytest.mark.parametrize("call", [
    lambda q: lmo_entropy(q, RefineParams(tau_H=0.3)),
    lambda q: frank_wolfe(q, RefineParams(tau_H=0.3)),
    lambda q: duality_gap(SimplexVector(np.array([0.5, 0.5])), q, RefineParams(tau_H=0.3)),
], ids=["lmo_entropy", "frank_wolfe", "duality_gap"])
def test_refinement_rejects_non_finite_scores(call, q):
    with pytest.raises(ValueError, match=r"^q must be finite"):
        call(np.array(q))


@pytest.mark.parametrize("S", [
    [[math.nan, 0.5], [0.5, 0.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[math.inf, 0.0], [0.0, 0.0]],
], ids=["nan", "zero_mass", "inf"])
@pytest.mark.parametrize("call", [kl_divergence, kl_grad_wrt_assignment])
def test_kl_rejects_what_is_not_a_coupling(call, S):
    with pytest.raises(ValueError, match=r"^S must have finite entries and positive total mass"):
        call(np.array(S), hungarian_solve(np.eye(2)))
