"""Every scalar argument follows one rule, and array inputs reject non-finite entries.

A scalar argument must be finite, at least its lower bound (above it where
the bound is strict) and an integer where a count or seed is meant; a
violation raises ``ValueError`` naming the argument.  NaN passes every
ordering check (``nan < 0`` and ``nan <= 0`` are both false), and ``2.5 < 1``
is false too, so without these checks a NaN threshold would run the pipeline
to a silently wrong result and a float size would reach ``range`` or
``np.full`` and fail there with a bare ``TypeError``.  The harnesses check
every argument before their first trial.  A numpy scalar is accepted and
stored as the Python ``int`` or ``float``, so the run report and the proposal
file can echo it.

Array inputs (marginals, simplex vectors, refinement scores, the coupling of
the KL divergence, the Hilbert distance's arguments) are rejected by name
when an entry is not finite, since ``max(0.0, nan)`` would otherwise report a
NaN gap or divergence as 0.0; the KL gradient rejects a total mass too small
to divide by.
"""

import json
import math

import numpy as np
import pytest

from sinkhorn_nms import (
    PipelineConfig,
    SimplexVector,
    SynthConfig,
    cli,
    dnms,
    formats,
    frank_wolfe,
    hungarian_solve,
    kl_divergence,
    lmo_entropy,
    soft_nms,
    synth_generate,
    verification,
)
from sinkhorn_nms.clustering import kmeans
from sinkhorn_nms.cost import CostWeights
from sinkhorn_nms.losses import kl_grad_wrt_assignment
from sinkhorn_nms.refine import RefineParams
from sinkhorn_nms.sinkhorn import (
    Marginals,
    SinkhornParams,
    contraction_rate,
    grad_analytic,
    hilbert_distance,
)

FIELDS = [
    (SinkhornParams, "tau"),
    (SinkhornParams, "tol"),
    (RefineParams, "tau_H"),
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
    word = "positive" if math.isfinite(kwargs[name]) else "finite"
    with pytest.raises(ValueError, match=rf"^{name} must be {word}"):
        check(trials=1, **kwargs)


@pytest.fixture
def no_trials(monkeypatch):
    def trial_must_not_run(*args, **kwargs):
        raise AssertionError("a trial ran with an invalid argument")

    monkeypatch.setattr(verification, "random_matrix", trial_must_not_run)
    monkeypatch.setattr(verification.SplitMix64, "randint", trial_must_not_run)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_matching_check_rejects_bad_lambda_kl(value, no_trials):
    word = "nonnegative" if math.isfinite(value) else "finite"
    with pytest.raises(ValueError, match=rf"^lambda_kl must be {word}, got {value!r}"):
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
@pytest.mark.parametrize("sweep", [verification.contraction_sweep])
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
    word = "positive" if math.isfinite(value) else "finite"
    with pytest.raises(ValueError, match=rf"^tau must be {word}, got {value!r}"):
        call(value)


SCENE, _ = synth_generate(SynthConfig(num_regions=4, proposals_per_region=4, seed=1))


@pytest.mark.parametrize("p", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]])
def test_simplex_vector_rejects_non_finite_entries(p):
    with pytest.raises(ValueError, match=r"^simplex vector entries must be finite"):
        SimplexVector(np.array(p))


@pytest.mark.parametrize("q", [[math.nan, 1.0], [math.inf, 1.0], [0.5, -math.inf]])
@pytest.mark.parametrize("call", [
    lambda q: lmo_entropy(q, RefineParams(tau_H=0.3)),
    lambda q: frank_wolfe(q, RefineParams(tau_H=0.3)),
], ids=["lmo_entropy", "frank_wolfe"])
def test_refinement_rejects_non_finite_scores(call, q):
    with pytest.raises(ValueError, match=r"^q must be finite"):
        call(np.array(q))


@pytest.mark.parametrize("q", [np.array([]), np.array(1.0), np.ones((2, 2))], ids=["empty", "0-d", "2-d"])
@pytest.mark.parametrize("call", [
    lambda q: lmo_entropy(q, RefineParams(tau_H=0.3)),
    lambda q: frank_wolfe(q, RefineParams(tau_H=0.3)),
], ids=["lmo_entropy", "frank_wolfe"])
def test_refinement_rejects_what_is_not_a_vector(call, q):
    with pytest.raises(ValueError, match=r"^q must be a 1-d non-empty vector$"):
        call(q)


@pytest.mark.parametrize("S", [
    [[math.nan, 0.5], [0.5, 0.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[math.inf, 0.0], [0.0, 0.0]],
], ids=["nan", "zero_mass", "inf"])
@pytest.mark.parametrize("call", [kl_divergence, kl_grad_wrt_assignment])
def test_kl_rejects_what_is_not_a_coupling(call, S):
    with pytest.raises(ValueError, match=r"^S must have finite entries and positive total mass"):
        call(np.array(S), hungarian_solve(np.eye(2)))


@pytest.mark.parametrize("call", [kl_divergence, kl_grad_wrt_assignment])
def test_kl_rejects_negative_entries(call):
    # total mass 1: the negative entry alone makes this no coupling
    with pytest.raises(ValueError, match=r"^S must have nonnegative entries, got -0\.5"):
        call(np.array([[-0.5, 1.0], [0.5, 0.0]]), hungarian_solve(np.eye(2)))


def test_kl_grad_rejects_a_total_mass_too_small_to_divide_by():
    # a subnormal total: the divergence is finite, its gradient would overflow
    S = np.full((2, 2), 1e-310)
    assert math.isfinite(kl_divergence(S, hungarian_solve(np.eye(2))))
    with pytest.raises(ValueError, match=r"^S total mass 4e-310 is too small"):
        kl_grad_wrt_assignment(S, hungarian_solve(np.eye(2)))


@pytest.mark.parametrize("P, Q", [
    ([[1.0, math.nan]], [[1.0, 2.0]]),
    ([[1.0, 2.0]], [[math.nan, 2.0]]),
    ([[1.0, math.inf]], [[1.0, 2.0]]),
])
def test_hilbert_distance_rejects_non_finite_entries(P, Q):
    with pytest.raises(ValueError, match=r"^hilbert_distance requires finite, strictly positive"):
        hilbert_distance(np.array(P), np.array(Q))


@pytest.mark.parametrize("value", [2.5, 2.0, math.nan, "3"])
def test_integer_parameters_reject_non_integers(value):
    with pytest.raises(ValueError, match=r"^iters must be an integer"):
        SinkhornParams(iters=value)
    with pytest.raises(ValueError, match=r"^k must be an integer"):
        dnms(SCENE, None, PipelineConfig(k=value))


def test_integer_parameters_accept_numpy_integers():
    assert SinkhornParams(iters=np.int64(3)).iters == 3
    assert dnms(SCENE, None, PipelineConfig(k=np.int64(2)))[1].k == 2


def _report_bytes(cfg):
    refined, diag = dnms(SCENE, None, cfg)
    return formats.dumps_canonical(formats.run_report(cfg, refined, diag)).encode()


@pytest.mark.parametrize("numpy_cfg, python_cfg", [
    (lambda: PipelineConfig(k=np.int64(2), sinkhorn=SinkhornParams(iters=np.int64(5))),
     lambda: PipelineConfig(k=2, sinkhorn=SinkhornParams(iters=5))),
    (lambda: PipelineConfig(k=2, sinkhorn=SinkhornParams(tau=np.float64(0.25))),
     lambda: PipelineConfig(k=2, sinkhorn=SinkhornParams(tau=0.25))),
    (lambda: PipelineConfig(k=2, sinkhorn=SinkhornParams(tau=np.float32(0.25)),
                            weights=CostWeights(alpha=np.float32(2.0)),
                            refine=RefineParams(tau_H=np.float32(0.5))),
     lambda: PipelineConfig(k=2, sinkhorn=SinkhornParams(tau=0.25),
                            weights=CostWeights(alpha=2.0), refine=RefineParams(tau_H=0.5))),
    (lambda: PipelineConfig(k=2, seed=np.int64(3)), lambda: PipelineConfig(k=2, seed=3)),
], ids=["int64_k_and_iters", "float64_tau", "float32_tau_alpha_tau_H", "int64_seed"])
def test_numpy_scalars_in_a_config_give_the_python_report(numpy_cfg, python_cfg):
    # The report echoes the config as JSON, which takes no numpy scalar; the
    # solver mode it reports is a comparison on tau, a numpy bool if tau is one.
    got = _report_bytes(numpy_cfg())
    assert got == _report_bytes(python_cfg())
    assert json.loads(got)["diagnostics"]["log_domain"] is True


@pytest.mark.parametrize("call, message", [
    (lambda: soft_nms(SCENE, math.nan, 0.05), r"^sigma must be finite, got nan"),
    (lambda: soft_nms(SCENE, math.inf, 0.05), r"^sigma must be finite, got inf"),
    (lambda: soft_nms(SCENE, 0.5, math.nan), r"^score_floor must be finite, got nan"),
    (lambda: soft_nms(SCENE, 0.5, -math.inf), r"^score_floor must be finite, got -inf"),
    (lambda: SynthConfig(1, 1, score_noise=math.inf), r"^score_noise must be finite, got inf"),
    (lambda: SynthConfig(1, 1, jitter=math.nan), r"^jitter must be finite, got nan"),
    (lambda: SynthConfig(1, 1, image_width=math.inf), r"^image_width must be finite, got inf"),
    (lambda: SynthConfig(1, 1, image_height=math.nan), r"^image_height must be finite, got nan"),
], ids=["soft_nms_sigma_nan", "soft_nms_sigma_inf", "soft_nms_floor_nan", "soft_nms_floor_-inf",
        "synth_score_noise_inf", "synth_jitter_nan", "synth_width_inf", "synth_height_nan"])
def test_baseline_and_synthesis_parameters_must_be_finite(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda v: SynthConfig(v, 1), "num_regions"),
    (lambda v: SynthConfig(1, v), "proposals_per_region"),
    (lambda v: SynthConfig(1, 1, feature_dim=v), "feature_dim"),
    (lambda v: SynthConfig(1, 1, seed=v), "seed"),
    (lambda v: kmeans(np.eye(3), v, 0), "K"),
    (lambda v: kmeans(np.eye(3), 2, v), "seed"),
    (lambda v: Marginals.uniform(v, 3), "M"),
    (lambda v: Marginals.uniform(3, v), "K"),
    (lambda v: verification.gradcheck_unrolled(trials=v), "trials"),
    (lambda v: verification.gradcheck_matching(trials=1, m_max=v), "m_max"),
    (lambda v: verification.jacobian_formula_check(trials=1, k_max=v), "k_max"),
    (lambda v: verification.contraction_sweep(trials=v), "trials"),
    (lambda v: verification.contraction_sweep(trials=1, m_max=v), "m_max"),
    (lambda v: verification.frank_wolfe_sweep(trials=v), "trials"),
], ids=["synth_num_regions", "synth_per_region", "synth_feature_dim", "synth_seed",
        "kmeans_K", "kmeans_seed", "uniform_M", "uniform_K", "gradcheck_trials",
        "gradcheck_m_max", "jacobian_k_max", "contraction_trials", "contraction_m_max",
        "frank_wolfe_trials"])
@pytest.mark.parametrize("value", [3.0, 2.5, math.nan])
def test_integer_arguments_reject_floats_by_name(call, name, value, no_trials):
    # a float used to reach range() or np.full and raise a bare TypeError there
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}"):
        call(value)


@pytest.mark.parametrize("M, K, name", [(0, 3, "M"), (3, 0, "K"), (-1, 2, "M")])
def test_uniform_marginals_reject_empty_sizes(M, K, name):
    # 1.0 / 0 raised ZeroDivisionError
    with pytest.raises(ValueError, match=rf"^{name} must be >= 1"):
        Marginals.uniform(M, K)


def test_synthesis_sizes_are_stored_as_python_scalars():
    cfg = SynthConfig(np.int64(2), np.int64(3), jitter=np.float32(1.5), feature_dim=np.int64(4),
                      image_width=np.float32(640), seed=np.uint64(7))
    values = [cfg.num_regions, cfg.proposals_per_region, cfg.jitter, cfg.feature_dim,
              cfg.image_width, cfg.seed]
    assert [type(v) for v in values] == [int, int, float, int, float, int]
    assert values == [2, 3, 1.5, 4, 640.0, 7]
