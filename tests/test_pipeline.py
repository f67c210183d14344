import numpy as np
import pytest

from sinkhorn_nms import (
    Box,
    Marginals,
    Mask,
    PipelineConfig,
    ProposalArrays,
    ProposalSet,
    RefinedSet,
    RefineParams,
    SinkhornParams,
    SynthConfig,
    aggregate,
    clustering,
    compare,
    dnms,
    greedy_nms,
    soft_nms,
    solve,
    synth_generate,
)
from sinkhorn_nms import formats, pipeline
from sinkhorn_nms.formats import run_report
from sinkhorn_nms.rng import SplitMix64
from sinkhorn_nms.verification import random_matrix
from test_kmeans_reference import kmeans as reference_kmeans

RECOVERY_CONFIG = PipelineConfig(
    sinkhorn=SinkhornParams(tau=0.01, iters=500, tol=1e-12),
    k=3,
)


def two_proposal_set(scores=(0.8, 0.6), masks=None):
    arrays = ProposalArrays(ids=np.arange(2), scores=np.array(scores, dtype=float),
                            boxes=np.array([[0.0, 0.0, 2.0, 2.0], [2.0, 0.0, 4.0, 2.0]]),
                            features=np.eye(2), masks=masks)
    return ProposalSet(proposals=arrays, image_width=10.0, image_height=10.0, feature_dim=2)


class TestAggregate:
    def test_one_hot_column_reproduces_proposal(self):
        pset = two_proposal_set()
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        refined = aggregate(S, pset)
        assert refined[0].box == pset.proposals[1].box
        assert refined[0].score == pset.proposals[1].score
        assert np.array_equal(refined[0].feature, pset.proposals[1].feature)
        assert refined[1].box == pset.proposals[0].box

    def test_equal_weights_average(self):
        pset = two_proposal_set(scores=(0.8, 0.6))
        S = np.array([[0.5], [0.5]])
        refined = aggregate(S, pset)
        assert refined[0].box == Box(1.0, 0.0, 3.0, 2.0)
        assert refined[0].score == pytest.approx(0.7)

    def test_weighted_score(self):
        pset = two_proposal_set(scores=(1.0, 0.0))
        S = np.array([[0.75], [0.25]])
        refined = aggregate(S, pset)
        assert refined[0].score == pytest.approx(0.75)
        assert np.allclose(refined[0].source_weights, [0.75, 0.25])

    def test_weights_renormalized_per_column(self):
        pset = two_proposal_set(scores=(1.0, 0.0))
        S = np.array([[0.3], [0.1]])  # column sums to 0.4
        refined = aggregate(S, pset)
        assert refined[0].score == pytest.approx(0.75)

    def test_envelope_invariant(self):
        rng = SplitMix64(61)
        pset, _ = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=4, jitter=6.0, score_noise=0.3, seed=2)
        )
        S = random_matrix(rng, len(pset), 3, 0.01, 1.0)
        boxes = pset.proposals.boxes
        scores = pset.proposals.scores
        for r in aggregate(S, pset):
            arr = r.box.as_array()
            assert (arr >= boxes.min(axis=0) - 1e-12).all()
            assert (arr <= boxes.max(axis=0) + 1e-12).all()
            assert scores.min() <= r.score <= scores.max()

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="^assignment has 3 rows but the set has 2 proposals$"):
            aggregate(np.full((3, 1), 1 / 3), two_proposal_set())

    def test_zero_column_raises(self):
        pset = two_proposal_set()
        with pytest.raises(ValueError, match="empty latent region"):
            aggregate(np.array([[0.0, 1.0], [0.0, 0.0]]), pset)

    def test_mask_aggregation_weighted_mean(self):
        m0 = Mask(np.array([[1.0, 0.0]]))
        m1 = Mask(np.array([[0.0, 1.0]]))
        pset = two_proposal_set(masks=(m0, m1))
        refined = aggregate(np.array([[0.75], [0.25]]), pset)
        assert np.allclose(refined[0].mask.values, [[0.75, 0.25]])

    def test_mask_absent_when_no_sources_have_masks(self):
        pset = two_proposal_set()
        refined = aggregate(np.array([[0.5], [0.5]]), pset)
        assert refined[0].mask is None

    def test_masks_skip_missing_and_renormalize(self):
        m0 = Mask(np.array([[1.0, 0.0]]))
        pset = two_proposal_set(masks=(m0, None))
        refined = aggregate(np.array([[0.5], [0.5]]), pset)
        assert np.allclose(refined[0].mask.values, m0.values)

    def test_mismatched_mask_grids_raise(self):
        m0 = Mask(np.array([[1.0, 0.0]]))
        m1 = Mask(np.array([[1.0], [0.0]]))
        pset = two_proposal_set(masks=(m0, m1))
        with pytest.raises(ValueError, match="common grid"):
            aggregate(np.array([[0.5], [0.5]]), pset)


def reversed_box_set():
    # every input box has x1 > x2, so the refined box has its corners out of order
    arrays = ProposalArrays(ids=np.arange(2), scores=np.array([0.8, 0.6]),
                            boxes=np.array([[10.0, 0.0, 0.0, 10.0], [12.0, 0.0, 2.0, 10.0]]),
                            features=np.eye(2))
    return ProposalSet(proposals=arrays, image_width=20.0, image_height=20.0, feature_dim=2)


def scaled_features_set(scale):
    pset, _ = synth_generate(SynthConfig(num_regions=3, proposals_per_region=4, seed=1))
    a = pset.proposals
    return ProposalSet(ProposalArrays(a.ids, a.scores, a.boxes, a.features * scale),
                       pset.image_width, pset.image_height, pset.feature_dim)


class TestRefinedSet:
    def refined(self, gt=True):
        pset, truth = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=4, jitter=3.0, score_noise=0.1, seed=4)
        )
        m = Mask(np.array([[0.25, 1.0]]))
        pset = ProposalSet(ProposalArrays(pset.proposals.ids, pset.proposals.scores,
                                          pset.proposals.boxes, pset.proposals.features,
                                          masks=(m,) + (None,) * (len(pset) - 1)),
                           pset.image_width, pset.image_height, pset.feature_dim)
        return dnms(pset, truth if gt else None, PipelineConfig(k=3))[0]

    @pytest.mark.parametrize("gt", [True, False], ids=["gt", "no-gt"])
    def test_rows_equal_the_columns_bit_for_bit(self, gt):
        refined = self.refined(gt)
        assert isinstance(refined, RefinedSet) and len(refined) == 3
        for k in (0, 1, 2, -1, -3):
            r = refined[k]
            assert type(r.score) is float and type(r.probability) is float
            assert r.box.as_array().tobytes() == refined.boxes[k].tobytes()
            assert r.score.hex() == float(refined.scores[k]).hex()
            assert r.feature.tobytes() == refined.features[k].tobytes()
            assert r.source_weights.tobytes() == refined.source_weights[k].tobytes()
            assert r.probability.hex() == float(refined.probabilities[k]).hex()
            assert r.mask is refined.masks[k]
        assert sum(r.mask is not None for r in refined) >= 1
        assert [r.score for r in refined] == refined.scores.tolist()
        assert [r.score for r in refined[1::-1]] == refined.scores[1::-1].tolist()
        assert refined[0] is not refined[0]  # a new row per read

    @pytest.mark.parametrize("k", [3, -4, 10])
    def test_index_past_the_end_raises(self, k):
        with pytest.raises(IndexError):
            self.refined()[k]

    def test_probability_unset_by_aggregate_and_set_by_dnms(self):
        refined = aggregate(np.array([[0.5, 0.5], [0.5, 0.5]]), two_proposal_set())
        assert refined.probabilities is None
        assert [r.probability for r in refined] == [None, None]
        out, _ = dnms(two_proposal_set(), None, PipelineConfig(k=2))
        assert all(0.0 <= r.probability <= 1.0 for r in out)
        assert out.probabilities.sum() == pytest.approx(1.0)

    def test_zero_regions_give_an_empty_set(self):
        refined = aggregate(np.empty((2, 0)), two_proposal_set())
        assert len(refined) == 0 and list(refined) == []
        assert refined.boxes.shape == (0, 4) and refined.source_weights.shape == (0, 2)
        empty = two_proposal_set().take(np.arange(0))
        assert len(aggregate(np.empty((0, 0)), empty)) == 0

    def test_corners_out_of_order_raise_inside_aggregate(self):
        with pytest.raises(ValueError, match=r"^box corners out of order: \(11\.0, 0\.0, 1\.0, 10\.0\)$"):
            aggregate(np.array([[0.5], [0.5]]), reversed_box_set())

    def test_corners_out_of_order_raise_inside_dnms(self):
        with pytest.raises(ValueError, match=r"^box corners out of order: \(11\.0, 0\.0, 1\.0, 10\.0\)$"):
            dnms(reversed_box_set(), None, PipelineConfig(k=1))

    def test_non_finite_box_raises_inside_aggregate(self):
        pset = two_proposal_set()
        a = pset.proposals
        boxes = a.boxes.copy()
        boxes[1, 2] = np.inf
        pset = ProposalSet(ProposalArrays(a.ids, a.scores, boxes, a.features), 10.0, 10.0, 2)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^box coordinates must be finite"):
            aggregate(np.array([[1.0, 0.0], [0.0, 1.0]]), pset)


class TestDnms:
    def test_calls_pipeline_aggregate_once(self, monkeypatch):
        calls = []

        def counted(S, pset):
            calls.append(len(pset))
            return aggregate(S, pset)

        monkeypatch.setattr(pipeline, "aggregate", counted)
        pset, gt = synth_generate(SynthConfig(num_regions=3, proposals_per_region=4, seed=2))
        for truth in (gt, None):
            calls.clear()
            dnms(pset, truth, PipelineConfig(k=3))
            assert calls == [len(pset)]

    def test_features_just_below_the_kmeans_bound_run_as_before(self, monkeypatch):
        pset, cfg = scaled_features_set(1e153), PipelineConfig(k=3)
        library = formats.dumps_canonical(run_report(cfg, *dnms(pset, None, cfg), source_weights=True))
        monkeypatch.setattr(clustering, "kmeans", reference_kmeans)
        oracle = formats.dumps_canonical(run_report(cfg, *dnms(pset, None, cfg), source_weights=True))
        assert library == oracle

    def test_features_past_the_kmeans_bound_raise_by_name(self):
        # under the warning rule an overflow on the way would fail with a RuntimeWarning
        with pytest.raises(ValueError, match="^points too far apart: a sum of 12 squared distances"):
            dnms(scaled_features_set(1e154), None, PipelineConfig(k=3))

    def test_zero_jitter_recovery(self):
        for seed in (0, 1, 2):
            pset, gt = synth_generate(
                SynthConfig(num_regions=3, proposals_per_region=5, jitter=0.0,
                            score_noise=0.0, seed=seed)
            )
            refined, diag = dnms(pset, gt, RECOVERY_CONFIG)
            assert diag.k == 3
            assert len(refined) == 3
            gt_sorted = sorted((b.x1, b.y1, b.x2, b.y2) for b in gt.boxes)
            got_sorted = sorted(r.box.as_array().tolist() for r in refined)
            for want, got in zip(gt_sorted, got_sorted):
                assert np.allclose(want, got, atol=1e-4)

    def test_single_proposal_identity(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=1, proposals_per_region=1, jitter=0.0,
                        score_noise=0.0, seed=5)
        )
        refined, diag = dnms(pset, gt, PipelineConfig(k=1))
        assert diag.k == 1
        assert refined[0].box == pset.proposals[0].box
        assert refined[0].score == pset.proposals[0].score
        assert refined[0].probability == 1.0

    def test_deterministic(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=4, jitter=4.0,
                        score_noise=0.1, seed=9)
        )
        cfg = PipelineConfig(k=3)
        r1, d1 = dnms(pset, gt, cfg)
        r2, d2 = dnms(pset, gt, cfg)
        assert run_report(cfg, r1, d1, source_weights=True) == run_report(
            cfg, r2, d2, source_weights=True
        )

    def test_output_count_equals_k(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=4, proposals_per_region=3, jitter=3.0, seed=10)
        )
        for k in (1, 2, 4):
            refined, diag = dnms(pset, gt, PipelineConfig(k=k))
            assert len(refined) == k == diag.k

    def test_adaptive_k(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=5, jitter=0.0, seed=12)
        )
        refined, diag = dnms(pset, gt, PipelineConfig(k=None))
        assert diag.k == 3
        assert len(refined) == 3

    def test_inference_mode_without_ground_truth(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=4, jitter=3.0,
                        score_noise=0.1, seed=13)
        )
        refined, diag = dnms(pset, None, PipelineConfig(k=2))
        probs = np.array([r.probability for r in refined])
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_probabilities_form_feasible_simplex(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=5, jitter=5.0,
                        score_noise=0.2, seed=14)
        )
        cfg = PipelineConfig(k=3, refine=RefineParams(tau_H=0.6))
        refined, diag = dnms(pset, gt, cfg)
        probs = np.array([r.probability for r in refined])
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        from sinkhorn_nms import entropy

        assert entropy(probs) >= 0.6 - 1e-6

    def test_empty_set_raises(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=1, seed=0))
        empty = pset.take(np.arange(0))
        with pytest.raises(ValueError, match="no proposals"):
            dnms(empty, None, PipelineConfig(k=1))

    def test_diagnostics_fields(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=3, jitter=2.0, seed=15)
        )
        _, diag = dnms(pset, gt, PipelineConfig(k=2))
        assert diag.kappa >= 0.0
        assert 0.0 <= diag.rate_bound < 1.0
        assert len(diag.marginal_violations) == diag.sinkhorn_iterations
        assert diag.fw_iterations >= 1

    def test_converged_in_one_iteration_has_no_observed_rate(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=3, jitter=2.0, seed=15)
        )
        _, diag = dnms(pset, gt, PipelineConfig(k=2))
        assert diag.converged and diag.sinkhorn_iterations == 1
        assert diag.observed_rate is None

    def test_budget_stop_reports_unconverged_and_observed_rate(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=8, proposals_per_region=16, jitter=4.0,
                        score_noise=0.05, seed=3)
        )
        cfg = PipelineConfig(sinkhorn=SinkhornParams(iters=4), k=8)
        _, diag = dnms(pset, gt, cfg)
        v = diag.marginal_violations
        assert diag.sinkhorn_iterations == 4 and v[-1] >= cfg.sinkhorn.tol
        assert diag.converged is False
        assert diag.observed_rate == v[-1] / v[-2]
        assert 0.0 < diag.observed_rate < 1.0

    def test_low_temperature_matches_hungarian_selection(self):
        # square scenario with one proposal per region: the soft argmax per
        # column must agree with the discrete matching
        from sinkhorn_nms import build_cost, hungarian_solve, init_centroids
        from sinkhorn_nms.cost import CostWeights

        pset, gt = synth_generate(
            SynthConfig(num_regions=4, proposals_per_region=1, jitter=2.0,
                        score_noise=0.1, seed=16)
        )
        cents = init_centroids(pset, 4, seed=0)
        C = build_cost(pset, cents, CostWeights())
        S = solve(C, SinkhornParams(tau=0.01, iters=500, tol=1e-12), Marginals.uniform(4, 4))
        assignment = hungarian_solve(C)
        for k in range(4):
            j = int(S.matrix[:, k].argmax())
            assert S.matrix[j, k] / S.matrix[:, k].sum() >= 0.99
            assert (j, k) in assignment.pairs


class TestGreedyNms:
    def test_fixture_threshold_05(self, three_box_set):
        kept = greedy_nms(three_box_set, 0.5)
        assert [p.id for p in kept] == [0, 2]

    def test_fixture_threshold_07(self, three_box_set):
        kept = greedy_nms(three_box_set, 0.7)
        assert [p.id for p in kept] == [0, 1, 2]

    def test_iou_equal_to_threshold_not_suppressed(self, three_box_set):
        # B overlaps A at IoU exactly 0.6; suppression needs a strictly larger IoU
        kept = greedy_nms(three_box_set, 0.6)
        assert [p.id for p in kept] == [0, 1, 2]

    def test_single_proposal(self, three_box_set):
        single = three_box_set.take(np.arange(1))
        kept = greedy_nms(single, 0.5)
        assert [p.id for p in kept] == [0]

    def test_subset_of_input(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=5, jitter=4.0,
                        score_noise=0.2, seed=17)
        )
        kept = greedy_nms(pset, 0.4)
        ids = {p.id for p in pset}
        assert all(p.id in ids for p in kept)
        assert len(kept) <= len(pset)
        # each survivor is its input row, bit for bit
        originals = {p.id: p for p in pset}
        for p in kept:
            o = originals[p.id]
            assert p.score.hex() == o.score.hex() and p.mask is o.mask
            assert p.box.as_array().tobytes() == o.box.as_array().tobytes()
            assert p.feature.tobytes() == o.feature.tobytes()

    def test_tie_broken_by_lower_id(self, three_box_set):
        tied = three_box_set.take(np.arange(3), scores=np.full(3, 0.5))
        kept = greedy_nms(tied, 0.5)
        assert kept.proposals[0].id == 0

    def test_rejects_bad_threshold(self, three_box_set):
        with pytest.raises(ValueError):
            greedy_nms(three_box_set, 0.0)
        with pytest.raises(ValueError):
            greedy_nms(three_box_set, 1.0)


class TestSoftNms:
    def test_decay_value(self, three_box_set):
        # B has IoU 0.6 with kept A: 0.8 * exp(-0.36 / 0.5), frozen by direct
        # evaluation of the decay formula
        out = soft_nms(three_box_set, sigma=0.5, score_floor=0.05)
        by_id = {p.id: p.score for p in out}
        assert by_id[1] == pytest.approx(0.38940180476797737, rel=1e-12)

    def test_disjoint_unchanged(self, three_box_set):
        out = soft_nms(three_box_set, sigma=0.5, score_floor=0.05)
        by_id = {p.id: p.score for p in out}
        assert by_id[0] == 0.9
        assert by_id[2] == 0.7

    def test_floor_one_keeps_only_top(self, three_box_set):
        out = soft_nms(three_box_set, sigma=0.5, score_floor=1.0)
        assert [p.id for p in out] == [0]

    def test_never_increases_scores(self):
        pset, _ = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=5, jitter=4.0,
                        score_noise=0.2, seed=18)
        )
        out = soft_nms(pset, sigma=0.5, score_floor=0.0)
        before = {p.id: p.score for p in pset}
        assert len(out) == len(pset)  # floor 0 drops nothing
        for p in out:
            assert p.score <= before[p.id]

    def test_rejects_bad_sigma(self, three_box_set):
        with pytest.raises(ValueError):
            soft_nms(three_box_set, sigma=0.0, score_floor=0.1)


class TestCompare:
    def test_zero_jitter_dnms_at_least_greedy(self):
        for seed in (0, 3, 7):
            pset, gt = synth_generate(
                SynthConfig(num_regions=3, proposals_per_region=5, jitter=0.0,
                            score_noise=0.0, seed=seed)
            )
            table = compare(pset, gt, RECOVERY_CONFIG)
            assert table["dnms"].mean_quality >= table["greedy_nms"].mean_quality

    def test_disjoint_scene_counts(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=4, proposals_per_region=1, jitter=0.0,
                        score_noise=0.0, seed=19)
        )
        cfg = PipelineConfig(
            sinkhorn=SinkhornParams(tau=0.01, iters=500, tol=1e-12), k=4
        )
        table = compare(pset, gt, cfg)
        assert table["dnms"].count == 4
        assert table["greedy_nms"].count == 4
        assert table["soft_nms"].count == 4

    def test_deterministic_metrics_except_timing(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=4, jitter=3.0,
                        score_noise=0.1, seed=20)
        )
        cfg = PipelineConfig(k=2)
        t1 = compare(pset, gt, cfg)
        t2 = compare(pset, gt, cfg)
        for method in ("dnms", "greedy_nms", "soft_nms"):
            assert t1[method].mean_quality == t2[method].mean_quality
            assert t1[method].count == t2[method].count

    def test_requires_ground_truth(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=2, seed=1))
        from sinkhorn_nms import GroundTruth

        with pytest.raises(ValueError):
            compare(pset, GroundTruth(boxes=()), PipelineConfig(k=1))
