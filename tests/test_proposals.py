import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from sinkhorn_nms import (
    Box,
    Proposal,
    SynthConfig,
    quality_score,
    synth_generate,
    validate,
)
from sinkhorn_nms.formats import proposal_set_to_lines


def test_counts_forced_by_config():
    pset, gt = synth_generate(SynthConfig(num_regions=3, proposals_per_region=5, seed=7))
    assert len(pset) == 15
    assert len(gt.boxes) == 3
    assert gt.labels == (0, 1, 2)


def test_deterministic_byte_level():
    cfg = SynthConfig(num_regions=3, proposals_per_region=5, jitter=3.0, score_noise=0.1, seed=7)
    a, _ = synth_generate(cfg)
    b, _ = synth_generate(cfg)
    assert proposal_set_to_lines(a) == proposal_set_to_lines(b)


# SHA-256 of the scenes below as generated by the per-proposal scalar-IoU
# scorer that preceded the one-call-per-region scorer; any change to RNG call
# order or score arithmetic moves it.
SYNTH_DIGEST = "c1c6da35ec7798bbbebe094aab03098c990facccc953a4ffcee39fd8266c07c0"
SYNTH_DIGEST_CONFIGS = [
    SynthConfig(num_regions=1, proposals_per_region=1, seed=0),
    SynthConfig(num_regions=4, proposals_per_region=8, jitter=3.0, score_noise=0.05, seed=1),
    SynthConfig(num_regions=6, proposals_per_region=5, jitter=12.0, score_noise=0.5, seed=2),
    SynthConfig(num_regions=3, proposals_per_region=7, jitter=40.0, score_noise=0.2,
                feature_dim=3, image_width=400.0, image_height=300.0, seed=123456789),
    SynthConfig(num_regions=16, proposals_per_region=16, jitter=4.0, score_noise=0.05, seed=42),
]


def test_bit_identical_to_recorded_digest():
    h = hashlib.sha256()
    for cfg in SYNTH_DIGEST_CONFIGS:
        pset, _ = synth_generate(cfg)
        for p in pset:
            h.update(struct.pack("<qd", p.id, p.score))
            h.update(p.box.as_array().tobytes())
            h.update(p.feature.tobytes())
    assert h.hexdigest() == SYNTH_DIGEST


def test_different_seeds_differ():
    a, _ = synth_generate(SynthConfig(num_regions=2, proposals_per_region=3, seed=1))
    b, _ = synth_generate(SynthConfig(num_regions=2, proposals_per_region=3, seed=2))
    assert proposal_set_to_lines(a) != proposal_set_to_lines(b)


def test_zero_noise_recovers_ground_truth():
    pset, gt = synth_generate(
        SynthConfig(num_regions=4, proposals_per_region=3, jitter=0.0, score_noise=0.0, seed=11)
    )
    for p in pset:
        region = p.id // 3
        assert p.box == gt.boxes[region]
        assert p.score == 1.0
        assert quality_score(p.box, [gt.boxes[region]]) == 1.0


def test_generated_sets_are_valid():
    for seed in range(5):
        pset, _ = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=4, jitter=5.0, score_noise=0.2, seed=seed)
        )
        assert validate(pset) == []


def test_prototypes_are_separated():
    pset, _ = synth_generate(
        SynthConfig(num_regions=6, proposals_per_region=1, feature_dim=4, seed=3)
    )
    feats = pset.features()
    feats = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    cos = feats @ feats.T
    off_diag = cos[~np.eye(len(pset), dtype=bool)]
    # prototypes are separated below 0.9; the small feature noise can only
    # move the cosine slightly
    assert off_diag.max() < 0.95


def test_rejects_boxes_that_cannot_fit():
    with pytest.raises(ValueError):
        synth_generate(
            SynthConfig(num_regions=1, proposals_per_region=1, jitter=200.0,
                        image_width=100.0, image_height=100.0)
        )


def test_rejects_bad_counts():
    with pytest.raises(ValueError):
        SynthConfig(num_regions=0, proposals_per_region=1)
    with pytest.raises(ValueError):
        SynthConfig(num_regions=1, proposals_per_region=1, jitter=-1.0)


def test_separation_impossible_raises():
    # one-dimensional features admit at most two separated prototypes
    with pytest.raises(ValueError):
        synth_generate(SynthConfig(num_regions=3, proposals_per_region=1, feature_dim=1))


class TestValidate:
    def test_well_formed(self):
        pset, _ = synth_generate(SynthConfig(num_regions=2, proposals_per_region=2, seed=5))
        assert validate(pset) == []

    def test_duplicate_ids(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=2, seed=5))
        dup = dataclasses.replace(pset.proposals[1], id=pset.proposals[0].id)
        broken = dataclasses.replace(pset, proposals=(pset.proposals[0], dup))
        violations = validate(broken)
        assert len(violations) == 1
        assert "duplicate id" in violations[0]
        assert "0 and 1" in violations[0]

    def test_score_out_of_range(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=2, seed=5))
        bad = dataclasses.replace(pset.proposals[1], score=1.5)
        broken = dataclasses.replace(pset, proposals=(pset.proposals[0], bad))
        violations = validate(broken)
        assert len(violations) == 1
        assert f"id {bad.id}" in violations[0]
        assert "1.5" in violations[0]

    def test_box_outside_image(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=1, seed=5))
        bad = dataclasses.replace(
            pset.proposals[0], box=Box(0.0, 0.0, pset.image_width + 1.0, 10.0)
        )
        violations = validate(dataclasses.replace(pset, proposals=(bad,)))
        assert any("outside image" in v for v in violations)

    def test_feature_dim_mismatch(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=1, seed=5))
        bad = dataclasses.replace(pset.proposals[0], feature=np.array([1.0, 2.0]))
        violations = validate(dataclasses.replace(pset, proposals=(bad,)))
        assert any("feature dimension" in v for v in violations)

    def test_empty_set(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=1, seed=5))
        violations = validate(dataclasses.replace(pset, proposals=()))
        assert violations == ["proposal set is empty"]


def test_proposal_feature_coerced_to_array():
    p = Proposal(id=0, score=0.5, box=Box(0, 0, 1, 1), feature=[1.0, 2.0])
    assert isinstance(p.feature, np.ndarray)
    assert p.feature.dtype == np.float64
