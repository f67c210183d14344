import dataclasses
import hashlib
import re
import struct

import numpy as np
import pytest

from sinkhorn_nms import (
    Box,
    GroundTruth,
    Proposal,
    ProposalArrays,
    ProposalSet,
    SynthConfig,
    quality_scores,
    synth_generate,
    validate,
)
from sinkhorn_nms.formats import proposal_set_to_lines

from conftest import with_columns


def _bits(p: Proposal) -> tuple:
    """A proposal bit for bit: id, score, box and feature bytes, and its mask object."""
    return (p.id, struct.pack("<d", p.score), p.box.as_array().tobytes(),
            p.feature.tobytes(), id(p.mask))


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
        assert quality_scores(p.box.as_array()[None], [gt.boxes[region]]).tolist() == [1.0]


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
    feats = pset.proposals.features
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
        broken = with_columns(pset, ids=np.array([0, 0]))
        violations = validate(broken)
        assert len(violations) == 1
        assert "duplicate id" in violations[0]
        assert "0 and 1" in violations[0]

    def test_score_out_of_range(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=2, seed=5))
        broken = pset.take(np.arange(2), scores=np.array([pset.proposals.scores[0], 1.5]))
        violations = validate(broken)
        assert len(violations) == 1
        assert "id 1" in violations[0]
        assert "1.5" in violations[0]

    def test_box_outside_image(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=1, seed=5))
        bad = with_columns(pset, boxes=np.array([[0.0, 0.0, pset.image_width + 1.0, 10.0]]))
        violations = validate(bad)
        assert any("outside image" in v for v in violations)

    def test_box_corners_out_of_order_or_not_finite(self):
        # Box and the file reader reject such boxes; the column constructor
        # takes them.
        boxes = np.array([[5, 5, 1, 1], [np.nan, 0, 1, 1], [12, 0, 11, 1]], dtype=float)
        arrays = ProposalArrays(ids=np.arange(3), scores=np.array([0.5, 0.5, 1.5]),
                                boxes=boxes, features=np.ones((3, 2)))
        pset = ProposalSet(proposals=arrays, image_width=10.0, image_height=10.0, feature_dim=2)
        corners = "must be finite, x1 <= x2, y1 <= y2"
        assert validate(pset) == [
            f"proposal id 0: box (5.0, 5.0, 1.0, 1.0) {corners}",
            f"proposal id 1: box (nan, 0.0, 1.0, 1.0) {corners}",
            "proposal id 2: score 1.5 outside [0, 1]",
            f"proposal id 2: box (12.0, 0.0, 11.0, 1.0) {corners}",
            "proposal id 2: box (12.0, 0.0, 11.0, 1.0) outside image 10.0x10.0",
        ]

    def test_feature_dim_mismatch(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=1, seed=5))
        violations = validate(with_columns(pset, features=np.array([[1.0, 2.0]])))
        assert any("feature dimension" in v for v in violations)

    def test_empty_set(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=1, seed=5))
        violations = validate(pset.take(np.arange(0)))
        assert violations == ["proposal set is empty"]

    @pytest.mark.parametrize("dim", [8.0, 8.5, float("nan"), "8"])
    def test_feature_dim_that_is_no_integer(self, dim):
        # the proposal writer rejects such a set, so validate must not pass it
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=2, seed=5))
        bad = dataclasses.replace(pset, feature_dim=dim)
        assert validate(bad)[0] == f"feature_dim must be an integer, got {dim!r}"
        with pytest.raises(ValueError, match=re.escape(validate(bad)[0])):
            proposal_set_to_lines(bad)

    def test_numpy_integer_feature_dim_is_valid(self):
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=2, seed=5))
        good = dataclasses.replace(pset, feature_dim=np.int64(8))
        assert validate(good) == []
        assert proposal_set_to_lines(good) == proposal_set_to_lines(pset)


def test_ground_truth_labels_must_parallel_boxes():
    boxes = (Box(0, 0, 1, 1), Box(1, 1, 2, 2))
    with pytest.raises(ValueError, match="^labels must parallel boxes$"):
        GroundTruth(boxes=boxes, labels=(0, 1, 2))


def test_proposal_feature_coerced_to_array():
    p = Proposal(id=0, score=0.5, box=Box(0, 0, 1, 1), feature=[1.0, 2.0])
    assert isinstance(p.feature, np.ndarray)
    assert p.feature.dtype == np.float64


def _two_rows(**columns) -> ProposalArrays:
    """Two proposals' columns, with the given ones in place of the defaults."""
    defaults = dict(ids=np.arange(2), scores=np.full(2, 0.5), boxes=np.ones((2, 4)),
                    features=np.ones((2, 1)))
    return ProposalArrays(**{**defaults, **columns})


class TestArrayStorage:
    def scene(self):
        pset, _ = synth_generate(SynthConfig(num_regions=2, proposals_per_region=3, seed=4))
        return pset

    def test_arrays_are_read_only_and_shaped(self):
        a = self.scene().proposals
        assert (a.ids.dtype, a.ids.shape) == (np.int64, (6,))
        assert a.boxes.shape == (6, 4) and a.features.shape == (6, 8)
        assert a.masks is None
        for arr in (a.ids, a.scores, a.boxes, a.features):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_views_carry_python_scalars_and_are_not_kept(self):
        import gc
        import weakref

        pset = self.scene()
        p = pset.proposals[-1]
        assert type(p.id) is int and type(p.score) is float
        assert p.id == 5 and p.box.as_array().tobytes() == pset.proposals.boxes[5].tobytes()
        assert np.shares_memory(p.feature, pset.proposals.features)
        # every read of that row builds an equal value
        assert _bits(pset.proposals[5]) == _bits(p) == _bits(list(pset)[5])
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None

    def test_take_keeps_rows_and_their_views(self):
        pset = self.scene()
        views = list(pset)
        kept = pset.take(np.array([4, 1]))
        assert kept.proposals.ids.tolist() == [4, 1]
        assert list(map(_bits, kept)) == [_bits(views[4]), _bits(views[1])]
        rescored = pset.take(np.array([4]), np.array([0.25])).proposals[0]
        assert rescored.score == 0.25
        assert _bits(dataclasses.replace(rescored, score=views[4].score)) == _bits(views[4])
        assert pset.proposals.scores[4] != 0.25

    def test_set_takes_only_column_storage(self):
        rows = tuple(self.scene())
        with pytest.raises(TypeError, match="^proposals must be a ProposalArrays, got tuple$"):
            ProposalSet(proposals=rows, image_width=640.0, image_height=640.0, feature_dim=8)

    def test_ragged_object_features_rejected(self):
        # per-row feature arrays of differing shapes cannot be stacked
        with pytest.raises(ValueError, match="^features: .*inhomogeneous"):
            _two_rows(features=[np.array([1.0, 2.0]), np.array([1.0])])

    @pytest.mark.parametrize("name, values, message", [
        ("ids", [0.9, 0.2], "ids must be integers, got dtype float64"),
        ("ids", [True, False], "ids must be integers, got dtype bool"),
        ("ids", ["0", "1"], "ids must be integers, got dtype <U1"),
        ("ids", [2**64, 0], "ids must fit in int64, got 18446744073709551616"),
        ("ids", np.array([2**63, 0], np.uint64), "ids must fit in int64, got 9223372036854775808"),
        ("ids", np.array([0, 2**64 - 1], np.uint64),
         "ids must fit in int64, got 18446744073709551615"),
        ("scores", ["0.5", "0.5"], "scores must be numbers, got dtype <U3"),
        ("scores", [True, False], "scores must be numbers, got dtype bool"),
        ("scores", [0.5, None], "scores must be numbers, got dtype object"),
        ("boxes", np.ones((2, 4), bool), "boxes must be numbers, got dtype bool"),
        ("boxes", np.ones((2, 4), complex), "boxes must be numbers, got dtype complex128"),
        ("features", [["1"], ["2"]], "features must be numbers, got dtype <U1"),
        ("features", np.ones((2, 1), object), "features must be numbers, got dtype object"),
    ])
    def test_column_dtypes_checked_before_the_cast(self, name, values, message):
        # cast first, float ids would truncate, bools read as 0 and 1, a
        # uint64 id past int64 wrap and strings parse as numbers
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _two_rows(**{name: values})

    @pytest.mark.parametrize("ids, big", [
        ([2**63, 0], 2**63),  # numpy types these two lists as float64
        ([0, 2**63], 2**63),
        ([-(2**63) - 1], -(2**63) - 1),  # and these as object
        ([0, -(2**63) - 1, 2**63], -(2**63) - 1),
    ])
    def test_python_int_id_past_int64_is_named(self, ids, big):
        rows = len(ids)
        with pytest.raises(ValueError, match=f"^ids must fit in int64, got {big}$"):
            ProposalArrays(ids=ids, scores=np.full(rows, 0.5), boxes=np.ones((rows, 4)),
                           features=np.ones((rows, 1)))

    @pytest.mark.parametrize("ids", [[2**63, 1.5], [0.5, 2**63], [2**64, 0.5]])
    def test_float_beside_a_large_id_keeps_the_dtype_message(self, ids):
        dtype = np.asarray(ids).dtype
        with pytest.raises(ValueError, match=f"^ids must be integers, got dtype {dtype}$"):
            _two_rows(ids=ids)

    def test_integer_and_narrow_columns_are_cast(self):
        a = _two_rows(ids=np.array([7, 2**63 - 1], np.uint64), scores=np.array([0, 1], np.uint8),
                      boxes=np.ones((2, 4), np.int32), features=np.full((2, 1), 0.5, np.float32))
        assert a.ids.tolist() == [7, 2**63 - 1] and a.ids.dtype == np.int64
        assert a.scores.tolist() == [0.0, 1.0]
        assert a.boxes.dtype == a.features.dtype == np.float64

    @pytest.mark.parametrize("columns, message", [
        ({"ids": np.arange(2)[:, None]}, "ids, scores and boxes must be"),
        ({"ids": np.int64(0)}, "ids, scores and boxes must be"),
        ({"boxes": np.ones((2, 3))}, "ids, scores and boxes must be"),
        ({"features": np.ones((3, 1))}, "features must hold one row per proposal"),
        ({"features": np.float64(1.0)}, "features must hold one row per proposal"),
        ({"masks": (None,)}, "masks must hold one entry per proposal"),
    ])
    def test_shape_errors(self, columns, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            _two_rows(**columns)

    def test_pickle_round_trip(self):
        import pickle

        pset = self.scene()
        again = pickle.loads(pickle.dumps(pset))
        assert proposal_set_to_lines(again) == proposal_set_to_lines(pset)
        # the copy is rebuilt through the constructor, so it is read-only too
        a = again.proposals
        for arr in (a.ids, a.scores, a.boxes, a.features):
            assert not arr.flags.writeable

    def test_centers_match_box_center(self):
        from sinkhorn_nms.geometry import box_centers

        pset = self.scene()
        want = np.array([p.box.center for p in pset])
        assert box_centers(pset.proposals.boxes).tobytes() == want.tobytes()


@pytest.mark.parametrize("width, height", [
    (float("nan"), 10.0), (10.0, float("inf")), (0.0, 10.0), (-1.0, 10.0),
])
def test_validate_rejects_unusable_image_size(width, height):
    pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=1, seed=5))
    bad = dataclasses.replace(pset, image_width=width, image_height=height)
    assert validate(bad)[0] == f"image size {width}x{height} must be finite and positive"
