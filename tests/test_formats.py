import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkhorn_nms import (
    Box,
    GroundTruth,
    Mask,
    PipelineConfig,
    ProposalArrays,
    ProposalSet,
    SynthConfig,
    dnms,
    synth_generate,
)
from sinkhorn_nms.formats import (
    ProposalFileError,
    dumps_canonical,
    proposal_set_to_lines,
    read_ground_truth,
    read_proposal_file,
    run_report,
    write_ground_truth,
    write_proposal_file,
    write_run_report,
)

from conftest import read_run_report

wild_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
unit_floats = st.floats(min_value=0.0, max_value=1.0)


def sets_equal(a: ProposalSet, b: ProposalSet) -> bool:
    if (a.image_width, a.image_height, a.feature_dim) != (
        b.image_width,
        b.image_height,
        b.feature_dim,
    ):
        return False
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if (pa.id, pa.score) != (pb.id, pb.score):
            return False
        if pa.box != pb.box:
            return False
        if not np.array_equal(pa.feature, pb.feature):
            return False
        if (pa.mask is None) != (pb.mask is None):
            return False
        if pa.mask is not None and not np.array_equal(pa.mask.values, pb.mask.values):
            return False
    return True


class TestProposalFileRoundTrip:
    def test_synthetic_round_trip(self, tmp_path):
        pset, _ = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=4, jitter=3.7,
                        score_noise=0.13, seed=23)
        )
        path = tmp_path / "scene.jsonl"
        write_proposal_file(path, pset)
        again = read_proposal_file(path)
        assert sets_equal(pset, again)
        # writing the parsed set reproduces the file byte for byte
        twice = tmp_path / "scene2.jsonl"
        write_proposal_file(twice, again)
        assert path.read_bytes() == twice.read_bytes()

    def test_mask_round_trip(self, tmp_path):
        mask = Mask(np.array([[0.0, 0.5], [1.0, 0.125]]))
        arrays = ProposalArrays(ids=[0], scores=[0.5], boxes=[[1.0, 1.0, 3.0, 3.0]],
                                features=[[0.25]], masks=(mask,))
        pset = ProposalSet(proposals=arrays, image_width=10.0, image_height=10.0, feature_dim=1)
        path = tmp_path / "masked.jsonl"
        write_proposal_file(path, pset)
        assert sets_equal(pset, read_proposal_file(path))

    @pytest.mark.parametrize("make", [
        lambda: synth_generate(SynthConfig(2, 3, image_width=np.float32(640),
                                           feature_dim=np.int64(4), seed=np.int64(1)))[0],
        lambda: replace(synth_generate(SynthConfig(2, 3, seed=1))[0], feature_dim=np.int64(8),
                        image_width=np.float64(640), image_height=np.float32(640)),
    ], ids=["synth_config", "proposal_set"])
    def test_numpy_scalar_sizes_round_trip(self, tmp_path, make):
        # JSON takes no numpy scalar: the header writes the Python values
        pset = make()
        path = tmp_path / "scene.jsonl"
        write_proposal_file(path, pset)
        again = read_proposal_file(path)
        assert sets_equal(pset, again)
        assert path.read_bytes() == "".join(proposal_set_to_lines(again)).encode()

    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(
        st.tuples(unit_floats, wild_floats, wild_floats,
                  st.floats(min_value=0, max_value=1e12),
                  st.floats(min_value=0, max_value=1e12),
                  st.lists(wild_floats, min_size=2, max_size=2)),
        min_size=1, max_size=4,
    ))
    def test_numeric_round_trip_exact(self, tmp_path_factory, rows):
        arrays = ProposalArrays(
            ids=np.arange(len(rows)),
            scores=[score for score, *_ in rows],
            boxes=[(x, y, x + w, y + h) for _, x, y, w, h, _ in rows],
            features=[feat for *_, feat in rows],
        )
        pset = ProposalSet(proposals=arrays, image_width=1.0, image_height=1.0, feature_dim=2)
        path = tmp_path_factory.mktemp("rt") / "p.jsonl"
        write_proposal_file(path, pset)
        assert sets_equal(pset, read_proposal_file(path))


# SHA-256 of the proposal lines of these scenes as written by the earlier
# writer, which went through one Proposal view and Box per row.
LINES_DIGESTS = [
    (SynthConfig(num_regions=3, proposals_per_region=4, seed=0),
     "0b7510c3e2b0004e7fb0dc60b82f3265ce7ec877bdf27a2f0614441f67edb68b"),
    (SynthConfig(num_regions=8, proposals_per_region=16, jitter=4.0, score_noise=0.05, seed=3),
     "31943557984ddf3bfdfb151c9609f56ed151692d87e7f115a15259305280c507"),
    (SynthConfig(num_regions=5, proposals_per_region=7, jitter=2.0, score_noise=0.2,
                 feature_dim=3, image_width=300.0, image_height=200.0, seed=11),
     "369b19142d84d7359cd898e305c8268fb43a833aa28928a60f36cb9fd6c0f08e"),
]


class TestProposalFileWriter:
    @pytest.mark.parametrize("cfg, digest", LINES_DIGESTS)
    def test_synthetic_lines_match_recorded_digest(self, cfg, digest):
        pset, _ = synth_generate(cfg)
        text = "".join(proposal_set_to_lines(pset))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_numpy_integer_id_is_written(self):
        def one(ids):
            arrays = ProposalArrays(ids=ids, scores=[0.5], boxes=[[0.0, 0.0, 1.0, 1.0]],
                                    features=np.ones((1, 2)))
            return proposal_set_to_lines(
                ProposalSet(proposals=arrays, image_width=2.0, image_height=2.0, feature_dim=2)
            )

        assert one(np.array([7], np.uint8)) == one(np.array([7], np.int32)) == one([7])

    def test_non_integer_feature_dim_is_not_written(self):
        # feature_dim counts features: a float there is named, not written as 8.0
        pset, _ = synth_generate(SynthConfig(1, 2, seed=1))
        with pytest.raises(ValueError, match=r"^feature_dim must be an integer, got 8\.0"):
            proposal_set_to_lines(replace(pset, feature_dim=8.0))

    def test_integers_are_written_as_floats(self):
        mask = Mask(np.array([[0, 1]]))
        arrays = ProposalArrays(ids=[0], scores=[1], boxes=[[0, 0, 1, 1]], features=[[1, 2]],
                                masks=(mask,))
        pset = ProposalSet(proposals=arrays, image_width=2.0, image_height=2.0, feature_dim=2)
        assert proposal_set_to_lines(pset)[1] == (
            '{"box":[0.0,0.0,1.0,1.0],"feature":[1.0,2.0],"id":0,'
            '"mask":{"height":1,"values":[0.0,1.0],"width":2},"score":1.0}\n'
        )


class TestProposalFileErrors:
    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=2, seed=1))
        write_proposal_file(path, pset)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-5]  # truncate a record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProposalFileError) as err:
            read_proposal_file(path)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_score_too_large_for_a_float_names_line(self, tmp_path):
        # the column reader leaves the file to the per-record loop, which names the record
        path = tmp_path / "big.jsonl"
        pset, _ = synth_generate(SynthConfig(num_regions=1, proposals_per_region=2, seed=1))
        write_proposal_file(path, pset)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["score"] = 10**400
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ProposalFileError) as err:
            read_proposal_file(path)
        assert str(err.value) == (
            "line 3: malformed proposal record: int too large to convert to float"
        )

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = json.dumps({"format": "proposals", "version": 1, "image_width": 10.0,
                             "image_height": 10.0, "feature_dim": 1})
        record = json.dumps({"id": 0, "score": 0.5})  # no box
        path.write_text(header + "\n" + record + "\n")
        with pytest.raises(ProposalFileError, match="line 2"):
            read_proposal_file(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ProposalFileError, match="line 1"):
            read_proposal_file(path)

    def test_wrong_format_token(self, tmp_path):
        path = tmp_path / "wrong.jsonl"
        path.write_text(json.dumps({"format": "nonsense", "version": 1}) + "\n")
        with pytest.raises(ProposalFileError, match="line 1"):
            read_proposal_file(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        header = json.dumps({"format": "proposals", "version": 2, "image_width": 10.0,
                             "image_height": 10.0, "feature_dim": 1})
        path.write_text(header + "\n")
        with pytest.raises(ProposalFileError, match="line 1: unsupported version 2"):
            read_proposal_file(path)


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        gt = GroundTruth(
            boxes=(Box(0.5, 1.25, 10.0, 20.0), Box(3.0, 3.0, 4.5, 9.875)),
            labels=(2, 7),
        )
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, gt)
        again = read_ground_truth(path)
        assert again.boxes == gt.boxes
        assert again.labels == gt.labels

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        header = json.dumps({"format": "ground-truth", "version": 1})
        path.write_text(f'{header}\n\n{{"box": [0, 0, 1, 1], "label": 3}}\n   \n')
        again = read_ground_truth(path)
        assert again.boxes == (Box(0.0, 0.0, 1.0, 1.0),) and again.labels == (3,)

    def test_synth_round_trip(self, tmp_path):
        _, gt = synth_generate(SynthConfig(num_regions=3, proposals_per_region=1, seed=31))
        path = tmp_path / "gt.jsonl"
        write_ground_truth(path, gt)
        assert read_ground_truth(path).boxes == gt.boxes

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        header = json.dumps({"format": "ground-truth", "version": 2})
        record = json.dumps({"box": [0.0, 0.0, 1.0, 1.0], "label": 0})
        path.write_text(header + "\n" + record + "\n")
        with pytest.raises(ProposalFileError, match="line 1: unsupported version 2"):
            read_ground_truth(path)

    @pytest.mark.parametrize("label, message", [
        ("1e400", "cannot convert float infinity to integer"),
        ("1.5", "label 1.5 is not a whole number"),
        ("true", "label True is not a number"),
        ('"1"', "label '1' is not a number"),
    ])
    def test_unreadable_label_names_line(self, tmp_path, label, message):
        path = tmp_path / "gt.jsonl"
        header = json.dumps({"format": "ground-truth", "version": 1})
        path.write_text(f'{header}\n{{"box": [0, 0, 1, 1], "label": {label}}}\n')
        with pytest.raises(ProposalFileError, match=f"line 2: .*{message}"):
            read_ground_truth(path)

    @pytest.mark.parametrize("box, message", [
        ('["1", 0, 2, 2]', "box '1' is not a number"),
        ("[0, 0, 2, false]", "box False is not a number"),
        ('"0022"', "box '0022' is not a number"),
    ])
    def test_string_or_boolean_box_names_line(self, tmp_path, box, message):
        # float() would read each of these as a box
        path = tmp_path / "gt.jsonl"
        header = json.dumps({"format": "ground-truth", "version": 1})
        path.write_text(f'{header}\n{{"box": [0, 0, 1, 1]}}\n{{"box": {box}}}\n')
        with pytest.raises(ProposalFileError, match=f"line 3: .*{message}"):
            read_ground_truth(path)

    def test_whole_float_label_reads(self, tmp_path):
        path = tmp_path / "gt.jsonl"
        header = json.dumps({"format": "ground-truth", "version": 1})
        path.write_text(f'{header}\n{{"box": [0, 0, 1, 1], "label": 2.0}}\n')
        assert read_ground_truth(path).labels == (2,)


class TestRunReport:
    def test_round_trip_identical_values(self, tmp_path):
        pset, gt = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=3, jitter=2.0, seed=29)
        )
        cfg = PipelineConfig(k=2)
        refined, diag = dnms(pset, gt, cfg)
        report = run_report(cfg, refined, diag)
        path = tmp_path / "report.json"
        write_run_report(path, report)
        parsed = read_run_report(path)
        assert parsed == json.loads(dumps_canonical(report))
        # canonical serialization is stable under re-serialization
        assert dumps_canonical(parsed) == dumps_canonical(json.loads(dumps_canonical(report)))

    @pytest.mark.parametrize("seed", [29, 30, 31])
    def test_default_report_is_opt_in_report_without_the_rows(self, seed):
        pset, gt = synth_generate(
            SynthConfig(num_regions=3, proposals_per_region=4, jitter=3.0,
                        score_noise=0.1, seed=seed)
        )
        cfg = PipelineConfig(k=3)
        refined, diag = dnms(pset, gt, cfg)
        with_rows = run_report(cfg, refined, diag, source_weights=True)
        for rec in with_rows["refined"]:
            assert len(rec.pop("source_weights")) == len(pset)
        assert dumps_canonical(run_report(cfg, refined, diag)) == dumps_canonical(with_rows)

    def test_reads_version_1(self, tmp_path):
        path = tmp_path / "report.json"
        doc = {"format": "run-report", "version": 1, "config": {}, "diagnostics": {},
               "refined": [{"score": 0.5, "source_weights": [1.0]}]}
        path.write_text(dumps_canonical(doc))
        assert read_run_report(path) == doc

    @pytest.mark.parametrize("doc, message", [
        ({"format": "proposals", "version": 2}, "expected format 'run-report', got 'proposals'"),
        ({"version": 2}, "expected format 'run-report', got None"),
        ({"format": "run-report", "version": 3}, "unsupported run-report version 3"),
        ({"format": "run-report", "version": True}, "unsupported run-report version True"),
        ({"format": "run-report", "version": 2.0}, "unsupported run-report version 2.0"),
        ([1, 2], "expected a run-report object, got list"),
    ])
    def test_read_rejects_other_formats_and_versions(self, tmp_path, doc, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            read_run_report(path)

    def test_report_has_no_timing_fields(self):
        pset, gt = synth_generate(
            SynthConfig(num_regions=2, proposals_per_region=3, jitter=2.0, seed=29)
        )
        cfg = PipelineConfig(k=2)
        refined, diag = dnms(pset, gt, cfg)
        text = dumps_canonical(run_report(cfg, refined, diag))
        assert "wall" not in text and "_ms" not in text

    def test_canonical_dump_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("nan")})
