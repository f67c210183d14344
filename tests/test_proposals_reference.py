"""Agreement of the array-built proposal reader and ``validate`` with the
object-built ones they replaced.

The code below ``# reference implementations`` is the earlier
``read_proposal_file``, ``validate`` and ``ProposalSet`` accessors, kept
verbatim as the oracle (the set class is renamed ``ReferenceSet``).
Hypothesis writes valid and malformed proposal files; the library must give
the same array bits, the same violation list, and the same exception type,
message and line.  The deliberate differences are checked as such:

- a record whose feature shape differs from the earlier records' is rejected
  naming its line (ragged features cannot be stacked);
- an id outside int64 is rejected naming its line, and so is a number too
  large for a float anywhere in a record, where the reference let the bare
  ``OverflowError`` escape;
- an id, ``feature_dim`` or mask size that is a number with a fractional
  part is rejected naming its line, where the reference truncated it;
- a JSON string or boolean in a numeric field (a header number, an id, a
  score, a box, feature or mask entry, a mask size) is rejected naming its
  line, where the reference read ``"12"`` and ``true`` as numbers;
- ``validate`` reports an image size that is not finite and positive before
  everything else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkhorn_nms import Box, Mask, Proposal, formats, proposals
from sinkhorn_nms.formats import (
    PROPOSALS_FORMAT,
    ProposalFileError,
    _parse_line,
    _read_header,
)

# reference implementations


def _mask_from_record(rec: dict) -> Mask:
    values = np.array(rec["values"], dtype=np.float64).reshape(
        int(rec["height"]), int(rec["width"])
    )
    return Mask(values)


@dataclass(frozen=True, eq=False)
class ReferenceSet:
    """Ordered proposals plus the image extent and shared feature dimension.

    Construction is lenient so that malformed sets can be inspected; use
    :func:`validate` to obtain the list of invariant violations.
    """

    proposals: tuple[Proposal, ...]
    image_width: float
    image_height: float
    feature_dim: int

    def __post_init__(self):
        object.__setattr__(self, "proposals", tuple(self.proposals))

    def __len__(self) -> int:
        return len(self.proposals)

    def __iter__(self) -> Iterator[Proposal]:
        return iter(self.proposals)

    @property
    def image_diag(self) -> float:
        return math.hypot(self.image_width, self.image_height)

    def boxes(self) -> np.ndarray:
        """All boxes stacked as an (M, 4) array."""
        return np.array([(p.box.x1, p.box.y1, p.box.x2, p.box.y2) for p in self.proposals], float)

    def scores(self) -> np.ndarray:
        return np.array([p.score for p in self.proposals], dtype=np.float64)

    def features(self) -> np.ndarray:
        return np.array([p.feature for p in self.proposals], dtype=np.float64)


def read_proposal_file(path: str | Path) -> ReferenceSet:
    header, lines = _read_header(path, PROPOSALS_FORMAT)
    try:
        image_width = float(header["image_width"])
        image_height = float(header["image_height"])
        feature_dim = int(header["feature_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProposalFileError(1, f"malformed header: {exc}") from exc
    proposals = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _parse_line(line, line_no)
        try:
            box = Box(*(float(v) for v in rec["box"]))
            mask = _mask_from_record(rec["mask"]) if "mask" in rec else None
            proposals.append(
                Proposal(
                    id=int(rec["id"]),
                    score=float(rec["score"]),
                    box=box,
                    feature=np.array(rec["feature"], dtype=np.float64),
                    mask=mask,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProposalFileError(line_no, f"malformed proposal record: {exc}") from exc
    return ReferenceSet(
        proposals=tuple(proposals),
        image_width=image_width,
        image_height=image_height,
        feature_dim=feature_dim,
    )


def validate(pset: ReferenceSet) -> list[str]:
    """Return human-readable descriptions of every invariant violation.

    An empty list means the set is well-formed.
    """
    violations: list[str] = []
    if len(pset) == 0:
        violations.append("proposal set is empty")
    seen: dict[int, int] = {}
    for idx, p in enumerate(pset):
        if p.id in seen:
            violations.append(
                f"duplicate id {p.id} at indices {seen[p.id]} and {idx}"
            )
        else:
            seen[p.id] = idx
        if not (0.0 <= p.score <= 1.0) or not math.isfinite(p.score):
            violations.append(f"proposal id {p.id}: score {p.score} outside [0, 1]")
        b = p.box
        if b.x1 < 0 or b.y1 < 0 or b.x2 > pset.image_width or b.y2 > pset.image_height:
            violations.append(
                f"proposal id {p.id}: box ({b.x1}, {b.y1}, {b.x2}, {b.y2}) "
                f"outside image {pset.image_width}x{pset.image_height}"
            )
        if p.feature.ndim != 1 or p.feature.shape[0] != pset.feature_dim:
            violations.append(
                f"proposal id {p.id}: feature dimension {p.feature.shape} "
                f"does not match set feature_dim {pset.feature_dim}"
            )
        elif not np.isfinite(p.feature).all():
            violations.append(f"proposal id {p.id}: feature has non-finite entries")
    return violations


# generated files
#
# A file is either plain (every record parses; ids, scores, boxes and
# features are drawn near their bounds, so that duplicates, out-of-range
# scores, boxes outside the image and non-finite features are common and
# often meet in one record) or malformed (any field may hold any odd value,
# and lines may be blank, bad JSON or not objects).

_NAN, _INF = float("nan"), float("inf")

# values that no field accepts, or accepts only by coercion
_odd = st.sampled_from([None, True, False, "x", "0.5", "12", "nan", [], {}, 10**400])
_special = st.sampled_from([_NAN, _INF, -_INF, -0.0])


def _mostly(common, rare, odds: int = 5):
    """``common``, except one draw in about ``odds`` from ``rare``."""
    return st.integers(1, odds).flatmap(lambda r: rare if r == 1 else common)


# ids at the int64 limits read; one past them is the deliberate rejection
_plain_ids = _mostly(st.integers(0, 4), st.sampled_from([2**63 - 1, -(2**63), 2**63]), 30)
_plain_scores = _mostly(st.floats(-0.2, 1.2), st.sampled_from([0.0, 1.0, _NAN, _INF]))


@st.composite
def _plain_boxes(draw):
    x1, y1 = draw(st.floats(-1.0, 11.0)), draw(st.floats(-1.0, 11.0))
    return [x1, y1, x1 + draw(st.floats(0.0, 3.0)), y1 + draw(st.floats(0.0, 3.0))]


def _plain_features(dim: int):
    entry = _mostly(st.floats(-2.0, 2.0), _special)
    # now and then one entry too many: ragged, unless every record has it
    return _mostly(st.just(dim), st.just(dim + 1), 20).flatmap(
        lambda n: st.lists(entry, min_size=n, max_size=n)
    )


_any_ids = st.one_of(
    _plain_ids,
    st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 10**30]),
    st.sampled_from([3.7, -0.5, _NAN, _INF]),
    _odd,
)
_any_scores = st.one_of(_plain_scores, _special, _odd)
_any_boxes = st.one_of(
    _plain_boxes(),
    st.lists(st.one_of(st.floats(-5.0, 15.0), _special), min_size=4, max_size=4),
    st.lists(st.floats(-5.0, 15.0), min_size=0, max_size=6),
    st.lists(st.one_of(st.floats(0.0, 9.0), _odd), min_size=4, max_size=4),
    st.one_of(_odd, st.just("1234"), st.floats()),
)


def _any_features(dim: int):
    return st.one_of(
        _plain_features(dim),
        st.lists(st.one_of(st.floats(-2.0, 2.0), _odd), min_size=dim, max_size=dim),
        st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=4),
        st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), min_size=1, max_size=2),
        st.one_of(st.floats(-1.0, 1.0), _odd),
    )


_masks = st.one_of(
    st.builds(
        lambda h, w, vals: {"height": h, "width": w, "values": vals[: h * w]},
        st.integers(1, 2),
        st.integers(1, 2),
        st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=4, max_size=4),
    ),
    st.fixed_dictionaries({"height": st.just(1), "width": st.just(2),
                           "values": st.lists(st.sampled_from([0.5, 1.5, -0.5, _NAN]),
                                              min_size=1, max_size=3)}),
    st.fixed_dictionaries({"width": st.just(1)}),
    _odd,
)


@st.composite
def _records(draw, dim: int, plain: bool) -> str:
    if plain:
        rec = {"id": draw(_plain_ids), "score": draw(_plain_scores),
               "box": draw(_plain_boxes()), "feature": draw(_plain_features(dim))}
    else:
        rec = {"id": draw(_any_ids), "score": draw(_any_scores), "box": draw(_any_boxes),
               "feature": draw(_any_features(dim))}
    if draw(st.integers(0, 4)) == 0:
        rec["mask"] = draw(_masks.filter(lambda m: isinstance(m, dict) and "values" in m)
                           if plain else _masks)
        if plain:
            rec["mask"]["values"] = [min(1.0, max(0.0, v)) if v == v else 0.5
                                     for v in rec["mask"]["values"]]
            rec["mask"]["height"] = 1
            rec["mask"]["width"] = len(rec["mask"]["values"])
    if not plain and draw(st.integers(0, 4)) == 0:
        del rec[draw(st.sampled_from(sorted(rec)))]
    # key order in the line does not matter to either reader, but vary it
    order = draw(st.permutations(list(rec)))
    return json.dumps({k: rec[k] for k in order})


_sides = _mostly(st.sampled_from([10.0, 12.0, 20.0]),
                 st.sampled_from([_NAN, _INF, -_INF, 0.0, -10.0]))


@st.composite
def proposal_files(draw) -> list[str]:
    plain = draw(st.integers(0, 2)) > 0
    dim = draw(st.integers(0, 3))
    header = {"format": "proposals", "version": 1, "image_width": draw(_sides),
              "image_height": draw(_sides), "feature_dim": dim}
    if draw(st.integers(0, 9)) == 0:
        header["feature_dim"] = draw(st.one_of(_odd, st.integers(-1, 4), st.just(2.5)))
    lines = [json.dumps(header)]
    kinds = ["record"] * 8 + ["blank"] + (["json", "object"] if not plain else [])
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(kinds))
        if kind == "record":
            lines.append(draw(_records(dim, plain)))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   "])))
        elif kind == "json":
            lines.append(draw(st.sampled_from(["{not json", '{"id": 1,', "[1, 2", "nan"])))
        else:
            lines.append(draw(st.sampled_from(["[1, 2]", "3", "null", '"record"'])))
    return lines


# comparison


def _outcome(read, path):
    try:
        return read(path), None
    except Exception as exc:  # the exception itself is the outcome compared
        return None, exc


def _size_violations(pset) -> list[str]:
    W, H = pset.image_width, pset.image_height
    if 0.0 < W < math.inf and 0.0 < H < math.inf:
        return []
    return [f"image size {W}x{H} must be finite and positive"]


def _same_arrays(got, want):
    assert got.proposals.ids.tolist() == [p.id for p in want]
    for name in ("boxes", "scores", "features"):
        g, w = getattr(got.proposals, name), getattr(want, name)()
        assert g.dtype == w.dtype == np.float64
        assert g.tobytes() == w.tobytes(), name
        if len(want):
            assert g.shape == w.shape, name
    masks = got.proposals.masks
    if all(p.mask is None for p in want):
        assert masks is None
    else:
        for m, p in zip(masks, want):
            assert (m is None) == (p.mask is None)
            if m is not None:
                assert m.values.tobytes() == p.mask.values.tobytes()
    for g, w in zip(got, want):
        assert (g.id, g.box) == (w.id, w.box)
        assert type(g.id) is int and type(g.score) is float
        assert np.float64(g.score).tobytes() == np.float64(w.score).tobytes()
        assert g.feature.tobytes() == w.feature.tobytes()


def _deliberate(exc: Exception | None) -> bool:
    """Whether ``exc`` is one of the rejections the reference did not make."""
    return isinstance(exc, ProposalFileError) and (
        "ragged features cannot be stacked" in str(exc)
        or "does not fit in int64" in str(exc)
        or "is not a whole number" in str(exc)
        or "is not a number" in str(exc)
        or isinstance(exc.__cause__, OverflowError)
    )


def _numeric_fields(line: str, header: bool) -> tuple[list, list]:
    """The numbers of a header or record line, lists flattened, and its integers."""
    obj = json.loads(line)
    keys = ("image_width", "image_height", "feature_dim") if header else (
        "id", "score", "box", "feature")
    values = [obj.get(k) for k in keys]
    integers = [obj.get("feature_dim" if header else "id")]
    mask = None if header else obj.get("mask")
    if isinstance(mask, dict):
        values += [mask.get(k) for k in ("height", "width", "values")]
        integers += [mask.get("height"), mask.get("width")]
    leaves = []
    while values:
        v = values.pop()
        if isinstance(v, list):
            values.extend(v)
        else:
            leaves.append(v)
    return leaves, integers


def _check_deliberate(lines: list[str], path: Path, got: ProposalFileError) -> None:
    """Check a rejection the reference did not make, or made later."""
    # The records before the rejected line read alike.
    prefix = path.with_name("prefix.jsonl")
    _compare(lines[: got.line - 1], prefix)
    if "does not fit in int64" in str(got):
        assert not -(2**63) <= int(json.loads(lines[got.line - 1])["id"]) < 2**63
        return
    numbers, integers = _numeric_fields(lines[got.line - 1], header=got.line == 1)
    if "is not a whole number" in str(got):
        assert any(
            isinstance(v, float) and not v.is_integer()
            and f"{v!r} is not a whole number" in str(got)
            for v in integers
        )
        return
    if "is not a number" in str(got):
        # the line holds the string or boolean named, in a numeric field
        assert any(
            type(v) in (str, bool) and f"{v!r} is not a number" in str(got) for v in numbers
        )
        return
    # Through it, the reference reads ragged features, or lets the
    # OverflowError escape.
    prefix.write_text("\n".join(lines[: got.line]) + "\n")
    ref, ref_exc = _outcome(read_proposal_file, prefix)
    if isinstance(got.__cause__, OverflowError):
        assert type(ref_exc) is OverflowError and str(ref_exc) == str(got.__cause__)
    else:
        assert ref_exc is None and len({p.feature.shape for p in ref}) > 1


def _compare(lines: list[str], path: Path) -> None:
    path.write_text("\n".join(lines) + "\n")
    want, want_exc = _outcome(read_proposal_file, path)
    got, got_exc = _outcome(formats.read_proposal_file, path)
    if _deliberate(got_exc) and not (
        isinstance(want_exc, ProposalFileError) and want_exc.line < got_exc.line
    ):
        _check_deliberate(lines, path, got_exc)
        return
    if want_exc is not None:
        assert got_exc is not None, str(want_exc)
        assert (type(got_exc), str(got_exc)) == (type(want_exc), str(want_exc))
        assert getattr(got_exc, "line", None) == getattr(want_exc, "line", None)
        return
    header = ("image_width", "image_height", "feature_dim")
    assert [repr(getattr(got, k)) for k in header] == [repr(getattr(want, k)) for k in header]
    _same_arrays(got, want)
    assert proposals.validate(got) == _size_violations(want) + validate(want)


class TestReaderAndValidateAgreement:
    @given(proposal_files())
    @settings(max_examples=400, deadline=None)
    def test_same_arrays_violations_and_errors(self, tmp_path_factory, lines):
        _compare(lines, tmp_path_factory.mktemp("ref") / "scene.jsonl")

    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(-0.5, 1.5),
                              st.floats(-1.0, 9.0), st.floats(-1.0, 9.0)),
                    min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_validate_object_built_sets(self, rows):
        # the reference set holds the rows as objects, the library's as columns
        objs = tuple(
            Proposal(id=i, score=s, box=Box(x, y, x + 2.0, y + 2.0), feature=np.ones(2))
            for i, s, x, y in rows
        )
        arrays = proposals.ProposalArrays(
            ids=[i for i, _, _, _ in rows],
            scores=[s for _, s, _, _ in rows],
            boxes=[(x, y, x + 2.0, y + 2.0) for _, _, x, y in rows],
            features=np.ones((len(rows), 2)),
        )
        got = proposals.ProposalSet(proposals=arrays, image_width=10.0, image_height=10.0,
                                    feature_dim=2)
        want = ReferenceSet(proposals=objs, image_width=10.0, image_height=10.0,
                            feature_dim=2)
        assert proposals.validate(got) == validate(want)


def _write(path: Path, records: list[dict], **header) -> Path:
    head = {"format": "proposals", "version": 1, "image_width": 10.0,
            "image_height": 10.0, "feature_dim": 2, **header}
    path.write_text("\n".join(json.dumps(r) for r in [head, *records]) + "\n")
    return path


def _rec(i, feature=(0.5, 0.5), **extra):
    return {"id": i, "score": 0.5, "box": [1.0, 1.0, 2.0, 2.0], "feature": list(feature), **extra}


class TestDeliberateDifferences:
    def test_ragged_feature_names_its_line(self, tmp_path):
        path = _write(tmp_path / "p.jsonl", [_rec(0), _rec(1), _rec(2, (1.0,)), _rec(3)])
        with pytest.raises(ProposalFileError, match="ragged features") as err:
            formats.read_proposal_file(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("ident", [3.7, 3.2, -0.5])
    def test_fractional_id_names_its_line(self, tmp_path, ident):
        path = _write(tmp_path / "p.jsonl", [_rec(0), _rec(ident)])
        with pytest.raises(ProposalFileError, match=rf"id {ident} is not a whole number") as err:
            formats.read_proposal_file(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("field, value, message", [
        ("id", True, "id True is not a number"),
        ("id", "12", "id '12' is not a number"),
        ("score", "0.25", "score '0.25' is not a number"),
        ("box", ["0", "0", 1, 1], "box '0' is not a number"),
        ("feature", ["1", 0.5], "feature '1' is not a number"),
        ("feature", [1, True], "feature True is not a number"),
        ("mask", {"height": 1, "width": 2, "values": [0.5, "1"]},
         "mask values '1' is not a number"),
        ("mask", {"height": True, "width": 2, "values": [0.5, 1.0]},
         "mask height True is not a number"),
    ])
    def test_string_or_boolean_number_names_its_line(self, tmp_path, field, value, message):
        path = _write(tmp_path / "p.jsonl", [_rec(0), {**_rec(1), field: value}])
        # the reference reads each of these as a number
        assert len(read_proposal_file(path)) == 2
        with pytest.raises(ProposalFileError, match=message) as err:
            formats.read_proposal_file(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("header, message", [
        ({"feature_dim": 2.5}, "feature_dim 2.5 is not a whole number"),
        ({"feature_dim": True}, "feature_dim True is not a number"),
        ({"image_width": "10"}, "image_width '10' is not a number"),
    ])
    def test_string_boolean_or_fractional_header_names_line_one(self, tmp_path, header, message):
        path = _write(tmp_path / "p.jsonl", [_rec(0)], **header)
        assert len(read_proposal_file(path)) == 1
        with pytest.raises(ProposalFileError, match=f"line 1: malformed header: {message}"):
            formats.read_proposal_file(path)

    def test_whole_float_id_reads(self, tmp_path):
        path = _write(tmp_path / "p.jsonl", [_rec(3.0), _rec(-2.0)])
        assert formats.read_proposal_file(path).proposals.ids.tolist() == [3, -2]

    @pytest.mark.parametrize("ident", [2**63, -(2**63) - 1, 10**30])
    def test_id_outside_int64_names_its_line(self, tmp_path, ident):
        path = _write(tmp_path / "p.jsonl", [_rec(0), _rec(ident)])
        with pytest.raises(ProposalFileError, match="does not fit in int64") as err:
            formats.read_proposal_file(path)
        assert err.value.line == 3

    def test_int64_extremes_read(self, tmp_path):
        path = _write(tmp_path / "p.jsonl", [_rec(2**63 - 1), _rec(-(2**63))])
        ids = formats.read_proposal_file(path).proposals.ids
        assert ids.tolist() == [2**63 - 1, -(2**63)]

    def test_uniform_feature_dim_mismatch_reads_and_is_reported(self, tmp_path):
        path = _write(tmp_path / "p.jsonl", [_rec(0, (1.0, 2.0, 3.0)), _rec(1, (1.0, 2.0, 3.0))])
        pset = formats.read_proposal_file(path)
        assert pset.proposals.features.shape == (2, 3)
        assert proposals.validate(pset) == [
            f"proposal id {i}: feature dimension (3,) does not match set feature_dim 2"
            for i in (0, 1)
        ]

    def test_masks_read_into_the_mask_tuple(self, tmp_path):
        mask = {"height": 1, "width": 2, "values": [0.0, 1.0]}
        path = _write(tmp_path / "p.jsonl", [_rec(0), _rec(1, mask=mask)])
        masks = formats.read_proposal_file(path).proposals.masks
        assert masks[0] is None and isinstance(masks[1], Mask)
        assert formats.read_proposal_file(_write(path, [_rec(0)])).proposals.masks is None
