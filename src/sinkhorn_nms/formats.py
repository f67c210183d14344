"""Line-delimited file formats for proposals, ground truth, and run reports.

Proposal and ground-truth files are JSON Lines: a header object on the first
line followed by one record per line.  Numbers are serialized with Python's
shortest round-trip float encoding, so write-then-read reproduces every value
bit for bit.  A proposal file is written from, and read straight into, the
arrays of a ``ProposalSet`` (no object per record), so its features must
stack.  The reader decodes each line on its own, streams the four fields
into one list per column, and checks and stacks each column once; a file
that is irregular in any way (a mask, an id that is no JSON integer inside
int64, a string or boolean in a numeric field, ragged or nested features, a
bad box, no records) is read again by the per-record loop, which gives the
same arrays and is the only path that raises.  There a record whose feature
shape differs from the earlier records' is a parse error naming its line,
as is an id outside int64.  An id, label or ``feature_dim`` that is a JSON
number with a fractional part is a parse error too, never truncated, and so
is a JSON string or boolean where a number belongs, never coerced.  Reports
are single canonical JSON documents (sorted keys, fixed separators, trailing
newline), which makes equal runs byte-identical.

Proposal and ground-truth files are at ``FORMAT_VERSION`` 1.  Run reports are
at ``RUN_REPORT_VERSION`` 2: a refined record carries its dense
``source_weights`` row (one weight per input proposal) only when asked for,
because at M = 2048 writing those floats costs about as much as the run.
With the rows, every refined record has the bytes of a version 1 record.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from operator import itemgetter
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ._checks import check_int
from .geometry import Box, Mask
from .pipeline import PipelineConfig, PipelineDiagnostics, RefinedProposal
from .proposals import GroundTruth, ProposalArrays, ProposalSet

FORMAT_VERSION = 1
RUN_REPORT_VERSION = 2
PROPOSALS_FORMAT = "proposals"
GROUND_TRUTH_FORMAT = "ground-truth"
RUN_REPORT_FORMAT = "run-report"

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# what ``json.loads`` gives for a JSON number; ``bool`` is not one
_NUMBER_TYPES = frozenset((int, float))
_decode = json.JSONDecoder().raw_decode
_fields = itemgetter("box", "id", "score", "feature")


class ProposalFileError(ValueError):
    """Parse failure carrying the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def dumps_canonical(obj: Any) -> str:
    """Deterministic JSON document: sorted keys, compact, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _mask_to_record(mask: Mask) -> dict:
    return {
        "width": mask.width,
        "height": mask.height,
        "values": mask.values.ravel().tolist(),
    }


def _mask_from_record(rec: dict) -> Mask:
    values = np.array(_numbers(rec["values"], "mask values"), dtype=np.float64).reshape(
        _whole(rec["height"], "mask height"), _whole(rec["width"], "mask width")
    )
    return Mask(values)


def proposal_set_to_lines(pset: ProposalSet) -> list[str]:
    """Canonical lines of a proposal file, each ending in a newline."""
    header = {
        "format": PROPOSALS_FORMAT,
        "version": FORMAT_VERSION,
        # as JSON takes them: a numpy scalar is no JSON number
        "image_width": float(pset.image_width),
        "image_height": float(pset.image_height),
        "feature_dim": check_int("feature_dim", pset.feature_dim),
    }
    lines = [dumps_canonical(header)]
    a = pset.proposals
    rows = zip(a.ids.tolist(), a.scores.tolist(), a.boxes.tolist(), a.features.tolist(),
               a.masks or (None,) * len(a))
    for ident, score, box, feature, mask in rows:
        rec: dict[str, Any] = {"id": ident, "score": score, "box": box, "feature": feature}
        if mask is not None:
            rec["mask"] = _mask_to_record(mask)
        lines.append(dumps_canonical(rec))
    return lines


def write_proposal_file(path: str | Path, pset: ProposalSet) -> None:
    Path(path).write_text("".join(proposal_set_to_lines(pset)))


def _numbers(value, name: str):
    """``value`` as given; a JSON string or boolean in it, or in its lists, raises.

    ``float``, ``int`` and ``np.array`` would read ``"0.25"`` and ``true`` as
    numbers, and a dtype check alone misses ``[1, true]``, which stacks as
    int64.  Other non-numbers are left to the conversion that follows.
    """
    if type(value) is list:
        if _NUMBER_TYPES.issuperset(map(type, value)):
            return value
        for item in value:
            _numbers(item, name)
    elif type(value) in (str, bool):
        raise ValueError(f"{name} {value!r} is not a number")
    return value


def _whole(value, name: str) -> int:
    """``int(value)`` of a JSON number; a fractional part raises."""
    whole = int(_numbers(value, name))
    if isinstance(value, float) and whole != value:
        raise ValueError(f"{name} {value!r} is not a whole number")
    return whole


def _read_header(path: str | Path, fmt: str) -> tuple[dict, list[str]]:
    """Header object and all lines of a JSON Lines file of format ``fmt``."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ProposalFileError(1, "empty file, expected a header object")
    header = _parse_line(lines[0], 1)
    if header.get("format") != fmt:
        raise ProposalFileError(1, f"expected format {fmt!r}")
    if header.get("version") != FORMAT_VERSION:
        raise ProposalFileError(1, f"unsupported version {header.get('version')!r}")
    return header, lines


def read_proposal_file(path: str | Path) -> ProposalSet:
    """Parse a proposal file straight into the arrays of a ``ProposalSet``.

    No ``Proposal`` or ``Box`` is built per record.  The records of a regular
    file are read column by column (:func:`_read_columns`); any other file is
    read by the per-record loop :func:`_read_records`, which gives the same
    arrays and is the only path that raises for a record.  It converts each
    record in the order box, mask, id, score, feature, and the first failure
    raises ``ProposalFileError`` naming its line, as does a string or boolean
    in a numeric field, an id with a fractional part or outside int64 and a
    feature whose shape differs from the earlier records'.  Value checks that
    do not stop stacking (scores, box extents, a uniform ``feature_dim``
    mismatch) are left to :func:`~sinkhorn_nms.proposals.validate`.
    """
    header, lines = _read_header(path, PROPOSALS_FORMAT)
    try:
        image_width = float(_numbers(header["image_width"], "image_width"))
        image_height = float(_numbers(header["image_height"], "image_height"))
        feature_dim = _whole(header["feature_dim"], "feature_dim")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProposalFileError(1, f"malformed header: {exc}") from exc
    arrays = _read_columns(lines)
    if arrays is None:
        arrays = _read_records(lines)
    return ProposalSet(
        proposals=arrays,
        image_width=image_width,
        image_height=image_height,
        feature_dim=feature_dim,
    )


def _read_columns(lines: list[str]) -> ProposalArrays | None:
    """The records after the header as arrays, or ``None`` if they are irregular.

    Each line is decoded on its own and its four fields go to one flat list
    per column; each column is then checked and stacked once.  Regular means
    at least one record, every non-blank line one JSON object and nothing
    else, no mask, ids JSON integers inside int64, scores numbers, boxes four
    numbers each, finite with ``x1 <= x2`` and ``y1 <= y2``, and features
    lists of numbers of one length.  For such records the arrays equal
    :func:`_read_records`' byte for byte; anything else is left to it.
    """
    ids, scores, boxes, features, box_sizes, feature_sizes = [], [], [], [], [], []
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            # json.loads without its whitespace handling; padding is irregular
            rec, end = _decode(line)
            if end != len(line) or type(rec) is not dict or "mask" in rec:
                return None
            box, ident, score, feature = _fields(rec)
            # Flat columns: no container outlives its line.  Kept lists, one
            # per record, were promoted by the garbage collector and set off a
            # full collection in about one of 15 runs on 2048 records.
            boxes.extend(box)
            box_sizes.append(len(box))
            features.extend(feature)
            feature_sizes.append(len(feature))
        except (ValueError, KeyError, TypeError):  # bad JSON, no such key, no list
            return None
        ids.append(ident)
        scores.append(score)
    # The element types also rule out a box or feature that is a string or
    # an object (its characters or keys) and nested lists; a bool is no int
    # here, and neither is an integer-valued float.
    regular = (
        ids
        and set(map(type, ids)) == {int}
        and _INT64_MIN <= min(ids) and max(ids) <= _INT64_MAX
        and _NUMBER_TYPES.issuperset(map(type, scores))
        and set(box_sizes) == {4} and _NUMBER_TYPES.issuperset(map(type, boxes))
        and len(set(feature_sizes)) == 1 and _NUMBER_TYPES.issuperset(map(type, features))
    )
    if not regular:
        return None
    try:
        score_col = np.array(scores, dtype=np.float64)
        box_col = np.array(boxes, dtype=np.float64).reshape(-1, 4)
        feature_col = np.array(features, dtype=np.float64).reshape(len(ids), feature_sizes[0])
    except OverflowError:  # an integer beyond the float range
        return None
    # NaN fails the ordering too
    if not (np.isfinite(box_col).all() and (box_col[:, 0] <= box_col[:, 2]).all()
            and (box_col[:, 1] <= box_col[:, 3]).all()):
        return None
    return ProposalArrays(ids=np.array(ids, dtype=np.int64), scores=score_col,
                          boxes=box_col, features=feature_col)


def _read_records(lines: list[str]) -> ProposalArrays:
    """The records after the header as arrays, converted one record at a time."""
    ids, scores, boxes, features, masks = [], [], [], [], []
    shape = None
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _parse_line(line, line_no)
        try:
            box = [float(v) for v in _numbers(rec["box"], "box")]
            # finite and ordered corners; Box words the error otherwise
            if len(box) != 4 or not (
                -math.inf < box[0] <= box[2] < math.inf
                and -math.inf < box[1] <= box[3] < math.inf
            ):
                Box(*box)
            mask = _mask_from_record(rec["mask"]) if "mask" in rec else None
            ident = _whole(rec["id"], "id")
            if not _INT64_MIN <= ident <= _INT64_MAX:
                raise ValueError(f"id {ident} does not fit in int64")
            score = float(_numbers(rec["score"], "score"))
            feature = np.array(_numbers(rec["feature"], "feature"), dtype=np.float64)
            if shape is None:
                shape = feature.shape
            elif feature.shape != shape:
                raise ValueError(
                    f"feature shape {feature.shape} differs from {shape} of the "
                    "earlier records; ragged features cannot be stacked"
                )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProposalFileError(line_no, f"malformed proposal record: {exc}") from exc
        boxes.append(box)
        masks.append(mask)
        ids.append(ident)
        scores.append(score)
        features.append(feature)
    return ProposalArrays(
        ids=np.array(ids, dtype=np.int64),
        scores=np.array(scores, dtype=np.float64),
        boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4),
        features=np.array(features, dtype=np.float64) if features else np.empty((0, 0)),
        masks=tuple(masks) if any(m is not None for m in masks) else None,
    )


def _parse_line(line: str, line_no: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProposalFileError(line_no, f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ProposalFileError(line_no, "expected a JSON object")
    return obj


def write_ground_truth(path: str | Path, gt: GroundTruth) -> None:
    header = {"format": GROUND_TRUTH_FORMAT, "version": FORMAT_VERSION}
    lines = [dumps_canonical(header)]
    for box, label in zip(gt.boxes, gt.labels):
        lines.append(
            dumps_canonical({"box": [box.x1, box.y1, box.x2, box.y2], "label": label})
        )
    Path(path).write_text("".join(lines))


def read_ground_truth(path: str | Path) -> GroundTruth:
    _, lines = _read_header(path, GROUND_TRUTH_FORMAT)
    boxes = []
    labels = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _parse_line(line, line_no)
        try:
            boxes.append(Box(*(float(v) for v in _numbers(rec["box"], "box"))))
            labels.append(_whole(rec.get("label", 0), "label"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ProposalFileError(line_no, f"malformed region record: {exc}") from exc
    return GroundTruth(boxes=tuple(boxes), labels=tuple(labels))


def _refined_to_record(r: RefinedProposal, source_weights: bool) -> dict:
    rec: dict[str, Any] = {
        "box": [r.box.x1, r.box.y1, r.box.x2, r.box.y2],
        "score": r.score,
        "feature": r.feature.tolist(),
    }
    if source_weights:
        rec["source_weights"] = r.source_weights.tolist()
    if r.probability is not None:
        rec["probability"] = r.probability
    if r.mask is not None:
        rec["mask"] = _mask_to_record(r.mask)
    return rec


def run_report(
    cfg: PipelineConfig,
    refined: Sequence[RefinedProposal],
    diagnostics: PipelineDiagnostics,
    source_weights: bool = False,
) -> dict:
    """Deterministic report payload: config echo, outputs, diagnostics.

    ``source_weights`` adds each region's dense row of proposal weights to
    its record.  Wall-clock measurements deliberately stay out of the payload
    so that identical inputs produce byte-identical reports; timing belongs
    on stderr.
    """
    return {
        "format": RUN_REPORT_FORMAT,
        "version": RUN_REPORT_VERSION,
        "config": asdict(cfg),
        "refined": [_refined_to_record(r, source_weights) for r in refined],
        "diagnostics": asdict(diagnostics),
    }


def write_run_report(path: str | Path, report: dict) -> None:
    Path(path).write_text(dumps_canonical(report))
