"""The column path of the proposal reader against its per-record loop.

``read_proposal_file`` reads a regular file column by column
(``formats._read_columns``) and anything else with the per-record loop
(``formats._read_records``), which is the only path that raises.  On
generated valid files both paths must give the same dtype, shape and bytes
for ids, scores, boxes and features.  On the same files with one record
spoiled, the column path must decline, and the reader must raise the loop's
``ProposalFileError`` with its line and message, or read what the loop reads.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinkhorn_nms import formats
from sinkhorn_nms.formats import ProposalFileError

# numbers where floats belong: JSON integers, integer-valued floats, -0.0
# and the ends of the float range among them
_reals = st.one_of(
    st.floats(width=64),
    st.sampled_from([-0.0, 0.0, 2.0, -3.0, 1e308, -1e308, 5e-324]),
    st.integers(-(10**20), 10**20),
    st.sampled_from([2**53 + 1, -(2**63), 10**308]),
)
_finite = _reals.filter(lambda v: v == v and abs(v) != float("inf"))
_ids = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([0, 2**63 - 1, -(2**63)]))


@st.composite
def _boxes(draw):
    (x1, x2), (y1, y2) = sorted(draw(st.tuples(_finite, _finite))), sorted(
        draw(st.tuples(_finite, _finite)))
    return [x1, y1, x2, y2]


@st.composite
def valid_files(draw) -> list[str]:
    dim = draw(st.integers(0, 4))
    header = {"format": "proposals", "version": 1, "image_width": 640.0,
              "image_height": 480.0, "feature_dim": dim}
    lines = [json.dumps(header)]
    for _ in range(draw(st.integers(1, 8))):
        rec = {"id": draw(_ids), "score": draw(_reals), "box": draw(_boxes()),
               "feature": draw(st.lists(_reals, min_size=dim, max_size=dim))}
        if draw(st.integers(0, 5)) == 0:
            rec["note"] = draw(st.sampled_from(["x", None, [1, "2"]]))  # ignored by both
        order = draw(st.permutations(list(rec)))
        lines.append(json.dumps({k: rec[k] for k in order}))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  "])))
    return lines


def _columns(arrays) -> list[tuple]:
    return [(a.dtype, a.shape, a.tobytes())
            for a in (arrays.ids, arrays.scores, arrays.boxes, arrays.features)]


@given(valid_files())
@settings(max_examples=300, deadline=None)
def test_column_path_reads_what_the_loop_reads(lines):
    cols = formats._read_columns(lines)
    assert cols is not None
    loop = formats._read_records(lines)
    assert _columns(cols) == _columns(loop)
    assert cols.masks is None and loop.masks is None


# one record spoiled

_FIELDS = ("id", "score", "box", "feature")


def _spoil(rec: dict, kind: str, draw) -> dict | str:
    """``rec`` with one irregularity of ``kind``, or the spoiled line."""
    rec = json.loads(json.dumps(rec))
    if kind in ("string", "true"):
        odd = draw(st.sampled_from(["0.5", "x"])) if kind == "string" else True
        field = draw(st.sampled_from(_FIELDS))
        if field in ("id", "score") or not rec[field]:
            rec[field] = odd
        else:
            rec[field][draw(st.integers(0, len(rec[field]) - 1))] = odd
    elif kind == "whole":
        # four characters or keys where four numbers belong, or no list at all
        rec[draw(st.sampled_from(["box", "feature"]))] = draw(st.sampled_from(
            ["0022", {"a": 1, "b": 2, "c": 3, "d": 4}, 0.5, None]))
    elif kind == "two":
        return json.dumps(rec) + ", " + json.dumps(rec)
    elif kind == "id":
        rec["id"] = draw(st.sampled_from([3.0, 3.5, True, False, 2**63, -(2**63) - 1]))
    elif kind == "ragged":
        rec["feature"].append(0.5)
    elif kind == "nan_box":
        rec["box"][draw(st.integers(0, 3))] = float("nan")
    elif kind == "missing":
        del rec[draw(st.sampled_from(_FIELDS))]
    else:  # a mask, which only the loop reads
        rec["mask"] = {"height": 1, "width": 1, "values": [0.5]}
    return rec


@st.composite
def spoiled_files(draw) -> tuple[list[str], int, str]:
    lines = draw(valid_files())
    records = [i for i, line in enumerate(lines) if i and line.strip()]
    at = draw(st.sampled_from(records))
    kinds = ["string", "true", "whole", "two", "id", "nan_box", "missing", "mask"]
    # one longer feature is ragged only next to another record
    kind = draw(st.sampled_from(kinds + ["ragged", "shifted"] * (len(records) > 1)))
    if kind == "shifted":
        # one entry moved to another record: the columns keep their total size
        other = draw(st.sampled_from([i for i in records if i != at]))
        src, dst = json.loads(lines[at]), json.loads(lines[other])
        field = "feature" if src["feature"] and draw(st.booleans()) else "box"
        dst[field].append(src[field].pop())
        lines[at], lines[other] = json.dumps(src), json.dumps(dst)
        return lines, min(at, other) + 1, kind
    spoiled = _spoil(json.loads(lines[at]), kind, draw)
    lines[at] = spoiled if isinstance(spoiled, str) else json.dumps(spoiled)
    return lines, at + 1, kind


def _outcome(read, arg):
    try:
        return _columns(read(arg))
    except ProposalFileError as exc:
        return exc.line, str(exc)


def _shifted(field: str, sizes: tuple[int, int]) -> tuple[list[str], int, str]:
    """Two records whose ``field`` sizes add up to two regular ones, in
    ascending numbers, so that the stacked columns would look regular."""
    head = {"format": "proposals", "version": 1, "image_width": 640.0,
            "image_height": 480.0, "feature_dim": sum(sizes) // 2}
    recs = [{"id": 0, "score": 0.5, "box": [0.0, 1.0, 2.0, 3.0], "feature": [0.5] * 2}
            for _ in sizes]
    start = 0
    for rec, size in zip(recs, sizes):
        rec[field] = [float(v) for v in range(start, start + size)]
        start += size
    return [json.dumps(r) for r in [head, *recs]], 2, "shifted"


@given(spoiled_files())
@settings(max_examples=400, deadline=None)
@example(_shifted("box", (3, 5)))
@example(_shifted("feature", (1, 3)))
def test_irregular_records_take_the_loop(tmp_path_factory, spoiled):
    lines, line_no, kind = spoiled
    assert formats._read_columns(lines) is None
    path = tmp_path_factory.mktemp("spoiled") / "scene.jsonl"
    path.write_text("\n".join(lines) + "\n")
    got = _outcome(lambda p: formats.read_proposal_file(p).proposals, path)
    assert got == _outcome(formats._read_records, lines)
    if isinstance(got[0], int) and kind not in ("ragged", "shifted", "whole"):
        # The spoiled line is named, except where it holds a feature unlike
        # the first record's (a number or null is a feature of shape ()):
        # then the first record whose feature differs from it is.
        assert got[0] == line_no
