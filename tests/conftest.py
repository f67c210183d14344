import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from sinkhorn_nms import ProposalArrays, ProposalSet
from sinkhorn_nms.formats import RUN_REPORT_FORMAT
from sinkhorn_nms.sinkhorn import _backward, _iterate


def solve_in_mode(C, params, marg, log_mode):
    """``solve`` started in the given mode: True log, False linear.

    The library picks the mode from ``tau``; tests that compare the two modes
    at one temperature force it through the private driver.  A linear start
    still reruns in log mode when its kernel underflows.
    """
    return _iterate(C, params, marg, log_mode=log_mode)[0]


def grad_in_mode(C, params, marg, upstream, log_mode):
    """``grad_unrolled`` started in the given mode, as in ``solve_in_mode``."""
    taped = _iterate(C, params, marg, keep_tape=True, log_mode=log_mode)
    return _backward(*taped, params.tau, np.asarray(upstream, dtype=np.float64))


def with_columns(pset: ProposalSet, **columns) -> ProposalSet:
    """``pset`` with the named columns of its ``ProposalArrays`` replaced."""
    return dataclasses.replace(pset, proposals=dataclasses.replace(pset.proposals, **columns))


def read_run_report(path: str | Path) -> dict:
    """Parse a run report of version 1 or 2; any other ``format`` or
    ``version`` raises ``ValueError`` naming the value.

    Version 1 differs only in always writing ``source_weights`` and in
    lacking two diagnostics, so both read the same way.
    """
    report = json.loads(Path(path).read_text())
    if not isinstance(report, dict):
        raise ValueError(f"expected a run-report object, got {type(report).__name__}")
    fmt, version = report.get("format"), report.get("version")
    if fmt != RUN_REPORT_FORMAT:
        raise ValueError(f"expected format {RUN_REPORT_FORMAT!r}, got {fmt!r}")
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"unsupported run-report version {version!r}")
    return report


@pytest.fixture
def three_box_set() -> ProposalSet:
    """A(0.9), B overlapping A at IoU exactly 0.6 (0.8), C disjoint (0.7)."""
    boxes = np.array([
        [0.0, 0.0, 10.0, 10.0],
        [0.0, 2.5, 10.0, 12.5],  # shared width, 7.5 overlap: 75/125 = 0.6
        [20.0, 20.0, 30.0, 30.0],
    ])
    arrays = ProposalArrays(ids=np.arange(3), scores=np.array([0.9, 0.8, 0.7]), boxes=boxes,
                            features=np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]))
    return ProposalSet(proposals=arrays, image_width=64.0, image_height=64.0, feature_dim=2)
