import numpy as np
import pytest

from sinkhorn_nms import Box, Proposal, ProposalSet
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


@pytest.fixture
def three_box_set() -> ProposalSet:
    """A(0.9), B overlapping A at IoU exactly 0.6 (0.8), C disjoint (0.7)."""
    a = Box(0.0, 0.0, 10.0, 10.0)
    b = Box(0.0, 2.5, 10.0, 12.5)  # shared width, 7.5 overlap: 75/125 = 0.6
    c = Box(20.0, 20.0, 30.0, 30.0)
    proposals = (
        Proposal(id=0, score=0.9, box=a, feature=np.array([1.0, 0.0])),
        Proposal(id=1, score=0.8, box=b, feature=np.array([0.9, 0.1])),
        Proposal(id=2, score=0.7, box=c, feature=np.array([0.0, 1.0])),
    )
    return ProposalSet(
        proposals=proposals, image_width=64.0, image_height=64.0, feature_dim=2
    )
