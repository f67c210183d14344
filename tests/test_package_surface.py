"""The package's public names: every one resolves, and test-only oracles stay out.

``feature_distance`` and ``spatial_distance`` (``tests/test_cost.py``), ``iou``
(``tests/test_geometry.py``), and ``line_search`` and ``duality_gap``
(``tests/test_refine.py``) have no caller in the library and live in the
tests that use them as oracles.  Forwarders to code the caller already holds
are gone too: ``quality_score`` (a one-row ``quality_scores``) and the
``ProposalSet`` column accessors (``pset.proposals.boxes`` and so on).
"""

import pytest

import sinkhorn_nms

MOVED_TO_TESTS = ("feature_distance", "spatial_distance", "iou", "duality_gap", "line_search")


@pytest.mark.parametrize("name", MOVED_TO_TESTS)
def test_oracle_only_names_are_not_exported(name):
    assert name not in sinkhorn_nms.__all__
    assert not hasattr(sinkhorn_nms, name)


def test_forwarders_are_gone():
    assert "quality_score" not in sinkhorn_nms.__all__
    assert not hasattr(sinkhorn_nms, "quality_score")
    assert not hasattr(sinkhorn_nms.geometry, "quality_score")
    for column in ("boxes", "scores", "features"):
        assert not hasattr(sinkhorn_nms.ProposalSet, column)


def test_every_exported_name_resolves():
    assert len(set(sinkhorn_nms.__all__)) == len(sinkhorn_nms.__all__)
    namespace: dict = {}
    exec("from sinkhorn_nms import *", namespace)
    assert set(sinkhorn_nms.__all__) <= namespace.keys()
