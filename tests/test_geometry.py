import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sinkhorn_nms import Box, Mask, quality_scores, total_variation
from sinkhorn_nms.geometry import iou_matrix


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0.0 when the union has no area."""
    return float(iou_matrix(a.as_array()[None], b.as_array()[None])[0, 0])


coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def boxes(min_size=0.0):
    return st.builds(
        lambda x1, y1, w, h: Box(x1, y1, x1 + max(w, min_size), y1 + max(h, min_size)),
        coords,
        coords,
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )


class TestBox:
    def test_rejects_unordered_corners(self):
        with pytest.raises(ValueError):
            Box(1.0, 0.0, 0.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Box(0.0, 0.0, np.inf, 1.0)

    def test_area_and_center(self):
        b = Box(0.0, 0.0, 2.0, 4.0)
        assert b.area == 8.0
        assert b.center == (1.0, 2.0)


class TestIou:
    def test_identical(self):
        b = Box(1.0, 1.0, 4.0, 5.0)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_hand_case(self):
        # intersection 1, union 7
        assert iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == pytest.approx(1.0 / 7.0)

    def test_degenerate_pair_is_zero(self):
        z = Box(1.0, 1.0, 1.0, 1.0)
        assert iou(z, z) == 0.0

    @given(boxes(), boxes())
    def test_symmetric(self, a, b):
        assert iou(a, b) == pytest.approx(iou(b, a))

    @given(boxes(min_size=0.5))
    def test_self_iou_is_one(self, b):
        assert iou(b, b) == 1.0

    @given(boxes(), boxes())
    def test_range(self, a, b):
        assert 0.0 <= iou(a, b) <= 1.0


class TestQualityScore:
    def test_exact_match(self):
        b = Box(0, 0, 2, 2)
        assert quality_scores(b.as_array()[None], [Box(5, 5, 6, 6), b]).tolist() == [1.0]

    def test_empty_ground_truth(self):
        assert quality_scores(Box(0, 0, 1, 1).as_array()[None], []).tolist() == [0.0]

    def test_hand_case(self):
        # inter 2, union 6 against the first box
        got = quality_scores(Box(0, 0, 2, 2).as_array()[None], [Box(1, 0, 3, 2), Box(10, 10, 11, 11)])
        assert got.shape == (1,) and got[0] == pytest.approx(1.0 / 3.0)

    @given(boxes(), st.lists(boxes(), max_size=5), boxes())
    def test_monotone_in_ground_truth(self, p, gts, extra):
        row = p.as_array()[None]
        assert quality_scores(row, gts + [extra])[0] >= quality_scores(row, gts)[0]


grids = st.integers(min_value=1, max_value=6).flatmap(
    lambda h: st.integers(min_value=1, max_value=6).flatmap(
        lambda w: st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=w, max_size=w),
            min_size=h,
            max_size=h,
        )
    )
)


class TestTotalVariation:
    def test_constant_mask(self):
        assert total_variation(Mask(np.full((3, 4), 0.7))) == 0.0

    def test_checkerboard(self):
        assert total_variation(Mask(np.array([[1.0, 0.0], [0.0, 1.0]]))) == 4.0

    def test_row_mask(self):
        assert total_variation(Mask(np.array([[0.0, 1.0, 0.0]]))) == 2.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Mask(np.array([[0.0, 1.5]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Mask(np.zeros((0, 3)))

    @given(grids)
    def test_nonnegative_and_zero_iff_constant(self, rows):
        m = Mask(np.array(rows))
        tv = total_variation(m)
        assert tv >= 0.0
        if np.ptp(m.values) == 0.0:
            assert tv == 0.0
        else:
            assert tv > 0.0

    @given(grids, st.floats(min_value=0.0, max_value=1.0))
    def test_scales_linearly(self, rows, c):
        m = np.array(rows)
        assert total_variation(Mask(c * m)) == pytest.approx(
            c * total_variation(Mask(m)), abs=1e-12
        )
