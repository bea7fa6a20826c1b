"""Tests for the evaluation metrics."""

import numpy as np
import pytest

from repro.core.segment import LinearSegmentation, Segment
from repro.metrics import max_deviation, segment_deviations, sum_of_segment_deviations


def make_rep():
    return LinearSegmentation([Segment(0, 4, 1.0, 0.0), Segment(5, 9, 0.0, 2.0)])


class TestMaxDeviation:
    def test_zero_for_identical(self):
        series = np.arange(10.0)
        assert max_deviation(series, series) == 0.0

    def test_known_value(self):
        assert max_deviation(np.array([0.0, 5.0]), np.array([1.0, 2.0])) == 3.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            max_deviation(np.zeros(3), np.zeros(4))


class TestSegmentDeviations:
    def test_per_segment_values(self):
        rep = make_rep()
        series = rep.reconstruct()
        series[2] += 1.5  # inside segment 0
        series[7] -= 0.5  # inside segment 1
        devs = segment_deviations(series, rep)
        assert devs == pytest.approx([1.5, 0.5])

    def test_sum(self):
        rep = make_rep()
        series = rep.reconstruct()
        series[0] += 2.0
        series[9] += 3.0
        assert sum_of_segment_deviations(series, rep) == pytest.approx(5.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            segment_deviations(np.zeros(5), make_rep())

