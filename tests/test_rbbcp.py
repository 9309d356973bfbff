import numpy as np
import pytest

from cyclecast.dataset import MonthStamp, PhaseLabel
from cyclecast.errors import InsufficientHistoryError
from cyclecast.indices import CompositeIndex, IndexKind
from cyclecast.rbbcp import (
    RbbcpModel,
    TrendDirection,
    rbbcp_predict,
    rbbcp_predict_proba,
    trend_direction,
)

from conftest import month_range

UP = TrendDirection.UP
DOWN = TrendDirection.DOWN


def index_of(values, start=MonthStamp(2010, 1), kind=IndexKind.GROWTH):
    return CompositeIndex(
        kind=kind,
        months=month_range(start, len(values)),
        values=tuple(float(v) for v in values),
    )


class TestTruthTable:
    def test_all_four_rows(self):
        assert rbbcp_predict(DOWN, DOWN) is PhaseLabel.RECESSION
        assert rbbcp_predict(DOWN, UP) is PhaseLabel.RECOVERY
        assert rbbcp_predict(UP, DOWN) is PhaseLabel.SLOWDOWN
        assert rbbcp_predict(UP, UP) is PhaseLabel.EXPANSION


class TestTrendDirection:
    def test_rising(self):
        idx = index_of([1, 2, 3])
        assert trend_direction(idx, idx.months[-1], 3) is UP

    def test_falling(self):
        idx = index_of([3, 2, 1])
        assert trend_direction(idx, idx.months[-1], 3) is DOWN

    def test_flat_is_down_by_default(self):
        idx = index_of([2, 2, 2])
        assert trend_direction(idx, idx.months[-1], 3) is DOWN

    def test_flat_with_zero_is_up_override(self):
        idx = index_of([2, 2, 2])
        assert trend_direction(idx, idx.months[-1], 3, zero_is_up=True) is UP

    def test_insufficient_history(self):
        idx = index_of([1, 2])
        with pytest.raises(InsufficientHistoryError):
            trend_direction(idx, idx.months[-1], 3)

    def test_window_validation(self):
        idx = index_of([1, 2, 3])
        with pytest.raises(ValueError):
            trend_direction(idx, idx.months[-1], 1)


class TestPredictProba:
    def test_one_hot_slowdown(self):
        p = rbbcp_predict_proba(UP, DOWN)
        np.testing.assert_array_equal(p, [0.0, 0.0, 1.0, 0.0])

    def test_sums_to_one(self):
        for inf in (UP, DOWN):
            for gro in (UP, DOWN):
                assert rbbcp_predict_proba(inf, gro).sum() == 1.0

    def test_argmax_matches_predict_exhaustively(self):
        for inf in (UP, DOWN):
            for gro in (UP, DOWN):
                p = rbbcp_predict_proba(inf, gro)
                assert PhaseLabel(int(np.argmax(p)) + 1) is rbbcp_predict(inf, gro)


class TestRbbcpModel:
    def test_predict_at_matches_manual(self):
        growth = index_of([1, 2, 3, 4], kind=IndexKind.GROWTH)
        inflation = index_of([4, 3, 2, 1], kind=IndexKind.INFLATION)
        model = RbbcpModel(trend_window=3)
        month = growth.months[-1]
        np.testing.assert_array_equal(
            model.predict_proba_at(inflation, growth, month), [1.0, 0.0, 0.0, 0.0]
        )
