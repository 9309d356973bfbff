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


def direction(values, window=3, zero_is_up=False, month=None):
    """The trend direction ``RbbcpModel`` reads from an index of ``values``,
    over the window ending at ``month`` (default: the last)."""
    idx = index_of(values)
    month = idx.months[-1] if month is None else month
    dist = RbbcpModel(window, zero_is_up).predict_proba_at(idx, idx, month)
    (same,) = [d for d in (UP, DOWN) if np.array_equal(dist, rbbcp_predict_proba(d, d))]
    return same


class TestTrendDirection:
    def test_rising(self):
        assert direction([1, 2, 3]) is UP

    def test_falling(self):
        assert direction([3, 2, 1]) is DOWN

    def test_flat_is_down_by_default(self):
        assert direction([2, 2, 2]) is DOWN
        assert direction([0.3] * 4) is DOWN

    def test_flat_with_zero_is_up_override(self):
        assert direction([2, 2, 2], zero_is_up=True) is UP
        assert direction([0.3] * 4, zero_is_up=True) is UP

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistoryError):
            direction([1, 2])
        with pytest.raises(InsufficientHistoryError):
            direction([1, 2, 3, 4], month=MonthStamp(2010, 2).ordinal)

    def test_month_missing_from_index(self):
        for month in (MonthStamp(2009, 12), MonthStamp(2010, 4), MonthStamp(1900, 1)):
            with pytest.raises(InsufficientHistoryError, match="has no value at"):
                direction([1, 2, 3], month=month.ordinal)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            direction([1, 2, 3], window=1)


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
