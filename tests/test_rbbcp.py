import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(window=st.integers(2, 8), zero_is_up=st.booleans(), data=st.data())
    def test_each_row_is_its_month_alone(self, window, zero_is_up, data):
        """Each row of a batch bit-equals that month's own call; a batch with a
        month the one-month call rejects raises that call's error for the first."""
        cells = st.floats(-1e3, 1e3, allow_nan=False) | st.sampled_from([0.0, 0.3, 1.7])

        def values():
            n = data.draw(st.integers(1, 30))
            return data.draw(st.lists(cells, min_size=n, max_size=n))

        start = MonthStamp(2010, 1)
        inflation = index_of(values(), start, IndexKind.INFLATION)
        growth = index_of(values(), start.add_months(data.draw(st.integers(-6, 6))), IndexKind.GROWTH)
        first = max(inflation.months[0], growth.months[0]) + window - 1  # where both windows are full
        last = max(first, min(inflation.months[-1], growth.months[-1]))
        good = data.draw(st.lists(st.integers(first, last), max_size=20))
        any_month = st.integers(first - window - 8, last + 2)
        months = data.draw(st.permutations(good + data.draw(st.lists(any_month, max_size=3))))
        model = RbbcpModel(window, zero_is_up)
        rows, first_error = [], None
        for m in months:
            try:
                rows.append(model.predict_proba_at(inflation, growth, m))
            except InsufficientHistoryError as exc:
                first_error = str(exc)
                break
        if first_error is not None:
            with pytest.raises(InsufficientHistoryError) as batch_error:
                model.predict_proba_at(inflation, growth, np.array(months))
            assert str(batch_error.value) == first_error
        else:
            got = model.predict_proba_at(inflation, growth, np.array(months, dtype=np.int64))
            assert got.shape == (len(months), 4)
            assert got.tobytes() == np.array(rows).reshape(-1, 4).tobytes()
