"""Rule-based business cycle predictor.

Maps the joint trend directions of the inflation and growth composite
indices straight to a phase:

    inflation down, growth down -> recession
    inflation down, growth up   -> recovery
    inflation up,   growth down -> slowdown
    inflation up,   growth up   -> expansion

An exactly-zero slope counts as Down — a flat economy is never auto-labeled
expansionary. Both the trend window and the tie rule are config-overridable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import MonthStamp, PhaseLabel, month_row
from .errors import InsufficientHistoryError
from .features import window_slopes
from .indices import CompositeIndex

__all__ = [
    "TrendDirection",
    "RbbcpModel",
    "rbbcp_predict",
    "rbbcp_predict_proba",
]


class TrendDirection(Enum):
    UP = "up"
    DOWN = "down"


# Phase codes indexed by (inflation up, growth up), each 0 or 1.
_RULE_TABLE = np.array(
    [[PhaseLabel.RECESSION, PhaseLabel.RECOVERY], [PhaseLabel.SLOWDOWN, PhaseLabel.EXPANSION]]
)


def rbbcp_predict(inflation: TrendDirection, growth: TrendDirection) -> PhaseLabel:
    """Phase implied by the (inflation, growth) trend pair."""
    return PhaseLabel(_RULE_TABLE[int(inflation is TrendDirection.UP), int(growth is TrendDirection.UP)])


def rbbcp_predict_proba(
    inflation: TrendDirection, growth: TrendDirection
) -> np.ndarray:
    """One-hot distribution over phases, so the rule plugs into top-k scoring."""
    return np.eye(4)[int(rbbcp_predict(inflation, growth)) - 1]


@dataclass(frozen=True)
class RbbcpModel:
    """The rule with its trend window, packaged like a trained model.

    No parameters are fitted; saving one just snapshots the configuration.
    """

    trend_window: int = 12
    zero_is_up: bool = False

    def __post_init__(self):
        tw, up = self.trend_window, self.zero_is_up
        if type(tw) is not int or tw < 2 or type(up) is not bool:
            raise ValueError(f"need an int trend_window >= 2 and a bool zero_is_up, got {tw!r}, {up!r}")

    def predict_proba_at(
        self, inflation_index: CompositeIndex, growth_index: CompositeIndex, month: int | np.ndarray
    ) -> np.ndarray:
        """One-hot phase distribution at the ordinal ``month``, a (4,) row, or an
        (n, 4) matrix at an array of ordinals, each row bit for bit its month's
        own call; the first month that call rejects raises its InsufficientHistoryError."""
        try:
            up = [self._up(index, np.ravel(month)) for index in (inflation_index, growth_index)]
        except InsufficientHistoryError:
            for m in month if np.ndim(month) else ():  # each month alone, up to the first that raises
                self.predict_proba_at(inflation_index, growth_index, m)
            raise
        return np.eye(4)[_RULE_TABLE[up[0], up[1]] - 1].reshape(*np.shape(month), 4)

    def _up(self, index: CompositeIndex, months: np.ndarray) -> np.ndarray:
        """1 where the index's slope over the trend window ending at each of ``months`` is Up, else 0."""
        name, tw = f"{index.kind.value} index", self.trend_window
        try:
            ends = month_row(index.months, months)
        except KeyError as exc:
            raise InsufficientHistoryError(f"{name} has no value at {exc.args[0]}") from None
        if np.any(ends < tw - 1):  # at the month of the shortest history
            short = MonthStamp.from_ordinal(months[ends.argmin()])
            raise InsufficientHistoryError(
                f"{name} has only {ends.min() + 1} values through {short}, trend window {tw} requested"
            )
        if not ends.size:  # nothing to slope, even on an index shorter than the window
            return ends
        slopes = window_slopes(index.values, tw, ends)
        return ((slopes > 0.0) | ((slopes == 0.0) & self.zero_is_up)).astype(np.int64)
