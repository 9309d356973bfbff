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


_RULE_TABLE = {
    (TrendDirection.DOWN, TrendDirection.DOWN): PhaseLabel.RECESSION,
    (TrendDirection.DOWN, TrendDirection.UP): PhaseLabel.RECOVERY,
    (TrendDirection.UP, TrendDirection.DOWN): PhaseLabel.SLOWDOWN,
    (TrendDirection.UP, TrendDirection.UP): PhaseLabel.EXPANSION,
}


def rbbcp_predict(inflation: TrendDirection, growth: TrendDirection) -> PhaseLabel:
    """Phase implied by the (inflation, growth) trend pair."""
    return _RULE_TABLE[(inflation, growth)]


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
        self, inflation_index: CompositeIndex, growth_index: CompositeIndex, month: int
    ) -> np.ndarray:
        return rbbcp_predict_proba(
            self._direction(inflation_index, month), self._direction(growth_index, month)
        )

    def _direction(self, index: CompositeIndex, month: int) -> TrendDirection:
        """Sign of the index's slope over the trend window ending at the ordinal ``month``."""
        name = f"{index.kind.value} index"
        try:
            end = month_row(index.months, month) + 1
        except KeyError as exc:
            raise InsufficientHistoryError(f"{name} has no value at {exc.args[0]}") from None
        if end < self.trend_window:
            raise InsufficientHistoryError(
                f"{name} has only {end} values through {MonthStamp.from_ordinal(month)}, "
                f"trend window {self.trend_window} requested"
            )
        slope = window_slopes(index.values[end - self.trend_window : end], self.trend_window)[0]
        up = slope > 0.0 or (slope == 0.0 and self.zero_is_up)
        return TrendDirection.UP if up else TrendDirection.DOWN
