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

from .dataset import PhaseLabel
from .features import ols_slope
from .indices import CompositeIndex

__all__ = [
    "TrendDirection",
    "RbbcpModel",
    "trend_direction",
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


def trend_direction(
    index: CompositeIndex,
    month: int,
    window: int,
    zero_is_up: bool = False,
) -> TrendDirection:
    """Direction of the index over its last ``window`` values ending at the ordinal ``month``."""
    if window < 2:
        raise ValueError("trend window must be >= 2")
    slope = ols_slope(index.window_ending_at(month, window))
    if slope > 0.0:
        return TrendDirection.UP
    if slope == 0.0 and zero_is_up:
        return TrendDirection.UP
    return TrendDirection.DOWN


def rbbcp_predict(inflation: TrendDirection, growth: TrendDirection) -> PhaseLabel:
    """Phase implied by the (inflation, growth) trend pair."""
    return _RULE_TABLE[(inflation, growth)]


def rbbcp_predict_proba(
    inflation: TrendDirection, growth: TrendDirection
) -> np.ndarray:
    """One-hot distribution over phases, so the rule plugs into top-k scoring."""
    phase = rbbcp_predict(inflation, growth)
    p = np.zeros(4)
    p[int(phase) - 1] = 1.0
    return p


@dataclass(frozen=True)
class RbbcpModel:
    """The rule with its trend window, packaged like a trained model.

    No parameters are fitted; saving one just snapshots the configuration.
    """

    trend_window: int = 12
    zero_is_up: bool = False

    def predict_proba_at(
        self, inflation_index: CompositeIndex, growth_index: CompositeIndex, month: int
    ) -> np.ndarray:
        return rbbcp_predict_proba(
            trend_direction(inflation_index, month, self.trend_window, self.zero_is_up),
            trend_direction(growth_index, month, self.trend_window, self.zero_is_up),
        )
