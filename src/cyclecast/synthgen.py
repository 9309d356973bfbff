"""Seeded synthetic business-cycle generator.

Produces a labeled dataset plus a panel of macro-like series whose joint
behavior encodes the phase semantics: growth and inflation latents drift up
or down depending on the active phase (expansion +growth +inflation,
slowdown -growth +inflation, recession -growth -inflation, recovery
+growth -inflation), phases follow the cyclic order
recovery -> expansion -> slowdown -> recession with geometric durations, and
each observable series is a positive loading on one latent plus
idiosyncratic noise. Everything is deterministic per seed, which makes the
generator the end-to-end test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Category, LabeledDataset, MonthStamp, PhaseLabel, RawSeries, Region
from .errors import BadSpecError

__all__ = ["RegimeSpec", "generate", "generate_paths"]

# (growth drift, inflation drift) per phase, in phase-code order.
DEFAULT_DRIFTS = (
    (0.6, -0.5),  # recovery
    (0.3, 0.4),  # expansion
    (-0.8, 0.5),  # slowdown
    (-0.7, -0.6),  # recession
)

_CYCLE = (
    PhaseLabel.RECOVERY,
    PhaseLabel.EXPANSION,
    PhaseLabel.SLOWDOWN,
    PhaseLabel.RECESSION,
)


@dataclass(frozen=True)
class RegimeSpec:
    """Regime process parameters; defaults give a ~60-month cycle."""

    mean_durations: tuple[float, float, float, float] = (15.0, 22.0, 10.0, 13.0)
    drifts: tuple[tuple[float, float], ...] = DEFAULT_DRIFTS
    noise_sigma: float = 0.1
    n_series: int = 20
    seed: int = 0

    def __post_init__(self):
        if len(self.mean_durations) != 4 or any(d < 1 for d in self.mean_durations):
            raise BadSpecError("need four mean durations, each >= 1 month")
        if len(self.drifts) != 4 or any(len(d) != 2 for d in self.drifts):
            raise BadSpecError("need four (growth, inflation) drift pairs")
        if self.noise_sigma <= 0:
            raise BadSpecError("noise_sigma must be > 0")
        if self.n_series < 2:
            raise BadSpecError("need at least 2 observable series")


def generate_paths(
    spec: RegimeSpec, n_months: int
) -> tuple[list[PhaseLabel], np.ndarray, np.ndarray]:
    """Phase sequence and the two latent paths, before observation noise.

    The latent step into month t uses month t's phase drift plus Gaussian
    noise, so in the zero-noise limit each latent is exactly monotone inside
    a phase.
    """
    if n_months < max(spec.mean_durations):
        raise BadSpecError(
            f"n_months {n_months} shorter than the longest mean duration"
        )
    rng = np.random.default_rng(spec.seed)
    phases: list[PhaseLabel] = []
    slot = 0
    while len(phases) < n_months:
        phase = _CYCLE[slot % 4]
        duration = int(rng.geometric(1.0 / spec.mean_durations[int(phase) - 1]))
        phases.extend([phase] * duration)
        slot += 1
    phases = phases[:n_months]

    growth = np.empty(n_months)
    inflation = np.empty(n_months)
    g = i = 0.0
    for t, phase in enumerate(phases):
        dg, di = spec.drifts[int(phase) - 1]
        g += dg + spec.noise_sigma * rng.standard_normal()
        i += di + spec.noise_sigma * rng.standard_normal()
        growth[t] = g
        inflation[t] = i
    return phases, growth, inflation


def generate(
    spec: RegimeSpec,
    n_months: int,
    start: MonthStamp = MonthStamp(1970, 1),
    region: Region = Region.US,
) -> tuple[LabeledDataset, list[RawSeries]]:
    """Labeled months plus observable series driven by the latent factors.

    Series alternate between the growth and inflation latent; each carries a
    positive loading drawn from U(0.5, 1.5) and idiosyncratic noise with the
    spec's sigma.
    """
    phases, growth, inflation = generate_paths(spec, n_months)
    rng = np.random.default_rng(spec.seed + 1)  # independent of the path draws
    months = start.ordinal + np.arange(n_months, dtype=np.int64)
    series: list[RawSeries] = []
    for j in range(spec.n_series):
        on_growth = j % 2 == 0
        latent = growth if on_growth else inflation
        loading = rng.uniform(0.5, 1.5)
        values = loading * latent + spec.noise_sigma * rng.standard_normal(n_months)
        series.append(
            RawSeries(
                series_id=f"{'growth' if on_growth else 'inflation'}_{j:02d}",
                region=region,
                category=Category.GROWTH if on_growth else Category.INFLATION,
                months=months,
                values=values,
            )
        )
    dataset = LabeledDataset(months=months, labels=tuple(phases), region=region)
    return dataset, series
