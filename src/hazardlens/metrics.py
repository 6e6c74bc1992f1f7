"""Confusion counts, F-beta, and cross-county / cross-hazard dispersion.

F-beta weights recall beta times as heavily as precision; the run-level
default is beta = 1.5. Dispersion uses the population standard deviation
(divide by the count of present entries, not count-1), with absent
county-hazard pairs excluded from both the mean and the divisor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import HIGH
from .errors import DimensionMismatch, NoEntries, NoPositives


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(labels, predictions) -> Confusion:
    """Count the four cells with high as the positive class."""
    labels = np.asarray(labels, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if labels.shape != predictions.shape:
        raise DimensionMismatch(
            f"labels have {labels.shape[0]} entries, predictions "
            f"{predictions.shape[0]}"
        )
    pos = labels == HIGH
    pred_pos = predictions == HIGH
    return Confusion(
        tp=int(np.sum(pos & pred_pos)),
        fp=int(np.sum(~pos & pred_pos)),
        fn=int(np.sum(pos & ~pred_pos)),
        tn=int(np.sum(~pos & ~pred_pos)),
    )


def precision(c: Confusion) -> float:
    denom = c.tp + c.fp
    return c.tp / denom if denom else 0.0


def recall(c: Confusion) -> float:
    denom = c.tp + c.fn
    return c.tp / denom if denom else 0.0


def f_beta(c: Confusion, beta: float) -> float:
    """F-score (1+beta^2) P R / (beta^2 P + R) as a fraction in [0, 1].

    Returns 0 when tp = 0 but positives exist somewhere (fp or fn > 0).
    Raises NoPositives when tp + fp + fn = 0: with no positive truth and no
    positive predictions the score is undefined, not zero.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if c.tp + c.fp + c.fn == 0:
        raise NoPositives("no positive ground truth and no positive predictions")
    if c.tp == 0:
        return 0.0
    p = precision(c)
    r = recall(c)
    b2 = beta * beta
    return (1.0 + b2) * p * r / (b2 * p + r)


@dataclass
class MetricTable:
    """Values of one metric indexed by (county, hazard), absences explicit.

    Both index sets come from the run's registries; a pair simply not set
    is an absent cell and never contributes to any aggregate.
    """

    counties: tuple[str, ...]
    hazards: tuple[str, ...]
    values: dict[tuple[str, str], float] = field(default_factory=dict)

    def set(self, county: str, hazard: str, value: float) -> None:
        if county not in self.counties:
            raise KeyError(f"county {county!r} not in registry")
        if hazard not in self.hazards:
            raise KeyError(f"hazard {hazard!r} not in registry")
        self.values[(county, hazard)] = float(value)

    def get(self, county: str, hazard: str) -> float | None:
        return self.values.get((county, hazard))

    def column(self, hazard: str) -> list[float]:
        """Present values for one hazard, in county-registry order."""
        return [
            self.values[(c, hazard)]
            for c in self.counties
            if (c, hazard) in self.values
        ]

    def row(self, county: str) -> list[float]:
        """Present values for one county, in hazard-registry order."""
        return [
            self.values[(county, h)]
            for h in self.hazards
            if (county, h) in self.values
        ]


def _population_std(values: list[float]) -> float:
    arr = np.asarray(values, dtype=np.float64)
    arr = arr - arr[0]  # translation-invariant; keeps constant vectors at 0
    mu = float(arr.mean())
    return math.sqrt(float(np.mean((arr - mu) ** 2)))


@dataclass
class DispersionSummary:
    per_hazard_std: dict[str, float]
    per_county_std: dict[str, float]
    per_hazard_mean: dict[str, float]
    per_county_mean: dict[str, float]
    avg_inter_county_std: float
    avg_inter_hazard_std: float


def dispersion_summary(table: MetricTable) -> DispersionSummary:
    """All per-hazard and per-county stds plus their simple averages.

    Hazards or counties with no present entries are skipped; they have no
    dispersion to report.
    """
    per_hazard_std = {}
    per_hazard_mean = {}
    for h in table.hazards:
        values = table.column(h)
        if values:
            per_hazard_std[h] = _population_std(values)
            per_hazard_mean[h] = float(np.mean(values))
    per_county_std = {}
    per_county_mean = {}
    for c in table.counties:
        values = table.row(c)
        if values:
            per_county_std[c] = _population_std(values)
            per_county_mean[c] = float(np.mean(values))
    if not per_hazard_std or not per_county_std:
        raise NoEntries("metric table has no present entries")
    return DispersionSummary(
        per_hazard_std=per_hazard_std,
        per_county_std=per_county_std,
        per_hazard_mean=per_hazard_mean,
        per_county_mean=per_county_mean,
        avg_inter_county_std=float(np.mean(list(per_hazard_std.values()))),
        avg_inter_hazard_std=float(np.mean(list(per_county_std.values()))),
    )
