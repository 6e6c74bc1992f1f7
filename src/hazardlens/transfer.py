"""Cross-county and cross-hazard transferability matrices.

A frozen model trained on a source is evaluated on a target's held-out
test split; the cell holds the F-score difference against a baseline, in
percentage points. The default baseline is the target-native model (train
and test on the target); "source_native" compares against the source's own
home performance instead, and "both" returns the two matrices. A transfer
counts as transferable when the difference is no worse than the threshold
(default -15 points, inclusive).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boosting import BoostedModel, predict_gbt
from .dataset import LabeledDataset
from .errors import NoPositives, SchemaMismatch
from .forest import ForestModel, predict_forest
from .metrics import confusion, f_beta

CROSS_COUNTY = "county"
CROSS_HAZARD = "hazard"

BASELINE_TARGET = "target_native"
BASELINE_SOURCE = "source_native"
BASELINE_BOTH = "both"


@dataclass(frozen=True)
class TransferPolicy:
    threshold: float = -15.0  # percentage points, inclusive
    beta: float = 1.5
    baseline: str = BASELINE_TARGET

    def __post_init__(self):
        if self.threshold >= 0:
            raise ValueError("transfer threshold must be negative")
        if self.baseline not in (BASELINE_TARGET, BASELINE_SOURCE, BASELINE_BOTH):
            raise ValueError(f"unknown baseline {self.baseline!r}")


def classify(delta: float, policy: TransferPolicy) -> bool:
    """Transferable iff the F difference is at or above the threshold."""
    return delta >= policy.threshold


@dataclass
class TransferMatrix:
    """F-score differences for train-on-source / test-on-target pairs.

    Cells absent from `delta` are genuinely missing pairs, never zeros.
    Keys are (source_id, target_id); values are percentage points.
    """

    axis: str  # CROSS_COUNTY or CROSS_HAZARD
    fixed_id: str  # the hazard (county axis) or county (hazard axis)
    ids: tuple[str, ...]
    baseline: str
    threshold: float
    delta: dict[tuple[str, str], float] = field(default_factory=dict)
    transferable: dict[tuple[str, str], bool] = field(default_factory=dict)

    def cell(self, source: str, target: str) -> float | None:
        return self.delta.get((source, target))


def _score(model, evals: list[LabeledDataset], beta: float) -> list[float | None]:
    """F-beta of one model on each evaluation set, None where f_beta is undefined.

    The model predicts once, over the sets' feature rows stacked; rows are
    predicted independently, so each slice equals the labels of predicting
    its set alone. The predictors are looked up per call: perfbench/spans.py
    replaces them.
    """
    if not isinstance(model, (ForestModel, BoostedModel)):
        raise TypeError(f"cannot predict with {type(model).__name__}")
    predict = predict_forest if isinstance(model, ForestModel) else predict_gbt
    preds = predict(model, np.concatenate([data.features for data in evals]))
    parts = np.split(preds, np.cumsum([data.n for data in evals])[:-1])
    scores = []
    for data, part in zip(evals, parts):
        try:
            scores.append(f_beta(confusion(data.labels, part), beta))
        except NoPositives:
            scores.append(None)
    return scores


def score_table(models, evals, beta: float) -> dict[tuple, float]:
    """F-beta of each (county, hazard) pair's model on the evaluation set of
    each pair sharing its county or hazard and its feature count, keyed
    (source, target); an undefined score is left out, as cross_validate
    leaves out an undefined fold. Each model is fetched once, even one no
    axis uses; write_transfer rejects an axis of two feature counts."""
    present = sorted(set(models) & set(evals))
    scores = {}
    for src in present:
        model = models[src]
        targets = [key for key in present if key[0] == src[0] or key[1] == src[1]]
        if len(targets) > 1:
            if tuple(model.feature_names) != evals[src].schema.feature_names:
                # named by its id on the first axis built over it, cross-county first
                label = src[0] if sum(key[1] == src[1] for key in targets) > 1 else src[1]
                raise SchemaMismatch(f"model and evaluation data disagree on features for {label!r}")
            width = evals[src].features.shape[1]
            targets = [key for key in targets if evals[key].features.shape[1] == width]
            row = _score(model, [evals[key] for key in targets], beta)
            scores.update(((src, key), s) for key, s in zip(targets, row) if s is not None)
        del model  # so that no model is alive at the next fetch
    return scores


def _axis(axis: str, fixed_id: str, ids, scores: dict[tuple, float], policy: TransferPolicy):
    """The matrix over `ids`, read from `scores`, a score_table: an id
    whose pair has no self-score stays in it as an absent row and column,
    and a cell with no score as an absent cell, never as zeros. With
    baseline "both" a dict of the two matrices."""
    pair = (lambda key: (key, fixed_id)) if axis == CROSS_COUNTY else (lambda key: (fixed_id, key))
    present = [key for key in ids if (pair(key), pair(key)) in scores]

    def build(baseline: str) -> TransferMatrix:
        """Matrix of score differences against `baseline`."""
        matrix = TransferMatrix(axis, fixed_id, tuple(ids), baseline, policy.threshold)
        for src in present:
            for tgt in present:
                if (pair(src), pair(tgt)) in scores:  # else undefined: an absent cell
                    home = tgt if baseline == BASELINE_TARGET else src
                    # a finite score minus itself is 0.0, so the diagonal reads 0.0
                    delta = (scores[pair(src), pair(tgt)] - scores[pair(home), pair(home)]) * 100.0
                    matrix.delta[(src, tgt)] = delta
                    matrix.transferable[(src, tgt)] = classify(delta, policy)
        return matrix

    if policy.baseline == BASELINE_BOTH:
        return {name: build(name) for name in (BASELINE_TARGET, BASELINE_SOURCE)}
    return build(policy.baseline)


def cross_county(hazard_id: str, counties, scores: dict[tuple, float], policy: TransferPolicy):
    """Transfer matrix across `counties` for one hazard from a score_table; see _axis."""
    return _axis(CROSS_COUNTY, hazard_id, counties, scores, policy)


def cross_hazard(county_id: str, hazards, scores: dict[tuple, float], policy: TransferPolicy):
    """Transfer matrix across `hazards` within one county; see cross_county."""
    return _axis(CROSS_HAZARD, county_id, hazards, scores, policy)
