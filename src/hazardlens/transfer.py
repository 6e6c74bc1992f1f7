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
from .errors import DimensionMismatch, SchemaMismatch
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
    eval_on: str = "test"  # "test" or "full"

    def __post_init__(self):
        if self.threshold >= 0:
            raise ValueError("transfer threshold must be negative")
        if self.baseline not in (BASELINE_TARGET, BASELINE_SOURCE, BASELINE_BOTH):
            raise ValueError(f"unknown baseline {self.baseline!r}")
        if self.eval_on not in ("test", "full"):
            raise ValueError(f"eval_on must be 'test' or 'full'")


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


def predict_labels(model, X: np.ndarray) -> np.ndarray:
    if isinstance(model, ForestModel):
        return predict_forest(model, X)
    if isinstance(model, BoostedModel):
        return predict_gbt(model, X)
    raise TypeError(f"cannot predict with {type(model).__name__}")


def _score(model, stack: np.ndarray, evals: list[LabeledDataset], beta: float) -> list[float]:
    """F-beta of one model on each evaluation set.

    `stack` holds the sets' feature rows one after another, so the model
    predicts once; rows are predicted independently, so each slice equals
    the labels of predicting its set alone.
    """
    preds = predict_labels(model, stack)
    scores = []
    start = 0
    for data in evals:
        stop = start + data.n
        scores.append(f_beta(confusion(data.labels, preds[start:stop]), beta))
        start = stop
    return scores


def _check_schema(model, data: LabeledDataset, label: str) -> None:
    if tuple(model.feature_names) != data.schema.feature_names:
        raise SchemaMismatch(
            f"model and evaluation data disagree on features for {label!r}"
        )


def _build_matrix(
    axis: str,
    fixed_id: str,
    ids: tuple[str, ...],
    present: list[str],
    scores: dict[tuple[str, str], float],
    policy: TransferPolicy,
    baseline: str,
) -> TransferMatrix:
    """Matrix of score differences; scores[(src, tgt)] is src's model on tgt."""
    matrix = TransferMatrix(
        axis=axis,
        fixed_id=fixed_id,
        ids=ids,
        baseline=baseline,
        threshold=policy.threshold,
    )
    for src in present:
        for tgt in present:
            if src == tgt:
                delta = 0.0
            else:
                base = scores[(tgt, tgt)] if baseline == BASELINE_TARGET else scores[(src, src)]
                delta = (scores[(src, tgt)] - base) * 100.0
            matrix.delta[(src, tgt)] = delta
            matrix.transferable[(src, tgt)] = classify(delta, policy)
    return matrix


def _run_axis(
    axis: str,
    fixed_id: str,
    models: dict[str, object],
    evals: dict[str, LabeledDataset],
    policy: TransferPolicy,
    registry=None,
):
    present = sorted(set(models) & set(evals))
    if len(present) < 2:
        raise ValueError(
            f"transfer over {axis} needs at least 2 entries, got {len(present)}"
        )
    ids = tuple(registry) if registry is not None else tuple(present)
    for key in present:
        if key not in ids:
            raise ValueError(f"{key!r} not in the supplied registry")
        _check_schema(models[key], evals[key], key)
    targets = [evals[key] for key in present]
    if len({data.features.shape[1] for data in targets}) > 1:
        raise DimensionMismatch(f"evaluation sets over {axis} differ in feature count")
    stack = np.concatenate([data.features for data in targets])
    scores = {}
    for src in present:
        row = _score(models[src], stack, targets, policy.beta)
        scores.update(((src, tgt), value) for tgt, value in zip(present, row))
    if policy.baseline == BASELINE_BOTH:
        return {
            name: _build_matrix(axis, fixed_id, ids, present, scores, policy, name)
            for name in (BASELINE_TARGET, BASELINE_SOURCE)
        }
    return _build_matrix(axis, fixed_id, ids, present, scores, policy, policy.baseline)


def cross_county(
    hazard_id: str,
    models: dict[str, object],
    evals: dict[str, LabeledDataset],
    policy: TransferPolicy = TransferPolicy(),
    registry=None,
):
    """Transfer matrix across counties for one hazard.

    `models` maps county -> model trained on that county's hazard data;
    `evals` maps county -> the evaluation split of the same pair. Counties
    in `registry` (default: those present in both mappings) that miss data
    stay in the matrix as absent cells, never as zeros. With baseline
    "both" a dict of two matrices is returned.
    """
    return _run_axis(CROSS_COUNTY, hazard_id, models, evals, policy, registry)


def cross_hazard(
    county_id: str,
    models: dict[str, object],
    evals: dict[str, LabeledDataset],
    policy: TransferPolicy = TransferPolicy(),
    registry=None,
):
    """Transfer matrix across hazards within one county."""
    return _run_axis(CROSS_HAZARD, county_id, models, evals, policy, registry)
