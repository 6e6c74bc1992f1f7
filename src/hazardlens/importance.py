"""Forest-level Gini importance, normalization, ranking, and the
cross-county overall importance score.

Raw importance sums every split node's contribution across all trees of a
forest; normalization divides by the total so vectors sum to one. Ranks
ascend with importance (least important = 1, most important = F) and the
overall score of a feature is its rank sum across counties divided by F*C,
so a feature ranked top everywhere scores exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cart import WEIGHTED, node_importances
from .errors import AllZeroImportance
from .forest import ForestModel


@dataclass
class ImportanceVector:
    feature_names: tuple[str, ...]
    values: np.ndarray
    normalized: bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.feature_names),):
            raise ValueError("importance vector length must match schema")


def forest_importance(model: ForestModel, mode: str = WEIGHTED) -> ImportanceVector:
    """Raw Gini importance: per-feature sum of node contributions over trees."""
    totals = np.zeros(model.n_features, dtype=np.float64)
    for tree in model.trees:
        for feature, value in node_importances(tree, mode).items():
            totals[feature] += value
    return ImportanceVector(
        feature_names=model.feature_names, values=totals, normalized=False
    )


def normalize(raw: ImportanceVector) -> ImportanceVector:
    """Divide by the total so entries sum to 1."""
    total = float(raw.values.sum())
    if total <= 0.0:
        raise AllZeroImportance(
            "total importance is not positive; the model made no useful splits"
        )
    return ImportanceVector(
        feature_names=raw.feature_names,
        values=raw.values / total,
        normalized=True,
    )


def rank_features(vector: ImportanceVector) -> np.ndarray:
    """Ranks ascending with importance; ties share the mean occupied rank.

    [0.5, 0.3, 0.2] -> [3, 2, 1]; [0.4, 0.4, 0.2] -> [2.5, 2.5, 1].
    """
    # a run of equal values at sorted positions first..first+count-1 holds
    # ranks first+1..first+count, and each member takes their mean
    _, inverse, counts = np.unique(vector.values, return_inverse=True, return_counts=True)
    first = np.cumsum(counts) - counts
    return ((2 * first + counts - 1) / 2.0 + 1.0)[inverse]


@dataclass
class RankMatrix:
    """Per-county rank columns for one hazard: counties x features."""

    feature_names: tuple[str, ...]
    counties: tuple[str, ...]
    ranks: np.ndarray  # shape (C, F)

    def __post_init__(self):
        self.ranks = np.asarray(self.ranks, dtype=np.float64)
        if self.ranks.shape != (len(self.counties), len(self.feature_names)):
            raise ValueError("rank matrix shape must be counties x features")


def build_rank_matrix(
    vectors: dict[str, ImportanceVector],
) -> RankMatrix:
    """Rank each county's normalized importances into one matrix."""
    if not vectors:
        raise ValueError("need at least one county importance vector")
    counties = tuple(sorted(vectors))
    names = vectors[counties[0]].feature_names
    for county in counties:
        if vectors[county].feature_names != names:
            raise ValueError(f"county {county!r} has a different schema")
    ranks = np.vstack([rank_features(vectors[c]) for c in counties])
    return RankMatrix(feature_names=names, counties=counties, ranks=ranks)


@dataclass
class OverallImportance:
    feature_names: tuple[str, ...]
    scores: np.ndarray  # rank sum / (F * C), each in [1/F, 1]
    top_features: tuple[int, ...]
    top_k: int
    overflow: int  # extra features included because of boundary ties


def overall_importance(matrix: RankMatrix, top_k: int = 7) -> OverallImportance:
    """Rank-sum score per feature plus the top-k selection.

    Scores are sum_i R_ij / (F * C). The selection keeps the k best scores;
    features tied with the k-th score are all included and the overflow
    count reports how many extras the tie pulled in.
    """
    C, F = matrix.ranks.shape
    scores = matrix.ranks.sum(axis=0) / (F * C)
    k = min(top_k, F)
    order = sorted(range(F), key=lambda j: (-scores[j], j))
    boundary = scores[order[k - 1]]
    selected = [j for j in order if scores[j] > boundary]
    selected += [j for j in order if scores[j] == boundary]
    return OverallImportance(
        feature_names=matrix.feature_names,
        scores=scores,
        top_features=tuple(selected),
        top_k=k,
        overflow=len(selected) - k,
    )
