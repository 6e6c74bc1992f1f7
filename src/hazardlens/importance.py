"""Gini importance (mean decrease in impurity), normalization, ranking, and
the cross-county overall importance score.

Raw importance is one sum over every split node of a forest's trees
(Louppe 2014, arXiv:1407.7502, ch. 6); normalization divides by the total
so vectors sum to one. Ranks ascend with importance (least important = 1,
most important = F) and the overall score of a feature is its rank sum
across counties divided by F*C, so a feature ranked top everywhere scores
exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cart import TreeNode, iter_splits
from .errors import AllZeroImportance, SchemaMismatch
from .forest import ForestModel

WEIGHTED = "weighted"
PAPER_LITERAL = "paper_literal"
IMPORTANCE_MODES = (WEIGHTED, PAPER_LITERAL)


@dataclass
class ImportanceVector:
    feature_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.feature_names),):
            raise ValueError("importance vector length must match schema")


def node_importances(tree: TreeNode, mode: str = WEIGHTED) -> dict[int, float]:
    """Importance per feature split on anywhere in the tree (a sparse map),
    summed in iter_splits' preorder. Each split node m contributes

    weighted: (n_m / n_root) * [G_m - (n_l/n_m) G_l - (n_r/n_m) G_r], the
    standard non-negative mean-decrease-impurity form;
    paper_literal: G_m - G_l - G_r, the unweighted printed form, which can
    go negative for balanced splits.
    """
    if mode not in IMPORTANCE_MODES:
        raise ValueError(f"unknown importance mode {mode!r}")
    totals: dict[int, float] = {}
    for node in iter_splits(tree):
        if mode == WEIGHTED:
            decrease = node.impurity - (
                node.n_left * node.left_impurity + node.n_right * node.right_impurity
            ) / node.n
            value = node.n / tree.n * decrease
        else:
            value = node.impurity - node.left_impurity - node.right_impurity
        totals[node.feature] = totals.get(node.feature, 0.0) + value
    return totals


def forest_importance(model: ForestModel, mode: str = WEIGHTED) -> ImportanceVector:
    """Raw Gini importance: per-feature sum of node contributions over trees."""
    totals = np.zeros(model.n_features, dtype=np.float64)
    for tree in model.trees:
        for feature, value in node_importances(tree, mode).items():
            totals[feature] += value
    return ImportanceVector(feature_names=model.feature_names, values=totals)


def normalize(raw: ImportanceVector) -> ImportanceVector:
    """Divide by the total so entries sum to 1."""
    total = float(raw.values.sum())
    if total <= 0.0:
        raise AllZeroImportance(
            "total importance is not positive; the model made no useful splits"
        )
    return ImportanceVector(feature_names=raw.feature_names, values=raw.values / total)


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
class OverallImportance:
    feature_names: tuple[str, ...]
    scores: np.ndarray  # rank sum / (F * C), each in [1/F, 1]
    top_features: tuple[int, ...]
    overflow: int  # extra features included because of boundary ties


def overall_importance(vectors: dict[str, ImportanceVector], top_k: int = 7) -> OverallImportance:
    """Rank-sum score per feature over counties' normalized importances (by
    county) plus the top-k selection.

    Scores are sum_i R_ij / (F * C), counties in sorted order. The selection
    keeps the k best scores; features tied with the k-th score are all
    included and the overflow count reports how many extras the tie pulled in.
    """
    if not vectors:
        raise ValueError("need at least one county importance vector")
    counties = sorted(vectors)
    names = vectors[counties[0]].feature_names
    for county in counties:
        if vectors[county].feature_names != names:
            raise SchemaMismatch(f"county {county!r} has a different schema")
    ranks = np.vstack([rank_features(vectors[c]) for c in counties])
    C, F = ranks.shape
    scores = ranks.sum(axis=0) / (F * C)
    k = min(top_k, F)
    order = sorted(range(F), key=lambda j: (-scores[j], j))
    boundary = scores[order[k - 1]]
    selected = [j for j in order if scores[j] > boundary]
    selected += [j for j in order if scores[j] == boundary]
    return OverallImportance(
        feature_names=names,
        scores=scores,
        top_features=tuple(selected),
        overflow=len(selected) - k,
    )
