"""Stratified 70/30 splitting and k-fold cross-validated grid search.

Per-class train counts follow round-half-to-even on the exact fraction
(computed with Fraction so 0.7 * 5 really ties at 3.5 and rounds to 4).
Grid points are scored by mean validation F-beta across stratified folds;
ties go to the lexicographically smallest point, where a point's sort key
is its tuple of value indices over alphabetically ordered parameter names.
Points that differ only in tree / round count are prefixes of one model, so
CV fits each such ladder once per fold, at its largest size. Forest ladders
that differ only in max_depth are fitted deepest first, each fold handing
its deeper forest to the next shallower fit, which keeps every tree that
the shallower limit would grow the same.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .boosting import BoostParams, predict_gbt, sigmoid, staged_margin_gbt, train_gbt
from .cart import TreeParams, check_integer
from .dataset import HIGH, LOW, LabeledDataset
from .errors import DegenerateLabels, NoPositives, TooFewSamples
from .forest import predict_forest, staged_proba_forest, train_forest
from .metrics import confusion, f_beta
from .seeds import child_seed

DEFAULT_FOREST_GRID: dict[str, list] = {
    "n_trees": [100, 300],
    "max_depth": [None, 8],
    "min_samples_leaf": [1, 5],
}

DEFAULT_GBT_GRID: dict[str, list] = {
    "n_rounds": [100, 300],
    "max_depth": [3, 6],
    "learning_rate": [0.1, 0.3],
    "l2_reg": [1.0],
}


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.70
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class CvSpec:
    k: int = 10
    grid: dict[str, list] = field(default_factory=dict)
    beta: float = 1.5

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def _train_count(fraction: float, n: int) -> int:
    # Fraction(str(x)) keeps 0.7 exact so the ties-to-even rule sees true ties.
    return round(Fraction(str(fraction)) * n)


def stratified_split(
    data: LabeledDataset, spec: SplitSpec
) -> tuple[LabeledDataset, LabeledDataset]:
    """Partition into (train, test) with per-class proportional allocation.

    Each part keeps its rows in tract id order, so identical seeds
    reproduce identical partitions byte for byte.
    """
    labels = data.labels
    n_high = int(np.sum(labels == HIGH))
    n_low = data.n - n_high
    if n_high == 0 or n_low == 0:
        raise DegenerateLabels(
            f"single-class dataset ({data.county_id}/{data.hazard_id})"
        )
    if min(n_high, n_low) < 2:
        raise TooFewSamples("each class needs at least 2 members to split")

    rng = np.random.default_rng(spec.seed)
    train_mask = np.zeros(data.n, dtype=bool)
    if spec.stratified:
        for cls in (LOW, HIGH):
            idx = np.flatnonzero(labels == cls)
            take = _train_count(spec.train_fraction, idx.shape[0])
            chosen = rng.permutation(idx)[:take]
            train_mask[chosen] = True
    else:
        take = _train_count(spec.train_fraction, data.n)
        chosen = rng.permutation(data.n)[:take]
        train_mask[chosen] = True

    train_idx = np.flatnonzero(train_mask)
    test_idx = np.flatnonzero(~train_mask)
    return data.take(train_idx), data.take(test_idx)


def stratified_folds(labels: np.ndarray, k: int, rng: np.random.Generator) -> list[np.ndarray]:
    """k validation index sets; per-class counts differ by at most one."""
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in (LOW, HIGH):
        idx = rng.permutation(np.flatnonzero(labels == cls))
        for f in range(k):
            folds[f].extend(idx[f::k].tolist())
    return [np.array(sorted(f), dtype=np.intp) for f in folds]


DEFAULT_SIZE = 100

# Per family: the grid key that sets the number of trees / rounds, and every
# key a grid may use.
SIZE_KEYS = {"forest": "n_trees", "gbt": "n_rounds"}
GRID_KEYS = {
    "forest": frozenset({"n_trees", "max_depth", "min_samples_leaf", "features_per_split"}),
    "gbt": frozenset({"n_rounds", "learning_rate", "l2_reg", "max_depth", "min_samples_leaf"}),
}


def _tree_params(point: dict) -> TreeParams:
    return TreeParams(
        max_depth=point.get("max_depth"),
        min_samples_leaf=point.get("min_samples_leaf", 1),
        min_samples_split=max(2, 2 * point.get("min_samples_leaf", 1)),
        features_per_split=point.get("features_per_split"),
    )


def _forest_family(data: LabeledDataset, point: dict, seed: int, deeper=None):
    return train_forest(
        data,
        _tree_params(point),
        n_trees=point.get("n_trees", DEFAULT_SIZE),
        seed=seed,
        deeper=deeper,
    )


def _gbt_family(data: LabeledDataset, point: dict, seed: int, deeper=None):
    # Each round fits the residuals of the rounds before it, so a deeper
    # model has nothing to lend; cross_validate never passes one.
    return train_gbt(data, BoostParams(**point), seed=seed)


# Per family: fit(data, point, seed, deeper), predict(model, X), default grid.
# `deeper` is None or the same fold's model of a point that differs only in
# a deeper max_depth.
FAMILIES = {
    "forest": (_forest_family, predict_forest, DEFAULT_FOREST_GRID),
    "gbt": (_gbt_family, predict_gbt, DEFAULT_GBT_GRID),
}

# P(high) after each tree / round of a fitted model; stage i matches the
# family's predict function on an i-sized model bit for bit.
_STAGED_PROBA = {
    "forest": staged_proba_forest,
    "gbt": lambda model, X: map(sigmoid, staged_margin_gbt(model, X)),
}


@dataclass
class CvRecord:
    params: dict
    fold: int
    score: float


def _grid_points(grid: dict[str, list]):
    names = sorted(grid)
    for combo in itertools.product(*(range(len(grid[n])) for n in names)):
        point = {name: grid[name][i] for name, i in zip(names, combo)}
        yield combo, point


def check_grid(model_family: str, grid) -> None:
    """Raise ValueError unless every point of `grid` builds valid params.

    Keys must come from the family's closed set, every key needs a
    non-empty list of values, and the size key takes integers >= 1.
    """
    if not isinstance(grid, dict) or not grid:
        raise ValueError(f"{model_family} grid must be a non-empty mapping")
    unknown = sorted(set(grid) - GRID_KEYS[model_family])
    if unknown:
        raise ValueError(
            f"unknown {model_family} grid keys {unknown}; "
            f"allowed: {sorted(GRID_KEYS[model_family])}"
        )
    for name, values in grid.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"{model_family} grid {name!r} needs a non-empty list")
    for size in grid.get(SIZE_KEYS[model_family], ()):
        check_integer(f"{model_family} grid {SIZE_KEYS[model_family]!r} value", size, 1)
    for _, point in _grid_points(grid):
        try:
            if model_family == "forest":
                _tree_params(point)
            else:
                BoostParams(**point)  # the gbt grid keys are BoostParams' fields
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{model_family} grid point {point}: {exc}") from None


def cross_validate(
    train: LabeledDataset,
    model_family: str,
    cv: CvSpec,
    seed: int,
) -> tuple[dict, list[CvRecord]]:
    """Grid search by mean validation F-beta over stratified k folds.

    Returns (best_params, cv_table). The fold layout and the per-fold model
    seeds are fixed before the grid loop, so duplicated grid points score
    identically and the tie rule (smallest value-index tuple) is meaningful.
    Folds whose F-beta is undefined (no positives either way) are left out
    of the mean.
    """
    if train.n < cv.k:
        raise TooFewSamples(f"{train.n} rows cannot fill {cv.k} folds")
    if model_family not in FAMILIES:
        raise ValueError(f"unknown model family {model_family!r}")
    train_fn = FAMILIES[model_family][0]
    staged_proba = _STAGED_PROBA[model_family]
    size_key = SIZE_KEYS[model_family]

    fold_rng = np.random.default_rng(child_seed(seed, "folds"))
    folds = stratified_folds(train.labels, cv.k, fold_rng)
    fold_seeds = [child_seed(seed, "fold", f) for f in range(cv.k)]
    all_idx = np.arange(train.n, dtype=np.intp)

    # Points that differ only in size share one fit at the group's largest
    # size; each smaller size reads its labels off the staged predictions.
    # Forest groups that differ only in max_depth form a chain, fitted
    # deepest first so each fit can reuse the trees of the one before it.
    points = list(_grid_points(cv.grid))
    names = sorted(cv.grid)
    at_size = names.index(size_key) if size_key in names else None
    at_depth = (
        names.index("max_depth")
        if model_family == "forest" and "max_depth" in names
        else None
    )
    chains: dict[tuple, dict[tuple, list[int]]] = {}
    for n, (key, _) in enumerate(points):
        group = tuple(v for i, v in enumerate(key) if i != at_size)
        chain = tuple(v for i, v in enumerate(key) if i not in (at_size, at_depth))
        chains.setdefault(chain, {}).setdefault(group, []).append(n)

    def deepest_first(members: list[int]):
        depth = points[members[0]][1].get("max_depth")
        return (depth is not None, -(depth or 0))

    fold_scores: dict[tuple[int, int], float] = {}  # (point, fold) -> score
    for chain in chains.values():
        ordered = sorted(chain.values(), key=deepest_first)
        for f, valid_idx in enumerate(folds):
            fit_data = train.take(np.setdiff1d(all_idx, valid_idx, assume_unique=True))
            valid_labels = train.labels[valid_idx]
            valid_features = train.features[valid_idx]
            model = None  # the one deeper model kept alive per fold
            for members in ordered:
                sizes = [points[n][1].get(size_key, DEFAULT_SIZE) for n in members]
                fit_point = points[members[int(np.argmax(sizes))]][1]
                model = train_fn(fit_data, fit_point, fold_seeds[f], deeper=model)
                for size, proba in enumerate(staged_proba(model, valid_features), start=1):
                    if size not in sizes:
                        continue
                    preds = np.where(proba > 0.5, HIGH, LOW).astype(np.int64)
                    try:
                        score = f_beta(confusion(valid_labels, preds), cv.beta)
                    except NoPositives:
                        continue
                    for n, s in zip(members, sizes):
                        if s == size:
                            fold_scores[n, f] = score

    best_key = None
    best_params: dict = {}
    best_score = -np.inf
    table: list[CvRecord] = []
    for n, (key, point) in enumerate(points):
        scores = []
        for f in range(cv.k):
            if (n, f) in fold_scores:
                scores.append(fold_scores[n, f])
                table.append(CvRecord(params=dict(point), fold=f, score=fold_scores[n, f]))
        mean = float(np.mean(scores))  # fold 0 validates on a high row: never empty
        if mean > best_score or (mean == best_score and key < best_key):
            best_key = key
            best_score = mean
            best_params = dict(point)

    return best_params, table
