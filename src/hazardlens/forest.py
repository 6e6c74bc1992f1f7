"""Random forest: bagging plus per-node feature subsampling over CART trees.

Per-tree RNG streams are derived from (seed, tree_index), never from build
order, so parallel and sequential training produce identical forests; the
rows they draw from come in tract id order, as LabeledDataset keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cart import (
    Leaf,
    Split,
    TreeNode,
    TreeParams,
    TreeTable,
    feature_matrix,
    grow_tree,
    read_model,
    regrows_unchanged,
    trees_values,
    write_model,
)
from .dataset import HIGH, LOW, LabeledDataset
from .errors import DegenerateLabels

FOREST_FORMAT = "hazardlens.forest"
FOREST_VERSION = 1


@dataclass
class ForestModel:
    trees: list[TreeNode] | TreeTable  # a TreeTable routes alike, bit for bit
    params: TreeParams
    seed: int
    feature_names: tuple[str, ...]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def tree_rng(seed: int, index: int) -> np.random.Generator:
    """Index-derived stream for tree `index` of a forest seeded with `seed`."""
    return np.random.default_rng((int(seed), int(index)))


def grow_forest_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams,
    seed: int,
    index: int,
) -> TreeNode:
    """Grow tree `index`: bootstrap draw then growth, all from one stream."""
    rng = tree_rng(seed, index)
    idx = rng.integers(0, y.shape[0], size=y.shape[0])
    return grow_tree(X[idx], y[idx], params, rng)


def train_forest(
    data: LabeledDataset,
    params: TreeParams,
    n_trees: int,
    seed: int,
    deeper: ForestModel | None = None,
) -> ForestModel:
    """Train a forest of n_trees CART trees, each on its own bootstrap
    sample of a labeled county dataset.

    Unless params pins features_per_split, each node considers
    ceil(sqrt(F)) candidate features. Requires both classes present.

    `deeper`, when given, is a forest this function trained on the same
    data with the same seed, whose params differ at most in a
    deeper max_depth (None counts as deepest). Its tree i is taken as tree
    i whenever growth under params.max_depth would give it back
    (cart.regrows_unchanged); every other tree is grown.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    low, high = data.class_counts()
    if low == 0 or high == 0:
        raise DegenerateLabels(
            f"cannot train on single-class data ({data.county_id}/{data.hazard_id})"
        )
    X, y = data.features, data.labels

    if params.features_per_split is None:
        params = replace(
            params, features_per_split=math.ceil(math.sqrt(data.schema.feature_count))
        )
    kept = _reusable_trees(deeper, params, n_trees, seed) if deeper else {}
    trees = [
        kept[i] if i in kept else grow_forest_tree(X, y, params, seed, i)
        for i in range(n_trees)
    ]
    return ForestModel(
        trees=trees,
        params=params,
        seed=seed,
        feature_names=data.schema.feature_names,
    )


def _reusable_trees(
    deeper: ForestModel, params: TreeParams, n_trees: int, seed: int
) -> dict[int, TreeNode]:
    """Trees of `deeper` among the first n_trees, by index, that growth
    under `params` gives back."""
    limit = deeper.params.max_depth
    if (
        deeper.seed != seed
        or replace(deeper.params, max_depth=params.max_depth) != params
        or (limit is not None and (params.max_depth is None or limit < params.max_depth))
    ):
        raise ValueError(
            "a deeper forest may differ from the one to train only in a deeper max_depth"
        )
    trees = deeper.trees[:n_trees]
    if deeper.params == params:
        return dict(enumerate(trees))
    return {
        i: tree
        for i, tree in enumerate(trees)
        if regrows_unchanged(tree, params.max_depth, params.min_samples_split)
    }


def staged_proba_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """(trees x rows) soft votes: row i - 1 is the mean P(high) of the
    first i trees, for i = 1 .. len(model.trees).

    One cumsum of the per-tree leaf P(high) along the tree axis, stage i
    divided by i: the running sum of a per-tree loop (acc += p_i; acc / i),
    so row i - 1 equals predict_proba_forest of an i-tree prefix bit for
    bit.
    """
    values = trees_values(model.trees, feature_matrix(X, model.n_features))
    return np.cumsum(values, axis=0) / np.arange(1, len(model.trees) + 1)[:, None]


def predict_proba_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Soft vote: mean of per-tree leaf P(high) over all trees."""
    return staged_proba_forest(model, X)[-1]


def predict_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Hard labels: high iff mean P(high) exceeds 0.5."""
    return np.where(predict_proba_forest(model, X) > 0.5, HIGH, LOW).astype(np.int64)


def forest_to_json(model: ForestModel) -> str:
    return write_model(
        FOREST_FORMAT, FOREST_VERSION, model, "trees", model.trees,
        bootstrap=True, n_trees=len(model.trees),  # what model JSON v1 records
    )


def forest_from_json(text: str) -> ForestModel:
    payload = read_model(text, FOREST_FORMAT, "trees", Leaf, Split)
    if payload["bootstrap"] is not True or payload["n_trees"] != len(payload["trees"]):
        raise ValueError("a forest file must record bootstrap true and n_trees = its tree count")
    return ForestModel(
        trees=payload["trees"],
        params=TreeParams(**payload["params"]),
        seed=payload["seed"],
        feature_names=tuple(payload["feature_names"]),
    )
