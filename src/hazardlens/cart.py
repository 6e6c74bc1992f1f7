"""Single CART-style binary classification tree.

Exhaustive split search over midpoint thresholds, recursive growth, and
per-node impurity bookkeeping so feature importance can be recomputed from
the stored fields alone. Comparison convention: x[j] <= threshold goes left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyDistribution, EmptySubset

WEIGHTED = "weighted"
PAPER_LITERAL = "paper_literal"
IMPORTANCE_MODES = (WEIGHTED, PAPER_LITERAL)


@dataclass(frozen=True)
class TreeParams:
    """Growth limits for a single tree.

    max_depth=None means unlimited. features_per_split=None considers every
    feature at every node; forests set it to ceil(sqrt(F)).
    """

    max_depth: int | None = None
    min_samples_leaf: int = 1
    min_samples_split: int = 2
    features_per_split: int | None = None

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0 or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2 * self.min_samples_leaf:
            raise ValueError(
                "min_samples_split must be >= 2 * min_samples_leaf"
            )
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1 or None")


@dataclass
class Leaf:
    counts: np.ndarray  # per-class sample counts, index LOW=0 / HIGH=1
    n: int

    def probabilities(self) -> np.ndarray:
        return self.counts.astype(np.float64) / self.n


@dataclass
class Split:
    feature: int
    threshold: float
    impurity: float
    n: int
    left_impurity: float
    right_impurity: float
    n_left: int
    n_right: int
    left: "TreeNode" = field(repr=False)
    right: "TreeNode" = field(repr=False)


TreeNode = Leaf | Split


def gini_impurity(counts) -> float:
    """Gini heterogeneity of a class distribution: sum_k p_k (1 - p_k)."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise EmptyDistribution("class distribution has zero total count")
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _gini(low: int, high: int) -> float:
    """gini_impurity([low, high]) of a non-empty node, in scalar floats.

    Same operations as gini_impurity: total, p = c / total, then
    1 - (p0^2 + p1^2), so the result is bit-identical.
    """
    total = float(low + high)
    p0 = low / total
    p1 = high / total
    return 1.0 - (p0 * p0 + p1 * p1)


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    candidate_features,
    min_samples_leaf: int = 1,
) -> tuple[int, float, float] | None:
    """Exhaustive search for the split maximizing the impurity decrease.

    Thresholds are midpoints of adjacent distinct sorted values; the gain of
    a split is G_parent - (n_l/n) G_left - (n_r/n) G_right. Ties resolve to
    the lowest feature index, then the lowest threshold. Returns
    (feature, threshold, gain) or None when no admissible threshold exists
    (both children must hold at least min_samples_leaf rows).

    A node that is impure but where every admissible split has zero gain
    still returns a (zero-gain) split: parity patterns need such splits to
    become separable one level down.

    All candidate features are scanned in one array pass over the node's
    finite feature values, one sorted row per feature.
    """
    n = y.shape[0]
    if n == 0:
        raise EmptyDistribution("class distribution has zero total count")
    high = int(np.count_nonzero(y))
    parent_gini = _gini(n - high, high)
    if parent_gini == 0.0:
        return None

    # one row per candidate feature, in ascending feature order
    features = np.array(sorted(candidate_features), dtype=np.intp)
    block = X[:, features].T
    sv = np.sort(block, axis=1)
    # Counts left of a threshold do not depend on the order of tied rows,
    # so the row order need not be stable.
    cum_high = np.cumsum(y[np.argsort(block, axis=1)], axis=1)

    pos = np.arange(1, n)  # the left side takes the first pos sorted values
    valid = sv[:, 1:] != sv[:, :-1]
    if min_samples_leaf > 1:
        valid &= (pos >= min_samples_leaf) & (n - pos >= min_samples_leaf)
    if not valid.any():
        return None

    n_l = pos.astype(np.float64)
    n_r = n - n_l
    high_l = cum_high[:, :-1].astype(np.float64)
    low_l = n_l - high_l
    high_r = high - high_l
    low_r = (n - high) - low_l
    g_l = 1.0 - (high_l * high_l + low_l * low_l) / (n_l * n_l)
    g_r = 1.0 - (high_r * high_r + low_r * low_r) / (n_r * n_r)
    gains = parent_gini - (n_l * g_l + n_r * g_r) / n
    gains[~valid] = -np.inf

    # first maximum in feature-major order: lowest feature, then threshold
    j, r = divmod(int(np.argmax(gains)), n - 1)
    threshold = float(0.5 * (sv[j, r] + sv[j, r + 1]))
    return int(features[j]), threshold, float(gains[j, r])


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams,
    rng: np.random.Generator,
) -> TreeNode:
    """Recursively grow a tree over rows (X, y) with labels in {0, 1}.

    A node becomes a leaf when pure, when the depth or sample limits are
    hit, or when best_split finds no admissible threshold. Every split node
    records its own and its children's Gini impurities and sample counts.
    Candidate features per node are drawn without replacement from rng when
    params.features_per_split is narrower than the full feature set.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.shape[0] == 0:
        raise EmptySubset("cannot grow a tree on zero samples")
    n_features = X.shape[1]
    m = params.features_per_split
    if m is not None and m > n_features:
        m = n_features

    def build(idx: np.ndarray, high: int, depth: int) -> TreeNode:
        n = idx.shape[0]
        low = n - high
        if (
            low == 0
            or high == 0
            or (params.max_depth is not None and depth >= params.max_depth)
            or n < params.min_samples_split
        ):
            return Leaf(counts=np.array([low, high], dtype=np.int64), n=n)

        if m is None or m == n_features:
            candidates = range(n_features)
        else:
            candidates = rng.choice(n_features, size=m, replace=False)
        sub_y = y[idx]
        found = best_split(X[idx], sub_y, candidates, params.min_samples_leaf)
        if found is None:
            return Leaf(counts=np.array([low, high], dtype=np.int64), n=n)
        feature, threshold, _ = found

        go_left = X[idx, feature] <= threshold
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        n_left = left_idx.shape[0]
        n_right = n - n_left
        high_left = int(np.count_nonzero(sub_y[go_left]))
        high_right = high - high_left
        return Split(
            feature=feature,
            threshold=threshold,
            impurity=_gini(low, high),
            n=n,
            left_impurity=_gini(n_left - high_left, high_left),
            right_impurity=_gini(n_right - high_right, high_right),
            n_left=n_left,
            n_right=n_right,
            left=build(left_idx, high_left, depth + 1),
            right=build(right_idx, high_right, depth + 1),
        )

    root = build(np.arange(y.shape[0], dtype=np.intp), int(np.count_nonzero(y)), 0)
    # build refers to itself, a reference cycle that would keep X and y
    # alive until the next garbage collection; clearing the name breaks it
    del build
    return root


def predict_proba_tree(tree: TreeNode, x, n_features: int | None = None) -> np.ndarray:
    """Class probability vector (P(low), P(high)) for one feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if n_features is not None and x.shape[0] != n_features:
        raise DimensionMismatch(
            f"expected {n_features} features, got {x.shape[0]}"
        )
    node = tree
    while isinstance(node, Split):
        if node.feature >= x.shape[0]:
            raise DimensionMismatch(
                f"tree splits on feature {node.feature} but vector has "
                f"{x.shape[0]} entries"
            )
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.probabilities()


def tree_predict_proba(tree: TreeNode, X: np.ndarray) -> np.ndarray:
    """Vector of P(high) for every row of X, routed in bulk.

    The walk keeps an explicit stack: a recursive closure would form a
    reference cycle that holds `out` until the next garbage collection.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.float64)
    todo = [(tree, np.arange(X.shape[0], dtype=np.intp))]
    while todo:
        node, idx = todo.pop()
        if isinstance(node, Leaf):
            out[idx] = node.counts[1] / node.n
            continue
        go_left = X[idx, node.feature] <= node.threshold
        todo.append((node.left, idx[go_left]))
        todo.append((node.right, idx[~go_left]))
    return out


def split_importance(node: Split, mode: str, root_n: int) -> float:
    """Importance contributed by one split node.

    weighted: (n_m / n_root) * [G_m - (n_l/n_m) G_l - (n_r/n_m) G_r], the
    standard non-negative mean-decrease-impurity form.
    paper_literal: G_m - G_l - G_r, the unweighted printed form, which can
    go negative for balanced splits.
    """
    if mode == WEIGHTED:
        decrease = node.impurity - (
            node.n_left * node.left_impurity + node.n_right * node.right_impurity
        ) / node.n
        return node.n / root_n * decrease
    if mode == PAPER_LITERAL:
        return node.impurity - node.left_impurity - node.right_impurity
    raise ValueError(f"unknown importance mode {mode!r}")


def node_importances(tree: TreeNode, mode: str = WEIGHTED) -> dict[int, float]:
    """Accumulated importance per feature used anywhere in the tree.

    Returns a sparse map; features never split on are simply absent.
    """
    root_n = tree.n
    totals: dict[int, float] = {}

    def walk(node: TreeNode):
        if isinstance(node, Leaf):
            return
        totals[node.feature] = totals.get(node.feature, 0.0) + split_importance(
            node, mode, root_n
        )
        walk(node.left)
        walk(node.right)

    walk(tree)
    return totals


def tree_to_dict(node: TreeNode) -> dict:
    """Self-describing nested-dict form used for JSON golden files."""
    if isinstance(node, Leaf):
        return {
            "kind": "leaf",
            "counts": [int(c) for c in node.counts],
            "samples": int(node.n),
        }
    return {
        "kind": "split",
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "impurity": float(node.impurity),
        "samples": int(node.n),
        "left_impurity": float(node.left_impurity),
        "right_impurity": float(node.right_impurity),
        "left_samples": int(node.n_left),
        "right_samples": int(node.n_right),
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def tree_from_dict(data: dict) -> TreeNode:
    if data["kind"] == "leaf":
        return Leaf(counts=np.asarray(data["counts"], dtype=np.int64),
                    n=int(data["samples"]))
    return Split(
        feature=int(data["feature"]),
        threshold=float(data["threshold"]),
        impurity=float(data["impurity"]),
        n=int(data["samples"]),
        left_impurity=float(data["left_impurity"]),
        right_impurity=float(data["right_impurity"]),
        n_left=int(data["left_samples"]),
        n_right=int(data["right_samples"]),
        left=tree_from_dict(data["left"]),
        right=tree_from_dict(data["right"]),
    )
