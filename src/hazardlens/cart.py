"""CART classification trees, and the tree module of both model families.

Exhaustive split search over midpoint thresholds, recursive growth, and
per-node impurity bookkeeping so feature importance can be recomputed from
the stored fields alone. Comparison convention: x[j] <= threshold goes left.

The boosted family's regression nodes (RegLeaf / RegSplit, grown by
boosting) are defined here too, so one router (trees_values), one preorder
split walk (iter_splits) and one node codec (tree_to_dict / the decoder of
read_model) serve forest trees and boosted stages alike.
The router takes all trees of a model at once: one walk flattens them into
a node table, a leaf being its own child, and a (trees x rows) matrix of
node indices moves down one level per numpy step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from numbers import Integral
from operator import attrgetter, itemgetter

import numpy as np

from .errors import DimensionMismatch, NoEntries

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
        if self.max_depth is not None and (
            isinstance(self.max_depth, bool)
            or not isinstance(self.max_depth, Integral)
            or self.max_depth < 0
        ):
            raise ValueError("max_depth must be an integer >= 0 or None")
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


@dataclass
class RegLeaf:
    weight: float
    n: int


@dataclass
class RegSplit:
    feature: int
    threshold: float
    gain: float
    n: int
    left: "RegNode" = field(repr=False)
    right: "RegNode" = field(repr=False)


RegNode = RegLeaf | RegSplit
_SPLITS = (Split, RegSplit)


def gini_impurity(counts) -> float:
    """Gini heterogeneity of a class distribution: sum_k p_k (1 - p_k)."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise NoEntries("class distribution has zero total count")
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
        raise NoEntries("class distribution has zero total count")
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
        raise NoEntries("cannot grow a tree on zero samples")
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


def regrows_unchanged(tree: TreeNode, max_depth: int, min_samples_split: int) -> bool:
    """Whether growing under max_depth gives `tree` back, for a tree grown
    under a deeper limit (or none) from the same rows, stream and other
    params.

    Both growths draw the same candidate features in the same depth-first
    order as long as no node at depth >= max_depth searched for a split. A
    node searched when it was impure with at least min_samples_split rows:
    every Split, and every such Leaf, whose search found no admissible
    threshold. Plain tree depth is not the test: a searched leaf at
    max_depth used up a draw the shallower growth never makes. Every node
    below max_depth hangs under a Split at max_depth, so only that level
    is checked.
    """
    level = [tree]
    for _ in range(max_depth):
        level = [
            child
            for node in level
            if isinstance(node, Split)
            for child in (node.left, node.right)
        ]
    return all(
        isinstance(node, Leaf) and (node.n < min_samples_split or not node.counts.all())
        for node in level
    )


def feature_matrix(X, n_features: int) -> np.ndarray:
    """X as the float (rows x n_features) matrix a model of either family
    routes; DimensionMismatch for any other shape."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DimensionMismatch(
            f"expected {n_features} feature columns, got {X.shape[1] if X.ndim == 2 else X.ndim}"
        )
    return X


def _node_table(trees: list[TreeNode | RegNode]):
    """Every node of `trees` in one level-order walk (the root of tree i is
    node i) as arrays of feature, threshold, leaf value and flattened
    (left, right) child pairs, and the deepest tree's levels below its root.
    """
    nodes, depth, table = list(trees), [0] * len(trees), []
    for i, node in enumerate(nodes):  # also visits the children appended below
        if isinstance(node, _SPLITS):
            table.append((node.feature, node.threshold, 0.0, len(nodes), len(nodes) + 1))
            nodes += (node.left, node.right)
            depth += (depth[i] + 1,) * 2
        else:
            value = node.weight if isinstance(node, RegLeaf) else node.counts[1] / node.n
            table.append((0, 0.0, value, i, i))
    feature, threshold, value, left, right = map(np.array, zip(*table))
    # level order: the last node is a deepest one
    return feature, threshold, value, np.stack([left, right], axis=1).ravel(), depth[-1]


def trees_values(trees: list[TreeNode | RegNode], X: np.ndarray) -> np.ndarray:
    """(trees x rows) leaf values of the rows of X in trees of either
    family: P(high) of a forest tree, a boosted stage's leaf weight. The
    index matrix takes as many steps as the deepest tree has levels
    (Hummingbird's tensorized traversal, Nakandala et al., OSDI 2020)."""
    X = np.asarray(X, dtype=np.float64)
    feature, threshold, value, children, levels = _node_table(trees)
    at = np.repeat(np.arange(len(trees)), X.shape[0]).reshape(len(trees), X.shape[0])
    cells, row_start = X.ravel(), np.arange(X.shape[0]) * X.shape[1]
    for _ in range(levels):
        # written as x <= threshold (goes left), so that NaN goes right
        go_right = ~(cells.take(row_start + feature.take(at)) <= threshold.take(at))
        at = children.take(2 * at + go_right)
    return value.take(at)


def tree_values(tree: TreeNode | RegNode, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row of X in one tree: trees_values of one tree."""
    return trees_values([tree], X)[0]


def iter_splits(tree: TreeNode | RegNode):
    """Every split node of a tree of either family, in preorder (node, then
    its left subtree, then its right), without recursion. Importance sums
    add in this order, so it fixes their bits."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, _SPLITS):
            yield node
            todo.append(node.right)
            todo.append(node.left)


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
    totals: dict[int, float] = {}
    for node in iter_splits(tree):
        totals[node.feature] = totals.get(node.feature, 0.0) + split_importance(
            node, mode, tree.n
        )
    return totals


# The v1 node format. A node's JSON keys are its dataclass fields, renamed
# where listed, each converted by its annotation; left / right hold the
# children and "kind" says leaf or split. The layout is computed once per
# node class: reading fields() for every node would slow model parsing.
# JSON parsing types ints and floats already (read_model checks that it
# did), so only counts has a decoder. It converts the field of all of a
# model's nodes in one call (one (leaves x 2) array, a row per leaf): one
# small array per leaf would take longer than parsing the leaf.
_RENAMED = {"n": "samples", "n_left": "left_samples", "n_right": "right_samples"}
_CONVERTERS = {  # annotation -> (to JSON, from JSON)
    "int": (int, None),
    "float": (float, None),
    "np.ndarray": (lambda a: [int(c) for c in a], lambda column: np.array(column, dtype=np.int64)),
}
_LAYOUT = {
    cls: tuple(
        (f.name, _RENAMED.get(f.name, f.name), *_CONVERTERS[f.type])
        for f in fields(cls)
        if f.name not in ("left", "right")
    )
    for cls in (Leaf, Split, RegLeaf, RegSplit)
}


def tree_to_dict(node: TreeNode | RegNode) -> dict:
    """Self-describing nested-dict form of a tree of either family, used for
    model JSON and golden files."""
    out = {key: encode(getattr(node, name)) for name, key, encode, _ in _LAYOUT[type(node)]}
    if isinstance(node, _SPLITS):
        out.update(kind="split", left=tree_to_dict(node.left), right=tree_to_dict(node.right))
    else:
        out["kind"] = "leaf"
    return out


def _node_decoder(leaf: type, split: type, made: dict):
    """json.loads object_hook building one family's nodes during parsing and
    keeping each in made[cls]. Objects arrive innermost first, so a split's
    children are built already; one without "kind" (the document, its
    params) passes through."""
    build = {}
    for kind, cls, children in (("leaf", leaf, ()), ("split", split, ("left", "right"))):
        keys = [key for _, key, _, _ in _LAYOUT[cls]]
        build[kind] = cls, itemgetter(*keys, *children), made.setdefault(cls, []).append

    def decode(data: dict):
        if "kind" not in data:
            return data
        cls, read, keep = build[data["kind"]]
        node = cls(*read(data))
        keep(node)
        return node

    return decode


def read_model(text: str, fmt: str, key: str, leaf: type, split: type) -> dict:
    """A model document of format `fmt`, parsed with its nodes decoded;
    ValueError unless every entry of payload[key] and every child is a
    (leaf, split) node, every int / float field has that type and every
    split's feature indexes payload["feature_names"]."""
    made = {}
    payload = json.loads(text, object_hook=_node_decoder(leaf, split, made))
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise ValueError(f"not a {fmt} document")
    for cls, nodes in made.items():
        for name, json_key, encode, decode in _LAYOUT[cls]:
            column = list(map(attrgetter(name), nodes))
            if decode:
                for node, value in zip(nodes, decode(column)):
                    setattr(node, name, value)
            elif not set(map(type, column)) <= {encode}:
                raise ValueError(f"a {cls.__name__}'s {json_key!r} is not {encode.__name__}")
    splits = made[split]
    children = [*map(attrgetter("left"), splits), *map(attrgetter("right"), splits), *payload[key]]
    if not set(map(type, children)) <= {leaf, split}:
        raise ValueError(f"an entry of {key!r} or a child is not a {leaf.__name__} or {split.__name__}")
    features = list(map(attrgetter("feature"), splits))
    if features and not 0 <= min(features) <= max(features) < len(payload["feature_names"]):
        raise ValueError("a split's feature is not a column of feature_names")
    return payload
