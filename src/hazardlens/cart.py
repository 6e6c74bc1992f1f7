"""CART classification trees, and the tree module of both model families.

Exhaustive split search over midpoint thresholds, recursive growth, and
per-node impurity bookkeeping so feature importance can be recomputed from
the stored fields alone. Comparison convention: x[j] <= threshold goes left.

The boosted family's regression nodes (RegLeaf / RegSplit, grown by
boosting) are defined here too, so one router (trees_values), one preorder
split walk (iter_splits) and one node codec (tree_to_dict / the decoder of
read_model) serve forest trees and boosted stages alike.
The router takes all trees of a model at once: one walk flattens them into
a node table (TreeTable), a leaf being its own child, and a (trees x rows)
matrix of node indices moves down one level per numpy step.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from numbers import Integral
from operator import attrgetter, itemgetter

import numpy as np

from .errors import DimensionMismatch, NoEntries


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
        check_integer("max_depth", self.max_depth, 0, or_none=True)
        check_integer("min_samples_leaf", self.min_samples_leaf, 1)
        check_integer("min_samples_split", self.min_samples_split, 2 * self.min_samples_leaf)
        check_integer("features_per_split", self.features_per_split, 1, or_none=True)


def check_integer(name: str, value, low: int, or_none: bool = False) -> None:
    """ValueError unless value is an integer >= low, or None where allowed. A
    bool is no integer here, although Python counts it as one."""
    if not (value is None and or_none) and (
        isinstance(value, bool) or not isinstance(value, Integral) or value < low
    ):
        none = " or None" if or_none else ""
        raise ValueError(f"{name} must be an integer >= {low}{none}, got {value!r}")


@dataclass
class Leaf:
    counts: list[int]  # per-class sample counts [low, high], index LOW=0 / HIGH=1
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


def split_threshold(a, b) -> float:
    """Midpoint of sorted neighbours a < b, or a where it rounds to b or
    overflows (scikit-learn's rule): `x <= threshold` always separates them."""
    mid = a / 2.0 + b / 2.0
    return float(mid if a <= mid < b else a)


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
    return int(features[j]), split_threshold(sv[j, r], sv[j, r + 1]), float(gains[j, r])


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
            return Leaf(counts=[low, high], n=n)

        if m is None or m == n_features:
            candidates = range(n_features)
        else:
            candidates = rng.choice(n_features, size=m, replace=False)
        sub_y = y[idx]
        found = best_split(X[idx], sub_y, candidates, params.min_samples_leaf)
        if found is None:
            return Leaf(counts=[low, high], n=n)
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
        level = [c for node in level if isinstance(node, Split) for c in (node.left, node.right)]
    return all(
        isinstance(node, Leaf) and (node.n < min_samples_split or not all(node.counts))
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


class TreeTable:
    """Trees of either family as routing arrays, built once: every node in
    one level-order walk (the root of tree i is node i) as feature,
    threshold, leaf value and flattened (left, right) child pairs, a leaf
    its own child, and the deepest tree's levels. len() is the tree count."""

    def __init__(self, trees: list[TreeNode | RegNode]):
        nodes, depth, table = list(trees), [0] * len(trees), []
        for i, node in enumerate(nodes):  # also visits the children appended below
            if isinstance(node, _SPLITS):
                table.append((node.feature, node.threshold, 0.0, len(nodes), len(nodes) + 1))
                nodes += (node.left, node.right)
                depth += (depth[i] + 1,) * 2
            else:
                value = node.weight if isinstance(node, RegLeaf) else node.counts[1] / node.n
                table.append((0, 0.0, value, i, i))
        self.feature, self.threshold, self.value, left, right = map(np.array, zip(*table))
        self.children = np.stack([left, right], axis=1).ravel()
        self.levels = depth[-1]  # level order: the last node is a deepest one
        self.n_trees = len(trees)

    def __len__(self) -> int:
        return self.n_trees


def trees_values(trees: TreeTable | list[TreeNode | RegNode], X: np.ndarray) -> np.ndarray:
    """(trees x rows) leaf values of the rows of X in trees of either
    family, or in their TreeTable: P(high) of a forest tree, a boosted
    stage's leaf weight. The index matrix takes as many steps as the deepest
    tree has levels (Hummingbird's tensorized traversal, Nakandala et al.,
    OSDI 2020)."""
    table = trees if isinstance(trees, TreeTable) else TreeTable(trees)
    X = np.asarray(X, dtype=np.float64)
    at = np.repeat(np.arange(len(table)), X.shape[0]).reshape(len(table), X.shape[0])
    cells, row_start = X.ravel(), np.arange(X.shape[0]) * X.shape[1]
    for _ in range(table.levels):
        # written as x <= threshold (goes left), so that NaN goes right
        go_right = ~(cells.take(row_start + table.feature.take(at)) <= table.threshold.take(at))
        at = table.children.take(2 * at + go_right)
    return table.value.take(at)


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


# The v1 node format: a node's JSON keys are its dataclass fields, renamed
# where listed, each a plain JSON value of its annotation's type, written as
# it is and read back type-checked, never converted; "kind" says leaf or split.
# Laid out once per class, as reading fields() per node would slow parsing.
_RENAMED = {"n": "samples", "n_left": "left_samples", "n_right": "right_samples"}
_JSON_TYPES = {"int": int, "float": float, "list[int]": list}
_LAYOUT = {  # (field, JSON key, JSON type) of every field but the children
    cls: [(f.name, _RENAMED.get(f.name, f.name), _JSON_TYPES[f.type])
          for f in fields(cls) if f.name not in ("left", "right")]
    for cls in (Leaf, Split, RegLeaf, RegSplit)
}


def tree_to_dict(node: TreeNode | RegNode) -> dict:
    """Self-describing nested-dict form of a tree of either family, used for
    model JSON and golden files."""
    out = {key: getattr(node, name) for name, key, _ in _LAYOUT[type(node)]}
    if isinstance(node, _SPLITS):
        out.update(kind="split", left=tree_to_dict(node.left), right=tree_to_dict(node.right))
    else:
        out["kind"] = "leaf"
    return out


def write_model(fmt: str, version: int, model, key: str, nodes, **extra) -> str:
    """Model JSON of either family: the shared envelope (format, version, seed,
    params, feature names), `nodes` under `key`, and the family's `extra`."""
    payload = {
        "format": fmt,
        "version": version,
        "seed": int(model.seed),
        "params": asdict(model.params),
        "feature_names": list(model.feature_names),
        key: [tree_to_dict(node) for node in nodes],
        **extra,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _node_decoder(leaf: type, split: type, made: dict):
    """json.loads object_hook building one family's nodes during parsing and
    keeping each in made[cls]. Objects arrive innermost first, so a split's
    children are built already; one without "kind" (the document, its
    params) passes through."""
    build = {}
    for kind, cls, children in (("leaf", leaf, ()), ("split", split, ("left", "right"))):
        keys = [key for _, key, _ in _LAYOUT[cls]]
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
    """A model document of format `fmt`, parsed with its nodes built; ValueError
    unless every entry of payload[key] and every child is a (leaf, split) node,
    every node field has its JSON type, every float is finite and int < 2**53,
    every forest leaf's counts are two ints >= 0 summing to its samples >= 1,
    every split's samples are its children's (and its left and right samples),
    seed is an int, and every split's feature indexes feature_names (strings)."""
    made = {}
    payload = json.loads(text, object_hook=_node_decoder(leaf, split, made))
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise ValueError(f"not a {fmt} document")
    for cls, nodes in made.items():
        for name, json_key, kind in _LAYOUT[cls]:
            col = list(map(attrgetter(name), nodes))
            if set(map(type, col)) - {kind} or kind is float and not all(map(math.isfinite, col)):
                raise ValueError(f"a {cls.__name__}'s {json_key!r} is not {kind.__name__} or not finite")
            if kind is int and max(col, default=0) >= 2**53:  # a float holds every count below
                raise ValueError(f"a {cls.__name__}'s {json_key!r} is not below 2**53")
    counts, samples = [x.counts for x in made.get(Leaf, [])], [x.n for x in made.get(Leaf, [])]
    flat = list(chain.from_iterable(counts))
    if set(map(len, counts)) - {2} or set(map(type, flat)) - {int} or min(flat, default=0) < 0:
        raise ValueError("a Leaf's 'counts' are not two ints >= 0")
    if list(map(sum, counts)) != samples or 0 in samples:
        raise ValueError("a Leaf's 'counts' do not sum to its 'samples', or that is 0")
    splits = made[split]
    children = [*map(attrgetter("left"), splits), *map(attrgetter("right"), splits), *payload[key]]
    if not set(map(type, children)) <= {leaf, split}:
        raise ValueError(f"an entry of {key!r} or a child is not a {leaf.__name__} or {split.__name__}")
    sides = attrgetter("n_left", "n_right") if split is Split else lambda s: (s.left.n, s.right.n)
    if any(s.left.n + s.right.n != s.n or sides(s) != (s.left.n, s.right.n) for s in splits):
        raise ValueError("a split's children's 'samples' do not sum to its own or its side counts")
    names = payload["feature_names"]
    if type(payload["seed"]) is not int or type(names) is not list or set(map(type, names)) - {str}:
        raise ValueError("seed is not an int or feature_names not a list of strings")
    json.dumps({**payload, key: None}, allow_nan=False)  # ValueError at a NaN or an infinity
    features = list(map(attrgetter("feature"), splits))
    if features and not 0 <= min(features) <= max(features) < len(names):
        raise ValueError("a split's feature is not a column of feature_names")
    return payload
