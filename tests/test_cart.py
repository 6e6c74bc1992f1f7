import json
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_from_arrays
from oracles import best_split_enumeration, route_row, subtree_counts
from hazardlens.boosting import (
    BoostedModel, BoostParams, _best_reg_split, column_order, gbt_from_json, gbt_to_json,
    predict_gbt, predict_margin_gbt, staged_margin_gbt, train_gbt,
)
from hazardlens.cart import (
    Leaf,
    RegLeaf,
    RegSplit,
    Split,
    TreeParams,
    TreeTable,
    best_split,
    gini_impurity,
    grow_tree,
    iter_splits,
    read_model,
    tree_to_dict,
    trees_values,
)
from hazardlens.errors import NoEntries
from hazardlens.importance import PAPER_LITERAL, WEIGHTED, node_importances
from hazardlens.forest import (
    ForestModel, forest_from_json, forest_to_json, predict_forest, predict_proba_forest,
    staged_proba_forest, train_forest,
)


def test_gini_hand_values():
    assert gini_impurity([5, 5]) == 0.5
    assert gini_impurity([7, 0]) == 0.0
    assert gini_impurity([1, 3]) == 0.375  # 2 * 0.25 * 0.75


def test_gini_empty():
    with pytest.raises(NoEntries):
        gini_impurity([0, 0])


def test_gini_count_scaling_invariance(rng):
    for _ in range(50):
        a, b = rng.integers(0, 30, size=2)
        if a + b == 0:
            continue
        c = int(rng.integers(1, 9))
        assert gini_impurity([a, b]) == pytest.approx(
            gini_impurity([c * a, c * b]), abs=1e-15
        )


def brute_force_best_split(X, y, candidates, min_leaf=1):
    """Enumerate every admissible (feature, midpoint) pair directly."""
    n = len(y)
    parent = gini_impurity([np.sum(y == 0), np.sum(y == 1)])
    best = None
    for j in sorted(candidates):
        values = sorted(set(X[:, j]))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2
            left = y[X[:, j] <= t]
            right = y[X[:, j] > t]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = parent - (
                len(left) * gini_impurity([np.sum(left == 0), np.sum(left == 1)])
                + len(right) * gini_impurity([np.sum(right == 0), np.sum(right == 1)])
            ) / n
            if best is None or gain > best[2]:
                best = (j, t, gain)
    return best


def test_best_split_1d_example():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    found = best_split(X, y, [0])
    assert found == (0, 2.5, 0.5)
    assert brute_force_best_split(X, y, [0]) == found


def test_best_split_matches_enumeration(rng):
    for _ in range(25):
        n = int(rng.integers(4, 30))
        X = rng.normal(size=(n, 3)).round(1)  # rounding forces repeats
        y = (rng.random(n) < 0.5).astype(np.int64)
        if y.min() == y.max():
            continue
        got = best_split(X, y, [0, 1, 2])
        expected = brute_force_best_split(X, y, [0, 1, 2])
        if got is None:
            assert expected is None or expected[2] <= 1e-15
            continue
        assert got[2] == pytest.approx(expected[2], abs=1e-12)


def test_best_split_constant_feature_returns_none():
    X = np.ones((4, 1))
    y = np.array([0, 1, 0, 1])
    assert best_split(X, y, [0]) is None


def test_best_split_tie_prefers_lower_feature_index():
    column = np.array([1.0, 2.0, 3.0, 4.0])
    X = np.column_stack([column, column])  # identical gains on both
    y = np.array([0, 0, 1, 1])
    feature, threshold, gain = best_split(X, y, [0, 1])
    assert feature == 0
    assert threshold == 2.5
    assert gain == 0.5


def test_best_split_threshold_between_observed_values(rng):
    for _ in range(20):
        X = rng.normal(size=(12, 2))
        y = (rng.random(12) < 0.5).astype(np.int64)
        if y.min() == y.max():
            continue
        found = best_split(X, y, [0, 1])
        if found is None:
            continue
        j, t, _ = found
        values = np.sort(X[:, j])
        assert values.min() < t < values.max()
        assert t not in values


def test_best_split_monotone_transform_invariance(rng):
    for _ in range(15):
        X = rng.normal(size=(20, 3))
        y = (X[:, 1] > 0.2).astype(np.int64)
        if y.min() == y.max():
            continue
        found = best_split(X, y, [0, 1, 2])
        transformed = X.copy()
        transformed[:, 1] = np.exp(X[:, 1])  # strictly increasing
        found_t = best_split(transformed, y, [0, 1, 2])
        assert found[0] == found_t[0]
        partition = X[:, found[0]] <= found[1]
        partition_t = transformed[:, found_t[0]] <= found_t[1]
        np.testing.assert_array_equal(partition, partition_t)


def test_grow_pure_input_single_leaf(rng):
    X = rng.normal(size=(6, 2))
    y = np.ones(6, dtype=np.int64)
    tree = grow_tree(X, y, TreeParams(), rng)
    assert isinstance(tree, Leaf)
    assert tree.counts == [0, 6]


def test_grow_xor_pattern_two_levels():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = grow_tree(X, y, TreeParams(max_depth=2), np.random.default_rng(0))
    splits = []

    def count(node):
        if isinstance(node, Split):
            splits.append(node)
            count(node.left)
            count(node.right)

    count(tree)
    assert len(splits) >= 2
    probs = trees_values([tree], X)[0]
    assert np.all((probs > 0.5) == (y == 1))  # 100% training accuracy


def test_grow_depth_zero_majority_leaf(rng):
    X = rng.normal(size=(10, 2))
    y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1])
    tree = grow_tree(X, y, TreeParams(max_depth=0), rng)
    assert isinstance(tree, Leaf)
    assert tree.counts == [6, 4]
    assert list(map(type, tree.counts)) == [int, int]  # plain JSON values, not numpy ints
    assert trees_values([tree], X[:1])[0].tolist() == [0.4]


def test_grow_empty_subset():
    with pytest.raises(NoEntries):
        grow_tree(np.empty((0, 2)), np.empty(0, dtype=int), TreeParams(),
                  np.random.default_rng(0))


def test_predict_single_leaf_frequencies():
    leaf = Leaf(counts=[1, 3], n=4)  # 3 high, 1 low
    assert trees_values([leaf], [[123.0]])[0].tolist() == [0.75]


def test_predict_depth_one_tree():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    tree = grow_tree(X, y, TreeParams(), np.random.default_rng(0))
    assert trees_values([tree], [[1.0]])[0].tolist() == [0.0]  # P(high) left of the 2.5 split


def test_node_importances_single_leaf_empty():
    leaf = Leaf(counts=[2, 2], n=4)
    assert node_importances(leaf) == {}


def test_node_importances_depth_one_weighted():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    tree = grow_tree(X, y, TreeParams(), np.random.default_rng(0))
    assert node_importances(tree, WEIGHTED) == {0: 0.5}
    # literal form on the same tree: 0.5 - 0 - 0
    assert node_importances(tree, PAPER_LITERAL) == {0: 0.5}


def test_node_importances_sum_equals_impurity_removed(rng):
    X = rng.normal(size=(40, 3))
    y = ((X[:, 0] > 0) & (X[:, 2] < 0.5)).astype(np.int64)
    tree = grow_tree(X, y, TreeParams(min_samples_leaf=2, min_samples_split=4), rng)
    totals = node_importances(tree, WEIGHTED)
    assert all(v >= 0 for v in totals.values())

    # brute force from the stored node fields
    removed = 0.0
    root_n = tree.n

    def walk(node):
        nonlocal removed
        if isinstance(node, Leaf):
            return
        removed += (
            node.n * node.impurity
            - node.n_left * node.left_impurity
            - node.n_right * node.right_impurity
        ) / root_n
        walk(node.left)
        walk(node.right)

    walk(tree)
    assert sum(totals.values()) == pytest.approx(removed, abs=1e-12)


def test_paper_literal_can_go_negative():
    # balanced split of a balanced node: 0.5 - 0.5 - 0.5 = -0.5
    node = Split(
        feature=0, threshold=0.5, impurity=0.5, n=4,
        left_impurity=0.5, right_impurity=0.5, n_left=2, n_right=2,
        left=Leaf(counts=[1, 1], n=2),
        right=Leaf(counts=[1, 1], n=2),
    )
    assert node_importances(node, PAPER_LITERAL)[0] == -0.5
    assert node_importances(node, WEIGHTED)[0] == 0.0


def test_training_error_bounded_by_majority(rng):
    for _ in range(10):
        X = rng.normal(size=(30, 3))
        y = (rng.random(30) < 0.4).astype(np.int64)
        if y.min() == y.max():
            continue
        tree = grow_tree(X, y, TreeParams(max_depth=3), rng)
        preds = (trees_values([tree], X)[0] > 0.5).astype(np.int64)
        majority_error = min(np.mean(y == 0), np.mean(y == 1))
        assert np.mean(preds != y) <= majority_error + 1e-12


def test_grow_deterministic_and_serializable(rng):
    X = rng.normal(size=(50, 4))
    y = (X[:, 1] + 0.3 * X[:, 2] > 0).astype(np.int64)
    params = TreeParams(max_depth=5, min_samples_leaf=2, min_samples_split=4,
                        features_per_split=2)
    t1 = grow_tree(X, y, params, np.random.default_rng(99))
    t2 = grow_tree(X, y, params, np.random.default_rng(99))
    d1, d2 = tree_to_dict(t1), tree_to_dict(t2)
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    rebuilt = _decode(t1, n_features=4)
    assert tree_to_dict(rebuilt) == d1


def _decode(tree, n_features):
    """`tree` through the model-file codec: encoded, then read back as the
    one tree of a model document of its family."""
    leaf, split = (Leaf, Split) if isinstance(tree, (Leaf, Split)) else (RegLeaf, RegSplit)
    text = json.dumps({
        "format": "test", "seed": 0, "feature_names": ["x"] * n_features,
        "trees": [tree_to_dict(tree)],
    })
    return read_model(text, "test", "trees", leaf, split)["trees"][0]


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_COUNTS = st.integers(0, 50)
_FOREST_TREES = st.recursive(
    st.builds(
        lambda low, high: Leaf(counts=[low, high + 1], n=low + high + 1),
        _COUNTS, _COUNTS,
    ),
    # a split's samples are its children's, as read_model requires
    lambda children: st.builds(
        lambda left, right, **fields: Split(
            n=left.n + right.n, n_left=left.n, n_right=right.n, left=left, right=right, **fields
        ),
        feature=st.integers(0, 2), threshold=_FLOATS, impurity=_FLOATS,
        left_impurity=_FLOATS, right_impurity=_FLOATS, left=children, right=children,
    ),
    max_leaves=8,
)
_GBT_TREES = st.recursive(
    st.builds(RegLeaf, weight=_FLOATS, n=_COUNTS),
    lambda children: st.builds(
        lambda left, right, **fields: RegSplit(n=left.n + right.n, left=left, right=right, **fields),
        feature=st.integers(0, 2), threshold=_FLOATS, gain=_FLOATS, left=children, right=children,
    ),
    max_leaves=8,
)


@settings(max_examples=80, deadline=None)
@given(
    tree=st.one_of(_FOREST_TREES, _GBT_TREES),
    rows=st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3), min_size=1, max_size=6),
)
def test_node_codec_round_trip_both_families(tree, rows):
    text = json.dumps(tree_to_dict(tree), sort_keys=True)
    rebuilt = _decode(tree, n_features=3)
    assert type(rebuilt) is type(tree)
    assert json.dumps(tree_to_dict(rebuilt), sort_keys=True) == text
    X = np.array(rows)
    np.testing.assert_array_equal(trees_values([rebuilt], X), trees_values([tree], X))
    # every node field is a plain JSON value, so trees compare exactly by ==
    names = ("a", "b", "c")
    if isinstance(tree, (Leaf, Split)):
        forest = ForestModel(trees=[tree, tree], params=TreeParams(), seed=3, feature_names=names)
        assert forest_from_json(forest_to_json(forest)).trees == forest.trees
    else:
        gbt = BoostedModel(
            stages=[tree, tree], params=BoostParams(n_rounds=2), base_score=0.25, seed=3,
            feature_names=names, train_loss=[0.5, 0.25, 0.125],
        )
        assert gbt_from_json(gbt_to_json(gbt)).stages == gbt.stages


@settings(max_examples=60, deadline=None)
@given(tree=st.one_of(_FOREST_TREES, _GBT_TREES))
def test_iter_splits_walks_recursive_preorder(tree):
    # importance sums add in this order, so it fixes their bits
    def preorder(node):
        if isinstance(node, (Split, RegSplit)):
            yield node
            yield from preorder(node.left)
            yield from preorder(node.right)

    assert [id(node) for node in iter_splits(tree)] == [id(node) for node in preorder(tree)]


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from([_FOREST_TREES, _GBT_TREES]), data=st.data())
def test_trees_values_bit_equal_to_row_by_row_walk(family, data):
    # mixed depths and single leaves; cells hit thresholds, NaN and +-inf
    trees = data.draw(st.lists(family, min_size=1, max_size=5))
    thresholds = [node.threshold for tree in trees for node in iter_splits(tree)]
    cell = st.floats() | st.sampled_from([*thresholds, np.nan, np.inf, -np.inf])
    rows = data.draw(st.lists(st.lists(cell, min_size=3, max_size=3), max_size=6))
    X = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
    want = np.array([[route_row(tree, x) for x in X] for tree in trees])
    got = trees_values(trees, X)
    assert got.shape == (len(trees), len(rows))
    assert got.tobytes() == want.tobytes()
    table = TreeTable(trees)
    assert len(table) == len(trees)
    assert trees_values(table, X).tobytes() == want.tobytes()


def test_a_pickled_routed_model_predicts_as_its_trees():
    # a training unit returns its model with a TreeTable in place of the
    # trees, pickled across the pool; every prediction keeps its bits
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(np.int64)
    data = labeled_from_arrays(X, y)
    rows = np.vstack([rng.normal(size=(20, 3)), [[np.nan, 0.0, 1.0], [np.inf, -np.inf, 0.0]]])
    forest = train_forest(data, TreeParams(max_depth=5), n_trees=7, seed=3)
    gbt = train_gbt(data, BoostParams(n_rounds=4, max_depth=3), seed=3)
    for model, nodes, predictors in (
        (forest, "trees", (staged_proba_forest, predict_proba_forest, predict_forest)),
        (gbt, "stages", (staged_margin_gbt, predict_margin_gbt, predict_gbt)),
    ):
        routed = pickle.loads(pickle.dumps(replace(model, **{nodes: TreeTable(getattr(model, nodes))})))
        assert len(getattr(routed, nodes)) == len(getattr(model, nodes))
        for predict in predictors:
            assert predict(routed, rows).tobytes() == predict(model, rows).tobytes()


def test_trees_values_sends_ties_and_minus_inf_left_nan_and_inf_right():
    stump = Split(
        feature=0, threshold=1.0, impurity=0.5, n=2, left_impurity=0.0, right_impurity=0.0,
        n_left=1, n_right=1,
        left=Leaf(counts=[1, 0], n=1), right=Leaf(counts=[0, 1], n=1),
    )
    leaf = Leaf(counts=[1, 3], n=4)
    X = np.array([[1.0], [np.nan], [np.inf], [-np.inf], [0.5], [1.5]])
    assert trees_values([stump, leaf], X).tolist() == [[0, 1, 1, 0, 0, 1], [0.75] * 6]
    assert trees_values([stump, leaf], np.empty((0, 1))).shape == (2, 0)


@settings(max_examples=60, deadline=None)
@given(
    trees=st.lists(_FOREST_TREES, min_size=1, max_size=6),
    stages=st.lists(_GBT_TREES, min_size=1, max_size=6),
    rows=st.lists(st.lists(st.floats(-10, 10), min_size=3, max_size=3), max_size=6),
    base=st.floats(-3, 3),
    lr=st.floats(0.01, 1.0),
)
def test_staged_predictions_equal_running_sums(trees, stages, rows, base, lr):
    X = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
    names = ("a", "b", "c")
    forest = ForestModel(trees=trees, params=TreeParams(), seed=0, feature_names=names)
    staged = staged_proba_forest(forest, X)
    assert staged.shape == (len(trees), len(rows))
    acc = np.zeros(len(rows))
    for i, (tree, stage) in enumerate(zip(trees, staged), start=1):
        acc += np.array([route_row(tree, x) for x in X])
        assert stage.tobytes() == (acc / i).tobytes()

    gbt = BoostedModel(
        stages=stages, params=BoostParams(n_rounds=len(stages), learning_rate=lr),
        base_score=base, seed=0, feature_names=names,
    )
    # Leaf weights near the float maximum sum to inf in the cumsum and the
    # loop alike; the comparison covers those margins too.
    with np.errstate(over="ignore"):
        staged = staged_margin_gbt(gbt, X)
        assert staged.shape == (len(stages), len(rows))
        margins = np.full(len(rows), base)
        for tree, stage in zip(stages, staged):
            margins += lr * np.array([route_row(tree, x) for x in X])
            assert stage.tobytes() == margins.tobytes()


def test_tree_params_invariant():
    with pytest.raises(ValueError):
        TreeParams(min_samples_leaf=3, min_samples_split=4)
    with pytest.raises(ValueError):
        TreeParams(features_per_split=0)


@st.composite
def tied_blocks(draw, max_rows=16, max_features=4):
    """(X, y) with 3 distinct feature values, so thresholds tie heavily."""
    n = draw(st.integers(min_value=2, max_value=max_rows))
    n_features = draw(st.integers(min_value=1, max_value=max_features))
    cells = draw(st.lists(st.sampled_from([-1.5, 0.25, 2.0]),
                          min_size=n * n_features, max_size=n * n_features))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return (np.array(cells, dtype=np.float64).reshape(n, n_features),
            np.array(labels, dtype=np.int64))


def _bits(found):
    return None if found is None else (found[0], found[1].hex(), found[2].hex())


@settings(max_examples=200, deadline=None)
@given(data=tied_blocks(), picks=st.data(), min_leaf=st.integers(1, 3))
def test_best_split_bit_equal_to_enumeration(data, picks, min_leaf):
    X, y = data
    candidates = picks.draw(
        st.lists(st.integers(0, X.shape[1] - 1), min_size=1, unique=True)
    )
    assert _bits(best_split(X, y, candidates, min_leaf)) == _bits(
        best_split_enumeration(X, y, candidates, min_leaf)
    )


@settings(max_examples=60, deadline=None)
@given(
    data=tied_blocks(max_rows=40, max_features=5),
    depth=st.sampled_from([None, 1, 3]),
    min_leaf=st.integers(1, 3),
    width=st.integers(1, 5),
    seed=st.integers(0, 2**32),
)
def test_split_child_impurities_match_subtree_counts(data, depth, min_leaf, width, seed):
    X, y = data
    params = TreeParams(max_depth=depth, min_samples_leaf=min_leaf,
                        min_samples_split=2 * min_leaf, features_per_split=width)
    root = grow_tree(X, y, params, np.random.default_rng(seed))
    np.testing.assert_array_equal(subtree_counts(root), np.bincount(y, minlength=2))
    todo = [root]
    while todo:
        node = todo.pop()
        if isinstance(node, Leaf):
            continue
        left, right = subtree_counts(node.left), subtree_counts(node.right)
        assert node.impurity == gini_impurity(left + right)
        assert node.left_impurity == gini_impurity(left)
        assert node.right_impurity == gini_impurity(right)
        assert (node.n_left, node.n_right) == (left.sum(), right.sum())
        todo += [node.left, node.right]


def test_split_between_adjacent_floats_separates_them():
    # 0.5 * (a + 1.0) rounds to 1.0, which sent every row left
    a = np.nextafter(1.0, 0.0)
    X = np.array([[a], [1.0], [a], [1.0]])
    tree = grow_tree(X, np.array([0, 1, 0, 1]), TreeParams(), np.random.default_rng(0))
    assert (tree.threshold, tree.n_left, tree.n_right) == (a, 2, 2)


_EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0)),
    5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, 1e308, 1.5e308,
    1.7976931348623157e308, -1.7976931348623157e308, float(np.nextafter(1e308, 0.0)),
]
_COLUMN_VALUE = st.one_of(
    st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_COLUMN_VALUE, _COLUMN_VALUE, st.integers(0, 1)), min_size=2, max_size=12
    ),
    min_leaf=st.integers(1, 3),
)
def test_both_split_searches_leave_min_samples_leaf_rows_on_each_side(rows, min_leaf):
    X = np.array([r[:2] for r in rows], dtype=np.float64)
    y = np.array([r[2] for r in rows], dtype=np.int64)
    n = len(rows)
    found = []
    if 0 < y.sum() < n:
        split = best_split(X, y, [0, 1], min_leaf)
        found += [] if split is None else [split[:2]]
    order = column_order(X)
    g, h = 0.5 - y, np.full(n, 0.25)
    reg = _best_reg_split(
        np.take_along_axis(X.T, order, axis=1), g[order], h[order],
        float(g.sum()), float(h.sum()), 1.0, min_leaf,
    )
    found += [] if reg is None else [reg[1:]]
    for feature, threshold in found:
        left = int(np.count_nonzero(X[:, feature] <= threshold))
        assert min_leaf <= left <= n - min_leaf
        assert np.isfinite(threshold)
