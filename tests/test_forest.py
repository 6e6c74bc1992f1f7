import numpy as np
import pytest

from conftest import labeled_from_arrays
from hazardlens import forest
from hazardlens.cart import Leaf, Split, TreeParams, grow_tree, regrows_unchanged, tree_to_dict
from hazardlens.errors import DegenerateLabels, DimensionMismatch
from hazardlens.forest import (
    ForestModel,
    forest_from_json,
    forest_to_json,
    grow_forest_tree,
    predict_forest,
    predict_proba_forest,
    train_forest,
    tree_rng,
)
from hazardlens.metrics import confusion, f_beta


def separable_data(rng, n=60):
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] > 0.0).astype(np.int64)  # depth-1 separable by construction
    return labeled_from_arrays(X, y)


def test_single_tree_reduces_to_cart_on_its_bootstrap_draw(rng):
    data = separable_data(rng)
    params = TreeParams(features_per_split=2)
    model = train_forest(data, params, n_trees=1, seed=7)
    # replicate: same canonical row order (tract ids ascend), same stream,
    # whose first draw is the bootstrap sample
    stream = tree_rng(7, 0)
    idx = stream.integers(0, data.n, data.n)
    direct = grow_tree(data.features[idx], data.labels[idx], params, stream)
    assert tree_to_dict(model.trees[0]) == tree_to_dict(direct)
    grid = rng.normal(size=(40, 2))
    from hazardlens.cart import tree_values

    np.testing.assert_array_equal(
        predict_proba_forest(model, grid), tree_values(direct, grid)
    )


def test_separable_training_f1_is_one(rng):
    data = separable_data(rng, n=80)
    # a depth-1 oracle confirms separability before asking the forest
    oracle = grow_tree(data.features, data.labels, TreeParams(max_depth=1),
                       np.random.default_rng(0))
    model = train_forest(data, TreeParams(), n_trees=50, seed=3)
    preds = predict_forest(model, data.features)
    score = f_beta(confusion(data.labels, preds), 1.0)
    assert score == 1.0
    assert oracle is not None


def test_training_determinism_byte_identical(rng):
    data = separable_data(rng)
    m1 = train_forest(data, TreeParams(max_depth=4), n_trees=5, seed=11)
    m2 = train_forest(data, TreeParams(max_depth=4), n_trees=5, seed=11)
    assert forest_to_json(m1) == forest_to_json(m2)


def test_row_order_invariance(rng):
    data = separable_data(rng)
    perm = rng.permutation(data.n)
    shuffled = labeled_from_arrays(data.features[perm], data.labels[perm])
    shuffled = type(data)(
        county_id=data.county_id,
        hazard_id=data.hazard_id,
        schema=data.schema,
        tract_ids=tuple(data.tract_ids[i] for i in perm),
        features=data.features[perm],
        labels=data.labels[perm],
        threshold=data.threshold,
    )
    m1 = train_forest(data, TreeParams(max_depth=4), n_trees=4, seed=5)
    m2 = train_forest(shuffled, TreeParams(max_depth=4), n_trees=4, seed=5)
    assert forest_to_json(m1) == forest_to_json(m2)


def test_parallel_equals_sequential_tree_streams(rng):
    data = separable_data(rng)
    params = TreeParams(max_depth=4, features_per_split=1)
    order = np.argsort(np.asarray(data.tract_ids, dtype=object), kind="stable")
    X, y = data.features[order], data.labels[order]
    sequential = [grow_forest_tree(X, y, params, 21, i) for i in range(6)]
    shuffled_build = {
        i: grow_forest_tree(X, y, params, 21, i)
        for i in [4, 0, 5, 2, 1, 3]
    }
    for i in range(6):
        assert tree_to_dict(sequential[i]) == tree_to_dict(shuffled_build[i])


def stub_forest(leaf_probs):
    trees = [Leaf(counts=np.array([int(10 * (1 - p)), int(10 * p)]), n=10)
             for p in leaf_probs]
    return ForestModel(trees=trees, params=TreeParams(), seed=0, feature_names=("a", "b"))


def test_predict_unanimous_and_mean():
    X = np.zeros((3, 2))
    assert predict_proba_forest(stub_forest([1.0, 1.0]), X).tolist() == [1.0] * 3
    np.testing.assert_allclose(
        predict_proba_forest(stub_forest([0.2, 0.6]), X), 0.4
    )
    np.testing.assert_array_equal(
        predict_proba_forest(stub_forest([0.2, 0.6]), X),
        predict_proba_forest(stub_forest([0.6, 0.2]), X),
    )


def test_predict_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        predict_proba_forest(stub_forest([0.5]), np.zeros((2, 3)))


def test_degenerate_labels_rejected(rng):
    X = rng.normal(size=(10, 2))
    data = labeled_from_arrays(X, np.ones(10, dtype=np.int64))
    with pytest.raises(DegenerateLabels):
        train_forest(data, TreeParams(), n_trees=2, seed=0)


def test_serialization_round_trip(rng):
    data = separable_data(rng)
    model = train_forest(data, TreeParams(max_depth=3), n_trees=3, seed=9)
    text = forest_to_json(model)
    rebuilt = forest_from_json(text)
    assert forest_to_json(rebuilt) == text
    np.testing.assert_array_equal(
        predict_proba_forest(model, data.features),
        predict_proba_forest(rebuilt, data.features),
    )


FOREST_GOLDEN = (
    '{"bootstrap":true,"feature_names":["fa","fb"],"format":"hazardlens.forest",'
    '"n_trees":2,"params":{"features_per_split":1,"max_depth":3,"min_samples_leaf":1,'
    '"min_samples_split":2},"seed":7,"trees":['
    '{"feature":1,"impurity":0.5,"kind":"split",'
    '"left":{"counts":[1,0],"kind":"leaf","samples":1},"left_impurity":0.0,"left_samples":1,'
    '"right":{"counts":[1,2],"kind":"leaf","samples":3},"right_impurity":0.375,'
    '"right_samples":3,"samples":4,"threshold":0.5},'
    '{"counts":[2,2],"kind":"leaf","samples":4}],"version":1}'
)


def test_forest_json_golden():
    # pins the v1 node format: renaming a node field must fail here
    tree = Split(
        feature=1, threshold=0.5, impurity=0.5, n=4,
        left_impurity=0.0, right_impurity=0.375, n_left=1, n_right=3,
        left=Leaf(counts=np.array([1, 0]), n=1),
        right=Leaf(counts=np.array([1, 2]), n=3),
    )
    model = ForestModel(
        trees=[tree, Leaf(counts=np.array([2, 2]), n=4)],
        params=TreeParams(max_depth=3, features_per_split=1),
        seed=7, feature_names=("fa", "fb"),
    )
    assert forest_to_json(model) == FOREST_GOLDEN
    assert forest_to_json(forest_from_json(FOREST_GOLDEN)) == FOREST_GOLDEN


def test_more_trees_do_not_hurt_training_fbeta():
    # median over 10 seeds: going 1 -> 50 trees may not lose more than 0.02
    deltas = []
    for seed in range(10):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(60, 3))
        y = ((X[:, 0] + 0.5 * gen.normal(size=60)) > 0).astype(np.int64)
        if y.min() == y.max():
            continue
        data = labeled_from_arrays(X, y)
        scores = {}
        for n_trees in (1, 50):
            model = train_forest(data, TreeParams(), n_trees=n_trees, seed=seed)
            preds = predict_forest(model, data.features)
            scores[n_trees] = f_beta(confusion(data.labels, preds), 1.5)
        deltas.append(scores[50] - scores[1])
    assert np.median(deltas) >= -0.02


def tree_depth(node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def test_searched_leaf_at_the_limit_blocks_reuse(monkeypatch):
    # Seed 90's bootstrap draw (rows 5 2 0 5 1 4 2 3) takes each of the two
    # tied rows at (0, 0), labels 0 and 1, once. They end up in an impure
    # leaf at depth 2 of the unlimited tree: its search drew a candidate and
    # found no threshold. The tree is no deeper than 2, but growth under
    # max_depth=2 skips that draw, so the right child draws a different
    # feature.
    X = np.array([[0, 0], [0, 0], [0, 1], [0, 1], [2, 5], [3, 5], [2, 5], [3, 5]], float)
    y = np.array([0, 1, 0, 0, 0, 1, 0, 1])
    data = labeled_from_arrays(X, y)
    shallow = TreeParams(max_depth=2, features_per_split=1)
    unlimited = train_forest(data, TreeParams(features_per_split=1), 1, seed=90)
    independent = train_forest(data, shallow, 1, seed=90)
    tree = unlimited.trees[0]
    assert tree_depth(tree) == 2
    assert tree_to_dict(tree) != tree_to_dict(independent.trees[0])
    assert not regrows_unchanged(tree, 2, shallow.min_samples_split)
    assert regrows_unchanged(tree, 3, shallow.min_samples_split)

    grown = []

    def counting_grow_tree(*args):
        grown.append(args)
        return grow_tree(*args)

    monkeypatch.setattr(forest, "grow_tree", counting_grow_tree)
    shared = train_forest(data, shallow, 1, seed=90, deeper=unlimited)
    assert len(grown) == 1
    assert tree_to_dict(shared.trees[0]) == tree_to_dict(independent.trees[0])


def test_deeper_forest_must_differ_only_in_a_deeper_limit(rng):
    data = separable_data(rng)
    deeper = train_forest(data, TreeParams(max_depth=3), n_trees=2, seed=4)
    for params, seed in (
        (TreeParams(max_depth=4), 4),  # shallower than the one to train
        (TreeParams(), 4),
        (TreeParams(max_depth=2, min_samples_leaf=2, min_samples_split=4), 4),
        (TreeParams(max_depth=2), 5),
    ):
        with pytest.raises(ValueError):
            train_forest(data, params, n_trees=2, seed=seed, deeper=deeper)
