import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_from_arrays
from oracles import reg_split_enumeration, reg_tree_enumeration
from hazardlens import boosting
from hazardlens.boosting import (
    BoostedModel,
    BoostParams,
    RegLeaf,
    RegSplit,
    _grow_reg_tree,
    column_order,
    gbt_from_json,
    gbt_to_json,
    predict_margin_gbt,
    sigmoid,
    staged_margin_gbt,
    train_gbt,
)
from hazardlens.cart import tree_to_dict
from hazardlens.errors import DegenerateLabels, DimensionMismatch


def proba(model, X):
    """P(high) per row, as predict_gbt thresholds it."""
    return sigmoid(predict_margin_gbt(model, X))


def test_balanced_labels_zero_base_score(rng):
    X = rng.normal(size=(10, 2))
    y = np.array([0, 1] * 5, dtype=np.int64)
    model = train_gbt(labeled_from_arrays(X, y), BoostParams(n_rounds=1))
    assert model.base_score == 0.0


def test_root_leaf_weight_is_newton_step(rng):
    X = rng.normal(size=(4, 2))
    y = np.array([1, 1, 1, 0], dtype=np.int64)
    data = labeled_from_arrays(X, y)

    # the base score is the prevalence log-odds: the Newton step is 0
    params = BoostParams(n_rounds=1, learning_rate=1.0, l2_reg=0.0, max_depth=0)
    model = train_gbt(data, params)
    assert isinstance(model.stages[0], RegLeaf)
    assert model.stages[0].weight == pytest.approx(0.0, abs=1e-12)

    # balanced labels put the base score at 0, so p = 0.5 on every row and
    # each leaf below the root is the closed-form step -G / (H + lambda)
    X = np.column_stack([np.arange(6.0), np.zeros(6)])  # the second column cannot split
    y = np.array([0, 0, 1, 0, 1, 1], dtype=np.int64)
    params = BoostParams(n_rounds=1, learning_rate=1.0, l2_reg=1.0, max_depth=1)
    model = train_gbt(labeled_from_arrays(X, y), params)
    assert model.base_score == 0.0
    root = model.stages[0]
    assert isinstance(root, RegSplit)
    go_left = X[:, root.feature] <= root.threshold
    for leaf, rows in ((root.left, go_left), (root.right, ~go_left)):
        assert isinstance(leaf, RegLeaf)
        g_sum = float(np.sum(0.5 - y[rows]))
        h_sum = 0.25 * int(rows.sum())
        assert leaf.weight == pytest.approx(-g_sum / (h_sum + 1.0), abs=1e-12)


def test_rounds_must_be_positive():
    with pytest.raises(ValueError):
        BoostParams(n_rounds=0)


def test_training_loss_non_increasing(rng):
    X = rng.normal(size=(80, 4))
    y = ((X[:, 0] - 0.5 * X[:, 2]) > 0).astype(np.int64)
    data = labeled_from_arrays(X, y)
    model = train_gbt(data, BoostParams(n_rounds=25, learning_rate=0.3))
    losses = np.array(model.train_loss)
    assert losses.shape[0] == 26  # base loss + one per round
    assert np.all(np.diff(losses) <= 1e-12)


def test_predict_constant_model_is_sigmoid_base(rng):
    X = np.ones((12, 2))  # constant features: no split is admissible
    y = np.array([0, 1] * 6, dtype=np.int64)
    model = train_gbt(labeled_from_arrays(X, y), BoostParams(n_rounds=3))
    np.testing.assert_allclose(proba(model, X), 0.5, atol=1e-12)


def test_predict_single_constant_stage():
    model = BoostedModel(
        stages=[RegLeaf(weight=2.0, n=4)],
        params=BoostParams(n_rounds=1, learning_rate=0.5),
        base_score=0.0,
        seed=0,
        feature_names=("a", "b"),
    )
    probs = proba(model, np.zeros((3, 2)))
    np.testing.assert_allclose(probs, 1.0 / (1.0 + math.exp(-1.0)), atol=1e-12)
    assert probs[0] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_outputs_strictly_inside_unit_interval(rng):
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    model = train_gbt(labeled_from_arrays(X, y),
                      BoostParams(n_rounds=40, learning_rate=0.3, l2_reg=1.0))
    probs = proba(model, X)
    assert np.all(probs > 0.0) and np.all(probs < 1.0)


def test_determinism_and_row_order_invariance(rng):
    X = rng.normal(size=(40, 3))
    y = (X[:, 1] > 0.1).astype(np.int64)
    data = labeled_from_arrays(X, y)
    params = BoostParams(n_rounds=6, learning_rate=0.3)
    m1 = train_gbt(data, params, seed=2)
    m2 = train_gbt(data, params, seed=2)
    assert gbt_to_json(m1) == gbt_to_json(m2)

    perm = rng.permutation(data.n)
    shuffled = type(data)(
        county_id=data.county_id,
        hazard_id=data.hazard_id,
        schema=data.schema,
        tract_ids=tuple(data.tract_ids[i] for i in perm),
        features=data.features[perm],
        labels=data.labels[perm],
        threshold=data.threshold,
    )
    m3 = train_gbt(shuffled, params, seed=2)
    assert gbt_to_json(m3) == gbt_to_json(m1)


def test_errors(rng):
    X = rng.normal(size=(10, 2))
    with pytest.raises(DegenerateLabels):
        train_gbt(labeled_from_arrays(X, np.zeros(10, dtype=np.int64)),
                  BoostParams(n_rounds=1))
    y = (X[:, 0] > 0).astype(np.int64)
    model = train_gbt(labeled_from_arrays(X, y), BoostParams(n_rounds=2))
    with pytest.raises(DimensionMismatch):
        proba(model, np.zeros((3, 5)))


def test_serialization_round_trip(rng):
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    model = train_gbt(labeled_from_arrays(X, y), BoostParams(n_rounds=4))
    text = gbt_to_json(model)
    rebuilt = gbt_from_json(text)
    assert gbt_to_json(rebuilt) == text
    np.testing.assert_array_equal(
        proba(model, X), proba(rebuilt, X)
    )


GBT_GOLDEN = (
    '{"base_score":-0.5,"feature_names":["fa"],"format":"hazardlens.gbt",'
    '"params":{"l2_reg":0.0,"learning_rate":0.5,"max_depth":1,"min_samples_leaf":1,"n_rounds":2},'
    '"seed":3,"stages":['
    '{"feature":0,"gain":0.75,"kind":"split",'
    '"left":{"kind":"leaf","samples":2,"weight":-0.5},'
    '"right":{"kind":"leaf","samples":3,"weight":0.25},"samples":5,"threshold":-1.25},'
    '{"kind":"leaf","samples":5,"weight":0.125}],"train_loss":[0.75,0.5,0.25],"version":1}'
)


def test_gbt_json_golden():
    # pins the v1 node format: renaming a node field must fail here
    stage = RegSplit(
        feature=0, threshold=-1.25, gain=0.75, n=5,
        left=RegLeaf(weight=-0.5, n=2), right=RegLeaf(weight=0.25, n=3),
    )
    model = BoostedModel(
        stages=[stage, RegLeaf(weight=0.125, n=5)],
        params=BoostParams(n_rounds=2, learning_rate=0.5, l2_reg=0.0, max_depth=1),
        base_score=-0.5, seed=3, feature_names=("fa",), train_loss=[0.75, 0.5, 0.25],
    )
    assert gbt_to_json(model) == GBT_GOLDEN
    assert gbt_to_json(gbt_from_json(GBT_GOLDEN)) == GBT_GOLDEN


# p = 0 or 1 gives a row a zero hessian: under l2 = 0 a side of only such
# rows scores inf, or 0/0 = NaN, which skips its feature
ZERO_HESSIAN_GAINS = pytest.mark.filterwarnings(
    "ignore:divide by zero encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning",
)


@ZERO_HESSIAN_GAINS
@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 16),
    n_features=st.integers(1, 4),
    min_leaf=st.integers(1, 3),
    l2=st.sampled_from([0.0, 1.0]),
    data=st.data(),
)
def test_root_split_bit_equal_to_enumeration(n, n_features, min_leaf, l2, data):
    cells = data.draw(st.lists(st.sampled_from([-1.5, 0.25, 2.0]),
                               min_size=n * n_features, max_size=n * n_features))
    X = np.array(cells).reshape(n, n_features)
    probs = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n)
    p = np.array(data.draw(probs))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    g, h = p - y, p * (1.0 - p)
    root = _grow_reg_tree(X, g, h, BoostParams(max_depth=1, l2_reg=l2,
                                               min_samples_leaf=min_leaf), column_order(X))
    expected = reg_split_enumeration(X, g, h, l2, min_leaf)
    if expected is None:
        assert isinstance(root, RegLeaf)
    else:
        assert isinstance(root, RegSplit)
        got = (root.feature, root.threshold.hex(), root.gain.hex())
        assert got == (expected[0], expected[1].hex(), expected[2].hex())


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_feature_with_undefined_gain_is_skipped():
    # l2 = 0 and zero hessians on the rows with x0 = 0: the first threshold
    # of feature 0 scores 0/0. The whole feature is skipped, so feature 1
    # wins although feature 0 has a larger finite gain at its next threshold.
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0]])
    g = np.array([0.0, 0.0, -0.5, 0.4, 0.4])
    h = np.array([0.0, 0.0, 0.25, 0.24, 0.24])
    root = _grow_reg_tree(X, g, h, BoostParams(max_depth=1, l2_reg=0.0), column_order(X))
    assert isinstance(root, RegSplit)
    assert root.feature == 1
    assert root.threshold == 0.5


@pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
def test_node_with_zero_hessian_sum_becomes_zero_leaf():
    # l2 = 0: the right child of the root holds only zero-hessian rows, so
    # its score g^2 / (h + l2) is undefined; it becomes a leaf of weight 0.0
    X = np.arange(8.0)[:, None]
    g = np.array([0.5, -0.5, 0.5, -0.5, 1.0, 1.0, 1.0, 1.0])
    h = np.array([0.25] * 4 + [0.0] * 4)
    root = _grow_reg_tree(X, g, h, BoostParams(max_depth=2, l2_reg=0.0), column_order(X))
    assert isinstance(root, RegSplit) and root.threshold == 3.5
    assert isinstance(root.right, RegLeaf)
    assert (root.right.weight, root.right.n) == (0.0, 4)


@ZERO_HESSIAN_GAINS
@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(2, 40),
    n_features=st.integers(1, 4),
    max_depth=st.integers(2, 4),
    min_leaf=st.integers(1, 3),
    l2=st.sampled_from([0.0, 1.0]),
    data=st.data(),
)
def test_whole_tree_bit_equal_to_enumeration(n, n_features, max_depth, min_leaf, l2, data):
    # every node below the root searches the children that the column
    # block's partition produced; a wrong partition changes some subtree.
    # 0.25 / 0.5 make gains tie across features; 0.1 / 0.7 are not dyadic,
    # so their sums change bits when the rows are added in another order
    cells = data.draw(st.lists(st.sampled_from([-1.5, 0.25, 2.0]),
                               min_size=n * n_features, max_size=n * n_features))
    X = np.array(cells).reshape(n, n_features)
    probs = st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0]), min_size=n, max_size=n)
    p = np.array(data.draw(probs))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    g, h = p - y, p * (1.0 - p)
    params = BoostParams(max_depth=max_depth, l2_reg=l2, min_samples_leaf=min_leaf)
    got = tree_to_dict(_grow_reg_tree(X, g, h, params, column_order(X)))
    expected = reg_tree_enumeration(X, g, h, params)
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("max_depth", range(1, 7))
def test_margins_from_growth_equal_the_routed_margins(rng, max_depth):
    # train_gbt takes each round's margins from the leaf weights growth
    # wrote, not from routing X through the stage: the two agree bit for bit,
    # NaN cells (routed right) included
    X = np.round(rng.normal(size=(120, 4)), 1)
    y = ((X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.5, size=120)) > 0).astype(np.int64)
    X[rng.random(X.shape) < 0.05] = np.nan
    params = BoostParams(n_rounds=5, learning_rate=0.3, max_depth=max_depth, min_samples_leaf=3)
    model = train_gbt(labeled_from_arrays(X, y), params)
    routed = staged_margin_gbt(model, X)
    for i in range(1, params.n_rounds + 1):
        assert model.train_loss[i].hex() == boosting._logloss(routed[i - 1], y).hex()


def test_train_gbt_grows_each_round_through_the_module_global(monkeypatch, rng):
    # the benchmark tracer times boosting.grow_s by replacing this global
    calls = []
    grow = boosting._grow_reg_tree

    def counting(*args, **kwargs):
        calls.append(args[3])
        return grow(*args, **kwargs)

    monkeypatch.setattr(boosting, "_grow_reg_tree", counting)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    params = BoostParams(n_rounds=7, max_depth=2)
    model = train_gbt(labeled_from_arrays(X, y), params)
    assert calls == [params] * 7
    assert len(model.stages) == 7


def test_reg_split_between_adjacent_floats_separates_them():
    # 0.5 * (a + 1.0) rounds to 1.0: the split's right leaf held no rows
    a = np.nextafter(1.0, 0.0)
    X = np.array([[a], [1.0], [a], [1.0]])
    g = np.array([0.5, -0.5, 0.5, -0.5])
    root = _grow_reg_tree(X, g, np.full(4, 0.25), BoostParams(max_depth=1), column_order(X))
    assert isinstance(root, RegSplit)
    assert (root.threshold, root.left.n, root.right.n) == (a, 2, 2)
