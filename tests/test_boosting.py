import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_from_arrays
from oracles import reg_split_enumeration
from hazardlens.boosting import (
    BoostedModel,
    BoostParams,
    RegLeaf,
    RegSplit,
    _grow_reg_tree,
    gbt_from_json,
    gbt_to_json,
    predict_proba_gbt,
    train_gbt,
)
from hazardlens.errors import DegenerateLabels, DimensionMismatch


def test_balanced_labels_zero_base_score(rng):
    X = rng.normal(size=(10, 2))
    y = np.array([0, 1] * 5, dtype=np.int64)
    model = train_gbt(labeled_from_arrays(X, y), BoostParams(n_rounds=1))
    assert model.base_score == 0.0


def test_root_leaf_weight_is_newton_step(rng):
    X = rng.normal(size=(4, 2))
    y = np.array([1, 1, 1, 0], dtype=np.int64)
    data = labeled_from_arrays(X, y)

    # default base score is the prevalence log-odds: the Newton step is 0
    params = BoostParams(n_rounds=1, learning_rate=1.0, l2_reg=0.0, max_depth=0)
    model = train_gbt(data, params)
    assert isinstance(model.stages[0], RegLeaf)
    assert model.stages[0].weight == pytest.approx(0.0, abs=1e-12)

    # forcing base 0 makes it the closed-form step -sum(g)/sum(h)
    model = train_gbt(data, params, base_score=0.0)
    p = 0.5
    g_sum = 4 * p - 3
    h_sum = 4 * p * (1 - p)
    assert model.stages[0].weight == pytest.approx(-g_sum / h_sum, abs=1e-12)


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
    np.testing.assert_allclose(predict_proba_gbt(model, X), 0.5, atol=1e-12)


def test_predict_single_constant_stage():
    model = BoostedModel(
        stages=[RegLeaf(weight=2.0, n=4)],
        params=BoostParams(n_rounds=1, learning_rate=0.5),
        base_score=0.0,
        seed=0,
        feature_names=("a", "b"),
    )
    probs = predict_proba_gbt(model, np.zeros((3, 2)))
    np.testing.assert_allclose(probs, 1.0 / (1.0 + math.exp(-1.0)), atol=1e-12)
    assert probs[0] == pytest.approx(0.7310585786300049, abs=1e-12)


def test_outputs_strictly_inside_unit_interval(rng):
    X = rng.normal(size=(50, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    model = train_gbt(labeled_from_arrays(X, y),
                      BoostParams(n_rounds=40, learning_rate=0.3, l2_reg=1.0))
    probs = predict_proba_gbt(model, X)
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
        predict_proba_gbt(model, np.zeros((3, 5)))


def test_serialization_round_trip(rng):
    X = rng.normal(size=(30, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    model = train_gbt(labeled_from_arrays(X, y), BoostParams(n_rounds=4))
    text = gbt_to_json(model)
    rebuilt = gbt_from_json(text)
    assert gbt_to_json(rebuilt) == text
    np.testing.assert_array_equal(
        predict_proba_gbt(model, X), predict_proba_gbt(rebuilt, X)
    )


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
    probs = st.lists(st.sampled_from([0.25, 0.5, 0.75]), min_size=n, max_size=n)
    p = np.array(data.draw(probs))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    g, h = p - y, p * (1.0 - p)
    root = _grow_reg_tree(X, g, h, BoostParams(max_depth=1, l2_reg=l2,
                                               min_samples_leaf=min_leaf))
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
    root = _grow_reg_tree(X, g, h, BoostParams(max_depth=1, l2_reg=0.0))
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
    root = _grow_reg_tree(X, g, h, BoostParams(max_depth=2, l2_reg=0.0))
    assert isinstance(root, RegSplit) and root.threshold == 3.5
    assert isinstance(root.right, RegLeaf)
    assert (root.right.weight, root.right.n) == (0.0, 4)
