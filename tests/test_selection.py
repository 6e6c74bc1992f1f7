from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_from_arrays
from oracles import cross_validate_brute
from hazardlens.boosting import predict_gbt, predict_margin_gbt, sigmoid, staged_margin_gbt
from hazardlens import selection
from hazardlens.cart import tree_to_dict
from hazardlens.forest import predict_proba_forest, staged_proba_forest, train_forest
from hazardlens.dataset import HIGH, LOW
from hazardlens.errors import DegenerateLabels, TooFewSamples
from hazardlens.selection import (
    FAMILIES,
    CvSpec,
    SplitSpec,
    check_grid,
    cross_validate,
    stratified_folds,
    stratified_split,
)
from hazardlens.synth import (
    LAW_THRESHOLD_INTERACTION,
    ScenarioSpec,
    generate_county,
)
from hazardlens.dataset import make_labeled


def ten_rows(rng):
    X = rng.normal(size=(10, 2))
    y = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64)
    return labeled_from_arrays(X, y)


def test_split_counts_round_half_even(rng):
    data = ten_rows(rng)  # 6 low, 4 high
    train, test = stratified_split(data, SplitSpec(seed=1))
    # round(0.7 * 6) = 4, round(0.7 * 4) = round(2.8) = 3
    assert int(np.sum(train.labels == LOW)) == 4
    assert int(np.sum(train.labels == HIGH)) == 3
    assert int(np.sum(test.labels == LOW)) == 2
    assert int(np.sum(test.labels == HIGH)) == 1


def test_split_true_tie_rounds_to_even(rng):
    # 5 per class: 0.7 * 5 = 3.5 exactly, ties-to-even -> 4
    X = rng.normal(size=(10, 2))
    y = np.array([0] * 5 + [1] * 5, dtype=np.int64)
    train, _ = stratified_split(labeled_from_arrays(X, y), SplitSpec(seed=0))
    assert int(np.sum(train.labels == LOW)) == 4
    assert int(np.sum(train.labels == HIGH)) == 4


def test_split_partition_exactness(rng):
    data = ten_rows(rng)
    train, test = stratified_split(data, SplitSpec(seed=9))
    ids = sorted(train.tract_ids + test.tract_ids)
    assert ids == sorted(data.tract_ids)
    assert set(train.tract_ids).isdisjoint(test.tract_ids)


def test_split_determinism(rng):
    data = ten_rows(rng)
    a = stratified_split(data, SplitSpec(seed=4))
    b = stratified_split(data, SplitSpec(seed=4))
    assert a[0].tract_ids == b[0].tract_ids
    assert a[1].tract_ids == b[1].tract_ids


def test_split_errors(rng):
    X = rng.normal(size=(6, 2))
    with pytest.raises(DegenerateLabels):
        stratified_split(
            labeled_from_arrays(X, np.ones(6, dtype=np.int64)), SplitSpec()
        )
    y = np.array([0, 0, 0, 0, 0, 1], dtype=np.int64)
    with pytest.raises(TooFewSamples, match="each class"):
        stratified_split(labeled_from_arrays(X, y), SplitSpec())


def test_plain_random_split_option(rng):
    X = rng.normal(size=(20, 2))
    y = (rng.random(20) < 0.5).astype(np.int64)
    y[:2] = [0, 1]
    data = labeled_from_arrays(X, y)
    train, test = stratified_split(data, SplitSpec(stratified=False, seed=5))
    assert train.n == 14 and test.n == 6  # round(0.7 * 20)


def test_folds_partition_and_balance(rng):
    y = np.array([0] * 23 + [1] * 17, dtype=np.int64)
    folds = stratified_folds(y, 10, rng)
    seen = np.concatenate(folds)
    assert sorted(seen.tolist()) == list(range(40))
    global_high = 17 / 40
    for fold in folds:
        n_high = int(np.sum(y[fold] == HIGH))
        # per-class deviation from proportionality under one sample
        assert abs(n_high - global_high * fold.shape[0]) < 1.0 + 1e-9


def test_cv_singleton_grid(rng):
    X = rng.normal(size=(40, 2))
    y = (X[:, 0] > 0).astype(np.int64)
    data = labeled_from_arrays(X, y)
    grid = {"n_trees": [5], "max_depth": [3]}
    best, table = cross_validate(data, "forest", CvSpec(k=5, grid=grid), seed=3)
    assert best == {"n_trees": 5, "max_depth": 3}
    assert len(table) == 5  # one row per fold


def test_cv_duplicated_grid_point_scores_identically(rng):
    X = rng.normal(size=(40, 2))
    y = (X[:, 0] > 0).astype(np.int64)
    data = labeled_from_arrays(X, y)
    grid = {"max_depth": [3, 3], "n_trees": [4]}
    best, table = cross_validate(data, "forest", CvSpec(k=4, grid=grid), seed=3)
    by_point = {}
    for rec in table:
        by_point.setdefault(rec.params["max_depth"], []).append(rec.score)
    scores = list(by_point.values())
    assert len(table) == 8
    first_half, second_half = table[:4], table[4:]
    assert [r.score for r in first_half] == [r.score for r in second_half]
    assert best == {"max_depth": 3, "n_trees": 4}


def test_cv_selects_deep_tree_for_interaction_signal():
    spec = ScenarioSpec(
        county_id="xorland",
        n_tracts=120,
        n_features=6,
        informative=(0, 1),
        law=LAW_THRESHOLD_INTERACTION,
        noise=0.0,
        seed=77,
    )
    data = make_labeled(generate_county(spec), "heat")
    grid = {"max_depth": [1, 8], "n_trees": [15]}
    best, _ = cross_validate(data, "forest", CvSpec(k=5, grid=grid), seed=4)
    assert best["max_depth"] == 8  # depth 1 cannot express the interaction


def test_cv_too_few_samples(rng):
    X = rng.normal(size=(6, 2))
    y = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    with pytest.raises(TooFewSamples):
        cross_validate(
            labeled_from_arrays(X, y),
            "forest",
            CvSpec(k=10, grid={"n_trees": [2]}),
            seed=0,
        )


def test_cv_spec_validation():
    with pytest.raises(ValueError):
        CvSpec(k=1, grid={"a": [1]})
    with pytest.raises(ValueError):
        CvSpec(k=5, grid={})


@st.composite
def tied_datasets(draw, k):
    """Small matrices over a three-value alphabet, so split ties are common,
    with at least k rows of each class so every fold holds a positive."""
    n = draw(st.integers(min_value=3 * k, max_value=24))
    n_features = draw(st.integers(min_value=2, max_value=3))
    cells = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]),
                          min_size=n * n_features, max_size=n * n_features))
    n_high = draw(st.integers(min_value=k, max_value=n - k))
    order = draw(st.permutations(range(n)))
    y = np.zeros(n, dtype=np.int64)
    y[list(order[:n_high])] = 1
    return labeled_from_arrays(np.array(cells).reshape(n, n_features), y)


def assert_same_cv(shared, brute):
    best, table = shared
    brute_best, brute_table = brute
    assert best == brute_best
    assert [(r.params, r.fold) for r in table] == [(p, f) for p, f, _ in brute_table]
    # bit-equal scores, not approximately equal
    assert [np.float64(r.score).tobytes() for r in table] == [
        np.float64(s).tobytes() for _, _, s in brute_table
    ]


@settings(max_examples=25, deadline=None)
@given(
    data=tied_datasets(k=3),
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    depths=st.sampled_from([[None], [None, 1], [2, 1]]),
    seed=st.integers(0, 2**32),
)
def test_cv_prefix_sharing_matches_brute_force_forest(data, sizes, depths, seed):
    cv = CvSpec(k=3, grid={"n_trees": sizes, "max_depth": depths})
    assert_same_cv(
        cross_validate(data, "forest", cv, seed),
        cross_validate_brute(data, "forest", cv, seed),
    )


@settings(max_examples=40, deadline=None)
@given(
    data=tied_datasets(k=2),
    size=st.integers(1, 4),
    depths=st.sampled_from([[None, 1], [1, None], [1, 3, 2], [2, None, 0, 1], [3, 3]]),
    leaf=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    seed=st.integers(0, 2**32),
)
def test_cv_depth_sharing_grows_the_same_forests(data, size, depths, leaf, seed):
    fits = []  # (data, params, n_trees, seed, deeper, model) per CV fit

    def recording(fit_data, params, n_trees, seed, deeper=None):
        model = train_forest(fit_data, params, n_trees=n_trees, seed=seed, deeper=deeper)
        fits.append((fit_data, params, n_trees, seed, deeper, model))
        return model

    grid = {
        "n_trees": [size],
        "max_depth": depths,
        "min_samples_leaf": leaf,
        "features_per_split": [data.schema.feature_count - 1],
    }
    with patch.object(selection, "train_forest", recording):
        cross_validate(data, "forest", CvSpec(k=2, grid=grid), seed)
    assert len(fits) == 2 * len(depths) * len(leaf)
    for fit_data, params, n_trees, fit_seed, deeper, model in fits:
        if deeper is not None:  # deepest first, None counting as deepest
            limit = deeper.params.max_depth
            assert limit is None or limit >= params.max_depth
        alone = train_forest(fit_data, params, n_trees=n_trees, seed=fit_seed)
        assert [tree_to_dict(t) for t in model.trees] == [
            tree_to_dict(t) for t in alone.trees
        ]


@settings(max_examples=25, deadline=None)
@given(
    data=tied_datasets(k=2),
    rounds=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    rates=st.sampled_from([[0.3], [0.3, 1.0], [1.0, 0.1]]),
    seed=st.integers(0, 2**32),
)
def test_cv_prefix_sharing_matches_brute_force_gbt(data, rounds, rates, seed):
    cv = CvSpec(k=2, grid={"n_rounds": rounds, "learning_rate": rates, "max_depth": [2]})
    assert_same_cv(
        cross_validate(data, "gbt", cv, seed),
        cross_validate_brute(data, "gbt", cv, seed),
    )


@settings(max_examples=25, deadline=None)
@given(data=tied_datasets(k=2), size=st.integers(1, 6), seed=st.integers(0, 2**32))
def test_staged_last_stage_equals_predict(data, size, seed):
    forest = FAMILIES["forest"][0](data, {"n_trees": size, "max_depth": 3}, seed)
    stages = list(staged_proba_forest(forest, data.features))
    assert len(stages) == size
    assert stages[-1].tobytes() == predict_proba_forest(forest, data.features).tobytes()

    gbt = FAMILIES["gbt"][0](data, {"n_rounds": size, "learning_rate": 0.3}, seed)
    margins = list(staged_margin_gbt(gbt, data.features))
    assert len(margins) == size
    assert margins[-1].tobytes() == predict_margin_gbt(gbt, data.features).tobytes()
    labels = np.where(sigmoid(margins[-1]) > 0.5, HIGH, LOW)
    assert labels.tolist() == predict_gbt(gbt, data.features).tolist()


def test_check_grid_accepts_defaults_and_rejects_bad_grids():
    for family, (_, _, grid) in FAMILIES.items():
        check_grid(family, grid)
    for family, grid in (
        ("forest", {"n_tree": [2]}),  # misspelt size key
        ("forest", {"min_samples_leaf": [0]}),
        ("forest", {"n_trees": []}),
        ("forest", {"n_trees": [2.0]}),
        ("forest", {"n_trees": [0]}),
        ("forest", {"max_depth": [2.5]}),
        ("forest", {"max_depth": [True]}),
        ("gbt", {"n_rounds": [True]}),
        ("gbt", {"learning_rate": [0.0]}),
        ("gbt", {"max_depth": [None]}),
        ("gbt", {"features_per_split": [2]}),
        ("gbt", {}),
        ("gbt", [1, 2]),
    ):
        with pytest.raises(ValueError):
            check_grid(family, grid)
