import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import labeled_from_arrays
from oracles import forest_importance_from_json, kendall_tau, mean_ranks
from hazardlens.cart import (
    Leaf,
    PAPER_LITERAL,
    Split,
    TreeParams,
    WEIGHTED,
    grow_tree,
    node_importances,
)
from hazardlens.errors import AllZeroImportance
from hazardlens.forest import ForestModel, forest_to_json, train_forest, tree_rng
from hazardlens.importance import (
    ImportanceVector,
    build_rank_matrix,
    forest_importance,
    normalize,
    overall_importance,
    rank_features,
)
from hazardlens.pipeline import importance_vectors


def stump(feature, gain_counts=((4, 0), (0, 4))):
    (l_low, l_high), (r_low, r_high) = gain_counts
    left = Leaf(counts=np.array([l_low, l_high]), n=l_low + l_high)
    right = Leaf(counts=np.array([r_low, r_high]), n=r_low + r_high)
    n = left.n + right.n
    from hazardlens.cart import gini_impurity

    return Split(
        feature=feature,
        threshold=0.0,
        impurity=gini_impurity(left.counts + right.counts),
        n=n,
        left_impurity=gini_impurity(left.counts),
        right_impurity=gini_impurity(right.counts),
        n_left=left.n,
        n_right=right.n,
        left=left,
        right=right,
    )


def vector(values):
    names = tuple(f"f{j:02d}" for j in range(len(values)))
    return ImportanceVector(feature_names=names, values=np.asarray(values, float))


def test_importance_vectors_note_each_forest_without_importance():
    def forest(*trees):
        return ForestModel(
            trees=list(trees), params=TreeParams(), seed=0, feature_names=("a", "b", "c", "d")
        )

    forests = {
        ("oak", "heat"): forest(stump(1)),
        ("ash", "heat"): forest(stump(3), stump(0)),
        ("ash", "flood"): forest(Leaf(counts=np.array([2, 2]), n=4)),  # no split
        ("yew", "air"): forest(stump(2)),
        ("oak", "flood"): forest(stump(0)),
    }
    vectors, notes = importance_vectors(forests, WEIGHTED)
    assert notes == {
        ("ash", "flood"): "total importance is not positive; the model made no useful splits"
    }
    assert [(hazard, list(by_county)) for hazard, by_county in vectors.items()] == [
        ("air", ["yew"]), ("flood", ["oak"]), ("heat", ["ash", "oak"])
    ]
    for hazard, by_county in vectors.items():
        for county, vector in by_county.items():
            expected = normalize(forest_importance(forests[county, hazard], WEIGHTED))
            assert vector.feature_names == expected.feature_names
            assert vector.values.tolist() == expected.values.tolist()


def test_stump_forest_single_feature():
    model = ForestModel(
        trees=[stump(3) for _ in range(4)],
        params=TreeParams(),
        seed=0,
        feature_names=("a", "b", "c", "d", "e"),
    )
    raw = forest_importance(model)
    assert raw.values[3] > 0
    assert np.sum(raw.values != 0) == 1


def test_single_tree_forest_equals_cart(rng):
    X = rng.normal(size=(30, 3))
    y = (X[:, 1] > 0).astype(np.int64)
    data = labeled_from_arrays(X, y)
    params = TreeParams(features_per_split=3)
    model = train_forest(data, params, n_trees=1, seed=4)
    raw = forest_importance(model)
    # CART on the tree's own bootstrap draw: tract ids ascend, so the rows
    # are already in canonical order
    stream = tree_rng(4, 0)
    idx = stream.integers(0, data.n, data.n)
    direct = grow_tree(X[idx], y[idx], params, stream)
    per_node = node_importances(direct, WEIGHTED)
    for j in range(3):
        assert raw.values[j] == per_node.get(j, 0.0)


@pytest.mark.parametrize("mode", [WEIGHTED, PAPER_LITERAL])
def test_matches_serialized_walk_oracle(rng, mode):
    X = rng.normal(size=(50, 4))
    y = ((X[:, 0] + X[:, 3]) > 0).astype(np.int64)
    data = labeled_from_arrays(X, y)
    model = train_forest(data, TreeParams(max_depth=4), n_trees=5, seed=13)
    mine = forest_importance(model, mode).values
    oracle = forest_importance_from_json(forest_to_json(model), mode)
    np.testing.assert_allclose(mine, oracle, atol=1e-12, rtol=0)


def test_normalize_examples():
    np.testing.assert_array_equal(
        normalize(vector([2.0, 2.0])).values, [0.5, 0.5]
    )
    np.testing.assert_array_equal(
        normalize(vector([3.0, 1.0, 0.0])).values, [0.75, 0.25, 0.0]
    )
    with pytest.raises(AllZeroImportance):
        normalize(vector([0.0, 0.0]))


def test_normalized_sums_to_one(rng):
    for _ in range(10):
        raw = vector(rng.random(6) + 0.01)
        out = normalize(raw)
        assert abs(out.values.sum() - 1.0) < 1e-9
        assert np.all(out.values >= 0)


def test_rank_features_examples():
    assert rank_features(vector([0.5, 0.3, 0.2])).tolist() == [3.0, 2.0, 1.0]
    assert rank_features(vector([0.4, 0.4, 0.2])).tolist() == [2.5, 2.5, 1.0]


@given(st.lists(st.sampled_from([0.0, -0.0, 1e-300, 0.125, 0.2, 0.5, 1.0]), min_size=1,
                max_size=40))
def test_rank_features_bit_equal_to_the_tie_run_walk(values):
    # few distinct values, so most vectors hold ties, and -0.0 ties with 0.0
    expected = mean_ranks(values)
    assert rank_features(vector(values)).tobytes() == expected.tobytes()


def test_overall_importance_bounds():
    F = 35
    top = vector([1.0] + [0.0] * (F - 1))
    ranks_top = rank_features(top)
    assert ranks_top[0] == F
    matrix = build_rank_matrix({f"c{i}": top for i in range(4)})
    overall = overall_importance(matrix, top_k=7)
    assert overall.scores[0] == pytest.approx(1.0, abs=1e-15)

    # bottom-ranked everywhere: score C * 1 / (F * C) = 1/F
    bottom_scores = np.linspace(1.0, 0.1, F)  # feature 34 is always least
    matrix = build_rank_matrix(
        {f"c{i}": vector(bottom_scores) for i in range(3)}
    )
    overall = overall_importance(matrix, top_k=7)
    assert overall.scores[-1] == pytest.approx(1.0 / F, abs=1e-15)
    assert np.all(overall.scores >= 1.0 / F - 1e-15)
    assert np.all(overall.scores <= 1.0 + 1e-15)


def test_overall_single_county_monotone_in_ranks(rng):
    values = rng.permutation(10).astype(float)
    matrix = build_rank_matrix({"only": vector(values)})
    overall = overall_importance(matrix, top_k=3)
    order_by_score = np.argsort(-overall.scores)
    order_by_value = np.argsort(-values)
    np.testing.assert_array_equal(order_by_score, order_by_value)


def test_overall_boundary_ties_overflow():
    # two features tie exactly at the k-th score: both included
    values = [0.5, 0.3, 0.3, 0.1]
    matrix = build_rank_matrix({"c": vector(values)})
    overall = overall_importance(matrix, top_k=2)
    assert len(overall.top_features) == 3
    assert overall.overflow == 1


def test_rank_sum_conservation(rng):
    C, F = 5, 8
    vectors = {}
    for i in range(C):
        vectors[f"c{i}"] = vector(rng.permutation(F).astype(float))  # no ties
    matrix = build_rank_matrix(vectors)
    assert matrix.ranks.sum() == pytest.approx(C * F * (F + 1) / 2, abs=1e-9)


def test_overall_invariant_to_county_relabeling(rng):
    F = 6
    vec_a, vec_b = vector(rng.random(F)), vector(rng.random(F))
    m1 = build_rank_matrix({"a": vec_a, "b": vec_b})
    m2 = build_rank_matrix({"zz": vec_a, "aa": vec_b})
    np.testing.assert_allclose(
        overall_importance(m1).scores, overall_importance(m2).scores, atol=1e-15
    )


def test_noise_feature_keeps_overall_order_kendall():
    # adding a pure-noise column must not shuffle the other features'
    # overall scores; median Kendall tau over 10 seeds stays >= 0.9
    weights = np.array([1.5, 1.2, 0.9, 0.65, 0.45, 0.3])
    taus = []
    for seed in range(10):
        gen = np.random.default_rng(seed)
        n, F, C = 120, 6, 3
        datasets = []
        for _ in range(C):
            X = gen.standard_normal((n, F))
            y = (X @ weights + 0.4 * gen.standard_normal(n) > 0).astype(np.int64)
            datasets.append((X, y))
        noise_cols = [gen.standard_normal((n, 1)) for _ in range(C)]

        def overall_scores(with_noise):
            vectors = {}
            for c, (X, y) in enumerate(datasets):
                feats = np.column_stack([X, noise_cols[c]]) if with_noise else X
                data = labeled_from_arrays(feats, y)
                model = train_forest(
                    data, TreeParams(max_depth=6), n_trees=50, seed=seed * 31 + c
                )
                vectors[f"c{c}"] = normalize(forest_importance(model))
            return overall_importance(build_rank_matrix(vectors)).scores

        taus.append(kendall_tau(overall_scores(False), overall_scores(True)[:F]))
    assert np.median(taus) >= 0.9
