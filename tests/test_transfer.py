import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_from_arrays
from hazardlens.boosting import BoostParams, predict_gbt, predict_margin_gbt, train_gbt
from hazardlens.cart import TreeParams
from hazardlens.dataset import make_labeled
from hazardlens.errors import SchemaMismatch
from hazardlens.forest import predict_forest, predict_proba_forest, train_forest
from hazardlens.selection import SplitSpec, stratified_split
from hazardlens.synth import CountyPlan, ScenarioSpec, build_scenario, generate_county
from hazardlens.transfer import (
    BASELINE_BOTH,
    BASELINE_SOURCE,
    TransferPolicy,
    classify,
    cross_county,
    cross_hazard,
)


def build_pair_inputs(specs, hazard, seed, n_trees=20):
    models, evals = {}, {}
    for spec in specs:
        dataset = generate_county(spec)
        labeled = make_labeled(dataset, hazard)
        train, test = stratified_split(labeled, SplitSpec(seed=seed))
        models[spec.county_id] = train_forest(train, TreeParams(), n_trees=n_trees, seed=seed)
        evals[spec.county_id] = test
    return models, evals


def three_counties(share_law, seed=11):
    plans = [CountyPlan(f"c{i}", 150, ("heat",)) for i in range(3)]
    return build_scenario(
        plans,
        seed=seed,
        n_features=12,
        informative_count=3,
        noise=0.1,
        share_law_across_counties=share_law,
    )


def test_classify_threshold_rule():
    policy = TransferPolicy()
    assert classify(-14.0, policy) is True
    assert classify(-15.0, policy) is True  # inclusive boundary
    assert classify(-15.1, policy) is False
    assert classify(3.0, policy) is True  # transfers may even improve


def test_policy_validation():
    with pytest.raises(ValueError):
        TransferPolicy(threshold=0.0)
    with pytest.raises(ValueError):
        TransferPolicy(baseline="nonsense")
    with pytest.raises(ValueError):
        TransferPolicy(eval_on="everything")


def test_diagonal_exactly_zero_and_transferable():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    matrix = cross_county("heat", models, evals)
    for county in matrix.ids:
        assert matrix.delta[(county, county)] == 0.0
        assert matrix.transferable[(county, county)] is True


def test_shared_law_counties_transfer():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    matrix = cross_county("heat", models, evals)
    off_diag = [v for (s, t), v in matrix.delta.items() if s != t]
    assert len(off_diag) == 6
    assert all(matrix.transferable[k] for k in matrix.delta)
    assert all(-100.0 <= v <= 100.0 for v in matrix.delta.values())


def test_independent_law_counties_do_not_transfer():
    models, evals = build_pair_inputs(three_counties(False), "heat", seed=5)
    matrix = cross_county("heat", models, evals)
    off_diag = [(k, v) for k, v in matrix.delta.items() if k[0] != k[1]]
    failed = [k for k, v in off_diag if not matrix.transferable[k]]
    assert len(failed) >= 4  # strongly non-transferable by construction


def test_reproducible_bit_for_bit():
    m1 = cross_county("heat", *build_pair_inputs(three_counties(True), "heat", 5))
    m2 = cross_county("heat", *build_pair_inputs(three_counties(True), "heat", 5))
    assert m1.delta == m2.delta
    assert m1.transferable == m2.transferable


def test_registry_marks_absent_cells():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    registry = ("c0", "c1", "c2", "ghost")
    matrix = cross_county("heat", models, evals, registry=registry)
    assert matrix.ids == registry
    assert matrix.cell("ghost", "c0") is None
    assert matrix.cell("c0", "ghost") is None
    assert all(matrix.cell("ghost", c) is None and matrix.cell(c, "ghost") is None
               for c in registry)
    assert set(matrix.delta) == {(s, t) for s in registry[:3] for t in registry[:3]}


def test_source_native_and_both_baselines():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    target = cross_county("heat", models, evals, TransferPolicy())
    source = cross_county(
        "heat", models, evals, TransferPolicy(baseline=BASELINE_SOURCE)
    )
    both = cross_county("heat", models, evals, TransferPolicy(baseline=BASELINE_BOTH))
    assert set(both) == {"target_native", "source_native"}
    assert both["target_native"].delta == target.delta
    assert both["source_native"].delta == source.delta
    # the two baselines disagree whenever native scores differ
    assert any(
        target.delta[k] != source.delta[k]
        for k in target.delta
        if k[0] != k[1]
    )


def test_cross_hazard_shared_and_independent():
    def one_county(coupling):
        spec = ScenarioSpec(
            county_id="solo",
            n_tracts=150,
            n_features=16,
            informative=(0, 1, 2),
            noise=0.1,
            coupling=coupling,
            hazards=("heat", "flood", "air"),
            seed=21,
        )
        dataset = generate_county(spec)
        models, evals = {}, {}
        for hazard in spec.hazards:
            labeled = make_labeled(dataset, hazard)
            train, test = stratified_split(labeled, SplitSpec(seed=5))
            models[hazard] = train_forest(train, TreeParams(), n_trees=20, seed=5)
            evals[hazard] = test
        return cross_hazard("solo", models, evals)

    shared = one_county("shared-law")
    assert all(shared.transferable[k] for k in shared.delta)
    # identical labels across hazards: transfers are exact ties
    assert all(v == 0.0 for v in shared.delta.values())

    independent = one_county("independent")
    off_diag = [k for k in independent.delta if k[0] != k[1]]
    failed = [k for k in off_diag if not independent.transferable[k]]
    assert len(failed) >= 4


def test_schema_mismatch_detected():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    other = generate_county(
        ScenarioSpec(county_id="widecounty", n_tracts=60, n_features=13,
                     informative=(0, 1), seed=9, hazards=("heat",))
    )
    labeled = make_labeled(other, "heat")
    _, test = stratified_split(labeled, SplitSpec(seed=1))
    evals["c1"] = test  # 13 features against a 12-feature model
    with pytest.raises(SchemaMismatch):
        cross_county("heat", models, evals)


def test_needs_two_present_entries():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    only = {"c0": models["c0"]}
    with pytest.raises(ValueError):
        cross_county("heat", only, {"c0": evals["c0"]})


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
)
def test_stacked_prediction_equals_per_block_prediction(sizes, seed):
    # transfer scoring predicts each source model once on all targets' rows
    rng = np.random.default_rng(seed)
    values = np.array([-1.5, 0.25, 2.0])
    X = rng.choice(values, size=(40, 3))
    y = (X[:, 0] + rng.choice(values, size=40) > 0.5).astype(np.int64)
    y[:2] = [0, 1]
    train = labeled_from_arrays(X, y)
    forest = train_forest(train, TreeParams(max_depth=4), n_trees=5, seed=seed)
    gbt = train_gbt(train, BoostParams(n_rounds=3, max_depth=2), seed=seed)
    blocks = [rng.choice(values, size=(n, 3)) for n in sizes]
    stack = np.concatenate(blocks)
    for model, predict in ((forest, predict_forest), (forest, predict_proba_forest),
                           (gbt, predict_gbt), (gbt, predict_margin_gbt)):
        whole = predict(model, stack)
        parts = np.concatenate([predict(model, block) for block in blocks])
        assert whole.tobytes() == parts.tobytes()
