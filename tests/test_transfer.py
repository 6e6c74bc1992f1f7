import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import labeled_from_arrays, transfer_axis
from oracles import transfer_csvs_brute
from hazardlens.boosting import BoostParams, predict_gbt, predict_margin_gbt, train_gbt
from hazardlens.cart import Leaf, TreeParams
from hazardlens.dataset import make_labeled
from hazardlens.errors import DimensionMismatch, SchemaMismatch
from hazardlens.forest import ForestModel, predict_forest, predict_proba_forest, train_forest
from hazardlens.pipeline import write_transfer
from hazardlens.selection import FAMILIES, SplitSpec, stratified_split
from hazardlens.synth import CountyPlan, ScenarioSpec, build_scenario, generate_county
from hazardlens.transfer import (
    BASELINE_BOTH,
    BASELINE_SOURCE,
    BASELINE_TARGET,
    TransferPolicy,
    classify,
    cross_county,
    cross_hazard,
    score_table,
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


def test_diagonal_exactly_zero_and_transferable():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    matrix = transfer_axis(cross_county, "heat", models, evals)
    for county in matrix.ids:
        assert matrix.delta[(county, county)] == 0.0
        assert matrix.transferable[(county, county)] is True


def test_shared_law_counties_transfer():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    matrix = transfer_axis(cross_county, "heat", models, evals)
    off_diag = [v for (s, t), v in matrix.delta.items() if s != t]
    assert len(off_diag) == 6
    assert all(matrix.transferable[k] for k in matrix.delta)
    assert all(-100.0 <= v <= 100.0 for v in matrix.delta.values())


def test_independent_law_counties_do_not_transfer():
    models, evals = build_pair_inputs(three_counties(False), "heat", seed=5)
    matrix = transfer_axis(cross_county, "heat", models, evals)
    off_diag = [(k, v) for k, v in matrix.delta.items() if k[0] != k[1]]
    failed = [k for k, v in off_diag if not matrix.transferable[k]]
    assert len(failed) >= 4  # strongly non-transferable by construction


def test_reproducible_bit_for_bit():
    m1 = transfer_axis(cross_county, "heat", *build_pair_inputs(three_counties(True), "heat", 5))
    m2 = transfer_axis(cross_county, "heat", *build_pair_inputs(three_counties(True), "heat", 5))
    assert m1.delta == m2.delta
    assert m1.transferable == m2.transferable


def test_registry_marks_absent_cells():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    registry = ("c0", "c1", "c2", "ghost")
    matrix = transfer_axis(cross_county, "heat", models, evals, ids=registry)
    assert matrix.ids == registry
    assert matrix.cell("ghost", "c0") is None
    assert matrix.cell("c0", "ghost") is None
    assert all(matrix.cell("ghost", c) is None and matrix.cell(c, "ghost") is None
               for c in registry)
    assert set(matrix.delta) == {(s, t) for s in registry[:3] for t in registry[:3]}


def test_an_undefined_score_is_left_out_and_its_cell_absent(tmp_path):
    # b's model calls a's one tract low, as it is: no positive truth and no
    # positive prediction leave F undefined, and a zero would be a fake score
    def forest(low, high):
        tree = Leaf(counts=[low, high], n=low + high)
        return ForestModel(trees=[tree], params=TreeParams(), seed=0, feature_names=("f00", "f01"))

    a, b = ("a", "heat"), ("b", "heat")
    models = {a: forest(0, 1), b: forest(1, 0)}
    evals = {a: labeled_from_arrays([[0.0, 1.0]], [0], county="a"),
             b: labeled_from_arrays([[0.0, 1.0], [1.0, 0.0]], [0, 1], county="b")}
    scores = score_table(models, evals, 1.5)
    assert sorted(scores) == [(a, a), (a, b), (b, b)]
    for policy in (TransferPolicy(), TransferPolicy(baseline=BASELINE_SOURCE)):
        matrix = cross_county("heat", ("a", "b"), scores, policy)
        assert matrix.cell("b", "a") is None
        assert set(matrix.delta) == set(matrix.transferable) == {("a", "a"), ("a", "b"), ("b", "b")}
    write_transfer(tmp_path, models, evals, ("a", "b"), ("heat",), TransferPolicy())
    with (tmp_path / "cross_county_heat.csv").open(newline="") as handle:
        assert ["b", "a", "", "absent"] in list(csv.reader(handle))


def test_source_native_and_both_baselines():
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5)
    target = transfer_axis(cross_county, "heat", models, evals, TransferPolicy())
    source = transfer_axis(
        cross_county, "heat", models, evals, TransferPolicy(baseline=BASELINE_SOURCE)
    )
    both = transfer_axis(
        cross_county, "heat", models, evals, TransferPolicy(baseline=BASELINE_BOTH)
    )
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
        return transfer_axis(cross_hazard, "solo", models, evals)

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
        transfer_axis(cross_county, "heat", models, evals)


def test_axis_errors_name_the_axis_and_the_entry(tmp_path):
    # c1's model fits its own 13-feature set, unlike the other counties'
    models, evals = build_pair_inputs(three_counties(True), "heat", seed=5, n_trees=3)
    wide = generate_county(
        ScenarioSpec(county_id="c1", n_tracts=60, n_features=13,
                     informative=(0, 1), seed=9, hazards=("heat",))
    )
    train, evals["c1"] = stratified_split(make_labeled(wide, "heat"), SplitSpec(seed=1))
    models["c1"] = train_forest(train, TreeParams(), n_trees=3, seed=1)
    by_pair = [{(c, "heat"): value for c, value in m.items()} for m in (models, evals)]
    message = "evaluation sets over county differ in feature count"
    with pytest.raises(DimensionMismatch, match=message):
        write_transfer(tmp_path, *by_pair, ("c0", "c1", "c2"), ("heat",), TransferPolicy())
    models["c2"].feature_names = ("other",) + models["c2"].feature_names[1:]
    with pytest.raises(SchemaMismatch, match="features for 'c2'"):
        write_transfer(tmp_path, *by_pair, ("c0", "c1", "c2"), ("heat",), TransferPolicy())


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


_POINTS = {
    "forest": {"n_trees": 3, "max_depth": 3},
    "gbt": {"n_rounds": 2, "max_depth": 2, "learning_rate": 0.3, "l2_reg": 1.0},
}


@settings(max_examples=25, deadline=None)
@given(
    held=st.lists(st.booleans(), min_size=9, max_size=9),
    family=st.sampled_from(sorted(_POINTS)),
    baseline=st.sampled_from([BASELINE_TARGET, BASELINE_SOURCE, BASELINE_BOTH]),
    eval_on=st.sampled_from(["test", "full"]),
    seed=st.integers(0, 2**16),
)
def test_write_transfer_matches_the_per_cell_oracle(held, family, baseline, eval_on, seed):
    # a study of up to 3 counties x 3 hazards: a pair that is not held is an
    # absent cell in both registries, and an axis holding fewer than two pairs
    # writes no file
    counties, hazards = ("ash", "oak", "yew"), ("flood", "heat", "wind")
    pairs = [(c, h) for c in counties for h in hazards]
    values = np.array([-1.5, 0.25, 2.0])
    models, evals = {}, {}
    for i, (county, hazard) in enumerate(pairs):
        if not held[i]:
            continue
        rng = np.random.default_rng((seed, i))
        X = rng.choice(values, size=(24, 3))
        y = (X[:, i % 3] + rng.choice(values, size=24) > 0.5).astype(np.int64)
        y[:6] = [0, 1, 0, 1, 0, 1]
        labeled = labeled_from_arrays(X, y, county=county, hazard=hazard)
        train, test = stratified_split(labeled, SplitSpec(seed=seed))
        models[county, hazard] = FAMILIES[family][0](train, _POINTS[family], seed + i)
        evals[county, hazard] = labeled if eval_on == "full" else test
    policy = TransferPolicy(baseline=baseline)
    with tempfile.TemporaryDirectory() as out:
        write_transfer(Path(out), models, evals, counties, hazards, policy)
        written = {}
        for path in sorted(Path(out).glob("*.csv")):
            with path.open(newline="") as handle:
                written[path.name] = list(csv.reader(handle))
    assert written == transfer_csvs_brute(models, evals, counties, hazards, policy, family)
