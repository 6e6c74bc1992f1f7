import hashlib

import numpy as np
import pytest

from hazardlens.cart import TreeParams, grow_tree, trees_values
from hazardlens.dataset import make_labeled
from hazardlens.errors import InvalidSpec
from hazardlens.forest import train_forest
from hazardlens.importance import forest_importance
from hazardlens.metrics import confusion, f_beta
from hazardlens.selection import SplitSpec, stratified_split
from hazardlens.synth import (
    COUPLING_INDEPENDENT,
    COUPLINGS,
    COUPLING_SHARED,
    LAW_THRESHOLD_INTERACTION,
    LAW_TREE_RULE,
    LAWS,
    CountyPlan,
    ScenarioSpec,
    build_scenario,
    generate_county,
    planted_oracle,
    synth6x3_feature_groups,
    synth6x3_specs,
)


def test_determinism():
    spec = ScenarioSpec(county_id="twin", n_tracts=40, n_features=6,
                        informative=(0, 2), seed=123)
    a = generate_county(spec)
    b = generate_county(spec)
    np.testing.assert_array_equal(a.features, b.features)
    for hazard in a.hazards:
        np.testing.assert_array_equal(a.hazards[hazard], b.hazards[hazard])
    assert a.tract_ids == b.tract_ids


def test_noise_free_single_feature_law_is_monotone():
    spec = ScenarioSpec(county_id="mono", n_tracts=80, n_features=5,
                        informative=(0,), noise=0.0, seed=3,
                        hazards=("heat",))
    dataset = generate_county(spec)
    order = np.argsort(dataset.features[:, 0])
    exposure = dataset.hazards["heat"][order]
    assert np.all(np.diff(exposure) >= 0)

    labeled = make_labeled(dataset, "heat")
    stumpy = grow_tree(labeled.features, labeled.labels, TreeParams(max_depth=1),
                       np.random.default_rng(0))
    preds = (trees_values([stumpy], labeled.features)[0] > 0.5).astype(np.int64)
    assert f_beta(confusion(labeled.labels, preds), 1.0) == 1.0


def test_shared_law_hazards_have_identical_labels():
    spec = ScenarioSpec(county_id="pairville", n_tracts=60, n_features=6,
                        informative=(1, 3), noise=0.3,
                        coupling=COUPLING_SHARED, hazards=("heat", "flood"),
                        seed=9)
    dataset = generate_county(spec)
    heat = make_labeled(dataset, "heat")
    flood = make_labeled(dataset, "flood")
    np.testing.assert_array_equal(heat.labels, flood.labels)


def test_planted_oracle_echoes_spec():
    spec = ScenarioSpec(county_id="o", n_tracts=30, n_features=12,
                        informative=(9, 1, 4), seed=0)
    told = planted_oracle(spec)
    assert told.top_features == (1, 4, 9)

    spec = ScenarioSpec(county_id="o", n_tracts=30, n_features=12,
                        informative=(0, 1, 2), seed=0,
                        coupling=COUPLING_INDEPENDENT)
    told = planted_oracle(spec)
    sets = told.per_hazard_informative
    assert len(sets) == 3
    flat = [j for s in sets for j in s]
    assert len(flat) == len(set(flat))  # pairwise disjoint


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        ScenarioSpec(county_id="x", n_tracts=0, informative=(0,), seed=0)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(county_id="x", n_tracts=5, n_features=4,
                     informative=(7,), seed=0)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(county_id="x", n_tracts=5, informative=(0,), noise=1.0, seed=0)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(county_id="x", n_tracts=5, informative=(0,),
                     law=LAW_THRESHOLD_INTERACTION, seed=0)
    with pytest.raises(InvalidSpec):
        # 3 hazards x 4 informative > 10 features: no disjoint sets
        ScenarioSpec(county_id="x", n_tracts=5, n_features=10,
                     informative=(0, 1, 2, 3), coupling=COUPLING_INDEPENDENT,
                     seed=0)
    with pytest.raises(InvalidSpec):
        ScenarioSpec(county_id="x", n_tracts=5, informative=(0,), law="magic",
                     seed=0)


@pytest.mark.parametrize(
    "counts", [{"n_tracts": 5.5}, {"n_tracts": True}, {"n_tracts": 5, "n_features": 35.0}]
)
def test_count_that_is_no_integer_is_an_invalid_spec(counts):
    # generate_county would take it, and fail mid-run
    with pytest.raises(InvalidSpec, match="must be an integer"):
        ScenarioSpec(county_id="x", informative=(0,), seed=0, **counts)


def test_tree_rule_law_generates_varied_exposure():
    spec = ScenarioSpec(county_id="t", n_tracts=100, n_features=8,
                        informative=(0, 1, 2), law=LAW_TREE_RULE, noise=0.1,
                        seed=17, hazards=("heat",))
    dataset = generate_county(spec)
    assert np.unique(dataset.hazards["heat"]).size > 5


def test_noise_zero_single_feature_importance_recovery():
    # the planted feature tops Gini importance in every seed
    for seed in range(10):
        spec = ScenarioSpec(county_id="s", n_tracts=80, n_features=6,
                            informative=(4,), noise=0.0, seed=seed,
                            hazards=("heat",))
        labeled = make_labeled(generate_county(spec), "heat")
        model = train_forest(labeled, TreeParams(), n_trees=15, seed=seed)
        values = forest_importance(model).values
        assert int(np.argmax(values)) == 4


def test_noise_weakly_degrades_test_fbeta():
    from hazardlens.forest import predict_forest

    medians = []
    for noise in (0.0, 0.2, 0.4):
        scores = []
        for seed in range(10):
            spec = ScenarioSpec(county_id="n", n_tracts=120, n_features=8,
                                informative=(0, 3), noise=noise, seed=seed,
                                hazards=("heat",))
            labeled = make_labeled(generate_county(spec), "heat")
            train, test = stratified_split(labeled, SplitSpec(seed=seed))
            model = train_forest(train, TreeParams(), n_trees=20, seed=seed)
            preds = predict_forest(model, test.features)
            scores.append(f_beta(confusion(test.labels, preds), 1.5))
        medians.append(float(np.median(scores)))
    assert medians[1] <= medians[0] + 0.02
    assert medians[2] <= medians[1] + 0.02


def test_build_scenario_law_sharing():
    plans = [CountyPlan(f"c{i}", 20, ("heat",)) for i in range(3)]
    shared = build_scenario(plans, seed=4, n_features=10, informative_count=2)
    assert len({spec.law_seed for spec in shared}) == 1
    assert len({spec.informative for spec in shared}) == 1

    solo = build_scenario(plans, seed=4, n_features=10, informative_count=2,
                          share_law_across_counties=False)
    assert len({spec.law_seed for spec in solo}) == 3
    flat = [j for spec in solo for j in spec.informative]
    assert len(flat) == len(set(flat))  # disjoint when the budget allows


def test_synth6x3_shape():
    specs = synth6x3_specs(seed=1)
    assert len(specs) == 6
    names = [spec.county_id for spec in specs]
    assert names == ["alder", "birch", "cedar", "dogwood", "elm", "fir"]
    for spec in specs:
        if spec.county_id in ("elm", "fir"):
            assert spec.hazards == ("heat", "flood")
        else:
            assert spec.hazards == ("heat", "flood", "air")
    groups = synth6x3_feature_groups()
    assert len(groups) == 35
    assert set(groups.values()) == {
        "built_environment", "human_mobility", "land_cover", "social_demographic"
    }


# sha256 of features then each hazard's name and exposures, in spec order
GENERATED_DIGESTS = {
    ("shared-law", "linear-logit"):
        "c72d8cd47d855906bb11a887a9ed93746b0f9d74895068752b88bcda8622dc1d",
    ("shared-law", "threshold-interaction"):
        "21a37b2cb6e41461dc17d4545efe0e3beb451f3e78c05e41249939ff970406bc",
    ("shared-law", "tree-rule"):
        "339c7488a1b46c8797d2d43784af96d09000aed3ad42a7ec833ff5dc7b127f25",
    ("independent", "linear-logit"):
        "d7c376c44ed4be62f6352a4ecf227f3d8d88f049b3aa28c5b06fd2441fc040f7",
    ("independent", "threshold-interaction"):
        "f42c47d80101c53ca1eac9e4f6548e2de33c4b0fce6f61dfa7df9331b1264ec9",
    ("independent", "tree-rule"):
        "154476e3c79c9834591c8e8ed8d2945eda1e20fbe8702730b8e537accbc987d2",
    ("feature-caused", "linear-logit"):
        "d9300106c8f99df476f5388e9b935af459d2283c8c98853ea773d4b04927e46a",
    ("feature-caused", "threshold-interaction"):
        "7e193906446ad52310d5d1d41de1590b444c0cdcdbe7ce607bfc37cbe1ce2db1",
    ("feature-caused", "tree-rule"):
        "d2d953a15e5f19bfb8c9feccc1b2684b49cd917a1be3dc903c0e5e9eabce36ce",
    ("hazard-caused", "linear-logit"):
        "1ce85f062e4e9f7f938980c78d3afcca5c4672689e3b0b266915f7393ad58929",
    ("hazard-caused", "threshold-interaction"):
        "774c4e603052c6f1ffc3895444b95ec7fd039f015c540d79585d97af30096bfb",
    ("hazard-caused", "tree-rule"):
        "482dcffbcee42882ef7ba8e17b405b7676a54ca1f2f45ed637603c7a69948aff",
}


@pytest.mark.parametrize("coupling", COUPLINGS)
@pytest.mark.parametrize("law", LAWS)
def test_generated_bytes_are_pinned_for_every_coupling_and_law(coupling, law):
    dataset = generate_county(ScenarioSpec(
        county_id="pin", n_tracts=24, n_features=10, informative=(1, 4, 6),
        law=law, coupling=coupling, noise=0.25, seed=11,
    ))
    digest = hashlib.sha256(dataset.features.tobytes())
    for hazard, exposure in dataset.hazards.items():
        digest.update(hazard.encode())
        digest.update(exposure.tobytes())
    assert digest.hexdigest() == GENERATED_DIGESTS[(coupling, law)]
