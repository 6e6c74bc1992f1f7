"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line. The six-county benchmark runs once per worker count in
a module fixture; criteria 6 and 7 read those shared artifacts."""

import csv
import json
import time

import numpy as np
import pytest

from conftest import labeled_from_arrays, synth6x3_config, transfer_axis
from oracles import forest_importance_from_json
from hazardlens.cart import TreeParams
from hazardlens.dataset import binarize, make_labeled
from hazardlens.forest import forest_to_json, predict_forest, train_forest
from hazardlens.importance import (
    PAPER_LITERAL,
    WEIGHTED,
    ImportanceVector,
    forest_importance,
    normalize,
    overall_importance,
)
from hazardlens.metrics import (
    Confusion,
    MetricTable,
    confusion,
    dispersion_summary,
    f_beta,
)
from hazardlens.cart import gini_impurity
from hazardlens.pipeline import run
from hazardlens.report import file_sha256
from hazardlens.selection import SplitSpec, stratified_split
from hazardlens.synth import CountyPlan, build_scenario, generate_county
from hazardlens.transfer import TransferPolicy, cross_county

MODULE_T0 = time.monotonic()
ACCEPT_SEED = 20240808
# sha256 of the workers=1 run's manifest.json at ACCEPT_SEED (numpy 2.4.6);
# a change that alters any manifest byte on purpose updates it and says why
W1_MANIFEST_SHA256 = "26c2ca8a122d8da7d492bf787775be4d71f67b889c572f9c9910cb4dda51c8e5"
TOL = 1e-12


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("accept")
    one = run(synth6x3_config(ACCEPT_SEED, str(base / "w1"), workers=1))
    eight = run(synth6x3_config(ACCEPT_SEED, str(base / "w8"), workers=8))
    return one, eight, base


def test_criterion_1_importance_oracle_equivalence():
    t0 = time.monotonic()
    gen = np.random.default_rng(11)
    worst = 0.0
    for case in range(20):
        n = int(gen.integers(30, 201))
        F = int(gen.integers(2, 11))
        X = gen.standard_normal((n, F))
        w = gen.standard_normal(F)
        y = (X @ w + 0.5 * gen.standard_normal(n) > 0).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        data = labeled_from_arrays(X, y)
        model = train_forest(data, TreeParams(max_depth=6), n_trees=4, seed=case)
        text = forest_to_json(model)
        for mode in (WEIGHTED, PAPER_LITERAL):
            mine = forest_importance(model, mode).values
            oracle = forest_importance_from_json(text, mode)
            worst = max(worst, float(np.max(np.abs(mine - oracle))))
    elapsed = time.monotonic() - t0
    report(
        "criterion 1 (oracle equivalence)",
        worst <= TOL and elapsed < 30.0,
        f"max deviation {worst:.2e} over 20 datasets x 2 modes, {elapsed:.1f}s",
    )


def test_criterion_2_formula_exactness():
    checks = []

    def close(a, b):
        checks.append(abs(a - b) <= TOL)
        return checks[-1]

    # Gini impurity
    close(gini_impurity([5, 5]), 0.5)
    close(gini_impurity([7, 0]), 0.0)
    close(gini_impurity([1, 3]), 0.375)

    # F-beta
    close(f_beta(Confusion(tp=8, fp=2, fn=2, tn=8), 1.5), 0.8)
    close(f_beta(Confusion(tp=4, fp=4, fn=0, tn=2), 1.5), 1.625 / 2.125)
    close(f_beta(Confusion(tp=0, fp=3, fn=2, tn=1), 1.5), 0.0)

    # normalization
    def vec(values):
        return ImportanceVector(
            feature_names=tuple(f"f{j}" for j in range(len(values))),
            values=np.asarray(values, float),
        )

    normalized = normalize(vec([3.0, 1.0, 0.0])).values
    close(normalized[0], 0.75)
    close(normalized[1], 0.25)
    close(normalized[2], 0.0)

    # overall importance bounds: top everywhere = 1, bottom everywhere = 1/F
    F = 35
    spread = np.linspace(1.0, 0.1, F)
    overall = overall_importance({f"c{i}": vec(spread) for i in range(4)}, top_k=7)
    close(overall.scores[0], 1.0)
    close(overall.scores[-1], 1.0 / F)

    # dispersion, Eq. 7/8 style population std
    table = MetricTable(("a", "b"), ("h",))
    table.set("a", "h", 0.6)
    table.set("b", "h", 0.8)
    close(dispersion_summary(table).per_hazard_std["h"], 0.1)

    harris = [0.8409, 0.6514, 0.6842]
    t2 = MetricTable(("harris",), ("heat", "flood", "air"))
    for hazard, value in zip(("heat", "flood", "air"), harris):
        t2.set("harris", hazard, value)
    mu = sum(harris) / 3
    expected = (sum((v - mu) ** 2 for v in harris) / 3) ** 0.5
    close(dispersion_summary(t2).per_county_std["harris"], expected)

    grid = MetricTable(("a", "b"), ("x", "y"))
    for county in ("a", "b"):
        grid.set(county, "x", 0.6)
        grid.set(county, "y", 0.8)
    summary = dispersion_summary(grid)
    close(summary.avg_inter_county_std, 0.0)
    close(summary.avg_inter_hazard_std, 0.1)

    report(
        "criterion 2 (formula exactness)",
        all(checks),
        f"{sum(checks)}/{len(checks)} hand values match at 1e-12",
    )


def test_criterion_3_planted_signal_recovery():
    t0 = time.monotonic()
    hits = 0
    for seed in range(20):
        plans = [CountyPlan(f"c{i}", 150, ("heat",)) for i in range(4)]
        specs = build_scenario(
            plans, seed=seed, n_features=35, informative_count=5,
            noise=0.2, share_law_across_counties=True,
        )
        planted = set(specs[0].informative)
        vectors = {}
        for spec in specs:
            labeled = make_labeled(generate_county(spec), "heat")
            model = train_forest(labeled, TreeParams(), n_trees=40, seed=seed)
            vectors[spec.county_id] = normalize(forest_importance(model))
        top = set(overall_importance(vectors, top_k=7).top_features)
        hits += len(top & planted) >= 4
    elapsed = time.monotonic() - t0
    report(
        "criterion 3 (planted-signal recovery)",
        hits >= 16 and elapsed < 180.0,
        f"{hits}/20 seeds recovered >=4 of 5 planted features, {elapsed:.1f}s",
    )


def test_criterion_4_permutation_null():
    beta = 1.5
    diffs = []
    for seed in range(10):
        gen = np.random.default_rng(seed)
        n, F = 280, 10
        X = gen.standard_normal((n, F))
        exposure = -np.exp(X[:, 0] + 0.5 * X[:, 1])  # left-skewed: p > 0.5
        labels, _ = binarize(exposure)
        shuffled = gen.permutation(labels)
        data = labeled_from_arrays(X, shuffled)
        train, test = stratified_split(data, SplitSpec(seed=seed))
        model = train_forest(train, TreeParams(), n_trees=40, seed=seed)
        preds = predict_forest(model, test.features)
        score = f_beta(confusion(test.labels, preds), beta)
        p = float(np.mean(test.labels == 1))
        baseline = (1 + beta**2) * p / (beta**2 * p + 1)
        diffs.append(score - baseline)
    median = float(np.median(diffs))
    report(
        "criterion 4 (permutation null)",
        abs(median) <= 0.10,
        f"median heldout F1.5 minus predict-high baseline = {median:+.4f}",
    )


def test_criterion_5_transfer_oracle():
    t0 = time.monotonic()
    rates = {}
    diagonals_exact = True
    for label, share in (("shared", True), ("independent", False)):
        moved = total = 0
        for seed in range(20):
            plans = [CountyPlan(f"c{i}", 180, ("heat",)) for i in range(3)]
            specs = build_scenario(
                plans, seed=seed, n_features=12, informative_count=3,
                noise=0.05, share_law_across_counties=share,
            )
            models, evals = {}, {}
            for spec in specs:
                labeled = make_labeled(generate_county(spec), "heat")
                train, test = stratified_split(labeled, SplitSpec(seed=seed))
                models[spec.county_id] = train_forest(
                    train, TreeParams(), n_trees=25, seed=seed
                )
                evals[spec.county_id] = test
            matrix = transfer_axis(cross_county, "heat", models, evals, TransferPolicy())
            for (src, tgt), delta in matrix.delta.items():
                if src == tgt:
                    diagonals_exact &= delta == 0.0
                else:
                    total += 1
                    moved += matrix.transferable[(src, tgt)]
        rates[label] = (moved, total)
    shared_ok = rates["shared"][0] / rates["shared"][1] >= 0.90
    indep_ok = 1 - rates["independent"][0] / rates["independent"][1] >= 0.90
    elapsed = time.monotonic() - t0
    report(
        "criterion 5 (transfer oracle)",
        shared_ok and indep_ok and diagonals_exact,
        f"shared {rates['shared'][0]}/{rates['shared'][1]} transferable, "
        f"independent {rates['independent'][1] - rates['independent'][0]}"
        f"/{rates['independent'][1]} non-transferable, diagonals exact: "
        f"{diagonals_exact}, {elapsed:.1f}s",
    )


def test_criterion_6_harness_shape(preset_runs):
    one, eight, base = preset_runs
    w1 = base / "w1"
    problems = []

    with (w1 / "reports/performance.csv").open() as handle:
        perf = list(csv.reader(handle))
    header, *rows = perf
    if len(rows) != 7:  # 6 counties + average
        problems.append(f"performance rows {len(rows)}")
    if header[0] != "county" or len(header) != 13:
        problems.append(f"performance header {header}")
    expected_counties = ["alder", "birch", "cedar", "dogwood", "elm", "fir"]
    if [r[0] for r in rows[:6]] != expected_counties:
        problems.append("county order")
    # two absent air cells: elm and fir rows show empty air columns
    air_col = header.index("fbeta1.5_air")
    for row in rows[:6]:
        empty = row[air_col] == ""
        if (row[0] in ("elm", "fir")) != empty:
            problems.append(f"air availability wrong for {row[0]}")

    populated = len(one.fbeta_tables["forest"].values)
    if populated != 16:
        problems.append(f"populated cells {populated} != 16")
    if sorted(one.absent) != [("elm", "air"), ("fir", "air")]:
        problems.append(f"absent pairs {one.absent}")

    dispersion = json.loads((w1 / "reports/dispersion.json").read_text())
    if set(dispersion) != {"f1", "fbeta1.5"}:
        problems.append(f"dispersion metrics {set(dispersion)}")
    for metric in dispersion.values():
        if not {"avg_inter_county_std", "avg_inter_hazard_std"} <= set(metric):
            problems.append("dispersion summary keys")

    for hazard in ("heat", "flood", "air"):
        if not (w1 / f"reports/overall_importance_{hazard}.csv").is_file():
            problems.append(f"missing overall importance for {hazard}")
        if not (w1 / f"transfer/cross_county_{hazard}.svg").is_file():
            problems.append(f"missing cross-county heatmap for {hazard}")
    for county in expected_counties:
        if not (w1 / f"transfer/cross_hazard_{county}.csv").is_file():
            problems.append(f"missing cross-hazard matrix for {county}")
    if not (w1 / "reports/model_comparison.csv").is_file():
        problems.append("missing model comparison")
    if not (w1 / "reports/feature_group_rollup.csv").is_file():
        problems.append("missing feature group rollup")

    # same seed, two runs: byte-identical artifacts
    for rel in one.manifest:
        if (w1 / rel).read_bytes() != (base / "w8" / rel).read_bytes():
            problems.append(f"bytes differ: {rel}")
            break

    report(
        "criterion 6 (harness shape)",
        not problems,
        "; ".join(problems) if problems else
        "16 populated cells, 2 absent air cells, all artifacts present, "
        "same-seed runs byte-identical",
    )


def test_criterion_7_worker_count_determinism(preset_runs):
    one, eight, base = preset_runs
    same = one.manifest == eight.manifest
    digest = file_sha256(base / "w1" / "manifest.json")
    report(
        "criterion 7 (parallel determinism)",
        same and digest == W1_MANIFEST_SHA256,
        f"workers 1 vs 8: {len(one.manifest)} manifest hashes "
        f"{'identical' if same else 'DIFFER'}; workers=1 manifest.json sha256 "
        f"{digest[:12]}, pinned {W1_MANIFEST_SHA256[:12]}",
    )


def test_criterion_8_runtime_budget(preset_runs):
    elapsed = time.monotonic() - MODULE_T0
    report(
        "criterion 8 (runtime budget)",
        elapsed < 300.0,
        f"acceptance suite elapsed {elapsed:.0f}s < 300s",
    )
