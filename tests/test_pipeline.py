import ast
import csv
import json
import os
import shutil
import subprocess
import sys
import warnings
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import synth6x3_config
from hazardlens import pipeline
from hazardlens.cli import main
from hazardlens.dataset import CountyDataset, load_county_csv, make_labeled
from hazardlens.errors import InvalidConfig
from hazardlens.metrics import MetricTable
from hazardlens.pipeline import RunConfig, compare_models, execute_job, run
from hazardlens.report import file_sha256
from hazardlens.seeds import child_seed
from hazardlens.selection import SplitSpec, stratified_split


def tiny_config(out_dir, seed=5, workers=1, beta=1.5):
    return RunConfig(
        seed=seed,
        out_dir=str(out_dir),
        workers=workers,
        beta=beta,
        synth={
            "counties": [
                {"name": "ash", "n_tracts": 80, "hazards": ["heat", "flood"]},
                {"name": "oak", "n_tracts": 90, "hazards": ["heat", "flood"]},
                {"name": "yew", "n_tracts": 70, "hazards": ["heat"]},
            ],
            "n_features": 8,
            "informative_count": 3,
            "noise": 0.2,
        },
        forest_grid={"n_trees": [10], "max_depth": [4]},
        gbt_grid={"n_rounds": [8], "max_depth": [3], "learning_rate": [0.3],
                  "l2_reg": [1.0]},
        cv_k=5,
        top_k=3,
    )


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "run"
    config = tiny_config(out)
    return run(config), out, config


def test_structure_and_absent_pairs(tiny_run):
    report, out, _ = tiny_run
    assert report.counties == ("ash", "oak", "yew")
    assert report.hazards == ("flood", "heat")
    assert report.absent == [("yew", "flood")]
    assert len(report.results) == 5
    assert not report.failures

    for rel in (
        "summary.json",
        "manifest.json",
        "reports/performance.csv",
        "reports/model_comparison.csv",
        "reports/dispersion.json",
        "reports/cv_table.csv",
        "reports/importance_heat.csv",
        "reports/overall_importance_heat.csv",
        "transfer/cross_county_heat.csv",
        "transfer/cross_county_heat.svg",
        "transfer/cross_hazard_ash.csv",
        "models/ash__heat__forest.json",
        "models/ash__heat__gbt.json",
        "data/ash.csv",
        "data/oracle.json",
    ):
        assert (out / rel).is_file(), rel

    summary = json.loads((out / "summary.json").read_text())
    assert summary["absent_pairs"] == [["yew", "flood"]]
    assert set(summary["pairs"]) == {
        "ash__flood", "ash__heat", "oak__flood", "oak__heat", "yew__heat"
    }
    # absent cell stays absent in the transfer matrix (never zero)
    with (out / "transfer/cross_county_flood.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    yew_rows = [r for r in rows if "yew" in (r["source"], r["target"])]
    assert yew_rows and all(r["transferable"] == "absent" for r in yew_rows)


def test_summary_dispersion_holds_the_std_keys(tiny_run):
    # summary.json echoes dispersion.json without the per-hazard and
    # per-county means
    _, out, _ = tiny_run
    summary = json.loads((out / "summary.json").read_text())
    full = json.loads((out / "reports/dispersion.json").read_text())
    assert sorted(summary["dispersion"]) == sorted(full) == ["f1", "fbeta1.5"]
    for metric, stats in summary["dispersion"].items():
        assert sorted(stats) == [
            "avg_inter_county_std", "avg_inter_hazard_std", "per_county_std", "per_hazard_std"
        ]
        assert stats == {k: v for k, v in full[metric].items() if k in stats}
        assert sorted(set(full[metric]) - set(stats)) == ["per_county_mean", "per_hazard_mean"]


def test_rerun_same_seed_byte_identical(tiny_run, tmp_path):
    report, out, _ = tiny_run
    second = run(tiny_config(tmp_path / "again"))
    assert report.manifest == second.manifest
    for rel in report.manifest:
        assert (out / rel).read_bytes() == (tmp_path / "again" / rel).read_bytes()


def test_manifest_covers_every_written_file(tiny_run):
    report, out, _ = tiny_run
    on_disk = sorted(
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    )
    assert sorted(report.manifest) == on_disk
    for rel in report.manifest:
        assert report.manifest[rel] == file_sha256(out / rel)


def test_never_trains_on_test_rows(tiny_run):
    report, out, config = tiny_run
    for (county, hazard), res in report.results.items():
        ds_path = out / "data" / f"{county}.csv"
        from hazardlens.dataset import load_county_csv

        labeled = make_labeled(load_county_csv(ds_path), hazard)
        job_seed = child_seed(config.seed, "job", county, hazard)
        train, test = stratified_split(
            labeled, SplitSpec(seed=child_seed(job_seed, "split"))
        )
        assert set(train.tract_ids).isdisjoint(test.tract_ids)
        assert sorted(train.tract_ids + test.tract_ids) == sorted(labeled.tract_ids)
        assert test.tract_ids == res.evaluation.tract_ids


def test_compare_models_matches_metric_csv(tiny_run):
    report, out, _ = tiny_run
    means = compare_models(report.fbeta_tables, report.hazards)
    for family in ("forest", "gbt"):
        by_hazard = {}
        with (out / f"reports/metrics_{family}_fbeta.csv").open() as handle:
            for row in csv.DictReader(handle):
                if row["fbeta"]:
                    by_hazard.setdefault(row["hazard"], []).append(float(row["fbeta"]))
        for hazard, values in by_hazard.items():
            assert means[family][hazard] == pytest.approx(
                sum(values) / len(values), abs=1e-12
            )
    # flood averages over the two counties holding flood data only
    assert len(by_hazard["flood"]) == 2


def test_beta_one_gives_equal_tables(tmp_path):
    report = run(tiny_config(tmp_path / "b1", beta=1.0))
    for family in ("forest", "gbt"):
        assert report.f1_tables[family].values == report.fbeta_tables[family].values


def test_full_eval_both_baselines_forest_only(tmp_path):
    config = RunConfig(
        seed=3,
        out_dir=str(tmp_path / "fb"),
        synth={
            "counties": [
                {"name": "ash", "n_tracts": 60, "hazards": ["heat"]},
                {"name": "oak", "n_tracts": 70, "hazards": ["heat"]},
            ],
            "n_features": 6,
            "informative_count": 2,
            "noise": 0.1,
        },
        families=["forest"],
        forest_grid={"n_trees": [8], "max_depth": [4]},
        cv_k=3,
        top_k=2,
        transfer_baseline="both",
        transfer_eval_on="full",
    )
    report = run(config)
    assert not report.failures
    out = tmp_path / "fb"
    for name in ("target_native", "source_native"):
        assert (out / f"transfer/cross_county_heat__{name}.csv").is_file()
        assert (out / f"transfer/cross_county_heat__{name}.svg").is_file()
    assert not (out / "models/ash__heat__gbt.json").exists()


def test_hazard_registry_restriction(tmp_path):
    config = tiny_config(tmp_path / "reg")
    config.hazards = ["heat"]
    report = run(config)
    assert report.hazards == ("heat",)
    assert all(h == "heat" for (_, h) in report.results)
    # flood data exists but is outside the registry: never an absent mark
    assert report.absent == []


def test_compare_models_constant_scores():
    counties, hazards = ("a", "b", "c"), ("heat",)
    table = MetricTable(counties, hazards)
    for county in counties:
        table.set(county, "heat", 0.77)
    means = compare_models({"forest": table}, hazards)
    assert means["forest"]["heat"] == pytest.approx(0.77, abs=1e-15)


def county_csv(path, seed, constant_hazard=False, blank_row=None):
    gen = np.random.default_rng(seed)
    rows = []
    for i in range(40):
        x = gen.normal(size=3)
        hazard = 5.0 if constant_hazard else x[0] + 0.2 * gen.normal()
        cells = [repr(float(v)) for v in x]
        if i == blank_row:
            cells[1] = ""  # a missing "fb" value
        rows.append([f"t{i:03d}", *cells, repr(float(hazard))])
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["tract_id", "fa", "fb", "fc", "hazard__heat"])
        writer.writerows(rows)
    return path


def test_partial_failure_preserved(tmp_path):
    good = county_csv(tmp_path / "good.csv", seed=1)
    flat = county_csv(tmp_path / "flat.csv", seed=2, constant_hazard=True)
    other = county_csv(tmp_path / "other.csv", seed=3)
    config = RunConfig(
        seed=9,
        out_dir=str(tmp_path / "out"),
        county_files=[str(good), str(flat), str(other)],
        forest_grid={"n_trees": [5], "max_depth": [3]},
        gbt_grid={"n_rounds": [4], "max_depth": [2], "learning_rate": [0.3],
                  "l2_reg": [1.0]},
        cv_k=3,
        top_k=2,
    )
    report = run(config)
    assert len(report.failures) == 1
    assert report.failures[0]["county"] == "flat"
    assert report.failures[0]["error"] == "DegenerateLabels"
    assert ("good", "heat") in report.results  # partial results preserved
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["failures"][0]["county"] == "flat"


def test_config_validation(tmp_path):
    with pytest.raises(InvalidConfig, match="seed is mandatory"):
        RunConfig(seed=None, out_dir="x", synth={"preset": "synth6x3"})
    with pytest.raises(InvalidConfig, match="out_dir is mandatory"):
        RunConfig.from_dict({"seed": 1, "synth": {"preset": "synth6x3"}})
    with pytest.raises(InvalidConfig):
        RunConfig(seed=1, out_dir="x")  # no data source
    with pytest.raises(InvalidConfig):
        RunConfig(seed=1, out_dir="x", county_files=["/nope/missing.csv"])
    synth = {"preset": "synth6x3"}
    with pytest.raises(InvalidConfig, match="unknown model family"):
        RunConfig(seed=1, out_dir="x", synth=synth, families=["svm"])
    with pytest.raises(InvalidConfig, match="workers must be"):
        RunConfig(seed=1, out_dir="x", synth=synth, workers=0)
    with pytest.raises(InvalidConfig, match="threshold must be negative"):
        RunConfig(seed=1, out_dir="x", synth=synth, transfer_threshold=5.0)
    with pytest.raises(InvalidConfig, match="train_fraction"):
        RunConfig(seed=1, out_dir="x", synth=synth, train_fraction=1.5)
    with pytest.raises(InvalidConfig, match="k must be"):
        RunConfig(seed=1, out_dir="x", synth=synth, cv_k=1)
    with pytest.raises(InvalidConfig, match="feature groups file not found"):
        RunConfig(seed=1, out_dir="x", synth=synth, feature_groups="/nope/groups.json")
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"fa": "climate"}))
    with pytest.raises(InvalidConfig, match="mutually exclusive"):
        RunConfig(seed=1, out_dir="x", synth=synth, feature_groups=str(groups))
    # two plans of one name would write one <county>.csv, one plan silently lost
    twice = {"counties": [{"name": "a", "n_tracts": 40}] * 2}
    with pytest.raises(InvalidConfig, match="synth counties lists 'a' more than once"):
        RunConfig(seed=1, out_dir="x", synth=twice)
    # a model's file name holds its hazard id
    with pytest.raises(InvalidConfig, match="hazard id 'heat/wave' must not contain '/'"):
        RunConfig(seed=1, out_dir="x", synth=synth, hazards=["heat/wave"])
    # a synth county's CSV is named by its id, and a pair joins it to a hazard
    # by '__'; both are caught before anything is generated
    for name, part in (("a/b", "/"), ("a__b", "__")):
        county = {"counties": [{"name": name, "n_tracts": 40}]}
        with pytest.raises(InvalidConfig, match=f"county id '{name}' must not contain '{part}'"):
            RunConfig(seed=1, out_dir="x", synth=county)
    with pytest.raises(InvalidConfig, match="county id must be a string, got 5"):
        RunConfig(seed=1, out_dir="x", synth={"counties": [{"name": 5, "n_tracts": 40}]})


@pytest.mark.parametrize(
    "county",
    [
        {"name": "a", "n_tracts": 40, "hazards": "heat"},  # not split into letters
        {"name": "a", "n_tracts": 40, "hazard": ["heat"]},  # misspelt key
    ],
)
def test_malformed_custom_synth_county_rejected(county):
    with pytest.raises(InvalidConfig, match="malformed synth block"):
        RunConfig(seed=1, out_dir="x", synth={"counties": [county]})


def test_from_dict_accepts_exactly_the_keys_to_dict_emits():
    raw = RunConfig(seed=1, out_dir="x", synth={"preset": "synth6x3"}).to_dict()
    assert RunConfig.from_dict(raw).to_dict() == raw


def test_preset_named_in_a_json_config_supplies_its_grids():
    raw = {"seed": 3, "out_dir": "x", "synth": {"preset": "synth6x3"}}
    config = RunConfig.from_dict(raw)
    assert config == synth6x3_config(3, "x")
    assert config.cv_k == 10
    assert config.forest_grid["n_trees"] == [20] and config.gbt_grid["n_rounds"] == [15]
    # the config's own cv keys win over the preset's
    own = RunConfig.from_dict({**raw, "cv": {"k": 4, "forest_grid": {"n_trees": [3]}}})
    assert (own.cv_k, own.forest_grid) == (4, {"n_trees": [3]})
    assert own.gbt_grid == config.gbt_grid


@pytest.mark.parametrize(
    "bad",
    [
        {"split": {"train_fraction": 1.5}},
        {"cv": {"k": 1}},
        {"worker": 4},  # misspelt top-level key
        {"split": {"train_frac": 0.6}},
        {"cv": {"folds": 3}},
        {"transfer": {"treshold": -10.0}},
        {"split": 0.7},
        {"feature_groups": "no/such/groups.json"},
        {"feature_groups": ("groups.json", "fa: x")},  # not JSON
        {"feature_groups": ("groups.json", '["fa", "fb"]')},  # not an object
        {"feature_groups": ("groups.json", '{"fa": 1}')},  # group not a name
        {"hazards": "heat"},  # a string, not a list
        {"top_k": 2.5},
        {"workers": 1.5},
        {"seed": "abc"},
        {"cv": {"k": 2.5}},
        {"split": {"stratified": "no"}},
        # a valid groups file, but the synth scenario brings its own groups
        {"feature_groups": ("groups.json", '{"fa": "climate"}')},
        {"missing_feature_policy": "bogus"},
        {"hazards": ["heat", "heat"]},
        {"families": ["forest", "forest"]},
        {"synth": {"preset": "nope"}},
        {"hazards": []},
        # malformed synth blocks: each is caught before anything is generated
        {"synth": {"counties": [{"name": "a", "n_tracts": 40}], "bogus": 1}},
        {"synth": {"counties": [{"name": "a"}]}},
        {"synth": {"counties": "x"}},
        {"synth": {"preset": "synth6x3", "noise": "loud"}},
        {"synth": {}},
        {"beta": 0},
        {"families": []},
        {"top_k": 0},
        {"importance_mode": "bogus"},
        {"hazards": ["a__b"]},
        # a synth county named with a '/' died in the CSV writer; one with
        # '__' was generated before it was rejected
        {"synth": {"counties": [{"name": "a/b", "n_tracts": 40}]}},
        {"synth": {"counties": [{"name": "a__b", "n_tracts": 40}]}},
        {"synth": "x"},
        {"counties": ["x.csv"]},  # next to the synth block
        {"transfer": {"eval_on": "bogus"}},
        # NaN passes every range check; these trained every unit, then wrote
        # NaN into summary.json or died in the heatmap writer
        {"beta": float("nan")},
        {"beta": float("inf")},
        {"transfer": {"threshold": float("nan")}},
        {"transfer": {"threshold": float("-inf")}},
        {"cv": {"gbt_grid": {
            "n_rounds": [15], "max_depth": [3], "learning_rate": [0.3], "l2_reg": [float("nan")]
        }}},
        {"cv": {"forest_grid": {"n_trees": [20], "min_samples_leaf": [float("nan")]}}},
        {"out_dir": 5},
        {"out_dir": ["o"]},
        # a count or depth that is no integer, or a rate that is a bool: these
        # trained and then failed, or ran and echoed the value into summary.json
        {"cv": {"forest_grid": {"n_trees": [20], "features_per_split": [2.5]}}},
        {"cv": {"gbt_grid": {
            "n_rounds": [15], "max_depth": [2.5], "learning_rate": [0.3], "l2_reg": [1.0]
        }}},
        {"cv": {"gbt_grid": {
            "n_rounds": [15], "max_depth": [3], "learning_rate": [True], "l2_reg": [1.0]
        }}},
        {"cv": {"gbt_grid": {
            "n_rounds": [15], "max_depth": [3], "learning_rate": [0.3], "l2_reg": [1.0],
            "min_samples_leaf": [1.5],
        }}},
    ],
)
def test_cli_bad_settings_rejected_before_anything_is_written(tmp_path, bad):
    out = tmp_path / "out"
    if isinstance(bad.get("feature_groups"), tuple):
        name, text = bad["feature_groups"]
        (tmp_path / name).write_text(text)
        bad = {**bad, "feature_groups": str(tmp_path / name)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"seed": 1, "out_dir": str(out), "synth": {"preset": "synth6x3"}, **bad}
    ))
    assert main(["run", "--config", str(config_path)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("n_tracts", [5.5, 1e3, True])
def test_cli_synth_tract_count_that_is_no_integer_exits_2(tmp_path, capsys, n_tracts):
    # it used to pass the config checks and end the run in a TypeError
    out = tmp_path / "out"
    counties = [{"name": "a", "n_tracts": n_tracts}, {"name": "b", "n_tracts": 60}]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"seed": 1, "out_dir": str(out), "synth": {"counties": counties}, "cv": SMALL_CV}
    ))
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "malformed synth block" in err
    assert not out.exists()


def test_cli_beta_nan_rejected_before_anything_is_written(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--preset", "synth6x3", "--seed", "1", "--out", str(out), "--beta", "nan"]
    assert main(args) == 2
    assert "beta must hold finite numbers only" in capsys.readouterr().err
    assert not out.exists()


def test_cli_csv_naming_a_column_twice_rejected_before_anything_is_written(tmp_path, capsys):
    other = county_csv(tmp_path / "other.csv", seed=3)
    path = county_csv(tmp_path / "ash.csv", seed=1)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header + ",hazard__heat", *(row + ",1.0" for row in rows)]) + "\n")
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"seed": 1, "out_dir": str(out), "counties": [str(path), str(other)]}
    ))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "'hazard__heat' is named twice" in capsys.readouterr().err
    assert not out.exists()


def damage_county(path, damage):
    """Put one 0xff byte (the first of its tract id), or one cell past the csv
    module's field limit, into the last row of a county CSV."""
    *head, last = path.read_bytes().splitlines()
    if damage == "undecodable":
        last = b"\xff" + last[1:]
    else:
        tract, _, rest = last.partition(b",")
        last = tract + b"," + b"1" * (csv.field_size_limit() + 1) + b"," + rest.partition(b",")[2]
    path.write_bytes(b"\n".join([*head, last]) + b"\n")
    return path


@pytest.mark.parametrize("damage", ["undecodable", "oversized"])
def test_cli_unreadable_county_csv_rejected_before_anything_is_written(tmp_path, capsys, damage):
    other = county_csv(tmp_path / "other.csv", seed=3)
    path = damage_county(county_csv(tmp_path / "ash.csv", seed=1), damage)
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"seed": 1, "out_dir": str(out), "counties": [str(path), str(other)]}
    ))
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"cannot read county file {path}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["undecodable", "oversized"])
def test_cli_transfer_on_a_run_whose_county_csv_became_unreadable_fails_cleanly(
    tmp_path, capsys, damage
):
    good = county_csv(tmp_path / "good.csv", seed=1)
    other = county_csv(tmp_path / "other.csv", seed=3)
    out = tmp_path / "out"
    run(RunConfig(
        seed=4,
        out_dir=str(out),
        county_files=[str(good), str(other)],
        forest_grid={"n_trees": [5], "max_depth": [3]},
        families=["forest"],
        cv_k=3,
    ))
    damage_county(other, damage)
    capsys.readouterr()
    assert main(["transfer", "--run", str(out)]) == 2
    assert f"cannot read county file {other}: " in capsys.readouterr().err
    assert not (out / "transfer_recomputed").exists()


FUZZ_COLUMN_KINDS = (
    "normal", "constant", "tied", "huge", "huge_blank", "subnormal", "blank", "empty", "padded"
)


def _fuzz_cell(kind, gen) -> str:
    if kind == "constant":
        return "2.5"
    if kind == "tied":
        return repr(float(gen.integers(3)))
    if kind == "huge" or (kind == "huge_blank" and gen.random() < 0.8):
        # huge_blank's blanks impute the median of near-limit values
        return repr(float(gen.choice([-1.7e308, -1e308, 1e308, 1.5e308])))
    if kind == "huge_blank":
        return ""
    if kind == "subnormal":
        return repr(float(gen.choice([0.0, 5e-324, 1e-320, 2.5e-310, -1e-315])))
    if kind == "empty" or (kind == "blank" and gen.random() < 0.3):
        return " " * gen.integers(2)
    value = repr(float(gen.normal()))
    return f" {value}  " if kind == "padded" else value


@st.composite
def csv_studies(draw):
    """Two county CSV texts (40-80 tracts, 3-6 features of the kinds above,
    one or two hazards of ordinary or near-limit magnitude), a missing-feature
    policy, and at times damage that makes one county unreadable."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(FUZZ_COLUMN_KINDS), min_size=3, max_size=6))
    hazards = ["heat", "flood"][: draw(st.integers(1, 2))]
    hazard_kinds = [draw(st.sampled_from(["padded", "huge"])) for _ in hazards]
    header = ["tract_id", *(f"x{j}" for j in range(len(kinds))),
              *(f"hazard__{h}" for h in hazards)]
    counties = {}
    for county in ("ash", "oak"):
        lines = [",".join(header)]
        for t in range(draw(st.integers(40, 80))):
            cells = [_fuzz_cell(kind, gen) for kind in kinds]
            cells += ["" if gen.random() < 0.1 else _fuzz_cell(kind, gen) for kind in hazard_kinds]
            lines.append(",".join([f"{county}-{t}", *cells]))
        counties[county] = "\n".join(lines) + "\n"
    policy = draw(st.sampled_from(["error", "impute_median"]))
    damage = draw(st.sampled_from([None, None, None, "undecodable", "oversized"]))
    return counties, policy, damage


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(study=csv_studies(), shuffler=st.randoms(use_true_random=False))
def test_cli_run_over_generated_csv_studies_exits_0_or_2(tmp_path_factory, study, shuffler):
    # 0 with the same manifest at workers 1 and 2, or 2 with nothing written;
    # never a traceback, and no numpy overflow warning from the loader. The
    # workers=2 leg reads the same rows in a drawn order: the same study
    counties, policy, damage = study
    base = tmp_path_factory.mktemp("fuzz")
    paths = [base / f"{county}.csv" for county in counties]
    codes, manifests = [], []
    for workers in (1, 2):
        for path, text in zip(paths, counties.values()):
            header, *rows = text.splitlines()
            if workers == 2:
                shuffler.shuffle(rows)
            path.write_text("\n".join([header, *rows]) + "\n", "utf-8")
        if damage:
            damage_county(paths[0], damage)
        out = base / f"w{workers}"
        config_path = base / f"config{workers}.json"
        config_path.write_text(json.dumps({
            "seed": 3, "out_dir": str(out), "workers": workers,
            "counties": [str(p) for p in paths], "missing_feature_policy": policy,
            "cv": {"k": 2, "forest_grid": {"n_trees": [3], "max_depth": [3]},
                   "gbt_grid": {"n_rounds": [2], "max_depth": [2],
                                "learning_rate": [0.3], "l2_reg": [1.0]}},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            codes.append(main(["run", "--config", str(config_path)]))
        if codes[-1] == 2:
            assert not out.exists()
        else:
            manifests.append((out / "manifest.json").read_bytes())
    assert codes in ([0, 0], [2, 2])
    assert len(set(manifests)) <= 1
    if damage:
        assert codes == [2, 2]


@pytest.mark.parametrize("command", ["transfer", "importance"])
def test_cli_recompute_missing_run_fails_cleanly(tmp_path, command):
    missing = tmp_path / "missing"
    assert main([command, "--run", str(missing)]) == 2
    assert not missing.exists()


@pytest.mark.parametrize(
    "text, reason",
    [
        ("{not json", "cannot read run summary"),
        ("[1]", "is not an object with pairs, counties, hazards"),
        ('{"counties": ["ash"], "hazards": ["heat"]}', "is not an object with pairs"),
        ('{"pairs": 5, "counties": ["ash"], "hazards": ["heat"]}', "pairs and config must be"),
        ('{"pairs": {}, "counties": ["ash"], "hazards": ["heat"], "config": [1]}',
         "pairs and config must be"),
        ('{"pairs": {}, "counties": 5, "hazards": ["heat"]}', "must be distinct-id lists"),
        ('{"pairs": {}, "counties": ["ash"], "hazards": "heat"}', "must be distinct-id lists"),
        ('{"pairs": {}, "counties": ["ash", 1], "hazards": ["heat"]}', "must be distinct-id lists"),
        ('{"pairs": {}, "counties": ["ash", "ash"], "hazards": ["heat"]}',
         "must be distinct-id lists"),
    ],
)
@pytest.mark.parametrize("command", ["transfer", "importance"])
def test_cli_recompute_malformed_summary_fails_cleanly(tmp_path, capsys, command, text, reason):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "summary.json").write_text(text)
    assert main([command, "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert reason in err and str(run_dir / "summary.json") in err
    assert sorted(p.name for p in run_dir.iterdir()) == ["summary.json"]


def test_cli_run_and_recompute(tmp_path, capsys):
    good = county_csv(tmp_path / "good.csv", seed=1)
    other = county_csv(tmp_path / "other.csv", seed=3)
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"fa": "climate", "fb": "built", "fc": "built"}))
    config = {
        "seed": 4,
        "out_dir": str(tmp_path / "out"),
        "counties": [str(good), str(other)],
        "feature_groups": str(groups),
        "cv": {
            "k": 3,
            "forest_grid": {"n_trees": [5], "max_depth": [3]},
            "gbt_grid": {"n_rounds": [4], "max_depth": [2],
                         "learning_rate": [0.3], "l2_reg": [1.0]},
        },
        "top_k": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "good/heat" in out

    run_dir = tmp_path / "out"
    assert main(["importance", "--run", str(run_dir)]) == 0
    for name in ("importance_heat.csv", "feature_group_rollup.csv"):
        assert (run_dir / "importance_recomputed" / name).read_bytes() == (
            run_dir / "reports" / name
        ).read_bytes()

    assert main(["transfer", "--run", str(run_dir)]) == 0
    again = run_dir / "transfer_recomputed" / "cross_county_heat.csv"
    assert again.read_bytes() == (
        run_dir / "transfer" / "cross_county_heat.csv"
    ).read_bytes()


def test_cli_transfer_recomputes_impute_median_run(tmp_path):
    good = county_csv(tmp_path / "good.csv", seed=1)
    holey = county_csv(tmp_path / "holey.csv", seed=3, blank_row=5)
    out = tmp_path / "out"
    config = {
        "seed": 4,
        "out_dir": str(out),
        "counties": [str(good), str(holey)],
        "missing_feature_policy": "impute_median",
        "cv": {
            "k": 3,
            "forest_grid": {"n_trees": [5], "max_depth": [3]},
            "gbt_grid": {"n_rounds": [4], "max_depth": [2],
                         "learning_rate": [0.3], "l2_reg": [1.0]},
        },
        "top_k": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 0
    assert main(["transfer", "--run", str(out)]) == 0
    written = sorted(p.name for p in (out / "transfer").iterdir())
    assert written
    assert sorted(p.name for p in (out / "transfer_recomputed").iterdir()) == written
    for name in written:
        assert (out / "transfer_recomputed" / name).read_bytes() == (
            out / "transfer" / name
        ).read_bytes()


def id_study(tmp_path):
    """Three county CSVs whose ids end in '_' or hold '&': x1 drives heat,
    x2 drives flood."""
    gen = np.random.default_rng(3)
    paths = []
    for name, n in (("a_", 80), ("b", 90), ("c&d", 85)):
        X = gen.normal(size=(n, 4))
        heat = X[:, 0] + 0.3 * gen.normal(size=n)
        flood = X[:, 1] + 0.3 * gen.normal(size=n)
        path = tmp_path / f"{name}.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["tract_id", "x1", "x2", "x3", "x4", "hazard__heat", "hazard__flood"])
            for i in range(n):
                writer.writerow([f"t{i:03d}", *map(repr, [*X[i].tolist(), heat[i].item(), flood[i].item()])])
        paths.append(str(path))
    return paths


def test_cli_recomputes_a_run_whose_ids_end_in_underscore_or_hold_markup(tmp_path):
    # recompute matches each pair name against the run's own county and
    # hazard lists, so 'a___flood' is ('a_', 'flood'), not ('a', '_flood');
    # and every heatmap escapes the ids it writes as text
    from xml.dom import minidom

    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 3,
        "out_dir": str(out),
        "counties": id_study(tmp_path),
        "cv": {
            "k": 2,
            "forest_grid": {"n_trees": [3]},
            "gbt_grid": {"n_rounds": [2], "max_depth": [2], "learning_rate": [0.3], "l2_reg": [1.0]},
        },
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    assert "a___flood" in json.loads((out / "summary.json").read_text())["pairs"]
    assert main(["transfer", "--run", str(out)]) == 0
    assert main(["importance", "--run", str(out)]) == 0
    written = sorted(p.name for p in (out / "transfer").iterdir())
    assert "cross_hazard_c&d.svg" in written
    assert sorted(p.name for p in (out / "transfer_recomputed").iterdir()) == written
    for name in written:
        assert (out / "transfer_recomputed" / name).read_bytes() == (out / "transfer" / name).read_bytes()
    svgs = [*(out / "transfer").glob("*.svg"), *(out / "transfer_recomputed").glob("*.svg")]
    assert len(svgs) == 2 * 5  # cross_county per hazard, cross_hazard per county
    for svg in svgs:
        minidom.parse(str(svg))


def test_hazard_id_starting_with_underscore_exits_2(tmp_path, capsys):
    # county 'a' with hazard '_heat' and county 'a_' with hazard 'heat' would
    # both be pair 'a___heat', one model file written over the other
    a = county_csv(tmp_path / "a.csv", seed=1)
    a.write_text(a.read_text().replace("hazard__heat", "hazard___heat"))
    a_ = county_csv(tmp_path / "a_.csv", seed=3)
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"seed": 1, "out_dir": str(out), "counties": [str(a), str(a_)]}))
    assert main(["run", "--config", str(config_path)]) == 2
    assert "county 'a': hazard id '_heat' must not start with '_'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_over_an_empty_county_file_fails_cleanly(tmp_path, capsys):
    other = county_csv(tmp_path / "other.csv", seed=3)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(
        {"seed": 1, "out_dir": str(out), "counties": [str(empty), str(other)]}
    ))
    assert main(["run", "--config", str(config_path)]) == 2
    assert f"{empty}: file is empty, no header row" in capsys.readouterr().err
    assert not out.exists()


def test_cli_transfer_on_a_run_whose_county_file_moved_fails_cleanly(tmp_path, capsys):
    good = county_csv(tmp_path / "good.csv", seed=1)
    other = county_csv(tmp_path / "other.csv", seed=3)
    out = tmp_path / "out"
    run(RunConfig(
        seed=4,
        out_dir=str(out),
        county_files=[str(good), str(other)],
        forest_grid={"n_trees": [5], "max_depth": [3]},
        families=["forest"],
        cv_k=3,
    ))
    other.rename(tmp_path / "moved.csv")
    capsys.readouterr()
    assert main(["transfer", "--run", str(out)]) == 2
    assert "county file not found" in capsys.readouterr().err
    assert not (out / "transfer_recomputed").exists()


@pytest.mark.parametrize("command", ["transfer", "importance"])
def test_cli_recompute_from_any_directory(tmp_path, monkeypatch, capsys, command):
    # relative paths in the config are found from the run directory's parents
    work = tmp_path / "w"
    (work / "inputs").mkdir(parents=True)
    county_csv(work / "inputs/good.csv", seed=1)
    county_csv(work / "inputs/other.csv", seed=3)
    (work / "groups.json").write_text(json.dumps({"fa": "climate", "fb": "built", "fc": "built"}))
    monkeypatch.chdir(work)
    run(RunConfig(
        seed=4,
        out_dir="train",
        county_files=["inputs/good.csv", "inputs/other.csv"],
        feature_groups="groups.json",
        forest_grid={"n_trees": [5], "max_depth": [3]},
        families=["forest"],
        cv_k=3,
        top_k=2,
    ))
    assert main([command, "--run", "train", "--out", str(tmp_path / "here")]) == 0
    monkeypatch.chdir(tmp_path)
    assert main([command, "--run", "w/train", "--out", "above"]) == 0
    written = sorted(p.name for p in (tmp_path / "here").iterdir())
    assert written
    assert sorted(p.name for p in (tmp_path / "above").iterdir()) == written
    for name in written:
        assert (tmp_path / "above" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()

    (work / "inputs").rename(tmp_path / "moved")
    capsys.readouterr()
    assert main([command, "--run", "w/train", "--out", "gone"]) == 2
    err = capsys.readouterr().err
    root = tmp_path.resolve()
    assert "county file not found: inputs/good.csv" in err
    for base in (root / "w/train", root / "w", root):
        assert str(base / "inputs/good.csv") in err
    assert not (tmp_path / "gone").exists()


def test_rejected_county_leaves_no_out_dir(tmp_path):
    lone = tmp_path / "lone.csv"
    lone.write_text("tract_id,fa,hazard__heat\nt0,1.0,2.0\nt1,2.0,1.0\n")
    config_path = tmp_path / "config.json"
    out = tmp_path / "od"
    config_path.write_text(json.dumps({"seed": 1, "out_dir": str(out), "counties": [str(lone)]}))
    assert main(["run", "--config", str(config_path)]) == 2
    assert not out.exists()


def test_county_file_named_with_the_pair_separator_rejected(tmp_path):
    bad = county_csv(tmp_path / "a__b.csv", seed=1)
    config_path = tmp_path / "config.json"
    out = tmp_path / "od"
    config_path.write_text(json.dumps({"seed": 1, "out_dir": str(out), "counties": [str(bad)]}))
    assert main(["run", "--config", str(config_path)]) == 2
    assert not out.exists()


def test_blank_hazard_column_is_an_absent_pair(tmp_path, capsys):
    good = county_csv(tmp_path / "good.csv", seed=1)
    header, *rows = good.read_text().splitlines()
    good.write_text("\n".join([header + ",hazard__air", *(row + "," for row in rows)]) + "\n")
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 4,
        "out_dir": str(out),
        "counties": [str(good)],
        "cv": {
            "k": 3,
            "forest_grid": {"n_trees": [5], "max_depth": [3]},
            "gbt_grid": {"n_rounds": [4], "max_depth": [2],
                         "learning_rate": [0.3], "l2_reg": [1.0]},
        },
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    assert "absent pairs: good/air" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["absent_pairs"] == [["good", "air"]]
    assert summary["failures"] == []
    assert list(summary["pairs"]) == ["good__heat"]


def test_cli_partial_failure_exit_code(tmp_path):
    good = county_csv(tmp_path / "good.csv", seed=1)
    flat = county_csv(tmp_path / "flat.csv", seed=2, constant_hazard=True)
    other = county_csv(tmp_path / "other.csv", seed=3)
    config = {
        "seed": 9,
        "out_dir": str(tmp_path / "out"),
        "counties": [str(good), str(flat), str(other)],
        "cv": {
            "k": 3,
            "forest_grid": {"n_trees": [5], "max_depth": [3]},
            "gbt_grid": {"n_rounds": [4], "max_depth": [2],
                         "learning_rate": [0.3], "l2_reg": [1.0]},
        },
        "top_k": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path)]) == 3


def test_cli_invalid_config_exit_code(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"out_dir": str(tmp_path / "o")}))
    assert main(["run", "--config", str(config_path)]) == 2
    assert main(["run"]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    not_json = tmp_path / "not_json.json"
    not_json.write_text("{seed: 1")
    assert main(["run", "--config", str(not_json)]) == 2
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["run", "--config", str(not_object), "--seed", "3"]) == 2
    assert not (tmp_path / "o").exists()


def test_cli_importance_literal_mode_partial_exit(tiny_run):
    # counties whose unweighted importance total is non-positive are skipped
    # and flagged through the partial-failure exit code
    report, out, _ = tiny_run
    from hazardlens.importance import forest_importance
    from hazardlens.pipeline import load_finished_run, load_run_models

    models = load_run_models(out, load_finished_run(out)[0], "forest")
    nonpositive = [
        key
        for key, model in models.items()
        if forest_importance(model, "paper_literal").values.sum() <= 0
    ]
    code = main([
        "importance", "--run", str(out),
        "--out", str(out / "literal"), "--mode", "paper_literal",
    ])
    assert code == (3 if nonpositive else 0)


@pytest.mark.parametrize(
    "command, recomputed, original",
    [
        ("importance", "importance_recomputed", "reports"),
        ("transfer", "transfer_recomputed", "transfer"),
    ],
)
def test_cli_recompute_reads_only_the_family_it_needs(
    tiny_run, tmp_path, command, recomputed, original
):
    # importance reads forests and transfer the canonical family (forest),
    # so a damaged boosted model must not stop either
    _, out, _ = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    (run_dir / "models" / "ash__heat__gbt.json").write_text("{not json")
    assert main([command, "--run", str(run_dir)]) == 0
    written = sorted(p.name for p in (run_dir / recomputed).iterdir())
    assert written
    for name in written:
        assert (run_dir / recomputed / name).read_bytes() == (
            out / original / name
        ).read_bytes()


def _drop_kind(path, nested):
    payload = json.loads(path.read_text("utf-8"))
    node = payload["trees"][0]
    if nested:
        node = next(t for t in payload["trees"] if t["kind"] == "split")["left"]
    del node["kind"]
    path.write_text(json.dumps(payload), "utf-8")


def _set_field(path, key, value):
    # a key "params.<name>" sets a field of the model's params
    payload = json.loads(path.read_text("utf-8"))
    *section, leaf = key.split(".")
    (payload[section[0]] if section else payload)[leaf] = value
    path.write_text(json.dumps(payload), "utf-8")


def _edit_split(path, edit):
    # edit(node) on the first split tree's (or stage's) root
    payload = json.loads(path.read_text("utf-8"))
    edit(next(t for t in payload.get("trees", payload.get("stages")) if t["kind"] == "split"))
    path.write_text(json.dumps(payload), "utf-8")


def _set_split_field(path, key, value):
    # the router would read another row's cell for an out-of-range feature
    # rather than fail
    _edit_split(path, lambda node: node.update({key: value}))


def _move_one_sample(node):
    # the sides still sum to the split's samples, but neither is its child's
    node.update(left_samples=node["left_samples"] + 1, right_samples=node["right_samples"] - 1)


def _huge_leaf(path):
    # a leaf whose counts sum to its samples, past 2**53
    def edit(node):
        while node["kind"] == "split":
            node = node["left"]
        node.update(samples=2**53 + 1, counts=[2**53, 1])

    _edit_split(path, edit)


def _set_leaf_counts(path, counts_of):
    # the leftmost leaf of the first tree gets counts_of(its samples)
    payload = json.loads(path.read_text("utf-8"))
    node = payload["trees"][0]
    while node["kind"] == "split":
        node = node["left"]
    node["counts"] = counts_of(node["samples"])
    path.write_text(json.dumps(payload), "utf-8")


@pytest.mark.parametrize(
    "damage",
    [
        lambda path: path.unlink(),
        lambda path: path.write_text(path.read_text("utf-8")[:300], "utf-8"),
        lambda path: _drop_kind(path, nested=False),
        lambda path: _drop_kind(path, nested=True),
        lambda path: _set_split_field(path, "feature", 99),
        lambda path: _set_split_field(path, "feature", -1),
        lambda path: _set_split_field(path, "threshold", "0.5"),
        lambda path: _set_split_field(path, "samples", True),
        lambda path: _set_field(path, "bootstrap", False),
        lambda path: _set_field(path, "n_trees", 99),
        lambda path: _set_leaf_counts(path, lambda n: [0.5, n - 0.5]),
        lambda path: _set_leaf_counts(path, lambda n: [str(n - 1), "1"]),
        lambda path: _set_leaf_counts(path, lambda n: [True, n - 1]),
        lambda path: _set_leaf_counts(path, lambda n: [n, 1]),
        lambda path: _set_leaf_counts(path, lambda n: [1e300, 1]),
        lambda path: _set_leaf_counts(path, lambda n: [n - 2, 1, 1]),
        lambda path: _set_split_field(path, "impurity", float("nan")),
        lambda path: _set_split_field(path, "threshold", float("inf")),
        lambda path: _set_field(path, "seed", "x"),
        lambda path: _set_field(path, "feature_names", "f0f1f2f3"),
        lambda path: _set_field(path, "feature_names", [0, 1, 2, 3, 4, 5, 6, 7]),
        lambda path: _set_split_field(path, "left_samples", 10**400),
        lambda path: _edit_split(path, lambda node: node.update(samples=node["samples"] + 1)),
        lambda path: _edit_split(path, _move_one_sample),
        _huge_leaf,
        lambda path: _set_field(path, "params.features_per_split", 2.5),
    ],
    ids=[
        "missing", "truncated", "tree_without_kind", "child_without_kind",
        "feature_out_of_range", "negative_feature", "string_threshold", "bool_samples",
        "bootstrap_false", "n_trees_not_the_tree_count",
        "float_count", "string_counts", "bool_count", "counts_past_samples", "huge_count",
        "three_counts", "nan_impurity", "infinite_threshold", "string_seed",
        "feature_names_a_string", "feature_names_not_strings",
        "huge_left_samples", "sides_not_summing_to_samples", "side_not_its_childs_samples",
        "huge_leaf", "float_features_per_split",
    ],
)
@pytest.mark.parametrize(
    "command, recomputed",
    [("transfer", "transfer_recomputed"), ("importance", "importance_recomputed")],
)
def test_cli_recompute_rejects_a_missing_or_corrupt_model(
    tiny_run, tmp_path, capsys, damage, command, recomputed
):
    _, out, _ = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    damage(run_dir / "models" / "ash__heat__forest.json")
    capsys.readouterr()
    assert main([command, "--run", str(run_dir)]) == 2
    assert "ash__heat__forest.json" in capsys.readouterr().err
    assert not (run_dir / recomputed).exists()


UNLISTED = "is no listed county__hazard"


def _add_zed(run_dir, summary):
    # a pair with model files and a listed county that the study never loads
    summary["counties"].append("zed")
    summary["pairs"]["zed__heat"] = summary["pairs"]["ash__heat"]
    for family in ("forest", "gbt"):
        shutil.copy(run_dir / "models" / f"ash__heat__{family}.json",
                    run_dir / "models" / f"zed__heat__{family}.json")


@pytest.mark.parametrize(
    "edit, pair, reason",
    [
        (lambda run_dir, s: s.update(counties=["ash"]), "oak__flood", UNLISTED),
        (lambda run_dir, s: s.update(hazards=["heat"]), "ash__flood", UNLISTED),
        (lambda run_dir, s: s["pairs"].update(ash__heat__forest={}), "ash__heat__forest", UNLISTED),
        (_add_zed, "zed__heat", "the study loads no county of pair"),
    ],
    ids=["county_unlisted", "hazard_unlisted", "three_part_pair", "county_not_loaded"],
)
@pytest.mark.parametrize(
    "command, recomputed",
    [("transfer", "transfer_recomputed"), ("importance", "importance_recomputed")],
)
def test_cli_recompute_rejects_a_pair_its_summary_or_study_lacks(
    tiny_run, tmp_path, capsys, edit, pair, reason, command, recomputed
):
    _, out, _ = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    summary = json.loads((run_dir / "summary.json").read_text("utf-8"))
    edit(run_dir, summary)
    (run_dir / "summary.json").write_text(json.dumps(summary), "utf-8")
    capsys.readouterr()
    assert main([command, "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert reason in err and repr(pair) in err and str(run_dir / "summary.json") in err
    assert not (run_dir / recomputed).exists()


@pytest.mark.parametrize("command", ["transfer", "importance"])
def test_cli_recompute_of_a_directory_without_summary_exits_2(tmp_path, capsys, command):
    run_dir = tmp_path / "run"
    (run_dir / "models").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([command, "--run", str(run_dir)]) == 2
    assert f"{run_dir} is not a finished run: no summary.json" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.fixture(scope="module")
def gbt_only_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gbt_only") / "run"
    run(two_county_config(out, families=["gbt"]))
    return out


@pytest.mark.parametrize(
    "key, value",
    [
        ("base_score", "abc"), ("base_score", None), ("base_score", True),
        ("base_score", "0.5"), ("base_score", [1]), ("base_score", float("nan")),
        ("train_loss", "x"), ("train_loss", [0.5, float("inf")]),
        pytest.param("params.learning_rate", True, id="bool_learning_rate"),
        pytest.param("params.max_depth", 2.5, id="float_max_depth"),
    ],
)
def test_cli_transfer_rejects_a_corrupt_gbt_model(gbt_only_run, tmp_path, capsys, key, value):
    # transfer on a gbt-only run reads the boosted models
    run_dir = tmp_path / "run"
    shutil.copytree(gbt_only_run, run_dir)
    _set_field(run_dir / "models" / "ash__heat__gbt.json", key, value)
    capsys.readouterr()
    assert main(["transfer", "--run", str(run_dir)]) == 2
    assert "ash__heat__gbt.json" in capsys.readouterr().err
    assert not (run_dir / "transfer_recomputed").exists()


@pytest.mark.parametrize(
    "damage",
    [
        lambda node: node.update(samples=node["samples"] + 1),
        lambda node: node.update(samples=10**400),
        lambda node: node["left"].update(samples=node["left"]["samples"] + 1),
    ],
    ids=["samples_past_the_childrens", "huge_samples", "child_past_its_share"],
)
def test_cli_transfer_rejects_a_boosted_split_whose_samples_disagree(
    gbt_only_run, tmp_path, capsys, damage
):
    run_dir = tmp_path / "run"
    shutil.copytree(gbt_only_run, run_dir)
    _edit_split(run_dir / "models" / "ash__heat__gbt.json", damage)
    capsys.readouterr()
    assert main(["transfer", "--run", str(run_dir)]) == 2
    assert "ash__heat__gbt.json" in capsys.readouterr().err
    assert not (run_dir / "transfer_recomputed").exists()


@pytest.mark.parametrize("command", ["transfer", "importance"])
def test_cli_recompute_parses_each_model_once_and_holds_one(
    tiny_run, tmp_path, monkeypatch, command
):
    # the recompute commands take the run's forests one at a time: each file
    # is parsed once, and no parsed forest is alive when the next is parsed
    _, out, _ = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    parse = pipeline.forest_from_json
    texts, alive, peak = [], weakref.WeakValueDictionary(), []  # a model is unhashable

    def counted(text):
        texts.append(text)
        alive[len(texts)] = model = parse(text)
        peak.append(len(alive))
        return model

    monkeypatch.setattr(pipeline, "forest_from_json", counted)
    assert main([command, "--run", str(run_dir)]) == 0
    files = sorted((run_dir / "models").glob("*__forest.json"))
    assert len(files) == 5
    assert sorted(texts) == sorted(path.read_text("utf-8") for path in files)
    assert peak == [1] * len(files)


def test_cli_transfer_reads_a_model_no_axis_uses(tmp_path, capsys):
    # yew/flood shares neither its county nor its hazard with another pair, so
    # no matrix needs its model; a corrupt file still fails the command
    paths = [county_csv(tmp_path / f"{name}.csv", seed) for seed, name in enumerate(["ash", "oak"])]
    flood = county_csv(tmp_path / "yew.csv", seed=7)
    flood.write_text(flood.read_text().replace("hazard__heat", "hazard__flood"))
    run_dir = tmp_path / "out"
    config = RunConfig(
        seed=4, out_dir=str(run_dir), county_files=[*map(str, paths), str(flood)],
        forest_grid={"n_trees": [3], "max_depth": [3]},
        gbt_grid={"n_rounds": [2], "max_depth": [2], "learning_rate": [0.3], "l2_reg": [1.0]},
        cv_k=3,
    )
    report = run(config)
    assert not report.failures
    assert sorted(report.results) == [("ash", "heat"), ("oak", "heat"), ("yew", "flood")]
    assert sorted(p.name for p in (run_dir / "transfer").glob("*.csv")) == ["cross_county_heat.csv"]
    assert main(["transfer", "--run", str(run_dir)]) == 0
    shutil.rmtree(run_dir / "transfer_recomputed")
    path = run_dir / "models" / "yew__flood__forest.json"
    path.write_text(path.read_text("utf-8")[:200], "utf-8")
    capsys.readouterr()
    assert main(["transfer", "--run", str(run_dir)]) == 2
    assert "yew__flood__forest.json" in capsys.readouterr().err
    assert not (run_dir / "transfer_recomputed").exists()


@pytest.mark.parametrize(
    "command, recomputed",
    [("transfer", "transfer_recomputed"), ("importance", "importance_recomputed")],
)
def test_cli_recompute_over_models_of_different_schemas_exits_2(
    tiny_run, tmp_path, capsys, command, recomputed
):
    _, out, _ = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    path = run_dir / "models" / "oak__heat__forest.json"
    payload = json.loads(path.read_text("utf-8"))
    payload["feature_names"][0] = "g00"
    _set_field(path, "feature_names", payload["feature_names"])
    capsys.readouterr()
    assert main([command, "--run", str(run_dir)]) == 2
    assert "SchemaMismatch" in capsys.readouterr().err
    assert not (run_dir / recomputed).exists()


_RECOMPUTE_CONFIGS = st.fixed_dictionaries({
    "seed": st.integers(0, 2**16),
    "families": st.sampled_from([["forest"], ["gbt"], ["forest", "gbt"], ["gbt", "forest"]]),
    "transfer_eval_on": st.sampled_from(["test", "full"]),
    "transfer_baseline": st.sampled_from(["target_native", "source_native", "both"]),
    "importance_mode": st.sampled_from(["weighted", "paper_literal"]),
    "top_k": st.integers(1, 6),
    "forest_grid": st.fixed_dictionaries({
        "n_trees": st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True),
        "max_depth": st.lists(st.none() | st.integers(1, 4), min_size=1, max_size=2, unique=True),
    }),
})


def _random_tiny_config(out, overrides, workers=1):
    return replace(
        tiny_config(out, workers=workers), **overrides, cv_k=2,
        gbt_grid={"n_rounds": [2], "max_depth": [2], "learning_rate": [0.3], "l2_reg": [1.0]},
    )


@settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(overrides=_RECOMPUTE_CONFIGS)
def test_recompute_reproduces_the_run_bytes(tmp_path_factory, overrides):
    out = tmp_path_factory.mktemp("recompute") / "run"
    run(_random_tiny_config(out, overrides))
    assert main(["transfer", "--run", str(out)]) == 0
    assert main(["importance", "--run", str(out)]) in (0, 3)
    for recomputed, original in (
        ("transfer_recomputed", "transfer"), ("importance_recomputed", "reports")
    ):
        for path in sorted((out / recomputed).iterdir()):
            assert path.read_bytes() == (out / original / path.name).read_bytes()
    assert sorted(p.name for p in (out / "transfer_recomputed").iterdir()) == sorted(
        p.name for p in (out / "transfer").iterdir()
    )
    assert sorted(p.name for p in (out / "importance_recomputed").iterdir()) == sorted(
        p.name for p in (out / "reports").glob("*importance_*.csv")
    )


@settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(overrides=_RECOMPUTE_CONFIGS)
def test_pool_and_inline_runs_write_the_same_bytes(tmp_path_factory, overrides):
    # pool workers serialize their own models; the manifest hashes every file
    base = tmp_path_factory.mktemp("workers")
    manifests = []
    for workers in (1, 2):
        run(_random_tiny_config(base / f"w{workers}", overrides, workers=workers))
        manifests.append((base / f"w{workers}" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize(
    "args",
    [["transfer"], ["importance"], ["importance", "--mode", "paper_literal"]],
    ids=["transfer", "importance", "importance_literal"],
)
def test_cli_recompute_reads_the_run_once(tiny_run, tmp_path, monkeypatch, args):
    _, out, _ = tiny_run
    summary_reads, configs_built = [], []
    read_text = Path.read_text
    from_dict = RunConfig.from_dict.__func__

    def counting_read_text(path, *a, **k):
        if path.name == "summary.json":
            summary_reads.append(path)
        return read_text(path, *a, **k)

    def counting_from_dict(cls, raw):
        configs_built.append(raw)
        return from_dict(cls, raw)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    monkeypatch.setattr(RunConfig, "from_dict", classmethod(counting_from_dict))
    code = main([args[0], "--run", str(out), "--out", str(tmp_path / "out"), *args[1:]])
    assert code in (0, 3)
    assert len(summary_reads) == 1
    assert len(configs_built) == 1


def test_cli_preset_assembles_config(tmp_path, monkeypatch):
    captured = {}

    def fake_run(config):
        captured["config"] = config
        from hazardlens.pipeline import RunReport

        return RunReport(
            out_dir=config.out_dir, counties=(), hazards=(), absent=[],
            failures=[], results={}, f1_tables={}, fbeta_tables={},
            comparison={}, dispersion={}, manifest={},
        )

    monkeypatch.setattr("hazardlens.cli.run", fake_run)
    code = main([
        "run", "--preset", "synth6x3", "--seed", "3",
        "--out", str(tmp_path / "p"), "--workers", "2", "--beta", "1.0",
    ])
    assert code == 0
    config = captured["config"]
    assert config.seed == 3
    assert config.workers == 2
    assert config.beta == 1.0
    assert config.synth == {"preset": "synth6x3"}
    assert main(["run", "--preset", "synth6x3", "--seed", "1"]) == 2  # no --out


def test_cli_synth_emits_loadable_csvs(tmp_path):
    out = tmp_path / "scenario"
    assert main(["synth", "--seed", "3", "--out", str(out)]) == 0
    from hazardlens.dataset import load_county_csv

    files = sorted(out.glob("*.csv"))
    assert len(files) == 6
    ds = load_county_csv(files[0])
    assert ds.schema.feature_count == 35
    oracle = json.loads((out / "oracle.json").read_text())
    assert set(oracle) == {"alder", "birch", "cedar", "dogwood", "elm", "fir"}
    assert not (set(json.loads((out / "oracle.json").read_text())["elm"][
        "per_hazard_informative"
    ]) & {"air"})


def test_cli_synth_writes_the_run_scenario(tmp_path):
    from hazardlens.pipeline import _prepare_datasets

    assert main(["synth", "--seed", "3", "--out", str(tmp_path / "A")]) == 0
    _prepare_datasets(synth6x3_config(3, str(tmp_path / "B")), tmp_path / "B")
    names = sorted(p.name for p in (tmp_path / "A").iterdir())
    assert len(names) == 8  # six counties, oracle.json, feature_groups.json
    assert sorted(p.name for p in (tmp_path / "B" / "data").iterdir()) == names
    for name in names:
        assert (tmp_path / "A" / name).read_bytes() == (
            tmp_path / "B" / "data" / name
        ).read_bytes()


def test_job_seed_independent_of_other_pairs(tiny_run):
    report, out, config = tiny_run
    from hazardlens.dataset import load_county_csv

    ds = load_county_csv(out / "data" / "ash.csv")
    job_seed = child_seed(config.seed, "job", "ash", "heat")
    full = report.results[("ash", "heat")]
    for family in ("forest", "gbt"):
        solo = execute_job(ds, "heat", config, family, job_seed).outcomes[family]
        assert solo.model_json == (out / f"models/ash__heat__{family}.json").read_text()
        assert solo.fbeta == full.outcomes[family].fbeta


def two_county_config(out_dir, **overrides):
    settings = dict(
        seed=6,
        out_dir=str(out_dir),
        synth={
            "counties": [
                {"name": "ash", "n_tracts": 60, "hazards": ["heat"]},
                {"name": "oak", "n_tracts": 70, "hazards": ["heat"]},
            ],
            "n_features": 6,
            "informative_count": 2,
            "noise": 0.2,
        },
        forest_grid={"n_trees": [2, 4], "max_depth": [3]},
        gbt_grid={"n_rounds": [1, 3], "max_depth": [2], "learning_rate": [0.3],
                  "l2_reg": [1.0]},
        cv_k=3,
        top_k=2,
    )
    settings.update(overrides)
    return RunConfig(**settings)


def test_gbt_only_run_writes_transfer(tmp_path):
    report = run(two_county_config(tmp_path / "g", families=["gbt"]))
    assert not report.failures
    out = tmp_path / "g"
    assert (out / "models/ash__heat__gbt.json").is_file()
    assert not (out / "models/ash__heat__forest.json").exists()
    assert (out / "transfer/cross_county_heat.csv").is_file()
    assert (out / "transfer/cross_county_heat.svg").is_file()
    assert "transfer/cross_county_heat.csv" in report.manifest


def test_cli_transfer_recomputes_gbt_only_run(tmp_path):
    out = tmp_path / "g"
    run(two_county_config(out, families=["gbt"]))
    assert main(["transfer", "--run", str(out)]) == 0
    assert main(["importance", "--run", str(out)]) == 0  # no forest to read
    written = sorted(p.name for p in (out / "transfer").iterdir())
    assert written
    assert sorted(p.name for p in (out / "transfer_recomputed").iterdir()) == written
    for name in written:
        assert (out / "transfer_recomputed" / name).read_bytes() == (
            out / "transfer" / name
        ).read_bytes()


def test_cli_transfer_reads_the_csv_study_not_an_earlier_synth_runs_data(tmp_path):
    # a data/ left in the directory of a CSV study (here the synth study's
    # own, put back after the rerun removed it); recompute must read the CSV
    # study's own county files
    from hazardlens.pipeline import scenario_specs, write_scenario

    out = tmp_path / "od"
    synth_study = two_county_config(out)
    run(synth_study)
    shutil.copytree(out / "data", tmp_path / "synth_data")
    inputs = tmp_path / "inputs"
    write_scenario(*scenario_specs(synth_study.synth, seed=99), inputs)
    run(replace(synth_study, synth=None,
                county_files=[str(inputs / "ash.csv"), str(inputs / "oak.csv")]))
    assert not (out / "data" / "ash.csv").exists()
    shutil.copytree(tmp_path / "synth_data", out / "data", dirs_exist_ok=True)
    assert (out / "data" / "ash.csv").is_file()
    assert main(["transfer", "--run", str(out)]) == 0
    written = sorted(p.name for p in (out / "transfer").iterdir())
    assert "cross_county_heat.csv" in written
    assert sorted(p.name for p in (out / "transfer_recomputed").iterdir()) == written
    for name in written:
        assert (out / "transfer_recomputed" / name).read_bytes() == (
            out / "transfer" / name
        ).read_bytes()


def test_cli_transfer_prints_one_line_per_file_it_wrote(tiny_run, tmp_path, capsys):
    _, out, _ = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    capsys.readouterr()
    assert main(["transfer", "--run", str(run_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = sorted(p.name for p in (run_dir / "transfer_recomputed").iterdir())
    assert names and lines == [f"wrote {name}" for name in names]


@pytest.mark.parametrize(
    "command, recomputed",
    [("transfer", "transfer_recomputed"), ("importance", "importance_recomputed")],
)
def test_cli_recompute_of_a_synth_run_missing_a_generated_csv_fails_cleanly(
    tiny_run, tmp_path, capsys, command, recomputed
):
    _, out, _ = tiny_run
    run_dir = tmp_path / "run"
    shutil.copytree(out, run_dir)
    (run_dir / "data" / "oak.csv").unlink()
    capsys.readouterr()
    assert main([command, "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert f"generated county file not found: {run_dir / 'data' / 'oak.csv'}" in err
    assert not (run_dir / recomputed).exists()


@pytest.mark.parametrize(
    "grids",
    [
        {"forest_grid": {"n_tree": [2], "max_depth": [3]}},  # misspelt size key
        {"forest_grid": {"n_trees": [2], "min_samples_leaf": [0]}},
        {"gbt_grid": {"n_rounds": [], "max_depth": [2]}},
        {"gbt_grid": {"n_rounds": [0]}},
    ],
)
def test_bad_grid_rejected_before_anything_is_written(tmp_path, grids):
    out = tmp_path / "out"
    with pytest.raises(InvalidConfig):
        two_county_config(out, **grids)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 1, "out_dir": str(out), "synth": {"preset": "synth6x3"}, "cv": grids,
    }))
    assert main(["run", "--config", str(config_path)]) == 2
    assert not out.exists()


def one_pair_config(out_dir, workers, families=("forest", "gbt")):
    return two_county_config(
        out_dir,
        workers=workers,
        families=list(families),
        synth={
            "counties": [{"name": "ash", "n_tracts": 80, "hazards": ["heat"]}],
            "n_features": 6,
            "informative_count": 2,
            "noise": 0.2,
        },
    )


def test_one_pair_pool_matches_inline(tmp_path):
    # one pair, two families: workers=2 runs the families in the pool
    inline = run(one_pair_config(tmp_path / "w1", workers=1))
    pooled = run(one_pair_config(tmp_path / "w2", workers=2))
    assert not inline.failures and len(inline.results) == 1
    assert (tmp_path / "w1/manifest.json").read_bytes() == (
        tmp_path / "w2/manifest.json"
    ).read_bytes()


def test_pool_starts_no_more_processes_than_units(tmp_path, monkeypatch):
    # a fork pool starts all max_workers processes at once, so the pool is
    # sized to the run's two units, not to workers=8
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # the pool branch imports the pool class when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    report = run(one_pair_config(tmp_path / "out", workers=8))
    assert sizes == [2]
    assert not report.failures and len(report.results) == 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("families", [("forest", "gbt"), ("gbt", "forest")])
def test_pair_fails_with_first_family_error(tmp_path, monkeypatch, workers, families):
    from hazardlens import selection
    from hazardlens.errors import NoPositives, TooFewSamples

    raised = {"forest": TooFewSamples, "gbt": NoPositives}

    def failing(family):
        def fit(data, point, seed, deeper=None):
            raise raised[family](f"{family} failed")
        return fit

    for family, (_, predict, grid) in list(selection.FAMILIES.items()):
        monkeypatch.setitem(selection.FAMILIES, family, (failing(family), predict, grid))
    out = tmp_path / "out"
    report = run(one_pair_config(out, workers=workers, families=families))
    expected = raised[families[0]].__name__
    assert [f["error"] for f in report.failures] == [expected]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failures"] == [
        {"county": "ash", "hazard": "heat", "error": expected,
         "message": f"{families[0]} failed"}
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("families", [("forest", "gbt"), ("gbt", "forest")])
def test_pair_failing_in_its_second_family_writes_no_model(
    tmp_path, monkeypatch, workers, families
):
    # the first family's unit has serialized its model before the pair fails
    from hazardlens import selection
    from hazardlens.errors import TooFewSamples

    def fit(data, point, seed, deeper=None):
        raise TooFewSamples(f"{families[1]} failed")

    _, predict, grid = selection.FAMILIES[families[1]]
    monkeypatch.setitem(selection.FAMILIES, families[1], (fit, predict, grid))
    out = tmp_path / "out"
    report = run(one_pair_config(out, workers=workers, families=families))
    assert report.failures == [
        {"county": "ash", "hazard": "heat", "error": "TooFewSamples",
         "message": f"{families[1]} failed"}
    ]
    assert not report.results
    assert list((out / "models").iterdir()) == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert not [rel for rel in manifest if rel.startswith("models/")]


@pytest.mark.parametrize("workers", [1, 2])
def test_unexpected_unit_error_names_the_unit(tmp_path, monkeypatch, workers):
    # a bug, not a pair failure: `hazardlens run` raises (exit 1) rather than
    # returning 2 or 3, and the message says which unit failed and how
    from hazardlens import selection

    def fit(data, point, seed, deeper=None):
        raise ZeroDivisionError("boom")

    _, predict, grid = selection.FAMILIES["gbt"]
    monkeypatch.setitem(selection.FAMILIES, "gbt", (fit, predict, grid))
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(one_pair_config(tmp_path / "out", workers=workers).to_dict())
    )
    with pytest.raises(
        RuntimeError, match="^unit ash/heat/gbt failed: ZeroDivisionError: boom$"
    ):
        main(["run", "--config", str(config_path)])
    # and it leaves nothing behind: no output directory, no stage
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_a_killed_pool_worker_leaves_nothing_behind(tmp_path, monkeypatch):
    from hazardlens import selection

    def fit(data, point, seed, deeper=None):
        os._exit(1)

    _, predict, grid = selection.FAMILIES["gbt"]
    monkeypatch.setitem(selection.FAMILIES, "gbt", (fit, predict, grid))
    with pytest.raises(BrokenProcessPool):
        run(one_pair_config(tmp_path / "new" / "out", workers=2))
    assert list(tmp_path.iterdir()) == []  # not even the parent "new"


@pytest.mark.parametrize(
    "command", [["run", "--preset", "synth6x3", "--seed", "1"], ["synth", "--seed", "3"]]
)
def test_cli_out_that_is_a_file_exits_2_and_leaves_it_alone(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("mine\n")
    assert main([*command, "--out", str(taken)]) == 2
    assert f"output directory {taken} is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "mine\n"
    assert list(tmp_path.iterdir()) == [taken]


def _two_hazard_config(out_dir, **overrides):
    county = {"n_tracts": 60, "hazards": ["heat", "flood"]}
    synth = {**two_county_config(out_dir).synth,
             "counties": [{"name": "ash", **county}, {"name": "oak", **county}]}
    return two_county_config(out_dir, synth=synth, **overrides)


def test_rerun_removes_only_the_files_the_previous_manifest_listed(tmp_path):
    out = tmp_path / "out"
    first = run(_two_hazard_config(out))
    assert any("flood" in rel for rel in first.manifest)
    (out / "notes.txt").write_text("mine\n")
    second = run(_two_hazard_config(out, hazards=["heat"]))
    on_disk = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert not [rel for rel in on_disk if "flood" in rel]
    assert on_disk == sorted([*second.manifest, "manifest.json", "notes.txt"])
    assert (out / "notes.txt").read_text() == "mine\n"


def test_rerun_keeps_the_files_it_read(tmp_path):
    # a CSV study of the county files an earlier synth run generated into
    # the same directory: they are listed as stale, and they are its inputs
    out = tmp_path / "out"
    synth_study = two_county_config(out)
    run(synth_study)
    run(replace(synth_study, synth=None,
                county_files=[str(out / "data" / "ash.csv"), str(out / "data" / "oak.csv")]))
    assert (out / "data" / "ash.csv").is_file() and (out / "data" / "oak.csv").is_file()
    assert main(["transfer", "--run", str(out)]) == 0


@pytest.mark.parametrize("manifest", ["{not json", '["victim.txt"]', None])
def test_rerun_deletes_nothing_outside_out_dir_or_unlisted(tmp_path, manifest):
    out = tmp_path / "out"
    run(one_pair_config(out, workers=1))
    victim = tmp_path / "victim.txt"
    victim.write_text("mine\n")
    (out / "victim.txt").write_text("mine\n")
    if manifest is None:  # paths that leave out_dir
        listed = json.loads((out / "manifest.json").read_text())
        manifest = json.dumps({**listed, "../victim.txt": "0", str(victim): "0"})
    (out / "manifest.json").write_text(manifest)
    run(one_pair_config(out, workers=1))
    assert victim.read_text() == (out / "victim.txt").read_text() == "mine\n"


def test_run_on_a_column_near_the_float_limit(tmp_path):
    # the midpoint of 1e308 and 1.5e308 overflowed to inf, which sent every
    # row left: the empty right child raised ZeroDivisionError (exit 1)
    from hazardlens.cart import iter_splits
    from hazardlens.forest import forest_from_json

    path = county_csv(tmp_path / "big.csv", seed=1)
    header, *rows = path.read_text().splitlines()
    heat = [float(row.rsplit(",", 1)[1]) for row in rows]
    mean = sum(heat) / len(heat)
    path.write_text("\n".join(
        [f"{header},huge"]
        + [f"{row},{1.5e308 if h > mean else 1e308!r}" for row, h in zip(rows, heat)]
    ) + "\n")
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 2, "out_dir": str(out), "counties": [str(path)],
        "cv": {"k": 3, "forest_grid": {"n_trees": [5], "max_depth": [3]},
               "gbt_grid": {"n_rounds": [2], "max_depth": [2], "learning_rate": [0.3],
                            "l2_reg": [1.0]}},
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    model = forest_from_json((out / "models/big__heat__forest.json").read_text())
    huge = model.feature_names.index("huge")
    thresholds = [s.threshold for t in model.trees for s in iter_splits(t) if s.feature == huge]
    assert thresholds and all(1e308 <= t < 1.5e308 for t in thresholds)


def _small_csv_run_config(**settings) -> str:
    return json.dumps({
        "seed": 4,
        "cv": {"k": 2, "forest_grid": {"n_trees": [3], "max_depth": [3]},
               "gbt_grid": {"n_rounds": [2], "max_depth": [2], "learning_rate": [0.3],
                            "l2_reg": [1.0]}},
        **settings,
    })


@pytest.mark.parametrize("bom_file", ["ash.csv", "groups.json", "config.json"])
def test_inputs_saved_with_a_byte_order_mark_read_as_without(tmp_path, monkeypatch, bom_file):
    # spreadsheet programs and some editors start a file with one; it named
    # the first column '\ufefftract_id' and made the JSON files unreadable
    monkeypatch.chdir(tmp_path)
    county_csv(Path("ash.csv"), seed=1)
    county_csv(Path("oak.csv"), seed=3)
    Path("groups.json").write_text(json.dumps({"fa": "g", "fb": "g", "fc": "h"}), "utf-8")
    Path("config.json").write_text(_small_csv_run_config(
        counties=["ash.csv", "oak.csv"], feature_groups="groups.json"
    ), "utf-8")
    assert main(["run", "--config", "config.json", "--out", "plain"]) == 0
    Path(bom_file).write_text("\ufeff" + Path(bom_file).read_text("utf-8"), "utf-8")
    assert main(["run", "--config", "config.json", "--out", "bom"]) == 0
    assert Path("bom/manifest.json").read_bytes() == Path("plain/manifest.json").read_bytes()


def test_a_forest_without_splits_is_noted_and_skipped_by_recompute(tmp_path, capsys):
    good = county_csv(tmp_path / "good.csv", seed=1)
    header, *rows = good.read_text().splitlines()
    flat = tmp_path / "flat.csv"  # constant features: no tree can split
    flat.write_text("\n".join(
        [header] + [f"{row.split(',')[0]},1.0,2.0,3.0,{row.rsplit(',', 1)[1]}" for row in rows]
    ) + "\n")
    out = tmp_path / "out"
    (tmp_path / "config.json").write_text(
        _small_csv_run_config(out_dir=str(out), counties=[str(good), str(flat)])
    )
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
    note = "total importance is not positive; the model made no useful splits"
    pairs = json.loads((out / "summary.json").read_text())["pairs"]
    assert [pairs[p]["importance_note"] for p in ("flat__heat", "good__heat")] == [note, None]
    capsys.readouterr()
    assert main(["importance", "--run", str(out)]) == 3
    assert capsys.readouterr().err == f"skipping flat/heat: {note}\n"
    for name in ("importance_heat.csv", "overall_importance_heat.csv"):
        recomputed = (out / "importance_recomputed" / name).read_bytes()
        assert recomputed == (out / "reports" / name).read_bytes()


@pytest.mark.parametrize("eval_on", ["test", "full"])
def test_a_pool_run_loads_no_numpy_random_in_the_parent(tmp_path, eval_on):
    # units label and split their pairs; numpy.random in the parent, which
    # sets the pool's peak RSS, costs about 6 MiB at its first use
    paths = [str(county_csv(tmp_path / f"{c}.csv", seed=s)) for c, s in (("ash", 1), ("oak", 3))]
    config = _small_csv_run_config(
        out_dir=str(tmp_path / "out"), workers=2, counties=paths, transfer={"eval_on": eval_on}
    )
    probe = "import sys; {}; print('numpy.random' in sys.modules)"
    run_it = "import json; from hazardlens.pipeline import RunConfig, run; " \
        "run(RunConfig.from_dict(json.loads(sys.argv[1])))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    loaded = [
        subprocess.run(
            [sys.executable, "-c", probe.format(code), config],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for code in ("import numpy", run_it)
    ]
    assert loaded[1] in (loaded[0], "False\n")  # loaded only if numpy loads it itself
    assert (tmp_path / "out" / "manifest.json").is_file()


def _modules_loaded_by(code: str, *argv: str) -> set[str]:
    """Which of OpenSSL's hashlib binding, the process-pool module and
    numpy.random a fresh interpreter has loaded after running `code` with
    sys.argv[1:] = argv."""
    probe = (
        f"import sys; {code}; print('loaded:', *(m for m in "
        "('_hashlib', 'concurrent.futures.process', 'numpy.random') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return set(out.splitlines()[-1].split()[1:])


def test_importing_the_library_loads_neither_openssl_nor_the_pool_module():
    # libcrypto adds about 3.6 MiB and the pool module about 2 MiB to the
    # peak RSS of every process, while only training and pool runs use them
    assert _modules_loaded_by("import hazardlens, hazardlens.cli") == set()


@pytest.mark.parametrize(
    "command, eval_on", [("importance", "test"), ("transfer", "full"), ("transfer", "test")]
)
def test_recompute_loads_neither_openssl_nor_the_pool_module(tmp_path, command, eval_on):
    # a recompute trains nothing; only a transfer under eval_on="test"
    # re-derives the pairs' splits, with numpy.random, which imports hashlib
    paths = [str(county_csv(tmp_path / f"{c}.csv", seed=s)) for c, s in (("ash", 1), ("oak", 3))]
    run(RunConfig.from_dict(json.loads(_small_csv_run_config(
        out_dir=str(tmp_path / "out"), counties=paths, transfer={"eval_on": eval_on}
    ))))
    recompute = "from hazardlens.cli import main; assert main(sys.argv[1:]) == 0"
    loaded = _modules_loaded_by(recompute, command, "--run", str(tmp_path / "out"))
    splits = command == "transfer" and eval_on == "test"
    assert loaded == (_modules_loaded_by("import numpy.random") if splits else set())
    assert any((tmp_path / "out" / f"{command}_recomputed").iterdir())


def test_a_run_at_one_worker_never_loads_the_pool_module(tmp_path):
    paths = [str(county_csv(tmp_path / f"{c}.csv", seed=s)) for c, s in (("ash", 1), ("oak", 3))]
    config = _small_csv_run_config(out_dir=str(tmp_path / "out"), workers=1, counties=paths)
    run_it = "import json; from hazardlens.pipeline import RunConfig, run; " \
        "run(RunConfig.from_dict(json.loads(sys.argv[1])))"
    assert "concurrent.futures.process" not in _modules_loaded_by(run_it, config)
    assert (tmp_path / "out" / "manifest.json").is_file()



@pytest.mark.parametrize("workers", [1, 2])
def test_a_finished_run_holds_no_trees(tmp_path, workers):
    # units return their models routed by a TreeTable, for transfer's family
    # only, and the parent writes each model's text and drops it
    paths = [str(county_csv(tmp_path / f"{c}.csv", seed=s)) for c, s in (("ash", 1), ("oak", 3))]
    config = _small_csv_run_config(out_dir=str(tmp_path / "out"), workers=workers, counties=paths)
    probe = (
        "import gc, json, sys; from hazardlens.cart import Leaf, RegLeaf, RegSplit, Split; "
        "from hazardlens.pipeline import RunConfig, run; "
        "report = run(RunConfig.from_dict(json.loads(sys.argv[1]))); gc.collect(); "
        "nodes = (Leaf, Split, RegLeaf, RegSplit); "
        "outcomes = [(f, o) for r in report.results.values() for f, o in r.outcomes.items()]; "
        "print(sum(isinstance(o, nodes) for o in gc.get_objects()), len(outcomes), "
        "sorted({(f, type(o.model).__name__, type(getattr(o.model, 'trees', None)).__name__, "
        "o.model_json) for f, o in outcomes}))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe, config],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out == (
        "0 4 [('forest', 'ForestModel', 'TreeTable', None), ('gbt', 'NoneType', 'NoneType', None)]\n"
    )
    assert len(list((tmp_path / "out" / "models").iterdir())) == 4


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_the_pool_writes_the_one_worker_bytes_under_other_start_methods(tmp_path, method):
    # forkserver is the Linux default from Python 3.14 on; a unit's result,
    # arrays included, crosses the pool by pickle under every start method
    paths = [str(county_csv(tmp_path / f"{c}.csv", seed=s)) for c, s in (("ash", 1), ("oak", 3))]
    run(RunConfig.from_dict(json.loads(_small_csv_run_config(
        out_dir=str(tmp_path / "w1"), workers=1, counties=paths
    ))))
    config = _small_csv_run_config(out_dir=str(tmp_path / "w2"), workers=2, counties=paths)
    code = (
        "import json, multiprocessing, sys; from hazardlens.pipeline import RunConfig, run; "
        f"multiprocessing.set_start_method({method!r}); "
        "run(RunConfig.from_dict(json.loads(sys.argv[1])))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code, config], env=env, timeout=120, check=True)
    assert (tmp_path / "w2/manifest.json").read_bytes() == (tmp_path / "w1/manifest.json").read_bytes()


def write_undefined_transfer_study(base):
    """Two county CSVs in which county b's forest calls county a's one test
    tract low, as a's labels have it, at seeds 2, 4, 7 and 14: a's four
    high tracts all go to training (round(0.9 * 4) = 4)."""
    for name, rows in (
        ("a", [(1, 10 if i < 4 else 0) if i < 6 else (0, 0) for i in range(10)]),
        ("b", [(0, 10) if i < 10 else (1, 0) for i in range(20)]),
    ):
        lines = ["tract_id,x1,x2,hazard__heat"]
        lines += [f"t{i:02d},{x1},{7 * i % 5},{heat}" for i, (x1, heat) in enumerate(rows)]
        (base / f"{name}.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", [2, 4, 7, 14])
def test_an_undefined_transfer_cell_is_absent_not_a_failed_run(tmp_path, seed):
    # no positive truth and no positive prediction: the b->a F-score is
    # undefined, which used to end `run` with exit 2 and nothing written
    write_undefined_transfer_study(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({
        "seed": seed, "out_dir": str(tmp_path / "out"),
        "counties": [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")],
        "families": ["forest"], "split": {"train_fraction": 0.9},
        "cv": {"k": 2, "forest_grid": {"n_trees": [5]}},
    }))
    assert main(["run", "--config", str(tmp_path / "config.json")]) == 0
    assert main(["transfer", "--run", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out/transfer/cross_county_heat.csv").read_text()
    assert "b,a,,absent\n" in written
    assert (tmp_path / "out/transfer_recomputed/cross_county_heat.csv").read_text() == written
    summary = json.loads((tmp_path / "out/summary.json").read_text())
    assert "b->a" not in summary["transfer"][0]["delta"]

def write_pinned_csv_study(base):
    """Two county CSVs of more than one loader block each (150 and 140 rows,
    4 features, 2 hazards with some blank cells) and a feature groups file,
    at paths relative to base."""
    gen = np.random.default_rng(20240808)
    (base / "inputs").mkdir()
    for county, n in (("ash", 150), ("oak", 140)):
        x = gen.normal(size=(n, 4))
        heat = x[:, 0] + 0.5 * x[:, 1] + 0.3 * gen.normal(size=n)
        flood = x[:, 2] - x[:, 3] + 0.3 * gen.normal(size=n)
        lines = ["tract_id,fa,fb,fc,fd,hazard__heat,hazard__flood"]
        for i in range(n):
            hazards = ["" if gen.random() < 0.05 else repr(float(v)) for v in (heat[i], flood[i])]
            lines.append(",".join([f"{county}-{i:03d}", *map(repr, x[i].tolist()), *hazards]))
        (base / "inputs" / f"{county}.csv").write_text("\n".join(lines) + "\n")
    (base / "inputs" / "groups.json").write_text(
        json.dumps({"fa": "climate", "fb": "climate", "fc": "built", "fd": "built"})
    )


# sha256 of the pinned CSV study's manifest.json and of every file its
# recompute commands write (numpy 2.4.6); a declared byte change re-records them
PINNED_CSV_STUDY_SHA256 = {
    "manifest.json":
        "927d92bf543dfb98fd0f5e5fed7671c0fc715b88deb3c8907d2b328e3cfe03f7",
    "transfer_recomputed/cross_county_flood.csv":
        "bd8571eaa3dcf2bc5349c8c8709058a32832698835025dc15e783ac848fd0e22",
    "transfer_recomputed/cross_county_flood.svg":
        "18e28fe7bf6611a293db74f489e9f7e10b600de8e1a35fc2c1aa94b916ac5eb1",
    "transfer_recomputed/cross_county_heat.csv":
        "667e46b76f2f497467e0928088b7a005a2c3ab36a502744d14a6440a38b6744c",
    "transfer_recomputed/cross_county_heat.svg":
        "ff4ed585c2736e7b5d127c0c20ad699787e82daa0682784bf8baf34a90e68af6",
    "transfer_recomputed/cross_hazard_ash.csv":
        "4dab5bd2ccc528c7e1158cf3f543b7b5c6925ac43d266d6607ea9fe43cfd453e",
    "transfer_recomputed/cross_hazard_ash.svg":
        "e30773cf2e841d094d2c365af7721af26fc96c774a5c3d1f6d3db69b9a7fa402",
    "transfer_recomputed/cross_hazard_oak.csv":
        "75a615093c638cc5aaf5377ecfa07e6ca42fbc22f349acae18f4164ccb7b1e09",
    "transfer_recomputed/cross_hazard_oak.svg":
        "2f36c139472f7de63b1f0c33768d55edd22dda59048c3c6e0de3cbaf0d5cc7df",
    "importance_recomputed/feature_group_rollup.csv":
        "70c3dc2f27531ed3a612a8b3e95dabf30ac965889d5b58d6a3cfea77a112715a",
    "importance_recomputed/importance_flood.csv":
        "478dd7fa8c602a31c2756fd664f256b2b6ba4233a4956f457e4b35b824c9fb53",
    "importance_recomputed/importance_heat.csv":
        "1003783ea3bcaf497ef1279c4c94e7fda999b0f019a4bc525396a75395e7b1e4",
    "importance_recomputed/overall_importance_flood.csv":
        "8146ec7937978cdedce8632977cff167333cc9e42adc6194abf20a3458b039ed",
    "importance_recomputed/overall_importance_heat.csv":
        "25695d4df82f94ca20fc5998cfe5006e91d2415bf061db7e1bb510714312d151",
    "importance_literal/feature_group_rollup.csv":
        "4580b4425439a354210f0afb3b50cff22b14436fc93a5bd20fead2dd44429a88",
    "importance_literal/importance_flood.csv":
        "2422803ecb7c4eaf9eb9b5b4b82b354de34b29a96389b10f3d7c33ea2c270c75",
    "importance_literal/importance_heat.csv":
        "932eedc6f0225fbcb652e903eff942709ad4343d32cf7ccb5e146c2f390ccaee",
    "importance_literal/overall_importance_flood.csv":
        "53d251a0c46ed0e13c5b64b4d0d59297b2242cc1affa70c4dcfb0b2677f6f711",
    "importance_literal/overall_importance_heat.csv":
        "17545079d721c5ead1dc5f8017bc01881f584f091ae6e827ca99dc38ab591cfc",
}


def test_pinned_csv_study_keeps_its_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the summary echoes the county paths
    write_pinned_csv_study(tmp_path)
    Path("config.json").write_text(json.dumps({
        "seed": 11, "out_dir": "out", "workers": 1,
        "counties": ["inputs/ash.csv", "inputs/oak.csv"],
        "feature_groups": "inputs/groups.json",
        "cv": {"k": 3, "forest_grid": {"n_trees": [4, 8], "max_depth": [3, None]},
               "gbt_grid": {"n_rounds": [3], "max_depth": [2], "learning_rate": [0.3],
                            "l2_reg": [1.0]}},
        "top_k": 3,
    }))
    assert main(["run", "--config", "config.json"]) == 0
    assert main(["transfer", "--run", "out"]) == 0
    assert main(["importance", "--run", "out"]) == 0
    literal = ["--mode", "paper_literal", "--out", "out/importance_literal"]
    assert main(["importance", "--run", "out", *literal]) == 3  # 2 pairs sum to <= 0
    out = tmp_path / "out"
    digests = {"manifest.json": file_sha256(out / "manifest.json")}
    for recomputed in ("transfer_recomputed", "importance_recomputed", "importance_literal"):
        for path in sorted((out / recomputed).iterdir()):
            digests[f"{recomputed}/{path.name}"] = file_sha256(path)
    assert digests == PINNED_CSV_STUDY_SHA256


def test_make_labeled_threshold_ignores_row_order(tmp_path):
    # np.mean's sum depends on the order it adds in: ash's rows reversed
    # used to move a threshold in its last bits
    write_pinned_csv_study(tmp_path)
    county = load_county_csv(tmp_path / "inputs" / "ash.csv")
    reversed_rows = CountyDataset(
        county.county_id, county.schema, county.tract_ids[::-1], county.features[::-1],
        {hazard: values[::-1] for hazard, values in county.hazards.items()},
    )
    for hazard in county.hazard_ids():
        assert (make_labeled(reversed_rows, hazard).threshold.hex()
                == make_labeled(county, hazard).threshold.hex())


def test_pinned_csv_study_ignores_row_order(tmp_path, monkeypatch):
    # the pinned study with its data rows reversed is the same study: the
    # same manifest, and recompute rebuilds the same files as the run wrote
    monkeypatch.chdir(tmp_path)  # the summary echoes the county paths
    write_pinned_csv_study(tmp_path)
    for county in ("ash", "oak"):
        path = tmp_path / "inputs" / f"{county}.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *rows[::-1]]) + "\n")
    Path("config.json").write_text(json.dumps({
        "seed": 11, "out_dir": "out", "workers": 1,
        "counties": ["inputs/ash.csv", "inputs/oak.csv"],
        "feature_groups": "inputs/groups.json",
        "cv": {"k": 3, "forest_grid": {"n_trees": [4, 8], "max_depth": [3, None]},
               "gbt_grid": {"n_rounds": [3], "max_depth": [2], "learning_rate": [0.3],
                            "l2_reg": [1.0]}},
        "top_k": 3,
    }))
    assert main(["run", "--config", "config.json"]) == 0
    assert main(["transfer", "--run", "out"]) == 0
    assert main(["importance", "--run", "out"]) == 0
    out = tmp_path / "out"
    assert file_sha256(out / "manifest.json") == PINNED_CSV_STUDY_SHA256["manifest.json"]
    for recomputed, written in (("transfer_recomputed", "transfer"),
                                ("importance_recomputed", "reports")):
        for path in sorted((out / recomputed).iterdir()):
            assert PINNED_CSV_STUDY_SHA256[f"{recomputed}/{path.name}"] == file_sha256(path)
            assert path.read_bytes() == (out / written / path.name).read_bytes()


def test_readme_library_imports_resolve():
    # the imports of README's "Library use" example, read from the README itself
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    example = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imports = [node for node in ast.parse(example).body if isinstance(node, ast.ImportFrom)]
    assert "hazardlens" in [node.module for node in imports]
    exec(compile(ast.Module(imports, type_ignores=[]), "README.md", "exec"), {})


SMALL_CV = {"k": 3, "forest_grid": {"n_trees": [4], "max_depth": [3]},
            "gbt_grid": {"n_rounds": [3], "max_depth": [2], "learning_rate": [0.3],
                         "l2_reg": [1.0]}}


@pytest.mark.parametrize(
    "hazard, part", [("heat__wave", "__"), ("heat/wave", "/")], ids=["double_underscore", "slash"]
)
@pytest.mark.parametrize("study", ["csv", "synth"])
def test_hazard_id_holding_the_pair_separator_exits_2(
    tmp_path, monkeypatch, capsys, study, hazard, part
):
    # a pair is named county__hazard, and a model's file name holds the
    # hazard id
    monkeypatch.chdir(tmp_path)
    if study == "csv":
        path = county_csv(tmp_path / "ash.csv", seed=1)
        path.write_text(path.read_text().replace("hazard__heat", f"hazard__{hazard}"))
        inputs = {"counties": ["ash.csv"]}
    else:
        county = {"name": "ash", "n_tracts": 40, "hazards": [hazard]}
        inputs = {"synth": {"counties": [county], "n_features": 4, "informative_count": 2}}
    config = {"seed": 1, "out_dir": "out", "cv": SMALL_CV, **inputs}
    Path("config.json").write_text(json.dumps(config))
    before = sorted(tmp_path.iterdir())
    assert main(["run", "--config", "config.json"]) == 2
    assert f"county 'ash': hazard id {hazard!r} must not contain {part!r}" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("second", ["b/x.csv", "a/x.csv"])
def test_two_county_files_of_one_county_exit_2(tmp_path, monkeypatch, capsys, second):
    monkeypatch.chdir(tmp_path)
    for folder, seed in (("a", 1), ("b", 2)):
        (tmp_path / folder).mkdir()
        county_csv(tmp_path / folder / "x.csv", seed=seed)
    config = {"seed": 1, "out_dir": "out", "cv": SMALL_CV, "counties": ["a/x.csv", second]}
    Path("config.json").write_text(json.dumps(config))
    before = sorted(tmp_path.iterdir())
    assert main(["run", "--config", "config.json"]) == 2
    assert f"a/x.csv and {second} are both county 'x'" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
