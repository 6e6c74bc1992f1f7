import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hazardlens.errors import NoEntries
from hazardlens.importance import ImportanceVector, build_rank_matrix, overall_importance
from hazardlens.metrics import MetricTable
from hazardlens.report import (
    file_sha256,
    group_rollup,
    render_heatmap,
    write_performance_table,
)
from hazardlens.transfer import TransferMatrix

GOLDEN = Path(__file__).parent / "golden"


def fixed_matrix():
    return TransferMatrix(
        axis="county", fixed_id="heat", ids=("east", "north", "west"),
        baseline="target_native", threshold=-15.0,
        delta={("east", "east"): 0.0, ("east", "north"): -22.5,
               ("east", "west"): 4.25, ("north", "east"): -8.75,
               ("north", "north"): 0.0, ("north", "west"): -15.0,
               ("west", "west"): 0.0},
        transferable={("east", "east"): True, ("east", "north"): False,
                      ("east", "west"): True, ("north", "east"): True,
                      ("north", "north"): True, ("north", "west"): True,
                      ("west", "west"): True},
    )


def test_heatmap_matches_golden_bytes():
    svg = render_heatmap(fixed_matrix())
    assert svg == (GOLDEN / "transfer_heatmap.svg").read_text("utf-8")


def test_heatmap_single_cell():
    matrix = TransferMatrix(
        axis="hazard", fixed_id="solo", ids=("heat",),
        baseline="target_native", threshold=-15.0,
        delta={("heat", "heat"): 0.0},
        transferable={("heat", "heat"): True},
    )
    svg = render_heatmap(matrix)
    assert svg.count("<rect") == 2  # hatch pattern swatch + the one cell
    assert ">0.00</text>" in svg


def test_heatmap_absent_cells_hatched_and_unlabeled():
    svg = render_heatmap(fixed_matrix())
    # two absent cells in the west row
    assert svg.count('fill="url(#hatch)"') == 2
    assert svg.count("</text>") == svg.count("text-anchor") + 2  # titles
    assert "-22.50" in svg and "-15.00" in svg


def test_heatmap_empty_matrix():
    matrix = TransferMatrix(axis="county", fixed_id="x", ids=(),
                            baseline="target_native", threshold=-15.0)
    with pytest.raises(NoEntries):
        render_heatmap(matrix)


def test_performance_table_layout(tmp_path):
    counties = ("a", "b")
    hazards = ("flood", "heat")
    train = MetricTable(counties, hazards)
    test = MetricTable(counties, hazards)
    f1t = MetricTable(counties, hazards)
    fbt = MetricTable(counties, hazards)
    for county, f1v, fbv in (("a", 0.8, 0.82), ("b", 0.6, 0.64)):
        for hazard in hazards:
            train.set(county, hazard, 70)
            test.set(county, hazard, 30)
            f1t.set(county, hazard, f1v)
            fbt.set(county, hazard, fbv)
    path = tmp_path / "performance.csv"
    write_performance_table(path, counties, hazards, train, test, f1t, fbt, 1.5)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == (
        "county,train_flood,train_heat,test_flood,test_heat,"
        "f1_flood,f1_heat,fbeta1.5_flood,fbeta1.5_heat"
    )
    assert lines[1] == "a,70,70,30,30,80.00,80.00,82.00,82.00"
    assert lines[3] == "average,70,70,30,30,70.00,70.00,73.00,73.00"


def test_group_rollup_counts():
    names = tuple(f"f{j}" for j in range(6))
    vectors = {
        "c": ImportanceVector(
            feature_names=names,
            values=np.array([0.3, 0.25, 0.2, 0.15, 0.07, 0.03]),
        )
    }
    overall = overall_importance(build_rank_matrix(vectors), top_k=3)
    groups = {"f0": "social", "f1": "built", "f2": "social",
              "f3": "land", "f4": "built", "f5": "mobility"}
    rollup = group_rollup(overall, groups)
    assert rollup == {"built": 1, "social": 2}


def test_manifest_hashes_and_excludes_itself(tmp_path):
    from hazardlens.pipeline import RunConfig, run

    out = tmp_path / "run"
    report = run(RunConfig(
        seed=3,
        out_dir=str(out),
        workers=1,
        synth={
            "counties": [
                {"name": "ash", "n_tracts": 60, "hazards": ["heat"]},
                {"name": "oak", "n_tracts": 60, "hazards": ["heat"]},
            ],
            "n_features": 6,
            "informative_count": 2,
            "noise": 0.2,
        },
        forest_grid={"n_trees": [4], "max_depth": [3]},
        gbt_grid={"n_rounds": [4], "max_depth": [2], "learning_rate": [0.3],
                  "l2_reg": [1.0]},
        cv_k=3,
        top_k=2,
    ))
    on_disk = json.loads((out / "manifest.json").read_text("utf-8"))
    assert on_disk == report.manifest
    assert "manifest.json" not in on_disk
    assert "data/ash.csv" in on_disk
    for rel, digest in on_disk.items():
        assert digest == file_sha256(out / rel)


@pytest.mark.parametrize("size", [0, 1, 65536, 2 * 65536 + 17])
def test_file_sha256_is_hashlibs_digest(tmp_path, size):
    # empty, shorter than, equal to and longer than the 64 KiB read chunk
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).hexdigest()
