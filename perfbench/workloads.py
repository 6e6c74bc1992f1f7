"""Workload definitions: what each benchmark workload generates and runs.

Every workload is built from its seed alone. The inputs are synthetic
counties written as CSV files under fixed relative paths (`inputs/`), so the
run's `summary.json`, which echoes the county paths, and therefore the
manifest digest depend only on the seed. The pipeline's master seed is the
workload seed itself.

Sizes are scaled down from the paper-scale scenarios so that one timed
operation takes a few seconds on a 2-CPU machine and a whole benchmark run
fits in well under a minute. The structure each workload exists to stress is
kept: many small nodes and one tree-count per grid (study6x3), the
pair-level process pool (study6x3_w2), large nodes with nested tree counts
and a single pair (county_grid), and the read side with no training
(recompute).
"""

from __future__ import annotations

from dataclasses import dataclass

# Paths inside a workload's scratch directory (the operations' working
# directory). Inputs sit at fixed relative paths so summary.json, which
# echoes them, depends only on the seed.
INPUTS = "inputs"
RUN_OUT = "out"
TRAIN_OUT = "train"
RECOMPUTE_OUTS = ("transfer_recomputed", "importance_recomputed", "importance_literal")

SYNTH6X3_GRIDS = {
    "forest_grid": {"n_trees": [12], "max_depth": [None, 8], "min_samples_leaf": [1]},
    "gbt_grid": {
        "n_rounds": [4],
        "max_depth": [3],
        "learning_rate": [0.3],
        "l2_reg": [1.0],
    },
}

# Shaped like the library defaults: every parameter of DEFAULT_FOREST_GRID /
# DEFAULT_GBT_GRID keeps its number of values, and the size axis keeps the
# defaults' 1:3 ratio, so sharing CV fits across tree counts could save 25%.
COUNTY_GRID_GRIDS = {
    "forest_grid": {"n_trees": [2, 6], "max_depth": [None, 8], "min_samples_leaf": [1, 5]},
    "gbt_grid": {
        "n_rounds": [2, 6],
        "max_depth": [3, 6],
        "learning_rate": [0.1, 0.3],
        "l2_reg": [1.0],
    },
}

# The recompute workload reads back a finished run; only the training that
# produces it (part of set-up) uses these single-point grids.
RECOMPUTE_GRIDS = {
    "forest_grid": {"n_trees": [16], "max_depth": [None], "min_samples_leaf": [1]},
    "gbt_grid": {
        "n_rounds": [4],
        "max_depth": [3],
        "learning_rate": [0.3],
        "l2_reg": [1.0],
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # "synth6x3", "county_grid" or "tiny"
    kind: str  # "run": time pipeline.run; "recompute": time the recompute commands
    cv_k: int
    grids: dict
    workers: int
    pairs: int  # (county, hazard) pairs trained or recomputed per operation
    transfer_eval_on: str = "test"
    reference_workers: int | None = None  # also run once at this count; digests must match

    def run_config(self, seed: int, counties: list[str], out_dir: str, workers: int):
        from hazardlens.pipeline import RunConfig

        return RunConfig(
            seed=seed,
            out_dir=out_dir,
            county_files=list(counties),
            cv_k=self.cv_k,
            forest_grid=self.grids["forest_grid"],
            gbt_grid=self.grids["gbt_grid"],
            transfer_eval_on=self.transfer_eval_on,
            workers=workers,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The single-process baseline: split search on many small nodes, one
        # tree count per grid, the full graph incl. transfer and reports.
        Workload(
            name="study6x3",
            scenario="synth6x3",
            kind="run",
            cv_k=2,
            grids=SYNTH6X3_GRIDS,
            workers=1,
            pairs=16,
        ),
        # The only workload through the pair-level process pool; its
        # manifest must equal the workers=1 run's.
        Workload(
            name="study6x3_w2",
            scenario="synth6x3",
            kind="run",
            cv_k=2,
            grids=SYNTH6X3_GRIDS,
            workers=2,
            pairs=16,
            reference_workers=1,
        ),
        # Large nodes, nested tree counts that CV sharing could reuse, and a
        # single pair, so the pool never starts and one core idles.
        Workload(
            name="county_grid",
            scenario="county_grid",
            kind="run",
            cv_k=2,
            grids=COUNTY_GRID_GRIDS,
            workers=2,
            pairs=1,
        ),
        # The read side: model parsing, tree routing, importance walks and
        # report writes, with no training in the timed operation.
        Workload(
            name="recompute",
            scenario="synth6x3",
            kind="recompute",
            cv_k=2,
            grids=RECOMPUTE_GRIDS,
            workers=2,
            pairs=16,
            transfer_eval_on="full",
        ),
    )
}

# Harness self-check only; not listed in BENCHMARK.json.
TINY = Workload(
    name="tiny",
    scenario="tiny",
    kind="run",
    cv_k=2,
    grids={
        "forest_grid": {"n_trees": [2, 3], "max_depth": [None], "min_samples_leaf": [1]},
        "gbt_grid": {"n_rounds": [2], "max_depth": [2], "learning_rate": [0.3], "l2_reg": [1.0]},
    },
    workers=2,
    pairs=4,
)


def scenario_specs(workload: Workload, seed: int):
    """ScenarioSpecs of the workload's synthetic counties for this seed."""
    from hazardlens import synth
    from hazardlens.seeds import child_seed

    synth_seed = child_seed(seed, "synth")
    if workload.scenario == "synth6x3":
        return synth.synth6x3_specs(synth_seed)
    if workload.scenario == "county_grid":
        plans = [synth.CountyPlan(name="grid", n_tracts=1500, hazards=("heat",))]
    elif workload.scenario == "tiny":
        plans = [
            synth.CountyPlan(name="ash", n_tracts=60, hazards=("heat", "flood")),
            synth.CountyPlan(name="oak", n_tracts=70, hazards=("heat", "flood")),
        ]
    else:
        raise ValueError(f"unknown scenario {workload.scenario!r}")
    # the synth6x3 generator settings, applied to other county plans
    return synth.build_scenario(
        plans,
        seed=synth_seed,
        n_features=35,
        informative_count=7,
        law=synth.LAW_LINEAR_LOGIT,
        noise=0.3,
        coupling=synth.COUPLING_FEATURE_CAUSED,
        share_law_across_counties=True,
    )
