"""Config-driven orchestration: per-pair training, evaluation, and reports.

A run walks every present (county, hazard) pair through split -> CV ->
refit -> test metrics, then assembles the performance table, the model
comparison, dispersion statistics, importance rankings, and transfer
matrices, writing everything under one output directory with a hashed
manifest. Jobs, one per (county, hazard, model family), are independent:
their seeds derive from (master seed, county, hazard), so any worker count
produces byte-identical output for the same seed.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import report as rpt
from .cart import IMPORTANCE_MODES, WEIGHTED
from .dataset import (
    CountyDataset,
    LabeledDataset,
    align_schemas,
    load_county_csv,
    make_labeled,
    write_county_csv,
)
from .errors import (
    AllZeroImportance,
    HazardAbsent,
    HazardLensError,
    InvalidConfig,
)
from .forest import forest_from_json, forest_to_json
from .boosting import gbt_from_json, gbt_to_json
from .importance import (
    ImportanceVector,
    build_rank_matrix,
    forest_importance,
    normalize,
    overall_importance,
)
from .metrics import MetricTable, confusion, dispersion_summary, f_beta
from .seeds import child_seed
from .selection import (
    DEFAULT_FOREST_GRID,
    DEFAULT_GBT_GRID,
    FAMILIES,
    CvSpec,
    SplitSpec,
    check_grid,
    cross_validate,
    stratified_split,
)
from .synth import (
    CountyPlan,
    build_scenario,
    generate_county,
    planted_oracle,
    synth6x3_feature_groups,
    synth6x3_specs,
)
from .transfer import (
    BASELINE_BOTH,
    TransferPolicy,
    cross_county,
    cross_hazard,
)

CANONICAL_FAMILY = "forest"


@dataclass
class RunConfig:
    seed: int
    out_dir: str
    county_files: list[str] = field(default_factory=list)
    synth: dict | None = None
    hazards: list[str] | None = None
    beta: float = 1.5
    train_fraction: float = 0.70
    stratified: bool = True
    cv_k: int = 10
    forest_grid: dict = field(default_factory=lambda: dict(DEFAULT_FOREST_GRID))
    gbt_grid: dict = field(default_factory=lambda: dict(DEFAULT_GBT_GRID))
    families: list[str] = field(default_factory=lambda: ["forest", "gbt"])
    importance_mode: str = WEIGHTED
    transfer_threshold: float = -15.0
    transfer_baseline: str = "target_native"
    transfer_eval_on: str = "test"
    top_k: int = 7
    workers: int = 1
    missing_feature_policy: str = "error"
    feature_groups: str | None = None

    def __post_init__(self):
        if self.seed is None:
            raise InvalidConfig("seed is mandatory")
        if not self.out_dir:
            raise InvalidConfig("out_dir is mandatory")
        if not self.county_files and self.synth is None:
            raise InvalidConfig("either county_files or synth must be given")
        if self.county_files and self.synth is not None:
            raise InvalidConfig("county_files and synth are mutually exclusive")
        for path in self.county_files:
            if not Path(path).is_file():
                raise InvalidConfig(f"county file not found: {path}")
        if self.beta <= 0:
            raise InvalidConfig("beta must be positive")
        if not self.families:
            raise InvalidConfig("at least one model family required")
        for family in self.families:
            if family not in FAMILIES:
                raise InvalidConfig(f"unknown model family {family!r}")
        if self.importance_mode not in IMPORTANCE_MODES:
            raise InvalidConfig(f"unknown importance mode {self.importance_mode!r}")
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")
        if self.top_k < 1:
            raise InvalidConfig("top_k must be >= 1")
        try:
            SplitSpec(train_fraction=self.train_fraction, stratified=self.stratified)
            for family, grid in (("forest", self.forest_grid), ("gbt", self.gbt_grid)):
                check_grid(family, grid)
                CvSpec(k=self.cv_k, grid=grid, beta=self.beta)
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from None
        if self.hazards is not None:
            for hazard in self.hazards:
                if "__" in hazard:
                    raise InvalidConfig("hazard ids must not contain '__'")
        try:
            TransferPolicy(
                threshold=self.transfer_threshold,
                beta=self.beta,
                baseline=self.transfer_baseline,
                eval_on=self.transfer_eval_on,
            )
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Config from its to_dict form; keys to_dict never emits are rejected."""
        _reject_unknown_keys(raw, _CONFIG_KEYS, "config")
        for section, allowed in _SECTION_KEYS.items():
            _reject_unknown_keys(raw.get(section, {}), allowed, section)
        data = dict(raw)
        split = data.pop("split", {})
        cv = data.pop("cv", {})
        transfer = data.pop("transfer", {})
        try:
            return cls(
                seed=data.pop("seed", None),
                out_dir=data.pop("out_dir", ""),
                county_files=list(data.pop("counties", [])),
                synth=data.pop("synth", None),
                hazards=data.pop("hazards", None),
                beta=data.pop("beta", 1.5),
                train_fraction=split.get("train_fraction", 0.70),
                stratified=split.get("stratified", True),
                cv_k=cv.get("k", 10),
                forest_grid=cv.get("forest_grid", dict(DEFAULT_FOREST_GRID)),
                gbt_grid=cv.get("gbt_grid", dict(DEFAULT_GBT_GRID)),
                families=list(data.pop("families", ["forest", "gbt"])),
                importance_mode=data.pop("importance_mode", WEIGHTED),
                transfer_threshold=transfer.get("threshold", -15.0),
                transfer_baseline=transfer.get("baseline", "target_native"),
                transfer_eval_on=transfer.get("eval_on", "test"),
                top_k=data.pop("top_k", 7),
                workers=data.pop("workers", 1),
                missing_feature_policy=data.pop(
                    "missing_feature_policy", "error"
                ),
                feature_groups=data.pop("feature_groups", None),
            )
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(str(exc)) from None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "counties": list(self.county_files),
            "synth": self.synth,
            "hazards": self.hazards,
            "beta": self.beta,
            "split": {
                "train_fraction": self.train_fraction,
                "stratified": self.stratified,
            },
            "cv": {
                "k": self.cv_k,
                "forest_grid": self.forest_grid,
                "gbt_grid": self.gbt_grid,
            },
            "families": list(self.families),
            "importance_mode": self.importance_mode,
            "transfer": {
                "threshold": self.transfer_threshold,
                "baseline": self.transfer_baseline,
                "eval_on": self.transfer_eval_on,
            },
            "top_k": self.top_k,
            "workers": self.workers,
            "missing_feature_policy": self.missing_feature_policy,
            "feature_groups": self.feature_groups,
        }


# The keys to_dict emits: the only ones from_dict accepts.
_CONFIG_KEYS = {
    "seed", "out_dir", "counties", "synth", "hazards", "beta", "split", "cv",
    "families", "importance_mode", "transfer", "top_k", "workers",
    "missing_feature_policy", "feature_groups",
}
_SECTION_KEYS = {
    "split": {"train_fraction", "stratified"},
    "cv": {"k", "forest_grid", "gbt_grid"},
    "transfer": {"threshold", "baseline", "eval_on"},
}


def _reject_unknown_keys(section: dict, allowed: set, label: str) -> None:
    if not isinstance(section, dict):
        raise InvalidConfig(f"{label} must be a JSON object")
    unknown = sorted(map(str, set(section) - allowed))
    if unknown:
        raise InvalidConfig(f"unknown {label} keys: {', '.join(unknown)}")


def synth6x3_config(seed: int, out_dir: str, workers: int = 1) -> RunConfig:
    """Desk-scale configuration for the six-county benchmark scenario.

    CV keeps ten folds but trims the grids so a full run stays in the
    minutes range; the library defaults stay untouched for real data.
    """
    return RunConfig(
        seed=seed,
        out_dir=out_dir,
        synth={"preset": "synth6x3"},
        forest_grid={"n_trees": [20], "max_depth": [None, 8], "min_samples_leaf": [1]},
        gbt_grid={
            "n_rounds": [15],
            "max_depth": [3],
            "learning_rate": [0.3],
            "l2_reg": [1.0],
        },
        workers=workers,
    )


PRESETS = {"synth6x3": synth6x3_config}


# -- per-pair job ------------------------------------------------------------

@dataclass(frozen=True)
class JobConfig:
    beta: float
    train_fraction: float
    stratified: bool
    cv_k: int
    forest_grid: dict
    gbt_grid: dict
    families: tuple[str, ...]
    importance_mode: str


@dataclass
class FamilyOutcome:
    best_params: dict
    cv_records: list
    f1: float
    fbeta: float
    cells: tuple[int, int, int, int]  # tp, fp, fn, tn
    model_json: str


@dataclass
class JobResult:
    county: str
    hazard: str
    labeled_n: int
    threshold: float
    train_n: int
    test_n: int
    outcomes: dict[str, FamilyOutcome]
    importance: np.ndarray | None
    importance_note: str | None
    test: LabeledDataset


def execute_job(
    dataset: CountyDataset, hazard: str, cfg: JobConfig, job_seed: int
) -> JobResult:
    """Split, cross-validate, refit, and score one (county, hazard) pair."""
    labeled = make_labeled(dataset, hazard)
    train, test = stratified_split(
        labeled,
        SplitSpec(
            train_fraction=cfg.train_fraction,
            stratified=cfg.stratified,
            seed=child_seed(job_seed, "split"),
        ),
    )

    outcomes: dict[str, FamilyOutcome] = {}
    rf_model = None
    for family in cfg.families:
        grid = cfg.forest_grid if family == "forest" else cfg.gbt_grid
        best, records = cross_validate(
            train,
            family,
            CvSpec(k=cfg.cv_k, grid=grid, beta=cfg.beta),
            seed=child_seed(job_seed, "cv", family),
        )
        train_fn, predict_fn, _ = FAMILIES[family]
        model = train_fn(train, best, child_seed(job_seed, "fit", family))
        preds = predict_fn(model, test.features)
        cells = confusion(test.labels, preds)
        outcomes[family] = FamilyOutcome(
            best_params=best,
            cv_records=records,
            f1=f_beta(cells, 1.0),
            fbeta=f_beta(cells, cfg.beta),
            cells=(cells.tp, cells.fp, cells.fn, cells.tn),
            model_json=(
                forest_to_json(model) if family == "forest" else gbt_to_json(model)
            ),
        )
        if family == "forest":
            rf_model = model

    importance_values = None
    note = None
    if rf_model is not None:
        try:
            importance_values = normalize(
                forest_importance(rf_model, cfg.importance_mode)
            ).values
        except AllZeroImportance as exc:
            note = str(exc)

    return JobResult(
        county=dataset.county_id,
        hazard=hazard,
        labeled_n=labeled.n,
        threshold=labeled.threshold,
        train_n=train.n,
        test_n=test.n,
        outcomes=outcomes,
        importance=importance_values,
        importance_note=note,
        test=test,
    )


def _execute_unit(args):
    """One (pair, family) unit of work; a HazardLensError is returned, not raised."""
    try:
        return execute_job(*args)
    except HazardLensError as exc:
        return exc


def _merge_units(parts: list[JobResult]) -> JobResult:
    """One pair's result from its per-family units, in config order."""
    merged = replace(parts[0], outcomes={})
    for part in parts:
        merged.outcomes.update(part.outcomes)
        if "forest" in part.outcomes:
            merged.importance = part.importance
            merged.importance_note = part.importance_note
    return merged


def canonical_family(families) -> str:
    """The family behind the performance table, dispersion and transfer."""
    return CANONICAL_FAMILY if CANONICAL_FAMILY in families else families[0]


def _model_from_json(family: str, text: str):
    return forest_from_json(text) if family == "forest" else gbt_from_json(text)


# -- run assembly -------------------------------------------------------------

@dataclass
class RunReport:
    out_dir: str
    counties: tuple[str, ...]
    hazards: tuple[str, ...]
    absent: list[tuple[str, str]]
    failures: list[dict]
    results: dict[tuple[str, str], JobResult]
    f1_tables: dict[str, MetricTable]
    fbeta_tables: dict[str, MetricTable]
    comparison: dict[str, dict[str, float]]
    dispersion: dict
    manifest: dict[str, str]
    written: list[str]


def compare_models(
    fbeta_tables: dict[str, MetricTable], hazards: tuple[str, ...]
) -> dict[str, dict[str, float]]:
    """Per-hazard mean F across counties with present data, per family."""
    means: dict[str, dict[str, float]] = {}
    for family, table in fbeta_tables.items():
        means[family] = {}
        for hazard in hazards:
            column = table.column(hazard)
            if column:
                means[family][hazard] = float(np.mean(column))
    return means


def _prepare_datasets(config: RunConfig, out_dir: Path) -> tuple[list[CountyDataset], dict | None]:
    """Load CSV counties, or generate + emit + reload synthetic ones."""
    groups = None
    if config.synth is not None:
        synth = dict(config.synth)
        preset = synth.pop("preset", None)
        synth_seed = child_seed(config.seed, "synth")
        if preset == "synth6x3":
            specs = synth6x3_specs(synth_seed, **synth)
            groups = synth6x3_feature_groups()
        elif preset is None:
            plans = [
                CountyPlan(
                    name=c["name"],
                    n_tracts=c["n_tracts"],
                    hazards=tuple(c.get("hazards", ("heat", "flood", "air"))),
                )
                for c in synth.pop("counties")
            ]
            specs = build_scenario(plans, seed=synth_seed, **synth)
        else:
            raise InvalidConfig(f"unknown synth preset {preset!r}")
        data_dir = out_dir / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        oracle = {}
        paths = []
        for spec in specs:
            county = generate_county(spec)
            path = data_dir / f"{county.county_id}.csv"
            write_county_csv(county, path)
            paths.append(path)
            told = planted_oracle(spec)
            oracle[county.county_id] = {
                "informative": list(told.top_features),
                "per_hazard_informative": {
                    h: list(s)
                    for h, s in zip(spec.hazards, told.per_hazard_informative)
                },
                "law": spec.law,
                "coupling": spec.coupling,
            }
        (data_dir / "oracle.json").write_text(
            json.dumps(oracle, sort_keys=True, indent=2) + "\n", "utf-8"
        )
        if groups is not None:
            (data_dir / "feature_groups.json").write_text(
                json.dumps(groups, sort_keys=True, indent=2) + "\n", "utf-8"
            )
        datasets = [load_county_csv(p) for p in paths]
    else:
        datasets = [
            load_county_csv(p, missing_feature_policy=config.missing_feature_policy)
            for p in config.county_files
        ]
        if config.feature_groups:
            groups = json.loads(Path(config.feature_groups).read_text("utf-8"))
    for dataset in datasets:
        if "__" in dataset.county_id:
            raise InvalidConfig(
                f"county id {dataset.county_id!r} must not contain '__'"
            )
    datasets.sort(key=lambda d: d.county_id)
    return datasets, groups


def run(config: RunConfig) -> RunReport:
    """Execute the full experiment graph described by the config."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    datasets, groups = _prepare_datasets(config, out_dir)
    if config.synth is not None:
        data_dir = out_dir / "data"
        written += sorted(
            p.relative_to(out_dir).as_posix() for p in data_dir.rglob("*") if p.is_file()
        )
    align_schemas(datasets)
    counties = tuple(d.county_id for d in datasets)
    by_county = {d.county_id: d for d in datasets}
    if config.hazards is not None:
        hazards = tuple(config.hazards)
    else:
        hazards = tuple(sorted({h for d in datasets for h in d.hazards}))

    job_cfg = JobConfig(
        beta=config.beta,
        train_fraction=config.train_fraction,
        stratified=config.stratified,
        cv_k=config.cv_k,
        forest_grid=config.forest_grid,
        gbt_grid=config.gbt_grid,
        families=tuple(config.families),
        importance_mode=config.importance_mode,
    )

    pairs = []
    absent: list[tuple[str, str]] = []
    for county in counties:
        for hazard in hazards:
            if hazard in by_county[county].hazards:
                pairs.append((county, hazard))
            else:
                absent.append((county, hazard))

    # The unit of work is one (pair, family): every family of a pair
    # replays the pair's split from the same job seed, so even a single
    # pair keeps two workers busy. Results come back in unit order.
    families = job_cfg.families
    units = [
        (
            by_county[county],
            hazard,
            replace(job_cfg, families=(family,)),
            child_seed(config.seed, "job", county, hazard),
        )
        for county, hazard in pairs
        for family in families
    ]
    if config.workers > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            done = list(pool.map(_execute_unit, units))
    else:
        done = list(map(_execute_unit, units))

    results: dict[tuple[str, str], JobResult] = {}
    failures: list[dict] = []
    for i, (county, hazard) in enumerate(pairs):
        parts = done[i * len(families):(i + 1) * len(families)]
        # a pair fails with its first failing family in config order
        failed = next((p for p in parts if not isinstance(p, JobResult)), None)
        if failed is None:
            results[(county, hazard)] = _merge_units(parts)
        elif isinstance(failed, HazardAbsent):
            absent.append((county, hazard))
        else:
            failures.append(
                {
                    "county": county,
                    "hazard": hazard,
                    "error": type(failed).__name__,
                    "message": str(failed),
                }
            )

    absent = sorted(set(absent))
    failures.sort(key=lambda f: (f["county"], f["hazard"]))
    ordered = dict(sorted(results.items()))

    # metric tables per family
    f1_tables = {fam: MetricTable(counties, hazards) for fam in config.families}
    fbeta_tables = {fam: MetricTable(counties, hazards) for fam in config.families}
    train_size = MetricTable(counties, hazards)
    test_size = MetricTable(counties, hazards)
    for (county, hazard), res in ordered.items():
        train_size.set(county, hazard, res.train_n)
        test_size.set(county, hazard, res.test_n)
        for family, outcome in res.outcomes.items():
            f1_tables[family].set(county, hazard, outcome.f1)
            fbeta_tables[family].set(county, hazard, outcome.fbeta)

    reports_dir = out_dir / "reports"
    models_dir = out_dir / "models"
    transfer_dir = out_dir / "transfer"
    for d in (reports_dir, models_dir, transfer_dir):
        d.mkdir(parents=True, exist_ok=True)

    def track(path: Path):
        written.append(path.relative_to(out_dir).as_posix())

    # models
    for (county, hazard), res in ordered.items():
        for family, outcome in res.outcomes.items():
            path = models_dir / f"{county}__{hazard}__{family}.json"
            path.write_text(outcome.model_json, "utf-8")
            track(path)

    canonical = canonical_family(config.families)

    # performance table (canonical family) and long-form metric CSVs
    path = reports_dir / "performance.csv"
    rpt.write_performance_table(
        path,
        counties,
        hazards,
        train_size,
        test_size,
        f1_tables[canonical],
        fbeta_tables[canonical],
        config.beta,
    )
    track(path)
    for family in config.families:
        for metric, table in (("f1", f1_tables[family]), ("fbeta", fbeta_tables[family])):
            path = reports_dir / f"metrics_{family}_{metric}.csv"
            rpt.write_metric_csv(path, table, metric)
            track(path)

    # model comparison
    comparison = compare_models(fbeta_tables, hazards)
    path = reports_dir / "model_comparison.csv"
    rpt.write_model_comparison(path, hazards, comparison, config.beta)
    track(path)

    # dispersion of the canonical family's scores
    dispersion = {}
    if ordered:
        dispersion = {
            "f1": dispersion_summary(f1_tables[canonical]),
            f"fbeta{config.beta:g}": dispersion_summary(fbeta_tables[canonical]),
        }
        path = reports_dir / "dispersion.json"
        rpt.write_dispersion(path, dispersion)
        track(path)

    # cv audit table
    cv_rows = []
    for (county, hazard), res in ordered.items():
        for family in sorted(res.outcomes):
            for rec in res.outcomes[family].cv_records:
                cv_rows.append(
                    [
                        county,
                        hazard,
                        family,
                        json.dumps(rec.params, sort_keys=True),
                        str(rec.fold),
                        repr(rec.score),
                    ]
                )
    path = reports_dir / "cv_table.csv"
    rpt.write_rows(
        path, ["county", "hazard", "family", "params", "fold", "score"], cv_rows
    )
    track(path)

    # importance per hazard (canonical family only)
    schema = datasets[0].schema
    overall_by_hazard = {}
    rollups = {}
    for hazard in hazards:
        vectors = {
            county: ImportanceVector(
                feature_names=schema.feature_names,
                values=res.importance,
                normalized=True,
            )
            for (county, h), res in ordered.items()
            if h == hazard and res.importance is not None
        }
        if not vectors:
            continue
        path = reports_dir / f"importance_{hazard}.csv"
        rpt.write_importance_csv(path, vectors)
        track(path)
        overall = overall_importance(build_rank_matrix(vectors), config.top_k)
        overall_by_hazard[hazard] = overall
        path = reports_dir / f"overall_importance_{hazard}.csv"
        rpt.write_overall_csv(path, overall)
        track(path)
        if groups:
            rollups[hazard] = rpt.group_rollup(overall, groups)
    if rollups:
        path = reports_dir / "feature_group_rollup.csv"
        rpt.write_group_rollup(path, rollups)
        track(path)

    # transfer matrices (canonical family models, held-out or full evals)
    policy = TransferPolicy(
        threshold=config.transfer_threshold,
        beta=config.beta,
        baseline=config.transfer_baseline,
        eval_on=config.transfer_eval_on,
    )
    rf_models = {
        key: _model_from_json(canonical, res.outcomes[canonical].model_json)
        for key, res in ordered.items()
        if canonical in res.outcomes
    }

    def eval_data(key: tuple[str, str]) -> LabeledDataset:
        if policy.eval_on == "full":
            county, hazard = key
            return make_labeled(by_county[county], hazard)
        return ordered[key].test

    transfer_summaries = []

    def emit(matrix, stem: str):
        path = transfer_dir / f"{stem}.csv"
        rpt.write_transfer_csv(path, matrix)
        track(path)
        path = transfer_dir / f"{stem}.svg"
        rpt.write_heatmap(path, matrix)
        track(path)
        transfer_summaries.append(
            {
                "axis": matrix.axis,
                "fixed": matrix.fixed_id,
                "baseline": matrix.baseline,
                "ids": list(matrix.ids),
                "delta": {f"{s}->{t}": v for (s, t), v in sorted(matrix.delta.items())},
                "transferable": {
                    f"{s}->{t}": v for (s, t), v in sorted(matrix.transferable.items())
                },
            }
        )

    for hazard in hazards:
        models = {c: rf_models[(c, h)] for (c, h) in rf_models if h == hazard}
        evals = {
            c: eval_data((c, h)) for (c, h) in ordered if h == hazard
        }
        if len(set(models) & set(evals)) < 2:
            continue
        outcome = cross_county(hazard, models, evals, policy, registry=counties)
        if policy.baseline == BASELINE_BOTH:
            for name, matrix in sorted(outcome.items()):
                emit(matrix, f"cross_county_{hazard}__{name}")
        else:
            emit(outcome, f"cross_county_{hazard}")

    for county in counties:
        models = {h: rf_models[(c, h)] for (c, h) in rf_models if c == county}
        evals = {h: eval_data((c, h)) for (c, h) in ordered if c == county}
        if len(set(models) & set(evals)) < 2:
            continue
        outcome = cross_hazard(county, models, evals, policy, registry=hazards)
        if policy.baseline == BASELINE_BOTH:
            for name, matrix in sorted(outcome.items()):
                emit(matrix, f"cross_hazard_{county}__{name}")
        else:
            emit(outcome, f"cross_hazard_{county}")

    # summary; out_dir and workers are execution details, not experiment
    # parameters, so they stay out of the echoed config (same seed =>
    # byte-identical summary regardless of worker count or location)
    config_echo = config.to_dict()
    del config_echo["out_dir"]
    del config_echo["workers"]
    summary = {
        "config": config_echo,
        "counties": list(counties),
        "hazards": list(hazards),
        "absent_pairs": [list(p) for p in absent],
        "failures": failures,
        "pairs": {
            f"{county}__{hazard}": {
                "labeled_n": res.labeled_n,
                "threshold": res.threshold,
                "train_n": res.train_n,
                "test_n": res.test_n,
                "importance_note": res.importance_note,
                "families": {
                    family: {
                        "best_params": outcome.best_params,
                        "f1": outcome.f1,
                        "fbeta": outcome.fbeta,
                        "confusion": list(outcome.cells),
                    }
                    for family, outcome in sorted(res.outcomes.items())
                },
            }
            for (county, hazard), res in ordered.items()
        },
        "comparison_mean_fbeta": comparison,
        "dispersion": {
            metric: {
                "avg_inter_county_std": s.avg_inter_county_std,
                "avg_inter_hazard_std": s.avg_inter_hazard_std,
                "per_hazard_std": s.per_hazard_std,
                "per_county_std": s.per_county_std,
            }
            for metric, s in dispersion.items()
        },
        "overall_importance": {
            hazard: {
                "top_features": [
                    overall.feature_names[j] for j in overall.top_features
                ],
                "overflow": overall.overflow,
                "scores": {
                    overall.feature_names[j]: float(overall.scores[j])
                    for j in overall.top_features
                },
            }
            for hazard, overall in sorted(overall_by_hazard.items())
        },
        "transfer": transfer_summaries,
    }
    path = out_dir / "summary.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", "utf-8")
    track(path)

    manifest = {rel: rpt.file_sha256(out_dir / rel) for rel in sorted(written)}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", "utf-8"
    )

    return RunReport(
        out_dir=str(out_dir),
        counties=counties,
        hazards=hazards,
        absent=absent,
        failures=failures,
        results=ordered,
        f1_tables=f1_tables,
        fbeta_tables=fbeta_tables,
        comparison=comparison,
        dispersion=dispersion,
        manifest=manifest,
        written=sorted(written),
    )


# -- recomputation from a finished run ----------------------------------------

def load_run_models(run_dir) -> dict[tuple[str, str, str], object]:
    """Deserialized models keyed (county, hazard, family)."""
    models = {}
    for path in sorted(Path(run_dir, "models").glob("*.json")):
        county, hazard, family = path.stem.split("__")
        models[(county, hazard, family)] = _model_from_json(
            family, path.read_text("utf-8")
        )
    return models


def load_run_summary(run_dir) -> dict:
    return json.loads(Path(run_dir, "summary.json").read_text("utf-8"))


def rebuild_eval_splits(run_dir) -> dict[tuple[str, str], LabeledDataset]:
    """Reconstruct every pair's transfer evaluation data from the recorded
    seeds: the held-out test split, or the full labeled dataset when the
    run evaluated transfers on full data."""
    summary = load_run_summary(run_dir)
    config = summary["config"]
    seed = config["seed"]
    eval_on = config["transfer"]["eval_on"]
    data_dir = Path(run_dir) / "data"
    if data_dir.is_dir():
        paths = sorted(data_dir.glob("*.csv"))
    else:
        paths = [Path(p) for p in config["counties"]]
    datasets = [load_county_csv(p) for p in paths]
    align_schemas(datasets)
    by_county = {d.county_id: d for d in datasets}
    splits = {}
    for key in summary["pairs"]:
        county, hazard = key.split("__")
        labeled = make_labeled(by_county[county], hazard)
        if eval_on == "full":
            splits[(county, hazard)] = labeled
            continue
        job_seed = child_seed(seed, "job", county, hazard)
        _, test = stratified_split(
            labeled,
            SplitSpec(
                train_fraction=config["split"]["train_fraction"],
                stratified=config["split"]["stratified"],
                seed=child_seed(job_seed, "split"),
            ),
        )
        splits[(county, hazard)] = test
    return splits
