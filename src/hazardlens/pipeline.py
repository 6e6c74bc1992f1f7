"""Config-driven orchestration: per-pair training, evaluation, and reports.

`run` executes the experiment graph as named stages, in this order:

1. `_prepare_datasets`: generate a synth study's scenario with
   `write_scenario`, then load the county CSVs that `study_inputs` names;
2. `_train`: one unit per (county, hazard, model family) - split, CV,
   refit, test metrics, the model's JSON text, a forest's importance and
   the pair's transfer evaluation set - inline or in a process pool, each
   pair's model texts written into `models/` once all its families succeed;
3. `_write_reports`: performance table, metric CSVs, model comparison,
   dispersion and the CV audit table;
4. `group_importance`, `write_importance`: forest importance, rankings;
5. `write_transfer`: cross-county and cross-hazard transfer matrices;
6. `_write_summary`, then the manifest: every file of the run's stage.

`write_scenario`, `importance_vectors`, `write_importance` and
`write_transfer` are also the whole implementation of the CLI's `synth`,
`importance` and `transfer` commands, which recompute from a finished run's
`models/` (`load_run_models`), its feature groups (`study_inputs`) and its
re-derived evaluation splits (`rebuild_eval_splits`). `study_inputs` is the
one place that maps a config to its county CSVs and groups, for `run` and
recompute alike. Unit seeds derive from (master seed, county, hazard), so
any worker count produces byte-identical output for the same seed.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import shutil
import tempfile
from collections.abc import Callable, Mapping
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import report as rpt
from .cart import TreeTable
from .dataset import (
    MISSING_FEATURE_POLICIES,
    CountyDataset,
    LabeledDataset,
    align_schemas,
    load_county_csv,
    make_labeled,
    write_county_csv,
)
from .errors import (
    AllZeroImportance,
    DimensionMismatch,
    HazardAbsent,
    HazardLensError,
    InvalidConfig,
)
from .forest import forest_from_json, forest_to_json
from .boosting import gbt_from_json, gbt_to_json
from .importance import (
    IMPORTANCE_MODES,
    WEIGHTED,
    ImportanceVector,
    OverallImportance,
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
    ScenarioSpec,
    build_scenario,
    generate_county,
    planted_oracle,
    synth6x3_feature_groups,
    synth6x3_specs,
)
from .transfer import (
    BASELINE_BOTH,
    TransferMatrix,
    TransferPolicy,
    cross_county,
    cross_hazard,
    score_table,
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
        for name in ("seed", "out_dir"):
            if getattr(self, name) in (None, ""):
                raise InvalidConfig(f"{name} is mandatory")
        # Types and finite numbers before ranges: a range check on a string
        # raises TypeError, a string of hazards would be read as single
        # letters, and NaN passes every comparison a range check makes.
        for f in fields(self):
            kind, value, key = _SCALARS.get(f.type), getattr(self, f.name), _JSON_KEYS[f.name]
            if kind is not None and not _has_type(value, kind[0]):
                raise InvalidConfig(f"{key} must be {kind[1]}, got {value!r}")
            try:  # json's rule: NaN and the infinities are no JSON numbers
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise InvalidConfig(f"{key} must hold finite numbers only, got {value!r}") from None
        if self.hazards is not None:
            if not isinstance(self.hazards, (list, tuple)) or set(map(type, self.hazards)) - {str}:
                raise InvalidConfig(f"hazards must be a list of hazard ids, got {self.hazards!r}")
            if not self.hazards:
                raise InvalidConfig("at least one hazard required")
            for hazard in self.hazards:
                _check_id("hazard", hazard)
        if self.synth is not None and not isinstance(self.synth, dict):
            raise InvalidConfig("synth must be a JSON object")
        if self.synth is not None and self.synth.get("preset") not in (None, *PRESETS):
            raise InvalidConfig(f"unknown synth preset {self.synth['preset']!r}")
        if not self.county_files and self.synth is None:
            raise InvalidConfig("either county_files or synth must be given")
        if self.county_files and self.synth is not None:
            raise InvalidConfig("county_files and synth are mutually exclusive")
        for path in self.county_files:
            if not Path(path).is_file():
                raise InvalidConfig(f"county file not found: {path}")
        if self.feature_groups is not None:
            read_feature_groups(self.feature_groups)
            if self.synth is not None:
                raise InvalidConfig(
                    "feature_groups and synth are mutually exclusive: a synthetic "
                    "scenario brings its own groups"
                )
        if not self.families:
            raise InvalidConfig("at least one model family required")
        for family in self.families:
            if family not in FAMILIES:
                raise InvalidConfig(f"unknown model family {family!r}")
        if self.importance_mode not in IMPORTANCE_MODES:
            raise InvalidConfig(f"unknown importance mode {self.importance_mode!r}")
        if self.missing_feature_policy not in MISSING_FEATURE_POLICIES:
            raise InvalidConfig(
                f"unknown missing feature policy {self.missing_feature_policy!r}"
            )
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")
        if self.top_k < 1:
            raise InvalidConfig("top_k must be >= 1")
        try:
            SplitSpec(train_fraction=self.train_fraction, stratified=self.stratified)
            for family, grid in (("forest", self.forest_grid), ("gbt", self.gbt_grid)):
                check_grid(family, grid)
                CvSpec(k=self.cv_k, grid=grid, beta=self.beta)
            self.policy  # TransferPolicy checks the transfer settings
        except ValueError as exc:
            raise InvalidConfig(str(exc)) from None
        if self.transfer_eval_on not in ("test", "full"):
            raise InvalidConfig("eval_on must be 'test' or 'full'")
        specs = []
        if self.synth is not None:
            # only the specs: generation waits for run()
            try:
                specs = scenario_specs(self.synth, self.seed)[0]
            except (TypeError, KeyError, ValueError, AttributeError, HazardLensError) as exc:
                raise InvalidConfig(f"malformed synth block: {exc!r}") from None
        for spec in specs:  # each names a generated CSV and its pairs
            _check_id("county", spec.county_id)
            for hazard in spec.hazards:
                _check_id("hazard", hazard, f"county {spec.county_id!r}: ")
        counties = [spec.county_id for spec in specs]
        for label, ids in (("hazards", self.hazards or []), ("families", self.families),
                           ("synth counties", counties)):
            repeated = sorted({repr(i) for i in ids if ids.count(i) > 1})
            if repeated:
                raise InvalidConfig(f"{label} lists {', '.join(repeated)} more than once")

    @property
    def policy(self) -> TransferPolicy:
        """The transfer policy these settings describe."""
        return TransferPolicy(
            threshold=self.transfer_threshold,
            beta=self.beta,
            baseline=self.transfer_baseline,
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """Config from its to_dict form; keys to_dict never emits are rejected.

        A key the config leaves out takes the setting of the synth preset it
        names, if that preset has one, else the field's default.
        """
        _reject_unknown_keys(raw, "", "config")
        for section in dict.fromkeys(k.split(".")[0] for k in _JSON_KEYS.values() if "." in k):
            _reject_unknown_keys(raw.get(section, {}), section + ".", section)
        synth = raw.get("synth")
        preset = PRESETS.get(str(synth.get("preset")), {}) if isinstance(synth, dict) else {}
        # a field left out everywhere keeps its default; seed and out_dir have
        # none, and None makes __post_init__ say they are mandatory
        values = {"seed": None, "out_dir": None}
        for name, key in _JSON_KEYS.items():
            if (value := _lookup(raw, key)) is not _LEFT_OUT:
                values[name] = value
            elif (value := _lookup(preset, key)) is not _LEFT_OUT:
                values[name] = copy.deepcopy(value)  # never share the preset's lists
        try:
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(str(exc)) from None

    def to_dict(self) -> dict:
        out: dict = {}
        for name, key in _JSON_KEYS.items():
            section, _, leaf = key.rpartition(".")
            (out.setdefault(section, {}) if section else out)[leaf] = getattr(self, name)
        return out


# Where each RunConfig field sits in the config's JSON form: "section.key",
# or a top-level key, under the field's own name unless listed here. to_dict
# writes this layout and from_dict reads only it.
_PLACED = {
    "county_files": "counties",
    "train_fraction": "split.train_fraction",
    "stratified": "split.stratified",
    "cv_k": "cv.k",
    "forest_grid": "cv.forest_grid",
    "gbt_grid": "cv.gbt_grid",
    "transfer_threshold": "transfer.threshold",
    "transfer_baseline": "transfer.baseline",
    "transfer_eval_on": "transfer.eval_on",
}
_JSON_KEYS = {f.name: _PLACED.get(f.name, f.name) for f in fields(RunConfig)}
_LEFT_OUT = object()


def _lookup(raw: dict, key: str):
    """The value at a field table key of a config's JSON form, or _LEFT_OUT."""
    section, _, leaf = key.rpartition(".")
    return (raw.get(section, {}) if section else raw).get(leaf, _LEFT_OUT)


# the scalar annotations __post_init__ checks: the type and how to name it
_SCALARS = {
    "int": (int, "an integer"), "float": (float, "a number"), "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


def _has_type(value, kind) -> bool:
    """isinstance for config scalars: a bool is only a bool, although Python
    counts it as an int, and a float setting also takes an int."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _reject_unknown_keys(section, prefix: str, label: str) -> None:
    """InvalidConfig unless `section` is a JSON object holding only keys the
    field table places under `prefix` ("" for the top level)."""
    if not isinstance(section, dict):
        raise InvalidConfig(f"{label} must be a JSON object")
    allowed = {
        key[len(prefix):].split(".")[0] for key in _JSON_KEYS.values() if key.startswith(prefix)
    }
    unknown = sorted(map(str, set(section) - allowed))
    if unknown:
        raise InvalidConfig(f"unknown {label} keys: {', '.join(unknown)}")


# Settings a synth preset supplies, in the config's JSON form, for the keys
# a config that names it leaves out. synth6x3 keeps ten folds but trims the
# grids so a full run stays in the minutes range; the library defaults stay
# untouched for real data.
PRESETS = {
    "synth6x3": {
        "cv": {
            "forest_grid": {"n_trees": [20], "max_depth": [None, 8], "min_samples_leaf": [1]},
            "gbt_grid": {
                "n_rounds": [15],
                "max_depth": [3],
                "learning_rate": [0.3],
                "l2_reg": [1.0],
            },
        },
    },
}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", "utf-8")


# -- stage 1: datasets ----------------------------------------------------------

def read_feature_groups(path) -> dict[str, str]:
    """A feature_groups file: one JSON object mapping feature names to group
    names. InvalidConfig when it is missing, not JSON or not such an object."""
    path = Path(path)
    if not path.is_file():
        raise InvalidConfig(f"feature groups file not found: {path}")
    try:
        groups = json.loads(path.read_text("utf-8-sig"))
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot read feature groups {path}: {exc}") from None
    if not isinstance(groups, dict) or not all(
        isinstance(group, str) for group in groups.values()
    ):
        raise InvalidConfig(
            f"feature groups {path} must be a JSON object mapping feature names "
            "to group names"
        )
    return groups


def scenario_specs(synth: dict, seed: int) -> tuple[list[ScenarioSpec], dict | None]:
    """County specs and feature groups of a config's `synth` block."""
    synth = dict(synth)
    preset = synth.pop("preset", None)
    synth_seed = child_seed(seed, "synth")
    if preset == "synth6x3":  # RunConfig and the CLI accept no other preset
        return synth6x3_specs(synth_seed, **synth), synth6x3_feature_groups()
    plans = [CountyPlan(**county) for county in synth.pop("counties")]
    return build_scenario(plans, seed=synth_seed, **synth), None


def write_scenario(specs: list[ScenarioSpec], groups: dict | None, out_dir: Path) -> None:
    """Generate every county into `<county>.csv` under out_dir, with the
    planted truth in `oracle.json` and the groups, if any, in
    `feature_groups.json`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    oracle = {}
    for spec in specs:
        county = generate_county(spec)
        write_county_csv(county, out_dir / f"{county.county_id}.csv")
        told = planted_oracle(spec)
        oracle[county.county_id] = {
            "informative": list(told.top_features),
            "per_hazard_informative": {
                h: list(s) for h, s in zip(spec.hazards, told.per_hazard_informative)
            },
            "law": spec.law,
            "coupling": spec.coupling,
        }
    for name, payload in (("oracle.json", oracle), ("feature_groups.json", groups)):
        if payload is not None:
            _write_json(out_dir / name, payload)


def study_inputs(config: RunConfig, run_dir) -> tuple[list, dict | None]:
    """A study's county CSVs and feature groups, by `config.synth` alone: a
    synth study's `<run_dir>/data/<county>.csv` per county of its specs and
    the specs' groups, or a CSV study's county files and groups file.
    InvalidConfig names a generated CSV that is missing."""
    if config.synth is None:
        groups = read_feature_groups(config.feature_groups) if config.feature_groups else None
        return config.county_files, groups
    specs, groups = scenario_specs(config.synth, config.seed)
    paths = [Path(run_dir, "data", f"{spec.county_id}.csv") for spec in specs]
    for path in paths:
        if not path.is_file():
            raise InvalidConfig(f"generated county file not found: {path}")
    return paths, groups


def _check_id(kind: str, value: str, where: str = "") -> None:
    """InvalidConfig, prefixed by `where`, when a county or hazard id is no
    string, holds a '/' (a county CSV's or a model's file name cannot), or
    could make two pairs share a name and model file: an id holding the '__'
    that joins a pair's county and hazard, or a hazard id starting with '_'."""
    if not isinstance(value, str):
        raise InvalidConfig(f"{where}{kind} id must be a string, got {value!r}")
    for part in ("__", "/"):
        if part in value:
            raise InvalidConfig(f"{where}{kind} id {value!r} must not contain {part!r}")
    if kind == "hazard" and value.startswith("_"):
        raise InvalidConfig(f"{where}hazard id {value!r} must not start with '_'")


def _load_counties(paths, missing_feature_policy: str) -> list[CountyDataset]:
    """Counties sorted by id, schemas aligned to the first one's order. Each
    file holds its own county, and every county and hazard id passes
    _check_id."""
    loaded = {}
    for path in paths:
        dataset = load_county_csv(path, missing_feature_policy=missing_feature_policy)
        county = dataset.county_id
        if county in loaded:
            raise InvalidConfig(f"{loaded[county][0]} and {path} are both county {county!r}")
        _check_id("county", county)
        for hazard in dataset.hazards:
            _check_id("hazard", hazard, f"county {county!r}: ")
        loaded[county] = path, dataset
    datasets = [loaded[county][1] for county in sorted(loaded)]
    align_schemas(datasets)
    return datasets


def _prepare_datasets(config: RunConfig, out_dir: Path) -> tuple[list[CountyDataset], dict | None]:
    """The study's counties and groups, a synth study generated first."""
    if config.synth is not None:
        write_scenario(*scenario_specs(config.synth, config.seed), out_dir / "data")
    paths, groups = study_inputs(config, out_dir)
    return _load_counties(paths, config.missing_feature_policy), groups


# -- stage 2: training units ------------------------------------------------------

@dataclass
class FamilyOutcome:
    best_params: dict
    cv_records: list
    f1: float
    fbeta: float
    cells: tuple[int, int, int, int]  # tp, fp, fn, tn
    model: object  # the canonical family's model routed by a TreeTable, else None
    model_json: str | None  # the model's file, serialized by the unit; None once written
    importance: ImportanceVector | str | None  # pair_importance of a forest


@dataclass
class JobResult:
    labeled_n: int
    threshold: float
    train_n: int
    test_n: int
    outcomes: dict[str, FamilyOutcome]
    evaluation: LabeledDataset  # the test split, or the whole labeled pair under eval_on "full"


def _pair_split(labeled: LabeledDataset, config: RunConfig, job_seed: int):
    return stratified_split(
        labeled,
        SplitSpec(
            train_fraction=config.train_fraction,
            stratified=config.stratified,
            seed=child_seed(job_seed, "split"),
        ),
    )


def execute_job(
    dataset: CountyDataset, hazard: str, config: RunConfig, family: str, job_seed: int
) -> JobResult:
    """Split, cross-validate, refit, score and serialize one family on one
    (county, hazard) pair, with a forest's importance; every family of a
    pair replays the same split. The trees are routed by a TreeTable, built
    once, and no node tree is returned."""
    labeled = make_labeled(dataset, hazard)
    train, test = _pair_split(labeled, config, job_seed)
    grid = config.forest_grid if family == "forest" else config.gbt_grid
    best, records = cross_validate(
        train,
        family,
        CvSpec(k=config.cv_k, grid=grid, beta=config.beta),
        seed=child_seed(job_seed, "cv", family),
    )
    train_fn, predict_fn, _ = FAMILIES[family]
    model = train_fn(train, best, child_seed(job_seed, "fit", family))
    nodes = "trees" if family == "forest" else "stages"
    routed = replace(model, **{nodes: TreeTable(getattr(model, nodes))})
    cells = confusion(test.labels, predict_fn(routed, test.features))
    # serialized in the unit, so the parent only writes the text; the names
    # are looked up per call because perfbench/spans.py replaces them
    to_json = forest_to_json if family == "forest" else gbt_to_json
    return JobResult(
        labeled_n=labeled.n,
        threshold=labeled.threshold,
        train_n=train.n,
        test_n=test.n,
        outcomes={
            family: FamilyOutcome(
                best_params=best,
                cv_records=records,
                f1=f_beta(cells, 1.0),
                fbeta=f_beta(cells, config.beta),
                cells=(cells.tp, cells.fp, cells.fn, cells.tn),
                model=routed if family == canonical_family(config.families) else None,
                model_json=to_json(model),
                importance=pair_importance(model, config.importance_mode)
                if family == "forest" else None,
            )
        },
        evaluation=labeled if config.transfer_eval_on == "full" else test,
    )


def _execute_unit(args):
    """One (pair, family) unit of work; a HazardLensError is returned, not raised.

    Any other error is a bug and still fails the run, as a RuntimeError whose
    text names the unit: a pool pickles only an exception's args, so the
    text carries the original type and message too."""
    try:
        return execute_job(*args)
    except HazardLensError as exc:
        return exc
    except Exception as exc:
        dataset, hazard, _, family, _ = args
        raise RuntimeError(
            f"unit {dataset.county_id}/{hazard}/{family} failed: {type(exc).__name__}: {exc}"
        ) from exc


def _train(
    config: RunConfig, datasets: list[CountyDataset], hazards: tuple[str, ...], models_dir: Path
) -> tuple[dict[tuple[str, str], JobResult], list[tuple[str, str]], list[dict]]:
    """Results by (county, hazard), absent pairs and failures, all sorted. The
    model texts of each pair whose families all succeed go into models_dir as
    the pair finishes, and its outcomes then drop them."""
    pairs = []
    absent: list[tuple[str, str]] = []
    for dataset in datasets:
        for hazard in hazards:
            key = (dataset.county_id, hazard)
            (pairs if hazard in dataset.hazards else absent).append(key)

    # The unit of work is one (pair, family), so even a single pair keeps
    # two workers busy. Results come back lazily, in unit order.
    by_county = {d.county_id: d for d in datasets}
    families = config.families
    units = [
        (by_county[county], hazard, config, family,
         child_seed(config.seed, "job", county, hazard))
        for county, hazard in pairs
        for family in families
    ]
    pool = None
    if config.workers > 1 and len(units) > 1:
        from concurrent.futures import ProcessPoolExecutor  # 2 MiB: only pool runs load it
        # a fork pool starts all max_workers processes at its first submit
        pool = ProcessPoolExecutor(max_workers=min(config.workers, len(units)))

    models_dir.mkdir(parents=True, exist_ok=True)
    results: dict[tuple[str, str], JobResult] = {}
    failures: list[dict] = []
    with pool or contextlib.nullcontext():
        done = (pool.map if pool else map)(_execute_unit, units)
        for county, hazard in pairs:
            parts = [next(done) for _ in families]
            # a pair fails with its first failing family in config order
            failed = next((p for p in parts if not isinstance(p, JobResult)), None)
            if failed is None:
                # the pair's outcomes are the union of its units', in config order
                for part in parts[1:]:
                    parts[0].outcomes.update(part.outcomes)
                for family, outcome in parts[0].outcomes.items():
                    path = models_dir / f"{county}__{hazard}__{family}.json"
                    path.write_text(outcome.model_json, "utf-8")
                    outcome.model_json = None
                results[(county, hazard)] = parts[0]
            elif isinstance(failed, HazardAbsent):
                absent.append((county, hazard))
            else:
                failures.append({"county": county, "hazard": hazard,
                                 "error": type(failed).__name__, "message": str(failed)})
    failures.sort(key=lambda f: (f["county"], f["hazard"]))
    return dict(sorted(results.items())), sorted(set(absent)), failures


# -- stage 3: per-pair reports ---------------------------------------------------

def canonical_family(families) -> str:
    """The family behind the performance table, dispersion and transfer."""
    return CANONICAL_FAMILY if CANONICAL_FAMILY in families else families[0]


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


def _write_reports(reports_dir: Path, config: RunConfig, counties, hazards, results):
    """Performance table, per-family metric CSVs, model comparison,
    dispersion and CV audit table; returns (f1 tables, F-beta tables,
    comparison, dispersion)."""
    reports_dir.mkdir(parents=True, exist_ok=True)
    f1_tables = {fam: MetricTable(counties, hazards) for fam in config.families}
    fbeta_tables = {fam: MetricTable(counties, hazards) for fam in config.families}
    train_size = MetricTable(counties, hazards)
    test_size = MetricTable(counties, hazards)
    for (county, hazard), res in results.items():
        train_size.set(county, hazard, res.train_n)
        test_size.set(county, hazard, res.test_n)
        for family, outcome in res.outcomes.items():
            f1_tables[family].set(county, hazard, outcome.f1)
            fbeta_tables[family].set(county, hazard, outcome.fbeta)

    canonical = canonical_family(config.families)
    rpt.write_performance_table(
        reports_dir / "performance.csv", counties, hazards, train_size, test_size,
        f1_tables[canonical], fbeta_tables[canonical], config.beta,
    )
    for family in config.families:
        for metric, table in (("f1", f1_tables[family]), ("fbeta", fbeta_tables[family])):
            rpt.write_metric_csv(reports_dir / f"metrics_{family}_{metric}.csv", table, metric)

    comparison = compare_models(fbeta_tables, hazards)
    rpt.write_model_comparison(
        reports_dir / "model_comparison.csv", hazards, comparison, config.beta
    )

    # dispersion of the canonical family's scores
    dispersion = {}
    if results:
        dispersion = {
            "f1": dispersion_summary(f1_tables[canonical]),
            f"fbeta{config.beta:g}": dispersion_summary(fbeta_tables[canonical]),
        }
        _write_json(reports_dir / "dispersion.json", {m: asdict(s) for m, s in dispersion.items()})

    cv_rows = [
        [county, hazard, family, json.dumps(rec.params, sort_keys=True),
         str(rec.fold), repr(rec.score)]
        for (county, hazard), res in results.items()
        for family in sorted(res.outcomes)
        for rec in res.outcomes[family].cv_records
    ]
    header = ["county", "hazard", "family", "params", "fold", "score"]
    rpt.write_rows(reports_dir / "cv_table.csv", header, cv_rows)
    return f1_tables, fbeta_tables, comparison, dispersion


# -- stages 4 and 5: importance and transfer (shared with the CLI) ---------------

def pair_importance(forest, mode: str) -> ImportanceVector | str:
    """A node forest's normalized importance, or the AllZeroImportance text
    saying why it has none."""
    try:
        return normalize(forest_importance(forest, mode))
    except AllZeroImportance as exc:
        return str(exc)


def group_importance(found: dict[tuple[str, str], ImportanceVector | str]) -> tuple[dict, dict]:
    """pair_importance results keyed (county, hazard) as hazard -> county ->
    vector in that order, and by pair the text of each forest left out."""
    vectors, notes = {}, {}
    for county, hazard in sorted(found, key=lambda pair: pair[::-1]):
        if isinstance(found[county, hazard], str):
            notes[county, hazard] = found[county, hazard]
        else:
            vectors.setdefault(hazard, {})[county] = found[county, hazard]
    return vectors, notes


def importance_vectors(forests: Mapping[tuple[str, str], object], mode: str) -> tuple[dict, dict]:
    """group_importance of forests keyed (county, hazard), taken one at a time."""
    return group_importance({key: pair_importance(forests[key], mode) for key in forests})


def write_importance(
    out_dir: Path,
    vectors: dict[str, dict[str, ImportanceVector]],
    top_k: int,
    groups: dict | None,
) -> dict[str, OverallImportance]:
    """Per hazard, each county's normalized importance and the cross-county
    rank-sum ranking (returned), and with groups the top features' rollup,
    into the existing out_dir. `vectors` maps hazard -> county -> vector."""
    overall_by_hazard = {}
    for hazard, by_county in sorted(vectors.items()):
        rpt.write_importance_csv(out_dir / f"importance_{hazard}.csv", by_county)
        overall = overall_importance(by_county, top_k)
        rpt.write_overall_csv(out_dir / f"overall_importance_{hazard}.csv", overall)
        overall_by_hazard[hazard] = overall
    if groups and overall_by_hazard:
        rpt.write_group_rollup(out_dir / "feature_group_rollup.csv", overall_by_hazard, groups)
    return overall_by_hazard


def write_transfer(
    out_dir: Path,
    models: Mapping[tuple[str, str], object],
    evals: dict[tuple[str, str], LabeledDataset],
    counties: tuple[str, ...],
    hazards: tuple[str, ...],
    policy: TransferPolicy,
) -> list[TransferMatrix]:
    """Cross-county matrices per hazard, then cross-hazard matrices per
    county, each as `<stem>.csv` and `<stem>.svg` under out_dir, all from
    one score_table of both mappings, keyed (county, hazard). An axis of
    fewer than two scored pairs is skipped; one of two feature counts is a
    DimensionMismatch. Returns the matrices in the order written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    scores = score_table(models, evals, policy.beta)
    scored = sorted({src for src, _ in scores})
    matrices = []

    def axis(kind: str, fixed: str, side: int, ids):
        keys = [key for key in scored if key[1 - side] == fixed]
        if len(keys) < 2:
            return
        if len({evals[key].features.shape[1] for key in keys}) > 1:
            raise DimensionMismatch(f"evaluation sets over {kind[6:]} differ in feature count")
        compute = cross_county if kind == "cross_county" else cross_hazard
        outcome = compute(fixed, ids, scores, policy)
        if policy.baseline != BASELINE_BOTH:
            outcome = {None: outcome}
        for name, matrix in sorted(outcome.items()):
            stem = f"{kind}_{fixed}" if name is None else f"{kind}_{fixed}__{name}"
            rpt.write_transfer_csv(out_dir / f"{stem}.csv", matrix)
            rpt.write_heatmap(out_dir / f"{stem}.svg", matrix)
            matrices.append(matrix)

    for hazard in hazards:
        axis("cross_county", hazard, 0, counties)
    for county in counties:
        axis("cross_hazard", county, 1, hazards)
    return matrices


# -- stage 6 and the run ------------------------------------------------------------

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


def _write_summary(
    path: Path,
    config: RunConfig,
    report: RunReport,
    notes: dict[tuple[str, str], str],
    overall_by_hazard: dict[str, OverallImportance],
    matrices: list[TransferMatrix],
) -> None:
    # out_dir and workers are execution details, not experiment parameters,
    # so they stay out of the echoed config (same seed => byte-identical
    # summary regardless of worker count or location)
    config_echo = config.to_dict()
    del config_echo["out_dir"]
    del config_echo["workers"]
    summary = {
        "config": config_echo,
        "counties": list(report.counties),
        "hazards": list(report.hazards),
        "absent_pairs": [list(p) for p in report.absent],
        "failures": report.failures,
        "pairs": {
            f"{county}__{hazard}": {
                "labeled_n": res.labeled_n,
                "threshold": res.threshold,
                "train_n": res.train_n,
                "test_n": res.test_n,
                "importance_note": notes.get((county, hazard)),
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
            for (county, hazard), res in report.results.items()
        },
        "comparison_mean_fbeta": report.comparison,
        "dispersion": {
            metric: {k: v for k, v in asdict(s).items() if not k.endswith("_mean")}
            for metric, s in report.dispersion.items()
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
        "transfer": [
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
            for matrix in matrices
        ],
    }
    _write_json(path, summary)


def _listing(root: Path) -> list[str]:
    """Every file under root, as sorted relative POSIX paths."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def publish(out_dir, write) -> tuple[object, list[str]]:
    """Run `write(stage)` in a new directory in out_dir's nearest existing
    parent, then move all it made into out_dir (made even if empty). Returns
    write's result and the sorted relative file paths; a failed write changes nothing."""
    out_dir = Path(out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise InvalidConfig(f"output directory {out_dir} is not a directory")
    base = next(p for p in out_dir.absolute().parents if p.is_dir())
    stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}-", dir=base))
    try:
        result = write(stage)
        written = _listing(stage)
        # moved, not renamed: mkdtemp makes the stage itself 0700
        for rel in [".", *(p.relative_to(stage) for p in stage.rglob("*") if p.is_dir())]:
            (out_dir / rel).mkdir(parents=True, exist_ok=True)
        for rel in written:
            os.replace(stage / rel, out_dir / rel)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return result, written


def run(config: RunConfig) -> RunReport:
    """Execute the experiment graph the config describes and `publish` it, then
    delete the files out_dir's previous manifest listed that it neither wrote nor read."""
    out_dir = Path(config.out_dir)
    try:  # only a JSON object has keys
        stale = set(json.loads((out_dir / "manifest.json").read_text("utf-8")).keys())
    except (OSError, ValueError, AttributeError):
        stale = set()
    report, written = publish(out_dir, lambda stage: _run_stages(config, stage))
    inputs = {Path(p).resolve() for p in [*config.county_files, config.feature_groups] if p}
    for path in {(out_dir / rel).resolve() for rel in stale - set(written)} - inputs:
        if out_dir.resolve() in path.parents and path.is_file():
            path.unlink()
    return report


def _run_stages(config: RunConfig, out_dir: Path) -> RunReport:
    """Every stage of `run`, writing into out_dir, the manifest last."""
    datasets, groups = _prepare_datasets(config, out_dir)
    counties = tuple(d.county_id for d in datasets)
    if config.hazards is not None:
        hazards = tuple(config.hazards)
    else:
        hazards = tuple(sorted({h for d in datasets for h in d.hazards}))

    results, absent, failures = _train(config, datasets, hazards, out_dir / "models")
    f1_tables, fbeta_tables, comparison, dispersion = _write_reports(
        out_dir / "reports", config, counties, hazards, results
    )

    # importance (forest) from the units, transfer (canonical family) by their tables
    vectors, notes = group_importance({key: res.outcomes["forest"].importance
                                       for key, res in results.items() if "forest" in res.outcomes})
    overall_by_hazard = write_importance(out_dir / "reports", vectors, config.top_k, groups)
    canonical = canonical_family(config.families)
    matrices = write_transfer(
        out_dir / "transfer",
        {key: res.outcomes[canonical].model for key, res in results.items()},
        {key: res.evaluation for key, res in results.items()},
        counties,
        hazards,
        config.policy,
    )

    report = RunReport(
        out_dir=str(Path(config.out_dir)),
        counties=counties,
        hazards=hazards,
        absent=absent,
        failures=failures,
        results=results,
        f1_tables=f1_tables,
        fbeta_tables=fbeta_tables,
        comparison=comparison,
        dispersion=dispersion,
        manifest={},
    )
    _write_summary(out_dir / "summary.json", config, report, notes, overall_by_hazard, matrices)
    report.manifest = {rel: rpt.file_sha256(out_dir / rel) for rel in _listing(out_dir)}
    _write_json(out_dir / "manifest.json", report.manifest)
    return report


# -- recomputation from a finished run ----------------------------------------

@dataclass(frozen=True)
class _ModelFiles(Mapping):
    """Model files keyed (county, hazard), parsed on each access, never kept."""

    paths: dict[tuple[str, str], Path]
    from_json: Callable[[str], object]

    def __getitem__(self, key):
        path = self.paths[key]
        try:
            return self.from_json(path.read_text("utf-8"))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise InvalidConfig(f"cannot read model {path}: {exc}") from None

    def __iter__(self):
        return iter(self.paths)

    def __len__(self):
        return len(self.paths)


def load_run_models(run_dir, summary: dict, family: str) -> Mapping[tuple[str, str], object]:
    """The run's models of one family, keyed (county, hazard): the file of
    every pair in its summary, parsed on each access, so a reader taking one
    at a time holds one. InvalidConfig names a missing file at once, and one
    that is not a model of the family on access."""
    paths = {(c, h): Path(run_dir, "models", f"{c}__{h}__{family}.json")
             for c, h in summary["pairs"]}
    for path in paths.values():
        if not path.is_file():
            raise InvalidConfig(f"cannot read model {path}: no such file")
    return _ModelFiles(paths, forest_from_json if family == "forest" else gbt_from_json)


def load_finished_run(run_dir) -> tuple[dict, RunConfig]:
    """A finished run's summary.json, an object whose pairs, named
    `<county>__<hazard>` over its lists of distinct counties and hazards (a
    county the study loads), come back keyed (county, hazard); and the config
    it echoed there, checked as any config is (InvalidConfig when, say, a
    county file has moved since). The echo leaves out out_dir and workers;
    out_dir becomes the run directory.

    A relative county or feature groups path that is missing from the
    current directory is looked up against the run directory and then each
    of its parents, nearest first, so a run recomputes from any directory."""
    path = Path(run_dir, "summary.json")
    if not path.is_file():
        raise InvalidConfig(f"{run_dir} is not a finished run: no summary.json")
    try:
        summary = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot read run summary {path}: {exc}") from None
    if not isinstance(summary, dict) or not {"pairs", "counties", "hazards"} <= summary.keys():
        raise InvalidConfig(f"run summary {path} is not an object with pairs, counties, hazards")
    counties, hazards, pairs = summary["counties"], summary["hazards"], summary["pairs"]
    if any(not isinstance(ids, list) or set(map(type, ids)) - {str} or len(set(ids)) < len(ids)
           for ids in (counties, hazards)):
        raise InvalidConfig(f"run summary {path}: counties and hazards must be distinct-id lists")
    if not isinstance(pairs, dict) or not isinstance(summary.get("config", {}), dict):
        raise InvalidConfig(f"run summary {path}: pairs and config must be JSON objects")
    raw = {**summary.get("config", {}), "out_dir": str(run_dir)}
    run_dir = Path(run_dir).resolve()
    bases = (run_dir, *run_dir.parents)
    if isinstance(raw.get("counties"), list):
        raw["counties"] = [_locate(p, bases, "county file") for p in raw["counties"]]
    if raw.get("feature_groups") is not None:
        raw["feature_groups"] = _locate(raw["feature_groups"], bases, "feature groups file")
    config = RunConfig.from_dict(raw)
    loaded = {Path(p).name.removesuffix(".csv") for p in study_inputs(config, run_dir)[0]}
    keys = {f"{c}__{h}": (c, h) for c in counties for h in hazards}
    for pair in pairs:
        if pair not in keys:
            raise InvalidConfig(f"run summary {path}: pair {pair!r} is no listed county__hazard")
        if keys[pair][0] not in loaded:
            raise InvalidConfig(f"run summary {path}: the study loads no county of pair {pair!r}")
    return {**summary, "pairs": {keys[pair]: record for pair, record in pairs.items()}}, config


def _locate(path, bases, label: str):
    """`path` itself when it is absolute or a file from here, else the first
    `base / path` that is a file; InvalidConfig naming every path tried."""
    if not isinstance(path, str) or Path(path).is_absolute() or Path(path).is_file():
        return path
    tried = [Path(path), *(base / path for base in bases)]
    for candidate in tried[1:]:
        if candidate.is_file():
            return str(candidate)
    raise InvalidConfig(f"{label} not found: {path} (tried {', '.join(map(str, tried))})")


def rebuild_eval_splits(
    run_dir, summary: dict, config: RunConfig
) -> dict[tuple[str, str], LabeledDataset]:
    """Reconstruct every pair's transfer evaluation data from the recorded
    seeds: the held-out test split, or the full labeled dataset when the
    run evaluated transfers on full data. The CSVs `study_inputs` names are
    read under the run's missing-value policy."""
    paths, _ = study_inputs(config, run_dir)
    by_county = {
        d.county_id: d for d in _load_counties(paths, config.missing_feature_policy)
    }
    splits = {}
    for county, hazard in summary["pairs"]:
        labeled = make_labeled(by_county[county], hazard)
        if config.transfer_eval_on == "full":
            splits[(county, hazard)] = labeled
            continue
        job_seed = child_seed(config.seed, "job", county, hazard)
        _, splits[(county, hazard)] = _pair_split(labeled, config, job_seed)
    return splits
