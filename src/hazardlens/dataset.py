"""Domain types, CSV ingestion, and mean-threshold risk labeling.

The ingestion contract is deliberately narrow: UTF-8 CSV with a header row,
a mandatory ``tract_id`` column, hazard exposure columns named
``hazard__<id>``, and every remaining column treated as a numeric feature.
Exposure vectors are binarized at the county mean: strictly above the mean
is high-risk, everything else (ties included) is low-risk.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateLabels,
    DuplicateTract,
    HazardAbsent,
    InvalidConfig,
    MissingColumn,
    NoEntries,
    NonFiniteValue,
    NonNumericCell,
    SchemaMismatch,
)

LOW = 0
HIGH = 1

HAZARD_PREFIX = "hazard__"
TRACT_COLUMN = "tract_id"
MISSING_FEATURE_POLICIES = ("error", "impute_median")
# Data rows parsed per block. On a 2-CPU machine (Python 3.11), loading one
# 1,500-row, 37-column county adds 0.9 / 1.2 / 1.5 / 2.3 / 4.3 MiB to peak RSS
# at 32 / 64 / 128 / 256 / 512 rows per block and 5.3 MiB as one block, in
# 31-39 ms at every size.
BLOCK_ROWS = 128


@dataclass(frozen=True)
class FeatureSchema:
    """Canonical ordered feature list shared by every county in a run."""

    feature_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.feature_names)
        object.__setattr__(self, "feature_names", names)
        if len(names) < 2:
            raise SchemaMismatch(f"need at least 2 features, got {len(names)}")
        if len(set(names)) != len(names):
            raise SchemaMismatch("feature names must be unique")

    @property
    def feature_count(self) -> int:
        return len(self.feature_names)


@dataclass
class CountyDataset:
    """One county's tract-level feature matrix and raw hazard exposures.

    ``hazards`` maps hazard id to an exposure vector aligned with the rows;
    NaN entries mark tracts with no recorded exposure for that hazard, and
    a missing key marks a hazard with no data for the county at all.
    Instances are treated as read-only once a run's schemas are aligned.
    """

    county_id: str
    schema: FeatureSchema
    tract_ids: tuple[str, ...]
    features: np.ndarray
    hazards: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.tract_ids = tuple(self.tract_ids)
        self.features = np.asarray(self.features, dtype=np.float64)
        n = len(self.tract_ids)
        if self.features.shape != (n, self.schema.feature_count):
            raise SchemaMismatch(
                f"county {self.county_id!r}: feature matrix shape {self.features.shape} "
                f"does not match {n} tracts x {self.schema.feature_count} features"
            )
        if len(set(self.tract_ids)) != n:
            raise DuplicateTract(f"duplicate tract_id in county {self.county_id!r}")
        for hazard_id, values in self.hazards.items():
            values = np.asarray(values, dtype=np.float64)
            if values.shape != (n,):
                raise SchemaMismatch(
                    f"county {self.county_id!r}: hazard {hazard_id!r} has "
                    f"{values.shape[0]} values for {n} tracts"
                )
            self.hazards[hazard_id] = values

    @property
    def n(self) -> int:
        return len(self.tract_ids)

    def hazard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.hazards))


@dataclass
class LabeledDataset:
    """Feature matrix plus high/low labels for one (county, hazard) pair,
    its rows in tract id order whatever order they are given in."""

    county_id: str
    hazard_id: str
    schema: FeatureSchema
    tract_ids: tuple[str, ...]
    features: np.ndarray
    labels: np.ndarray
    threshold: float

    def __post_init__(self):
        ids = self.tract_ids = tuple(self.tract_ids)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if not len(ids) == self.labels.shape[0] == self.features.shape[0]:
            raise SchemaMismatch("tract ids, labels and features disagree on row count")
        if list(ids) != sorted(ids):  # rows already in order stay uncopied
            order = np.argsort(np.asarray(ids, dtype=object), kind="stable")
            self.tract_ids = tuple(ids[i] for i in order)
            self.features, self.labels = self.features[order], self.labels[order]

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def class_counts(self) -> tuple[int, int]:
        """(low, high) label counts."""
        high = int(np.sum(self.labels == HIGH))
        return self.n - high, high

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        """Row subset, in tract id order whatever the order of `indices`."""
        indices = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(
            county_id=self.county_id,
            hazard_id=self.hazard_id,
            schema=self.schema,
            tract_ids=tuple(self.tract_ids[i] for i in indices),
            features=self.features[indices],
            labels=self.labels[indices],
            threshold=self.threshold,
        )


def binarize(exposure) -> tuple[np.ndarray, float]:
    """Split an exposure vector at its arithmetic mean.

    Returns (labels, threshold) where a label is HIGH iff the value is
    strictly greater than the mean; ties at the mean go to LOW.
    """
    values = np.asarray(exposure, dtype=np.float64)
    if values.size == 0:
        raise NoEntries("cannot binarize an empty exposure vector")
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise NonFiniteValue(f"non-finite exposure at row {bad}")
    with np.errstate(over="ignore", invalid="ignore"):
        threshold = float(np.mean(values))
    if not np.isfinite(threshold):  # the sum overflowed: scale before summing
        threshold = float(np.sum(values / values.size))
    labels = np.where(values > threshold, HIGH, LOW).astype(np.int64)
    return labels, threshold


def make_labeled(dataset: CountyDataset, hazard_id: str) -> LabeledDataset:
    """Binarize one hazard of a county into a LabeledDataset.

    Rows whose exposure for this hazard is NaN are dropped, for this hazard
    only. Raises HazardAbsent when the county has no data for the hazard,
    and DegenerateLabels when binarization leaves a single class.
    """
    if hazard_id not in dataset.hazards:
        raise HazardAbsent(
            f"hazard {hazard_id!r} absent in county {dataset.county_id!r}"
        )
    exposure = dataset.hazards[hazard_id]
    # binarize in the LabeledDataset's tract id order: np.mean's sum depends on order
    idx = np.argsort(np.asarray(dataset.tract_ids, dtype=object), kind="stable")
    idx = idx[np.isfinite(exposure[idx])]
    if idx.size == 0:
        raise HazardAbsent(
            f"hazard {hazard_id!r} has no recorded values in county "
            f"{dataset.county_id!r}"
        )
    labels, threshold = binarize(exposure[idx])
    n_high = int(np.sum(labels == HIGH))
    if n_high == 0 or n_high == labels.size:
        raise DegenerateLabels(
            f"county {dataset.county_id!r} hazard {hazard_id!r}: all labels "
            f"{'high' if n_high else 'low'} (threshold {threshold})"
        )
    return LabeledDataset(
        county_id=dataset.county_id,
        hazard_id=hazard_id,
        schema=dataset.schema,
        tract_ids=tuple(dataset.tract_ids[i] for i in idx),
        features=dataset.features[idx],
        labels=labels,
        threshold=threshold,
    )


def _parse_columns(rows, width, feature_cols, hazard_cols, missing_feature_policy):
    """(features, hazards), each column parsed with one float() list; a
    blank hazard cell is NaN, and so is a blank feature cell under the
    impute_median policy. None when a row has other than `width` cells or any
    other cell is not a finite number: _raise_first_bad_cell reports it."""
    if any(len(row) != width for row in rows):
        return None
    blank_features_ok = missing_feature_policy == "impute_median"
    features = np.empty((len(rows), len(feature_cols)), dtype=np.float64)
    hazards = {hid: np.empty(len(rows), dtype=np.float64) for hid, _ in hazard_cols}
    columns = [(features[:, j], pos, blank_features_ok) for j, (_, pos) in enumerate(feature_cols)]
    columns += [(hazards[hid], pos, True) for hid, pos in hazard_cols]
    for column, pos, blank_ok in columns:
        try:
            column[:] = [float(row[pos].strip() or "nan") for row in rows]
        except ValueError:
            return None
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size and (not blank_ok or any(rows[r][pos].strip() for r in bad)):
            return None
    return features, hazards


def _raise_first_bad_cell(path, rows, first, header, feature_cols, hazard_cols, missing_feature_policy):
    """Raise for the first cell, in row-major order, that made
    _parse_columns reject a block whose first row is data row `first`."""
    strict = missing_feature_policy == "error"
    columns = [(name, pos, strict) for name, pos in feature_cols]
    columns += [(header[pos], pos, False) for _, pos in hazard_cols]
    for r, row in enumerate(rows, first):
        if len(row) != len(header):
            raise MissingColumn(
                f"{path}: row {r} has {len(row)} cells, header has {len(header)}"
            )
        for name, pos, blank_is_bad in columns:
            raw = row[pos].strip()
            if not raw:
                if blank_is_bad:
                    raise NonNumericCell(
                        f"empty feature cell at row {r}, column {name!r} "
                        "(strict missing-value policy)"
                    )
                continue
            try:
                problem = None if math.isfinite(float(raw)) else "not finite"
            except ValueError:
                problem = "not numeric"
            if problem:
                raise NonNumericCell(f"cell {raw!r} at row {r}, column {name!r} is {problem}")


def load_county_csv(path, missing_feature_policy: str = "error") -> CountyDataset:
    """Read one county CSV into a CountyDataset named after its file.

    Columns prefixed ``hazard__`` are exposures, ``tract_id`` is the key,
    everything else is a feature, read in file order; a header naming a
    column twice is a SchemaMismatch. Empty hazard cells mean "no exposure
    recorded". Empty feature cells are an error under the default strict
    policy; the opt-in "impute_median" policy fills them with the column
    median instead. A file that is not UTF-8 (a leading byte-order mark is
    skipped) or that the csv module cannot split is an InvalidConfig naming it.

    Data rows are parsed in blocks of BLOCK_ROWS, so only one block's cells
    are alive as strings at a time.
    """
    path = str(path)
    county_id = path.rsplit("/", 1)[-1]
    county_id = county_id[:-4] if county_id.endswith(".csv") else county_id
    if missing_feature_policy not in MISSING_FEATURE_POLICIES:
        raise ValueError(f"unknown missing feature policy {missing_feature_policy!r}")

    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise MissingColumn(f"{path}: file is empty, no header row") from None
            repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
            if repeated is not None:
                raise SchemaMismatch(f"{path}: column {repeated!r} is named twice")
            if TRACT_COLUMN not in header:
                raise MissingColumn(f"{path}: mandatory column {TRACT_COLUMN!r} missing")
            tract_pos = header.index(TRACT_COLUMN)
            hazard_cols = [
                (name[len(HAZARD_PREFIX):], i)
                for i, name in enumerate(header)
                if name.startswith(HAZARD_PREFIX)
            ]
            feature_cols = [
                (name, i)
                for i, name in enumerate(header)
                if i != tract_pos and not name.startswith(HAZARD_PREFIX)
            ]
            blocks, tract_ids = [], []
            for first in itertools.count(0, BLOCK_ROWS):
                rows = list(itertools.islice(reader, BLOCK_ROWS))
                parsed = _parse_columns(
                    rows, len(header), feature_cols, hazard_cols, missing_feature_policy
                )
                if parsed is None:
                    _raise_first_bad_cell(
                        path, rows, first, header, feature_cols, hazard_cols,
                        missing_feature_policy,
                    )
                blocks.append(parsed)
                tract_ids += [row[tract_pos] for row in rows]
                if len(rows) < BLOCK_ROWS:  # the last block, empty when the file has no data rows
                    break
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InvalidConfig(f"cannot read county file {path}: {exc}") from None
    features = np.concatenate([block[0] for block in blocks])
    hazards = {hid: np.concatenate([block[1][hid] for block in blocks]) for hid, _ in hazard_cols}

    if len(set(tract_ids)) != len(tract_ids):
        seen = set()
        dup = next(t for t in tract_ids if t in seen or seen.add(t))
        raise DuplicateTract(f"{path}: tract_id {dup!r} appears more than once")

    if missing_feature_policy == "impute_median":
        for j in range(features.shape[1]):
            col = features[:, j]
            mask = np.isnan(col)
            if mask.any():
                finite = col[~mask]
                if finite.size == 0:
                    raise NonNumericCell(
                        f"feature column {feature_cols[j][0]!r} has no values to "
                        "impute from"
                    )
                with np.errstate(over="ignore", invalid="ignore"):
                    median = np.median(finite)
                if not np.isfinite(median):
                    # the two middle values sum past the float limit: halve
                    # each first, as cart.split_threshold does
                    k = finite.size // 2
                    a, b = np.partition(finite, (k - 1, k))[k - 1:k + 1]
                    median = a / 2.0 + b / 2.0
                col[mask] = median

    return CountyDataset(
        county_id=county_id,
        schema=FeatureSchema(tuple(name for name, _ in feature_cols)),
        tract_ids=tuple(tract_ids),
        features=features,
        hazards=hazards,
    )


def write_county_csv(dataset: CountyDataset, path) -> None:
    """Write a CountyDataset back to the standard CSV layout.

    Floats use repr formatting, so load -> write -> load round-trips
    byte-identically. NaN hazard entries become empty cells.
    """
    header = [TRACT_COLUMN, *dataset.schema.feature_names]
    hazard_ids = dataset.hazard_ids()
    header += [HAZARD_PREFIX + hid for hid in hazard_ids]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for r in range(dataset.n):
            row = [dataset.tract_ids[r]]
            row += [repr(float(v)) for v in dataset.features[r]]
            for hid in hazard_ids:
                value = dataset.hazards[hid][r]
                row.append("" if math.isnan(value) else repr(float(value)))
            writer.writerow(row)


def align_schemas(datasets: list[CountyDataset]) -> FeatureSchema:
    """Reconcile county schemas to one canonical ordered feature list.

    The first dataset's order is canonical. Counties listing the same
    feature names in a different order are permuted in place to match;
    any difference in the name sets raises SchemaMismatch naming the
    offending county and column.
    """
    if not datasets:
        raise SchemaMismatch("no datasets to align")
    canonical = datasets[0].schema
    canon_names = canonical.feature_names
    canon_set = set(canon_names)
    for dataset in datasets[1:]:
        names = dataset.schema.feature_names
        if names == canon_names:
            continue
        name_set = set(names)
        missing = canon_set - name_set
        if missing:
            raise SchemaMismatch(
                f"county {dataset.county_id!r} lacks feature "
                f"{sorted(missing)[0]!r}"
            )
        extra = name_set - canon_set
        if extra:
            raise SchemaMismatch(
                f"county {dataset.county_id!r} has unknown feature "
                f"{sorted(extra)[0]!r}"
            )
        order = [names.index(name) for name in canon_names]
        dataset.features = dataset.features[:, order]
        dataset.schema = canonical
    return canonical
