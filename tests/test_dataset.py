import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hazardlens import dataset as dataset_module
from hazardlens.dataset import (
    BLOCK_ROWS,
    HIGH,
    LOW,
    CountyDataset,
    FeatureSchema,
    LabeledDataset,
    align_schemas,
    binarize,
    load_county_csv,
    make_labeled,
    write_county_csv,
)
from hazardlens.errors import (
    DegenerateLabels,
    DuplicateTract,
    HazardAbsent,
    HazardLensError,
    MissingColumn,
    NoEntries,
    NonFiniteValue,
    NonNumericCell,
    SchemaMismatch,
)

from oracles import load_county_whole_file


def write_csv(path, text):
    path.write_text(text, "utf-8")
    return path


def test_binarize_strict_greater_than_mean():
    labels, threshold = binarize([1.0, 2.0, 3.0])
    assert threshold == 2.0
    assert labels.tolist() == [LOW, LOW, HIGH]  # 2 is not > mean


def test_binarize_constant_vector_all_low():
    labels, threshold = binarize([5.0, 5.0, 5.0])
    assert threshold == 5.0
    assert labels.tolist() == [LOW, LOW, LOW]


def test_binarize_two_point():
    labels, threshold = binarize([0.0, 10.0])
    assert threshold == 5.0
    assert labels.tolist() == [LOW, HIGH]


def test_binarize_errors():
    with pytest.raises(NoEntries):
        binarize([])
    with pytest.raises(NonFiniteValue):
        binarize([1.0, float("nan"), 2.0])
    with pytest.raises(NonFiniteValue):
        binarize([1.0, float("inf")])


@pytest.mark.parametrize(
    "values", [[1e308, 1e308, -1e308, -1e308], [1.7e308, -1e308, 1.5e308, -1.7e308, 1e308]]
)
def test_binarize_near_the_float_limit_splits_at_a_finite_mean(values):
    # the plain mean's sum overflows: its threshold was inf or nan, and
    # every label low
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        labels, threshold = binarize(values)
    assert np.isfinite(threshold)
    assert labels.tolist() == [HIGH if v > 0.0 else LOW for v in values]


def test_binarize_scale_covariance(rng):
    # affine maps with positive slope leave the labels unchanged
    for _ in range(30):
        values = rng.normal(size=rng.integers(2, 40))
        a = float(rng.uniform(0.1, 9.0))
        b = float(rng.normal() * 10)
        base, _ = binarize(values)
        mapped, _ = binarize(a * values + b)
        assert base.tolist() == mapped.tolist()


def test_label_counts_partition(rng):
    for _ in range(20):
        values = rng.normal(size=rng.integers(2, 50))
        labels, _ = binarize(values)
        n_high = int(np.sum(labels == HIGH))
        n_low = int(np.sum(labels == LOW))
        assert n_high + n_low == values.size


SMALL_CSV = """tract_id,Income,Density,hazard__heat
t1,50.0,1.5,3.0
t2,60.0,2.5,1.0
t3,70.0,3.5,5.0
"""


def test_load_small_file(tmp_path):
    path = write_csv(tmp_path / "alpha.csv", SMALL_CSV)
    ds = load_county_csv(path)
    assert ds.county_id == "alpha"
    assert ds.n == 3
    assert ds.schema.feature_names == ("Income", "Density")
    assert ds.hazard_ids() == ("heat",)
    assert ds.hazards["heat"].tolist() == [3.0, 1.0, 5.0]
    assert ds.features[1].tolist() == [60.0, 2.5]


def test_load_missing_tract_column(tmp_path):
    path = write_csv(tmp_path / "a.csv", "Income,Density\n1.0,2.0\n")
    with pytest.raises(MissingColumn, match="tract_id"):
        load_county_csv(path)


def test_load_non_numeric_cell_reports_location(tmp_path):
    path = write_csv(
        tmp_path / "a.csv",
        "tract_id,Income,Density,hazard__heat\nt1,50.0,N/A,2.0\n",
    )
    with pytest.raises(NonNumericCell, match="'N/A' at row 0, column 'Density' is not numeric"):
        load_county_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", " -Infinity "])
@pytest.mark.parametrize("column", ["Density", "hazard__heat"])
def test_load_non_finite_cell_reports_location(tmp_path, cell, column):
    header = ["tract_id", "Income", "Density", "hazard__heat"]
    row = {"tract_id": "t2", "Income": "3.0", "Density": "4.0", "hazard__heat": "7.0", column: cell}
    text = ",".join(header) + "\nt1,1.0,2.0,5.0\n" + ",".join(row[h] for h in header) + "\n"
    with pytest.raises(NonNumericCell, match=f"at row 1, column '{column}' is not finite"):
        load_county_csv(write_csv(tmp_path / "a.csv", text))


def test_load_empty_file(tmp_path):
    path = write_csv(tmp_path / "a.csv", "")
    with pytest.raises(MissingColumn, match="file is empty, no header row"):
        load_county_csv(path)


def test_load_short_row(tmp_path):
    path = write_csv(tmp_path / "a.csv", "tract_id,Income,Density\nt1,1.0,2.0\nt2,3.0\n")
    with pytest.raises(MissingColumn, match="row 1 has 2 cells, header has 3"):
        load_county_csv(path)


def test_load_reports_first_bad_cell_in_row_major_order(tmp_path):
    # row 0 column Density comes before row 1 column Income, although a
    # column-by-column reader meets Income first
    path = write_csv(
        tmp_path / "a.csv", "tract_id,Income,Density\nt1,1.0,inf\nt2,x,2.0\n"
    )
    with pytest.raises(NonNumericCell, match="'inf' at row 0, column 'Density' is not finite"):
        load_county_csv(path)


def test_load_cells_with_surrounding_spaces(tmp_path):
    path = write_csv(
        tmp_path / "a.csv",
        "tract_id,Income,Density,hazard__heat\nt1, 1.5 ,2.0, 2.5 \nt2,3.0,4.0,  \n",
    )
    ds = load_county_csv(path)
    assert ds.features.tolist() == [[1.5, 2.0], [3.0, 4.0]]
    assert ds.hazards["heat"][0] == 2.5 and np.isnan(ds.hazards["heat"][1])


def test_load_valid_cells_never_reach_the_error_report(tmp_path, monkeypatch):
    # blank and blank-but-spaces feature cells under impute_median, blank
    # hazard cells and padded numbers are all parsed column by column
    def fail(*args):
        raise AssertionError("a valid file reached the per-cell error report")

    monkeypatch.setattr(dataset_module, "_raise_first_bad_cell", fail)
    path = write_csv(
        tmp_path / "a.csv",
        "tract_id,Income,Density,hazard__heat\n"
        "t1,,2.0, 2.5 \nt2,  ,4.0,\nt3, 5.0 ,,  \nt4,7.0,8.0,1.0\n",
    )
    ds = load_county_csv(path, missing_feature_policy="impute_median")
    assert ds.features.tolist() == [[6.0, 2.0], [6.0, 4.0], [5.0, 4.0], [7.0, 8.0]]
    np.testing.assert_array_equal(ds.hazards["heat"], [2.5, np.nan, np.nan, 1.0])


def test_load_duplicate_tract(tmp_path):
    path = write_csv(
        tmp_path / "a.csv",
        "tract_id,Income,Density\nt1,1.0,2.0\nt1,3.0,4.0\n",
    )
    with pytest.raises(DuplicateTract):
        load_county_csv(path)


@pytest.mark.parametrize(
    "header, column",
    [
        ("tract_id,Income,Density,hazard__heat,hazard__heat", "hazard__heat"),
        ("tract_id,Income,Density,hazard__heat,tract_id", "tract_id"),
    ],
)
def test_load_column_named_twice(tmp_path, header, column):
    # unchecked, the last hazard__heat column would win silently, and a second
    # tract_id column of numbers would train as a feature named tract_id
    path = write_csv(tmp_path / "a.csv", header + "\nt1,1.0,2.0,3.0,4.0\nt2,3.0,4.0,5.0,6.0\n")
    with pytest.raises(SchemaMismatch, match=f"column '{column}' is named twice"):
        load_county_csv(path)


def test_load_empty_feature_cell_strict(tmp_path):
    path = write_csv(
        tmp_path / "a.csv", "tract_id,Income,Density\nt1,,2.0\n"
    )
    with pytest.raises(NonNumericCell):
        load_county_csv(path)


def test_load_empty_feature_cell_impute_median(tmp_path):
    path = write_csv(
        tmp_path / "a.csv",
        "tract_id,Income,Density\nt1,,1.0\nt2,10.0,2.0\nt3,30.0,3.0\n",
    )
    ds = load_county_csv(path, missing_feature_policy="impute_median")
    assert ds.features[0, 0] == 20.0  # median of 10, 30


@pytest.mark.parametrize(
    "cells, median",
    [
        (("1.5e308", "1.7e308", "", "1.6e308", "1.2e308"), 1.55e308),
        (("-1.5e308", "-1.7e308", "", "-1.6e308", "-1.2e308"), -1.55e308),
        (("1.7e308", "", "1.7e308"), 1.7e308),
        (("1.0", "", "4.0", "2.0", "3.0"), 2.5),
    ],
)
def test_impute_median_near_the_float_limit(tmp_path, cells, median):
    # the mean of the two middle values overflowed: the blank filled with inf
    # and numpy warned "overflow encountered in reduce"
    rows = "".join(f"t{i},{cell},{i}.0\n" for i, cell in enumerate(cells))
    path = write_csv(tmp_path / "a.csv", "tract_id,Income,Density\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = load_county_csv(path, missing_feature_policy="impute_median")
    assert ds.features[cells.index(""), 0] == median


def test_load_empty_hazard_cell_is_missing(tmp_path):
    path = write_csv(
        tmp_path / "a.csv",
        "tract_id,Income,Density,hazard__heat\nt1,1.0,2.0,\nt2,3.0,4.0,7.0\n",
    )
    ds = load_county_csv(path)
    assert np.isnan(ds.hazards["heat"][0])
    assert ds.hazards["heat"][1] == 7.0


def test_csv_round_trip_is_byte_stable(tmp_path, rng):
    n, f = 12, 4
    ds = CountyDataset(
        county_id="rt",
        schema=FeatureSchema(tuple(f"f{j}" for j in range(f))),
        tract_ids=tuple(f"t{i}" for i in range(n)),
        features=rng.normal(size=(n, f)),
        hazards={"heat": np.where(rng.random(n) < 0.2, np.nan, rng.normal(size=n))},
    )
    first = tmp_path / "rt.csv"
    second = tmp_path / "second.csv"
    write_county_csv(ds, first)
    reloaded = load_county_csv(first)
    assert reloaded.county_id == "rt"
    write_county_csv(reloaded, second)
    assert first.read_bytes() == second.read_bytes()
    np.testing.assert_array_equal(ds.features, reloaded.features)
    np.testing.assert_array_equal(ds.hazards["heat"], reloaded.hazards["heat"])


# the first and last data row of every block a generated file can have
BLOCK_EDGES = [r for k in range(4) for r in (k * BLOCK_ROWS - 1, k * BLOCK_ROWS) if r >= 0]
DEFECTS = ("non_numeric", "inf", "nan", "blank_strict", "short", "long")


def _number(gen) -> str:
    value = float(gen.normal() * 10.0 ** gen.integers(-3, 4))
    text = [repr(value), f"{value:.3g}", str(int(value)), f"{value:e}"][gen.integers(4)]
    return " " * gen.integers(3) + text + " " * gen.integers(3)


@st.composite
def county_texts(draw):
    """(CSV text, missing-feature policy) of 0 to 3 blocks + 5 rows, with
    padded numbers, blank hazard cells, blank features under impute_median,
    and at most one defect, often on the first or last row of a block."""
    n_rows = draw(st.sampled_from([0, *BLOCK_EDGES, 3 * BLOCK_ROWS + 5])
                  | st.integers(0, 3 * BLOCK_ROWS + 5))
    defect = draw(st.none() | st.sampled_from(DEFECTS)) if n_rows else None
    policy = "error" if defect == "blank_strict" else draw(
        st.sampled_from(["error", "impute_median"])
    )
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = ["tract_id", *(f"f{j}" for j in range(gen.integers(2, 5))),
             *(f"hazard__h{k}" for k in range(gen.integers(1, 3)))]
    header = [names[i] for i in gen.permutation(len(names))]
    rows = []
    for r in range(n_rows):
        row = []
        for name in header:
            blank_rate = 0.1 if name.startswith("hazard__") else 0.05 * (policy != "error")
            if name == "tract_id":
                row.append(f"t{r}")
            elif gen.random() < blank_rate:
                row.append(" " * gen.integers(2))
            else:
                row.append(_number(gen))
        rows.append(row)
    if defect is not None:
        r = draw(st.sampled_from([e for e in BLOCK_EDGES if e < n_rows] + [n_rows - 1])
                 | st.integers(0, n_rows - 1))
        if defect == "short":
            rows[r].pop()
        elif defect == "long":
            rows[r].append("1.0")
        else:
            numeric = [i for i, name in enumerate(header) if name != "tract_id"]
            if defect == "blank_strict":
                numeric = [i for i in numeric if not header[i].startswith("hazard__")]
            rows[r][draw(st.sampled_from(numeric))] = draw(st.sampled_from({
                "non_numeric": ["N/A", "1.2.3", "x"],
                "inf": ["inf", " -Infinity ", "1e999"],
                "nan": ["nan", " NaN"],
                "blank_strict": ["", "  "],
            }[defect]))
    return "".join(",".join(row) + "\n" for row in [header, *rows]), policy


def _outcome(load):
    try:
        return load()
    except HazardLensError as exc:
        return exc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=county_texts())
def test_block_parse_matches_the_whole_file_parse(tmp_path, case):
    text, policy = case
    path = write_csv(tmp_path / "c.csv", text)
    expected = _outcome(lambda: load_county_whole_file(str(path), policy))
    got = _outcome(lambda: load_county_csv(path, missing_feature_policy=policy))
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    tract_ids, features, hazards = expected
    assert not isinstance(got, Exception), got
    assert got.tract_ids == tract_ids
    assert got.features.shape == features.shape
    assert got.features.tobytes() == features.tobytes()
    assert sorted(got.hazards) == sorted(hazards)
    for hazard, values in hazards.items():
        assert got.hazards[hazard].tobytes() == values.tobytes()


@pytest.mark.parametrize("row", [BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS - 1, 2 * BLOCK_ROWS])
def test_a_bad_cell_in_a_later_block_reports_its_file_row(tmp_path, row):
    lines = ["tract_id,a,b"] + [f"t{r},{r}.5,1" for r in range(2 * BLOCK_ROWS + 3)]
    lines[row + 1] = f"t{row},oops,1"
    with pytest.raises(NonNumericCell, match=f"'oops' at row {row}, column 'a' is not numeric"):
        load_county_csv(write_csv(tmp_path / "c.csv", "\n".join(lines) + "\n"))


def test_loading_a_county_peaks_below_four_times_its_arrays(tmp_path):
    # whole-file parsing kept every cell alive as a str: 11.5x the arrays
    gen = np.random.default_rng(3)
    names = ["tract_id", *(f"f{j:02d}" for j in range(33)), "hazard__heat", "hazard__flood"]
    lines = [",".join(names)]
    lines += [f"t{r:04d}," + ",".join(map(repr, gen.normal(size=35).tolist())) for r in range(1500)]
    path = write_csv(tmp_path / "big.csv", "\n".join(lines) + "\n")
    load_county_csv(path)  # first-call allocations stay out of the measurement
    tracemalloc.start()
    try:
        ds = load_county_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = ds.features.nbytes + sum(values.nbytes for values in ds.hazards.values())
    assert ds.n == 1500 and len(names) == 36
    assert peak < 4 * arrays, peak / arrays


def make_county(county_id, names, features, hazards=None, tract_ids=None):
    features = np.asarray(features, dtype=np.float64)
    if tract_ids is None:
        tract_ids = tuple(f"{county_id}-{i}" for i in range(features.shape[0]))
    return CountyDataset(
        county_id=county_id,
        schema=FeatureSchema(tuple(names)),
        tract_ids=tract_ids,
        features=features,
        hazards=hazards or {},
    )


def test_make_labeled_examples():
    ds = make_county(
        "fulton", ("a", "b"), [[1, 2], [3, 4], [5, 6]],
        hazards={"heat": np.array([1.0, 2.0, 3.0])},
    )
    with pytest.raises(HazardAbsent):
        make_labeled(ds, "air")
    labeled = make_labeled(ds, "heat")
    assert labeled.labels.tolist() == [LOW, LOW, HIGH]
    assert labeled.threshold == 2.0

    constant = make_county(
        "flat", ("a", "b"), [[1, 2], [3, 4]], hazards={"heat": np.array([5.0, 5.0])}
    )
    with pytest.raises(DegenerateLabels):
        make_labeled(constant, "heat")


def test_make_labeled_drops_missing_exposure():
    ds = make_county(
        "gapville", ("a", "b"), [[1, 2], [3, 4], [5, 6], [7, 8]],
        hazards={"flood": np.array([1.0, np.nan, 3.0, 5.0])},
    )
    labeled = make_labeled(ds, "flood")
    assert labeled.n == 3
    assert labeled.tract_ids == ("gapville-0", "gapville-2", "gapville-3")


def test_labeled_dataset_row_order_is_tract_id_order(rng):
    ids = tuple(f"t{i}" for i in range(1, 13))  # "t10" sorts before "t2"
    X, y = rng.normal(size=(12, 3)), rng.integers(0, 2, size=12)

    def labeled(order):
        return LabeledDataset("c", "heat", FeatureSchema(("a", "b", "c")),
                              tuple(ids[i] for i in order), X[order], y[order], 0.0)

    in_order = labeled(sorted(range(12), key=ids.__getitem__))
    shuffled = labeled(rng.permutation(12))
    assert shuffled.tract_ids == in_order.tract_ids == tuple(sorted(ids))
    np.testing.assert_array_equal(shuffled.features, in_order.features)
    np.testing.assert_array_equal(shuffled.labels, in_order.labels)
    assert in_order.take(np.arange(12)[::-1]).tract_ids == in_order.tract_ids
    # rows already in order are kept, not copied
    kept = LabeledDataset("c", "heat", in_order.schema, in_order.tract_ids,
                          in_order.features, in_order.labels, 0.0)
    assert np.shares_memory(kept.features, in_order.features)
    assert np.shares_memory(kept.labels, in_order.labels)
    # an id too few would have dropped a row in the sort
    with pytest.raises(SchemaMismatch, match="disagree on row count"):
        LabeledDataset("c", "heat", in_order.schema, ids[:11], X, y, 0.0)


def test_schema_invariants():
    with pytest.raises(SchemaMismatch):
        FeatureSchema(("only",))
    with pytest.raises(SchemaMismatch):
        FeatureSchema(("dup", "dup"))
    with pytest.raises(DuplicateTract):
        make_county("d", ("a", "b"), [[1, 2], [3, 4]], tract_ids=("x", "x"))


def test_align_schemas_identity():
    a = make_county("a", ("x", "y"), [[1, 2]])
    b = make_county("b", ("x", "y"), [[3, 4]])
    schema = align_schemas([a, b])
    assert schema.feature_names == ("x", "y")
    assert b.features.tolist() == [[3, 4]]


def test_align_schemas_reorders_columns(rng):
    names = ("alpha", "beta", "gamma")
    values = rng.normal(size=(5, 3))
    a = make_county("a", names, values)
    perm = (2, 0, 1)
    b = make_county("b", tuple(names[i] for i in perm), values[:, list(perm)])
    schema = align_schemas([a, b])
    assert schema.feature_names == names
    assert b.schema.feature_names == names
    np.testing.assert_array_equal(b.features, values)  # round trip


def test_align_schemas_missing_feature():
    a = make_county("a", ("x", "y", "z"), [[1, 2, 3]])
    b = make_county("shorttown", ("x", "y"), [[1, 2]])
    with pytest.raises(SchemaMismatch, match="county 'shorttown' lacks feature 'z'"):
        align_schemas([a, b])
