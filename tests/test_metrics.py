import math

import pytest

from hazardlens.errors import DimensionMismatch, NoEntries, NoPositives
from hazardlens.metrics import (
    Confusion,
    MetricTable,
    confusion,
    dispersion_summary,
    f_beta,
    precision,
    recall,
)


def test_confusion_identity():
    c = confusion([1, 0], [1, 0])
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 0, 0, 1)


def test_confusion_total_miss():
    c = confusion([1, 1], [0, 0])
    assert c.fn == 2 and c.tp == 0


def test_confusion_hand_counted_mix():
    labels = [1, 1, 0, 0]
    preds = [1, 0, 1, 0]
    c = confusion(labels, preds)
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
    assert c.n == 4


def test_confusion_length_mismatch():
    with pytest.raises(DimensionMismatch):
        confusion([1, 0], [1])


def test_f_beta_symmetric_case():
    # precision = recall = 0.8: F equals 0.8 for any beta
    c = Confusion(tp=8, fp=2, fn=2, tn=8)
    assert precision(c) == 0.8 and recall(c) == 0.8
    for beta in (0.5, 1.0, 1.5, 2.0):
        assert f_beta(c, beta) == pytest.approx(0.8, abs=1e-15)


def test_f_beta_hand_value():
    # P = 0.5, R = 1.0, beta = 1.5 -> 3.25 * 0.5 / (2.25 * 0.5 + 1)
    c = Confusion(tp=4, fp=4, fn=0, tn=2)
    assert f_beta(c, 1.5) == pytest.approx(1.625 / 2.125, abs=1e-15)
    assert f_beta(c, 1.5) == pytest.approx(0.7647058823529411, abs=1e-12)


def test_f_beta_zero_numerator_convention():
    assert f_beta(Confusion(tp=0, fp=3, fn=2, tn=1), 1.5) == 0.0


def test_f_beta_undefined_raises():
    with pytest.raises(NoPositives):
        f_beta(Confusion(tp=0, fp=0, fn=0, tn=5), 1.5)
    with pytest.raises(ValueError):
        f_beta(Confusion(tp=1, fp=0, fn=0, tn=0), 0.0)


def test_f1_equals_harmonic_mean(rng):
    for _ in range(40):
        tp, fp, fn = (int(v) for v in rng.integers(0, 20, size=3))
        if tp + fp + fn == 0 or tp == 0:
            continue
        c = Confusion(tp=tp, fp=fp, fn=fn, tn=int(rng.integers(0, 20)))
        p, r = precision(c), recall(c)
        assert f_beta(c, 1.0) == pytest.approx(2 * p * r / (p + r), abs=1e-12)


def test_f_beta_monotone_in_tp():
    previous = 0.0
    for tp in range(1, 15):
        value = f_beta(Confusion(tp=tp, fp=4, fn=6, tn=3), 1.5)
        assert value > previous
        previous = value


def test_beta_greater_one_weights_recall():
    # fixed precision, rising recall: F rises and sits between P and R
    base = dict(tp=6, fp=2)  # precision fixed at 0.75
    low_r = Confusion(**base, fn=6, tn=1)   # R = 0.5
    high_r = Confusion(**base, fn=2, tn=1)  # R = 0.75
    f_low = f_beta(low_r, 1.5)
    f_high = f_beta(high_r, 1.5)
    assert f_high > f_low
    p, r = precision(low_r), recall(low_r)
    assert min(p, r) < f_low < max(p, r)


def table_from_grid(counties, hazards, rows):
    table = MetricTable(tuple(counties), tuple(hazards))
    for county, row in zip(counties, rows):
        for hazard, value in zip(hazards, row):
            if value is not None:
                table.set(county, hazard, value)
    return table


def test_inter_county_std_examples():
    t = table_from_grid(["a", "b", "c"], ["h"], [[0.8], [0.8], [0.8]])
    assert dispersion_summary(t).per_hazard_std["h"] == 0.0
    t = table_from_grid(["a", "b"], ["h"], [[0.6], [0.8]])
    assert dispersion_summary(t).per_hazard_std["h"] == pytest.approx(0.1, abs=1e-15)


def test_inter_county_std_uses_present_count_only():
    # air present in 4 of 6 counties: divisor is 4
    values = [0.6957, 0.5479, 0.48, 0.5455, None, None]
    t = table_from_grid(
        ["c1", "c2", "c3", "c4", "c5", "c6"], ["air"], [[v] for v in values]
    )
    present = [v for v in values if v is not None]
    mu = sum(present) / 4
    expected = math.sqrt(sum((v - mu) ** 2 for v in present) / 4)
    assert dispersion_summary(t).per_hazard_std["air"] == pytest.approx(expected, abs=1e-15)


def test_inter_hazard_std_examples():
    t = table_from_grid(["c"], ["h1"], [[0.77]])
    assert dispersion_summary(t).per_county_std["c"] == 0.0

    harris = [0.8409, 0.6514, 0.6842]
    t = table_from_grid(["harris"], ["heat", "flood", "air"], [harris])
    mu = sum(harris) / 3
    expected = math.sqrt(sum((v - mu) ** 2 for v in harris) / 3)
    assert dispersion_summary(t).per_county_std["harris"] == pytest.approx(expected, abs=1e-15)

    shuffled = table_from_grid(
        ["harris"], ["air", "heat", "flood"], [[0.6842, 0.8409, 0.6514]]
    )
    assert (dispersion_summary(shuffled).per_county_std["harris"]
            == dispersion_summary(t).per_county_std["harris"])


def test_std_errors():
    t = MetricTable(("a",), ("h",))
    with pytest.raises(NoEntries):
        dispersion_summary(t)
    # a hazard or county with no present entry has no dispersion to report
    t = table_from_grid(["a", "b"], ["h", "g"], [[0.5, None], [None, None]])
    summary = dispersion_summary(t)
    assert set(summary.per_hazard_std) == {"h"}
    assert set(summary.per_county_std) == {"a"}


def test_std_affine_invariance(rng):
    values = rng.random(5).tolist()
    t1 = table_from_grid(["c"], [f"h{i}" for i in range(5)], [values])
    a, b = -2.5, 0.3
    t2 = table_from_grid(
        ["c"], [f"h{i}" for i in range(5)], [[a * v + b for v in values]]
    )
    assert dispersion_summary(t2).per_county_std["c"] == pytest.approx(
        abs(a) * dispersion_summary(t1).per_county_std["c"], abs=1e-12
    )


def test_dispersion_constant_table():
    t = table_from_grid(["a", "b"], ["x", "y"], [[0.7, 0.7], [0.7, 0.7]])
    summary = dispersion_summary(t)
    assert summary.avg_inter_county_std == 0.0
    assert summary.avg_inter_hazard_std == 0.0


def test_dispersion_two_by_two_example():
    t = table_from_grid(["a", "b"], ["x", "y"], [[0.6, 0.8], [0.6, 0.8]])
    summary = dispersion_summary(t)
    assert summary.avg_inter_county_std == pytest.approx(0.0, abs=1e-15)
    assert summary.avg_inter_hazard_std == pytest.approx(0.1, abs=1e-15)


def test_dispersion_matches_brute_force(rng):
    counties = [f"c{i}" for i in range(6)]
    hazards = ["h1", "h2", "h3"]
    rows = []
    for i in range(6):
        row = []
        for j in range(3):
            row.append(None if rng.random() < 0.2 else float(rng.random()))
        rows.append(row)
    if all(v is None for row in rows for v in row):
        rows[0][0] = 0.5
    t = table_from_grid(counties, hazards, rows)

    def pop_std(values):
        mu = sum(values) / len(values)
        return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))

    try:
        summary = dispersion_summary(t)
    except NoEntries:
        return
    col_stds = []
    for j, hazard in enumerate(hazards):
        col = [rows[i][j] for i in range(6) if rows[i][j] is not None]
        if col:
            col_stds.append(pop_std(col))
            assert summary.per_hazard_std[hazard] == pytest.approx(
                pop_std(col), abs=1e-12
            )
    assert summary.avg_inter_county_std == pytest.approx(
        sum(col_stds) / len(col_stds), abs=1e-12
    )
