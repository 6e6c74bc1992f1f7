"""Report artifacts: CSV tables, SVG heatmaps, and the output manifest.

All writers are deterministic: fixed field order, fixed float formatting,
"\n" line endings. Scores are held as fractions internally and rendered as
percentages only here, at the report boundary.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import NoEntries
from .importance import ImportanceVector, OverallImportance
from .metrics import MetricTable
from .seeds import sha256
from .transfer import TransferMatrix

# ids in heatmap text, escaped as html.escape(s, quote=False) does, without
# loading html.entities (about 0.5 MiB of peak RSS in every process)
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt_pct(value: float | None) -> str:
    return "" if value is None else f"{value * 100.0:.2f}"


def write_rows(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_performance_table(
    path,
    counties: tuple[str, ...],
    hazards: tuple[str, ...],
    train_size: MetricTable,
    test_size: MetricTable,
    f1_table: MetricTable,
    fbeta_table: MetricTable,
    beta: float,
) -> None:
    """County-by-hazard performance table with train/test sizes, F1, and
    F(beta) columns plus a simple-mean Average row over present cells."""
    header = ["county"]
    for label in ("train", "test"):
        header += [f"{label}_{h}" for h in hazards]
    for label in ("f1", f"fbeta{beta:g}"):
        header += [f"{label}_{h}" for h in hazards]

    def size_cell(table: MetricTable, county: str, hazard: str) -> str:
        value = table.get(county, hazard)
        return "" if value is None else str(int(value))

    rows = []
    for county in counties:
        row = [county]
        row += [size_cell(train_size, county, h) for h in hazards]
        row += [size_cell(test_size, county, h) for h in hazards]
        row += [_fmt_pct(f1_table.get(county, h)) for h in hazards]
        row += [_fmt_pct(fbeta_table.get(county, h)) for h in hazards]
        rows.append(row)

    avg = ["average"]
    for table in (train_size, test_size):
        for h in hazards:
            col = table.column(h)
            avg.append(str(int(round(float(np.mean(col))))) if col else "")
    for table in (f1_table, fbeta_table):
        for h in hazards:
            col = table.column(h)
            avg.append(_fmt_pct(float(np.mean(col))) if col else "")
    rows.append(avg)
    write_rows(path, header, rows)


def write_metric_csv(path, table: MetricTable, metric: str) -> None:
    """Full-precision long form: county,hazard,value with absences blank."""
    rows = []
    for county in table.counties:
        for hazard in table.hazards:
            value = table.get(county, hazard)
            rows.append([county, hazard, "" if value is None else repr(value)])
    write_rows(path, ["county", "hazard", metric], rows)


def write_model_comparison(
    path, hazards: tuple[str, ...], means: dict[str, dict[str, float]], beta: float
) -> None:
    """Per-hazard mean F across counties, one column per model family."""
    families = sorted(means)
    header = ["hazard"] + [f"mean_fbeta{beta:g}_{fam}" for fam in families]
    rows = []
    for hazard in hazards:
        row = [hazard]
        for fam in families:
            value = means[fam].get(hazard)
            row.append("" if value is None else _fmt_pct(value))
        rows.append(row)
    write_rows(path, header, rows)


def write_importance_csv(path, vectors: dict[str, ImportanceVector]) -> None:
    """Normalized importance per county for one hazard, full precision."""
    counties = sorted(vectors)
    names = vectors[counties[0]].feature_names
    rows = []
    for county in counties:
        for j, name in enumerate(names):
            rows.append([county, name, repr(float(vectors[county].values[j]))])
    write_rows(path, ["county", "feature", "normalized_importance"], rows)


def write_overall_csv(path, overall: OverallImportance) -> None:
    order = sorted(
        range(len(overall.feature_names)),
        key=lambda j: (-overall.scores[j], j),
    )
    rows = []
    for j in order:
        rows.append(
            [
                overall.feature_names[j],
                repr(float(overall.scores[j])),
                "1" if j in overall.top_features else "0",
            ]
        )
    write_rows(path, ["feature", "overall_score", "selected"], rows)


def write_group_rollup(
    path, overall_by_hazard: dict[str, OverallImportance], groups: dict[str, str]
) -> None:
    """Per hazard, the selected top features counted per feature group, and
    each group's share of the hazard's selection."""
    rows = []
    for hazard, overall in sorted(overall_by_hazard.items()):
        counts = Counter(groups.get(overall.feature_names[j], "unknown")
                         for j in overall.top_features)
        total = len(overall.top_features)
        for group, count in sorted(counts.items()):
            rows.append([hazard, group, str(count), f"{count / total:.4f}"])
    write_rows(path, ["hazard", "group", "count", "share"], rows)


def write_transfer_csv(path, matrix: TransferMatrix) -> None:
    rows = []
    for src in matrix.ids:
        for tgt in matrix.ids:
            delta = matrix.cell(src, tgt)
            if delta is None:
                rows.append([src, tgt, "", "absent"])
            else:
                flag = matrix.transferable[(src, tgt)]
                rows.append([src, tgt, repr(delta), "1" if flag else "0"])
    write_rows(path, ["source", "target", "delta_points", "transferable"], rows)


# -- SVG heatmap -------------------------------------------------------------

_CELL_W = 66
_CELL_H = 44
_LEFT = 96
_TOP = 64
_BLUE = (33, 102, 172)
_RED = (178, 24, 43)


def _cell_color(delta: float, transferable: bool) -> tuple[int, int, int]:
    # hue from the transfer flag, depth from |delta| (white at zero)
    t = min(abs(delta) / 30.0, 1.0)
    base = _BLUE if transferable else _RED
    return tuple(int(round(255 + (c - 255) * t)) for c in base)


def render_heatmap(matrix: TransferMatrix) -> str:
    """Deterministic SVG: blue cells transfer, red do not, hatched absent."""
    if not matrix.ids:
        raise NoEntries("transfer matrix has no cells to render")
    size = len(matrix.ids)
    width = _LEFT + size * _CELL_W + 16
    height = _TOP + size * _CELL_H + 16
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="11">',
        "<defs>",
        '<pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">'
        '<rect width="6" height="6" fill="#f2f2f2"/>'
        '<line x1="0" y1="0" x2="0" y2="6" stroke="#999999" stroke-width="1.5"/>'
        "</pattern>",
        "</defs>",
        f'<text x="8" y="16">cross-{matrix.axis} transfer: {matrix.fixed_id.translate(_TEXT_ESCAPES)} '
        f"(baseline {matrix.baseline}, threshold {matrix.threshold:g})</text>",
        f'<text x="8" y="34">rows: trained on / columns: tested on</text>',
    ]
    for col, tgt in enumerate(matrix.ids):
        x = _LEFT + col * _CELL_W + _CELL_W // 2
        parts.append(f'<text x="{x}" y="{_TOP - 8}" text-anchor="middle">{tgt.translate(_TEXT_ESCAPES)}</text>')
    for row, src in enumerate(matrix.ids):
        y = _TOP + row * _CELL_H + _CELL_H // 2 + 4
        parts.append(f'<text x="{_LEFT - 8}" y="{y}" text-anchor="end">{src.translate(_TEXT_ESCAPES)}</text>')
        for col, tgt in enumerate(matrix.ids):
            x = _LEFT + col * _CELL_W
            cy = _TOP + row * _CELL_H
            delta = matrix.cell(src, tgt)
            if delta is None:
                parts.append(
                    f'<rect x="{x}" y="{cy}" width="{_CELL_W}" height="{_CELL_H}" '
                    'fill="url(#hatch)" stroke="#666666"/>'
                )
                continue
            flag = matrix.transferable[(src, tgt)]
            r, g, b = _cell_color(delta, flag)
            parts.append(
                f'<rect x="{x}" y="{cy}" width="{_CELL_W}" height="{_CELL_H}" '
                f'fill="rgb({r},{g},{b})" stroke="#666666"/>'
            )
            dark = max(abs(delta) / 30.0, 0.0) > 0.55
            color = "#ffffff" if dark else "#222222"
            parts.append(
                f'<text x="{x + _CELL_W // 2}" y="{cy + _CELL_H // 2 + 4}" '
                f'text-anchor="middle" fill="{color}">{delta:.2f}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_heatmap(path, matrix: TransferMatrix) -> None:
    Path(path).write_text(render_heatmap(matrix), "utf-8")


# -- manifest ----------------------------------------------------------------

def file_sha256(path) -> str:
    digest = sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
