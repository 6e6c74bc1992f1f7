"""Spans around calls into hazardlens modules, and the per-layer metrics
derived from them.

Tracing replaces module attributes with timing wrappers, from outside the
package: hazardlens itself is not changed. `pipeline` and `cli` bind names
with `from .x import y`, so a wrapper replaces the name in the calling
module (e.g. `hazardlens.selection.train_forest`), not only in the defining
one. Pool workers are forked after the wrappers are installed, inherit them,
and write their spans to one file per job; the parent merges those files.

A span is (id, parent id, name, start, end, attrs). Ids carry the process id
in their high bits, so they are unique across the parent and its workers,
and `time.perf_counter` reads the system-wide monotonic clock on Linux, so
worker and parent times share one axis. Counts ride on the spans as attrs,
recorded at the same boundary as the time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np

LAYERS = (
    "synth",
    "dataset",
    "selection",
    "cart",
    "forest",
    "boosting",
    "importance",
    "transfer",
    "report",
    "pipeline",
    "cli",
)

# Layer metrics that are counts, not times: two traced operations of one
# workload and seed must report them identically.
EXACT_COUNTS = (
    "cart.best_split_calls",
    "cart.scan_cells",
    "cart.grow_tree_calls",
    "cart.nodes",
    "cart.max_depth",
    "boosting.stages",
    "boosting.nodes",
    "boosting.scan_cells",
    "selection.cv_fits",
    "selection.cv_tree_units",
    "selection.cv_useful_ratio",
    "forest.trees",
    "forest.predict_tree_rows",
    "pipeline.model_json_bytes",
    "transfer.score_calls",
    "importance.trees_walked",
    "dataset.rows",
    "dataset.bytes_read",
    "report.files",
    "report.bytes_written",
    "trace.spans",
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, child_dir: Path):
        self.child_dir = child_dir
        self.root_pid = os.getpid()
        self._reset_process()
        self.stack: list[int | None] = [None]

    def _reset_process(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(self.pid << 32)

    def wrap(self, name: str, fn, attrs=None):
        """`fn` recording a span `name`; attrs(args, kwargs, result) adds counts."""
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            self.spans.append((sid, parent, name, start, end, extra))
            return result

        return traced

    def wrap_job(self, fn):
        """Span around one pair job; in a pool worker, also ship its spans."""
        traced = self.wrap("pipeline.job", fn)

        @functools.wraps(fn)
        def job(*args, **kwargs):
            if os.getpid() == self.root_pid:
                return traced(*args, **kwargs)
            if os.getpid() != self.pid:  # first job in a freshly forked worker
                self._reset_process()
            result = traced(*args, **kwargs)
            self.child_dir.mkdir(parents=True, exist_ok=True)
            path = self.child_dir / f"spans-{self.pid}-{next(self._ids)}.json"
            path.write_text(json.dumps(self.spans), "utf-8")
            self.spans = []
            return result

        return job

    def collect_children(self) -> None:
        """Merge the span files pool workers wrote, then delete them."""
        if not self.child_dir.is_dir():
            return
        for path in sorted(self.child_dir.glob("spans-*.json")):
            self.spans.extend(tuple(s) for s in json.loads(path.read_text("utf-8")))
            path.unlink()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- counts taken at the boundaries -------------------------------------------

def _tree_shape(root) -> tuple[int, int]:
    """(nodes, max depth) of a cart tree, walked without recursion."""
    from hazardlens.cart import Split

    nodes, depth = 0, 0
    todo = [(root, 0)]
    while todo:
        node, d = todo.pop()
        nodes += 1
        depth = max(depth, d)
        if isinstance(node, Split):
            todo.append((node.left, d + 1))
            todo.append((node.right, d + 1))
    return nodes, depth


def _gbt_counts(model) -> tuple[int, int, int]:
    """(stages, nodes, scan cells) of a boosted model.

    A node was searched for a split when it sat above max_depth and held at
    least 2 * min_samples_leaf rows; the search scans rows x all features.
    """
    from hazardlens.boosting import RegSplit

    p = model.params
    n_features = len(model.feature_names)
    nodes, cells = 0, 0
    for stage in model.stages:
        todo = [(stage, 0)]
        while todo:
            node, d = todo.pop()
            nodes += 1
            if d < p.max_depth and node.n >= 2 * p.min_samples_leaf:
                cells += node.n * n_features
            if isinstance(node, RegSplit):
                todo.append((node.left, d + 1))
                todo.append((node.right, d + 1))
    return len(model.stages), nodes, cells


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the hazardlens package."""
    from hazardlens import (
        boosting,
        cart,
        cli,
        dataset,
        forest,
        pipeline,
        report,
        selection,
        synth,
        transfer,
    )

    w = tracer.wrap

    def patch(module, attr, name, attrs=None):
        setattr(module, attr, w(name, getattr(module, attr), attrs))

    patch(cart, "best_split", "cart.best_split",
          lambda a, k, r: int(a[0].shape[0]) * len(a[2]))
    patch(forest, "grow_tree", "cart.grow_tree", lambda a, k, r: _tree_shape(r))
    patch(selection, "train_forest", "forest.train", lambda a, k, r: len(r.trees))
    patch(selection, "train_gbt", "boosting.train", lambda a, k, r: _gbt_counts(r))
    patch(boosting, "_grow_reg_tree", "boosting.grow")

    forest_predict = w("forest.predict", forest.predict_forest,
                       lambda a, k, r: len(a[0].trees) * int(np.shape(a[1])[0]))
    gbt_predict = w("boosting.predict", boosting.predict_gbt)
    transfer.predict_forest = forest_predict
    transfer.predict_gbt = gbt_predict
    predictors = {"forest": forest_predict, "gbt": gbt_predict}
    for family, (fit, _, grid) in list(selection.FAMILIES.items()):
        def fit_attrs(a, k, r, family=family):
            point = dict(a[1])
            units = point.pop("n_trees" if family == "forest" else "n_rounds", 100)
            return family, units, json.dumps(point, sort_keys=True), a[2]

        selection.FAMILIES[family] = (
            w("selection.fit", fit, fit_attrs), predictors[family], grid
        )

    pipeline.execute_job = tracer.wrap_job(pipeline.execute_job)
    patch(pipeline, "stratified_split", "selection.split")
    patch(pipeline, "cross_validate", "selection.cv", lambda a, k, r: a[1])
    for attr in ("forest_to_json", "gbt_to_json"):
        patch(pipeline, attr, "pipeline.serialize", lambda a, k, r: len(r))
    for attr in ("forest_from_json", "gbt_from_json"):
        patch(pipeline, attr, "pipeline.deserialize", lambda a, k, r: len(a[0]))
    patch(pipeline, "load_county_csv", "dataset.load",
          lambda a, k, r: (r.n, os.path.getsize(a[0])))
    for module in (pipeline, cli):
        patch(module, "forest_importance", "importance.forest",
              lambda a, k, r: len(a[0].trees))
        patch(module, "cross_county", "transfer.cross")
        patch(module, "cross_hazard", "transfer.cross")
    patch(transfer, "_score", "transfer.score")
    patch(cli, "_cmd_transfer", "cli.transfer")
    patch(cli, "_cmd_importance", "cli.importance")
    patch(cli, "rebuild_eval_splits", "pipeline.rebuild_eval_splits")
    patch(cli, "load_run_models", "pipeline.load_run_models")

    for attr in dir(report):
        if attr.startswith("write_"):
            patch(report, attr, "report.write",
                  lambda a, k, r: os.path.getsize(a[0]))

    # called from the benchmark's own set-up code
    patch(synth, "generate_county", "synth.generate")
    patch(dataset, "write_county_csv", "dataset.write")


# -- aggregation ---------------------------------------------------------------

def layer_metrics(spans: list[tuple], run_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    `run_s` is the operation's traced wall time; `workers` its process count.
    Self time of a span is its duration minus the part of it that its child
    spans cover; the children of one span overlap when pool workers run jobs
    side by side. Busy time is the sum of all self times plus the traced
    operation's time outside any span, so in a pool it counts every worker.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int | None, list[tuple[float, float]]] = {}
    for _, parent, _, start, end, _ in spans:
        children.setdefault(parent if parent in by_id else None, []).append((start, end))
    covered = {parent: _covered(intervals) for parent, intervals in children.items()}

    def has_ancestor(span, name):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == name:
                return True
            parent = by_id.get(parent[1])
        return False

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        sid, _, name, start, end, _ = span
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self_s[layer] += (end - start) - covered.get(sid, 0.0)

    def attrs_of(name):
        return [s[5] for s in spans if s[2] == name]

    def ns_per(seconds, units):
        return seconds * 1e9 / units if units else 0.0

    m: dict[str, float] = {}
    split_cells = sum(attrs_of("cart.best_split"))
    shapes = attrs_of("cart.grow_tree")
    m["cart.best_split_calls"] = calls.get("cart.best_split", 0)
    m["cart.best_split_s"] = total.get("cart.best_split", 0.0)
    m["cart.scan_cells"] = split_cells
    m["cart.ns_per_scan_cell"] = ns_per(m["cart.best_split_s"], split_cells)
    m["cart.grow_tree_calls"] = calls.get("cart.grow_tree", 0)
    m["cart.grow_tree_s"] = total.get("cart.grow_tree", 0.0)
    m["cart.nodes"] = sum(n for n, _ in shapes)
    m["cart.max_depth"] = max((d for _, d in shapes), default=0)

    gbt = attrs_of("boosting.train")
    m["boosting.train_s"] = total.get("boosting.train", 0.0)
    m["boosting.grow_s"] = total.get("boosting.grow", 0.0)
    m["boosting.stages"] = sum(s for s, _, _ in gbt)
    m["boosting.nodes"] = sum(n for _, n, _ in gbt)
    m["boosting.scan_cells"] = sum(c for _, _, c in gbt)
    m["boosting.ns_per_scan_cell"] = ns_per(m["boosting.grow_s"], m["boosting.scan_cells"])
    m["boosting.predict_s"] = total.get("boosting.predict", 0.0)

    cv_s = {"forest": 0.0, "gbt": 0.0}
    for span in spans:
        if span[2] == "selection.cv":
            cv_s[span[5]] += span[4] - span[3]
    refit_s = {"forest": 0.0, "gbt": 0.0}
    cv_units = 0
    cv_fits = 0
    largest: dict[tuple, int] = {}
    for span in spans:
        if span[2] != "selection.fit":
            continue
        family, units, rest, seed = span[5]
        if has_ancestor(span, "selection.cv"):
            cv_fits += 1
            cv_units += units
            key = (span[1], family, rest, seed)  # one cv call, fold, non-size params
            largest[key] = max(largest.get(key, 0), units)
        else:
            refit_s[family] += span[4] - span[3]
    m["selection.split_s"] = total.get("selection.split", 0.0)
    m["selection.cv_s.forest"] = cv_s["forest"]
    m["selection.cv_s.gbt"] = cv_s["gbt"]
    m["selection.refit_s.forest"] = refit_s["forest"]
    m["selection.refit_s.gbt"] = refit_s["gbt"]
    m["selection.cv_fits"] = cv_fits
    m["selection.cv_tree_units"] = cv_units
    m["selection.cv_useful_ratio"] = sum(largest.values()) / cv_units if cv_units else 0.0

    m["forest.train_s"] = total.get("forest.train", 0.0)
    m["forest.trees"] = sum(attrs_of("forest.train"))
    m["forest.predict_s"] = total.get("forest.predict", 0.0)
    m["forest.predict_tree_rows"] = sum(attrs_of("forest.predict"))
    m["forest.ns_per_tree_row"] = ns_per(m["forest.predict_s"], m["forest.predict_tree_rows"])

    jobs = [s for s in spans if s[2] == "pipeline.job"]
    job_s = [s[4] - s[3] for s in jobs]
    phase = max(s[4] for s in jobs) - min(s[3] for s in jobs) if jobs else 0.0
    m["pipeline.job_s.p50"] = float(np.median(job_s)) if jobs else 0.0
    m["pipeline.job_s.max"] = max(job_s, default=0.0)
    m["pipeline.job_imbalance"] = max(job_s) / float(np.mean(job_s)) if jobs else 0.0
    m["pipeline.pool_idle_s"] = workers * phase - sum(job_s) if jobs else 0.0
    m["pipeline.serialize_s"] = total.get("pipeline.serialize", 0.0)
    m["pipeline.deserialize_s"] = total.get("pipeline.deserialize", 0.0)
    m["pipeline.model_json_bytes"] = sum(attrs_of("pipeline.serialize")) + sum(
        attrs_of("pipeline.deserialize")
    )
    m["pipeline.rebuild_eval_splits_s"] = total.get("pipeline.rebuild_eval_splits", 0.0)
    m["pipeline.assemble_s"] = run_s - phase

    transfer_spans = total.get("transfer.cross", 0.0)
    transfer_predict = sum(
        s[4] - s[3]
        for s in spans
        if s[2] in ("forest.predict", "boosting.predict") and has_ancestor(s, "transfer.cross")
    )
    m["transfer.s"] = transfer_spans
    m["transfer.score_calls"] = calls.get("transfer.score", 0)
    m["transfer.predict_share"] = transfer_predict / transfer_spans if transfer_spans else 0.0
    m["importance.s"] = total.get("importance.forest", 0.0)
    m["importance.trees_walked"] = sum(attrs_of("importance.forest"))
    m["cli.transfer_s"] = total.get("cli.transfer", 0.0)
    m["cli.importance_s"] = total.get("cli.importance", 0.0)

    loads = attrs_of("dataset.load")
    m["dataset.load_s"] = total.get("dataset.load", 0.0)
    m["dataset.rows"] = sum(r for r, _ in loads)
    m["dataset.bytes_read"] = sum(b for _, b in loads)
    m["dataset.write_s"] = total.get("dataset.write", 0.0)
    m["synth.generate_s"] = total.get("synth.generate", 0.0)

    # a writer that calls write_rows counts as one file
    outer = [
        s for s in spans
        if s[2] == "report.write" and by_id.get(s[1], (None,) * 6)[2] != "report.write"
    ]
    m["report.write_s"] = sum(s[4] - s[3] for s in outer)
    m["report.files"] = len(outer)
    m["report.bytes_written"] = sum(s[5] for s in outer)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = len(spans)
    m["trace.run_s"] = run_s
    m["trace.unattributed_s"] = run_s - covered.get(None, 0.0)
    busy = sum(self_s.values()) + m["trace.unattributed_s"]
    m["trace.busy_s"] = busy
    m["trace.growth_share"] = (m["cart.grow_tree_s"] + m["boosting.grow_s"]) / busy
    m["trace.predict_share"] = (m["forest.predict_s"] + m["boosting.predict_s"]) / busy
    return m


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    return total + (hi - lo if hi is not None else 0.0)
