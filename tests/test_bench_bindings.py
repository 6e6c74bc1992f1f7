"""The benchmark tracer (perfbench/spans.py) wraps hazardlens functions by
module attribute and reads tree nodes through the node classes; a refactor
that drops one of those names fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# After install(), count a grown forest tree and a boosted model with the
# tracer's own walks, which import cart.Split and boosting.RegSplit, then
# predict through transfer.predict_forest, whose span carries the
# forest.predict_tree_rows count.
TRACER_READS = """
import json, pathlib, sys
import numpy as np
import spans
from hazardlens import boosting, cart, forest, transfer

tracer = spans.Tracer(pathlib.Path(sys.argv[1]))
spans.install(tracer)
X = np.array([[0.0], [1.0], [2.0], [3.0]])
tree = cart.grow_tree(X, np.array([0, 0, 1, 1]), cart.TreeParams(), np.random.default_rng(0))
params = boosting.BoostParams(n_rounds=1, max_depth=1)
stage = boosting._grow_reg_tree(
    X, np.array([0.5, 0.5, -0.5, -0.5]), np.full(4, 0.25), params, boosting.column_order(X)
)
model = boosting.BoostedModel(
    stages=[stage], params=params, base_score=0.0, seed=0, feature_names=("f0",)
)
trees = forest.ForestModel(
    trees=[tree, tree, tree], params=cart.TreeParams(), seed=0, feature_names=("f0",),
)
labels = transfer.predict_forest(trees, X).tolist()
predicted = [s[5] for s in tracer.spans if s[2] == "forest.predict"]
print(json.dumps([spans._tree_shape(tree), spans._gbt_counts(model), labels, predicted]))
"""


def _run_traced(script, tmp_path):
    # a subprocess, because install() patches the package for the life of
    # the process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_benchmark_tracer_installs(tmp_path):
    # one split over two leaves: (nodes, depth), then (stages, nodes, scan
    # cells), the forest's labels, and one forest.predict span of 3 trees x 4 rows
    assert _run_traced(TRACER_READS, tmp_path) == [[3, 1], [1, 3, 4], [0, 0, 1, 1], [12]]


# A two-unit-per-pair run in a pool of two under install(): each model is
# serialized inside its unit's pipeline.job span, in a worker, through the
# pipeline.forest_to_json / gbt_to_json names the tracer replaces, so the
# pipeline.serialize spans the workers ship account for every byte of models/.
# write_transfer builds each matrix through pipeline.cross_county /
# cross_hazard, so there is one transfer.cross span per transfer/*.csv.
TRACED_POOL_RUN = """
import json, os, pathlib, sys
import spans
from hazardlens import pipeline

work = pathlib.Path(sys.argv[1])
tracer = spans.Tracer(work / "children")
spans.install(tracer)
pipeline.run(pipeline.RunConfig(
    seed=3, out_dir=str(work / "run"), workers=2, cv_k=2,
    synth={"counties": [{"name": "ash", "n_tracts": 80, "hazards": ["heat", "flood"]}],
           "n_features": 4, "informative_count": 2, "noise": 0.2},
    forest_grid={"n_trees": [2], "max_depth": [2]},
    gbt_grid={"n_rounds": [2], "max_depth": [2], "learning_rate": [0.3], "l2_reg": [1.0]},
))
tracer.collect_children()
jobs = {s[0] for s in tracer.spans if s[2] == "pipeline.job"}
serialize = [s for s in tracer.spans if s[2] == "pipeline.serialize"]
files = sorted((work / "run" / "models").iterdir())
print(json.dumps({
    "spans": len(serialize),
    "files": len(files),
    "span_bytes": sum(s[5] for s in serialize),
    "file_bytes": sum(p.stat().st_size for p in files),
    "inside_jobs": all(s[1] in jobs for s in serialize),
    "in_parent": sum(s[0] >> 32 == os.getpid() for s in serialize),
    "cross_spans": sum(s[2] == "transfer.cross" for s in tracer.spans),
    "matrix_files": len(list((work / "run" / "transfer").glob("*.csv"))),
}))
"""


def test_pool_workers_serialize_under_the_tracer(tmp_path):
    counts = _run_traced(TRACED_POOL_RUN, tmp_path)
    assert counts["spans"] == counts["files"] == 4
    assert counts["span_bytes"] == counts["file_bytes"] > 0
    assert counts["inside_jobs"]
    assert counts["in_parent"] == 0
    assert counts["cross_spans"] == counts["matrix_files"] == 1
