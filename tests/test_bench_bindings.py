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
stage = boosting._grow_reg_tree(X, np.array([0.5, 0.5, -0.5, -0.5]), np.full(4, 0.25), params)
model = boosting.BoostedModel(
    stages=[stage], params=params, base_score=0.0, seed=0, feature_names=("f0",)
)
trees = forest.ForestModel(
    trees=[tree, tree, tree], params=cart.TreeParams(), n_trees=3, bootstrap=False,
    seed=0, feature_names=("f0",),
)
labels = transfer.predict_forest(trees, X).tolist()
predicted = [s[5] for s in tracer.spans if s[2] == "forest.predict"]
print(json.dumps([spans._tree_shape(tree), spans._gbt_counts(model), labels, predicted]))
"""


def test_benchmark_tracer_installs(tmp_path):
    # a subprocess, because install() patches the package for the life of
    # the process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_READS, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # one split over two leaves: (nodes, depth), then (stages, nodes, scan
    # cells), the forest's labels, and one forest.predict span of 3 trees x 4 rows
    assert json.loads(proc.stdout) == [[3, 1], [1, 3, 4], [0, 0, 1, 1], [12]]
