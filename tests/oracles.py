"""Independent brute-force oracles used by unit and acceptance tests.

The importance oracles re-derive quantities from serialized JSON documents
only, touching none of the library's accumulation code paths. The CV oracle
fits every grid point from scratch, with no sharing between tree counts.
"""

import itertools
import json

import numpy as np

from hazardlens.metrics import confusion, f_beta
from hazardlens.errors import NoPositives
from hazardlens.selection import FAMILIES, stratified_folds
from hazardlens.seeds import child_seed


def forest_importance_from_json(text: str, mode: str) -> np.ndarray:
    """Re-walk a serialized forest and re-accumulate importance per feature."""
    payload = json.loads(text)
    n_features = len(payload["feature_names"])
    totals = np.zeros(n_features, dtype=np.float64)

    def walk(node, root_samples):
        if node["kind"] == "leaf":
            return
        g_m = node["impurity"]
        g_l = node["left_impurity"]
        g_r = node["right_impurity"]
        n_m = node["samples"]
        n_l = node["left_samples"]
        n_r = node["right_samples"]
        if mode == "weighted":
            value = (n_m / root_samples) * (g_m - (n_l / n_m) * g_l - (n_r / n_m) * g_r)
        else:
            value = g_m - g_l - g_r
        totals[node["feature"]] += value
        walk(node["left"], root_samples)
        walk(node["right"], root_samples)

    for tree in payload["trees"]:
        walk(tree, tree["samples"])
    return totals


def gbt_gain_from_json(text: str) -> np.ndarray:
    """Re-accumulate raw split gain per feature from a serialized model."""
    payload = json.loads(text)
    totals = np.zeros(len(payload["feature_names"]), dtype=np.float64)

    def walk(node):
        if node["kind"] == "leaf":
            return
        totals[node["feature"]] += node["gain"]
        walk(node["left"])
        walk(node["right"])

    for stage in payload["stages"]:
        walk(stage)
    return totals


def kendall_tau(a, b) -> float:
    """Plain O(n^2) Kendall rank correlation; no tie handling needed here."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = np.sign(a[i] - a[j]) * np.sign(b[i] - b[j])
            if s > 0:
                concordant += 1
            elif s < 0:
                discordant += 1
    total = n * (n - 1) / 2
    return (concordant - discordant) / total


def cross_validate_brute(train, family, cv, seed):
    """Grid search that fits and predicts every (point, fold) on its own.

    Same fold layout, fold seeds, score rule and tie rule as
    selection.cross_validate; returns (best_params, [(params, fold, score)]).
    """
    fit, predict, _ = FAMILIES[family]
    folds = stratified_folds(
        train.labels, cv.k, np.random.default_rng(child_seed(seed, "folds"))
    )
    names = sorted(cv.grid)
    best = None  # (-mean, value-index tuple, params)
    table = []
    for combo in itertools.product(*(range(len(cv.grid[n])) for n in names)):
        point = {name: cv.grid[name][i] for name, i in zip(names, combo)}
        scores = []
        for f, valid in enumerate(folds):
            keep = np.setdiff1d(np.arange(train.n), valid)
            model = fit(train.take(keep), point, child_seed(seed, "fold", f))
            preds = predict(model, train.features[valid])
            try:
                score = f_beta(confusion(train.labels[valid], preds), cv.beta)
            except NoPositives:
                continue
            scores.append(score)
            table.append((point, f, score))
        candidate = (-float(np.mean(scores)), combo, point)
        if best is None or candidate[:2] < best[:2]:
            best = candidate
    return best[2], table
