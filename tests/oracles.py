"""Independent brute-force oracles used by unit and acceptance tests.

The importance oracle re-derives forest importance from the serialized JSON
document only, touching none of the library's accumulation code paths; the
overall-importance oracle ranks each county with the tie-run walk. The CV oracle
fits every grid point from scratch, with no sharing between tree counts.
The transfer oracle predicts each (source, target) cell's set on its own.
The split oracles score one (feature, threshold) at a time in scalar floats,
with the same operations as the column-wise kernels, so results compare bit
for bit; the tree oracle grows a boosted tree from them node by node. The
county CSV oracle reads the whole file and parses it one cell at a time.
"""

import csv
import itertools
import json

import numpy as np

from hazardlens.cart import Leaf, RegLeaf, RegSplit, Split, gini_impurity
from hazardlens.metrics import confusion, f_beta
from hazardlens.errors import (
    DuplicateTract,
    MissingColumn,
    NonNumericCell,
    NoPositives,
    SchemaMismatch,
)
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


def route_row(tree, x) -> float:
    """Leaf value of one row x in a tree of either family, walked node by
    node from the root: x[feature] <= threshold goes left."""
    node = tree
    while isinstance(node, (Split, RegSplit)):
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.weight if isinstance(node, RegLeaf) else node.counts[1] / node.n


def mean_ranks(values) -> np.ndarray:
    """Ranks ascending with value, ties sharing the mean of the ranks they
    occupy, walked tie run by tie run over a stable sort."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.float64)
    i = 0
    while i < order.shape[0]:
        j = i
        while j + 1 < order.shape[0] and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0  # positions i..j: ranks i+1..j+1
        i = j + 1
    return ranks


def overall_importance_brute(vectors, top_k):
    """(scores, top features, overflow) of the cross-county ranking: every
    county's mean ranks summed in sorted county order and divided by F*C,
    every feature scoring at least the k-th best score selected, best first
    (lower index first among equal scores)."""
    counties = sorted(vectors)
    F, C = len(vectors[counties[0]].values), len(counties)
    total = np.zeros(F)
    for county in counties:
        total = total + mean_ranks(vectors[county].values)
    scores = total / (F * C)
    kth = sorted(scores, reverse=True)[min(top_k, F) - 1]
    selected = sorted((j for j in range(F) if scores[j] >= kth), key=lambda j: (-scores[j], j))
    return scores, tuple(selected), len(selected) - min(top_k, F)


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


def _thresholds(column):
    """Midpoints between adjacent distinct values, ascending."""
    values = sorted(set(float(v) for v in column))
    return [0.5 * (a + b) for a, b in zip(values, values[1:])]


def best_split_enumeration(X, y, candidates, min_samples_leaf=1):
    """cart.best_split by enumeration; (feature, threshold, gain) or None.

    Counts come from the rows with X[:, j] <= threshold; the gain uses the
    kernel's count-based formula. The first strictly larger gain wins, over
    features then thresholds in ascending order.
    """
    n = len(y)
    high = float(sum(1 for v in y if v == 1))
    low = n - high
    parent = gini_impurity([low, high])
    if parent == 0.0:
        return None
    best = None
    for j in sorted(int(f) for f in candidates):
        for t in _thresholds(X[:, j]):
            left = X[:, j] <= t
            n_l = float(np.count_nonzero(left))
            n_r = n - n_l
            if n_l < min_samples_leaf or n_r < min_samples_leaf:
                continue
            high_l = float(np.count_nonzero(y[left] == 1))
            low_l = n_l - high_l
            high_r = high - high_l
            low_r = low - low_l
            g_l = 1.0 - (high_l * high_l + low_l * low_l) / (n_l * n_l)
            g_r = 1.0 - (high_r * high_r + low_r * low_r) / (n_r * n_r)
            gain = parent - (n_l * g_l + n_r * g_r) / n
            if best is None or gain > best[2]:
                best = (j, t, gain)
    return best


def reg_split_enumeration(X, g, h, l2, min_leaf=1):
    """Root split of a boosted tree by enumeration; (feature, threshold,
    gain) or None when no admissible split has positive gain or the node's
    H + l2 is not positive.

    G_l / H_l add the left rows one at a time in stable sorted order, as a
    running sum does; G / H are the node totals as the tree grower sums them.
    A side whose H + l2 is 0 scores inf, or NaN when its G is 0 too, as
    IEEE division does; a feature with a NaN among its admissible gains is
    skipped whole.
    """
    n = len(g)
    g_sum = float(g.sum())
    h_sum = float(h.sum())
    if h_sum + l2 <= 0.0:
        return None
    parent = g_sum * g_sum / (h_sum + l2)
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        scored = []
        for t in _thresholds(X[:, j]):
            rows = [i for i in order if X[i, j] <= t]
            if len(rows) < min_leaf or n - len(rows) < min_leaf:
                continue
            g_l = h_l = 0.0
            for i in rows:
                g_l += float(g[i])
                h_l += float(h[i])
            g_r = g_sum - g_l
            h_r = h_sum - h_l
            with np.errstate(divide="ignore", invalid="ignore"):
                left = float(np.float64(g_l * g_l) / (h_l + l2))
                right = float(np.float64(g_r * g_r) / (h_r + l2))
            scored.append((t, 0.5 * (left + right - parent)))
        if any(gain != gain for _, gain in scored):
            continue
        for t, gain in scored:
            if gain > 0.0 and (best is None or gain > best[2]):
                best = (j, t, gain)
    return best


def reg_tree_enumeration(X, g, h, params):
    """A whole boosted tree by enumeration, as a cart.tree_to_dict document.

    Every node's split comes from reg_split_enumeration on that node's rows
    alone (X[idx], in increasing row order), so the tree grower's partition
    of its presorted lists is never used; leaf weights are the regularized
    Newton step, 0.0 where the hessian sum plus l2 is not positive.
    """
    l2 = params.l2_reg

    def grow(idx, depth):
        n = len(idx)
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        best = None
        if depth < params.max_depth and n >= 2 * params.min_samples_leaf:
            best = reg_split_enumeration(X[idx], g[idx], h[idx], l2,
                                         params.min_samples_leaf)
        if best is None:
            weight = 0.0 if h_sum + l2 <= 0.0 else -g_sum / (h_sum + l2)
            return {"kind": "leaf", "weight": weight, "samples": n}
        j, t, gain = best
        left = X[idx, j] <= t
        return {
            "kind": "split", "feature": j, "threshold": t, "gain": gain,
            "samples": n,
            "left": grow(idx[left], depth + 1),
            "right": grow(idx[~left], depth + 1),
        }

    return grow(np.arange(len(g)), 0)


def subtree_counts(node):
    """Per-class counts summed over a cart subtree's leaves."""
    if isinstance(node, Leaf):
        return np.array(node.counts)
    return subtree_counts(node.left) + subtree_counts(node.right)


def load_county_whole_file(path, missing_feature_policy):
    """(tract_ids, features, hazards) of a county CSV, with every error
    type and message of dataset.load_county_csv: all rows read
    first, then every cell parsed on its own, row by row, a row's feature
    columns before its hazard columns."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise MissingColumn(f"{path}: file is empty, no header row")
    header, rows = rows[0], rows[1:]
    for i, name in enumerate(header):
        if name in header[:i]:
            raise SchemaMismatch(f"{path}: column {name!r} is named twice")
    if "tract_id" not in header:
        raise MissingColumn(f"{path}: mandatory column 'tract_id' missing")
    tract_pos = header.index("tract_id")
    hazard_pos = [i for i, name in enumerate(header) if name.startswith("hazard__")]
    feature_pos = [i for i in range(len(header)) if i != tract_pos and i not in hazard_pos]
    strict = missing_feature_policy == "error"
    features = np.empty((len(rows), len(feature_pos)))
    hazards = np.empty((len(rows), len(hazard_pos)))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise MissingColumn(f"{path}: row {r} has {len(row)} cells, header has {len(header)}")
        for out, positions, blank_is_bad in ((features, feature_pos, strict), (hazards, hazard_pos, False)):
            for j, pos in enumerate(positions):
                raw, name = row[pos].strip(), header[pos]
                if not raw:
                    if blank_is_bad:
                        raise NonNumericCell(
                            f"empty feature cell at row {r}, column {name!r} "
                            "(strict missing-value policy)"
                        )
                    out[r, j] = float("nan")
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    raise NonNumericCell(
                        f"cell {raw!r} at row {r}, column {name!r} is not numeric"
                    ) from None
                if not np.isfinite(value):
                    raise NonNumericCell(
                        f"cell {raw!r} at row {r}, column {name!r} is not finite"
                    )
                out[r, j] = value
    tract_ids = [row[tract_pos] for row in rows]
    for i, tract in enumerate(tract_ids):
        if tract in tract_ids[:i]:
            raise DuplicateTract(f"{path}: tract_id {tract!r} appears more than once")
    for j, pos in enumerate(feature_pos):
        column = features[:, j]
        blank = np.isnan(column)
        if blank.any():
            if blank.all():
                raise NonNumericCell(
                    f"feature column {header[pos]!r} has no values to impute from"
                )
            column[blank] = float(np.median(column[~blank]))
    return tuple(tract_ids), features, {
        header[pos][len("hazard__"):]: hazards[:, j].copy() for j, pos in enumerate(hazard_pos)
    }


def transfer_csvs_brute(models, evals, counties, hazards, policy, family):
    """Rows of every transfer CSV that pipeline.write_transfer writes, by file
    name, for models and evaluation sets keyed (county, hazard): each cell's
    source model predicts the target's evaluation set alone, and each home
    score is predicted again wherever a cell needs it."""
    predict = FAMILIES[family][1]

    def score(src, tgt):
        data = evals[tgt]
        return f_beta(confusion(data.labels, predict(models[src], data.features)), policy.beta)

    both = policy.baseline == "both"
    files = {}
    for kind, fixed_ids, ids, pair in (
        ("cross_county", hazards, counties, lambda fixed, i: (i, fixed)),
        ("cross_hazard", counties, hazards, lambda fixed, i: (fixed, i)),
    ):
        for fixed in fixed_ids:
            present = [i for i in ids if pair(fixed, i) in models and pair(fixed, i) in evals]
            if len(present) < 2:
                continue
            for name in ("target_native", "source_native") if both else (policy.baseline,):
                rows = [["source", "target", "delta_points", "transferable"]]
                for src, tgt in itertools.product(ids, ids):
                    if src not in present or tgt not in present:
                        rows.append([src, tgt, "", "absent"])
                        continue
                    delta = 0.0
                    if src != tgt:
                        home = pair(fixed, tgt if name == "target_native" else src)
                        delta = (score(pair(fixed, src), pair(fixed, tgt)) - score(home, home)) * 100.0
                    rows.append([src, tgt, repr(delta), "1" if delta >= policy.threshold else "0"])
                files[f"{kind}_{fixed}{f'__{name}' if both else ''}.csv"] = rows
    return files
