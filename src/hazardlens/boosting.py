"""Second-order gradient boosting with logistic loss, exact greedy splits.

Each round fits a regression tree to the gradient/hessian statistics of the
current margins. Leaf weight is the regularized Newton step
-G_sum / (H_sum + lambda); split gain is
(1/2) [G_l^2/(H_l+lambda) + G_r^2/(H_r+lambda) - G_m^2/(H_m+lambda)].
No histograms, no column subsampling: a deliberately small baseline.

Split search runs on a column block (XGBoost's, Chen & Guestrin 2016, 4.1;
SLIQ's presorted attribute lists): each fit sorts every feature column once,
stably, and every round reuses that order, as boosting samples no rows.
A node carries its rows in each feature's sorted order; a split filters the
parent's lists by a left-row flag, which keeps that order, so no node sorts.
The bits equal a per-node stable sort: a node's rows are always a subset in
increasing row order, and a stable sort of a subset is the full stable order
filtered to that subset, so every running sum adds the same values in the
same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

# the boosted nodes live in cart, the tree module of both families
from .cart import (
    RegLeaf, RegNode, RegSplit, TreeTable, check_integer, feature_matrix, read_model,
    split_threshold, trees_values, write_model,
)
from .dataset import HIGH, LOW, LabeledDataset
from .errors import DegenerateLabels

GBT_FORMAT = "hazardlens.gbt"
GBT_VERSION = 1


@dataclass(frozen=True)
class BoostParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    l2_reg: float = 1.0
    max_depth: int = 3
    min_samples_leaf: int = 1

    def __post_init__(self):
        check_integer("n_rounds", self.n_rounds, 1)
        for name in ("learning_rate", "l2_reg"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.l2_reg < 0.0:
            raise ValueError("l2_reg must be >= 0")
        check_integer("max_depth", self.max_depth, 0)
        check_integer("min_samples_leaf", self.min_samples_leaf, 1)


@dataclass
class BoostedModel:
    stages: list[RegNode] | TreeTable  # a TreeTable routes alike, bit for bit
    params: BoostParams
    base_score: float  # log-odds
    seed: int
    feature_names: tuple[str, ...]
    train_loss: list[float] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logloss(margins: np.ndarray, y: np.ndarray) -> float:
    # mean of log(1 + e^m) - y*m, computed stably
    return float(np.mean(np.logaddexp(0.0, margins) - y * margins))


def _leaf_weight(g_sum: float, h_sum: float, l2: float) -> float:
    denom = h_sum + l2
    return 0.0 if denom <= 0.0 else -g_sum / denom


def _best_reg_split(
    sv: np.ndarray,
    g_sorted: np.ndarray,
    h_sorted: np.ndarray,
    g_sum: float,
    h_sum: float,
    l2: float,
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """(gain, feature, threshold) of a node's best positive-gain split.

    sv, g_sorted and h_sorted are (features x rows) blocks of the node's
    rows, each feature's row in that feature's stable sorted order: the
    node's slice of the column block. Nothing is sorted here. That order is
    the one a stable argsort of the node's own rows gives (see the module
    docstring), and the running sums add each row's values in it, so
    G_l / H_l are the bits a per-feature scan computes. The sums are taken
    in place: g_sorted and h_sorted must be the caller's own copies. Ties go
    to the lowest feature, then the lowest threshold. A feature whose
    admissible gains include a NaN is skipped. Returns None when no
    admissible split has gain > 0, and when h_sum + l2 <= 0 (the node's
    score is undefined; it becomes a 0.0 leaf).
    """
    if h_sum + l2 <= 0.0:
        return None
    n = sv.shape[1]
    invalid = sv[:, 1:] == sv[:, :-1]
    if min_leaf > 1:  # the left side takes the first r + 1 sorted values
        invalid[:, :min_leaf - 1] = True
        invalid[:, max(n - min_leaf, 0):] = True
    if invalid.all():
        return None

    # 0.5 * (g_l^2 / (h_l + l2) + g_r^2 / (h_r + l2) - parent), each element
    # through the operations and order of that expression, in two buffers:
    # the running sums overwrite g_sorted / h_sorted, h_l then becomes h_r
    g_l = np.cumsum(g_sorted, axis=1, out=g_sorted)[:, :-1]
    h_l = np.cumsum(h_sorted, axis=1, out=h_sorted)[:, :-1]
    gains = np.multiply(g_l, g_l)
    right = np.add(h_l, l2)
    gains /= right
    np.subtract(g_sum, g_l, out=right)
    right *= right
    np.subtract(h_sum, h_l, out=h_l)
    h_l += l2
    right /= h_l
    gains += right
    gains -= g_sum * g_sum / (h_sum + l2)
    gains *= 0.5
    gains[invalid] = -np.inf

    # first maximum in feature-major order: lowest feature, then threshold.
    # argmax stops at the first NaN, so only then are NaN features masked
    j, r = divmod(int(np.argmax(gains)), n - 1)
    if math.isnan(gains[j, r]):
        gains[np.isnan(gains).any(axis=1)] = -np.inf
        j, r = divmod(int(np.argmax(gains)), n - 1)
    gain = float(gains[j, r])
    if not gain > 0.0:
        return None
    return gain, j, split_threshold(sv[j, r], sv[j, r + 1])


def column_order(X: np.ndarray) -> np.ndarray:
    """The column block's root: (features x rows), each feature's rows in
    stable sorted order of that feature's values."""
    return np.argsort(X.T, axis=1, kind="stable")


def _grow_reg_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: BoostParams,
    order: np.ndarray,
    weights: np.ndarray | None = None,
) -> RegNode:
    """One regression tree on the gradient/hessian statistics g, h.

    order is column_order(X), which a fit shares across rounds. If weights
    is given, each row's leaf weight is written into it as the leaf is made:
    a row sits in the leaf that x <= threshold routes it to, so these are
    the values trees_values gives the tree on X. Each node
    keeps its rows twice: idx in increasing row order (for the G / H
    totals, summed as before) and lists, its (features x n) slice of order.
    A split marks the left rows in a flag array and filters the parent's
    lists by it, which keeps every feature's sorted order.
    """
    l2 = params.l2_reg
    min_leaf = params.min_samples_leaf
    XT = np.ascontiguousarray(X.T)
    n_features = XT.shape[0]
    flag = np.zeros(X.shape[0], dtype=bool)
    offsets = np.arange(n_features)[:, None] * X.shape[0]

    def build(idx: np.ndarray, lists: np.ndarray, depth: int) -> RegNode:
        n = idx.shape[0]
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        best = None
        if depth < params.max_depth and n >= 2 * min_leaf:
            # the gathered blocks are arguments only, so the scan's
            # temporaries are freed before the children are built
            best = _best_reg_split(
                XT.take(lists + offsets), g[lists], h[lists],
                g_sum, h_sum, l2, min_leaf,
            )
        if best is None:
            weight = _leaf_weight(g_sum, h_sum, l2)
            if weights is not None:
                weights[idx] = weight
            return RegLeaf(weight=weight, n=n)
        gain, feature, threshold = best
        go_left = X[idx, feature] <= threshold
        flag[idx] = go_left
        in_left = flag[lists].ravel()
        # popped into the calls, so only the pending siblings' slices wait
        # on the stack while a subtree grows
        children = [np.compress(~in_left, lists).reshape(n_features, -1),
                    np.compress(in_left, lists).reshape(n_features, -1)]
        del lists, in_left
        return RegSplit(
            feature=feature,
            threshold=threshold,
            gain=gain,
            n=n,
            left=build(idx[go_left], children.pop(), depth + 1),
            right=build(idx[~go_left], children.pop(), depth + 1),
        )

    root = build(np.arange(g.shape[0], dtype=np.intp), order, 0)
    del build  # breaks build's self-reference, as in cart.grow_tree
    return root


def train_gbt(
    data: LabeledDataset,
    params: BoostParams,
    seed: int = 0,
) -> BoostedModel:
    """Boost params.n_rounds trees against logistic loss.

    The base score is the log-odds of the high-label prevalence, which is 0
    for balanced labels. The per-round training loss (including the
    round-0 base loss) is recorded on the model.
    """
    low, high = data.class_counts()
    if low == 0 or high == 0:
        raise DegenerateLabels(
            f"cannot boost on single-class data ({data.county_id}/{data.hazard_id})"
        )
    X, labels = data.features, data.labels
    y = labels.astype(np.float64)
    columns = column_order(X)  # GBT samples no rows: every round shares it

    p = high / (low + high)
    base_score = math.log(p / (1.0 - p))

    margins = np.full(y.shape[0], base_score, dtype=np.float64)
    losses = [_logloss(margins, y)]
    stages: list[RegNode] = []
    weights = np.empty_like(margins)  # each row's leaf weight, set by growth
    for _ in range(params.n_rounds):
        p_hat = sigmoid(margins)
        g = p_hat - y
        h = p_hat * (1.0 - p_hat)
        stages.append(_grow_reg_tree(X, g, h, params, columns, weights))
        margins += params.learning_rate * weights
        losses.append(_logloss(margins, y))

    return BoostedModel(
        stages=stages,
        params=params,
        base_score=base_score,
        seed=seed,
        feature_names=data.schema.feature_names,
        train_loss=losses,
    )


def staged_margin_gbt(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """(stages x rows) log-odds: row i - 1 is the margin after the first i
    stages, for i = 1 .. len(model.stages).

    One cumsum along the stage axis over a base_score row and the stages'
    learning_rate x leaf weight: the running sum of a per-stage loop
    (margins += lr * v_i), so row i - 1 equals predict_margin_gbt of an
    i-round prefix bit for bit. The stages are rows of one matrix, not
    copies.
    """
    X = feature_matrix(X, model.n_features)
    steps = model.params.learning_rate * trees_values(model.stages, X)
    base = np.full((1, X.shape[0]), model.base_score, dtype=np.float64)
    return np.cumsum(np.concatenate([base, steps]), axis=0)[1:]


def predict_margin_gbt(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    return staged_margin_gbt(model, X)[-1]


def predict_gbt(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """High where P(high) = sigmoid(accumulated log-odds) exceeds 0.5."""
    return np.where(sigmoid(predict_margin_gbt(model, X)) > 0.5, HIGH, LOW).astype(np.int64)


def gbt_to_json(model: BoostedModel) -> str:
    return write_model(
        GBT_FORMAT, GBT_VERSION, model, "stages", model.stages,
        base_score=float(model.base_score), train_loss=[float(v) for v in model.train_loss],
    )


def gbt_from_json(text: str) -> BoostedModel:
    payload = read_model(text, GBT_FORMAT, "stages", RegLeaf, RegSplit)
    base, loss = payload["base_score"], payload["train_loss"]
    if type(base) is not float or type(loss) is not list or set(map(type, loss)) - {float}:
        raise ValueError("base_score is not a float or train_loss not a list of floats")
    return BoostedModel(
        stages=payload["stages"],
        params=BoostParams(**payload["params"]),
        base_score=base,
        seed=payload["seed"],
        feature_names=tuple(payload["feature_names"]),
        train_loss=loss,
    )
