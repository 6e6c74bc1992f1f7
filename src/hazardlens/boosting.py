"""Second-order gradient boosting with logistic loss, exact greedy splits.

Each round fits a regression tree to the gradient/hessian statistics of the
current margins. Leaf weight is the regularized Newton step
-G_sum / (H_sum + lambda); split gain is
(1/2) [G_l^2/(H_l+lambda) + G_r^2/(H_r+lambda) - G_m^2/(H_m+lambda)].
No histograms, no column subsampling: a deliberately small baseline.
"""

from __future__ import annotations

import json
import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .dataset import HIGH, LOW, LabeledDataset
from .errors import DegenerateLabels, DimensionMismatch

GBT_FORMAT = "hazardlens.gbt"
GBT_VERSION = 1


@dataclass
class RegLeaf:
    weight: float
    n: int


@dataclass
class RegSplit:
    feature: int
    threshold: float
    gain: float
    n: int
    left: "RegNode" = field(repr=False)
    right: "RegNode" = field(repr=False)


RegNode = RegLeaf | RegSplit


@dataclass(frozen=True)
class BoostParams:
    n_rounds: int = 100
    learning_rate: float = 0.1
    l2_reg: float = 1.0
    max_depth: int = 3
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.l2_reg < 0.0:
            raise ValueError("l2_reg must be >= 0")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass
class BoostedModel:
    stages: list[RegNode]
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
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    g_sum: float,
    h_sum: float,
    l2: float,
    min_leaf: int,
) -> tuple[float, int, float] | None:
    """(gain, feature, threshold) of a node's best positive-gain split.

    X, g and h hold the node's rows only. Every feature is scanned in one
    array pass, one sorted row per feature. The sort is stable and the
    running sums add each row's values in sorted order, so G_l / H_l are the
    bits a per-feature scan computes. Ties go to the lowest feature, then
    the lowest threshold. A feature whose admissible gains include a NaN is
    skipped. Returns None when no admissible split has gain > 0, and when
    h_sum + l2 <= 0 (the node's score is undefined; it becomes a 0.0 leaf).
    """
    if h_sum + l2 <= 0.0:
        return None
    n = X.shape[0]
    parent_score = g_sum * g_sum / (h_sum + l2)
    block = X.T
    order = np.argsort(block, axis=1, kind="stable")
    sv = np.take_along_axis(block, order, axis=1)
    g_l = np.cumsum(g[order], axis=1)[:, :-1]
    h_l = np.cumsum(h[order], axis=1)[:, :-1]

    valid = sv[:, 1:] != sv[:, :-1]
    if min_leaf > 1:
        pos = np.arange(1, n)  # the left side takes the first pos sorted values
        valid &= (pos >= min_leaf) & (n - pos >= min_leaf)
    if not valid.any():
        return None
    g_r = g_sum - g_l
    h_r = h_sum - h_l
    gains = 0.5 * (g_l * g_l / (h_l + l2) + g_r * g_r / (h_r + l2) - parent_score)
    gains[~valid] = -np.inf
    gains[np.isnan(gains).any(axis=1)] = -np.inf

    # first maximum in feature-major order: lowest feature, then threshold
    j, r = divmod(int(np.argmax(gains)), n - 1)
    gain = float(gains[j, r])
    if not gain > 0.0:
        return None
    return gain, j, float(0.5 * (sv[j, r] + sv[j, r + 1]))


def _grow_reg_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: BoostParams,
) -> RegNode:
    l2 = params.l2_reg
    min_leaf = params.min_samples_leaf

    def build(idx: np.ndarray, depth: int) -> RegNode:
        n = idx.shape[0]
        g_sum = float(g[idx].sum())
        h_sum = float(h[idx].sum())
        if depth >= params.max_depth or n < 2 * min_leaf:
            return RegLeaf(weight=_leaf_weight(g_sum, h_sum, l2), n=n)

        # a separate call, so the scan's (rows x features) temporaries are
        # freed before the children are built
        best = _best_reg_split(X[idx], g[idx], h[idx], g_sum, h_sum, l2, min_leaf)
        if best is None:
            return RegLeaf(weight=_leaf_weight(g_sum, h_sum, l2), n=n)
        gain, feature, threshold = best
        go_left = X[idx, feature] <= threshold
        return RegSplit(
            feature=feature,
            threshold=threshold,
            gain=gain,
            n=n,
            left=build(idx[go_left], depth + 1),
            right=build(idx[~go_left], depth + 1),
        )

    root = build(np.arange(g.shape[0], dtype=np.intp), 0)
    del build  # breaks build's self-reference, as in cart.grow_tree
    return root


def _reg_predict(node: RegNode, X: np.ndarray) -> np.ndarray:
    """Leaf weight of every row of X; an explicit stack, as in
    cart.tree_predict_proba."""
    out = np.empty(X.shape[0], dtype=np.float64)
    todo = [(node, np.arange(X.shape[0], dtype=np.intp))]
    while todo:
        nd, idx = todo.pop()
        if isinstance(nd, RegLeaf):
            out[idx] = nd.weight
            continue
        go_left = X[idx, nd.feature] <= nd.threshold
        todo.append((nd.left, idx[go_left]))
        todo.append((nd.right, idx[~go_left]))
    return out


def train_gbt(
    data: LabeledDataset,
    params: BoostParams,
    seed: int = 0,
    base_score: float | None = None,
) -> BoostedModel:
    """Boost params.n_rounds trees against logistic loss.

    base_score defaults to the log-odds of the high-label prevalence, which
    is 0 for balanced labels. The per-round training loss (including the
    round-0 base loss) is recorded on the model.
    """
    low, high = data.class_counts()
    if low == 0 or high == 0:
        raise DegenerateLabels(
            f"cannot boost on single-class data ({data.county_id}/{data.hazard_id})"
        )
    order = np.argsort(np.asarray(data.tract_ids, dtype=object), kind="stable")
    X = np.ascontiguousarray(data.features[order])
    y = data.labels[order].astype(np.float64)

    if base_score is None:
        p = high / (low + high)
        base_score = math.log(p / (1.0 - p))

    margins = np.full(y.shape[0], base_score, dtype=np.float64)
    losses = [_logloss(margins, y)]
    stages: list[RegNode] = []
    for _ in range(params.n_rounds):
        p_hat = sigmoid(margins)
        g = p_hat - y
        h = p_hat * (1.0 - p_hat)
        stage = _grow_reg_tree(X, g, h, params)
        margins += params.learning_rate * _reg_predict(stage, X)
        stages.append(stage)
        losses.append(_logloss(margins, y))

    return BoostedModel(
        stages=stages,
        params=params,
        base_score=float(base_score),
        seed=seed,
        feature_names=data.schema.feature_names,
        train_loss=losses,
    )


def staged_margin_gbt(model: BoostedModel, X: np.ndarray) -> Iterator[np.ndarray]:
    """Log-odds after the first i stages, for i = 1 .. len(model.stages).

    One running sum from base_score in stage order: stage i equals
    predict_margin_gbt of an i-round prefix bit for bit. Each yield is a
    copy, so callers may keep it.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"expected {model.n_features} feature columns, got "
            f"{X.shape[1] if X.ndim == 2 else X.ndim}"
        )
    margins = np.full(X.shape[0], model.base_score, dtype=np.float64)
    for stage in model.stages:
        margins += model.params.learning_rate * _reg_predict(stage, X)
        yield margins.copy()


def predict_margin_gbt(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    return deque(staged_margin_gbt(model, X), maxlen=1).pop()


def predict_proba_gbt(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """Vector of P(high) = sigmoid(accumulated log-odds)."""
    return sigmoid(predict_margin_gbt(model, X))


def predict_gbt(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    return np.where(predict_proba_gbt(model, X) > 0.5, HIGH, LOW).astype(np.int64)


def _reg_node_to_dict(node: RegNode) -> dict:
    if isinstance(node, RegLeaf):
        return {"kind": "leaf", "weight": float(node.weight), "samples": int(node.n)}
    return {
        "kind": "split",
        "feature": int(node.feature),
        "threshold": float(node.threshold),
        "gain": float(node.gain),
        "samples": int(node.n),
        "left": _reg_node_to_dict(node.left),
        "right": _reg_node_to_dict(node.right),
    }


def _reg_node_from_dict(data: dict) -> RegNode:
    if data["kind"] == "leaf":
        return RegLeaf(weight=float(data["weight"]), n=int(data["samples"]))
    return RegSplit(
        feature=int(data["feature"]),
        threshold=float(data["threshold"]),
        gain=float(data["gain"]),
        n=int(data["samples"]),
        left=_reg_node_from_dict(data["left"]),
        right=_reg_node_from_dict(data["right"]),
    )


def gbt_to_json(model: BoostedModel) -> str:
    payload = {
        "format": GBT_FORMAT,
        "version": GBT_VERSION,
        "seed": int(model.seed),
        "base_score": float(model.base_score),
        "params": {
            "n_rounds": model.params.n_rounds,
            "learning_rate": model.params.learning_rate,
            "l2_reg": model.params.l2_reg,
            "max_depth": model.params.max_depth,
            "min_samples_leaf": model.params.min_samples_leaf,
        },
        "feature_names": list(model.feature_names),
        "train_loss": [float(v) for v in model.train_loss],
        "stages": [_reg_node_to_dict(s) for s in model.stages],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def gbt_from_json(text: str) -> BoostedModel:
    payload = json.loads(text)
    if payload.get("format") != GBT_FORMAT:
        raise ValueError(f"not a gbt document: {payload.get('format')!r}")
    params = payload["params"]
    return BoostedModel(
        stages=[_reg_node_from_dict(s) for s in payload["stages"]],
        params=BoostParams(
            n_rounds=params["n_rounds"],
            learning_rate=params["learning_rate"],
            l2_reg=params["l2_reg"],
            max_depth=params["max_depth"],
            min_samples_leaf=params["min_samples_leaf"],
        ),
        base_score=payload["base_score"],
        seed=payload["seed"],
        feature_names=tuple(payload["feature_names"]),
        train_loss=list(payload["train_loss"]),
    )
