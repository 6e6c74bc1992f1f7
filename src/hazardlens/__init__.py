"""hazardlens: tree-ensemble analysis of what shapes hazard exposure.

Trains random forests and boosted trees per (county, hazard) pair, scores
predictability with F-beta, aggregates Gini feature importance across
regions, and evaluates how well frozen models transfer between counties
and hazards.
"""

from .dataset import (
    CountyDataset,
    FeatureSchema,
    LabeledDataset,
    align_schemas,
    binarize,
    load_county_csv,
    make_labeled,
    write_county_csv,
)
from .cart import TreeParams, best_split, gini_impurity, grow_tree, node_importances
from .forest import ForestModel, predict_proba_forest, train_forest
from .boosting import BoostedModel, BoostParams, train_gbt
from .selection import CvSpec, SplitSpec, cross_validate, stratified_split
from .metrics import (
    Confusion,
    MetricTable,
    confusion,
    dispersion_summary,
    f_beta,
)
from .importance import (
    ImportanceVector,
    OverallImportance,
    RankMatrix,
    build_rank_matrix,
    forest_importance,
    normalize,
    overall_importance,
    rank_features,
)
from .transfer import TransferMatrix, TransferPolicy, classify, cross_county, cross_hazard
from .synth import ScenarioSpec, generate_county, planted_oracle
from .pipeline import RunConfig, RunReport, run

__version__ = "0.1.0"

__all__ = [
    "BoostedModel",
    "BoostParams",
    "Confusion",
    "CountyDataset",
    "CvSpec",
    "FeatureSchema",
    "ForestModel",
    "ImportanceVector",
    "LabeledDataset",
    "MetricTable",
    "OverallImportance",
    "RankMatrix",
    "RunConfig",
    "RunReport",
    "ScenarioSpec",
    "SplitSpec",
    "TransferMatrix",
    "TransferPolicy",
    "TreeParams",
    "align_schemas",
    "best_split",
    "binarize",
    "build_rank_matrix",
    "classify",
    "confusion",
    "cross_county",
    "cross_hazard",
    "cross_validate",
    "dispersion_summary",
    "f_beta",
    "forest_importance",
    "generate_county",
    "gini_impurity",
    "grow_tree",
    "load_county_csv",
    "make_labeled",
    "node_importances",
    "normalize",
    "overall_importance",
    "planted_oracle",
    "predict_proba_forest",
    "rank_features",
    "run",
    "stratified_split",
    "train_forest",
    "train_gbt",
    "write_county_csv",
]
