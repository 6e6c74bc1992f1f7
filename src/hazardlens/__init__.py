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
from .cart import TreeParams, best_split, gini_impurity, grow_tree
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
    forest_importance,
    node_importances,
    normalize,
    overall_importance,
    rank_features,
)
from .transfer import (
    TransferMatrix, TransferPolicy, classify, cross_county, cross_hazard, score_table
)
from .synth import ScenarioSpec, generate_county, planted_oracle
from .pipeline import RunConfig, RunReport, run

__version__ = "0.1.0"
