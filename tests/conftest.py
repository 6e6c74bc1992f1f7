import numpy as np
import pytest

from hazardlens.dataset import FeatureSchema, LabeledDataset
from hazardlens.pipeline import RunConfig
from hazardlens.transfer import TransferPolicy, cross_county, score_table


def labeled_from_arrays(
    X, y, county="testville", hazard="heat", threshold=0.0, feature_names=None
) -> LabeledDataset:
    """Wrap bare arrays in a LabeledDataset with synthetic tract ids."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if feature_names is None:
        feature_names = tuple(f"f{j:02d}" for j in range(X.shape[1]))
    return LabeledDataset(
        county_id=county,
        hazard_id=hazard,
        schema=FeatureSchema(tuple(feature_names)),
        tract_ids=tuple(f"{county}-t{i:04d}" for i in range(X.shape[0])),
        features=X,
        labels=y,
        threshold=threshold,
    )


def synth6x3_config(seed: int, out_dir: str, workers: int = 1) -> RunConfig:
    """Desk-scale configuration for the six-county benchmark scenario: the
    synth6x3 preset, as `hazardlens run --preset synth6x3` builds it."""
    return RunConfig.from_dict(
        {"seed": seed, "out_dir": out_dir, "workers": workers, "synth": {"preset": "synth6x3"}}
    )


def transfer_axis(builder, fixed, models, evals, policy=TransferPolicy(), ids=None):
    """`builder` (cross_county or cross_hazard) fixed at `fixed`, over the
    score_table of `models` and `evals`, both keyed by the axis's ids;
    `ids` defaults to the ids holding both."""
    pair = (lambda key: (key, fixed)) if builder is cross_county else (lambda key: (fixed, key))
    scores = score_table({pair(key): model for key, model in models.items()},
                         {pair(key): data for key, data in evals.items()}, policy.beta)
    return builder(fixed, sorted(set(models) & set(evals)) if ids is None else ids, scores, policy)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
