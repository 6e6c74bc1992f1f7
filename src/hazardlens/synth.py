"""Synthetic county generator with planted feature-exposure laws.

Real tract-level exposure datasets are usually proprietary, so this module
provides the ground truth that benchmarks and tests need: counties whose
hazard exposures are generated from known informative features, with a
selectable coupling between hazards. Law parameters are drawn from a
dedicated law_seed stream, independent of the tract draw, so several
counties can share one law (transferable by construction) or carry
independent laws (non-transferable by construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import CountyDataset, FeatureSchema
from .errors import InvalidSpec
from .seeds import child_seed

LAW_LINEAR_LOGIT = "linear-logit"
LAW_THRESHOLD_INTERACTION = "threshold-interaction"
LAW_TREE_RULE = "tree-rule"
LAWS = (LAW_LINEAR_LOGIT, LAW_THRESHOLD_INTERACTION, LAW_TREE_RULE)

COUPLING_SHARED = "shared-law"
COUPLING_INDEPENDENT = "independent"
COUPLING_FEATURE_CAUSED = "feature-caused"
COUPLING_HAZARD_CAUSED = "hazard-caused"
COUPLINGS = (
    COUPLING_SHARED,
    COUPLING_INDEPENDENT,
    COUPLING_FEATURE_CAUSED,
    COUPLING_HAZARD_CAUSED,
)

DEFAULT_HAZARDS = ("air", "flood", "heat")


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one synthetic county.

    `informative` lists the planted feature indices. `law_seed` controls the
    law parameters separately from the tract draw: give two counties the same
    law_seed and they obey the same exposure law over independently drawn
    tracts.
    """

    county_id: str
    n_tracts: int
    n_features: int = 35
    informative: tuple[int, ...] = (0, 1, 2, 3, 4)
    law: str = LAW_LINEAR_LOGIT
    noise: float = 0.2
    coupling: str = COUPLING_SHARED
    hazards: tuple[str, ...] = DEFAULT_HAZARDS
    seed: int = 0
    law_seed: int | None = None

    def __post_init__(self):
        if self.n_tracts < 1:
            raise InvalidSpec("n_tracts must be >= 1")
        if self.n_features < 2:
            raise InvalidSpec("n_features must be >= 2")
        s = tuple(int(i) for i in self.informative)
        object.__setattr__(self, "informative", s)
        if not s:
            raise InvalidSpec("informative set must be non-empty")
        if len(set(s)) != len(s):
            raise InvalidSpec("informative indices must be unique")
        if min(s) < 0 or max(s) >= self.n_features:
            raise InvalidSpec("informative indices must lie inside the schema")
        if not 0.0 <= self.noise < 1.0:
            raise InvalidSpec("noise must lie in [0, 1)")
        if self.law not in LAWS:
            raise InvalidSpec(f"unknown law {self.law!r}")
        if self.coupling not in COUPLINGS:
            raise InvalidSpec(f"unknown coupling {self.coupling!r}")
        if self.law == LAW_THRESHOLD_INTERACTION and len(s) < 2:
            raise InvalidSpec("threshold-interaction law needs >= 2 informative features")
        if not self.hazards:
            raise InvalidSpec("at least one hazard required")
        if self.coupling == COUPLING_INDEPENDENT:
            needed = len(self.hazards) * len(s)
            if needed > self.n_features:
                raise InvalidSpec(
                    "independent coupling needs disjoint informative sets: "
                    f"{needed} > {self.n_features} features"
                )

    def resolved_law_seed(self) -> int:
        if self.law_seed is not None:
            return int(self.law_seed)
        return child_seed(self.seed, "law")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))


def _standardize(signal: np.ndarray) -> np.ndarray:
    std = float(signal.std())
    if std == 0.0:
        return np.zeros_like(signal)
    return (signal - signal.mean()) / std


def _draw_law(spec: ScenarioSpec, informative: tuple[int, ...], law_rng: np.random.Generator):
    """Law parameters for one hazard, drawn independently of tract count."""
    s = np.asarray(informative, dtype=np.intp)
    if spec.law == LAW_LINEAR_LOGIT:
        w = law_rng.uniform(0.5, 1.5, size=s.shape[0])
        w = w / math.sqrt(float(np.sum(w * w)))

        def apply(X: np.ndarray) -> np.ndarray:
            return _sigmoid(X[:, s] @ w * 3.0)

        return apply
    if spec.law == LAW_THRESHOLD_INTERACTION:
        cuts = law_rng.normal(0.0, 0.5, size=s.shape[0])
        pair_w = law_rng.uniform(0.8, 1.2, size=max(1, s.shape[0] // 2))

        def apply(X: np.ndarray) -> np.ndarray:
            above = X[:, s] > cuts
            signal = np.zeros(X.shape[0], dtype=np.float64)
            for p in range(s.shape[0] // 2):
                signal += pair_w[p] * (above[:, 2 * p] ^ above[:, 2 * p + 1])
            if s.shape[0] % 2:
                signal += 0.5 * above[:, -1]
            return signal

        return apply
    # tree-rule: random decision tree of depth <= 3 over the informative set
    depth = min(3, s.shape[0])
    n_leaves = 2 ** depth
    path_features = law_rng.choice(s, size=2 ** depth - 1, replace=True)
    path_cuts = law_rng.normal(0.0, 0.7, size=2 ** depth - 1)
    leaf_values = law_rng.uniform(0.0, 1.0, size=n_leaves)

    def apply(X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.intp)  # heap index, root = 0
        for _ in range(depth):
            go_right = X[np.arange(X.shape[0]), path_features[node]] > path_cuts[node]
            node = 2 * node + 1 + go_right
        return leaf_values[node - (2 ** depth - 1)]

    return apply


def _hazard_informative_sets(spec: ScenarioSpec) -> dict[str, tuple[int, ...]]:
    """Per-hazard informative sets; disjoint under independent coupling.

    Sets are keyed by hazard name and derived from the law seed alone, so
    two counties sharing a law_seed plant the same features per hazard.
    """
    if spec.coupling != COUPLING_INDEPENDENT:
        return {h: spec.informative for h in spec.hazards}
    pool_rng = np.random.default_rng(
        child_seed(spec.resolved_law_seed(), "informative-pool")
    )
    remaining = [j for j in range(spec.n_features) if j not in spec.informative]
    pool = pool_rng.permutation(np.asarray(remaining, dtype=np.intp))
    size = len(spec.informative)
    sets: dict[str, tuple[int, ...]] = {spec.hazards[0]: spec.informative}
    for k, hazard_id in enumerate(spec.hazards[1:]):
        chunk = pool[k * size : (k + 1) * size]
        sets[hazard_id] = tuple(sorted(int(j) for j in chunk))
    return sets


def _law_rng(spec: ScenarioSpec, hazard_id: str) -> np.random.Generator:
    # shared-law and hazard-caused use one law; the others one per hazard
    law_seed = spec.resolved_law_seed()
    if spec.coupling in (COUPLING_SHARED, COUPLING_HAZARD_CAUSED):
        return np.random.default_rng(child_seed(law_seed, "shared-law"))
    return np.random.default_rng(child_seed(law_seed, "law", hazard_id))


def generate_county(spec: ScenarioSpec) -> CountyDataset:
    """Draw one county: standard-normal features, law-driven exposures.

    Exposure = (1 - noise) * standardized law signal + noise * gaussian,
    then an affine per-hazard rescaling (labels are unaffected by it). Law
    parameters are keyed by hazard name, never by position, so counties
    with different hazard subsets still share aligned laws. Identical specs
    produce identical datasets.
    """
    data_rng = np.random.default_rng(spec.seed)
    law_seed = spec.resolved_law_seed()

    X = data_rng.standard_normal((spec.n_tracts, spec.n_features))
    schema = FeatureSchema(tuple(f"f{j:02d}" for j in range(spec.n_features)))
    tract_ids = tuple(
        f"{spec.county_id}-t{r:04d}" for r in range(spec.n_tracts)
    )

    informative_sets = _hazard_informative_sets(spec)

    def own_exposure(hazard_id: str, eps: np.ndarray) -> np.ndarray:
        law = _draw_law(spec, informative_sets[hazard_id], _law_rng(spec, hazard_id))
        return (1.0 - spec.noise) * _standardize(law(X)) + spec.noise * eps

    hazards: dict[str, np.ndarray] = {}
    first: np.ndarray | None = None  # the first hazard's exposure
    for hazard_id in spec.hazards:
        eps = data_rng.standard_normal(spec.n_tracts)
        if first is None or spec.coupling in (COUPLING_FEATURE_CAUSED, COUPLING_INDEPENDENT):
            exposure = own_exposure(hazard_id, eps)
        elif spec.coupling == COUPLING_SHARED:
            exposure = first
        else:  # hazard-caused: the first hazard's exposure, re-noised
            mix = max(spec.noise, 0.1)
            exposure = (1.0 - mix) * first + mix * eps
        if first is None:
            first = exposure
        scale_rng = np.random.default_rng(child_seed(law_seed, "scale", hazard_id))
        a = float(scale_rng.uniform(0.5, 2.0))
        b = float(scale_rng.uniform(-1.0, 1.0))
        hazards[hazard_id] = a * exposure + b

    return CountyDataset(
        county_id=spec.county_id,
        schema=schema,
        tract_ids=tract_ids,
        features=X,
        hazards=hazards,
    )


@dataclass(frozen=True)
class PlantedOracle:
    """What the generator guarantees, for use as test ground truth."""

    top_features: tuple[int, ...]
    per_hazard_informative: tuple[tuple[int, ...], ...]


def planted_oracle(spec: ScenarioSpec) -> PlantedOracle:
    """Planted informative features, overall and per hazard in spec order."""
    sets = _hazard_informative_sets(spec)
    return PlantedOracle(
        top_features=tuple(sorted(spec.informative)),
        per_hazard_informative=tuple(sets[h] for h in spec.hazards),
    )


@dataclass(frozen=True)
class CountyPlan:
    name: str
    n_tracts: int
    hazards: tuple[str, ...] = ("heat", "flood", "air")

    def __post_init__(self):
        # a string would otherwise be read as single-letter hazard ids
        if isinstance(self.hazards, str) or not all(isinstance(h, str) for h in self.hazards):
            raise InvalidSpec(f"hazards must be a list of hazard ids, got {self.hazards!r}")
        object.__setattr__(self, "hazards", tuple(self.hazards))


def build_scenario(
    plans: list[CountyPlan],
    seed: int,
    n_features: int = 35,
    informative_count: int = 5,
    law: str = LAW_LINEAR_LOGIT,
    noise: float = 0.2,
    coupling: str = COUPLING_SHARED,
    share_law_across_counties: bool = True,
) -> list[ScenarioSpec]:
    """Per-county specs for a multi-county scenario.

    With share_law_across_counties every county obeys the same exposure law
    (models should transfer); without it each county gets its own law over
    its own informative set, disjoint across counties when the feature
    budget allows.
    """
    pick_rng = np.random.default_rng(child_seed(seed, "law-pick"))

    def pick() -> tuple[int, ...]:
        drawn = pick_rng.choice(n_features, size=informative_count, replace=False)
        return tuple(sorted(int(j) for j in drawn))

    if share_law_across_counties:
        base = pick()
        sets = [base for _ in plans]
    elif len(plans) * informative_count <= n_features:
        perm = pick_rng.permutation(n_features)
        sets = [
            tuple(sorted(int(j) for j in perm[i * informative_count : (i + 1) * informative_count]))
            for i in range(len(plans))
        ]
    else:
        sets = [pick() for _ in plans]
    specs = []
    for plan, informative in zip(plans, sets):
        law_seed = (
            child_seed(seed, "law")
            if share_law_across_counties
            else child_seed(seed, "law", plan.name)
        )
        specs.append(
            ScenarioSpec(
                county_id=plan.name,
                n_tracts=plan.n_tracts,
                n_features=n_features,
                informative=informative,
                law=law,
                noise=noise,
                coupling=coupling,
                hazards=plan.hazards,
                seed=child_seed(seed, "county", plan.name),
                law_seed=law_seed,
            )
        )
    return specs


SYNTH6X3_COUNTIES = (
    ("alder", 200),
    ("birch", 230),
    ("cedar", 130),
    ("dogwood", 100),
    ("elm", 140),
    ("fir", 160),
)
SYNTH6X3_HAZARDS = ("heat", "flood", "air")
SYNTH6X3_AIR_ABSENT = ("elm", "fir")

FEATURE_GROUPS = ("built_environment", "human_mobility", "land_cover", "social_demographic")
# group sizes over the 35 default features, mirroring a realistic catalog
_GROUP_SIZES = (12, 4, 5, 14)


def synth6x3_feature_groups() -> dict[str, str]:
    """Feature name -> group mapping for the default 35-feature schema."""
    in_order = (group for group, size in zip(FEATURE_GROUPS, _GROUP_SIZES) for _ in range(size))
    return {f"f{j:02d}": group for j, group in enumerate(in_order)}


def synth6x3_specs(seed: int, noise: float = 0.3) -> list[ScenarioSpec]:
    """The six-county, three-hazard benchmark scenario.

    All counties share one exposure law (feature-caused coupling between
    hazards); the air hazard is absent in the last two counties so the
    pipeline's absent-pair handling is exercised.
    """
    plans = []
    for name, n_tracts in SYNTH6X3_COUNTIES:
        hazards = tuple(
            h
            for h in SYNTH6X3_HAZARDS
            if not (h == "air" and name in SYNTH6X3_AIR_ABSENT)
        )
        plans.append(CountyPlan(name=name, n_tracts=n_tracts, hazards=hazards))
    return build_scenario(
        plans,
        seed=seed,
        n_features=35,
        informative_count=7,
        law=LAW_LINEAR_LOGIT,
        noise=noise,
        coupling=COUPLING_FEATURE_CAUSED,
        share_law_across_counties=True,
    )
