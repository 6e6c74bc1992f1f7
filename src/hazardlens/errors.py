"""Exception types shared across the package.

Every error raised on a contract violation derives from HazardLensError so
callers (notably the pipeline) can distinguish domain failures from bugs.
"""


class HazardLensError(Exception):
    """Base class for all domain errors."""


# -- dataset ingestion / labeling ---------------------------------------

class MissingColumn(HazardLensError):
    """A required column is absent from a CSV file."""


class NonNumericCell(HazardLensError):
    """A cell could not be parsed as a finite real number."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class DuplicateTract(HazardLensError):
    """The same tract_id appears more than once in a file."""


class NonFiniteValue(HazardLensError):
    """A value is NaN or infinite where a finite real is required."""


class HazardAbsent(HazardLensError):
    """The requested hazard has no data for this county."""


class DegenerateLabels(HazardLensError):
    """Binarization produced a single class; the pair cannot be modeled."""


class SchemaMismatch(HazardLensError):
    """County feature schemas cannot be reconciled."""

    def __init__(self, message, county=None, column=None):
        super().__init__(message)
        self.county = county
        self.column = column


# -- any stage ----------------------------------------------------------------

class DimensionMismatch(HazardLensError):
    """Inputs that must agree in width or length do not: a feature matrix
    and its model, labels and predictions, or evaluation sets."""


class NoEntries(HazardLensError):
    """Nothing to work on: an empty vector, subset, class distribution,
    metric table or transfer matrix."""


# -- model selection / metrics ------------------------------------------------

class TooFewSamples(HazardLensError):
    """Not enough rows, in all or in one class, to split or fill the folds."""


class NoPositives(HazardLensError):
    """F-score is undefined: no positive truth and no positive predictions."""


# -- importance -------------------------------------------------------------

class AllZeroImportance(HazardLensError):
    """No split contributed importance, so normalization is impossible."""


# -- synthetic generation / pipeline ----------------------------------------

class InvalidSpec(HazardLensError):
    """A synthetic scenario specification is inconsistent."""


class InvalidConfig(HazardLensError):
    """A run configuration failed validation."""
