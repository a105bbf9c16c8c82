"""Exception types raised across the library.

Every failure mode has a named class so callers can catch precisely;
the CLI maps these onto exit codes.
"""


class FlowalError(Exception):
    """Base class for all library errors."""


# --- dataset ---------------------------------------------------------------

class DatasetError(FlowalError):
    """Base class for ingestion / dataset construction errors."""


class MissingColumn(DatasetError):
    pass


class NonNumericValue(DatasetError):
    """A feature cell failed to parse as a finite real number.

    Attributes:
        row: 1-based line number in the source file (header is line 1).
        column: name of the offending column.
    """

    def __init__(self, row: int, column: str, value: str = ""):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"non-numeric value {value!r} at row {row}, column {column!r}")


class EmptyDataset(DatasetError):
    pass


class DimensionMismatch(DatasetError):
    pass


class InvalidSpec(DatasetError):
    pass


class InvalidSchema(DatasetError):
    pass


class SchemaMismatch(DatasetError):
    pass


# --- learners --------------------------------------------------------------

class LearnerError(FlowalError):
    pass


class EmptyTrainingSet(LearnerError):
    pass


class InvalidCommitteeSize(LearnerError):
    pass


class EmptyTestSet(LearnerError):
    pass


# --- strategies ------------------------------------------------------------

class StrategyError(FlowalError):
    pass


class InvalidDistribution(StrategyError):
    pass


class EmptyCommittee(StrategyError):
    pass


class LengthMismatch(StrategyError):
    pass


class EmptyPool(StrategyError):
    pass


class BatchTooLarge(StrategyError):
    pass


class InvalidParams(StrategyError):
    pass


class UntrainedRegressor(StrategyError):
    pass


# --- engine ----------------------------------------------------------------

class EngineError(FlowalError):
    pass


class IndexOutOfRange(EngineError):
    pass


class InvalidPool(EngineError):
    pass


class NoStoppingCriterion(EngineError):
    pass


class EmptyStream(EngineError):
    pass


class InvalidThreshold(EngineError):
    pass


# --- metrics ---------------------------------------------------------------

class MetricsError(FlowalError):
    pass


class ZeroDenominator(MetricsError):
    pass


class ClassOutOfRange(MetricsError):
    pass


# --- bench / cli -----------------------------------------------------------

class BenchError(FlowalError):
    pass


class ConfigError(BenchError):
    pass


class EmptyReport(BenchError):
    pass
