"""Exception types raised across the library, and its integer and finite checks.

Every failure mode has a named class so callers can catch precisely.  The
classes are grouped by the CLI exit code they map to, and each group's base
class carries that code, so this module alone decides it:

- ``ConfigError`` (exit 1): a setting or parameter value is rejected;
- ``DatasetError`` (exit 2): a dataset cannot be read or built;
- any other ``FlowalError`` (exit 3): a runtime failure.
"""

import math
import numbers


class FlowalError(Exception):
    """Base class for all library errors; exit 3 unless a group overrides it."""

    exit_code = 3
    label = "error"


# --- exit 1: a setting or parameter value is rejected ----------------------

class ConfigError(FlowalError):
    exit_code = 1
    label = "config error"


class InvalidParams(ConfigError):
    pass


class InvalidSpec(ConfigError):
    pass


class InvalidThreshold(ConfigError):
    pass


class NoStoppingCriterion(ConfigError):
    pass


class InvalidPool(ConfigError):
    pass


class EmptyReport(ConfigError):
    pass


# --- exit 2: a dataset cannot be read or built -----------------------------

class DatasetError(FlowalError):
    exit_code = 2
    label = "data error"


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


class InvalidSchema(DatasetError):
    pass


class SchemaMismatch(DatasetError):
    pass


# --- exit 3: runtime failures ----------------------------------------------

class EmptyTrainingSet(FlowalError):
    pass


class InvalidCommitteeSize(FlowalError):
    pass


class EmptyTestSet(FlowalError):
    pass


class InvalidDistribution(FlowalError):
    pass


class EmptyCommittee(FlowalError):
    pass


class LengthMismatch(FlowalError):
    pass


class EmptyPool(FlowalError):
    pass


class BatchTooLarge(FlowalError):
    pass


class UntrainedRegressor(FlowalError):
    pass


class IndexOutOfRange(FlowalError):
    pass


class EmptyStream(FlowalError):
    pass


class ZeroDenominator(FlowalError):
    pass


class ClassOutOfRange(FlowalError):
    pass


# --- the integer and finite rules ------------------------------------------

def _check_int(value, name: str, error: type, minimum=None) -> None:
    """Raise ``error`` unless ``value`` is an int, and >= ``minimum`` if given."""
    # numpy integers are Integral; bool is an int subclass, but True trees
    # or split sizes are mistakes
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an int{bound}")


def _check_finite(value, name: str, error: type) -> None:
    """Raise ``error`` if ``value`` is NaN or infinite."""
    if not math.isfinite(value):
        raise error(f"{name} must be finite")
