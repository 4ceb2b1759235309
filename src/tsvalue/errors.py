"""Exception taxonomy.

Three bases partition failures the way the CLI reports them: bad
configuration (exit 1), bad or insufficient data (exit 2), and numerical
breakdown (exit 3).
"""


class TsvalueError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TsvalueError):
    """Invalid configuration, model spec, or guard violation."""


class DataError(TsvalueError):
    """Malformed, missing, or insufficient input data."""


class NumericError(TsvalueError):
    """Numerical failure: non-finite values, singular or indefinite systems."""


def require(ok: bool, message: str, kind: type[ConfigError] = ConfigError) -> None:
    """Raise kind(message) unless ok: the one-line form of a settings check."""
    if not ok:
        raise kind(message)


def require_at_least(section, low: int, *names: str) -> None:
    """Each named field of the dataclass ``section`` is None or at least ``low``."""
    for name in names:
        value = getattr(section, name)
        require(value is None or value >= low, f"{name} must be >= {low}, got {value!r}")


# --- ingestion ---

class MissingFile(DataError):
    pass


class NonNumericCell(DataError):
    def __init__(self, row: int, col: int, text: str = ""):
        self.row, self.col = row, col
        super().__init__(f"non-numeric cell at row {row}, column {col}: {text!r}")


class NaNEncountered(DataError):
    def __init__(self, row: int, col: int, reason: str = ""):
        self.row, self.col = row, col
        msg = f"non-finite value at row {row}, column {col}"
        super().__init__(msg + (f" ({reason})" if reason else ""))


class NonMonotonicTimestamps(DataError):
    pass


class NotUtf8(DataError):
    pass


# --- segmentation / splitting ---

class TargetTooShort(DataError):
    pass


class BlockLongerThanRange(DataError):
    pass


class SampleLongerThanRange(DataError):
    pass


class TooFewSamples(DataError):
    pass


class ZeroStd(DataError):
    pass


# --- forecaster ---

class InvalidSpec(ConfigError):
    pass


class ShapeMismatch(ConfigError):
    pass


class EmptyBatch(ConfigError):
    pass


class NonFiniteGradient(NumericError):
    pass


class NonFiniteLoss(NumericError):
    pass


# --- valuation ---

class HorizonTooLong(ConfigError):
    pass


class EmptyContext(ConfigError):
    pass


# --- oracles ---

class PTooLarge(ConfigError):
    pass


class IndefiniteAfterDamping(NumericError):
    def __init__(self, min_eigenvalue: float, damping: float):
        self.min_eigenvalue = min_eigenvalue
        self.damping = damping
        super().__init__(
            f"Hessian indefinite after damping {damping:g} "
            f"(smallest eigenvalue ~ {min_eigenvalue:g}); increase damping"
        )


class SingularSystem(NumericError):
    pass


class RankDeficient(NumericError):
    pass


class NonFiniteUtility(NumericError):
    pass


class LengthMismatch(ConfigError):
    pass


# --- selection / evaluation ---

class EmptyScores(DataError):
    pass


class TestRangeTooShort(DataError):
    pass


class FractionTooLarge(ConfigError):
    pass


class AllOneClass(DataError):
    pass


class WhollyUnscoredSample(DataError):
    pass
