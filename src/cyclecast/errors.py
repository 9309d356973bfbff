"""Exception hierarchy shared across the toolkit.

Every error raised on a documented contract boundary derives from
:class:`CycleCastError`, so callers (and the CLI exit-code mapping) can
distinguish toolkit failures from programming errors.
"""

from __future__ import annotations


class CycleCastError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CycleCastError):
    """Invalid or inconsistent run configuration."""


class DataError(CycleCastError):
    """Input data violates a documented contract."""


# --- dataset -----------------------------------------------------------

class MalformedRowError(DataError):
    def __init__(self, line_number: int, detail: str):
        super().__init__(f"line {line_number}: {detail}")
        self.line_number = line_number


class NonContiguousMonthsError(DataError):
    def __init__(self, what: str, gap_month, found):
        super().__init__(f"{what} months are not contiguous: expected {gap_month}, found {found}")
        self.gap_month = gap_month


class InvalidPhaseCodeError(DataError):
    def __init__(self, value):
        super().__init__(f"phase code {value!r} is not in 1..4")
        self.value = value


# --- numeric preconditions ----------------------------------------------

class TooShortError(DataError):
    """Series or sample is shorter than the operation requires."""


class NonPositiveForLogError(DataError):
    """log-difference requested on a series with non-positive values."""


class ZeroVarianceError(DataError):
    """Standardization window has zero variance."""


class EmptyOverlapError(DataError):
    """Two month ranges that must overlap do not."""


class DegenerateCovarianceError(DataError):
    """Panel carries no variance; PCA is undefined."""


class ZeroReferenceLoadingError(DataError):
    """Sign normalization reference column has a zero loading."""


class PowerIterationError(DataError):
    """Power iteration did not meet its tolerance within the step budget."""

    def __init__(self, steps: int, residual: float):
        super().__init__(
            f"power iteration did not converge in {steps} steps (last |w - v| = {residual:.3e})"
        )
        self.steps = steps
        self.residual = residual


class PanelTooShortError(DataError):
    """Panel has fewer rows than the requested window."""


class EmptyAfterFilterError(DataError):
    """Category filter removed every column of the panel."""


class InsufficientHistoryError(DataError):
    """Not enough observations ending at the requested month."""


# --- models --------------------------------------------------------------

class DegenerateInputError(DataError):
    """Training matrix carries no usable variation."""


class SingleClassError(DataError):
    """Training labels contain fewer than two distinct classes."""


class MlrConvergenceError(DataError):
    """Newton training of the multinomial logistic regression stopped short."""

    def __init__(self, steps: int, grad_norm: float, reason: str):
        super().__init__(
            f"MLR training stopped after {steps} Newton steps: {reason} "
            f"(gradient norm {grad_norm:.3e})"
        )
        self.steps = steps
        self.grad_norm = grad_norm


class DimensionMismatchError(DataError):
    """Input dimension does not match the model."""


class BadKError(DataError):
    """k outside 1..4 for a top-k query."""


class ModelFileError(CycleCastError):
    """Base class for model (de)serialization failures."""


class CorruptFileError(ModelFileError):
    """Model file is unreadable or structurally invalid."""


class VersionMismatchError(ModelFileError):
    def __init__(self, found, supported):
        super().__init__(f"model schema version {found} not supported (expected <= {supported})")
        self.found = found
        self.supported = supported


# --- evaluation ----------------------------------------------------------

class LengthMismatchError(DataError):
    """Prediction and truth sequences differ in length."""


class EmptyInputError(DataError):
    """Operation requires at least one sample."""


# --- fetch ---------------------------------------------------------------

class FetchError(CycleCastError):
    """Base class for provider client failures."""


class NetworkError(FetchError):
    """Transport failed, or offline mode hit a cache miss."""


class AuthError(FetchError):
    """Provider rejected the request credentials."""


class UnknownSeriesError(FetchError):
    def __init__(self, series_id: str):
        super().__init__(f"unknown series id {series_id!r}")
        self.series_id = series_id


class NonNumericPayloadError(FetchError):
    """Provider payload contained values that do not parse as numbers."""


# --- synthgen -------------------------------------------------------------

class BadSpecError(DataError):
    """Synthetic regime specification violates its invariants."""
