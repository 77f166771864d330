"""Exception types shared across the package: one family per CLI exit code,
caught by its base class (ValueError 2, ProtocolError 3, NumericError 4,
OSError 5, InvalidStateError 6)."""


class ChamberOptError(Exception):
    """Base class for all package errors."""


class BoundsViolationError(ChamberOptError, ValueError):
    """Usage family (exit 2): a coordinate fell outside its dimension's bounds."""


class NumericError(ChamberOptError):
    """Numeric family (exit 4): a factorization, scaling or fit failed."""


class DegenerateDataError(NumericError):
    """Numeric family (exit 4): training data has too few points."""


class ProtocolError(ChamberOptError):
    """Protocol family (exit 3): ask-tell files broke the proposal/result rules."""


class DataError(ProtocolError):
    """Protocol family (exit 3): a results file held NaN, inf or bad types."""


class InvalidStateError(ChamberOptError):
    """Exit 6: a campaign operation was called in the wrong lifecycle state."""


class StateFileError(ChamberOptError, OSError):
    """I/O family (exit 5): a campaign state file is corrupt or unsupported."""
