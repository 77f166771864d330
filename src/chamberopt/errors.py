"""Exception types shared across the package."""


class ChamberOptError(Exception):
    """Base class for all package errors."""


class BoundsViolationError(ChamberOptError):
    """A physical coordinate fell outside its dimension's bounds."""


class DegenerateDataError(ChamberOptError):
    """Training data has too few points."""


class NumericError(ChamberOptError):
    """A matrix factorization failed even after jitter escalation."""


class ProtocolError(ChamberOptError):
    """Ask-tell file exchange violated the proposal/result contract."""


class DataError(ChamberOptError):
    """A results file contained unusable values (NaN, inf, bad types)."""


class InvalidStateError(ChamberOptError):
    """A campaign operation was called in the wrong lifecycle state."""


class StateFileError(ChamberOptError):
    """Campaign state file is corrupt or has an unsupported version."""
