"""Exception types shared across the package, and the integer and real checks.

The CLI maps these onto distinct exit codes: contract/config problems,
data/file problems, and failed numerical checks are kept separate.
"""

import numbers

import numpy as np


class ContractError(ValueError):
    """An argument violates a documented precondition (shape, range, config)."""


class DomainError(ValueError):
    """A numeric input is outside the mathematical domain (NaN/inf)."""


class UndefinedMetricError(ValueError):
    """A metric was requested on an empty tally."""


class DataError(Exception):
    """Base class for dataset / file-format problems."""


class MalformedHeaderError(DataError):
    """A file header is unreadable or structurally invalid."""


class TruncatedPayloadError(DataError):
    """A payload file does not hold the number of bytes the header declares."""


class DimensionOverflowError(DataError):
    """Declared raster dimensions are non-positive or implausibly large."""


def _integer(name: str, value) -> int:
    """``value`` as an ``int``: a bool or a float such as 5.0 is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a ``float``: a bool or a non-real value is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractError(f"{name} must be a real number, got {value!r}")
    return float(value)
