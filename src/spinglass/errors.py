"""Shared error taxonomy, and the integer and real-number checks that raise it.

The CLI maps these to exit codes: bad input -> 1, solver failures -> 2,
capacity limits -> 3. Singular-matrix errors exit 2, even though they
subclass BadInputError.
"""
from __future__ import annotations

import numbers


class BadInputError(ValueError):
    """Invalid argument or malformed input file."""


class MixtureError(BadInputError):
    """Invalid mixture coefficients or an out-of-domain transform."""


class SingularMatrixError(BadInputError):
    """A matrix that the operation requires to be invertible is singular.

    Raised e.g. for the 2x2 complexity covariance of a pure mixture, or when
    the pinned Franz-Parisi system is not positive definite or fails its
    residual check.
    """


class SingularBlockError(SingularMatrixError):
    """Observed block in Gaussian conditioning is singular and pseudo-inverse
    mode was not enabled."""


class RegimeMismatchError(BadInputError):
    """A temperature-regime precondition does not hold (e.g. a
    high-temperature formula queried above the critical point)."""


class KMismatchError(BadInputError):
    """The replica-symmetry-breaking level found by the solver does not match
    what the formula requires."""


class SolverFailedError(RuntimeError):
    """Optimizer finished without a passing optimality certificate."""


class NotBracketedError(SolverFailedError):
    """Root search could not bracket the target (e.g. no symmetry breaking
    detected below the configured maximum inverse temperature)."""


class CapacityExceededError(RuntimeError):
    """Requested dense-tensor size exceeds the configured memory caps."""


def _check_count(name: str, value, minimum: int) -> None:
    """Reject a value that is a bool, not an integer, or below minimum with
    BadInputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise BadInputError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_real(name: str, value) -> None:
    """Reject a value that is a bool or not a real number with
    BadInputError; the caller checks its range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadInputError(f"{name} must be a real number, got {value!r}")
