"""Shared error taxonomy, and the integer and real-number checks that raise it.

The CLI maps these to exit codes: bad input -> 1, solver failures -> 2,
capacity limits -> 3. Singular-matrix errors exit 2, even though they
subclass BadInputError.

Every public entry point validates a real parameter by one rule,
_check_real: a real number that is not a bool, not NaN, and inside the
parameter's interval, written like "(0, 1]" or "[0, inf)"; grids, ladders
and breakpoints take its sequence form _check_grid, which also requires
strict increase. Array inputs take its array form _check_array: finite
real entries, none a bool, in the expected shape; the FieldSample kernels
take a float64 point of the right shape as it is and check anything else.
Mixture.eval, which solves and certificates call at every step, takes a
Python float unchecked and anything else through one dtype-kind test. A
relation between parameters (such as step < beta) is checked where it arises.
"""
from __future__ import annotations

import numbers
from functools import lru_cache

import numpy as np


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
    """A Gaussian conditioning event is impossible: a pinned row that the
    conditioning module's rank rule finds dependent on the rows kept before
    it has a value off its conditional mean given them."""


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


def _check_count(name: str, value, minimum: int):
    """Return value. Raise BadInputError for a bool, a value that is not an
    integer, or a value below minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise BadInputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


@lru_cache(maxsize=None)
def _interval(spec: str) -> tuple[float, float, bool, bool]:
    """Bounds and closedness of an interval written like "(0, 1]". Callers
    pass string literals, so the cache holds a handful of entries."""
    lo, hi = spec[1:-1].split(",")
    return float(lo), float(hi), spec[0] == "[", spec[-1] == "]"


def _check_real(name: str, value, interval: str, error: type = BadInputError) -> float:
    """Return value as a float. Raise error (BadInputError unless given)
    for a bool, a value that is not a real number, NaN, or a value outside
    interval, written like "(0, 1]" or "[0, inf)"."""
    # float first: most values are floats, and the ABC check costs ten times more
    if not isinstance(value, bool) and isinstance(value, (float, numbers.Real)):
        try:
            x = float(value)
            lo, hi, lo_closed, hi_closed = _interval(interval)
            if (lo <= x if lo_closed else lo < x) and (x <= hi if hi_closed else x < hi):
                return x
        except OverflowError:  # an integer past the float range is in no interval
            pass
    raise error(f"{name} must be a real number in {interval}, got {value!r}")


def _check_grid(name: str, values, interval: str, error: type = BadInputError) -> tuple[float, ...]:
    """Return values as a tuple of floats, each checked by _check_real and
    the tuple strictly increasing."""
    out = tuple(_check_real(name, v, interval, error) for v in values)
    if any(not a < b for a, b in zip(out, out[1:])):
        raise error(f"{name} must be strictly increasing, got {out}")
    return out


def _check_array(name: str, values, shape: tuple | None = None) -> np.ndarray:
    """Return values as a float array, the input itself when it is one. Raise
    BadInputError unless every entry is a finite real number, not a bool, and
    the array has shape when given (None matches any length)."""
    arr = values if isinstance(values, np.ndarray) and values.dtype.kind in "iuf" else None
    if arr is None:
        try:  # by entry type: numpy reads a bool as 0 or 1 and a numeric string as its value
            entries = np.array(values, dtype=object)
            # one ABC test per distinct type, not per entry
            if all(t is not bool and issubclass(t, numbers.Real) for t in set(map(type, entries.flat))):
                arr = entries.astype(float)
        except (ValueError, OverflowError):  # a ragged nesting, or an integer past the float range
            pass
    if arr is None or not np.isfinite(arr).all():
        raise BadInputError(f"{name} must be finite real numbers")
    if shape is not None and (
        arr.ndim != len(shape) or any(d not in (None, s) for d, s in zip(shape, arr.shape))
    ):
        raise BadInputError(f"{name} must have shape {shape}, got {arr.shape}")
    return np.asarray(arr, dtype=float)
