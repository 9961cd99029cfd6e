"""Input validation helpers shared across the :mod:`repro` package.

All public API entry points validate their inputs once, at the boundary,
and then operate on trusted ``float64`` numpy arrays internally.  The
helpers here raise ``ValueError``/``TypeError`` with messages that name
the offending argument, so failures surface close to the caller.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "as_float_array",
    "check_positive",
    "check_nonnegative",
    "check_positive_scalar",
    "check_nonnegative_scalar",
    "check_same_length",
    "check_index",
    "check_finite",
    "check_mechanism_inputs",
]


def as_float_array(values: Iterable[float] | np.ndarray, name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D contiguous ``float64`` array.

    Parameters
    ----------
    values:
        Any sequence or array of numbers.
    name:
        Argument name used in error messages.

    Returns
    -------
    numpy.ndarray
        A 1-D ``float64`` array.  A copy is made only when needed, so
        callers may pass pre-converted arrays without paying for a copy.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


def check_finite(arr: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` if ``arr`` contains NaN or infinities."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")


def check_positive(arr: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless every element of ``arr`` is > 0."""
    if np.any(arr <= 0.0):
        raise ValueError(f"all elements of {name} must be strictly positive")


def check_nonnegative(arr: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` unless every element of ``arr`` is >= 0."""
    if np.any(arr < 0.0):
        raise ValueError(f"all elements of {name} must be non-negative")


def check_positive_scalar(value: float, name: str) -> float:
    """Validate that ``value`` is a finite scalar > 0 and return it as float."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_nonnegative_scalar(value: float, name: str) -> float:
    """Validate that ``value`` is a finite scalar >= 0 and return it as float."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_same_length(name_a: str, a: Sequence | np.ndarray, name_b: str, b: Sequence | np.ndarray) -> None:
    """Raise ``ValueError`` unless ``a`` and ``b`` have equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length, got {len(a)} and {len(b)}"
        )


def check_mechanism_inputs(
    bids,
    arrival_rate: float,
    execution_values=None,
    true_values=None,
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray | None]:
    """Boundary checks shared by every mechanism's ``run``.

    Vectors must be finite, strictly positive and of one length, the
    rate finite and positive, and ``t̃_i >= t_i`` (Section 3: no machine
    executes faster than its capacity).  Execution values default to a
    copy of the bids.  Returns the four inputs, validated.
    """
    bids = as_float_array(bids, "bids")
    check_positive(bids, "bids")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")

    if execution_values is None:
        execution_values = bids.copy()
    else:
        execution_values = as_float_array(execution_values, "execution_values")
        check_positive(execution_values, "execution_values")
        check_same_length("bids", bids, "execution_values", execution_values)

    if true_values is not None:
        true_values = as_float_array(true_values, "true_values")
        check_positive(true_values, "true_values")
        check_same_length("bids", bids, "true_values", true_values)
        if np.any(execution_values < true_values - 1e-12):
            bad = int(np.argmax(execution_values < true_values - 1e-12))
            raise ValueError(
                f"execution value {execution_values[bad]:g} at machine {bad} "
                f"is below its true value {true_values[bad]:g}; machines "
                "cannot execute faster than their capacity"
            )
    return bids, arrival_rate, execution_values, true_values


def check_index(index: int, size: int, name: str = "index") -> int:
    """Validate an integer index into a collection of length ``size``."""
    index = int(index)
    if not 0 <= index < size:
        raise IndexError(f"{name} must be in [0, {size}), got {index}")
    return index
