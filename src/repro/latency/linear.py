"""The paper's linear load-dependent latency model ``l_i(x) = t_i x``."""

from __future__ import annotations

import numpy as np

from repro._validation import as_float_array, check_positive
from repro.latency.base import LatencyModel

__all__ = ["LinearLatencyModel"]


class LinearLatencyModel(LatencyModel):
    """Linear latency ``l_i(x) = t_i x`` (paper, eq. 1).

    ``t_i`` is inversely proportional to machine ``i``'s processing
    rate: a small ``t_i`` is a fast machine.  The per-machine total
    latency is the quadratic ``t_i x^2``, so the system objective is
    ``L(x) = sum_i t_i x_i^2``.

    Parameters
    ----------
    t:
        Strictly positive per-machine latency slopes.

    Examples
    --------
    >>> model = LinearLatencyModel([1.0, 2.0])
    >>> model.per_job([3.0, 1.0])
    array([3., 2.])
    >>> model.total_latency([3.0, 1.0])
    11.0
    """

    def __init__(self, t: np.ndarray) -> None:
        t = as_float_array(t, "t")
        check_positive(t, "t")
        self._t = t
        self._t.setflags(write=False)
        self.n_machines = int(t.size)

    @property
    def t(self) -> np.ndarray:
        """Per-machine latency slopes (read-only)."""
        return self._t

    @property
    def processing_rates(self) -> np.ndarray:
        """Per-machine processing rates ``1 / t_i``."""
        return 1.0 / self._t

    # ---------------------------------------------------------------- core

    def per_job(self, loads: np.ndarray) -> np.ndarray:
        loads = self._check_loads(loads)
        return self._t * loads

    def marginal(self, loads: np.ndarray) -> np.ndarray:
        loads = self._check_loads(loads)
        return 2.0 * self._t * loads

    def marginal_inverse(self, slope: float | np.ndarray) -> np.ndarray:
        slope = np.asarray(slope, dtype=np.float64)
        if np.any(slope < 0.0):
            raise ValueError("slope must be non-negative")
        return slope / (2.0 * self._t)

    def load_capacity(self) -> np.ndarray:
        return np.full(self.n_machines, np.inf)

    # ------------------------------------------------------------ utilities

    def per_job_inverse(self, level: float | np.ndarray) -> np.ndarray:
        """Load at which each machine's *per-job* latency equals ``level``.

        Broadcastable (a ``(G, 1)`` level column yields a ``(G, n)``
        load matrix), which is what lets the Wardrop sweep bisect every
        arrival-rate grid point at once.
        """
        level = np.asarray(level, dtype=np.float64)
        return np.maximum(level / self._t, 0.0)

    def with_values(self, t: np.ndarray) -> "LinearLatencyModel":
        """A new model of the same class with different slopes."""
        return LinearLatencyModel(t)

    def __repr__(self) -> str:
        return f"LinearLatencyModel(t={np.array2string(self._t, threshold=8)})"
