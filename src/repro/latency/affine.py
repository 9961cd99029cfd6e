"""Affine latency model ``l_i(x) = a_i + t_i x``.

The linear model the paper uses is the zero-intercept special case.
The affine generalisation matters for the selfish-routing comparison
(:mod:`repro.analysis.wardrop`): with zero intercepts the selfish
(Wardrop) allocation coincides with the system optimum, while with
intercepts the two separate and the price of anarchy is bounded by 4/3
(Roughgarden & Tardos — the paper's ref [19] line of work).
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_float_array, check_nonnegative, check_positive
from repro.latency.base import LatencyModel
from repro.latency.linear import LinearLatencyModel

__all__ = ["AffineLatencyModel"]


class AffineLatencyModel(LatencyModel):
    """Affine per-job latency ``l_i(x) = a_i + t_i x``.

    Parameters
    ----------
    intercept:
        Load-independent latency components ``a_i >= 0`` (e.g. fixed
        service or network time).
    slope:
        Load-dependent slopes ``t_i > 0``.
    """

    def __init__(self, intercept: np.ndarray, slope: np.ndarray) -> None:
        a = as_float_array(intercept, "intercept")
        t = as_float_array(slope, "slope")
        check_nonnegative(a, "intercept")
        check_positive(t, "slope")
        if a.size != t.size:
            raise ValueError("intercept and slope must have equal length")
        self._a = a
        self._t = t
        self._a.setflags(write=False)
        self._t.setflags(write=False)
        self.n_machines = int(t.size)

    @property
    def intercept(self) -> np.ndarray:
        """Per-machine constant latency terms (read-only)."""
        return self._a

    @property
    def slope(self) -> np.ndarray:
        """Per-machine latency slopes (read-only)."""
        return self._t

    # ---------------------------------------------------------------- core

    def per_job(self, loads: np.ndarray) -> np.ndarray:
        loads = self._check_loads(loads)
        return self._a + self._t * loads

    def marginal(self, loads: np.ndarray) -> np.ndarray:
        # d/dx [x (a + t x)] = a + 2 t x
        loads = self._check_loads(loads)
        return self._a + 2.0 * self._t * loads

    def marginal_inverse(self, slope: float | np.ndarray) -> np.ndarray:
        slope = np.asarray(slope, dtype=np.float64)
        if np.any(slope < 0.0):
            raise ValueError("slope must be non-negative")
        return np.maximum((slope - self._a) / (2.0 * self._t), 0.0)

    def load_capacity(self) -> np.ndarray:
        return np.full(self.n_machines, np.inf)

    # ------------------------------------------------------------ utilities

    def per_job_inverse(self, level: float | np.ndarray) -> np.ndarray:
        """Load at which each machine's *per-job* latency equals ``level``.

        Clipped at zero where the intercept already exceeds the level.
        This is the primitive the Wardrop equilibrium solver needs: at
        equilibrium every used machine has equal per-job latency.
        """
        level = np.asarray(level, dtype=np.float64)
        return np.maximum((level - self._a) / self._t, 0.0)

    def without_intercepts(self) -> LinearLatencyModel:
        """The paper's linear model with the same slopes."""
        return LinearLatencyModel(self._t)

    def __repr__(self) -> str:
        return (
            f"AffineLatencyModel(intercept={np.array2string(self._a, threshold=8)}, "
            f"slope={np.array2string(self._t, threshold=8)})"
        )
