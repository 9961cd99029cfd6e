"""M/M/1 sojourn-time latency model ``l_i(x) = 1/(mu_i - x)``.

This is the delay model used by the companion truthful-mechanism paper
(Grosu & Chronopoulos, CLUSTER 2002 — ref [8] of the reproduced paper)
and the classical static load-balancing literature (ref [10]).  It is
included both as a substrate for the Archer–Tardos baseline mechanism
and as a validation target for the discrete-event queue simulator.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_float_array, check_positive
from repro.latency.base import LatencyModel

__all__ = ["MM1LatencyModel"]


class MM1LatencyModel(LatencyModel):
    """Expected sojourn time of an M/M/1 queue, per machine.

    For service rate ``mu_i`` and Poisson arrivals at rate ``x < mu_i``,
    the expected time a job spends at machine ``i`` is
    ``l_i(x) = 1 / (mu_i - x)``.  The per-machine total latency
    ``x / (mu_i - x)`` is the expected number of jobs in the system
    (Little's law), and the system objective ``L(x)`` is the expected
    total number of jobs in flight.

    Parameters
    ----------
    mu:
        Strictly positive per-machine service rates.
    """

    def __init__(self, mu: np.ndarray) -> None:
        mu = as_float_array(mu, "mu")
        check_positive(mu, "mu")
        self._mu = mu
        self._mu.setflags(write=False)
        self.n_machines = int(mu.size)

    @property
    def mu(self) -> np.ndarray:
        """Per-machine service rates (read-only)."""
        return self._mu

    # ---------------------------------------------------------------- core

    def per_job(self, loads: np.ndarray) -> np.ndarray:
        loads = self._check_loads(loads)
        return 1.0 / (self._mu - loads)

    def marginal(self, loads: np.ndarray) -> np.ndarray:
        # d/dx [x/(mu-x)] = mu / (mu - x)^2
        loads = self._check_loads(loads)
        return self._mu / (self._mu - loads) ** 2

    def marginal_inverse(self, slope: float | np.ndarray) -> np.ndarray:
        # mu/(mu-x)^2 = g  =>  x = mu - sqrt(mu/g), clipped at 0 when the
        # marginal at zero load (1/mu) already exceeds g.
        slope = np.asarray(slope, dtype=np.float64)
        if np.any(slope <= 0.0):
            raise ValueError("slope must be strictly positive for M/M/1")
        x = self._mu - np.sqrt(self._mu / slope)
        return np.maximum(x, 0.0)

    def load_capacity(self) -> np.ndarray:
        return self._mu.copy()

    # ------------------------------------------------------------ utilities

    def utilisation(self, loads: np.ndarray) -> np.ndarray:
        """Per-machine utilisation ``rho_i = x_i / mu_i``."""
        loads = self._check_loads(loads)
        return loads / self._mu

    def with_values(self, mu: np.ndarray) -> "MM1LatencyModel":
        """A new model of the same class with different service rates."""
        return MM1LatencyModel(mu)

    def __repr__(self) -> str:
        return f"MM1LatencyModel(mu={np.array2string(self._mu, threshold=8)})"
