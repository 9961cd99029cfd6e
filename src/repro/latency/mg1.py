"""M/G/1 latency via Pollaczek–Khinchine, and its light-load linearisation.

The paper motivates the linear model ``l(x) = t x`` as "the expected
waiting time in a M/G/1 queue, under light load conditions (considering
t as the variance of the service time)" (Section 2, citing Altman et
al.).  This module implements the exact M/G/1 expected waiting time and
exposes the light-load linearisation explicitly, so tests can verify the
paper's claimed correspondence: as the load goes to zero the M/G/1
waiting time approaches ``x * E[S^2] / 2``, i.e. a linear latency with
slope ``t = E[S^2]/2``.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_float_array, check_positive
from repro.latency.base import LatencyModel
from repro.latency.linear import LinearLatencyModel

__all__ = ["MG1LatencyModel"]


class MG1LatencyModel(LatencyModel):
    """Expected M/G/1 *waiting* time per job, per machine.

    For Poisson arrivals at rate ``x`` and i.i.d. service times ``S``
    with first two moments ``E[S]`` and ``E[S^2]``, the
    Pollaczek–Khinchine formula gives the expected waiting time in queue

    ``W_q(x) = x E[S^2] / (2 (1 - x E[S]))``  for ``x E[S] < 1``.

    We use the waiting time (not the sojourn time) as the per-job
    latency because that is the quantity the paper linearises: at light
    load ``W_q(x) ≈ x E[S^2]/2``, exactly the paper's ``l(x) = t x``.

    Parameters
    ----------
    mean_service:
        Per-machine ``E[S]`` (strictly positive).
    second_moment:
        Per-machine ``E[S^2]``; must satisfy ``E[S^2] >= E[S]^2``.
    """

    def __init__(self, mean_service: np.ndarray, second_moment: np.ndarray) -> None:
        es = as_float_array(mean_service, "mean_service")
        es2 = as_float_array(second_moment, "second_moment")
        check_positive(es, "mean_service")
        check_positive(es2, "second_moment")
        if es.size != es2.size:
            raise ValueError("mean_service and second_moment must have equal length")
        if np.any(es2 < es**2):
            raise ValueError("second_moment must be at least mean_service**2")
        self._es = es
        self._es2 = es2
        self._es.setflags(write=False)
        self._es2.setflags(write=False)
        self.n_machines = int(es.size)

    @property
    def mean_service(self) -> np.ndarray:
        """Per-machine mean service time ``E[S]`` (read-only)."""
        return self._es

    @property
    def second_moment(self) -> np.ndarray:
        """Per-machine second moment ``E[S^2]`` (read-only)."""
        return self._es2

    # ---------------------------------------------------------------- core

    def per_job(self, loads: np.ndarray) -> np.ndarray:
        loads = self._check_loads(loads)
        return loads * self._es2 / (2.0 * (1.0 - loads * self._es))

    def marginal(self, loads: np.ndarray) -> np.ndarray:
        # total = x^2 es2 / (2 (1 - x es));
        # d/dx = es2 * (2x(1-x es) + x^2 es) / (2 (1 - x es)^2)
        #      = es2 * x (2 - x es) / (2 (1 - x es)^2)
        loads = self._check_loads(loads)
        one_minus = 1.0 - loads * self._es
        return self._es2 * loads * (2.0 - loads * self._es) / (2.0 * one_minus**2)

    def marginal_inverse(self, slope: float | np.ndarray) -> np.ndarray:
        """Invert the marginal in closed form.

        The marginal is strictly increasing from 0 (at zero load) to
        infinity (as the load approaches capacity), so the inverse is
        well defined for every non-negative slope.
        """
        # With u = x E[S] and k = 2 g E[S] / E[S^2] the equation
        # marginal = g reads u (2 - u) = k (1 - u)^2, so (1 - u)^2 =
        # 1 / (1 + k).  Written as x = 2 g / (E[S^2] r (r + 1)) with
        # r = sqrt(1 + k), the root loses no digits to cancellation.
        slope = np.broadcast_to(
            np.asarray(slope, dtype=np.float64), (self.n_machines,)
        )
        if np.any(slope < 0.0):
            raise ValueError("slope must be non-negative")
        r = np.sqrt(1.0 + 2.0 * slope * self._es / self._es2)
        return 2.0 * slope / (self._es2 * r * (r + 1.0))

    def load_capacity(self) -> np.ndarray:
        return 1.0 / self._es

    # ------------------------------------------------------------ utilities

    def light_load_linearization(self) -> LinearLatencyModel:
        """The paper's linear model this queue reduces to at light load.

        ``W_q(x) -> x E[S^2]/2`` as ``x -> 0``, so the linear slope is
        ``t_i = E[S_i^2] / 2``.
        """
        return LinearLatencyModel(self._es2 / 2.0)

    @classmethod
    def exponential(cls, mu: np.ndarray) -> "MG1LatencyModel":
        """M/G/1 with exponential service at rates ``mu`` (i.e. M/M/1).

        For ``S ~ Exp(mu)``: ``E[S] = 1/mu``, ``E[S^2] = 2/mu^2``.
        """
        mu = as_float_array(mu, "mu")
        check_positive(mu, "mu")
        return cls(1.0 / mu, 2.0 / mu**2)

    @classmethod
    def deterministic(cls, service_time: np.ndarray) -> "MG1LatencyModel":
        """M/D/1 with fixed service times (``E[S^2] = E[S]^2``)."""
        s = as_float_array(service_time, "service_time")
        check_positive(s, "service_time")
        return cls(s, s**2)

    def __repr__(self) -> str:
        return (
            f"MG1LatencyModel(mean_service={np.array2string(self._es, threshold=8)}, "
            f"second_moment={np.array2string(self._es2, threshold=8)})"
        )
