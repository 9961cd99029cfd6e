"""Equilibrium analysis under noisy verification.

:func:`epsilon_truthfulness_under_noise` quantifies how much of the
incentive guarantee survives when the verification step estimates
execution values with sampling noise (the realistic protocol setting
from :mod:`repro.protocol`): with noisy ``t̂`` the mechanism is only
epsilon-truthful, and epsilon shrinks as observations accumulate.
Truthfulness against truthful opponents is audited by
:func:`repro.mechanism.truthfulness_audit`.
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    as_float_array,
    check_index,
    check_positive,
    check_positive_scalar,
)
from repro.mechanism.base import Mechanism

__all__ = [
    "epsilon_truthfulness_under_noise",
]


def epsilon_truthfulness_under_noise(
    mechanism: Mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
    agent: int,
    rng: np.random.Generator,
    *,
    noise_relative_std: float,
    n_samples: int = 200,
    bid_factors: tuple[float, ...] = (0.5, 0.8, 1.0, 1.25, 2.0),
) -> float:
    """Expected best deviation gain when verification is noisy.

    Models the protocol's estimator as ``t̂_i = t̃_i (1 + noise)`` with
    ``noise ~ Normal(0, noise_relative_std)`` applied independently per
    machine and per sample, and returns the Monte-Carlo estimate of the
    largest *expected* utility gain any scanned bid deviation achieves
    (executions held at capacity — noise already perturbs the observed
    values).  The returned epsilon -> 0 as the noise vanishes.
    """
    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    agent = check_index(agent, true_values.size, "agent")
    if noise_relative_std < 0.0:
        raise ValueError("noise_relative_std must be non-negative")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")

    t_i = true_values[agent]
    n = true_values.size

    def expected_utility(bid: float) -> float:
        bids = true_values.copy()
        bids[agent] = bid
        total = 0.0
        for _ in range(n_samples):
            noise = 1.0 + rng.normal(0.0, noise_relative_std, size=n)
            observed = np.maximum(true_values * noise, 1e-9)
            outcome = mechanism.run(bids, arrival_rate, observed)
            # The agent's *realised* cost uses its true execution value;
            # the noisy observation only distorts the payment.
            payment = float(outcome.payments.payment[agent])
            cost = t_i * float(outcome.loads[agent]) ** 2
            total += payment - cost
        return total / n_samples

    truthful = expected_utility(t_i)
    best = max(expected_utility(bf * t_i) for bf in bid_factors if bf != 1.0)
    return max(0.0, best - truthful)
