"""Learning agents: do adaptive bidders converge to the truth?

Theorem 3.1 says truth-telling *dominates*, but real participants may
not know the theorem — they experiment.  This module models machines as
no-regret learners over a grid of bid factors (multiplicative weights /
Hedge on realised utilities) playing the mechanism repeatedly.

What the dynamics actually reveal (measured, and pinned by the tests):
the PR allocation is invariant to a *common* rescaling of all bids, so
the bid-only repeated game has a continuum of allocation-equivalent
equilibria — every profile ``b = beta * t`` yields the optimal
allocation.  Under the verification mechanism the learners coordinate
on one common scale (which one depends on the exploration noise), and
the realised latency converges to the optimum ``L*`` even though the
literal bids need not equal the truth.  Under the non-truthful
declared-compensation variant the learners drift into overbidding and
never settle on an allocation-equivalent profile — a persistent
efficiency loss remains.  Efficiency, not literal truth-telling, is
what the mechanism makes learnable; see EXPERIMENTS.md (A14).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import (
    as_float_array,
    check_positive,
    check_positive_scalar,
)
from repro.agents import kernels
from repro.mechanism.base import Mechanism
from repro.mechanism.properties import deviation_utility

__all__ = ["LearningTrace", "MultiplicativeWeightsBidder", "simulate_learning"]


class MultiplicativeWeightsBidder:
    """Hedge over a grid of bid factors for one machine.

    Each round the bidder samples a factor from its weight
    distribution, observes its realised utility, and re-weights with
    ``w_k *= exp(eta * normalised_utility_k)`` using full-information
    feedback (the closed-form mechanism lets us evaluate every
    counterfactual factor at once, so Hedge — not bandit — feedback is
    the honest model).

    Parameters
    ----------
    true_value:
        The machine's private slope (it always executes at capacity —
        slow execution is transparently dominated and learning it would
        only slow the experiment down).
    factors:
        The bid-factor grid to learn over; must include 1.0.
    learning_rate:
        Hedge step size ``eta``.
    rng:
        Randomness for the per-round sampling.
    """

    def __init__(
        self,
        true_value: float,
        rng: np.random.Generator,
        *,
        factors: np.ndarray | None = None,
        learning_rate: float = 0.2,
    ) -> None:
        self.true_value = check_positive_scalar(true_value, "true_value")
        if factors is None:
            factors = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0])
        self.factors = as_float_array(factors, "factors")
        check_positive(self.factors, "factors")
        if not np.any(np.isclose(self.factors, 1.0)):
            raise ValueError("the factor grid must include 1.0 (the truth)")
        self.learning_rate = check_positive_scalar(learning_rate, "learning_rate")
        self._rng = rng
        self.weights = np.full(self.factors.size, 1.0 / self.factors.size)

    def sample_bid(self) -> float:
        """Draw a bid from the current mixed strategy."""
        k = int(self._rng.choice(self.factors.size, p=self.weights))
        return float(self.factors[k] * self.true_value)

    def update(self, counterfactual_utilities: np.ndarray) -> None:
        """Hedge update from the utility of every factor this round."""
        utilities = np.asarray(counterfactual_utilities, dtype=np.float64)
        if utilities.shape != self.factors.shape:
            raise ValueError("one utility per factor is required")
        spread = np.ptp(utilities)
        normalised = (
            (utilities - utilities.min()) / spread if spread > 0 else np.zeros_like(utilities)
        )
        self.weights = self.weights * np.exp(self.learning_rate * normalised)
        self.weights /= self.weights.sum()

    @property
    def truthful_mass(self) -> float:
        """Probability currently placed on the truthful factor."""
        k = int(np.argmin(np.abs(self.factors - 1.0)))
        return float(self.weights[k])

    @property
    def modal_factor(self) -> float:
        """The factor carrying the most weight."""
        return float(self.factors[int(np.argmax(self.weights))])


@dataclass(frozen=True)
class LearningTrace:
    """History of a learning run."""

    truthful_mass: np.ndarray  # (rounds, n_agents)
    modal_factors: np.ndarray  # (n_agents,) at the end
    realised_latency: np.ndarray  # (rounds,)

    @property
    def rounds(self) -> int:
        return int(self.truthful_mass.shape[0])

    def final_truthful_mass(self) -> np.ndarray:
        """Per-agent probability on the truth after the last round."""
        return self.truthful_mass[-1]


def simulate_learning(
    mechanism: Mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
    rng: np.random.Generator,
    *,
    rounds: int = 200,
    learning_rate: float = 0.2,
    factors: np.ndarray | None = None,
    arrival_schedule=None,
    round_duration: float = 40.0,
) -> LearningTrace:
    """Run Hedge learners against each other through the mechanism.

    Each round: every machine samples a bid from its mixed strategy;
    the mechanism runs; each machine then receives the counterfactual
    utility of every factor (holding the others' sampled bids fixed)
    and updates.  Executions stay at capacity throughout.

    The counterfactual utilities of a mechanism with a kernel mode
    (:func:`repro.agents.kernels.kernel_mode_of`: the verification
    mechanism, VCG and Archer–Tardos) come from one closed-form
    broadcast per round, O(n * grid); any other mechanism re-runs once
    per factor (:func:`~repro.mechanism.properties.deviation_utility`),
    O(n * grid * n).

    ``arrival_schedule`` (any
    :class:`~repro.system.workload.ArrivalSchedule`) makes the repeated
    game nonstationary: round ``k`` is priced at the schedule's mean
    rate over ``[k*round_duration, (k+1)*round_duration)`` instead of
    the constant ``arrival_rate``, so learners chase a moving target —
    the regime the horizon engine's drift sweeps benchmark.
    """
    mode = kernels.kernel_mode_of(mechanism)
    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if arrival_schedule is None:
        round_rates = np.full(rounds, arrival_rate)
    else:
        round_duration = check_positive_scalar(round_duration, "round_duration")
        round_rates = np.array(
            [
                arrival_schedule.mean_rate(
                    k * round_duration, (k + 1) * round_duration
                )
                for k in range(rounds)
            ]
        )

    n = true_values.size
    learners = [
        MultiplicativeWeightsBidder(
            float(t), rng, factors=factors, learning_rate=learning_rate
        )
        for t in true_values
    ]
    grid = learners[0].factors

    mass_history = np.empty((rounds, n))
    latencies = np.empty(rounds)

    for round_index in range(rounds):
        bids = np.array([learner.sample_bid() for learner in learners])
        rate = float(round_rates[round_index])
        outcome = mechanism.run(bids, rate, true_values)
        latencies[round_index] = outcome.realised_latency

        if mode is None:
            own = np.eye(n, dtype=bool)
            all_utilities = np.array([
                [
                    deviation_utility(
                        mechanism, np.where(own[i], factor * true_values[i], bids),
                        true_values, rate, i,
                    )
                    for factor in grid
                ]
                for i in range(n)
            ])
        else:
            # Learners execute at capacity, so the leave-one-out
            # statistics use the true values as executions; one (n, K)
            # broadcast scores every agent's whole counterfactual grid.
            s_minus, q_minus = kernels.sufficient_statistics(bids, true_values)
            all_utilities = kernels.utility_kernel(
                grid[None, :] * true_values[:, None],
                true_values[:, None],
                s_minus[:, None],
                q_minus[:, None],
                rate,
                mode=mode,
            )
        for i, learner in enumerate(learners):
            learner.update(all_utilities[i])
            mass_history[round_index, i] = learner.truthful_mass

    return LearningTrace(
        truthful_mass=mass_history,
        modal_factors=np.array([learner.modal_factor for learner in learners]),
        realised_latency=latencies,
    )
